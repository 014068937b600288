//! P3 plans run copy by copy after copy 0, which their build times once
//! with the chain sweep.
//!
//! Every catalog base (the six zoo models at batches 4 and 8) must build
//! the per-copy run for both the FIFO and the sliced plan, every
//! evaluation must take it (its reported count of timed tasks is the
//! plan's tasks after copy 0: no check sent it whole), and it must
//! predict exactly what the unrolled oracle does: the profile unrolled,
//! the push/pull tasks spliced in place, and the whole graph simulated by
//! the frontier kernel under `P3Scheduler`. One plan per config serves
//! seven clusters, as in the sweep engine, two of them with several GPUs
//! per machine. A two-iteration plan reads copy 0 as a steady-state copy,
//! so it times the whole plan through the dispatch loop, the one run
//! that reads copy 0's range; it must match the same oracle. About 9 s
//! in a debug build; CI also runs it in release, the build the engine
//! ships, where `debug_assert!`s and overflow checks are off.

use daydream_comm::ClusterConfig;
use daydream_core::whatif::{
    p3_insert_plan, p3_replicated_base, plan_p3_inserts, P3Config, P3Plan, P3Scheduler,
    P3_ITERATIONS,
};
use daydream_core::{simulate_with, CompiledGraph, ProfiledGraph, ReplicatedGraph, SimScratch};
use daydream_models::Model;
use daydream_runtime::{ground_truth, ExecConfig};

const CONFIGS: [fn(ClusterConfig) -> P3Config; 2] = [P3Config::baseline, P3Config::p3];

fn profile(model: &Model, batch: u64) -> ProfiledGraph {
    let cfg = ExecConfig::pytorch_2080ti().with_batch(batch);
    ProfiledGraph::from_trace(&ground_truth::run_baseline(model, &cfg))
}

/// The unrolled oracle: `cfg`'s push/pull tasks spliced into `rep` in
/// place, the whole graph simulated by the kernel under `P3Scheduler`.
fn unrolled_steady_ns(pg: &ProfiledGraph, rep: &ReplicatedGraph, cfg: &P3Config) -> u64 {
    let mut unrolled = rep.clone();
    plan_p3_inserts(&mut unrolled.graph, &p3_insert_plan(pg, rep, cfg));
    let sim = simulate_with(&unrolled.graph, &P3Scheduler).unwrap();
    unrolled.steady_iteration_ns(&sim)
}

#[test]
fn resumed_p3_plans_match_the_unresumed_oracle_on_every_catalog_base() {
    let clusters = [
        ClusterConfig::new(1, 1, 1.0),
        ClusterConfig::new(2, 1, 8.0),
        ClusterConfig::new(8, 1, 25.0),
        ClusterConfig::new(4, 1, 100.0),
        ClusterConfig::new(8, 1, 1.0),
        ClusterConfig::new(2, 2, 10.0),
        ClusterConfig::new(1, 4, 4.0),
    ];
    let mut scratch = SimScratch::new();
    for model in daydream_models::zoo::all_models() {
        for batch in [4u64, 8] {
            let pg = profile(&model, batch);
            let rep = p3_replicated_base(&pg, P3_ITERATIONS);
            let rep_compiled = CompiledGraph::compile(&rep.graph);
            for config in CONFIGS {
                let plan = P3Plan::build(&pg, &rep, &rep_compiled, &config(clusters[0]));
                let at = format!(
                    "{} b{batch} {:?}",
                    model.name,
                    config(clusters[0]).slice_bytes
                );
                assert_eq!(
                    plan.replayed_tasks(),
                    pg.graph.len(),
                    "{at}: copy 0 replays"
                );
                for cluster in &clusters {
                    let (per_copy, timed) =
                        plan.steady_iteration_ns(cluster, &mut scratch).unwrap();
                    assert_eq!(
                        timed,
                        plan.dispatched_tasks(),
                        "{at} on {cluster:?}: the per-copy run"
                    );
                    assert_eq!(
                        per_copy,
                        unrolled_steady_ns(&pg, &rep, &config(*cluster)),
                        "{at} on {cluster:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn two_iteration_plans_time_the_whole_plan_and_match_the_oracle() {
    let clusters = [
        ClusterConfig::new(4, 1, 10.0),
        ClusterConfig::new(2, 2, 1.0),
    ];
    let mut scratch = SimScratch::new();
    for name in ["ResNet-50", "GNMT"] {
        let model = daydream_models::zoo::by_name(name).unwrap();
        let pg = profile(&model, 4);
        let rep = p3_replicated_base(&pg, 2);
        let rep_compiled = CompiledGraph::compile(&rep.graph);
        for config in CONFIGS {
            let plan = P3Plan::build(&pg, &rep, &rep_compiled, &config(clusters[0]));
            let at = format!("{name} b4 {:?}", config(clusters[0]).slice_bytes);
            assert_eq!(
                plan.replayed_tasks(),
                0,
                "{at}: copy 0 is a steady-state copy"
            );
            for cluster in &clusters {
                let (whole, timed) = plan.steady_iteration_ns(cluster, &mut scratch).unwrap();
                assert_eq!(
                    timed,
                    plan.compiled().len(),
                    "{at} on {cluster:?}: every task timed"
                );
                assert_eq!(
                    whole,
                    unrolled_steady_ns(&pg, &rep, &config(*cluster)),
                    "{at} on {cluster:?}"
                );
            }
        }
    }
}
