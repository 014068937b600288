//! Bench: the dispatch kernel on the real catalog bases.
//!
//! Times `simulate_compiled` on the 12 catalog bases (the six zoo models
//! at batches 4 and 8) and `P3Plan::steady_iteration_ns` on a warmed
//! `SimScratch` arena for each base's P3 plan: three unrolled iterations
//! with 4 MB-sliced push/pull transfers for a 4-machine, 10 Gbit/s
//! cluster, the graph and the path the sweep engine simulates for a `p3`
//! scenario. Profiling, compilation, plan building and the arena's first
//! sizing stay outside the timed loop. Each figure is the median of
//! five timed rounds, so one preempted round cannot move it. Unless
//! running in `--test` smoke mode, the per-task costs are snapshotted
//! into the `"sim_kernel"` section of `BENCH_sim.json` at the workspace
//! root.

use criterion::Criterion;
use daydream_bench::util::profile_for;
use daydream_comm::ClusterConfig;
use daydream_core::whatif::{P3Config, P3Plan};
use daydream_core::{simulate_compiled, CompiledGraph, SimScratch};
use daydream_models::zoo;
use std::hint::black_box;

/// Timed rounds per figure.
const ROUNDS: usize = 5;

/// The median over [`ROUNDS`] rounds of `samples` runs each, in ns per
/// task of `cg`.
fn median_ns_per_task(
    c: &mut Criterion,
    id: &str,
    samples: usize,
    cg: &CompiledGraph,
    mut run: impl FnMut(&CompiledGraph),
) -> f64 {
    let mut group = c.benchmark_group("sim_kernel");
    group.sample_size(samples);
    for _ in 0..ROUNDS {
        group.bench_function(id, |b| b.iter(|| run(black_box(cg))));
    }
    group.finish();
    let name = format!("sim_kernel/{id}");
    let mut per_task: Vec<f64> = c
        .records()
        .iter()
        .filter(|r| r.name == name)
        .map(|r| r.ns_per_iter / cg.len() as f64)
        .collect();
    per_task.sort_by(f64::total_cmp);
    per_task[per_task.len() / 2]
}

fn main() {
    let mut c = Criterion::default();
    let quick = c.is_quick_mode();
    let mut rows: Vec<String> = Vec::new();
    for model in zoo::all_models() {
        for batch in [4u64, 8] {
            let (pg, _) = profile_for(&model.name, Some(batch), false);
            let base = CompiledGraph::compile(&pg.graph);
            let cluster = ClusterConfig::new(4, 1, 10.0);
            let plan = P3Plan::new(&pg, &P3Config::p3(cluster));
            let wires = plan.wire_times(&cluster);
            let mut scratch = SimScratch::new();
            plan.steady_iteration_ns(&wires, &mut scratch).unwrap();
            let p3 = plan.compiled();
            let label = format!("{} b{batch}", model.name);
            let base_ns = median_ns_per_task(&mut c, &format!("base/{label}"), 40, &base, |cg| {
                simulate_compiled(cg).unwrap();
            });
            let p3_ns = median_ns_per_task(&mut c, &format!("p3/{label}"), 10, p3, |_| {
                plan.steady_iteration_ns(&wires, &mut scratch).unwrap();
            });
            println!("sim_kernel {label}: base {base_ns:.1} ns/task, p3 {p3_ns:.1} ns/task");
            rows.push(format!(
                concat!(
                    "    {{\"model\": \"{}\", \"batch\": {}, ",
                    "\"tasks\": {}, \"threads\": {}, \"ns_per_task\": {:.1}, ",
                    "\"p3_tasks\": {}, \"p3_threads\": {}, \"p3_ns_per_task\": {:.1}}}"
                ),
                model.name,
                batch,
                base.len(),
                base.thread_count(),
                base_ns,
                p3.len(),
                p3.thread_count(),
                p3_ns,
            ));
        }
    }

    // Smoke runs (`--test`) measure one iteration — not worth snapshotting.
    if !quick {
        let json = format!(
            concat!(
                "{{\n  \"kernel\": \"simulate_compiled on each catalog base; ",
                "P3Plan::steady_iteration_ns on a warmed SimScratch arena (the engine's ",
                "path: wire times written into arena-owned rows, dense ranks sorted once ",
                "per plan) for its 3-iteration, 4 MB-sliced P3 plan for 4 machines at ",
                "10 Gbit/s\",\n",
                "  \"note\": \"wall time per dispatched task, median of 5 rounds; ",
                "compilation and plan building untimed\",\n",
                "  \"results\": [\n{}\n  ]\n  }}"
            ),
            rows.join(",\n")
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
        match criterion::snapshot::merge_section(path, "sim_kernel", &json) {
            Ok(()) => println!("wrote sim_kernel section of {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}
