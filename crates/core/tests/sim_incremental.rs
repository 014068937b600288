//! Incremental cone re-simulation against the full simulator.
//!
//! `simulate_warm_with` must be *byte-identical* to a full
//! `simulate_compiled` run of the applied graph: same per-task starts and
//! waits, same per-thread ends, same makespan — on random DAGs with
//! random op sequences, on the profiled ResNet-50 / BERT graphs for every
//! what-if transform in the catalog (including P3's inserts over its
//! replicated base), and on every fallback path, with the work
//! accounting each path must report. One arena shared by warm
//! evaluations and P3 plan runs must answer as fresh arenas do.
//! Patch composition (`GraphPatch::compose`, layered `PatchGraph`) is
//! pinned against sequential apply here too.

mod common;

use common::{assert_warm_matches_full, build_dag, canonical, thread_for};
use daydream_comm::ClusterConfig;
use daydream_core::whatif::{
    p3_insert_plan, p3_replicated_base, plan_amp, plan_bandwidth, plan_batch_size,
    plan_blueconnect, plan_dgc, plan_distributed, plan_fused_adam, plan_gist, plan_metaflow,
    plan_p3_inserts, plan_reconstruct_bn, plan_upgrade_gpu, plan_vdnn, qkv_fusion_policy,
    DgcConfig, GistConfig, P3Config, P3Plan, VdnnConfig, P3_ITERATIONS,
};
use daydream_core::{
    simulate_compiled, simulate_warm_with, CompiledGraph, DepKind, DependencyGraph, ExecThread,
    GraphEdit, GraphPatch, GraphView, IncrementalStats, PatchGraph, ProfiledGraph, Schedule,
    SimScratch, Task, TaskId, TaskKind, DEFAULT_MAX_CONE_FRACTION,
};
use daydream_trace::{CpuThreadId, DeviceId, StreamId};
use proptest::prelude::*;

/// Never fall back on cone size: exercises the incremental machinery on
/// every patch, however dense.
const FORCE: f64 = 1.0;

/// Always fall back on cone size (unless the patch has no simulation
/// effect at all): exercises the full-fallback path.
const FALLBACK: f64 = 0.0;

/// Evaluates `patch` warm over a freshly compiled `base` and asserts it
/// equals the full simulation of the applied graph (dense *and* expanded
/// arena-indexed forms) with the expected work accounting, returning it.
fn assert_incremental(base: &DependencyGraph, patch: &GraphPatch, budget: f64) -> IncrementalStats {
    let cg = CompiledGraph::compile(base);
    let schedule = Schedule::capture(&cg).expect("base must be a DAG");
    assert_warm_matches_full(&cg, &schedule, patch, budget, &mut SimScratch::new()).stats
}

/// One random mutation decoded against the overlay's current state
/// (inserts keep edges forward, so the patched graph stays a DAG).
fn apply_random_op(p: &mut PatchGraph<'_>, op: (u64, u64, u64, u64)) {
    let (sel, a, b, v) = op;
    let live = p.live_ids();
    if live.is_empty() {
        return;
    }
    let pick = |x: u64| live[(x as usize) % live.len()];
    match sel % 8 {
        0 => p.set_duration(pick(a), v % 500),
        1 => p.set_priority(pick(a), v as i64 % 10 - 5),
        2 => {
            let (x, y) = (pick(a), pick(b));
            if x != y {
                p.add_dep(x.min(y), x.max(y), DepKind::Transform);
            }
        }
        3 => {
            let (x, y) = (pick(a), pick(b));
            p.remove_dep(x.min(y), x.max(y));
        }
        4 => {
            if live.len() > 1 {
                p.remove_task(pick(a));
            }
        }
        5 => {
            let anchor = pick(a);
            let mut t = Task::new("ins", TaskKind::CpuWork, thread_for(v), v % 300);
            t.gap_ns = v % 13;
            let id = p.add_task(t);
            p.add_dep(anchor, id, DepKind::Transform);
        }
        6 => p.set_thread(pick(a), thread_for(v)),
        _ => {
            let anchor = pick(a);
            let mid = p.add_task(Task::new("mid", TaskKind::CpuWork, thread_for(b), v % 100));
            let tail = p.add_task(Task::new("tail", TaskKind::CpuWork, thread_for(v), v % 50));
            p.add_dep(anchor, mid, DepKind::Transform);
            p.add_dep(mid, tail, DepKind::Transform);
        }
    }
}

proptest! {
    // Random DAGs x random op sequences, with the cone forced, with the
    // default threshold, and with forced fallback: every path must equal
    // the full simulation.
    #[test]
    fn random_patches_match_full_simulation(
        tasks in prop::collection::vec((0u64..5, 0u64..200, 0u64..30), 1..60),
        edges in prop::collection::vec((0u64..10_000, 0u64..10_000), 0..150),
        ops in prop::collection::vec(
            (0u64..10_000, 0u64..10_000, 0u64..10_000, 0u64..10_000), 0..40),
    ) {
        let g = build_dag(&tasks, &edges);
        let mut p = PatchGraph::new(&g);
        for &op in &ops {
            apply_random_op(&mut p, op);
        }
        let patch = p.finish();
        let stats = assert_incremental(&g, &patch, FORCE);
        prop_assert!(stats.is_incremental(), "a forced cone never falls back");
        assert_incremental(&g, &patch, DEFAULT_MAX_CONE_FRACTION);
        let fb = assert_incremental(&g, &patch, FALLBACK);
        prop_assert!(
            !fb.is_incremental() || fb.redispatched == 0 || fb.entries.is_some(),
            "zero threshold must fall back unless the patch is a sim no-op or only adds threads"
        );
    }

    // The apply-free estimate surface of the sweep search's low-fidelity
    // rungs: `SimScratch::thread_busy_after` over the base + delta must
    // equal summing costs per thread over the patched graph, both the
    // applied one and the recompiled op-log replay, and
    // `try_simulate_warm_with` must make the checked decision of
    // `simulate_warm_with` — the same cone, or a refusal where that
    // falls back.
    #[test]
    fn apply_free_estimates_match_the_applied_graph(
        tasks in prop::collection::vec((0u64..5, 0u64..200, 0u64..30), 1..60),
        edges in prop::collection::vec((0u64..10_000, 0u64..10_000), 0..150),
        ops in prop::collection::vec(
            (0u64..10_000, 0u64..10_000, 0u64..10_000, 0u64..10_000), 0..40),
        budget_pct in 0u64..101,
    ) {
        use daydream_core::{thread_busy_ns, try_simulate_warm_with, ThreadId};
        use std::collections::BTreeMap;
        let g = build_dag(&tasks, &edges);
        let mut p = PatchGraph::new(&g);
        for &op in &ops {
            apply_random_op(&mut p, op);
        }
        let patch = p.finish();
        let base = CompiledGraph::compile(&g);
        let applied = base.apply(&patch);

        let busy = SimScratch::new().thread_busy_after(&base, &thread_busy_ns(&base), &patch);
        let bound = busy.iter().map(|&(_, b)| b).max().unwrap_or(0);
        let applied_busy = thread_busy_ns(&applied).into_iter().max().unwrap_or(0);
        prop_assert_eq!(
            bound, applied_busy,
            "delta busy bound diverged from the applied graph's busy time"
        );
        // Per thread against the replayed op log, which does not go
        // through `apply`.
        let nonzero = |busy: Vec<(ExecThread, u64)>| -> BTreeMap<ExecThread, u64> {
            busy.into_iter().filter(|&(_, b)| b > 0).collect()
        };
        let oracle = CompiledGraph::compile(&patch.apply_reference(&g));
        let oracle_busy = (0..oracle.thread_count() as u32)
            .map(|t| oracle.exec_thread(ThreadId(t)))
            .zip(thread_busy_ns(&oracle))
            .collect();
        prop_assert_eq!(
            nonzero(busy),
            nonzero(oracle_busy),
            "per-thread busy times diverged from the replayed op log"
        );
        // Not asserted against the makespan: a trailing `gap_ns` on a
        // thread's last task occupies the thread but not the makespan,
        // so the busy sum is a lower bound only up to trailing gaps.

        let budget = budget_pct as f64 / 100.0;
        let schedule = Schedule::capture(&base).unwrap();
        let checked =
            assert_warm_matches_full(&base, &schedule, &patch, budget, &mut SimScratch::new());
        let attempt =
            try_simulate_warm_with(&base, &schedule, &patch, &mut SimScratch::new(), budget)
                .unwrap();
        match attempt {
            Some(warm) => prop_assert_eq!(warm, checked),
            None => prop_assert!(!checked.stats.is_incremental()),
        }
    }

    // Composition: `prior.compose(base, refinement)` must equal applying
    // the two patches sequentially — structurally and under simulation.
    #[test]
    fn compose_matches_sequential_apply(
        tasks in prop::collection::vec((0u64..5, 0u64..200, 0u64..30), 1..40),
        edges in prop::collection::vec((0u64..10_000, 0u64..10_000), 0..80),
        prior_ops in prop::collection::vec(
            (0u64..10_000, 0u64..10_000, 0u64..10_000, 0u64..10_000), 0..20),
        refine_ops in prop::collection::vec(
            (0u64..10_000, 0u64..10_000, 0u64..10_000, 0u64..10_000), 0..20),
    ) {
        let g = build_dag(&tasks, &edges);
        let mut p = PatchGraph::new(&g);
        for &op in &prior_ops {
            apply_random_op(&mut p, op);
        }
        let prior = p.finish();
        let mid = prior.apply_reference(&g);
        let mut r = PatchGraph::new(&mid);
        for &op in &refine_ops {
            apply_random_op(&mut r, op);
        }
        let refinement = r.finish();

        let composed = prior.compose(&g, &refinement);
        let sequential = refinement.apply_reference(&mid);
        let composed_cg = CompiledGraph::compile(&composed.apply_reference(&g));
        let sequential_cg = CompiledGraph::compile(&sequential);
        prop_assert_eq!(
            canonical(&composed_cg),
            canonical(&sequential_cg),
            "composed structure diverged from sequential apply"
        );
        // The incremental compiler handles the composed patch like any
        // other, and the incremental simulator agrees with full.
        assert_incremental(&g, &composed, FORCE);
    }
}

// --- Pinned small-graph behavior -------------------------------------------

fn cpu(dur: u64) -> Task {
    Task::new("c", TaskKind::CpuWork, ExecThread::Cpu(CpuThreadId(0)), dur)
}

fn gpu(dur: u64) -> Task {
    Task::new(
        "g",
        TaskKind::GpuKernel,
        ExecThread::Gpu(DeviceId(0), StreamId(0)),
        dur,
    )
}

/// A serial CPU chain of `n` tasks, 10 ns each.
fn chain(n: usize) -> (DependencyGraph, Vec<TaskId>) {
    let mut g = DependencyGraph::new();
    let ids: Vec<TaskId> = (0..n).map(|_| g.add_task(cpu(10))).collect();
    for w in ids.windows(2) {
        g.add_dep(w[0], w[1], DepKind::CpuSeq);
    }
    (g, ids)
}

#[test]
fn tail_retime_redispatches_only_the_tail() {
    let (g, ids) = chain(100);
    let mut p = PatchGraph::new(&g);
    p.set_duration(ids[90], 500);
    let patch = p.finish();
    let stats = assert_incremental(&g, &patch, DEFAULT_MAX_CONE_FRACTION);
    assert!(stats.is_incremental());
    assert_eq!(
        stats.redispatched, 10,
        "only the retimed task and its downstream chain re-dispatch"
    );
    assert_eq!(stats.cutoff_ns, Some(900), "cutoff at the retimed start");
}

#[test]
fn empty_patch_redispatches_nothing() {
    let (g, _) = chain(20);
    let patch = PatchGraph::new(&g).finish();
    let stats = assert_incremental(&g, &patch, DEFAULT_MAX_CONE_FRACTION);
    assert!(stats.is_incremental());
    assert_eq!(stats.redispatched, 0);
}

#[test]
fn priority_patch_is_free_under_priority_blind_policy() {
    let (g, ids) = chain(20);
    let mut p = PatchGraph::new(&g);
    p.set_priority(ids[0], -99);
    let patch = p.finish();
    // The default order ignores priority: zero cone.
    let stats = assert_incremental(&g, &patch, DEFAULT_MAX_CONE_FRACTION);
    assert_eq!(stats.redispatched, 0);
}

/// A dependency removal can let a *later-ranked but earlier-timeline*
/// untouched task be overtaken: the prefix cutoff must not replay it.
/// Base: `x` (GPU, 100 ns) gates `u` (CPU id 1), so `w` (CPU id 2) runs
/// first on the CPU at t=0. Removing the edge frees `u` at t=0; with the
/// lower id it wins the tie and pushes `w` back.
#[test]
fn removed_dep_overtakes_earlier_timeline_task() {
    let mut g = DependencyGraph::new();
    let x = g.add_task(gpu(100));
    let u = g.add_task(cpu(10));
    let w = g.add_task(cpu(50));
    g.add_dep(x, u, DepKind::Sync);
    let mut p = PatchGraph::new(&g);
    p.remove_dep(x, u);
    let patch = p.finish();
    let stats = assert_incremental(&g, &patch, FORCE);
    assert!(stats.is_incremental());
    assert_eq!(
        stats.cutoff_ns,
        Some(0),
        "u can become ready at t=0, so nothing may be replayed"
    );
    // And the semantics: u (id 1) now beats w (id 2) on the shared CPU.
    let cg = CompiledGraph::compile(&g).apply(&patch);
    let sim = simulate_compiled(&cg).unwrap().into_sim_result(&cg);
    assert_eq!(sim.start_of(u), 0);
    assert_eq!(sim.start_of(w), 10);
}

#[test]
fn late_removed_dep_replays_the_prefix() {
    // x (GPU, long) gates c4 of a CPU chain; removing the edge frees c4
    // at c3's finish. Everything dispatched before fin(c3) replays.
    let (mut g, ids) = chain(6);
    let x = g.add_task(gpu(1_000));
    g.add_dep(x, ids[4], DepKind::Sync);
    let mut p = PatchGraph::new(&g);
    p.remove_dep(x, ids[4]);
    let patch = p.finish();
    let stats = assert_incremental(&g, &patch, DEFAULT_MAX_CONE_FRACTION);
    assert!(stats.is_incremental());
    assert_eq!(stats.cutoff_ns, Some(40), "cutoff at c3's finish");
    assert_eq!(
        stats.redispatched, 2,
        "only c4 and c5 re-dispatch; c0..c3 and x (dispatched at t=0) replay"
    );
}

/// A patch that leaves a base thread without tasks still runs its cone:
/// the overlay keeps the base's thread ids, and only the applied graph
/// drops the empty stream, so the later stream's id shifts down there.
#[test]
fn vacating_patch_runs_the_cone() {
    // c0..c3 on the CPU; k, the only kernel on stream 0, runs between c2
    // and c3; m, on stream 1, hangs off c0.
    let (mut g, ids) = chain(4);
    let k = g.add_task(gpu(20));
    g.add_dep(ids[2], k, DepKind::Correlation);
    g.add_dep(k, ids[3], DepKind::Sync);
    let mut m = gpu(15);
    m.thread = ExecThread::Gpu(DeviceId(0), StreamId(1));
    let m = g.add_task(m);
    g.add_dep(ids[0], m, DepKind::Correlation);
    let mut p = PatchGraph::new(&g);
    p.remove_task(k);
    let patch = p.finish();
    assert!(
        CompiledGraph::compile(&g)
            .apply_traced(&patch)
            .1
            .vacated_threads
    );
    let stats = assert_incremental(&g, &patch, DEFAULT_MAX_CONE_FRACTION);
    assert!(stats.is_incremental(), "a vacating patch runs its cone");
    assert_eq!(stats.cutoff_ns, Some(30), "cutoff at k's base start");
    assert_eq!(
        (stats.redispatched, stats.total),
        (1, 5),
        "only c3 re-dispatches; c0..c2 and m replay"
    );
}

#[test]
fn layered_overlay_equals_compose() {
    let (g, ids) = chain(8);
    // Prior: retime + insert.
    let mut p = PatchGraph::new(&g);
    p.set_duration(ids[2], 77);
    let ins = p.add_task(gpu(30));
    p.add_dep(ids[3], ins, DepKind::Correlation);
    let prior = p.finish();
    // Refinement recorded two ways: on the materialized mid graph, and
    // on a layered overlay resumed from the prior patch.
    let mid = prior.apply_reference(&g);
    let mut r = PatchGraph::new(&mid);
    r.set_duration(ins, 5);
    r.remove_task(ids[7]);
    let refinement = r.finish();
    let composed = prior.compose(&g, &refinement);

    let mut layered = PatchGraph::layered(&g, &prior);
    layered.set_duration(ins, 5);
    layered.remove_task(ids[7]);
    let via_layered = layered.finish();

    assert_eq!(composed.ops(), via_layered.ops());
    assert_eq!(composed.fingerprint(), via_layered.fingerprint());
    let a = CompiledGraph::compile(&composed.apply_reference(&g));
    let b = CompiledGraph::compile(&refinement.apply_reference(&mid));
    assert_eq!(canonical(&a), canonical(&b));
    assert_incremental(&g, &composed, FORCE);
}

// --- The full what-if catalog over profiled model graphs -------------------

fn resnet_profile() -> ProfiledGraph {
    let model = daydream_models::zoo::resnet50();
    let cfg = daydream_runtime::ExecConfig::pytorch_2080ti().with_batch(4);
    ProfiledGraph::from_trace(&daydream_runtime::ground_truth::run_baseline(&model, &cfg))
}

fn bert_profile() -> ProfiledGraph {
    let model = daydream_models::zoo::bert_base();
    let cfg = daydream_runtime::ExecConfig::pytorch_2080ti().with_batch(2);
    ProfiledGraph::from_trace(&daydream_runtime::ground_truth::run_baseline(&model, &cfg))
}

/// Checks a transform's patch on the profile under the forced cone, the
/// default threshold, and forced fallback — all must equal full.
fn check_transform(pg: &ProfiledGraph, plan: impl FnOnce(&mut PatchGraph<'_>)) {
    let mut p = PatchGraph::new(&pg.graph);
    plan(&mut p);
    let patch = p.finish();
    assert!(!patch.is_empty(), "transform must emit a non-empty patch");
    assert_incremental(&pg.graph, &patch, FORCE);
    assert_incremental(&pg.graph, &patch, DEFAULT_MAX_CONE_FRACTION);
    assert_incremental(&pg.graph, &patch, FALLBACK);
}

#[test]
fn incremental_matches_full_for_amp_on_resnet() {
    check_transform(&resnet_profile(), |g| plan_amp(g));
}

#[test]
fn incremental_matches_full_for_upgrade_gpu_on_resnet() {
    let (old, new) = (
        daydream_device::GpuSpec::rtx_2080ti(),
        daydream_device::GpuSpec::v100(),
    );
    check_transform(&resnet_profile(), |g| {
        plan_upgrade_gpu(g, &old, &new);
    });
}

#[test]
fn incremental_matches_full_for_batch_size_on_resnet() {
    let pg = resnet_profile();
    let old_batch = pg.meta.batch_size as u64;
    check_transform(&pg, |g| {
        plan_batch_size(g, old_batch, 16);
    });
}

#[test]
fn incremental_matches_full_for_reconstruct_bn_on_resnet() {
    let model = daydream_models::zoo::resnet50();
    check_transform(&resnet_profile(), |g| plan_reconstruct_bn(g, &model));
}

#[test]
fn incremental_matches_full_for_vdnn_on_resnet() {
    let pg = resnet_profile();
    let model = daydream_models::zoo::resnet50();
    let batch = pg.meta.batch_size as u64;
    check_transform(&pg, |g| {
        plan_vdnn(g, &model, &VdnnConfig::default(), batch);
    });
}

#[test]
fn incremental_matches_full_for_gist_on_resnet() {
    check_transform(&resnet_profile(), |g| {
        plan_gist(g, &GistConfig::default());
    });
    check_transform(&resnet_profile(), |g| {
        plan_gist(g, &GistConfig { lossy: true });
    });
}

#[test]
fn incremental_matches_full_for_ddp_on_resnet() {
    let pg = resnet_profile();
    let cluster = ClusterConfig::new(4, 1, 10.0);
    let buckets = pg.meta.buckets.clone();
    check_transform(&pg, |g| {
        plan_distributed(g, &buckets, &cluster);
    });
}

#[test]
fn incremental_matches_full_for_blueconnect_on_resnet() {
    let pg = resnet_profile();
    let cluster = ClusterConfig::new(4, 2, 10.0);
    let buckets = pg.meta.buckets.clone();
    check_transform(&pg, |g| {
        let ars = plan_distributed(g, &buckets, &cluster);
        plan_blueconnect(g, &cluster, &ars);
    });
}

#[test]
fn incremental_matches_full_for_dgc_on_resnet() {
    let pg = resnet_profile();
    let cluster = ClusterConfig::new(4, 1, 10.0);
    let buckets = pg.meta.buckets.clone();
    check_transform(&pg, |g| {
        let ars = plan_distributed(g, &buckets, &cluster);
        plan_dgc(g, &ars, &DgcConfig::default());
    });
}

#[test]
fn incremental_matches_full_for_bandwidth_on_distributed_resnet() {
    let mut pg = resnet_profile();
    plan_distributed(
        &mut pg.graph,
        &pg.meta.buckets,
        &ClusterConfig::new(4, 1, 10.0),
    );
    check_transform(&pg, |g| {
        plan_bandwidth(g, 2.0);
    });
}

#[test]
fn incremental_matches_full_for_fused_adam_on_bert() {
    check_transform(&bert_profile(), |g| {
        plan_fused_adam(g).expect("BERT has weight-update GPU tasks");
    });
}

#[test]
fn incremental_matches_full_for_metaflow_on_bert() {
    let policy = qkv_fusion_policy(&daydream_models::zoo::bert_base());
    check_transform(&bert_profile(), |g| plan_metaflow(g, &policy));
}

/// P3 itself evaluates on the full path (`P3Plan`, under its priority
/// order); this pins the warm path on its large insert patch over the
/// replicated base, under the default order.
#[test]
fn incremental_matches_full_for_p3_on_replicated_base() {
    let pg = resnet_profile();
    let cluster = ClusterConfig::new(4, 1, 4.0);
    for cfg in [P3Config::baseline(cluster), P3Config::p3(cluster)] {
        let rep = p3_replicated_base(&pg, P3_ITERATIONS);
        let inserts = p3_insert_plan(&pg, &rep, &cfg);
        let mut p = PatchGraph::new(&rep.graph);
        plan_p3_inserts(&mut p, &inserts);
        let patch = p.finish();
        assert_incremental(&rep.graph, &patch, FORCE);
        assert_incremental(&rep.graph, &patch, DEFAULT_MAX_CONE_FRACTION);
    }
}

/// One arena serves P3 plan runs and warm cone and full evaluations of
/// two different bases in turn, and every answer equals a fresh arena's:
/// no `start`, `tentative` or `preds` state a P3 run leaves behind leaks
/// into a warm run, nor the other way round. After every warm call,
/// `SimScratch::materialize` still equals the full simulation of the
/// applied graph (`assert_warm_matches_full`); after a P3 run the arena
/// holds nothing to materialize.
#[test]
fn p3_and_warm_evaluations_share_one_arena() {
    let cluster = ClusterConfig::new(4, 1, 2.0);
    let bases: Vec<_> = [resnet_profile(), bert_profile()]
        .iter()
        .map(|pg| {
            let cg = CompiledGraph::compile(&pg.graph);
            let schedule = Schedule::capture(&cg).expect("base must be a DAG");
            let mut p = PatchGraph::new(&pg.graph);
            plan_amp(&mut p);
            let plan = P3Plan::new(pg, &P3Config::p3(cluster));
            (cg, schedule, p.finish(), plan)
        })
        .collect();
    let mut shared = SimScratch::new();
    for _round in 0..2 {
        for (i, (cg, schedule, patch, plan)) in bases.iter().enumerate() {
            for budget in [FORCE, FALLBACK] {
                for p3 in [plan, &bases[1 - i].3] {
                    assert_eq!(
                        p3.steady_iteration_ns(&cluster, &mut shared).unwrap().0,
                        p3.evaluate(&cluster).unwrap().iteration_ns,
                        "a P3 run on the shared arena diverged from a fresh one"
                    );
                    assert_eq!(shared.materialize(cg, schedule), None);
                }
                let warm = assert_warm_matches_full(cg, schedule, patch, budget, &mut shared);
                assert_eq!(warm.stats.is_incremental(), budget == FORCE);
                let fresh = simulate_warm_with(cg, schedule, patch, &mut SimScratch::new(), budget)
                    .expect("patched graph must stay a DAG");
                assert_eq!(warm, fresh, "a warm run on the shared arena diverged");
            }
        }
    }
}

/// DDP and BlueConnect only add threads: on every catalog base (the six
/// zoo models at batches 4 and 8) and four clusters, two of them with
/// several GPUs per machine, their patches take the thread-insert path,
/// timing only their inserted tasks, and match the kernel over the
/// applied graph. DGC's compression kernels join the compute stream and
/// vDNN's prefetches wait on backward kernels, so neither takes it.
#[test]
fn ddp_and_blueconnect_add_only_threads_on_every_catalog_base() {
    let clusters = [
        ClusterConfig::new(4, 1, 10.0),
        ClusterConfig::new(2, 2, 1.0),
        ClusterConfig::new(1, 4, 1.0),
        ClusterConfig::new(8, 1, 1.0),
    ];
    let mut scratch = SimScratch::new();
    for model in daydream_models::zoo::all_models() {
        for batch in [4u64, 8] {
            let cfg = daydream_runtime::ExecConfig::pytorch_2080ti().with_batch(batch);
            let pg = ProfiledGraph::from_trace(&daydream_runtime::ground_truth::run_baseline(
                &model, &cfg,
            ));
            let cg = CompiledGraph::compile(&pg.graph);
            let schedule = Schedule::capture(&cg).expect("base must be a DAG");
            let label = format!("{} b{batch}", model.name);
            let mut check = |what: &str, patch: &GraphPatch, tails: bool| {
                let warm = assert_warm_matches_full(
                    &cg,
                    &schedule,
                    patch,
                    DEFAULT_MAX_CONE_FRACTION,
                    &mut scratch,
                );
                assert_eq!(warm.stats.entries.is_some(), tails, "{label} {what}");
                if tails {
                    let inserts = patch.inserted_tasks().count();
                    assert_eq!(warm.stats.redispatched, inserts, "{label} {what}");
                }
            };
            for cluster in &clusters {
                // DDP's plan with a refinement on its all-reduces.
                let ddp = |refine: &dyn Fn(&mut PatchGraph<'_>, &[TaskId])| {
                    let mut p = PatchGraph::new(&pg.graph);
                    let allreduces = plan_distributed(&mut p, &pg.meta.buckets, cluster);
                    refine(&mut p, &allreduces);
                    p.finish()
                };
                check(&format!("ddp {cluster}"), &ddp(&|_, _| {}), true);
                let blueconnect = ddp(&|p, ars| {
                    plan_blueconnect(p, cluster, ars);
                });
                check(&format!("blueconnect {cluster}"), &blueconnect, true);
                let dgc = ddp(&|p, ars| {
                    plan_dgc(p, ars, &DgcConfig::default());
                });
                check(&format!("dgc {cluster}"), &dgc, false);
            }
            let mut p = PatchGraph::new(&pg.graph);
            plan_vdnn(&mut p, &model, &VdnnConfig::default(), batch);
            check("vdnn", &p.finish(), false);
        }
    }
}
