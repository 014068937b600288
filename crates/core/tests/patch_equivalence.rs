//! `CompiledGraph::apply(patch)` against the mutate-then-recompile oracle.
//!
//! The delta pipeline (emit a [`GraphPatch`] through a [`PatchGraph`]
//! overlay, apply it to the shared compiled base) must be *simulation-
//! identical* to [`GraphPatch::apply_reference`] (clone the base, replay
//! the op log through `DependencyGraph`'s own mutators, recompile): same
//! per-task starts, waits, makespan, and per-thread ends — and the same
//! canonical structure (threads, costs, priorities, predecessor counts,
//! successor sets per task). Pinned on random DAGs with random op
//! sequences, and on profiled ResNet-50 / BERT graphs for every what-if
//! transform in the catalog, including P3 over its replicated base.

mod common;

use common::{assert_warm_matches_full, build_dag, canonical, thread_for};
use daydream_comm::ClusterConfig;
use daydream_core::whatif::{
    p3_insert_plan, p3_replicated_base, plan_amp, plan_bandwidth, plan_batch_size,
    plan_blueconnect, plan_dgc, plan_distributed, plan_fused_adam, plan_gist, plan_metaflow,
    plan_p3_inserts, plan_reconstruct_bn, plan_upgrade_gpu, plan_vdnn, qkv_fusion_policy,
    DgcConfig, GistConfig, P3Config, P3Plan, P3Scheduler, VdnnConfig, P3_ITERATIONS,
};
use daydream_core::{
    simulate_compiled_with, simulate_reference, simulate_with, CompiledGraph, DepKind,
    DependencyGraph, EarliestStart, ExecThread, FrontierOrder, GraphEdit, GraphPatch, GraphView,
    PatchGraph, ProfiledGraph, Schedule, SimResult, SimScratch, Task, TaskId, TaskKind,
    DEFAULT_MAX_CONE_FRACTION,
};
use daydream_trace::{CpuThreadId, DeviceId, StreamId};
use proptest::prelude::*;

/// Simulates a compiled graph and expands to arena-indexed results.
fn sim<O: FrontierOrder>(cg: &CompiledGraph, order: &O) -> SimResult {
    simulate_compiled_with(cg, order)
        .expect("graph must stay a DAG")
        .into_sim_result(cg)
}

/// Asserts `base.apply(patch)` is equivalent to the recompiled oracle
/// under `order`, returning the patched simulation for extra checks.
fn assert_equiv<O: FrontierOrder>(
    base: &DependencyGraph,
    patch: &GraphPatch,
    order: &O,
) -> SimResult {
    let compiled_base = CompiledGraph::compile(base);
    let applied = compiled_base.apply(patch);
    let oracle_graph = patch.apply_reference(base);
    let oracle = CompiledGraph::compile(&oracle_graph);

    assert_eq!(
        canonical(&applied),
        canonical(&oracle),
        "patched structure diverged from recompile-after-mutate"
    );
    let fast = sim(&applied, order);
    let slow = sim(&oracle, order);
    assert_eq!(fast, slow, "patched simulation diverged from the oracle");
    fast
}

/// One random mutation: `(selector, a, b, value)` decoded against the
/// overlay's current state. Inserts keep edges forward (low id -> high
/// id), so the patched graph stays a DAG by construction.
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
            // Keep at least one task so the graph stays interesting.
            if live.len() > 1 {
                p.remove_task(pick(a));
            }
        }
        5 => {
            // Insert a task after an existing one (forward edge only).
            let anchor = pick(a);
            let mut t = Task::new("ins", TaskKind::CpuWork, thread_for(v), v % 300);
            t.gap_ns = v % 13;
            let id = p.add_task(t);
            p.add_dep(anchor, id, DepKind::Transform);
        }
        6 => p.set_thread(pick(a), thread_for(v)),
        _ => {
            // Chain insert: new task between an anchor and a fresh tail.
            let anchor = pick(a);
            let mid = p.add_task(Task::new("mid", TaskKind::CpuWork, thread_for(b), v % 100));
            let tail = p.add_task(Task::new("tail", TaskKind::CpuWork, thread_for(v), v % 50));
            p.add_dep(anchor, mid, DepKind::Transform);
            p.add_dep(mid, tail, DepKind::Transform);
        }
    }
}

proptest! {
    // Random DAGs x random op sequences: apply == recompile(replay),
    // structurally and under simulation with both frontier policies.
    #[test]
    fn random_patches_match_reference(
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
        assert_equiv(&g, &patch, &EarliestStart);
        assert_equiv(&g, &patch, &P3Scheduler);
        // The untouched base still simulates identically afterwards.
        let before = sim(&CompiledGraph::compile(&g), &EarliestStart);
        let after = sim(&CompiledGraph::compile(&g), &EarliestStart);
        prop_assert_eq!(before, after);
    }

    // The patched graph also agrees with the legacy quadratic reference
    // loop run over the replayed graph (three implementations, one
    // answer).
    #[test]
    fn patched_simulation_matches_quadratic_loop(
        tasks in prop::collection::vec((0u64..5, 0u64..120, 0u64..20), 1..40),
        edges in prop::collection::vec((0u64..10_000, 0u64..10_000), 0..80),
        ops in prop::collection::vec(
            (0u64..10_000, 0u64..10_000, 0u64..10_000, 0u64..10_000), 0..20),
    ) {
        let g = build_dag(&tasks, &edges);
        let mut p = PatchGraph::new(&g);
        for &op in &ops {
            apply_random_op(&mut p, op);
        }
        let patch = p.finish();
        let fast = assert_equiv(&g, &patch, &EarliestStart);
        let replayed = patch.apply_reference(&g);
        let quadratic = simulate_reference(&replayed).unwrap();
        prop_assert_eq!(fast, quadratic);
    }
}

/// Appends the two shapes a one-pass removal must bridge, and returns
/// the ids to remove:
/// - FusedAdam's weight update: a chain of `n` kernels on one stream,
///   each launched from a chain of CPU tasks, between a live head and a
///   live tail on both threads. Removing every launch and kernel leaves
///   a region of internal chains with outside edges on both sides.
/// - `m` removed tasks joining one pair of live tasks `u -> mid -> v`
///   along paths of different kinds.
fn add_removal_shapes(g: &mut DependencyGraph, n: usize, m: usize) -> Vec<TaskId> {
    let (cpu, gpu) = (thread_for(0), thread_for(2));
    let task = |name: String, thread: ExecThread, dur: u64| {
        Task::new(name, TaskKind::CpuWork, thread, dur)
    };
    let head_cpu = g.add_task(task("head_cpu".into(), cpu, 5));
    let head_gpu = g.add_task(task("head_gpu".into(), gpu, 7));
    g.add_dep(TaskId(0), head_cpu, DepKind::Transform);
    g.add_dep(head_cpu, head_gpu, DepKind::Correlation);
    let mut doomed = Vec::new();
    let (mut cpu_prev, mut gpu_prev) = (head_cpu, head_gpu);
    for i in 0..n {
        let launch = g.add_task(task(format!("launch{i}"), cpu, 3));
        let kernel = g.add_task(task(format!("kernel{i}"), gpu, 11));
        g.add_dep(cpu_prev, launch, DepKind::CpuSeq);
        g.add_dep(launch, kernel, DepKind::Correlation);
        g.add_dep(gpu_prev, kernel, DepKind::GpuSeq);
        (cpu_prev, gpu_prev) = (launch, kernel);
        doomed.extend([launch, kernel]);
    }
    let tail_gpu = g.add_task(task("tail_gpu".into(), gpu, 13));
    let tail_cpu = g.add_task(task("tail_cpu".into(), cpu, 2));
    g.add_dep(gpu_prev, tail_gpu, DepKind::GpuSeq);
    g.add_dep(cpu_prev, tail_cpu, DepKind::CpuSeq);
    g.add_dep(tail_gpu, tail_cpu, DepKind::Sync);

    // Ids ascend along every edge, as the random ops' edges do.
    let u = g.add_task(task("u".into(), thread_for(1), 4));
    g.add_dep(TaskId(0), u, DepKind::Transform);
    let mids: Vec<TaskId> = (0..m)
        .map(|j| g.add_task(task(format!("mid{j}"), thread_for(j as u64), 1 + j as u64)))
        .collect();
    let v = g.add_task(task("v".into(), thread_for(3), 6));
    for (j, &mid) in mids.iter().enumerate() {
        let kind = if j % 2 == 0 {
            DepKind::CpuSeq
        } else {
            DepKind::Comm
        };
        g.add_dep(u, mid, kind);
        g.add_dep(mid, v, DepKind::CpuSeq);
    }
    doomed.extend(mids);
    doomed
}

/// `id`'s neighbour ids on one side, sorted.
fn sorted_ids(list: &[(TaskId, DepKind)]) -> Vec<TaskId> {
    let mut ids: Vec<TaskId> = list.iter().map(|&(t, _)| t).collect();
    ids.sort_unstable();
    ids
}

proptest! {
    // One-pass removal of a set against removing its ids one by one.
    // A random prefix of ops runs first, so the set can hold inserted
    // tasks and tasks already removed; the set also repeats ids.
    #[test]
    fn bulk_removal_matches_sequential_removal(
        tasks in prop::collection::vec((0u64..5, 0u64..200, 0u64..30), 1..40),
        edges in prop::collection::vec((0u64..10_000, 0u64..10_000), 0..100),
        prefix in prop::collection::vec(
            (0u64..10_000, 0u64..10_000, 0u64..10_000, 0u64..10_000), 0..20),
        picks in prop::collection::vec(0u64..10_000, 0..30),
        chain in 0usize..6,
        joins in 0usize..4,
    ) {
        let mut g = build_dag(&tasks, &edges);
        let shapes = add_removal_shapes(&mut g, chain, joins);
        let mut p = PatchGraph::new(&g);
        for &op in &prefix {
            apply_random_op(&mut p, op);
        }
        let prior = p.finish();

        let cap = PatchGraph::layered(&g, &prior).capacity();
        let mut set: Vec<TaskId> = picks.iter().map(|&x| TaskId(x as usize % cap)).collect();
        let mid = set.len() / 2;
        set.splice(mid..mid, shapes);
        let repeats: Vec<TaskId> = set.iter().step_by(3).copied().collect();
        set.extend(repeats);

        let mut bulk = PatchGraph::layered(&g, &prior);
        bulk.remove_tasks(&set);
        let mut one_by_one = PatchGraph::layered(&g, &prior);
        for &id in &set {
            one_by_one.remove_task(id);
        }
        let live = bulk.live_ids();
        prop_assert_eq!(&live, &one_by_one.live_ids());
        let bulk_lists: Vec<(Vec<TaskId>, Vec<TaskId>)> = live
            .iter()
            .map(|&id| {
                (
                    sorted_ids(GraphView::successors(&bulk, id)),
                    sorted_ids(GraphView::predecessors(&bulk, id)),
                )
            })
            .collect();
        let (bulk, one_by_one) = (bulk.finish(), one_by_one.finish());
        prop_assert_eq!(bulk.ops(), one_by_one.ops());
        prop_assert_eq!(bulk.fingerprint(), one_by_one.fingerprint());

        // `apply_reference` replays every removal through
        // `DependencyGraph::remove_task`, one at a time.
        let sequential = bulk.apply_reference(&g);
        prop_assert_eq!(&live, &sequential.live_ids());
        for (&id, lists) in live.iter().zip(&bulk_lists) {
            let want = (
                sorted_ids(sequential.successors(id)),
                sorted_ids(sequential.predecessors(id)),
            );
            prop_assert_eq!(lists, &want, "neighbours of {:?}", id);
        }
        if live.is_empty() {
            return Ok(());
        }
        assert_equiv(&g, &bulk, &EarliestStart);
        let cg = CompiledGraph::compile(&g);
        let schedule = Schedule::capture(&cg).expect("base must be a DAG");
        let mut scratch = SimScratch::new();
        for budget in [
            DEFAULT_MAX_CONE_FRACTION,
            1.0,
        ] {
            assert_warm_matches_full(&cg, &schedule, &bulk, budget, &mut scratch);
        }
    }
}

// ---------------------------------------------------------------------------
// The full what-if catalog over profiled model graphs
// ---------------------------------------------------------------------------

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

/// Emits a patch over `pg.graph` with `plan`, checks equivalence, and
/// requires the patch to be non-trivial.
fn check_transform(pg: &ProfiledGraph, plan: impl FnOnce(&mut PatchGraph<'_>)) -> SimResult {
    let mut p = PatchGraph::new(&pg.graph);
    plan(&mut p);
    let patch = p.finish();
    assert!(!patch.is_empty(), "transform must emit a non-empty patch");
    assert_equiv(&pg.graph, &patch, &EarliestStart)
}

#[test]
fn amp_patch_matches_reference_on_resnet() {
    let pg = resnet_profile();
    check_transform(&pg, |g| plan_amp(g));
}

#[test]
fn upgrade_gpu_patch_matches_reference_on_resnet() {
    let pg = resnet_profile();
    let (old, new) = (
        daydream_device::GpuSpec::rtx_2080ti(),
        daydream_device::GpuSpec::v100(),
    );
    check_transform(&pg, |g| {
        plan_upgrade_gpu(g, &old, &new);
    });
}

#[test]
fn batch_size_patch_matches_reference_on_resnet() {
    let pg = resnet_profile();
    let old_batch = pg.meta.batch_size as u64;
    check_transform(&pg, |g| {
        plan_batch_size(g, old_batch, 16);
    });
}

#[test]
fn reconstruct_bn_patch_matches_reference_on_resnet() {
    let pg = resnet_profile();
    let model = daydream_models::zoo::resnet50();
    check_transform(&pg, |g| plan_reconstruct_bn(g, &model));
}

#[test]
fn vdnn_patch_matches_reference_on_resnet() {
    let pg = resnet_profile();
    let model = daydream_models::zoo::resnet50();
    let batch = pg.meta.batch_size as u64;
    check_transform(&pg, |g| {
        let n = plan_vdnn(g, &model, &VdnnConfig::default(), batch);
        assert_eq!(n, 53, "all ResNet-50 convolutions offload");
    });
}

#[test]
fn gist_patch_matches_reference_on_resnet_lossless_and_lossy() {
    let pg = resnet_profile();
    check_transform(&pg, |g| {
        plan_gist(g, &GistConfig::default());
    });
    check_transform(&pg, |g| {
        plan_gist(g, &GistConfig { lossy: true });
    });
}

#[test]
fn ddp_patch_matches_reference_on_resnet() {
    let pg = resnet_profile();
    let cluster = ClusterConfig::new(4, 1, 10.0);
    let buckets = pg.meta.buckets.clone();
    check_transform(&pg, |g| {
        let ars = plan_distributed(g, &buckets, &cluster);
        assert_eq!(ars.len(), buckets.len());
    });
}

#[test]
fn blueconnect_patch_matches_reference_on_resnet() {
    let pg = resnet_profile();
    let cluster = ClusterConfig::new(4, 2, 10.0);
    let buckets = pg.meta.buckets.clone();
    check_transform(&pg, |g| {
        let ars = plan_distributed(g, &buckets, &cluster);
        plan_blueconnect(g, &cluster, &ars);
    });
}

#[test]
fn dgc_patch_matches_reference_on_resnet() {
    let pg = resnet_profile();
    let cluster = ClusterConfig::new(4, 1, 10.0);
    let buckets = pg.meta.buckets.clone();
    check_transform(&pg, |g| {
        let ars = plan_distributed(g, &buckets, &cluster);
        plan_dgc(g, &ars, &DgcConfig::default());
    });
}

/// The engine plans DDP once per cluster shape and layers each
/// BlueConnect or DGC refinement onto that cached patch. The composed
/// patch must match its oracle, and the cached patch must not change.
fn check_layered_on_ddp(refine: impl Fn(&mut PatchGraph<'_>, &ClusterConfig, &[TaskId])) {
    let pg = resnet_profile();
    let cluster = ClusterConfig::new(4, 2, 10.0);
    let mut p = PatchGraph::new(&pg.graph);
    let ars = plan_distributed(&mut p, &pg.meta.buckets, &cluster);
    let ddp = p.finish();
    let compiled = CompiledGraph::compile(&pg.graph);
    let pin = |patch: &GraphPatch| {
        (
            patch.fingerprint(),
            patch.summary(),
            canonical(&compiled.apply(patch)),
        )
    };
    let before = pin(&ddp);
    let mut layered = PatchGraph::layered(&pg.graph, &ddp);
    refine(&mut layered, &cluster, &ars);
    let composed = layered.finish();
    assert!(composed.ops().len() > ddp.ops().len());
    assert_equiv(&pg.graph, &composed, &EarliestStart);
    assert!(pin(&ddp) == before, "the cached DDP patch changed");
}

#[test]
fn blueconnect_layered_on_a_cached_ddp_patch_matches_reference() {
    check_layered_on_ddp(|g, cluster, ars| {
        plan_blueconnect(g, cluster, ars);
    });
}

#[test]
fn dgc_layered_on_a_cached_ddp_patch_matches_reference() {
    check_layered_on_ddp(|g, _, ars| {
        plan_dgc(g, ars, &DgcConfig::default());
    });
}

#[test]
fn bandwidth_patch_matches_reference_on_distributed_resnet() {
    // Bandwidth scaling needs communication tasks: transform a profile
    // with DDP first (in place), then patch the transformed base.
    let mut pg = resnet_profile();
    plan_distributed(
        &mut pg.graph,
        &pg.meta.buckets,
        &ClusterConfig::new(4, 1, 10.0),
    );
    check_transform(&pg, |g| {
        let touched = plan_bandwidth(g, 2.0);
        assert!(!touched.is_empty());
    });
}

#[test]
fn fused_adam_patch_matches_reference_on_bert() {
    let pg = bert_profile();
    check_transform(&pg, |g| {
        plan_fused_adam(g).expect("BERT has weight-update GPU tasks");
    });
}

#[test]
fn metaflow_patch_matches_reference_on_bert() {
    let pg = bert_profile();
    let policy = qkv_fusion_policy(&daydream_models::zoo::bert_base());
    let pg_ref = &pg;
    check_transform(pg_ref, |g| plan_metaflow(g, &policy));
}

#[test]
fn p3_patch_matches_reference_on_replicated_base() {
    // P3 patches the *replicated* base (compiled once per profile in the
    // sweep engine); both the FIFO baseline and the sliced P3 plan must
    // match their oracles under the priority scheduler.
    let pg = resnet_profile();
    let cluster = ClusterConfig::new(4, 1, 4.0);
    for cfg in [P3Config::baseline(cluster), P3Config::p3(cluster)] {
        let rep = p3_replicated_base(&pg, P3_ITERATIONS);
        let inserts = p3_insert_plan(&pg, &rep, &cfg);
        assert!(!inserts.is_empty());
        let mut p = PatchGraph::new(&rep.graph);
        plan_p3_inserts(&mut p, &inserts);
        let patch = p.finish();
        let fast = assert_equiv(&rep.graph, &patch, &P3Scheduler);

        // Steady-state extraction over the patched sim matches the
        // mutate-in-place analysis end to end, and so does the compiled
        // plan every front end evaluates.
        let mut oracle = p3_replicated_base(&pg, P3_ITERATIONS);
        plan_p3_inserts(&mut oracle.graph, &inserts);
        let sim = simulate_with(&oracle.graph, &P3Scheduler).unwrap();
        let steady = oracle.steady_iteration_ns(&sim);
        assert_eq!(rep.steady_iteration_ns(&fast), steady);
        let plan = P3Plan::new(&pg, &cfg).evaluate(&cluster).unwrap();
        assert_eq!(plan.iteration_ns, steady);
    }
}

/// A planner run in place and the same planner recording a patch are the
/// same code (generic over `GraphEdit`), so their simulations must agree
/// exactly.
#[test]
fn legacy_wrapper_and_patch_agree_end_to_end() {
    let pg = resnet_profile();
    let patched = check_transform(&pg, |g| plan_amp(g));
    let mut in_place = pg.graph.clone();
    plan_amp(&mut in_place);
    assert_eq!(patched, daydream_core::simulate(&in_place).unwrap());
}

/// Removing a task whose thread then becomes empty must drop the thread
/// from the result set exactly like a recompile would.
#[test]
fn vacated_threads_are_dropped() {
    let mut g = DependencyGraph::new();
    let a = g.add_task(Task::new(
        "cpu",
        TaskKind::CpuWork,
        ExecThread::Cpu(CpuThreadId(0)),
        10,
    ));
    let b = g.add_task(Task::new(
        "gpu",
        TaskKind::GpuKernel,
        ExecThread::Gpu(DeviceId(0), StreamId(0)),
        20,
    ));
    g.add_dep(a, b, DepKind::Correlation);

    // Remove the only GPU task.
    let mut p = PatchGraph::new(&g);
    p.remove_task(b);
    let removed = p.finish();
    let r = assert_equiv(&g, &removed, &EarliestStart);
    assert!(!r
        .thread_end
        .contains_key(&ExecThread::Gpu(DeviceId(0), StreamId(0))));

    // Move the only CPU task to a new thread: old thread vacated, new
    // thread appears.
    let mut p = PatchGraph::new(&g);
    p.set_thread(a, ExecThread::Cpu(CpuThreadId(9)));
    let moved = p.finish();
    let r = assert_equiv(&g, &moved, &EarliestStart);
    assert!(r.thread_end.contains_key(&ExecThread::Cpu(CpuThreadId(9))));
    assert!(!r.thread_end.contains_key(&ExecThread::Cpu(CpuThreadId(0))));
}
