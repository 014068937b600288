//! Tier-1 guards on the warm-evaluation perf work.
//!
//! Three regressions these pin:
//!
//! * **Allocation creep** — the whole point of the epoch-stamped arena
//!   is that a warmed evaluation touches no allocator, for retimes (on
//!   the cone path and replayed), structural patches (DDP and
//!   BlueConnect on the thread-insert path, a DGC cone with a base
//!   thread on a frontier) and P3's plan runs alike, also when a plan
//!   run and a replay share the arena's rows.
//!   The counting global allocator in `daydream_bench::util` (debug
//!   builds only) fails these tests the moment someone reintroduces a
//!   per-call `clone`, `Vec::new` or patch apply into the hot loop.
//! * **Patch memory that grows with the base** — a patch stores what
//!   it touched: inserting tasks must not size anything to the base
//!   arena beyond one `u32` slot map, and a refinement layered on a
//!   cached DDP patch must copy that patch's few flat blocks, not
//!   arena-wide arrays. The same allocator counts the bytes, and the
//!   allocations an inserting emit makes per inserted task.
//! * **Snapshot drift** — the checked-in `BENCH_sim.json` must carry an
//!   `eval_warm` section whose numbers still clear the acceptance
//!   floors (>= 20x over the pre-arena fresh pipeline at ~100k tasks,
//!   <= 5x scaling 1k -> 100k at a fixed 16-transfer cone), and a
//!   `sim_kernel` section in which the dispatch loop with choice threads
//!   is no slower than keeping a frontier on every thread, in the median
//!   over the 12 catalog bases, over DDP and DGC patches and P3 plans, so
//!   a regressing re-snapshot cannot land silently. Both are ratios
//!   within one run, which survive the noisy host.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::assert_warm_matches_full;
use daydream_bench::synth::{synthetic_graph, tail_retime, tail_splice, tail_structural};
use daydream_bench::{assert_no_allocs, profile_for, thread_alloc_bytes, thread_allocs};
use daydream_comm::ClusterConfig;
use daydream_core::whatif::{
    plan_blueconnect, plan_dgc, plan_distributed, plan_gist, plan_vdnn, DgcConfig, GistConfig,
    P3Config, P3Plan, VdnnConfig,
};
use daydream_core::{
    simulate_warm, CompiledGraph, GraphEdit, GraphPatch, PatchGraph, Schedule, SimScratch, TaskId,
    TaskIndex, WarmOutcome, DEFAULT_MAX_CONE_FRACTION,
};

/// Evaluates `patch` warm three times on one arena — the first call sizes
/// it, the second settles retained heap capacities, the third must not
/// allocate — and pins the answer to the apply + full-simulation oracle.
fn third_warm_call_allocates_nothing(
    what: &str,
    compiled: &CompiledGraph,
    schedule: &Schedule,
    patch: &GraphPatch,
) -> WarmOutcome {
    let mut scratch = SimScratch::new();
    let first = simulate_warm(compiled, schedule, patch, &mut scratch).unwrap();
    let second = simulate_warm(compiled, schedule, patch, &mut scratch).unwrap();
    assert_eq!(first, second);
    let third = assert_no_allocs(what, || {
        simulate_warm(compiled, schedule, patch, &mut scratch).unwrap()
    });
    assert_eq!(third, first);
    assert_eq!(
        assert_warm_matches_full(
            compiled,
            schedule,
            patch,
            DEFAULT_MAX_CONE_FRACTION,
            &mut scratch
        ),
        third
    );
    third
}

#[test]
fn warmed_evaluation_is_allocation_free() {
    let g = synthetic_graph(3_000);
    let compiled = CompiledGraph::compile(&g);
    let schedule = Schedule::capture(&compiled).expect("base must be a DAG");
    let comms = g.select(|t| t.thread.is_comm());
    let targets: Vec<TaskId> = comms.iter().rev().take(16).copied().collect();
    let mut ov = PatchGraph::new(&g);
    tail_retime(&mut ov, &targets);
    let patch = ov.finish();

    // First call sizes the arena, second settles retained heap
    // capacities; the third must be allocation-free.
    let mut scratch = SimScratch::new();
    let first = simulate_warm(&compiled, &schedule, &patch, &mut scratch).unwrap();
    let second = simulate_warm(&compiled, &schedule, &patch, &mut scratch).unwrap();
    assert!(first.stats.is_incremental(), "tail retime must stay warm");
    assert_eq!(first.makespan_ns, second.makespan_ns);

    let third = assert_no_allocs("warmed simulate_warm", || {
        simulate_warm(&compiled, &schedule, &patch, &mut scratch).unwrap()
    });
    assert_eq!(third.makespan_ns, first.makespan_ns);

    // And the warm answer still matches the fresh-allocation oracle.
    assert_eq!(
        assert_warm_matches_full(
            &compiled,
            &schedule,
            &patch,
            DEFAULT_MAX_CONE_FRACTION,
            &mut scratch
        ),
        third
    );
}

#[test]
fn warmed_structural_evaluation_is_allocation_free() {
    // A small structural cone: compression kernels spliced before the
    // last 16 transfers of the synthetic graph.
    let g = synthetic_graph(3_000);
    let compiled = CompiledGraph::compile(&g);
    let schedule = Schedule::capture(&compiled).expect("base must be a DAG");
    let comms = g.select(|t| t.thread.is_comm());
    let targets: Vec<TaskId> = comms.iter().rev().take(16).copied().collect();
    let mut ov = PatchGraph::new(&g);
    tail_structural(&mut ov, &targets);
    let out = third_warm_call_allocates_nothing(
        "warmed structural simulate_warm",
        &compiled,
        &schedule,
        &ov.finish(),
    );
    assert!(out.stats.is_incremental(), "tail splice must stay warm");

    // Catalog patches on zoo bases: DDP inserts one allreduce per
    // gradient bucket onto a communication channel the profile never
    // used, and BlueConnect splits each into stages on channels of their
    // own. Both only add threads, so the warm call times their tasks
    // alone.
    for (name, cluster) in [
        ("ResNet-50", ClusterConfig::new(2, 1, 10.0)),
        ("BERT_Large", ClusterConfig::new(2, 2, 10.0)),
    ] {
        let (pg, _) = profile_for(name, Some(4), false);
        let compiled = CompiledGraph::compile(&pg.graph);
        let schedule = Schedule::capture(&compiled).expect("base must be a DAG");
        for family in ["ddp", "blueconnect"] {
            let mut ov = PatchGraph::new(&pg.graph);
            let allreduces = plan_distributed(&mut ov, &pg.meta.buckets, &cluster);
            if family == "blueconnect" {
                plan_blueconnect(&mut ov, &cluster, &allreduces);
            }
            let out = third_warm_call_allocates_nothing(
                &format!("warmed {family} simulate_warm on {name} b4"),
                &compiled,
                &schedule,
                &ov.finish(),
            );
            assert!(
                out.stats.entries.is_some(),
                "{family} on {name} b4 takes the thread-insert path"
            );
        }
    }

    // DGC's cone on GNMT b4: its compression kernels join the compute
    // stream unchained, so the cone keeps a frontier on that base thread
    // as well as on the collective channel, and queues the rest.
    let (pg, _) = profile_for("GNMT", Some(4), false);
    let compiled = CompiledGraph::compile(&pg.graph);
    let schedule = Schedule::capture(&compiled).expect("base must be a DAG");
    let mut ov = PatchGraph::new(&pg.graph);
    let allreduces = plan_distributed(&mut ov, &pg.meta.buckets, &ClusterConfig::new(4, 1, 10.0));
    plan_dgc(&mut ov, &allreduces, &DgcConfig::default());
    let out = third_warm_call_allocates_nothing(
        "warmed DGC cone on GNMT b4",
        &compiled,
        &schedule,
        &ov.finish(),
    );
    assert!(
        out.stats.is_incremental(),
        "GNMT b4's DGC cone is in budget"
    );
}

#[test]
fn warmed_p3_evaluation_is_allocation_free() {
    // The engine's P3 path on a patch-cache miss: a cached plan, priced
    // at another cluster's wire times and simulated on the worker's
    // arena. The counted call includes the pricing.
    let (pg, _) = profile_for("ResNet-50", Some(4), false);
    let plan = P3Plan::new(&pg, &P3Config::p3(ClusterConfig::new(4, 1, 10.0)));
    let cluster = ClusterConfig::new(8, 1, 2.0);
    let mut scratch = SimScratch::new();
    let first = plan.steady_iteration_ns(&cluster, &mut scratch).unwrap();
    assert_eq!(first.1, plan.dispatched_tasks(), "the per-copy run");
    let second = plan.steady_iteration_ns(&cluster, &mut scratch).unwrap();
    assert_eq!(first, second);
    let third = assert_no_allocs("warmed P3Plan::steady_iteration_ns", || {
        plan.steady_iteration_ns(&cluster, &mut scratch).unwrap()
    });
    assert_eq!(third, first);
    assert_eq!(third.0, plan.evaluate(&cluster).unwrap().iteration_ns);
}

#[test]
fn warmed_retime_replay_is_allocation_free() {
    // Every task of a chain-threaded zoo base retimed: the cone is the
    // whole graph and the patch keeps the structure, so the full
    // fallback replays the base's start order over the arena's duration
    // rows.
    let (pg, _) = profile_for("ResNet-50", Some(4), false);
    let compiled = CompiledGraph::compile(&pg.graph);
    let schedule = Schedule::capture(&compiled).expect("base must be a DAG");
    assert!(schedule.is_chain_threaded(), "zoo bases are chain-threaded");
    let retimes: Vec<(TaskId, u64)> = pg
        .graph
        .iter()
        .map(|(id, t)| (id, t.duration_ns / 2))
        .collect();
    let mut ov = PatchGraph::new(&pg.graph);
    ov.set_durations(&retimes);
    let patch = ov.finish();
    let replayed =
        third_warm_call_allocates_nothing("warmed retime replay", &compiled, &schedule, &patch);
    assert!(
        !replayed.stats.is_incremental(),
        "the cone is over the budget"
    );
    assert_eq!(replayed.stats.redispatched, compiled.len());

    // A P3 plan's per-copy run, its pricing included, and the replay on
    // one arena: the plan writes the cost and duration rows after its
    // first unrolled iteration, the replay from the first task. In turn,
    // each answers as on a fresh arena, and the third round allocates
    // nothing.
    let cluster = ClusterConfig::new(4, 1, 10.0);
    let plan = P3Plan::new(&pg, &P3Config::p3(cluster));
    let per_copy = (
        plan.evaluate(&cluster).unwrap().iteration_ns,
        plan.dispatched_tasks(),
    );
    let fresh = (per_copy, replayed);
    let round = |scratch: &mut SimScratch| {
        (
            plan.steady_iteration_ns(&cluster, scratch).unwrap(),
            simulate_warm(&compiled, &schedule, &patch, scratch).unwrap(),
        )
    };
    let mut scratch = SimScratch::new();
    assert_eq!(round(&mut scratch), fresh);
    assert_eq!(round(&mut scratch), fresh);
    let third = assert_no_allocs("a P3 plan run and a retime replay on one arena", || {
        round(&mut scratch)
    });
    assert_eq!(third, fresh);
    assert_eq!(
        assert_warm_matches_full(
            &compiled,
            &schedule,
            &patch,
            DEFAULT_MAX_CONE_FRACTION,
            &mut scratch
        ),
        replayed
    );
}

/// Bytes `f` allocates on this thread (0 in release builds).
fn alloc_bytes<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = thread_alloc_bytes();
    let r = f();
    (thread_alloc_bytes() - before, r)
}

#[test]
fn insert_only_patch_memory_does_not_grow_with_the_base() {
    // Sixteen compression kernels spliced before the last transfers: the
    // same patch over a 3k- and a 100k-task base. Only the `u32` edge
    // slot map of the rewired base tasks may span the arena.
    let emit_bytes = |n: usize| {
        let g = synthetic_graph(n);
        let comms = g.select(|t| t.thread.is_comm());
        let targets: Vec<TaskId> = comms.iter().rev().take(16).copied().collect();
        let (bytes, patch) = alloc_bytes(|| {
            let mut ov = PatchGraph::new(&g);
            tail_splice(&mut ov, &targets);
            ov.finish()
        });
        assert_eq!(patch.summary().tasks_added, 16);
        (g.capacity(), bytes)
    };
    let (small_n, small) = emit_bytes(3_000);
    let (large_n, large) = emit_bytes(99_999);
    if cfg!(debug_assertions) {
        let per_task = large.saturating_sub(small) as f64 / (large_n - small_n) as f64;
        assert!(
            per_task <= 8.0,
            "an insert-only patch allocates {per_task:.1} more bytes per extra base task \
             ({small} B over {small_n} tasks, {large} B over {large_n})"
        );
    }
}

#[test]
fn dgc_layered_on_a_cached_ddp_patch_copies_little() {
    // The engine's DGC emit: resume the cached DDP patch and refine it.
    let (pg, _) = profile_for("ResNet-50", Some(4), false);
    let mut ov = PatchGraph::new(&pg.graph);
    let cluster = ClusterConfig::new(4, 1, 10.0);
    let allreduces = plan_distributed(&mut ov, &pg.meta.buckets, &cluster);
    let ddp = ov.finish();
    let cfg = DgcConfig::default();
    let (bytes, patch) = alloc_bytes(|| {
        let mut layered = PatchGraph::layered(&pg.graph, &ddp);
        plan_dgc(&mut layered, &allreduces, &cfg);
        layered.finish()
    });
    assert_eq!(
        patch.summary().tasks_added,
        ddp.summary().tasks_added + 2 * allreduces.len()
    );
    if cfg!(debug_assertions) {
        assert!(
            bytes <= 128 << 10,
            "DGC layered on ResNet-50 b4's DDP patch allocated {} KiB",
            bytes >> 10
        );
    }
}

#[test]
fn inserting_emits_allocate_little_per_inserted_task() {
    // The engine's Gist and vDNN emits over ResNet-50 b4: an overlay
    // selecting through the base's task index, the planner, `finish`.
    // Each inserted task is stored once, shared by the op log and the
    // overlay's table.
    let (pg, model) = profile_for("ResNet-50", Some(4), false);
    let index = TaskIndex::build(&pg.graph);
    let emit = |plan: &dyn Fn(&mut PatchGraph<'_>)| {
        let before = thread_allocs();
        let mut ov = PatchGraph::new(&pg.graph).with_index(&index);
        plan(&mut ov);
        let patch = ov.finish();
        let allocs = thread_allocs() - before;
        let added = patch.summary().tasks_added;
        assert!(added > 100, "the emit must insert tasks");
        allocs as f64 / added as f64
    };
    let gist = emit(&|g| {
        plan_gist(g, &GistConfig::default());
    });
    let vdnn = emit(&|g| {
        plan_vdnn(g, &model, &VdnnConfig::default(), 4);
    });
    if cfg!(debug_assertions) {
        for (family, per_task) in [("gist", gist), ("vdnn", vdnn)] {
            assert!(
                per_task <= 2.5,
                "{family} on ResNet-50 b4 makes {per_task:.2} allocations per inserted task"
            );
        }
    }
}

#[test]
fn counting_allocator_sees_this_crate() {
    // Meta-guard: if the debug global allocator stopped being installed
    // (say, the `#[global_allocator]` moved behind the wrong cfg), the
    // allocation-free test above would pass vacuously.
    if cfg!(debug_assertions) {
        let (before, bytes) = (thread_allocs(), thread_alloc_bytes());
        let v: Vec<u64> = (0..64).collect();
        assert!(thread_allocs() > before, "allocation went uncounted");
        assert!(thread_alloc_bytes() >= bytes + 512, "bytes went uncounted");
        drop(v);
    }
}

#[test]
fn snapshot_eval_warm_section_clears_the_floors() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    let text = std::fs::read_to_string(path).expect("BENCH_sim.json is checked in");
    let json: serde_json::Value = serde_json::from_str(&text).expect("snapshot parses");
    let results = json
        .get("eval_warm")
        .and_then(|s| s.get("results"))
        .and_then(|r| r.as_array())
        .expect("snapshot has an eval_warm section with results");

    let mut small: Option<(u64, f64)> = None;
    let mut large: Option<(u64, f64)> = None;
    for row in results {
        let tasks = row.get("tasks").and_then(|v| v.as_u64()).expect("tasks");
        let warm = row
            .get("warm_ns")
            .and_then(|v| v.as_f64())
            .expect("warm_ns");
        let cone = row.get("cone").and_then(|v| v.as_u64()).expect("cone");
        assert!(cone >= 16, "tail retime cone covers the 16 targets");
        if tasks < 10_000 {
            small = Some((tasks, warm));
        }
        if tasks > 50_000 {
            large = Some((tasks, warm));
        }
    }
    let (_, w1k) = small.expect("~1k-task row present");
    let (_, w100k) = large.expect("~100k-task row present");
    // The pre-arena fresh pipeline measured 2_209_199.3 ns here.
    assert!(
        w100k * 20.0 <= 2_209_199.3,
        "snapshotted warm eval at ~100k tasks regressed past the 20x floor: {w100k} ns"
    );
    assert!(
        w100k <= 5.0 * w1k,
        "snapshotted warm eval no longer scales O(cone): {w1k} ns -> {w100k} ns"
    );
}

/// The median over the 12 catalog bases of the checked-in
/// `sim_kernel` snapshot's `numerator / denominator` columns.
fn sim_kernel_median_ratio(numerator: &str, denominator: &str) -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    let text = std::fs::read_to_string(path).expect("BENCH_sim.json is checked in");
    let json: serde_json::Value = serde_json::from_str(&text).expect("snapshot parses");
    let results = json
        .get("sim_kernel")
        .and_then(|s| s.get("results"))
        .and_then(|r| r.as_array())
        .expect("snapshot has a sim_kernel section with results");
    assert_eq!(results.len(), 12, "one row per catalog base");
    let ns = |row: &serde_json::Value, column: &str| {
        row.get(column)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("a sim_kernel row has no {column}"))
    };
    let mut ratios: Vec<f64> = results
        .iter()
        .map(|row| ns(row, numerator) / ns(row, denominator))
        .collect();
    ratios.sort_by(f64::total_cmp);
    (ratios[5] + ratios[6]) / 2.0
}

/// One base's ratio can flip on this host: four runs of the bench on
/// unchanged code put the worst per-base ratio of a run type at up to
/// 1.40, while the medians stayed within 0.62-0.64 (DDP), 0.83-0.86
/// (DGC) and 0.76-0.77 (P3).
#[test]
fn snapshot_sim_kernel_mixed_loop_is_no_slower_than_every_frontier() {
    for run in ["ddp", "dgc", "p3"] {
        let median = sim_kernel_median_ratio(
            &format!("{run}_choice_ns_per_task"),
            &format!("{run}_frontier_ns_per_task"),
        );
        assert!(
            median < 1.0,
            "the snapshotted {run} loop with choice threads takes {median:.2}x the time of \
             a frontier on every thread, in the median over the catalog bases"
        );
    }
}

/// A P3 plan's per-copy run (the whole `P3Plan::steady_iteration_ns`
/// call, per task it times) against the dispatch loop with the plan's
/// choice threads over the same plan (per task of the plan): the run
/// walks its compute tasks and keeps a frontier only on the two
/// channels, with no queue, predecessor counts or chain check. Read as
/// the median over the bases, like the check above, so one noisy base
/// cannot flip it.
#[test]
fn snapshot_sim_kernel_p3_per_copy_run_beats_the_mixed_loop() {
    let median = sim_kernel_median_ratio("p3_ns_per_task", "p3_choice_ns_per_task");
    assert!(
        median < 0.75,
        "the snapshotted P3 per-copy run takes {median:.2}x the time per task of the \
         dispatch loop with choice threads, in the median over the catalog bases"
    );
}
