//! Warm scratch-arena evaluation against the fresh-allocation oracle.
//!
//! `simulate_warm_with` reuses one epoch-stamped [`SimScratch`] arena
//! across back-to-back evaluations and simulates every patch over the
//! base graph plus an overlay, never applying it. A stale stamp
//! surviving an epoch bump, a buffer sized for the wrong base, a missed
//! overlay slot, a seeded removed task, or a fresh thread interned out of
//! order would all show up as a divergence from applying the patch and
//! running `simulate_compiled_with` fresh. So: random DAGs, random op
//! sequences (retimes, thread moves, inserts onto threads the base never
//! used, removals that vacate a base thread, inserts removed again,
//! rewires in either direction), interleaved across *two* bases, with
//! forced fallbacks mixed in — every step on the one shared arena must be
//! byte-identical to the oracle.

mod common;

use common::{assert_warm_matches_full, build_dag, thread_for};
use daydream_core::{
    simulate_compiled, simulate_warm, simulate_warm_with, CommChannel, CompiledGraph, DepKind,
    DependencyGraph, ExecThread, GraphEdit, GraphError, GraphView, PatchGraph, Schedule,
    SimScratch, Task, TaskId, TaskKind, DEFAULT_MAX_CONE_FRACTION,
};
use daydream_trace::{CpuThreadId, DeviceId, StreamId};
use proptest::prelude::*;

/// Threads no base graph uses: inserts and moves onto them make the
/// warm view intern threads after the base's.
fn fresh_thread(sel: u64) -> ExecThread {
    if sel.is_multiple_of(2) {
        ExecThread::Comm(CommChannel::Send)
    } else {
        ExecThread::Cpu(CpuThreadId(7))
    }
}

/// `true` if `to` is reachable from `from` in the overlay's current graph.
fn reaches(p: &PatchGraph<'_>, from: TaskId, to: TaskId) -> bool {
    let mut stack = vec![from];
    let mut seen = vec![from];
    while let Some(u) = stack.pop() {
        if u == to {
            return true;
        }
        for &(v, _) in p.successors(u) {
            if !seen.contains(&v) {
                seen.push(v);
                stack.push(v);
            }
        }
    }
    false
}

/// Adds `from -> to` in either id direction unless it would close a
/// cycle, so rewires can also delay a task that dispatches early.
fn add_edge(p: &mut PatchGraph<'_>, from: TaskId, to: TaskId) {
    if from != to && !reaches(p, to, from) {
        p.add_dep(from, to, DepKind::Transform);
    }
}

fn inserted(thread: ExecThread, v: u64) -> Task {
    let mut t = Task::new("ins", TaskKind::CpuWork, thread, v % 300);
    t.gap_ns = v % 13;
    t.priority = (v % 5) as i64 - 2;
    t
}

/// One random mutation decoded against the overlay's current state:
/// retimes (duration / priority / thread, fresh threads included),
/// rewires, inserts (appended, spliced, or removed again), and removals
/// (one task, or every task of a thread).
fn apply_random_op(p: &mut PatchGraph<'_>, op: (u64, u64, u64, u64)) {
    let (sel, a, b, v) = op;
    let live = p.live_ids();
    if live.is_empty() {
        return;
    }
    let pick = |x: u64| live[(x as usize) % live.len()];
    match sel % 13 {
        0 => p.set_duration(pick(a), v % 500),
        1 => p.set_priority(pick(a), v as i64 % 10 - 5),
        2 => add_edge(p, pick(a), pick(b)),
        3 => p.remove_dep(pick(a), pick(b)),
        4 => {
            if live.len() > 1 {
                p.remove_task(pick(a));
            }
        }
        5 => {
            let anchor = pick(a);
            let id = p.add_task(inserted(thread_for(v), v));
            p.add_dep(anchor, id, DepKind::Transform);
        }
        6 => p.set_thread(pick(a), thread_for(v)),
        7 => p.set_duration(pick(a), v % 50),
        // Splice onto a thread the base never used.
        8 => {
            let id = p.add_task(inserted(fresh_thread(v), v));
            add_edge(p, pick(a), id);
            add_edge(p, id, pick(b));
        }
        9 => p.set_thread(pick(a), fresh_thread(v)),
        // Remove every task of one thread, vacating it.
        10 => {
            let thread = p.task(pick(a)).thread;
            let victims: Vec<TaskId> = live
                .iter()
                .copied()
                .filter(|&id| p.task(id).thread == thread)
                .collect();
            if victims.len() < live.len() {
                for id in victims {
                    p.remove_task(id);
                }
            }
        }
        // An insert bridged into the graph, then removed again.
        11 => {
            let id = p.add_task(inserted(thread_for(v), v));
            add_edge(p, pick(a), id);
            add_edge(p, id, pick(b));
            p.remove_task(id);
        }
        // Rewire a task's readiness: drop its in-edges (it can start
        // earlier), then gate it on a fresh insert.
        _ => {
            let t = pick(a);
            let preds: Vec<TaskId> = p.predecessors(t).iter().map(|&(x, _)| x).collect();
            for x in preds {
                p.remove_dep(x, t);
            }
            if v.is_multiple_of(2) {
                let id = p.add_task(inserted(thread_for(b), v));
                p.add_dep(id, t, DepKind::Transform);
            }
        }
    }
}

/// One compiled base with its captured schedule.
struct WarmBase {
    graph: DependencyGraph,
    cg: CompiledGraph,
    schedule: Schedule,
}

impl WarmBase {
    fn build(tasks: &[(u64, u64, u64)], edges: &[(u64, u64)]) -> WarmBase {
        WarmBase::of(build_dag(tasks, edges))
    }

    fn of(graph: DependencyGraph) -> WarmBase {
        let cg = CompiledGraph::compile(&graph);
        let schedule = Schedule::capture(&cg).expect("base must be a DAG");
        WarmBase {
            graph,
            cg,
            schedule,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Back-to-back warm evaluations on ONE arena, hopping between two
    // bases of different sizes, with the cone budget cycling through
    // default / forced / zero (forced full fallback). Every step must be
    // byte-identical to a fresh-allocation run.
    #[test]
    fn arena_reuse_is_byte_identical_to_fresh_allocation(
        tasks_a in prop::collection::vec((0u64..5, 0u64..200, 0u64..30), 1..40),
        edges_a in prop::collection::vec((0u64..10_000, 0u64..10_000), 0..80),
        tasks_b in prop::collection::vec((0u64..5, 0u64..200, 0u64..30), 1..25),
        edges_b in prop::collection::vec((0u64..10_000, 0u64..10_000), 0..50),
        steps in prop::collection::vec(
            (
                0u64..2, // base selector
                0u64..3, // cone budget: default / forced / zero
                prop::collection::vec(
                    (0u64..10_000, 0u64..10_000, 0u64..10_000, 0u64..10_000), 0..8),
            ),
            1..10),
    ) {
        let bases = [
            WarmBase::build(&tasks_a, &edges_a),
            WarmBase::build(&tasks_b, &edges_b),
        ];
        let mut scratch = SimScratch::new();
        for (sel, budget, ops) in &steps {
            let base = &bases[*sel as usize];
            let mut p = PatchGraph::new(&base.graph);
            for &op in ops {
                apply_random_op(&mut p, op);
            }
            let patch = p.finish();
            let budget = match budget {
                0 => DEFAULT_MAX_CONE_FRACTION,
                1 => 1.0,
                _ => 0.0,
            };
            assert_warm_matches_full(&base.cg, &base.schedule, &patch, budget, &mut scratch);
        }
    }
}

/// The budgets the thread-insert path must answer at alike.
const BUDGETS: [f64; 3] = [0.0, DEFAULT_MAX_CONE_FRACTION, 1.0];

/// A chain-threaded base over a CPU thread and two GPU streams: `(thread
/// selector, duration, gap)` per task, each thread's tasks chained in id
/// order, plus `cross` edges between threads, forward in id order.
fn chain_threaded(tasks: &[(usize, u64, u64)], cross: &[(usize, usize)]) -> WarmBase {
    let threads = [
        ExecThread::Cpu(CpuThreadId(0)),
        ExecThread::Gpu(DeviceId(0), StreamId(0)),
        ExecThread::Gpu(DeviceId(0), StreamId(1)),
    ];
    let mut g = DependencyGraph::new();
    let mut last = [None; 3];
    for &(sel, dur, gap) in tasks {
        let mut t = Task::new("t", TaskKind::CpuWork, threads[sel], dur);
        t.gap_ns = gap;
        let id = g.add_task(t);
        if let Some(prev) = last[sel].replace(id) {
            g.add_dep(prev, id, DepKind::Transform);
        }
    }
    let m = tasks.len();
    for &(a, b) in cross {
        let (x, y) = (a % m, b % m);
        if tasks[x].0 != tasks[y].0 {
            g.add_dep(TaskId(x.min(y)), TaskId(x.max(y)), DepKind::Transform);
        }
    }
    let base = WarmBase::of(g);
    assert!(base.schedule.is_chain_threaded());
    base
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Patches that only add threads, on random chain-threaded bases dense
    // in ties (durations 0 to 3): one or two fresh threads of inserted
    // tasks, with edges from random base tasks into them, from them into
    // random base tasks and between them. Random edges make some entry's
    // descendant feed an insert, where the thread-insert path must fall
    // through, and close some cycles through the base or among the
    // inserts. Every acyclic patch matches the applied graph's kernel
    // run at three budgets, its accounting included (`assert_stats`),
    // and every cyclic one is refused as a cycle.
    #[test]
    fn thread_inserts_match_the_kernel(
        tasks in prop::collection::vec((0usize..3, 0u64..4, 0u64..2), 1..24),
        cross in prop::collection::vec((0usize..1_000, 0usize..1_000), 0..32),
        inserts in prop::collection::vec((any::<bool>(), 0u64..6, 0u64..2), 1..6),
        edges in prop::collection::vec((0usize..1_000, 0usize..1_000, 0u8..3), 1..16),
    ) {
        let base = chain_threaded(&tasks, &cross);
        let mut p = PatchGraph::new(&base.graph);
        let ids: Vec<TaskId> = inserts
            .iter()
            .map(|&(second, dur, gap)| {
                let mut t = Task::new("ins", TaskKind::CpuWork, fresh_thread(second as u64), dur);
                t.gap_ns = gap;
                p.add_task(t)
            })
            .collect();
        let (m, k) = (tasks.len(), ids.len());
        for &(a, b, kind) in &edges {
            match kind {
                0 => p.add_dep(TaskId(a % m), ids[b % k], DepKind::Transform),
                1 => p.add_dep(ids[a % k], TaskId(b % m), DepKind::Transform),
                _ => p.add_dep(ids[a % k], ids[b % k], DepKind::Transform),
            }
        }
        let patch = p.finish();
        if simulate_compiled(&base.cg.apply(&patch)).is_err() {
            for budget in BUDGETS {
                let mut scratch = SimScratch::new();
                let warm = simulate_warm_with(&base.cg, &base.schedule, &patch, &mut scratch, budget);
                prop_assert_eq!(warm, Err(GraphError::Cycle));
            }
        } else {
            let mut scratch = SimScratch::new();
            for budget in BUDGETS {
                assert_warm_matches_full(&base.cg, &base.schedule, &patch, budget, &mut scratch);
            }
        }
    }
}

/// Two entries, `e1` and `e2`, each fed by an insert on a fresh channel.
/// The base is `a` (cpu0, 10) → `e1` (cpu0, 5) → `b` (cpu0, 5), and
/// `e1` → `p` (gpu0, 10) → `e2` (gpu0, 10). `x1` (send, 100) runs after
/// `a` and feeds `e1`, delaying it from 10 to 110 and `p` from 15 to
/// 115; `x2` (receive, 50) feeds `e2`. When `x2` runs after `p`, a
/// descendant of `e1`, it starts at `p`'s delayed finish, 125, and `e2`
/// at 175: the thread-insert path, which times `x2` from `p`'s captured
/// finish, 25, would end the iteration at 135, not 185. The warm path
/// must see that and fall through. When `x2` runs after `a` instead, the
/// path answers: the inserts end at 110 and 60, and the iteration at
/// `e1`'s delayed start plus its tail, 135.
#[test]
fn a_release_predecessor_behind_an_entry_falls_through() {
    let cpu0 = ExecThread::Cpu(CpuThreadId(0));
    let gpu0 = ExecThread::Gpu(DeviceId(0), StreamId(0));
    let mut g = DependencyGraph::new();
    let [a, e1, b, p, e2] = [(cpu0, 10), (cpu0, 5), (cpu0, 5), (gpu0, 10), (gpu0, 10)]
        .map(|(thread, dur)| g.add_task(Task::new("t", TaskKind::CpuWork, thread, dur)));
    for (from, to) in [(a, e1), (e1, b), (e1, p), (p, e2)] {
        g.add_dep(from, to, DepKind::Transform);
    }
    let base = WarmBase::of(g);
    assert_eq!(base.schedule.makespan_ns(), 35);
    for (release, makespan, entries) in [(p, 185, None), (a, 135, Some(2))] {
        let mut ov = PatchGraph::new(&base.graph);
        let x1 = ov.add_task(Task::new("x1", TaskKind::CpuWork, fresh_thread(0), 100));
        let recv = ExecThread::Comm(CommChannel::Receive);
        let x2 = ov.add_task(Task::new("x2", TaskKind::CpuWork, recv, 50));
        for (from, to) in [(a, x1), (x1, e1), (release, x2), (x2, e2)] {
            ov.add_dep(from, to, DepKind::Transform);
        }
        let patch = ov.finish();
        let mut scratch = SimScratch::new();
        for budget in BUDGETS {
            let warm =
                assert_warm_matches_full(&base.cg, &base.schedule, &patch, budget, &mut scratch);
            assert_eq!(warm.makespan_ns, makespan, "x2 after {release:?}");
            assert_eq!(warm.stats.entries, entries, "x2 after {release:?}");
        }
    }
}

/// Two threads the base never used, introduced in the opposite order to
/// their first task ids: the apply interns them by first task id, so the
/// materialized `thread_end` must follow that order, not the patch's.
#[test]
fn fresh_threads_materialize_in_apply_order() {
    let tasks: Vec<(u64, u64, u64)> = (0..12).map(|i| (i % 4, 20 + i, i % 3)).collect();
    let edges: Vec<(u64, u64)> = (0..11).map(|i| (i, i + 1)).collect();
    let base = WarmBase::build(&tasks, &edges);
    let mut p = PatchGraph::new(&base.graph);
    let id = p.add_task(inserted(fresh_thread(0), 40));
    p.add_dep(TaskId(2), id, DepKind::Transform);
    p.set_thread(TaskId(9), fresh_thread(1));
    p.set_duration(TaskId(9), 500);
    let patch = p.finish();
    let mut scratch = SimScratch::new();
    for budget in [DEFAULT_MAX_CONE_FRACTION, 0.0] {
        assert_warm_matches_full(&base.cg, &base.schedule, &patch, budget, &mut scratch);
    }
}

/// A serial CPU chain of `n` tasks: durations 10, 11, ... and 1 ns gaps.
fn chain(n: u64) -> (WarmBase, Vec<TaskId>) {
    let mut g = DependencyGraph::new();
    let ids: Vec<TaskId> = (0..n)
        .map(|i| {
            let mut t = Task::new(
                "c",
                TaskKind::CpuWork,
                ExecThread::Cpu(CpuThreadId(0)),
                10 + i,
            );
            t.gap_ns = 1;
            g.add_task(t)
        })
        .collect();
    for w in ids.windows(2) {
        g.add_dep(w[0], w[1], DepKind::CpuSeq);
    }
    (WarmBase::of(g), ids)
}

/// Warm evaluation against the full oracle on a single arena across every
/// path: cone, no-op, a forced full fallback of a retime (the replay) and
/// of a structural patch (the full path over the overlay), and a
/// structural cone.
#[test]
fn warm_paths_match_the_classic_oracle() {
    let (base, ids) = chain(12);
    let mut scratch = SimScratch::new();
    let default = DEFAULT_MAX_CONE_FRACTION;
    let mut check = |p: PatchGraph<'_>, budget: f64| {
        assert_warm_matches_full(&base.cg, &base.schedule, &p.finish(), budget, &mut scratch)
    };

    // Cone re-dispatch.
    let mut p = PatchGraph::new(&base.graph);
    p.set_duration(ids[8], 500);
    check(p, default);
    // No-op: the default order ignores priority.
    let mut p = PatchGraph::new(&base.graph);
    p.set_priority(ids[3], 7);
    assert_eq!(check(p, default).stats.redispatched, 0);
    // Forced full fallback of a retime: replays the base's order over
    // the arena's rows (no apply).
    let mut p = PatchGraph::new(&base.graph);
    p.set_duration(ids[2], 900);
    check(p, 0.0);
    // Structural patch: simulated over the overlay, never applied, on
    // the cone path and on a forced full fallback.
    let structural = || {
        let mut p = PatchGraph::new(&base.graph);
        let extra = p.add_task(Task::new(
            "c",
            TaskKind::CpuWork,
            ExecThread::Cpu(CpuThreadId(0)),
            40,
        ));
        p.add_dep(ids[10], extra, DepKind::Transform);
        p
    };
    check(structural(), default);
    check(structural(), 0.0);
    // Back-to-back cone on the same arena: stale stamps must not leak.
    let mut p = PatchGraph::new(&base.graph);
    p.set_duration(ids[4], 123);
    check(p, default);

    assert!(
        scratch.counters().reuses >= 2,
        "warm arena must be reused across evals"
    );
}

/// Epoch overflow (u32 wrap) must reset the stamp arrays cleanly:
/// evaluations across the wrap stay byte-identical to the oracle and
/// the counter restarts at 1.
#[test]
fn epoch_wrap_resets_cleanly() {
    let (base, ids) = chain(8);
    let mut scratch = SimScratch::new();
    let mk = |target: usize, ns: u64| {
        let mut p = PatchGraph::new(&base.graph);
        p.set_duration(ids[target], ns);
        p.finish()
    };
    // Size the arena, then park the counter just below the wrap.
    simulate_warm(&base.cg, &base.schedule, &mk(5, 500), &mut scratch).unwrap();
    scratch.force_epoch(u32::MAX - 1);
    // Epochs u32::MAX, then wrap -> 1, then 2 — different cones each
    // time so a stale stamp surviving the wrap would corrupt output.
    for (target, ns) in [(5usize, 600u64), (2, 700), (6, 800)] {
        assert_warm_matches_full(
            &base.cg,
            &base.schedule,
            &mk(target, ns),
            DEFAULT_MAX_CONE_FRACTION,
            &mut scratch,
        );
    }
    assert_eq!(scratch.epoch(), 2, "wrap must restart the counter at 1");
}
