//! The compiled frontier simulator against the reference oracles.
//!
//! The compiled frontier ([`daydream_core::simulate`]) must dispatch the
//! *exact* sequence of the retained quadratic reference loop
//! ([`daydream_core::simulate_reference`]) under the default policy:
//! identical `start_ns`, `makespan_ns`, `wait_ns`, and `thread_end` on
//! arbitrary DAGs — varying thread counts, durations, gaps, and removed
//! tasks. A test-local rank-aware oracle pins the dispatch order under
//! every [`FrontierOrder`], P3's included, and with it the kernel's
//! conversion of ranks to dense ranks. On chain-threaded DAGs the chain
//! sweep ([`Schedule::capture`]'s path) and the warm retime replay,
//! which walks the captured start order, must equal the kernel, and on a
//! DAG with one thread that is no chain the sweep's check must fire. On
//! patched chain-threaded DAGs the dispatch loop with choice threads (the
//! warm paths', and P3's) must equal the kernel. Plus pinned tests that
//! the P3 and vDNN schedule overrides still steer dispatch order on the
//! new frontier.

mod common;

use common::{assert_warm_matches_full, thread_for};
use daydream_core::transform::insert_after;
use daydream_core::whatif::P3Scheduler;
use daydream_core::{
    simulate, simulate_compiled, simulate_compiled_mixed, simulate_compiled_with,
    simulate_reference, simulate_with, CommChannel, CompactId, CompiledGraph, CompiledSim, DepKind,
    DependencyGraph, EarliestStart, ExecThread, FrontierOrder, GraphEdit, PatchGraph, Rank,
    Schedule, SimScratch, Task, TaskId, TaskKind,
};
use daydream_trace::{CpuThreadId, DeviceId, StreamId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Builds a random DAG: tasks with arbitrary threads (picked from the
/// `thread` universe), durations, gaps and priorities, forward edges only
/// (acyclic by construction), then a few removals (which exercise
/// tombstone bridging).
fn build(
    thread: fn(u64) -> ExecThread,
    tasks: &[(u64, u64, u64, i64)],
    edges: &[(u64, u64)],
    removals: &[u64],
) -> DependencyGraph {
    let mut g = DependencyGraph::new();
    let n = tasks.len();
    for (i, &(sel, dur, gap, priority)) in tasks.iter().enumerate() {
        let mut t = Task::new(format!("t{i}"), TaskKind::CpuWork, thread(sel), dur);
        t.gap_ns = gap;
        t.priority = priority;
        g.add_task(t);
    }
    for &(a, b) in edges {
        let (x, y) = ((a as usize) % n, (b as usize) % n);
        if x == y {
            continue;
        }
        let (from, to) = (x.min(y), x.max(y));
        g.add_dep(
            daydream_core::TaskId(from),
            daydream_core::TaskId(to),
            DepKind::Transform,
        );
    }
    for &r in removals {
        g.remove_task(daydream_core::TaskId((r as usize) % n));
    }
    g
}

/// The six-thread universe of the rank-aware oracle: two CPU threads, two
/// GPU streams, and P3's `Send` and `Receive` channels.
fn thread6_for(sel: u64) -> ExecThread {
    match sel % 6 {
        0 => ExecThread::Cpu(CpuThreadId(0)),
        1 => ExecThread::Cpu(CpuThreadId(1)),
        2 => ExecThread::Gpu(DeviceId(0), StreamId(0)),
        3 => ExecThread::Gpu(DeviceId(0), StreamId(1)),
        4 => ExecThread::Comm(CommChannel::Send),
        _ => ExecThread::Comm(CommChannel::Receive),
    }
}

/// Ranks a task by its thread's index, reversed, and nothing else: every
/// task on a thread ties with the rest of that thread, so the order
/// within a thread rests on the id tie-break alone, while at equal
/// feasibility across threads later threads win, against id order.
struct ReversedThread;

impl FrontierOrder for ReversedThread {
    fn rank(&self, graph: &CompiledGraph, task: CompactId) -> Rank {
        (u64::MAX - graph.thread_of(task).0 as u64, 0)
    }
}

/// Asserts that the kernel under `order` dispatches exactly as
/// [`rank_oracle`] does.
fn check_kernel<O: FrontierOrder>(cg: &CompiledGraph, order: &O) -> Result<(), TestCaseError> {
    let fast = simulate_compiled_with(cg, order).expect("forward edges: a DAG");
    let oracle = rank_oracle(cg, order);
    prop_assert_eq!(&fast.start_ns, &oracle.start_ns);
    prop_assert_eq!(&fast.wait_ns, &oracle.wait_ns);
    prop_assert_eq!(&fast.thread_end, &oracle.thread_end);
    prop_assert_eq!(fast.makespan_ns, oracle.makespan_ns);
    Ok(())
}

/// The dispatch rule itself, in O(n²): at each step dispatch the minimum
/// `(max(tentative, progress[thread]), rank, id)` over every released
/// task. Ids are unique, so the order is total for any [`FrontierOrder`].
fn rank_oracle<O: FrontierOrder>(cg: &CompiledGraph, order: &O) -> CompiledSim {
    let n = cg.len();
    let mut preds: Vec<u32> = (0..n as u32).map(|i| cg.pred_count(CompactId(i))).collect();
    let mut tentative = vec![0u64; n];
    let mut start = vec![0u64; n];
    let mut wait = vec![0u64; n];
    let mut progress = vec![0u64; cg.thread_count()];
    let mut makespan = 0u64;
    let mut released: Vec<u32> = (0..n as u32).filter(|&i| preds[i as usize] == 0).collect();
    while !released.is_empty() {
        let key = |u: u32| {
            let t = cg.thread_of(CompactId(u)).0 as usize;
            let feasible = tentative[u as usize].max(progress[t]);
            (feasible, order.rank(cg, CompactId(u)), u)
        };
        let idx = (0..released.len())
            .min_by_key(|&i| key(released[i]))
            .expect("released is non-empty");
        let u = released.swap_remove(idx);
        let (s, _, _) = key(u);
        let t = cg.thread_of(CompactId(u)).0 as usize;
        start[u as usize] = s;
        wait[u as usize] = s - progress[t];
        let fin = s + cg.cost_ns(CompactId(u));
        progress[t] = fin;
        makespan = makespan.max(s + cg.duration_ns(CompactId(u)));
        for &v in cg.successors(CompactId(u)) {
            let vi = v.0 as usize;
            tentative[vi] = tentative[vi].max(fin);
            preds[vi] -= 1;
            if preds[vi] == 0 {
                released.push(v.0);
            }
        }
    }
    CompiledSim {
        start_ns: start,
        wait_ns: wait,
        thread_end: progress,
        makespan_ns: makespan,
    }
}

/// A random chain-threaded DAG over [`thread6_for`]'s threads: each task
/// `(thread selector, duration, gap)`, in a topological order, is chained
/// after the previous task on its thread, and `cross` adds edges forward
/// in that order between tasks on different threads. The `p`-th task
/// gets the id of its rank by `keys[p]` (0 past the end; ties by
/// position), so with `keys` empty ids follow the order, and otherwise
/// edges also run from higher ids to lower ones. Returns the graph and
/// its chain edges.
fn build_chained(
    tasks: &[(u64, u64, u64)],
    cross: &[(u64, u64)],
    keys: &[u64],
) -> (DependencyGraph, Vec<(TaskId, TaskId)>) {
    let n = tasks.len();
    let mut by_key: Vec<usize> = (0..n).collect();
    by_key.sort_by_key(|&p| (keys.get(p).copied().unwrap_or(0), p));
    let mut g = DependencyGraph::new();
    let mut id_of = vec![TaskId(0); n];
    for &p in &by_key {
        let (sel, dur, gap) = tasks[p];
        let mut t = Task::new(format!("t{p}"), TaskKind::CpuWork, thread6_for(sel), dur);
        t.gap_ns = gap;
        id_of[p] = g.add_task(t);
    }
    let mut last: [Option<TaskId>; 6] = [None; 6];
    let mut chain = Vec::new();
    for (p, &(sel, _, _)) in tasks.iter().enumerate() {
        if let Some(prev) = last[(sel % 6) as usize].replace(id_of[p]) {
            g.add_dep(prev, id_of[p], DepKind::CpuSeq);
            chain.push((prev, id_of[p]));
        }
    }
    for &(a, b) in cross {
        let (x, y) = ((a as usize) % n, (b as usize) % n);
        if tasks[x].0 % 6 != tasks[y].0 % 6 {
            g.add_dep(id_of[x.min(y)], id_of[x.max(y)], DepKind::Transform);
        }
    }
    (g, chain)
}

proptest! {
    // The chain sweep against the frontier kernel on chain-threaded DAGs
    // dense in ties: durations and gaps from 0 to 3, so zero-cost tasks
    // and equal finishes abound, with cross-thread edges. The sweep
    // (alone, and as `Schedule::capture` runs it) equals the kernel, and
    // so does a warm full fallback over the base, which sweeps because
    // its patch (retimes and one removal, whose bridges keep the chains)
    // changes the structure but adds no thread. With one chain edge
    // dropped, that thread is two chains: the check fires, and the
    // capture's kernel run still matches.
    #[test]
    fn sweep_matches_kernel_on_chain_threaded_dags(
        tasks in prop::collection::vec((0u64..6, 0u64..4, 0u64..4), 1..90),
        cross in prop::collection::vec((0u64..10_000, 0u64..10_000), 0..200),
        retimes in prop::collection::vec((0u64..10_000, 0u64..6), 1..6),
        removed in 0u64..10_000,
        broken in 0u64..10_000,
    ) {
        let (mut g, chain) = build_chained(&tasks, &cross, &[]);
        let cg = CompiledGraph::compile(&g);
        let kernel = simulate_compiled(&cg).expect("forward edges: a DAG");
        let no_choice = vec![false; cg.thread_count()];
        let swept = simulate_compiled_mixed(&cg, &EarliestStart, &no_choice);
        prop_assert_eq!(swept, Ok((kernel.clone(), no_choice)));
        let schedule = Schedule::capture(&cg).expect("forward edges: a DAG");
        prop_assert!(schedule.is_chain_threaded());
        prop_assert_eq!(schedule.sim(), &kernel);

        let mut ov = PatchGraph::new(&g);
        let n = tasks.len();
        ov.set_durations(
            &retimes
                .iter()
                .map(|&(i, d)| (TaskId(i as usize % n), d))
                .collect::<Vec<_>>(),
        );
        ov.remove_task(TaskId(removed as usize % n));
        assert_warm_matches_full(&cg, &schedule, &ov.finish(), 0.0, &mut SimScratch::new());

        if !chain.is_empty() {
            let (from, to) = chain[broken as usize % chain.len()];
            g.remove_dep(from, to);
            let cg = CompiledGraph::compile(&g);
            // The check marks the split thread, which reruns on a
            // frontier (and every thread does where a zero-cost task
            // then ranks above one of its tasks).
            let no_choice = vec![false; cg.thread_count()];
            let (swept, ran) = simulate_compiled_mixed(&cg, &EarliestStart, &no_choice)
                .expect("a DAG");
            prop_assert_eq!(swept, simulate_compiled(&cg).expect("a DAG"));
            let split = cg.thread_of(cg.compact_of(to).expect("live")).0 as usize;
            prop_assert!(ran[split]);
            let schedule = Schedule::capture(&cg).expect("forward edges: a DAG");
            prop_assert!(!schedule.is_chain_threaded());
            prop_assert_eq!(schedule.sim(), &simulate_compiled(&cg).expect("a DAG"));
        }
    }

    // Retime-only patches over chain-threaded DAGs dense in ties, zero
    // durations included, whose ids are mostly not in topological order
    // and whose arenas may hold removed tasks (bridged, so the chains
    // hold and compaction is no identity): the base's start order is
    // topological, so at budget 0.0 the warm path replays it over the
    // retimed rows and at 1.0 runs the cone, and both equal the kernel
    // over the applied graph. A priority edit rides along: it keeps the
    // structure too.
    #[test]
    fn retime_replay_matches_kernel_on_chain_threaded_dags(
        tasks in prop::collection::vec((0u64..6, 0u64..4, 0u64..4), 1..90),
        cross in prop::collection::vec((0u64..10_000, 0u64..10_000), 0..200),
        keys in prop::collection::vec(0u64..1_000, 0..90),
        removals in prop::collection::vec(0u64..10_000, 0..4),
        retimes in prop::collection::vec((0u64..10_000, 0u64..4), 1..40),
        reprioritized in 0u64..10_000,
    ) {
        let (mut g, _) = build_chained(&tasks, &cross, &keys);
        for &r in &removals {
            g.remove_task(TaskId(r as usize % tasks.len()));
        }
        let live: Vec<TaskId> = g.iter().map(|(id, _)| id).collect();
        if live.is_empty() {
            return Ok(());
        }
        let cg = CompiledGraph::compile(&g);
        let schedule = Schedule::capture(&cg).expect("forward edges: a DAG");
        prop_assert!(schedule.is_chain_threaded());
        let pick = |i: u64| live[i as usize % live.len()];
        let mut ov = PatchGraph::new(&g);
        ov.set_durations(
            &retimes
                .iter()
                .map(|&(i, d)| (pick(i), d))
                .collect::<Vec<_>>(),
        );
        ov.set_priority(pick(reprioritized), -9);
        let patch = ov.finish();
        let mut scratch = SimScratch::new();
        let replayed = assert_warm_matches_full(&cg, &schedule, &patch, 0.0, &mut scratch);
        prop_assert!(!replayed.stats.is_incremental());
        prop_assert_eq!(replayed.stats.redispatched, live.len());
        let cone = assert_warm_matches_full(&cg, &schedule, &patch, 1.0, &mut scratch);
        prop_assert!(cone.stats.is_incremental());
        prop_assert_eq!(cone.makespan_ns, replayed.makespan_ns);
    }

    // The kernel against the rank-aware oracle under three policies, on
    // six-thread DAGs dense in ties: short durations and gaps (zeros
    // included) and a handful of priorities. The default order runs
    // without a rank array, P3's and the reversed-thread order through
    // their dense ranks; the last ties ranks across most tasks, so the
    // conversion's id tie-break decides most of its order. One case in
    // eight removes every task, leaving a graph with zero threads.
    #[test]
    fn kernel_matches_rank_oracle_under_every_policy(
        tasks in prop::collection::vec((0u64..6, 0u64..8, 0u64..3, -2i64..3), 1..90),
        edges in prop::collection::vec((0u64..10_000, 0u64..10_000), 0..250),
        removals in prop::collection::vec(0u64..10_000, 0..12),
        wipe in 0u8..8,
    ) {
        let removals = if wipe == 0 { (0..tasks.len() as u64).collect() } else { removals };
        let cg = CompiledGraph::compile(&build(thread6_for, &tasks, &edges, &removals));
        check_kernel(&cg, &EarliestStart)?;
        prop_assert_eq!(
            simulate_compiled(&cg).expect("forward edges: a DAG"),
            rank_oracle(&cg, &EarliestStart)
        );
        check_kernel(&cg, &P3Scheduler)?;
        check_kernel(&cg, &ReversedThread)?;
    }

    #[test]
    fn heap_simulator_matches_reference(
        tasks in prop::collection::vec((0u64..5, 0u64..200, 0u64..30, Just(0i64)), 1..90),
        edges in prop::collection::vec((0u64..10_000, 0u64..10_000), 0..250),
        removals in prop::collection::vec(0u64..10_000, 0..12),
    ) {
        let g = build(thread_for, &tasks, &edges, &removals);
        let fast = simulate(&g).expect("forward-edge graphs are DAGs");
        let oracle = simulate_reference(&g).expect("forward-edge graphs are DAGs");
        prop_assert_eq!(&fast.start_ns, &oracle.start_ns);
        prop_assert_eq!(fast.makespan_ns, oracle.makespan_ns);
        prop_assert_eq!(&fast.wait_ns, &oracle.wait_ns);
        prop_assert_eq!(&fast.thread_end, &oracle.thread_end);
    }

    // Wide-frontier stress: many unchained tasks contending for one
    // channel — the exact shape that made the reference loop quadratic.
    #[test]
    fn heap_simulator_matches_reference_on_wide_frontiers(
        durs in prop::collection::vec(1u64..50, 2..120),
        feeders in prop::collection::vec((0u64..10_000, 1u64..100), 1..8),
    ) {
        let mut g = DependencyGraph::new();
        let chan = ExecThread::Comm(CommChannel::Collective);
        let feeder_ids: Vec<_> = feeders
            .iter()
            .enumerate()
            .map(|(i, &(_, d))| {
                g.add_task(Task::new(
                    format!("k{i}"),
                    TaskKind::GpuKernel,
                    ExecThread::Gpu(DeviceId(0), StreamId(i as u32 % 2)),
                    d,
                ))
            })
            .collect();
        for (i, &d) in durs.iter().enumerate() {
            let m = g.add_task(Task::new(format!("m{i}"), TaskKind::CpuWork, chan, d));
            let f = feeder_ids[i % feeder_ids.len()];
            g.add_dep(f, m, DepKind::Comm);
        }
        let fast = simulate(&g).unwrap();
        let oracle = simulate_reference(&g).unwrap();
        prop_assert_eq!(&fast.start_ns, &oracle.start_ns);
        prop_assert_eq!(fast.makespan_ns, oracle.makespan_ns);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Patches over random chain-threaded DAGs dense in ties (durations
    // from 0 to 2 and gaps 0 or 1, so one task in six costs nothing; ids
    // mostly out of topological order) that give Algorithm 1 a choice: transfers on a
    // collective channel the base lacks (each after one base task and
    // maybe before another, at a random priority), tasks inserted onto a
    // base thread after a base task but chained to nothing there, and
    // tasks spliced into a thread's chain with `insert_after`. The warm
    // path at budgets 0.0, 0.75 and 1.0 equals the kernel over the
    // applied graph, and so does the loop over the applied graph with
    // the channel and every base thread an insert lands on as its choice
    // threads, under the default order and under P3's dense ranks. A
    // zero-cost release ranked above a choice thread's task is rare
    // here, so this test runs more cases than the others: without
    // condition (b) the first failing case is the 83rd.
    #[test]
    fn mixed_loop_matches_kernel_on_patched_chain_threaded_dags(
        tasks in prop::collection::vec((0u64..6, 0u64..3, 0u64..2), 1..80),
        cross in prop::collection::vec((0u64..10_000, 0u64..10_000), 0..150),
        keys in prop::collection::vec(0u64..1_000, 0..80),
        transfers in prop::collection::vec(
            (0u64..10_000, 0u64..10_000, 0u64..4, -2i64..3, any::<bool>()),
            0..10,
        ),
        unchained in prop::collection::vec((0u64..10_000, 0u64..10_000, 0u64..3), 0..12),
        spliced in prop::collection::vec((0u64..10_000, 0u64..3), 0..6),
    ) {
        let (g, _) = build_chained(&tasks, &cross, &keys);
        let cg = CompiledGraph::compile(&g);
        let schedule = Schedule::capture(&cg).expect("forward edges: a DAG");
        prop_assert!(schedule.is_chain_threaded());
        let n = tasks.len();
        let base = |i: u64| TaskId(i as usize % n);
        let collective = ExecThread::Comm(CommChannel::Collective);
        let mut ov = PatchGraph::new(&g);
        for &(from, to, dur, priority, gated) in &transfers {
            let mut t = Task::new("x", TaskKind::CpuWork, collective, dur);
            t.priority = priority;
            let x = ov.add_task(t);
            ov.add_dep(base(from), x, DepKind::Comm);
            // Only a later task may wait on the transfer.
            if gated && from % n as u64 != to % n as u64 {
                let (a, b) = (from as usize % n, to as usize % n);
                if schedule.sim().start_ns[cg.compact_of(base(a as u64)).unwrap().0 as usize]
                    < schedule.sim().start_ns[cg.compact_of(base(b as u64)).unwrap().0 as usize]
                {
                    ov.add_dep(x, base(to), DepKind::Comm);
                }
            }
        }
        let mut landed = Vec::new();
        for &(after, on, dur) in &unchained {
            let thread = g.task(base(on)).thread;
            let u = ov.add_task(Task::new("u", TaskKind::CpuWork, thread, dur));
            ov.add_dep(base(after), u, DepKind::Transform);
            landed.push(thread);
        }
        for &(after, dur) in &spliced {
            let thread = g.task(base(after)).thread;
            insert_after(&mut ov, base(after), Task::new("s", TaskKind::CpuWork, thread, dur));
            landed.push(thread);
        }
        let patch = ov.finish();
        let mut scratch = SimScratch::new();
        for budget in [0.0, 0.75, 1.0] {
            assert_warm_matches_full(&cg, &schedule, &patch, budget, &mut scratch);
        }
        let applied = cg.apply(&patch);
        let choice: Vec<bool> = (0..applied.thread_count() as u32)
            .map(|t| applied.exec_thread(daydream_core::ThreadId(t)))
            .map(|t| t == collective || landed.contains(&t))
            .collect();
        for ranks in [false, true] {
            let (mixed, kernel) = if ranks {
                (
                    simulate_compiled_mixed(&applied, &P3Scheduler, &choice),
                    simulate_compiled_with(&applied, &P3Scheduler),
                )
            } else {
                (
                    simulate_compiled_mixed(&applied, &EarliestStart, &choice),
                    simulate_compiled(&applied),
                )
            };
            let (mixed, ran) = mixed.expect("a DAG");
            prop_assert_eq!(mixed, kernel.expect("a DAG"));
            prop_assert!(ran.iter().zip(&choice).all(|(&r, &c)| r || !c));
        }
    }
}

/// The two simulators agree on a real profiled model graph end to end.
#[test]
fn heap_simulator_matches_reference_on_profiled_model() {
    let model = daydream_models::zoo::resnet50();
    let cfg = daydream_runtime::ExecConfig::pytorch_2080ti().with_batch(4);
    let trace = daydream_runtime::ground_truth::run_baseline(&model, &cfg);
    let pg = daydream_core::ProfiledGraph::from_trace(&trace);
    let fast = simulate(&pg.graph).unwrap();
    let oracle = simulate_reference(&pg.graph).unwrap();
    assert_eq!(fast, oracle);
    assert!(fast.makespan_ns > 0);
}

/// Pinned: the P3 frontier policy reorders equal-feasibility transfers on
/// a communication channel by priority, where the default policy follows
/// task ids.
#[test]
fn p3_order_overrides_comm_dispatch_on_new_frontier() {
    let chan = ExecThread::Comm(CommChannel::Send);
    let mut g = DependencyGraph::new();
    let mk = |p: i64| {
        let mut t = Task::new(format!("push_p{p}"), TaskKind::CpuWork, chan, 10);
        t.priority = p;
        t
    };
    let low = g.add_task(mk(1));
    let high = g.add_task(mk(5));
    let mid = g.add_task(mk(3));

    // Default policy: id order.
    let d = simulate(&g).unwrap();
    assert_eq!(
        (d.start_of(low), d.start_of(high), d.start_of(mid)),
        (0, 10, 20),
        "EarliestStart dispatches in task-id order"
    );

    // P3 policy: priority order (high, mid, low).
    let p = simulate_with(&g, &P3Scheduler).unwrap();
    assert_eq!(
        (p.start_of(high), p.start_of(mid), p.start_of(low)),
        (0, 10, 20),
        "P3Scheduler dispatches the channel by descending priority"
    );
    assert_eq!(p.makespan_ns, d.makespan_ns);
}

/// Pinned: the canonical P3 semantics on a *mixed* comm/compute frontier.
/// A zero-cost compute dispatch can unlock a higher-priority transfer at
/// the channel's current feasibility; the heap frontier then prefers the
/// higher priority deterministically, as the rank-aware oracle of
/// `kernel_matches_rank_oracle_under_every_policy` does.
#[test]
fn p3_mixed_frontier_prefers_unlocked_high_priority_transfer() {
    let chan = ExecThread::Comm(CommChannel::Send);
    let mut g = DependencyGraph::new();
    let mut low = Task::new("push_low", TaskKind::CpuWork, chan, 10);
    low.priority = 5;
    let low = g.add_task(low);
    // Zero-cost compute task whose completion releases the high-priority
    // transfer at t=0.
    let unlock = g.add_task(Task::new(
        "launch",
        TaskKind::CpuWork,
        ExecThread::Cpu(CpuThreadId(0)),
        0,
    ));
    let mut high = Task::new("push_high", TaskKind::CpuWork, chan, 10);
    high.priority = 9;
    let high = g.add_task(high);
    g.add_dep(unlock, high, DepKind::Comm);

    let p = simulate_with(&g, &P3Scheduler).unwrap();
    assert_eq!(p.start_of(unlock), 0);
    assert_eq!(
        (p.start_of(high), p.start_of(low)),
        (0, 10),
        "the released higher-priority transfer wins the channel"
    );
}

/// Pinned: P3's priority override only touches communication channels —
/// compute threads keep id order under the P3 policy.
#[test]
fn p3_order_leaves_compute_threads_in_id_order() {
    let gpu = ExecThread::Gpu(DeviceId(0), StreamId(0));
    let mut g = DependencyGraph::new();
    let mk = |p: i64| {
        let mut t = Task::new(format!("k_p{p}"), TaskKind::GpuKernel, gpu, 10);
        t.priority = p;
        t
    };
    let a = g.add_task(mk(1));
    let b = g.add_task(mk(9));
    let p = simulate_with(&g, &P3Scheduler).unwrap();
    assert_eq!((p.start_of(a), p.start_of(b)), (0, 10));
}

/// Pinned: vDNN's schedule override (the look-ahead prefetch release,
/// modeled as Transform edges) still gates dispatch on the new frontier:
/// every re-allocation for a prefetch starts only after the releasing
/// backward task has finished.
#[test]
fn vdnn_prefetch_release_still_gates_dispatch() {
    use daydream_core::whatif::{plan_vdnn, VdnnConfig};
    let model = daydream_models::zoo::vgg19();
    let cfg = daydream_runtime::ExecConfig::pytorch_2080ti().with_batch(8);
    let trace = daydream_runtime::ground_truth::run_baseline(&model, &cfg);
    let mut pg = daydream_core::ProfiledGraph::from_trace(&trace);
    let offloaded = plan_vdnn(&mut pg.graph, &model, &VdnnConfig::default(), 8);
    assert!(offloaded > 0);
    let sim = simulate(&pg.graph).unwrap();
    let mut checked = 0;
    for (id, t) in pg.graph.iter() {
        if t.name != "cudaMalloc_vDNN" {
            continue;
        }
        for &(pred, kind) in pg.graph.predecessors(id) {
            if kind != DepKind::Transform {
                continue;
            }
            let p = pg.graph.task(pred);
            assert!(
                sim.start_of(id) >= sim.start_of(pred) + p.duration_ns + p.gap_ns,
                "prefetch {} dispatched before its release task {}",
                t.name,
                p.name
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "look-ahead release edges must exist");
}
