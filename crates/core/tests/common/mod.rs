//! What the graph tests share: the one warm-path oracle,
//! [`simulate_compiled`] over [`CompiledGraph::apply`], plus the path
//! accounting the warm path must report for the patch; the random-DAG
//! universe; and the canonical structure of a compiled graph. Each test
//! binary (and `daydream-bench`, by `#[path]`) uses a subset.

#![allow(dead_code)]

use daydream_core::{
    simulate_compiled, simulate_warm_with, CommChannel, CompactId, CompiledGraph, CompiledSim,
    DepKind, DependencyGraph, ExecThread, GraphPatch, IncrementalStats, Schedule, SimScratch, Task,
    TaskId, TaskKind, ThreadId, WarmOutcome,
};
use daydream_trace::{CpuThreadId, DeviceId, StreamId};

/// The random-DAG thread universe: two CPU threads, two GPU streams, one
/// communication channel.
pub fn thread_for(sel: u64) -> ExecThread {
    match sel % 5 {
        0 => ExecThread::Cpu(CpuThreadId(0)),
        1 => ExecThread::Cpu(CpuThreadId(1)),
        2 => ExecThread::Gpu(DeviceId(0), StreamId(0)),
        3 => ExecThread::Gpu(DeviceId(0), StreamId(1)),
        _ => ExecThread::Comm(CommChannel::Collective),
    }
}

/// A random DAG over [`thread_for`]'s threads: `(thread selector,
/// duration, gap)` per task, priorities derived from the duration, and
/// forward edges only (acyclic by construction).
pub fn build_dag(tasks: &[(u64, u64, u64)], edges: &[(u64, u64)]) -> DependencyGraph {
    let mut g = DependencyGraph::new();
    let n = tasks.len();
    for (i, &(sel, dur, gap)) in tasks.iter().enumerate() {
        let mut t = Task::new(format!("t{i}"), TaskKind::CpuWork, thread_for(sel), dur);
        t.gap_ns = gap;
        t.priority = (dur % 7) as i64 - 3;
        g.add_task(t);
    }
    for &(a, b) in edges {
        let (x, y) = ((a as usize) % n, (b as usize) % n);
        if x == y {
            continue;
        }
        g.add_dep(TaskId(x.min(y)), TaskId(x.max(y)), DepKind::Transform);
    }
    g
}

/// Canonical structural form of a compiled graph: per live task, its
/// arena id, thread, cost, duration, priority, predecessor count, and
/// sorted successor arena ids. Interned thread *order* may differ between
/// `apply` and a fresh compile; everything here must not.
pub type CanonicalTask = (TaskId, ExecThread, u64, u64, i64, u32, Vec<TaskId>);

/// The [`CanonicalTask`]s of `cg`, in compact order.
pub fn canonical(cg: &CompiledGraph) -> Vec<CanonicalTask> {
    (0..cg.len())
        .map(|i| {
            let c = CompactId(i as u32);
            let mut succs: Vec<TaskId> = cg.successors(c).iter().map(|&s| cg.task_id(s)).collect();
            succs.sort_unstable();
            (
                cg.task_id(c),
                cg.exec_thread(cg.thread_of(c)),
                cg.cost_ns(c),
                cg.duration_ns(c),
                cg.priority(c),
                cg.pred_count(c),
                succs,
            )
        })
        .collect()
}

/// Evaluates `patch` warm on `scratch` under the cone budget
/// `max_cone_fraction` and pins the result to the full simulation of the
/// applied graph: the makespan, the materialized dense simulation, and
/// its expanded arena-indexed form. Then checks the work accounting with
/// [`assert_stats`] and returns the outcome.
pub fn assert_warm_matches_full(
    cg: &CompiledGraph,
    schedule: &Schedule,
    patch: &GraphPatch,
    max_cone_fraction: f64,
    scratch: &mut SimScratch,
) -> WarmOutcome {
    let warm = simulate_warm_with(cg, schedule, patch, scratch, max_cone_fraction)
        .expect("patched graph must stay a DAG");
    let applied = cg.apply(patch);
    let full = simulate_compiled(&applied).expect("patched graph must stay a DAG");
    assert_eq!(warm.makespan_ns, full.makespan_ns, "makespan diverged");
    let materialized = scratch
        .materialize(cg, schedule)
        .expect("a completed warm evaluation must materialize");
    assert_eq!(
        materialized, full,
        "warm simulation diverged from the full run"
    );
    assert_stats(
        cg,
        &applied,
        &full,
        schedule,
        patch,
        max_cone_fraction,
        &warm.stats,
    );
    assert_eq!(
        materialized.into_sim_result(&applied),
        full.into_sim_result(&applied),
        "expanded SimResult diverged"
    );
    warm
}

/// The entries of `applied`, the patched `cg`, if the thread-insert path
/// must answer its patch: `schedule`, captured over `cg`, is
/// chain-threaded; the patch keeps every base task with its thread and
/// duration, and every edge between base tasks; it inserts at least one
/// task, each on a thread `cg` lacks; and no base predecessor of an
/// inserted task descends from an entry (a base task with an inserted
/// predecessor), the entry included. Each entry once, in applied
/// compact ids.
fn thread_insert_entries(
    cg: &CompiledGraph,
    applied: &CompiledGraph,
    schedule: &Schedule,
) -> Option<Vec<usize>> {
    let base_threads: Vec<ExecThread> = (0..cg.thread_count() as u32)
        .map(|t| cg.exec_thread(ThreadId(t)))
        .collect();
    let at = |i: usize| applied.compact_of(cg.task_id(CompactId(i as u32)));
    let is_base = |c: CompactId| applied.task_id(c).0 < cg.arena_len();
    let base_succs = |g: &CompiledGraph, c: CompactId| -> Vec<TaskId> {
        let mut s: Vec<TaskId> = g
            .successors(c)
            .iter()
            .map(|&w| g.task_id(w))
            .filter(|w| w.0 < cg.arena_len())
            .collect();
        s.sort_unstable();
        s
    };
    if !schedule.is_chain_threaded() || applied.len() == cg.len() {
        return None;
    }
    for i in 0..cg.len() {
        let c = CompactId(i as u32);
        let a = at(i)?;
        let kept = applied.exec_thread(applied.thread_of(a)) == cg.exec_thread(cg.thread_of(c))
            && applied.duration_ns(a) == cg.duration_ns(c)
            && base_succs(applied, a) == base_succs(cg, c);
        if !kept {
            return None;
        }
    }
    let mut entries = Vec::new();
    for x in (0..applied.len() as u32)
        .map(CompactId)
        .filter(|&c| !is_base(c))
    {
        if base_threads.contains(&applied.exec_thread(applied.thread_of(x))) {
            return None;
        }
        for &w in applied.successors(x) {
            if is_base(w) && !entries.contains(&(w.0 as usize)) {
                entries.push(w.0 as usize);
            }
        }
    }
    // A base task that feeds an insert.
    let feeds = |c: CompactId| is_base(c) && applied.successors(c).iter().any(|&w| !is_base(w));
    // Every base task an entry reaches over base edges, the entry included.
    let mut seen = vec![false; applied.len()];
    let mut stack = entries.clone();
    while let Some(u) = stack.pop() {
        let u = CompactId(u as u32);
        if std::mem::replace(&mut seen[u.0 as usize], true) {
            continue;
        }
        if feeds(u) {
            return None;
        }
        stack.extend(
            applied
                .successors(u)
                .iter()
                .filter(|&&w| is_base(w))
                .map(|w| w.0 as usize),
        );
    }
    Some(entries)
}

/// The path accounting `simulate_warm_with` must report for `patch`,
/// derived from the `applied` graph and its `full` simulation: on the
/// thread-insert path, which answers whenever
/// [`thread_insert_entries`] finds the entries, the inserted tasks are
/// timed and the cutoff is the earliest of their starts and the entries'
/// base starts; on the cone path, every live base task dispatched at or
/// after the cutoff plus every live insert re-dispatches, and that cone,
/// taken at an unbounded budget, alone decides the fallback.
fn assert_stats(
    cg: &CompiledGraph,
    applied: &CompiledGraph,
    full: &CompiledSim,
    schedule: &Schedule,
    patch: &GraphPatch,
    max_cone_fraction: f64,
    stats: &IncrementalStats,
) {
    assert_eq!(stats.total, applied.len(), "live task count");
    if let Some(entries) = thread_insert_entries(cg, applied, schedule) {
        let inserts = applied.len() - cg.len();
        let earliest = (cg.len()..applied.len())
            .map(|c| full.start_ns[c])
            .chain(entries.iter().map(|&e| {
                let id = applied.task_id(CompactId(e as u32));
                schedule.sim().start_ns[cg.compact_of(id).unwrap().0 as usize]
            }))
            .min();
        assert_eq!(
            (stats.entries, stats.redispatched, stats.cutoff_ns),
            (Some(entries.len()), inserts, earliest),
            "the thread-insert path times the inserted tasks"
        );
        return;
    }
    assert_eq!(stats.entries, None, "the thread-insert path does not apply");
    if !stats.is_incremental() {
        assert_eq!(
            stats.redispatched, stats.total,
            "a fallback dispatches every task"
        );
    }
    let cone_path = simulate_warm_with(cg, schedule, patch, &mut SimScratch::new(), 1.0)
        .expect("patched graph must stay a DAG")
        .stats;
    let cutoff = cone_path
        .cutoff_ns
        .expect("an unbounded budget runs the cone");
    let cone = if cutoff == u64::MAX {
        0
    } else {
        let survivors: Vec<usize> = (0..cg.len())
            .filter(|&i| {
                applied
                    .compact_of(cg.task_id(CompactId(i as u32)))
                    .is_some()
            })
            .collect();
        let inserts = applied.len() - survivors.len();
        survivors
            .iter()
            .filter(|&&i| schedule.sim().start_ns[i] >= cutoff)
            .count()
            + inserts
    };
    assert_eq!(cone_path.redispatched, cone, "cone size");
    if cone as f64 > max_cone_fraction * stats.total as f64 {
        assert!(!stats.is_incremental(), "a cone over the budget falls back");
    } else {
        assert!(stats.is_incremental(), "a cone within the budget runs");
        assert_eq!(stats.redispatched, cone);
        assert_eq!(stats.cutoff_ns, Some(cutoff));
    }
}
