//! Compiled (frozen) dependency graphs: the simulation hot-path format.
//!
//! [`DependencyGraph`] is built for *editing*: an arena with tombstones,
//! per-node `Vec`s of typed edges, and `ExecThread` keys looked up through
//! `BTreeMap`s. None of that is what a simulator wants to touch tens of
//! thousands of times per scenario. [`CompiledGraph::compile`] freezes a
//! graph after its transformations:
//!
//! * tombstoned tasks are compacted out — live tasks get dense
//!   [`CompactId`]s in ascending [`TaskId`] order (so id-based tie-breaks
//!   survive compilation unchanged),
//! * `ExecThread`s are interned to dense `u32` [`ThreadId`]s,
//! * successor lists are flattened into one CSR array (dependency kinds
//!   are dropped — Algorithm 1 treats every edge the same),
//! * per-task thread cost (`duration + gap`), duration, priority, and
//!   predecessor counts are precomputed into flat slices.
//!
//! Simulation over this form ([`crate::sim::simulate_compiled_with`])
//! touches only dense arrays, per-thread binary heaps, and one cached
//! best candidate per thread: O((V+E) log V) plus an O(threads) scan per
//! dispatch, with small constants and no `BTreeMap` in the loop.

use crate::graph::{DependencyGraph, TaskId};
use crate::patch::GraphPatch;
use crate::task::ExecThread;
use std::collections::HashMap;

/// Dense index of a live task in a [`CompiledGraph`] (the compaction of
/// [`TaskId`]; ascending `CompactId` order equals ascending `TaskId`
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompactId(pub u32);

/// Interned execution-thread id, dense in `0..thread_count()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

/// What [`CompiledGraph::apply_traced`] did to the base.
#[derive(Debug, Clone)]
pub struct ApplyTrace {
    /// `true` if the patch left a base thread without tasks, so the
    /// compaction dropped it and the applied graph's `ThreadId`s differ
    /// from the base's. It reports the compaction only: warm evaluation
    /// keeps the base's thread ids and never reads it.
    pub vacated_threads: bool,
}

/// A frozen dependency graph in CSR form, ready for simulation.
///
/// Every row is a plain `Vec` the graph owns. Two builders fill them and
/// keep them consistent (per-task rows `len()` long, `succ_off` one
/// longer, per-thread rows `thread_count()` long):
/// [`CompiledGraph::compile`] from a [`DependencyGraph`], and
/// [`CompiledGraph::apply`] from a patch's warm overlay over another
/// compiled graph, which the simulator module compacts.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    /// `CompactId -> TaskId` (ascending).
    pub(crate) task_ids: Vec<TaskId>,
    /// Arena capacity of the source graph (for index-aligned outputs).
    pub(crate) arena_len: usize,
    /// Interned threads, `ThreadId -> ExecThread` (first-appearance order).
    pub(crate) threads: Vec<ExecThread>,
    /// Per-thread task count.
    pub(crate) thread_tasks: Vec<u32>,
    /// Per-task interned thread.
    pub(crate) thread_of: Vec<ThreadId>,
    /// Per-task `duration + gap`: what dispatch advances the thread by.
    pub(crate) cost_ns: Vec<u64>,
    /// Per-task duration (what the makespan sees).
    pub(crate) duration_ns: Vec<u64>,
    /// Per-task scheduling priority (P3's `Schedule` override).
    pub(crate) priority: Vec<i64>,
    /// CSR offsets into `succ`, length `len() + 1`.
    pub(crate) succ_off: Vec<u32>,
    /// Flattened successor lists.
    pub(crate) succ: Vec<CompactId>,
    /// Predecessor counts (the simulator's initial reference counts).
    pub(crate) pred_count: Vec<u32>,
}

impl CompiledGraph {
    /// Freezes `g` into CSR form. O(V + E).
    pub fn compile(g: &DependencyGraph) -> CompiledGraph {
        let cap = g.capacity();
        let mut task_ids = Vec::with_capacity(g.len());
        let mut compact = vec![u32::MAX; cap];
        for (id, _) in g.iter() {
            compact[id.0] = task_ids.len() as u32;
            task_ids.push(id);
        }
        let n = task_ids.len();

        let mut threads: Vec<ExecThread> = Vec::new();
        let mut thread_tasks: Vec<u32> = Vec::new();
        let mut intern: HashMap<ExecThread, ThreadId> = HashMap::new();
        let mut thread_of = Vec::with_capacity(n);
        let mut cost_ns = Vec::with_capacity(n);
        let mut duration_ns = Vec::with_capacity(n);
        let mut priority = Vec::with_capacity(n);
        let mut pred_count = Vec::with_capacity(n);
        let mut edge_total = 0usize;
        for &id in &task_ids {
            let t = g.task(id);
            let tid = *intern.entry(t.thread).or_insert_with(|| {
                threads.push(t.thread);
                thread_tasks.push(0);
                ThreadId(threads.len() as u32 - 1)
            });
            thread_tasks[tid.0 as usize] += 1;
            thread_of.push(tid);
            cost_ns.push(t.cost_ns());
            duration_ns.push(t.duration_ns);
            priority.push(t.priority);
            pred_count.push(g.predecessors(id).len() as u32);
            edge_total += g.successors(id).len();
        }

        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ = Vec::with_capacity(edge_total);
        succ_off.push(0u32);
        for &id in &task_ids {
            for &(s, _) in g.successors(id) {
                succ.push(CompactId(compact[s.0]));
            }
            succ_off.push(succ.len() as u32);
        }

        CompiledGraph {
            task_ids,
            arena_len: cap,
            threads,
            thread_tasks,
            thread_of,
            cost_ns,
            duration_ns,
            priority,
            succ_off,
            succ,
            pred_count,
        }
    }

    /// Number of (live) tasks.
    pub fn len(&self) -> usize {
        self.task_ids.len()
    }

    /// Returns `true` if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.task_ids.is_empty()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succ.len()
    }

    /// Number of distinct execution threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The original arena id of a compacted task.
    #[inline]
    pub fn task_id(&self, c: CompactId) -> TaskId {
        self.task_ids[c.0 as usize]
    }

    /// Arena capacity of the source graph (for `SimResult` expansion).
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// The interned thread a task runs on.
    #[inline]
    pub fn thread_of(&self, c: CompactId) -> ThreadId {
        self.thread_of[c.0 as usize]
    }

    /// The execution thread behind an interned id.
    #[inline]
    pub fn exec_thread(&self, t: ThreadId) -> ExecThread {
        self.threads[t.0 as usize]
    }

    /// `duration + gap` of a task.
    #[inline]
    pub fn cost_ns(&self, c: CompactId) -> u64 {
        self.cost_ns[c.0 as usize]
    }

    /// Duration of a task.
    #[inline]
    pub fn duration_ns(&self, c: CompactId) -> u64 {
        self.duration_ns[c.0 as usize]
    }

    /// Scheduling priority of a task.
    #[inline]
    pub fn priority(&self, c: CompactId) -> i64 {
        self.priority[c.0 as usize]
    }

    /// Returns `true` if the task runs on a communication channel.
    #[inline]
    pub fn on_comm_thread(&self, c: CompactId) -> bool {
        self.exec_thread(self.thread_of(c)).is_comm()
    }

    /// Successors of a task.
    #[inline]
    pub fn successors(&self, c: CompactId) -> &[CompactId] {
        let i = c.0 as usize;
        &self.succ[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Predecessor count of a task.
    #[inline]
    pub fn pred_count(&self, c: CompactId) -> u32 {
        self.pred_count[c.0 as usize]
    }

    /// The compact id of a live task, if present: O(1) when the source
    /// arena had no tombstones (compaction is then the identity, as for
    /// every profiled base), a binary search otherwise.
    #[inline]
    pub fn compact_of(&self, id: TaskId) -> Option<CompactId> {
        if self.task_ids.len() == self.arena_len {
            return (id.0 < self.arena_len).then_some(CompactId(id.0 as u32));
        }
        self.task_ids
            .binary_search(&id)
            .ok()
            .map(|i| CompactId(i as u32))
    }

    /// Applies a [`GraphPatch`], producing the compiled form of the
    /// patched graph without touching the base.
    ///
    /// Builds the patch's overlay over `self`, the one reader of a
    /// patch's delta that warm evaluation also simulates through, and
    /// compacts it in flat O(V + E) passes: no `Task` structs, no
    /// `BTreeMap`s, no arena walk. The warm evaluation path never
    /// applies; this is the graph its tests compare against and how the
    /// P3 plans are built.
    ///
    /// The result is pinned (proptests) to [`CompiledGraph::compile`] of
    /// [`GraphPatch::apply_reference`]: the same live tasks, threads,
    /// costs, durations, priorities, predecessor counts and successor
    /// sets, so the same task starts, waits, makespan, and per-thread
    /// ends. Compact ids stay in ascending `TaskId` order, so id-based
    /// tie-breaks survive; the interned thread *order* may differ from a
    /// fresh compile, but the thread set (and thus every simulation
    /// output) does not.
    ///
    /// # Panics
    ///
    /// Panics if the patch was recorded against a different base arena.
    pub fn apply(&self, patch: &GraphPatch) -> CompiledGraph {
        self.apply_traced(patch).0
    }

    /// [`CompiledGraph::apply`] plus an [`ApplyTrace`] saying whether the
    /// patch vacated a base thread (the compaction then drops it; base
    /// thread ids are *stable* otherwise).
    ///
    /// # Panics
    ///
    /// Panics if the patch was recorded against a different base arena.
    pub fn apply_traced(&self, patch: &GraphPatch) -> (CompiledGraph, ApplyTrace) {
        assert_eq!(
            self.arena_len,
            patch.base_capacity(),
            "patch recorded against a different base arena"
        );
        let (applied, vacated_threads) = crate::sim::apply_overlay(self, patch);
        (applied, ApplyTrace { vacated_threads })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DepKind;
    use crate::task::{Task, TaskKind};
    use daydream_trace::{CpuThreadId, DeviceId, StreamId};

    fn cpu(dur: u64, gap: u64) -> Task {
        let mut t = Task::new("c", TaskKind::CpuWork, ExecThread::Cpu(CpuThreadId(0)), dur);
        t.gap_ns = gap;
        t
    }

    fn gpu(dur: u64) -> Task {
        Task::new(
            "g",
            TaskKind::GpuKernel,
            ExecThread::Gpu(DeviceId(0), StreamId(0)),
            dur,
        )
    }

    #[test]
    fn compaction_skips_tombstones_and_preserves_order() {
        let mut g = DependencyGraph::new();
        let a = g.add_task(cpu(10, 1));
        let b = g.add_task(gpu(50));
        let c = g.add_task(cpu(5, 0));
        g.add_dep(a, b, DepKind::Correlation);
        g.add_dep(b, c, DepKind::Sync);
        g.remove_task(b);
        let cg = CompiledGraph::compile(&g);
        assert_eq!(cg.len(), 2);
        assert_eq!(cg.arena_len(), 3);
        assert_eq!(cg.task_id(CompactId(0)), a);
        assert_eq!(cg.task_id(CompactId(1)), c);
        // Bridged a -> c edge survives compaction.
        assert_eq!(cg.successors(CompactId(0)), &[CompactId(1)]);
        assert_eq!(cg.pred_count(CompactId(1)), 1);
        assert_eq!(cg.edge_count(), 1);
    }

    #[test]
    fn threads_interned_densely() {
        let mut g = DependencyGraph::new();
        g.add_task(cpu(1, 0));
        g.add_task(gpu(1));
        g.add_task(cpu(1, 0));
        let mut comm = Task::new(
            "ar",
            TaskKind::CpuWork,
            ExecThread::Comm(crate::task::CommChannel::Collective),
            3,
        );
        comm.priority = -7;
        let m = g.add_task(comm);
        let cg = CompiledGraph::compile(&g);
        assert_eq!(cg.thread_count(), 3);
        assert_eq!(cg.thread_of(CompactId(0)), cg.thread_of(CompactId(2)));
        assert_ne!(cg.thread_of(CompactId(0)), cg.thread_of(CompactId(1)));
        assert_eq!(
            cg.exec_thread(cg.thread_of(CompactId(0))),
            ExecThread::Cpu(CpuThreadId(0))
        );
        let mc = CompactId(m.0 as u32);
        assert!(cg.on_comm_thread(mc));
        assert!(!cg.on_comm_thread(CompactId(1)));
        assert_eq!(cg.priority(mc), -7);
    }

    #[test]
    fn costs_fold_gaps() {
        let mut g = DependencyGraph::new();
        let a = g.add_task(cpu(10, 5));
        let cg = CompiledGraph::compile(&g);
        let c = CompactId(a.0 as u32);
        assert_eq!(cg.cost_ns(c), 15);
        assert_eq!(cg.duration_ns(c), 10);
    }

    #[test]
    fn empty_graph_compiles() {
        let cg = CompiledGraph::compile(&DependencyGraph::new());
        assert!(cg.is_empty());
        assert_eq!(cg.thread_count(), 0);
        assert_eq!(cg.edge_count(), 0);
    }
}
