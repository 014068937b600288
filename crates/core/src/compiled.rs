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
use std::sync::Arc;

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
    /// `true` if the patch left a base thread without tasks: base
    /// `ThreadId`s are then re-compacted and no longer stable. Warm
    /// evaluation falls back to a full run for exactly these patches
    /// ([`crate::sim::FallbackReason::VacatedThreads`]).
    pub vacated_threads: bool,
}

/// A frozen dependency graph in CSR form, ready for simulation.
///
/// Every array is behind an [`Arc`], so [`CompiledGraph::apply`] can
/// produce a patched graph that *shares* untouched regions with its base
/// (a retime-only patch shares the whole topology; clones are O(1)).
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    /// `CompactId -> TaskId` (ascending).
    task_ids: Arc<Vec<TaskId>>,
    /// Arena capacity of the source graph (for index-aligned outputs).
    arena_len: usize,
    /// Interned threads, `ThreadId -> ExecThread` (first-appearance order).
    threads: Arc<Vec<ExecThread>>,
    /// Per-task interned thread.
    thread_of: Arc<Vec<ThreadId>>,
    /// Per-task `duration + gap`: what dispatch advances the thread by.
    cost_ns: Arc<Vec<u64>>,
    /// Per-task duration (what the makespan sees).
    duration_ns: Arc<Vec<u64>>,
    /// Per-task scheduling priority (P3's `Schedule` override).
    priority: Arc<Vec<i64>>,
    /// Per-thread "is a communication channel" flag.
    comm_thread: Arc<Vec<bool>>,
    /// CSR offsets into `succ`, length `len() + 1`.
    succ_off: Arc<Vec<u32>>,
    /// Flattened successor lists.
    succ: Arc<Vec<CompactId>>,
    /// Predecessor counts (the simulator's initial reference counts).
    pred_count: Arc<Vec<u32>>,
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
                ThreadId(threads.len() as u32 - 1)
            });
            thread_of.push(tid);
            cost_ns.push(t.cost_ns());
            duration_ns.push(t.duration_ns);
            priority.push(t.priority);
            pred_count.push(g.predecessors(id).len() as u32);
            edge_total += g.successors(id).len();
        }
        let comm_thread = threads.iter().map(ExecThread::is_comm).collect();

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
            task_ids: Arc::new(task_ids),
            arena_len: cap,
            threads: Arc::new(threads),
            thread_of: Arc::new(thread_of),
            cost_ns: Arc::new(cost_ns),
            duration_ns: Arc::new(duration_ns),
            priority: Arc::new(priority),
            comm_thread: Arc::new(comm_thread),
            succ_off: Arc::new(succ_off),
            succ: Arc::new(succ),
            pred_count: Arc::new(pred_count),
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

    /// Every task's `duration + gap`, in compact order.
    pub(crate) fn cost_row(&self) -> &[u64] {
        &self.cost_ns
    }

    /// Every task's duration, in compact order.
    pub(crate) fn duration_row(&self) -> &[u64] {
        &self.duration_ns
    }

    /// Scheduling priority of a task.
    #[inline]
    pub fn priority(&self, c: CompactId) -> i64 {
        self.priority[c.0 as usize]
    }

    /// Returns `true` if the task runs on a communication channel.
    #[inline]
    pub fn on_comm_thread(&self, c: CompactId) -> bool {
        self.comm_thread[self.thread_of[c.0 as usize].0 as usize]
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

    /// A copy of all predecessor counts (the simulator's working state).
    pub fn pred_counts(&self) -> Vec<u32> {
        (*self.pred_count).clone()
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

    /// Applies a [`GraphPatch`] by incremental recompilation, producing
    /// the compiled form of the patched graph without touching the base.
    ///
    /// Rebuilds the CSR and per-task state in flat O(V + E) array passes
    /// — no `Task` structs, no `BTreeMap`s, no arena walk — copying every
    /// untouched base span. The warm evaluation path never applies; this
    /// is the oracle its tests compare against and how the P3 plans are
    /// built.
    ///
    /// Simulation over the result is pinned (proptests) to be identical to
    /// [`GraphPatch::apply_reference`] + [`CompiledGraph::compile`]: same
    /// task starts, waits, makespan, and per-thread ends. Compact ids stay
    /// in ascending `TaskId` order, so id-based tie-breaks survive; the
    /// interned thread *order* may differ from a fresh compile, but the
    /// thread set (and thus every simulation output) does not.
    ///
    /// # Panics
    ///
    /// Panics if the patch was recorded against a different base arena.
    pub fn apply(&self, patch: &GraphPatch) -> CompiledGraph {
        self.apply_traced(patch).0
    }

    /// [`CompiledGraph::apply`] plus an [`ApplyTrace`] saying whether the
    /// patch vacated a base thread (its `ThreadId`s then compact; base
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
        let d = patch.delta();
        let base_cap = self.arena_len;
        let n_old = self.len();
        let arena_new = base_cap + d.new_ids().len();
        let old_of = self.compact_inverse();

        // Final live task list, ascending (new ids all sort after base).
        let mut live: Vec<TaskId> = Vec::with_capacity(n_old + d.new_ids().len());
        live.extend(
            self.task_ids
                .iter()
                .copied()
                .filter(|id| !d.is_removed(*id)),
        );
        live.extend(d.new_ids().iter().copied().filter(|id| !d.is_removed(*id)));
        let n = live.len();

        // TaskId -> new compact id, arena-indexed.
        let mut new_compact = vec![u32::MAX; arena_new];
        for (i, &tid) in live.iter().enumerate() {
            new_compact[tid.0] = i as u32;
        }
        // Old compact -> new compact (for remapping untouched CSR spans).
        let remap_old: Vec<u32> = self.task_ids.iter().map(|id| new_compact[id.0]).collect();

        // Per-task state. Untouched base tasks copy straight from the base
        // arrays (no hashing, no Task access); only overlay tasks intern.
        let mut threads_new: Vec<ExecThread> = (*self.threads).clone();
        let mut intern: HashMap<ExecThread, u32> = threads_new
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        let mut thread_idx: Vec<u32> = Vec::with_capacity(n);
        let mut cost_ns = Vec::with_capacity(n);
        let mut duration_ns = Vec::with_capacity(n);
        let mut priority = Vec::with_capacity(n);
        let mut pred_count = Vec::with_capacity(n);
        for &tid in &live {
            match d.scalars(tid) {
                // New tasks carry every field in their slot; modified base
                // tasks merge sparse overrides onto the base arrays.
                Some(s) if tid.0 >= base_cap => {
                    let thread = s.thread.expect("new task slot is complete");
                    let ti = *intern.entry(thread).or_insert_with(|| {
                        threads_new.push(thread);
                        threads_new.len() as u32 - 1
                    });
                    thread_idx.push(ti);
                    let dur = s.duration_ns.expect("new task slot is complete");
                    let gap = s.gap_ns.expect("new task slot is complete");
                    cost_ns.push(dur + gap);
                    duration_ns.push(dur);
                    priority.push(s.priority.expect("new task slot is complete"));
                }
                Some(s) => {
                    let oc = old_of[tid.0] as usize;
                    let ti = match s.thread {
                        Some(thread) => *intern.entry(thread).or_insert_with(|| {
                            threads_new.push(thread);
                            threads_new.len() as u32 - 1
                        }),
                        None => self.thread_of[oc].0,
                    };
                    thread_idx.push(ti);
                    let dur = s.duration_ns.unwrap_or(self.duration_ns[oc]);
                    let gap = s.gap_ns.unwrap_or(self.cost_ns[oc] - self.duration_ns[oc]);
                    cost_ns.push(dur + gap);
                    duration_ns.push(dur);
                    priority.push(s.priority.unwrap_or(self.priority[oc]));
                }
                None => {
                    let oc = old_of[tid.0] as usize;
                    thread_idx.push(self.thread_of[oc].0);
                    cost_ns.push(self.cost_ns[oc]);
                    duration_ns.push(self.duration_ns[oc]);
                    priority.push(self.priority[oc]);
                }
            }
            pred_count.push(match d.pred_over(tid) {
                Some(list) => list.len() as u32,
                // A new task with no overlay entry never gained an edge.
                None if tid.0 >= base_cap => 0,
                None => self.pred_count[old_of[tid.0] as usize],
            });
        }

        // Drop threads the patch vacated (a recompile would never intern
        // them, and `SimResult::thread_end` must agree with the oracle).
        let mut live_per_thread = vec![0u32; threads_new.len()];
        for &t in &thread_idx {
            live_per_thread[t as usize] += 1;
        }
        let vacated = live_per_thread.contains(&0);
        if vacated {
            let mut remap = vec![u32::MAX; threads_new.len()];
            let mut compacted = Vec::with_capacity(threads_new.len());
            for (i, &t) in threads_new.iter().enumerate() {
                if live_per_thread[i] > 0 {
                    remap[i] = compacted.len() as u32;
                    compacted.push(t);
                }
            }
            for t in thread_idx.iter_mut() {
                *t = remap[*t as usize];
            }
            threads_new = compacted;
        }
        let comm_thread: Vec<bool> = threads_new.iter().map(ExecThread::is_comm).collect();
        let thread_of: Vec<ThreadId> = thread_idx.into_iter().map(ThreadId).collect();

        // Successor CSR: untouched rows are remapped base spans; dirty
        // rows come from the overlay (they never reference removed tasks —
        // removal detaches both sides, dirtying every neighbour).
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ: Vec<CompactId> = Vec::with_capacity(self.succ.len());
        succ_off.push(0u32);
        for &tid in &live {
            match d.succ_over(tid) {
                Some(list) => {
                    for &(to, _) in list {
                        let c = new_compact[to.0];
                        debug_assert_ne!(c, u32::MAX, "overlay edge to a removed task");
                        succ.push(CompactId(c));
                    }
                }
                // A new task with no overlay entry has no out-edges.
                None if tid.0 >= base_cap => {}
                None => {
                    let oc = CompactId(old_of[tid.0]);
                    for &s in self.successors(oc) {
                        let c = remap_old[s.0 as usize];
                        debug_assert_ne!(c, u32::MAX, "stale base edge to a removed task");
                        succ.push(CompactId(c));
                    }
                }
            }
            succ_off.push(succ.len() as u32);
        }

        let applied = CompiledGraph {
            task_ids: Arc::new(live),
            arena_len: arena_new,
            threads: Arc::new(threads_new),
            thread_of: Arc::new(thread_of),
            cost_ns: Arc::new(cost_ns),
            duration_ns: Arc::new(duration_ns),
            priority: Arc::new(priority),
            comm_thread: Arc::new(comm_thread),
            succ_off: Arc::new(succ_off),
            succ: Arc::new(succ),
            pred_count: Arc::new(pred_count),
        };
        (
            applied,
            ApplyTrace {
                vacated_threads: vacated,
            },
        )
    }

    /// Arena-indexed `TaskId -> old CompactId` inverse (u32::MAX for
    /// tombstones). One flat O(arena) pass that replaces per-task binary
    /// searches in the apply loops.
    fn compact_inverse(&self) -> Vec<u32> {
        let mut inv = vec![u32::MAX; self.arena_len];
        for (i, &tid) in self.task_ids.iter().enumerate() {
            inv[tid.0] = i as u32;
        }
        inv
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
