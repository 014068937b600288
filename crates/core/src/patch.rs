//! Delta-based what-if transforms: patches over an immutable base graph.
//!
//! Daydream's exploration loop (paper §4.4, §5) applies a transformation
//! and re-simulates — thousands of times per sweep. Before this module,
//! every scenario paid for a full clone of the `Vec`-of-`Vec`
//! [`DependencyGraph`] plus a fresh [`crate::CompiledGraph::compile`].
//! A [`GraphPatch`] makes the transformation itself the unit of work:
//!
//! * planners run against a [`PatchGraph`] — a copy-on-write overlay of a
//!   shared immutable base graph that records every mutation as a typed
//!   [`PatchOp`] while staying read-consistent (reads see the patched
//!   state, untouched regions are borrowed from the base);
//! * [`PatchGraph::finish`] yields the [`GraphPatch`]: the ordered op log
//!   (replayable, fingerprintable, explainable) plus the net final-state
//!   delta the incremental compiler consumes;
//! * [`crate::CompiledGraph::apply`] turns base + patch into a patched
//!   compiled graph by reusing untouched CSR regions — no base clone, no
//!   full recompile;
//! * [`GraphPatch::apply_reference`] is the oracle: clone the base, replay
//!   the op log through [`DependencyGraph`]'s own mutators, recompile.
//!   Equivalence proptests pin `apply == apply_reference` for every
//!   what-if transform in the catalog.
//!
//! The overlay stores its state in dense, arena-indexed arrays (boxed
//! slots, a touched-id list, a removal bitmap) rather than hash maps:
//! catalog transforms like AMP retime most of the graph, and per-op hash
//! lookups would make emit as expensive as the clone it replaces.

use crate::graph::{DepKind, DependencyGraph, GraphEdit, GraphView, TaskId};
use crate::task::{ExecThread, Task, TaskKind};
use std::fmt;
use std::hash::{Hash, Hasher};

/// One recorded mutation of a base graph.
///
/// The op vocabulary is exactly the mutation surface of
/// [`crate::graph::GraphEdit`]: every §4.4 primitive and every what-if
/// transform decomposes into these.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum PatchOp {
    /// Append a new task. Ids are assigned densely after the base arena:
    /// the `k`-th `AddTask` of a patch creates `TaskId(base_capacity + k)`.
    AddTask {
        /// The task to add (complete initial state). Boxed so the hot
        /// all-integer ops stay a cache-line-friendly 24 bytes.
        task: Box<Task>,
    },
    /// Remove a task, bridging its thread sequences (Remove primitive).
    RemoveTask {
        /// The doomed task.
        id: TaskId,
    },
    /// Add a dependency edge.
    AddDep {
        /// Edge source.
        from: TaskId,
        /// Edge target.
        to: TaskId,
        /// Dependency kind.
        kind: DepKind,
    },
    /// Remove a dependency edge.
    RemoveDep {
        /// Edge source.
        from: TaskId,
        /// Edge target.
        to: TaskId,
    },
    /// Set a task's duration (shrink/scale primitives).
    SetDuration {
        /// Target task.
        id: TaskId,
        /// New duration, ns.
        ns: u64,
    },
    /// Rename a task.
    SetName {
        /// Target task.
        id: TaskId,
        /// New name.
        name: String,
    },
    /// Change what a task does (e.g. compressed payload bytes).
    SetKind {
        /// Target task.
        id: TaskId,
        /// New kind.
        kind: TaskKind,
    },
    /// Move a task to another execution thread.
    SetThread {
        /// Target task.
        id: TaskId,
        /// New thread.
        thread: ExecThread,
    },
    /// Override a task's scheduling priority (Schedule primitive).
    SetPriority {
        /// Target task.
        id: TaskId,
        /// New priority.
        priority: i64,
    },
}

/// Net final-state delta of a patch against its base — what
/// [`crate::CompiledGraph::apply`] consumes. Derived incrementally while
/// recording; the op log stays the authoritative definition (the overlay
/// mirrors [`DependencyGraph`]'s mutation semantics op by op).
///
/// All per-task storage is dense and arena-indexed; `None` slots mean
/// "untouched, read the base". Field updates are stored as sparse scalar
/// overrides — materializing a full `Task` per touched node (a `String`
/// clone each) would make dense retimes as expensive as the graph clone
/// this module exists to avoid; the merged `Task` view is built lazily,
/// only when a planner actually re-reads a modified task.
#[derive(Debug, Clone, Default)]
pub(crate) struct NetDelta {
    /// Per-task override bitmap (0 = untouched); the flat field arrays
    /// below are valid only where the matching bit is set. Flat storage
    /// keeps a field write at "index + flag + store" — no allocation.
    flags: Vec<u8>,
    dur: Vec<u64>,
    gap: Vec<u64>,
    prio: Vec<i64>,
    thread: Vec<ExecThread>,
    /// Rare structured overrides (blueconnect/batch-size rewrites).
    kind: std::collections::HashMap<usize, TaskKind>,
    name: std::collections::HashMap<usize, String>,
    /// Lazily merged full-`Task` views: pre-filled for inserted tasks,
    /// built on first read for modified base tasks, kept in sync by
    /// every later setter. `OnceLock` (not `OnceCell`) so finished
    /// patches are `Sync` — the sweep engine shares cached DDP patches
    /// across worker threads and layers refinements on top.
    merged: Vec<std::sync::OnceLock<Box<Task>>>,
    /// Ids with a nonzero flag byte, in first-touch order.
    touched: Vec<TaskId>,
    /// Removal bitmap (base or new tasks removed by this patch).
    removed: Vec<bool>,
    /// Ids with a set bit in `removed`, in removal order.
    removed_list: Vec<TaskId>,
    /// Final successor lists of every task whose out-edges changed.
    succ: Vec<Option<Box<EdgeList>>>,
    /// Final predecessor lists of every task whose in-edges changed.
    pred: Vec<Option<Box<EdgeList>>>,
    /// Ids with a `succ` or `pred` list, each once, in first-write order.
    edge_ids: Vec<TaskId>,
    /// `true` once any adjacency list has been touched.
    edges_touched: bool,
    /// Ids of added tasks, ascending (includes ones removed again).
    new_ids: Vec<TaskId>,
}

/// Field-override flag bits (`NetDelta::flags`).
const F_DUR: u8 = 1 << 0;
const F_GAP: u8 = 1 << 1;
const F_PRIO: u8 = 1 << 2;
const F_THREAD: u8 = 1 << 3;
const F_KIND: u8 = 1 << 4;
const F_NAME: u8 = 1 << 5;

/// Filler for unset dense `thread` slots (never read: guarded by
/// `F_THREAD`).
const NO_THREAD: ExecThread = ExecThread::Cpu(daydream_trace::CpuThreadId(u32::MAX));

/// A task's typed adjacency list.
type EdgeList = Vec<(TaskId, DepKind)>;

/// Copy-out of a slot's simulation-relevant overrides (what
/// [`crate::CompiledGraph::apply`] merges onto its base arrays).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScalarOver {
    /// Overridden duration, ns.
    pub(crate) duration_ns: Option<u64>,
    /// Overridden trailing gap, ns.
    pub(crate) gap_ns: Option<u64>,
    /// Overridden scheduling priority.
    pub(crate) priority: Option<i64>,
    /// Overridden execution thread.
    pub(crate) thread: Option<ExecThread>,
}

fn dense_get<T>(v: &[Option<Box<T>>], i: usize) -> Option<&T> {
    v.get(i).and_then(|o| o.as_deref())
}

impl NetDelta {
    fn flag(&self, id: TaskId) -> u8 {
        self.flags.get(id.0).copied().unwrap_or(0)
    }

    /// Grows the flag array to cover at least `len` slots; the per-field
    /// arrays grow lazily on first use of their field, so a pure retime
    /// patch allocates exactly flags + durations.
    fn ensure(&mut self, len: usize) {
        if self.flags.len() < len {
            self.flags.resize(len, 0);
            self.merged.resize_with(len, std::sync::OnceLock::new);
        }
    }

    fn ensure_dur(&mut self, len: usize) {
        if self.dur.len() < len {
            self.dur.resize(len, 0);
        }
    }

    fn ensure_gap(&mut self, len: usize) {
        if self.gap.len() < len {
            self.gap.resize(len, 0);
        }
    }

    fn ensure_prio(&mut self, len: usize) {
        if self.prio.len() < len {
            self.prio.resize(len, 0);
        }
    }

    fn ensure_thread(&mut self, len: usize) {
        if self.thread.len() < len {
            self.thread.resize(len, NO_THREAD);
        }
    }

    /// Simulation-relevant field overrides of a touched task.
    pub(crate) fn scalars(&self, id: TaskId) -> Option<ScalarOver> {
        let f = self.flag(id);
        if f == 0 {
            return None;
        }
        let i = id.0;
        Some(ScalarOver {
            duration_ns: (f & F_DUR != 0).then(|| self.dur[i]),
            gap_ns: (f & F_GAP != 0).then(|| self.gap[i]),
            priority: (f & F_PRIO != 0).then(|| self.prio[i]),
            thread: (f & F_THREAD != 0).then(|| self.thread[i]),
        })
    }

    /// Pending merged-view cell for `id`, if the cache array covers it.
    fn merged_mut(&mut self, i: usize) -> Option<&mut Task> {
        self.merged
            .get_mut(i)
            .and_then(|c| c.get_mut())
            .map(|b| &mut **b)
    }

    /// The full task state of an *inserted* task (always materialized).
    pub(crate) fn new_task(&self, id: TaskId) -> &Task {
        self.merged
            .get(id.0)
            .and_then(|c| c.get())
            .expect("inserted tasks are fully materialized")
    }

    pub(crate) fn succ_over(&self, id: TaskId) -> Option<&EdgeList> {
        dense_get(&self.succ, id.0)
    }

    pub(crate) fn pred_over(&self, id: TaskId) -> Option<&EdgeList> {
        dense_get(&self.pred, id.0)
    }

    pub(crate) fn is_removed(&self, id: TaskId) -> bool {
        self.removed.get(id.0).copied().unwrap_or(false)
    }

    /// Modified-or-added task ids in first-touch order.
    pub(crate) fn touched(&self) -> &[TaskId] {
        &self.touched
    }

    pub(crate) fn new_ids(&self) -> &[TaskId] {
        &self.new_ids
    }

    /// `true` when the patch changes topology (tasks in/out, edges, or
    /// anything that invalidates the base CSR).
    pub(crate) fn is_structural(&self) -> bool {
        !self.removed_list.is_empty() || !self.new_ids.is_empty() || self.edges_touched
    }

    /// Ids the patch removed, in removal order. O(removed).
    pub(crate) fn removed_ids(&self) -> &[TaskId] {
        &self.removed_list
    }

    /// Ids with an overridden adjacency list (successors, predecessors,
    /// or both), each once, in first-write order. O(|patch|).
    pub(crate) fn edge_ids(&self) -> &[TaskId] {
        &self.edge_ids
    }

    /// Ids whose final predecessor list the patch overrides, in
    /// first-write order. (Every edge add/remove dirties the `to` side's
    /// list, and task removal dirties every neighbour — so this is
    /// exactly the set of tasks whose dependency-readiness the patch can
    /// move.)
    pub(crate) fn pred_overlay_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.edge_ids
            .iter()
            .copied()
            .filter(|&id| self.pred_over(id).is_some())
    }

    /// Records `id` in `edge_ids` when it has no adjacency list yet.
    fn note_edge_id(&mut self, id: TaskId) {
        if self.succ_over(id).is_none() && self.pred_over(id).is_none() {
            self.edge_ids.push(id);
        }
    }
}

/// A typed, replayable delta over an immutable base [`DependencyGraph`].
#[derive(Debug, Clone, Default)]
pub struct GraphPatch {
    base_capacity: usize,
    ops: Vec<PatchOp>,
    delta: NetDelta,
}

/// Op-type counts of a patch, for `daydream sweep --explain` and logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatchSummary {
    /// Arena capacity of the base graph the patch applies to.
    pub base_capacity: usize,
    /// Tasks inserted.
    pub tasks_added: usize,
    /// Tasks removed (with thread-sequence bridging).
    pub tasks_removed: usize,
    /// Explicit dependency edges added (bridging edges not counted —
    /// they are part of `RemoveTask`).
    pub deps_added: usize,
    /// Explicit dependency edges removed.
    pub deps_removed: usize,
    /// Distinct tasks whose duration changed.
    pub tasks_retimed: usize,
    /// Distinct tasks renamed.
    pub tasks_renamed: usize,
    /// Distinct tasks whose kind changed.
    pub tasks_rekinded: usize,
    /// Distinct tasks moved to another thread.
    pub tasks_rethreaded: usize,
    /// Distinct tasks whose scheduling priority changed.
    pub tasks_reprioritized: usize,
}

impl PatchSummary {
    /// Total number of distinct changes the summary covers.
    pub fn op_count(&self) -> usize {
        self.tasks_added
            + self.tasks_removed
            + self.deps_added
            + self.deps_removed
            + self.tasks_retimed
            + self.tasks_renamed
            + self.tasks_rekinded
            + self.tasks_rethreaded
            + self.tasks_reprioritized
    }
}

impl fmt::Display for PatchSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "base arena:          {} tasks", self.base_capacity)?;
        writeln!(f, "tasks inserted:      {}", self.tasks_added)?;
        writeln!(f, "tasks removed:       {}", self.tasks_removed)?;
        writeln!(f, "tasks retimed:       {}", self.tasks_retimed)?;
        writeln!(f, "tasks renamed:       {}", self.tasks_renamed)?;
        writeln!(f, "tasks rekinded:      {}", self.tasks_rekinded)?;
        writeln!(f, "tasks rethreaded:    {}", self.tasks_rethreaded)?;
        writeln!(f, "tasks reprioritized: {}", self.tasks_reprioritized)?;
        writeln!(f, "deps added:          {}", self.deps_added)?;
        write!(f, "deps removed:        {}", self.deps_removed)
    }
}

/// Incremental stable 64-bit hash: FNV-1a over byte slices, with a
/// word-at-a-time multiply-xorshift round for integer writes (hashing a
/// dense retime patch byte-wise would cost more than applying it). As a
/// [`Hasher`] it takes the derived `Hash` of every op field by field.
/// Stable across processes by construction — no `DefaultHasher`
/// randomness.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let mut x = self.0 ^ v;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        self.0 = x;
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

impl GraphPatch {
    /// Arena capacity of the base graph this patch was recorded against.
    pub fn base_capacity(&self) -> usize {
        self.base_capacity
    }

    /// The ordered op log.
    pub fn ops(&self) -> &[PatchOp] {
        &self.ops
    }

    /// `true` when the patch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub(crate) fn delta(&self) -> &NetDelta {
        &self.delta
    }

    /// Stable 64-bit content hash of the op log (plus the base arena
    /// size), usable as a per-base evaluation cache key: two scenarios
    /// that emit identical patches over the same base predict identically.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        self.base_capacity.hash(&mut h);
        self.ops.hash(&mut h);
        h.finish()
    }

    /// Op-type counts (distinct task ids for the field-update families).
    pub fn summary(&self) -> PatchSummary {
        let mut s = PatchSummary {
            base_capacity: self.base_capacity,
            ..PatchSummary::default()
        };
        let mut retimed = std::collections::HashSet::new();
        let mut renamed = std::collections::HashSet::new();
        let mut rekinded = std::collections::HashSet::new();
        let mut rethreaded = std::collections::HashSet::new();
        let mut reprioritized = std::collections::HashSet::new();
        for op in &self.ops {
            match op {
                PatchOp::AddTask { .. } => s.tasks_added += 1,
                PatchOp::RemoveTask { .. } => s.tasks_removed += 1,
                PatchOp::AddDep { .. } => s.deps_added += 1,
                PatchOp::RemoveDep { .. } => s.deps_removed += 1,
                PatchOp::SetDuration { id, .. } => {
                    retimed.insert(*id);
                }
                PatchOp::SetName { id, .. } => {
                    renamed.insert(*id);
                }
                PatchOp::SetKind { id, .. } => {
                    rekinded.insert(*id);
                }
                PatchOp::SetThread { id, .. } => {
                    rethreaded.insert(*id);
                }
                PatchOp::SetPriority { id, .. } => {
                    reprioritized.insert(*id);
                }
            }
        }
        s.tasks_retimed = retimed.len();
        s.tasks_renamed = renamed.len();
        s.tasks_rekinded = rekinded.len();
        s.tasks_rethreaded = rethreaded.len();
        s.tasks_reprioritized = reprioritized.len();
        s
    }

    /// Distinct *base* tasks whose duration the patch changes, ascending.
    /// (Memory-objective derivation maps these to layers via the base
    /// graph; inserted tasks carry their own state.)
    pub fn retimed_base_ids(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self
            .ops
            .iter()
            .filter_map(|op| match op {
                PatchOp::SetDuration { id, .. } if id.0 < self.base_capacity => Some(*id),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Final state of the tasks this patch inserts (and keeps), in
    /// insertion order.
    pub fn inserted_tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.delta
            .new_ids
            .iter()
            .filter(|id| !self.delta.is_removed(**id))
            .map(|id| (*id, self.delta.new_task(*id)))
    }

    /// Replays the op log onto `g` through [`DependencyGraph`]'s own
    /// mutators — the reference semantics of the patch.
    ///
    /// # Panics
    ///
    /// Panics if `g`'s arena capacity differs from the base the patch was
    /// recorded against (task-id assignment would diverge).
    pub fn replay_on(&self, g: &mut DependencyGraph) {
        assert_eq!(
            g.capacity(),
            self.base_capacity,
            "patch recorded against a different base arena"
        );
        replay_ops(&self.ops, g);
    }

    /// The mutate-then-recompile oracle: clones the base, replays the op
    /// log, and returns the mutated graph (compile it for the compiled
    /// oracle). [`crate::CompiledGraph::apply`] must be simulation-
    /// equivalent to this path — the patch-equivalence proptests pin it.
    pub fn apply_reference(&self, base: &DependencyGraph) -> DependencyGraph {
        let mut g = base.clone();
        self.replay_on(&mut g);
        g
    }

    /// Composes this patch with a `refinement` recorded *on top of it*
    /// (i.e. against `self.apply_reference(base)`), yielding one patch
    /// over `base` whose effect equals applying the two sequentially.
    ///
    /// This is how the sweep engine layers BlueConnect/DGC refinements
    /// over a cached DDP patch without re-planning the DDP stage: the
    /// composed patch's delta is rebuilt by replaying both op logs
    /// through a fresh [`PatchGraph`], so `AddTask` id assignment and
    /// removal bridging come out exactly as a sequential apply would.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not the arena this patch was recorded against,
    /// or if `refinement` was not recorded against this patch's output
    /// arena.
    pub fn compose(&self, base: &DependencyGraph, refinement: &GraphPatch) -> GraphPatch {
        let mut pg = PatchGraph::layered(base, self);
        assert_eq!(
            refinement.base_capacity,
            pg.capacity(),
            "refinement recorded against a different patched arena"
        );
        replay_ops(&refinement.ops, &mut pg);
        pg.finish()
    }
}

/// Replays an op log through any [`GraphEdit`] sink.
fn replay_ops<G: GraphEdit>(ops: &[PatchOp], g: &mut G) {
    for op in ops {
        match op {
            PatchOp::AddTask { task } => {
                g.add_task((**task).clone());
            }
            PatchOp::RemoveTask { id } => g.remove_task(*id),
            PatchOp::AddDep { from, to, kind } => g.add_dep(*from, *to, *kind),
            PatchOp::RemoveDep { from, to } => g.remove_dep(*from, *to),
            PatchOp::SetDuration { id, ns } => g.set_duration(*id, *ns),
            PatchOp::SetName { id, name } => g.set_name(*id, name.clone()),
            PatchOp::SetKind { id, kind } => g.set_kind(*id, kind.clone()),
            PatchOp::SetThread { id, thread } => g.set_thread(*id, *thread),
            PatchOp::SetPriority { id, priority } => g.set_priority(*id, *priority),
        }
    }
}

/// A copy-on-write overlay over an immutable base graph that what-if
/// planners mutate through [`GraphEdit`]; every mutation is recorded as a
/// [`PatchOp`] and mirrored into an overlay, so reads observe the patched
/// state without the base ever being cloned or written.
#[derive(Debug)]
pub struct PatchGraph<'a> {
    base: &'a DependencyGraph,
    ops: Vec<PatchOp>,
    delta: NetDelta,
    /// Neighbour buffers [`GraphEdit::remove_task`] reuses across calls.
    removed_preds: EdgeList,
    removed_succs: EdgeList,
}

const NO_EDGES: &[(TaskId, DepKind)] = &[];

/// Grows `v` with `None` up to (at least) `len` slots.
fn ensure_slots<T>(v: &mut Vec<Option<Box<T>>>, len: usize) {
    if v.len() < len {
        v.resize_with(len, || None);
    }
}

impl<'a> PatchGraph<'a> {
    /// A fresh overlay over `base`.
    pub fn new(base: &'a DependencyGraph) -> Self {
        PatchGraph {
            base,
            ops: Vec::new(),
            delta: NetDelta::default(),
            removed_preds: Vec::new(),
            removed_succs: Vec::new(),
        }
    }

    /// An overlay over `base` resumed from a previously recorded `prior`
    /// patch: reads see base-plus-prior, new mutations append to prior's
    /// op log, and [`PatchGraph::finish`] yields the *composed* patch.
    /// This is the layered form behind [`GraphPatch::compose`] — a
    /// BlueConnect/DGC planner records its refinement on top of a cached
    /// DDP patch without the DDP stage ever being re-planned.
    ///
    /// # Panics
    ///
    /// Panics if `prior` was recorded against a different base arena.
    pub fn layered(base: &'a DependencyGraph, prior: &GraphPatch) -> Self {
        assert_eq!(
            base.capacity(),
            prior.base_capacity,
            "prior patch recorded against a different base arena"
        );
        PatchGraph {
            base,
            ops: prior.ops.clone(),
            delta: prior.delta.clone(),
            removed_preds: Vec::new(),
            removed_succs: Vec::new(),
        }
    }

    /// The base graph under the overlay.
    pub fn base(&self) -> &DependencyGraph {
        self.base
    }

    /// Arena capacity including overlay-added tasks.
    pub fn capacity(&self) -> usize {
        self.base.capacity() + self.delta.new_ids.len()
    }

    /// `true` if the task is removed (in the base or by the overlay).
    pub fn is_removed(&self, id: TaskId) -> bool {
        self.delta.is_removed(id) || (id.0 < self.base.capacity() && self.base.is_removed(id))
    }

    /// Finalizes the overlay into the recorded patch.
    pub fn finish(self) -> GraphPatch {
        GraphPatch {
            base_capacity: self.base.capacity(),
            ops: self.ops,
            delta: self.delta,
        }
    }

    /// Overlay successor list for `id`, cloned from the base on first
    /// write (empty for overlay-added tasks).
    fn succ_mut(&mut self, id: TaskId) -> &mut Vec<(TaskId, DepKind)> {
        self.delta.edges_touched = true;
        self.delta.note_edge_id(id);
        let len = self.capacity().max(id.0 + 1);
        ensure_slots(&mut self.delta.succ, len);
        let base = self.base;
        self.delta.succ[id.0].get_or_insert_with(|| {
            Box::new(if id.0 < base.capacity() {
                base.successors(id).to_vec()
            } else {
                Vec::new()
            })
        })
    }

    fn pred_mut(&mut self, id: TaskId) -> &mut Vec<(TaskId, DepKind)> {
        self.delta.edges_touched = true;
        self.delta.note_edge_id(id);
        let len = self.capacity().max(id.0 + 1);
        ensure_slots(&mut self.delta.pred, len);
        let base = self.base;
        self.delta.pred[id.0].get_or_insert_with(|| {
            Box::new(if id.0 < base.capacity() {
                base.predecessors(id).to_vec()
            } else {
                Vec::new()
            })
        })
    }

    /// Marks `id` touched (growing the override arrays as needed) and
    /// returns its index. No base `Task` clone — overrides are sparse.
    fn touch(&mut self, id: TaskId) -> usize {
        let len = self.capacity().max(id.0 + 1);
        self.delta.ensure(len);
        if self.delta.flags[id.0] == 0 {
            self.delta.touched.push(id);
        }
        id.0
    }

    fn edge_exists(&self, from: TaskId, to: TaskId) -> bool {
        GraphView::successors(self, from)
            .iter()
            .any(|&(t, _)| t == to)
    }

    /// Inserts the edge without recording an op (bridging inside
    /// `remove_task` is part of the `RemoveTask` op's semantics).
    fn insert_edge(&mut self, from: TaskId, to: TaskId, kind: DepKind) -> bool {
        if from == to || self.edge_exists(from, to) {
            return false;
        }
        self.succ_mut(from).push((to, kind));
        self.pred_mut(to).push((from, kind));
        true
    }
}

impl GraphView for PatchGraph<'_> {
    fn task(&self, id: TaskId) -> &Task {
        let d = &self.delta;
        let f = d.flag(id);
        if f == 0 {
            return self.base.task(id);
        }
        // Merge lazily: the cell is pre-filled for inserted tasks and
        // kept in sync by every setter, so a hit is always current.
        d.merged[id.0].get_or_init(|| {
            let i = id.0;
            let mut t = self.base.task(id).clone();
            if f & F_DUR != 0 {
                t.duration_ns = d.dur[i];
            }
            if f & F_GAP != 0 {
                t.gap_ns = d.gap[i];
            }
            if f & F_PRIO != 0 {
                t.priority = d.prio[i];
            }
            if f & F_THREAD != 0 {
                t.thread = d.thread[i];
            }
            if let Some(k) = d.kind.get(&i) {
                t.kind = k.clone();
            }
            if let Some(n) = d.name.get(&i) {
                t.name = n.clone();
            }
            Box::new(t)
        })
    }

    // A removed task has no edges: removal detaches both sides, and its
    // own lists are cleared only if the overlay already held them.
    fn successors(&self, id: TaskId) -> &[(TaskId, DepKind)] {
        match self.delta.succ_over(id) {
            Some(v) => v,
            None if id.0 < self.base.capacity() && !self.delta.is_removed(id) => {
                self.base.successors(id)
            }
            None => NO_EDGES,
        }
    }

    fn predecessors(&self, id: TaskId) -> &[(TaskId, DepKind)] {
        match self.delta.pred_over(id) {
            Some(v) => v,
            None if id.0 < self.base.capacity() && !self.delta.is_removed(id) => {
                self.base.predecessors(id)
            }
            None => NO_EDGES,
        }
    }

    fn live_ids(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self
            .base
            .iter()
            .map(|(id, _)| id)
            .filter(|id| !self.delta.is_removed(*id))
            .collect();
        // New ids all sort after base ids, so the result stays ascending.
        ids.extend(
            self.delta
                .new_ids
                .iter()
                .filter(|id| !self.delta.is_removed(**id)),
        );
        ids
    }

    // Specialized over the default: walks the base arena directly (one
    // pass, no intermediate id vector) and only detours through the
    // merged-view cache for tasks the overlay actually modified.
    fn select_ids(&self, pred: impl Fn(&Task) -> bool) -> Vec<TaskId> {
        let mut out = Vec::new();
        for (id, t) in self.base.iter() {
            if self.delta.is_removed(id) {
                continue;
            }
            let t = if self.delta.flag(id) == 0 {
                t
            } else {
                GraphView::task(self, id)
            };
            if pred(t) {
                out.push(id);
            }
        }
        for &id in self.delta.new_ids() {
            if !self.delta.is_removed(id) && pred(self.delta.new_task(id)) {
                out.push(id);
            }
        }
        out
    }
}

impl GraphEdit for PatchGraph<'_> {
    fn add_task(&mut self, task: Task) -> TaskId {
        let id = TaskId(self.capacity());
        self.ops.push(PatchOp::AddTask {
            task: Box::new(task.clone()),
        });
        let i = self.touch(id);
        let d = &mut self.delta;
        d.flags[i] = F_DUR | F_GAP | F_PRIO | F_THREAD;
        d.ensure_dur(i + 1);
        d.ensure_gap(i + 1);
        d.ensure_prio(i + 1);
        d.ensure_thread(i + 1);
        d.dur[i] = task.duration_ns;
        d.gap[i] = task.gap_ns;
        d.prio[i] = task.priority;
        d.thread[i] = task.thread;
        let _ = d.merged[i].set(Box::new(task));
        d.new_ids.push(id);
        id
    }

    fn add_dep(&mut self, from: TaskId, to: TaskId, kind: DepKind) {
        assert!(
            from.0 < self.capacity() && to.0 < self.capacity(),
            "edge endpoint out of bounds"
        );
        if self.insert_edge(from, to, kind) {
            self.ops.push(PatchOp::AddDep { from, to, kind });
        }
    }

    fn remove_dep(&mut self, from: TaskId, to: TaskId) {
        if !self.edge_exists(from, to) {
            return;
        }
        self.succ_mut(from).retain(|&(t, _)| t != to);
        self.pred_mut(to).retain(|&(t, _)| t != from);
        self.ops.push(PatchOp::RemoveDep { from, to });
    }

    // Mirrors `DependencyGraph::remove_task` exactly: detach both sides,
    // then bridge predecessors to successors with kind merging. Recorded
    // as a single `RemoveTask` op; replay re-derives the same bridging.
    fn remove_task(&mut self, id: TaskId) {
        if self.is_removed(id) {
            return;
        }
        self.ops.push(PatchOp::RemoveTask { id });
        // Neighbours first: a removed task reads as edgeless.
        let mut preds = std::mem::take(&mut self.removed_preds);
        let mut succs = std::mem::take(&mut self.removed_succs);
        preds.clear();
        succs.clear();
        preds.extend_from_slice(GraphView::predecessors(self, id));
        succs.extend_from_slice(GraphView::successors(self, id));
        if self.delta.removed.len() <= id.0 {
            self.delta
                .removed
                .resize(self.capacity().max(id.0 + 1), false);
        }
        self.delta.removed[id.0] = true;
        self.delta.removed_list.push(id);
        for &(p, _) in &preds {
            self.succ_mut(p).retain(|&(t, _)| t != id);
        }
        for &(s, _) in &succs {
            self.pred_mut(s).retain(|&(t, _)| t != id);
        }
        for list in [&mut self.delta.succ, &mut self.delta.pred] {
            if let Some(l) = list.get_mut(id.0).and_then(|o| o.as_deref_mut()) {
                l.clear();
            }
        }
        for &(p, pk) in &preds {
            for &(s, sk) in &succs {
                let kind = if pk == sk { pk } else { DepKind::Transform };
                self.insert_edge(p, s, kind);
            }
        }
        self.removed_preds = preds;
        self.removed_succs = succs;
    }

    fn set_duration(&mut self, id: TaskId, duration_ns: u64) {
        let i = self.touch(id);
        let d = &mut self.delta;
        d.flags[i] |= F_DUR;
        d.ensure_dur(i + 1);
        d.dur[i] = duration_ns;
        if let Some(m) = d.merged_mut(i) {
            m.duration_ns = duration_ns;
        }
        self.ops.push(PatchOp::SetDuration {
            id,
            ns: duration_ns,
        });
    }

    fn set_name(&mut self, id: TaskId, name: String) {
        let i = self.touch(id);
        let d = &mut self.delta;
        d.flags[i] |= F_NAME;
        d.name.insert(i, name.clone());
        if let Some(m) = d.merged_mut(i) {
            m.name = name.clone();
        }
        self.ops.push(PatchOp::SetName { id, name });
    }

    fn set_kind(&mut self, id: TaskId, kind: TaskKind) {
        let i = self.touch(id);
        let d = &mut self.delta;
        d.flags[i] |= F_KIND;
        d.kind.insert(i, kind.clone());
        if let Some(m) = d.merged_mut(i) {
            m.kind = kind.clone();
        }
        self.ops.push(PatchOp::SetKind { id, kind });
    }

    fn set_thread(&mut self, id: TaskId, thread: ExecThread) {
        let i = self.touch(id);
        let d = &mut self.delta;
        d.flags[i] |= F_THREAD;
        d.ensure_thread(i + 1);
        d.thread[i] = thread;
        if let Some(m) = d.merged_mut(i) {
            m.thread = thread;
        }
        self.ops.push(PatchOp::SetThread { id, thread });
    }

    fn set_priority(&mut self, id: TaskId, priority: i64) {
        let i = self.touch(id);
        let d = &mut self.delta;
        d.flags[i] |= F_PRIO;
        d.ensure_prio(i + 1);
        d.prio[i] = priority;
        if let Some(m) = d.merged_mut(i) {
            m.priority = priority;
        }
        self.ops.push(PatchOp::SetPriority { id, priority });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daydream_trace::CpuThreadId;

    fn cpu(name: &str, dur: u64) -> Task {
        Task::new(
            name,
            TaskKind::CpuWork,
            ExecThread::Cpu(CpuThreadId(0)),
            dur,
        )
    }

    fn chain(n: usize) -> DependencyGraph {
        let mut g = DependencyGraph::new();
        let ids: Vec<TaskId> = (0..n)
            .map(|i| {
                let mut t = cpu(&format!("t{i}"), 10);
                t.measured_start_ns = i as u64 * 100;
                g.add_task(t)
            })
            .collect();
        for w in ids.windows(2) {
            g.add_dep(w[0], w[1], DepKind::CpuSeq);
        }
        g
    }

    #[test]
    fn overlay_reads_reflect_writes_and_base_stays_untouched() {
        let g = chain(3);
        let mut p = PatchGraph::new(&g);
        p.set_duration(TaskId(1), 99);
        let id = p.add_task(cpu("new", 5));
        p.add_dep(TaskId(2), id, DepKind::Transform);
        assert_eq!(GraphView::task(&p, TaskId(1)).duration_ns, 99);
        assert_eq!(GraphView::task(&p, id).name, "new");
        assert_eq!(
            GraphView::successors(&p, TaskId(2)),
            &[(id, DepKind::Transform)]
        );
        assert_eq!(p.live_ids().len(), 4);
        // The base never saw any of it.
        assert_eq!(g.task(TaskId(1)).duration_ns, 10);
        assert_eq!(g.successors(TaskId(2)), &[]);
    }

    #[test]
    fn replay_matches_overlay_semantics() {
        let g = chain(4);
        let mut p = PatchGraph::new(&g);
        // Exercise every op family, including bridging removal.
        p.set_duration(TaskId(0), 77);
        p.set_priority(TaskId(3), -4);
        p.set_name(TaskId(3), "renamed".into());
        let extra = p.add_task(cpu("extra", 30));
        p.add_dep(TaskId(0), extra, DepKind::Transform);
        p.remove_dep(TaskId(2), TaskId(3));
        p.remove_task(TaskId(1));
        let live = p.live_ids();
        let overlay_succ0 = GraphView::successors(&p, TaskId(0)).to_vec();
        let patch = p.finish();

        let replayed = patch.apply_reference(&g);
        assert_eq!(
            replayed.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            live,
            "live sets must agree"
        );
        assert_eq!(replayed.task(TaskId(0)).duration_ns, 77);
        assert_eq!(replayed.task(TaskId(3)).priority, -4);
        assert_eq!(replayed.task(TaskId(3)).name, "renamed");
        let mut a = replayed.successors(TaskId(0)).to_vec();
        let mut b = overlay_succ0;
        a.sort_unstable_by_key(|&(t, _)| t);
        b.sort_unstable_by_key(|&(t, _)| t);
        assert_eq!(a, b, "bridged successor lists must agree");
        replayed.validate().unwrap();
    }

    #[test]
    fn duplicate_edges_and_double_removal_record_nothing() {
        let g = chain(2);
        let mut p = PatchGraph::new(&g);
        p.add_dep(TaskId(0), TaskId(1), DepKind::Transform); // already exists
        p.add_dep(TaskId(0), TaskId(0), DepKind::Transform); // self edge
        p.remove_dep(TaskId(1), TaskId(0)); // absent
        p.remove_task(TaskId(1));
        p.remove_task(TaskId(1)); // second removal is a no-op
        let patch = p.finish();
        assert_eq!(patch.ops().len(), 1);
        assert_eq!(patch.summary().tasks_removed, 1);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let g = chain(3);
        let build = |dur: u64| {
            let mut p = PatchGraph::new(&g);
            p.set_duration(TaskId(1), dur);
            p.finish()
        };
        assert_eq!(build(50).fingerprint(), build(50).fingerprint());
        assert_ne!(build(50).fingerprint(), build(51).fingerprint());
        assert_ne!(
            build(50).fingerprint(),
            PatchGraph::new(&g).finish().fingerprint()
        );

        // Inserted tasks hash field by field: a change to any one field
        // of the added task must change the fingerprint.
        let push = || {
            let mut t = Task::new(
                "push_3_0",
                TaskKind::Communication {
                    prim: crate::task::CommPrimitive::Push,
                    bytes: 4 << 20,
                },
                ExecThread::Comm(crate::task::CommChannel::Send),
                900,
            );
            t.priority = -7;
            t
        };
        let insert = |t: Task| {
            let mut p = PatchGraph::new(&g);
            let id = p.add_task(t);
            p.add_dep(TaskId(2), id, DepKind::Comm);
            p.finish().fingerprint()
        };
        let reference = insert(push());
        assert_eq!(reference, insert(push()));
        let mut renamed = push();
        renamed.name = "push_3_1".into();
        let mut resized = push();
        resized.kind = TaskKind::Communication {
            prim: crate::task::CommPrimitive::Push,
            bytes: (4 << 20) - 1,
        };
        let mut rethreaded = push();
        rethreaded.thread = ExecThread::Comm(crate::task::CommChannel::Receive);
        let mut reprioritized = push();
        reprioritized.priority = -8;
        let variants = [renamed, resized, rethreaded, reprioritized];
        let mut seen: Vec<u64> = vec![reference];
        for t in variants {
            let fp = insert(t.clone());
            assert!(!seen.contains(&fp), "{t:?} collides with a sibling patch");
            seen.push(fp);
        }
    }

    #[test]
    fn summary_counts_distinct_targets() {
        let g = chain(3);
        let mut p = PatchGraph::new(&g);
        p.set_duration(TaskId(0), 1);
        p.set_duration(TaskId(0), 2); // same task twice: counted once
        p.set_duration(TaskId(1), 3);
        let n = p.add_task(cpu("n", 1));
        p.add_dep(TaskId(2), n, DepKind::Transform);
        let s = p.finish().summary();
        assert_eq!(s.tasks_retimed, 2);
        assert_eq!(s.tasks_added, 1);
        assert_eq!(s.deps_added, 1);
        assert_eq!(s.op_count(), 4, "3 SetDuration ops collapse to 2 tasks");
    }

    #[test]
    fn inserted_tasks_skip_removed_again() {
        let g = chain(1);
        let mut p = PatchGraph::new(&g);
        let a = p.add_task(cpu("keep", 1));
        let b = p.add_task(cpu("drop", 1));
        p.remove_task(b);
        let patch = p.finish();
        let kept: Vec<TaskId> = patch.inserted_tasks().map(|(id, _)| id).collect();
        assert_eq!(kept, vec![a]);
    }

    #[test]
    #[should_panic(expected = "different base arena")]
    fn replay_rejects_mismatched_base() {
        let g = chain(2);
        let patch = {
            let mut p = PatchGraph::new(&g);
            p.set_duration(TaskId(0), 1);
            p.finish()
        };
        let mut other = chain(3);
        patch.replay_on(&mut other);
    }
}
