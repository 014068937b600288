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
//! The overlay stores its state in arrays rather than hash maps: catalog
//! transforms like AMP retime most of the graph, and per-op hash lookups
//! would make emit as expensive as the clone it replaces. Only flat
//! arrays of plain values span the whole arena (override flags, scalar
//! overrides, a removal bitmap, and `u32` slot maps), so creating,
//! cloning and dropping an overlay copies memory blocks. The slot maps
//! index compact arenas that hold only what the patch touched: merged
//! task views and overridden edge lists. Layering a refinement onto a
//! cached DDP patch therefore clones in proportion to that patch.
//!
//! [`GraphEdit::remove_tasks`] removes a set in one pass: mark the set,
//! collect its live predecessors and successors, and walk the removed
//! region once from each outside predecessor, bridging it to every
//! outside successor it reaches. Only those boundary tasks get overlay
//! edge lists. The op log and every live task's successor set are those
//! of removing the ids one by one; a bridge's kind follows `remove_task`'s
//! rule along the path that first reaches it, so it can differ from
//! sequential removal only where several removed paths join one pair.

use crate::graph::{bridge_kind, DepKind, DependencyGraph, GraphEdit, GraphView, TaskId};
use crate::task::{ExecThread, Task, TaskKind};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

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
/// Per-task state covers the whole arena only as flat arrays of plain
/// values (flag bytes, scalar overrides, the removal bitmap, `u32` slot
/// maps), so creating, cloning and dropping a delta copies memory blocks
/// instead of visiting slots. Everything else lives in compact arenas
/// holding only the tasks the patch touched. Field updates are stored as
/// sparse scalar overrides — materializing a full `Task` per touched node
/// (a `String` clone each) would make dense retimes as expensive as the
/// graph clone this module exists to avoid; the merged `Task` view is
/// built lazily, only when a planner actually re-reads a modified task.
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
    /// Ids with a nonzero flag byte, in first-touch order.
    touched: Vec<TaskId>,
    /// Merged full-`Task` views of the touched tasks. The table is
    /// created by the first insert or the first read of a touched task,
    /// so a retime no planner re-reads never builds it. `OnceLock` (not
    /// `OnceCell`) so finished patches are `Sync` — the sweep engine
    /// shares cached DDP patches across worker threads and layers
    /// refinements on top.
    views: OnceLock<Views>,
    /// Removal bitmap (base or new tasks removed by this patch).
    removed: Vec<bool>,
    /// Ids with a set bit in `removed`, in removal order.
    removed_list: Vec<TaskId>,
    /// Ids with an overridden adjacency list (successors, predecessors,
    /// or both), each once, in first-write order.
    edge_ids: Vec<TaskId>,
    /// Per-task index into `edge_ids` and `edges` (`NO_SLOT` = no list).
    edge_at: Vec<u32>,
    /// Final adjacency lists of the tasks whose edges changed, parallel
    /// to `edge_ids`.
    edges: Vec<EdgeSlot>,
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

/// Filler for the slot maps: the task has no entry in the arena.
const NO_SLOT: u32 = u32::MAX;

/// Merged full-`Task` views, one cell per touched task: pre-filled for
/// inserted tasks, built on first read for modified base tasks, and kept
/// in sync by every later setter.
#[derive(Debug, Clone)]
struct Views {
    /// Per-task index into `cells` (`NO_SLOT` = untouched).
    at: Vec<u32>,
    /// Empty cells until first read, in first-touch order.
    cells: Vec<OnceLock<Box<Task>>>,
}

impl Views {
    /// One empty cell per id of `touched`, in an arena of `len` tasks.
    fn new(touched: &[TaskId], len: usize) -> Views {
        let mut at = vec![NO_SLOT; len];
        for (i, id) in touched.iter().enumerate() {
            at[id.0] = i as u32;
        }
        Views {
            at,
            cells: touched.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// Adds an empty cell for a newly touched task.
    fn push(&mut self, id: TaskId) {
        if self.at.len() <= id.0 {
            self.at.resize(id.0 + 1, NO_SLOT);
        }
        self.at[id.0] = self.cells.len() as u32;
        self.cells.push(OnceLock::new());
    }
}

/// A task's typed adjacency list.
type EdgeList = Vec<(TaskId, DepKind)>;

/// One side of a task's adjacency.
#[derive(Debug, Clone, Copy)]
enum Side {
    Succ,
    Pred,
}

/// The overridden adjacency of one task; `None` reads the base list.
#[derive(Debug, Clone, Default)]
struct EdgeSlot {
    succ: Option<EdgeList>,
    pred: Option<EdgeList>,
}

impl EdgeSlot {
    fn side(&self, side: Side) -> Option<&EdgeList> {
        match side {
            Side::Succ => self.succ.as_ref(),
            Side::Pred => self.pred.as_ref(),
        }
    }

    fn side_mut(&mut self, side: Side) -> &mut Option<EdgeList> {
        match side {
            Side::Succ => &mut self.succ,
            Side::Pred => &mut self.pred,
        }
    }
}

/// `id`'s adjacency list on `side` in the base graph (empty for ids the
/// base never issued).
fn base_list(base: &DependencyGraph, id: TaskId, side: Side) -> &[(TaskId, DepKind)] {
    if id.0 >= base.capacity() {
        return NO_EDGES;
    }
    match side {
        Side::Succ => base.successors(id),
        Side::Pred => base.predecessors(id),
    }
}

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

/// The arena index `map` holds for `id`, if any.
fn slot(map: &[u32], id: TaskId) -> Option<usize> {
    map.get(id.0)
        .copied()
        .filter(|&s| s != NO_SLOT)
        .map(|s| s as usize)
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

    /// The merged-view cell of a touched task (creating the table).
    fn merged_cell(&self, id: TaskId) -> &OnceLock<Box<Task>> {
        let views = self
            .views
            .get_or_init(|| Views::new(&self.touched, self.flags.len()));
        &views.cells[slot(&views.at, id).expect("touched task has a slot")]
    }

    /// The merged view of a touched task, if it has been built.
    fn merged_mut(&mut self, id: TaskId) -> Option<&mut Task> {
        let views = self.views.get_mut()?;
        views.cells[slot(&views.at, id)?]
            .get_mut()
            .map(|b| &mut **b)
    }

    /// The full task state of an *inserted* task (always materialized).
    pub(crate) fn new_task(&self, id: TaskId) -> &Task {
        self.views
            .get()
            .and_then(|v| v.cells[slot(&v.at, id)?].get())
            .expect("inserted tasks are fully materialized")
    }

    fn over(&self, id: TaskId, side: Side) -> Option<&EdgeList> {
        slot(&self.edge_at, id).and_then(|s| self.edges[s].side(side))
    }

    pub(crate) fn succ_over(&self, id: TaskId) -> Option<&EdgeList> {
        self.over(id, Side::Succ)
    }

    pub(crate) fn pred_over(&self, id: TaskId) -> Option<&EdgeList> {
        self.over(id, Side::Pred)
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
            .zip(&self.edges)
            .filter(|(_, e)| e.pred.is_some())
            .map(|(&id, _)| id)
    }

    /// `id`'s index in `edges`, adding an empty slot (and recording `id`
    /// in `edge_ids`) on first use.
    fn edge_slot(&mut self, id: TaskId) -> usize {
        if self.edge_at.len() <= id.0 {
            self.edge_at.resize(id.0 + 1, NO_SLOT);
        }
        if self.edge_at[id.0] == NO_SLOT {
            self.edge_at[id.0] = self.edges.len() as u32;
            self.edge_ids.push(id);
            self.edges.push(EdgeSlot::default());
        }
        self.edge_at[id.0] as usize
    }

    /// `id`'s overlay list on `side`, copied from the base on first write
    /// (empty for overlay-added tasks).
    fn list_mut(&mut self, base: &DependencyGraph, id: TaskId, side: Side) -> &mut EdgeList {
        let s = self.edge_slot(id);
        self.edges[s]
            .side_mut(side)
            .get_or_insert_with(|| base_list(base, id, side).to_vec())
    }

    /// Drops every removed task from `id`'s list on `side`.
    fn drop_removed(&mut self, base: &DependencyGraph, id: TaskId, side: Side) {
        let s = self.edge_slot(id);
        let removed = &self.removed;
        self.edges[s]
            .side_mut(side)
            .get_or_insert_with(|| base_list(base, id, side).to_vec())
            .retain(|&(t, _)| !removed.get(t.0).copied().unwrap_or(false));
    }

    /// Marks `id` removed (`len` sizes a bitmap that is still too short).
    fn mark_removed(&mut self, id: TaskId, len: usize) {
        if self.removed.len() <= id.0 {
            self.removed.resize(len.max(id.0 + 1), false);
        }
        self.removed[id.0] = true;
        self.removed_list.push(id);
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
    /// Buffers [`GraphEdit::remove_tasks`] reuses across calls.
    scratch: RemovalScratch,
}

/// Scratch state of [`GraphEdit::remove_tasks`] on a [`PatchGraph`],
/// kept across calls: metaflow removes one layer per call.
#[derive(Debug, Default)]
struct RemovalScratch {
    /// Per-task marks: `stamp[i] == epoch` marks task `i` seen by the
    /// current pass.
    stamp: Vec<u32>,
    epoch: u32,
    /// The tasks this call removes.
    set: Vec<TaskId>,
    /// The set's live predecessors and successors, each once.
    preds: Vec<TaskId>,
    succs: Vec<TaskId>,
    /// Depth-first walk stack: a removed task and the merged kind of the
    /// path that reached it.
    stack: Vec<(TaskId, DepKind)>,
    /// Bridges the walks found, as `(from, to, kind)`.
    bridges: Vec<(TaskId, TaskId, DepKind)>,
}

impl RemovalScratch {
    /// Starts a pass with fresh marks over an arena of `len` tasks.
    fn next_epoch(&mut self, len: usize) {
        if self.stamp.len() < len {
            self.stamp.resize(len, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Marks `id` for the current pass; `false` if it already was.
    fn mark(&mut self, id: TaskId) -> bool {
        let fresh = self.stamp[id.0] != self.epoch;
        self.stamp[id.0] = self.epoch;
        fresh
    }
}

const NO_EDGES: &[(TaskId, DepKind)] = &[];

impl<'a> PatchGraph<'a> {
    /// A fresh overlay over `base`.
    pub fn new(base: &'a DependencyGraph) -> Self {
        PatchGraph {
            base,
            ops: Vec::new(),
            delta: NetDelta::default(),
            scratch: RemovalScratch::default(),
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
            scratch: RemovalScratch::default(),
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

    /// `id`'s current list on `side`, read past a removal mark (what
    /// `remove_tasks` needs for the tasks it has just marked).
    fn list(&self, id: TaskId, side: Side) -> &[(TaskId, DepKind)] {
        match self.delta.over(id, side) {
            Some(v) => v,
            None => base_list(self.base, id, side),
        }
    }

    /// Marks `id` touched (growing the override arrays as needed) and
    /// returns its index. No base `Task` clone — overrides are sparse.
    fn touch(&mut self, id: TaskId) -> usize {
        let len = self.capacity().max(id.0 + 1);
        let d = &mut self.delta;
        d.ensure(len);
        if d.flags[id.0] == 0 {
            d.touched.push(id);
            if let Some(views) = d.views.get_mut() {
                views.push(id);
            }
        }
        id.0
    }

    fn edge_exists(&self, from: TaskId, to: TaskId) -> bool {
        GraphView::successors(self, from)
            .iter()
            .any(|&(t, _)| t == to)
    }

    /// Writes the edge into both endpoints' overlay lists. Records no op:
    /// `add_dep` records its own, and bridges belong to `RemoveTask` ops.
    fn push_edge(&mut self, from: TaskId, to: TaskId, kind: DepKind) {
        let (base, d) = (self.base, &mut self.delta);
        d.list_mut(base, from, Side::Succ).push((to, kind));
        d.list_mut(base, to, Side::Pred).push((from, kind));
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
        d.merged_cell(id).get_or_init(|| {
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

    // A removed task has no edges: removal detaches both sides.
    fn successors(&self, id: TaskId) -> &[(TaskId, DepKind)] {
        if self.delta.is_removed(id) {
            return NO_EDGES;
        }
        self.list(id, Side::Succ)
    }

    fn predecessors(&self, id: TaskId) -> &[(TaskId, DepKind)] {
        if self.delta.is_removed(id) {
            return NO_EDGES;
        }
        self.list(id, Side::Pred)
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
        let _ = d.merged_cell(id).set(Box::new(task));
        d.new_ids.push(id);
        id
    }

    fn add_dep(&mut self, from: TaskId, to: TaskId, kind: DepKind) {
        assert!(
            from.0 < self.capacity() && to.0 < self.capacity(),
            "edge endpoint out of bounds"
        );
        if from != to && !self.edge_exists(from, to) {
            self.push_edge(from, to, kind);
            self.ops.push(PatchOp::AddDep { from, to, kind });
        }
    }

    fn remove_dep(&mut self, from: TaskId, to: TaskId) {
        if !self.edge_exists(from, to) {
            return;
        }
        let (base, d) = (self.base, &mut self.delta);
        d.list_mut(base, from, Side::Succ).retain(|&(t, _)| t != to);
        d.list_mut(base, to, Side::Pred).retain(|&(t, _)| t != from);
        self.ops.push(PatchOp::RemoveDep { from, to });
    }

    fn remove_task(&mut self, id: TaskId) {
        self.remove_tasks(&[id]);
    }

    // One pass over the set (the contract is on the trait method):
    // mark it, find its live boundary, walk the removed region once from
    // each outside predecessor, then detach and bridge. Only boundary
    // tasks get overlay lists. The work is the set, its boundary edges,
    // the bridges, and the removed tasks each walk reaches.
    fn remove_tasks(&mut self, ids: &[TaskId]) {
        let mut s = std::mem::take(&mut self.scratch);
        let len = self.capacity();
        s.set.clear();
        for &id in ids {
            if !self.is_removed(id) {
                self.ops.push(PatchOp::RemoveTask { id });
                self.delta.mark_removed(id, len);
                s.set.push(id);
            }
        }

        // The boundary. A live task's lists hold only live tasks and
        // members of this set, so "removed" means "in the set" here.
        s.preds.clear();
        s.next_epoch(len);
        for i in 0..s.set.len() {
            for &(p, _) in self.list(s.set[i], Side::Pred) {
                if !self.delta.is_removed(p) && s.mark(p) {
                    s.preds.push(p);
                }
            }
        }
        s.succs.clear();
        s.next_epoch(len);
        for i in 0..s.set.len() {
            for &(x, _) in self.list(s.set[i], Side::Succ) {
                if !self.delta.is_removed(x) && s.mark(x) {
                    s.succs.push(x);
                }
            }
        }

        // From each outside predecessor `p`, bridge to every live task
        // reached through removed tasks that `p` does not already
        // precede.
        s.bridges.clear();
        for i in 0..s.preds.len() {
            let p = s.preds[i];
            s.next_epoch(len);
            s.mark(p);
            for &(x, k) in self.list(p, Side::Succ) {
                if self.delta.is_removed(x) {
                    s.stack.push((x, k));
                } else {
                    s.mark(x);
                }
            }
            while let Some((r, k)) = s.stack.pop() {
                if !s.mark(r) {
                    continue;
                }
                for &(x, k2) in self.list(r, Side::Succ) {
                    let kind = bridge_kind(k, k2);
                    if self.delta.is_removed(x) {
                        s.stack.push((x, kind));
                    } else if s.mark(x) {
                        s.bridges.push((p, x, kind));
                    }
                }
            }
        }

        let (base, d) = (self.base, &mut self.delta);
        for &p in &s.preds {
            d.drop_removed(base, p, Side::Succ);
        }
        for &x in &s.succs {
            d.drop_removed(base, x, Side::Pred);
        }
        for &r in &s.set {
            if let Some(e) = slot(&d.edge_at, r) {
                let e = &mut d.edges[e];
                for list in [&mut e.succ, &mut e.pred].into_iter().flatten() {
                    list.clear();
                }
            }
        }
        for &(p, x, kind) in &s.bridges {
            self.push_edge(p, x, kind);
        }
        self.scratch = s;
    }

    fn set_duration(&mut self, id: TaskId, duration_ns: u64) {
        let i = self.touch(id);
        let d = &mut self.delta;
        d.flags[i] |= F_DUR;
        d.ensure_dur(i + 1);
        d.dur[i] = duration_ns;
        if let Some(m) = d.merged_mut(id) {
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
        if let Some(m) = d.merged_mut(id) {
            m.name = name.clone();
        }
        self.ops.push(PatchOp::SetName { id, name });
    }

    fn set_kind(&mut self, id: TaskId, kind: TaskKind) {
        let i = self.touch(id);
        let d = &mut self.delta;
        d.flags[i] |= F_KIND;
        d.kind.insert(i, kind.clone());
        if let Some(m) = d.merged_mut(id) {
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
        if let Some(m) = d.merged_mut(id) {
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
        if let Some(m) = d.merged_mut(id) {
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
