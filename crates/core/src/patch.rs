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
//!   compiled graph by compacting the warm simulator's overlay of the
//!   delta over the compiled base — no base clone, no recompile;
//! * [`GraphPatch::apply_reference`] is the oracle: clone the base, replay
//!   the op log through [`DependencyGraph`]'s own mutators, recompile.
//!   Equivalence proptests pin `apply == apply_reference` for every
//!   what-if transform in the catalog.
//!
//! A patch's memory and work scale with the patch, not with the base
//! arena. Base tasks the patch retimes or moves get flat override arrays
//! over the base arena (flag bytes and plain scalars, each allocated on
//! the first write of its field): catalog transforms like AMP retime
//! most of the graph, and per-op hash lookups would make emit as
//! expensive as the clone it replaces. Inserted tasks live in their own
//! compact table, so inserting sizes nothing to the arena, and each is
//! stored once: the table and the op log share it until a setter writes
//! it. Every overridden adjacency list is a span of one shared edge pool,
//! found through a `u32` slot map over the base arena (allocated when a
//! base task's edges first change) or the inserted task's own slot.
//! Creating, cloning and dropping an overlay therefore copies or frees a
//! few flat blocks: layering a refinement onto a cached DDP patch costs
//! that patch's pool, one slot map and a reference count per inserted
//! task.
//!
//! The overlay also does no work per base task for what it reads. It
//! hashes each op into the patch fingerprint as it records it, so a
//! finished patch's [`GraphPatch::fingerprint`] is a read. And one built
//! over an indexed base ([`PatchGraph::with_index`]) hands the base's
//! [`TaskIndex`] to the [`crate::transform::select`] helpers, so a
//! planner's selections read lists built once per base instead of
//! scanning the arena.
//!
//! [`GraphEdit::remove_tasks`] removes a set in one pass: mark the set,
//! collect its live predecessors and successors, and walk the removed
//! region once from each outside predecessor, bridging it to every
//! outside successor it reaches. Only those boundary tasks get overlay
//! edge lists. The op log and every live task's successor set are those
//! of removing the ids one by one; a bridge's kind follows `remove_task`'s
//! rule along the path that first reaches it, so it can differ from
//! sequential removal only where several removed paths join one pair.
//! [`GraphEdit::set_durations`] records a bulk retime in one pass.

use crate::graph::{bridge_kind, DepKind, DependencyGraph, GraphEdit, GraphView, TaskId};
use crate::index::{Edits, TaskIndex};
use crate::task::{ExecThread, Task, TaskKind};
use daydream_trace::{fnv1a64_continue, FNV_OFFSET};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

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
        /// The task to add (complete initial state). Shared with the
        /// overlay's inserted table until a setter writes the task there;
        /// behind a pointer, so the hot all-integer ops stay small.
        task: Arc<Task>,
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
/// [`crate::CompiledGraph::apply`] and the warm simulator consume.
/// Derived incrementally while recording; the op log stays the
/// authoritative definition (the overlay mirrors [`DependencyGraph`]'s
/// mutation semantics op by op).
///
/// Storage follows the patch, not the arena:
/// * **Modified base tasks** keep sparse field overrides: flat arrays
///   over the base arena (flag bytes, scalars), each allocated on the
///   first write of its field, so a dense retime is "index + flag +
///   store"; rare `kind`/`name` overrides sit in maps. Materializing a
///   full `Task` per retimed node (a `String` clone each) would make
///   dense retimes as expensive as the graph clone this module exists
///   to avoid, so a modified base task's merged view is built lazily,
///   only when a planner re-reads it.
/// * **Inserted tasks** live in one table indexed by `id - base_cap`,
///   holding each task's current state, which every setter writes. The
///   entry shares its task with the op log's `AddTask` until a setter
///   copies it out.
/// * **Overridden adjacency lists** are spans of one shared `pool`.
#[derive(Debug, Clone, Default)]
pub(crate) struct NetDelta {
    /// Arena capacity of the base: ids below it are base tasks, ids at
    /// or above it index `inserted`.
    base_cap: usize,
    /// Per-base-task override bitmap (0 = untouched); the field arrays
    /// below are valid only where the matching bit is set.
    flags: Vec<u8>,
    dur: Vec<u64>,
    prio: Vec<i64>,
    thread: Vec<ExecThread>,
    /// Union of the override bits of every base task.
    fields: u8,
    /// Rare structured overrides (blueconnect/batch-size rewrites).
    kind: HashMap<usize, TaskKind>,
    name: HashMap<usize, String>,
    /// Modified base tasks and every inserted task, in first-touch
    /// order.
    touched: Vec<TaskId>,
    /// Merged full-`Task` views of the modified base tasks. The table is
    /// created by the first read of one, so a retime no planner re-reads
    /// never builds it. `OnceLock` (not `OnceCell`) so finished patches
    /// are `Sync` — the sweep engine shares cached DDP patches across
    /// worker threads and layers refinements on top.
    views: OnceLock<Views>,
    /// Removal bitmap (base or new tasks removed by this patch).
    removed: Vec<bool>,
    /// Ids with a set bit in `removed`, in removal order.
    removed_list: Vec<TaskId>,
    /// Ids with an overridden adjacency list (successors, predecessors,
    /// or both), each once, in first-write order.
    edge_ids: Vec<TaskId>,
    /// Per-base-task index into `edge_ids` and `edges` (`NO_SLOT` = no
    /// list); inserted tasks keep theirs in their table entry.
    edge_at: Vec<u32>,
    /// The overridden lists of the tasks in `edge_ids`, parallel to it.
    edges: Vec<EdgeSlot>,
    /// Backing store of every overridden list.
    pool: Vec<(TaskId, DepKind)>,
    /// Inserted tasks, indexed by `id - base_cap` (includes ones
    /// removed again).
    inserted: Vec<Inserted>,
    /// Ids of added tasks, ascending and parallel to `inserted`.
    new_ids: Vec<TaskId>,
}

/// An inserted task: its current state and its adjacency slot.
#[derive(Debug, Clone)]
struct Inserted {
    /// Shared with the op log's `AddTask` (and with the prior patch's
    /// table, in a layered overlay) until a setter writes it.
    task: Arc<Task>,
    /// Index into `edge_ids` and `edges` (`NO_SLOT` = no list).
    edge: u32,
}

/// Field-override flag bits (`NetDelta::flags`).
const F_DUR: u8 = 1 << 0;
const F_PRIO: u8 = 1 << 1;
const F_THREAD: u8 = 1 << 2;
const F_KIND: u8 = 1 << 3;
const F_NAME: u8 = 1 << 4;

/// Filler for unset dense `thread` slots (never read: guarded by
/// `F_THREAD`).
const NO_THREAD: ExecThread = ExecThread::Cpu(daydream_trace::CpuThreadId(u32::MAX));

/// Filler for the slot maps: the task has no entry in the arena.
const NO_SLOT: u32 = u32::MAX;

/// `v`, sized to the base arena on first use.
fn base_array<T: Clone>(v: &mut Vec<T>, base_cap: usize, fill: T) -> &mut Vec<T> {
    if v.is_empty() {
        *v = vec![fill; base_cap];
    }
    v
}

/// Merged full-`Task` views, one cell per modified base task: built on
/// first read, and kept in sync by every later setter.
#[derive(Debug, Clone)]
struct Views {
    /// Per-base-task index into `cells` (`NO_SLOT` = untouched).
    at: Vec<u32>,
    /// Empty cells until first read, in first-touch order.
    cells: Vec<OnceLock<Box<Task>>>,
}

impl Views {
    /// One empty cell per base id of `touched`, over a base arena of
    /// `len` tasks.
    fn new(touched: &[TaskId], len: usize) -> Views {
        let mut views = Views {
            at: vec![NO_SLOT; len],
            cells: Vec::new(),
        };
        for &id in touched.iter().filter(|id| id.0 < len) {
            views.push(id);
        }
        views
    }

    /// Adds an empty cell for a newly modified base task.
    fn push(&mut self, id: TaskId) {
        self.at[id.0] = self.cells.len() as u32;
        self.cells.push(OnceLock::new());
    }
}

/// One side of a task's adjacency.
#[derive(Debug, Clone, Copy)]
enum Side {
    Succ,
    Pred,
}

/// An overridden adjacency list: `len` entries at `pool[start..]`, in
/// room for `cap`.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// Free entries a list gets when it is first copied into the pool.
const LIST_ROOM: u32 = 2;

/// Filler for the pool's free entries (never read).
const POOL_FILL: (TaskId, DepKind) = (TaskId(usize::MAX), DepKind::Transform);

impl Span {
    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// Keeps, in order, the entries whose target `keep` accepts.
    fn retain(&mut self, pool: &mut [(TaskId, DepKind)], keep: impl Fn(TaskId) -> bool) {
        let list = &mut pool[self.range()];
        let mut n = 0;
        for i in 0..list.len() {
            if keep(list[i].0) {
                list[n] = list[i];
                n += 1;
            }
        }
        self.len = n as u32;
    }
}

/// The overridden adjacency of one task; `None` reads the base list.
#[derive(Debug, Clone, Copy, Default)]
struct EdgeSlot {
    succ: Option<Span>,
    pred: Option<Span>,
}

impl EdgeSlot {
    fn side(&self, side: Side) -> Option<Span> {
        match side {
            Side::Succ => self.succ,
            Side::Pred => self.pred,
        }
    }

    fn side_mut(&mut self, side: Side) -> &mut Option<Span> {
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

/// Copy-out of a slot's simulation-relevant overrides (what the warm
/// overlay merges onto the compiled base's rows, and
/// [`crate::CompiledGraph::apply`] reads priorities from).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScalarOver {
    /// Overridden duration, ns.
    pub(crate) duration_ns: Option<u64>,
    /// Overridden trailing gap, ns (inserted tasks only: no edit sets a
    /// base task's gap).
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
    fn new(base_cap: usize) -> NetDelta {
        NetDelta {
            base_cap,
            ..NetDelta::default()
        }
    }

    fn flag(&self, id: TaskId) -> u8 {
        self.flags.get(id.0).copied().unwrap_or(0)
    }

    /// The current state of `id` if the patch inserted it.
    fn inserted_task(&self, id: TaskId) -> Option<&Task> {
        let k = id.0.checked_sub(self.base_cap)?;
        Some(&self.inserted[k].task)
    }

    /// `id`'s entry if the patch inserted it, copied out of the op log
    /// (or a prior patch) first if they still share it.
    fn inserted_task_mut(&mut self, id: TaskId) -> Option<&mut Task> {
        let k = id.0.checked_sub(self.base_cap)?;
        Some(Arc::make_mut(&mut self.inserted[k].task))
    }

    /// The kinds of edit the patch has made (what selections read).
    fn edits(&self) -> Edits {
        [
            (!self.new_ids.is_empty(), Edits::INSERT),
            (!self.removed_list.is_empty(), Edits::REMOVE),
            (self.fields & F_THREAD != 0, Edits::THREAD),
            (self.fields & F_KIND != 0, Edits::KIND),
            (self.fields & F_NAME != 0, Edits::NAME),
        ]
        .into_iter()
        .filter(|&(made, _)| made)
        .fold(Edits::NONE, |e, (_, edit)| e.union(edit))
    }

    /// Marks base task `id` modified and returns its index; the caller
    /// sets its field bit. No base `Task` clone — overrides are sparse.
    fn touch(&mut self, id: TaskId) -> usize {
        if base_array(&mut self.flags, self.base_cap, 0)[id.0] == 0 {
            self.touched.push(id);
            if let Some(views) = self.views.get_mut() {
                views.push(id);
            }
        }
        id.0
    }

    /// Flags field `bit` of `id` overridden and returns the state that
    /// must mirror the write: an inserted task's entry, or a modified
    /// base task's merged view once it is built. The caller stores a base
    /// task's field itself.
    fn write(&mut self, id: TaskId, bit: u8) -> Option<&mut Task> {
        if id.0 >= self.base_cap {
            return self.inserted_task_mut(id);
        }
        let i = self.touch(id);
        self.flags[i] |= bit;
        self.fields |= bit;
        self.merged_mut(id)
    }

    /// Simulation-relevant field overrides of a touched task (every
    /// field, for an inserted one).
    pub(crate) fn scalars(&self, id: TaskId) -> Option<ScalarOver> {
        if let Some(t) = self.inserted_task(id) {
            return Some(ScalarOver {
                duration_ns: Some(t.duration_ns),
                gap_ns: Some(t.gap_ns),
                priority: Some(t.priority),
                thread: Some(t.thread),
            });
        }
        let f = self.flag(id);
        if f == 0 {
            return None;
        }
        let i = id.0;
        Some(ScalarOver {
            duration_ns: (f & F_DUR != 0).then(|| self.dur[i]),
            gap_ns: None,
            priority: (f & F_PRIO != 0).then(|| self.prio[i]),
            thread: (f & F_THREAD != 0).then(|| self.thread[i]),
        })
    }

    /// The merged-view cell of a modified base task (creating the
    /// table).
    fn merged_cell(&self, id: TaskId) -> &OnceLock<Box<Task>> {
        let views = self
            .views
            .get_or_init(|| Views::new(&self.touched, self.base_cap));
        &views.cells[slot(&views.at, id).expect("touched task has a slot")]
    }

    /// The merged view of a modified base task, if it has been built.
    fn merged_mut(&mut self, id: TaskId) -> Option<&mut Task> {
        let views = self.views.get_mut()?;
        views.cells[slot(&views.at, id)?]
            .get_mut()
            .map(|b| &mut **b)
    }

    /// The full task state of an *inserted* task.
    pub(crate) fn new_task(&self, id: TaskId) -> &Task {
        self.inserted_task(id).expect("not an inserted task")
    }

    /// `id`'s index in `edges`, if its adjacency is overridden.
    fn edge_slot_of(&self, id: TaskId) -> Option<usize> {
        match id.0.checked_sub(self.base_cap) {
            Some(k) => self
                .inserted
                .get(k)
                .map(|n| n.edge)
                .filter(|&s| s != NO_SLOT)
                .map(|s| s as usize),
            None => slot(&self.edge_at, id),
        }
    }

    fn over(&self, id: TaskId, side: Side) -> Option<&[(TaskId, DepKind)]> {
        let span = self.edges[self.edge_slot_of(id)?].side(side)?;
        Some(&self.pool[span.range()])
    }

    pub(crate) fn succ_over(&self, id: TaskId) -> Option<&[(TaskId, DepKind)]> {
        self.over(id, Side::Succ)
    }

    pub(crate) fn pred_over(&self, id: TaskId) -> Option<&[(TaskId, DepKind)]> {
        self.over(id, Side::Pred)
    }

    pub(crate) fn is_removed(&self, id: TaskId) -> bool {
        self.removed.get(id.0).copied().unwrap_or(false)
    }

    /// Modified base ids and inserted ids, in first-touch order.
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

    /// The base tasks' duration overrides, `(id, duration)` in first-touch
    /// order, read from the dense `dur` row behind `F_DUR`, if the
    /// patch keeps the base's structure: it inserts, removes and rewires
    /// nothing and moves no task to another thread. `None` otherwise.
    pub(crate) fn retimes_only(&self) -> Option<impl Iterator<Item = (TaskId, u64)> + '_> {
        let keeps = self.new_ids.is_empty()
            && self.removed_list.is_empty()
            && self.edge_ids.is_empty()
            && self.fields & F_THREAD == 0;
        keeps.then(|| {
            self.touched
                .iter()
                .filter(|&&id| self.flags[id.0] & F_DUR != 0)
                .map(|&id| (id, self.dur[id.0]))
        })
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
        let at = match id.0.checked_sub(self.base_cap) {
            Some(k) => &mut self.inserted[k].edge,
            None => &mut base_array(&mut self.edge_at, self.base_cap, NO_SLOT)[id.0],
        };
        if *at == NO_SLOT {
            *at = self.edges.len() as u32;
            self.edge_ids.push(id);
            self.edges.push(EdgeSlot::default());
        }
        *at as usize
    }

    /// `id`'s overlay list on `side`, copied from the base into the pool
    /// (with room to grow) on first write; returns its slot in `edges`.
    fn own_list(&mut self, base: &DependencyGraph, id: TaskId, side: Side) -> usize {
        let s = self.edge_slot(id);
        if self.edges[s].side(side).is_none() {
            let list = base_list(base, id, side);
            let start = self.pool.len();
            self.pool.extend_from_slice(list);
            self.pool
                .resize(self.pool.len() + LIST_ROOM as usize, POOL_FILL);
            *self.edges[s].side_mut(side) = Some(Span {
                start: start as u32,
                len: list.len() as u32,
                cap: list.len() as u32 + LIST_ROOM,
            });
        }
        s
    }

    /// Appends an entry to `id`'s list on `side`. A full list grows in
    /// place at the end of the pool, or else moves there with twice its
    /// room; the space it leaves is not reused.
    fn push_list(
        &mut self,
        base: &DependencyGraph,
        id: TaskId,
        side: Side,
        entry: (TaskId, DepKind),
    ) {
        let s = self.own_list(base, id, side);
        let pool = &mut self.pool;
        let span = self.edges[s].side_mut(side).as_mut().expect("list owned");
        if span.len == span.cap {
            if (span.start + span.cap) as usize != pool.len() {
                let at = pool.len() as u32;
                pool.extend_from_within(span.range());
                span.start = at;
            }
            span.cap *= 2;
            pool.resize((span.start + span.cap) as usize, POOL_FILL);
        }
        pool[(span.start + span.len) as usize] = entry;
        span.len += 1;
    }

    /// Drops the entries of `id`'s list on `side` that `keep` rejects.
    fn retain_list(
        &mut self,
        base: &DependencyGraph,
        id: TaskId,
        side: Side,
        keep: impl Fn(TaskId) -> bool,
    ) {
        let s = self.own_list(base, id, side);
        let span = self.edges[s].side_mut(side).as_mut().expect("list owned");
        span.retain(&mut self.pool, keep);
    }

    /// Drops every removed task from `id`'s list on `side`.
    fn drop_removed(&mut self, base: &DependencyGraph, id: TaskId, side: Side) {
        let s = self.own_list(base, id, side);
        let removed = &self.removed;
        let span = self.edges[s].side_mut(side).as_mut().expect("list owned");
        span.retain(&mut self.pool, |t| {
            !removed.get(t.0).copied().unwrap_or(false)
        });
    }

    /// Empties both of `id`'s overlay lists, if it has any.
    fn clear_lists(&mut self, id: TaskId) {
        if let Some(s) = self.edge_slot_of(id) {
            let e = &mut self.edges[s];
            for span in [&mut e.succ, &mut e.pred].into_iter().flatten() {
                span.len = 0;
            }
        }
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
#[derive(Debug, Clone)]
pub struct GraphPatch {
    base_capacity: usize,
    ops: Vec<PatchOp>,
    /// [`op_log_fingerprint`] of the log, folded in while recording.
    fingerprint: u64,
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
/// randomness. The state is the hash, so a recording overlay can resume
/// a finished patch's.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    /// The state after hashing the arena capacity of a patch's base.
    fn for_base(base_capacity: usize) -> Self {
        let mut h = Fnv(FNV_OFFSET);
        base_capacity.hash(&mut h);
        h
    }
}

/// The content hash of an op log recorded over a base arena of
/// `base_capacity` tasks: the base capacity, then each op in order. This
/// is the definition [`GraphPatch::fingerprint`] returns, which the
/// overlay computes op by op as it records; equal logs over equal
/// arenas hash equally.
pub fn op_log_fingerprint(base_capacity: usize, ops: &[PatchOp]) -> u64 {
    let mut h = Fnv::for_base(base_capacity);
    for op in ops {
        op.hash(&mut h);
    }
    h.finish()
}

/// The op log an overlay records, hashed as it grows.
#[derive(Debug)]
struct OpLog {
    ops: Vec<PatchOp>,
    hash: Fnv,
}

impl OpLog {
    fn push(&mut self, op: PatchOp) {
        op.hash(&mut self.hash);
        self.ops.push(op);
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a64_continue(self.0, bytes);
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
    /// Hashed while recording, so this is a read; it always equals
    /// [`op_log_fingerprint`] of [`GraphPatch::ops`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
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

    /// Distinct *base* tasks whose duration the patch changes, in the
    /// order the patch first modified them, read from the net delta in
    /// O(touched). (Memory-objective derivation maps these to layers via
    /// the base graph; inserted tasks carry their own state.)
    pub fn retimed_base_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        let d = &self.delta;
        d.touched
            .iter()
            .copied()
            .filter(|&id| id.0 < self.base_capacity && d.flag(id) & F_DUR != 0)
    }

    /// Final state of the tasks this patch inserts (and keeps), in
    /// insertion order.
    pub fn inserted_tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        let d = &self.delta;
        d.new_ids
            .iter()
            .zip(&d.inserted)
            .filter(|(id, _)| !d.is_removed(**id))
            .map(|(id, n)| (*id, &*n.task))
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
    /// The base's task index, which the selection helpers read.
    index: Option<&'a TaskIndex>,
    log: OpLog,
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
            index: None,
            log: OpLog {
                ops: Vec::new(),
                hash: Fnv::for_base(base.capacity()),
            },
            delta: NetDelta::new(base.capacity()),
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
            index: None,
            log: OpLog {
                ops: prior.ops.clone(),
                hash: Fnv(prior.fingerprint),
            },
            delta: prior.delta.clone(),
            scratch: RemovalScratch::default(),
        }
    }

    /// This overlay with `index`, built from its base by
    /// [`TaskIndex::build`], for the
    /// [`select`](crate::transform::select) helpers to read: they answer
    /// from it until the overlay's edits could change their answer. The
    /// recorded patch is the same with or without it.
    ///
    /// # Panics
    ///
    /// Panics if `index` was built from a graph of another arena size.
    pub fn with_index(mut self, index: &'a TaskIndex) -> Self {
        assert_eq!(
            index.capacity(),
            self.base.capacity(),
            "task index built from a different base arena"
        );
        self.index = Some(index);
        self
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
            ops: self.log.ops,
            fingerprint: self.log.hash.finish(),
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

    fn edge_exists(&self, from: TaskId, to: TaskId) -> bool {
        GraphView::successors(self, from)
            .iter()
            .any(|&(t, _)| t == to)
    }

    /// Writes the edge into both endpoints' overlay lists. Records no op:
    /// `add_dep` records its own, and bridges belong to `RemoveTask` ops.
    fn push_edge(&mut self, from: TaskId, to: TaskId, kind: DepKind) {
        let (base, d) = (self.base, &mut self.delta);
        d.push_list(base, from, Side::Succ, (to, kind));
        d.push_list(base, to, Side::Pred, (from, kind));
    }

    /// The merged view of base task `id`, whose override flags are `f`.
    /// Built lazily: every setter keeps a built cell in sync, so a hit
    /// is always current.
    fn merged(&self, id: TaskId, f: u8) -> &Task {
        let d = &self.delta;
        d.merged_cell(id).get_or_init(|| {
            let i = id.0;
            let mut t = self.base.task(id).clone();
            if f & F_DUR != 0 {
                t.duration_ns = d.dur[i];
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
}

impl GraphView for PatchGraph<'_> {
    fn task(&self, id: TaskId) -> &Task {
        let d = &self.delta;
        if let Some(t) = d.inserted_task(id) {
            return t;
        }
        match d.flag(id) {
            0 => self.base.task(id),
            f => self.merged(id, f),
        }
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
            let t = match self.delta.flag(id) {
                0 => t,
                f => self.merged(id, f),
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

    // The same walk as `select_ids`, stopping at the first match.
    fn find_id(&self, pred: impl Fn(&Task) -> bool) -> Option<TaskId> {
        for (id, t) in self.base.iter() {
            if self.delta.is_removed(id) {
                continue;
            }
            let t = match self.delta.flag(id) {
                0 => t,
                f => self.merged(id, f),
            };
            if pred(t) {
                return Some(id);
            }
        }
        let mut inserted = self.delta.new_ids().iter().copied();
        inserted.find(|&id| !self.delta.is_removed(id) && pred(self.delta.new_task(id)))
    }

    fn base_index(&self, unless: Edits) -> Option<&TaskIndex> {
        self.index
            .filter(|_| !self.delta.edits().intersects(unless))
    }
}

impl GraphEdit for PatchGraph<'_> {
    fn add_task(&mut self, task: Task) -> TaskId {
        let id = TaskId(self.capacity());
        let task = Arc::new(task);
        self.log.push(PatchOp::AddTask {
            task: Arc::clone(&task),
        });
        let d = &mut self.delta;
        d.touched.push(id);
        d.inserted.push(Inserted {
            task,
            edge: NO_SLOT,
        });
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
            self.log.push(PatchOp::AddDep { from, to, kind });
        }
    }

    fn remove_dep(&mut self, from: TaskId, to: TaskId) {
        if !self.edge_exists(from, to) {
            return;
        }
        let (base, d) = (self.base, &mut self.delta);
        d.retain_list(base, from, Side::Succ, |t| t != to);
        d.retain_list(base, to, Side::Pred, |t| t != from);
        self.log.push(PatchOp::RemoveDep { from, to });
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
                self.log.push(PatchOp::RemoveTask { id });
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
            d.clear_lists(r);
        }
        for &(p, x, kind) in &s.bridges {
            self.push_edge(p, x, kind);
        }
        self.scratch = s;
    }

    fn set_duration(&mut self, id: TaskId, duration_ns: u64) {
        self.set_durations(&[(id, duration_ns)]);
    }

    // One reserve, then each retime is a flag, a store and an op.
    fn set_durations(&mut self, retimes: &[(TaskId, u64)]) {
        self.log.ops.reserve(retimes.len());
        let d = &mut self.delta;
        for &(id, ns) in retimes {
            if id.0 < d.base_cap {
                base_array(&mut d.dur, d.base_cap, 0)[id.0] = ns;
            }
            if let Some(t) = d.write(id, F_DUR) {
                t.duration_ns = ns;
            }
            self.log.push(PatchOp::SetDuration { id, ns });
        }
    }

    fn set_name(&mut self, id: TaskId, name: String) {
        let d = &mut self.delta;
        if id.0 < d.base_cap {
            d.name.insert(id.0, name.clone());
        }
        if let Some(t) = d.write(id, F_NAME) {
            t.name = name.clone();
        }
        self.log.push(PatchOp::SetName { id, name });
    }

    fn set_kind(&mut self, id: TaskId, kind: TaskKind) {
        let d = &mut self.delta;
        if id.0 < d.base_cap {
            d.kind.insert(id.0, kind.clone());
        }
        if let Some(t) = d.write(id, F_KIND) {
            t.kind = kind.clone();
        }
        self.log.push(PatchOp::SetKind { id, kind });
    }

    fn set_thread(&mut self, id: TaskId, thread: ExecThread) {
        let d = &mut self.delta;
        if id.0 < d.base_cap {
            base_array(&mut d.thread, d.base_cap, NO_THREAD)[id.0] = thread;
        }
        if let Some(t) = d.write(id, F_THREAD) {
            t.thread = thread;
        }
        self.log.push(PatchOp::SetThread { id, thread });
    }

    fn set_priority(&mut self, id: TaskId, priority: i64) {
        let d = &mut self.delta;
        if id.0 < d.base_cap {
            base_array(&mut d.prio, d.base_cap, 0)[id.0] = priority;
        }
        if let Some(t) = d.write(id, F_PRIO) {
            t.priority = priority;
        }
        self.log.push(PatchOp::SetPriority { id, priority });
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
    fn bulk_retime_records_what_single_retimes_record() {
        let g = chain(4);
        let retime = |bulk: bool| {
            let mut p = PatchGraph::new(&g);
            let n = p.add_task(cpu("n", 5));
            // A built merged view must follow later retimes.
            p.set_priority(TaskId(2), 3);
            assert_eq!(GraphView::task(&p, TaskId(2)).duration_ns, 10);
            let runs = [(TaskId(0), 7), (n, 8), (TaskId(2), 9), (TaskId(0), 6)];
            if bulk {
                p.set_durations(&runs);
            } else {
                for (id, ns) in runs {
                    p.set_duration(id, ns);
                }
            }
            let reads: Vec<u64> = (0..5)
                .map(|i| GraphView::task(&p, TaskId(i)).duration_ns)
                .collect();
            assert_eq!(reads, [6, 10, 9, 10, 8]);
            p.finish()
        };
        let (bulk, single) = (retime(true), retime(false));
        assert_eq!(bulk.ops(), single.ops());
        assert_eq!(bulk.fingerprint(), single.fingerprint());
        let retimed: Vec<TaskId> = bulk.retimed_base_ids().collect();
        assert_eq!(
            retimed,
            [TaskId(2), TaskId(0)],
            "first-touch order, base only"
        );
    }

    #[test]
    fn inserted_tasks_take_every_setter() {
        let g = chain(2);
        let mut p = PatchGraph::new(&g);
        let n = p.add_task(cpu("n", 5));
        p.set_duration(n, 11);
        p.set_name(n, "renamed".into());
        p.set_kind(n, TaskKind::GpuKernel);
        let gpu = ExecThread::Gpu(daydream_trace::DeviceId(0), daydream_trace::StreamId(1));
        p.set_thread(n, gpu);
        p.set_priority(n, -2);
        let t = GraphView::task(&p, n).clone();
        assert_eq!(
            (t.duration_ns, t.name.as_str(), t.thread, t.priority),
            (11, "renamed", gpu, -2)
        );
        assert_eq!(t.kind, TaskKind::GpuKernel);
        let patch = p.finish();
        let s = patch
            .delta()
            .scalars(n)
            .expect("inserted tasks carry every field");
        assert_eq!(
            (s.duration_ns, s.gap_ns, s.priority, s.thread),
            (Some(11), Some(0), Some(-2), Some(gpu))
        );
        assert_eq!(patch.retimed_base_ids().count(), 0);
        let replayed = patch.apply_reference(&g);
        assert_eq!(replayed.task(n), &t);
    }

    #[test]
    fn edge_lists_outgrow_their_room_and_match_the_replay() {
        // One predecessor list takes many pushes while other lists are
        // copied into the pool after it, so it must move; removals and
        // bridges then edit lists in the middle of the pool.
        let g = chain(6);
        let mut p = PatchGraph::new(&g);
        let hub = TaskId(5);
        let mut added = Vec::new();
        for i in 0..9 {
            let n = p.add_task(cpu(&format!("n{i}"), 1));
            p.add_dep(TaskId(i % 4), n, DepKind::Transform);
            p.add_dep(n, hub, DepKind::Transform);
            added.push(n);
        }
        p.remove_dep(added[3], hub);
        p.remove_task(TaskId(2));
        p.remove_task(added[0]);
        let patch = p.finish();
        let replayed = patch.apply_reference(&g);
        let view = PatchGraph::layered(&g, &patch);
        for id in replayed.iter().map(|(id, _)| id) {
            let sorted = |l: &[(TaskId, DepKind)]| {
                let mut l = l.to_vec();
                l.sort_unstable_by_key(|&(t, _)| t);
                l.into_iter().map(|(t, _)| t).collect::<Vec<_>>()
            };
            assert_eq!(
                sorted(GraphView::successors(&view, id)),
                sorted(replayed.successors(id)),
                "successors of {id:?}"
            );
            assert_eq!(
                sorted(GraphView::predecessors(&view, id)),
                sorted(replayed.predecessors(id)),
                "predecessors of {id:?}"
            );
        }
        assert_eq!(GraphView::predecessors(&view, hub).len(), 8 + 1);
    }

    #[test]
    fn find_id_walks_the_base_then_the_inserted_tasks() {
        let g = chain(4);
        let mut p = PatchGraph::new(&g);
        p.remove_task(TaskId(1));
        p.set_duration(TaskId(3), 50);
        let n = p.add_task(cpu("n", 50));
        assert_eq!(p.find_id(|t| t.duration_ns == 10), Some(TaskId(0)));
        assert_eq!(
            p.find_id(|t| t.name == "t1"),
            None,
            "removed tasks are skipped"
        );
        assert_eq!(p.find_id(|t| t.duration_ns == 50), Some(TaskId(3)));
        assert_eq!(p.find_id(|t| t.name == "n"), Some(n));
        assert_eq!(p.find_id(|t| t.name == "absent"), None);
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
