//! The kernel-granularity dependency graph (paper §4.2).
//!
//! An arena of [`Task`]s plus typed edges. Removal uses tombstones and
//! bridges thread-sequence edges so the per-thread "linked list" the paper
//! describes stays intact (Fig. 4).

use crate::index::{Edits, TaskIndex};
use crate::task::{ExecThread, Task, TaskKind};
use serde::{map_get, DeError, Deserialize, Serialize, Value};
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// Index of a task in the graph arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub usize);

/// The five dependency types of paper §4.2.2, plus edges added by
/// graph transformations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DepKind {
    /// Sequential order of CPU tasks in the same thread.
    CpuSeq,
    /// Sequential order of GPU tasks in the same CUDA stream.
    GpuSeq,
    /// Correlation from a CUDA launch API to the GPU task it triggers.
    Correlation,
    /// CUDA synchronization: GPU task to blocked CPU task.
    Sync,
    /// Communication dependency (gradient ready -> transfer -> consumer).
    Comm,
    /// Edge introduced by a what-if transformation.
    Transform,
}

/// Errors from graph structural validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph contains a dependency cycle.
    Cycle,
    /// An edge references a removed task.
    EdgeToRemoved(TaskId, TaskId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Cycle => write!(f, "dependency graph contains a cycle"),
            GraphError::EdgeToRemoved(a, b) => {
                write!(f, "edge {} -> {} touches a removed task", a.0, b.0)
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Read access to a (possibly virtual) dependency graph.
///
/// Implemented by [`DependencyGraph`] itself and by
/// [`crate::patch::PatchGraph`], the copy-on-write overlay that what-if
/// planners emit [`crate::patch::GraphPatch`]es through. The §4.4
/// primitives ([`crate::transform`]) are generic over this trait, so one
/// implementation serves both the patch-emitting path and the
/// mutate-in-place oracle.
pub trait GraphView {
    /// Immutable task access.
    fn task(&self, id: TaskId) -> &Task;

    /// Successors of a task.
    fn successors(&self, id: TaskId) -> &[(TaskId, DepKind)];

    /// Predecessors of a task.
    fn predecessors(&self, id: TaskId) -> &[(TaskId, DepKind)];

    /// Live task ids in ascending order.
    fn live_ids(&self) -> Vec<TaskId>;

    /// Live tasks satisfying a predicate (the Select primitive, §4.4).
    fn select_ids(&self, pred: impl Fn(&Task) -> bool) -> Vec<TaskId> {
        self.live_ids()
            .into_iter()
            .filter(|&id| pred(self.task(id)))
            .collect()
    }

    /// The lowest live id whose task satisfies a predicate, if any.
    fn find_id(&self, pred: impl Fn(&Task) -> bool) -> Option<TaskId> {
        self.live_ids().into_iter().find(|&id| pred(self.task(id)))
    }

    /// The task index of this view's unmodified base, if the view has
    /// one and has made none of the `unless` edits since. Only a
    /// [`crate::PatchGraph`] built [`with_index`](crate::PatchGraph::with_index)
    /// has one. The [`select`](crate::transform::select) helpers answer
    /// from it and scan where this returns `None`.
    fn base_index(&self, unless: Edits) -> Option<&TaskIndex> {
        let _ = unless;
        None
    }
}

/// Mutation access to a (possibly virtual) dependency graph.
///
/// [`DependencyGraph`] applies these directly; [`crate::patch::PatchGraph`]
/// records them as typed [`crate::patch::PatchOp`]s while maintaining a
/// read-consistent overlay. Field updates are typed (no `task_mut`
/// escape hatch) precisely so they stay recordable.
pub trait GraphEdit: GraphView {
    /// Adds a task, returning its id.
    fn add_task(&mut self, task: Task) -> TaskId;

    /// Adds a dependency edge (duplicates and self-edges ignored).
    fn add_dep(&mut self, from: TaskId, to: TaskId, kind: DepKind);

    /// Removes the edge `from -> to` if present.
    fn remove_dep(&mut self, from: TaskId, to: TaskId);

    /// Removes a task, bridging its thread sequences (Remove primitive).
    fn remove_task(&mut self, id: TaskId);

    /// Removes every task in `ids`, as if by [`GraphEdit::remove_task`]
    /// on each id in order. Duplicates and ids already removed are
    /// skipped.
    ///
    /// An implementation may remove the set in one pass instead. It must
    /// then record the same removals in the same order, and leave every
    /// live task with the same successor set as the sequential removals:
    /// `u -> v` for each pair of live tasks joined by an edge or by a
    /// path whose inner tasks are all removed. A bridged edge takes
    /// `remove_task`'s kind rule along the path that first reaches it
    /// (equal kinds are kept, otherwise [`DepKind::Transform`]), so where
    /// several removed paths join the same pair its kind can differ from
    /// the sequential result. Simulation and compilation ignore kinds.
    fn remove_tasks(&mut self, ids: &[TaskId]) {
        for &id in ids {
            self.remove_task(id);
        }
    }

    /// Sets a task's duration (the shrink/scale primitives).
    fn set_duration(&mut self, id: TaskId, duration_ns: u64);

    /// Sets each `(id, duration_ns)` pair's duration, as if by
    /// [`GraphEdit::set_duration`] on each pair in order. An
    /// implementation may record the whole run in one pass.
    fn set_durations(&mut self, retimes: &[(TaskId, u64)]) {
        for &(id, ns) in retimes {
            self.set_duration(id, ns);
        }
    }

    /// Renames a task.
    fn set_name(&mut self, id: TaskId, name: String);

    /// Changes what a task does (e.g. rewritten payload bytes).
    fn set_kind(&mut self, id: TaskId, kind: TaskKind);

    /// Moves a task to a different execution thread.
    fn set_thread(&mut self, id: TaskId, thread: ExecThread);

    /// Sets a task's scheduling priority (the Schedule override).
    fn set_priority(&mut self, id: TaskId, priority: i64);
}

impl GraphView for DependencyGraph {
    fn task(&self, id: TaskId) -> &Task {
        DependencyGraph::task(self, id)
    }

    fn successors(&self, id: TaskId) -> &[(TaskId, DepKind)] {
        DependencyGraph::successors(self, id)
    }

    fn predecessors(&self, id: TaskId) -> &[(TaskId, DepKind)] {
        DependencyGraph::predecessors(self, id)
    }

    fn live_ids(&self) -> Vec<TaskId> {
        self.iter().map(|(id, _)| id).collect()
    }
}

impl GraphEdit for DependencyGraph {
    fn add_task(&mut self, task: Task) -> TaskId {
        DependencyGraph::add_task(self, task)
    }

    fn add_dep(&mut self, from: TaskId, to: TaskId, kind: DepKind) {
        DependencyGraph::add_dep(self, from, to, kind)
    }

    fn remove_dep(&mut self, from: TaskId, to: TaskId) {
        DependencyGraph::remove_dep(self, from, to)
    }

    fn remove_task(&mut self, id: TaskId) {
        DependencyGraph::remove_task(self, id)
    }

    fn set_duration(&mut self, id: TaskId, duration_ns: u64) {
        self.task_mut(id).duration_ns = duration_ns;
    }

    fn set_name(&mut self, id: TaskId, name: String) {
        self.task_mut(id).name = name;
    }

    fn set_kind(&mut self, id: TaskId, kind: TaskKind) {
        self.task_mut(id).kind = kind;
    }

    fn set_thread(&mut self, id: TaskId, thread: ExecThread) {
        self.task_mut(id).thread = thread;
    }

    fn set_priority(&mut self, id: TaskId, priority: i64) {
        self.task_mut(id).priority = priority;
    }
}

/// The dependency graph: tasks plus typed edges.
///
/// An `edges` hash set mirrors the adjacency lists so duplicate detection
/// in [`DependencyGraph::add_dep`] is O(1) amortized instead of a linear
/// scan of the source's out-list — bulk construction (profiles with
/// hundreds of thousands of edges, iteration unrolling) is linear overall.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DependencyGraph {
    tasks: Vec<Task>,
    removed: Vec<bool>,
    succ: Vec<Vec<(TaskId, DepKind)>>,
    pred: Vec<Vec<(TaskId, DepKind)>>,
    edges: HashSet<u64>,
}

/// The kind of the edge that bridges a removed task: an edge of kind
/// `into` reaches it and one of kind `out` leaves it. Equal kinds are
/// kept; otherwise the bridge is a [`DepKind::Transform`] edge.
pub(crate) fn bridge_kind(into: DepKind, out: DepKind) -> DepKind {
    if into == out {
        into
    } else {
        DepKind::Transform
    }
}

/// Packed `(from, to)` key for the edge set.
fn edge_key(from: TaskId, to: TaskId) -> u64 {
    debug_assert!(from.0 < u32::MAX as usize && to.0 < u32::MAX as usize);
    ((from.0 as u64) << 32) | (to.0 as u64 & 0xffff_ffff)
}

impl DependencyGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves arena capacity for at least `additional` more tasks.
    pub fn reserve(&mut self, additional: usize) {
        self.tasks.reserve(additional);
        self.removed.reserve(additional);
        self.succ.reserve(additional);
        self.pred.reserve(additional);
    }

    /// Adds a task, returning its id.
    pub fn add_task(&mut self, task: Task) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(task);
        self.removed.push(false);
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        id
    }

    /// Adds a dependency edge `from -> to`.
    ///
    /// Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of bounds.
    pub fn add_dep(&mut self, from: TaskId, to: TaskId, kind: DepKind) {
        assert!(from.0 < self.tasks.len() && to.0 < self.tasks.len());
        if from == to || !self.edges.insert(edge_key(from, to)) {
            return;
        }
        self.succ[from.0].push((to, kind));
        self.pred[to.0].push((from, kind));
    }

    /// Removes a task, bridging its predecessors to its successors so
    /// per-thread sequences stay connected (paper's Remove primitive).
    pub fn remove_task(&mut self, id: TaskId) {
        if self.removed[id.0] {
            return;
        }
        self.removed[id.0] = true;
        let preds = self.pred[id.0].clone();
        let succs = self.succ[id.0].clone();
        // Detach.
        for &(p, _) in &preds {
            self.succ[p.0].retain(|&(t, _)| t != id);
            self.edges.remove(&edge_key(p, id));
        }
        for &(s, _) in &succs {
            self.pred[s.0].retain(|&(t, _)| t != id);
            self.edges.remove(&edge_key(id, s));
        }
        self.pred[id.0].clear();
        self.succ[id.0].clear();
        // Bridge.
        for &(p, pk) in &preds {
            for &(s, sk) in &succs {
                self.add_dep(p, s, bridge_kind(pk, sk));
            }
        }
    }

    /// Returns `true` if the task has been removed.
    pub fn is_removed(&self, id: TaskId) -> bool {
        self.removed[id.0]
    }

    /// Immutable task access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Mutable task access (the shrink/scale primitives go through this).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn task_mut(&mut self, id: TaskId) -> &mut Task {
        &mut self.tasks[id.0]
    }

    /// Iterates over live `(TaskId, &Task)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks
            .iter()
            .enumerate()
            .filter(move |(i, _)| !self.removed[*i])
            .map(|(i, t)| (TaskId(i), t))
    }

    /// Number of live tasks.
    pub fn len(&self) -> usize {
        self.removed.iter().filter(|r| !**r).count()
    }

    /// Arena capacity including removed tasks, for index-aligned side
    /// tables (every `TaskId` ever issued is `< capacity()`).
    pub fn capacity(&self) -> usize {
        self.tasks.len()
    }

    /// Removes the edge `from -> to` if present.
    pub fn remove_dep(&mut self, from: TaskId, to: TaskId) {
        if !self.edges.remove(&edge_key(from, to)) {
            return;
        }
        self.succ[from.0].retain(|&(t, _)| t != to);
        self.pred[to.0].retain(|&(t, _)| t != from);
    }

    /// Returns `true` if the graph has no live tasks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Successors of a task.
    pub fn successors(&self, id: TaskId) -> &[(TaskId, DepKind)] {
        &self.succ[id.0]
    }

    /// Predecessors of a task.
    pub fn predecessors(&self, id: TaskId) -> &[(TaskId, DepKind)] {
        &self.pred[id.0]
    }

    /// Live tasks grouped by execution thread, in measured-start order.
    pub fn threads(&self) -> BTreeMap<ExecThread, Vec<TaskId>> {
        let mut map: BTreeMap<ExecThread, Vec<TaskId>> = BTreeMap::new();
        for (id, t) in self.iter() {
            map.entry(t.thread).or_default().push(id);
        }
        for ids in map.values_mut() {
            ids.sort_by_key(|id| (self.tasks[id.0].measured_start_ns, id.0));
        }
        map
    }

    /// Selects live tasks satisfying a predicate (the Select primitive,
    /// §4.4).
    pub fn select<F: Fn(&Task) -> bool>(&self, pred: F) -> Vec<TaskId> {
        self.iter()
            .filter(|(_, t)| pred(t))
            .map(|(id, _)| id)
            .collect()
    }

    /// Checks the graph is acyclic and edges touch only live tasks.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (id, _) in self.iter() {
            for &(s, _) in self.successors(id) {
                if self.removed[s.0] {
                    return Err(GraphError::EdgeToRemoved(id, s));
                }
            }
        }
        // Kahn's algorithm over live tasks.
        let mut indeg: Vec<usize> = vec![0; self.tasks.len()];
        let mut live = 0usize;
        for (id, _) in self.iter() {
            live += 1;
            indeg[id.0] = self.pred[id.0].len();
        }
        let mut stack: Vec<TaskId> = self
            .iter()
            .filter(|(id, _)| indeg[id.0] == 0)
            .map(|(id, _)| id)
            .collect();
        let mut seen = 0usize;
        while let Some(u) = stack.pop() {
            seen += 1;
            for &(v, _) in &self.succ[u.0] {
                indeg[v.0] -= 1;
                if indeg[v.0] == 0 {
                    stack.push(v);
                }
            }
        }
        if seen == live {
            Ok(())
        } else {
            Err(GraphError::Cycle)
        }
    }

    /// Total number of live edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

// The serde shim has no `HashSet` support (and the set is pure derived
// state), so the graph serializes its four list fields and rebuilds the
// edge set on deserialization.
impl Serialize for DependencyGraph {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("tasks".to_string(), self.tasks.to_value()),
            ("removed".to_string(), self.removed.to_value()),
            ("succ".to_string(), self.succ.to_value()),
            ("pred".to_string(), self.pred.to_value()),
        ])
    }
}

impl Deserialize for DependencyGraph {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError::expected("map", "DependencyGraph"))?;
        let tasks: Vec<Task> = Deserialize::from_value(map_get(m, "tasks"))?;
        let removed: Vec<bool> = Deserialize::from_value(map_get(m, "removed"))?;
        let succ: Vec<Vec<(TaskId, DepKind)>> = Deserialize::from_value(map_get(m, "succ"))?;
        let pred: Vec<Vec<(TaskId, DepKind)>> = Deserialize::from_value(map_get(m, "pred"))?;
        let mut edges = HashSet::with_capacity(succ.iter().map(Vec::len).sum());
        for (from, outs) in succ.iter().enumerate() {
            for &(to, _) in outs {
                edges.insert(edge_key(TaskId(from), to));
            }
        }
        Ok(DependencyGraph {
            tasks,
            removed,
            succ,
            pred,
            edges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKind;
    use daydream_trace::{CpuThreadId, DeviceId, StreamId};

    fn cpu_task(name: &str) -> Task {
        Task::new(name, TaskKind::CpuWork, ExecThread::Cpu(CpuThreadId(0)), 10)
    }

    fn gpu_task(name: &str) -> Task {
        Task::new(
            name,
            TaskKind::GpuKernel,
            ExecThread::Gpu(DeviceId(0), StreamId(0)),
            50,
        )
    }

    #[test]
    fn add_and_edge() {
        let mut g = DependencyGraph::new();
        let a = g.add_task(cpu_task("a"));
        let b = g.add_task(gpu_task("b"));
        g.add_dep(a, b, DepKind::Correlation);
        assert_eq!(g.len(), 2);
        assert_eq!(g.successors(a), &[(b, DepKind::Correlation)]);
        assert_eq!(g.predecessors(b), &[(a, DepKind::Correlation)]);
        g.validate().unwrap();
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let mut g = DependencyGraph::new();
        let a = g.add_task(cpu_task("a"));
        let b = g.add_task(cpu_task("b"));
        g.add_dep(a, b, DepKind::CpuSeq);
        g.add_dep(a, b, DepKind::CpuSeq);
        g.add_dep(a, a, DepKind::CpuSeq);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn removal_bridges_sequences() {
        let mut g = DependencyGraph::new();
        let a = g.add_task(cpu_task("a"));
        let b = g.add_task(cpu_task("b"));
        let c = g.add_task(cpu_task("c"));
        g.add_dep(a, b, DepKind::CpuSeq);
        g.add_dep(b, c, DepKind::CpuSeq);
        g.remove_task(b);
        assert!(g.is_removed(b));
        assert_eq!(g.len(), 2);
        // a -> c bridged with the common kind.
        assert_eq!(g.successors(a), &[(c, DepKind::CpuSeq)]);
        g.validate().unwrap();
    }

    #[test]
    fn removal_bridges_mixed_kinds_as_transform() {
        let mut g = DependencyGraph::new();
        let a = g.add_task(cpu_task("a"));
        let b = g.add_task(gpu_task("b"));
        let c = g.add_task(cpu_task("c"));
        g.add_dep(a, b, DepKind::Correlation);
        g.add_dep(b, c, DepKind::Sync);
        g.remove_task(b);
        assert_eq!(g.successors(a), &[(c, DepKind::Transform)]);
    }

    #[test]
    fn double_removal_is_noop() {
        let mut g = DependencyGraph::new();
        let a = g.add_task(cpu_task("a"));
        g.remove_task(a);
        g.remove_task(a);
        assert_eq!(g.len(), 0);
        assert!(g.is_empty());
    }

    #[test]
    fn cycle_detected() {
        let mut g = DependencyGraph::new();
        let a = g.add_task(cpu_task("a"));
        let b = g.add_task(cpu_task("b"));
        g.add_dep(a, b, DepKind::CpuSeq);
        g.add_dep(b, a, DepKind::Transform);
        assert_eq!(g.validate(), Err(GraphError::Cycle));
    }

    #[test]
    fn threads_grouping_sorted_by_measured_start() {
        let mut g = DependencyGraph::new();
        let mut t1 = cpu_task("late");
        t1.measured_start_ns = 100;
        let mut t2 = cpu_task("early");
        t2.measured_start_ns = 5;
        let a = g.add_task(t1);
        let b = g.add_task(t2);
        let threads = g.threads();
        assert_eq!(threads.len(), 1);
        let ids = &threads[&ExecThread::Cpu(CpuThreadId(0))];
        assert_eq!(ids, &[b, a]);
    }

    #[test]
    fn serde_roundtrip_rebuilds_edge_set() {
        let mut g = DependencyGraph::new();
        let a = g.add_task(cpu_task("a"));
        let b = g.add_task(gpu_task("b"));
        let c = g.add_task(cpu_task("c"));
        g.add_dep(a, b, DepKind::Correlation);
        g.add_dep(b, c, DepKind::Sync);
        g.remove_task(b);
        let json = serde_json::to_string(&g).unwrap();
        let back: DependencyGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
        // The rebuilt edge set still deduplicates.
        let mut back = back;
        back.add_dep(a, c, DepKind::Transform);
        assert_eq!(back.edge_count(), 1);
    }

    #[test]
    fn remove_dep_clears_dedup_state() {
        let mut g = DependencyGraph::new();
        let a = g.add_task(cpu_task("a"));
        let b = g.add_task(cpu_task("b"));
        g.add_dep(a, b, DepKind::CpuSeq);
        g.remove_dep(a, b);
        assert_eq!(g.edge_count(), 0);
        g.add_dep(a, b, DepKind::Transform);
        assert_eq!(g.successors(a), &[(b, DepKind::Transform)]);
    }

    #[test]
    fn select_by_predicate() {
        let mut g = DependencyGraph::new();
        g.add_task(cpu_task("a"));
        let b = g.add_task(gpu_task("sgemm_1"));
        g.add_task(gpu_task("relu"));
        let sel = g.select(|t| t.is_on_gpu() && t.name.contains("sgemm"));
        assert_eq!(sel, vec![b]);
    }
}
