//! The task index of a base graph: the §4.4 Select primitive's answers,
//! computed once per base instead of once per scenario.
//!
//! Every catalog what-if starts by selecting tasks of the profiled graph:
//! all GPU kernels, one phase, the kernels of some layers, the
//! communication tasks, or a layer's first and last kernels. A
//! [`TaskIndex`] records those selections from the unmodified graph,
//! together with the per-kernel classes the planners test by name:
//! AMP's Tensor Core rule, Gist's ReLU rule and upgrade-gpu's binding
//! rate. A [`crate::PatchGraph`] built over an indexed base
//! ([`crate::PatchGraph::with_index`]) hands the index to the
//! [`crate::transform::select`] helpers through
//! [`crate::GraphView::base_index`] for as long as its edits cannot have
//! changed a helper's answer; after that the helper scans. Either way a
//! helper returns exactly the ids a scan of the overlay returns, in the
//! same order.

use crate::graph::{DependencyGraph, GraphView, TaskId};
use crate::task::{LayerRef, Task, TaskKind};
use crate::whatif::{gpu_bound, is_relu_kernel, uses_tensor_cores, GpuBound};
use daydream_trace::{LayerId, Phase};

/// Kinds of overlay edit that can change what a selection returns.
///
/// An overlay reports the kinds it has made since its base
/// ([`crate::GraphView::base_index`]); a selection helper names the kinds
/// its answer depends on, and scans when the overlay has made one of
/// them. Retimes, priorities and edge edits change no selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edits(u8);

impl Edits {
    /// No edit.
    pub const NONE: Edits = Edits(0);
    /// A task was inserted.
    pub const INSERT: Edits = Edits(1);
    /// A task was removed.
    pub const REMOVE: Edits = Edits(1 << 1);
    /// A base task moved to another thread.
    pub const THREAD: Edits = Edits(1 << 2);
    /// A base task's kind changed.
    pub const KIND: Edits = Edits(1 << 3);
    /// A base task was renamed.
    pub const NAME: Edits = Edits(1 << 4);

    /// Both sets of edits.
    pub const fn union(self, other: Edits) -> Edits {
        Edits(self.0 | other.0)
    }

    /// `true` if the two sets share an edit.
    pub const fn intersects(self, other: Edits) -> bool {
        self.0 & other.0 != 0
    }
}

/// One GPU task of an indexed base, with the classes planners select
/// kernels by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GpuTask {
    pub(crate) id: TaskId,
    pub(crate) layer: Option<LayerRef>,
    /// AMP's Tensor Core rule ([`uses_tensor_cores`]).
    pub(crate) tensor_core: bool,
    /// Gist's ReLU rule ([`is_relu_kernel`]).
    pub(crate) relu: bool,
}

impl GpuTask {
    pub(crate) fn in_phase(&self, phase: Phase) -> bool {
        self.layer.is_some_and(|l| l.phase == phase)
    }
}

/// The GPU tasks that anchor insertions around one layer: vDNN offloads
/// after the last forward kernel and prefetches before the first
/// backward one, and DDP's all-reduce waits for the last backward one.
/// Of tasks with equal measured starts, the lowest id is the anchor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerAnchors {
    /// The layer's forward GPU task with the latest measured start.
    pub fwd_last: Option<TaskId>,
    /// The layer's backward GPU task with the earliest measured start.
    pub bwd_first: Option<TaskId>,
    /// The layer's backward GPU task with the latest measured start.
    pub bwd_last: Option<TaskId>,
}

/// The layer anchors of the live tasks `ids` (ascending) of `g`, indexed
/// by layer id: one pass, shared by the index build and the selection
/// helpers' scan.
pub(crate) fn layer_anchors_of<G: GraphView>(
    g: &G,
    ids: impl IntoIterator<Item = TaskId>,
) -> Vec<LayerAnchors> {
    let mut anchors: Vec<LayerAnchors> = Vec::new();
    let start = |id: Option<TaskId>| id.map(|id| g.task(id).measured_start_ns);
    for id in ids {
        let t = g.task(id);
        let Some(l) = t.layer.filter(|_| t.is_on_gpu()) else {
            continue;
        };
        let slot = l.layer.0 as usize;
        if anchors.len() <= slot {
            anchors.resize(slot + 1, LayerAnchors::default());
        }
        let a = &mut anchors[slot];
        let s = t.measured_start_ns;
        match l.phase {
            Phase::Forward => {
                if start(a.fwd_last).is_none_or(|cur| cur < s) {
                    a.fwd_last = Some(id);
                }
            }
            Phase::Backward => {
                if start(a.bwd_first).is_none_or(|cur| cur > s) {
                    a.bwd_first = Some(id);
                }
                if start(a.bwd_last).is_none_or(|cur| cur < s) {
                    a.bwd_last = Some(id);
                }
            }
            Phase::WeightUpdate => {}
        }
    }
    anchors
}

/// Filler of [`TaskIndex`]'s layer table: the task has no layer.
const NO_LAYER: u32 = u32::MAX;

/// The slot of a phase in the index's per-phase tables.
pub(crate) fn phase_slot(phase: Phase) -> usize {
    match phase {
        Phase::Forward => 0,
        Phase::Backward => 1,
        Phase::WeightUpdate => 2,
    }
}

/// What the planners select from a base graph, recorded once from the
/// unmodified graph. Build it with [`TaskIndex::build`] and hand it to
/// overlays over that graph with [`crate::PatchGraph::with_index`].
///
/// Every list is in ascending id order, the order a scan visits tasks.
#[derive(Debug, Clone)]
pub struct TaskIndex {
    /// Arena capacity of the indexed graph.
    capacity: usize,
    /// Each task's layer id, indexed by task id (`NO_LAYER` = none).
    layer: Vec<u32>,
    /// Live GPU tasks.
    pub(crate) gpu: Vec<GpuTask>,
    /// Live GPU tasks with upgrade-gpu's binding rate ([`gpu_bound`]),
    /// which a retime reads in place.
    pub(crate) bounds: Vec<(TaskId, GpuBound)>,
    /// Each phase's tasks, CPU and GPU alike.
    pub(crate) by_phase: [Vec<TaskId>; 3],
    /// Each phase's task with the earliest measured start (the lowest id
    /// among equal starts).
    pub(crate) first_of_phase: [Option<TaskId>; 3],
    /// Communication tasks.
    pub(crate) comm: Vec<TaskId>,
    /// Each layer's GPU tasks, indexed by layer id.
    pub(crate) layer_gpu: Vec<Vec<TaskId>>,
    /// Each layer's anchors, indexed by layer id.
    pub(crate) anchors: Vec<LayerAnchors>,
    /// The lowest-id task of a GPU kind.
    pub(crate) first_gpu: Option<TaskId>,
}

impl TaskIndex {
    /// Indexes the live tasks of `g`.
    pub fn build(g: &DependencyGraph) -> TaskIndex {
        let mut ix = TaskIndex {
            capacity: g.capacity(),
            layer: vec![NO_LAYER; g.capacity()],
            gpu: Vec::new(),
            bounds: Vec::new(),
            by_phase: Default::default(),
            first_of_phase: [None; 3],
            comm: Vec::new(),
            layer_gpu: Vec::new(),
            anchors: layer_anchors_of(g, g.iter().map(|(id, _)| id)),
            first_gpu: None,
        };
        for (id, t) in g.iter() {
            if let Some(l) = t.layer {
                ix.layer[id.0] = l.layer.0;
                let p = phase_slot(l.phase);
                ix.by_phase[p].push(id);
                let first = &mut ix.first_of_phase[p];
                if first.is_none_or(|f| g.task(f).measured_start_ns > t.measured_start_ns) {
                    *first = Some(id);
                }
            }
            if matches!(t.kind, TaskKind::Communication { .. }) {
                ix.comm.push(id);
            }
            if ix.first_gpu.is_none() && t.kind.is_gpu() {
                ix.first_gpu = Some(id);
            }
            if t.is_on_gpu() {
                ix.push_gpu(id, t);
            }
        }
        ix
    }

    fn push_gpu(&mut self, id: TaskId, t: &Task) {
        if let Some(l) = t.layer {
            let slot = l.layer.0 as usize;
            if self.layer_gpu.len() <= slot {
                self.layer_gpu.resize(slot + 1, Vec::new());
            }
            self.layer_gpu[slot].push(id);
        }
        self.gpu.push(GpuTask {
            id,
            layer: t.layer,
            tensor_core: uses_tensor_cores(t),
            relu: is_relu_kernel(t),
        });
        self.bounds.push((id, gpu_bound(t)));
    }

    /// Arena capacity of the indexed graph.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The layer of task `id` of the indexed graph, if it has one (and
    /// `None` for ids the graph never issued), read from one compact
    /// table.
    pub fn layer_of(&self, id: TaskId) -> Option<LayerId> {
        self.layer
            .get(id.0)
            .filter(|&&l| l != NO_LAYER)
            .map(|&l| LayerId(l))
    }
}
