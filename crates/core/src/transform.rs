//! Graph-transformation primitives (paper §4.4).
//!
//! The primitives are deliberately small: **select** tasks of interest (by
//! thread, name keyword, or layer), **shrink/scale** their durations,
//! **insert/remove** tasks in an execution thread's sequence (inserting a
//! GPU task also inserts the CPU launch that triggers it — Fig. 4), and
//! **schedule** (override the full simulator's policy via
//! [`crate::sim::FrontierOrder`]). §5 shows ten optimizations built from
//! these.
//!
//! Every primitive is generic over [`GraphEdit`], so the same code serves
//! two call paths: record a [`crate::patch::GraphPatch`] through a
//! [`crate::patch::PatchGraph`] overlay — the compile-once, patch-per-
//! scenario pipeline behind [`crate::predict()`] and the sweep engine — or
//! mutate a [`crate::DependencyGraph`] in place, the oracle the patch
//! pipeline is tested against.

use crate::graph::{DepKind, GraphEdit, GraphView, TaskId};
use crate::task::{ExecThread, Task, TaskKind};
use daydream_trace::{CudaApi, Phase};

/// Returns the same-thread sequence successor of a task, if any.
pub fn thread_successor<G: GraphView>(g: &G, id: TaskId) -> Option<TaskId> {
    let thread = g.task(id).thread;
    g.successors(id)
        .iter()
        .filter(|&&(s, k)| {
            matches!(k, DepKind::CpuSeq | DepKind::GpuSeq) && g.task(s).thread == thread
        })
        .map(|&(s, _)| s)
        .min_by_key(|s| g.task(*s).measured_start_ns)
}

/// Returns the same-thread sequence predecessor of a task, if any.
pub fn thread_predecessor<G: GraphView>(g: &G, id: TaskId) -> Option<TaskId> {
    let thread = g.task(id).thread;
    g.predecessors(id)
        .iter()
        .filter(|&&(p, k)| {
            matches!(k, DepKind::CpuSeq | DepKind::GpuSeq) && g.task(p).thread == thread
        })
        .map(|&(p, _)| p)
        .max_by_key(|p| g.task(*p).measured_start_ns)
}

/// Sequence-edge kind for a thread.
fn seq_kind(thread: ExecThread) -> DepKind {
    match thread {
        ExecThread::Cpu(_) => DepKind::CpuSeq,
        ExecThread::Gpu(_, _) => DepKind::GpuSeq,
        ExecThread::Comm(_) => DepKind::Comm,
    }
}

/// Inserts `task` into its thread's sequence directly after `after`
/// (the paper's Insert primitive, Fig. 4a).
///
/// The new task inherits `after`'s measured start for stable ordering.
///
/// # Panics
///
/// Panics if `task.thread` differs from `after`'s thread.
pub fn insert_after<G: GraphEdit>(g: &mut G, after: TaskId, mut task: Task) -> TaskId {
    let thread = g.task(after).thread;
    assert_eq!(
        task.thread, thread,
        "insert_after requires matching threads"
    );
    task.measured_start_ns = g.task(after).measured_start_ns + 1;
    let succ = thread_successor(g, after);
    let id = g.add_task(task);
    let kind = seq_kind(thread);
    if let Some(s) = succ {
        g.remove_dep(after, s);
        g.add_dep(id, s, kind);
    }
    g.add_dep(after, id, kind);
    id
}

/// Inserts `task` into its thread's sequence directly before `before`.
///
/// # Panics
///
/// Panics if `task.thread` differs from `before`'s thread.
pub fn insert_before<G: GraphEdit>(g: &mut G, before: TaskId, mut task: Task) -> TaskId {
    let thread = g.task(before).thread;
    assert_eq!(
        task.thread, thread,
        "insert_before requires matching threads"
    );
    task.measured_start_ns = g.task(before).measured_start_ns.saturating_sub(1);
    let pred = thread_predecessor(g, before);
    let id = g.add_task(task);
    let kind = seq_kind(thread);
    if let Some(p) = pred {
        g.remove_dep(p, before);
        g.add_dep(p, id, kind);
    }
    g.add_dep(id, before, kind);
    id
}

/// Inserts a GPU task after `gpu_after` on its stream, together with the
/// CPU launch API that triggers it after `cpu_after` (paper Fig. 4b).
///
/// Returns `(launch_id, kernel_id)`.
pub fn insert_gpu_task_with_launch<G: GraphEdit>(
    g: &mut G,
    cpu_after: TaskId,
    gpu_after: TaskId,
    kernel: Task,
    launch_dur_ns: u64,
) -> (TaskId, TaskId) {
    let cpu_thread = g.task(cpu_after).thread;
    let mut launch = Task::new(
        "cudaLaunchKernel",
        TaskKind::CpuApi(CudaApi::LaunchKernel),
        cpu_thread,
        launch_dur_ns,
    );
    launch.layer = kernel.layer;
    let launch_id = insert_after(g, cpu_after, launch);
    let kernel_id = insert_after(g, gpu_after, kernel);
    g.add_dep(launch_id, kernel_id, DepKind::Correlation);
    (launch_id, kernel_id)
}

/// Scales the durations of selected tasks by `factor` (shrink when < 1),
/// recording them as one bulk retime ([`GraphEdit::set_durations`]).
/// Each id is scaled from the duration it had before the call.
pub fn scale_durations<G: GraphEdit>(g: &mut G, sel: &[TaskId], factor: f64) {
    let retimes: Vec<(TaskId, u64)> = sel
        .iter()
        .map(|&id| (id, (g.task(id).duration_ns as f64 * factor).round() as u64))
        .collect();
    g.set_durations(&retimes);
}

/// Removes all selected tasks, bridging their thread sequences
/// ([`GraphEdit::remove_tasks`]: one pass over a patch overlay).
pub fn remove_all<G: GraphEdit>(g: &mut G, sel: &[TaskId]) {
    g.remove_tasks(sel);
}

/// Selection helpers mirroring the paper's `Select` examples (§4.4).
///
/// Every helper returns the live tasks a scan of the graph selects, in
/// ascending id order. Over a [`crate::PatchGraph`] built on an indexed
/// base ([`crate::PatchGraph::with_index`]) a helper reads the base's
/// [`crate::TaskIndex`] instead, while the overlay has made none of the
/// edits its answer depends on ([`GraphView::base_index`]); after such an
/// edit, and on every other graph, it scans.
pub mod select {
    use super::*;
    use crate::index::{layer_anchors_of, phase_slot, Edits, GpuTask, LayerAnchors, TaskIndex};
    use crate::whatif::{gpu_bound, is_relu_kernel, uses_tensor_cores, GpuBound};
    use daydream_trace::LayerId;
    use std::borrow::Cow;

    /// Edits that change which tasks are live. (A task's layer, and so
    /// its phase, is never edited.)
    const LIVE: Edits = Edits::INSERT.union(Edits::REMOVE);

    /// Edits that change which tasks are live GPU tasks.
    const GPU: Edits = LIVE.union(Edits::THREAD);

    /// The index's entries for the live GPU tasks (of `phase`, if given),
    /// while neither those nor the fields in `reads` were edited.
    fn indexed_gpu<'g, G: GraphView>(
        g: &'g G,
        phase: Option<Phase>,
        reads: Edits,
    ) -> Option<impl Iterator<Item = &'g GpuTask> + 'g> {
        let ix = g.base_index(GPU.union(reads))?;
        Some(
            ix.gpu
                .iter()
                .filter(move |k| phase.is_none_or(|p| k.in_phase(p))),
        )
    }

    /// All live GPU tasks (`Select(funcPtr(IsOnGPU))` in the algorithms).
    pub fn gpu_tasks<G: GraphView>(g: &G) -> Vec<TaskId> {
        match indexed_gpu(g, None, Edits::NONE) {
            Some(it) => it.map(|k| k.id).collect(),
            None => g.select_ids(|t| t.is_on_gpu()),
        }
    }

    /// Live GPU tasks (of `phase`, if given), each with AMP's Tensor Core
    /// flag: whether its name marks an `sgemm` or `scudnn` kernel.
    pub fn tensor_core_flags<G: GraphView>(g: &G, phase: Option<Phase>) -> Vec<(TaskId, bool)> {
        if let Some(it) = indexed_gpu(g, phase, Edits::NAME) {
            return it.map(|k| (k.id, k.tensor_core)).collect();
        }
        let ids = match phase {
            Some(p) => gpu_in_phase(g, p),
            None => gpu_tasks(g),
        };
        ids.into_iter()
            .map(|id| (id, uses_tensor_cores(g.task(id))))
            .collect()
    }

    /// Live GPU tasks, each with the device rate that binds it
    /// (upgrade-gpu's classes). A class depends only on the task's kind
    /// and name, so it holds for any target device.
    pub fn gpu_bounds<G: GraphView>(g: &G) -> Cow<'_, [(TaskId, GpuBound)]> {
        if let Some(ix) = g.base_index(GPU.union(Edits::NAME).union(Edits::KIND)) {
            return Cow::Borrowed(&ix.bounds);
        }
        let scan = gpu_tasks(g)
            .into_iter()
            .map(|id| (id, gpu_bound(g.task(id))))
            .collect();
        Cow::Owned(scan)
    }

    /// Tasks whose name contains a keyword (e.g. `"sgemm"`). Always scans.
    pub fn by_keyword<G: GraphView>(g: &G, keyword: &str) -> Vec<TaskId> {
        g.select_ids(|t| t.name.contains(keyword))
    }

    /// GPU tasks of a given phase.
    pub fn gpu_in_phase<G: GraphView>(g: &G, phase: Phase) -> Vec<TaskId> {
        match indexed_gpu(g, Some(phase), Edits::NONE) {
            Some(it) => it.map(|k| k.id).collect(),
            None => g.select_ids(|t| t.is_on_gpu() && t.in_phase(phase)),
        }
    }

    /// ReLU kernels (`elementwise_kernel_relu`, Gist's rule) of a phase.
    /// cuDNN convolutions with a fused ReLU carry "relu" in their names
    /// too, so the rule names the element-wise kernel.
    pub fn relu_kernels<G: GraphView>(g: &G, phase: Phase) -> Vec<TaskId> {
        if let Some(it) = indexed_gpu(g, Some(phase), Edits::NAME) {
            return it.filter(|k| k.relu).map(|k| k.id).collect();
        }
        g.select_ids(|t| t.is_on_gpu() && t.in_phase(phase) && is_relu_kernel(t))
    }

    /// All tasks (CPU and GPU) of a given phase.
    pub fn in_phase<G: GraphView>(g: &G, phase: Phase) -> Vec<TaskId> {
        match g.base_index(LIVE) {
            Some(ix) => ix.by_phase[phase_slot(phase)].clone(),
            None => g.select_ids(|t| t.in_phase(phase)),
        }
    }

    /// The task of a phase with the earliest measured start (the lowest
    /// id among equal starts).
    pub fn first_in_phase<G: GraphView>(g: &G, phase: Phase) -> Option<TaskId> {
        match g.base_index(LIVE) {
            Some(ix) => ix.first_of_phase[phase_slot(phase)],
            None => in_phase(g, phase)
                .into_iter()
                .min_by_key(|&id| g.task(id).measured_start_ns),
        }
    }

    /// GPU tasks belonging to a specific layer id.
    pub fn gpu_of_layer<G: GraphView>(g: &G, layer: LayerId) -> Vec<TaskId> {
        match g.base_index(GPU) {
            Some(ix) => ix
                .layer_gpu
                .get(layer.0 as usize)
                .cloned()
                .unwrap_or_default(),
            None => g.select_ids(|t| t.is_on_gpu() && t.layer.is_some_and(|l| l.layer == layer)),
        }
    }

    /// GPU tasks of the layers `in_set` accepts.
    pub fn gpu_of_layers<G: GraphView>(g: &G, in_set: impl Fn(LayerId) -> bool) -> Vec<TaskId> {
        let of_set = |l: Option<crate::task::LayerRef>| l.is_some_and(|l| in_set(l.layer));
        match indexed_gpu(g, None, Edits::NONE) {
            Some(it) => it.filter(|k| of_set(k.layer)).map(|k| k.id).collect(),
            None => g.select_ids(|t| t.is_on_gpu() && of_set(t.layer)),
        }
    }

    /// Every layer's [`LayerAnchors`], indexed by layer id (layers
    /// without GPU tasks get empty anchors or none).
    pub fn layer_anchors<G: GraphView>(g: &G) -> Cow<'_, [LayerAnchors]> {
        match g.base_index(GPU) {
            Some(ix) => Cow::Borrowed(&ix.anchors),
            None => Cow::Owned(layer_anchors_of(g, g.live_ids())),
        }
    }

    /// Communication tasks (`allReduce` and parameter-server transfers).
    pub fn comm_tasks<G: GraphView>(g: &G) -> Vec<TaskId> {
        match g.base_index(LIVE.union(Edits::KIND)) {
            Some(ix) => ix.comm.clone(),
            None => g.select_ids(|t| matches!(t.kind, TaskKind::Communication { .. })),
        }
    }

    /// The lowest live id of a GPU-kind task (a kernel or a copy). Tasks
    /// an overlay inserts sort after every base task, so the index's
    /// answer stands while no base task changed kind or was removed.
    pub fn first_gpu_task<G: GraphView>(g: &G) -> Option<TaskId> {
        g.base_index(Edits::REMOVE.union(Edits::KIND))
            .and_then(|ix: &TaskIndex| ix.first_gpu)
            .or_else(|| g.find_id(|t| t.kind.is_gpu()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DependencyGraph;
    use crate::sim::simulate;
    use daydream_trace::{CpuThreadId, DeviceId, StreamId};

    fn cpu(name: &str, dur: u64) -> Task {
        Task::new(
            name,
            TaskKind::CpuWork,
            ExecThread::Cpu(CpuThreadId(0)),
            dur,
        )
    }

    fn gpu(name: &str, dur: u64) -> Task {
        Task::new(
            name,
            TaskKind::GpuKernel,
            ExecThread::Gpu(DeviceId(0), StreamId(0)),
            dur,
        )
    }

    fn chain(g: &mut DependencyGraph, names: &[&str]) -> Vec<TaskId> {
        let mut ids = Vec::new();
        for (i, n) in names.iter().enumerate() {
            let mut t = cpu(n, 10);
            t.measured_start_ns = i as u64 * 100;
            let id = g.add_task(t);
            if let Some(&prev) = ids.last() {
                g.add_dep(prev, id, DepKind::CpuSeq);
            }
            ids.push(id);
        }
        ids
    }

    #[test]
    fn insert_after_splices() {
        let mut g = DependencyGraph::new();
        let ids = chain(&mut g, &["a", "b"]);
        let new = insert_after(&mut g, ids[0], cpu("x", 5));
        assert_eq!(thread_successor(&g, ids[0]), Some(new));
        assert_eq!(thread_successor(&g, new), Some(ids[1]));
        g.validate().unwrap();
        let r = simulate(&g).unwrap();
        assert_eq!(r.makespan_ns, 25);
    }

    #[test]
    fn insert_before_splices() {
        let mut g = DependencyGraph::new();
        let ids = chain(&mut g, &["a", "b"]);
        let new = insert_before(&mut g, ids[1], cpu("x", 5));
        assert_eq!(thread_successor(&g, ids[0]), Some(new));
        assert_eq!(thread_successor(&g, new), Some(ids[1]));
        g.validate().unwrap();
    }

    #[test]
    fn insert_then_remove_restores_makespan() {
        let mut g = DependencyGraph::new();
        let ids = chain(&mut g, &["a", "b", "c"]);
        let before = simulate(&g).unwrap().makespan_ns;
        let new = insert_after(&mut g, ids[1], cpu("x", 50));
        let with = simulate(&g).unwrap().makespan_ns;
        assert_eq!(with, before + 50);
        g.remove_task(new);
        let after = simulate(&g).unwrap().makespan_ns;
        assert_eq!(after, before);
    }

    #[test]
    fn gpu_insert_includes_launch() {
        let mut g = DependencyGraph::new();
        let c = g.add_task(cpu("launch0", 10));
        let k = g.add_task(gpu("k0", 100));
        g.add_dep(c, k, DepKind::Correlation);
        let (launch, kernel) = insert_gpu_task_with_launch(&mut g, c, k, gpu("injected", 40), 6);
        g.validate().unwrap();
        assert!(g.task(launch).thread.is_cpu());
        assert!(g.task(kernel).is_on_gpu());
        let r = simulate(&g).unwrap();
        // Kernel order: k0 (starts after its launch) then injected (GpuSeq).
        assert!(r.start_of(kernel) >= r.start_of(k) + 100);
        assert_eq!(r.makespan_ns, 150);
    }

    #[test]
    fn scaling_shrinks() {
        let mut g = DependencyGraph::new();
        let ids = chain(&mut g, &["a", "b"]);
        scale_durations(&mut g, &ids, 0.5);
        assert_eq!(g.task(ids[0]).duration_ns, 5);
        let r = simulate(&g).unwrap();
        assert_eq!(r.makespan_ns, 10);
    }

    #[test]
    fn selection_helpers() {
        let mut g = DependencyGraph::new();
        g.add_task(cpu("cudaLaunchKernel", 5));
        let k = g.add_task(gpu("volta_sgemm_128x64", 50));
        g.add_task(gpu("elementwise_kernel_relu", 20));
        assert_eq!(select::gpu_tasks(&g).len(), 2);
        assert_eq!(select::by_keyword(&g, "sgemm"), vec![k]);
        assert!(select::gpu_in_phase(&g, Phase::Forward).is_empty());
    }

    #[test]
    fn remove_all_bridges() {
        let mut g = DependencyGraph::new();
        let ids = chain(&mut g, &["a", "b", "c", "d"]);
        remove_all(&mut g, &[ids[1], ids[2]]);
        assert_eq!(g.len(), 2);
        g.validate().unwrap();
        let r = simulate(&g).unwrap();
        assert_eq!(r.makespan_ns, 20);
    }
}
