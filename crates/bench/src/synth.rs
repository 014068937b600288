//! Synthetic communication-bound iteration graphs shared by the
//! `sim_scale` / `eval_warm` benches (and the allocation-regression
//! tests): a CPU launch chain, kernels
//! round-robined over four streams, one gradient transfer per kernel
//! contending for a collective channel.

use daydream_core::{
    CommChannel, CommPrimitive, DepKind, DependencyGraph, ExecThread, GraphEdit, Task, TaskId,
    TaskKind,
};
use daydream_trace::{CpuThreadId, DeviceId, StreamId};

/// GPU streams in the synthetic graph.
pub const STREAMS: u32 = 4;

/// Builds the `sim_scale` graph shape with roughly `n` tasks (exactly
/// `3 * (n / 3)`).
pub fn synthetic_graph(n: usize) -> DependencyGraph {
    let steps = n / 3;
    let mut g = DependencyGraph::new();
    g.reserve(steps * 3);
    let cpu = ExecThread::Cpu(CpuThreadId(0));
    let chan = ExecThread::Comm(CommChannel::Collective);
    let mut prev_launch: Option<TaskId> = None;
    let mut prev_kernel = vec![None; STREAMS as usize];
    for i in 0..steps {
        let stream = (i as u32) % STREAMS;
        let launch = g.add_task(Task::new("cudaLaunchKernel", TaskKind::CpuWork, cpu, 4_000));
        let kernel = g.add_task(Task::new(
            "kernel",
            TaskKind::GpuKernel,
            ExecThread::Gpu(DeviceId(0), StreamId(stream)),
            30_000,
        ));
        let comm = g.add_task(Task::new(
            "allreduce_slice",
            TaskKind::Communication {
                prim: CommPrimitive::AllReduce,
                bytes: 1 << 20,
            },
            chan,
            45_000,
        ));
        if let Some(p) = prev_launch {
            g.add_dep(p, launch, DepKind::CpuSeq);
        }
        if let Some(p) = prev_kernel[stream as usize] {
            g.add_dep(p, kernel, DepKind::GpuSeq);
        }
        g.add_dep(launch, kernel, DepKind::Correlation);
        g.add_dep(kernel, comm, DepKind::Comm);
        prev_launch = Some(launch);
        prev_kernel[stream as usize] = Some(kernel);
    }
    g
}

/// Small-cone retime: halve the durations of the given tail transfers.
/// The target list is selected once per base, outside any measurement —
/// a tail-refinement planner (DGC ratio sweep, bandwidth what-if over
/// the last buckets) knows its targets and does not rescan the graph
/// per scenario.
pub fn tail_retime<G: GraphEdit>(g: &mut G, targets: &[TaskId]) {
    for &id in targets {
        let shrunk = g.task(id).duration_ns / 2;
        g.set_duration(id, shrunk);
    }
}

/// Small-cone insert-only edit: splice a compression kernel between the
/// producing kernel and each target transfer (as Gist/DGC do).
pub fn tail_splice<G: GraphEdit>(g: &mut G, targets: &[TaskId]) {
    for (i, &id) in targets.iter().enumerate() {
        let producer = g.predecessors(id).first().map(|&(p, _)| p);
        let gpu = ExecThread::Gpu(DeviceId(0), StreamId((i as u32) % STREAMS));
        let k = g.add_task(Task::new("compress", TaskKind::GpuKernel, gpu, 9_000));
        if let Some(p) = producer {
            g.remove_dep(p, id);
            g.add_dep(p, k, DepKind::GpuSeq);
        }
        g.add_dep(k, id, DepKind::Comm);
    }
}

/// Small-cone structural edit: [`tail_splice`], plus a 100x shrink of
/// each target transfer.
pub fn tail_structural<G: GraphEdit>(g: &mut G, targets: &[TaskId]) {
    tail_splice(g, targets);
    let shrunk: Vec<(TaskId, u64)> = targets
        .iter()
        .map(|&id| (id, g.task(id).duration_ns / 100))
        .collect();
    g.set_durations(&shrunk);
}
