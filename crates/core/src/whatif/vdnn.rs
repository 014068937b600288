//! What-if: virtualized DNN memory (vDNN, paper §5.2, Algorithm 10).
//!
//! vDNN offloads convolution feature maps to host memory after their
//! forward pass and prefetches them back before the matching backward
//! pass, trading PCIe traffic for GPU memory. Daydream predicts the
//! *performance overhead* of the policy by inserting the offload/prefetch
//! memcpy chains (with their CPU launch/allocation tasks) and simulating.
//!
//! Prefetch timing follows the `vDNN_conv` policy: the prefetch of layer
//! `L` is released by the backward pass of a configurable number of layers
//! *after* `L` (look-ahead), modeling the paper's `findPrefetchLayer`
//! schedule override.

use crate::graph::{DepKind, GraphEdit};
use crate::task::{ExecThread, Task, TaskKind};
use crate::transform::select;
use daydream_models::{LayerKind, Model};
use daydream_trace::{CpuThreadId, CudaApi, DeviceId, MemcpyDir, StreamId};

/// The CUDA stream vDNN uses for its offload/prefetch copies.
pub const VDNN_STREAM: StreamId = StreamId(7);
/// The host thread driving vDNN's memory manager.
pub const VDNN_THREAD: CpuThreadId = CpuThreadId(7);

/// Configuration of the vDNN what-if analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VdnnConfig {
    /// Host-device PCIe bandwidth, bytes per nanosecond.
    pub pcie_bytes_per_ns: f64,
    /// How many backward layers ahead of a convolution its prefetch is
    /// released (1 = just-in-time).
    pub prefetch_lookahead: usize,
}

impl Default for VdnnConfig {
    fn default() -> Self {
        VdnnConfig {
            pcie_bytes_per_ns: 12.0,
            prefetch_lookahead: 2,
        }
    }
}

/// The vDNN(conv) transformation over any graph edit target; the caller
/// supplies the profiled batch size. Returns the number of offloaded
/// layers.
pub fn plan_vdnn<G: GraphEdit>(g: &mut G, model: &Model, cfg: &VdnnConfig, batch: u64) -> usize {
    // Anchors per conv layer: last forward GPU task and first backward task.
    let anchors = select::layer_anchors(g).into_owned();
    let anchor = |layer: &daydream_models::Layer| anchors.get(layer.id.0 as usize);

    // Convolution layers in forward order.
    let convs: Vec<&daydream_models::Layer> = model
        .layers
        .iter()
        .filter(|l| matches!(l.kind, LayerKind::Conv2d { .. }))
        .collect();

    let mut offloaded = 0usize;
    for (ci, layer) in convs.iter().enumerate() {
        let Some((u, v)) = anchor(layer).and_then(|a| a.fwd_last.zip(a.bwd_first)) else {
            continue;
        };
        let bytes = 4 * layer.output.numel() * batch;
        let copy_ns = (bytes as f64 / cfg.pcie_bytes_per_ns) as u64 + 2_000;
        let hint = g.task(u).measured_start_ns;
        let layer_ref = g.task(u).layer;
        let cpu = ExecThread::Cpu(VDNN_THREAD);
        let gpu = ExecThread::Gpu(DeviceId(0), VDNN_STREAM);

        let mk = move |name: &str, kind: TaskKind, thread: ExecThread, dur: u64, off: u64| {
            let mut t = Task::new(name, kind, thread, dur);
            t.measured_start_ns = hint + off;
            t.layer = layer_ref;
            t
        };
        // Offload: launch + DtoH copy + free of the device buffer.
        let t1 = g.add_task(mk(
            "vdnn_memcpy_launch",
            TaskKind::CpuApi(CudaApi::MemcpyAsync(MemcpyDir::DeviceToHost)),
            cpu,
            9_000,
            1,
        ));
        let t2 = g.add_task(mk(
            "vdnn_offload_DtoH",
            TaskKind::GpuMemcpy {
                dir: MemcpyDir::DeviceToHost,
                bytes,
            },
            gpu,
            copy_ns,
            2,
        ));
        let t3 = g.add_task(mk(
            "cudaFree_vDNN",
            TaskKind::CpuApi(CudaApi::Free),
            cpu,
            30_000,
            3,
        ));
        // Prefetch: re-allocate, launch, HtoD copy.
        let t4 = g.add_task(mk(
            "cudaMalloc_vDNN",
            TaskKind::CpuApi(CudaApi::Malloc),
            cpu,
            45_000,
            4,
        ));
        let t5 = g.add_task(mk(
            "vdnn_memcpy_launch",
            TaskKind::CpuApi(CudaApi::MemcpyAsync(MemcpyDir::HostToDevice)),
            cpu,
            9_000,
            5,
        ));
        let t6 = g.add_task(mk(
            "vdnn_prefetch_HtoD",
            TaskKind::GpuMemcpy {
                dir: MemcpyDir::HostToDevice,
                bytes,
            },
            gpu,
            copy_ns,
            6,
        ));
        // u -> t1 -> t2 -> t3 -> t4 -> t5 -> t6 -> v (Algorithm 10).
        g.add_dep(u, t1, DepKind::Transform);
        g.add_dep(t1, t2, DepKind::Correlation);
        g.add_dep(t2, t3, DepKind::Sync);
        g.add_dep(t3, t4, DepKind::CpuSeq);
        g.add_dep(t4, t5, DepKind::CpuSeq);
        g.add_dep(t5, t6, DepKind::Correlation);
        g.add_dep(t6, v, DepKind::Transform);

        // Prefetch release: the look-ahead layer's backward start (the
        // schedule-override part of Algorithm 10).
        if let Some(release_layer) = convs.get(ci + cfg.prefetch_lookahead) {
            if let Some(r) = anchor(release_layer).and_then(|a| a.bwd_first) {
                g.add_dep(r, t4, DepKind::Transform);
            }
        }
        offloaded += 1;
    }
    offloaded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::ProfiledGraph;
    use crate::predict::predict;
    use daydream_models::zoo;
    use daydream_runtime::{ground_truth, ExecConfig};

    fn profile(model: &daydream_models::Model) -> ProfiledGraph {
        let cfg = ExecConfig::pytorch_2080ti().with_batch(16);
        ProfiledGraph::from_trace(&ground_truth::run_baseline(model, &cfg))
    }

    #[test]
    fn vdnn_predicts_overhead_not_speedup() {
        let model = zoo::vgg19();
        let pg = profile(&model);
        let pred = predict(&pg, |g| plan_vdnn(g, &model, &VdnnConfig::default(), 16));
        assert!(
            pred.improvement() <= 0.0,
            "vDNN must cost time, not save it"
        );
        // But the overlap with compute keeps the overhead bounded.
        assert!(
            pred.improvement() > -0.8,
            "overhead {:.3} should stay moderate thanks to overlap",
            -pred.improvement()
        );
    }

    #[test]
    fn offloads_every_convolution() {
        let model = zoo::resnet50();
        let mut pg = profile(&model);
        let n = plan_vdnn(&mut pg.graph, &model, &VdnnConfig::default(), 16);
        assert_eq!(n, 53, "all ResNet-50 convolutions offload");
        pg.graph.validate().expect("vDNN graph must stay a DAG");
    }

    #[test]
    fn slower_pcie_costs_more() {
        let model = zoo::vgg19();
        let pg = profile(&model);
        let t = |bw: f64| {
            let cfg = VdnnConfig {
                pcie_bytes_per_ns: bw,
                prefetch_lookahead: 2,
            };
            predict(&pg, |g| plan_vdnn(g, &model, &cfg, 16)).predicted_ns
        };
        assert!(t(4.0) > t(12.0), "PCIe bandwidth must matter");
    }
}
