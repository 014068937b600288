//! What-if: Gist data encodings (paper §5.2, Algorithm 11).
//!
//! Gist shrinks stored feature maps by encoding them after the forward
//! pass and decoding before the backward pass, at the cost of extra GPU
//! kernels. Daydream estimates the *performance overhead* by inserting
//! encode/decode kernels — with their CPU launches, per Fig. 4b — sized
//! from the existing element-wise kernels of the same layer (the paper's
//! estimation guideline).

use crate::graph::{DepKind, GraphEdit, GraphView, TaskId};
use crate::task::{Task, TaskKind};
use crate::transform::{insert_gpu_task_with_launch, select};
use daydream_trace::Phase;

/// CPU cost of each inserted kernel launch, ns.
const LAUNCH_NS: u64 = 6_000;

/// Configuration of the Gist what-if analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GistConfig {
    /// Also insert the delayed-precision-reduction kernels of Gist's lossy
    /// mode.
    pub lossy: bool,
}

/// Gist's ReLU rule: the element-wise ReLU kernels, whose stashed
/// outputs Gist binarizes. The name must be this specific, because cuDNN
/// convolutions with a fused ReLU carry "relu" in their names too
/// ("scudnn_..._relu_interior_nn").
pub(crate) fn is_relu_kernel(t: &Task) -> bool {
    t.name.contains("elementwise_kernel_relu")
}

/// The Gist transformation over any graph edit target; returns the
/// inserted GPU kernels.
pub fn plan_gist<G: GraphEdit>(g: &mut G, cfg: &GistConfig) -> Vec<TaskId> {
    // Encode after each ReLU forward kernel; decode before the layer's
    // backward kernel. Sizes mirror the host kernels. Every selection is
    // made before the first insertion: the inserted kernels are named
    // `gist_*`, so none of them would be selected anyway.
    let relu_fwd = select::relu_kernels(g, Phase::Forward);
    let relu_bwd = select::relu_kernels(g, Phase::Backward);
    // Delayed precision reduction (lossy mode) after every other
    // forward kernel.
    let others: Vec<TaskId> = if cfg.lossy {
        select::gpu_in_phase(g, Phase::Forward)
            .into_iter()
            .filter(|&id| {
                let name = &g.task(id).name;
                !name.contains("relu") && !name.contains("gist_") && !name.contains("memcpy")
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut inserted = Vec::new();
    for &u in &relu_fwd {
        let (dur, layer, launch_pred) = anchor(g, u);
        // Binarization writes 1 bit per element: roughly half the host
        // kernel's traffic (read activations, write compact form).
        let dur = dur / 2;
        let mut k = Task::new(
            "gist_encode_kernel",
            TaskKind::GpuKernel,
            g.task(u).thread,
            dur,
        );
        k.layer = layer;
        let (_, kid) = insert_gpu_task_with_launch(g, launch_pred, u, k, LAUNCH_NS);
        inserted.push(kid);
    }
    for &u in &relu_bwd {
        let (dur, layer, launch_pred) = anchor(g, u);
        let dur = dur / 2;
        let mut k = Task::new(
            "gist_decode_kernel",
            TaskKind::GpuKernel,
            g.task(u).thread,
            dur,
        );
        k.layer = layer;
        // Decode must precede the backward kernel: insert before it on the
        // stream, launched from the same CPU position.
        let before = crate::transform::thread_predecessor(g, u).unwrap_or(u);
        let (_, kid) = insert_gpu_task_with_launch(g, launch_pred, before, k, LAUNCH_NS);
        g.add_dep(kid, u, DepKind::Transform);
        inserted.push(kid);
    }
    for &u in &others {
        let (dur, layer, launch_pred) = anchor(g, u);
        let mut k = Task::new(
            "gist_dpr_kernel",
            TaskKind::GpuKernel,
            g.task(u).thread,
            dur / 2,
        );
        k.layer = layer;
        let (_, kid) = insert_gpu_task_with_launch(g, launch_pred, u, k, LAUNCH_NS);
        inserted.push(kid);
    }
    inserted
}

/// Duration estimate, layer tag, and CPU anchor for an insertion next to
/// task `u` — the "estimate from existing element-wise kernels" rule.
fn anchor<G: GraphView>(g: &G, u: TaskId) -> (u64, Option<crate::task::LayerRef>, TaskId) {
    let t = g.task(u);
    let launch = g
        .predecessors(u)
        .iter()
        .find(|&&(_, k)| k == DepKind::Correlation)
        .map(|&(p, _)| p)
        .unwrap_or(u);
    (t.duration_ns, t.layer, launch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::ProfiledGraph;
    use crate::predict::predict;
    use daydream_models::zoo;
    use daydream_runtime::{ground_truth, ExecConfig};

    fn profile() -> ProfiledGraph {
        let model = zoo::resnet50();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(16);
        ProfiledGraph::from_trace(&ground_truth::run_baseline(&model, &cfg))
    }

    #[test]
    fn gist_predicts_bounded_overhead() {
        let pg = profile();
        let pred = predict(&pg, |g| plan_gist(g, &GistConfig::default()));
        let overhead = -pred.improvement();
        assert!(overhead > 0.0, "encode/decode kernels must cost something");
        assert!(
            overhead < 0.25,
            "Gist overhead {overhead:.3} should be modest"
        );
    }

    #[test]
    fn lossy_costs_more_than_lossless() {
        let pg = profile();
        let lossless = predict(&pg, |g| plan_gist(g, &GistConfig::default()));
        let lossy = predict(&pg, |g| plan_gist(g, &GistConfig { lossy: true }));
        assert!(lossy.predicted_ns > lossless.predicted_ns);
    }

    #[test]
    fn inserted_kernels_match_relu_count_and_graph_valid() {
        let mut pg = profile();
        let relus = pg
            .graph
            .select(|t| t.is_on_gpu() && t.name.contains("elementwise_kernel_relu"))
            .len();
        let inserted = plan_gist(&mut pg.graph, &GistConfig::default());
        assert_eq!(inserted.len(), relus);
        pg.graph.validate().expect("Gist graph must stay a DAG");
    }
}
