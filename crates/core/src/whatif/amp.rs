//! What-if: Automatic Mixed Precision (paper §5.1, Algorithm 3).
//!
//! Select every GPU task; shrink Tensor-Core-eligible kernels (names
//! containing `sgemm` or `scudnn`) by 3x and everything else — memory-bound
//! kernels whose traffic halves — by 2x. This is deliberately a blanket
//! rule: the paper shows it already predicts end-to-end AMP within ~13%
//! (Fig. 5) because the CPU side, which AMP does not change, is modeled
//! exactly.

use crate::graph::{GraphEdit, TaskId};
use crate::task::Task;
use crate::transform::select;

/// Kernel-duration divisor for Tensor-Core-eligible kernels.
pub const COMPUTE_BOUND_GAIN: f64 = 3.0;
/// Kernel-duration divisor for memory-bound kernels.
pub const MEMORY_BOUND_GAIN: f64 = 2.0;

/// AMP's Tensor Core rule: kernels whose names mark an `sgemm` or
/// `scudnn` kernel run on Tensor Cores in fp16.
pub(crate) fn uses_tensor_cores(t: &Task) -> bool {
    t.name.contains("sgemm") || t.name.contains("scudnn")
}

/// The AMP transformation (Algorithm 3) over any graph edit target —
/// a [`crate::DependencyGraph`] in place or a patch-recording
/// [`crate::patch::PatchGraph`].
pub fn plan_amp<G: GraphEdit>(g: &mut G) {
    let retimes: Vec<(TaskId, u64)> = select::tensor_core_flags(g, None)
        .into_iter()
        .map(|(id, tensor_core)| {
            let divisor = if tensor_core {
                COMPUTE_BOUND_GAIN
            } else {
                MEMORY_BOUND_GAIN
            };
            (id, (g.task(id).duration_ns as f64 / divisor).round() as u64)
        })
        .collect();
    g.set_durations(&retimes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::ProfiledGraph;
    use crate::predict::predict;
    use daydream_models::zoo;
    use daydream_runtime::{ground_truth, ExecConfig};

    #[test]
    fn amp_prediction_matches_ground_truth_for_resnet() {
        let model = zoo::resnet50();
        let cfg = ExecConfig::pytorch_2080ti();
        let baseline = ground_truth::run_baseline(&model, &cfg);
        let pg = ProfiledGraph::from_trace(&baseline);
        let pred = predict(&pg, plan_amp);
        let gt = ground_truth::run_amp(&model, &cfg).meta.iteration_ns();
        let err = pred.error_vs(gt);
        assert!(
            err < 0.13,
            "ResNet-50 AMP prediction error {err:.3} exceeds the paper's 13%"
        );
        assert!(
            pred.improvement() > 0.2,
            "AMP must predict a real gain for ResNet-50"
        );
    }

    #[test]
    fn amp_prediction_matches_ground_truth_for_bert_large() {
        let model = zoo::bert_large();
        let cfg = ExecConfig::pytorch_2080ti();
        let baseline = ground_truth::run_baseline(&model, &cfg);
        let pg = ProfiledGraph::from_trace(&baseline);
        let pred = predict(&pg, plan_amp);
        let gt = ground_truth::run_amp(&model, &cfg).meta.iteration_ns();
        let err = pred.error_vs(gt);
        assert!(
            err < 0.13,
            "BERT-large AMP prediction error {err:.3} exceeds the paper's 13%"
        );
        // Paper: 17.2% improvement for BERT-large — far below per-kernel
        // gains. Our substrate profiles batch 2, where forward/backward is
        // a larger share, so the absolute improvement runs higher; the
        // sub-2x ceiling is the transferable claim.
        let imp = pred.improvement();
        assert!(
            (0.05..0.45).contains(&imp),
            "BERT-large AMP improvement {imp:.3}"
        );
    }

    #[test]
    fn amp_shrinks_only_gpu_tasks() {
        let model = zoo::resnet50();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(8);
        let trace = ground_truth::run_baseline(&model, &cfg);
        let mut pg = ProfiledGraph::from_trace(&trace);
        let cpu_before: u64 = pg
            .graph
            .iter()
            .filter(|(_, t)| t.thread.is_cpu())
            .map(|(_, t)| t.duration_ns)
            .sum();
        plan_amp(&mut pg.graph);
        let cpu_after: u64 = pg
            .graph
            .iter()
            .filter(|(_, t)| t.thread.is_cpu())
            .map(|(_, t)| t.duration_ns)
            .sum();
        assert_eq!(cpu_before, cpu_after, "CPU tasks must be untouched");
    }
}
