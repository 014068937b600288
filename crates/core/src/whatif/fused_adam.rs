//! What-if: the FusedAdam optimizer (paper §5.1, Algorithm 4).
//!
//! The kernel-to-layer mapping identifies every CPU and GPU task of the
//! weight-update phase; all are removed and replaced by a single fused GPU
//! kernel whose duration is estimated as the sum of the removed kernels —
//! eliminating the thousands of CUDA launches that make unfused Adam
//! CPU-bound on BERT (§6.3).

use crate::graph::{GraphEdit, TaskId};
use crate::transform::{remove_all, select};
use daydream_trace::Phase;

/// The FusedAdam transformation (Algorithm 4) over any graph edit target.
///
/// Returns the id of the surviving fused kernel, or `None` if the profile
/// has no weight-update GPU tasks.
pub fn plan_fused_adam<G: GraphEdit>(g: &mut G) -> Option<TaskId> {
    let wu_gpu = select::tensor_core_flags(g, Some(Phase::WeightUpdate));
    if wu_gpu.is_empty() {
        return None;
    }
    // §5.1: the fused kernel's duration "is roughly estimated by the sum of
    // all removed compute-intensive kernels". Adam's unfused kernels are
    // memory-bound element-wise passes over redundant optimizer state, so a
    // multi-tensor kernel does far less work than their plain sum; the
    // compute-intensive subset (plus one kernel's floor) is the paper's
    // deliberately optimistic estimate.
    let total: u64 = wu_gpu
        .iter()
        .filter(|&&(_, tensor_core)| tensor_core)
        .map(|&(id, _)| g.task(id).duration_ns)
        .sum();
    let floor = wu_gpu
        .iter()
        .map(|&(id, _)| g.task(id).duration_ns)
        .max()
        .unwrap_or(0);
    let total = total.max(floor);

    // Keep the first-launched GPU task as the fused kernel.
    let (keep, _) = *wu_gpu
        .iter()
        .min_by_key(|&&(id, _)| g.task(id).measured_start_ns)
        .expect("non-empty selection");
    g.set_duration(keep, total);
    g.set_name(keep, "multi_tensor_apply_fused_adam".into());
    let keep_launch = g
        .predecessors(keep)
        .iter()
        .find(|&&(_, k)| k == crate::graph::DepKind::Correlation)
        .map(|&(p, _)| p);

    // Remove every other weight-update task, CPU and GPU alike.
    let doomed: Vec<TaskId> = select::in_phase(g, Phase::WeightUpdate)
        .into_iter()
        .filter(|&id| id != keep && Some(id) != keep_launch)
        .collect();
    remove_all(g, &doomed);
    Some(keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::ProfiledGraph;
    use crate::predict::predict;
    use daydream_models::zoo;
    use daydream_runtime::{ground_truth, ExecConfig};

    fn check_model(model: daydream_models::Model, max_err: f64) -> (f64, f64) {
        let cfg = ExecConfig::pytorch_2080ti();
        let baseline = ground_truth::run_baseline(&model, &cfg);
        let pg = ProfiledGraph::from_trace(&baseline);
        let pred = predict(&pg, plan_fused_adam);
        let gt = ground_truth::run_fused_adam(&model, &cfg)
            .meta
            .iteration_ns();
        let err = pred.error_vs(gt);
        assert!(
            err < max_err,
            "{} FusedAdam error {err:.3} over budget",
            model.name
        );
        (pred.improvement(), err)
    }

    #[test]
    fn bert_large_prediction_near_paper() {
        // Paper: 38.7% improvement predicted within 7%.
        let (imp, _) = check_model(zoo::bert_large(), 0.13);
        assert!(
            (0.25..0.55).contains(&imp),
            "BERT-large improvement {imp:.3} should be ~0.39"
        );
    }

    #[test]
    fn bert_base_prediction_within_13_percent() {
        let (imp, _) = check_model(zoo::bert_base(), 0.13);
        assert!(
            imp > 0.12,
            "BERT-base improvement {imp:.3} should be substantial"
        );
    }

    #[test]
    fn gnmt_prediction_shows_small_gain() {
        let (imp, _) = check_model(zoo::gnmt(), 0.13);
        assert!(
            imp < 0.18,
            "GNMT improvement {imp:.3} should be small (paper §6.3)"
        );
    }

    #[test]
    fn transformation_leaves_single_wu_kernel() {
        let model = zoo::bert_base();
        let cfg = ExecConfig::pytorch_2080ti();
        let trace = ground_truth::run_baseline(&model, &cfg);
        let mut pg = ProfiledGraph::from_trace(&trace);
        let before = select::gpu_in_phase(&pg.graph, Phase::WeightUpdate).len();
        assert!(
            before > 2_000,
            "unfused BERT Adam launches thousands of kernels"
        );
        let kept = plan_fused_adam(&mut pg.graph).expect("fused kernel inserted");
        let after = select::gpu_in_phase(&pg.graph, Phase::WeightUpdate);
        assert_eq!(after, vec![kept]);
        pg.graph.validate().expect("graph stays a DAG");
    }
}
