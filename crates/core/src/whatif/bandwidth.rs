//! What-if: network bandwidth change (the paper's Fig. 2 walkthrough).
//!
//! The worked example of §4 asks *"what if network bandwidth is 2x?"* and
//! answers it by shrinking every `allReduce` task's duration by 2x and
//! re-simulating. This operates on profiles that already contain
//! communication tasks — either a distributed ground-truth trace or a graph
//! produced by [`crate::whatif::plan_distributed`].

use crate::graph::{GraphEdit, TaskId};
use crate::transform::select;

/// Scales every communication task for a bandwidth change of `factor`
/// (2.0 = twice the bandwidth, halving transfer times), over any graph
/// edit target.
///
/// Returns the affected tasks.
pub fn plan_bandwidth<G: GraphEdit>(g: &mut G, factor: f64) -> Vec<TaskId> {
    assert!(factor > 0.0, "bandwidth factor must be positive");
    let comm = select::comm_tasks(g);
    for &id in &comm {
        let scaled = (g.task(id).duration_ns as f64 / factor).round() as u64;
        g.set_duration(id, scaled);
    }
    comm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::ProfiledGraph;
    use crate::predict::predict;
    use daydream_comm::{ClusterConfig, NcclExecution};
    use daydream_models::zoo;
    use daydream_runtime::{baseline_plan, run_distributed, ExecConfig};

    /// The full Fig. 2 workflow: profile a distributed run, then predict a
    /// bandwidth doubling by shrinking the allReduce tasks.
    #[test]
    fn fig2_workflow_predicts_bandwidth_doubling() {
        let model = zoo::resnet50();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(16);
        let plan = baseline_plan(&model, 16);
        let slow = ClusterConfig::new(4, 1, 10.0);
        let fast = ClusterConfig::new(4, 1, 20.0);

        // Profile the 10 Gbps cluster (this trace contains comm activities).
        let profiled = run_distributed(&model, &cfg, slow, NcclExecution::Synced, &plan);
        let pg = ProfiledGraph::from_trace(&profiled.trace);

        // Transform: "what if network bandwidth is 2x?"
        let pred = predict(&pg, |g| plan_bandwidth(g, 2.0));
        // Ground truth: actually run at 20 Gbps.
        let gt = run_distributed(&model, &cfg, fast, NcclExecution::Synced, &plan);
        let err = pred.error_vs(gt.trace.meta.iteration_ns());
        assert!(err < 0.10, "Fig. 2 bandwidth prediction error {err:.3}");
        assert!(
            pred.predicted_ns < pred.baseline_ns,
            "faster network must help"
        );
    }

    #[test]
    fn factor_one_is_identity() {
        let model = zoo::resnet50();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(8);
        let plan = baseline_plan(&model, 8);
        let run = run_distributed(
            &model,
            &cfg,
            ClusterConfig::new(2, 1, 10.0),
            NcclExecution::Synced,
            &plan,
        );
        let pg = ProfiledGraph::from_trace(&run.trace);
        let pred = predict(&pg, |g| plan_bandwidth(g, 1.0));
        assert_eq!(pred.baseline_ns, pred.predicted_ns);
    }

    #[test]
    fn single_gpu_profiles_are_unaffected() {
        let model = zoo::resnet50();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(8);
        let trace = daydream_runtime::ground_truth::run_baseline(&model, &cfg);
        let mut pg = ProfiledGraph::from_trace(&trace);
        let touched = plan_bandwidth(&mut pg.graph, 4.0);
        assert!(touched.is_empty(), "no comm tasks in a single-GPU profile");
    }
}
