//! Figure 8: distributed-training predictions from single-GPU profiles,
//! across machine layouts and network bandwidths.

use crate::util::{ms, pct, profile_for, Table};
use daydream_comm::{ClusterConfig, NcclExecution};
use daydream_core::{predict, whatif};
use daydream_runtime::{baseline_plan, run_distributed, ExecConfig};

/// Models of Fig. 8a-d.
pub const FIG8_MODELS: [&str; 4] = ["ResNet-50", "GNMT", "BERT_Base", "BERT_Large"];
/// Bandwidths of Fig. 8 in Gbps.
pub const FIG8_BANDWIDTHS: [f64; 3] = [10.0, 20.0, 40.0];

/// One Fig. 8 data point.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Model name.
    pub model: String,
    /// Cluster configuration.
    pub cluster: ClusterConfig,
    /// Measured (synced ground truth) iteration, ms.
    pub ground_truth_ms: f64,
    /// Predicted iteration, ms.
    pub prediction_ms: f64,
}

impl Fig8Point {
    /// Relative prediction error.
    pub fn error(&self) -> f64 {
        (self.prediction_ms - self.ground_truth_ms).abs() / self.ground_truth_ms
    }
}

/// Computes all Fig. 8 points for one model.
pub fn fig8_points(model_name: &str) -> Vec<Fig8Point> {
    let (pg, model) = profile_for(model_name, None, false);
    let cfg = ExecConfig::pytorch_2080ti();
    let plan = baseline_plan(&model, model.default_batch);
    let mut out = Vec::new();
    for bw in FIG8_BANDWIDTHS {
        for cluster in ClusterConfig::fig8_layouts(bw) {
            let pred = predict(&pg, |g| {
                whatif::plan_distributed(g, &pg.meta.buckets, &cluster)
            });
            // Fig. 8 compares against the baseline with a synchronization
            // before each allReduce (the paper's caption).
            let gt = run_distributed(&model, &cfg, cluster, NcclExecution::Synced, &plan);
            out.push(Fig8Point {
                model: model_name.to_string(),
                cluster,
                ground_truth_ms: gt.iteration_ms(),
                prediction_ms: pred.predicted_ms(),
            });
        }
    }
    out
}

/// Regenerates Fig. 8 (all four panels).
pub fn fig8() -> Table {
    let mut t = Table::new(
        "Figure 8: distributed training predictions (vs synced ground truth)",
        &[
            "model",
            "config",
            "ground truth (ms)",
            "prediction (ms)",
            "error",
        ],
    );
    let mut worst: f64 = 0.0;
    let results: Vec<Vec<Fig8Point>> = std::thread::scope(|s| {
        let handles: Vec<_> = FIG8_MODELS
            .iter()
            .map(|m| s.spawn(move || fig8_points(m)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fig8 worker"))
            .collect()
    });
    for points in results {
        for p in points {
            worst = worst.max(p.error());
            t.row(vec![
                p.model.clone(),
                p.cluster.to_string(),
                ms(p.ground_truth_ms),
                ms(p.prediction_ms),
                pct(p.error()),
            ]);
        }
    }
    t.note(format!(
        "worst-case error {} (paper: mostly <10%, few exceptions)",
        pct(worst)
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet_panel_errors_and_scaling() {
        let points = fig8_points("ResNet-50");
        assert_eq!(points.len(), 21);
        let mut over_ten = 0;
        for p in &points {
            if p.error() > 0.10 {
                over_ten += 1;
            }
            assert!(
                p.error() < 0.15,
                "{} error {:.3} too high",
                p.cluster,
                p.error()
            );
        }
        // Paper: at most 10% error with a few exceptions.
        assert!(over_ten <= 4, "{over_ten} of 21 configs exceed 10% error");
        // Iteration time grows with worker count at 10 Gbps.
        let t1 = points
            .iter()
            .find(|p| p.cluster.to_string() == "1x1@10Gbps")
            .unwrap();
        let t8 = points
            .iter()
            .find(|p| p.cluster.to_string() == "4x2@10Gbps")
            .unwrap();
        assert!(t8.prediction_ms > t1.prediction_ms);
    }
}
