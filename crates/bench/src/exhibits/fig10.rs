//! Figure 10: P3 under a network-bandwidth sweep (MXNet parameter server,
//! four P4000 machines).

use crate::util::{ms, pct, profile_for, Table};
use daydream_comm::ClusterConfig;
use daydream_core::whatif::{P3Config, P3Plan};
use daydream_runtime::{run_parameter_server, ExecConfig, PsTrainingConfig};

/// Bandwidth sweeps of Fig. 10 in Gbps (a: ResNet-50, b: VGG-19).
pub fn fig10_bandwidths(model: &str) -> Vec<f64> {
    match model {
        "ResNet-50" => vec![1.0, 2.0, 3.0, 4.0, 6.0, 8.0],
        _ => vec![1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0],
    }
}

/// One Fig. 10 data point.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Point {
    /// Network bandwidth, Gbps.
    pub gbps: f64,
    /// Measured MXNet baseline (no P3), ms.
    pub baseline_ms: f64,
    /// Measured P3 ground truth, ms.
    pub ground_truth_ms: f64,
    /// Daydream's P3 prediction, ms.
    pub prediction_ms: f64,
}

impl Fig10Point {
    /// Relative prediction error vs the P3 ground truth.
    pub fn error(&self) -> f64 {
        (self.prediction_ms - self.ground_truth_ms).abs() / self.ground_truth_ms
    }
}

/// Computes one panel of Fig. 10.
pub fn fig10_points(model_name: &str, batch: u64) -> Vec<Fig10Point> {
    let (pg, model) = profile_for(model_name, Some(batch), true);
    let cfg = ExecConfig::mxnet_p4000().with_batch(batch);
    let bandwidths = fig10_bandwidths(model_name);
    // One plan per panel: every bandwidth point retimes its transfers.
    let plan = P3Plan::new(&pg, &P3Config::p3(ClusterConfig::new(4, 1, bandwidths[0])));
    bandwidths
        .into_iter()
        .map(|gbps| {
            let cluster = ClusterConfig::new(4, 1, gbps);
            let baseline =
                run_parameter_server(&model, &cfg, PsTrainingConfig::baseline(cluster), 3);
            let gt = run_parameter_server(&model, &cfg, PsTrainingConfig::p3(cluster), 3);
            let pred = plan.evaluate(&cluster).expect("P3 plan must stay a DAG");
            Fig10Point {
                gbps,
                baseline_ms: baseline.iteration_ms(),
                ground_truth_ms: gt.iteration_ms(),
                prediction_ms: pred.iteration_ms(),
            }
        })
        .collect()
}

/// Regenerates Fig. 10 (both panels).
pub fn fig10() -> Table {
    let mut t = Table::new(
        "Figure 10: P3 under varying network bandwidth (4x P4000, MXNet PS)",
        &[
            "model",
            "bandwidth",
            "baseline (ms)",
            "P3 truth (ms)",
            "P3 prediction (ms)",
            "error",
        ],
    );
    let mut worst: f64 = 0.0;
    for (name, batch) in [("ResNet-50", 16), ("VGG-19", 8)] {
        for p in fig10_points(name, batch) {
            worst = worst.max(p.error());
            t.row(vec![
                name.into(),
                format!("{} Gbps", p.gbps),
                ms(p.baseline_ms),
                ms(p.ground_truth_ms),
                ms(p.prediction_ms),
                pct(p.error()),
            ]);
        }
    }
    t.note(format!("worst error {} (paper: at most 16.2%)", pct(worst)));
    t.note("prediction undershoots ground truth at higher bandwidths: wire-only");
    t.note("modeling misses server-side engine overheads (Sec. 6.6)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet_panel_trends() {
        let points = fig10_points("ResNet-50", 16);
        // Iteration time decreases (weakly) with bandwidth for all series.
        for w in points.windows(2) {
            assert!(w[1].baseline_ms <= w[0].baseline_ms * 1.02);
            assert!(w[1].ground_truth_ms <= w[0].ground_truth_ms * 1.02);
            assert!(w[1].prediction_ms <= w[0].prediction_ms * 1.02);
        }
        // P3 helps at the lowest bandwidth.
        assert!(points[0].ground_truth_ms < points[0].baseline_ms);
        // Errors within the paper's bound.
        for p in &points {
            assert!(
                p.error() < 0.162,
                "error {:.3} at {} Gbps",
                p.error(),
                p.gbps
            );
        }
    }
}
