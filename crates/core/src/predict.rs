//! Prediction reports: baseline vs what-if simulated time.

use crate::construct::ProfiledGraph;
use crate::sim::simulate;
use serde::{Deserialize, Serialize};

/// Outcome of one what-if analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Simulated baseline (untransformed graph) iteration time, ns.
    pub baseline_ns: u64,
    /// Simulated iteration time after the transformation, ns.
    pub predicted_ns: u64,
}

impl Prediction {
    /// Baseline iteration time in milliseconds.
    pub fn baseline_ms(&self) -> f64 {
        self.baseline_ns as f64 / 1e6
    }

    /// Predicted iteration time in milliseconds.
    pub fn predicted_ms(&self) -> f64 {
        self.predicted_ns as f64 / 1e6
    }

    /// Predicted speedup (baseline / predicted).
    pub fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.predicted_ns.max(1) as f64
    }

    /// Predicted improvement as a fraction of baseline (0.2 = 20% faster).
    pub fn improvement(&self) -> f64 {
        1.0 - self.predicted_ns as f64 / self.baseline_ns.max(1) as f64
    }

    /// Relative error of the prediction against a measured ground truth,
    /// the metric of paper Figs. 5–10.
    pub fn error_vs(&self, ground_truth_ns: u64) -> f64 {
        (self.predicted_ns as f64 - ground_truth_ns as f64).abs() / ground_truth_ns.max(1) as f64
    }
}

/// Applies a transformation to a copy of the profile and simulates both
/// versions with the default scheduler.
pub fn predict<F>(pg: &ProfiledGraph, transform: F) -> Prediction
where
    F: FnOnce(&mut ProfiledGraph),
{
    let baseline = simulate(&pg.graph).expect("profiled graph must be a DAG");
    predict_from_baseline(baseline.makespan_ns, pg, transform)
}

/// [`predict`] against a baseline makespan simulated once up front.
///
/// Callers that evaluate many what-ifs over one shared base profile (the
/// sweep engine, the CLI's analyze command) simulate the baseline a single
/// time and pass its makespan here, so per-scenario work is just
/// transform + compile + simulate of the transformed graph.
pub fn predict_from_baseline<F>(baseline_ns: u64, pg: &ProfiledGraph, transform: F) -> Prediction
where
    F: FnOnce(&mut ProfiledGraph),
{
    let mut transformed = pg.clone();
    transform(&mut transformed);
    let predicted = simulate(&transformed.graph).expect("transformed graph must stay a DAG");
    Prediction {
        baseline_ns,
        predicted_ns: predicted.makespan_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_math() {
        let p = Prediction {
            baseline_ns: 200_000_000,
            predicted_ns: 100_000_000,
        };
        assert!((p.speedup() - 2.0).abs() < 1e-12);
        assert!((p.improvement() - 0.5).abs() < 1e-12);
        assert!((p.baseline_ms() - 200.0).abs() < 1e-12);
        // 100 ms prediction vs 110 ms measured: ~9.1% error.
        let err = p.error_vs(110_000_000);
        assert!((err - 10.0 / 110.0).abs() < 1e-9);
    }
}
