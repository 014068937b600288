//! One-profile what-if evaluation, and its report.
//!
//! [`predict`] answers a what-if the way the sweep engine answers every
//! scenario: compile the profile once, capture its baseline
//! [`Schedule`], record the planner's edits as one [`GraphPatch`] over the
//! profile, and simulate that patch warm over the compiled base
//! ([`simulate_warm`]). No graph is cloned or mutated.
//!
//! [`GraphPatch`]: crate::patch::GraphPatch

use crate::compiled::CompiledGraph;
use crate::construct::ProfiledGraph;
use crate::patch::PatchGraph;
use crate::sim::{simulate_warm, Schedule, SimScratch};
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

/// Predicts the profile's iteration time under a what-if: `plan` records
/// the transformation (any `whatif::plan_*` planner, or custom §4.4
/// primitives) into a [`PatchGraph`] over the profile, and the patch is
/// simulated warm over the compiled baseline.
///
/// # Panics
///
/// Panics if the profile or the patched graph is not a DAG.
pub fn predict<'a, F, R>(pg: &'a ProfiledGraph, plan: F) -> Prediction
where
    F: FnOnce(&mut PatchGraph<'a>) -> R,
{
    let compiled = CompiledGraph::compile(&pg.graph);
    let schedule = Schedule::capture(&compiled).expect("profiled graph must be a DAG");
    let mut overlay = PatchGraph::new(&pg.graph);
    plan(&mut overlay);
    let patch = overlay.finish();
    let outcome = simulate_warm(&compiled, &schedule, &patch, &mut SimScratch::new())
        .expect("patched graph must stay a DAG");
    Prediction {
        baseline_ns: schedule.makespan_ns(),
        predicted_ns: outcome.makespan_ns,
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
