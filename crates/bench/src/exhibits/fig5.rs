//! Figure 5: AMP — baseline vs ground truth vs Daydream's prediction.

use crate::util::{ms, pct, profile_for, Table};
use daydream_core::{predict, whatif};
use daydream_runtime::{ground_truth, ExecConfig};

/// Models evaluated in Fig. 5, in the paper's order.
pub const FIG5_MODELS: [&str; 4] = ["BERT_Base", "BERT_Large", "Seq2Seq", "ResNet-50"];

/// Regenerates Fig. 5.
pub fn fig5() -> Table {
    let mut t = Table::new(
        "Figure 5: Automatic Mixed Precision",
        &[
            "model",
            "baseline (ms)",
            "ground truth (ms)",
            "prediction (ms)",
            "speedup",
            "error",
        ],
    );
    for name in FIG5_MODELS {
        let (pg, model) = profile_for(name, None, false);
        let cfg = ExecConfig::pytorch_2080ti();
        let pred = predict(&pg, whatif::plan_amp);
        let gt = ground_truth::run_amp(&model, &cfg).meta.iteration_ns();
        t.row(vec![
            name.into(),
            ms(pred.baseline_ms()),
            ms(gt as f64 / 1e6),
            ms(pred.predicted_ms()),
            format!("{:.2}x", pred.speedup()),
            pct(pred.error_vs(gt)),
        ]);
    }
    t.note("paper: all prediction errors below 13%; speedups well under per-kernel 2-3x");
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig5_errors_within_paper_bound() {
        let t = super::fig5();
        assert_eq!(t.rows.len(), 4);
        for r in &t.rows {
            let err: f64 = r[5].trim_end_matches('%').parse().unwrap();
            assert!(err < 13.0, "{} AMP error {err}% exceeds 13%", r[0]);
        }
    }
}
