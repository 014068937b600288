//! Figure 7: FusedAdam — baseline vs ground truth vs prediction.

use crate::util::{ms, pct, profile_for, Table};
use daydream_core::{predict, whatif};
use daydream_runtime::{ground_truth, ExecConfig};

/// Models evaluated in Fig. 7 (the Adam-trained ones).
pub const FIG7_MODELS: [&str; 3] = ["BERT_Base", "BERT_Large", "Seq2Seq"];

/// Regenerates Fig. 7.
pub fn fig7() -> Table {
    let mut t = Table::new(
        "Figure 7: FusedAdam optimizer",
        &[
            "model",
            "baseline (ms)",
            "ground truth (ms)",
            "prediction (ms)",
            "improvement",
            "error",
        ],
    );
    for name in FIG7_MODELS {
        let (pg, model) = profile_for(name, None, false);
        let cfg = ExecConfig::pytorch_2080ti();
        let pred = predict(&pg, whatif::plan_fused_adam);
        let gt = ground_truth::run_fused_adam(&model, &cfg)
            .meta
            .iteration_ns();
        t.row(vec![
            name.into(),
            ms(pred.baseline_ms()),
            ms(gt as f64 / 1e6),
            ms(pred.predicted_ms()),
            pct(pred.improvement()),
            pct(pred.error_vs(gt)),
        ]);
    }
    t.note("paper: predictions within 13%; BERT gains large (weight update is");
    t.note("~30/45% of iteration), GNMT small (<10% in weight update)");
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig7_errors_and_ordering() {
        let t = super::fig7();
        assert_eq!(t.rows.len(), 3);
        let mut improvements = Vec::new();
        for r in &t.rows {
            let err: f64 = r[5].trim_end_matches('%').parse().unwrap();
            assert!(err < 13.0, "{} FusedAdam error {err}%", r[0]);
            improvements.push(r[4].trim_end_matches('%').parse::<f64>().unwrap());
        }
        // BERT-large benefits most, GNMT least (paper Sec. 6.3).
        assert!(improvements[1] > improvements[0]);
        assert!(improvements[2] < improvements[0]);
    }
}
