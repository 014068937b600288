//! Section 6.4: reconstructing batch normalization on DenseNet-121/Caffe.

use crate::util::{ms, pct, Table};
use daydream_core::{predict, whatif, ProfiledGraph};
use daydream_models::zoo;
use daydream_runtime::{ground_truth, ExecConfig};

/// Regenerates the §6.4 comparison.
pub fn sec64() -> Table {
    let model = zoo::densenet121();
    let cfg = ExecConfig::caffe_2080ti();
    let baseline = ground_truth::run_baseline(&model, &cfg);
    let pg = ProfiledGraph::from_trace(&baseline);
    let pred = predict(&pg, |g| whatif::plan_reconstruct_bn(g, &model));
    let gt = ground_truth::run_reconstructed_bn(&model, &cfg)
        .meta
        .iteration_ns();
    let gt_gain = 1.0 - gt as f64 / pred.baseline_ns as f64;

    let mut t = Table::new(
        "Section 6.4: reconstructing batchnorm (DenseNet-121, Caffe)",
        &["quantity", "iteration (ms)", "improvement"],
    );
    t.row(vec!["baseline".into(), ms(pred.baseline_ms()), "-".into()]);
    t.row(vec![
        "Daydream prediction".into(),
        ms(pred.predicted_ms()),
        pct(pred.improvement()),
    ]);
    t.row(vec![
        "ground truth".into(),
        ms(gt as f64 / 1e6),
        pct(gt_gain),
    ]);
    t.note("paper: predicted 12.7% vs measured 7% (optimization paper claimed 17.5%);");
    t.note("the prediction overestimates because the real implementation uses new,");
    t.note("less-tuned kernels plus extra CUDA allocations/copies (Sec. 7.4)");
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn prediction_overestimates_measured_gain() {
        let t = super::sec64();
        let pred: f64 = t.rows[1][2].trim_end_matches('%').parse().unwrap();
        let gt: f64 = t.rows[2][2].trim_end_matches('%').parse().unwrap();
        assert!(
            pred > gt,
            "prediction ({pred}%) must exceed ground truth ({gt}%)"
        );
        assert!(gt > 0.0, "the optimization still helps");
    }
}
