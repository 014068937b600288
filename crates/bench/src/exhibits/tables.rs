//! Tables 1 and 2 of the paper.

use crate::util::Table;
use daydream_models::zoo;

/// Table 1: representative DNN training optimizations and how this
/// implementation models each one.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1: representative optimizations for DNN training",
        &[
            "goal",
            "strategy",
            "technique",
            "daydream model",
            "evaluated",
        ],
    );
    let rows: [(&str, &str, &str, &str, &str); 10] = [
        (
            "single-worker utilization",
            "reducing precision",
            "Automatic Mixed Precision (Micikevicius et al.)",
            "whatif::plan_amp",
            "Fig. 5/6",
        ),
        (
            "single-worker utilization",
            "fusing kernels/layers",
            "FusedAdam (Apex)",
            "whatif::plan_fused_adam",
            "Fig. 7",
        ),
        (
            "single-worker utilization",
            "improving low-level kernels",
            "Restructuring Batchnorm (Jung et al.)",
            "whatif::plan_reconstruct_bn",
            "Sec. 6.4",
        ),
        (
            "single-worker utilization",
            "fusing kernels/layers",
            "MetaFlow (Jia et al.)",
            "whatif::plan_metaflow",
            "modeled (Sec. 5.2)",
        ),
        (
            "single-worker memory",
            "reducing memory footprint",
            "vDNN (Rhu et al.)",
            "whatif::plan_vdnn",
            "modeled (Sec. 5.2)",
        ),
        (
            "single-worker memory",
            "reducing memory footprint",
            "Gist (Jain et al.)",
            "whatif::plan_gist",
            "modeled (Sec. 5.2)",
        ),
        (
            "distributed scaling",
            "data parallelism",
            "PyTorch DDP + NCCL",
            "whatif::plan_distributed",
            "Fig. 8/9",
        ),
        (
            "distributed communication",
            "overlap / scheduling",
            "P3 (Jayarajan et al.)",
            "whatif::P3Plan",
            "Fig. 10",
        ),
        (
            "distributed communication",
            "network utilization",
            "BlueConnect (Cho et al.)",
            "whatif::plan_blueconnect",
            "modeled (Sec. 5.2)",
        ),
        (
            "distributed communication",
            "gradient compression",
            "Deep Gradient Compression (Lin et al.)",
            "whatif::plan_dgc",
            "modeled (Sec. 5.2)",
        ),
    ];
    for r in rows {
        t.row(vec![
            r.0.into(),
            r.1.into(),
            r.2.into(),
            r.3.into(),
            r.4.into(),
        ]);
    }
    t
}

/// Table 2: models and datasets of the evaluation.
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table 2: models and datasets",
        &[
            "application",
            "model",
            "dataset",
            "parameters",
            "batch",
            "optimizer",
        ],
    );
    for m in zoo::all_models() {
        t.row(vec![
            m.application.name().into(),
            m.name.clone(),
            m.dataset.clone(),
            format!("{:.1}M", m.param_count() as f64 / 1e6),
            m.default_batch.to_string(),
            m.optimizer.name().into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_covers_ten_optimizations() {
        assert_eq!(table1().rows.len(), 10);
    }

    #[test]
    fn table2_covers_six_models() {
        let t = table2();
        assert_eq!(t.rows.len(), 6);
        assert!(t.rows.iter().any(|r| r[1] == "ResNet-50"));
    }
}
