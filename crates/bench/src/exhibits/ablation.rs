//! Ablations of the design choices DESIGN.md calls out: DDP bucket size,
//! P3 slice size, and DGC compression ratio.

use crate::util::{ms, profile_for, Table};
use daydream_comm::ClusterConfig;
use daydream_core::predict;
use daydream_core::whatif::{plan_dgc, plan_distributed, DgcConfig, P3Config, P3Plan};
use daydream_runtime::ddp_buckets;

/// DDP gradient-bucket capacity sweep (PyTorch defaults to 25 MB).
pub fn bucket_sweep() -> Table {
    let (pg, model) = profile_for("ResNet-50", None, false);
    let cluster = ClusterConfig::new(4, 1, 10.0);
    let mut t = Table::new(
        "Ablation: DDP bucket capacity (ResNet-50, 4x1 @ 10 Gbps)",
        &["bucket cap", "buckets", "predicted iter (ms)"],
    );
    for cap_mb in [1u64, 5, 25, 100, 4096] {
        let buckets = ddp_buckets(&model, cap_mb << 20);
        let pred = predict(&pg, |g| plan_distributed(g, &buckets, &cluster));
        let label = if cap_mb >= 4096 {
            "one call".to_string()
        } else {
            format!("{cap_mb} MB")
        };
        t.row(vec![
            label,
            buckets.len().to_string(),
            ms(pred.predicted_ms()),
        ]);
    }
    t.note("small buckets pay per-call latency; one giant call loses overlap");
    t.note("with backward — 25 MB (the PyTorch default) sits in the flat middle");
    t
}

/// P3 slice-size sweep (the P3 paper defaults to fine slices).
pub fn slice_sweep() -> Table {
    let (pg, _) = profile_for("ResNet-50", Some(16), true);
    let cluster = ClusterConfig::new(4, 1, 2.0);
    let mut t = Table::new(
        "Ablation: P3 slice size (ResNet-50, 4x1 @ 2 Gbps)",
        &["slice", "predicted iter (ms)"],
    );
    let evaluate = |cfg: P3Config| {
        P3Plan::new(&pg, &cfg)
            .evaluate(&cluster)
            .expect("P3 plan must stay a DAG")
    };
    let baseline = evaluate(P3Config::baseline(cluster));
    t.row(vec![
        "whole tensors (no P3)".into(),
        ms(baseline.iteration_ms()),
    ]);
    for kb in [256u64, 1024, 4096, 16384] {
        let pred = evaluate(P3Config {
            cluster,
            slice_bytes: Some(kb << 10),
        });
        t.row(vec![format!("{} KB", kb), ms(pred.iteration_ms())]);
    }
    t.note("slicing + priority lets input-side parameters overtake the backlog;");
    t.note("beyond a point smaller slices only add per-message latency");
    t
}

/// DGC compression-ratio sweep.
pub fn dgc_sweep() -> Table {
    let (pg, _) = profile_for("VGG-19", Some(16), false);
    let cluster = ClusterConfig::new(4, 1, 5.0);
    let mut t = Table::new(
        "Ablation: DGC compression ratio (VGG-19, 4x1 @ 5 Gbps)",
        &["ratio", "predicted iter (ms)"],
    );
    let plain = predict(&pg, |g| plan_distributed(g, &pg.meta.buckets, &cluster));
    t.row(vec![
        "1.0 (no compression)".into(),
        ms(plain.predicted_ms()),
    ]);
    for ratio in [0.1, 0.01, 0.001] {
        let cfg = DgcConfig {
            compression_ratio: ratio,
        };
        let pred = predict(&pg, |g| {
            let ars = plan_distributed(g, &pg.meta.buckets, &cluster);
            plan_dgc(g, &ars, &cfg)
        });
        t.row(vec![format!("{ratio}"), ms(pred.predicted_ms())]);
    }
    t.note("returns diminish once compression kernels outweigh the saved wire time");
    t
}

/// All three ablations merged into one exhibit table stream.
pub fn ablation() -> Table {
    let mut t = bucket_sweep();
    let slice = slice_sweep();
    let dgc = dgc_sweep();
    // Chain the extra tables as notes so one CSV captures the headline sweep
    // and the text output still shows all three.
    t.note(String::new());
    t.note(slice.to_string());
    t.note(dgc.to_string());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_sweep_shape() {
        let t = bucket_sweep();
        assert_eq!(t.rows.len(), 5);
        let times: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        // The PyTorch default (25 MB) must not be the worst choice.
        let worst = times.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            times[2] < worst,
            "25 MB should beat the worst extreme: {times:?}"
        );
    }

    #[test]
    fn dgc_sweep_monotone_until_overhead() {
        let t = dgc_sweep();
        let times: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        // Any compression beats none at 5 Gbps for VGG-19.
        assert!(times[1] < times[0]);
    }
}
