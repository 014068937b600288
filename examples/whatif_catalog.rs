//! What-if catalog: evaluate all ten modeled optimizations on one profile.
//!
//! Run with `cargo run --release --example whatif_catalog [model]`.
//!
//! This is the paper's headline use case (§1): given *one* profile of *your*
//! model on *your* hardware, rank candidate optimizations by predicted
//! benefit before implementing any of them. Optimizations that do not apply
//! (FusedAdam on SGD models) or that cost time (vDNN, Gist — they buy
//! memory, not speed) are reported as such.

use daydream::comm::ClusterConfig;
use daydream::core::whatif::{
    plan_amp, plan_blueconnect, plan_dgc, plan_distributed, plan_fused_adam, plan_gist,
    plan_metaflow, plan_reconstruct_bn, plan_vdnn, qkv_fusion_policy, DgcConfig, GistConfig,
    P3Config, P3Plan, VdnnConfig,
};
use daydream::core::{predict, ProfiledGraph};
use daydream::models::zoo;
use daydream::runtime::{ground_truth, ExecConfig};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BERT_Base".to_string());
    let model = zoo::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown model '{name}'; try ResNet-50, VGG-19, DenseNet-121, GNMT, BERT_Base, BERT_Large");
        std::process::exit(2);
    });
    let cfg = ExecConfig::pytorch_2080ti();
    let trace = ground_truth::run_baseline(&model, &cfg);
    let profile = ProfiledGraph::from_trace(&trace);
    println!(
        "profile: {} @ batch {} = {:.1} ms/iteration\n",
        model.name,
        trace.meta.batch_size,
        trace.meta.iteration_ms()
    );

    let cluster = ClusterConfig::new(4, 2, 10.0);
    let mut results: Vec<(String, f64, f64)> = Vec::new();

    let amp = predict(&profile, plan_amp);
    results.push((
        "mixed precision (AMP)".into(),
        amp.predicted_ms(),
        amp.improvement(),
    ));

    if model.optimizer == daydream::models::Optimizer::Adam {
        let fused = predict(&profile, plan_fused_adam);
        results.push((
            "FusedAdam".into(),
            fused.predicted_ms(),
            fused.improvement(),
        ));
    } else {
        println!("FusedAdam: not applicable ({} trains with SGD)", model.name);
    }

    let rbn = predict(&profile, |g| plan_reconstruct_bn(g, &model));
    results.push((
        "reconstructed batchnorm".into(),
        rbn.predicted_ms(),
        rbn.improvement(),
    ));

    // Fuse attention QKV projections, MetaFlow-style, where present.
    let policy = qkv_fusion_policy(&model);
    if !policy.is_empty() {
        let mf = predict(&profile, |g| plan_metaflow(g, &policy));
        results.push((
            "MetaFlow QKV fusion".into(),
            mf.predicted_ms(),
            mf.improvement(),
        ));
    }

    let batch = trace.meta.batch_size as u64;
    let vdnn = predict(&profile, |g| {
        plan_vdnn(g, &model, &VdnnConfig::default(), batch)
    });
    results.push((
        "vDNN offloading (memory)".into(),
        vdnn.predicted_ms(),
        vdnn.improvement(),
    ));

    let gist = predict(&profile, |g| plan_gist(g, &GistConfig::default()));
    results.push((
        "Gist encodings (memory)".into(),
        gist.predicted_ms(),
        gist.improvement(),
    ));

    // Distributed family: predicted 8-worker iteration times.
    let buckets = &profile.meta.buckets;
    let ddp = predict(&profile, |g| plan_distributed(g, buckets, &cluster));
    results.push((
        format!("DDP {cluster}"),
        ddp.predicted_ms(),
        ddp.improvement(),
    ));
    let bc = predict(&profile, |g| {
        let ars = plan_distributed(g, buckets, &cluster);
        plan_blueconnect(g, &cluster, &ars)
    });
    results.push((
        format!("DDP+BlueConnect {cluster}"),
        bc.predicted_ms(),
        bc.improvement(),
    ));
    let dgc = predict(&profile, |g| {
        let ars = plan_distributed(g, buckets, &cluster);
        plan_dgc(g, &ars, &DgcConfig::default())
    });
    results.push((
        format!("DDP+DGC {cluster}"),
        dgc.predicted_ms(),
        dgc.improvement(),
    ));

    let ps = ClusterConfig::new(4, 1, 10.0);
    let p3 = P3Plan::new(&profile, &P3Config::p3(ps))
        .evaluate(&ps)
        .expect("P3 plan must stay a DAG");
    results.push((
        format!("P3 parameter server {ps}"),
        p3.iteration_ms(),
        1.0 - p3.iteration_ms() / trace.meta.iteration_ms(),
    ));

    results.sort_by(|a, b| b.2.total_cmp(&a.2));
    println!(
        "{:<34} {:>12} {:>12}",
        "optimization", "pred (ms)", "improvement"
    );
    println!("{}", "-".repeat(62));
    for (name, ms, imp) in results {
        println!("{:<34} {:>12.1} {:>11.1}%", name, ms, imp * 100.0);
    }
    println!("\nnegative improvements are overheads (memory savers) or added");
    println!("communication (distributed modes keep per-GPU batch fixed).");
}
