//! Distributed scaling forecast from a single-GPU profile.
//!
//! Run with `cargo run --release --example distributed_scaling [model]`.
//!
//! Answers the paper's motivating questions (§1): *"How will my workload
//! scale with the number of GPUs? Would upgrading to a faster network
//! improve training throughput?"* — using only one single-GPU profile, no
//! cluster required (§2.2).

use daydream::comm::ClusterConfig;
use daydream::core::{predict, whatif, ProfiledGraph};
use daydream::models::zoo;
use daydream::runtime::{ground_truth, ExecConfig};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ResNet-50".to_string());
    let model = zoo::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown model '{name}'");
        std::process::exit(2);
    });
    let cfg = ExecConfig::pytorch_2080ti();
    let trace = ground_truth::run_baseline(&model, &cfg);
    let profile = ProfiledGraph::from_trace(&trace);
    let single = trace.meta.iteration_ms();
    println!(
        "{}: single-GPU iteration {:.1} ms, {:.0} MB of gradients/iteration\n",
        model.name,
        single,
        trace.meta.total_gradient_bytes() as f64 / (1 << 20) as f64
    );

    println!(
        "{:<12} {:>10} {:>12} {:>14} {:>12}",
        "cluster", "workers", "iter (ms)", "throughput", "efficiency"
    );
    println!("{}", "-".repeat(66));
    for bw in [10.0, 20.0, 40.0] {
        for cluster in ClusterConfig::fig8_layouts(bw) {
            let pred = predict(&profile, |g| {
                whatif::plan_distributed(g, &profile.meta.buckets, &cluster)
            });
            let workers = cluster.workers() as f64;
            // Samples/second across the cluster at fixed per-GPU batch.
            let samples = workers * trace.meta.batch_size as f64 / (pred.predicted_ms() / 1e3);
            let ideal = trace.meta.batch_size as f64 / (single / 1e3) * workers;
            println!(
                "{:<12} {:>10} {:>12.1} {:>10.0}/s {:>11.0}%",
                cluster.to_string(),
                cluster.workers(),
                pred.predicted_ms(),
                samples,
                samples / ideal * 100.0
            );
        }
        println!();
    }
    println!("efficiency = achieved / ideal linear scaling at fixed per-GPU batch");
}
