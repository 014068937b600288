//! Quickstart: profile one training iteration and ask a what-if question.
//!
//! Run with `cargo run --release --example quickstart`.
//!
//! This walks the full Daydream pipeline from the paper (§4): collect a
//! CUPTI-style trace, build the kernel-level dependency graph, map tasks to
//! layers, transform the graph to model an optimization, and simulate the
//! result — all without implementing the optimization itself.

use daydream::core::{predict, simulate, whatif, ProfiledGraph};
use daydream::models::zoo;
use daydream::runtime::{ground_truth, ExecConfig};
use daydream::trace::runtime_breakdown;

fn main() {
    // Phase 1: trace collection. On real hardware this is CUPTI plus a few
    // framework timestamps; here the execution simulator plays that role.
    let model = zoo::resnet50();
    let cfg = ExecConfig::pytorch_2080ti();
    let trace = ground_truth::run_baseline(&model, &cfg);
    println!(
        "profiled {} (batch {}): {:.1} ms/iteration, {} activities",
        model.name,
        trace.meta.batch_size,
        trace.meta.iteration_ms(),
        trace.activities.len()
    );
    let b = runtime_breakdown(&trace);
    println!(
        "breakdown: {:.0}% CPU+GPU, {:.0}% CPU-only, {:.0}% GPU-only",
        b.overlap_frac() * 100.0,
        b.cpu_only_frac() * 100.0,
        b.gpu_only_frac() * 100.0
    );

    // Phase 2: dependency-graph construction + layer mapping.
    let profile = ProfiledGraph::from_trace(&trace);
    let sim = simulate(&profile.graph).expect("profiled graph is a DAG");
    println!(
        "dependency graph: {} tasks, {} edges; simulated baseline {:.1} ms \
         (vs measured {:.1} ms)",
        profile.graph.len(),
        profile.graph.edge_count(),
        sim.makespan_ms(),
        trace.meta.iteration_ms()
    );

    // Phases 3+4: what if we enabled Automatic Mixed Precision?
    let amp = predict(&profile, whatif::plan_amp);
    println!(
        "what-if AMP: {:.1} ms -> {:.1} ms ({:.2}x speedup predicted)",
        amp.baseline_ms(),
        amp.predicted_ms(),
        amp.speedup()
    );

    // Sanity-check the prediction against "actually implementing" AMP.
    let gt = ground_truth::run_amp(&model, &cfg);
    println!(
        "ground truth AMP: {:.1} ms (prediction error {:.1}%)",
        gt.meta.iteration_ms(),
        amp.error_vs(gt.meta.iteration_ns()) * 100.0
    );
}
