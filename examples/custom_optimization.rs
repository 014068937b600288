//! Authoring a custom what-if model with the §4.4 primitives.
//!
//! Run with `cargo run --release --example custom_optimization`.
//!
//! The built-in models in `daydream::core::whatif` are ordinary users of
//! the public transformation API, so new optimizations can be modeled in a
//! few lines. This example explores three hypotheses for BERT-base:
//!
//! 1. "What if every framework gap were halved?" (a faster CPU / a C++
//!    dispatcher — the 'could a better host help?' question)
//! 2. "What if the attention softmax kernels were fused into the GEMMs?"
//!    (a FlashAttention-style kernel, modeled with select + remove)
//! 3. "What if we injected a checksum kernel after every layer?" (overhead
//!    estimation for an integrity-checking tool, modeled with insert)

use daydream::core::transform::{insert_gpu_task_with_launch, select};
use daydream::core::{
    predict, simulate, DepKind, GraphEdit, GraphView, Prediction, ProfiledGraph, Task, TaskKind,
};
use daydream::models::zoo;
use daydream::runtime::{ground_truth, ExecConfig};
use daydream::trace::Phase;

fn main() {
    let model = zoo::bert_base();
    let cfg = ExecConfig::pytorch_2080ti();
    let trace = ground_truth::run_baseline(&model, &cfg);
    let profile = ProfiledGraph::from_trace(&trace);
    println!("baseline: {:.1} ms/iteration\n", trace.meta.iteration_ms());

    // 1. Shrink: halve every CPU gap (framework overhead). Gaps are not
    //    part of a graph patch, so edit a copy of the graph and simulate
    //    both versions.
    let mut halved = profile.graph.clone();
    for id in halved.select(|t| t.thread.is_cpu()) {
        halved.task_mut(id).gap_ns /= 2;
    }
    let faster_host = Prediction {
        baseline_ns: simulate(&profile.graph).expect("DAG").makespan_ns,
        predicted_ns: simulate(&halved).expect("DAG").makespan_ns,
    };
    println!(
        "halved framework gaps:      {:.1} ms ({:+.1}%)",
        faster_host.predicted_ms(),
        -faster_host.improvement() * -100.0
    );

    // 2. Select + remove: fuse attention softmax into the batched GEMMs.
    let fused_softmax = predict(&profile, |g| {
        let softmaxes =
            g.select_ids(|t| t.is_on_gpu() && t.name.contains("softmax_warp_kernel_attn"));
        let n = softmaxes.len();
        for id in softmaxes {
            g.remove_task(id);
        }
        assert!(n > 0, "BERT has attention softmax kernels");
    });
    println!(
        "fused attention softmax:    {:.1} ms ({:+.1}%)",
        fused_softmax.predicted_ms(),
        fused_softmax.improvement() * 100.0
    );

    // 3. Insert: a checksum kernel after every forward GPU task of a layer
    //    boundary (integrity checking), with its CPU launch per Fig. 4b.
    let with_checksums = predict(&profile, |g| {
        let targets = select::gpu_in_phase(g, Phase::Forward);
        // One checksum per LayerNorm output (block boundary).
        let targets: Vec<_> = targets
            .into_iter()
            .filter(|&id| g.task(id).name.contains("layer_norm"))
            .collect();
        for u in targets {
            let launch = g
                .predecessors(u)
                .iter()
                .find(|&&(_, k)| k == DepKind::Correlation)
                .map(|&(p, _)| p)
                .expect("kernels have launches");
            let thread = g.task(u).thread;
            let mut k = Task::new("checksum_kernel", TaskKind::GpuKernel, thread, 12_000);
            k.layer = g.task(u).layer;
            insert_gpu_task_with_launch(g, launch, u, k, 6_000);
        }
    });
    println!(
        "checksums after layernorms: {:.1} ms ({:+.1}%)",
        with_checksums.predicted_ms(),
        with_checksums.improvement() * 100.0
    );

    println!("\nall three answers came from one profile — no implementation needed.");
}
