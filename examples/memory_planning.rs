//! Memory planning: combine the memory model with throughput what-ifs.
//!
//! Run with `cargo run --release --example memory_planning [model]`.
//!
//! Walks the full chain behind Table 1's "increase mini-batch size by
//! reducing memory footprint" strategy: how much memory the current batch
//! needs, how large a batch the device allows, what throughput that larger
//! batch would buy (what-if batch size), and what a vDNN offloading policy
//! would free up — together with its predicted time overhead, so the
//! memory/time trade-off is visible in one place.

use daydream::core::whatif::{plan_batch_size, plan_vdnn, VdnnConfig};
use daydream::core::{predict, ProfiledGraph};
use daydream::models::{footprint, max_batch, vdnn_offloadable_bytes, zoo};
use daydream::runtime::{ground_truth, ExecConfig};

const GIB: f64 = (1u64 << 30) as f64;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ResNet-50".to_string());
    let model = zoo::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown model '{name}'");
        std::process::exit(2);
    });
    let device_bytes = 11u64 << 30; // RTX 2080 Ti
    let batch = model.default_batch;
    let f = footprint(&model, batch);
    println!(
        "{} at batch {}: {:.2} GiB of {:.0} GiB device memory",
        model.name,
        batch,
        f.total_gib(),
        device_bytes as f64 / GIB
    );
    println!(
        "  params {:.2} + grads {:.2} + optimizer {:.2} + activations {:.2} + workspace {:.2} GiB",
        f.params as f64 / GIB,
        f.gradients as f64 / GIB,
        f.optimizer_state as f64 / GIB,
        f.activations as f64 / GIB,
        f.workspace as f64 / GIB
    );

    // How far can the batch grow, and what does that buy?
    let cfg = ExecConfig::pytorch_2080ti().with_batch(batch);
    let trace = ground_truth::run_baseline(&model, &cfg);
    let pg = ProfiledGraph::from_trace(&trace);
    let biggest = max_batch(&model, device_bytes);
    println!("\nlargest batch that fits: {biggest}");
    let base_throughput = batch as f64 / trace.meta.iteration_ms() * 1e3;
    println!(
        "  batch {:>4}: {:>8.1} ms/iter  {:>7.0} samples/s (profiled)",
        batch,
        trace.meta.iteration_ms(),
        base_throughput
    );
    for candidate in [batch * 2, biggest] {
        if candidate <= batch {
            continue;
        }
        let pred = predict(&pg, |g| plan_batch_size(g, batch, candidate));
        println!(
            "  batch {:>4}: {:>8.1} ms/iter  {:>7.0} samples/s (predicted)",
            candidate,
            pred.predicted_ms(),
            candidate as f64 / pred.predicted_ms() * 1e3
        );
    }

    // What would vDNN buy (memory) and cost (time)?
    let freed = vdnn_offloadable_bytes(&model, batch);
    let vdnn = predict(&pg, |g| plan_vdnn(g, &model, &VdnnConfig::default(), batch));
    println!(
        "\nvDNN(conv) at batch {}: frees {:.2} GiB of activations, costs {:.1}% iteration time",
        batch,
        freed as f64 / GIB,
        -vdnn.improvement() * 100.0
    );
    println!(
        "the memory freed raises the feasible batch — rerun the numbers above to close the loop."
    );
}
