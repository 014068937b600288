//! What-if: a different mini-batch size.
//!
//! Table 1's first optimization strategy is *increasing the mini-batch size*
//! (enabled by memory optimizations like vDNN and Gist), and §1 asks "does
//! GPU memory capacity limit the performance of my model?". This model
//! predicts iteration time at a new batch size from one profile: GPU kernel
//! work scales with the batch (above each kernel's fixed startup overhead),
//! input copies scale with the payload, and CPU launch work — per-kernel,
//! not per-sample — stays put, which is exactly why larger batches improve
//! hardware utilization.

use crate::graph::{GraphEdit, TaskId};
use crate::task::TaskKind;
use crate::transform::select;

/// Device-side startup latency assumed fixed per kernel, ns. Public so
/// analytic stand-ins (the sweep search's rung-0 surrogate) can split
/// kernel time into the fixed and batch-scalable shares the same way.
pub const KERNEL_OVERHEAD_NS: u64 = 3_000;

/// Rescales GPU work for a change from the profiled batch size
/// `old_batch` to `new_batch`, over any graph edit target; the caller
/// supplies the profiled batch size (graph views carry no metadata).
/// Returns the affected tasks.
pub fn plan_batch_size<G: GraphEdit>(g: &mut G, old_batch: u64, new_batch: u64) -> Vec<TaskId> {
    assert!(new_batch > 0, "batch size must be positive");
    let factor = new_batch as f64 / old_batch as f64;
    let gpu_tasks = select::gpu_tasks(g);
    // Retimes are recorded in runs between the memcpy rekinds, so the
    // op order is that of one task at a time.
    let mut run: Vec<(TaskId, u64)> = Vec::with_capacity(gpu_tasks.len());
    for &id in &gpu_tasks {
        let t = g.task(id);
        match t.kind {
            TaskKind::GpuMemcpy { dir, bytes } => {
                let scaled_bytes = (bytes as f64 * factor).round() as u64;
                let scaled_dur = (t.duration_ns as f64 * factor).round() as u64;
                g.set_durations(&run);
                run.clear();
                g.set_kind(
                    id,
                    TaskKind::GpuMemcpy {
                        dir,
                        bytes: scaled_bytes,
                    },
                );
                run.push((id, scaled_dur));
            }
            _ => {
                // Scale the work above the fixed startup overhead.
                let work = t.duration_ns.saturating_sub(KERNEL_OVERHEAD_NS);
                let scaled =
                    KERNEL_OVERHEAD_NS.min(t.duration_ns) + (work as f64 * factor).round() as u64;
                run.push((id, scaled));
            }
        }
    }
    g.set_durations(&run);
    gpu_tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::ProfiledGraph;
    use crate::predict::predict;
    use daydream_models::zoo;
    use daydream_runtime::{ground_truth, ExecConfig};

    #[test]
    fn doubling_batch_tracks_ground_truth() {
        let model = zoo::resnet50();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(16);
        let pg = ProfiledGraph::from_trace(&ground_truth::run_baseline(&model, &cfg));
        let pred = predict(&pg, |g| plan_batch_size(g, 16, 32));
        let gt_cfg = cfg.with_batch(32).with_seed(0xBA7C);
        let gt = ground_truth::run_baseline(&model, &gt_cfg)
            .meta
            .iteration_ns();
        let err = pred.error_vs(gt);
        assert!(err < 0.08, "batch-32 prediction error {err:.3}");
    }

    #[test]
    fn throughput_improves_with_batch() {
        // Per-sample time falls as fixed CPU/overhead costs amortize —
        // the reason larger mini-batches utilize hardware better.
        let model = zoo::resnet50();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(8);
        let pg = ProfiledGraph::from_trace(&ground_truth::run_baseline(&model, &cfg));
        let t8 = predict(&pg, |g| plan_batch_size(g, 8, 8));
        let t32 = predict(&pg, |g| plan_batch_size(g, 8, 32));
        let per_sample_8 = t8.predicted_ns as f64 / 8.0;
        let per_sample_32 = t32.predicted_ns as f64 / 32.0;
        assert!(
            per_sample_32 < per_sample_8,
            "per-sample time must fall: {per_sample_8:.0} -> {per_sample_32:.0}"
        );
    }

    #[test]
    fn identity_batch_is_noop() {
        let model = zoo::resnet50();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(8);
        let pg = ProfiledGraph::from_trace(&ground_truth::run_baseline(&model, &cfg));
        let pred = predict(&pg, |g| plan_batch_size(g, 8, 8));
        assert_eq!(pred.baseline_ns, pred.predicted_ns);
    }
}
