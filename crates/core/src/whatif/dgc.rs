//! What-if: Deep Gradient Compression (paper §5.2, Algorithm 12).
//!
//! DGC sends only heavily compressed gradients: communication shrinks by
//! the compression ratio, but compression/decompression kernels run on the
//! GPU around every transfer. Applied after
//! [`crate::whatif::plan_distributed`] has inserted the all-reduce tasks.

use crate::graph::{DepKind, GraphEdit, TaskId};
use crate::task::{Task, TaskKind};
use crate::transform::select;

/// GPU time to compress one megabyte of gradients, ns (estimated from
/// existing element-wise kernels, per the paper's guideline).
const COMPRESS_NS_PER_MB: u64 = 55_000;

/// GPU time to decompress one megabyte, ns.
const DECOMPRESS_NS_PER_MB: u64 = 35_000;

/// Configuration of the DGC what-if analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DgcConfig {
    /// Fraction of gradient bytes that still travels (0.01 = 1%, the DGC
    /// paper's headline ratio plus metadata overhead).
    pub compression_ratio: f64,
}

impl Default for DgcConfig {
    fn default() -> Self {
        DgcConfig {
            compression_ratio: 0.01,
        }
    }
}

/// The durations, ns, of the compression and decompression kernels DGC
/// puts around a transfer of `bytes`: each scales with the whole
/// megabytes sent, at least one.
pub fn dgc_kernel_ns(bytes: u64) -> (u64, u64) {
    let mb = (bytes >> 20).max(1);
    (COMPRESS_NS_PER_MB * mb, DECOMPRESS_NS_PER_MB * mb)
}

/// Applies the DGC transformation, over any graph edit target, to
/// previously inserted communication tasks; returns the inserted
/// compression kernels.
pub fn plan_dgc<G: GraphEdit>(g: &mut G, comm_tasks: &[TaskId], cfg: &DgcConfig) -> Vec<TaskId> {
    // Compression runs on the compute stream before each transfer.
    let gpu_thread = select::first_gpu_task(g).map(|id| g.task(id).thread);
    let mut inserted = Vec::new();
    for &r in comm_tasks {
        let TaskKind::Communication { bytes, .. } = g.task(r).kind else {
            continue;
        };
        let (compress_ns, decompress_ns) = dgc_kernel_ns(bytes);
        // Scale the transfer itself.
        let compressed = (g.task(r).duration_ns as f64 * cfg.compression_ratio).round() as u64;
        g.set_duration(r, compressed);
        let gpu_thread = gpu_thread.expect("profile has GPU tasks");
        let hint = g.task(r).measured_start_ns;
        let mut comp = Task::new(
            "dgc_compress_kernel",
            TaskKind::GpuKernel,
            gpu_thread,
            compress_ns,
        );
        comp.measured_start_ns = hint;
        let comp_id = g.add_task(comp);
        let mut dec = Task::new(
            "dgc_decompress_kernel",
            TaskKind::GpuKernel,
            gpu_thread,
            decompress_ns,
        );
        dec.measured_start_ns = hint + 1;
        let dec_id = g.add_task(dec);

        // Rewire: preds -> compress -> transfer -> decompress -> succs.
        let preds: Vec<TaskId> = g
            .predecessors(r)
            .iter()
            .filter(|&&(_, k)| k == DepKind::Comm)
            .map(|&(p, _)| p)
            .filter(|&p| !g.task(p).thread.is_comm())
            .collect();
        let succs: Vec<TaskId> = g
            .successors(r)
            .iter()
            .filter(|&&(_, k)| k == DepKind::Comm)
            .map(|&(s, _)| s)
            .collect();
        for p in preds {
            g.remove_dep(p, r);
            g.add_dep(p, comp_id, DepKind::Comm);
        }
        g.add_dep(comp_id, r, DepKind::Comm);
        for s in succs {
            g.remove_dep(r, s);
            g.add_dep(dec_id, s, DepKind::Comm);
        }
        g.add_dep(r, dec_id, DepKind::Comm);
        inserted.push(comp_id);
        inserted.push(dec_id);
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::ProfiledGraph;
    use crate::predict::predict;
    use crate::whatif::plan_distributed;
    use daydream_comm::ClusterConfig;
    use daydream_models::zoo;
    use daydream_runtime::{ground_truth, ExecConfig};

    fn profile() -> ProfiledGraph {
        // VGG-19: the communication-dominated model where DGC shines.
        let model = zoo::vgg19();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(16);
        ProfiledGraph::from_trace(&ground_truth::run_baseline(&model, &cfg))
    }

    #[test]
    fn dgc_helps_on_slow_networks() {
        let pg = profile();
        let cluster = ClusterConfig::new(4, 1, 5.0);
        let plain = predict(&pg, |g| plan_distributed(g, &pg.meta.buckets, &cluster));
        let dgc = predict(&pg, |g| {
            let ars = plan_distributed(g, &pg.meta.buckets, &cluster);
            plan_dgc(g, &ars, &DgcConfig::default())
        });
        assert!(
            dgc.predicted_ns < plain.predicted_ns,
            "DGC {:.0}ms must beat plain DDP {:.0}ms at 5 Gbps",
            dgc.predicted_ms(),
            plain.predicted_ms()
        );
    }

    #[test]
    fn dgc_overhead_can_dominate_on_fast_networks() {
        // On a fast network the compression kernels outweigh the tiny
        // remaining transfers — the kind of negative result Daydream is
        // built to predict cheaply.
        let pg = profile();
        let cluster = ClusterConfig::new(2, 1, 40.0);
        let plain = predict(&pg, |g| plan_distributed(g, &pg.meta.buckets, &cluster));
        let dgc = predict(&pg, |g| {
            let ars = plan_distributed(g, &pg.meta.buckets, &cluster);
            plan_dgc(g, &ars, &DgcConfig::default())
        });
        let gain = 1.0 - dgc.predicted_ns as f64 / plain.predicted_ns as f64;
        assert!(
            gain < 0.10,
            "DGC gain {gain:.3} must shrink on fast networks"
        );
    }

    #[test]
    fn structure_valid_and_transfer_scaled() {
        let mut pg = profile();
        let cluster = ClusterConfig::new(4, 1, 10.0);
        let ars = plan_distributed(&mut pg.graph, &pg.meta.buckets, &cluster);
        let before: u64 = ars.iter().map(|&id| pg.graph.task(id).duration_ns).sum();
        let kernels = plan_dgc(&mut pg.graph, &ars, &DgcConfig::default());
        let after: u64 = ars.iter().map(|&id| pg.graph.task(id).duration_ns).sum();
        assert!(after < before / 50, "transfers must shrink ~100x");
        assert_eq!(kernels.len(), ars.len() * 2);
        pg.graph.validate().expect("DGC graph must stay a DAG");
    }
}
