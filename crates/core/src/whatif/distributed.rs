//! What-if: distributed data-parallel training from a single-GPU profile
//! (paper §5.1, Algorithm 6).
//!
//! For every DDP gradient bucket recorded by the instrumentation
//! ([`daydream_trace::BucketInfo`]), insert one `allReduce` task on the
//! collective channel. The call depends on the last backward GPU kernel of
//! each layer in the bucket (wait-free backpropagation, §4.2.2) and the
//! weight-update phase depends on every call. Durations come from the ring
//! formula the paper cites from nccl-tests \[56\] — the *theoretical* time,
//! which is what makes predictions deviate from interference-afflicted
//! ground truth (Fig. 9).

use crate::graph::{DepKind, GraphEdit, TaskId};
use crate::task::{CommChannel, CommPrimitive, ExecThread, Task, TaskKind};
use crate::transform::select;
use daydream_comm::{ring_allreduce_ns, ClusterConfig};
use daydream_trace::{BucketInfo, LayerId, Phase};

/// The distributed-training transformation (Algorithm 6) over any graph
/// edit target; the caller supplies the profiled gradient buckets (graph
/// views carry no metadata).
///
/// Returns the inserted all-reduce tasks in bucket order, so follow-up
/// transformations (BlueConnect, DGC) can rewrite them.
pub fn plan_distributed<G: GraphEdit>(
    g: &mut G,
    buckets: &[BucketInfo],
    cluster: &ClusterConfig,
) -> Vec<TaskId> {
    // Last backward-phase GPU task of each layer (gradient readiness).
    let anchors = select::layer_anchors(g).into_owned();
    let last_bwd = |layer: &LayerId| anchors.get(layer.0 as usize).and_then(|a| a.bwd_last);

    // The earliest node of the weight-update phase gates on communication.
    let wu_first = select::first_in_phase(g, Phase::WeightUpdate);

    let mut inserted = Vec::with_capacity(buckets.len());
    for b in buckets {
        let dur = ring_allreduce_ns(cluster, b.bytes);
        let mut task = Task::new(
            format!("allReduce_bucket{}", b.id),
            TaskKind::Communication {
                prim: CommPrimitive::AllReduce,
                bytes: b.bytes,
            },
            ExecThread::Comm(CommChannel::Collective),
            dur,
        );
        // Order hint for the channel: when the bucket's gradients appeared.
        task.measured_start_ns = b
            .layers
            .iter()
            .filter_map(last_bwd)
            .map(|id| g.task(id).measured_start_ns)
            .max()
            .unwrap_or(0);
        let id = g.add_task(task);
        for layer in &b.layers {
            if let Some(dep) = last_bwd(layer) {
                g.add_dep(dep, id, DepKind::Comm);
            }
        }
        if let Some(wu) = wu_first {
            g.add_dep(id, wu, DepKind::Comm);
        }
        inserted.push(id);
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::ProfiledGraph;
    use crate::predict::predict;
    use daydream_comm::NcclExecution;
    use daydream_models::zoo;
    use daydream_runtime::{baseline_plan, ground_truth, run_distributed, ExecConfig};

    fn profile(model: &daydream_models::Model, cfg: &ExecConfig) -> ProfiledGraph {
        ProfiledGraph::from_trace(&ground_truth::run_baseline(model, cfg))
    }

    #[test]
    fn prediction_tracks_synced_ground_truth() {
        // Fig. 8 compares predictions against the baseline with a sync
        // before each allReduce; errors are mostly under 10%.
        let model = zoo::resnet50();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(16);
        let pg = profile(&model, &cfg);
        let plan = baseline_plan(&model, 16);
        for cluster in [
            ClusterConfig::new(2, 1, 10.0),
            ClusterConfig::new(4, 2, 10.0),
        ] {
            let pred = predict(&pg, |g| plan_distributed(g, &pg.meta.buckets, &cluster));
            let gt = run_distributed(&model, &cfg, cluster, NcclExecution::Synced, &plan)
                .trace
                .meta
                .iteration_ns();
            let err = pred.error_vs(gt);
            assert!(err < 0.12, "{cluster}: prediction error {err:.3} too high");
        }
    }

    #[test]
    fn more_workers_cost_more_at_fixed_bandwidth() {
        let model = zoo::resnet50();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(16);
        let pg = profile(&model, &cfg);
        let t = |m: u32, g: u32| {
            let cluster = ClusterConfig::new(m, g, 10.0);
            predict(&pg, |pgg| plan_distributed(pgg, &pg.meta.buckets, &cluster)).predicted_ns
        };
        let t1 = t(1, 1);
        let t2 = t(2, 1);
        let t8 = t(4, 2);
        assert!(t1 < t2 && t2 < t8, "iteration time grows with ring size");
    }

    #[test]
    fn bandwidth_upgrade_helps() {
        let model = zoo::gnmt();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(16);
        let pg = profile(&model, &cfg);
        let t = |bw: f64| {
            let cluster = ClusterConfig::new(4, 1, bw);
            predict(&pg, |pgg| plan_distributed(pgg, &pg.meta.buckets, &cluster)).predicted_ns
        };
        assert!(t(10.0) > t(20.0));
        assert!(t(20.0) > t(40.0));
    }

    #[test]
    fn comm_overlaps_with_backward() {
        // Wait-free backprop: total time must be far less than compute +
        // full communication (the calls overlap backward kernels).
        let model = zoo::resnet50();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(16);
        let pg = profile(&model, &cfg);
        let cluster = ClusterConfig::new(4, 1, 10.0);
        let pred = predict(&pg, |g| plan_distributed(g, &pg.meta.buckets, &cluster));
        let total_comm: u64 = pg
            .meta
            .buckets
            .iter()
            .map(|b| ring_allreduce_ns(&cluster, b.bytes))
            .sum();
        assert!(pred.predicted_ns < pred.baseline_ns + total_comm);
        assert!(pred.predicted_ns > pred.baseline_ns);
    }

    #[test]
    fn one_call_per_bucket_and_graph_stays_valid() {
        let model = zoo::bert_base();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(2);
        let mut pg = profile(&model, &cfg);
        let cluster = ClusterConfig::new(2, 1, 10.0);
        let calls = plan_distributed(&mut pg.graph, &pg.meta.buckets, &cluster);
        assert_eq!(calls.len(), pg.meta.buckets.len());
        pg.graph
            .validate()
            .expect("transformed graph must stay a DAG");
    }
}
