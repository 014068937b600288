//! What-if: BlueConnect (paper §5.2, Algorithm 8).
//!
//! BlueConnect decomposes each all-reduce into reduce-scatter stages over a
//! factorization of the worker count, followed by the mirrored all-gather
//! stages, with each stage on its own (intra- or inter-node) channel so
//! heterogeneous link bandwidths are used concurrently. Modeled by
//! rewriting every inserted all-reduce task into the stage chain.

use crate::graph::{DepKind, GraphEdit, TaskId};
use crate::task::{CommChannel, CommPrimitive, ExecThread, Task, TaskKind};
use daydream_comm::{reduce_scatter_ns, ClusterConfig};

/// Applies the BlueConnect transformation, over any graph edit target, to
/// previously inserted all-reduce tasks (from
/// [`crate::whatif::plan_distributed`]).
///
/// Uses the natural two-level factorization of the cluster: GPUs within a
/// machine over PCIe, then machines over the network. Returns the tasks of
/// the rewritten chains.
pub fn plan_blueconnect<G: GraphEdit>(
    g: &mut G,
    cluster: &ClusterConfig,
    allreduce_tasks: &[TaskId],
) -> Vec<TaskId> {
    // (group size, bytes/ns, latency) per stage, innermost first.
    let mut stages: Vec<(u32, f64, f64)> = Vec::new();
    if cluster.gpus_per_machine > 1 {
        stages.push((
            cluster.gpus_per_machine,
            cluster.intra_bytes_per_ns(),
            2_000.0,
        ));
    }
    if cluster.machines > 1 {
        stages.push((
            cluster.machines,
            cluster.inter_bytes_per_ns(),
            cluster.latency_ns(),
        ));
    }
    let mut chain_tasks = Vec::new();
    if stages.is_empty() {
        return chain_tasks;
    }

    for &ar in allreduce_tasks {
        let TaskKind::Communication { bytes, .. } = g.task(ar).kind else {
            continue;
        };
        let succs: Vec<TaskId> = g.successors(ar).iter().map(|&(s, _)| s).collect();
        let order_hint = g.task(ar).measured_start_ns;

        // Rewrite the all-reduce node into the first reduce-scatter stage.
        let mut shard = bytes as f64;
        let rs0_name = format!("{}_rs0", g.task(ar).name);
        g.set_name(ar, rs0_name);
        g.set_kind(
            ar,
            TaskKind::Communication {
                prim: CommPrimitive::ReduceScatter,
                bytes,
            },
        );
        g.set_thread(ar, ExecThread::Comm(CommChannel::Stage(0)));
        g.set_duration(
            ar,
            reduce_scatter_ns(stages[0].0, bytes, stages[0].1, stages[0].2),
        );
        chain_tasks.push(ar);
        let mut tail = ar;
        shard /= stages[0].0 as f64;

        // Remaining reduce-scatters, then mirrored all-gathers.
        let mut plan: Vec<(usize, CommPrimitive, u64)> = Vec::new();
        for (si, st) in stages.iter().enumerate().skip(1) {
            plan.push((si, CommPrimitive::ReduceScatter, shard as u64));
            shard /= st.0 as f64;
        }
        for (si, _) in stages.iter().enumerate().rev() {
            shard *= stages[si].0 as f64;
            plan.push((si, CommPrimitive::AllGather, shard as u64));
        }
        for (hop, (si, prim, payload)) in plan.into_iter().enumerate() {
            let st = stages[si];
            let mut task = Task::new(
                format!("bc_{prim:?}_s{si}"),
                TaskKind::Communication {
                    prim,
                    bytes: payload,
                },
                ExecThread::Comm(CommChannel::Stage(si as u8)),
                reduce_scatter_ns(st.0, payload, st.1, st.2),
            );
            task.measured_start_ns = order_hint + hop as u64 + 1;
            let id = g.add_task(task);
            g.add_dep(tail, id, DepKind::Comm);
            tail = id;
            chain_tasks.push(id);
        }
        // The chain's end takes over the all-reduce's outgoing edges.
        for s in succs {
            g.remove_dep(ar, s);
            g.add_dep(tail, s, DepKind::Comm);
        }
    }
    chain_tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::ProfiledGraph;
    use crate::predict::predict;
    use crate::whatif::plan_distributed;
    use daydream_models::zoo;
    use daydream_runtime::{ground_truth, ExecConfig};

    fn profile() -> ProfiledGraph {
        let model = zoo::resnet50();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(16);
        ProfiledGraph::from_trace(&ground_truth::run_baseline(&model, &cfg))
    }

    #[test]
    fn blueconnect_beats_flat_ring_on_hierarchical_cluster() {
        let pg = profile();
        let cluster = ClusterConfig::new(4, 2, 10.0);
        let ring = predict(&pg, |g| plan_distributed(g, &pg.meta.buckets, &cluster));
        let bc = predict(&pg, |g| {
            let ars = plan_distributed(g, &pg.meta.buckets, &cluster);
            plan_blueconnect(g, &cluster, &ars)
        });
        assert!(
            bc.predicted_ns < ring.predicted_ns,
            "BlueConnect {:.1}ms should beat flat ring {:.1}ms",
            bc.predicted_ms(),
            ring.predicted_ms()
        );
    }

    #[test]
    fn chain_structure_is_valid() {
        let mut pg = profile();
        let cluster = ClusterConfig::new(4, 2, 10.0);
        let ars = plan_distributed(&mut pg.graph, &pg.meta.buckets, &cluster);
        let chain = plan_blueconnect(&mut pg.graph, &cluster, &ars);
        // Two stages -> rs0, rs1, ag1, ag0 per call.
        assert_eq!(chain.len(), ars.len() * 4);
        pg.graph
            .validate()
            .expect("BlueConnect graph must stay a DAG");
    }

    #[test]
    fn single_machine_multi_gpu_uses_one_stage() {
        let mut pg = profile();
        let cluster = ClusterConfig::new(1, 2, 10.0);
        let ars = plan_distributed(&mut pg.graph, &pg.meta.buckets, &cluster);
        let chain = plan_blueconnect(&mut pg.graph, &cluster, &ars);
        // One stage -> rs0 + ag0 per call.
        assert_eq!(chain.len(), ars.len() * 2);
        pg.graph.validate().unwrap();
    }
}
