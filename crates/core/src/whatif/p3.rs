//! What-if: Priority-Based Parameter Propagation (paper §5.1, Algorithm 7).
//!
//! P3 slices each gradient tensor and schedules slice transfers by layer
//! priority, so parameters of input-side layers — needed first by the next
//! iteration's forward pass — arrive first. Modeling it exercises all
//! three advanced primitives at once: the profile is unrolled over
//! iterations, push/pull tasks are *inserted* per slice between a layer's
//! backward task and its next-iteration forward task, and the simulator's
//! `Schedule` function is overridden with a priority queue.
//! [`P3Plan`] is the one evaluator: it applies a config's inserts to the
//! compiled, unrolled profile and sorts the scheduler's ranks once, then
//! prices each cluster's transfers and simulates them on a reusable
//! arena.
//!
//! # Copy 0 is timed once per plan, the rest copy by copy
//!
//! The first unrolled copy is the profiled iteration itself. Transfers
//! depend on backward kernels and feed only later copies, so nothing
//! outside copy 0 feeds it; replication chains every compute thread
//! across copies, so each thread finishes copy 0 before it starts the
//! next. Each copy-0 task therefore starts at its latest predecessor
//! finish, as in the base profile's simulation, whatever the cluster's
//! wire times, and [`P3Plan::build`] times copy 0 once with the
//! simulator's chain sweep: 21–33% of each catalog plan is never timed
//! again.
//!
//! The same sweep marks the push and pull channels, the plan's only
//! threads on which transfers that do not depend on each other wait
//! together, and Algorithm 7's priority order has a choice to make.
//! Every compute thread is a chain, so each later compute task, too,
//! starts at its latest predecessor finish, whatever the order the
//! simulator takes tasks in; and a channel's picks depend only on its
//! own transfers' release times and ranks, as on a single machine under
//! list scheduling. So each evaluation runs the plan copy by copy (the
//! simulator's module docs): it walks a copy's compute tasks in the
//! build sweep's FIFO order, then puts the copy's pushes on the push
//! channel's frontier and drains it, then its pulls on the pull
//! channel's. That is the kernel's run under [`P3Scheduler`], which
//! ranks every compute task below every transfer, wherever the plan
//! passes the build's checks, which the catalog's plans all do, and the
//! cluster's wire times pass the run's. Where a check fails, the run is
//! the simulator's dispatch loop over the whole plan, with a frontier on
//! the two channels alone, and its row reads `full`.
//!
//! # Pricing, layout and key
//!
//! Algorithm 7 prices a transfer at its pure wire time, `bytes /
//! bandwidth` ([`PsModel::wire_ns`]), so a prediction depends only on
//! the plan and the cluster, and the plan alone prices:
//! [`P3Plan::steady_iteration_ns`] writes the wire times into the arena
//! and [`P3Plan::retimed_fingerprint`] keys them. It keeps no task id:
//! [`replicate_iterations`] and [`CompiledGraph::apply`] make copy `k` of
//! `n` the compact-id range `k·m..(k+1)·m` of the profile's `m` tasks,
//! and insert `j`'s push and pull `n·m + 2j` and `n·m + 2j + 1`, which
//! the build asserts. Real MXNet messages also pay engine overheads the
//! wire time leaves out, which is why the paper overestimates P3's
//! speedup at higher bandwidths (§6.6).

use crate::compiled::{CompactId, CompiledGraph};
use crate::construct::ProfiledGraph;
use crate::graph::{DepKind, GraphEdit, GraphError, TaskId};
use crate::patch::{PatchGraph, PatchSummary};
use crate::replicate::{replicate_iterations, ReplicatedGraph};
use crate::sim::{FrontierOrder, Rank, ReplaySeed, SimScratch};
use crate::task::{CommChannel, CommPrimitive, ExecThread, Task, TaskKind};
use daydream_comm::{ClusterConfig, PsModel};
use daydream_trace::{fnv1a64_continue, LayerId, Phase, FNV_OFFSET};
use std::collections::HashMap;
use std::ops::Range;

/// Iterations P3's plans unroll for steady state.
pub const P3_ITERATIONS: usize = 3;

/// Configuration of the P3 what-if analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P3Config {
    /// The parameter-server cluster.
    pub cluster: ClusterConfig,
    /// Gradient slice size in bytes; `None` models the layer-granularity
    /// MXNet baseline instead of P3.
    pub slice_bytes: Option<u64>,
}

impl P3Config {
    /// P3 with its 4 MB slices.
    pub fn p3(cluster: ClusterConfig) -> Self {
        P3Config {
            cluster,
            slice_bytes: Some(4 << 20),
        }
    }

    /// The layer-granularity FIFO baseline.
    pub fn baseline(cluster: ClusterConfig) -> Self {
        P3Config {
            cluster,
            slice_bytes: None,
        }
    }
}

/// The P3 scheduler: earliest feasible start, ties on communication
/// channels broken by priority (Algorithm 7's `Schedule` override), as a
/// [`FrontierOrder`] of the full simulator.
#[derive(Debug, Default, Clone, Copy)]
pub struct P3Scheduler;

/// Maps a priority to a rank component so *higher* priorities order
/// *first* (ranks are min-ordered).
fn descending(priority: i64) -> u64 {
    !((priority as u64) ^ (1 << 63))
}

impl FrontierOrder for P3Scheduler {
    fn rank(&self, graph: &CompiledGraph, task: CompactId) -> Rank {
        if graph.on_comm_thread(task) {
            // Highest priority first; ties by task id.
            (descending(graph.priority(task)), task.0 as u64)
        } else {
            // Compute threads keep the default earliest-id order. The id
            // component stays below any comm rank's priority component, so
            // cross-thread ties at equal feasibility favor compute tasks.
            // This total order makes mixed comm/compute ties at equal
            // feasibility deterministic (pinned in `sim_equivalence.rs`).
            (task.0 as u64, 0)
        }
    }
}

/// Result of the P3 what-if analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P3Prediction {
    /// Predicted steady-state iteration time, ns.
    pub iteration_ns: u64,
    /// Push/pull task pairs inserted per iteration.
    pub messages_per_iteration: usize,
}

impl P3Prediction {
    /// Predicted iteration time in milliseconds.
    pub fn iteration_ms(&self) -> f64 {
        self.iteration_ns as f64 / 1e6
    }
}

/// Splits `bytes` into slices (whole tensor when slicing is off).
fn slices(bytes: u64, cfg: &P3Config) -> Vec<u64> {
    match cfg.slice_bytes {
        None => vec![bytes],
        Some(s) => {
            let s = s.max(1);
            let mut rem = bytes;
            let mut out = Vec::new();
            while rem > 0 {
                let take = rem.min(s);
                out.push(take);
                rem -= take;
            }
            out
        }
    }
}

/// One push/pull pair of the P3 insertion plan: everything needed to
/// splice a gradient slice's transfer into the replicated graph, computed
/// up front so the insertion itself can run against any graph edit target
/// (including a patch-recording overlay over a shared replicated base).
#[derive(Debug, Clone, PartialEq)]
pub struct P3Insert {
    /// The replica backward task whose completion releases the push.
    pub bwd: TaskId,
    /// The next-iteration forward task gated by the pull, if any.
    pub consumer: Option<TaskId>,
    /// Transfer priority (input-side layers first).
    pub priority: i64,
    /// Slice payload, bytes.
    pub bytes: u64,
    /// Wire time of the slice, ns.
    pub wire_ns: u64,
    /// Push task name (`push_<layer>_<slice>`).
    pub push_name: String,
    /// Pull task name.
    pub pull_name: String,
    /// Channel-order hint (the backward anchor's measured start).
    pub start_hint_ns: u64,
    /// The unrolled iteration whose backward task releases the push: the
    /// copy [`P3Plan`]'s run times the pair with, and, for iteration 0,
    /// the messages-per-iteration count.
    pub iteration: usize,
}

/// Computes the P3 insertion plan for an unrolled profile: one push/pull
/// pair per gradient slice per iteration, anchored between each layer's
/// backward completion and its next-iteration forward start.
pub fn p3_insert_plan(pg: &ProfiledGraph, rep: &ReplicatedGraph, cfg: &P3Config) -> Vec<P3Insert> {
    let ps = PsModel::new(cfg.cluster);

    // Per-layer anchors in the original graph.
    let mut last_bwd: HashMap<LayerId, TaskId> = HashMap::new();
    let mut first_fwd: HashMap<LayerId, TaskId> = HashMap::new();
    let mut fwd_index: HashMap<LayerId, i64> = HashMap::new();
    for (id, t) in pg.graph.iter() {
        let Some(lr) = t.layer else { continue };
        match lr.phase {
            Phase::Backward if t.is_on_gpu() => {
                let e = last_bwd.entry(lr.layer).or_insert(id);
                if pg.graph.task(*e).measured_start_ns < t.measured_start_ns {
                    *e = id;
                }
            }
            Phase::Forward => {
                let e = first_fwd.entry(lr.layer).or_insert(id);
                if pg.graph.task(*e).measured_start_ns > t.measured_start_ns {
                    *e = id;
                }
                let idx = fwd_index.entry(lr.layer).or_insert(i64::MAX);
                *idx = (*idx).min(t.measured_start_ns as i64);
            }
            _ => {}
        }
    }

    let mut inserts = Vec::new();
    let n = rep.iterations();
    for (layer, grad) in pg.meta.gradients.iter().map(|g| (g.layer, g.bytes)) {
        let Some(&bwd) = last_bwd.get(&layer) else {
            continue;
        };
        // P3 priority: input-side layers (earlier forward start) first.
        let priority = -fwd_index.get(&layer).copied().unwrap_or(0);
        for k in 0..n {
            let bwd_k = rep.replica(k, bwd);
            let consumer = if k + 1 < n {
                first_fwd.get(&layer).map(|&f| rep.replica(k + 1, f))
            } else {
                None
            };
            for (si, s) in slices(grad, cfg).into_iter().enumerate() {
                // Pure wire time: Daydream computes the duration "from the
                // slice size and the network bandwidth" (§5.1).
                inserts.push(P3Insert {
                    bwd: bwd_k,
                    consumer,
                    priority,
                    bytes: s,
                    wire_ns: ps.wire_ns(s),
                    push_name: format!("push_{layer}_{si}"),
                    pull_name: format!("pull_{layer}_{si}"),
                    start_hint_ns: rep.graph.task(bwd_k).measured_start_ns,
                    iteration: k,
                });
            }
        }
    }
    inserts
}

/// Splices a P3 insertion plan into a replicated graph (or a patch
/// overlay of one); returns the messages-per-iteration count.
/// [`P3Plan::build`] records it as a patch; tests run it in place as the
/// oracle.
pub fn plan_p3_inserts<G: GraphEdit>(g: &mut G, inserts: &[P3Insert]) -> usize {
    let mut messages = 0usize;
    for ins in inserts {
        let mut push = Task::new(
            ins.push_name.clone(),
            TaskKind::Communication {
                prim: CommPrimitive::Push,
                bytes: ins.bytes,
            },
            ExecThread::Comm(CommChannel::Send),
            ins.wire_ns,
        );
        push.priority = ins.priority;
        push.measured_start_ns = ins.start_hint_ns + 1;
        let mut pull = Task::new(
            ins.pull_name.clone(),
            TaskKind::Communication {
                prim: CommPrimitive::Pull,
                bytes: ins.bytes,
            },
            ExecThread::Comm(CommChannel::Receive),
            ins.wire_ns,
        );
        pull.priority = ins.priority;
        pull.measured_start_ns = ins.start_hint_ns + 2;
        let push_id = g.add_task(push);
        let pull_id = g.add_task(pull);
        g.add_dep(ins.bwd, push_id, DepKind::Comm);
        g.add_dep(push_id, pull_id, DepKind::Comm);
        if let Some(c) = ins.consumer {
            g.add_dep(pull_id, c, DepKind::Comm);
        }
        if ins.iteration == 0 {
            messages += 1;
        }
    }
    messages
}

/// Unrolls a profile for P3's steady-state analysis (at least two
/// iterations). The result is the shared base [`P3Plan::build`] compiles
/// once and patches per config.
pub fn p3_replicated_base(pg: &ProfiledGraph, iterations: usize) -> ReplicatedGraph {
    replicate_iterations(&pg.graph, iterations.max(2))
}

/// A compiled P3 (or PS-baseline) plan: the replicated base with one
/// config's push/pull tasks inserted and applied, once, and
/// [`P3Scheduler`]'s order over it sorted into dense ranks, once. Of the
/// whole plan only the transfer durations depend on the cluster, and the
/// plan prices them itself (module docs), so evaluating a cluster writes
/// them straight into a [`SimScratch`] arena's copy of the duration rows
/// and simulates there; it never re-plans, re-emits, re-applies,
/// re-ranks or clones.
///
/// Copy 0 is not timed by any evaluation, and the rest runs copy by
/// copy (module docs): the plan keeps copy 0's timing (each later task's
/// tentative start, each thread's progress), taken once at build by a
/// chain sweep over the plan, and the order of the per-copy run: each
/// later copy's compute tasks in that sweep's FIFO order, and each
/// copy's transfers, its pushes before its pulls. The build checks that
/// the sweep marks exactly the push and pull channels, that every edge
/// runs forward in copy order, and that every compute task that costs
/// nothing ranks below every transfer; if a check fails, or copy 0 is
/// one of the two copies the steady state reads, every evaluation runs
/// the whole plan through the simulator's dispatch loop, and so does one
/// whose wire times fail a check of the run. Either way the sweep's
/// marks, the push and pull channels, are the only threads an evaluation
/// keeps a frontier on.
#[derive(Debug, Clone)]
pub struct P3Plan {
    /// The applied replicated graph. Its transfer durations are those of
    /// the cluster that built the plan; every evaluation replaces them.
    compiled: CompiledGraph,
    /// [`P3Scheduler`]'s dense ranks over `compiled`
    /// ([`FrontierOrder::dense_ranks`]).
    ranks: Option<Vec<u32>>,
    /// Copy 0's timing and the per-copy run's order (empty: every
    /// evaluation runs the whole plan).
    seed: ReplaySeed,
    /// Payload bytes of each insert, whose push and pull close the plan's
    /// compact ids (module docs).
    payloads: Vec<u64>,
    /// The distinct values of `payloads`, ascending.
    sizes: Vec<u64>,
    /// Tasks per unrolled copy: the profile's `m`.
    copy_len: usize,
    /// Fingerprint of the plan's patch over the replicated base.
    fingerprint: u64,
    /// Op counts of the plan's patch.
    summary: PatchSummary,
    /// Push/pull pairs inserted per iteration.
    messages_per_iteration: usize,
}

impl P3Plan {
    /// Plans `cfg` over a lone profile: unrolls [`P3_ITERATIONS`]
    /// copies, compiles them and builds the plan over that base.
    pub fn new(pg: &ProfiledGraph, cfg: &P3Config) -> P3Plan {
        let rep = p3_replicated_base(pg, P3_ITERATIONS);
        let compiled = CompiledGraph::compile(&rep.graph);
        P3Plan::build(pg, &rep, &compiled, cfg)
    }

    /// Plans `cfg`'s inserts over a replicated base of `pg` (and its
    /// compiled form) and applies them. Several configs' plans can share
    /// one replication.
    pub fn build(
        pg: &ProfiledGraph,
        rep: &ReplicatedGraph,
        rep_compiled: &CompiledGraph,
        cfg: &P3Config,
    ) -> P3Plan {
        let inserts = p3_insert_plan(pg, rep, cfg);
        let mut ov = PatchGraph::new(&rep.graph);
        let messages_per_iteration = plan_p3_inserts(&mut ov, &inserts);
        let patch = ov.finish();
        let compiled = rep_compiled.apply(&patch);
        let compact = |id: TaskId| compiled.compact_of(id).map_or(usize::MAX, |c| c.0 as usize);
        let (n, m) = (rep.iterations(), pg.graph.len());
        assert!(
            (0..n).all(|k| (k * m..)
                .zip(pg.graph.iter())
                .all(|(i, (id, _))| compact(rep.replica(k, id)) == i))
                && (n * m..)
                    .zip(patch.inserted_tasks())
                    .all(|(i, (id, _))| compact(id) == i),
            "a P3 plan's copies are compact-id ranges and its transfers follow them"
        );
        // A transfer's copy is its insert's iteration, and each copy's
        // pushes run before its pulls.
        let first = n * m;
        let copy_of = |i: usize| inserts[(i - first) / 2].iteration as u32;
        let mut staged: Vec<(u32, CompactId)> = (first..compiled.len())
            .map(|i| (copy_of(i), CompactId(i as u32)))
            .collect();
        staged.sort_unstable_by_key(|&(copy, c)| (copy, (c.0 as usize - first) % 2, c.0));
        let ranks = P3Scheduler.dense_ranks(&compiled);
        // The steady state must read only copies after copy 0.
        let replayed = if n > 2 { m } else { 0 };
        let seed = ReplaySeed::build(&compiled, ranks.as_deref(), replayed, &staged);
        let payloads: Vec<u64> = inserts.iter().map(|ins| ins.bytes).collect();
        let mut sizes = payloads.clone();
        sizes.sort_unstable();
        sizes.dedup();
        P3Plan {
            ranks,
            seed,
            compiled,
            payloads,
            sizes,
            copy_len: m,
            fingerprint: patch.fingerprint(),
            summary: patch.summary(),
            messages_per_iteration,
        }
    }

    /// Fingerprint of the plan's patch. The sliced plan is the FIFO one
    /// when no gradient exceeds a slice; equal fingerprints say so.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Op counts of the plan's patch over the replicated base.
    pub fn summary(&self) -> PatchSummary {
        self.summary
    }

    /// The applied replicated graph, timed for the cluster that built the
    /// plan.
    pub fn compiled(&self) -> &CompiledGraph {
        &self.compiled
    }

    /// Copy-0 tasks each evaluation replays from the build's timing
    /// instead of timing them: 0 when a build check failed.
    pub fn replayed_tasks(&self) -> usize {
        self.seed.replayed()
    }

    /// Tasks each evaluation times on the per-copy run: the plan's tasks
    /// after copy 0, or all of them when nothing is replayed.
    pub fn dispatched_tasks(&self) -> usize {
        self.compiled.len() - self.seed.replayed()
    }

    /// The plan's fingerprint folded (FNV-1a) with one `(size, wire
    /// time)` pair per distinct payload size, ascending, at
    /// [`PsModel::wire_ns`] on `cluster`: the pairs fix every transfer's
    /// duration, so equal values mean the same retimed plan. Clusters with
    /// equal wire times (one machine at any bandwidth) share it, and so
    /// do the FIFO and sliced plans where they coincide.
    pub fn retimed_fingerprint(&self, cluster: &ClusterConfig) -> u64 {
        let ps = PsModel::new(*cluster);
        let plan = fnv1a64_continue(FNV_OFFSET, &self.fingerprint.to_le_bytes());
        self.sizes.iter().fold(plan, |h, &bytes| {
            let h = fnv1a64_continue(h, &bytes.to_le_bytes());
            fnv1a64_continue(h, &ps.wire_ns(bytes).to_le_bytes())
        })
    }

    /// Steady-state iteration time on `cluster`, and how many tasks the
    /// run timed: a simulation under [`P3Scheduler`] in `scratch` with
    /// each transfer's duration set to [`PsModel::wire_ns`] of its
    /// payload, read as the span between the last two unrolled copies'
    /// latest ends, as [`ReplicatedGraph::steady_iteration_ns`] reads it
    /// from a full run. The run is the per-copy run after copy 0, which
    /// times [`P3Plan::dispatched_tasks`], unless the build or these wire
    /// times fail one of its checks; then it times every task of the
    /// plan. A warm arena makes the call allocation-free.
    pub fn steady_iteration_ns(
        &self,
        cluster: &ClusterConfig,
        scratch: &mut SimScratch,
    ) -> Result<(u64, usize), GraphError> {
        let ps = PsModel::new(*cluster);
        let (m, first) = (self.copy_len, self.compiled.len() - 2 * self.payloads.len());
        let wire = |i: usize| ps.wire_ns(self.payloads[(i - first) / 2]);
        let retimes = (first..self.compiled.len()).map(|i| (CompactId(i as u32), wire(i)));
        let (timed, end_of) =
            scratch.simulate_retimed(&self.compiled, self.ranks.as_deref(), &self.seed, retimes)?;
        let end = |copy: Range<usize>| copy.map(|i| end_of(CompactId(i as u32))).max().unwrap_or(0);
        Ok((end(first - m..first) - end(first - 2 * m..first - m), timed))
    }

    /// The plan's prediction on `cluster`, simulated on a fresh arena.
    pub fn evaluate(&self, cluster: &ClusterConfig) -> Result<P3Prediction, GraphError> {
        Ok(P3Prediction {
            iteration_ns: self.steady_iteration_ns(cluster, &mut SimScratch::new())?.0,
            messages_per_iteration: self.messages_per_iteration,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daydream_models::zoo;
    use daydream_runtime::ExecConfig;

    fn worker_profile(model: &daydream_models::Model, batch: u64) -> ProfiledGraph {
        // MXNet parameter-server workers do not run a local weight update.
        let cfg = ExecConfig::mxnet_p4000().with_batch(batch);
        let ex = daydream_runtime::Executor::new(model, &cfg);
        let mut plan = daydream_runtime::baseline_plan(model, batch);
        plan.wu.clear();
        ProfiledGraph::from_trace(&ex.run(&plan))
    }

    #[test]
    fn p3_beats_ps_baseline_at_low_bandwidth() {
        // At 2 Gbps ResNet-50's gradient traffic outlasts the compute it
        // can hide behind, so scheduling order matters.
        let model = zoo::resnet50();
        let pg = worker_profile(&model, 16);
        let cluster = ClusterConfig::new(4, 1, 2.0);
        let predict = |cfg: P3Config| P3Plan::new(&pg, &cfg).evaluate(&cluster).unwrap();
        let base = predict(P3Config::baseline(cluster));
        let p3 = predict(P3Config::p3(cluster));
        assert!(
            p3.iteration_ns < base.iteration_ns,
            "P3 {:.1}ms must beat baseline {:.1}ms",
            p3.iteration_ms(),
            base.iteration_ms()
        );
        assert!(p3.messages_per_iteration > base.messages_per_iteration);
    }

    #[test]
    fn prediction_decreases_with_bandwidth() {
        let model = zoo::resnet50();
        let pg = worker_profile(&model, 16);
        let plan = P3Plan::new(&pg, &P3Config::p3(ClusterConfig::new(4, 1, 2.0)));
        let t = |bw: f64| {
            plan.evaluate(&ClusterConfig::new(4, 1, bw))
                .unwrap()
                .iteration_ns
        };
        assert!(t(2.0) > t(4.0));
        assert!(t(4.0) > t(8.0));
    }

    #[test]
    fn prediction_overestimates_p3_speedup_at_high_bandwidth() {
        // §6.6: wire-only modeling ignores server overheads, so the
        // predicted P3 iteration is *faster* than ground truth, more so at
        // higher bandwidth.
        let model = zoo::vgg19();
        let pg = worker_profile(&model, 8);
        let cfg = ExecConfig::mxnet_p4000().with_batch(8);
        let cluster = ClusterConfig::new(4, 1, 10.0);
        let pred = P3Plan::new(&pg, &P3Config::p3(cluster))
            .evaluate(&cluster)
            .unwrap();
        let gt = daydream_runtime::run_parameter_server(
            &model,
            &cfg,
            daydream_runtime::PsTrainingConfig::p3(cluster),
            3,
        );
        assert!(
            pred.iteration_ns < gt.iteration_ns,
            "prediction {:.0}ms should undershoot ground truth {:.0}ms",
            pred.iteration_ms(),
            gt.iteration_ms()
        );
    }

    #[test]
    fn prediction_error_within_paper_bound() {
        // Paper: at most 16.2% error across configurations.
        let model = zoo::resnet50();
        let pg = worker_profile(&model, 16);
        let cfg = ExecConfig::mxnet_p4000().with_batch(16);
        let plan = P3Plan::new(&pg, &P3Config::p3(ClusterConfig::new(4, 1, 1.0)));
        for bw in [1.0, 2.0, 4.0, 8.0] {
            let cluster = ClusterConfig::new(4, 1, bw);
            let pred = plan.evaluate(&cluster).unwrap();
            let gt = daydream_runtime::run_parameter_server(
                &model,
                &cfg,
                daydream_runtime::PsTrainingConfig::p3(cluster),
                3,
            );
            let err =
                (pred.iteration_ns as f64 - gt.iteration_ns as f64).abs() / gt.iteration_ns as f64;
            assert!(
                err < 0.162,
                "P3 error {err:.3} at {bw} Gbps exceeds the paper's 16.2%"
            );
        }
    }
}
