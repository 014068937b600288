//! The sweep engine: profiles each (model, batch) base once, compiles it
//! once, shares it immutably, evaluates every scenario in parallel as
//! *patch emit + incremental apply + simulate*, and assembles the ranked
//! report.

use crate::cache::{PatchCache, PatchEval, SweepCache};
use crate::executor::{parallel_map, parallel_map_with, ExecutorStats};
use crate::grid::SweepGrid;
use crate::report::{ScenarioOutcome, SweepReport};
use crate::scenario::{fnv1a64, label_fingerprint, OptSpec, Scenario};
use daydream_comm::ClusterConfig;
use daydream_core::whatif::{
    dgc_kernel_ns, p3_replicated_base, plan_amp, plan_bandwidth, plan_batch_size, plan_blueconnect,
    plan_dgc, plan_distributed, plan_fused_adam, plan_gist, plan_metaflow, plan_reconstruct_bn,
    plan_upgrade_gpu, plan_vdnn, qkv_fusion_policy, DgcConfig, GistConfig, P3Config, P3Plan,
    VdnnConfig, KERNEL_OVERHEAD_NS, P3_ITERATIONS,
};
use daydream_core::{
    simulate_warm, thread_busy_ns, try_simulate_warm_with, CompiledGraph, ExecThread, GraphError,
    GraphPatch, PatchGraph, Prediction, ProfiledGraph, Schedule, ScratchPool, SimScratch, TaskId,
    TaskIndex, TaskKind,
};
use daydream_device::GpuSpec;
use daydream_models::{
    footprint, stashed_activation_bytes, vdnn_offloadable_bytes, MemoryFootprint, Model, F32_BYTES,
};
use daydream_runtime::{ground_truth, ExecConfig};
use daydream_trace::{fnv1a64_continue, LayerId, MemcpyDir, Trace};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Relative-error budget for the per-profile fidelity check: the
/// baseline simulation must replay the recorded iteration within this
/// bound (the paper's single-GPU baselines land under 2%; 5% leaves
/// headroom for pathological shapes without masking real drift).
pub const FIDELITY_TOLERANCE: f64 = 0.05;

/// Evaluation fidelity of one `run_scenarios` pass.
///
/// `Exact` is the engine's normal mode: incremental cone re-simulation
/// with the full-dispatch fallback, results eligible for the persistent
/// [`SweepCache`]. `Rung` is the successive-halving search's low-fidelity
/// mode: the cone budget is overridden, and a patch whose cone exceeds it
/// is answered with an O(threads + tasks) analytic busy-time estimate
/// instead of a full simulation — cheap, approximately ranked, never
/// cached as a scenario result. The fidelity (exact, or the rung's cone
/// budget in permille) is folded into the patch-cache key, so a rung-0
/// estimate can never be served where an exact prediction was requested.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fidelity {
    /// Full-fidelity evaluation (default cone budget, full-sim fallback).
    Exact,
    /// Low-fidelity rung: cone re-simulation capped at `max_cone_fraction`
    /// of the graph, analytic estimate past the cap.
    Rung {
        /// Cone budget as a fraction of the patched graph's tasks.
        max_cone_fraction: f64,
    },
}

impl Fidelity {
    /// The rung label in search reports: `exact`, or `cone` and the
    /// rung's cone budget in permille.
    pub fn tag(&self) -> String {
        self.permille()
            .map_or_else(|| "exact".to_string(), |p| format!("cone{p}"))
    }

    /// A rung's cone budget in permille; `None` for `Exact`.
    fn permille(&self) -> Option<u64> {
        match self {
            Fidelity::Exact => None,
            Fidelity::Rung { max_cone_fraction } => {
                Some((max_cone_fraction * 1000.0).round() as u64)
            }
        }
    }
}

/// The two compiled P3 plans of a base, built together on its first P3
/// scenario (only grids containing P3 pay for them) and shared by every
/// P3 scenario of the profile. The replicated `DependencyGraph` and its
/// compiled form are dropped once both plans are applied.
struct P3Base {
    /// Whole-layer transfers ([`P3Config::baseline`]): the
    /// parameter-server baseline P3 is compared against.
    fifo: P3Plan,
    /// P3's 4 MB slices ([`P3Config::p3`]).
    sliced: P3Plan,
}

/// The cached DDP stage of a distributed scenario: the replicated-base
/// patch `plan_distributed` emits for one cluster shape, plus the
/// allreduce task ids BlueConnect/DGC refine. Built once per (profile,
/// cluster) and shared — refinements layer on top via
/// [`PatchGraph::layered`] instead of re-planning the DDP stage.
struct DdpPlan {
    patch: Arc<GraphPatch>,
    allreduces: Vec<TaskId>,
    /// Ratio-independent DGC pricing aggregates over this cluster's DDP
    /// patch, built lazily on the first rung-0 DGC surrogate.
    dgc: OnceLock<DgcAgg>,
}

/// Per-thread duration-class sums of the base profile — the coefficients
/// of the rung-0 *analytic surrogate*: for transform families that only
/// rescale task durations by a per-class factor (bandwidth, batch-size),
/// the patched graph's busy-time bound is a linear function of these
/// sums, so a low-fidelity rung can rank a candidate in O(threads)
/// without emitting (or hashing) its patch at all. Each task's cost
/// lands in exactly one duration class plus `gap`, so per thread
/// `gap + comm + memcpy + gpu_fixed + gpu_work + other` equals the
/// baseline busy time.
#[derive(Default, Clone, Copy)]
struct ClassSums {
    /// Inter-task gaps — no transform rescales these.
    gap: u64,
    /// Communication-task durations (bandwidth divides by its factor).
    comm: u64,
    /// GPU memcpy durations (batch-size scales the whole copy).
    memcpy: u64,
    /// The fixed per-kernel startup share, `min(KERNEL_OVERHEAD_NS, d)`,
    /// of GPU kernels — batch-size holds this constant.
    gpu_fixed: u64,
    /// GPU kernel time above the startup overhead — batch-size scales it.
    gpu_work: u64,
    /// Everything else (CPU launch work) — per-kernel, not per-sample.
    other: u64,
}

/// Per-cluster aggregates pricing `dgc[ratio]` analytically: DGC scales
/// each allreduce transfer to `ratio` of its duration and adds fixed
/// compress/decompress kernels, so over the cached DDP patch's busy
/// vector the estimate is linear in `ratio` — O(threads) per candidate
/// against an O(|DDP patch|) build paid once per cluster shape.
struct DgcAgg {
    /// Per-thread busy times of `base.apply(ddp_patch)`.
    busy: Vec<(ExecThread, u64)>,
    /// Σ inserted allreduce durations per `busy` entry.
    ar: Vec<u64>,
    /// `busy` index of the GPU thread `plan_dgc` puts its kernels on.
    gpu_idx: Option<usize>,
    /// Σ compress+decompress kernel time over all allreduces — DGC adds
    /// it whole regardless of ratio.
    gpu_extra: u64,
}

impl DgcAgg {
    fn estimate(&self, ratio: f64) -> u64 {
        self.busy
            .iter()
            .zip(&self.ar)
            .enumerate()
            .map(|(i, ((_, busy), &ar))| {
                let scaled = (ar as f64 * ratio).round() as u64;
                let extra = if Some(i) == self.gpu_idx {
                    self.gpu_extra
                } else {
                    0
                };
                busy.saturating_sub(ar) + scaled + extra
            })
            .max()
            .unwrap_or(0)
    }
}

/// A profiled (model, batch) base shared immutably (via `Arc`) across
/// scenarios. The baseline is simulated exactly once — its full
/// [`Schedule`] (dispatch order, per-thread timelines, readiness times)
/// is retained — and the dependency graph compiled exactly once, at
/// profile-build time; per-scenario work is patch emit + a warm simulate
/// over the base plus the patch's overlay ([`simulate_warm`]): no patch
/// is applied, and only the cone of tasks the patch can affect is
/// re-dispatched.
struct BaseProfile {
    model: Model,
    graph: ProfiledGraph,
    baseline_ns: u64,
    /// FP32 gradient bytes of the model (what DDP and P3 send).
    grad_bytes: u64,
    /// The footprint model's memory estimate at the base's batch.
    footprint: MemoryFootprint,
    /// |baseline sim − recorded iteration| / recorded — the per-profile
    /// fidelity check rolled into [`RunStats`].
    fidelity_rel_err: f64,
    compiled: CompiledGraph,
    schedule: Schedule,
    /// Per-thread busy sums of the base ([`thread_busy_ns`]), computed
    /// lazily on the first low-fidelity estimate: the O(|patch|) busy
    /// delta of [`BaseProfile::busy_bound`] amortizes against it.
    busy: OnceLock<Vec<u64>>,
    /// Per-thread duration-class sums behind the rung-0 analytic
    /// surrogate, computed lazily on its first use.
    classes: OnceLock<Vec<ClassSums>>,
    /// The P3 plans, built on the base's first P3 scenario.
    p3: OnceLock<P3Base>,
    /// What the planners select from the graph, built on the base's
    /// first emitted patch and read through every overlay over it.
    index: OnceLock<TaskIndex>,
    ddp: Mutex<HashMap<(u32, u32, u64), Arc<DdpPlan>>>,
}

impl BaseProfile {
    /// Builds the base from one profiled iteration of `model`: graph
    /// construction, one compile, and the baseline [`Schedule`] capture
    /// the warm simulator replays.
    fn new(model: Model, trace: &Trace) -> Result<BaseProfile, String> {
        let graph = ProfiledGraph::from_trace(trace);
        let compiled = CompiledGraph::compile(&graph.graph);
        let schedule = Schedule::capture(&compiled).map_err(|e| {
            format!(
                "baseline graph for {} b{}: {e}",
                model.name, trace.meta.batch_size
            )
        })?;
        let baseline_ns = schedule.makespan_ns();
        // Fidelity check: the baseline replay of the recorded run is the
        // engine's one chance to notice a drifted cost model or graph
        // builder — both timings are already in hand, so it is free.
        let recorded_ns = trace.meta.iteration_ns();
        let fidelity_rel_err = if recorded_ns > 0 {
            (baseline_ns as f64 - recorded_ns as f64).abs() / recorded_ns as f64
        } else {
            0.0
        };
        Ok(BaseProfile {
            grad_bytes: (model.param_count() as f64 * F32_BYTES) as u64,
            footprint: footprint(&model, trace.meta.batch_size as u64),
            model,
            graph,
            baseline_ns,
            fidelity_rel_err,
            compiled,
            schedule,
            busy: OnceLock::new(),
            classes: OnceLock::new(),
            p3: OnceLock::new(),
            index: OnceLock::new(),
            ddp: Mutex::new(HashMap::new()),
        })
    }

    fn busy_ns(&self) -> &[u64] {
        self.busy.get_or_init(|| thread_busy_ns(&self.compiled))
    }

    /// The max per-thread busy time of the base with `patch` applied,
    /// summed in `scratch` without applying it: what a low-fidelity rung
    /// predicts for a patch whose cone it refuses.
    fn busy_bound(&self, patch: &GraphPatch, scratch: &mut SimScratch) -> u64 {
        let busy = scratch.thread_busy_after(&self.compiled, self.busy_ns(), patch);
        busy.into_iter().map(|(_, b)| b).max().unwrap_or(0)
    }

    /// The base graph's task index, built on first use.
    fn index(&self) -> &TaskIndex {
        self.index
            .get_or_init(|| TaskIndex::build(&self.graph.graph))
    }

    /// An overlay over the base graph, resumed from `prior` if given,
    /// that selects through the base's task index.
    fn overlay(&self, prior: Option<&GraphPatch>) -> PatchGraph<'_> {
        let g = &self.graph.graph;
        let ov = match prior {
            Some(prior) => PatchGraph::layered(g, prior),
            None => PatchGraph::new(g),
        };
        ov.with_index(self.index())
    }

    /// Duration-class sums per execution thread (order is incidental —
    /// the surrogates only take a maximum over threads).
    fn class_sums(&self) -> &[ClassSums] {
        self.classes.get_or_init(|| {
            let mut by_thread: HashMap<ExecThread, ClassSums> = HashMap::new();
            for (_, t) in self.graph.graph.iter() {
                let s = by_thread.entry(t.thread).or_default();
                s.gap += t.gap_ns;
                let d = t.duration_ns;
                if matches!(t.kind, TaskKind::Communication { .. }) {
                    s.comm += d;
                } else if t.is_on_gpu() {
                    if matches!(t.kind, TaskKind::GpuMemcpy { .. }) {
                        s.memcpy += d;
                    } else {
                        let fixed = KERNEL_OVERHEAD_NS.min(d);
                        s.gpu_fixed += fixed;
                        s.gpu_work += d - fixed;
                    }
                } else {
                    s.other += d;
                }
            }
            by_thread.into_values().collect()
        })
    }

    /// DGC pricing aggregates for one cluster shape (built once per
    /// cluster on top of the cached DDP plan).
    fn dgc_agg(&self, cluster: &ClusterConfig) -> Arc<DdpPlan> {
        let plan = self.ddp_plan(cluster);
        plan.dgc.get_or_init(|| {
            let busy =
                SimScratch::new().thread_busy_after(&self.compiled, self.busy_ns(), &plan.patch);
            let idx: HashMap<ExecThread, usize> =
                busy.iter().enumerate().map(|(i, &(t, _))| (t, i)).collect();
            let mut ar = vec![0u64; busy.len()];
            let mut gpu_extra = 0u64;
            let ars: HashSet<TaskId> = plan.allreduces.iter().copied().collect();
            for (id, t) in plan.patch.inserted_tasks() {
                if !ars.contains(&id) {
                    continue;
                }
                if let TaskKind::Communication { bytes, .. } = t.kind {
                    if let Some(&i) = idx.get(&t.thread) {
                        ar[i] += t.duration_ns;
                    }
                    let (compress_ns, decompress_ns) = dgc_kernel_ns(bytes);
                    gpu_extra += compress_ns + decompress_ns;
                }
            }
            // plan_dgc puts its kernels on the first live GPU task's
            // thread — over the layered overlay that is the base
            // graph's first GPU task.
            let gpu_idx = self
                .graph
                .graph
                .iter()
                .find(|(_, t)| t.kind.is_gpu())
                .and_then(|(_, t)| idx.get(&t.thread).copied());
            DgcAgg {
                busy,
                ar,
                gpu_idx,
                gpu_extra,
            }
        });
        plan
    }

    /// The base's P3 plans, built on first use from the first P3
    /// scenario's cluster (every evaluation retimes all transfers, so
    /// which cluster built them never shows in a prediction). Both plans
    /// share one replication of the base, and both run copy by copy
    /// after copy 0.
    fn p3_plans(&self, cluster: &ClusterConfig) -> &P3Base {
        self.p3.get_or_init(|| {
            let rep = p3_replicated_base(&self.graph, P3_ITERATIONS);
            let compiled = CompiledGraph::compile(&rep.graph);
            let plan = |cfg: P3Config| P3Plan::build(&self.graph, &rep, &compiled, &cfg);
            P3Base {
                fifo: plan(P3Config::baseline(*cluster)),
                sliced: plan(P3Config::p3(*cluster)),
            }
        })
    }

    /// The shared DDP patch for one cluster shape (planned at most once
    /// per profile; BlueConnect/DGC compose their refinements on top).
    fn ddp_plan(&self, cluster: &ClusterConfig) -> Arc<DdpPlan> {
        let key = (
            cluster.machines,
            cluster.gpus_per_machine,
            cluster.inter_node_gbps.to_bits(),
        );
        if let Some(plan) = lock(&self.ddp).get(&key) {
            return Arc::clone(plan);
        }
        let mut ov = self.overlay(None);
        let allreduces = plan_distributed(&mut ov, &self.graph.meta.buckets, cluster);
        let plan = Arc::new(DdpPlan {
            patch: Arc::new(ov.finish()),
            allreduces,
            dgc: OnceLock::new(),
        });
        lock(&self.ddp).entry(key).or_insert(plan).clone()
    }
}

/// Wall-clock-free throughput counters of one `run` call. Each
/// evaluation worker counts its own work into one of these, and the run
/// folds the workers' counts together, so a run counts only the work it
/// did, also while other runs share the engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Base profiles built this run (cache misses on the profile cache).
    pub profiles_built: usize,
    /// Scenario evaluations answered by the patch-fingerprint cache
    /// (identical patch over the same base: simulation skipped).
    pub patch_hits: usize,
    /// Simulations that re-dispatched over a base schedule this run: the
    /// warm cone path, and P3 plans run copy by copy after their first
    /// unrolled iteration, which each plan's build timed once.
    pub incremental_sims: usize,
    /// Simulations that dispatched every task this run (warm fallbacks,
    /// and P3 plan runs that failed a check of the per-copy run).
    pub full_sims: usize,
    /// Tasks dispatched across all simulations this run.
    pub tasks_redispatched: u64,
    /// Fidelity checks performed this run: every base profile built
    /// compares its baseline simulation against the recorded iteration.
    pub fidelity_checks: usize,
    /// Profiles whose baseline replay drifted past
    /// [`FIDELITY_TOLERANCE`] from the recorded iteration time.
    pub fidelity_failures: usize,
    /// Largest |sim − recorded| / recorded across this run's profiles.
    pub fidelity_worst_rel_err: f64,
    /// Evaluations answered by the analytic busy-time estimate this run
    /// (low-fidelity rungs only; always 0 at exact fidelity).
    pub estimate_sims: usize,
    /// Arena simulations that size scratch buffers (warm cone and full
    /// evaluations, retime replays and P3 plan runs) and reused
    /// already-sized ones (no allocation on the simulation hot path). A
    /// warm evaluation with no simulation-relevant effect sizes nothing
    /// and counts here as neither a reuse nor an alloc.
    pub scratch_reuses: u64,
    /// Arena simulations that had to (re)size at least one scratch
    /// buffer — at most one per worker per new largest graph (a base, or
    /// a P3 plan three iterations long).
    pub scratch_allocs: u64,
    /// Contended result-cache shard acquisitions while this run
    /// evaluated (another worker held the same shard's lock).
    pub cache_contended: usize,
    /// Contended patch-cache shard acquisitions while this run evaluated.
    pub patch_contended: usize,
    /// Work-stealing counters of the scenario evaluation phase.
    pub executor: ExecutorStats,
}

impl RunStats {
    /// Folds another run's counters into this one: counts add, the worst
    /// fidelity error is the max, and the worker count is the widest pool
    /// seen. This is how a run folds its workers' counts together, and
    /// how [`SweepEngine::total_stats`] aggregates engine-lifetime
    /// counters for a long-lived server process.
    pub fn absorb(&mut self, other: &RunStats) {
        self.profiles_built += other.profiles_built;
        self.patch_hits += other.patch_hits;
        self.incremental_sims += other.incremental_sims;
        self.full_sims += other.full_sims;
        self.tasks_redispatched += other.tasks_redispatched;
        self.fidelity_checks += other.fidelity_checks;
        self.fidelity_failures += other.fidelity_failures;
        self.fidelity_worst_rel_err = self
            .fidelity_worst_rel_err
            .max(other.fidelity_worst_rel_err);
        self.estimate_sims += other.estimate_sims;
        self.scratch_reuses += other.scratch_reuses;
        self.scratch_allocs += other.scratch_allocs;
        self.cache_contended += other.cache_contended;
        self.patch_contended += other.patch_contended;
        self.executor.executed += other.executor.executed;
        self.executor.steals += other.executor.steals;
        self.executor.workers = self.executor.workers.max(other.executor.workers);
    }

    /// Counts one simulation by the path it took.
    fn record_sim(&mut self, eval: &PatchEval) {
        if eval.incremental {
            self.incremental_sims += 1;
        } else {
            self.full_sims += 1;
        }
        self.tasks_redispatched += eval.tasks_redispatched;
    }
}

/// One warm `(model, batch)` base resident in a [`SweepEngine`]'s profile
/// registry — what a serve daemon reports for `GET /models`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResidentProfile {
    /// Zoo model name.
    pub model: String,
    /// Profiled mini-batch size.
    pub batch: u64,
    /// Compiled task count of the baseline graph.
    pub tasks: usize,
    /// Simulated baseline iteration time, ns.
    pub baseline_ns: u64,
    /// Baseline-replay fidelity error vs. the recorded iteration.
    pub fidelity_rel_err: f64,
}

/// Parallel scenario-sweep engine with result and profile caches that
/// persist across `run` calls, so overlapping grids only pay for their
/// novel scenarios.
pub struct SweepEngine {
    threads: usize,
    profiles: Mutex<HashMap<(String, u64), Arc<BaseProfile>>>,
    cache: SweepCache,
    patches: PatchCache,
    scratch: ScratchPool,
    last_stats: Mutex<RunStats>,
    totals: Mutex<RunStats>,
}

/// Per-outcome progress callback for [`SweepEngine::run_scenarios_observed`]:
/// invoked from worker threads as each scenario resolves (cache hits
/// included), in completion order, not input order.
pub type OutcomeObserver<'a> = &'a (dyn Fn(&ScenarioOutcome) + Sync);

impl SweepEngine {
    /// An engine evaluating scenarios on `threads` worker threads.
    pub fn new(threads: usize) -> Self {
        SweepEngine {
            threads: threads.max(1),
            profiles: Mutex::new(HashMap::new()),
            cache: SweepCache::new(),
            patches: PatchCache::new(),
            scratch: ScratchPool::new(),
            last_stats: Mutex::new(RunStats::default()),
            totals: Mutex::new(RunStats::default()),
        }
    }

    /// An engine sized to the host's available parallelism.
    pub fn with_available_parallelism() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::new(threads)
    }

    /// The result cache (e.g. for `--cache-file` persistence).
    pub fn cache(&self) -> &SweepCache {
        &self.cache
    }

    /// The patch-evaluation cache (per-shard hit/contention counters for
    /// `/metrics`).
    pub fn patch_cache(&self) -> &PatchCache {
        &self.patches
    }

    /// Drops cached scenario results *and* cached patch evaluations but
    /// keeps base profiles — used by benchmarks to re-measure full
    /// evaluation (emit + apply + simulate) without re-profiling.
    pub fn clear_result_cache(&self) {
        self.cache.clear();
        self.patches.clear();
    }

    /// Counters of the most recent [`SweepEngine::run`].
    pub fn last_stats(&self) -> RunStats {
        *lock(&self.last_stats)
    }

    /// Engine-lifetime counters: every run's [`RunStats`] folded together
    /// with [`RunStats::absorb`]. A resident daemon exposes these as its
    /// `/metrics`, where per-run snapshots would race between clients.
    pub fn total_stats(&self) -> RunStats {
        *lock(&self.totals)
    }

    /// The warm `(model, batch)` bases currently resident in the profile
    /// registry, sorted by key — the registry listing a serve daemon
    /// reports (and the warm/cold distinction a what-if client sees).
    pub fn resident_profiles(&self) -> Vec<ResidentProfile> {
        let have = lock(&self.profiles);
        let mut out: Vec<ResidentProfile> = have
            .iter()
            .map(|((model, batch), p)| ResidentProfile {
                model: model.clone(),
                batch: *batch,
                tasks: p.compiled.len(),
                baseline_ns: p.baseline_ns,
                fidelity_rel_err: p.fidelity_rel_err,
            })
            .collect();
        out.sort_by(|a, b| a.model.cmp(&b.model).then(a.batch.cmp(&b.batch)));
        out
    }

    /// Expands the grid, evaluates every scenario in parallel (sharing
    /// base profiles, consulting the result cache), and returns the
    /// ranked report. Deterministic for a given grid: the report is
    /// byte-identical across thread counts.
    pub fn run(&self, grid: &SweepGrid) -> Result<SweepReport, String> {
        let scenarios = grid.expand()?;
        Ok(SweepReport::from_outcomes(self.run_scenarios(scenarios)?))
    }

    /// Evaluates an explicit scenario list (one shard of a grid, in
    /// distributed sweeps) and returns outcomes in input order. Shares
    /// base profiles and consults the result cache exactly like
    /// [`SweepEngine::run`]; outcome values are independent of thread
    /// count and of how scenarios are split across calls.
    pub fn run_scenarios(&self, scenarios: Vec<Scenario>) -> Result<Vec<ScenarioOutcome>, String> {
        self.run_scenarios_inner(scenarios, Fidelity::Exact, None)
    }

    /// Like [`SweepEngine::run_scenarios`], but streams each outcome to
    /// `observer` as it resolves (from worker threads, in completion
    /// order) — a resident job queue uses this to serve ranked partial
    /// results while a grid is still evaluating. The returned vector is
    /// identical to `run_scenarios` on the same input.
    pub fn run_scenarios_observed(
        &self,
        scenarios: Vec<Scenario>,
        observer: OutcomeObserver<'_>,
    ) -> Result<Vec<ScenarioOutcome>, String> {
        self.run_scenarios_inner(scenarios, Fidelity::Exact, Some(observer))
    }

    /// Evaluates a scenario list at a *low-fidelity rung*: the cone
    /// budget is overridden with `max_cone_fraction`, patches whose cone
    /// exceeds it are answered with the analytic busy-time estimate, and
    /// the persistent result cache is bypassed entirely — rung outcomes
    /// are ranking signals for the successive-halving search, never
    /// scenario results. Rung patch evaluations are cached under
    /// fidelity-tagged keys, so they cannot leak into exact runs.
    pub fn run_scenarios_rung(
        &self,
        scenarios: Vec<Scenario>,
        max_cone_fraction: f64,
    ) -> Result<Vec<ScenarioOutcome>, String> {
        self.run_scenarios_inner(scenarios, Fidelity::Rung { max_cone_fraction }, None)
    }

    fn run_scenarios_inner(
        &self,
        scenarios: Vec<Scenario>,
        fidelity: Fidelity,
        observer: Option<OutcomeObserver<'_>>,
    ) -> Result<Vec<ScenarioOutcome>, String> {
        // Phase 0: answer what we can from the result cache, so fully
        // cached scenarios cost neither evaluation nor base profiling
        // (a cross-process `--cache-file` rerun builds no profiles).
        // Rung runs skip it: their outcomes are low-fidelity and must
        // neither read nor pollute the exact-result store.
        let use_result_cache = fidelity == Fidelity::Exact;
        let mut outcomes: Vec<Option<ScenarioOutcome>> = Vec::with_capacity(scenarios.len());
        let mut misses: Vec<(usize, Named)> = Vec::new();
        for (i, scenario) in scenarios.into_iter().enumerate() {
            let named = Named::new(scenario);
            let hit = if use_result_cache {
                self.cache.lookup(named.fingerprint)
            } else {
                None
            };
            if hit.is_none() {
                misses.push((i, named));
            } else if let (Some(observe), Some(outcome)) = (observer, hit.as_ref()) {
                observe(outcome);
            }
            outcomes.push(hit);
        }

        // Phase 1: build the (model, batch) base profiles the cache
        // misses need, also in parallel — each is an independent
        // simulated training iteration.
        let needed: Vec<(String, u64)> = {
            let have = lock(&self.profiles);
            let mut seen = HashSet::new();
            misses
                .iter()
                .map(|(_, n)| (n.scenario.model.clone(), n.scenario.batch))
                .filter(|k| !have.contains_key(k) && seen.insert(k.clone()))
                .collect()
        };
        let profiles_built = needed.len();
        let (built, _) = parallel_map(needed, self.threads, |(model_name, batch)| {
            let profile = build_profile(&model_name, batch);
            ((model_name, batch), profile)
        });
        let mut fidelity_failures = 0usize;
        let mut fidelity_worst_rel_err = 0.0f64;
        {
            let mut have = lock(&self.profiles);
            for (key, profile) in built {
                let profile = profile?;
                if profile.fidelity_rel_err > FIDELITY_TOLERANCE {
                    fidelity_failures += 1;
                }
                fidelity_worst_rel_err = fidelity_worst_rel_err.max(profile.fidelity_rel_err);
                have.insert(key, Arc::new(profile));
            }
        }

        // Phase 2: evaluate the misses under work stealing. Only the
        // `Arc`s of the bases this call actually needs are cloned out of
        // the shared map — not the whole profile table (an engine that
        // has accumulated many bases across runs would otherwise pay an
        // O(all-profiles) clone under the lock per call).
        let bases: HashMap<(String, u64), Arc<BaseProfile>> = {
            let have = lock(&self.profiles);
            let mut needed: HashMap<(String, u64), Arc<BaseProfile>> = HashMap::new();
            for (_, n) in &misses {
                let key = (n.scenario.model.clone(), n.scenario.batch);
                needed.entry(key).or_insert_with_key(|k| {
                    Arc::clone(have.get(k).expect("phase 1 built every base"))
                });
            }
            needed
        };
        let cache_contended_before = self.cache.contended();
        let patch_contended_before = self.patches.contended();
        let run = Mutex::new(RunStats {
            profiles_built,
            fidelity_checks: profiles_built,
            fidelity_failures,
            fidelity_worst_rel_err,
            ..RunStats::default()
        });
        // Each worker checks one scratch arena out of the pool for its
        // whole batch, so back-to-back evaluations of a base reuse warm
        // epoch-stamped buffers instead of allocating per scenario. The
        // worker counts its own work beside the arena and folds it into
        // the run when it returns the arena.
        let (evaluated, exec_stats) = parallel_map_with(
            misses,
            self.threads,
            || (self.scratch.take(), RunStats::default()),
            |(scratch, mut counted)| {
                let arena = self.scratch.put(scratch);
                counted.scratch_reuses += arena.reuses;
                counted.scratch_allocs += arena.allocs;
                lock(&run).absorb(&counted);
            },
            |(scratch, counted), (i, named)| -> Result<_, String> {
                let base = bases
                    .get(&(named.scenario.model.clone(), named.scenario.batch))
                    .expect("phase 1 built every base");
                let outcome = evaluate(&named, base, &self.patches, fidelity, scratch, counted)?;
                if use_result_cache {
                    self.cache.insert(named.fingerprint, &outcome);
                }
                if let Some(observe) = observer {
                    observe(&outcome);
                }
                Ok((i, outcome))
            },
        );
        for result in evaluated {
            let (i, outcome) = result?;
            outcomes[i] = Some(outcome);
        }
        let outcomes: Vec<ScenarioOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every slot is a hit or an evaluated miss"))
            .collect();

        let mut stats = run.into_inner().unwrap_or_else(PoisonError::into_inner);
        // Lock contention is counted inside the caches' locks, so it
        // stays a delta (and includes any overlapping run's contention).
        stats.cache_contended = self.cache.contended() - cache_contended_before;
        stats.patch_contended = self.patches.contended() - patch_contended_before;
        stats.executor = exec_stats;
        *lock(&self.last_stats) = stats;
        lock(&self.totals).absorb(&stats);
        Ok(outcomes)
    }
}

/// Locks one of the engine's tables, counters or work queues, also after
/// a panic poisoned it: the maps and queues only ever receive or give up
/// whole entries and the counters are plain values, so what a panicking
/// holder left is sound.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Profiles one baseline iteration in the engine's fixed environment
/// (the paper's PyTorch / RTX 2080 Ti single-GPU setting, fixed seed)
/// and builds the base from it.
fn build_profile(model_name: &str, batch: u64) -> Result<BaseProfile, String> {
    let model = daydream_models::zoo::by_name(model_name)
        .ok_or_else(|| format!("unknown model '{model_name}'"))?;
    let cfg = ExecConfig::pytorch_2080ti().with_batch(batch);
    let trace = ground_truth::run_baseline(&model, &cfg);
    BaseProfile::new(model, &trace)
}

/// Emits the [`GraphPatch`] modeling `opt` over the base profile's graph.
///
/// `Baseline` yields an empty patch; P3 is not patchable over the
/// single-iteration base (it needs the replicated base — see
/// [`p3_prediction`]) and is rejected here. Distributed scenarios share
/// the per-cluster DDP patch through [`BaseProfile::ddp_plan`]:
/// BlueConnect and DGC resume a [`PatchGraph::layered`] overlay on top
/// of it and record only their refinement, so `finish` yields the
/// composed patch without re-planning the DDP stage. Every overlay
/// selects through the base's task index.
fn emit_patch(opt: &OptSpec, base: &BaseProfile) -> Result<Arc<GraphPatch>, String> {
    let pg = &base.graph;
    let model = &base.model;
    let profile_batch = pg.meta.batch_size as u64;
    let mut ov = base.overlay(None);
    match opt {
        OptSpec::Baseline => {}
        OptSpec::P3 { .. } => return Err("P3 patches the replicated base, not the profile".into()),
        OptSpec::Amp => plan_amp(&mut ov),
        OptSpec::FusedAdam => {
            plan_fused_adam(&mut ov);
        }
        OptSpec::ReconstructBn => plan_reconstruct_bn(&mut ov, model),
        OptSpec::Metaflow => plan_metaflow(&mut ov, &qkv_fusion_policy(model)),
        OptSpec::Ddp {
            machines,
            gpus_per_machine,
            bw_gbps,
        } => {
            let cluster = ClusterConfig::new(*machines, *gpus_per_machine, *bw_gbps);
            return Ok(Arc::clone(&base.ddp_plan(&cluster).patch));
        }
        OptSpec::BlueConnect {
            machines,
            gpus_per_machine,
            bw_gbps,
        } => {
            let cluster = ClusterConfig::new(*machines, *gpus_per_machine, *bw_gbps);
            let ddp = base.ddp_plan(&cluster);
            let mut layered = base.overlay(Some(&ddp.patch));
            plan_blueconnect(&mut layered, &cluster, &ddp.allreduces);
            return Ok(Arc::new(layered.finish()));
        }
        OptSpec::Dgc {
            machines,
            gpus_per_machine,
            bw_gbps,
            ratio,
        } => {
            let cluster = ClusterConfig::new(*machines, *gpus_per_machine, *bw_gbps);
            let cfg = DgcConfig {
                compression_ratio: *ratio,
            };
            let ddp = base.ddp_plan(&cluster);
            let mut layered = base.overlay(Some(&ddp.patch));
            plan_dgc(&mut layered, &ddp.allreduces, &cfg);
            return Ok(Arc::new(layered.finish()));
        }
        OptSpec::Vdnn { lookahead } => {
            let cfg = VdnnConfig {
                prefetch_lookahead: *lookahead,
                ..VdnnConfig::default()
            };
            plan_vdnn(&mut ov, model, &cfg, profile_batch);
        }
        OptSpec::Gist { lossy } => {
            let cfg = GistConfig { lossy: *lossy };
            plan_gist(&mut ov, &cfg);
        }
        OptSpec::Bandwidth { factor } => {
            plan_bandwidth(&mut ov, *factor);
        }
        OptSpec::UpgradeGpu { to } => {
            let new = GpuSpec::by_name(to)?;
            let old = GpuSpec::by_name(&pg.meta.device)?;
            plan_upgrade_gpu(&mut ov, &old, &new);
        }
        OptSpec::BatchSize { batch } => {
            plan_batch_size(&mut ov, profile_batch, *batch);
        }
    }
    Ok(Arc::new(ov.finish()))
}

/// Patch-cache key: the base identity (the model name after its length,
/// and the batch) plus the patch content hash, a policy tag (P3
/// simulates under a different frontier order), and the fidelity —
/// `exact`, or the rung's permille: a rung-0 cone-capped prediction and a
/// full-fidelity result for the same patch are *different values* and
/// must never answer each other's lookups. Folded with FNV-1a, so a
/// lookup allocates nothing.
fn patch_key(scenario: &Scenario, policy: &str, patch_fingerprint: u64, fidelity: Fidelity) -> u64 {
    let model = scenario.model.as_bytes();
    let mut key = fnv1a64(&(model.len() as u64).to_le_bytes());
    for field in [model, &scenario.batch.to_le_bytes(), policy.as_bytes()] {
        key = fnv1a64_continue(key, field);
    }
    key = match fidelity.permille() {
        None => fnv1a64_continue(key, b"exact"),
        Some(permille) => fnv1a64_continue(key, &permille.to_le_bytes()),
    };
    fnv1a64_continue(key, &patch_fingerprint.to_le_bytes())
}

/// What the rung-0 analytic surrogate knows about a candidate without
/// emitting its patch.
enum Surrogate {
    /// The transform is a no-op on this base (its patch would be empty),
    /// so the *exact* answer is the baseline itself. Classed with the
    /// exactly-known outcomes, never with the estimates — an estimate
    /// label here would flood the estimate survivor class with baseline
    /// duplicates and crowd out real contenders.
    Noop,
    /// Analytic busy-bound estimate — a ranking signal, not a makespan.
    Estimate(u64),
}

/// The rung-0 analytic surrogate: for transform families whose effect on
/// the busy-time bound is a per-duration-class rescale — bandwidth
/// (communication ÷ factor), batch-size (GPU work × batch ratio above
/// the fixed kernel overhead), DGC (allreduce × ratio plus fixed
/// compress/decompress kernels) — the estimate comes straight from
/// precomputed per-thread class sums in O(threads), with *no patch
/// emitted or hashed*. At 10³+-scenario grids these families dominate
/// the candidate set, and patch emission is most of a low-rung eval.
///
/// Tracks [`BaseProfile::busy_bound`] of the family's emitted patch up to
/// per-task-vs-per-sum rounding (pinned by a unit test); like that
/// bound it ranks candidates, it does not predict makespans. `None`
/// means the family has no surrogate and the rung falls back to the
/// patch path.
fn surrogate_estimate(opt: &OptSpec, base: &BaseProfile) -> Option<Surrogate> {
    match opt {
        OptSpec::Bandwidth { factor } => {
            let sums = base.class_sums();
            // A single-GPU profile has no communication tasks (and
            // factor 1 rescales nothing): the patch would be empty.
            if *factor == 1.0 || sums.iter().all(|s| s.comm == 0) {
                return Some(Surrogate::Noop);
            }
            Some(Surrogate::Estimate(
                sums.iter()
                    .map(|s| {
                        let fixed = s.gap + s.memcpy + s.gpu_fixed + s.gpu_work + s.other;
                        fixed + (s.comm as f64 / factor).round() as u64
                    })
                    .max()
                    .unwrap_or(0),
            ))
        }
        OptSpec::BatchSize { batch } => {
            let profile_batch = base.graph.meta.batch_size as u64;
            if *batch == profile_batch {
                return Some(Surrogate::Noop);
            }
            let factor = *batch as f64 / profile_batch as f64;
            Some(Surrogate::Estimate(
                base.class_sums()
                    .iter()
                    .map(|s| {
                        let fixed = s.gap + s.comm + s.other + s.gpu_fixed;
                        let scalable = (s.gpu_work + s.memcpy) as f64;
                        fixed + (scalable * factor).round() as u64
                    })
                    .max()
                    .unwrap_or(0),
            ))
        }
        OptSpec::Dgc {
            machines,
            gpus_per_machine,
            bw_gbps,
            ratio,
        } => {
            let cluster = ClusterConfig::new(*machines, *gpus_per_machine, *bw_gbps);
            let plan = base.dgc_agg(&cluster);
            Some(Surrogate::Estimate(
                plan.dgc
                    .get()
                    .expect("dgc_agg initializes it")
                    .estimate(*ratio),
            ))
        }
        _ => None,
    }
}

/// Σ stashed-activation bytes at a batch size of the model's layers
/// among `layers` (each counted once, however often it repeats).
fn activation_bytes_of(
    model: &Model,
    batch: u64,
    layers: impl IntoIterator<Item = LayerId>,
) -> u64 {
    let len = model.layers.iter().map(|l| l.id.0 as usize + 1).max();
    let mut marked = vec![false; len.unwrap_or(0)];
    for l in layers {
        if let Some(m) = marked.get_mut(l.0 as usize) {
            *m = true;
        }
    }
    model
        .layers
        .iter()
        .filter(|l| marked[l.id.0 as usize])
        .map(|l| stashed_activation_bytes(l) * batch)
        .sum()
}

/// Layers of the *base* tasks a patch retimed, read from the base's
/// task index.
fn retimed_layers<'a>(
    patch: &'a GraphPatch,
    index: &'a TaskIndex,
) -> impl Iterator<Item = LayerId> + 'a {
    patch.retimed_base_ids().filter_map(|id| index.layer_of(id))
}

/// Layers of the inserted Gist kernels, in one pass over the inserted
/// tasks: the encode kernels' and the delayed-precision-reduction ones'.
fn gist_layers(patch: &GraphPatch) -> (Vec<LayerId>, Vec<LayerId>) {
    let (mut encode, mut dpr) = (Vec::new(), Vec::new());
    for (_, t) in patch.inserted_tasks() {
        let layer = t.layer.map(|l| l.layer);
        if t.name.starts_with("gist_encode") {
            encode.extend(layer);
        } else if t.name.starts_with("gist_dpr") {
            dpr.extend(layer);
        }
    }
    (encode, dpr)
}

/// Bytes the patch offloads to host memory: the device-to-host copies it
/// inserted into the graph.
fn offloaded_bytes(patch: &GraphPatch) -> u64 {
    patch
        .inserted_tasks()
        .filter_map(|(_, t)| match t.kind {
            TaskKind::GpuMemcpy {
                dir: MemcpyDir::DeviceToHost,
                bytes,
            } => Some(bytes),
            _ => None,
        })
        .sum()
}

/// Evaluates one parameter-server config of a P3 scenario over its
/// cached plan, which prices its transfers at the cluster's wire times,
/// simulates under the priority scheduler on the worker's arena and
/// reads the steady-state iteration straight from the simulation
/// ([`P3Plan::steady_iteration_ns`]). The row reports the run that
/// happened: an incremental simulation on the per-copy run, where the
/// plan's first unrolled iteration replays the timing its build took and
/// only the tasks after it are timed ([`P3Plan::dispatched_tasks`]); a
/// full one, every task counted, where the plan or this cluster's wire
/// times failed one of that run's checks.
///
/// The patch-cache key folds in the plan's fingerprint of itself priced
/// for the cluster ([`P3Plan::retimed_fingerprint`]), so the pricing rule
/// lives in the plan alone and equal keys mean the same retimed graph:
/// clusters with identical wire times (one machine at any bandwidth)
/// share one simulation, and so do the FIFO and sliced plans when they
/// coincide.
fn p3_prediction(
    named: &Named,
    plan: &P3Plan,
    cluster: &ClusterConfig,
    patches: &PatchCache,
    scratch: &mut SimScratch,
    stats: &mut RunStats,
) -> Result<PatchEval, String> {
    // P3 is never evaluated at a reduced rung (the steady-state analysis
    // has no cheap stand-in), so its key is always exact-fidelity.
    let key = patch_key(
        &named.scenario,
        "p3",
        plan.retimed_fingerprint(cluster),
        Fidelity::Exact,
    );
    memoized(patches, key, stats, |stats| {
        let (predicted_ns, timed) = plan
            .steady_iteration_ns(cluster, scratch)
            .map_err(|e| format!("P3 graph for {}: {e}", named.label))?;
        let eval = PatchEval {
            predicted_ns,
            incremental: timed < plan.compiled().len(),
            estimated: false,
            tasks_redispatched: timed as u64,
        };
        stats.record_sim(&eval);
        Ok(eval)
    })
}

/// Answers `key` from the patch cache, counting the hit, or evaluates it
/// with `compute` and stores the result.
fn memoized(
    patches: &PatchCache,
    key: u64,
    stats: &mut RunStats,
    compute: impl FnOnce(&mut RunStats) -> Result<PatchEval, String>,
) -> Result<PatchEval, String> {
    if let Some(eval) = patches.get(key) {
        stats.patch_hits += 1;
        return Ok(eval);
    }
    let eval = compute(stats)?;
    patches.insert(key, eval);
    Ok(eval)
}

/// A scenario with its label and result-cache fingerprint, each
/// formatted once per evaluation.
struct Named {
    scenario: Scenario,
    label: String,
    fingerprint: u64,
}

impl Named {
    fn new(scenario: Scenario) -> Named {
        let label = scenario.label();
        let fingerprint = label_fingerprint(&label);
        Named {
            scenario,
            label,
            fingerprint,
        }
    }

    /// The scenario's report row.
    fn outcome(
        &self,
        prediction: Prediction,
        memory_bytes: u64,
        comm_bytes: u64,
        sim_path: &str,
        tasks_redispatched: u64,
    ) -> ScenarioOutcome {
        ScenarioOutcome {
            key: format!("{:016x}", self.fingerprint),
            label: self.label.clone(),
            model: self.scenario.model.clone(),
            batch: self.scenario.batch,
            opt: self.scenario.opt.label(),
            baseline_ns: prediction.baseline_ns,
            predicted_ns: prediction.predicted_ns,
            speedup: prediction.speedup(),
            memory_bytes,
            comm_bytes,
            sim_path: sim_path.to_string(),
            tasks_redispatched,
            cached: false,
        }
    }
}

/// Evaluates one scenario against its shared base profile: emit the
/// patch, consult the patch-fingerprint cache, simulate it warm on a
/// miss (re-dispatching only the cone the patch can affect), and derive
/// the report's memory/communication objectives.
fn evaluate(
    named: &Named,
    base: &BaseProfile,
    patches: &PatchCache,
    fidelity: Fidelity,
    scratch: &mut SimScratch,
    stats: &mut RunStats,
) -> Result<ScenarioOutcome, String> {
    let scenario = &named.scenario;
    let model = &base.model;

    // The objectives no patch moves: the footprint model's memory at the
    // scenario's batch, and the gradient bytes each distributed family
    // sends. The AMP/Gist/vDNN arms below replace the memory with a value
    // derived from the patched graph (the layers/copies the
    // transformation actually touched), falling back to the model
    // estimate when the patch carries no memory-relevant signal.
    let fp = base.footprint;
    let mut memory_bytes = match &scenario.opt {
        OptSpec::BatchSize { batch } => footprint(model, *batch).total(),
        _ => fp.total(),
    };
    let comm_bytes = match &scenario.opt {
        OptSpec::Ddp { .. } | OptSpec::BlueConnect { .. } | OptSpec::P3 { .. } => base.grad_bytes,
        OptSpec::Dgc { ratio, .. } => (base.grad_bytes as f64 * ratio).ceil() as u64,
        _ => 0,
    };

    let mut sim_path = "baseline";
    let mut tasks_redispatched = 0u64;
    let prediction: Prediction = match &scenario.opt {
        OptSpec::Baseline => Prediction {
            baseline_ns: base.baseline_ns,
            predicted_ns: base.baseline_ns,
        },
        OptSpec::P3 {
            machines,
            gpus_per_machine,
            bw_gbps,
        } => {
            let cluster = ClusterConfig::new(*machines, *gpus_per_machine, *bw_gbps);
            // P3's comparable baseline is the same parameter-server
            // cluster with FIFO layer-granularity transfers (paper
            // §6.6), not the single-GPU profile — so the speedup column
            // means "what P3's slicing+priority buys on this cluster".
            let plans = base.p3_plans(&cluster);
            let fifo = p3_prediction(named, &plans.fifo, &cluster, patches, scratch, stats)?;
            let p3 = p3_prediction(named, &plans.sliced, &cluster, patches, scratch, stats)?;
            sim_path = if fifo.incremental && p3.incremental {
                "incremental"
            } else {
                "full"
            };
            tasks_redispatched = fifo.tasks_redispatched + p3.tasks_redispatched;
            Prediction {
                baseline_ns: fifo.predicted_ns,
                predicted_ns: p3.predicted_ns,
            }
        }
        opt => {
            // Low-fidelity rungs rank scalable families (bandwidth,
            // batch-size, DGC) through the analytic surrogate — no
            // patch is emitted, hashed, or cached. These families'
            // memory/comm objectives never derive from the patch
            // either, so the outcome is complete without one.
            if matches!(fidelity, Fidelity::Rung { .. }) {
                if let Some(sur) = surrogate_estimate(opt, base) {
                    let (est_ns, path) = match sur {
                        // Exactly known: an empty patch replays the base
                        // schedule unchanged. No estimate, no sim.
                        Surrogate::Noop => (base.baseline_ns, "baseline"),
                        Surrogate::Estimate(ns) => {
                            stats.estimate_sims += 1;
                            (ns, "estimate")
                        }
                    };
                    let prediction = Prediction {
                        baseline_ns: base.baseline_ns,
                        predicted_ns: est_ns,
                    };
                    return Ok(named.outcome(prediction, memory_bytes, comm_bytes, path, 0));
                }
            }
            let patch = emit_patch(opt, base)?;
            match opt {
                OptSpec::Amp => {
                    // AMP stores the stashed activations of the kernels
                    // it retimed in fp16: price exactly those layers.
                    let touched = activation_bytes_of(
                        model,
                        scenario.batch,
                        retimed_layers(&patch, base.index()),
                    );
                    let saved = if touched > 0 {
                        touched / 2
                    } else {
                        fp.activations / 2
                    };
                    memory_bytes = fp.total() - saved.min(fp.activations);
                }
                OptSpec::Gist { lossy } => {
                    // Lossless Gist binarizes the ReLU stashes it found
                    // kernels for (~2x on that share); lossy adds delayed
                    // precision reduction (fp16) on the other forward
                    // layers it instrumented.
                    let (encode, dpr) = gist_layers(&patch);
                    let enc = activation_bytes_of(model, scenario.batch, encode);
                    let dpr = activation_bytes_of(model, scenario.batch, dpr);
                    let derived = enc / 2 + dpr / 2;
                    let saved = if derived > 0 {
                        derived
                    } else if *lossy {
                        fp.activations / 2
                    } else {
                        fp.activations / 4
                    };
                    memory_bytes = fp.total() - saved.min(fp.activations);
                }
                OptSpec::Vdnn { .. } => {
                    // vDNN's saving is whatever the patch actually copies
                    // out: the DtoH offload tasks it inserted.
                    let derived = offloaded_bytes(&patch);
                    let saved = if derived > 0 {
                        derived
                    } else {
                        vdnn_offloadable_bytes(model, scenario.batch)
                    };
                    memory_bytes = fp.total().saturating_sub(saved);
                }
                _ => {}
            }
            // Patched evaluation: warm cone re-simulation against the
            // base schedule (full simulation only when the cone is too
            // large), short-circuited by the patch-fingerprint cache.
            let key = patch_key(scenario, "default", patch.fingerprint(), fidelity);
            let eval = memoized(patches, key, stats, |stats| {
                simulate_patch(base, &patch, fidelity, scratch, stats)
                    .map_err(|e| format!("patched graph for {}: {e}", named.label))
            })?;
            sim_path = if eval.estimated {
                "estimate"
            } else if eval.incremental {
                "incremental"
            } else {
                "full"
            };
            tasks_redispatched = eval.tasks_redispatched;
            Prediction {
                baseline_ns: base.baseline_ns,
                predicted_ns: eval.predicted_ns,
            }
        }
    };

    Ok(named.outcome(
        prediction,
        memory_bytes,
        comm_bytes,
        sim_path,
        tasks_redispatched,
    ))
}

/// Simulates one patch warm over its base at `fidelity`, counting the
/// path taken.
fn simulate_patch(
    base: &BaseProfile,
    patch: &GraphPatch,
    fidelity: Fidelity,
    scratch: &mut SimScratch,
    stats: &mut RunStats,
) -> Result<PatchEval, GraphError> {
    let attempt = match fidelity {
        // Warm path: the arena's epoch-stamped buffers replace the
        // per-evaluation prefix clones, so a small cone costs O(cone),
        // not O(n).
        Fidelity::Exact => Some(simulate_warm(
            &base.compiled,
            &base.schedule,
            patch,
            scratch,
        )?),
        Fidelity::Rung { max_cone_fraction } => try_simulate_warm_with(
            &base.compiled,
            &base.schedule,
            patch,
            scratch,
            max_cone_fraction,
        )?,
    };
    Ok(match attempt {
        Some(outcome) => {
            let eval = PatchEval {
                predicted_ns: outcome.makespan_ns,
                incremental: outcome.stats.is_incremental(),
                estimated: false,
                tasks_redispatched: outcome.stats.redispatched as u64,
            };
            stats.record_sim(&eval);
            eval
        }
        // Low-fidelity stand-in: a patch whose cone busts the rung's
        // budget answers with the O(|patch|) busy-time bound — a lower
        // bound on the makespan that ranks rung candidates, never
        // simulated.
        None => {
            stats.estimate_sims += 1;
            PatchEval {
                predicted_ns: base.busy_bound(patch, scratch),
                incremental: false,
                estimated: true,
                tasks_redispatched: 0,
            }
        }
    })
}

/// Evaluates one optimization over a caller's profiled iteration of
/// `model`: the engine's per-scenario path (patch emit + warm simulation,
/// or the P3 plans) over a base built from `trace`, with fresh caches.
/// `opt` is taken as given; `daydream predict` resolves it through the
/// grid first (the daemon's `WhatIfRequest::scenario`), so it refuses
/// exactly what `sweep` and `/whatif` refuse.
pub fn evaluate_trace(model: Model, trace: &Trace, opt: &OptSpec) -> Result<Prediction, String> {
    let named = Named::new(Scenario::new(
        model.name.clone(),
        trace.meta.batch_size as u64,
        opt.clone(),
    ));
    let base = BaseProfile::new(model, trace)?;
    let outcome = evaluate(
        &named,
        &base,
        &PatchCache::new(),
        Fidelity::Exact,
        &mut SimScratch::new(),
        &mut RunStats::default(),
    )?;
    Ok(Prediction {
        baseline_ns: outcome.baseline_ns,
        predicted_ns: outcome.predicted_ns,
    })
}

/// Renders a human-readable patch explanation for one scenario: builds
/// the base profile, emits the scenario's patch, summarizes what it does
/// to the graph, and reports which simulation path would evaluate it —
/// for the incremental paths, the tasks re-dispatched (the cone, or the
/// inserted tasks of a patch that only adds threads) and their share
/// (`daydream sweep --explain`).
pub fn explain_scenario(scenario: &Scenario) -> Result<String, String> {
    let base = build_profile(&scenario.model, scenario.batch)?;
    let (note, sim_note, fingerprint, summary, offloaded) = match &scenario.opt {
        OptSpec::P3 {
            machines,
            gpus_per_machine,
            bw_gbps,
        } => {
            // The sliced plan `evaluate` retimes for this cluster.
            let cluster = ClusterConfig::new(*machines, *gpus_per_machine, *bw_gbps);
            let plan = &base.p3_plans(&cluster).sliced;
            let (dispatched, total) = (plan.dispatched_tasks(), plan.compiled().len());
            let sim_note = if plan.replayed_tasks() > 0 {
                format!(
                    "incremental re-simulation of the base's cached P3 plan, retimed to \
                     this cluster's wire times: the first of its {P3_ITERATIONS} unrolled \
                     iterations replays the base schedule\n\
                     cone:      {dispatched} of {total} tasks re-dispatched ({:.1}%)",
                    dispatched as f64 / total as f64 * 100.0
                )
            } else {
                "full re-simulation of the base's cached P3 plan, retimed to this \
                 cluster's wire times (its first iteration cannot replay the base \
                 schedule)"
                    .to_string()
            };
            (
                format!("patch over the {P3_ITERATIONS}-iteration replicated base"),
                sim_note,
                plan.fingerprint(),
                plan.summary(),
                0,
            )
        }
        opt => {
            let patch = emit_patch(opt, &base)?;
            let note = if patch.is_empty() {
                "empty patch (no transformation)".to_string()
            } else {
                "patch over the profiled base graph".to_string()
            };
            // The path `evaluate` takes: warm, over the base plus overlay.
            let outcome = simulate_warm(
                &base.compiled,
                &base.schedule,
                &patch,
                &mut SimScratch::new(),
            )
            .map_err(|e| format!("patched graph for {}: {e}", scenario.label()))?;
            let s = outcome.stats;
            let sim_note = if let Some(entries) = s.entries {
                format!(
                    "incremental thread-insert simulation: the patch only adds threads, \
                     whose tasks alone are timed; the {entries} base task(s) they feed add \
                     their captured tails to the base schedule\n\
                     timed:     {} of {} tasks re-dispatched ({:.1}%)",
                    s.redispatched,
                    s.total,
                    s.cone_fraction() * 100.0
                )
            } else if s.is_incremental() {
                format!(
                    "incremental cone re-simulation\ncone:      {} of {} tasks re-dispatched ({:.1}%)",
                    s.redispatched,
                    s.total,
                    s.cone_fraction() * 100.0
                )
            } else {
                "full re-simulation (re-dispatch cone exceeds the size threshold)".to_string()
            };
            (
                note,
                sim_note,
                patch.fingerprint(),
                patch.summary(),
                offloaded_bytes(&patch),
            )
        }
    };
    let mut out = String::new();
    out.push_str(&format!("scenario:  {}\n", scenario.label()));
    out.push_str(&format!("key:       {}\n", scenario.fingerprint_hex()));
    out.push_str(&format!("patch:     {fingerprint:016x} ({note})\n"));
    out.push_str(&format!("sim path:  {sim_note}\n"));
    out.push_str(&format!("{summary}\n"));
    if offloaded > 0 {
        out.push_str(&format!(
            "offloaded: {:.2} GiB device-to-host\n",
            offloaded as f64 / (1u64 << 30) as f64
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SweepGrid;

    fn small_grid() -> SweepGrid {
        SweepGrid::builder()
            .models(["ResNet-50"])
            .batches([4])
            .opts(["baseline", "amp", "gist"])
            .build()
    }

    #[test]
    fn rung_surrogates_track_the_patch_busy_bound() {
        // The analytic surrogate must mirror what the emitted patch's
        // busy-time bound would have said — it replaces that bound at
        // rung 0, so any planner change that breaks the mirror (new
        // duration classes, different DGC kernel costs) must fail here,
        // not silently skew the search's pruning.
        let base = build_profile("ResNet-50", 4).unwrap();
        let families = [
            OptSpec::BatchSize { batch: 16 },
            OptSpec::BatchSize { batch: 2 },
            OptSpec::Dgc {
                machines: 2,
                gpus_per_machine: 1,
                bw_gbps: 10.0,
                ratio: 0.01,
            },
            OptSpec::Dgc {
                machines: 4,
                gpus_per_machine: 1,
                bw_gbps: 25.0,
                ratio: 0.25,
            },
        ];
        for opt in families {
            let Some(Surrogate::Estimate(sur)) = surrogate_estimate(&opt, &base) else {
                panic!("{opt:?} must have an estimate surrogate");
            };
            let patch = emit_patch(&opt, &base).unwrap();
            let bound = base.busy_bound(&patch, &mut SimScratch::new());
            // Per-task vs per-sum rounding differ by well under 0.1%.
            let rel = (sur as f64 - bound as f64).abs() / bound.max(1) as f64;
            assert!(
                rel < 1e-3,
                "{opt:?}: surrogate {sur} vs patch bound {bound} (rel {rel:.6})"
            );
        }
        // Bandwidth over a single-GPU profile rescales nothing: the
        // surrogate knows the patch is empty and answers exactly.
        assert!(matches!(
            surrogate_estimate(&OptSpec::Bandwidth { factor: 2.0 }, &base),
            Some(Surrogate::Noop)
        ));
        // Families without a surrogate fall through to the patch path.
        assert!(surrogate_estimate(&OptSpec::Amp, &base).is_none());
    }

    #[test]
    fn rung_estimate_is_the_applied_graphs_busy_time() {
        // A rung answers an over-budget patch with
        // `BaseProfile::busy_bound` over the *unapplied* patch. It must
        // equal the busy time of the applied graph, also where the patch
        // leaves a base thread empty, which the compaction drops. No
        // catalog family vacates a zoo thread, so a hand-made patch
        // removes one thread's tasks.
        use daydream_core::GraphEdit;
        let base = build_profile("ResNet-50", 4).unwrap();
        let g = &base.graph.graph;
        let mut per_thread: HashMap<ExecThread, Vec<TaskId>> = HashMap::new();
        for (id, t) in g.iter() {
            per_thread.entry(t.thread).or_default().push(id);
        }
        let lightest = per_thread.values().min_by_key(|ids| ids.len()).unwrap();
        let mut ov = PatchGraph::new(g);
        for &id in lightest {
            ov.remove_task(id);
        }
        let mut patches = vec![(None, Arc::new(ov.finish()))];
        for opt in [
            OptSpec::FusedAdam,
            OptSpec::Gist { lossy: true },
            OptSpec::Vdnn { lookahead: 1 },
            OptSpec::Ddp {
                machines: 2,
                gpus_per_machine: 1,
                bw_gbps: 10.0,
            },
        ] {
            let patch = emit_patch(&opt, &base).unwrap();
            patches.push((Some(opt), patch));
        }
        let mut scratch = SimScratch::new();
        for (opt, patch) in &patches {
            let applied = base.compiled.apply(patch);
            let applied_busy = thread_busy_ns(&applied).into_iter().max().unwrap_or(0);
            let bound = base.busy_bound(patch, &mut scratch);
            assert_eq!(bound, applied_busy, "{opt:?}: delta bound vs applied graph");
        }
    }

    #[test]
    fn runs_a_small_grid() {
        let engine = SweepEngine::new(2);
        let report = engine.run(&small_grid()).unwrap();
        assert_eq!(report.scenario_count, 3);
        assert_eq!(report.cache_hits, 0);
        // The baseline row predicts its own baseline.
        let baseline = report.results.iter().find(|o| o.opt == "baseline").unwrap();
        assert_eq!(baseline.baseline_ns, baseline.predicted_ns);
        // AMP beats the baseline on ResNet (paper §6.2).
        let amp = report.results.iter().find(|o| o.opt == "amp").unwrap();
        assert!(amp.speedup > 1.0);
        assert_eq!(engine.last_stats().profiles_built, 1);
    }

    #[test]
    fn a_poisoned_profile_table_keeps_serving() {
        let engine = SweepEngine::new(2);
        let expected = engine.run(&small_grid()).unwrap();
        engine.clear_result_cache();
        std::thread::scope(|s| {
            let joined = s
                .spawn(|| {
                    let _held = engine.profiles.lock().unwrap();
                    panic!("poisoning the profile table");
                })
                .join();
            assert!(joined.is_err());
        });
        assert!(engine.profiles.is_poisoned());
        let scenarios = small_grid().expand().unwrap();
        let outcomes = engine.run_scenarios(scenarios).unwrap();
        assert_eq!(SweepReport::from_outcomes(outcomes), expected);
        assert_eq!(
            engine.last_stats().profiles_built,
            0,
            "the warm base survives"
        );
        assert_eq!(engine.resident_profiles().len(), 1);
    }

    #[test]
    fn profiles_pass_the_fidelity_check() {
        let engine = SweepEngine::new(2);
        engine.run(&small_grid()).unwrap();
        let stats = engine.last_stats();
        assert_eq!(stats.fidelity_checks, 1, "one base profile, one check");
        assert_eq!(stats.fidelity_failures, 0);
        assert!(
            stats.fidelity_worst_rel_err < FIDELITY_TOLERANCE,
            "baseline replay drifted {:.2}% from the recorded run",
            stats.fidelity_worst_rel_err * 100.0
        );
        // A fully cached rerun builds no profiles, so it checks nothing.
        engine.run(&small_grid()).unwrap();
        assert_eq!(engine.last_stats().fidelity_checks, 0);
    }

    #[test]
    fn second_run_is_fully_cached() {
        let engine = SweepEngine::new(2);
        engine.run(&small_grid()).unwrap();
        let again = engine.run(&small_grid()).unwrap();
        assert_eq!(again.cache_hits, 3);
        assert_eq!(again.executed, 0);
        assert_eq!(engine.last_stats().profiles_built, 0, "profiles reused too");
    }

    #[test]
    fn run_scenarios_split_across_engines_matches_run() {
        // The distributed-sweep contract: evaluating disjoint scenario
        // slices on separate engines and re-ranking the union matches a
        // single engine's `run` exactly.
        let grid = small_grid();
        let scenarios = grid.expand().unwrap();
        let (a, b) = scenarios.split_at(scenarios.len() / 2);
        let mut outcomes = SweepEngine::new(1).run_scenarios(a.to_vec()).unwrap();
        outcomes.extend(SweepEngine::new(2).run_scenarios(b.to_vec()).unwrap());
        let merged = SweepReport::from_outcomes(outcomes);
        let single = SweepEngine::new(2).run(&grid).unwrap();
        assert_eq!(merged, single);
        assert_eq!(merged.to_json().unwrap(), single.to_json().unwrap());
    }

    #[test]
    fn amp_reduces_estimated_memory() {
        let engine = SweepEngine::new(1);
        let report = engine.run(&small_grid()).unwrap();
        let baseline = report.results.iter().find(|o| o.opt == "baseline").unwrap();
        let amp = report.results.iter().find(|o| o.opt == "amp").unwrap();
        assert!(amp.memory_bytes < baseline.memory_bytes);
    }

    #[test]
    fn distributed_scenarios_report_comm_cost() {
        let engine = SweepEngine::new(2);
        let grid = SweepGrid::builder()
            .models(["ResNet-50"])
            .batches([4])
            .opts(["ddp", "dgc"])
            .bandwidths([10.0])
            .machines([4])
            .dgc_ratios([0.01])
            .build();
        let report = engine.run(&grid).unwrap();
        let ddp = report
            .results
            .iter()
            .find(|o| o.opt.starts_with("ddp"))
            .unwrap();
        let dgc = report
            .results
            .iter()
            .find(|o| o.opt.starts_with("dgc"))
            .unwrap();
        assert!(ddp.comm_bytes > 0);
        assert!(
            dgc.comm_bytes < ddp.comm_bytes / 50,
            "DGC compresses gradient traffic ~100x"
        );
    }

    #[test]
    fn patch_evaluation_matches_legacy_mutate_path() {
        // The patch pipeline must predict exactly what running the same
        // planner in place on a clone of the base graph and simulating it
        // from scratch predicts: pin every catalog family on one profile.
        // This is the check that planners read the same state through a
        // `PatchGraph` as in place.
        use daydream_core::simulate;
        use daydream_core::whatif::plan_upgrade_gpu;
        let base = build_profile("ResNet-50", 4).unwrap();
        let scenarios = SweepGrid::builder()
            .models(["ResNet-50"])
            .batches([4])
            .opts(
                "amp,reconstruct-bn,gist,vdnn,bandwidth,upgrade-gpu,batch-size,ddp,blueconnect,dgc"
                    .split(','),
            )
            .machines([4])
            .gpus_per_machine(2)
            .bandwidths([10.0])
            .gist_lossy([true])
            .target_batches([8])
            .build()
            .expand()
            .unwrap();
        assert_eq!(scenarios.len(), 10);
        let (model, buckets) = (&base.model, &base.graph.meta.buckets);
        let cluster = ClusterConfig::new(4, 2, 10.0);
        let lossy = GistConfig { lossy: true };
        let patches = PatchCache::new();
        let mut scratch = SimScratch::new();
        for scenario in scenarios {
            let outcome = evaluate(
                &Named::new(scenario.clone()),
                &base,
                &patches,
                Fidelity::Exact,
                &mut scratch,
                &mut RunStats::default(),
            )
            .unwrap();
            // The grid's defaults: lookahead 2, factor 2, V100, ratio 0.01.
            let mut g = base.graph.graph.clone();
            match scenario.opt {
                OptSpec::Amp => plan_amp(&mut g),
                OptSpec::ReconstructBn => plan_reconstruct_bn(&mut g, model),
                OptSpec::Gist { .. } => {
                    plan_gist(&mut g, &lossy);
                }
                OptSpec::Vdnn { .. } => {
                    plan_vdnn(&mut g, model, &VdnnConfig::default(), 4);
                }
                OptSpec::Bandwidth { .. } => {
                    plan_bandwidth(&mut g, 2.0);
                }
                OptSpec::UpgradeGpu { .. } => {
                    plan_upgrade_gpu(&mut g, &GpuSpec::rtx_2080ti(), &GpuSpec::v100());
                }
                OptSpec::BatchSize { .. } => {
                    plan_batch_size(&mut g, 4, 8);
                }
                OptSpec::Ddp { .. } => {
                    plan_distributed(&mut g, buckets, &cluster);
                }
                OptSpec::BlueConnect { .. } => {
                    let ars = plan_distributed(&mut g, buckets, &cluster);
                    plan_blueconnect(&mut g, &cluster, &ars);
                }
                OptSpec::Dgc { .. } => {
                    let ars = plan_distributed(&mut g, buckets, &cluster);
                    plan_dgc(&mut g, &ars, &DgcConfig::default());
                }
                _ => unreachable!(),
            }
            assert_eq!(
                outcome.predicted_ns,
                simulate(&g).unwrap().makespan_ns,
                "{}: patch path diverged from the in-place planner",
                scenario.label()
            );
        }
    }

    #[test]
    fn identical_patches_hit_the_patch_cache() {
        // Two distinct Scenario values with the same effective patch:
        // `run_scenarios` takes explicit lists, so duplicates reach
        // evaluation (grid expansion would collapse them) and the second
        // one must skip simulation via the patch-fingerprint cache.
        let engine = SweepEngine::new(1);
        let s = Scenario::new("ResNet-50", 4, OptSpec::Bandwidth { factor: 2.0 });
        let outcomes = engine.run_scenarios(vec![s.clone(), s.clone()]).unwrap();
        assert_eq!(outcomes[0].predicted_ns, outcomes[1].predicted_ns);
        assert_eq!(engine.last_stats().patch_hits, 1);
    }

    #[test]
    fn overlapping_runs_count_only_their_own_work() {
        // A daemon's `/whatif` can arrive while a `/sweep` job runs on
        // the same engine. The first run here blocks in its observer,
        // holding its scratch arena, until a second run (whose duplicate
        // scenario hits the patch cache) has returned: each run must
        // count only its own hits and arena uses.
        let engine = SweepEngine::new(1);
        let first = Scenario::new("ResNet-50", 4, OptSpec::Amp);
        let second = Scenario::new("ResNet-50", 4, OptSpec::Gist { lossy: false });
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let blocked = s.spawn(|| {
                let observe = |_: &ScenarioOutcome| {
                    gate.wait();
                    gate.wait();
                };
                engine.run_scenarios_observed(vec![first], &observe)
            });
            gate.wait();
            engine.run_scenarios(vec![second.clone(), second]).unwrap();
            assert_eq!(engine.last_stats().patch_hits, 1);
            gate.wait();
            blocked.join().unwrap().unwrap();
        });
        assert_eq!(
            engine.last_stats().patch_hits,
            0,
            "the first run hit nothing"
        );
        let totals = engine.total_stats();
        assert_eq!(totals.patch_hits, 1);
        assert_eq!(totals.patch_hits, engine.patch_cache().hits());
        let warm = (totals.incremental_sims + totals.full_sims) as u64;
        assert_eq!(warm, 2, "one warm evaluation per distinct patch");
        assert_eq!(totals.scratch_reuses + totals.scratch_allocs, warm);
    }

    #[test]
    fn vdnn_memory_derived_from_patched_graph() {
        // The vDNN memory objective equals the footprint minus exactly
        // the bytes of the DtoH offload copies the patch inserted.
        let base = build_profile("ResNet-50", 4).unwrap();
        let scenario = Scenario::new("ResNet-50", 4, OptSpec::Vdnn { lookahead: 2 });
        let outcome = evaluate(
            &Named::new(scenario.clone()),
            &base,
            &PatchCache::new(),
            Fidelity::Exact,
            &mut SimScratch::new(),
            &mut RunStats::default(),
        )
        .unwrap();
        let patch = emit_patch(&scenario.opt, &base).unwrap();
        let offloaded = offloaded_bytes(&patch);
        assert!(offloaded > 0, "vDNN must offload something");
        let fp = footprint(&base.model, 4);
        assert_eq!(outcome.memory_bytes, fp.total().saturating_sub(offloaded));
    }

    #[test]
    fn rung_patch_cache_entries_never_serve_exact_requests() {
        // Satellite of the fidelity-keyed patch cache: a low-fidelity
        // rung-0 prediction (tiny cone budget forces the analytic
        // estimate) must never answer a full-fidelity lookup for the
        // same patch — the fidelity folded into the key separates them.
        let engine = SweepEngine::new(1);
        let s = Scenario::new("ResNet-50", 4, OptSpec::Amp);
        let rung = engine.run_scenarios_rung(vec![s.clone()], 0.01).unwrap();
        assert_eq!(rung[0].sim_path, "estimate", "1% cone budget must trip");
        assert_eq!(engine.last_stats().estimate_sims, 1);
        let exact = engine.run_scenarios(vec![s.clone()]).unwrap();
        assert_eq!(
            engine.last_stats().patch_hits,
            0,
            "the exact run must not be served the rung-keyed estimate"
        );
        assert_ne!(exact[0].sim_path, "estimate", "exact runs never estimate");
        // The exact prediction matches a never-rung engine's bit for bit.
        let fresh = SweepEngine::new(1).run_scenarios(vec![s]).unwrap();
        assert_eq!(exact[0].predicted_ns, fresh[0].predicted_ns);
        assert_ne!(
            rung[0].predicted_ns, exact[0].predicted_ns,
            "the busy-time bound is not the simulated makespan"
        );
    }

    #[test]
    fn rung_runs_bypass_the_result_cache() {
        // A rung evaluation must neither read nor write the persistent
        // scenario-result cache: its outcomes are ranking signals only.
        let engine = SweepEngine::new(1);
        let s = Scenario::new("ResNet-50", 4, OptSpec::Amp);
        engine.run_scenarios(vec![s.clone()]).unwrap();
        let exact_hits = engine.cache().hits();
        let rung = engine.run_scenarios_rung(vec![s.clone()], 0.01).unwrap();
        assert_eq!(
            engine.cache().hits(),
            exact_hits,
            "rung run must not read the exact-result cache"
        );
        assert!(!rung[0].cached);
        assert_eq!(rung[0].sim_path, "estimate");
    }

    #[test]
    fn lossless_gist_without_relu_kernels_is_an_empty_patch() {
        // GNMT and the BERTs run no element-wise ReLU kernel, so lossless
        // Gist finds nothing to encode: `--explain` shows an empty patch
        // and the engine predicts the baseline.
        let mut scenarios = Vec::new();
        for model in ["GNMT", "BERT_Base", "BERT_Large"] {
            for batch in [4, 8] {
                let s = Scenario::new(model, batch, OptSpec::Gist { lossy: false });
                let text = explain_scenario(&s).unwrap();
                assert!(text.contains("(empty patch (no transformation))"), "{text}");
                assert!(text.contains("tasks inserted:      0\n"), "{text}");
                scenarios.push(s);
            }
        }
        for o in SweepEngine::new(2).run_scenarios(scenarios).unwrap() {
            assert_eq!(o.predicted_ns, o.baseline_ns, "{}", o.label);
        }
    }

    #[test]
    fn explain_renders_patch_summary() {
        let s = Scenario::new("ResNet-50", 4, OptSpec::Gist { lossy: false });
        let text = explain_scenario(&s).unwrap();
        assert!(text.contains("scenario:  ResNet-50 b4 gist[lossless]"));
        assert!(text.contains("tasks inserted:"));
        assert!(text.contains("deps added:"));
        // Baseline renders an explicitly empty patch.
        let b = Scenario::new("ResNet-50", 4, OptSpec::Baseline);
        let text = explain_scenario(&b).unwrap();
        assert!(text.contains("empty patch"));
        // P3 summarizes the replicated-base patch.
        let p = Scenario::new(
            "ResNet-50",
            4,
            OptSpec::P3 {
                machines: 4,
                gpus_per_machine: 1,
                bw_gbps: 4.0,
            },
        );
        let text = explain_scenario(&p).unwrap();
        assert!(text.contains("replicated base"));
    }
}
