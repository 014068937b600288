//! The worker loop: claim shards, evaluate them with a [`SweepEngine`],
//! publish partial results, and reclaim work abandoned by dead peers.
//!
//! Every protocol call the loop makes is wrapped in bounded retry with
//! exponential backoff + jitter ([`crate::error::with_retry`]) for
//! transient IO, and [`Recovery::Reclaimable`] failures (a corrupt
//! working artifact) are healed in place: quarantine the artifact,
//! requeue the shard from its pristine `spec/` copy, keep draining.
//! Only fatal errors — and injected worker kills from a
//! [`crate::faults::FaultInjector`] — stop a worker.

use daydream_sweep::report::ScenarioOutcome;
use daydream_sweep::{OutcomeObserver, SweepEngine};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::error::{with_retry, Recovery, RetryPolicy, ShardError, Step};
use crate::faults::{FaultKind, FaultPoint};
use crate::rundir::{ClaimedShard, RunDir};

/// Worker behavior knobs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Identifier recorded in leases (defaults to `w<pid>`).
    pub worker_id: String,
    /// Lease TTL: how long peers wait before presuming this worker dead.
    pub lease_ttl_ms: u64,
    /// Sleep between polls while other workers hold the remaining shards.
    pub poll_ms: u64,
    /// Give up after this much time with no claimable work and an
    /// undrained run (covers a peer that holds a lease forever while
    /// renewing nothing — should not happen, but a worker must not hang).
    pub max_wait_ms: u64,
    /// Bounded retry + backoff applied to every transient protocol
    /// failure (claim, complete, status, reclaim).
    pub retry: RetryPolicy,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            worker_id: format!("w{}", std::process::id()),
            lease_ttl_ms: 60_000,
            poll_ms: 50,
            max_wait_ms: 600_000,
            retry: RetryPolicy::default(),
        }
    }
}

/// What one worker did over a [`run_worker`] drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Shards this worker claimed and completed.
    pub shards_completed: usize,
    /// Scenarios evaluated across those shards.
    pub scenarios_evaluated: usize,
    /// Stale leases this worker returned to the queue.
    pub leases_reclaimed: usize,
    /// Total milliseconds spent polling for claimable work.
    pub waited_ms: u64,
    /// Transient protocol failures retried (bounded backoff).
    pub retries: u64,
    /// Corrupt artifacts quarantined and requeued from `spec/`.
    pub requeued_corrupt: usize,
}

/// Evaluates a claimed shard while a heartbeat thread renews the lease
/// every quarter-TTL, so peers never mistake a long evaluation for a
/// dead worker (without this, any shard slower than the TTL would be
/// reclaimed and re-evaluated by every idle peer). Renewal failures are
/// ignored: the worst case is a duplicate evaluation with identical
/// results, which the protocol already tolerates.
fn evaluate_with_heartbeat(
    run: &RunDir,
    engine: &SweepEngine,
    claim: &ClaimedShard,
    cfg: &WorkerConfig,
    observer: Option<OutcomeObserver<'_>>,
) -> Result<Vec<ScenarioOutcome>, ShardError> {
    // The evaluation-window faults: a kill here is a worker dying
    // mid-shard (lease left behind for peers to reclaim); a lease theft
    // simulates a racing reclaimer — the victim keeps evaluating, then
    // finds its lease gone and drops the result at `complete`.
    if let Some(inj) = run.fault_injector() {
        match inj.take(FaultPoint::Evaluate) {
            Some(FaultKind::Kill) => {
                return Err(ShardError::injected_kill(Step::Evaluate, claim.index))
            }
            Some(FaultKind::StealLease) => run.steal_lease(claim.index),
            _ => {}
        }
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let interval = (cfg.lease_ttl_ms / 4).clamp(10, 15_000);
            let step = std::time::Duration::from_millis(interval.min(25));
            let mut since_renewal = 0u64;
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(step);
                since_renewal += step.as_millis() as u64;
                if since_renewal >= interval {
                    run.renew(claim.index, &claim.worker, cfg.lease_ttl_ms).ok();
                    since_renewal = 0;
                }
            }
        });
        let result = match observer {
            Some(obs) => engine.run_scenarios_observed(claim.scenarios.clone(), obs),
            None => engine.run_scenarios(claim.scenarios.clone()),
        };
        done.store(true, Ordering::Relaxed);
        result.map_err(|e| ShardError::fatal(Step::Evaluate, e).with_shard(claim.index))
    })
}

/// Claims and evaluates shards until the run drains. Between claims the
/// worker reclaims stale leases, so a run always completes as long as at
/// least one worker survives. Returns this worker's contribution.
pub fn run_worker(
    run: &RunDir,
    engine: &SweepEngine,
    cfg: &WorkerConfig,
) -> Result<WorkerSummary, ShardError> {
    run_worker_observed(run, engine, cfg, None)
}

/// [`run_worker`] streaming each outcome to `observer` as it resolves
/// (the resident job queue's partial-results path). Note a shard that
/// gets evaluated twice (reclaim race, stolen lease) streams its
/// outcomes twice; observers needing set semantics dedup by key.
pub fn run_worker_observed(
    run: &RunDir,
    engine: &SweepEngine,
    cfg: &WorkerConfig,
    observer: Option<OutcomeObserver<'_>>,
) -> Result<WorkerSummary, ShardError> {
    let mut summary = WorkerSummary::default();
    let mut idle_ms = 0u64;
    loop {
        let claimed = match with_retry(&cfg.retry, &mut summary.retries, || {
            run.claim_any(&cfg.worker_id, cfg.lease_ttl_ms)
        }) {
            Ok(c) => c,
            Err(e) => {
                requeue_or_die(run, &mut summary, e)?;
                continue;
            }
        };
        if let Some(claim) = claimed {
            let outcomes = evaluate_with_heartbeat(run, engine, &claim, cfg, observer)?;
            summary.scenarios_evaluated += outcomes.len();
            if let Err(e) = with_retry(&cfg.retry, &mut summary.retries, || {
                run.complete(&claim, outcomes.clone())
            }) {
                requeue_or_die(run, &mut summary, e)?;
                continue;
            }
            summary.shards_completed += 1;
            idle_ms = 0;
            continue;
        }
        let status = with_retry(&cfg.retry, &mut summary.retries, || run.status())?;
        // A partial whose lease is still held may yet change (its owner
        // may be mid-publish or have died writing it): wait for the
        // release, or for reclaim to release a stale lease, first.
        if status.is_drained() && status.publishing == 0 {
            // Drained by partial-count — but a partial may be torn or
            // bit-rotted. Verify before declaring the run complete;
            // corrupt shards are quarantined, requeued, and re-drained.
            let corrupt = run.verify_partials()?;
            if corrupt.is_empty() {
                return Ok(summary);
            }
            for index in corrupt {
                if run.requeue_from_spec(index)? {
                    summary.requeued_corrupt += 1;
                }
            }
            idle_ms = 0;
            continue;
        }
        let reclaimed = with_retry(&cfg.retry, &mut summary.retries, || {
            run.reclaim_stale(run.now_ms(), cfg.lease_ttl_ms)
        })?
        .len();
        summary.leases_reclaimed += reclaimed;
        if reclaimed > 0 {
            idle_ms = 0;
            continue;
        }
        if idle_ms >= cfg.max_wait_ms {
            return Err(ShardError::fatal(
                Step::WorkerDrain,
                format!(
                    "worker {} gave up after {idle_ms} ms: {} shard(s) still leased by peers \
                     and none claimable",
                    cfg.worker_id,
                    status.leased + status.publishing + status.todo
                ),
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(cfg.poll_ms));
        idle_ms += cfg.poll_ms;
        summary.waited_ms += cfg.poll_ms;
    }
}

/// Shard-scoped reclaimable failures heal in place (quarantine +
/// requeue from spec); everything else propagates.
fn requeue_or_die(
    run: &RunDir,
    summary: &mut WorkerSummary,
    e: ShardError,
) -> Result<(), ShardError> {
    match (e.recovery, e.shard, e.is_injected_kill()) {
        (Recovery::Reclaimable, Some(index), false) => {
            if run.requeue_from_spec(index)? {
                summary.requeued_corrupt += 1;
            }
            Ok(())
        }
        _ => Err(e),
    }
}

/// What [`process_shard`] found when asked for one specific shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardDisposition {
    /// This call claimed and evaluated the shard (scenario count given).
    Evaluated(usize),
    /// The shard already has a partial result.
    AlreadyDone,
}

/// Claims and evaluates exactly shard `index` (the `daydream sweep
/// --shard-index I` path). A completed shard is a no-op; a shard leased
/// by a live peer is an error (two deliberate single-shard invocations
/// of the same index indicate an operator mistake); a stale lease is
/// reclaimed first.
pub fn process_shard(
    run: &RunDir,
    engine: &SweepEngine,
    index: usize,
    cfg: &WorkerConfig,
) -> Result<ShardDisposition, ShardError> {
    let mut retries = 0u64;
    let manifest = run.manifest()?;
    if index >= manifest.shards {
        return Err(ShardError::fatal(
            Step::OpenRun,
            format!(
                "shard index {index} out of range: run has {} shards",
                manifest.shards
            ),
        ));
    }
    match run.partial(index) {
        Ok(Some(_)) => return Ok(ShardDisposition::AlreadyDone),
        Ok(None) => {}
        // A corrupt partial from an earlier crashed run: quarantine and
        // requeue, then evaluate it fresh below.
        Err(e) if e.recovery == Recovery::Reclaimable => {
            run.requeue_from_spec(index)?;
        }
        Err(e) => return Err(e),
    }
    run.reclaim_stale(run.now_ms(), cfg.lease_ttl_ms)?;
    match with_retry(&cfg.retry, &mut retries, || {
        run.claim(index, &cfg.worker_id, cfg.lease_ttl_ms)
    })? {
        Some(claim) => {
            let outcomes = evaluate_with_heartbeat(run, engine, &claim, cfg, None)?;
            let count = outcomes.len();
            with_retry(&cfg.retry, &mut retries, || {
                run.complete(&claim, outcomes.clone())
            })?;
            Ok(ShardDisposition::Evaluated(count))
        }
        None => {
            if run.partial(index)?.is_some() {
                Ok(ShardDisposition::AlreadyDone)
            } else {
                let holder = run
                    .lease(index)
                    .ok()
                    .flatten()
                    .map(|l| l.worker)
                    .unwrap_or_else(|| "unknown".into());
                Err(ShardError::fatal(
                    Step::ClaimShard,
                    format!(
                        "shard {index} is leased by worker '{holder}' and not stale; \
                         wait for it or re-run after its lease TTL expires"
                    ),
                )
                .with_shard(index))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ShardPlan;
    use crate::rundir::RunDir;
    use daydream_sweep::SweepGrid;

    fn small_grid() -> SweepGrid {
        SweepGrid::builder()
            .models(["ResNet-50"])
            .batches([4])
            .opts(["baseline", "amp", "gist", "bandwidth", "vdnn"])
            .build()
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "daydream-worker-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn one_worker_drains_a_run() {
        let root = tmp_dir("drain");
        let scenarios = small_grid().expand().unwrap();
        let total = scenarios.len();
        let plan = ShardPlan::partition(scenarios, 2).unwrap();
        let (run, _) = RunDir::init_or_open(&root, "t", &plan).unwrap();
        let engine = SweepEngine::new(2);
        let summary = run_worker(&run, &engine, &WorkerConfig::default()).unwrap();
        assert_eq!(summary.shards_completed, 2);
        assert_eq!(summary.scenarios_evaluated, total);
        assert_eq!(summary.retries, 0);
        assert_eq!(summary.requeued_corrupt, 0);
        assert!(run.status().unwrap().is_drained());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn process_shard_is_idempotent_and_bounded() {
        let root = tmp_dir("single");
        let plan = ShardPlan::partition(small_grid().expand().unwrap(), 2).unwrap();
        let (run, _) = RunDir::init_or_open(&root, "t", &plan).unwrap();
        let engine = SweepEngine::new(1);
        let cfg = WorkerConfig::default();
        let first = process_shard(&run, &engine, 0, &cfg).unwrap();
        assert_eq!(first, ShardDisposition::Evaluated(plan.shard(0).len()));
        let second = process_shard(&run, &engine, 0, &cfg).unwrap();
        assert_eq!(second, ShardDisposition::AlreadyDone);
        assert!(
            process_shard(&run, &engine, 9, &cfg).is_err(),
            "out of range"
        );
        assert!(!run.status().unwrap().is_drained(), "shard 1 untouched");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn heartbeat_keeps_long_evaluations_from_being_reclaimed() {
        let root = tmp_dir("heartbeat");
        // One shard whose evaluation comfortably outlives the tiny TTL
        // (6 base profiles + 24 scenarios on one thread is several
        // hundred ms even in release builds).
        let grid = SweepGrid::builder()
            .models(["ResNet-50", "BERT_Base", "BERT_Large"])
            .batches([4, 8])
            .opts(["baseline", "amp", "gist", "bandwidth"])
            .build();
        let plan = ShardPlan::partition(grid.expand().unwrap(), 1).unwrap();
        let (run, _) = RunDir::init_or_open(&root, "t", &plan).unwrap();
        let cfg = WorkerConfig {
            lease_ttl_ms: 250,
            ..WorkerConfig::default()
        };
        std::thread::scope(|scope| {
            let worker_run = run.clone();
            let worker_cfg = cfg.clone();
            let handle = scope.spawn(move || {
                let engine = SweepEngine::new(1);
                run_worker(&worker_run, &engine, &worker_cfg).unwrap()
            });
            // An aggressive peer tries to reclaim until well past the
            // TTL (even if evaluation finishes sooner — completion
            // releases the lease, so late checks stay empty either
            // way, while a missing heartbeat would surface here as a
            // reclaim of the still-held lease).
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(600);
            let mut reclaims = 0usize;
            while std::time::Instant::now() < deadline || !run.status().unwrap().is_drained() {
                reclaims += run
                    .reclaim_stale(crate::rundir::now_unix_ms(), cfg.lease_ttl_ms)
                    .unwrap()
                    .len();
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            let summary = handle.join().unwrap();
            assert_eq!(summary.shards_completed, 1);
            assert_eq!(
                reclaims, 0,
                "a heartbeating worker's lease must never be reclaimed"
            );
        });
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn worker_times_out_instead_of_hanging() {
        let root = tmp_dir("timeout");
        let plan = ShardPlan::partition(small_grid().expand().unwrap(), 1).unwrap();
        let (run, _) = RunDir::init_or_open(&root, "t", &plan).unwrap();
        // A live peer holds the only shard with a long TTL.
        run.claim(0, "peer", 3_600_000).unwrap().unwrap();
        let engine = SweepEngine::new(1);
        let cfg = WorkerConfig {
            poll_ms: 5,
            max_wait_ms: 20,
            ..WorkerConfig::default()
        };
        let err = run_worker(&run, &engine, &cfg).unwrap_err();
        assert_eq!(err.step, Step::WorkerDrain);
        assert!(err.message.contains("gave up"), "got: {err}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn worker_heals_a_corrupt_partial_before_declaring_drain() {
        let root = tmp_dir("heal");
        let plan = ShardPlan::partition(small_grid().expand().unwrap(), 2).unwrap();
        let (run, _) = RunDir::init_or_open(&root, "t", &plan).unwrap();
        let engine = SweepEngine::new(2);
        run_worker(&run, &engine, &WorkerConfig::default()).unwrap();
        // Corrupt one published partial behind the protocol's back.
        let path = run.path().join("partial").join("shard-0001.json");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert_eq!(run.verify_partials().unwrap(), vec![1]);
        // A fresh drain notices, requeues from spec, and re-evaluates.
        let summary = run_worker(&run, &engine, &WorkerConfig::default()).unwrap();
        assert_eq!(summary.requeued_corrupt, 1);
        assert_eq!(summary.shards_completed, 1);
        assert!(run.verify_partials().unwrap().is_empty());
        std::fs::remove_dir_all(&root).ok();
    }
}
