//! The async job queue: grid submissions drain onto the shared warm
//! engine on a background worker, with per-job status, streaming ranked
//! partial results, and [`RunStore`] persistence of completed jobs.
//!
//! **Crash safety.** When a store is configured, every accepted job is
//! *journaled before evaluation*: `submit` plans the grid into a
//! `run-NNNN` directory (todo shards + a `job.json` journal) and only
//! then enqueues. The drain is a real shard-worker loop over that run
//! directory, so completed shards persist as partials as the job
//! progresses. A daemon that dies mid-job leaves a run directory with a
//! journal, no `merged.json`, and its own leases; the next
//! [`JobQueue::new`] re-lists those runs, force-reclaims the dead
//! daemon's leases, resumes from the completed partials, and serves a
//! merged report byte-identical to an uninterrupted run. A job that
//! *fails* (not crashes) writes a `job-failed.json` poison marker so
//! restarts do not retry it forever.

use daydream_shard::{
    merge_run, run_worker_observed, write_json_atomic, write_merged, RunDir, RunStore, ShardPlan,
    Step, WorkerConfig,
};
use daydream_sweep::report::ScenarioOutcome;
use daydream_sweep::{Scenario, SweepEngine, SweepReport};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Target scenarios per journaled shard: small enough that a crash
/// loses little progress, large enough to amortize claim overhead.
const SCENARIOS_PER_SHARD: usize = 25;

/// Most shards a single job is split into.
const MAX_JOB_SHARDS: usize = 8;

/// The journal written into a job's run directory at submit time. Its
/// presence (without `merged.json` or `job-failed.json`) marks a job to
/// recover after a daemon restart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobJournal {
    /// Job kind; only `"sweep"` today.
    pub kind: String,
    /// Unix milliseconds when the job was accepted.
    pub submitted_unix_ms: u64,
    /// Scenarios in the job's grid.
    pub scenario_count: usize,
}

/// The poison marker written when a journaled job fails (as opposed to
/// crashing): restarts must not re-run a job that deterministically
/// fails.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobFailure {
    /// The failure message.
    pub error: String,
    /// Unix milliseconds when the failure was recorded.
    pub failed_unix_ms: u64,
}

/// Fault handling of a queue's journaled jobs, for `/metrics`: counted
/// by the queue that retries, reclaims and recovers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Transient protocol failures retried with backoff.
    pub retries: u64,
    /// Stale or dead-worker leases reclaimed.
    pub reclaims: u64,
    /// Faults fired by a deterministic fault injector (nonzero only
    /// under chaos testing).
    pub faults_injected: u64,
    /// Journaled jobs recovered after a daemon restart.
    pub jobs_recovered: u64,
}

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, PartialEq)]
enum JobPhase {
    Queued,
    Running,
    Done {
        run_id: Option<String>,
        note: Option<String>,
    },
    Failed(String),
}

/// One submitted grid job. Partial outcomes stream in from engine
/// worker threads while the job runs; on completion they are replaced
/// by the exact, `cached`-normalized final set.
struct Job {
    total: usize,
    /// The grid, for unjournaled (store-less) evaluation. Journaled
    /// jobs evaluate from their run directory's shard files instead.
    scenarios: Vec<Scenario>,
    partial: Mutex<Vec<ScenarioOutcome>>,
    phase: Mutex<JobPhase>,
    /// The journaled run directory, when a store is configured.
    run: Option<RunDir>,
    /// Whether this job was recovered from a journal after a restart.
    recovered: bool,
    /// Degradation note recorded at submit (e.g. journaling failed).
    pre_note: Option<String>,
}

/// A point-in-time public view of a job, JSON-ready.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSnapshot {
    /// Job id (dense, starting at 1).
    pub id: u64,
    /// `queued` | `running` | `done` | `failed`.
    pub state: String,
    /// Outcomes resolved so far.
    pub done: usize,
    /// Scenarios submitted.
    pub total: usize,
    /// Failure message, for `failed` jobs.
    pub error: Option<String>,
    /// `runs/run-NNNN` id the job was persisted under, once done.
    pub run_id: Option<String>,
    /// Non-fatal completion note (e.g. a persistence error, or that the
    /// job was recovered after a daemon restart).
    pub note: Option<String>,
}

struct Shared {
    engine: Arc<SweepEngine>,
    store: Option<RunStore>,
    jobs: Mutex<Vec<Arc<Job>>>,
    pending: Mutex<VecDeque<Arc<Job>>>,
    cv: Condvar,
    stop: Mutex<bool>,
    recovery: Mutex<RecoveryStats>,
    /// Makes the next drain panic, to test that a panicking job cannot
    /// take the worker down.
    #[cfg(test)]
    panic_next_drain: std::sync::atomic::AtomicBool,
}

/// The queue handle: submit from any connection thread, drain on the
/// background worker. Dropping the queue stops the worker after its
/// current job.
pub struct JobQueue {
    shared: Arc<Shared>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl JobQueue {
    /// A queue evaluating jobs on `engine`, persisting completed jobs
    /// into `store` (when given) as `runs/run-NNNN`. Opening a store
    /// scans it for journaled jobs interrupted by a crash (a `job.json`
    /// with no `merged.json` and no failure marker) and re-enqueues
    /// them ahead of new submissions.
    pub fn new(engine: Arc<SweepEngine>, store: Option<RunStore>) -> JobQueue {
        let mut jobs = Vec::new();
        let mut pending = VecDeque::new();
        if let Some(store) = &store {
            for run in interrupted_runs(store) {
                let total = run.manifest().map(|m| m.scenario_count).unwrap_or(0);
                let job = Arc::new(Job {
                    total,
                    scenarios: Vec::new(),
                    partial: Mutex::new(Vec::new()),
                    phase: Mutex::new(JobPhase::Queued),
                    run: Some(run),
                    recovered: true,
                    pre_note: None,
                });
                jobs.push(Arc::clone(&job));
                pending.push_back(job);
            }
        }
        let recovery = RecoveryStats {
            jobs_recovered: jobs.len() as u64,
            ..RecoveryStats::default()
        };
        let shared = Arc::new(Shared {
            engine,
            store,
            jobs: Mutex::new(jobs),
            pending: Mutex::new(pending),
            cv: Condvar::new(),
            stop: Mutex::new(false),
            recovery: Mutex::new(recovery),
            #[cfg(test)]
            panic_next_drain: std::sync::atomic::AtomicBool::new(false),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("daydream-serve-jobs".into())
            .spawn(move || worker_loop(worker_shared))
            .expect("spawn job worker");
        JobQueue {
            shared,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// Retries, lease reclaims and injected faults of the queue's
    /// journaled drains so far, and the jobs it re-enqueued from the
    /// store at startup.
    pub fn recovery(&self) -> RecoveryStats {
        *lock(&self.shared.recovery)
    }

    /// Enqueues a scenario list; returns the job id immediately. With a
    /// store configured the job is journaled into a `run-NNNN` before
    /// the id is returned, so an accepted job survives a daemon crash.
    /// If journaling itself fails the job still runs, degraded to
    /// in-memory only, and its completion note says so.
    pub fn submit(&self, scenarios: Vec<Scenario>) -> u64 {
        let (run, pre_note) = match &self.shared.store {
            Some(store) => match journal_job(store, &scenarios) {
                Ok(run) => (Some(run), None),
                Err(e) => (
                    None,
                    Some(format!(
                        "journaling failed ({e}); job will not survive a daemon restart"
                    )),
                ),
            },
            None => (None, None),
        };
        let mut jobs = lock(&self.shared.jobs);
        let id = jobs.len() as u64 + 1;
        let job = Arc::new(Job {
            total: scenarios.len(),
            scenarios,
            partial: Mutex::new(Vec::new()),
            phase: Mutex::new(JobPhase::Queued),
            run,
            recovered: false,
            pre_note,
        });
        jobs.push(Arc::clone(&job));
        drop(jobs);
        lock(&self.shared.pending).push_back(job);
        self.shared.cv.notify_one();
        id
    }

    fn job(&self, id: u64) -> Option<Arc<Job>> {
        let jobs = lock(&self.shared.jobs);
        if id == 0 || id as usize > jobs.len() {
            return None;
        }
        Some(Arc::clone(&jobs[id as usize - 1]))
    }

    /// Status of job `id`, if it exists.
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        let job = self.job(id)?;
        let phase = lock(&job.phase).clone();
        let done = lock(&job.partial).len();
        let (state, error, run_id, note) = match phase {
            JobPhase::Queued => ("queued", None, None, None),
            JobPhase::Running => ("running", None, None, None),
            JobPhase::Done { run_id, note } => ("done", None, run_id, note),
            JobPhase::Failed(e) => ("failed", Some(e), None, None),
        };
        Some(JobSnapshot {
            id,
            state: state.into(),
            done,
            total: job.total,
            error,
            run_id,
            note,
        })
    }

    /// The ranked report over job `id`'s outcomes so far, and whether it
    /// is final. While the job runs this is a *partial* ranking (only
    /// resolved scenarios appear); once done it is byte-identical to the
    /// offline sweep of the same scenario list.
    pub fn results(&self, id: u64) -> Option<(SweepReport, bool)> {
        let job = self.job(id)?;
        let outcomes = lock(&job.partial).clone();
        let is_final = matches!(&*lock(&job.phase), JobPhase::Done { .. });
        Some((SweepReport::from_outcomes(outcomes), is_final))
    }

    /// Counts of jobs by state: (queued, running, done, failed).
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let jobs = lock(&self.shared.jobs);
        let mut c = (0, 0, 0, 0);
        for job in jobs.iter() {
            match &*lock(&job.phase) {
                JobPhase::Queued => c.0 += 1,
                JobPhase::Running => c.1 += 1,
                JobPhase::Done { .. } => c.2 += 1,
                JobPhase::Failed(_) => c.3 += 1,
            }
        }
        c
    }

    /// Stops the worker after its current job and joins it. Queued but
    /// unstarted jobs stay `queued` (visible in their snapshots) — and,
    /// when journaled, are recovered by the next daemon.
    pub fn shutdown(&self) {
        *lock(&self.shared.stop) = true;
        self.shared.cv.notify_all();
        if let Some(handle) = lock(&self.worker).take() {
            handle.join().ok();
        }
    }
}

impl Drop for JobQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Journaled runs interrupted by a crash: `job.json` present, no merged
/// report, no failure marker. Listed in id order so recovery preserves
/// submission order.
fn interrupted_runs(store: &RunStore) -> Vec<RunDir> {
    let Ok(ids) = store.list() else {
        return Vec::new();
    };
    let mut runs = Vec::new();
    for id in ids {
        let Ok(run) = store.open_run(&id) else {
            continue;
        };
        if run.path().join("job.json").exists()
            && !run.merged_path().exists()
            && !run.path().join("job-failed.json").exists()
        {
            runs.push(run);
        }
    }
    runs
}

/// Plans a submitted grid into a fresh `run-NNNN` and writes its job
/// journal. After this returns, the job survives a daemon crash.
fn journal_job(store: &RunStore, scenarios: &[Scenario]) -> Result<RunDir, String> {
    let shards = scenarios
        .len()
        .div_ceil(SCENARIOS_PER_SHARD)
        .clamp(1, MAX_JOB_SHARDS);
    let plan = ShardPlan::partition(scenarios.to_vec(), shards)?;
    let run = store.create_run(&plan).map_err(|e| e.to_string())?;
    let journal = JobJournal {
        kind: "sweep".into(),
        submitted_unix_ms: daydream_shard::rundir::now_unix_ms(),
        scenario_count: scenarios.len(),
    };
    write_json_atomic(&run.path().join("job.json"), &journal, Step::Journal)
        .map_err(|e| e.to_string())?;
    Ok(run)
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut pending = lock(&shared.pending);
            loop {
                if *lock(&shared.stop) {
                    return;
                }
                if let Some(job) = pending.pop_front() {
                    break job;
                }
                pending = shared
                    .cv
                    .wait(pending)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        *lock(&job.phase) = JobPhase::Running;
        // A panicking drain fails its job like an error does; the worker
        // lives on to drain the jobs queued behind it.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if shared
                .panic_next_drain
                .swap(false, std::sync::atomic::Ordering::SeqCst)
            {
                panic!("injected drain panic");
            }
            match &job.run {
                Some(run) => drain_journaled(&shared, &job, run),
                None => drain_in_memory(&shared, &job),
            }
        }))
        .unwrap_or_else(|panic| Err(format!("job panicked: {}", panic_message(&*panic))));
        match outcome {
            Ok((run_id, note)) => {
                let note = match (&job.pre_note, note) {
                    (Some(pre), Some(n)) => Some(format!("{pre}; {n}")),
                    (Some(pre), None) => Some(pre.clone()),
                    (None, n) => n,
                };
                *lock(&job.phase) = JobPhase::Done { run_id, note };
            }
            Err(e) => {
                // Poison-mark a journaled failure so a restarted daemon
                // does not recover and re-fail it forever.
                if let Some(run) = &job.run {
                    let marker = JobFailure {
                        error: e.clone(),
                        failed_unix_ms: daydream_shard::rundir::now_unix_ms(),
                    };
                    write_json_atomic(&run.path().join("job-failed.json"), &marker, Step::Journal)
                        .ok();
                }
                *lock(&job.phase) = JobPhase::Failed(e);
            }
        }
    }
}

/// Locks one of the queue's tables, also after a panic poisoned it:
/// every guarded value is replaced or appended whole, so what a
/// panicking holder left is sound.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The message a panic was raised with.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Evaluates an unjournaled (store-less) job directly on the engine.
fn drain_in_memory(
    shared: &Shared,
    job: &Arc<Job>,
) -> Result<(Option<String>, Option<String>), String> {
    let streamed = |outcome: &ScenarioOutcome| {
        lock(&job.partial).push(outcome.clone());
    };
    let mut outcomes = shared
        .engine
        .run_scenarios_observed(job.scenarios.clone(), &streamed)?;
    // Normalize the cache provenance away, exactly like the distributed
    // merge does: the final report must be byte-identical to a cold
    // offline sweep of the same grid no matter what the resident engine
    // already knew.
    for o in &mut outcomes {
        o.cached = false;
    }
    *lock(&job.partial) = outcomes;
    Ok((None, None))
}

/// Drains a journaled job's run directory with a real shard-worker loop
/// (claim, evaluate, publish partials), then merges and persists. This
/// is the same protocol offline `sweep-worker` processes speak, so a
/// crash at any point leaves a run a restarted daemon can resume.
fn drain_journaled(
    shared: &Shared,
    job: &Arc<Job>,
    run: &RunDir,
) -> Result<(Option<String>, Option<String>), String> {
    if job.recovered {
        // The previous daemon is gone; its leases would otherwise pin
        // unfinished shards until the TTL expires. Completed shards are
        // preloaded so progress (and streamed partials) resume where the
        // dead daemon left off.
        let reclaimed = run.reclaim_worker("serve").map_err(|e| e.to_string())?;
        lock(&shared.recovery).reclaims += reclaimed.len() as u64;
        let manifest = run.manifest().map_err(|e| e.to_string())?;
        let mut preloaded = lock(&job.partial);
        for index in 0..manifest.shards {
            if let Ok(Some(result)) = run.partial(index) {
                for mut o in result.outcomes {
                    o.cached = false;
                    preloaded.push(o);
                }
            }
        }
    }
    let streamed = |outcome: &ScenarioOutcome| {
        let mut partial = lock(&job.partial);
        // A reclaim race can evaluate a shard twice; the stream keeps
        // set semantics by key.
        if !partial.iter().any(|o| o.key == outcome.key) {
            let mut o = outcome.clone();
            o.cached = false;
            partial.push(o);
        }
    };
    let cfg = WorkerConfig {
        worker_id: "serve".into(),
        ..WorkerConfig::default()
    };
    let summary = run_worker_observed(run, &shared.engine, &cfg, Some(&streamed))
        .map_err(|e| e.to_string())?;
    {
        let mut recovery = lock(&shared.recovery);
        recovery.retries += summary.retries;
        recovery.reclaims += summary.leases_reclaimed as u64;
        recovery.faults_injected += run.fault_injector().map(|i| i.fired()).unwrap_or(0);
    }
    let report = merge_run(run).map_err(|e| e.to_string())?;
    write_merged(run, &report).map_err(|e| e.to_string())?;
    let run_id = run
        .manifest()
        .map(|m| m.run_id)
        .map_err(|e| e.to_string())?;
    *lock(&job.partial) = report.results.clone();
    let note = job
        .recovered
        .then(|| "recovered after daemon restart".to_string());
    Ok((Some(run_id), note))
}

#[cfg(test)]
mod tests {
    use super::*;
    use daydream_sweep::SweepGrid;

    fn scenarios() -> Vec<Scenario> {
        SweepGrid::builder()
            .models(["ResNet-50"])
            .batches([4])
            .opts(["baseline", "amp", "gist", "bandwidth"])
            .build()
            .expand()
            .unwrap()
    }

    fn tmp_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "daydream-serve-jobs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn wait_done(queue: &JobQueue, id: u64) -> JobSnapshot {
        for _ in 0..600 {
            let snap = queue.snapshot(id).unwrap();
            if snap.state == "done" || snap.state == "failed" {
                return snap;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        panic!("job {id} did not finish");
    }

    #[test]
    fn job_runs_to_done_and_report_matches_offline() {
        let engine = Arc::new(SweepEngine::new(2));
        let queue = JobQueue::new(Arc::clone(&engine), None);
        let id = queue.submit(scenarios());
        assert_eq!(id, 1);
        let snap = wait_done(&queue, id);
        assert_eq!(snap.state, "done", "{snap:?}");
        assert_eq!(snap.done, snap.total);
        assert!(snap.run_id.is_none(), "no store configured");

        let (report, is_final) = queue.results(id).unwrap();
        assert!(is_final);
        let offline = SweepEngine::new(1)
            .run_scenarios(scenarios())
            .map(SweepReport::from_outcomes)
            .unwrap();
        assert_eq!(
            report.to_json().unwrap(),
            offline.to_json().unwrap(),
            "served report must be byte-identical to the offline sweep"
        );

        // A second submission of the same grid is answered from the
        // result cache — and still normalizes provenance.
        let id2 = queue.submit(scenarios());
        let snap2 = wait_done(&queue, id2);
        assert_eq!(snap2.state, "done");
        let (report2, _) = queue.results(id2).unwrap();
        assert_eq!(report2.to_json().unwrap(), offline.to_json().unwrap());

        assert_eq!(queue.counts(), (0, 0, 2, 0));
        assert!(queue.snapshot(0).is_none());
        assert!(queue.snapshot(99).is_none());
    }

    #[test]
    fn jobs_persist_into_the_run_store() {
        let root = tmp_store("persist");
        let store = RunStore::open(&root).unwrap();
        let engine = Arc::new(SweepEngine::new(2));
        let queue = JobQueue::new(engine, Some(store));
        assert_eq!(queue.recovery().jobs_recovered, 0);
        let id = queue.submit(scenarios());
        let snap = wait_done(&queue, id);
        assert_eq!(snap.state, "done", "{snap:?}");
        assert_eq!(snap.run_id.as_deref(), Some("run-0001"));
        assert!(snap.note.is_none(), "{snap:?}");

        // The persisted merged report equals the served one, and the
        // journal survives next to it (merged.json marks it finished).
        let store = RunStore::open(&root).unwrap();
        let run = store.open_run("run-0001").unwrap();
        assert!(run.path().join("job.json").exists());
        let merged = daydream_shard::load_merged(&run).unwrap().unwrap();
        let (report, _) = queue.results(id).unwrap();
        assert_eq!(merged.to_json().unwrap(), report.to_json().unwrap());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn failed_jobs_report_the_error() {
        let engine = Arc::new(SweepEngine::new(1));
        let queue = JobQueue::new(engine, None);
        // An unknown model passes grid-free submission but fails in the
        // engine at profile-build time.
        let bad = vec![Scenario::new(
            "NoSuchNet",
            4,
            daydream_sweep::OptSpec::Baseline,
        )];
        let id = queue.submit(bad);
        let snap = wait_done(&queue, id);
        assert_eq!(snap.state, "failed");
        assert!(
            snap.error
                .as_deref()
                .unwrap_or("")
                .contains("unknown model"),
            "{snap:?}"
        );
        assert_eq!(queue.counts(), (0, 0, 0, 1));
    }

    #[test]
    fn restart_recovers_an_interrupted_job_to_an_identical_report() {
        let root = tmp_store("recover");
        let store = RunStore::open(&root).unwrap();
        let engine = Arc::new(SweepEngine::new(2));

        // Fabricate exactly what a daemon killed mid-job leaves behind:
        // a journaled run with one shard completed and one still leased
        // by the dead daemon.
        let run = journal_job(&store, &scenarios()).unwrap();
        assert_eq!(run.manifest().unwrap().shards, 1);
        // Re-plan with 2 shards to exercise partial progress: make a
        // second journaled run shaped like a crashed multi-shard job.
        let plan = ShardPlan::partition(scenarios(), 2).unwrap();
        let run2 = store.create_run(&plan).unwrap();
        write_json_atomic(
            &run2.path().join("job.json"),
            &JobJournal {
                kind: "sweep".into(),
                submitted_unix_ms: 1,
                scenario_count: scenarios().len(),
            },
            Step::Journal,
        )
        .unwrap();
        let claim = run2.claim(0, "serve", 3_600_000).unwrap().unwrap();
        let outcomes = engine.run_scenarios(claim.scenarios.clone()).unwrap();
        run2.complete(&claim, outcomes).unwrap();
        // Shard 1: claimed by the dead daemon, never completed.
        run2.claim(1, "serve", 3_600_000).unwrap().unwrap();
        drop(run2);

        // "Restart": a fresh queue over the same store recovers both
        // journaled runs (ids 1 and 2, in run order) and drains them.
        let queue = JobQueue::new(Arc::clone(&engine), Some(store));
        assert_eq!(queue.recovery().jobs_recovered, 2);
        let snap1 = wait_done(&queue, 1);
        let snap2 = wait_done(&queue, 2);
        assert_eq!(snap1.state, "done", "{snap1:?}");
        assert_eq!(snap2.state, "done", "{snap2:?}");
        assert_eq!(snap1.run_id.as_deref(), Some("run-0001"));
        assert_eq!(snap2.run_id.as_deref(), Some("run-0002"));
        assert_eq!(
            snap2.note.as_deref(),
            Some("recovered after daemon restart")
        );
        assert_eq!(snap2.done, snap2.total);

        // Both resumed reports are byte-identical to the offline sweep.
        let offline = SweepEngine::new(1)
            .run_scenarios(scenarios())
            .map(SweepReport::from_outcomes)
            .unwrap();
        for id in [1, 2] {
            let (report, is_final) = queue.results(id).unwrap();
            assert!(is_final);
            assert_eq!(
                report.to_json().unwrap(),
                offline.to_json().unwrap(),
                "recovered job {id} must match the offline sweep"
            );
        }
        // Recovery is observable.
        let recovery = queue.recovery();
        assert_eq!(recovery.jobs_recovered, 2);
        assert!(recovery.reclaims >= 1, "dead daemon's lease");

        // A third queue over the same store finds nothing to recover:
        // both runs now have merged.json.
        queue.shutdown();
        let store = RunStore::open(&root).unwrap();
        let queue2 = JobQueue::new(engine, Some(store));
        assert_eq!(queue2.recovery().jobs_recovered, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_panicking_job_fails_and_the_worker_drains_the_next() {
        for journaled in [false, true] {
            let root = tmp_store(if journaled { "panic-j" } else { "panic" });
            let store = journaled.then(|| RunStore::open(&root).unwrap());
            let queue = JobQueue::new(Arc::new(SweepEngine::new(1)), store);
            queue
                .shared
                .panic_next_drain
                .store(true, std::sync::atomic::Ordering::SeqCst);
            let armed = queue.submit(scenarios());
            let next = queue.submit(scenarios());
            let snap = wait_done(&queue, armed);
            assert_eq!(snap.state, "failed", "{snap:?}");
            assert!(
                snap.error
                    .as_deref()
                    .unwrap_or("")
                    .contains("injected drain panic"),
                "{snap:?}"
            );
            assert_eq!(wait_done(&queue, next).state, "done");
            assert_eq!(queue.counts(), (0, 0, 1, 1));
            if journaled {
                let run = RunStore::open(&root).unwrap().open_run("run-0001").unwrap();
                assert!(run.path().join("job-failed.json").exists());
            }
            queue.shutdown();
            std::fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn poisoned_job_locks_keep_the_queue_answering() {
        let queue = JobQueue::new(Arc::new(SweepEngine::new(1)), None);
        let id = queue.submit(scenarios());
        assert_eq!(wait_done(&queue, id).state, "done");
        // A thread panics while it holds the job's partial results and
        // the jobs table, poisoning both locks.
        let job = queue.job(id).unwrap();
        std::thread::scope(|s| {
            let joined = s
                .spawn(|| {
                    let _partial = job.partial.lock().unwrap();
                    let _jobs = queue.shared.jobs.lock().unwrap();
                    panic!("poisoning the job locks");
                })
                .join();
            assert!(joined.is_err());
        });
        assert!(job.partial.is_poisoned() && queue.shared.jobs.is_poisoned());

        let snap = queue.snapshot(id).unwrap();
        assert_eq!((snap.state.as_str(), snap.done), ("done", snap.total));
        let (report, is_final) = queue.results(id).unwrap();
        assert!(is_final);
        assert_eq!(report.scenario_count, snap.total);
        assert_eq!(queue.counts(), (0, 0, 1, 0));
        let next = queue.submit(scenarios());
        assert_eq!(wait_done(&queue, next).state, "done");
        assert_eq!(queue.counts(), (0, 0, 2, 0));
    }

    #[test]
    fn failed_journaled_jobs_are_not_recovered_again() {
        let root = tmp_store("poison");
        let store = RunStore::open(&root).unwrap();
        let engine = Arc::new(SweepEngine::new(1));
        // A journaled run whose grid the engine cannot evaluate.
        let bad = vec![Scenario::new(
            "NoSuchNet",
            4,
            daydream_sweep::OptSpec::Baseline,
        )];
        let run = journal_job(&store, &bad).unwrap();
        let run_path = run.path().to_path_buf();
        drop(run);

        // First restart recovers it, fails it, and poison-marks it.
        let queue = JobQueue::new(Arc::clone(&engine), Some(RunStore::open(&root).unwrap()));
        assert_eq!(queue.recovery().jobs_recovered, 1);
        let snap = wait_done(&queue, 1);
        assert_eq!(snap.state, "failed", "{snap:?}");
        assert!(run_path.join("job-failed.json").exists());
        queue.shutdown();

        // Second restart skips the poisoned job.
        let queue2 = JobQueue::new(engine, Some(RunStore::open(&root).unwrap()));
        assert_eq!(queue2.recovery().jobs_recovered, 0);
        std::fs::remove_dir_all(&root).ok();
    }
}
