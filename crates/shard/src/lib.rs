//! `daydream-shard` — distributed sweep sharding over a shared
//! filesystem.
//!
//! `daydream-sweep` parallelizes a what-if grid across the threads of
//! one host; grids over the zoo x whatif catalog x parameter axes
//! outgrow that quickly. This crate turns a sweep into a multi-process
//! system with no coordinator and no network — processes cooperate
//! through a **run directory** on a shared filesystem:
//!
//! 1. [`ShardPlan`] — deterministically partitions a grid's expanded
//!    scenario list into N balanced shards by [`Scenario::fingerprint`]
//!    (content hashes, so the partition is reproducible everywhere).
//! 2. [`RunDir`] — the on-disk coordination protocol: a JSON manifest,
//!    `todo/` shard files, atomic claim-by-rename leases, per-shard
//!    partial-result files, and reclaim of abandoned leases.
//! 3. [`run_worker`] — the worker loop: claim a shard, evaluate it with
//!    a [`SweepEngine`], write the partial result, repeat until the run
//!    drains (reclaiming stale leases from crashed workers on the way).
//! 4. [`merge_run`] — unions the partial outcomes into a
//!    [`SweepReport`] byte-identical to the single-process sweep.
//! 5. [`RunStore`] / [`diff_runs`] — an append-only `runs/` history
//!    with per-run manifests and outcomes, plus diffing two runs for
//!    regression tracking of predicted times.
//! 6. [`ShardError`] / [`FaultPlan`] — a typed error taxonomy
//!    (retryable / reclaimable / fatal, each error naming the failed
//!    protocol step) and a deterministic fault-injection harness that
//!    can kill a worker at any protocol seam, tear writes, corrupt
//!    partials, steal leases, and skew clocks — the chaos tests drive
//!    seeded [`FaultPlan`]s through real drains and pin the merged
//!    report byte-identical to the fault-free run.
//!
//! # Examples
//!
//! ```
//! use daydream_shard::{merge_run, run_worker, RunDir, ShardPlan, WorkerConfig};
//! use daydream_sweep::{SweepEngine, SweepGrid};
//!
//! let grid = SweepGrid::builder()
//!     .models(["ResNet-50"])
//!     .batches([4])
//!     .opts(["baseline", "amp", "gist", "bandwidth"])
//!     .build();
//! let plan = ShardPlan::partition(grid.expand().unwrap(), 2).unwrap();
//!
//! let dir = std::env::temp_dir().join(format!("daydream-shard-doc-{}", std::process::id()));
//! let (run, created) = RunDir::init_or_open(&dir, "doc-run", &plan).unwrap();
//! assert!(created);
//!
//! // One in-process worker drains both shards; real deployments run
//! // `daydream sweep-worker` in many processes instead.
//! let engine = SweepEngine::new(2);
//! let summary = run_worker(&run, &engine, &WorkerConfig::default()).unwrap();
//! assert_eq!(summary.shards_completed, 2);
//!
//! let report = merge_run(&run).unwrap();
//! assert_eq!(report.scenario_count, 4);
//! std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! [`Scenario::fingerprint`]: daydream_sweep::Scenario::fingerprint
//! [`SweepEngine`]: daydream_sweep::SweepEngine
//! [`SweepReport`]: daydream_sweep::SweepReport

pub mod error;
pub mod faults;
pub mod merge;
pub mod plan;
pub mod rundir;
pub mod store;
pub mod worker;

pub use error::{with_retry, Recovery, RetryPolicy, ShardError, Step};
pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultPoint, ScheduledFault};
pub use merge::{load_merged, merge_run, merged_cache, write_merged};
pub use plan::ShardPlan;
pub use rundir::{
    write_json_atomic, ClaimedShard, RunDir, RunManifest, RunStatus, ShardLease, ShardResult,
};
pub use store::{diff_runs, BestEntry, DiffEntry, RunDiff, RunStore};
pub use worker::{
    process_shard, run_worker, run_worker_observed, ShardDisposition, WorkerConfig, WorkerSummary,
};
