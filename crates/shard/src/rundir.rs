//! The on-disk coordination protocol: a run directory that many worker
//! processes share with no coordinator and no network.
//!
//! ```text
//! <run>/
//!   manifest.json            run identity, shard count, grid fingerprint
//!   spec/shard-0003.json     pristine shard copy (never moved; requeue source)
//!   todo/shard-0003.json     unclaimed shard (its scenario list)
//!   leases/shard-0003.json   claimed shard (renamed here atomically)
//!   leases/shard-0003.lease  claim metadata: worker, claim time, TTL
//!   partial/shard-0003.json  completed shard's outcomes
//!   merged.json              union of all partials (written by merge)
//! ```
//!
//! Claiming is **rename-based**: a worker claims shard k by renaming
//! `todo/shard-k.json` into `leases/`. `rename(2)` of one source path is
//! atomic, so when two workers race, exactly one succeeds and the other
//! sees `NotFound` and moves on. Completion writes the partial result
//! via write-to-temp-then-rename, so readers never observe a truncated
//! file. A crashed worker leaves its lease behind; any worker may
//! reclaim a lease whose TTL has expired by renaming it back into
//! `todo/` (again atomic — one reclaimer wins). Because evaluation is
//! deterministic, the worst case of a reclaim race is the same shard
//! evaluated twice with identical results — scenarios are never lost.
//!
//! **Crash safety.** Every fallible operation returns a typed
//! [`ShardError`] classifying its recovery (retryable / reclaimable /
//! fatal). The `spec/` directory keeps an immutable copy of every
//! shard, so a shard whose working artifacts were corrupted (a torn
//! partial, a garbage lease file) can always be quarantined and
//! requeued from pristine state via [`RunDir::requeue_from_spec`] —
//! corruption costs a re-evaluation, never the run. A
//! [`FaultInjector`] attached with [`RunDir::with_faults`] simulates
//! crashes at each protocol seam deterministically for tests.

use daydream_sweep::report::ScenarioOutcome;
use daydream_sweep::Scenario;
use serde::{Deserialize, Serialize};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::{Recovery, ShardError, Step};
use crate::faults::{FaultInjector, FaultKind, FaultPoint};
use crate::plan::ShardPlan;

/// Manifest format version this crate reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// The run directory's JSON manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// On-disk format version, for forward-compatibility checks.
    pub format_version: u32,
    /// Caller-chosen run identifier (the run store uses `run-NNNN`).
    pub run_id: String,
    /// Unix milliseconds when the run was planned.
    pub created_unix_ms: u64,
    /// Number of shards in the plan.
    pub shards: usize,
    /// Total scenarios across all shards.
    pub scenario_count: usize,
    /// [`ShardPlan::grid_fingerprint_hex`] — identifies the grid so a
    /// second planner with a different grid is rejected.
    pub grid_fingerprint: String,
    /// Per-shard scenario counts, in shard order.
    pub shard_sizes: Vec<usize>,
}

/// One shard's scenario list (`spec/`, `todo/`, and `leases/` content).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardFile {
    /// Shard index within the plan.
    pub index: usize,
    /// The scenarios this shard evaluates.
    pub scenarios: Vec<Scenario>,
}

/// Claim metadata written next to a leased shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardLease {
    /// Shard index the lease covers.
    pub index: usize,
    /// Claiming worker's identifier.
    pub worker: String,
    /// Unix milliseconds when the shard was claimed.
    pub claimed_unix_ms: u64,
    /// Milliseconds after `claimed_unix_ms` at which any worker may
    /// treat this lease as abandoned and reclaim the shard.
    pub ttl_ms: u64,
}

impl ShardLease {
    /// Whether the lease had expired at `now_ms`.
    pub fn is_stale(&self, now_ms: u64) -> bool {
        now_ms >= self.claimed_unix_ms.saturating_add(self.ttl_ms)
    }
}

/// A completed shard's outcomes (`partial/` file content).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardResult {
    /// Shard index within the plan.
    pub index: usize,
    /// Worker that evaluated the shard.
    pub worker: String,
    /// One outcome per scenario, in shard order.
    pub outcomes: Vec<ScenarioOutcome>,
}

/// A successfully claimed shard, ready to evaluate.
#[derive(Debug, Clone)]
pub struct ClaimedShard {
    /// Shard index within the plan.
    pub index: usize,
    /// The scenarios to evaluate.
    pub scenarios: Vec<Scenario>,
    /// Worker id recorded in the lease.
    pub worker: String,
}

/// Counts of shard states, for progress reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStatus {
    /// Shards waiting in `todo/`.
    pub todo: usize,
    /// Shards currently leased (claimed, not yet completed).
    pub leased: usize,
    /// Shards with a partial result.
    pub done: usize,
    /// Shards counted in `done` whose lease is still held: the owner may
    /// still be writing the partial, or died before releasing the lease
    /// (reclaim releases it once stale). A partial is final only when
    /// its lease is gone.
    pub publishing: usize,
    /// Total shards in the manifest.
    pub shards: usize,
}

impl RunStatus {
    /// Whether every shard has a partial result.
    pub fn is_drained(&self) -> bool {
        self.done == self.shards
    }
}

/// Unix milliseconds now (the protocol's only clock).
pub fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Handle on an initialized run directory.
#[derive(Debug, Clone)]
pub struct RunDir {
    root: PathBuf,
    /// Deterministic fault injection for tests; `None` in production.
    faults: Option<Arc<FaultInjector>>,
}

impl RunDir {
    /// Initializes `root` from a plan, or opens it if another process
    /// already did. Initialization is atomic: the whole layout is staged
    /// in a sibling directory and renamed into place, so concurrent
    /// first invocations race safely (exactly one rename wins; losers
    /// open the winner's directory). Returns the handle and whether this
    /// call created the directory. Opening validates that the existing
    /// run covers the same grid (by fingerprint) and shard count.
    pub fn init_or_open(
        root: impl Into<PathBuf>,
        run_id: &str,
        plan: &ShardPlan,
    ) -> Result<(RunDir, bool), ShardError> {
        let root = root.into();
        if root.join("manifest.json").exists() {
            let run = RunDir::open(&root)?;
            run.validate_plan(plan)?;
            return Ok((run, false));
        }

        let staging = staging_path(&root)?;
        let build = || -> std::io::Result<()> {
            std::fs::create_dir_all(staging.join("spec"))?;
            std::fs::create_dir_all(staging.join("todo"))?;
            std::fs::create_dir_all(staging.join("leases"))?;
            std::fs::create_dir_all(staging.join("partial"))?;
            for index in 0..plan.shard_count() {
                let shard = ShardFile {
                    index,
                    scenarios: plan.shard(index).to_vec(),
                };
                let json = serde_json::to_string_pretty(&shard)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                // `spec/` is the immutable requeue source; `todo/` is the
                // working copy the claim protocol moves around.
                std::fs::write(staging.join("spec").join(shard_name(index)), &json)?;
                std::fs::write(staging.join("todo").join(shard_name(index)), &json)?;
            }
            let manifest = RunManifest {
                format_version: FORMAT_VERSION,
                run_id: run_id.to_string(),
                created_unix_ms: now_unix_ms(),
                shards: plan.shard_count(),
                scenario_count: plan.scenario_count(),
                grid_fingerprint: plan.grid_fingerprint_hex(),
                shard_sizes: plan.shard_sizes(),
            };
            std::fs::write(
                staging.join("manifest.json"),
                serde_json::to_string_pretty(&manifest)
                    .map_err(|e| std::io::Error::other(e.to_string()))?,
            )
        };
        if let Err(e) = build() {
            std::fs::remove_dir_all(&staging).ok();
            return Err(ShardError::retryable(
                Step::InitRun,
                format!("cannot stage run directory: {e}"),
            ));
        }
        if let Some(parent) = root.parent() {
            std::fs::create_dir_all(parent).map_err(|e| {
                ShardError::retryable(
                    Step::InitRun,
                    format!("cannot create {}: {e}", parent.display()),
                )
            })?;
        }
        match std::fs::rename(&staging, &root) {
            Ok(()) => Ok((RunDir { root, faults: None }, true)),
            Err(_) => {
                // Lost the init race (or `root` pre-existed non-empty):
                // discard our staging and open whatever won.
                std::fs::remove_dir_all(&staging).ok();
                let run = RunDir::open(&root)?;
                run.validate_plan(plan)?;
                Ok((run, false))
            }
        }
    }

    /// Opens an existing run directory (its manifest must parse).
    pub fn open(root: impl Into<PathBuf>) -> Result<RunDir, ShardError> {
        let run = RunDir {
            root: root.into(),
            faults: None,
        };
        let manifest = run.manifest()?;
        if manifest.format_version != FORMAT_VERSION {
            return Err(ShardError::fatal(
                Step::OpenRun,
                format!(
                    "run directory {} has format version {} (this build reads {FORMAT_VERSION})",
                    run.root.display(),
                    manifest.format_version
                ),
            ));
        }
        Ok(run)
    }

    /// Attaches a deterministic fault injector: every protocol seam this
    /// handle (and its clones) crosses consults the injector, and the
    /// protocol clock is skewed by the plan's `clock_skew_ms`.
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> RunDir {
        self.faults = Some(faults);
        self
    }

    /// The fault injector attached to this handle, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// The protocol clock this handle observes: wall time, skewed by the
    /// fault plan when an injector is attached (exercises lease-TTL math
    /// under disagreeing worker clocks).
    pub fn now_ms(&self) -> u64 {
        let now = now_unix_ms();
        match &self.faults {
            Some(inj) => {
                let skew = inj.skew_ms();
                if skew >= 0 {
                    now.saturating_add(skew as u64)
                } else {
                    now.saturating_sub(skew.unsigned_abs())
                }
            }
            None => now,
        }
    }

    /// The run directory path.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// Reads and parses the manifest.
    pub fn manifest(&self) -> Result<RunManifest, ShardError> {
        let path = self.root.join("manifest.json");
        let json = std::fs::read_to_string(&path).map_err(|e| {
            let recovery = if e.kind() == ErrorKind::NotFound {
                Recovery::Fatal
            } else {
                Recovery::Retryable
            };
            ShardError {
                step: Step::Manifest,
                recovery,
                shard: None,
                message: format!("cannot read {}: {e}", path.display()),
                injected: false,
            }
        })?;
        serde_json::from_str(&json).map_err(|e| {
            ShardError::fatal(
                Step::Manifest,
                format!("invalid manifest {}: {e}", path.display()),
            )
        })
    }

    fn validate_plan(&self, plan: &ShardPlan) -> Result<(), ShardError> {
        let manifest = self.manifest()?;
        if manifest.grid_fingerprint != plan.grid_fingerprint_hex()
            || manifest.shards != plan.shard_count()
        {
            return Err(ShardError::fatal(
                Step::OpenRun,
                format!(
                    "run directory {} was planned for a different sweep: manifest has {} shards \
                     over grid {}, this invocation has {} shards over grid {}",
                    self.root.display(),
                    manifest.shards,
                    manifest.grid_fingerprint,
                    plan.shard_count(),
                    plan.grid_fingerprint_hex()
                ),
            ));
        }
        Ok(())
    }

    fn spec_path(&self, index: usize) -> PathBuf {
        self.root.join("spec").join(shard_name(index))
    }

    fn todo_path(&self, index: usize) -> PathBuf {
        self.root.join("todo").join(shard_name(index))
    }

    fn lease_path(&self, index: usize) -> PathBuf {
        self.root.join("leases").join(shard_name(index))
    }

    fn lease_meta_path(&self, index: usize) -> PathBuf {
        self.root
            .join("leases")
            .join(format!("shard-{index:04}.lease"))
    }

    fn partial_path(&self, index: usize) -> PathBuf {
        self.root.join("partial").join(shard_name(index))
    }

    /// Path of the merged report, if written.
    pub fn merged_path(&self) -> PathBuf {
        self.root.join("merged.json")
    }

    /// Attempts to claim shard `index`: atomic rename `todo/ -> leases/`
    /// followed by writing the lease metadata. Returns `Ok(None)` when
    /// the shard is not in `todo/` (already claimed or completed), or
    /// when the claim was snatched back by a racing reclaimer before we
    /// could read it — a lost claim, never an error.
    pub fn claim(
        &self,
        index: usize,
        worker: &str,
        ttl_ms: u64,
    ) -> Result<Option<ClaimedShard>, ShardError> {
        let todo = self.todo_path(index);
        let lease = self.lease_path(index);
        if let Some(inj) = &self.faults {
            inj.maybe_kill(FaultPoint::ClaimRename, index)?;
        }
        match std::fs::rename(&todo, &lease) {
            Ok(()) => {}
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(ShardError::retryable(
                    Step::ClaimShard,
                    format!("cannot claim shard {index}: {e}"),
                )
                .with_shard(index))
            }
        }
        // A kill here leaves the lease renamed but no sidecar written —
        // the state the mtime-fallback reclaim path exists for.
        if let Some(inj) = &self.faults {
            inj.maybe_kill(FaultPoint::LeaseWrite, index)?;
        }
        // Refresh the lease file's mtime to the claim time: rename(2)
        // preserves the source mtime (the *planning* time), which would
        // make the sidecar-less staleness fallback in
        // [`RunDir::reclaim_stale`] treat every claim in a TTL-old run
        // as instantly abandoned.
        if let Ok(f) = std::fs::File::options().write(true).open(&lease) {
            f.set_modified(std::time::SystemTime::now()).ok();
        }
        let meta = ShardLease {
            index,
            worker: worker.to_string(),
            claimed_unix_ms: self.now_ms(),
            ttl_ms,
        };
        write_json_atomic(&self.lease_meta_path(index), &meta, Step::LeaseWrite)?;
        let json = match std::fs::read_to_string(&lease) {
            Ok(j) => j,
            // A reclaimer judged us dead and moved the shard back to
            // `todo/` between our rename and this read: the claim is
            // lost, not the run.
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(ShardError::retryable(
                    Step::ClaimShard,
                    format!("cannot read claimed shard {index}: {e}"),
                )
                .with_shard(index))
            }
        };
        let shard: ShardFile = serde_json::from_str(&json).map_err(|e| {
            // The working copy is corrupt; the pristine spec can requeue it.
            ShardError::reclaimable(
                Step::ClaimShard,
                format!("invalid shard file for shard {index}: {e}"),
            )
            .with_shard(index)
        })?;
        if shard.index != index {
            return Err(ShardError::reclaimable(
                Step::ClaimShard,
                format!(
                    "shard file {} claims index {} (corrupt run directory)",
                    lease.display(),
                    shard.index
                ),
            )
            .with_shard(index));
        }
        Ok(Some(ClaimedShard {
            index,
            scenarios: shard.scenarios,
            worker: worker.to_string(),
        }))
    }

    /// Renews a held lease: rewrites the sidecar with a fresh claim
    /// timestamp (and refreshes the lease file's mtime for the
    /// sidecar-less fallback). Workers heartbeat this during long
    /// evaluations so peers don't reclaim live work. A lease that was
    /// already reclaimed is left alone: rewriting its sidecar would
    /// clobber the next owner's claim.
    pub fn renew(&self, index: usize, worker: &str, ttl_ms: u64) -> Result<(), ShardError> {
        if !self.holds_lease(index, worker) {
            return Ok(());
        }
        let meta = ShardLease {
            index,
            worker: worker.to_string(),
            claimed_unix_ms: self.now_ms(),
            ttl_ms,
        };
        write_json_atomic(&self.lease_meta_path(index), &meta, Step::LeaseWrite)?;
        if let Ok(f) = std::fs::File::options()
            .write(true)
            .open(self.lease_path(index))
        {
            f.set_modified(std::time::SystemTime::now()).ok();
        }
        Ok(())
    }

    /// Claims the lowest-indexed shard still in `todo/`, if any.
    pub fn claim_any(&self, worker: &str, ttl_ms: u64) -> Result<Option<ClaimedShard>, ShardError> {
        for index in self.indices_in("todo")? {
            if let Some(claim) = self.claim(index, worker, ttl_ms)? {
                return Ok(Some(claim));
            }
        }
        Ok(None)
    }

    /// Completes a claimed shard: atomically writes the partial result,
    /// then releases the lease. Write-then-release ordering means a
    /// crash can only lose the *lease* (later reclaimed), never the
    /// result. Only the lease holder publishes: a worker whose lease was
    /// reclaimed or stolen mid-evaluation drops its result (the shard is
    /// back in `todo/` or with a peer), so no partial changes after its
    /// lease is gone and a drain that waited for every lease is final.
    pub fn complete(
        &self,
        claim: &ClaimedShard,
        outcomes: Vec<ScenarioOutcome>,
    ) -> Result<(), ShardError> {
        if outcomes.len() != claim.scenarios.len() {
            return Err(ShardError::fatal(
                Step::Evaluate,
                format!(
                    "shard {}: {} outcomes for {} scenarios",
                    claim.index,
                    outcomes.len(),
                    claim.scenarios.len()
                ),
            )
            .with_shard(claim.index));
        }
        if !self.holds_lease(claim.index, &claim.worker) {
            return Ok(());
        }
        let result = ShardResult {
            index: claim.index,
            worker: claim.worker.clone(),
            outcomes,
        };
        let partial = self.partial_path(claim.index);
        if let Some(inj) = &self.faults {
            match inj.take(FaultPoint::PartialWrite) {
                Some(FaultKind::Kill) => {
                    return Err(ShardError::injected_kill(Step::PartialWrite, claim.index))
                }
                Some(FaultKind::TornWrite) => {
                    // The write-tmp-then-rename tears: half the JSON
                    // lands in the tmp file, the rename never happens,
                    // the worker dies. The published state is untouched;
                    // the orphan tmp is swept by `reclaim_stale`.
                    if let Ok(json) = serde_json::to_string_pretty(&result) {
                        let tmp = tmp_path(&partial);
                        std::fs::write(&tmp, &json.as_bytes()[..json.len() / 2]).ok();
                    }
                    return Err(ShardError::injected_kill(Step::PartialWrite, claim.index));
                }
                _ => {}
            }
        }
        write_json_atomic(&partial, &result, Step::PartialWrite)
            .map_err(|e| e.with_shard(claim.index))?;
        if let Some(inj) = &self.faults {
            match inj.take(FaultPoint::PartialPublish) {
                Some(FaultKind::CorruptPartial) => {
                    // Bit rot after publish: flip a byte run in the
                    // middle of the file, then die.
                    if let Ok(mut bytes) = std::fs::read(&partial) {
                        let mid = bytes.len() / 2;
                        for b in bytes.iter_mut().skip(mid).take(16) {
                            *b ^= 0xff;
                        }
                        std::fs::write(&partial, bytes).ok();
                    }
                    return Err(ShardError::injected_kill(Step::PartialWrite, claim.index));
                }
                Some(FaultKind::TruncatePartial) => {
                    // Torn page after publish: cut the file in half,
                    // then die.
                    if let Ok(f) = std::fs::File::options().write(true).open(&partial) {
                        let len = f.metadata().map(|m| m.len()).unwrap_or(0);
                        f.set_len(len / 2).ok();
                    }
                    return Err(ShardError::injected_kill(Step::PartialWrite, claim.index));
                }
                Some(FaultKind::Kill) => {
                    // Died after publishing, before releasing the lease.
                    return Err(ShardError::injected_kill(Step::PartialWrite, claim.index));
                }
                _ => {}
            }
            inj.maybe_kill(FaultPoint::LeaseRelease, claim.index)?;
        }
        // Best-effort release; a leftover lease next to a partial is
        // treated as completed by every reader.
        std::fs::remove_file(self.lease_meta_path(claim.index)).ok();
        std::fs::remove_file(self.lease_path(claim.index)).ok();
        Ok(())
    }

    /// Whether `worker` still holds shard `index`'s lease. An unreadable
    /// sidecar cannot say otherwise, so it counts as held.
    fn holds_lease(&self, index: usize, worker: &str) -> bool {
        self.lease_path(index).exists()
            && match self.lease(index) {
                Ok(Some(meta)) => meta.worker == worker,
                Ok(None) => false,
                Err(_) => true,
            }
    }

    /// Reads shard `index`'s partial result, if completed. A partial
    /// that exists but does not parse is a [`Recovery::Reclaimable`]
    /// error — [`RunDir::requeue_from_spec`] quarantines it and requeues
    /// the shard.
    pub fn partial(&self, index: usize) -> Result<Option<ShardResult>, ShardError> {
        let path = self.partial_path(index);
        let json = match std::fs::read_to_string(&path) {
            Ok(j) => j,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            // Corruption can break the UTF-8 itself, not just the JSON:
            // still a reclaimable artifact, not a transient IO failure.
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                return Err(ShardError::reclaimable(
                    Step::PartialRead,
                    format!("invalid partial result {}: {e}", path.display()),
                )
                .with_shard(index))
            }
            Err(e) => {
                return Err(ShardError::retryable(
                    Step::PartialRead,
                    format!("cannot read {}: {e}", path.display()),
                )
                .with_shard(index))
            }
        };
        let result: ShardResult = serde_json::from_str(&json).map_err(|e| {
            ShardError::reclaimable(
                Step::PartialRead,
                format!("invalid partial result {}: {e}", path.display()),
            )
            .with_shard(index)
        })?;
        if result.index != index {
            return Err(ShardError::reclaimable(
                Step::PartialRead,
                format!("partial {} claims index {}", path.display(), result.index),
            )
            .with_shard(index));
        }
        Ok(Some(result))
    }

    /// Reads shard `index`'s lease metadata, if present.
    pub fn lease(&self, index: usize) -> Result<Option<ShardLease>, ShardError> {
        let path = self.lease_meta_path(index);
        let json = match std::fs::read_to_string(&path) {
            Ok(j) => j,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(ShardError::retryable(
                    Step::LeaseRead,
                    format!("cannot read {}: {e}", path.display()),
                )
                .with_shard(index))
            }
        };
        serde_json::from_str(&json).map(Some).map_err(|e| {
            // A torn sidecar is metadata, not work: treat the lease as
            // sidecar-less (mtime fallback) by reporting it reclaimable.
            ShardError::reclaimable(
                Step::LeaseRead,
                format!("invalid lease {}: {e}", path.display()),
            )
            .with_shard(index)
        })
    }

    /// Returns abandoned leases to `todo/`. A lease is abandoned when
    /// its shard has no partial result and either its metadata's TTL
    /// expired, or its metadata is missing or unparseable (a worker died
    /// during the sidecar write) and the lease file's mtime is older
    /// than `default_ttl_ms`. The metadata is removed *before* the
    /// rename so a re-claimer's fresh lease is never deleted by a stale
    /// reclaimer. An expired lease whose shard *has* a partial is only
    /// released, not requeued. Orphaned `*.tmp.*` files older than
    /// `default_ttl_ms` (torn partial writes) are swept. Returns the
    /// reclaimed indices.
    pub fn reclaim_stale(
        &self,
        now_ms: u64,
        default_ttl_ms: u64,
    ) -> Result<Vec<usize>, ShardError> {
        let mut reclaimed = Vec::new();
        for index in self.indices_in("leases")? {
            if let Some(inj) = &self.faults {
                inj.maybe_kill(FaultPoint::Reclaim, index)?;
            }
            let stale = match self.lease(index) {
                Ok(Some(meta)) => meta.is_stale(now_ms),
                // Missing or torn sidecar: fall back to the lease file's
                // mtime against the default TTL.
                Ok(None) | Err(_) => std::fs::metadata(self.lease_path(index))
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                    .map(|d| now_ms >= (d.as_millis() as u64).saturating_add(default_ttl_ms))
                    .unwrap_or(false),
            };
            if !stale {
                continue;
            }
            std::fs::remove_file(self.lease_meta_path(index)).ok();
            if self.partial_path(index).exists() {
                // Completed, but the owner died before releasing the
                // lease: finish the release instead of re-queuing done
                // work. Only once stale — until then the owner may still
                // be writing the partial.
                std::fs::remove_file(self.lease_path(index)).ok();
                continue;
            }
            match std::fs::rename(self.lease_path(index), self.todo_path(index)) {
                Ok(()) => reclaimed.push(index),
                // Another reclaimer won, or the owner completed after
                // our staleness check; both are fine.
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(ShardError::retryable(
                        Step::Reclaim,
                        format!("cannot reclaim shard {index}: {e}"),
                    )
                    .with_shard(index))
                }
            }
        }
        self.sweep_orphan_tmps(now_ms, default_ttl_ms);
        Ok(reclaimed)
    }

    /// Force-reclaims every lease held by `worker_id`, regardless of
    /// TTL. For an owner that *knows* it died (a restarted daemon
    /// recovering its own journaled jobs): completed shards get their
    /// dangling lease released, unfinished ones return to `todo/`.
    pub fn reclaim_worker(&self, worker_id: &str) -> Result<Vec<usize>, ShardError> {
        let mut reclaimed = Vec::new();
        for index in self.indices_in("leases")? {
            let owned = match self.lease(index) {
                Ok(Some(meta)) => meta.worker == worker_id,
                // No/torn sidecar: the owner is unknowable; a
                // self-reclaiming owner treats it as its own residue.
                Ok(None) | Err(_) => true,
            };
            if !owned {
                continue;
            }
            std::fs::remove_file(self.lease_meta_path(index)).ok();
            if self.partial_path(index).exists() {
                std::fs::remove_file(self.lease_path(index)).ok();
                continue;
            }
            match std::fs::rename(self.lease_path(index), self.todo_path(index)) {
                Ok(()) => reclaimed.push(index),
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(ShardError::retryable(
                        Step::Reclaim,
                        format!("cannot reclaim shard {index}: {e}"),
                    )
                    .with_shard(index))
                }
            }
        }
        Ok(reclaimed)
    }

    /// Quarantines shard `index`'s corrupt working artifacts and
    /// requeues the shard from its pristine `spec/` copy. Returns
    /// `Ok(false)` when a healthy partial already exists (nothing to
    /// recover), `Ok(true)` after a requeue. Safe against racing
    /// recoverers: the requeue is a tmp-then-rename of identical
    /// content, and duplicate evaluation is harmless by determinism.
    pub fn requeue_from_spec(&self, index: usize) -> Result<bool, ShardError> {
        match self.partial(index) {
            Ok(Some(_)) => return Ok(false),
            Ok(None) => {}
            // Corrupt partial: quarantine it (post-mortem evidence),
            // then fall through to the requeue.
            Err(e) if e.recovery == Recovery::Reclaimable => {
                quarantine(&self.partial_path(index));
            }
            Err(e) => return Err(e),
        }
        // Clear lease residue (a corrupt working copy may sit in
        // `leases/` after a failed claim read).
        std::fs::remove_file(self.lease_meta_path(index)).ok();
        std::fs::remove_file(self.lease_path(index)).ok();
        // Pristine spec -> tmp -> rename into todo/. Overwriting an
        // existing todo entry is fine: the content is identical.
        let spec = self.spec_path(index);
        let json = std::fs::read(&spec).map_err(|e| {
            ShardError::fatal(
                Step::Requeue,
                format!("cannot requeue shard {index}: spec unreadable ({e})"),
            )
            .with_shard(index)
        })?;
        let tmp = tmp_path(&self.todo_path(index));
        let publish = || -> std::io::Result<()> {
            std::fs::write(&tmp, &json)?;
            std::fs::rename(&tmp, self.todo_path(index))
        };
        publish().map_err(|e| {
            ShardError::retryable(Step::Requeue, format!("cannot requeue shard {index}: {e}"))
                .with_shard(index)
        })?;
        Ok(true)
    }

    /// Verifies every published partial parses and matches the manifest
    /// (index and outcome count). Returns the corrupt shard indices —
    /// candidates for [`RunDir::requeue_from_spec`]. A drained run with
    /// an empty result is safe to merge.
    pub fn verify_partials(&self) -> Result<Vec<usize>, ShardError> {
        let manifest = self.manifest()?;
        let mut corrupt = Vec::new();
        for index in 0..manifest.shards {
            match self.partial(index) {
                Ok(Some(result)) => {
                    if result.outcomes.len() != manifest.shard_sizes[index] {
                        corrupt.push(index);
                    }
                }
                Ok(None) => {}
                Err(e) if e.recovery == Recovery::Reclaimable => corrupt.push(index),
                Err(e) => return Err(e),
            }
        }
        Ok(corrupt)
    }

    /// Counts shards by state.
    pub fn status(&self) -> Result<RunStatus, ShardError> {
        let manifest = self.manifest()?;
        let mut status = RunStatus {
            shards: manifest.shards,
            ..RunStatus::default()
        };
        for index in 0..manifest.shards {
            if self.partial_path(index).exists() {
                status.done += 1;
                if self.lease_path(index).exists() {
                    status.publishing += 1;
                }
            } else if self.lease_path(index).exists() {
                status.leased += 1;
            } else if self.todo_path(index).exists() {
                status.todo += 1;
            }
        }
        Ok(status)
    }

    /// Simulates a racing reclaimer stealing shard `index`'s lease out
    /// from under its owner: the sidecar is dropped and the lease file
    /// returns to `todo/`. Used by the fault-injection harness (the
    /// [`FaultKind::StealLease`] kind); the victim worker keeps
    /// evaluating, and [`RunDir::complete`] then drops its result
    /// because the lease is gone.
    pub fn steal_lease(&self, index: usize) {
        std::fs::remove_file(self.lease_meta_path(index)).ok();
        std::fs::rename(self.lease_path(index), self.todo_path(index)).ok();
    }

    /// Removes orphaned `*.tmp.*` files (torn atomic writes) older than
    /// `ttl_ms`. Best-effort hygiene: a torn tmp is invisible to the
    /// protocol either way.
    fn sweep_orphan_tmps(&self, now_ms: u64, ttl_ms: u64) {
        let Ok(entries) = std::fs::read_dir(self.root.join("partial")) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            if !name.to_string_lossy().contains(".tmp.") {
                continue;
            }
            let old = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map(|d| now_ms >= (d.as_millis() as u64).saturating_add(ttl_ms))
                .unwrap_or(false);
            if old {
                std::fs::remove_file(entry.path()).ok();
            }
        }
    }

    /// Shard indices currently present in a state subdirectory, sorted.
    fn indices_in(&self, state: &str) -> Result<Vec<usize>, ShardError> {
        let dir = self.root.join(state);
        let entries = std::fs::read_dir(&dir).map_err(|e| {
            let recovery = if e.kind() == ErrorKind::NotFound {
                Recovery::Fatal
            } else {
                Recovery::Retryable
            };
            ShardError {
                step: Step::ListRun,
                recovery,
                shard: None,
                message: format!("cannot list {}: {e}", dir.display()),
                injected: false,
            }
        })?;
        let mut indices = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| {
                ShardError::retryable(Step::ListRun, format!("cannot list {}: {e}", dir.display()))
            })?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(idx) = name
                .strip_prefix("shard-")
                .and_then(|r| r.strip_suffix(".json"))
                .and_then(|n| n.parse::<usize>().ok())
            {
                indices.push(idx);
            }
        }
        indices.sort_unstable();
        Ok(indices)
    }
}

fn shard_name(index: usize) -> String {
    format!("shard-{index:04}.json")
}

/// Moves a corrupt artifact aside (post-mortem evidence) instead of
/// deleting it. The `.corrupt-N` suffix keeps it invisible to the
/// protocol's `shard-*.json` globs. Best-effort: a racing recoverer may
/// have moved it first.
fn quarantine(path: &Path) {
    static QUARANTINE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = QUARANTINE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let Some(name) = path.file_name() else { return };
    let target = path.with_file_name(format!(
        "{}.corrupt-{}-{seq}",
        name.to_string_lossy(),
        std::process::id()
    ));
    std::fs::rename(path, target).ok();
}

fn staging_path(root: &Path) -> Result<PathBuf, ShardError> {
    // Unique per call, not just per process: two threads initializing
    // the same root (e.g. concurrent `RunStore::create_run`) must not
    // interleave writes in a shared staging directory.
    static STAGING_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = STAGING_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let name = root
        .file_name()
        .ok_or_else(|| {
            ShardError::fatal(
                Step::InitRun,
                format!("run directory path {} has no name", root.display()),
            )
        })?
        .to_string_lossy();
    Ok(root.with_file_name(format!(".{name}.init-{}-{seq}", std::process::id())))
}

/// A staging name for an atomic write of `path`, unique per call: two
/// writers of one file (say, two worker threads requeueing the same
/// corrupt shard) must not publish or consume each other's temp file.
fn tmp_path(path: &Path) -> PathBuf {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    path.with_extension(format!("tmp.{}.{seq}", std::process::id()))
}

/// Write-to-temp-then-rename, so concurrent readers and a crash mid-write
/// never observe a truncated JSON file. `step` names the protocol step
/// in the error when the write fails.
pub fn write_json_atomic<T: Serialize>(
    path: &Path,
    value: &T,
    step: Step,
) -> Result<(), ShardError> {
    let json =
        serde_json::to_string_pretty(value).map_err(|e| ShardError::fatal(step, e.to_string()))?;
    let tmp = tmp_path(path);
    std::fs::write(&tmp, json)
        .map_err(|e| ShardError::retryable(step, format!("cannot write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| ShardError::retryable(step, format!("cannot publish {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use daydream_sweep::SweepGrid;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "daydream-rundir-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn plan(shards: usize) -> ShardPlan {
        ShardPlan::partition(SweepGrid::default().expand().unwrap(), shards).unwrap()
    }

    fn outcome_stub(s: &Scenario) -> ScenarioOutcome {
        ScenarioOutcome {
            key: s.fingerprint_hex(),
            label: s.label(),
            model: s.model.clone(),
            batch: s.batch,
            opt: s.opt.label(),
            baseline_ns: 100,
            predicted_ns: 90,
            speedup: 100.0 / 90.0,
            memory_bytes: 1,
            comm_bytes: 0,
            sim_path: "incremental".into(),
            tasks_redispatched: 5,
            cached: false,
        }
    }

    #[test]
    fn init_claim_complete_drain() {
        let root = tmp_dir("lifecycle");
        let p = plan(3);
        let (run, created) = RunDir::init_or_open(&root, "t", &p).unwrap();
        assert!(created);
        let manifest = run.manifest().unwrap();
        assert_eq!(manifest.shards, 3);
        assert_eq!(manifest.scenario_count, p.scenario_count());
        assert_eq!(manifest.grid_fingerprint, p.grid_fingerprint_hex());
        assert_eq!(run.status().unwrap().todo, 3);

        // Second init of the same plan opens instead of re-planning.
        let (_, created_again) = RunDir::init_or_open(&root, "t", &p).unwrap();
        assert!(!created_again);

        // Claim all three; a fourth claim finds nothing.
        let mut claims = Vec::new();
        for _ in 0..3 {
            claims.push(run.claim_any("w0", 60_000).unwrap().unwrap());
        }
        assert!(run.claim_any("w0", 60_000).unwrap().is_none());
        assert_eq!(run.status().unwrap().leased, 3);

        // A claimed shard cannot be claimed again by index either.
        assert!(run.claim(claims[0].index, "w1", 60_000).unwrap().is_none());

        for claim in &claims {
            let outcomes = claim.scenarios.iter().map(outcome_stub).collect();
            run.complete(claim, outcomes).unwrap();
        }
        let status = run.status().unwrap();
        assert!(status.is_drained(), "{status:?}");
        assert_eq!(run.partial(0).unwrap().unwrap().worker, "w0");
        assert!(run.verify_partials().unwrap().is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn init_rejects_a_different_grid() {
        let root = tmp_dir("mismatch");
        let p = plan(2);
        RunDir::init_or_open(&root, "t", &p).unwrap();
        let other = ShardPlan::partition(
            SweepGrid::builder()
                .models(["ResNet-50"])
                .batches([4])
                .opts(["amp"])
                .build()
                .expand()
                .unwrap(),
            2,
        )
        .unwrap();
        let err = RunDir::init_or_open(&root, "t", &other).unwrap_err();
        assert_eq!(err.recovery, Recovery::Fatal);
        assert!(err.message.contains("different sweep"), "got: {err}");
        // Same grid, different shard count is a mismatch too.
        let err = RunDir::init_or_open(&root, "t", &plan(4)).unwrap_err();
        assert!(err.message.contains("different sweep"), "got: {err}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stale_leases_are_reclaimed_fresh_ones_kept() {
        let root = tmp_dir("reclaim");
        let (run, _) = RunDir::init_or_open(&root, "t", &plan(2)).unwrap();

        // Shard 0: stale lease (TTL expired long ago). Shard 1: fresh.
        let dead = run.claim(0, "dead-worker", 10).unwrap().unwrap();
        let meta = ShardLease {
            index: 0,
            worker: "dead-worker".into(),
            claimed_unix_ms: 0,
            ttl_ms: 10,
        };
        write_json_atomic(&run.lease_meta_path(0), &meta, Step::LeaseWrite).unwrap();
        run.claim(1, "live-worker", 3_600_000).unwrap().unwrap();

        let reclaimed = run.reclaim_stale(now_unix_ms(), 60_000).unwrap();
        assert_eq!(reclaimed, vec![0]);
        assert_eq!(run.status().unwrap().todo, 1);
        assert_eq!(run.status().unwrap().leased, 1);

        // The reclaimed shard is claimable again and completes normally.
        let again = run.claim(0, "w2", 60_000).unwrap().unwrap();
        assert_eq!(again.scenarios, dead.scenarios);
        let outcomes = again.scenarios.iter().map(outcome_stub).collect();
        run.complete(&again, outcomes).unwrap();
        assert!(run.partial(0).unwrap().is_some());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reclaim_with_missing_lease_metadata_uses_mtime() {
        let root = tmp_dir("no-meta");
        let (run, _) = RunDir::init_or_open(&root, "t", &plan(1)).unwrap();
        run.claim(0, "w0", 60_000).unwrap().unwrap();
        // Simulate a crash between the claim rename and the metadata
        // write: no `.lease` sidecar exists.
        std::fs::remove_file(run.lease_meta_path(0)).unwrap();
        // With a generous default TTL the fresh file is kept...
        assert!(run
            .reclaim_stale(now_unix_ms(), 3_600_000)
            .unwrap()
            .is_empty());
        // ...with TTL 0 it is immediately reclaimable.
        assert_eq!(run.reclaim_stale(now_unix_ms(), 0).unwrap(), vec![0]);
        assert_eq!(run.status().unwrap().todo, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn claim_refreshes_mtime_so_old_runs_do_not_false_reclaim() {
        let root = tmp_dir("mtime-refresh");
        let (run, _) = RunDir::init_or_open(&root, "t", &plan(1)).unwrap();
        // Backdate the planned shard file: the run is "old" relative to
        // any TTL (rename preserves mtime, so without the refresh a
        // fresh claim would inherit this ancient timestamp).
        let f = std::fs::File::options()
            .write(true)
            .open(run.todo_path(0))
            .unwrap();
        f.set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_secs(1))
            .unwrap();
        drop(f);
        run.claim(0, "w0", 60_000).unwrap().unwrap();
        // Crash before the sidecar write: staleness falls back to mtime,
        // which must now reflect the *claim* time, not the plan time.
        std::fs::remove_file(run.lease_meta_path(0)).unwrap();
        assert!(
            run.reclaim_stale(now_unix_ms(), 60_000).unwrap().is_empty(),
            "a just-claimed shard in an old run must not be reclaimed"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn renew_extends_a_lease() {
        let root = tmp_dir("renew");
        let (run, _) = RunDir::init_or_open(&root, "t", &plan(1)).unwrap();
        run.claim(0, "w0", 1_000).unwrap().unwrap();
        // Backdate the sidecar so the lease reads as expired...
        let stale = ShardLease {
            index: 0,
            worker: "w0".into(),
            claimed_unix_ms: 0,
            ttl_ms: 1_000,
        };
        write_json_atomic(&run.lease_meta_path(0), &stale, Step::LeaseWrite).unwrap();
        // ...then renew: the lease is fresh again and survives reclaim.
        run.renew(0, "w0", 1_000).unwrap();
        let lease = run.lease(0).unwrap().unwrap();
        assert!(!lease.is_stale(now_unix_ms()));
        assert!(run.reclaim_stale(now_unix_ms(), 1_000).unwrap().is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reclaim_releases_leases_of_completed_shards() {
        let root = tmp_dir("done-lease");
        let (run, _) = RunDir::init_or_open(&root, "t", &plan(1)).unwrap();
        let claim = run.claim(0, "w0", 10).unwrap().unwrap();
        let outcomes: Vec<ScenarioOutcome> = claim.scenarios.iter().map(outcome_stub).collect();
        // Write the partial but "crash" before releasing the lease.
        let result = ShardResult {
            index: 0,
            worker: "w0".into(),
            outcomes,
        };
        write_json_atomic(&run.partial_path(0), &result, Step::PartialWrite).unwrap();
        let reclaimed = run.reclaim_stale(now_unix_ms() + 1_000_000, 0).unwrap();
        assert!(reclaimed.is_empty(), "done work is not re-queued");
        assert!(!run.lease_path(0).exists(), "orphaned lease is released");
        assert!(run.status().unwrap().is_drained());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_partial_is_reclaimable_and_requeues_from_spec() {
        let root = tmp_dir("requeue");
        let (run, _) = RunDir::init_or_open(&root, "t", &plan(1)).unwrap();
        let claim = run.claim(0, "w0", 60_000).unwrap().unwrap();
        let scenarios = claim.scenarios.clone();
        let outcomes = claim.scenarios.iter().map(outcome_stub).collect();
        run.complete(&claim, outcomes).unwrap();

        // Truncate the published partial: the read is Reclaimable and
        // names the shard and step.
        let bytes = std::fs::read(run.partial_path(0)).unwrap();
        std::fs::write(run.partial_path(0), &bytes[..bytes.len() / 2]).unwrap();
        let err = run.partial(0).unwrap_err();
        assert_eq!(err.recovery, Recovery::Reclaimable);
        assert_eq!(err.step, Step::PartialRead);
        assert_eq!(err.shard, Some(0));
        assert_eq!(run.verify_partials().unwrap(), vec![0]);

        // Requeue from spec: quarantined partial, shard back in todo/
        // with pristine scenarios, and the re-run completes cleanly.
        assert!(run.requeue_from_spec(0).unwrap());
        assert_eq!(run.status().unwrap().todo, 1);
        let again = run.claim(0, "w1", 60_000).unwrap().unwrap();
        assert_eq!(again.scenarios, scenarios);
        let outcomes = again.scenarios.iter().map(outcome_stub).collect();
        run.complete(&again, outcomes).unwrap();
        assert!(run.verify_partials().unwrap().is_empty());
        // The corrupt artifact was kept for post-mortem, out of the
        // protocol's sight.
        let quarantined = std::fs::read_dir(root.join("partial"))
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".corrupt-"))
            .count();
        assert_eq!(quarantined, 1);
        // A healthy shard is left alone.
        assert!(!run.requeue_from_spec(0).unwrap());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reclaim_worker_takes_only_that_workers_leases() {
        let root = tmp_dir("reclaim-worker");
        let (run, _) = RunDir::init_or_open(&root, "t", &plan(3)).unwrap();
        let c0 = run.claim(0, "serve", 3_600_000).unwrap().unwrap();
        run.claim(1, "other", 3_600_000).unwrap().unwrap();
        let c2 = run.claim(2, "serve", 3_600_000).unwrap().unwrap();
        // Shard 2 completed but its lease release was lost.
        let result = ShardResult {
            index: 2,
            worker: "serve".into(),
            outcomes: c2.scenarios.iter().map(outcome_stub).collect(),
        };
        write_json_atomic(&run.partial_path(2), &result, Step::PartialWrite).unwrap();

        let reclaimed = run.reclaim_worker("serve").unwrap();
        assert_eq!(reclaimed, vec![0], "completed shard released, not requeued");
        let status = run.status().unwrap();
        assert_eq!((status.todo, status.leased, status.done), (1, 1, 1));
        // The requeued shard is claimable with identical scenarios.
        let again = run.claim(0, "serve", 3_600_000).unwrap().unwrap();
        assert_eq!(again.scenarios, c0.scenarios);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn injected_kill_between_claim_and_sidecar_is_recoverable() {
        let root = tmp_dir("fault-lease-write");
        let (run, _) = RunDir::init_or_open(&root, "t", &plan(1)).unwrap();
        let faulty = run
            .clone()
            .with_faults(Arc::new(FaultInjector::new(FaultPlan::single(
                FaultPoint::LeaseWrite,
                FaultKind::Kill,
            ))));
        let err = faulty.claim(0, "w0", 60_000).unwrap_err();
        assert!(err.is_injected_kill());
        assert_eq!(err.step, Step::LeaseWrite);
        // State: lease renamed, no sidecar — exactly the mtime-fallback
        // case. With TTL 0 it reclaims immediately and completes.
        assert_eq!(run.reclaim_stale(now_unix_ms(), 0).unwrap(), vec![0]);
        let claim = run.claim(0, "w1", 60_000).unwrap().unwrap();
        let outcomes = claim.scenarios.iter().map(outcome_stub).collect();
        run.complete(&claim, outcomes).unwrap();
        assert!(run.status().unwrap().is_drained());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn injected_torn_write_leaves_no_partial_and_sweeps_tmp() {
        let root = tmp_dir("fault-torn");
        let (run, _) = RunDir::init_or_open(&root, "t", &plan(1)).unwrap();
        let faulty = run
            .clone()
            .with_faults(Arc::new(FaultInjector::new(FaultPlan::single(
                FaultPoint::PartialWrite,
                FaultKind::TornWrite,
            ))));
        let claim = faulty.claim(0, "w0", 60_000).unwrap().unwrap();
        let outcomes: Vec<ScenarioOutcome> = claim.scenarios.iter().map(outcome_stub).collect();
        let err = faulty.complete(&claim, outcomes.clone()).unwrap_err();
        assert!(err.is_injected_kill());
        // The tear never published: no partial, the lease is intact, and
        // the orphan tmp file exists until reclaim sweeps it.
        assert!(run.partial(0).unwrap().is_none());
        let tmps = || {
            std::fs::read_dir(root.join("partial"))
                .unwrap()
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
                .count()
        };
        assert_eq!(tmps(), 1);
        run.reclaim_stale(now_unix_ms() + 1_000_000, 1_000).unwrap();
        assert_eq!(tmps(), 0, "orphan tmp swept");
        // The reclaimed shard completes cleanly on retry.
        let claim = run.claim(0, "w1", 60_000).unwrap().unwrap();
        run.complete(&claim, outcomes).unwrap();
        assert!(run.status().unwrap().is_drained());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn clock_skew_shifts_the_protocol_clock() {
        let root = tmp_dir("skew");
        let (run, _) = RunDir::init_or_open(&root, "t", &plan(1)).unwrap();
        let skewed = run
            .clone()
            .with_faults(Arc::new(FaultInjector::new(FaultPlan {
                seed: 0,
                faults: vec![],
                clock_skew_ms: 120_000,
            })));
        assert!(skewed.now_ms() >= now_unix_ms() + 119_000);
        // A skewed-fast claimant writes a future-dated lease; an unskewed
        // reclaimer must still not treat it as stale within its TTL.
        skewed.claim(0, "fast-clock", 300_000).unwrap().unwrap();
        assert!(run.reclaim_stale(now_unix_ms(), 60_000).unwrap().is_empty());
        std::fs::remove_dir_all(&root).ok();
    }
}
