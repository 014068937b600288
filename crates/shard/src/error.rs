//! The typed error taxonomy for the shard protocol.
//!
//! Every fallible protocol operation returns a [`ShardError`] carrying
//! three things a caller can act on mechanically:
//!
//! 1. **The failed step** ([`Step`]) — which protocol operation broke,
//!    so a CLI exit or a log line names *where* ("claim-shard",
//!    "partial-read"), not just *that* something failed.
//! 2. **A recovery classification** ([`Recovery`]) — what a drain loop
//!    should do about it: retry the same call (transient IO), reclaim
//!    and requeue the shard (corrupt on-disk state), or stop (logic /
//!    configuration errors that retrying cannot fix).
//! 3. **The shard index**, when the failure is shard-scoped, so
//!    reclaim-and-requeue knows what to requeue.
//!
//! [`RetryPolicy`] + [`with_retry`] implement the bounded
//! exponential-backoff-with-jitter loop every worker uses for
//! [`Recovery::Retryable`] errors. Jitter is deterministic (seeded FNV),
//! so a test replaying the same seed observes the same schedule.

use daydream_sweep::fnv1a64;

/// What a drain loop should do with a failed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Transient (IO hiccup, racing peer mid-rename): retry the same
    /// call with backoff.
    Retryable,
    /// On-disk state for one shard is bad (corrupt/truncated JSON):
    /// quarantine it and requeue the shard from its pristine spec.
    Reclaimable,
    /// Retrying cannot help (grid mismatch, format version, bug):
    /// surface to the operator.
    Fatal,
}

impl Recovery {
    /// Lowercase label used in rendered errors.
    pub fn name(self) -> &'static str {
        match self {
            Recovery::Retryable => "retryable",
            Recovery::Reclaimable => "reclaimable",
            Recovery::Fatal => "fatal",
        }
    }
}

/// The protocol step that failed — the vocabulary of every rendered
/// shard error and of the fault-injection points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Staging + renaming a new run directory into place.
    InitRun,
    /// Opening an existing run directory.
    OpenRun,
    /// Reading or parsing `manifest.json`.
    Manifest,
    /// The `todo/ -> leases/` claim rename (and the post-claim read).
    ClaimShard,
    /// Writing the `.lease` sidecar.
    LeaseWrite,
    /// Reading a `.lease` sidecar.
    LeaseRead,
    /// Evaluating a claimed shard's scenarios.
    Evaluate,
    /// Writing a shard's partial result (write-tmp-then-rename).
    PartialWrite,
    /// Reading or parsing a shard's partial result.
    PartialRead,
    /// Releasing a completed shard's lease.
    LeaseRelease,
    /// Returning an abandoned lease to `todo/`.
    Reclaim,
    /// Requeueing a corrupt shard from its pristine spec.
    Requeue,
    /// Listing a run directory's state subdirectories.
    ListRun,
    /// Unioning partials into the merged report.
    Merge,
    /// Writing `merged.json`.
    MergedWrite,
    /// Reading `merged.json`.
    MergedRead,
    /// Listing or opening runs in a [`crate::RunStore`].
    Store,
    /// Allocating a new `run-NNNN` in a [`crate::RunStore`].
    StoreCreate,
    /// Reading or writing a serve job journal in a run directory.
    Journal,
    /// The worker drain loop itself (gave up waiting on peers).
    WorkerDrain,
}

impl Step {
    /// Stable kebab-case name, used in rendered errors, CLI exits, and
    /// test assertions.
    pub fn name(self) -> &'static str {
        match self {
            Step::InitRun => "init-run",
            Step::OpenRun => "open-run",
            Step::Manifest => "manifest",
            Step::ClaimShard => "claim-shard",
            Step::LeaseWrite => "lease-write",
            Step::LeaseRead => "lease-read",
            Step::Evaluate => "evaluate",
            Step::PartialWrite => "partial-write",
            Step::PartialRead => "partial-read",
            Step::LeaseRelease => "lease-release",
            Step::Reclaim => "reclaim",
            Step::Requeue => "requeue",
            Step::ListRun => "list-run",
            Step::Merge => "merge",
            Step::MergedWrite => "merged-write",
            Step::MergedRead => "merged-read",
            Step::Store => "store",
            Step::StoreCreate => "store-create",
            Step::Journal => "journal",
            Step::WorkerDrain => "worker-drain",
        }
    }
}

/// A typed shard-protocol error: the failed step, how to recover, the
/// shard it concerns (when shard-scoped), and a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardError {
    /// Protocol step that failed.
    pub step: Step,
    /// What a drain loop should do about it.
    pub recovery: Recovery,
    /// Shard index, for shard-scoped failures.
    pub shard: Option<usize>,
    /// Human-readable detail.
    pub message: String,
    /// `true` when a [`crate::faults::FaultInjector`] produced this
    /// error (a simulated crash), not a real failure.
    pub injected: bool,
}

impl ShardError {
    /// A [`Recovery::Fatal`] error at `step`.
    pub fn fatal(step: Step, message: impl Into<String>) -> ShardError {
        ShardError {
            step,
            recovery: Recovery::Fatal,
            shard: None,
            message: message.into(),
            injected: false,
        }
    }

    /// A [`Recovery::Retryable`] error at `step`.
    pub fn retryable(step: Step, message: impl Into<String>) -> ShardError {
        ShardError {
            step,
            recovery: Recovery::Retryable,
            shard: None,
            message: message.into(),
            injected: false,
        }
    }

    /// A [`Recovery::Reclaimable`] error at `step`.
    pub fn reclaimable(step: Step, message: impl Into<String>) -> ShardError {
        ShardError {
            step,
            recovery: Recovery::Reclaimable,
            shard: None,
            message: message.into(),
            injected: false,
        }
    }

    /// Attaches the shard index the failure concerns.
    pub fn with_shard(mut self, index: usize) -> ShardError {
        self.shard = Some(index);
        self
    }

    /// The error an injected worker kill raises: the drain loop treats
    /// it as this worker's death (stop immediately, clean nothing up).
    pub fn injected_kill(step: Step, shard: usize) -> ShardError {
        ShardError {
            step,
            recovery: Recovery::Fatal,
            shard: Some(shard),
            message: "worker killed by fault injection".into(),
            injected: true,
        }
    }

    /// Whether this error is a simulated worker death from the fault
    /// injector (never retried, never reported as a real failure).
    pub fn is_injected_kill(&self) -> bool {
        self.injected
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {}", self.step.name())?;
        if let Some(shard) = self.shard {
            write!(f, " (shard {shard})")?;
        }
        write!(f, " failed [{}]: {}", self.recovery.name(), self.message)
    }
}

impl std::error::Error for ShardError {}

/// `?` in `Result<_, String>` contexts (the CLI) renders the step name,
/// shard, and classification automatically.
impl From<ShardError> for String {
    fn from(e: ShardError) -> String {
        e.to_string()
    }
}

/// Bounded capped-exponential backoff with deterministic jitter, used
/// for [`Recovery::Retryable`] errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry, ms (doubles per attempt).
    pub base_backoff_ms: u64,
    /// Backoff ceiling, ms.
    pub max_backoff_ms: u64,
    /// Jitter seed; the same seed replays the same backoff schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff_ms: 20,
            max_backoff_ms: 2_000,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// A policy that never sleeps (tests).
    pub fn immediate(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            seed: 0,
        }
    }

    /// The backoff before retry `attempt` (0-based): capped exponential
    /// scaled by a deterministic jitter factor in `[0.5, 1.5)`.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_backoff_ms);
        // FNV-1a over (seed, attempt) -> jitter in [0.5, 1.5).
        let h = fnv1a64(&[self.seed.to_le_bytes().as_slice(), &attempt.to_le_bytes()].concat());
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        ((exp as f64) * (0.5 + frac)) as u64
    }
}

/// Runs `op`, retrying [`Recovery::Retryable`] failures up to
/// `policy.max_retries` times with [`RetryPolicy::backoff_ms`] sleeps.
/// Each retry increments `*retries`. Reclaimable/fatal errors and
/// injected kills return immediately — retrying cannot fix corrupt
/// state, and a killed worker is dead.
pub fn with_retry<T>(
    policy: &RetryPolicy,
    retries: &mut u64,
    mut op: impl FnMut() -> Result<T, ShardError>,
) -> Result<T, ShardError> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e)
                if e.recovery == Recovery::Retryable
                    && !e.is_injected_kill()
                    && attempt < policy.max_retries =>
            {
                let backoff = policy.backoff_ms(attempt);
                if backoff > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(backoff));
                }
                attempt += 1;
                *retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_step_shard_and_class() {
        let e = ShardError::reclaimable(Step::PartialRead, "bad json").with_shard(3);
        let s = e.to_string();
        assert!(s.contains("partial-read"), "{s}");
        assert!(s.contains("shard 3"), "{s}");
        assert!(s.contains("[reclaimable]"), "{s}");
        assert!(s.contains("bad json"), "{s}");
        let as_string: String = e.into();
        assert_eq!(as_string, s);
    }

    #[test]
    fn backoff_is_capped_exponential_with_bounded_jitter() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff_ms: 100,
            max_backoff_ms: 1_000,
            seed: 7,
        };
        for attempt in 0..10 {
            let exp = (100u64 << attempt).min(1_000);
            let b = p.backoff_ms(attempt);
            assert!(
                b >= exp / 2 && b < exp + exp / 2 + 1,
                "attempt {attempt}: {b}"
            );
            // Deterministic: same (seed, attempt) -> same backoff.
            assert_eq!(b, p.backoff_ms(attempt));
        }
        assert_ne!(
            p.backoff_ms(0),
            RetryPolicy { seed: 8, ..p }.backoff_ms(0),
            "different seeds should jitter differently"
        );
    }

    #[test]
    fn with_retry_retries_only_retryable() {
        let policy = RetryPolicy::immediate(3);
        let mut retries = 0;
        let mut calls = 0;
        let out: Result<u32, _> = with_retry(&policy, &mut retries, || {
            calls += 1;
            if calls < 3 {
                Err(ShardError::retryable(Step::PartialWrite, "io hiccup"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(retries, 2);

        // Exhaustion surfaces the final error.
        let mut retries = 0;
        let out: Result<(), _> = with_retry(&policy, &mut retries, || {
            Err(ShardError::retryable(Step::PartialWrite, "always"))
        });
        assert_eq!(out.unwrap_err().recovery, Recovery::Retryable);
        assert_eq!(retries, 3);

        // Fatal, reclaimable, and injected kills are never retried.
        for e in [
            ShardError::fatal(Step::Manifest, "bad"),
            ShardError::reclaimable(Step::PartialRead, "corrupt"),
            ShardError::injected_kill(Step::Evaluate, 0),
        ] {
            let mut retries = 0;
            let mut calls = 0;
            let out: Result<(), _> = with_retry(&policy, &mut retries, || {
                calls += 1;
                Err(e.clone())
            });
            assert!(out.is_err());
            assert_eq!(calls, 1, "{e:?} must not be retried");
            assert_eq!(retries, 0);
        }
    }
}
