//! Deterministic fault injection for the shard protocol.
//!
//! A seeded [`FaultPlan`] schedules faults at named protocol seams
//! ([`FaultPoint`]s) inside [`crate::RunDir`] and the worker drain
//! loop. Each scheduled fault fires exactly once, on the *n*-th visit
//! to its point, so a given `(seed, workload)` pair replays the same
//! crash schedule every run — the chaos proptest's whole contract.
//!
//! What can go wrong ([`FaultKind`]):
//!
//! - **Kill** — the worker dies at this point (simulated SIGKILL): the
//!   operation stops mid-flight and leaves whatever half-state the real
//!   syscall sequence would leave (a lease with no sidecar, a tmp file
//!   with no rename, a completed partial with a dangling lease).
//! - **TornWrite** — a write-tmp-then-rename tears between the write
//!   and the rename: half the JSON lands in the `.tmp` file, the
//!   rename never happens, the worker dies.
//! - **CorruptPartial / TruncatePartial** — a published partial is
//!   flipped / cut in half *after* the rename (bit rot, torn page),
//!   and the worker dies; a later reader must classify it reclaimable.
//! - **StealLease** — another worker's reclaim fires early and moves
//!   this worker's lease back to `todo/` mid-evaluation; the victim
//!   keeps evaluating, then drops its result because only a lease
//!   holder publishes, and the re-queued shard is evaluated again.
//!
//! `clock_skew_ms` additionally skews every `now` the injected
//! [`crate::RunDir`] observes, exercising lease-TTL math under
//! disagreeing clocks.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};

use crate::error::{ShardError, Step};

/// A protocol seam where a fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Just before the `todo/ -> leases/` claim rename.
    ClaimRename,
    /// Between the claim rename and the `.lease` sidecar write (a
    /// kill here leaves a lease with no sidecar — the mtime fallback
    /// must reclaim it).
    LeaseWrite,
    /// During shard evaluation (between claim and complete).
    Evaluate,
    /// During the partial's write-tmp-then-rename.
    PartialWrite,
    /// Just after the partial's rename publishes it.
    PartialPublish,
    /// Between publishing the partial and releasing the lease (a kill
    /// here leaves a completed shard with a dangling lease — reclaim
    /// must release, not requeue).
    LeaseRelease,
    /// Inside the stale-lease reclaim scan.
    Reclaim,
}

impl FaultPoint {
    const ALL: [FaultPoint; 7] = [
        FaultPoint::ClaimRename,
        FaultPoint::LeaseWrite,
        FaultPoint::Evaluate,
        FaultPoint::PartialWrite,
        FaultPoint::PartialPublish,
        FaultPoint::LeaseRelease,
        FaultPoint::Reclaim,
    ];

    fn index(self) -> usize {
        Self::ALL.iter().position(|p| *p == self).unwrap()
    }

    /// The protocol [`Step`] an injected kill at this point reports.
    pub fn step(self) -> Step {
        match self {
            FaultPoint::ClaimRename => Step::ClaimShard,
            FaultPoint::LeaseWrite => Step::LeaseWrite,
            FaultPoint::Evaluate => Step::Evaluate,
            FaultPoint::PartialWrite => Step::PartialWrite,
            FaultPoint::PartialPublish => Step::PartialWrite,
            FaultPoint::LeaseRelease => Step::LeaseRelease,
            FaultPoint::Reclaim => Step::Reclaim,
        }
    }

    /// Stable kebab-case name (logs, proptest failure messages).
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::ClaimRename => "claim-rename",
            FaultPoint::LeaseWrite => "lease-write",
            FaultPoint::Evaluate => "evaluate",
            FaultPoint::PartialWrite => "partial-write",
            FaultPoint::PartialPublish => "partial-publish",
            FaultPoint::LeaseRelease => "lease-release",
            FaultPoint::Reclaim => "reclaim",
        }
    }
}

/// What happens when a scheduled fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker dies at this point (simulated SIGKILL).
    Kill,
    /// The partial's tmp file gets half the JSON, the rename never
    /// happens, the worker dies. Valid only at
    /// [`FaultPoint::PartialWrite`].
    TornWrite,
    /// The published partial's bytes are flipped, then the worker
    /// dies. Valid only at [`FaultPoint::PartialPublish`].
    CorruptPartial,
    /// The published partial is truncated to half length, then the
    /// worker dies. Valid only at [`FaultPoint::PartialPublish`].
    TruncatePartial,
    /// The lease is moved back to `todo/` under the victim's feet (a
    /// peer's reclaim raced); the victim keeps going. Valid only at
    /// [`FaultPoint::Evaluate`].
    StealLease,
}

impl FaultKind {
    /// Stable kebab-case name (logs, proptest failure messages).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Kill => "kill",
            FaultKind::TornWrite => "torn-write",
            FaultKind::CorruptPartial => "corrupt-partial",
            FaultKind::TruncatePartial => "truncate-partial",
            FaultKind::StealLease => "steal-lease",
        }
    }

    /// Whether this kind may fire at `point`.
    pub fn valid_at(self, point: FaultPoint) -> bool {
        match self {
            FaultKind::Kill => true,
            FaultKind::TornWrite => point == FaultPoint::PartialWrite,
            FaultKind::CorruptPartial | FaultKind::TruncatePartial => {
                point == FaultPoint::PartialPublish
            }
            FaultKind::StealLease => point == FaultPoint::Evaluate,
        }
    }
}

/// One fault: fire `kind` on the `after`-th visit (0-based) to `point`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    pub point: FaultPoint,
    /// 0-based visit count at which the fault fires (0 = first visit).
    pub after: u32,
    pub kind: FaultKind,
}

/// A seeded, replayable schedule of faults plus optional clock skew.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The seed this plan was derived from (0 for hand-built plans).
    pub seed: u64,
    pub faults: Vec<ScheduledFault>,
    /// Added to every `now` the injected `RunDir` observes (ms; may be
    /// negative — a slow clock).
    pub clock_skew_ms: i64,
}

fn mix(state: &mut u64) -> u64 {
    // splitmix64: cheap, seedable, good enough for schedule diversity.
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with a single fault on the first visit to `point`.
    /// Panics if `kind` is not valid at `point` (test-author error).
    pub fn single(point: FaultPoint, kind: FaultKind) -> FaultPlan {
        assert!(
            kind.valid_at(point),
            "{} invalid at {}",
            kind.name(),
            point.name()
        );
        FaultPlan {
            seed: 0,
            faults: vec![ScheduledFault {
                point,
                after: 0,
                kind,
            }],
            clock_skew_ms: 0,
        }
    }

    /// Derives a random plan from `seed`: 1–3 faults at valid
    /// (point, kind) pairs with small visit offsets, plus clock skew
    /// in `[-2s, +2s)`. The same seed always yields the same plan.
    pub fn random(seed: u64) -> FaultPlan {
        let mut state = seed ^ 0xd6e8_feb8_6659_fd93;
        let count = 1 + (mix(&mut state) % 3) as usize;
        let kinds = [
            FaultKind::Kill,
            FaultKind::TornWrite,
            FaultKind::CorruptPartial,
            FaultKind::TruncatePartial,
            FaultKind::StealLease,
        ];
        let mut faults = Vec::with_capacity(count);
        while faults.len() < count {
            let point = FaultPoint::ALL[(mix(&mut state) % FaultPoint::ALL.len() as u64) as usize];
            let kind = kinds[(mix(&mut state) % kinds.len() as u64) as usize];
            if !kind.valid_at(point) {
                continue;
            }
            let after = (mix(&mut state) % 3) as u32;
            faults.push(ScheduledFault { point, after, kind });
        }
        let clock_skew_ms = (mix(&mut state) % 4_000) as i64 - 2_000;
        FaultPlan {
            seed,
            faults,
            clock_skew_ms,
        }
    }
}

/// The runtime arming of a [`FaultPlan`]: counts visits per point and
/// fires each scheduled fault exactly once. Shared (`Arc`) between a
/// `RunDir` clone and the worker that owns it; all state is atomic.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    visits: [AtomicU32; 7],
    armed: Vec<AtomicBool>,
    fired: AtomicU64,
    skew_ms: AtomicI64,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let armed = plan.faults.iter().map(|_| AtomicBool::new(true)).collect();
        let skew = plan.clock_skew_ms;
        FaultInjector {
            plan,
            visits: Default::default(),
            armed,
            fired: AtomicU64::new(0),
            skew_ms: AtomicI64::new(skew),
        }
    }

    /// The plan this injector was armed with.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Visits `point`; returns the fault to apply if one fires now.
    /// Each scheduled fault fires at most once across all clones.
    pub fn take(&self, point: FaultPoint) -> Option<FaultKind> {
        let visit = self.visits[point.index()].fetch_add(1, Ordering::SeqCst);
        for (fault, armed) in self.plan.faults.iter().zip(&self.armed) {
            if fault.point == point && fault.after == visit && armed.swap(false, Ordering::SeqCst) {
                self.fired.fetch_add(1, Ordering::SeqCst);
                return Some(fault.kind);
            }
        }
        None
    }

    /// Shorthand for kill-only points: visits `point` and returns the
    /// injected-kill error if a [`FaultKind::Kill`] fires.
    pub fn maybe_kill(&self, point: FaultPoint, shard: usize) -> Result<(), ShardError> {
        match self.take(point) {
            Some(FaultKind::Kill) => Err(ShardError::injected_kill(point.step(), shard)),
            // Non-kill kinds are invalid at kill-only points by
            // construction; ignore rather than misfire.
            _ => Ok(()),
        }
    }

    /// How many scheduled faults have fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }

    /// The clock skew applied to this injector's `RunDir` clock (ms).
    pub fn skew_ms(&self) -> i64 {
        self.skew_ms.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_once_on_scheduled_visit() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![ScheduledFault {
                point: FaultPoint::PartialWrite,
                after: 1,
                kind: FaultKind::TornWrite,
            }],
            clock_skew_ms: 0,
        });
        assert_eq!(inj.take(FaultPoint::PartialWrite), None); // visit 0
        assert_eq!(inj.take(FaultPoint::ClaimRename), None); // other point
        assert_eq!(
            inj.take(FaultPoint::PartialWrite),
            Some(FaultKind::TornWrite)
        );
        assert_eq!(inj.take(FaultPoint::PartialWrite), None); // fired already
        assert_eq!(inj.fired(), 1);
    }

    #[test]
    fn random_plans_are_deterministic_and_valid() {
        for seed in 0..200 {
            let a = FaultPlan::random(seed);
            let b = FaultPlan::random(seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(!a.faults.is_empty() && a.faults.len() <= 3);
            assert!((-2_000..2_000).contains(&a.clock_skew_ms));
            for f in &a.faults {
                assert!(f.kind.valid_at(f.point), "seed {seed}: {f:?}");
                assert!(f.after < 3);
            }
        }
        assert_ne!(
            FaultPlan::random(1).faults,
            FaultPlan::random(2).faults,
            "different seeds should usually differ"
        );
    }

    #[test]
    fn maybe_kill_reports_injected_kill() {
        let inj = FaultInjector::new(FaultPlan::single(FaultPoint::ClaimRename, FaultKind::Kill));
        let err = inj.maybe_kill(FaultPoint::ClaimRename, 2).unwrap_err();
        assert!(err.is_injected_kill());
        assert_eq!(err.step, Step::ClaimShard);
        assert_eq!(err.shard, Some(2));
        assert!(inj.maybe_kill(FaultPoint::ClaimRename, 2).is_ok());
    }
}
