//! Chaos tests: seeded fault schedules driven through real multi-worker
//! drains, pinning the crash-safety contract — **every injected fault
//! ends in a correct retry, a correct reclaim-and-resume, or a typed
//! error naming the failed step; the merged report is always
//! byte-identical to the fault-free run.**
//!
//! The pinned tests exercise one fault kind each (torn rename,
//! corrupted partial, truncated partial, stolen lease, SIGKILL at every
//! protocol seam); the proptest throws random seeded [`FaultPlan`]s at
//! a 4-worker drain and checks the same identity.

use daydream_shard::{
    merge_run, run_worker, FaultInjector, FaultKind, FaultPlan, FaultPoint, Recovery, RetryPolicy,
    RunDir, ShardPlan, Step, WorkerConfig,
};
use daydream_sweep::{Scenario, SweepEngine, SweepGrid, SweepReport};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Six scenarios over three shards: enough structure for interleaved
/// claims, small enough for fast drains.
fn scenarios() -> Vec<Scenario> {
    SweepGrid::builder()
        .models(["ResNet-50"])
        .batches([4])
        .opts([
            "baseline",
            "amp",
            "gist",
            "bandwidth",
            "vdnn",
            "reconstruct-bn",
        ])
        .build()
        .expand()
        .unwrap()
}

/// One warm engine shared by every worker and test case — evaluation is
/// deterministic, so shared caches cannot change any outcome, only make
/// the suite fast.
fn engine() -> Arc<SweepEngine> {
    static ENGINE: OnceLock<Arc<SweepEngine>> = OnceLock::new();
    Arc::clone(ENGINE.get_or_init(|| Arc::new(SweepEngine::new(2))))
}

/// The fault-free merged report, serialized: the byte-identity oracle.
fn oracle_json() -> &'static str {
    static ORACLE: OnceLock<String> = OnceLock::new();
    ORACLE.get_or_init(|| {
        let mut outcomes = engine().run_scenarios(scenarios()).unwrap();
        for o in &mut outcomes {
            o.cached = false;
        }
        SweepReport::from_outcomes(outcomes).to_json().unwrap()
    })
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "daydream-chaos-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Short TTL so reclaiming a "dead" worker's lease takes milliseconds,
/// and immediate (no-backoff) retries so transient errors don't slow
/// the suite.
fn cfg(worker_id: &str) -> WorkerConfig {
    WorkerConfig {
        worker_id: worker_id.into(),
        lease_ttl_ms: 300,
        poll_ms: 10,
        max_wait_ms: 60_000,
        retry: RetryPolicy::immediate(4),
    }
}

/// Runs one injected victim worker, then a clean rescuer, and returns
/// (victim result, rescuer summary, merged JSON, run root).
#[allow(clippy::type_complexity)]
fn victim_then_rescuer(
    tag: &str,
    plan: FaultPlan,
) -> (
    Result<daydream_shard::WorkerSummary, daydream_shard::ShardError>,
    daydream_shard::WorkerSummary,
    String,
    std::path::PathBuf,
) {
    let root = tmp_dir(tag);
    let shard_plan = ShardPlan::partition(scenarios(), 3).unwrap();
    let (run, _) = RunDir::init_or_open(&root, tag, &shard_plan).unwrap();
    let injected = run.clone().with_faults(Arc::new(FaultInjector::new(plan)));
    let eng = engine();
    let victim = run_worker(&injected, &eng, &cfg("victim"));
    let rescuer = run_worker(&run, &eng, &cfg("rescuer")).unwrap();
    let merged = merge_run(&run).unwrap().to_json().unwrap();
    (victim, rescuer, merged, root)
}

#[test]
fn sigkill_mid_evaluation_is_reclaimed_to_an_identical_report() {
    let (victim, rescuer, merged, root) = victim_then_rescuer(
        "kill-eval",
        FaultPlan::single(FaultPoint::Evaluate, FaultKind::Kill),
    );
    let err = victim.unwrap_err();
    assert!(err.is_injected_kill(), "{err}");
    assert_eq!(err.step, Step::Evaluate);
    assert!(err.shard.is_some(), "the error names the shard: {err}");
    assert!(
        rescuer.leases_reclaimed >= 1,
        "the dead victim's lease must be reclaimed: {rescuer:?}"
    );
    assert_eq!(merged, oracle_json());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn torn_partial_rename_is_requeued_to_an_identical_report() {
    let (victim, _, merged, root) = victim_then_rescuer(
        "torn",
        FaultPlan::single(FaultPoint::PartialWrite, FaultKind::TornWrite),
    );
    let err = victim.unwrap_err();
    assert!(err.is_injected_kill(), "{err}");
    assert_eq!(err.step, Step::PartialWrite);
    assert_eq!(merged, oracle_json());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn corrupted_partial_is_quarantined_and_reevaluated() {
    let (victim, rescuer, merged, root) = victim_then_rescuer(
        "corrupt",
        FaultPlan::single(FaultPoint::PartialPublish, FaultKind::CorruptPartial),
    );
    assert!(victim.unwrap_err().is_injected_kill());
    assert!(
        rescuer.requeued_corrupt >= 1,
        "the rescuer must heal the corrupt partial: {rescuer:?}"
    );
    // The bad artifact is quarantined, not deleted: forensics survive.
    let quarantined = std::fs::read_dir(root.join("partial"))
        .unwrap()
        .filter_map(|e| e.ok())
        .any(|e| e.file_name().to_string_lossy().contains(".corrupt-"));
    assert!(quarantined, "quarantine file must exist under partial/");
    assert_eq!(merged, oracle_json());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn truncated_partial_is_quarantined_and_reevaluated() {
    let (victim, rescuer, merged, root) = victim_then_rescuer(
        "truncate",
        FaultPlan::single(FaultPoint::PartialPublish, FaultKind::TruncatePartial),
    );
    assert!(victim.unwrap_err().is_injected_kill());
    assert!(rescuer.requeued_corrupt >= 1, "{rescuer:?}");
    assert_eq!(merged, oracle_json());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn stolen_lease_causes_a_harmless_duplicate_evaluation() {
    let (victim, _, merged, root) = victim_then_rescuer(
        "steal",
        FaultPlan::single(FaultPoint::Evaluate, FaultKind::StealLease),
    );
    // The victim survives a lease theft: it drops the stolen shard's
    // result (only a lease holder publishes), and the re-queued shard
    // evaluates a second time to identical bytes.
    let summary = victim.unwrap();
    assert!(summary.shards_completed >= 3, "{summary:?}");
    assert_eq!(merged, oracle_json());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sigkill_at_every_protocol_seam_never_loses_the_run() {
    for point in [
        FaultPoint::ClaimRename,
        FaultPoint::LeaseWrite,
        FaultPoint::Evaluate,
        FaultPoint::PartialWrite,
        FaultPoint::PartialPublish,
        FaultPoint::LeaseRelease,
        FaultPoint::Reclaim,
    ] {
        let (victim, _, merged, root) = victim_then_rescuer(
            &format!("seam-{}", point.name()),
            FaultPlan::single(point, FaultKind::Kill),
        );
        // If the kill fired, the worker died with a typed error naming
        // the seam it died at. Some seams need preconditions a solo
        // drain never hits (e.g. Reclaim only fires when another
        // worker's lease exists) — not firing is fine, dying silently
        // is not.
        if let Err(e) = victim {
            assert!(e.is_injected_kill(), "at {}: {e}", point.name());
            assert_eq!(e.step, point.step(), "at {}", point.name());
            assert_ne!(e.recovery, Recovery::Retryable, "kills are not retried");
        }
        assert_eq!(merged, oracle_json(), "at {}", point.name());
        std::fs::remove_dir_all(&root).ok();
    }
}

/// The full 4-worker chaos drill for one seed: workers 0–2 run under
/// `FaultPlan::random(seed ^ k)`, worker 3 is clean and guarantees the
/// drain finishes. Returns each injected worker's terminal error (if
/// any) and the merged JSON.
fn chaos_drain(seed: u64) -> (Vec<Option<daydream_shard::ShardError>>, String) {
    let root = tmp_dir(&format!("prop-{seed}"));
    let shard_plan = ShardPlan::partition(scenarios(), 3).unwrap();
    let (run, _) = RunDir::init_or_open(&root, "chaos", &shard_plan).unwrap();
    let eng = engine();
    let mut handles = Vec::new();
    for k in 0..4u64 {
        let worker_run = if k < 3 {
            let plan = FaultPlan::random(seed ^ (k.wrapping_mul(0x9e37_79b9)));
            run.clone().with_faults(Arc::new(FaultInjector::new(plan)))
        } else {
            run.clone()
        };
        let worker_cfg = cfg(&format!("chaos-w{k}"));
        let worker_eng = Arc::clone(&eng);
        handles.push(std::thread::spawn(move || {
            run_worker(&worker_run, &worker_eng, &worker_cfg)
        }));
    }
    let mut errors = Vec::new();
    for (k, handle) in handles.into_iter().enumerate() {
        let result = handle.join().expect("worker thread must never panic");
        match result {
            Ok(_) => errors.push(None),
            Err(e) => {
                assert!(k < 3, "the clean worker must drain cleanly: {e}");
                errors.push(Some(e));
            }
        }
    }
    let merged = merge_run(&run).unwrap().to_json().unwrap();
    std::fs::remove_dir_all(&root).ok();
    (errors, merged)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_fault_schedules_merge_byte_identical(seed in 0u64..(1u64 << 32)) {
        let (errors, merged) = chaos_drain(seed);
        for (k, err) in errors.iter().enumerate() {
            if let Some(e) = err {
                // A worker that died must have died at an injected
                // kill, with the failed step named — never an untyped
                // or collateral failure.
                prop_assert!(
                    e.is_injected_kill(),
                    "seed {seed} worker {k}: unexpected terminal error: {e}"
                );
            }
        }
        prop_assert_eq!(
            merged.as_str(),
            oracle_json(),
            "seed {} must merge byte-identical to the fault-free run",
            seed
        );
    }
}
