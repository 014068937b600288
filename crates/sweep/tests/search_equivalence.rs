//! The successive-halving search against the exhaustive sweep.
//!
//! Two contracts, property-tested on small random grids over one real
//! profile (ResNet-50 b4 — `build_profile` runs a full simulated
//! training iteration per engine, so case counts stay small):
//!
//! 1. **Exactness under no pruning** — with `keep_fraction = 1.0` every
//!    candidate survives every rung, the final rung evaluates exactly
//!    the exhaustive scenario set on the exact path, and the report is
//!    *byte-identical* (same JSON) to a plain `SweepEngine::run`.
//! 2. **The tolerance contract under pruning** — rung fidelity may prune
//!    differently-ranked mid-field scenarios, but every surviving
//!    prediction is full fidelity (equal to the exhaustive value for the
//!    same scenario key), and the per-model winner the search returns is
//!    within `TOP1_TOLERANCE` of the exhaustive winner's predicted time.
//!    `TOP1_TOLERANCE` is the pinned contract: the bench gate and CI
//!    smoke check top-1 *equality* on their curated grids; random grids
//!    get this relative bound.

use daydream_sweep::{run_search, SearchConfig, SweepEngine, SweepGrid};
use proptest::prelude::*;
use std::collections::HashMap;

/// The pinned fidelity contract for pruned searches on random grids: the
/// search's per-model winner predicts within 5% of the exhaustive
/// winner. (On curated monotone grids — the bench, the CI smoke — the
/// winners match exactly.)
const TOP1_TOLERANCE: f64 = 0.05;

/// Strategy: a small random grid over the single shared profile.
/// Families are drawn from the patchable catalog (no P3 — it skips the
/// rungs by design and would dominate runtime with replicated-base
/// sims); parameter axes give bandwidth/dgc multiple grid points each.
fn arb_grid() -> impl Strategy<Value = SweepGrid> {
    let families = [
        "baseline",
        "amp",
        "gist",
        "vdnn",
        "bandwidth",
        "upgrade-gpu",
        "batch-size",
        "ddp",
        "dgc",
    ];
    (
        1u16..(1 << 9),
        prop::collection::vec((2u64..17).prop_map(|n| n as f64 / 4.0), 1..4),
        prop::collection::vec((1u64..11).prop_map(|n| n as f64 / 100.0), 1..3),
        prop::collection::vec(8u64..33, 1..3),
    )
        .prop_map(move |(family_mask, factors, ratios, targets)| {
            let opts: Vec<&str> = families
                .iter()
                .enumerate()
                .filter(|(i, _)| family_mask & (1 << i) != 0)
                .map(|(_, f)| *f)
                .collect();
            SweepGrid::builder()
                .models(["ResNet-50"])
                .batches([4])
                .opts(if opts.is_empty() { vec!["amp"] } else { opts })
                .machines([4])
                .bandwidths([10.0])
                .bandwidth_factors(factors)
                .dgc_ratios(ratios)
                .target_batches(targets)
                .build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn keep_fraction_one_is_byte_identical_to_exhaustive(
        grid in arb_grid(),
        rungs in 1usize..4,
    ) {
        let cfg = SearchConfig {
            rungs,
            keep_fraction: 1.0,
            ..SearchConfig::default()
        };
        // Fresh engines on both sides: byte-identity must not lean on
        // shared caches.
        let search = run_search(&SweepEngine::new(1), &grid, &cfg).unwrap();
        let exhaustive = SweepEngine::new(2).run(&grid).unwrap();
        prop_assert_eq!(&search.report, &exhaustive);
        prop_assert_eq!(
            search.report.to_json().unwrap(),
            exhaustive.to_json().unwrap(),
            "keep-fraction 1.0 must reproduce the exhaustive report byte for byte"
        );
        // Nothing was pruned, so nothing can be a near miss.
        prop_assert!(search.warnings.is_empty());
        for rung in &search.rungs {
            prop_assert_eq!(rung.pruned, 0);
        }
    }

    #[test]
    fn pruned_search_honors_the_tolerance_contract(
        grid in arb_grid(),
        keep_pct in 25u64..75,
    ) {
        let cfg = SearchConfig {
            rungs: 3,
            keep_fraction: keep_pct as f64 / 100.0,
            keep_min: 2,
            ..SearchConfig::default()
        };
        let search = run_search(&SweepEngine::new(2), &grid, &cfg).unwrap();
        let exhaustive = SweepEngine::new(2).run(&grid).unwrap();

        // Every survivor's prediction is full fidelity: it equals the
        // exhaustive run's value for the same scenario key.
        let exact: HashMap<&str, u64> = exhaustive
            .results
            .iter()
            .map(|o| (o.key.as_str(), o.predicted_ns))
            .collect();
        for o in &search.report.results {
            prop_assert_eq!(
                Some(&o.predicted_ns),
                exact.get(o.key.as_str()),
                "survivor '{}' must carry the exhaustive exact prediction",
                o.label
            );
        }

        // The per-model winner is within the pinned tolerance of the
        // exhaustive winner (equal keys trivially satisfy it).
        for best in &exhaustive.best_per_model {
            let searched = search
                .report
                .best_per_model
                .iter()
                .find(|b| b.value == best.value)
                .expect("search keeps at least keep_min scenarios per model");
            let rel = (searched.predicted_ns as f64 - best.predicted_ns as f64)
                / best.predicted_ns as f64;
            prop_assert!(
                rel <= TOP1_TOLERANCE,
                "search winner '{}' ({} ns) trails exhaustive winner '{}' ({} ns) by {:.2}% > {:.0}%",
                searched.label,
                searched.predicted_ns,
                best.label,
                best.predicted_ns,
                rel * 100.0,
                TOP1_TOLERANCE * 100.0
            );
        }

        // Accounting invariants: rung 0 saw the whole grid; evaluations
        // never exceed the exhaustive count per rung; survivors of the
        // final rung are exactly the report's scenarios.
        let n = exhaustive.scenario_count;
        prop_assert_eq!(search.rungs[0].expanded, n);
        for rung in &search.rungs {
            prop_assert!(rung.evaluated <= n);
            prop_assert_eq!(rung.expanded, rung.kept + rung.pruned);
        }
        let last = search.rungs.last().unwrap();
        prop_assert_eq!(last.kept, search.report.scenario_count);
        prop_assert_eq!(&last.fidelity, "exact");
    }
}

/// Determinism pin: the same search on fresh engines returns identical
/// reports, promotions, and survivor sets.
#[test]
fn search_is_deterministic_across_engines() {
    let grid = SweepGrid::builder()
        .models(["ResNet-50"])
        .batches([4])
        .opts(["baseline", "amp", "gist", "bandwidth", "batch-size"])
        .bandwidth_factors([1.5, 2.0, 3.0])
        .target_batches([8, 16])
        .build();
    let cfg = SearchConfig {
        rungs: 3,
        keep_fraction: 0.5,
        ..SearchConfig::default()
    };
    let a = run_search(&SweepEngine::new(1), &grid, &cfg).unwrap();
    let b = run_search(&SweepEngine::new(3), &grid, &cfg).unwrap();
    assert_eq!(a.report, b.report);
    assert_eq!(a.promotions, b.promotions);
    assert_eq!(a.warnings, b.warnings);
    let surv = |r: &daydream_sweep::SearchReport| -> Vec<Vec<String>> {
        r.rungs.iter().map(|x| x.survivors.clone()).collect()
    };
    assert_eq!(surv(&a), surv(&b));
}
