//! Multi-fidelity successive-halving sweep search.
//!
//! An exhaustive sweep pays a full-fidelity evaluation for every point of
//! the grid, although most points only need enough fidelity to show they
//! are *not* contenders. The halving search runs the grid through a
//! ladder of rungs instead: rung 0 evaluates everything at low fidelity
//! (a capped incremental-cone budget, with the analytic busy-time
//! estimate past the cap — see [`SweepEngine::run_scenarios_rung`]),
//! keeps the top fraction per model by Pareto-front rank, and promotes
//! the survivors to the next, stricter rung. The final rung is the
//! existing exact path ([`SweepEngine::run_scenarios`]), so every number
//! in the returned [`SweepReport`] is a full-fidelity prediction.
//!
//! Pruning only ever compares like against like: a rung outcome whose
//! cone fit the budget carries the *true* makespan, while an over-budget
//! one carries the optimistic busy-time bound — the two classes are
//! ranked and quota'd separately (see `select_survivors`'s internals),
//! so a bound can never evict an exactly-known contender.
//!
//! Determinism: survivors are selected by `(front rank, predicted time,
//! fingerprint)` and carried between rungs sorted by
//! [`Scenario::fingerprint`], so a search is reproducible across runs
//! and thread counts. With
//! `keep_fraction = 1.0` nothing is ever pruned and the final report is
//! byte-identical to the exhaustive sweep's.
//!
//! Special cases: `Baseline` scenarios are always kept (every speedup is
//! relative to them), and P3 scenarios skip the rungs entirely — their
//! steady-state analysis has no cheap stand-in, so pruning them on rung
//! signals would spend full simulations to save full simulations.

use crate::engine::{Fidelity, SweepEngine};
use crate::grid::SweepGrid;
use crate::report::{dominates, ScenarioOutcome, SweepReport};
use crate::scenario::{OptSpec, Scenario};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Successive-halving parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Total rungs including the final exact pass (`1` = plain
    /// exhaustive sweep, no low-fidelity rungs).
    pub rungs: usize,
    /// Fraction of each model's candidates kept per low-fidelity rung.
    pub keep_fraction: f64,
    /// Floor on survivors per model group (so a tiny group is never
    /// pruned to nothing).
    pub keep_min: usize,
    /// Relative near-miss margin: a pruned scenario within this fraction
    /// of a final Pareto-front member on every objective produces a
    /// warning (the pruning may have been fidelity noise).
    pub tolerance: f64,
    /// Per-rung incremental-cone budgets (fraction of the patched
    /// graph). Rung `r` uses `cone_budgets[min(r, len - 1)]`; later
    /// low-fidelity rungs should be stricter (larger budgets).
    pub cone_budgets: Vec<f64>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            rungs: 3,
            keep_fraction: 0.25,
            keep_min: 2,
            tolerance: 0.02,
            cone_budgets: vec![0.05, 0.25],
        }
    }
}

impl SearchConfig {
    fn validate(&self) -> Result<(), String> {
        if self.rungs == 0 {
            return Err("search needs at least one rung (the exact pass)".into());
        }
        if !(self.keep_fraction > 0.0 && self.keep_fraction <= 1.0) {
            return Err(format!(
                "invalid keep fraction {}: must be in (0, 1]",
                self.keep_fraction
            ));
        }
        if self.keep_min == 0 {
            return Err("invalid keep-min 0: must keep at least one scenario".into());
        }
        if self.tolerance < 0.0 {
            return Err(format!(
                "invalid tolerance {}: must be >= 0",
                self.tolerance
            ));
        }
        if let Some(b) = self.cone_budgets.iter().find(|&&b| !(b > 0.0 && b <= 1.0)) {
            return Err(format!("invalid cone budget {b}: must be in (0, 1]"));
        }
        if self.rungs > 1 && self.cone_budgets.is_empty() {
            return Err("low-fidelity rungs need at least one cone budget".into());
        }
        Ok(())
    }

    /// The cone budget of low-fidelity rung `r` (the last budget repeats).
    fn cone_budget(&self, r: usize) -> f64 {
        self.cone_budgets[r.min(self.cone_budgets.len() - 1)]
    }
}

/// Accounting for one rung of the ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct RungStats {
    /// Rung index (the last rung is the exact pass).
    pub rung: usize,
    /// Fidelity tag (`"cone50"` for a 5% budget, `"exact"`).
    pub fidelity: String,
    /// Candidates entering the rung (grid points still alive).
    pub expanded: usize,
    /// Candidates actually evaluated at this rung's fidelity.
    pub evaluated: usize,
    /// Survivors promoted to the next rung.
    pub kept: usize,
    /// Candidates pruned at this rung.
    pub pruned: usize,
    /// Evaluations served by the incremental cone path.
    pub incremental_sims: usize,
    /// Evaluations that ran a full dispatch.
    pub full_sims: usize,
    /// Evaluations answered by the analytic busy-time estimate.
    pub estimate_sims: usize,
    /// Wall-clock time of the rung, ms.
    pub wall_ms: u64,
    /// Fingerprints (hex, sorted) of the scenarios promoted out of this
    /// rung.
    pub survivors: Vec<String>,
}

/// The rung-by-rung history of one scenario through the search.
#[derive(Debug, Clone, PartialEq)]
pub struct PromotionRecord {
    /// Scenario content fingerprint (hex), the stable key.
    pub key: String,
    /// Human-readable scenario label.
    pub label: String,
    /// `(rung, predicted_ns at that rung's fidelity)` in rung order.
    pub rung_predictions: Vec<(usize, u64)>,
    /// The rung that pruned it, if any.
    pub pruned_at: Option<usize>,
    /// Skipped the rungs entirely (Baseline / P3 scenarios).
    pub auto_promoted: bool,
    /// Reached the final exact rung.
    pub survived: bool,
}

/// The halving search result: the exact-fidelity report over the
/// survivors, plus the ladder's accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// Full-fidelity report over the scenarios that reached the final
    /// rung (plus auto-promoted ones).
    pub report: SweepReport,
    /// Per-rung accounting, rung 0 first; the last entry is the exact
    /// pass.
    pub rungs: Vec<RungStats>,
    /// Per-scenario promotion history, sorted by fingerprint.
    pub promotions: Vec<PromotionRecord>,
    /// Near-miss warnings (see [`SearchConfig::tolerance`]).
    pub warnings: Vec<String>,
}

impl SearchReport {
    /// Scenarios evaluated across all rungs (the search's total work, to
    /// compare against `grid points x 1` for the exhaustive sweep).
    pub fn total_evaluations(&self) -> usize {
        self.rungs.iter().map(|r| r.evaluated).sum()
    }

    /// The promotion record whose key starts with `prefix` (full keys
    /// match exactly; a unique prefix is accepted for CLI ergonomics).
    pub fn promotion(&self, prefix: &str) -> Option<&PromotionRecord> {
        let mut matches = self.promotions.iter().filter(|p| p.key.starts_with(prefix));
        match (matches.next(), matches.next()) {
            (Some(p), None) => Some(p),
            _ => None,
        }
    }

    /// Renders one scenario's rung history for `sweep --explain`.
    pub fn render_history(&self, prefix: &str) -> Option<String> {
        let p = self.promotion(prefix)?;
        let mut out = String::new();
        out.push_str(&format!("scenario:  {}\n", p.label));
        out.push_str(&format!("key:       {}\n", p.key));
        if p.auto_promoted {
            out.push_str("search:    auto-promoted to the exact rung (no cheap stand-in)\n");
        }
        for &(rung, ns) in &p.rung_predictions {
            let fidelity = self
                .rungs
                .iter()
                .find(|r| r.rung == rung)
                .map(|r| r.fidelity.clone())
                .unwrap_or_default();
            out.push_str(&format!("rung {rung}:    predicted {ns} ns [{fidelity}]\n"));
        }
        match p.pruned_at {
            Some(r) => out.push_str(&format!("outcome:   pruned at rung {r}\n")),
            None => out.push_str("outcome:   survived to the exact rung\n"),
        }
        Some(out)
    }

    /// Renders the ladder summary table.
    pub fn render_rungs(&self) -> String {
        let mut out = String::from("rung  fidelity  expanded  evaluated  kept  pruned  wall\n");
        for r in &self.rungs {
            out.push_str(&format!(
                "{:>4}  {:<8}  {:>8}  {:>9}  {:>4}  {:>6}  {} ms\n",
                r.rung, r.fidelity, r.expanded, r.evaluated, r.kept, r.pruned, r.wall_ms
            ));
        }
        out
    }

    /// CSV rows of the rung accounting (for `--csv` alongside the
    /// report's own rows).
    pub fn rungs_csv(&self) -> String {
        let mut out = String::from(
            "rung,fidelity,expanded,evaluated,kept,pruned,incremental_sims,full_sims,estimate_sims,wall_ms\n",
        );
        for r in &self.rungs {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                r.rung,
                r.fidelity,
                r.expanded,
                r.evaluated,
                r.kept,
                r.pruned,
                r.incremental_sims,
                r.full_sims,
                r.estimate_sims,
                r.wall_ms
            ));
        }
        out
    }
}

/// Pareto-front rank of each outcome (0 = non-dominated; peel and
/// repeat). Quadratic per peel, which is fine at sweep-grid sizes.
fn front_ranks(outcomes: &[&ScenarioOutcome]) -> Vec<usize> {
    let n = outcomes.len();
    let mut rank = vec![usize::MAX; n];
    let mut assigned = 0;
    let mut current = 0;
    while assigned < n {
        let mut this_front = Vec::new();
        for i in 0..n {
            if rank[i] != usize::MAX {
                continue;
            }
            let dominated = (0..n)
                .any(|j| j != i && rank[j] == usize::MAX && dominates(outcomes[j], outcomes[i]));
            if !dominated {
                this_front.push(i);
            }
        }
        // A dominance cycle is impossible (strict partial order), so
        // every peel assigns at least one outcome.
        for i in this_front {
            rank[i] = current;
            assigned += 1;
        }
        current += 1;
    }
    rank
}

/// Near-miss warnings: each `(outcome-at-pruning, rung)` pair that a
/// final Pareto-front member dominates only within `tolerance` (i.e. the
/// pruned scenario trails the survivor by at most `tolerance` on every
/// objective). Those prunings are the ones low-rung fidelity noise could
/// have decided; the warning says what to re-check with a bigger
/// `keep_fraction`.
pub fn near_miss_warnings(
    pruned: &[(ScenarioOutcome, usize)],
    front: &[&ScenarioOutcome],
    tolerance: f64,
) -> Vec<String> {
    let within = |p: u64, f: u64| p as f64 <= f as f64 * (1.0 + tolerance);
    let mut out = Vec::new();
    for (p, rung) in pruned {
        let near = front.iter().find(|f| {
            f.model == p.model
                && dominates(f, p)
                && within(p.predicted_ns, f.predicted_ns)
                && within(p.memory_bytes, f.memory_bytes)
                && within(p.comm_bytes, f.comm_bytes)
        });
        if let Some(f) = near {
            out.push(format!(
                "near-miss: '{}' (pruned at rung {rung}, predicted {} ns) trails Pareto \
                 survivor '{}' ({} ns) within the {:.1}% tolerance — consider a larger \
                 keep fraction",
                p.label,
                p.predicted_ns,
                f.label,
                f.predicted_ns,
                tolerance * 100.0
            ));
        }
    }
    out
}

/// Selects the survivors of one rung. Candidates are grouped per model
/// *and per fidelity class* — outcomes the rung simulated exactly (the
/// cone fit the budget, so `predicted_ns` is the true value) never
/// compete against analytic busy-time estimates, whose optimism would
/// otherwise evict exactly-known contenders. Within each class: rank by
/// Pareto front over (time, memory, comm), order by
/// `(front, predicted_ns, fingerprint)`, keep
/// `max(keep_min, ceil(keep_fraction x class))`. Baseline scenarios are
/// always kept. Returns `(survivor indices, pruned indices)` into the
/// candidate list, both sorted.
fn select_survivors(
    candidates: &[Scenario],
    outcomes: &[ScenarioOutcome],
    cfg: &SearchConfig,
) -> (Vec<usize>, Vec<usize>) {
    let mut classes: BTreeMap<(&str, bool), Vec<usize>> = BTreeMap::new();
    for (i, s) in candidates.iter().enumerate() {
        let estimated = outcomes[i].sim_path == "estimate";
        classes
            .entry((s.model.as_str(), estimated))
            .or_default()
            .push(i);
    }
    let mut keep = Vec::new();
    let mut prune = Vec::new();
    for group in classes.values() {
        let grouped: Vec<&ScenarioOutcome> = group.iter().map(|&i| &outcomes[i]).collect();
        let ranks = front_ranks(&grouped);
        let mut order: Vec<usize> = (0..group.len()).collect();
        order.sort_by_key(|&k| {
            (
                ranks[k],
                outcomes[group[k]].predicted_ns,
                candidates[group[k]].fingerprint(),
            )
        });
        let quota = ((cfg.keep_fraction * group.len() as f64).ceil() as usize)
            .max(cfg.keep_min)
            .min(group.len());
        for (pos, &k) in order.iter().enumerate() {
            let i = group[k];
            if pos < quota || candidates[i].opt == OptSpec::Baseline {
                keep.push(i);
            } else {
                prune.push(i);
            }
        }
    }
    keep.sort_unstable();
    prune.sort_unstable();
    (keep, prune)
}

/// Runs the successive-halving search over a grid (see the module docs).
pub fn run_search(
    engine: &SweepEngine,
    grid: &SweepGrid,
    cfg: &SearchConfig,
) -> Result<SearchReport, String> {
    search_scenarios(engine, grid.expand()?, cfg)
}

/// Runs the search over an explicit scenario list. Duplicate
/// fingerprints collapse to their first occurrence — survivor sets are
/// fingerprint-keyed.
pub fn search_scenarios(
    engine: &SweepEngine,
    scenarios: Vec<Scenario>,
    cfg: &SearchConfig,
) -> Result<SearchReport, String> {
    cfg.validate()?;
    let mut seen = std::collections::HashSet::new();
    let scenarios: Vec<Scenario> = scenarios
        .into_iter()
        .filter(|s| seen.insert(s.fingerprint()))
        .collect();

    // P3 skips the ladder (no cheap stand-in; see module docs). Everyone
    // else starts at rung 0, carried in fingerprint order.
    let (auto, mut candidates): (Vec<Scenario>, Vec<Scenario>) = scenarios
        .into_iter()
        .partition(|s| matches!(s.opt, OptSpec::P3 { .. }));
    candidates.sort_by_key(|s| s.fingerprint());

    let mut records: BTreeMap<String, PromotionRecord> = BTreeMap::new();
    for s in candidates.iter().chain(auto.iter()) {
        records.insert(
            s.fingerprint_hex(),
            PromotionRecord {
                key: s.fingerprint_hex(),
                label: s.label(),
                rung_predictions: Vec::new(),
                pruned_at: None,
                auto_promoted: matches!(s.opt, OptSpec::P3 { .. }),
                survived: true,
            },
        );
    }

    let mut rungs = Vec::new();
    let mut pruned_outcomes: Vec<(ScenarioOutcome, usize)> = Vec::new();
    for r in 0..cfg.rungs.saturating_sub(1) {
        if candidates.is_empty() {
            break;
        }
        let budget = cfg.cone_budget(r);
        let t0 = Instant::now();
        let outcomes = engine.run_scenarios_rung(candidates.clone(), budget)?;
        let wall_ms = t0.elapsed().as_millis() as u64;
        let stats = engine.last_stats();
        for (s, o) in candidates.iter().zip(&outcomes) {
            records
                .get_mut(&s.fingerprint_hex())
                .expect("every candidate has a record")
                .rung_predictions
                .push((r, o.predicted_ns));
        }
        let (keep, prune) = select_survivors(&candidates, &outcomes, cfg);
        for &i in &prune {
            let rec = records
                .get_mut(&candidates[i].fingerprint_hex())
                .expect("every candidate has a record");
            rec.pruned_at = Some(r);
            rec.survived = false;
            pruned_outcomes.push((outcomes[i].clone(), r));
        }
        let survivors: Vec<Scenario> = keep.iter().map(|&i| candidates[i].clone()).collect();
        rungs.push(RungStats {
            rung: r,
            fidelity: Fidelity::Rung {
                max_cone_fraction: budget,
            }
            .tag(),
            expanded: candidates.len(),
            evaluated: outcomes.len(),
            kept: survivors.len(),
            pruned: prune.len(),
            incremental_sims: stats.incremental_sims,
            full_sims: stats.full_sims,
            estimate_sims: stats.estimate_sims,
            wall_ms,
            survivors: survivors.iter().map(|s| s.fingerprint_hex()).collect(),
        });
        candidates = survivors;
    }

    // Final rung: the exact path, result cache and all — identical to
    // what the exhaustive sweep would have run on this scenario set.
    let mut final_set = candidates;
    final_set.extend(auto);
    final_set.sort_by_key(|s| s.fingerprint());
    let t0 = Instant::now();
    let final_outcomes = engine.run_scenarios(final_set.clone())?;
    let wall_ms = t0.elapsed().as_millis() as u64;
    let stats = engine.last_stats();
    let final_rung = cfg.rungs - 1;
    for (s, o) in final_set.iter().zip(&final_outcomes) {
        records
            .get_mut(&s.fingerprint_hex())
            .expect("every finalist has a record")
            .rung_predictions
            .push((final_rung, o.predicted_ns));
    }
    rungs.push(RungStats {
        rung: final_rung,
        fidelity: Fidelity::Exact.tag(),
        expanded: final_set.len(),
        evaluated: final_outcomes.len(),
        kept: final_set.len(),
        pruned: 0,
        incremental_sims: stats.incremental_sims,
        full_sims: stats.full_sims,
        estimate_sims: stats.estimate_sims,
        wall_ms,
        survivors: final_set.iter().map(|s| s.fingerprint_hex()).collect(),
    });

    let report = SweepReport::from_outcomes(final_outcomes);
    let front_by_label: HashMap<&str, &ScenarioOutcome> = report
        .results
        .iter()
        .map(|o| (o.label.as_str(), o))
        .collect();
    let front: Vec<&ScenarioOutcome> = report
        .pareto_front
        .iter()
        .filter_map(|l| front_by_label.get(l.as_str()).copied())
        .collect();
    let warnings = near_miss_warnings(&pruned_outcomes, &front, cfg.tolerance);

    Ok(SearchReport {
        report,
        rungs,
        promotions: records.into_values().collect(),
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(label: &str, model: &str, ns: u64, mem: u64, comm: u64) -> ScenarioOutcome {
        ScenarioOutcome {
            key: format!("{:016x}", ns),
            label: label.into(),
            model: model.into(),
            batch: 4,
            opt: label.into(),
            baseline_ns: 1000,
            predicted_ns: ns,
            speedup: 1000.0 / ns as f64,
            memory_bytes: mem,
            comm_bytes: comm,
            sim_path: "estimate".into(),
            tasks_redispatched: 0,
            cached: false,
        }
    }

    #[test]
    fn front_ranks_peel_in_dominance_order() {
        let a = outcome("a", "m", 100, 10, 0); // front 0
        let b = outcome("b", "m", 200, 5, 0); // front 0 (memory trade-off)
        let c = outcome("c", "m", 150, 20, 0); // dominated by a
        let d = outcome("d", "m", 300, 30, 0); // dominated by everything
        let ranks = front_ranks(&[&a, &b, &c, &d]);
        assert_eq!(ranks, vec![0, 0, 1, 2]);
    }

    #[test]
    fn near_miss_flags_only_within_tolerance() {
        let survivor = outcome("winner", "m", 1000, 100, 0);
        let close = outcome("close", "m", 1010, 100, 0); // 1% behind
        let far = outcome("far", "m", 2000, 100, 0); // 100% behind
        let other_model = outcome("close-other", "x", 1010, 100, 0);
        let front = vec![&survivor];
        let pruned = vec![
            (close.clone(), 0),
            (far.clone(), 0),
            (other_model.clone(), 1),
        ];
        let warnings = near_miss_warnings(&pruned, &front, 0.02);
        assert_eq!(warnings.len(), 1, "only the within-tolerance pruning");
        assert!(warnings[0].contains("'close'"));
        assert!(warnings[0].contains("rung 0"));
        // Zero tolerance: nothing strictly dominated can be "within".
        assert!(near_miss_warnings(&pruned, &front, 0.0).is_empty());
    }

    #[test]
    fn select_survivors_keeps_baseline_and_respects_quota() {
        let candidates = vec![
            Scenario::new("ResNet-50", 4, OptSpec::Baseline),
            Scenario::new("ResNet-50", 4, OptSpec::Amp),
            Scenario::new("ResNet-50", 4, OptSpec::Gist { lossy: false }),
            Scenario::new("ResNet-50", 4, OptSpec::Gist { lossy: true }),
        ];
        // Baseline is the *slowest* here; amp fastest.
        let outcomes = vec![
            outcome("baseline", "ResNet-50", 1000, 100, 0),
            outcome("amp", "ResNet-50", 400, 90, 0),
            outcome("gist", "ResNet-50", 600, 80, 0),
            outcome("gist-lossy", "ResNet-50", 900, 95, 0),
        ];
        let cfg = SearchConfig {
            keep_fraction: 0.25,
            keep_min: 1,
            ..SearchConfig::default()
        };
        let (keep, prune) = select_survivors(&candidates, &outcomes, &cfg);
        // Quota is 1 (amp, front 0 + fastest), baseline rides along.
        assert!(keep.contains(&0), "baseline always survives");
        assert!(keep.contains(&1), "the dominant scenario survives");
        assert_eq!(keep.len(), 2);
        assert_eq!(prune, vec![2, 3]);
    }

    #[test]
    fn keep_fraction_one_prunes_nothing() {
        let candidates = vec![
            Scenario::new("ResNet-50", 4, OptSpec::Amp),
            Scenario::new("BERT_Base", 4, OptSpec::Amp),
        ];
        let outcomes = vec![
            outcome("a", "ResNet-50", 100, 1, 0),
            outcome("b", "BERT_Base", 999, 999, 999),
        ];
        let cfg = SearchConfig {
            keep_fraction: 1.0,
            keep_min: 1,
            ..SearchConfig::default()
        };
        let (keep, prune) = select_survivors(&candidates, &outcomes, &cfg);
        assert_eq!(keep.len(), 2);
        assert!(prune.is_empty());
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let bad = |f: fn(&mut SearchConfig)| {
            let mut cfg = SearchConfig::default();
            f(&mut cfg);
            cfg.validate().unwrap_err()
        };
        assert!(bad(|c| c.rungs = 0).contains("at least one rung"));
        assert!(bad(|c| c.keep_fraction = 0.0).contains("keep fraction"));
        assert!(bad(|c| c.keep_fraction = 1.5).contains("keep fraction"));
        assert!(bad(|c| c.keep_min = 0).contains("keep-min"));
        assert!(bad(|c| c.tolerance = -0.1).contains("tolerance"));
        assert!(bad(|c| c.cone_budgets = vec![0.0]).contains("cone budget"));
        assert!(bad(|c| c.cone_budgets = vec![]).contains("cone budget"));
        assert!(SearchConfig::default().validate().is_ok());
    }
}
