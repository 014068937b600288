//! Ranked sweep reports: per-scenario outcomes, best-per-axis winners,
//! and the Pareto front of predicted time vs. resource cost.
//!
//! Follows the report conventions of `daydream_core::report`: plain
//! serde-derived structs plus free functions, JSON via `serde_json`,
//! CSV rows matching `daydream_bench::Table::write_csv`'s format.

use serde::{Deserialize, Serialize};

/// The evaluated result of one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Content-hash fingerprint, fixed-width hex (the cache key).
    pub key: String,
    /// Canonical scenario label, e.g. `"ResNet-50 b8 dgc[m4x1 bw10 r0.01]"`.
    pub label: String,
    /// Model name.
    pub model: String,
    /// Profiled batch size.
    pub batch: u64,
    /// Parameterized optimization label.
    pub opt: String,
    /// Simulated baseline iteration time, ns.
    pub baseline_ns: u64,
    /// Simulated post-transformation iteration time, ns.
    pub predicted_ns: u64,
    /// `baseline / predicted`.
    pub speedup: f64,
    /// Estimated per-GPU memory footprint under the optimization, bytes.
    pub memory_bytes: u64,
    /// Estimated network bytes per iteration (0 for single-GPU what-ifs).
    pub comm_bytes: u64,
    /// Simulation path that produced the prediction: `"incremental"`
    /// (re-dispatch over the base schedule: a patch's cone, or a P3
    /// plan run copy by copy after its first unrolled iteration, which
    /// replays the timing the plan's build took), `"full"` (complete
    /// re-simulation),
    /// `"estimate"` (a search rung's busy-time bound), or `"baseline"`
    /// (no patched simulation at all). Deterministic per scenario, so
    /// sharded and single-process sweeps agree byte-for-byte.
    pub sim_path: String,
    /// Tasks the simulator re-dispatched to evaluate this scenario (the
    /// cone size on the incremental path, the tasks after the first
    /// iteration of both P3 plans, the whole graph on a full
    /// re-simulation).
    pub tasks_redispatched: u64,
    /// Whether this outcome came from the result cache.
    pub cached: bool,
}

impl ScenarioOutcome {
    /// Predicted iteration time in milliseconds.
    pub fn predicted_ms(&self) -> f64 {
        self.predicted_ns as f64 / 1e6
    }
}

/// `a` dominates `b` when it is no worse on every objective and strictly
/// better on at least one (all objectives minimized).
pub(crate) fn dominates(a: &ScenarioOutcome, b: &ScenarioOutcome) -> bool {
    let no_worse = a.predicted_ns <= b.predicted_ns
        && a.memory_bytes <= b.memory_bytes
        && a.comm_bytes <= b.comm_bytes;
    let better = a.predicted_ns < b.predicted_ns
        || a.memory_bytes < b.memory_bytes
        || a.comm_bytes < b.comm_bytes;
    no_worse && better
}

/// The winner along one axis value (e.g. the best scenario for one model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisBest {
    /// Axis name (`"model"` or `"opt"`).
    pub axis: String,
    /// Axis value the winner was selected within.
    pub value: String,
    /// Winning scenario label.
    pub label: String,
    /// Winner's predicted iteration time, ns.
    pub predicted_ns: u64,
    /// Winner's speedup over its own baseline.
    pub speedup: f64,
}

/// A ranked, serializable sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Scenarios evaluated (executed + cache hits).
    pub scenario_count: usize,
    /// Scenarios actually executed this run.
    pub executed: usize,
    /// Scenarios answered from the result cache.
    pub cache_hits: usize,
    /// Scenarios whose prediction re-dispatched over the base schedule
    /// (`sim_path` `"incremental"`: a cone, or both P3 plans run copy by
    /// copy).
    pub incremental_sims: usize,
    /// Scenarios that required a full re-simulation.
    pub full_sims: usize,
    /// Total tasks re-dispatched across all scenario evaluations.
    pub tasks_redispatched: u64,
    /// All outcomes, ranked by predicted time (ties by label).
    pub results: Vec<ScenarioOutcome>,
    /// Fastest scenario within each model.
    pub best_per_model: Vec<AxisBest>,
    /// Highest-speedup scenario within each optimization family
    /// (speedup, not absolute time, so models of different sizes
    /// compare fairly).
    pub best_per_opt: Vec<AxisBest>,
    /// Labels of the Pareto front over (predicted time, memory, comm),
    /// computed within each model (absolute times across models of
    /// different sizes are not comparable trade-offs), in ranked order.
    pub pareto_front: Vec<String>,
}

impl SweepReport {
    /// Ranks outcomes and derives the per-axis winners and Pareto front.
    pub fn from_outcomes(mut results: Vec<ScenarioOutcome>) -> Self {
        results.sort_by(|a, b| {
            a.predicted_ns
                .cmp(&b.predicted_ns)
                .then_with(|| a.label.cmp(&b.label))
        });
        let cache_hits = results.iter().filter(|o| o.cached).count();
        let scenario_count = results.len();
        let incremental_sims = results
            .iter()
            .filter(|o| o.sim_path == "incremental")
            .count();
        let full_sims = results.iter().filter(|o| o.sim_path == "full").count();
        let tasks_redispatched = results.iter().map(|o| o.tasks_redispatched).sum();

        let best_per_model = axis_best(
            &results,
            "model",
            |o| o.model.clone(),
            |o| (o.predicted_ns, o.label.clone()),
        );
        // Family = opt label up to the first `[`.
        let best_per_opt = axis_best(
            &results,
            "opt",
            |o| o.opt.split('[').next().unwrap_or(&o.opt).to_string(),
            // Max speedup == min (1/speedup); encode as sortable key.
            |o| ((1e12 / o.speedup.max(1e-12)) as u64, o.label.clone()),
        );

        // Group same-model peers once and compare by reference; results
        // are already ranked, so each group preserves ranked order.
        let mut by_model: std::collections::BTreeMap<&str, Vec<&ScenarioOutcome>> =
            std::collections::BTreeMap::new();
        for o in &results {
            by_model.entry(o.model.as_str()).or_default().push(o);
        }
        let pareto_front = results
            .iter()
            .filter(|o| by_model[o.model.as_str()].iter().all(|p| !dominates(p, o)))
            .map(|o| o.label.clone())
            .collect();

        SweepReport {
            scenario_count,
            executed: scenario_count - cache_hits,
            cache_hits,
            incremental_sims,
            full_sims,
            tasks_redispatched,
            results,
            best_per_model,
            best_per_opt,
            pareto_front,
        }
    }

    /// Serializes the full report as pretty JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Serializes the ranked results as CSV (one row per scenario).
    /// Text fields are RFC 4180-escaped: scenario option labels can
    /// carry commas (`dgc[... ratio=0.01,momentum]`-style parameter
    /// lists), which would otherwise shift every later column.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "rank,label,model,batch,opt,baseline_ms,predicted_ms,speedup,memory_gib,comm_mib,sim_path,redispatched,cached\n",
        );
        for (i, o) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{}\n",
                i + 1,
                csv_field(&o.label),
                csv_field(&o.model),
                o.batch,
                csv_field(&o.opt),
                o.baseline_ns as f64 / 1e6,
                o.predicted_ns as f64 / 1e6,
                o.speedup,
                o.memory_bytes as f64 / (1u64 << 30) as f64,
                o.comm_bytes as f64 / (1u64 << 20) as f64,
                csv_field(&o.sim_path),
                o.tasks_redispatched,
                o.cached
            ));
        }
        out
    }

    /// Renders a ranked text table of the top `top` rows plus the
    /// per-axis winners and Pareto front.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} scenarios ({} executed, {} cache hits; {} incremental sims, {} full sims, {} tasks re-dispatched)\n\n",
            self.scenario_count,
            self.executed,
            self.cache_hits,
            self.incremental_sims,
            self.full_sims,
            self.tasks_redispatched
        ));
        out.push_str(&format!(
            "{:<4} {:<44} {:>12} {:>12} {:>8} {:>9} {:>9}\n",
            "#", "scenario", "baseline ms", "predicted ms", "speedup", "mem GiB", "comm MiB"
        ));
        for (i, o) in self.results.iter().take(top).enumerate() {
            out.push_str(&format!(
                "{:<4} {:<44} {:>12.2} {:>12.2} {:>7.2}x {:>9.2} {:>9.1}{}\n",
                i + 1,
                o.label,
                o.baseline_ns as f64 / 1e6,
                o.predicted_ns as f64 / 1e6,
                o.speedup,
                o.memory_bytes as f64 / (1u64 << 30) as f64,
                o.comm_bytes as f64 / (1u64 << 20) as f64,
                if o.cached { "  (cached)" } else { "" }
            ));
        }
        if self.results.len() > top {
            out.push_str(&format!("... {} more rows\n", self.results.len() - top));
        }
        out.push_str("\nbest per model:\n");
        for b in &self.best_per_model {
            out.push_str(&format!(
                "  {:<14} {} ({:.2} ms, {:.2}x)\n",
                b.value,
                b.label,
                b.predicted_ns as f64 / 1e6,
                b.speedup
            ));
        }
        out.push_str("best per optimization:\n");
        for b in &self.best_per_opt {
            out.push_str(&format!(
                "  {:<14} {} ({:.2} ms, {:.2}x)\n",
                b.value,
                b.label,
                b.predicted_ns as f64 / 1e6,
                b.speedup
            ));
        }
        out.push_str(&format!(
            "pareto front (time vs memory vs comm), {} scenarios:\n",
            self.pareto_front.len()
        ));
        for label in &self.pareto_front {
            out.push_str(&format!("  {label}\n"));
        }
        out
    }
}

/// RFC 4180 field escaping: fields containing a comma, quote, or line
/// break are wrapped in double quotes, with embedded quotes doubled.
/// Everything else passes through unquoted, keeping the common case
/// byte-identical to the historical output.
fn csv_field(s: &str) -> std::borrow::Cow<'_, str> {
    if s.contains([',', '"', '\n', '\r']) {
        std::borrow::Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        std::borrow::Cow::Borrowed(s)
    }
}

/// Groups outcomes by an axis key and picks the minimum-ranked entry of
/// each group (deterministic: the rank key embeds the label).
fn axis_best<K, R>(
    results: &[ScenarioOutcome],
    axis: &str,
    key: impl Fn(&ScenarioOutcome) -> String,
    rank: impl Fn(&ScenarioOutcome) -> (R, K),
) -> Vec<AxisBest>
where
    R: Ord,
    K: Ord,
{
    let mut groups: std::collections::BTreeMap<String, &ScenarioOutcome> =
        std::collections::BTreeMap::new();
    for o in results {
        let k = key(o);
        match groups.get(&k) {
            Some(best) if rank(best) <= rank(o) => {}
            _ => {
                groups.insert(k, o);
            }
        }
    }
    groups
        .into_iter()
        .map(|(value, o)| AxisBest {
            axis: axis.to_string(),
            value,
            label: o.label.clone(),
            predicted_ns: o.predicted_ns,
            speedup: o.speedup,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(
        label: &str,
        model: &str,
        opt: &str,
        pred: u64,
        mem: u64,
        comm: u64,
    ) -> ScenarioOutcome {
        ScenarioOutcome {
            key: format!("{:016x}", crate::scenario::fnv1a64(label.as_bytes())),
            label: label.into(),
            model: model.into(),
            batch: 8,
            opt: opt.into(),
            baseline_ns: 100,
            predicted_ns: pred,
            speedup: 100.0 / pred as f64,
            memory_bytes: mem,
            comm_bytes: comm,
            sim_path: "incremental".into(),
            tasks_redispatched: 7,
            cached: false,
        }
    }

    #[test]
    fn ranks_by_predicted_time() {
        let r = SweepReport::from_outcomes(vec![
            outcome("slow", "A", "amp", 90, 10, 0),
            outcome("fast", "A", "gist[lossless]", 50, 10, 0),
        ]);
        assert_eq!(r.results[0].label, "fast");
        assert_eq!(r.best_per_model[0].label, "fast");
    }

    #[test]
    fn pareto_front_is_nondominated() {
        let r = SweepReport::from_outcomes(vec![
            // Fastest but memory-hungry: on the front.
            outcome("a", "A", "amp", 50, 100, 0),
            // Slower but smallest memory: on the front.
            outcome("b", "A", "gist[lossy]", 70, 40, 0),
            // Dominated by `a` (slower AND bigger).
            outcome("c", "A", "vdnn[la2]", 80, 120, 0),
            // Fast but pays comm: still nondominated (unique comm trade).
            outcome("d", "A", "ddp[m4x1 bw10]", 40, 100, 500),
        ]);
        assert!(r.pareto_front.contains(&"a".to_string()));
        assert!(r.pareto_front.contains(&"b".to_string()));
        assert!(!r.pareto_front.contains(&"c".to_string()));
        assert!(r.pareto_front.contains(&"d".to_string()));
    }

    #[test]
    fn best_per_opt_uses_speedup_across_models() {
        let r = SweepReport::from_outcomes(vec![
            // Big model: slow in absolute terms but 2x speedup.
            {
                let mut o = outcome("big amp", "Big", "amp", 5000, 10, 0);
                o.baseline_ns = 10_000;
                o.speedup = 2.0;
                o
            },
            // Small model: fast absolute time, only 1.1x.
            {
                let mut o = outcome("small amp", "Small", "amp", 90, 10, 0);
                o.baseline_ns = 99;
                o.speedup = 1.1;
                o
            },
        ]);
        assert_eq!(r.best_per_opt.len(), 1);
        assert_eq!(
            r.best_per_opt[0].label, "big amp",
            "speedup beats absolute time"
        );
    }

    #[test]
    fn csv_and_json_round_trip() {
        let r = SweepReport::from_outcomes(vec![outcome("a", "A", "amp", 50, 100, 0)]);
        let csv = r.to_csv();
        assert!(csv.starts_with("rank,label,model"));
        assert_eq!(csv.lines().count(), 2);
        let back: SweepReport = serde_json::from_str(&r.to_json().unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        // Option labels can carry comma-separated parameter lists; a
        // quote inside a label must be doubled per RFC 4180.
        let r = SweepReport::from_outcomes(vec![outcome(
            "A b8 dgc[ratio=0.01,momentum=0.9]",
            "A",
            "dgc[ratio=0.01,momentum=0.9] \"warm\"",
            50,
            100,
            0,
        )]);
        let csv = r.to_csv();
        let row = csv.lines().nth(1).unwrap();
        assert!(
            row.starts_with("1,\"A b8 dgc[ratio=0.01,momentum=0.9]\",A,8,"),
            "comma-bearing label must be quoted, got: {row}"
        );
        assert!(
            row.contains("\"dgc[ratio=0.01,momentum=0.9] \"\"warm\"\"\""),
            "embedded quotes must be doubled, got: {row}"
        );
        // Unquoting the escaped fields restores the exact column count.
        let mut cols = 0usize;
        let mut in_quotes = false;
        for c in row.chars() {
            match c {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => cols += 1,
                _ => {}
            }
        }
        assert_eq!(cols + 1, 13, "escaped row parses to 13 columns");
        // Comma-free fields stay unquoted (historical output unchanged).
        let plain = SweepReport::from_outcomes(vec![outcome("a", "A", "amp", 50, 100, 0)]);
        assert!(plain
            .to_csv()
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("1,a,A,8,amp,"));
    }

    #[test]
    fn cache_hit_accounting() {
        let mut cached = outcome("a", "A", "amp", 50, 100, 0);
        cached.cached = true;
        let r = SweepReport::from_outcomes(vec![
            cached,
            outcome("b", "A", "gist[lossless]", 60, 90, 0),
        ]);
        assert_eq!((r.scenario_count, r.executed, r.cache_hits), (2, 1, 1));
    }

    #[test]
    fn sim_path_accounting() {
        let mut full = outcome("b", "A", "gist[lossless]", 60, 90, 0);
        full.sim_path = "full".into();
        full.tasks_redispatched = 100;
        let mut baseline = outcome("c", "A", "baseline", 100, 90, 0);
        baseline.sim_path = "baseline".into();
        baseline.tasks_redispatched = 0;
        let r =
            SweepReport::from_outcomes(vec![outcome("a", "A", "amp", 50, 100, 0), full, baseline]);
        assert_eq!((r.incremental_sims, r.full_sims), (1, 1));
        assert_eq!(r.tasks_redispatched, 107);
        let csv = r.to_csv();
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .contains("sim_path,redispatched"));
        assert!(csv.contains(",incremental,7,"));
    }
}
