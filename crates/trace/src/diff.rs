//! Schedule↔trace fidelity diff: aligns a *simulated* trace against a
//! *ground-truth* trace and attributes the prediction error.
//!
//! Daydream's contract is that simulated schedules track real runs; this
//! module measures how far off they are and which ops drift. Activities
//! are aligned by (lane, op name, occurrence index in start order) — the
//! natural key for two traces of the same iteration — and annotated with
//! the layer/phase the ground-truth markers assign. The result carries:
//!
//! - per-op absolute + relative timing error ([`OpDiff`]);
//! - per-lane match counts, busy-time error, and start-time MAE
//!   ([`LaneDiff`]);
//! - per-phase rollups and an end-to-end iteration error;
//! - a ranked "worst offenders" attribution table ([`OpGroupError`])
//!   pointing cost-model recalibration at the op names that contribute
//!   the most absolute error.

use crate::activity::Activity;
use crate::ids::{Lane, LayerId};
use crate::marker::Phase;
use crate::trace::Trace;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};

/// One aligned (simulated, ground-truth) activity pair.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OpDiff {
    /// Op (kernel / API / comm) name shared by both records.
    pub name: String,
    /// Lane both records live on.
    pub lane: Lane,
    /// Occurrence index of this name on this lane (0-based, start order).
    pub index: usize,
    /// Layer the ground-truth markers assign, if any.
    pub layer: Option<LayerId>,
    /// Phase the ground-truth markers assign, if any.
    pub phase: Option<Phase>,
    /// Simulated start timestamp (ns).
    pub sim_start_ns: u64,
    /// Ground-truth start timestamp (ns).
    pub truth_start_ns: u64,
    /// Simulated duration (ns).
    pub sim_dur_ns: u64,
    /// Ground-truth duration (ns).
    pub truth_dur_ns: u64,
}

impl OpDiff {
    /// Signed start-time error (sim − truth), nanoseconds.
    pub fn start_err_ns(&self) -> i64 {
        self.sim_start_ns as i64 - self.truth_start_ns as i64
    }

    /// Signed duration error (sim − truth), nanoseconds.
    pub fn dur_err_ns(&self) -> i64 {
        self.sim_dur_ns as i64 - self.truth_dur_ns as i64
    }
}

/// Per-lane alignment and timing-error statistics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LaneDiff {
    /// The lane.
    pub lane: Lane,
    /// Aligned pairs on this lane.
    pub matched: usize,
    /// Simulated activities with no ground-truth partner.
    pub sim_only: usize,
    /// Ground-truth activities with no simulated partner.
    pub truth_only: usize,
    /// Σ duration of the lane's simulated activities (ns).
    pub sim_busy_ns: u64,
    /// Σ duration of the lane's ground-truth activities (ns).
    pub truth_busy_ns: u64,
    /// Σ |duration error| over matched pairs (ns).
    pub abs_dur_err_ns: u64,
    /// Mean |start error| over matched pairs (ns).
    pub start_mae_ns: u64,
}

/// Per-phase rollup of matched-pair durations.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseDiff {
    /// The training phase (per ground-truth markers).
    pub phase: Phase,
    /// Matched pairs attributed to the phase.
    pub matched: usize,
    /// Σ ground-truth duration (ns).
    pub truth_ns: u64,
    /// Σ simulated duration (ns).
    pub sim_ns: u64,
    /// Σ |duration error| (ns).
    pub abs_err_ns: u64,
}

/// One row of the ranked "worst offenders" attribution table: all
/// occurrences of one op name, ordered by total absolute duration error.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OpGroupError {
    /// Op name.
    pub name: String,
    /// Aligned pairs with this name.
    pub matched: usize,
    /// Σ ground-truth duration (ns).
    pub truth_ns: u64,
    /// Σ simulated duration (ns).
    pub sim_ns: u64,
    /// Σ |duration error| (ns) — the ranking key.
    pub abs_err_ns: u64,
    /// `abs_err_ns / truth_ns`; 0 when truth is 0.
    pub rel_err: f64,
    /// This op's share of the total absolute duration error.
    pub share: f64,
}

/// The full fidelity diff of a simulated trace against ground truth.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceDiff {
    /// Simulated iteration span (meta window, falling back to activity span).
    pub sim_span_ns: u64,
    /// Ground-truth iteration span.
    pub truth_span_ns: u64,
    /// Aligned pairs across all lanes.
    pub matched: usize,
    /// Simulated activities with no partner.
    pub sim_only: usize,
    /// Ground-truth activities with no partner.
    pub truth_only: usize,
    /// Every aligned pair.
    pub ops: Vec<OpDiff>,
    /// Per-lane statistics, lane order.
    pub lanes: Vec<LaneDiff>,
    /// Per-phase rollups, phase order.
    pub phases: Vec<PhaseDiff>,
    /// Ranked attribution table (largest `abs_err_ns` first).
    pub attribution: Vec<OpGroupError>,
}

impl TraceDiff {
    /// Signed end-to-end iteration error (sim − truth) / truth.
    pub fn end_to_end_rel_err(&self) -> f64 {
        if self.truth_span_ns == 0 {
            0.0
        } else {
            (self.sim_span_ns as f64 - self.truth_span_ns as f64) / self.truth_span_ns as f64
        }
    }

    /// Fraction of ground-truth activities that found a simulated partner.
    pub fn match_fraction(&self) -> f64 {
        let total = self.matched + self.truth_only;
        if total == 0 {
            1.0
        } else {
            self.matched as f64 / total as f64
        }
    }

    /// `true` when both the end-to-end error and the unmatched-op
    /// fraction are inside the tolerance budget.
    pub fn within_tolerance(&self, tol: f64) -> bool {
        self.end_to_end_rel_err().abs() <= tol && (1.0 - self.match_fraction()) <= tol
    }

    /// Serializes the whole diff as JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// The attribution table as CSV (`rank,op,...`), ranked worst-first.
    pub fn attribution_csv(&self) -> String {
        let mut out = String::from("rank,op,matched,truth_ns,sim_ns,abs_err_ns,rel_err,share\n");
        for (i, g) in self.attribution.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{},{},{},{},{:.6},{:.6}\n",
                i + 1,
                g.name,
                g.matched,
                g.truth_ns,
                g.sim_ns,
                g.abs_err_ns,
                g.rel_err,
                g.share
            ));
        }
        out
    }

    /// Renders the human-readable report: end-to-end error, per-lane
    /// table, per-phase rollup, and the top-`top` worst offenders.
    pub fn render(&self, top: usize) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::new();
        out.push_str(&format!(
            "end-to-end: sim {:.3} ms vs truth {:.3} ms ({:+.2}%)\n",
            ms(self.sim_span_ns),
            ms(self.truth_span_ns),
            self.end_to_end_rel_err() * 100.0
        ));
        out.push_str(&format!(
            "ops:        {} matched, {} sim-only, {} truth-only ({:.1}% matched)\n\n",
            self.matched,
            self.sim_only,
            self.truth_only,
            self.match_fraction() * 100.0
        ));
        out.push_str(&format!(
            "{:<16} {:>7} {:>8} {:>10} {:>11} {:>11} {:>10}\n",
            "lane", "matched", "unpaired", "truth(ms)", "sim(ms)", "|Δdur|(ms)", "startMAE"
        ));
        for l in &self.lanes {
            out.push_str(&format!(
                "{:<16} {:>7} {:>8} {:>10.3} {:>11.3} {:>11.3} {:>9.3}µ\n",
                l.lane.to_string(),
                l.matched,
                l.sim_only + l.truth_only,
                ms(l.truth_busy_ns),
                ms(l.sim_busy_ns),
                ms(l.abs_dur_err_ns),
                l.start_mae_ns as f64 / 1e3
            ));
        }
        if !self.phases.is_empty() {
            out.push('\n');
            out.push_str(&format!(
                "{:<6} {:>7} {:>10} {:>11} {:>11}\n",
                "phase", "matched", "truth(ms)", "sim(ms)", "|Δdur|(ms)"
            ));
            for p in &self.phases {
                out.push_str(&format!(
                    "{:<6} {:>7} {:>10.3} {:>11.3} {:>11.3}\n",
                    p.phase.to_string(),
                    p.matched,
                    ms(p.truth_ns),
                    ms(p.sim_ns),
                    ms(p.abs_err_ns)
                ));
            }
        }
        out.push_str(&format!("\nworst offenders (top {top} by Σ|Δdur|):\n"));
        out.push_str(&format!(
            "{:<4} {:<32} {:>5} {:>10} {:>11} {:>11} {:>8} {:>7}\n",
            "rank", "op", "n", "truth(ms)", "sim(ms)", "|Δ|(ms)", "rel", "share"
        ));
        for (i, g) in self.attribution.iter().take(top).enumerate() {
            out.push_str(&format!(
                "{:<4} {:<32} {:>5} {:>10.3} {:>11.3} {:>11.3} {:>7.2}% {:>6.1}%\n",
                i + 1,
                g.name,
                g.matched,
                ms(g.truth_ns),
                ms(g.sim_ns),
                ms(g.abs_err_ns),
                g.rel_err * 100.0,
                g.share * 100.0
            ));
        }
        out
    }
}

/// Iteration span of a trace: the meta window when recorded, otherwise
/// the activity span (simulated exports start at 0).
fn span_ns(t: &Trace) -> u64 {
    let meta = t.meta.iteration_ns();
    if meta > 0 {
        meta
    } else {
        t.span_ns()
    }
}

/// Looks up the layer/phase the ground-truth markers assign to one
/// truth-side activity: CPU records by containing marker window on the
/// same thread, GPU records through their launch API (paper §4.3).
fn classify(
    truth: &Trace,
    launches: &HashMap<crate::ids::CorrelationId, crate::ids::ActivityId>,
    a: &Activity,
) -> Option<(LayerId, Phase)> {
    let (thread, at_ns) = match a.lane {
        Lane::Cpu(t) => (t, a.start_ns),
        Lane::Gpu(..) => {
            let api_id = launches.get(&a.correlation?)?;
            let api = truth.activity(*api_id);
            match api.lane {
                Lane::Cpu(t) => (t, api.start_ns),
                Lane::Gpu(..) => return None,
            }
        }
    };
    truth
        .markers
        .iter()
        .find(|m| m.thread == thread && m.contains(at_ns))
        .map(|m| (m.layer, m.phase))
}

/// Activities of one trace grouped by (lane, name), each group in start
/// order — the occurrence index inside a group is the alignment key.
fn by_key(t: &Trace) -> BTreeMap<(Lane, &str), Vec<&Activity>> {
    let mut map: BTreeMap<(Lane, &str), Vec<&Activity>> = BTreeMap::new();
    for a in &t.activities {
        map.entry((a.lane, a.name.as_str())).or_default().push(a);
    }
    for group in map.values_mut() {
        group.sort_by_key(|a| (a.start_ns, a.end_ns()));
    }
    map
}

/// Aligns `sim` against `truth` and computes the full fidelity diff.
pub fn diff_traces(sim: &Trace, truth: &Trace) -> TraceDiff {
    let sim_keys = by_key(sim);
    let truth_keys = by_key(truth);
    let launches = truth.launch_by_correlation();

    let mut ops = Vec::new();
    let mut lane_acc: BTreeMap<Lane, LaneDiff> = BTreeMap::new();
    fn lane_entry(acc: &mut BTreeMap<Lane, LaneDiff>, lane: Lane) -> &mut LaneDiff {
        acc.entry(lane).or_insert_with(|| LaneDiff {
            lane,
            matched: 0,
            sim_only: 0,
            truth_only: 0,
            sim_busy_ns: 0,
            truth_busy_ns: 0,
            abs_dur_err_ns: 0,
            start_mae_ns: 0,
        })
    }

    // Matched pairs + truth-only leftovers, walking the truth keys.
    for (&(lane, name), truth_group) in &truth_keys {
        let sim_group = sim_keys
            .get(&(lane, name))
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let l = lane_entry(&mut lane_acc, lane);
        for (index, t_act) in truth_group.iter().enumerate() {
            l.truth_busy_ns += t_act.dur_ns;
            match sim_group.get(index) {
                Some(s_act) => {
                    let (layer, phase) = classify(truth, &launches, t_act)
                        .map(|(l, p)| (Some(l), Some(p)))
                        .unwrap_or((None, None));
                    let d = OpDiff {
                        name: name.to_string(),
                        lane,
                        index,
                        layer,
                        phase,
                        sim_start_ns: s_act.start_ns,
                        truth_start_ns: t_act.start_ns,
                        sim_dur_ns: s_act.dur_ns,
                        truth_dur_ns: t_act.dur_ns,
                    };
                    l.matched += 1;
                    l.abs_dur_err_ns += d.dur_err_ns().unsigned_abs();
                    l.start_mae_ns += d.start_err_ns().unsigned_abs();
                    ops.push(d);
                }
                None => l.truth_only += 1,
            }
        }
    }
    // Sim-only leftovers (and busy time), walking the sim keys.
    for (&(lane, name), sim_group) in &sim_keys {
        let truth_len = truth_keys.get(&(lane, name)).map(Vec::len).unwrap_or(0);
        let l = lane_entry(&mut lane_acc, lane);
        l.sim_busy_ns += sim_group.iter().map(|a| a.dur_ns).sum::<u64>();
        l.sim_only += sim_group.len().saturating_sub(truth_len);
    }
    for l in lane_acc.values_mut() {
        if l.matched > 0 {
            l.start_mae_ns /= l.matched as u64;
        }
    }

    // Diff rows in (lane, start) order for stable output.
    ops.sort_by(|a, b| {
        (a.lane, a.truth_start_ns, &a.name, a.index).cmp(&(
            b.lane,
            b.truth_start_ns,
            &b.name,
            b.index,
        ))
    });

    // Phase rollup.
    let mut phase_acc: BTreeMap<Phase, PhaseDiff> = BTreeMap::new();
    for d in &ops {
        if let Some(phase) = d.phase {
            let p = phase_acc.entry(phase).or_insert_with(|| PhaseDiff {
                phase,
                matched: 0,
                truth_ns: 0,
                sim_ns: 0,
                abs_err_ns: 0,
            });
            p.matched += 1;
            p.truth_ns += d.truth_dur_ns;
            p.sim_ns += d.sim_dur_ns;
            p.abs_err_ns += d.dur_err_ns().unsigned_abs();
        }
    }

    // Ranked per-op-name attribution.
    let mut groups: BTreeMap<&str, OpGroupError> = BTreeMap::new();
    for d in &ops {
        let g = groups
            .entry(d.name.as_str())
            .or_insert_with(|| OpGroupError {
                name: d.name.clone(),
                matched: 0,
                truth_ns: 0,
                sim_ns: 0,
                abs_err_ns: 0,
                rel_err: 0.0,
                share: 0.0,
            });
        g.matched += 1;
        g.truth_ns += d.truth_dur_ns;
        g.sim_ns += d.sim_dur_ns;
        g.abs_err_ns += d.dur_err_ns().unsigned_abs();
    }
    let total_abs_err: u64 = groups.values().map(|g| g.abs_err_ns).sum();
    let mut attribution: Vec<OpGroupError> = groups
        .into_values()
        .map(|mut g| {
            if g.truth_ns > 0 {
                g.rel_err = g.abs_err_ns as f64 / g.truth_ns as f64;
            }
            if total_abs_err > 0 {
                g.share = g.abs_err_ns as f64 / total_abs_err as f64;
            }
            g
        })
        .collect();
    attribution.sort_by(|a, b| b.abs_err_ns.cmp(&a.abs_err_ns).then(a.name.cmp(&b.name)));

    let lanes: Vec<LaneDiff> = lane_acc.into_values().collect();
    TraceDiff {
        sim_span_ns: span_ns(sim),
        truth_span_ns: span_ns(truth),
        matched: lanes.iter().map(|l| l.matched).sum(),
        sim_only: lanes.iter().map(|l| l.sim_only).sum(),
        truth_only: lanes.iter().map(|l| l.truth_only).sum(),
        ops,
        lanes,
        phases: phase_acc.into_values().collect(),
        attribution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{ActivityKind, CudaApi};
    use crate::ids::{CorrelationId, CpuThreadId, DeviceId, StreamId};
    use crate::marker::LayerMarker;
    use crate::meta::{Framework, TraceMeta};

    fn meta(end: u64) -> TraceMeta {
        TraceMeta {
            model: "toy".into(),
            framework: Framework::PyTorch,
            batch_size: 1,
            device: "test".into(),
            iteration_start_ns: 0,
            iteration_end_ns: end,
            gradients: vec![],
            buckets: vec![],
        }
    }

    fn launch(start: u64, corr: u64) -> Activity {
        Activity {
            name: "cudaLaunchKernel".into(),
            kind: ActivityKind::RuntimeApi(CudaApi::LaunchKernel),
            lane: Lane::Cpu(CpuThreadId(0)),
            start_ns: start,
            dur_ns: 10,
            correlation: Some(CorrelationId(corr)),
        }
    }

    fn kernel(name: &str, start: u64, dur: u64, corr: u64) -> Activity {
        Activity {
            name: name.into(),
            kind: ActivityKind::Kernel,
            lane: Lane::Gpu(DeviceId(0), StreamId(0)),
            start_ns: start,
            dur_ns: dur,
            correlation: Some(CorrelationId(corr)),
        }
    }

    fn truth() -> Trace {
        let mut t = Trace::empty(meta(1_000));
        t.activities.push(launch(0, 1));
        t.activities.push(launch(20, 2));
        t.activities.push(kernel("sgemm", 15, 100, 1));
        t.activities.push(kernel("relu", 120, 50, 2));
        t.markers.push(LayerMarker {
            layer: LayerId(0),
            phase: Phase::Forward,
            thread: CpuThreadId(0),
            start_ns: 0,
            end_ns: 40,
        });
        t
    }

    fn sim() -> Trace {
        // Same shape, sgemm 10ns fast, relu 5ns slow, iteration 950ns.
        let mut t = Trace::empty(meta(950));
        t.activities.push(launch(0, 1));
        t.activities.push(launch(20, 2));
        t.activities.push(kernel("sgemm", 15, 90, 1));
        t.activities.push(kernel("relu", 110, 55, 2));
        t
    }

    #[test]
    fn perfect_match_has_zero_error() {
        let t = truth();
        let d = diff_traces(&t, &t);
        assert_eq!(d.matched, 4);
        assert_eq!(d.sim_only, 0);
        assert_eq!(d.truth_only, 0);
        assert_eq!(d.end_to_end_rel_err(), 0.0);
        assert!(d.within_tolerance(0.0));
        assert!(d.attribution.iter().all(|g| g.abs_err_ns == 0));
    }

    #[test]
    fn errors_attributed_to_worst_op_first() {
        let d = diff_traces(&sim(), &truth());
        assert_eq!(d.matched, 4);
        assert!((d.end_to_end_rel_err() + 0.05).abs() < 1e-9);
        // sgemm drifted 10ns, relu 5ns: sgemm ranks first.
        assert_eq!(d.attribution[0].name, "sgemm");
        assert_eq!(d.attribution[0].abs_err_ns, 10);
        assert_eq!(d.attribution[1].name, "relu");
        assert_eq!(d.attribution[1].abs_err_ns, 5);
        assert!((d.attribution[0].share - 10.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn gpu_ops_classified_through_their_launch() {
        let d = diff_traces(&sim(), &truth());
        let sgemm = d.ops.iter().find(|o| o.name == "sgemm").unwrap();
        assert_eq!(sgemm.layer, Some(LayerId(0)));
        assert_eq!(sgemm.phase, Some(Phase::Forward));
        // The phase rollup sees both kernels and both launches.
        let fwd = d.phases.iter().find(|p| p.phase == Phase::Forward).unwrap();
        assert_eq!(fwd.matched, 4);
    }

    #[test]
    fn unmatched_ops_are_counted_per_side() {
        let mut s = sim();
        s.activities.push(kernel("extra_sim_kernel", 500, 10, 3));
        let mut t = truth();
        t.activities.push(kernel("extra_truth_kernel", 500, 10, 3));
        t.activities.push(launch(400, 3));
        let d = diff_traces(&s, &t);
        assert_eq!(d.sim_only, 1);
        assert_eq!(d.truth_only, 2, "extra truth kernel + extra launch");
        assert!(d.match_fraction() < 1.0);
    }

    #[test]
    fn render_and_csv_contain_ranked_table() {
        let d = diff_traces(&sim(), &truth());
        let text = d.render(5);
        assert!(text.contains("worst offenders"));
        assert!(text.contains("sgemm"));
        let csv = d.attribution_csv();
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("rank,op"));
        assert!(lines.next().unwrap().starts_with("1,sgemm"));
        let json = d.to_json().unwrap();
        assert!(json.contains("\"attribution\""));
    }
}
