//! Wire types of the JSON API, and their mapping onto the sweep crate's
//! grid vocabulary.
//!
//! [`SweepGrid`] itself is not serializable (it carries closure
//! filters), so submissions arrive as [`SweepRequest`] — a plain-data
//! mirror of the CLI's axis options. The offline `daydream sweep` parses
//! its options into the same type and expands the same
//! [`SweepRequest::grid`], so a grid submitted to the daemon expands to
//! exactly the scenario list the CLI builds from the same arguments.
//! That shared vocabulary is what makes the served report byte-identical
//! to the offline one.

use daydream_sweep::{Scenario, SweepGrid};
use serde::{Deserialize, Serialize};

/// A single what-if query: one model, one optimization, one parameter
/// point. An omitted field takes the first value of its axis in
/// [`SweepGrid::default`], the one copy of the sweep defaults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WhatIfRequest {
    /// Zoo model name (required).
    pub model: String,
    /// Profile batch size (default 4).
    pub batch: Option<u64>,
    /// Optimization family label (default `baseline`).
    pub opt: Option<String>,
    /// Machine count for cluster families (default 4).
    pub machines: Option<u32>,
    /// GPUs per machine for cluster families (default 1).
    pub gpus: Option<u32>,
    /// Inter-node bandwidth Gbit/s for cluster families (default 10).
    pub bw: Option<f64>,
    /// DGC compression ratio (default 0.01).
    pub ratio: Option<f64>,
    /// Bandwidth what-if multiplier (default 2.0).
    pub factor: Option<f64>,
    /// Upgrade-GPU target (default `v100`).
    pub to: Option<String>,
    /// Gist lossy mode (default false).
    pub lossy: Option<bool>,
    /// vDNN prefetch lookahead (default 2).
    pub lookahead: Option<usize>,
    /// Batch-size what-if target (default 16).
    pub target_batch: Option<u64>,
}

impl WhatIfRequest {
    /// Resolves the request into exactly one [`Scenario`], reusing the
    /// grid's expansion (and so its validation and applicability rules):
    /// a what-if is a 1x1x1 grid.
    pub fn scenario(&self) -> Result<Scenario, String> {
        if self.model.is_empty() {
            return Err("missing required field 'model'".into());
        }
        let d = SweepGrid::default();
        let batch = self.batch.unwrap_or(d.batches[0]);
        // Not a grid axis: a bare what-if predicts the baseline.
        let opt = self.opt.clone().unwrap_or_else(|| "baseline".into());
        let to = self.to.clone();
        let scenarios = SweepGrid::builder()
            .models([self.model.clone()])
            .batches([batch])
            .opts([opt.clone()])
            .bandwidths([self.bw.unwrap_or(d.bandwidths[0])])
            .machines([self.machines.unwrap_or(d.machines[0])])
            .gpus_per_machine(self.gpus.unwrap_or(d.gpus_per_machine))
            .dgc_ratios([self.ratio.unwrap_or(d.dgc_ratios[0])])
            .bandwidth_factors([self.factor.unwrap_or(d.bandwidth_factors[0])])
            .upgrade_targets([to.unwrap_or_else(|| d.upgrade_targets[0].clone())])
            .gist_lossy([self.lossy.unwrap_or(d.gist_lossy[0])])
            .vdnn_lookaheads([self.lookahead.unwrap_or(d.vdnn_lookaheads[0])])
            .target_batches([self.target_batch.unwrap_or(d.target_batches[0])])
            .build()
            .expand()?;
        match scenarios.len() {
            1 => Ok(scenarios.into_iter().next().expect("checked len")),
            0 => Err(format!(
                "optimization '{opt}' is not applicable to {} at batch {batch}",
                self.model
            )),
            n => Err(format!(
                "what-if request expanded to {n} scenarios; it must name exactly one"
            )),
        }
    }
}

/// A grid submission: every axis optional, defaulting to the offline
/// CLI's `sweep` defaults (documented in `daydream help`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SweepRequest {
    /// Model axis (default `ResNet-50,BERT_Base`).
    pub models: Option<Vec<String>>,
    /// Profile batch-size axis (default `4,8`).
    pub batches: Option<Vec<u64>>,
    /// Optimization families (default `amp,fused-adam,gist,ddp,dgc,bandwidth`).
    pub opts: Option<Vec<String>>,
    /// Inter-node bandwidth axis, Gbit/s (default `10,25`).
    pub bw: Option<Vec<f64>>,
    /// Machine-count axis (default `4`).
    pub machines: Option<Vec<u32>>,
    /// GPUs per machine (default 1).
    pub gpus: Option<u32>,
    /// DGC ratio axis (default `0.01`).
    pub ratios: Option<Vec<f64>>,
    /// Bandwidth multiplier axis (default `2.0`).
    pub factors: Option<Vec<f64>>,
    /// Upgrade-GPU target axis (default `v100`).
    pub to: Option<Vec<String>>,
    /// Gist lossy mode: `off` | `on` | `both` (default `off`).
    pub lossy: Option<String>,
    /// vDNN lookahead axis (default `2`).
    pub lookaheads: Option<Vec<usize>>,
    /// Batch-size what-if target axis (default `16`).
    pub target_batches: Option<Vec<u64>>,
    /// Drop scenarios whose profile batch exceeds this.
    pub max_batch: Option<u64>,
}

impl SweepRequest {
    /// Builds the grid, axis for axis; an absent axis keeps
    /// [`SweepGrid::default`]'s, the one copy of the sweep defaults,
    /// shared by the daemon and `daydream sweep`.
    pub fn grid(&self) -> Result<SweepGrid, String> {
        let d = SweepGrid::default();
        let lossy = match self.lossy.as_deref() {
            None => d.gist_lossy,
            Some("off") => vec![false],
            Some("on") => vec![true],
            Some("both") => vec![false, true],
            Some(other) => return Err(format!("invalid lossy mode '{other}' (off | on | both)")),
        };
        let max_batch = self.max_batch.unwrap_or(u64::MAX);
        Ok(SweepGrid::builder()
            .models(self.models.clone().unwrap_or(d.models))
            .batches(self.batches.clone().unwrap_or(d.batches))
            .opts(self.opts.clone().unwrap_or(d.opts))
            .bandwidths(self.bw.clone().unwrap_or(d.bandwidths))
            .machines(self.machines.clone().unwrap_or(d.machines))
            .gpus_per_machine(self.gpus.unwrap_or(d.gpus_per_machine))
            .dgc_ratios(self.ratios.clone().unwrap_or(d.dgc_ratios))
            .bandwidth_factors(self.factors.clone().unwrap_or(d.bandwidth_factors))
            .upgrade_targets(self.to.clone().unwrap_or(d.upgrade_targets))
            .gist_lossy(lossy)
            .vdnn_lookaheads(self.lookaheads.clone().unwrap_or(d.vdnn_lookaheads))
            .target_batches(self.target_batches.clone().unwrap_or(d.target_batches))
            .filter(move |s| s.batch <= max_batch)
            .build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whatif_defaults_resolve_to_one_scenario() {
        let req: WhatIfRequest =
            serde_json::from_str(r#"{"model": "ResNet-50", "opt": "amp"}"#).unwrap();
        let s = req.scenario().unwrap();
        assert_eq!(s.model, "ResNet-50");
        assert_eq!(s.batch, 4);
        assert_eq!(s.opt.family(), "amp");

        // A bare what-if of a parameterized family is the first scenario
        // the default grid expands for it.
        for family in [
            "dgc",
            "bandwidth",
            "upgrade-gpu",
            "vdnn",
            "batch-size",
            "ddp",
        ] {
            let req = WhatIfRequest {
                model: "ResNet-50".into(),
                opt: Some(family.into()),
                ..WhatIfRequest::default()
            };
            let grid = SweepGrid::builder()
                .models(["ResNet-50"])
                .opts([family])
                .build()
                .expand()
                .unwrap();
            assert_eq!(req.scenario().unwrap().label(), grid[0].label(), "{family}");
        }
    }

    #[test]
    fn whatif_cluster_parameters_reach_the_spec() {
        let req: WhatIfRequest = serde_json::from_str(
            r#"{"model": "BERT_Base", "opt": "ddp", "machines": 8, "bw": 25.0, "batch": 8}"#,
        )
        .unwrap();
        let s = req.scenario().unwrap();
        assert_eq!(s.batch, 8);
        assert!(s.label().contains("ddp"), "got {}", s.label());
        assert!(s.label().contains("8x1"), "got {}", s.label());
    }

    #[test]
    fn whatif_rejects_bad_inputs_with_messages() {
        let missing: WhatIfRequest = serde_json::from_str(r#"{"model": ""}"#).unwrap();
        assert!(missing.scenario().unwrap_err().contains("model"));

        let unknown_model: WhatIfRequest = serde_json::from_str(r#"{"model": "AlexNet"}"#).unwrap();
        assert!(unknown_model
            .scenario()
            .unwrap_err()
            .contains("unknown model"));

        let unknown_opt: WhatIfRequest =
            serde_json::from_str(r#"{"model": "ResNet-50", "opt": "turbo"}"#).unwrap();
        assert!(unknown_opt
            .scenario()
            .unwrap_err()
            .contains("unknown optimization family"));

        // fused-adam needs an Adam model; ResNet-50 trains with SGD.
        let inapplicable: WhatIfRequest =
            serde_json::from_str(r#"{"model": "ResNet-50", "opt": "fused-adam"}"#).unwrap();
        assert!(inapplicable
            .scenario()
            .unwrap_err()
            .contains("not applicable"));
    }

    #[test]
    fn sweep_request_defaults_match_the_offline_cli_grid() {
        // An empty submission must expand to the same scenario list as
        // a bare `daydream sweep` (the CLI's documented defaults).
        let req: SweepRequest = serde_json::from_str("{}").unwrap();
        let served = req.grid().unwrap().expand().unwrap();
        let offline = SweepGrid::default().expand().unwrap();
        let labels = |v: &[Scenario]| v.iter().map(Scenario::label).collect::<Vec<_>>();
        assert_eq!(labels(&served), labels(&offline));
    }

    #[test]
    fn sweep_request_axes_and_max_batch_apply() {
        let req: SweepRequest = serde_json::from_str(
            r#"{"models": ["ResNet-50"], "batches": [4, 8], "opts": ["gist"],
                "lossy": "both", "max_batch": 4}"#,
        )
        .unwrap();
        let scenarios = req.grid().unwrap().expand().unwrap();
        assert_eq!(
            scenarios.len(),
            2,
            "{:?}",
            scenarios.iter().map(Scenario::label).collect::<Vec<_>>()
        );
        assert!(scenarios.iter().all(|s| s.batch == 4));

        let bad: SweepRequest = serde_json::from_str(r#"{"lossy": "sometimes"}"#).unwrap();
        match bad.grid() {
            Err(msg) => assert!(msg.contains("lossy"), "got: {msg}"),
            Ok(_) => panic!("bad lossy mode must be rejected"),
        }
    }
}
