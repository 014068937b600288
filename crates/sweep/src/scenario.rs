//! Scenario specifications: one (model, batch, optimization) point of a
//! sweep, with stable labels and content-hash fingerprints for caching.

use daydream_models::Model;
use daydream_trace::{fnv1a64_continue, FNV_OFFSET};
use serde::{Deserialize, Serialize};

/// An optimization (with its parameters) applied in one scenario.
///
/// Covers the full `daydream_core::whatif` catalog; cluster-shaped
/// variants carry their topology so a sweep can cross machines x
/// bandwidth the way the paper's §6 exhibits do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OptSpec {
    /// No transformation — the profiled baseline, kept in reports as the
    /// reference row.
    Baseline,
    /// Automatic mixed precision (§6.2).
    Amp,
    /// Kernel fusion of the Adam update (§6.3); Adam models only.
    FusedAdam,
    /// BN recomputation from running statistics (§5.2).
    ReconstructBn,
    /// MetaFlow-style attention substitution (§5.2); attention models only.
    Metaflow,
    /// Data-parallel training with ring all-reduce (§6.4).
    Ddp {
        /// Number of machines.
        machines: u32,
        /// GPUs per machine.
        gpus_per_machine: u32,
        /// Inter-node bandwidth, Gbit/s.
        bw_gbps: f64,
    },
    /// BlueConnect hierarchical all-reduce (§6.4).
    BlueConnect {
        /// Number of machines.
        machines: u32,
        /// GPUs per machine.
        gpus_per_machine: u32,
        /// Inter-node bandwidth, Gbit/s.
        bw_gbps: f64,
    },
    /// Deep Gradient Compression (§5.2).
    Dgc {
        /// Number of machines.
        machines: u32,
        /// GPUs per machine.
        gpus_per_machine: u32,
        /// Inter-node bandwidth, Gbit/s.
        bw_gbps: f64,
        /// Fraction of gradient bytes still transmitted.
        ratio: f64,
    },
    /// Priority-based parameter propagation over a parameter server (§6.6).
    P3 {
        /// Number of machines.
        machines: u32,
        /// GPUs per machine.
        gpus_per_machine: u32,
        /// Inter-node bandwidth, Gbit/s.
        bw_gbps: f64,
    },
    /// vDNN(conv) activation offloading (§6.5); conv models only.
    Vdnn {
        /// Backward layers of prefetch lookahead.
        lookahead: usize,
    },
    /// Gist activation compression (§6.5).
    Gist {
        /// Also model the lossy delayed-precision-reduction kernels.
        lossy: bool,
    },
    /// Hypothetical network bandwidth change (§5.2).
    Bandwidth {
        /// Bandwidth multiplier (2.0 = twice as fast).
        factor: f64,
    },
    /// Hardware upgrade to a different GPU (§5.2).
    UpgradeGpu {
        /// Target GPU name (resolved like the CLI `--gpu` option).
        to: String,
    },
    /// Re-profile prediction at a different mini-batch size (§5.2).
    BatchSize {
        /// Target batch size.
        batch: u64,
    },
}

impl OptSpec {
    /// The family name without parameters (the CLI `--opts` vocabulary).
    pub fn family(&self) -> &'static str {
        match self {
            OptSpec::Baseline => "baseline",
            OptSpec::Amp => "amp",
            OptSpec::FusedAdam => "fused-adam",
            OptSpec::ReconstructBn => "reconstruct-bn",
            OptSpec::Metaflow => "metaflow",
            OptSpec::Ddp { .. } => "ddp",
            OptSpec::BlueConnect { .. } => "blueconnect",
            OptSpec::Dgc { .. } => "dgc",
            OptSpec::P3 { .. } => "p3",
            OptSpec::Vdnn { .. } => "vdnn",
            OptSpec::Gist { .. } => "gist",
            OptSpec::Bandwidth { .. } => "bandwidth",
            OptSpec::UpgradeGpu { .. } => "upgrade-gpu",
            OptSpec::BatchSize { .. } => "batch-size",
        }
    }

    /// A canonical parameterized label, stable across runs (it feeds the
    /// cache fingerprint).
    pub fn label(&self) -> String {
        match self {
            OptSpec::Ddp {
                machines,
                gpus_per_machine,
                bw_gbps,
            } => format!("ddp[m{machines}x{gpus_per_machine} bw{bw_gbps}]"),
            OptSpec::BlueConnect {
                machines,
                gpus_per_machine,
                bw_gbps,
            } => format!("blueconnect[m{machines}x{gpus_per_machine} bw{bw_gbps}]"),
            OptSpec::Dgc {
                machines,
                gpus_per_machine,
                bw_gbps,
                ratio,
            } => format!("dgc[m{machines}x{gpus_per_machine} bw{bw_gbps} r{ratio}]"),
            OptSpec::P3 {
                machines,
                gpus_per_machine,
                bw_gbps,
            } => format!("p3[m{machines}x{gpus_per_machine} bw{bw_gbps}]"),
            OptSpec::Vdnn { lookahead } => format!("vdnn[la{lookahead}]"),
            OptSpec::Gist { lossy } => {
                format!("gist[{}]", if *lossy { "lossy" } else { "lossless" })
            }
            OptSpec::Bandwidth { factor } => format!("bandwidth[x{factor}]"),
            OptSpec::UpgradeGpu { to } => format!("upgrade-gpu[{to}]"),
            OptSpec::BatchSize { batch } => format!("batch-size[{batch}]"),
            simple => simple.family().to_string(),
        }
    }

    /// Whether this optimization is meaningful for the model: FusedAdam
    /// needs Adam, MetaFlow needs attention blocks, vDNN(conv) and BN
    /// reconstruction need their layer kinds.
    pub fn applicable(&self, model: &Model) -> bool {
        match self {
            OptSpec::FusedAdam => model.optimizer == daydream_models::Optimizer::Adam,
            OptSpec::Metaflow => model.layers.iter().any(|l| l.name.contains("attn.")),
            OptSpec::Vdnn { .. } => model.layers.iter().any(|l| l.kind.type_name() == "Conv2d"),
            OptSpec::ReconstructBn => model
                .layers
                .iter()
                .any(|l| l.kind.type_name().contains("BatchNorm")),
            _ => true,
        }
    }
}

/// One point of a sweep: a model profiled at a batch size, plus the
/// optimization applied to the profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Zoo model name.
    pub model: String,
    /// Mini-batch size the base profile is collected at.
    pub batch: u64,
    /// The optimization under evaluation.
    pub opt: OptSpec,
}

impl Scenario {
    /// Builds a scenario.
    pub fn new(model: impl Into<String>, batch: u64, opt: OptSpec) -> Self {
        Scenario {
            model: model.into(),
            batch,
            opt,
        }
    }

    /// Human-readable, canonical label (also the fingerprint input).
    pub fn label(&self) -> String {
        format!("{} b{} {}", self.model, self.batch, self.opt.label())
    }

    /// Stable 64-bit content hash of the scenario, used as the result
    /// cache key. FNV-1a over the canonical label plus the fixed
    /// execution environment, so it is reproducible across processes
    /// (unlike `DefaultHasher`).
    pub fn fingerprint(&self) -> u64 {
        label_fingerprint(&self.label())
    }

    /// [`Scenario::fingerprint`] as fixed-width hex, for JSON cache files.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }
}

/// [`Scenario::fingerprint`] of the scenario labelled `label`, hashed
/// without formatting the key string.
pub(crate) fn label_fingerprint(label: &str) -> u64 {
    fnv1a64_continue(fnv1a64(label.as_bytes()), b"|pytorch|2080ti|seed0")
}

/// FNV-1a 64-bit hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daydream_models::zoo;

    #[test]
    fn labels_are_canonical_and_distinct() {
        let a = Scenario::new("ResNet-50", 8, OptSpec::Amp);
        let b = Scenario::new(
            "ResNet-50",
            8,
            OptSpec::Ddp {
                machines: 4,
                gpus_per_machine: 1,
                bw_gbps: 10.0,
            },
        );
        assert_eq!(a.label(), "ResNet-50 b8 amp");
        assert_eq!(b.label(), "ResNet-50 b8 ddp[m4x1 bw10]");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprints_are_stable() {
        let s = Scenario::new("BERT_Base", 4, OptSpec::Gist { lossy: true });
        // Pinned value: the cache file format depends on this not drifting.
        assert_eq!(
            s.fingerprint(),
            fnv1a64(b"BERT_Base b4 gist[lossy]|pytorch|2080ti|seed0")
        );
        assert_eq!(s.fingerprint_hex().len(), 16);
    }

    #[test]
    fn applicability_rules() {
        let resnet = zoo::resnet50();
        let bert = zoo::bert_base();
        assert!(
            !OptSpec::FusedAdam.applicable(&resnet),
            "ResNet trains with SGD"
        );
        assert!(OptSpec::FusedAdam.applicable(&bert));
        assert!(OptSpec::Metaflow.applicable(&bert));
        assert!(!OptSpec::Metaflow.applicable(&resnet));
        assert!(OptSpec::Vdnn { lookahead: 2 }.applicable(&resnet));
        assert!(!OptSpec::Vdnn { lookahead: 2 }.applicable(&bert));
        assert!(OptSpec::ReconstructBn.applicable(&resnet));
        assert!(OptSpec::Amp.applicable(&resnet));
        assert!(OptSpec::Amp.applicable(&bert));
    }
}
