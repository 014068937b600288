//! What-if: hardware upgrade ("would a faster GPU improve my training?").
//!
//! One of the paper's §1 motivating questions. Each GPU kernel is
//! classified from its trace name ([`daydream_device::classify_kernel`])
//! and its duration rescaled by the ratio of the device rates that bind
//! its class: arithmetic throughput for compute-bound kernels, memory
//! bandwidth for the rest — the same first-order model behind the paper's
//! AMP rule, applied across devices instead of across precisions.

use crate::graph::{GraphEdit, TaskId};
use crate::task::{Task, TaskKind};
use crate::transform::select;
use daydream_device::{classify_kernel, GpuSpec, Precision};
use daydream_models::OpClass;

/// The device rate that binds a GPU task's duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuBound {
    /// A memory copy: PCIe bandwidth.
    Pcie,
    /// A compute-bound kernel: arithmetic throughput.
    Compute,
    /// Any other kernel: memory bandwidth.
    Memory,
}

/// The rate that binds a GPU task: a copy is PCIe-bound, and a kernel
/// is classified from its name ([`classify_kernel`]; unrecognized names
/// count as element-wise, so memory-bound). A class depends only on the
/// task's kind and name, so it holds for any target device.
pub(crate) fn gpu_bound(t: &Task) -> GpuBound {
    match t.kind {
        TaskKind::GpuMemcpy { .. } => GpuBound::Pcie,
        _ => {
            let class = classify_kernel(&t.name).unwrap_or(OpClass::Elementwise);
            if class.is_compute_bound() {
                GpuBound::Compute
            } else {
                GpuBound::Memory
            }
        }
    }
}

/// Rescales GPU kernels for a move from `old` to `new` hardware, over any
/// graph edit target; memory copies scale with PCIe bandwidth. Returns the
/// affected tasks.
///
/// Each live GPU task is classified by [`select::gpu_bounds`], which an
/// overlay over an indexed base answers from the classes computed once
/// per base, and rescaled by the ratio of the `old`/`new` rates that
/// bind it.
pub fn plan_upgrade_gpu<G: GraphEdit>(g: &mut G, old: &GpuSpec, new: &GpuSpec) -> Vec<TaskId> {
    let compute_ratio =
        old.peak_flops_per_ns(Precision::Fp32) / new.peak_flops_per_ns(Precision::Fp32);
    let memory_ratio = old.bw_bytes_per_ns() / new.bw_bytes_per_ns();
    let pcie_ratio = old.pcie_gbs / new.pcie_gbs;
    let retimes: Vec<(TaskId, u64)> = select::gpu_bounds(g)
        .iter()
        .map(|&(id, bound)| {
            let ratio = match bound {
                GpuBound::Pcie => pcie_ratio,
                GpuBound::Compute => compute_ratio,
                GpuBound::Memory => memory_ratio,
            };
            (id, (g.task(id).duration_ns as f64 * ratio).round() as u64)
        })
        .collect();
    g.set_durations(&retimes);
    retimes.into_iter().map(|(id, _)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::ProfiledGraph;
    use crate::predict::predict;
    use daydream_models::zoo;
    use daydream_runtime::{ground_truth, ExecConfig};

    fn profile(model: &daydream_models::Model) -> ProfiledGraph {
        let cfg = ExecConfig::pytorch_2080ti();
        ProfiledGraph::from_trace(&ground_truth::run_baseline(model, &cfg))
    }

    #[test]
    fn v100_prediction_tracks_ground_truth() {
        let model = zoo::resnet50();
        let pg = profile(&model);
        let (old, new) = (GpuSpec::rtx_2080ti(), GpuSpec::v100());
        let pred = predict(&pg, |g| plan_upgrade_gpu(g, &old, &new));
        // Ground truth: actually execute the plan on the V100 cost model.
        let gt_cfg = ExecConfig {
            gpu: GpuSpec::v100(),
            ..ExecConfig::pytorch_2080ti().with_seed(0xF00D)
        };
        let gt = ground_truth::run_baseline(&model, &gt_cfg)
            .meta
            .iteration_ns();
        let err = pred.error_vs(gt);
        assert!(err < 0.10, "V100 upgrade prediction error {err:.3}");
        assert!(pred.speedup() > 1.1, "a V100 must beat a 2080 Ti in FP32");
    }

    #[test]
    fn downgrade_predicts_slowdown() {
        let model = zoo::bert_base();
        let pg = profile(&model);
        let (old, new) = (GpuSpec::rtx_2080ti(), GpuSpec::t4());
        let pred = predict(&pg, |g| plan_upgrade_gpu(g, &old, &new));
        assert!(pred.speedup() < 1.0, "a T4 must be slower than a 2080 Ti");
    }

    #[test]
    fn cpu_bound_models_gain_less_from_hardware() {
        // BERT-large's CPU-bound weight update caps hardware gains, exactly
        // like it caps AMP gains (paper §6.2) — the kind of insight the
        // upgrade what-if exists to surface.
        let (old, new) = (GpuSpec::rtx_2080ti(), GpuSpec::v100());
        let resnet = profile(&zoo::resnet50());
        let bert = profile(&zoo::bert_large());
        let r = predict(&resnet, |g| plan_upgrade_gpu(g, &old, &new));
        let b = predict(&bert, |g| plan_upgrade_gpu(g, &old, &new));
        assert!(
            r.speedup() > b.speedup(),
            "ResNet ({:.2}x) should gain more than CPU-bound BERT-large ({:.2}x)",
            r.speedup(),
            b.speedup()
        );
    }

    /// Classes computed once per base (its task index) retime an
    /// overlay to the op log the scan's classes record, for every target.
    #[test]
    fn cached_classes_record_the_same_ops() {
        use crate::index::TaskIndex;
        use crate::patch::PatchGraph;
        let pg = profile(&zoo::bert_base());
        let index = TaskIndex::build(&pg.graph);
        let classes = select::gpu_bounds(&pg.graph);
        let indexed = PatchGraph::new(&pg.graph).with_index(&index);
        assert_eq!(select::gpu_bounds(&indexed), classes);
        assert!(classes.iter().any(|&(_, b)| b == GpuBound::Compute));
        assert!(classes.iter().any(|&(_, b)| b == GpuBound::Memory));
        let old = GpuSpec::rtx_2080ti();
        for new in [GpuSpec::v100(), GpuSpec::t4()] {
            let mut direct = PatchGraph::new(&pg.graph);
            plan_upgrade_gpu(&mut direct, &old, &new);
            let mut cached = PatchGraph::new(&pg.graph).with_index(&index);
            plan_upgrade_gpu(&mut cached, &old, &new);
            assert_eq!(direct.finish().ops(), cached.finish().ops());
        }
    }

    #[test]
    fn identity_upgrade_is_noop() {
        let model = zoo::resnet50();
        let pg = profile(&model);
        let spec = GpuSpec::rtx_2080ti();
        let pred = predict(&pg, |g| plan_upgrade_gpu(g, &spec, &spec));
        assert_eq!(pred.baseline_ns, pred.predicted_ns);
    }
}
