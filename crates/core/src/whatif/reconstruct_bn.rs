//! What-if: restructuring batch normalization (paper §5.1/§6.4,
//! Algorithm 5).
//!
//! Jung et al. split each batchnorm layer and fuse its halves with the
//! surrounding convolution/activation layers. Daydream models this as:
//! remove the GPU kernels of ReLU layers (now fused into convolutions) and
//! halve the durations of batchnorm kernels (each sub-layer loads half the
//! data). The paper notes this *overestimates* the real gain (predicted
//! 12.7% vs measured 7%) because the ground-truth implementation uses new,
//! less-tuned kernels plus extra allocations — information a trace-level
//! model cannot know (§7.4).

use crate::graph::{GraphEdit, TaskId};
use crate::transform::{remove_all, select};
use daydream_models::Model;

/// The reconstruct-batchnorm transformation (Algorithm 5) over any graph
/// edit target.
///
/// `model` supplies the layer-kind lookup (`u.layer is ReLU` in the paper's
/// pseudo-code).
pub fn plan_reconstruct_bn<G: GraphEdit>(g: &mut G, model: &Model) {
    // Both selections come before the removal, while the overlay still
    // matches the base: ReLU and batchnorm layers are disjoint, so the
    // removal leaves the batchnorm kernels as they were.
    let of_kind = |kind: &str| {
        let len = model.layers.iter().map(|l| l.id.0 as usize + 1).max();
        let mut marked = vec![false; len.unwrap_or(0)];
        for l in model.layers.iter().filter(|l| l.kind.type_name() == kind) {
            marked[l.id.0 as usize] = true;
        }
        select::gpu_of_layers(g, |l| marked.get(l.0 as usize) == Some(&true))
    };
    let relu_tasks = of_kind("ReLU");
    let bn_tasks = of_kind("BatchNorm");
    remove_all(g, &relu_tasks);

    let halved: Vec<(TaskId, u64)> = bn_tasks
        .into_iter()
        .map(|id| (id, g.task(id).duration_ns / 2))
        .collect();
    g.set_durations(&halved);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::ProfiledGraph;
    use crate::predict::predict;
    use daydream_models::zoo;
    use daydream_runtime::{ground_truth, ExecConfig};

    #[test]
    fn densenet_prediction_overestimates_like_the_paper() {
        let model = zoo::densenet121();
        let cfg = ExecConfig::caffe_2080ti();
        let baseline = ground_truth::run_baseline(&model, &cfg);
        let pg = ProfiledGraph::from_trace(&baseline);
        let pred = predict(&pg, |g| plan_reconstruct_bn(g, &model));
        let gt_trace = ground_truth::run_reconstructed_bn(&model, &cfg);
        let gt = gt_trace.meta.iteration_ns();

        let predicted_gain = pred.improvement();
        let measured_gain = 1.0 - gt as f64 / pred.baseline_ns as f64;
        // Paper §6.4: prediction 12.7%, ground truth 7% — the model must
        // predict a moderate gain and overshoot the measured one.
        // Our DenseNet substrate carries relatively more activation traffic
        // than the authors' Caffe build, so the absolute gains run ~2x the
        // paper's 12.7%/7% — the prediction:truth ratio is what transfers.
        assert!(
            (0.10..0.32).contains(&predicted_gain),
            "predicted gain {predicted_gain:.3} should be moderate"
        );
        assert!(
            predicted_gain > measured_gain,
            "prediction ({predicted_gain:.3}) must overestimate ground truth ({measured_gain:.3})"
        );
        assert!(
            measured_gain > 0.0,
            "the optimization still helps in ground truth"
        );
    }

    #[test]
    fn removes_relu_halves_bn() {
        // Note: conv kernels ("scudnn_..._relu_interior_nn") also contain
        // the substring "relu"; selection must go through the layer map.
        let model = zoo::densenet121();
        let cfg = ExecConfig::caffe_2080ti().with_batch(8);
        let trace = ground_truth::run_baseline(&model, &cfg);
        let mut pg = ProfiledGraph::from_trace(&trace);
        let bn_before: u64 = pg
            .graph
            .iter()
            .filter(|(_, t)| t.is_on_gpu() && t.name.contains("bn_"))
            .map(|(_, t)| t.duration_ns)
            .sum();
        plan_reconstruct_bn(&mut pg.graph, &model);
        let relu_left = pg
            .graph
            .select(|t| {
                t.is_on_gpu()
                    && t.layer
                        .map(|l| model.layer(l.layer).map(|x| x.kind.type_name()) == Some("ReLU"))
                        .unwrap_or(false)
            })
            .len();
        assert_eq!(relu_left, 0, "all ReLU-layer kernels must be removed");
        let bn_after: u64 = pg
            .graph
            .iter()
            .filter(|(_, t)| t.is_on_gpu() && t.name.contains("bn_"))
            .map(|(_, t)| t.duration_ns)
            .sum();
        assert!(
            bn_after < bn_before * 6 / 10,
            "batchnorm kernels must halve"
        );
        pg.graph.validate().unwrap();
    }
}
