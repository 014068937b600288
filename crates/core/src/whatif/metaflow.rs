//! What-if: MetaFlow relaxed graph substitutions (paper §5.2, Algorithm 9).
//!
//! MetaFlow rewrites the *layer* topology (fusing layers, enlarging
//! kernels); after a substitution policy is chosen, its runtime effect is
//! just per-layer task removal and scaling, which Daydream models directly.
//! The paper notes Daydream can serve as a precise cost model inside
//! MetaFlow's backtracking search; [`plan_metaflow`] under
//! [`crate::predict()`] is that evaluation function.

use crate::graph::{GraphEdit, TaskId};
use crate::transform::{remove_all, scale_durations, select};
use daydream_models::Model;
use daydream_trace::LayerId;

/// One step of a MetaFlow substitution policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Substitution {
    /// The layer is absorbed into another: its GPU tasks disappear.
    RemoveLayer(LayerId),
    /// The layer's kernels change dimensions: scale their durations.
    ScaleLayer(LayerId, f64),
}

/// The substitution policy (Algorithm 9) over any graph edit target.
///
/// One selection pass groups the GPU tasks of every layer the policy
/// names (ascending ids within a layer); the substitutions then apply in
/// policy order. A removed layer's group empties, so a later substitution
/// naming the same layer touches nothing. Each run of consecutive
/// removals is one [`GraphEdit::remove_tasks`] call over its layers'
/// groups, in policy order, so the op log is the one a call per layer
/// records.
pub fn plan_metaflow<G: GraphEdit>(g: &mut G, policy: &[Substitution]) {
    let slot = |sub: &Substitution| match *sub {
        Substitution::RemoveLayer(l) | Substitution::ScaleLayer(l, _) => l.0 as usize,
    };
    let len = policy.iter().map(|sub| slot(sub) + 1).max().unwrap_or(0);
    let mut in_policy = vec![false; len];
    for sub in policy {
        in_policy[slot(sub)] = true;
    }
    let mut groups: Vec<Vec<TaskId>> = vec![Vec::new(); len];
    for id in select::gpu_of_layers(g, |l| in_policy.get(l.0 as usize) == Some(&true)) {
        let layer = g.task(id).layer.expect("selected tasks belong to a layer");
        groups[layer.layer.0 as usize].push(id);
    }
    let mut doomed: Vec<TaskId> = Vec::new();
    for sub in policy {
        let group = &mut groups[slot(sub)];
        match *sub {
            Substitution::RemoveLayer(_) => doomed.append(group),
            Substitution::ScaleLayer(_, s) => {
                remove_all(g, &std::mem::take(&mut doomed));
                scale_durations(g, group, s);
            }
        }
    }
    remove_all(g, &doomed);
}

/// The QKV-fusion policy the catalog's `metaflow` family evaluates: fuse
/// each attention block's query/key/value projections into one widened
/// GEMM — the key and value layers are absorbed and the query layer's
/// kernels scale by 1.8x. Empty for models without attention.
pub fn qkv_fusion_policy(model: &Model) -> Vec<Substitution> {
    let mut policy = Vec::new();
    for l in &model.layers {
        if l.name.ends_with("attn.key") || l.name.ends_with("attn.value") {
            policy.push(Substitution::RemoveLayer(l.id));
        } else if l.name.ends_with("attn.query") {
            policy.push(Substitution::ScaleLayer(l.id, 1.8));
        }
    }
    policy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::ProfiledGraph;
    use crate::predict::predict;
    use crate::transform::select;
    use daydream_models::zoo;
    use daydream_runtime::{ground_truth, ExecConfig};

    #[test]
    fn qkv_fusion_substitution_speeds_up_bert() {
        // Fuse the per-block query/key/value projections into one widened
        // GEMM: remove key and value layers, scale query by ~1.8x.
        let model = zoo::bert_base();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(4);
        let pg = ProfiledGraph::from_trace(&ground_truth::run_baseline(&model, &cfg));
        let policy = qkv_fusion_policy(&model);
        assert!(!policy.is_empty(), "BERT has attention blocks");
        assert!(qkv_fusion_policy(&zoo::resnet50()).is_empty());
        let pred = predict(&pg, |g| plan_metaflow(g, &policy));
        assert!(
            pred.improvement() > 0.0,
            "fusing QKV should help: {:.4}",
            pred.improvement()
        );
        assert!(pred.improvement() < 0.3, "gain must stay plausible");
    }

    #[test]
    fn scaling_up_predicts_slowdown() {
        let model = zoo::resnet50();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(8);
        let pg = ProfiledGraph::from_trace(&ground_truth::run_baseline(&model, &cfg));
        let conv1 = model.layers.iter().find(|l| l.name == "conv1").unwrap().id;
        let pred = predict(&pg, |g| {
            plan_metaflow(g, &[Substitution::ScaleLayer(conv1, 4.0)])
        });
        assert!(
            pred.improvement() < 0.0,
            "4x slower conv1 must slow the iteration"
        );
    }

    /// The grouped pass, which removes each run of consecutive removals
    /// in one call, records the op log of selecting afresh and removing
    /// per substitution, and leaves the same successor sets: on a policy
    /// that names a layer more than once, and on the catalog's QKV
    /// fusion, whose key and value removals run back to back.
    #[test]
    fn grouped_selection_matches_per_substitution_selection() {
        use crate::graph::GraphView;
        use crate::patch::PatchGraph;
        use std::collections::BTreeSet;
        let resnet = zoo::resnet50();
        let layer = |name: &str| resnet.layers.iter().find(|l| l.name == name).unwrap().id;
        let (relu, conv1) = (layer("relu"), layer("conv1"));
        let repeats = vec![
            Substitution::ScaleLayer(relu, 2.0),
            Substitution::RemoveLayer(relu),
            Substitution::ScaleLayer(relu, 3.0),
            Substitution::ScaleLayer(conv1, 0.5),
            Substitution::ScaleLayer(conv1, 1.5),
            Substitution::RemoveLayer(relu),
        ];
        let (bert_base, bert_large) = (zoo::bert_base(), zoo::bert_large());
        for (model, policy) in [
            (&resnet, repeats),
            (&bert_base, qkv_fusion_policy(&bert_base)),
            (&bert_large, qkv_fusion_policy(&bert_large)),
        ] {
            let cfg = ExecConfig::pytorch_2080ti().with_batch(4);
            let pg = ProfiledGraph::from_trace(&ground_truth::run_baseline(model, &cfg));
            let mut grouped = PatchGraph::new(&pg.graph);
            plan_metaflow(&mut grouped, &policy);
            let mut fresh = PatchGraph::new(&pg.graph);
            for sub in &policy {
                match *sub {
                    Substitution::RemoveLayer(l) => {
                        let sel = select::gpu_of_layer(&fresh, l);
                        remove_all(&mut fresh, &sel);
                    }
                    Substitution::ScaleLayer(l, s) => {
                        let sel = select::gpu_of_layer(&fresh, l);
                        scale_durations(&mut fresh, &sel, s);
                    }
                }
            }
            let succs = |g: &PatchGraph| -> Vec<BTreeSet<TaskId>> {
                (0..g.capacity())
                    .map(TaskId)
                    .filter(|&id| !g.is_removed(id))
                    .map(|id| g.successors(id).iter().map(|&(s, _)| s).collect())
                    .collect()
            };
            assert_eq!(succs(&grouped), succs(&fresh), "{}", model.name);
            let (grouped, fresh) = (grouped.finish(), fresh.finish());
            assert!(!grouped.is_empty());
            assert_eq!(grouped.ops(), fresh.ops(), "{}", model.name);
        }
    }

    #[test]
    fn graph_stays_valid() {
        let model = zoo::resnet50();
        let cfg = ExecConfig::pytorch_2080ti().with_batch(8);
        let mut pg = ProfiledGraph::from_trace(&ground_truth::run_baseline(&model, &cfg));
        let relu = model.layers.iter().find(|l| l.name == "relu").unwrap().id;
        plan_metaflow(&mut pg.graph, &[Substitution::RemoveLayer(relu)]);
        pg.graph.validate().unwrap();
        assert!(select::gpu_of_layer(&pg.graph, relu).is_empty());
    }
}
