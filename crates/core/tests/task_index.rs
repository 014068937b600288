//! The per-base task index and the streamed patch fingerprint.
//!
//! A [`PatchGraph`] built over an indexed base answers the [`select`]
//! helpers from the base's [`TaskIndex`] until its edits could change an
//! answer, and scans after that. Both must give exactly what a scan
//! gives, in the same order, so every planner records the same patch
//! either way; this is pinned on the 12 catalog bases (the six zoo models
//! at batches 4 and 8). The overlay also hashes each op as it records
//! it, and the stored fingerprint must equal a from-scratch hash of the
//! op log ([`op_log_fingerprint`]) for every family, also for patches
//! layered on a prior patch and for composed ones.

use daydream_comm::ClusterConfig;
use daydream_core::patch::op_log_fingerprint;
use daydream_core::transform::{insert_gpu_task_with_launch, select};
use daydream_core::whatif::{
    p3_insert_plan, p3_replicated_base, plan_amp, plan_bandwidth, plan_batch_size,
    plan_blueconnect, plan_dgc, plan_distributed, plan_fused_adam, plan_gist, plan_metaflow,
    plan_p3_inserts, plan_reconstruct_bn, plan_upgrade_gpu, plan_vdnn, qkv_fusion_policy,
    DgcConfig, GistConfig, GpuBound, P3Config, VdnnConfig, P3_ITERATIONS,
};
use daydream_core::{
    CommPrimitive, DepKind, Edits, ExecThread, GraphEdit, GraphPatch, GraphView, LayerAnchors,
    PatchGraph, ProfiledGraph, Task, TaskId, TaskIndex, TaskKind,
};
use daydream_device::GpuSpec;
use daydream_models::{zoo, Model};
use daydream_runtime::{ground_truth, ExecConfig};
use daydream_trace::{CpuThreadId, Phase};
use std::sync::OnceLock;

const PHASES: [Phase; 3] = [Phase::Forward, Phase::Backward, Phase::WeightUpdate];

/// One catalog base: its name, model, profile and task index.
struct Base {
    name: String,
    model: Model,
    pg: ProfiledGraph,
    index: TaskIndex,
}

/// The 12 catalog bases, profiled once for every test of this file.
fn catalog_bases() -> &'static [Base] {
    static BASES: OnceLock<Vec<Base>> = OnceLock::new();
    BASES.get_or_init(|| {
        let mut bases = Vec::new();
        for model in zoo::all_models() {
            for batch in [4u64, 8] {
                let cfg = ExecConfig::pytorch_2080ti().with_batch(batch);
                let pg = ProfiledGraph::from_trace(&ground_truth::run_baseline(&model, &cfg));
                let index = TaskIndex::build(&pg.graph);
                bases.push(Base {
                    name: format!("{} b{batch}", model.name),
                    model: model.clone(),
                    pg,
                    index,
                });
            }
        }
        bases
    })
}

/// What one phase's helpers select.
#[derive(Debug, PartialEq)]
struct PhaseSelections {
    gpu: Vec<TaskId>,
    tensor_core: Vec<(TaskId, bool)>,
    relu: Vec<TaskId>,
    all: Vec<TaskId>,
    first: Option<TaskId>,
}

/// Every answer the index can serve, as one comparable value.
#[derive(Debug, PartialEq)]
struct Selections {
    gpu: Vec<TaskId>,
    tensor_core: Vec<(TaskId, bool)>,
    bounds: Vec<(TaskId, GpuBound)>,
    comm: Vec<TaskId>,
    first_gpu: Option<TaskId>,
    anchors: Vec<LayerAnchors>,
    even_layers: Vec<TaskId>,
    per_phase: Vec<PhaseSelections>,
    per_layer: Vec<Vec<TaskId>>,
}

fn selections<G: GraphView>(g: &G, model: &Model) -> Selections {
    Selections {
        gpu: select::gpu_tasks(g),
        tensor_core: select::tensor_core_flags(g, None),
        bounds: select::gpu_bounds(g).into_owned(),
        comm: select::comm_tasks(g),
        first_gpu: select::first_gpu_task(g),
        anchors: select::layer_anchors(g).into_owned(),
        even_layers: select::gpu_of_layers(g, |l| l.0 % 2 == 0),
        per_phase: PHASES
            .iter()
            .map(|&p| PhaseSelections {
                gpu: select::gpu_in_phase(g, p),
                tensor_core: select::tensor_core_flags(g, Some(p)),
                relu: select::relu_kernels(g, p),
                all: select::in_phase(g, p),
                first: select::first_in_phase(g, p),
            })
            .collect(),
        per_layer: model
            .layers
            .iter()
            .map(|l| select::gpu_of_layer(g, l.id))
            .collect(),
    }
}

/// An edit applied alike to an indexed and a scanning overlay.
type Edit<'a> = Box<dyn Fn(&mut PatchGraph<'_>) + 'a>;

/// Edits after which some selection changes, so an index answer that
/// survived them would be wrong: one per kind of [`Edits`].
fn selection_changing_edits(
    g: &daydream_core::DependencyGraph,
) -> Vec<(&'static str, Edit<'static>)> {
    let fwd = select::gpu_in_phase(g, Phase::Forward)[0];
    let first_gpu = select::first_gpu_task(g).expect("profiles have GPU tasks");
    let first_wu = select::first_in_phase(g, Phase::WeightUpdate).expect("profiles update weights");
    let tensor_core = select::tensor_core_flags(g, None)
        .into_iter()
        .find(|&(_, tc)| tc)
        .map(|(id, _)| id)
        .expect("every zoo model runs a GEMM or a convolution");
    let cpu = g
        .find_id(|t| t.thread.is_cpu())
        .expect("profiles have CPU tasks");
    vec![
        (
            "insert",
            Box::new(move |p: &mut PatchGraph<'_>| {
                let launch = p.find_id(|t| t.thread.is_cpu()).unwrap();
                let mut k = Task::new(
                    "elementwise_kernel_relu_inserted",
                    TaskKind::GpuKernel,
                    p.task(fwd).thread,
                    7,
                );
                k.layer = p.task(fwd).layer;
                insert_gpu_task_with_launch(p, launch, fwd, k, 3);
            }),
        ),
        (
            "remove",
            Box::new(move |p: &mut PatchGraph<'_>| p.remove_tasks(&[first_gpu, first_wu])),
        ),
        (
            "rethread",
            Box::new(move |p: &mut PatchGraph<'_>| {
                p.set_thread(fwd, ExecThread::Cpu(CpuThreadId(3)));
            }),
        ),
        (
            "rename",
            Box::new(move |p: &mut PatchGraph<'_>| {
                p.set_name(tensor_core, "renamed_kernel".into());
                p.set_name(fwd, "elementwise_kernel_relu_renamed".into());
            }),
        ),
        (
            "rekind",
            Box::new(move |p: &mut PatchGraph<'_>| {
                p.set_kind(first_gpu, TaskKind::CpuWork);
                p.set_kind(
                    cpu,
                    TaskKind::Communication {
                        prim: CommPrimitive::AllReduce,
                        bytes: 1 << 20,
                    },
                );
            }),
        ),
    ]
}

/// Every helper answers from the index on a fresh overlay (and on one
/// with only retimes, priorities and edge edits) exactly as a scan does,
/// and after each kind of edit that changes a selection it scans.
#[test]
fn index_answers_every_helper_like_a_scan() {
    for base in catalog_bases() {
        let (g, model, name) = (&base.pg.graph, &base.model, &base.name);
        let scan = selections(g, model);
        assert!(!scan.gpu.is_empty() && !scan.per_phase[2].all.is_empty());

        let mut indexed = PatchGraph::new(g).with_index(&base.index);
        assert!(indexed.base_index(Edits::NONE).is_some());
        assert_eq!(selections(&indexed, model), scan, "{name}: fresh overlay");
        let (a, b) = (scan.gpu[0], scan.gpu[1]);
        indexed.set_durations(&[(a, 1), (b, 2)]);
        indexed.set_priority(a, 4);
        indexed.add_dep(b, a, DepKind::Transform);
        indexed.remove_dep(b, a);
        assert!(
            indexed
                .base_index(
                    Edits::INSERT
                        .union(Edits::REMOVE)
                        .union(Edits::THREAD)
                        .union(Edits::KIND)
                        .union(Edits::NAME)
                )
                .is_some(),
            "{name}: retimes and edge edits keep the index"
        );
        assert_eq!(selections(&indexed, model), scan, "{name}: after retimes");

        for (what, edit) in selection_changing_edits(g) {
            let mut scanning = PatchGraph::new(g);
            let mut indexed = PatchGraph::new(g).with_index(&base.index);
            edit(&mut scanning);
            edit(&mut indexed);
            let after = selections(&scanning, model);
            assert_ne!(after, scan, "{name}: {what} must change a selection");
            assert_eq!(selections(&indexed, model), after, "{name}: after {what}");
        }

        // A DDP patch inserts all-reduces: the GPU selections scan, and
        // the first GPU task still comes from the index.
        let mut ddp = PatchGraph::new(g).with_index(&base.index);
        plan_distributed(
            &mut ddp,
            &base.pg.meta.buckets,
            &ClusterConfig::new(2, 1, 10.0),
        );
        let ddp = ddp.finish();
        let layered = PatchGraph::layered(g, &ddp).with_index(&base.index);
        assert!(layered.base_index(Edits::INSERT).is_none());
        assert!(layered
            .base_index(Edits::REMOVE.union(Edits::KIND))
            .is_some());
        assert_eq!(
            selections(&layered, model),
            selections(&PatchGraph::layered(g, &ddp), model),
            "{name}: layered on DDP"
        );
    }
}

/// Records every catalog family's patch over `base`, through an indexed
/// overlay or a scanning one; BlueConnect and DGC are layered on a DDP
/// patch recorded the same way, as the engine layers them.
fn emit_families(base: &Base, indexed: bool) -> Vec<(&'static str, GraphPatch)> {
    let (g, model, pg) = (&base.pg.graph, &base.model, &base.pg);
    let overlay = |prior: Option<&GraphPatch>| {
        let ov = match prior {
            Some(prior) => PatchGraph::layered(g, prior),
            None => PatchGraph::new(g),
        };
        if indexed {
            ov.with_index(&base.index)
        } else {
            ov
        }
    };
    let batch = pg.meta.batch_size as u64;
    let cluster = ClusterConfig::new(4, 2, 10.0);
    let lossy = GistConfig { lossy: true };
    let policy = qkv_fusion_policy(model);
    let planners: Vec<(&'static str, Edit<'_>)> = vec![
        ("amp", Box::new(|p| plan_amp(p))),
        (
            "fused-adam",
            Box::new(|p| {
                plan_fused_adam(p);
            }),
        ),
        (
            "reconstruct-bn",
            Box::new(|p| plan_reconstruct_bn(p, model)),
        ),
        ("metaflow", Box::new(|p| plan_metaflow(p, &policy))),
        (
            "vdnn",
            Box::new(|p| {
                plan_vdnn(p, model, &VdnnConfig::default(), batch);
            }),
        ),
        (
            "gist",
            Box::new(|p| {
                plan_gist(p, &GistConfig::default());
            }),
        ),
        (
            "gist-lossy",
            Box::new(|p| {
                plan_gist(p, &lossy);
            }),
        ),
        (
            "bandwidth",
            Box::new(|p| {
                plan_bandwidth(p, 2.0);
            }),
        ),
        (
            "upgrade-gpu",
            Box::new(|p| {
                plan_upgrade_gpu(p, &GpuSpec::rtx_2080ti(), &GpuSpec::v100());
            }),
        ),
        (
            "batch-size",
            Box::new(|p| {
                plan_batch_size(p, batch, 16);
            }),
        ),
    ];
    let mut out = Vec::new();
    for (family, plan) in &planners {
        let mut ov = overlay(None);
        plan(&mut ov);
        out.push((*family, ov.finish()));
    }
    let mut ov = overlay(None);
    let allreduces = plan_distributed(&mut ov, &pg.meta.buckets, &cluster);
    let ddp = ov.finish();
    let mut ov = overlay(Some(&ddp));
    plan_blueconnect(&mut ov, &cluster, &allreduces);
    out.push(("blueconnect", ov.finish()));
    let mut ov = overlay(Some(&ddp));
    plan_dgc(&mut ov, &allreduces, &DgcConfig::default());
    out.push(("dgc", ov.finish()));
    out.push(("ddp", ddp));
    out
}

/// The index changes what emit reads, never what it records.
#[test]
fn indexed_overlays_record_the_patches_scanning_overlays_record() {
    for base in catalog_bases() {
        let scanned = emit_families(base, false);
        let indexed = emit_families(base, true);
        for ((family, scan), (_, ix)) in scanned.iter().zip(&indexed) {
            let name = &base.name;
            assert_eq!(ix.ops(), scan.ops(), "{name} {family}: op logs differ");
            assert_eq!(ix.fingerprint(), scan.fingerprint(), "{name} {family}");
        }
    }
}

/// The fingerprint folded in while recording is the op log's hash, for
/// every family, for patches layered on a prior one, for composed ones
/// and for P3's patch over its replicated base.
#[test]
fn streamed_fingerprint_is_the_op_logs_hash() {
    let from_scratch = |p: &GraphPatch| op_log_fingerprint(p.base_capacity(), p.ops());
    for base in catalog_bases() {
        let g = &base.pg.graph;
        let patches = emit_families(base, true);
        for (family, patch) in &patches {
            assert_eq!(
                patch.fingerprint(),
                from_scratch(patch),
                "{} {family}",
                base.name
            );
        }

        // DGC recorded over the applied DDP graph, composed onto the DDP
        // patch: the same log and fingerprint as DGC layered on it.
        let (_, ddp) = patches.iter().find(|(f, _)| *f == "ddp").unwrap();
        let (_, layered) = patches.iter().find(|(f, _)| *f == "dgc").unwrap();
        let applied = ddp.apply_reference(g);
        let allreduces: Vec<TaskId> = ddp.inserted_tasks().map(|(id, _)| id).collect();
        let mut refine = PatchGraph::new(&applied);
        plan_dgc(&mut refine, &allreduces, &DgcConfig::default());
        let refinement = refine.finish();
        assert_eq!(refinement.fingerprint(), from_scratch(&refinement));
        let composed = ddp.compose(g, &refinement);
        assert_eq!(composed.fingerprint(), from_scratch(&composed));
        assert_eq!(composed.ops(), layered.ops());
        assert_eq!(composed.fingerprint(), layered.fingerprint());
    }

    let base = &catalog_bases()[0];
    let cfg = P3Config::p3(ClusterConfig::new(4, 1, 4.0));
    let rep = p3_replicated_base(&base.pg, P3_ITERATIONS);
    let mut p = PatchGraph::new(&rep.graph);
    plan_p3_inserts(&mut p, &p3_insert_plan(&base.pg, &rep, &cfg));
    let patch = p.finish();
    assert!(!patch.is_empty());
    assert_eq!(patch.fingerprint(), from_scratch(&patch));
}
