//! Bench: what-if transformation + simulation round trips — the cost of
//! answering one what-if question from an existing profile (compile +
//! baseline capture + patch emit + warm simulation, or a P3 plan build +
//! evaluation) — and the patch-emit layer on its own.
//!
//! The `patch_emit` part times, on the 12 catalog bases (the six zoo
//! models at batches 4 and 8), every family the sweep engine emits a
//! patch for, the way the engine emits it: one overlay per scenario,
//! selecting through the base's task index, with BlueConnect and DGC
//! layered on a DDP plan; the index and the DDP plan are built once per
//! base.
//! Each figure splits into emit (overlay plus planner, which hashes each
//! op into the patch fingerprint as it records it), `finish` and drop,
//! in µs per patch, the median of five timed rounds. Unless
//! running in `--test` smoke mode, the figures are snapshotted into the
//! `"patch_emit"` section of `BENCH_sim.json` at the workspace root; a
//! `"before"` table already in that section is carried over unchanged,
//! so the section keeps the numbers of the code it was compared against.

use criterion::{criterion_group, Criterion};
use daydream_bench::util::profile_for;
use daydream_comm::ClusterConfig;
use daydream_core::whatif::{self, DgcConfig, GistConfig, VdnnConfig};
use daydream_core::{predict, GraphPatch, PatchGraph, ProfiledGraph, TaskId, TaskIndex};
use daydream_device::GpuSpec;
use daydream_models::{zoo, Model};
use daydream_runtime::{baseline_plan, ExecConfig, Executor};
use daydream_sweep::OptSpec;
use std::hint::black_box;
use std::time::Instant;

fn profile(name: &str, batch: u64) -> ProfiledGraph {
    let model = zoo::by_name(name).expect("known model");
    let cfg = ExecConfig::pytorch_2080ti().with_batch(batch);
    let ex = Executor::new(&model, &cfg);
    ProfiledGraph::from_trace(&ex.run(&baseline_plan(&model, batch)))
}

fn bench_whatifs(c: &mut Criterion) {
    let mut group = c.benchmark_group("whatif");
    group.sample_size(15);
    let resnet = profile("ResNet-50", 8);
    let bert = profile("BERT_Base", 2);
    let cluster = ClusterConfig::new(4, 2, 10.0);

    group.bench_function("amp/ResNet-50", |b| {
        b.iter(|| predict(black_box(&resnet), whatif::plan_amp))
    });
    group.bench_function("fused_adam/BERT_Base", |b| {
        b.iter(|| predict(black_box(&bert), whatif::plan_fused_adam))
    });
    group.bench_function("distributed/BERT_Base", |b| {
        b.iter(|| {
            predict(black_box(&bert), |g| {
                whatif::plan_distributed(g, &bert.meta.buckets, &cluster)
            })
        })
    });
    group.bench_function("p3_unrolled/ResNet-50", |b| {
        let p3 = ClusterConfig::new(4, 1, 4.0);
        b.iter(|| whatif::P3Plan::new(black_box(&resnet), &whatif::P3Config::p3(p3)).evaluate(&p3))
    });
    group.finish();
}

criterion_group!(benches, bench_whatifs);

/// Timed rounds per figure.
const ROUNDS: usize = 5;

/// Patches emitted per round.
const ITERS: usize = 20;

/// The catalog cluster shape the distributed families are timed at.
fn cluster() -> ClusterConfig {
    ClusterConfig::new(8, 1, 8.0)
}

/// One catalog scenario per family the engine emits a patch for.
fn families() -> Vec<OptSpec> {
    let c = cluster();
    let (machines, gpus_per_machine, bw_gbps) = (c.machines, c.gpus_per_machine, c.inter_node_gbps);
    vec![
        OptSpec::Amp,
        OptSpec::FusedAdam,
        OptSpec::ReconstructBn,
        OptSpec::Metaflow,
        OptSpec::Ddp {
            machines,
            gpus_per_machine,
            bw_gbps,
        },
        OptSpec::BlueConnect {
            machines,
            gpus_per_machine,
            bw_gbps,
        },
        OptSpec::Dgc {
            machines,
            gpus_per_machine,
            bw_gbps,
            ratio: 0.01,
        },
        OptSpec::Vdnn { lookahead: 2 },
        OptSpec::Gist { lossy: false },
        OptSpec::Bandwidth { factor: 2.0 },
        OptSpec::UpgradeGpu { to: "v100".into() },
        OptSpec::BatchSize { batch: 16 },
    ]
}

/// What the engine builds once per base and reuses for every scenario.
struct BaseCache {
    index: TaskIndex,
    ddp: GraphPatch,
    allreduces: Vec<TaskId>,
}

/// Records `opt`'s patch over `pg` as the engine's emit does, up to
/// (not including) `finish`.
fn emit<'a>(
    opt: &OptSpec,
    pg: &'a ProfiledGraph,
    model: &Model,
    cache: &'a BaseCache,
) -> PatchGraph<'a> {
    let g = &pg.graph;
    match opt {
        OptSpec::Amp => {
            let mut ov = PatchGraph::new(g).with_index(&cache.index);
            whatif::plan_amp(&mut ov);
            ov
        }
        OptSpec::FusedAdam => {
            let mut ov = PatchGraph::new(g).with_index(&cache.index);
            whatif::plan_fused_adam(&mut ov);
            ov
        }
        OptSpec::ReconstructBn => {
            let mut ov = PatchGraph::new(g).with_index(&cache.index);
            whatif::plan_reconstruct_bn(&mut ov, model);
            ov
        }
        OptSpec::Metaflow => {
            let mut ov = PatchGraph::new(g).with_index(&cache.index);
            whatif::plan_metaflow(&mut ov, &whatif::qkv_fusion_policy(model));
            ov
        }
        OptSpec::Ddp {
            machines,
            gpus_per_machine,
            bw_gbps,
        } => {
            let mut ov = PatchGraph::new(g).with_index(&cache.index);
            let c = ClusterConfig::new(*machines, *gpus_per_machine, *bw_gbps);
            whatif::plan_distributed(&mut ov, &pg.meta.buckets, &c);
            ov
        }
        OptSpec::BlueConnect {
            machines,
            gpus_per_machine,
            bw_gbps,
        } => {
            let mut ov = PatchGraph::layered(g, &cache.ddp).with_index(&cache.index);
            let c = ClusterConfig::new(*machines, *gpus_per_machine, *bw_gbps);
            whatif::plan_blueconnect(&mut ov, &c, &cache.allreduces);
            ov
        }
        OptSpec::Dgc { ratio, .. } => {
            let mut ov = PatchGraph::layered(g, &cache.ddp).with_index(&cache.index);
            let cfg = DgcConfig {
                compression_ratio: *ratio,
            };
            whatif::plan_dgc(&mut ov, &cache.allreduces, &cfg);
            ov
        }
        OptSpec::Vdnn { lookahead } => {
            let mut ov = PatchGraph::new(g).with_index(&cache.index);
            let cfg = VdnnConfig {
                prefetch_lookahead: *lookahead,
                ..VdnnConfig::default()
            };
            whatif::plan_vdnn(&mut ov, model, &cfg, pg.meta.batch_size as u64);
            ov
        }
        OptSpec::Gist { lossy } => {
            let mut ov = PatchGraph::new(g).with_index(&cache.index);
            let cfg = GistConfig { lossy: *lossy };
            whatif::plan_gist(&mut ov, &cfg);
            ov
        }
        OptSpec::Bandwidth { factor } => {
            let mut ov = PatchGraph::new(g).with_index(&cache.index);
            whatif::plan_bandwidth(&mut ov, *factor);
            ov
        }
        OptSpec::UpgradeGpu { to } => {
            let mut ov = PatchGraph::new(g).with_index(&cache.index);
            let old = GpuSpec::by_name(&pg.meta.device).expect("profiled device");
            let new = GpuSpec::by_name(to).expect("known target");
            whatif::plan_upgrade_gpu(&mut ov, &old, &new);
            ov
        }
        OptSpec::BatchSize { batch } => {
            let mut ov = PatchGraph::new(g).with_index(&cache.index);
            whatif::plan_batch_size(&mut ov, pg.meta.batch_size as u64, *batch);
            ov
        }
        OptSpec::Baseline | OptSpec::P3 { .. } => unreachable!("not emitted over the profile"),
    }
}

/// Median over rounds of the mean per-patch `(emit, finish, drop)` µs.
fn time_family(
    opt: &OptSpec,
    pg: &ProfiledGraph,
    model: &Model,
    cache: &BaseCache,
    rounds: usize,
    iters: usize,
) -> [f64; 3] {
    let mut per_round: Vec<[f64; 3]> = (0..rounds)
        .map(|_| {
            let mut sum = [0.0; 3];
            for _ in 0..iters {
                let t = Instant::now();
                let ov = black_box(emit(opt, pg, model, cache));
                let emitted = Instant::now();
                let patch = black_box(ov.finish());
                let finished = Instant::now();
                drop(patch);
                let dropped = Instant::now();
                sum[0] += (emitted - t).as_secs_f64();
                sum[1] += (finished - emitted).as_secs_f64();
                sum[2] += (dropped - finished).as_secs_f64();
            }
            sum.map(|s| s * 1e6 / iters as f64)
        })
        .collect();
    let mut median = [0.0; 3];
    for (k, m) in median.iter_mut().enumerate() {
        per_round.sort_by(|a, b| a[k].total_cmp(&b[k]));
        *m = per_round[per_round.len() / 2][k];
    }
    median
}

fn bench_patch_emit(quick: bool) {
    let (rounds, iters) = if quick { (1, 1) } else { (ROUNDS, ITERS) };
    let mut rows: Vec<String> = Vec::new();
    for model in zoo::all_models() {
        for batch in [4u64, 8] {
            let (pg, _) = profile_for(&model.name, Some(batch), false);
            let index = TaskIndex::build(&pg.graph);
            let mut ov = PatchGraph::new(&pg.graph).with_index(&index);
            let allreduces = whatif::plan_distributed(&mut ov, &pg.meta.buckets, &cluster());
            let cache = BaseCache {
                ddp: ov.finish(),
                allreduces,
                index,
            };
            for opt in families().iter().filter(|o| o.applicable(&model)) {
                let [emit_us, finish_us, drop_us] =
                    time_family(opt, &pg, &model, &cache, rounds, iters);
                let family = opt.family();
                println!(
                    "patch_emit {} b{batch} {family}: emit {emit_us:.1} us, \
                     finish {finish_us:.2} us, drop {drop_us:.1} us",
                    model.name
                );
                rows.push(format!(
                    concat!(
                        "      {{\"model\": \"{}\", \"batch\": {}, \"family\": \"{}\", ",
                        "\"emit_us\": {:.1}, \"finish_us\": {:.2}, \"drop_us\": {:.1}}}"
                    ),
                    model.name, batch, family, emit_us, finish_us, drop_us,
                ));
            }
        }
    }

    // Smoke runs (`--test`) measure one iteration — not worth snapshotting.
    if quick {
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    let before = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<serde_json::Value>(&text).ok())
        .and_then(|json| json.get("patch_emit")?.get("before").cloned());
    let before = match before {
        Some(v) => format!(
            ",\n    \"before\": {}",
            serde_json::to_string(&v).expect("re-encodes")
        ),
        None => String::new(),
    };
    let json = format!(
        concat!(
            "{{\n    \"scenarios\": \"one per family the engine emits, on each catalog base; ",
            "ddp, blueconnect and dgc for 8 machines x 1 GPU at 8 Gbit/s (dgc ratio 0.01), ",
            "blueconnect and dgc layered on the base's DDP patch; vdnn lookahead 2, ",
            "lossless gist, bandwidth x2, upgrade-gpu to v100, batch-size 16\",\n",
            "    \"note\": \"us per patch, median of 5 rounds of 20: emit = overlay + ",
            "planner, which hashes each op into the fingerprint as it records it, ",
            "then finish, then drop; task index and DDP plan built once per base, ",
            "untimed\",\n",
            "    \"results\": [\n{}\n    ]{}\n  }}"
        ),
        rows.join(",\n"),
        before,
    );
    match criterion::snapshot::merge_section(path, "patch_emit", &json) {
        Ok(()) => println!("wrote patch_emit section of {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    benches();
    bench_patch_emit(Criterion::default().is_quick_mode());
}
