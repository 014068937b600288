//! Criterion bench: what-if transformation + simulation round trips —
//! the cost of answering one what-if question from an existing profile
//! (compile + baseline capture + patch emit + warm simulation, or a P3
//! plan build + evaluation).

use criterion::{criterion_group, criterion_main, Criterion};
use daydream_comm::ClusterConfig;
use daydream_core::{predict, whatif, ProfiledGraph};
use daydream_models::zoo;
use daydream_runtime::{baseline_plan, ExecConfig, Executor};

fn profile_for(name: &str, batch: u64) -> ProfiledGraph {
    let model = zoo::by_name(name).expect("known model");
    let cfg = ExecConfig::pytorch_2080ti().with_batch(batch);
    let ex = Executor::new(&model, &cfg);
    ProfiledGraph::from_trace(&ex.run(&baseline_plan(&model, batch)))
}

fn bench_whatifs(c: &mut Criterion) {
    let mut group = c.benchmark_group("whatif");
    group.sample_size(15);
    let resnet = profile_for("ResNet-50", 8);
    let bert = profile_for("BERT_Base", 2);
    let cluster = ClusterConfig::new(4, 2, 10.0);

    group.bench_function("amp/ResNet-50", |b| {
        b.iter(|| predict(std::hint::black_box(&resnet), whatif::plan_amp))
    });
    group.bench_function("fused_adam/BERT_Base", |b| {
        b.iter(|| predict(std::hint::black_box(&bert), whatif::plan_fused_adam))
    });
    group.bench_function("distributed/BERT_Base", |b| {
        b.iter(|| {
            predict(std::hint::black_box(&bert), |g| {
                whatif::plan_distributed(g, &bert.meta.buckets, &cluster)
            })
        })
    });
    group.bench_function("p3_unrolled/ResNet-50", |b| {
        let p3 = ClusterConfig::new(4, 1, 4.0);
        b.iter(|| {
            whatif::P3Plan::new(std::hint::black_box(&resnet), &whatif::P3Config::p3(p3))
                .evaluate(&p3)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_whatifs);
criterion_main!(benches);
