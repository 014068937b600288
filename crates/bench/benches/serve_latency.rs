//! Criterion bench: what the resident daemon's warm profile registry
//! buys over cold-start evaluation.
//!
//! Three measurements around one what-if scenario (GNMT b4, DDP on four
//! machines at 10 Gbit/s — a patch that only adds a thread, so the warm
//! path times its inserted all-reduces alone):
//!
//! 1. *cold* — a fresh engine per iteration: profile build + compile +
//!    baseline schedule capture + evaluation, the cost every one-shot
//!    `daydream predict` pays.
//! 2. *warm* — one resident engine, result cache cleared per iteration:
//!    the incremental simulation against the already-captured
//!    baseline schedule, the daemon's `POST /whatif` fast path.
//! 3. *warm over HTTP* — the same warm evaluation through a live
//!    [`daydream_serve::Server`] socket round trip, bounding the
//!    daemon's own protocol overhead.
//!
//! Plus sweep-job throughput: a 10-scenario grid submitted through the
//! daemon's [`daydream_serve::JobQueue`], timed submit-to-done.
//!
//! Unless running in `--test` smoke mode, results land in the `"serve"`
//! section of `BENCH_sim.json` at the workspace root, asserting the
//! warm path is >= 10x faster than cold.

use criterion::Criterion;
use daydream_serve::{http_request, JobQueue, ServeConfig, Server};
use daydream_sweep::{Scenario, SweepEngine, SweepGrid};
use std::hint::black_box;
use std::sync::Arc;

fn whatif_scenario() -> Scenario {
    SweepGrid::builder()
        .models(["GNMT"])
        .batches([4])
        .opts(["ddp"])
        .machines([4])
        .bandwidths([10.0])
        .build()
        .expand()
        .expect("valid grid")
        .remove(0)
}

fn job_scenarios() -> Vec<Scenario> {
    SweepGrid::builder()
        .models(["ResNet-50", "BERT_Base"])
        .batches([4])
        .opts(["amp", "gist", "ddp", "bandwidth"])
        .bandwidths([10.0, 25.0])
        .machines([4])
        .build()
        .expand()
        .expect("valid grid")
}

fn main() {
    let mut c = Criterion::default();
    let quick = c.is_quick_mode();
    let scenario = whatif_scenario();

    // --- Path sanity: the warm what-if really is incremental. ---
    let warm_engine = SweepEngine::new(1);
    warm_engine
        .run_scenarios(vec![scenario.clone()])
        .expect("warmup");
    warm_engine.clear_result_cache();
    let outcome = &warm_engine
        .run_scenarios(vec![scenario.clone()])
        .expect("warm eval")[0];
    assert_eq!(
        outcome.sim_path, "incremental",
        "the warm what-if must ride an incremental path"
    );
    assert!(
        outcome.tasks_redispatched > 0,
        "the warm what-if must re-dispatch its tasks, not replay a no-op"
    );

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.bench_function("whatif_cold/profile_build", |b| {
        b.iter(|| {
            let engine = SweepEngine::new(1);
            black_box(engine.run_scenarios(vec![scenario.clone()]).expect("cold"))
        })
    });
    group.bench_function("whatif_warm/resident_base", |b| {
        b.iter(|| {
            warm_engine.clear_result_cache();
            black_box(
                warm_engine
                    .run_scenarios(vec![scenario.clone()])
                    .expect("warm"),
            )
        })
    });

    // Warm evaluation through the real daemon socket. The first request
    // outside the timed region builds the daemon's own base.
    let server = Server::bind(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    })
    .expect("bind daemon");
    let addr = server.local_addr().expect("bound").to_string();
    let daemon = std::thread::spawn(move || server.run().expect("daemon runs"));
    let body = r#"{"model": "GNMT", "opt": "ddp", "machines": 4, "bw": 10}"#;
    let first = http_request(&addr, "POST", "/whatif", body).expect("daemon warmup");
    assert!(first.is_ok(), "warmup what-if failed: {}", first.body);
    group.bench_function("whatif_warm/http_roundtrip", |b| {
        b.iter(|| black_box(http_request(&addr, "POST", "/whatif", body).expect("http whatif")))
    });

    // Sweep-job throughput: a grid through the daemon's queue,
    // submit-to-done (warm bases; fresh evaluations each iteration).
    let engine = Arc::new(SweepEngine::new(2));
    let queue = JobQueue::new(Arc::clone(&engine), None);
    let scenarios = job_scenarios();
    let job_len = scenarios.len();
    engine
        .run_scenarios(scenarios.clone())
        .expect("warm job bases");
    group.bench_function(&format!("sweep_job/{job_len}scen"), |b| {
        b.iter(|| {
            engine.clear_result_cache();
            let id = queue.submit(scenarios.clone());
            loop {
                let snap = queue.snapshot(id).expect("submitted job");
                match snap.state.as_str() {
                    "done" => break,
                    "failed" => panic!("bench job failed: {:?}", snap.error),
                    _ => std::thread::sleep(std::time::Duration::from_micros(200)),
                }
            }
        })
    });
    group.finish();

    http_request(&addr, "POST", "/shutdown", "").expect("daemon shutdown");
    daemon.join().expect("daemon thread");

    let find = |needle: &str| {
        c.records()
            .iter()
            .rev()
            .find(|r| r.name.contains(needle))
            .map(|r| r.ns_per_iter)
    };
    let cold = find("whatif_cold/profile_build");
    let warm = find("whatif_warm/resident_base");
    let http = find("whatif_warm/http_roundtrip");
    let job = find("sweep_job/");
    if let (Some(cold), Some(warm), Some(http), Some(job)) = (cold, warm, http, job) {
        let speedup = cold / warm;
        let throughput = job_len as f64 / (job / 1e9);
        println!(
            "serve: cold what-if {:.2} ms, warm {:.1} us ({speedup:.0}x), \
             warm over HTTP {:.1} us, sweep job {job_len} scen in {:.2} ms \
             ({throughput:.0} scen/s)",
            cold / 1e6,
            warm / 1e3,
            http / 1e3,
            job / 1e6,
        );
        // Smoke runs (`--test`) measure one iteration — too noisy to
        // gate or snapshot.
        if !quick {
            assert!(
                speedup >= 10.0,
                "warm registry must answer what-ifs >= 10x faster than a \
                 cold profile build (got {speedup:.1}x)"
            );
            let json = format!(
                concat!(
                    "{{\n  \"scenario\": \"{}\",\n",
                    "  \"note\": \"cold = fresh engine per iteration (profile build + compile + ",
                    "baseline capture + eval); warm = resident engine, result cache cleared, ",
                    "the thread-insert simulation only; http = same warm eval through a live ",
                    "daemon socket; sweep_job = submit-to-done through the job queue with warm ",
                    "bases\",\n",
                    "  \"whatif_cold_ns_per_iter\": {},\n",
                    "  \"whatif_warm_ns_per_iter\": {},\n",
                    "  \"warm_speedup\": {},\n",
                    "  \"whatif_warm_http_ns_per_iter\": {},\n",
                    "  \"sweep_job_scenarios\": {},\n",
                    "  \"sweep_job_ns_per_iter\": {},\n",
                    "  \"sweep_job_scen_per_s\": {}\n  }}"
                ),
                scenario.label(),
                cold,
                warm,
                (speedup * 10.0).round() / 10.0,
                http,
                job_len,
                job,
                throughput.round(),
            );
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
            match criterion::snapshot::merge_section(path, "serve", &json) {
                Ok(()) => println!("wrote serve section of {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        }
    } else {
        eprintln!("missing bench records; skipping snapshot");
    }
}
