//! Bench: the dispatch kernel, the chain sweep and the retime replay on
//! the real catalog bases.
//!
//! Times, on the 12 catalog bases (the six zoo models at batches 4 and
//! 8), `simulate_compiled` (the frontier kernel), the chain sweep
//! `Schedule::capture` runs (`simulate_compiled_swept`), a batch-size
//! patch (to four times the base's batch) through `simulate_warm` on a
//! warmed `SimScratch` arena, whose cone is over the budget, so the
//! engine's warm path replays the base's start order over the retimed
//! rows, and `P3Plan::steady_iteration_ns` on a warmed arena for each
//! base's P3 plan: three unrolled iterations with 4 MB-sliced push/pull
//! transfers for a 4-machine, 10 Gbit/s cluster, the graph and the path
//! the sweep engine simulates for a `p3` scenario, resumed after its
//! first iteration. Profiling, compilation, plan building and the
//! arena's first sizing stay outside the timed loop. Each figure is the
//! median of five timed rounds, so one preempted round cannot move it.
//! Unless running in `--test` smoke mode, the per-task costs are
//! snapshotted into the `"sim_kernel"` section of `BENCH_sim.json` at
//! the workspace root; a `"before"` table already in that section is
//! carried over unchanged, so the section keeps the numbers of the code
//! it was compared against.

use criterion::Criterion;
use daydream_bench::util::profile_for;
use daydream_comm::ClusterConfig;
use daydream_core::whatif::{plan_batch_size, P3Config, P3Plan};
use daydream_core::{
    simulate_compiled, simulate_compiled_swept, simulate_warm, CompiledGraph, PatchGraph, Schedule,
    SimScratch,
};
use daydream_models::zoo;
use std::hint::black_box;

/// Timed rounds per figure.
const ROUNDS: usize = 5;

/// The median over [`ROUNDS`] rounds of `samples` runs each, in ns per
/// each of `tasks` tasks.
fn median_ns_per_task(
    c: &mut Criterion,
    id: &str,
    samples: usize,
    tasks: usize,
    mut run: impl FnMut(),
) -> f64 {
    let mut group = c.benchmark_group("sim_kernel");
    group.sample_size(samples);
    for _ in 0..ROUNDS {
        group.bench_function(id, |b| b.iter(&mut run));
    }
    group.finish();
    let name = format!("sim_kernel/{id}");
    let mut per_task: Vec<f64> = c
        .records()
        .iter()
        .filter(|r| r.name == name)
        .map(|r| r.ns_per_iter / tasks as f64)
        .collect();
    per_task.sort_by(f64::total_cmp);
    per_task[per_task.len() / 2]
}

fn main() {
    let mut c = Criterion::default();
    let quick = c.is_quick_mode();
    let mut rows: Vec<String> = Vec::new();
    for model in zoo::all_models() {
        for batch in [4u64, 8] {
            let (pg, _) = profile_for(&model.name, Some(batch), false);
            let base = CompiledGraph::compile(&pg.graph);
            let schedule = Schedule::capture(&base).unwrap();
            let mut ov = PatchGraph::new(&pg.graph);
            plan_batch_size(&mut ov, batch, 4 * batch);
            let batch_size = ov.finish();
            let mut warm = SimScratch::new();
            let replay = simulate_warm(&base, &schedule, &batch_size, &mut warm).unwrap();
            assert!(
                !replay.stats.is_incremental(),
                "the cone is over the budget"
            );
            let cluster = ClusterConfig::new(4, 1, 10.0);
            let plan = P3Plan::new(&pg, &P3Config::p3(cluster));
            let wires = plan.wire_times(&cluster);
            let mut scratch = SimScratch::new();
            plan.steady_iteration_ns(&wires, &mut scratch).unwrap();
            let p3 = plan.compiled();
            let dispatched = plan.dispatched_tasks();
            let label = format!("{} b{batch}", model.name);
            let base_ns =
                median_ns_per_task(&mut c, &format!("base/{label}"), 40, base.len(), || {
                    simulate_compiled(black_box(&base)).unwrap();
                });
            let sweep_ns =
                median_ns_per_task(&mut c, &format!("sweep/{label}"), 40, base.len(), || {
                    simulate_compiled_swept(black_box(&base))
                        .expect("catalog bases are chain-threaded")
                        .unwrap();
                });
            let replay_ns =
                median_ns_per_task(&mut c, &format!("replay/{label}"), 40, base.len(), || {
                    simulate_warm(&base, &schedule, black_box(&batch_size), &mut warm).unwrap();
                });
            let p3_ns = median_ns_per_task(&mut c, &format!("p3/{label}"), 10, dispatched, || {
                plan.steady_iteration_ns(black_box(&wires), &mut scratch)
                    .unwrap();
            });
            println!(
                "sim_kernel {label}: base {base_ns:.1} ns/task, sweep {sweep_ns:.1} ns/task, \
                 replay {replay_ns:.1} ns/task, \
                 p3 {p3_ns:.1} ns per dispatched task ({dispatched} of {})",
                p3.len()
            );
            rows.push(format!(
                concat!(
                    "      {{\"model\": \"{}\", \"batch\": {}, ",
                    "\"tasks\": {}, \"threads\": {}, \"ns_per_task\": {:.1}, ",
                    "\"sweep_ns_per_task\": {:.1}, \"replay_ns_per_task\": {:.1}, ",
                    "\"p3_tasks\": {}, ",
                    "\"p3_dispatched\": {}, \"p3_threads\": {}, \"p3_ns_per_task\": {:.1}, ",
                    "\"p3_us\": {:.1}}}"
                ),
                model.name,
                batch,
                base.len(),
                base.thread_count(),
                base_ns,
                sweep_ns,
                replay_ns,
                p3.len(),
                dispatched,
                p3.thread_count(),
                p3_ns,
                p3_ns * dispatched as f64 / 1e3,
            ));
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
        .and_then(|json| json.get("sim_kernel")?.get("before").cloned());
    let before = match before {
        Some(v) => format!(
            ",\n    \"before\": {}",
            serde_json::to_string(&v).expect("re-encodes")
        ),
        None => String::new(),
    };
    let json = format!(
        concat!(
            "{{\n    \"kernel\": \"simulate_compiled (the frontier kernel) and the chain ",
            "sweep (simulate_compiled_swept, what Schedule::capture runs) on each catalog ",
            "base; a batch-size patch (to 4x the base's batch) through simulate_warm on a ",
            "warmed SimScratch arena (its cone is over the budget: the retime replay); ",
            "P3Plan::steady_iteration_ns on a warmed SimScratch arena (the engine's ",
            "path: wire times written into arena-owned rows, dense ranks sorted once per ",
            "plan, the first unrolled iteration replayed from the base schedule) for its ",
            "3-iteration, 4 MB-sliced P3 plan for 4 machines at 10 Gbit/s\",\n",
            "    \"note\": \"wall time per dispatched task (replay: the whole simulate_warm ",
            "call per base task; p3: of p3_dispatched, the plan's ",
            "tasks after its first iteration; p3_us per plan evaluation), median of 5 ",
            "rounds; compilation and plan building untimed\",\n",
            "    \"results\": [\n{}\n    ]{}\n  }}"
        ),
        rows.join(",\n"),
        before,
    );
    match criterion::snapshot::merge_section(path, "sim_kernel", &json) {
        Ok(()) => println!("wrote sim_kernel section of {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
