//! Bench: the dispatch loop, with and without choice threads, and the
//! retime replay on the real catalog bases.
//!
//! Times, on the 12 catalog bases (the six zoo models at batches 4 and
//! 8), `simulate_compiled` (every thread on a frontier: the kernel), the
//! chain sweep `Schedule::capture` runs (`simulate_compiled_mixed` with
//! no choice thread), a batch-size patch (to four times the base's
//! batch) through `simulate_warm` on a warmed `SimScratch` arena, whose
//! cone is over the budget, so the engine's warm path replays the base's
//! start order over the retimed rows, and three graphs where Algorithm
//! 1 has a choice, each on the engine's path: the warm calls (budget
//! 0.0) of a DDP patch (a collective channel), which only adds a
//! thread, so the warm path times its inserted tasks alone, and of DGC
//! layered on it (its compression kernels join the compute stream),
//! which falls back to a full run, and
//! `P3Plan::steady_iteration_ns` for each base's P3 plan, its pricing
//! included: three unrolled iterations with 4 MB-sliced push/pull
//! transfers, the graph and the path the sweep engine simulates for a
//! `p3` scenario on a patch-cache miss, run copy by copy after its first
//! iteration (compute tasks walked in the build sweep's order, transfers
//! drained from the push and pull channels' frontiers).
//! The warm call of BlueConnect layered on the DDP patch (its stage
//! channel), which also only adds threads, is timed too; the DDP and
//! BlueConnect calls are also reported in µs per call.
//! All use a 4-machine, 10 Gbit/s cluster. Beside each of the three,
//! `simulate_compiled_mixed` runs the loop over the same
//! graph (the patch applied, the whole plan) twice, round by round in
//! turn: with the choice threads its checks settle on when it starts
//! from none (the threads the engine picks for that graph), and with
//! every thread a choice thread. Profiling, compilation, patch emit, plan
//! building and the arenas' first sizing stay outside the timed loop.
//! Each figure is the median of five timed rounds, so one preempted round
//! cannot move it. Unless running in `--test` smoke mode, the per-task
//! costs are snapshotted into the `"sim_kernel"` section of
//! `BENCH_sim.json` at the workspace root; a `"before"` table already in
//! that section is carried over unchanged, so the section keeps the
//! numbers of the code it was compared against.

use criterion::Criterion;
use daydream_bench::util::profile_for;
use daydream_comm::ClusterConfig;
use daydream_core::whatif::{
    plan_batch_size, plan_blueconnect, plan_dgc, plan_distributed, DgcConfig, P3Config, P3Plan,
    P3Scheduler,
};
use daydream_core::{
    simulate_compiled, simulate_compiled_mixed, simulate_warm, simulate_warm_with, CompiledGraph,
    EarliestStart, FrontierOrder, GraphPatch, PatchGraph, Schedule, SimScratch,
};
use daydream_models::zoo;
use std::hint::black_box;

/// Timed rounds per figure.
const ROUNDS: usize = 5;

/// Tasks each timed round runs through, whatever the graph's size: tens
/// of milliseconds, so a round outlasts the host's scheduling noise.
const TASKS_PER_ROUND: usize = 1 << 20;

/// The medians over [`ROUNDS`] rounds of each of `runs`, in turn within
/// each round, in ns per each of `tasks` tasks a run takes.
fn median_ns_per_task<const N: usize>(
    c: &mut Criterion,
    ids: [&str; N],
    tasks: usize,
    mut runs: [&mut dyn FnMut(); N],
) -> [f64; N] {
    let mut group = c.benchmark_group("sim_kernel");
    group.sample_size(TASKS_PER_ROUND.div_ceil(tasks.max(1)));
    for _ in 0..ROUNDS {
        for (id, run) in ids.iter().zip(runs.iter_mut()) {
            group.bench_function(id, |b| b.iter(&mut *run));
        }
    }
    group.finish();
    ids.map(|id| {
        let name = format!("sim_kernel/{id}");
        let mut per_task: Vec<f64> = c
            .records()
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.ns_per_iter / tasks as f64)
            .collect();
        per_task.sort_by(f64::total_cmp);
        per_task[per_task.len() / 2]
    })
}

/// The warm call of `patch` at budget 0.0 on a warmed arena: the tasks
/// of the patched graph, and the call's time in ns per each of them.
fn warm_ns_per_task(
    c: &mut Criterion,
    id: &str,
    base: &CompiledGraph,
    schedule: &Schedule,
    patch: &GraphPatch,
) -> (usize, f64) {
    let mut scratch = SimScratch::new();
    let mut run =
        || simulate_warm_with(base, schedule, black_box(patch), &mut scratch, 0.0).unwrap();
    let tasks = run().stats.total;
    let [ns] = median_ns_per_task(
        c,
        [id],
        tasks,
        [&mut || {
            run();
        }],
    );
    (tasks, ns)
}

/// `simulate_compiled_mixed` over `graph` under `order`, with the choice
/// threads the loop's checks settle on when it starts from none and
/// with every thread a choice thread, in turn: ns per task of `graph`.
fn choice_and_frontier_ns<O: FrontierOrder>(
    c: &mut Criterion,
    id: &str,
    graph: &CompiledGraph,
    order: &O,
) -> [f64; 2] {
    let none = vec![false; graph.thread_count()];
    let (sim, choice) = simulate_compiled_mixed(graph, order, &none).unwrap();
    assert!(choice.contains(&false), "{id}: some thread is a chain");
    let every = vec![true; graph.thread_count()];
    assert_eq!(
        simulate_compiled_mixed(graph, order, &every).unwrap().0,
        sim
    );
    let ids = [format!("{id}-choice"), format!("{id}-frontier")];
    median_ns_per_task(
        c,
        ids.each_ref().map(String::as_str),
        graph.len(),
        [
            &mut || {
                simulate_compiled_mixed(black_box(graph), order, &choice).unwrap();
            },
            &mut || {
                simulate_compiled_mixed(black_box(graph), order, &every).unwrap();
            },
        ],
    )
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
            let no_choice = vec![false; base.thread_count()];
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
            let mut ov = PatchGraph::new(&pg.graph);
            let allreduces = plan_distributed(&mut ov, &pg.meta.buckets, &cluster);
            let ddp = ov.finish();
            let mut ov = PatchGraph::layered(&pg.graph, &ddp);
            plan_blueconnect(&mut ov, &cluster, &allreduces);
            let blueconnect = ov.finish();
            let mut ov = PatchGraph::layered(&pg.graph, &ddp);
            plan_dgc(&mut ov, &allreduces, &DgcConfig::default());
            let dgc = ov.finish();
            let plan = P3Plan::new(&pg, &P3Config::p3(cluster));
            let p3 = plan.compiled();
            let dispatched = plan.dispatched_tasks();
            let label = format!("{} b{batch}", model.name);

            let ids = ["base", "sweep", "replay"].map(|what| format!("{what}/{label}"));
            let [base_ns, sweep_ns, replay_ns] = median_ns_per_task(
                &mut c,
                ids.each_ref().map(String::as_str),
                base.len(),
                [
                    &mut || {
                        simulate_compiled(black_box(&base)).unwrap();
                    },
                    &mut || {
                        simulate_compiled_mixed(black_box(&base), &EarliestStart, &no_choice)
                            .unwrap();
                    },
                    &mut || {
                        simulate_warm(&base, &schedule, black_box(&batch_size), &mut warm).unwrap();
                    },
                ],
            );
            // The warm call of `patch` on a warmed arena, ns per patched
            // task, and the loop over the applied patch.
            let mut fallback = |what: &str, patch| {
                let id = format!("{what}/{label}");
                let (tasks, ns) = warm_ns_per_task(&mut c, &id, &base, &schedule, patch);
                let applied = base.apply(patch);
                let [choice_ns, frontier_ns] =
                    choice_and_frontier_ns(&mut c, &id, &applied, &EarliestStart);
                (tasks, ns, choice_ns, frontier_ns)
            };
            let (ddp_tasks, ddp_ns, ddp_choice_ns, ddp_frontier_ns) = fallback("ddp", &ddp);
            let (dgc_tasks, dgc_ns, dgc_choice_ns, dgc_frontier_ns) = fallback("dgc", &dgc);
            let id = format!("blueconnect/{label}");
            let (bc_tasks, bc_ns) = warm_ns_per_task(&mut c, &id, &base, &schedule, &blueconnect);
            let (ddp_us, bc_us) = (
                ddp_ns * ddp_tasks as f64 / 1e3,
                bc_ns * bc_tasks as f64 / 1e3,
            );
            let mut scratch = SimScratch::new();
            let (_, timed) = plan.steady_iteration_ns(&cluster, &mut scratch).unwrap();
            assert_eq!(timed, dispatched, "{label}: the per-copy run");
            let id = format!("p3/{label}");
            let [p3_ns] = median_ns_per_task(
                &mut c,
                [id.as_str()],
                dispatched,
                [&mut || {
                    plan.steady_iteration_ns(black_box(&cluster), &mut scratch)
                        .unwrap();
                }],
            );
            let [p3_choice_ns, p3_frontier_ns] =
                choice_and_frontier_ns(&mut c, &id, p3, &P3Scheduler);
            println!(
                "sim_kernel {label}: base {base_ns:.1} ns/task, sweep {sweep_ns:.1} ns/task, \
                 replay {replay_ns:.1} ns/task, ddp {ddp_us:.2} us/call, blueconnect \
                 {bc_us:.2} us/call, ddp {ddp_ns:.1} ns/task (loop \
                 {ddp_choice_ns:.1}, all-frontier {ddp_frontier_ns:.1}), dgc {dgc_ns:.1} \
                 ns/task (loop {dgc_choice_ns:.1}, all-frontier {dgc_frontier_ns:.1}), p3 \
                 {p3_ns:.1} ns per dispatched task ({dispatched} of {}; loop \
                 {p3_choice_ns:.1}, all-frontier {p3_frontier_ns:.1} ns/task)",
                p3.len()
            );
            rows.push(format!(
                concat!(
                    "      {{\"model\": \"{}\", \"batch\": {}, ",
                    "\"tasks\": {}, \"threads\": {}, \"ns_per_task\": {:.1}, ",
                    "\"sweep_ns_per_task\": {:.1}, \"replay_ns_per_task\": {:.1}, ",
                    "\"ddp_tasks\": {}, \"ddp_ns_per_task\": {:.1}, \"ddp_us\": {:.2}, ",
                    "\"blueconnect_tasks\": {}, \"blueconnect_us\": {:.2}, ",
                    "\"ddp_choice_ns_per_task\": {:.1}, \"ddp_frontier_ns_per_task\": {:.1}, ",
                    "\"dgc_tasks\": {}, \"dgc_ns_per_task\": {:.1}, ",
                    "\"dgc_choice_ns_per_task\": {:.1}, \"dgc_frontier_ns_per_task\": {:.1}, ",
                    "\"p3_tasks\": {}, ",
                    "\"p3_dispatched\": {}, \"p3_threads\": {}, \"p3_ns_per_task\": {:.1}, ",
                    "\"p3_us\": {:.1}, ",
                    "\"p3_choice_ns_per_task\": {:.1}, \"p3_frontier_ns_per_task\": {:.1}}}"
                ),
                model.name,
                batch,
                base.len(),
                base.thread_count(),
                base_ns,
                sweep_ns,
                replay_ns,
                ddp_tasks,
                ddp_ns,
                ddp_us,
                bc_tasks,
                bc_us,
                ddp_choice_ns,
                ddp_frontier_ns,
                dgc_tasks,
                dgc_ns,
                dgc_choice_ns,
                dgc_frontier_ns,
                p3.len(),
                dispatched,
                p3.thread_count(),
                p3_ns,
                p3_ns * dispatched as f64 / 1e3,
                p3_choice_ns,
                p3_frontier_ns,
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
            "{{\n    \"kernel\": \"simulate_compiled (every thread on a frontier) and the ",
            "chain sweep (simulate_compiled_mixed with no choice thread, what ",
            "Schedule::capture runs) on each catalog base; a batch-size patch (to 4x the ",
            "base's batch) through simulate_warm on a warmed SimScratch arena (its cone is ",
            "over the budget: the retime replay); the warm calls (budget 0.0) of a DDP ",
            "patch and of BlueConnect layered on it (both only add threads: the ",
            "thread-insert path times their inserted tasks alone) and the warm full ",
            "fallback (budget 0.0) of DGC layered on DDP, and P3Plan::steady_iteration_ns (the ",
            "engine's path: each transfer priced at its wire time straight into arena-owned ",
            "rows, dense ranks sorted ",
            "once per plan, the first unrolled iteration replayed from the build's timing ",
            "and the rest run copy by copy: compute tasks walked in the build sweep's ",
            "order, each copy's transfers drained from the push and pull channels' ",
            "frontiers) ",
            "for its 3-iteration, 4 MB-sliced P3 plan, each on a warmed arena; beside each, ",
            "simulate_compiled_mixed over the same graph (the patch applied, the whole plan) ",
            "with the choice threads its checks settle on from none (*_choice_ns_per_task) ",
            "and with every thread a choice thread (*_frontier_ns_per_task); 4 machines at ",
            "10 Gbit/s\",\n",
            "    \"note\": \"wall time per dispatched task (replay: the whole simulate_warm ",
            "call per base task; ddp and dgc: the whole simulate_warm_with call per patched ",
            "task; ddp_us and blueconnect_us: that call's whole time; p3: of p3_dispatched, ",
            "the plan's tasks after its first iteration; p3_us ",
            "per plan evaluation; *_choice and *_frontier: the whole simulate_compiled_mixed ",
            "call, arena allocation included, per task of the graph), median of 5 rounds of ",
            "about 2^20 tasks, the choice and frontier calls alternating round by round; ",
            "compilation, patch emit and plan building untimed\",\n",
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
