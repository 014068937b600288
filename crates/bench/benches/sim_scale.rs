//! Criterion bench: heap-based compiled simulator vs the reference loop.
//!
//! Synthetic kernel-granularity graphs shaped like a communication-bound
//! training iteration (the regime where Daydream's what-ifs matter most):
//! a CPU launch chain, kernels round-robined over four CUDA streams, and
//! one unchained gradient transfer per kernel contending for a single
//! collective channel. The channel is slower than the kernels, so its
//! ready-set grows with graph size — the frontier shape that made the
//! reference loop quadratic.
//!
//! Four scales (1k/10k/100k/1M tasks) measure the compiled path; the
//! reference oracle runs at 1k and 10k only (its quadratic frontier
//! refresh needs tens of seconds per iteration at 100k). Unless running
//! in `--test` smoke mode, the measurements are snapshotted into the
//! `"sim_scale"` section of `BENCH_sim.json` at the workspace root
//! (merged with the other benches' sections via the criterion-shim
//! snapshot registry).

use criterion::{BenchmarkId, Criterion, Throughput};
use daydream_bench::synth::{synthetic_graph, STREAMS};
use daydream_core::{simulate, simulate_compiled, simulate_reference, CompiledGraph};
use std::hint::black_box;

fn main() {
    let mut c = Criterion::default();
    let quick = c.is_quick_mode();
    let mut rows: Vec<String> = Vec::new();

    for &n in &[1_000usize, 10_000, 100_000, 1_000_000] {
        let g = synthetic_graph(n);
        let tasks = g.len();
        let edges = g.edge_count();
        let compiled = CompiledGraph::compile(&g);

        let mut group = c.benchmark_group("sim_scale");
        group.sample_size(if n >= 1_000_000 {
            5
        } else if n >= 100_000 {
            10
        } else {
            20
        });
        group.throughput(Throughput::Elements(tasks as u64));
        // Graph-build + compile is too slow to repeat per sample at 1M;
        // the cold path is covered by the smaller scales.
        if n < 1_000_000 {
            group.bench_with_input(
                BenchmarkId::new("compiled", format!("{tasks} tasks")),
                &g,
                |b, g| b.iter(|| simulate(black_box(g)).unwrap()),
            );
        }
        group.bench_with_input(
            BenchmarkId::new("compiled_hot", format!("{tasks} tasks")),
            &compiled,
            |b, cg| b.iter(|| simulate_compiled(black_box(cg)).unwrap()),
        );
        let reference_feasible = n <= 10_000;
        if reference_feasible {
            group.sample_size(if n >= 10_000 { 3 } else { 10 });
            group.bench_with_input(
                BenchmarkId::new("reference", format!("{tasks} tasks")),
                &g,
                |b, g| b.iter(|| simulate_reference(black_box(g)).unwrap()),
            );
        }
        group.finish();

        let find = |kind: &str| {
            c.records()
                .iter()
                .rev()
                .find(|r| r.name.contains(&format!("/{kind}/{tasks} tasks")))
                .map(|r| r.ns_per_iter)
        };
        let (comp, hot, reference) = (find("compiled"), find("compiled_hot"), find("reference"));
        let speedup = match (comp, reference) {
            (Some(cn), Some(rn)) if cn > 0.0 => Some(rn / cn),
            _ => None,
        };
        if let Some(s) = speedup {
            println!("sim_scale {tasks} tasks: reference/compiled speedup {s:.1}x");
        }
        let fmt_opt = |v: Option<f64>| {
            v.map(|x| format!("{x:.1}"))
                .unwrap_or_else(|| "null".to_string())
        };
        rows.push(format!(
            concat!(
                "    {{\"tasks\": {}, \"edges\": {}, ",
                "\"compiled_ns_per_iter\": {}, \"compiled_hot_ns_per_iter\": {}, ",
                "\"reference_ns_per_iter\": {}, \"speedup_vs_reference\": {}}}"
            ),
            tasks,
            edges,
            fmt_opt(comp),
            fmt_opt(hot),
            fmt_opt(reference),
            fmt_opt(speedup.map(|s| (s * 10.0).round() / 10.0)),
        ));
    }

    // Smoke runs (`--test`) measure one iteration — not worth snapshotting.
    if !quick {
        let json = format!(
            concat!(
                "{{\n  \"graph\": \"communication-bound synthetic iteration ",
                "(launch chain + {} streams + contended collective channel)\",\n",
                "  \"note\": \"reference omitted at 100k+ tasks (quadratic frontier ",
                "refresh takes tens of seconds per iteration)\",\n",
                "  \"results\": [\n{}\n  ]\n  }}"
            ),
            STREAMS,
            rows.join(",\n")
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
        match criterion::snapshot::merge_section(path, "sim_scale", &json) {
            Ok(()) => println!("wrote sim_scale section of {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}
