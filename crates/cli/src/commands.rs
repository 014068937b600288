//! CLI subcommand implementations.

use crate::args::Args;
use crate::fidelity;
use daydream_comm::ClusterConfig;
use daydream_core::whatif::{P3Config, P3Plan};
use daydream_core::{layer_report, simulate, ProfiledGraph};
use daydream_device::GpuSpec;
use daydream_models::{footprint, max_batch, zoo, Model};
use daydream_runtime::{ground_truth, ExecConfig};
use daydream_serve::{
    http_request_retrying, QueryError, ServeConfig, Server, SweepRequest, WhatIfRequest,
};
use daydream_shard::{
    diff_runs, merge_run, merged_cache, process_shard, run_worker, write_merged, RetryPolicy,
    RunDir, RunStore, ShardDisposition, ShardPlan, WorkerConfig,
};
use daydream_sweep::{
    evaluate_trace, explain_scenario, run_search, OptSpec, SearchConfig, SweepEngine, SweepGrid,
};
use daydream_trace::{diff_traces, runtime_breakdown, Framework};

/// Resolves a model name or exits with a helpful message.
fn model_or_die(name: &str) -> Model {
    zoo::by_name(name).unwrap_or_else(|| {
        eprintln!(
            "unknown model '{name}'. available: VGG-19, DenseNet-121, ResNet-50, GNMT, BERT_Base, BERT_Large"
        );
        std::process::exit(2);
    })
}

/// Builds the execution configuration from CLI options.
fn exec_config(args: &Args) -> Result<ExecConfig, String> {
    let mut cfg = ExecConfig::pytorch_2080ti();
    cfg.framework = match args.opt("framework", "pytorch").to_lowercase().as_str() {
        "pytorch" => Framework::PyTorch,
        "mxnet" => Framework::MxNet,
        "caffe" => Framework::Caffe,
        other => return Err(format!("unknown framework '{other}'")),
    };
    cfg.gpu = GpuSpec::by_name(&args.opt("gpu", "2080ti"))?;
    if let Some(b) = args.opt_maybe("batch") {
        cfg.batch = Some(b.parse().map_err(|_| format!("invalid --batch {b}"))?);
    }
    cfg.seed = args.num("seed", cfg.seed)?;
    Ok(cfg)
}

/// `daydream models` — the zoo with parameters and memory needs.
pub fn cmd_models(_args: &Args) -> Result<(), String> {
    println!(
        "{:<14} {:<22} {:>10} {:>7} {:>10} {:>12}",
        "model", "application", "params", "batch", "optimizer", "mem@batch"
    );
    for m in zoo::all_models() {
        let f = footprint(&m, m.default_batch);
        println!(
            "{:<14} {:<22} {:>9.1}M {:>7} {:>10} {:>10.1}GiB",
            m.name,
            m.application.name(),
            m.param_count() as f64 / 1e6,
            m.default_batch,
            m.optimizer.name(),
            f.total_gib()
        );
    }
    Ok(())
}

/// `daydream profile <model>` — run a baseline iteration and summarize.
pub fn cmd_profile(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .first()
        .ok_or("usage: daydream profile <model>")?;
    let model = model_or_die(name);
    let cfg = exec_config(args)?;
    let trace = ground_truth::run_baseline(&model, &cfg);
    let b = runtime_breakdown(&trace);
    println!(
        "{} on {} ({}), batch {}: {:.1} ms/iteration",
        model.name,
        cfg.gpu.name,
        cfg.framework.name(),
        trace.meta.batch_size,
        trace.meta.iteration_ms()
    );
    println!(
        "  {} activities | breakdown: {:.0}% cpu+gpu, {:.0}% cpu-only, {:.0}% gpu-only",
        trace.activities.len(),
        b.overlap_frac() * 100.0,
        b.cpu_only_frac() * 100.0,
        b.gpu_only_frac() * 100.0
    );
    let pg = ProfiledGraph::from_trace(&trace);
    let sim = simulate(&pg.graph).map_err(|e| e.to_string())?;
    println!(
        "  graph: {} tasks, {} edges; replay {:.1} ms",
        pg.graph.len(),
        pg.graph.edge_count(),
        sim.makespan_ms()
    );
    if args.flag("verify") {
        // Cross-check the compiled heap simulator against the quadratic
        // reference oracle on this profile, and report the speedup.
        let reps = 5u32;
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(simulate(&pg.graph).map_err(|e| e.to_string())?);
        }
        let fast_ns = t0.elapsed().as_nanos() as f64 / reps as f64;
        let t0 = std::time::Instant::now();
        let oracle = daydream_core::simulate_reference(&pg.graph).map_err(|e| e.to_string())?;
        let ref_ns = t0.elapsed().as_nanos() as f64;
        if oracle != sim {
            return Err("compiled simulator DIVERGED from the reference oracle".to_string());
        }
        println!(
            "  verify: compiled simulator matches reference oracle; \
             {:.0} us vs {:.0} us per replay ({:.1}x)",
            fast_ns / 1e3,
            ref_ns / 1e3,
            ref_ns / fast_ns.max(1.0)
        );
    }
    if args.flag("verbose") {
        for (lane, s) in daydream_trace::lane_stats(&trace) {
            println!(
                "    {lane}: {} tasks, busy {:.1} ms, idle {:.1} ms",
                s.count,
                s.busy_ns as f64 / 1e6,
                s.idle_ns as f64 / 1e6
            );
        }
    }
    if let Some(path) = args.opt_maybe("out") {
        std::fs::write(path, trace.to_json().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        println!("  wrote {path}");
    }
    if let Some(path) = args.opt_maybe("chrome") {
        std::fs::write(
            path,
            daydream_trace::to_chrome_trace(&trace).map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?;
        println!("  wrote {path} (chrome://tracing)");
    }
    if let Some(path) = args.opt_maybe("jsonl") {
        std::fs::write(
            path,
            daydream_trace::to_jsonl(&trace).map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?;
        println!("  wrote {path} (hash-chained JSONL)");
    }
    // The remaining options look at the *simulated* schedule, exported
    // as a trace (the schedule↔trace fidelity artifact).
    if args.flag("fidelity")
        || args.opt_maybe("sim-chrome").is_some()
        || args.opt_maybe("sim-out").is_some()
    {
        let exported = daydream_core::simulate_to_trace(&pg).map_err(|e| e.to_string())?;
        if let Some(path) = args.opt_maybe("sim-chrome") {
            std::fs::write(
                path,
                daydream_trace::to_chrome_trace(&exported).map_err(|e| e.to_string())?,
            )
            .map_err(|e| e.to_string())?;
            println!("  wrote {path} (simulated schedule, chrome://tracing)");
        }
        if let Some(path) = args.opt_maybe("sim-out") {
            std::fs::write(
                path,
                daydream_trace::to_jsonl(&exported).map_err(|e| e.to_string())?,
            )
            .map_err(|e| e.to_string())?;
            println!("  wrote {path} (simulated schedule, hash-chained JSONL)");
        }
        if args.flag("fidelity") {
            let d = diff_traces(&exported, &trace);
            println!("\nfidelity (simulated schedule vs this recording):");
            print!("{}", d.render(args.num("top", 10usize)?));
        }
    }
    Ok(())
}

/// `daydream trace-diff <sim> <truth>` — align a simulated trace
/// against a ground-truth recording and attribute the prediction error.
pub fn cmd_trace_diff(args: &Args) -> Result<(), String> {
    reject_unknown(
        args,
        "trace-diff",
        &["format", "top", "out", "tolerance"],
        2,
    )?;
    let (sim_path, truth_path) = match args.positional.as_slice() {
        [a, b] => (a, b),
        _ => return Err("usage: daydream trace-diff <sim trace> <truth trace>".into()),
    };
    let format = args.opt("format", "text");
    if !matches!(format.as_str(), "text" | "json" | "csv") {
        return Err(format!("unknown --format '{format}' (text | json | csv)"));
    }
    let sim = fidelity::load_trace(sim_path)?;
    let truth = fidelity::load_trace(truth_path)?;
    let d = diff_traces(&sim, &truth);
    let top: usize = args.num("top", 10usize)?;
    let rendered = match format.as_str() {
        "text" => d.render(top),
        "json" => d.to_json().map_err(|e| e.to_string())?,
        "csv" => d.attribution_csv(),
        _ => unreachable!("validated above"),
    };
    match args.opt_maybe("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| e.to_string())?;
            println!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    if let Some(tol) = args.opt_maybe("tolerance") {
        let tol: f64 = tol
            .parse()
            .map_err(|_| format!("invalid --tolerance {tol}"))?;
        if !d.within_tolerance(tol) {
            return Err(format!(
                "fidelity outside tolerance {tol}: end-to-end {:+.2}%, {:.1}% ops matched",
                d.end_to_end_rel_err() * 100.0,
                d.match_fraction() * 100.0
            ));
        }
    }
    Ok(())
}

/// `daydream trace-verify` — replay prediction against the checked-in
/// golden corpus and gate on the tolerance budget.
pub fn cmd_trace_verify(args: &Args) -> Result<(), String> {
    reject_unknown(args, "trace-verify", &["dir", "tolerance", "perturb"], 0)?;
    let dir = args.opt("dir", "goldens");
    let tolerance = match args.opt_maybe("tolerance") {
        Some(t) => Some(t.parse().map_err(|_| format!("invalid --tolerance {t}"))?),
        None => None,
    };
    let perturb: f64 = args.num("perturb", 1.0)?;
    if perturb <= 0.0 {
        return Err(format!("--perturb must be positive, got {perturb}"));
    }
    let (tol, outcomes) = fidelity::verify_goldens(std::path::Path::new(&dir), tolerance, perturb)?;
    if perturb != 1.0 {
        println!("(simulated durations perturbed by {perturb}x)");
    }
    let mut failures = 0usize;
    for o in &outcomes {
        println!(
            "{:<5} {:<14} end-to-end {:+.2}% | {} ops matched, {} unmatched{}",
            if o.pass { "ok" } else { "FAIL" },
            o.name,
            o.rel_err * 100.0,
            o.matched,
            o.unmatched,
            o.worst_op
                .as_ref()
                .map(|w| format!(" | worst op: {w}"))
                .unwrap_or_default()
        );
        failures += usize::from(!o.pass);
    }
    if failures > 0 {
        return Err(format!(
            "{failures} of {} golden(s) outside the {:.1}% fidelity budget \
             (rerun `daydream trace-diff` on the golden pair for per-op attribution)",
            outcomes.len(),
            tol * 100.0
        ));
    }
    println!(
        "{} golden(s) within the {:.1}% fidelity budget",
        outcomes.len(),
        tol * 100.0
    );
    Ok(())
}

/// `daydream golden-gen` — (re)record the golden corpus and pin it in
/// the manifest.
pub fn cmd_golden_gen(args: &Args) -> Result<(), String> {
    reject_unknown(args, "golden-gen", &["dir"], 0)?;
    let dir = args.opt("dir", "goldens");
    let manifest = fidelity::generate_goldens(std::path::Path::new(&dir))?;
    for g in &manifest.goldens {
        println!(
            "{}/{}: {} batch {} — {} activities, {} markers, chain {}",
            dir, g.file, g.model, g.batch, g.activities, g.markers, g.chain
        );
    }
    println!(
        "pinned {} golden(s) in {dir}/{} (tolerance {:.1}%)",
        manifest.goldens.len(),
        fidelity::MANIFEST_FILE,
        manifest.tolerance * 100.0
    );
    Ok(())
}

/// `daydream report <model>` — per-layer time attribution.
pub fn cmd_report(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .first()
        .ok_or("usage: daydream report <model>")?;
    let model = model_or_die(name);
    let cfg = exec_config(args)?;
    let top: usize = args.num("top", 15usize)?;
    let trace = ground_truth::run_baseline(&model, &cfg);
    let pg = ProfiledGraph::from_trace(&trace);
    let rows = layer_report(&pg);
    println!(
        "{:<28} {:<12} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "layer", "kind", "fwd (ms)", "bwd (ms)", "wu (ms)", "cpu (ms)", "kernels"
    );
    for r in rows.iter().take(top) {
        let layer = model.layer(r.layer);
        println!(
            "{:<28} {:<12} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>8}",
            layer.map(|l| l.name.as_str()).unwrap_or("?"),
            layer.map(|l| l.kind.type_name()).unwrap_or("?"),
            r.fwd_gpu_ns as f64 / 1e6,
            r.bwd_gpu_ns as f64 / 1e6,
            r.wu_gpu_ns as f64 / 1e6,
            r.cpu_ns as f64 / 1e6,
            r.kernels
        );
    }
    println!(
        "({} layers total; showing top {top} by GPU time)",
        rows.len()
    );
    Ok(())
}

/// `daydream memory <model>` — footprint and feasible batch sizes.
pub fn cmd_memory(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .first()
        .ok_or("usage: daydream memory <model>")?;
    let model = model_or_die(name);
    let batch = args.num("batch", model.default_batch)?;
    let device_gb: f64 = args.num("device-gb", 11.0)?;
    let device = (device_gb * (1u64 << 30) as f64) as u64;
    let f = footprint(&model, batch);
    println!("{} at batch {batch}:", model.name);
    for (label, v) in [
        ("parameters", f.params),
        ("gradients", f.gradients),
        ("optimizer state", f.optimizer_state),
        ("activations", f.activations),
        ("workspace", f.workspace),
    ] {
        println!(
            "  {:<16} {:>8.2} GiB",
            label,
            v as f64 / (1u64 << 30) as f64
        );
    }
    println!("  {:<16} {:>8.2} GiB", "total", f.total_gib());
    println!(
        "  fits {device_gb} GiB device: {} (max batch {})",
        if f.fits(device) { "yes" } else { "NO" },
        max_batch(&model, device)
    );
    Ok(())
}

/// `daydream predict <model> --opt <family>` — one what-if over a fresh
/// profile, as a one-scenario engine evaluation. The flags resolve
/// through the daemon's [`WhatIfRequest`], so `predict` answers and
/// refuses exactly what `/whatif` and `sweep` do.
pub fn cmd_predict(args: &Args) -> Result<(), String> {
    reject_unknown(
        args,
        "predict",
        &[
            "opt",
            "framework",
            "gpu",
            "batch",
            "seed",
            "machines",
            "gpus",
            "bw",
            "factor",
            "to",
        ],
        1,
    )?;
    let name = args
        .positional
        .first()
        .ok_or("usage: daydream predict <model> --opt <opt>")?;
    let model = model_or_die(name);
    let cfg = exec_config(args)?;
    let trace = ground_truth::run_baseline(&model, &cfg);
    let scenario = WhatIfRequest {
        model: model.name.clone(),
        batch: Some(trace.meta.batch_size as u64),
        opt: Some(args.opt("opt", "amp")),
        machines: args.num_maybe("machines")?,
        gpus: args.num_maybe("gpus")?,
        bw: args.num_maybe("bw")?,
        factor: args.num_maybe("factor")?,
        to: args.opt_maybe("to").map(str::to_string),
        ..WhatIfRequest::default()
    }
    .scenario()?;

    if let OptSpec::P3 {
        machines,
        gpus_per_machine,
        bw_gbps,
    } = scenario.opt
    {
        let cluster = ClusterConfig::new(machines, gpus_per_machine, bw_gbps);
        let pg = ProfiledGraph::from_trace(&trace);
        let p3 = P3Plan::new(&pg, &P3Config::p3(cluster))
            .evaluate(&cluster)
            .map_err(|e| format!("P3 graph for {}: {e}", scenario.label()))?;
        println!(
            "{} + P3 on {cluster}: predicted steady-state iteration {:.1} ms \
             ({} messages/iteration)",
            model.name,
            p3.iteration_ms(),
            p3.messages_per_iteration
        );
        return Ok(());
    }
    let family = scenario.opt.family();
    let prediction = evaluate_trace(model, &trace, &scenario.opt)?;
    println!(
        "{} + {family}: {:.1} ms -> {:.1} ms ({:+.1}% {})",
        scenario.model,
        prediction.baseline_ms(),
        prediction.predicted_ms(),
        prediction.improvement().abs() * 100.0,
        if prediction.improvement() >= 0.0 {
            "faster"
        } else {
            "slower"
        },
    );
    Ok(())
}

/// Parses a comma-separated option into typed values.
fn parse_list<T: std::str::FromStr>(
    args: &Args,
    key: &str,
    default: &str,
) -> Result<Vec<T>, String> {
    args.opt(key, default)
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("invalid value '{s}' in --{key}"))
        })
        .collect()
}

/// A comma-separated list option, or `None` when it is absent.
fn list_maybe<T: std::str::FromStr>(args: &Args, key: &str) -> Result<Option<Vec<T>>, String> {
    args.opt_maybe(key)
        .map(|_| parse_list(args, key, ""))
        .transpose()
}

/// Option keys `sweep` understands; anything else is a typo, not a
/// silently ignored request (the axis surface is too large to guess).
const SWEEP_KEYS: &[&str] = &[
    "models",
    "batches",
    "opts",
    "bw",
    "machines",
    "gpus",
    "ratios",
    "factors",
    "to",
    "lossy",
    "lookaheads",
    "target-batches",
    "max-batch",
    "threads",
    "top",
    "out",
    "csv",
    "cache-file",
    "explain",
    "search",
    "rungs",
    "keep-fraction",
    "keep-min",
    "tolerance",
    "cone-budgets",
    "shards",
    "shard-index",
    "run-dir",
    "worker-id",
    "lease-ttl-secs",
];

/// `daydream sweep` — run a batch what-if grid in parallel.
pub fn cmd_sweep(args: &Args) -> Result<(), String> {
    if let Some(pos) = args.positional.first() {
        return Err(format!(
            "unexpected argument '{pos}': sweep takes axes as options (e.g. --models {pos})"
        ));
    }
    if let Some(unknown) = args
        .options
        .keys()
        .find(|k| !SWEEP_KEYS.contains(&k.as_str()))
    {
        return Err(format!(
            "unknown sweep option --{unknown} (see `daydream help` for the sweep option list)"
        ));
    }
    // The daemon's request type holds the one copy of the axis defaults.
    let grid = SweepRequest {
        models: list_maybe(args, "models")?,
        batches: list_maybe(args, "batches")?,
        opts: list_maybe(args, "opts")?,
        bw: list_maybe(args, "bw")?,
        machines: list_maybe(args, "machines")?,
        gpus: args.num_maybe("gpus")?,
        ratios: list_maybe(args, "ratios")?,
        factors: list_maybe(args, "factors")?,
        to: list_maybe(args, "to")?,
        lossy: args.opt_maybe("lossy").map(str::to_string),
        lookaheads: list_maybe(args, "lookaheads")?,
        target_batches: list_maybe(args, "target-batches")?,
        max_batch: args.num_maybe("max-batch")?,
    }
    .grid()?;

    let search_cfg = sweep_search_config(args)?;

    if let Some(prefix) = args.opt_maybe("explain") {
        for key in [
            "run-dir",
            "shards",
            "shard-index",
            "worker-id",
            "lease-ttl-secs",
            "out",
            "csv",
            "cache-file",
        ] {
            if args.opt_maybe(key).is_some() {
                return Err(format!("--explain does not combine with --{key}"));
            }
        }
        // Validates the prefix and prints the scenario's graph patch;
        // under --search halving, follow with its rung-by-rung history
        // (which needs an actual search run to exist).
        cmd_sweep_explain(&grid, prefix)?;
        if let Some(cfg) = &search_cfg {
            let engine = sweep_engine(args)?;
            let search = run_search(&engine, &grid, cfg)?;
            match search.render_history(&prefix.to_lowercase()) {
                Some(history) => println!("\n{history}"),
                None => println!("\n(scenario took no part in the search: deduplicated out)"),
            }
        }
        return Ok(());
    }

    let engine = sweep_engine(args)?;
    if args.opt_maybe("run-dir").is_some() {
        if search_cfg.is_some() {
            return Err(
                "--search does not combine with --run-dir: a search runs in one process".into(),
            );
        }
        return cmd_sweep_sharded(args, &grid, &engine);
    }
    for key in ["shards", "shard-index", "worker-id", "lease-ttl-secs"] {
        if args.opt_maybe(key).is_some() {
            return Err(format!(
                "--{key} requires --run-dir (distributed sweep mode)"
            ));
        }
    }
    if let Some(path) = args.opt_maybe("cache-file") {
        match std::fs::read_to_string(path) {
            Ok(json) => {
                let loaded = engine.cache().load_json(&json)?;
                println!("loaded {loaded} cached results from {path}");
            }
            // A missing file is a cold start; anything else (permissions,
            // bad encoding) must not silently discard the cache and then
            // overwrite it after a full re-execution.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot read --cache-file {path}: {e}")),
        }
    }

    let start = std::time::Instant::now();
    let search = match &search_cfg {
        Some(cfg) => Some(run_search(&engine, &grid, cfg)?),
        None => None,
    };
    let report = match &search {
        Some(s) => s.report.clone(),
        None => engine.run(&grid)?,
    };
    let elapsed = start.elapsed();
    let stats = engine.last_stats();

    if let Some(s) = &search {
        let auto = s.promotions.iter().filter(|p| p.auto_promoted).count();
        println!(
            "halving search: {} candidates -> {} finalists over {} rungs, {} evaluations total ({} auto-promoted)",
            s.rungs.first().map_or(0, |r| r.expanded) + auto,
            report.scenario_count,
            s.rungs.len(),
            s.total_evaluations(),
            auto,
        );
        println!("{}", s.render_rungs());
        for w in &s.warnings {
            println!("warning: {w}");
        }
    }
    println!(
        "swept {} scenarios on {} threads in {:.2}s ({:.1} scenarios/s, {} base profiles built, {} steals)",
        report.scenario_count,
        stats.executor.workers.max(1),
        elapsed.as_secs_f64(),
        report.scenario_count as f64 / elapsed.as_secs_f64().max(1e-9),
        stats.profiles_built,
        stats.executor.steals,
    );
    println!(
        "sim paths: {} incremental, {} full, {} patch-cache hits ({} tasks re-dispatched)",
        stats.incremental_sims, stats.full_sims, stats.patch_hits, stats.tasks_redispatched,
    );
    println!(
        "scratch: {} arena reuses, {} allocs",
        stats.scratch_reuses, stats.scratch_allocs,
    );
    if stats.cache_contended > 0 || stats.patch_contended > 0 {
        println!(
            "cache shards: {} result-cache and {} patch-cache contended lock acquisitions",
            stats.cache_contended, stats.patch_contended,
        );
    }
    if stats.fidelity_checks > 0 {
        println!(
            "fidelity: {} baseline check(s), {} over the {:.0}% budget (worst {:.2}%)",
            stats.fidelity_checks,
            stats.fidelity_failures,
            daydream_sweep::FIDELITY_TOLERANCE * 100.0,
            stats.fidelity_worst_rel_err * 100.0,
        );
    }
    if report.cache_hits > 0 {
        println!(
            "cache: {} hits, {} executed ({}% free)",
            report.cache_hits,
            report.executed,
            report.cache_hits * 100 / report.scenario_count.max(1)
        );
    }
    let top: usize = args.num("top", 15usize)?;
    println!("\n{}", report.render(top));

    // Save the cache first: it holds the expensive computed results, and
    // must survive even if a report path below turns out to be unwritable.
    if let Some(path) = args.opt_maybe("cache-file") {
        // Write-then-rename so an interrupted save can't leave a
        // truncated cache that fails every later run.
        let tmp = format!("{path}.tmp.{}", std::process::id());
        std::fs::write(&tmp, engine.cache().to_json().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        std::fs::rename(&tmp, path).map_err(|e| e.to_string())?;
        println!("saved {} cached results to {path}", engine.cache().len());
    }
    if let Some(path) = args.opt_maybe("out") {
        std::fs::write(path, report.to_json().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    if let Some(path) = args.opt_maybe("csv") {
        let mut csv = report.to_csv();
        if let Some(s) = &search {
            // Rung accounting rides along after a blank separator line.
            csv.push('\n');
            csv.push_str(&s.rungs_csv());
        }
        std::fs::write(path, csv).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Builds the sweep engine from `--threads` (all cores when absent).
fn sweep_engine(args: &Args) -> Result<SweepEngine, String> {
    Ok(match args.opt_maybe("threads") {
        Some(t) => SweepEngine::new(t.parse().map_err(|_| format!("invalid --threads {t}"))?),
        None => SweepEngine::with_available_parallelism(),
    })
}

/// Parses `--search halving` plus its knobs into a [`SearchConfig`].
/// Returns `None` for a plain exhaustive sweep — and rejects
/// search-only knobs given without `--search`, so a forgotten flag
/// cannot silently run the wrong strategy.
fn sweep_search_config(args: &Args) -> Result<Option<SearchConfig>, String> {
    let Some(mode) = args.opt_maybe("search") else {
        for key in [
            "rungs",
            "keep-fraction",
            "keep-min",
            "tolerance",
            "cone-budgets",
        ] {
            if args.opt_maybe(key).is_some() {
                return Err(format!("--{key} requires --search halving"));
            }
        }
        return Ok(None);
    };
    if mode != "halving" {
        return Err(format!(
            "unknown --search strategy '{mode}' (the only strategy is 'halving')"
        ));
    }
    let defaults = SearchConfig::default();
    Ok(Some(SearchConfig {
        rungs: args.num("rungs", defaults.rungs)?,
        keep_fraction: args.num("keep-fraction", defaults.keep_fraction)?,
        keep_min: args.num("keep-min", defaults.keep_min)?,
        tolerance: args.num("tolerance", defaults.tolerance)?,
        cone_budgets: match args.opt_maybe("cone-budgets") {
            Some(_) => parse_list(args, "cone-budgets", "")?,
            None => defaults.cone_budgets,
        },
    }))
}

/// Rejects unknown options and stray positionals for the shard
/// subcommands — the same typo discipline `sweep` applies with
/// `SWEEP_KEYS`: a misspelled option must fail, not silently run with
/// defaults.
fn reject_unknown(
    args: &Args,
    command: &str,
    known: &[&str],
    positionals: usize,
) -> Result<(), String> {
    if args.positional.len() > positionals {
        return Err(format!(
            "unexpected argument '{}' for {command}",
            args.positional[positionals]
        ));
    }
    if let Some(unknown) = args.options.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!(
            "unknown {command} option --{unknown} (see `daydream help`)"
        ));
    }
    Ok(())
}

/// Builds the worker-identity/lease knobs shared by the sharded `sweep`
/// path and `sweep-worker`.
fn worker_config(args: &Args) -> Result<WorkerConfig, String> {
    let mut cfg = WorkerConfig::default();
    if let Some(id) = args.opt_maybe("worker-id") {
        cfg.worker_id = id.to_string();
    }
    cfg.lease_ttl_ms = args.num("lease-ttl-secs", cfg.lease_ttl_ms / 1000)? * 1000;
    cfg.poll_ms = args.num("poll-ms", cfg.poll_ms)?.max(1);
    cfg.max_wait_ms = args.num("max-wait-secs", cfg.max_wait_ms / 1000)? * 1000;
    Ok(cfg)
}

/// Prints where a sharded run stands and what to do next.
fn print_run_status(run: &RunDir) -> Result<(), String> {
    let status = run.status()?;
    println!(
        "run {}: {} todo, {} leased, {} done of {} shards",
        run.path().display(),
        status.todo,
        status.leased,
        status.done,
        status.shards
    );
    if status.is_drained() {
        println!(
            "run is drained; merge with: daydream sweep-merge --run-dir {}",
            run.path().display()
        );
    }
    Ok(())
}

/// `daydream sweep --explain <fingerprint>` — print the graph patch one
/// scenario of the grid emits (tasks scaled/inserted/removed, deps
/// changed) instead of sweeping. The fingerprint is the result `key`
/// from a report/cache file; any unambiguous prefix works.
fn cmd_sweep_explain(grid: &SweepGrid, prefix: &str) -> Result<(), String> {
    let prefix = prefix.to_lowercase();
    let scenarios = grid.expand()?;
    let matches: Vec<_> = scenarios
        .iter()
        .filter(|s| s.fingerprint_hex().starts_with(&prefix))
        .collect();
    match matches.as_slice() {
        [] => Err(format!(
            "no scenario in this grid matches fingerprint '{prefix}' \
             ({} scenarios expanded; keys come from the report's `key` column)",
            scenarios.len()
        )),
        [one] => {
            println!("{}", explain_scenario(one)?);
            Ok(())
        }
        many => Err(format!(
            "fingerprint prefix '{prefix}' is ambiguous: {} scenarios match \
             (e.g. {} -> {}); use more hex digits",
            many.len(),
            many[0].fingerprint_hex(),
            many[0].label()
        )),
    }
}

/// `daydream sweep --shards N [--shard-index I] --run-dir D` — plan a
/// distributed run and optionally evaluate one shard of it.
fn cmd_sweep_sharded(args: &Args, grid: &SweepGrid, engine: &SweepEngine) -> Result<(), String> {
    for key in ["out", "csv", "cache-file", "top"] {
        if args.opt_maybe(key).is_some() {
            return Err(format!(
                "--{key} does not apply to a sharded sweep invocation; \
                 reports come from `daydream sweep-merge`"
            ));
        }
    }
    let run_dir = args.opt_maybe("run-dir").expect("checked by caller");
    let shards: usize = args.num("shards", 0)?;
    if shards == 0 {
        return Err("sharded sweeps need --shards N (the total shard count)".into());
    }
    let plan = ShardPlan::partition(grid.expand()?, shards)?;
    let run_id = std::path::Path::new(run_dir)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "run".into());
    let (run, created) = RunDir::init_or_open(run_dir, &run_id, &plan)?;
    if created {
        println!(
            "planned run {}: {} scenarios in {} shards (grid {})",
            run.path().display(),
            plan.scenario_count(),
            plan.shard_count(),
            plan.grid_fingerprint_hex()
        );
    }
    match args.opt_maybe("shard-index") {
        None => {
            println!(
                "no --shard-index given; start workers with: daydream sweep-worker --run-dir {}",
                run.path().display()
            );
        }
        Some(raw) => {
            let index: usize = raw
                .parse()
                .map_err(|_| format!("invalid --shard-index {raw}"))?;
            let cfg = worker_config(args)?;
            let start = std::time::Instant::now();
            match process_shard(&run, engine, index, &cfg)? {
                ShardDisposition::Evaluated(n) => println!(
                    "worker {} evaluated shard {index}: {n} scenarios in {:.2}s",
                    cfg.worker_id,
                    start.elapsed().as_secs_f64()
                ),
                ShardDisposition::AlreadyDone => {
                    println!("shard {index} already has results; nothing to do")
                }
            }
        }
    }
    print_run_status(&run)
}

/// `daydream sweep-worker --run-dir D` — claim shards until the run
/// drains, reclaiming leases abandoned by crashed peers.
pub fn cmd_sweep_worker(args: &Args) -> Result<(), String> {
    reject_unknown(
        args,
        "sweep-worker",
        &[
            "run-dir",
            "threads",
            "worker-id",
            "lease-ttl-secs",
            "poll-ms",
            "max-wait-secs",
        ],
        0,
    )?;
    let run_dir = args
        .opt_maybe("run-dir")
        .ok_or("usage: daydream sweep-worker --run-dir <dir>")?;
    let run = RunDir::open(run_dir)?;
    let engine = match args.opt_maybe("threads") {
        Some(t) => SweepEngine::new(t.parse().map_err(|_| format!("invalid --threads {t}"))?),
        None => SweepEngine::with_available_parallelism(),
    };
    let cfg = worker_config(args)?;
    let start = std::time::Instant::now();
    let summary = run_worker(&run, &engine, &cfg)?;
    println!(
        "worker {} drained: {} shards, {} scenarios in {:.2}s ({} stale leases reclaimed, \
         {} transient retries, {} corrupt artifacts requeued, {:.1}s waiting on peers)",
        cfg.worker_id,
        summary.shards_completed,
        summary.scenarios_evaluated,
        start.elapsed().as_secs_f64(),
        summary.leases_reclaimed,
        summary.retries,
        summary.requeued_corrupt,
        summary.waited_ms as f64 / 1000.0
    );
    print_run_status(&run)
}

/// `daydream sweep-merge --run-dir D` — union the partial results into
/// the ranked report, byte-identical to the single-process sweep.
pub fn cmd_sweep_merge(args: &Args) -> Result<(), String> {
    reject_unknown(
        args,
        "sweep-merge",
        &["run-dir", "top", "out", "csv", "cache-out"],
        0,
    )?;
    let run_dir = args
        .opt_maybe("run-dir")
        .ok_or("usage: daydream sweep-merge --run-dir <dir>")?;
    let run = RunDir::open(run_dir)?;
    let report = merge_run(&run)?;
    write_merged(&run, &report)?;
    println!(
        "merged {} scenarios from {} shards into {}",
        report.scenario_count,
        run.manifest()?.shards,
        run.merged_path().display()
    );
    let top: usize = args.num("top", 15usize)?;
    println!("\n{}", report.render(top));
    if let Some(path) = args.opt_maybe("out") {
        std::fs::write(path, report.to_json().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    if let Some(path) = args.opt_maybe("csv") {
        std::fs::write(path, report.to_csv()).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    if let Some(path) = args.opt_maybe("cache-out") {
        let cache = merged_cache(&report);
        std::fs::write(path, cache.to_json().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        println!("wrote {} cache entries to {path}", cache.len());
    }
    Ok(())
}

/// `daydream sweep-diff <run A> <run B>` — regression-track predicted
/// times between two runs.
pub fn cmd_sweep_diff(args: &Args) -> Result<(), String> {
    reject_unknown(
        args,
        "sweep-diff",
        &["tolerance", "out", "fail-on-regression"],
        2,
    )?;
    let (a_dir, b_dir) = match args.positional.as_slice() {
        [a, b] => (a, b),
        _ => return Err("usage: daydream sweep-diff <run dir A> <run dir B>".into()),
    };
    let tolerance: f64 = args.num("tolerance", 0.001)?;
    let a = RunDir::open(a_dir)?;
    let b = RunDir::open(b_dir)?;
    let diff = diff_runs(&a, &b, tolerance)?;
    print!("{}", diff.render());
    if let Some(path) = args.opt_maybe("out") {
        std::fs::write(path, diff.to_json().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    if args.flag("fail-on-regression") && !diff.is_clean() {
        return Err(format!(
            "{} regression(s) / coverage change(s) between {} and {}",
            diff.regressions.len() + diff.only_in_a.len() + diff.only_in_b.len(),
            diff.a_id,
            diff.b_id
        ));
    }
    Ok(())
}

/// `daydream serve` — run the resident sweep-as-a-service daemon.
pub fn cmd_serve(args: &Args) -> Result<(), String> {
    reject_unknown(
        args,
        "serve",
        &[
            "addr",
            "threads",
            "store",
            "max-requests",
            "timeout-secs",
            "max-queued",
            "whatif-deadline-ms",
        ],
        0,
    )?;
    let threads = args.num(
        "threads",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2),
    )?;
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: args.opt("addr", "127.0.0.1:8484"),
        threads,
        store_root: args.opt_maybe("store").map(std::path::PathBuf::from),
        max_requests: args.num("max-requests", 0u64)?,
        timeout_secs: args.num("timeout-secs", 0u64)?,
        limits: Default::default(),
        max_queued_jobs: args.num("max-queued", defaults.max_queued_jobs)?,
        whatif_deadline_ms: args.num("whatif-deadline-ms", defaults.whatif_deadline_ms)?,
    };
    let server = Server::bind(config)?;
    // Spawners (tests, scripts) parse the port from this line, so it
    // must hit the pipe before the accept loop starts.
    println!("daydream serve listening on {}", server.local_addr()?);
    use std::io::Write;
    std::io::stdout().flush().ok();
    let summary = server.run()?;
    println!(
        "daydream serve stopped ({}) after {} request(s), {} job(s)",
        summary.stop_reason, summary.requests, summary.jobs_submitted
    );
    Ok(())
}

/// `daydream query <path>` — one-shot client for a running daemon.
/// A `--body` implies POST; the response body prints verbatim, and a
/// non-2xx status is a nonzero exit. `--retries N` retries connection
/// failures, 5xx, and 429 sheds with capped exponential backoff
/// (`--backoff-ms` sets the first delay), and the final error message
/// distinguishes "could not connect" from "the daemon answered an
/// error".
pub fn cmd_query(args: &Args) -> Result<(), String> {
    reject_unknown(
        args,
        "query",
        &["addr", "body", "method", "retries", "backoff-ms"],
        1,
    )?;
    let path = args
        .positional
        .first()
        .ok_or("usage: daydream query <path> [--addr HOST:PORT] [--body JSON]")?;
    if !path.starts_with('/') {
        return Err(format!("query path '{path}' must start with /"));
    }
    let addr = args.opt("addr", "127.0.0.1:8484");
    let body = args.opt("body", "");
    let default_method = if body.is_empty() { "GET" } else { "POST" };
    let method = args.opt("method", default_method).to_uppercase();
    let policy = RetryPolicy {
        max_retries: args.num("retries", 0)?,
        base_backoff_ms: args.num("backoff-ms", 100)?,
        max_backoff_ms: 5_000,
        ..RetryPolicy::default()
    };
    let resp = match http_request_retrying(&addr, &method, path, &body, policy) {
        Ok(resp) => resp,
        Err(e @ QueryError::Connect { .. }) => return Err(e.to_string()),
        Err(QueryError::Http {
            attempts,
            status,
            body,
            ..
        }) => {
            println!("{body}");
            return Err(format!(
                "{method} {path} answered HTTP {status} after {attempts} attempt(s)"
            ));
        }
    };
    println!("{}", resp.body);
    if resp.is_ok() {
        Ok(())
    } else {
        Err(format!("{method} {path} answered {}", resp.status))
    }
}

/// `daydream sweep-history` — the best scenarios ever recorded across a
/// run store's history (the offline twin of the daemon's
/// `GET /history/best`; both are [`RunStore::best_for`]).
pub fn cmd_sweep_history(args: &Args) -> Result<(), String> {
    reject_unknown(args, "sweep-history", &["store", "model", "top", "out"], 0)?;
    let store = RunStore::open(args.opt("store", "."))?;
    let model = args.opt_maybe("model");
    let top: usize = args.num("top", 10)?;
    let entries = store.best_for(model, top)?;
    if entries.is_empty() {
        println!(
            "no stored outcomes{} under {}/runs",
            model
                .map(|m| format!(" for model '{m}'"))
                .unwrap_or_default(),
            store.path().display()
        );
        return Ok(());
    }
    println!(
        "{:<4} {:<44} {:>12} {:>9} {:>9}",
        "rank", "scenario", "predicted", "speedup", "run"
    );
    for (i, e) in entries.iter().enumerate() {
        println!(
            "{:<4} {:<44} {:>9.2} ms {:>8.2}x {:>9}",
            i + 1,
            e.label,
            e.predicted_ns as f64 / 1e6,
            e.speedup,
            e.run_id
        );
    }
    if let Some(path) = args.opt_maybe("out") {
        let json = serde_json::to_string_pretty(&entries).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn exec_config_parses_options() {
        let a = args(&["--framework", "mxnet", "--gpu", "p4000", "--batch", "4"]);
        let cfg = exec_config(&a).unwrap();
        assert_eq!(cfg.framework, Framework::MxNet);
        assert_eq!(cfg.gpu.name, "P4000");
        assert_eq!(cfg.batch, Some(4));
    }

    #[test]
    fn exec_config_rejects_garbage() {
        assert!(exec_config(&args(&["--framework", "tf"])).is_err());
        assert!(exec_config(&args(&["--gpu", "a100"])).is_err());
    }

    #[test]
    fn models_and_memory_commands_run() {
        cmd_models(&args(&[])).unwrap();
        cmd_memory(&args(&["ResNet-50", "--batch", "8"])).unwrap();
    }

    #[test]
    fn predict_rejects_inapplicable_optimization() {
        let a = args(&["ResNet-50", "--opt", "fused-adam", "--batch", "4"]);
        assert!(cmd_predict(&a).is_err());
    }

    #[test]
    fn predict_amp_runs() {
        let a = args(&["ResNet-50", "--opt", "amp", "--batch", "4"]);
        cmd_predict(&a).unwrap();
    }

    /// Runs `predict ResNet-50 --batch 4 <extra>`, which must fail, and
    /// returns its error.
    fn predict_err(extra: &str) -> String {
        let argv: Vec<&str> = ["ResNet-50", "--batch", "4"]
            .into_iter()
            .chain(extra.split_whitespace())
            .collect();
        cmd_predict(&args(&argv)).expect_err("predict must refuse")
    }

    #[test]
    fn predict_rejects_misspelled_options() {
        assert!(predict_err("--opt ddp --machine 8").contains("--machine"));
    }

    #[test]
    fn predict_rejects_unparsable_numbers() {
        assert!(predict_err("--opt bandwidth --factor abc").contains("--factor"));
    }

    #[test]
    fn predict_rejects_negative_bandwidth() {
        assert!(predict_err("--opt ddp --bw -5").contains("invalid bandwidth"));
    }

    #[test]
    fn predict_rejects_zero_machines() {
        assert!(predict_err("--opt ddp --machines 0").contains("machine count"));
    }

    #[test]
    fn sweep_runs_a_tiny_grid() {
        let a = args(&[
            "--models",
            "ResNet-50",
            "--batches",
            "4",
            "--opts",
            "amp,gist",
            "--threads",
            "2",
        ]);
        cmd_sweep(&a).unwrap();
    }

    #[test]
    fn sweep_explain_prints_patch_summary() {
        // An unknown fingerprint fails fast, before any profiling.
        let err = cmd_sweep(&args(&[
            "--models",
            "ResNet-50",
            "--batches",
            "4",
            "--opts",
            "amp",
            "--explain",
            "ffffffffffffffff",
        ]))
        .unwrap_err();
        assert!(err.contains("no scenario"), "got: {err}");

        // A valid key (any prefix of the scenario fingerprint) succeeds.
        let scenario = daydream_sweep::Scenario::new(
            "ResNet-50",
            4,
            daydream_sweep::OptSpec::Gist { lossy: false },
        );
        let key = scenario.fingerprint_hex();
        cmd_sweep(&args(&[
            "--models",
            "ResNet-50",
            "--batches",
            "4",
            "--opts",
            "gist",
            "--explain",
            &key[..8],
        ]))
        .unwrap();

        // --explain refuses to combine with sweep outputs/sharding.
        let err = cmd_sweep(&args(&[
            "--models",
            "ResNet-50",
            "--explain",
            &key,
            "--run-dir",
            "/tmp/x",
        ]))
        .unwrap_err();
        assert!(err.contains("does not combine"), "got: {err}");
    }

    #[test]
    fn sweep_rejects_bad_inputs() {
        assert!(cmd_sweep(&args(&["--models", "AlexNet"])).is_err());
        assert!(cmd_sweep(&args(&["--opts", "quantum"])).is_err());
        assert!(cmd_sweep(&args(&["--lossy", "maybe"])).is_err());
        assert!(cmd_sweep(&args(&["--batches", "four"])).is_err());
        // A typo'd GPU target fails during grid validation, before any
        // scenario executes.
        assert!(cmd_sweep(&args(&["--opts", "upgrade-gpu", "--to", "v200"])).is_err());
    }

    #[test]
    fn sweep_rejects_typos_instead_of_ignoring_them() {
        // Singular --model (vs --models) must not silently run defaults.
        let err = cmd_sweep(&args(&["--model", "ResNet-50"])).unwrap_err();
        assert!(err.contains("unknown sweep option --model"), "got: {err}");
        // Positional arguments are not part of the sweep vocabulary.
        let err = cmd_sweep(&args(&["ResNet-101"])).unwrap_err();
        assert!(
            err.contains("unexpected argument 'ResNet-101'"),
            "got: {err}"
        );
    }

    #[test]
    fn top_option_parses_with_default_and_rejects_garbage() {
        assert_eq!(args(&[]).num("top", 15usize).unwrap(), 15);
        assert_eq!(args(&["--top", "3"]).num("top", 15usize).unwrap(), 3);
        let err = args(&["--top", "lots"])
            .num::<usize>("top", 15)
            .unwrap_err();
        assert!(err.contains("invalid value for --top"), "got: {err}");
    }

    #[test]
    fn shard_options_require_run_dir() {
        for key in ["shards", "shard-index", "worker-id", "lease-ttl-secs"] {
            let err = cmd_sweep(&args(&[&format!("--{key}"), "1"])).unwrap_err();
            assert!(err.contains("requires --run-dir"), "--{key}: {err}");
        }
        // --run-dir without --shards names the missing piece.
        let dir = std::env::temp_dir().join("daydream-cmd-shard-args");
        let err = cmd_sweep(&args(&["--run-dir", dir.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("--shards"), "got: {err}");
    }

    #[test]
    fn worker_config_parses_knobs() {
        let cfg = worker_config(&args(&[
            "--worker-id",
            "w-test",
            "--lease-ttl-secs",
            "5",
            "--poll-ms",
            "10",
            "--max-wait-secs",
            "2",
        ]))
        .unwrap();
        assert_eq!(cfg.worker_id, "w-test");
        assert_eq!(cfg.lease_ttl_ms, 5000);
        assert_eq!(cfg.poll_ms, 10);
        assert_eq!(cfg.max_wait_ms, 2000);
        let default = worker_config(&args(&[])).unwrap();
        assert_eq!(default.lease_ttl_ms, 60_000);
        assert!(default.worker_id.starts_with('w'));
    }

    #[test]
    fn sweep_diff_requires_two_run_dirs() {
        let err = cmd_sweep_diff(&args(&["only-one"])).unwrap_err();
        assert!(err.contains("usage"), "got: {err}");
    }

    #[test]
    fn shard_subcommands_reject_unknown_options() {
        // `--cache-file` belongs to `sweep`; merge spells it --cache-out.
        let err =
            cmd_sweep_merge(&args(&["--run-dir", "/tmp/x", "--cache-file", "c.json"])).unwrap_err();
        assert!(
            err.contains("unknown sweep-merge option --cache-file"),
            "got: {err}"
        );
        // A typo'd lease knob must not silently run with the default.
        let err =
            cmd_sweep_worker(&args(&["--run-dir", "/tmp/x", "--lease-ttl-sec", "30"])).unwrap_err();
        assert!(
            err.contains("unknown sweep-worker option --lease-ttl-sec"),
            "got: {err}"
        );
        let err = cmd_sweep_diff(&args(&["a", "b", "--tolerence", "0.1"])).unwrap_err();
        assert!(
            err.contains("unknown sweep-diff option --tolerence"),
            "got: {err}"
        );
        // Stray positionals are typos too.
        let err = cmd_sweep_worker(&args(&["rundir"])).unwrap_err();
        assert!(err.contains("unexpected argument 'rundir'"), "got: {err}");
        let err = cmd_sweep_diff(&args(&["a", "b", "c"])).unwrap_err();
        assert!(err.contains("unexpected argument 'c'"), "got: {err}");
    }

    #[test]
    fn trace_diff_requires_two_trace_files() {
        let err = cmd_trace_diff(&args(&["only-one.jsonl"])).unwrap_err();
        assert!(err.contains("usage"), "got: {err}");
        let err = cmd_trace_diff(&args(&["a", "b", "--format", "yaml"])).unwrap_err();
        assert!(err.contains("unknown --format"), "got: {err}");
        let err = cmd_trace_diff(&args(&["a", "b", "--fromat", "csv"])).unwrap_err();
        assert!(
            err.contains("unknown trace-diff option --fromat"),
            "got: {err}"
        );
    }

    #[test]
    fn trace_verify_rejects_bad_knobs() {
        let err = cmd_trace_verify(&args(&["--perturb", "0"])).unwrap_err();
        assert!(err.contains("--perturb must be positive"), "got: {err}");
        let err = cmd_trace_verify(&args(&["--tolerance", "lots"])).unwrap_err();
        assert!(err.contains("invalid --tolerance"), "got: {err}");
        // A corpus-less directory names the fix.
        let err = cmd_trace_verify(&args(&["--dir", "/nonexistent/goldens"])).unwrap_err();
        assert!(err.contains("golden-gen"), "got: {err}");
    }

    #[test]
    fn profile_fidelity_diffs_sim_against_recording() {
        // In-process gate: the baseline replay of a small profile must
        // sit inside the sweep engine's fidelity budget, and the same
        // pair must report ranked attribution through trace-diff.
        let dir = std::env::temp_dir().join(format!("daydream-cli-fid-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let truth_path = dir.join("truth.jsonl");
        let sim_path = dir.join("sim.jsonl");
        cmd_profile(&args(&[
            "ResNet-50",
            "--batch",
            "4",
            "--fidelity",
            "--jsonl",
            truth_path.to_str().unwrap(),
            "--sim-out",
            sim_path.to_str().unwrap(),
        ]))
        .unwrap();
        cmd_trace_diff(&args(&[
            sim_path.to_str().unwrap(),
            truth_path.to_str().unwrap(),
            "--format",
            "csv",
            "--tolerance",
            "0.05",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_list_handles_types_and_garbage() {
        let a = args(&["--xs", "1,2,3"]);
        assert_eq!(parse_list::<u64>(&a, "xs", "9").unwrap(), vec![1, 2, 3]);
        assert_eq!(parse_list::<u64>(&a, "missing", "7,8").unwrap(), vec![7, 8]);
        assert!(parse_list::<u64>(&args(&["--xs", "1,zap"]), "xs", "").is_err());
    }
}
