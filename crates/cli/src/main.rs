//! `daydream` — command-line what-if profiler for DNN training.
//!
//! ```text
//! daydream models                              list the model zoo
//! daydream profile <model> [--batch N] [--gpu G] [--out t.json] [--chrome c.json]
//! daydream report  <model> [--top N]           per-layer time attribution
//! daydream memory  <model> [--device-gb G]     footprint and max batch
//! daydream predict <model> --opt <opt> [...]   run a what-if analysis
//! daydream sweep [--models ...] [--opts ...]   batch what-if grid in parallel
//! daydream sweep-worker --run-dir D            drain a sharded run's shards
//! daydream sweep-merge  --run-dir D            merge shard results into a report
//! daydream sweep-diff   <A> <B>                compare two runs' predictions
//! daydream sweep-history [--model M]           best scenarios across stored runs
//! daydream serve [--addr A] [--store D]        resident sweep-as-a-service daemon
//! daydream query <path> [--body JSON]          one-shot client for the daemon
//! daydream trace-diff   <sim> <truth>          attribute sim-vs-truth timing error
//! daydream trace-verify [--dir goldens]        gate fidelity against golden traces
//! daydream golden-gen   [--dir goldens]        (re)record the golden corpus
//! ```

mod args;
mod commands;
mod fidelity;

use args::Args;

const USAGE: &str = "\
daydream — what-if profiler for DNN training (Zhu et al., ATC'20 reproduction)

USAGE:
    daydream <command> [args]

COMMANDS:
    models                         list the model zoo with memory needs
    profile <model>                profile one training iteration
    report  <model>                per-layer time attribution
    memory  <model>                memory footprint and max batch size
    predict <model> --opt <opt>    predict an optimization's effect
    sweep                          run a what-if grid in parallel, ranked
    sweep-worker --run-dir D       claim and evaluate shards until a run drains
    sweep-merge  --run-dir D       merge shard results into the ranked report
    sweep-diff   <A> <B>           diff two runs' predicted times (regressions)
    sweep-history                  best scenarios ever recorded across a run
                                   store's history, fastest first
    serve                          resident sweep-as-a-service HTTP daemon over
                                   one warm engine (what-ifs in microseconds)
    query <path>                   one-shot HTTP client for a running daemon
    trace-diff   <sim> <truth>     align a simulated trace against a recording
                                   and rank the per-op prediction error
    trace-verify                   replay prediction against the golden corpus
                                   and fail when fidelity leaves the budget
    golden-gen                     (re)record the golden corpus and pin chains

COMMON OPTIONS:
    --batch N          mini-batch size (default: the paper's per-model value)
    --framework F      pytorch | mxnet | caffe          (default pytorch)
    --gpu G            2080ti | v100 | t4 | p4000       (default 2080ti)

PROFILE OPTIONS:
    --verify           cross-check the compiled simulator against the
                       reference oracle on this profile and print the speedup
    --out F.json       write the recording as JSON
    --chrome F.json    write the recording for chrome://tracing
    --jsonl F.jsonl    write the recording as hash-chained JSONL
    --fidelity         diff the simulated schedule against this recording
                       (per-lane/per-phase error + worst-offender table)
    --sim-chrome F     write the *simulated* schedule for chrome://tracing
    --sim-out F.jsonl  write the simulated schedule as hash-chained JSONL

TRACE / GOLDEN OPTIONS:
    trace-diff   accepts: --format text|json|csv (default text), --top N,
                 --out F (write instead of print), --tolerance FRAC
                 (nonzero exit when the diff leaves the budget)
    trace-verify accepts: --dir D (default goldens), --tolerance FRAC
                 (default: the manifest's budget), --perturb F (scale
                 simulated durations to prove the gate fails)
    golden-gen   accepts: --dir D (default goldens)

PREDICT OPTIONS (one POST /whatif scenario over this profile: its families,
defaults and refusals, e.g. vdnn on a model without convolutions):
    --opt O            a sweep --opts family                    (default amp)
    --machines N --gpus N --bw GBPS    cluster for ddp/blueconnect/dgc/p3
    --factor F         bandwidth multiplier for --opt bandwidth (default 2)
    --to G             target device for --opt upgrade-gpu (default v100)

SWEEP OPTIONS (comma-separated lists expand into grid axes):
    --models M,N       model axis                       (default ResNet-50,BERT_Base)
    --batches B,C      profile batch-size axis          (default 4,8)
    --opts O,P         optimization families            (default amp,fused-adam,gist,ddp,dgc,bandwidth)
    --bw G,H           inter-node Gbit/s axis           (default 10,25)
    --machines M,N     machine-count axis               (default 4)
    --gpus N           GPUs per machine                 (default 1)
    --ratios R,S       DGC compression ratios           (default 0.01)
    --factors F,G      bandwidth what-if multipliers    (default 2.0)
    --to G,H           upgrade-gpu targets              (default v100)
    --lossy MODE       gist mode: off | on | both       (default off)
    --lookaheads N,M   vdnn prefetch lookaheads         (default 2)
    --target-batches B,C  batch-size what-if targets    (default 16)
    --max-batch N      drop scenarios with batch > N    (default unlimited)
    --threads N        worker threads                   (default all cores)
    --top N            rows to print                    (default 15)
    --out F.json       write the ranked report as JSON
    --csv F.csv        write the ranked results as CSV
    --cache-file F     load/save the result cache (repeat runs are free)
    --explain FP       print one scenario's graph patch (tasks scaled /
                       inserted / removed, deps changed) instead of sweeping;
                       FP is a result-key (fingerprint) prefix from a report
                       (with --search halving, also prints the scenario's
                       rung-by-rung promotion history)

SERVE / QUERY / HISTORY OPTIONS:
    serve accepts:  --addr HOST:PORT   bind address        (default 127.0.0.1:8484;
                                       port 0 picks a free port, printed on startup)
                    --threads N        engine worker threads (default all cores)
                    --store DIR        persist completed jobs under DIR/runs and
                                       serve GET /history/best from them
                    --max-requests N   stop after N requests        (default unlimited)
                    --timeout-secs S   stop after S seconds         (default unlimited)
                    --max-queued N     shed POST /sweep with 429 + Retry-After once
                                       N jobs are in flight (default 8; 0 = unbounded)
                    --whatif-deadline-ms MS  answer 504 when a what-if exceeds MS
                                       (default 0 = no deadline)
        endpoints:  GET  /healthz /metrics /models /history/best?model=X&top=N
                    GET  /jobs/<id>  /jobs/<id>/results?top=N
                    POST /whatif /sweep /shutdown      (JSON bodies)
        jobs with --store are journaled before evaluation: a daemon killed
        mid-job recovers and resumes it on restart (same run id, identical report)
    query accepts:  --addr HOST:PORT (default 127.0.0.1:8484), --body JSON
                    (implies POST), --method GET|POST; prints the response body
                    --retries N        retry connect failures / 5xx / 429 sheds
                                       with capped exponential backoff (default 0)
                    --backoff-ms B     first retry delay, doubles per retry,
                                       jittered, capped at 5s (default 100)
    sweep-history accepts: --store DIR (default .), --model M, --top N
                    (default 10), --out F.json

ADAPTIVE SEARCH OPTIONS (multi-fidelity successive halving):
    --search halving   prune the grid over low-fidelity rungs instead of
                       evaluating every scenario at full fidelity
    --rungs N          total rungs incl. the final exact pass (default 3)
    --keep-fraction F  fraction kept per rung and model       (default 0.25)
    --keep-min N       survivor floor per pruning group       (default 2)
    --tolerance F      near-miss warning margin               (default 0.02)
    --cone-budgets A,B incremental-cone budget per low rung   (default 0.05,0.25)

DISTRIBUTED SWEEP OPTIONS (shard a grid across processes/machines):
    --shards N         split the grid into N fingerprint-balanced shards
    --shard-index I    plan the run (if needed) and evaluate shard I
    --run-dir D        shared run directory (manifest, shard queue, results)
    --worker-id W      worker name recorded in shard leases  (default w<pid>)
    --lease-ttl-secs S reclaim a dead worker's shard after S  (default 60)
  sweep-worker also accepts: --threads N, --poll-ms MS, --max-wait-secs S
  sweep-merge  also accepts: --top N, --out F.json, --csv F.csv, --cache-out F
  sweep-diff   also accepts: --tolerance FRAC (default 0.001), --out F.json,
               --fail-on-regression (nonzero exit when B regressed vs A)

EXAMPLES:
    daydream profile BERT_Base --out bert.json
    daydream profile ResNet-50 --batch 4 --fidelity --jsonl truth.jsonl --sim-out sim.jsonl
    daydream trace-diff sim.jsonl truth.jsonl --format csv --top 10
    daydream trace-verify                              # gate against goldens/
    daydream golden-gen                                # re-pin after an executor change
    daydream predict BERT_Large --opt fused-adam
    daydream predict ResNet-50 --opt ddp --machines 4 --gpus 2 --bw 10
    daydream predict ResNet-50 --opt upgrade-gpu --to v100
    daydream sweep --models ResNet-50,BERT_Base --opts amp,ddp,dgc --bw 10,25,40
    daydream sweep --search halving --rungs 3 --keep-fraction 0.25 --factors 1.5,2,3,4
    daydream sweep --shards 4 --run-dir /shared/run1   # plan a distributed run
    daydream sweep-worker --run-dir /shared/run1       # on each of 4 machines
    daydream sweep-merge --run-dir /shared/run1 --out ranked.json
    daydream sweep-diff /shared/run1 /shared/run2 --fail-on-regression
    daydream serve --addr 127.0.0.1:8484 --store /shared/history
    daydream query /whatif --body '{\"model\": \"ResNet-50\", \"opt\": \"amp\"}'
    daydream query '/history/best?model=ResNet-50&top=5'
    daydream sweep-history --store /shared/history --model ResNet-50
";

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" || argv[0] == "help" {
        print!("{USAGE}");
        return;
    }
    let command = argv.remove(0);
    let parsed = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("argument error: {e}");
            std::process::exit(2);
        }
    };
    let result = match command.as_str() {
        "models" => commands::cmd_models(&parsed),
        "profile" => commands::cmd_profile(&parsed),
        "report" => commands::cmd_report(&parsed),
        "memory" => commands::cmd_memory(&parsed),
        "predict" => commands::cmd_predict(&parsed),
        "sweep" => commands::cmd_sweep(&parsed),
        "sweep-worker" => commands::cmd_sweep_worker(&parsed),
        "sweep-merge" => commands::cmd_sweep_merge(&parsed),
        "sweep-diff" => commands::cmd_sweep_diff(&parsed),
        "sweep-history" => commands::cmd_sweep_history(&parsed),
        "serve" => commands::cmd_serve(&parsed),
        "query" => commands::cmd_query(&parsed),
        "trace-diff" => commands::cmd_trace_diff(&parsed),
        "trace-verify" => commands::cmd_trace_verify(&parsed),
        "golden-gen" => commands::cmd_golden_gen(&parsed),
        other => {
            eprintln!("unknown command '{other}'\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
