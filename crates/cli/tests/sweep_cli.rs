//! End-to-end test of the `daydream sweep` subcommand: spawns the real
//! binary on an acceptance-sized grid, checks the ranked JSON report,
//! and verifies cache-file reuse across processes.

use std::process::Command;

fn daydream() -> Command {
    Command::new(env!("CARGO_BIN_EXE_daydream"))
}

#[test]
fn sweep_end_to_end_with_report_and_cache() {
    let dir = std::env::temp_dir().join(format!("daydream-sweep-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report_path = dir.join("report.json");
    let csv_path = dir.join("report.csv");
    let cache_path = dir.join("sweep.cache.json");

    // >= 24 scenarios: 2 models x {amp, gist, ddp x (2 bw), dgc x (2 bw),
    // bandwidth} x 2 batches, minus nothing (all applicable).
    let grid_args = [
        "sweep",
        "--models",
        "ResNet-50,BERT_Base",
        "--batches",
        "4,8",
        "--opts",
        "amp,gist,ddp,dgc,bandwidth",
        "--bw",
        "10,25",
        "--machines",
        "4",
        "--threads",
        "4",
    ];

    let out = daydream()
        .args(grid_args)
        .args(["--out", report_path.to_str().unwrap()])
        .args(["--csv", csv_path.to_str().unwrap()])
        .args(["--cache-file", cache_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "sweep failed: {stdout}");
    assert!(stdout.contains("swept 28 scenarios"), "got: {stdout}");
    assert!(stdout.contains("pareto front"));

    // The JSON report parses and is ranked.
    let json = std::fs::read_to_string(&report_path).unwrap();
    let report: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(report["scenario_count"], 28u64);
    assert_eq!(report["cache_hits"], 0u64);
    let results = report["results"].as_array().unwrap();
    assert_eq!(results.len(), 28);
    let times: Vec<u64> = results
        .iter()
        .map(|r| r["predicted_ns"].as_u64().unwrap())
        .collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "ranked ascending");

    // CSV: header + one row per scenario.
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    assert_eq!(csv.lines().count(), 29);
    assert!(csv.starts_with("rank,label,model"));

    // Second process, same grid, same cache file: everything is free.
    let out2 = daydream()
        .args(grid_args)
        .args(["--cache-file", cache_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout2 = String::from_utf8_lossy(&out2.stdout);
    assert!(out2.status.success(), "cached sweep failed: {stdout2}");
    assert!(
        stdout2.contains("cache: 28 hits, 0 executed"),
        "expected full cache reuse, got: {stdout2}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_top_controls_ranked_row_count() {
    let base = [
        "sweep",
        "--models",
        "ResNet-50",
        "--batches",
        "4",
        "--opts",
        "baseline,amp,gist,vdnn,bandwidth",
        "--threads",
        "2",
    ];
    let out = daydream().args(base).args(["--top", "2"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ranked_rows = stdout
        .lines()
        .filter(|l| l.starts_with("1 ") || l.starts_with("2 ") || l.starts_with("3 "))
        .count();
    assert_eq!(ranked_rows, 2, "--top 2 prints two ranked rows: {stdout}");
    assert!(
        stdout.contains("... 3 more rows"),
        "truncation is announced: {stdout}"
    );

    // Default --top 15 shows all five rows, no truncation notice.
    let out = daydream().args(base).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("more rows"), "got: {stdout}");
    assert!(
        stdout.lines().any(|l| l.starts_with("5    ")),
        "all five ranked rows print: {stdout}"
    );

    // Garbage --top is an argument error, not a silent default.
    let out = daydream()
        .args(base)
        .args(["--top", "lots"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("invalid value for --top"),
        "got: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `--search halving` on a monotone curated grid agrees with the
/// exhaustive sweep on the per-model winner, prints rung accounting,
/// and appends the rung table to `--csv`.
#[test]
fn sweep_search_halving_agrees_with_exhaustive_top1() {
    let dir = std::env::temp_dir().join(format!("daydream-search-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let grid = [
        "sweep",
        "--models",
        "ResNet-50",
        "--batches",
        "4",
        "--opts",
        "baseline,amp,gist,vdnn,bandwidth,batch-size",
        "--factors",
        "1.5,2,3",
        "--target-batches",
        "8,16",
        "--threads",
        "2",
    ];

    let exhaustive = daydream().args(grid).output().expect("binary runs");
    assert!(exhaustive.status.success());
    let exhaustive_out = String::from_utf8_lossy(&exhaustive.stdout).into_owned();

    let csv_path = dir.join("search.csv");
    let search = daydream()
        .args(grid)
        .args([
            "--search",
            "halving",
            "--rungs",
            "3",
            "--keep-fraction",
            "0.4",
        ])
        .args(["--csv", csv_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let search_out = String::from_utf8_lossy(&search.stdout).into_owned();
    assert!(search.status.success(), "search failed: {search_out}");
    assert!(
        search_out.contains("halving search:"),
        "rung summary prints: {search_out}"
    );
    assert!(
        search_out.contains("rung  fidelity  expanded"),
        "rung table prints: {search_out}"
    );

    // Same per-model winner line as the exhaustive sweep.
    let winner = |out: &str| -> String {
        let lines: Vec<&str> = out.lines().collect();
        let i = lines
            .iter()
            .position(|l| l.starts_with("best per model"))
            .expect("winner section");
        lines[i + 1].trim().to_string()
    };
    assert_eq!(
        winner(&search_out),
        winner(&exhaustive_out),
        "halving must keep the exhaustive per-model winner"
    );

    // The CSV carries the ranked rows plus the rung accounting section.
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    assert!(csv.starts_with("rank,label,model"), "got: {csv}");
    assert!(
        csv.contains("rung,fidelity,expanded,evaluated"),
        "rung csv rides along: {csv}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The search knobs are rejected without `--search halving`, unknown
/// strategies fail, and `--search` refuses sharded mode.
#[test]
fn sweep_search_flag_validation() {
    let base = ["sweep", "--models", "ResNet-50", "--batches", "4"];
    let stderr_of = |extra: &[&str]| {
        let out = daydream().args(base).args(extra).output().unwrap();
        assert!(!out.status.success(), "should fail: {extra:?}");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    assert!(
        stderr_of(&["--rungs", "3"]).contains("--rungs requires --search halving"),
        "search knobs need the strategy flag"
    );
    assert!(
        stderr_of(&["--search", "annealing"]).contains("unknown --search strategy"),
        "unknown strategies are typos, not defaults"
    );
    assert!(
        stderr_of(&[
            "--search",
            "halving",
            "--run-dir",
            "/tmp/x",
            "--shards",
            "2"
        ])
        .contains("--search does not combine with --run-dir"),
        "a halving search is not sharded"
    );
    assert!(
        stderr_of(&["--search", "halving", "--keep-fraction", "0"])
            .contains("invalid keep fraction"),
        "config validation reaches the CLI"
    );
}

#[test]
fn sweep_rejects_unknown_model_with_nonzero_exit() {
    let out = daydream()
        .args(["sweep", "--models", "AlexNet"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown model"), "got: {stderr}");
}

#[test]
fn sweep_rejects_duplicate_options() {
    let out = daydream()
        .args(["sweep", "--threads", "2", "--threads", "4"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("duplicate option --threads"),
        "got: {stderr}"
    );
}

#[test]
fn explain_op_counts_match_the_golden() {
    // `goldens/catalog-explain.txt` holds `sweep --explain` over the CI
    // catalog grid, one entry per key. A patch fingerprint is an
    // in-memory cache key whose value may change with the hash; every
    // other line (the scenario, the simulation path and the op counts)
    // must not.
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../goldens/catalog-explain.txt"
    ))
    .unwrap();
    let grid = [
        "--models",
        "VGG-19,DenseNet-121,ResNet-50,GNMT,BERT_Base,BERT_Large",
        "--batches",
        "4,8",
        "--bw",
        "1,2,4,8,25",
        "--machines",
        "1,2,8",
        "--lossy",
        "both",
        "--opts",
        "amp,fused-adam,reconstruct-bn,metaflow,ddp,blueconnect,dgc,p3,vdnn,gist,bandwidth,\
         upgrade-gpu,batch-size",
    ];
    let mut explained = String::new();
    for key in golden.lines().filter_map(|l| l.strip_prefix("key:")) {
        let out = daydream()
            .arg("sweep")
            .args(grid)
            .args(["--threads", "1", "--explain", key.trim()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        explained.push_str(&String::from_utf8(out.stdout).unwrap());
    }
    let without_fingerprints = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| !l.starts_with("patch:"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(
        without_fingerprints(&explained),
        without_fingerprints(&golden)
    );
}
