//! End-to-end test of the golden-trace fidelity harness: spawns the
//! real binary to record a golden corpus, gate on it, prove the gate
//! fails under a perturbed cost model, detect hash-chain tampering at
//! the offending record, and rank per-op attribution via `trace-diff`.

use std::path::Path;
use std::process::Command;

fn daydream() -> Command {
    Command::new(env!("CARGO_BIN_EXE_daydream"))
}

fn run(args: &[&str], cwd: &Path) -> (bool, String, String) {
    let out = daydream()
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn golden_fidelity_gate_end_to_end() {
    let dir = std::env::temp_dir().join(format!("daydream-trace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let goldens = dir.join("goldens");
    let goldens_s = goldens.to_str().unwrap();

    // Record the corpus; the manifest pins chains and counts.
    let (ok, stdout, stderr) = run(&["golden-gen", "--dir", goldens_s], &dir);
    assert!(ok, "golden-gen failed: {stderr}");
    assert!(stdout.contains("pinned 2 golden(s)"), "got: {stdout}");
    assert!(goldens.join("MANIFEST.json").is_file());
    assert!(goldens.join("resnet50-b4.jsonl").is_file());

    // The pristine corpus passes the gate.
    let (ok, stdout, stderr) = run(&["trace-verify", "--dir", goldens_s], &dir);
    assert!(ok, "trace-verify failed: {stdout}{stderr}");
    assert!(
        stdout.contains("2 golden(s) within the 5.0% fidelity budget"),
        "got: {stdout}"
    );

    // A perturbed cost model must fail the gate — a gate that cannot
    // fail guards nothing.
    let (ok, stdout, stderr) = run(
        &["trace-verify", "--dir", goldens_s, "--perturb", "1.5"],
        &dir,
    );
    assert!(!ok, "perturbed verify must fail: {stdout}");
    assert!(stdout.contains("FAIL"), "got: {stdout}");
    assert!(
        stderr.contains("outside the 5.0% fidelity budget"),
        "got: {stderr}"
    );

    // A manifest whose pinned chain disagrees with the file is reported
    // as a corpus integrity error.
    let manifest_path = goldens.join("MANIFEST.json");
    let manifest = std::fs::read_to_string(&manifest_path).unwrap();
    let chain_start = manifest.find("\"chain\": \"").unwrap() + "\"chain\": \"".len();
    let mut forged = manifest.clone();
    forged.replace_range(chain_start..chain_start + 16, "0000000000000000");
    std::fs::write(&manifest_path, &forged).unwrap();
    let (ok, _, stderr) = run(&["trace-verify", "--dir", goldens_s], &dir);
    assert!(!ok, "forged manifest must fail");
    assert!(
        stderr.contains("does not match the manifest"),
        "got: {stderr}"
    );
    std::fs::write(&manifest_path, &manifest).unwrap();

    // Tampering with one record breaks the hash chain *at that line*.
    let golden_path = goldens.join("resnet50-b4.jsonl");
    let pristine = std::fs::read_to_string(&golden_path).unwrap();
    let lines: Vec<&str> = pristine.lines().collect();
    let victim = 10usize; // 0-based: an activity record past the header
    let tampered_line = if lines[victim].contains("\"dur_ns\":1") {
        lines[victim].replacen("\"dur_ns\":1", "\"dur_ns\":2", 1)
    } else {
        lines[victim].replacen("\"dur_ns\":", "\"dur_ns\":9", 1)
    };
    assert_ne!(tampered_line, lines[victim], "tamper must change the line");
    let mut tampered: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
    tampered[victim] = tampered_line;
    std::fs::write(&golden_path, tampered.join("\n") + "\n").unwrap();
    let (ok, _, stderr) = run(&["trace-verify", "--dir", goldens_s], &dir);
    assert!(!ok, "tampered golden must fail");
    assert!(
        stderr.contains(&format!("line {}: hash chain broken", victim + 1)),
        "tamper detection must name the offending record, got: {stderr}"
    );
    std::fs::write(&golden_path, &pristine).unwrap();

    // trace-diff on a (sim, truth) pair reports ranked attribution in
    // all three formats.
    let truth = dir.join("truth.jsonl");
    let sim = dir.join("sim.jsonl");
    let (ok, stdout, stderr) = run(
        &[
            "profile",
            "ResNet-50",
            "--batch",
            "4",
            "--fidelity",
            "--jsonl",
            truth.to_str().unwrap(),
            "--sim-out",
            sim.to_str().unwrap(),
        ],
        &dir,
    );
    assert!(ok, "profile --fidelity failed: {stderr}");
    assert!(stdout.contains("worst offenders"), "got: {stdout}");

    let pair = [sim.to_str().unwrap(), truth.to_str().unwrap()];
    let (ok, stdout, _) = run(&["trace-diff", pair[0], pair[1], "--format", "csv"], &dir);
    assert!(ok);
    let mut csv = stdout.lines();
    assert!(csv.next().unwrap().starts_with("rank,op,matched"));
    assert!(csv.next().unwrap().starts_with("1,"), "ranked rows follow");

    let (ok, stdout, _) = run(&["trace-diff", pair[0], pair[1], "--format", "json"], &dir);
    assert!(ok);
    assert!(stdout.contains("\"attribution\""), "got: {stdout}");

    let (ok, _, stderr) = run(
        &["trace-diff", pair[0], pair[1], "--tolerance", "0.0000001"],
        &dir,
    );
    assert!(!ok, "an impossibly tight budget must fail");
    assert!(stderr.contains("outside tolerance"), "got: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `profile --verify` is the one production caller of the quadratic
/// reference loop: it must agree with the compiled simulator on a real
/// profile and say so.
#[test]
fn profile_verify_matches_the_reference_oracle() {
    let (ok, stdout, stderr) = run(
        &["profile", "ResNet-50", "--batch", "4", "--verify"],
        &std::env::temp_dir(),
    );
    assert!(ok, "profile --verify failed: {stderr}");
    assert!(
        stdout.contains("compiled simulator matches reference oracle"),
        "got: {stdout}"
    );
}
