//! End-to-end test of the `daydream predict` subcommand: spawns the real
//! binary and pins the exact line it prints for a few what-ifs, plus the
//! grid's refusal of a family the model cannot run.

use std::process::{Command, Output};

fn predict(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_daydream"))
        .arg("predict")
        .args(args.split_whitespace())
        .output()
        .expect("binary runs")
}

#[test]
fn predict_prints_pinned_lines() {
    for (args, want) in [
        (
            "ResNet-50 --batch 4 --opt amp",
            "ResNet-50 + amp: 33.4 ms -> 30.3 ms (+9.2% faster)",
        ),
        (
            "ResNet-50 --batch 4 --opt dgc",
            "ResNet-50 + dgc: 33.4 ms -> 48.0 ms (+43.8% slower)",
        ),
        (
            "ResNet-50 --batch 4 --opt p3",
            "ResNet-50 + P3 on 4x1@10Gbps: predicted steady-state iteration 67.0 ms \
             (115 messages/iteration)",
        ),
        (
            "BERT_Base --batch 4 --opt fused-adam",
            "BERT_Base + fused-adam: 205.2 ms -> 126.4 ms (+38.4% faster)",
        ),
        // The upgrade retimes from the profiled P4000, not a fixed GPU.
        (
            "ResNet-50 --gpu p4000 --batch 8 --opt upgrade-gpu",
            "ResNet-50 + upgrade-gpu: 112.9 ms -> 39.5 ms (+65.0% faster)",
        ),
    ] {
        let out = predict(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "predict {args} failed: {stderr}");
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim_end(), want);
    }
}

/// BERT has no convolutions to offload: the grid refuses vDNN on it.
#[test]
fn predict_refuses_an_inapplicable_family() {
    let out = predict("BERT_Base --batch 4 --opt vdnn");
    assert!(!out.status.success(), "vdnn on BERT_Base must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("vdnn") && stderr.contains("BERT_Base"),
        "got: {stderr}"
    );
}
