//! Self-test of the benchmark: every workload at a tiny size, untraced and
//! traced, must pass its output checks and print exactly the metrics
//! `BENCHMARK.json` names, each with its unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use btt_core::serialize::json::{self, Json};
use std::process::{Command, Output};

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

fn benchmark_json() -> Json {
    let path = format!("{MANIFEST_DIR}/../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs")
}

/// Runs one workload tiny and returns its result and context lines.
fn run_tiny(workload: &str, trace: &str) -> (Json, Json) {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--tiny",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let result = json::parse(lines[lines.len() - 1]).expect("last line is JSON");
    let context = json::parse(lines[lines.len() - 2]).expect("context line is JSON");
    (result, context)
}

fn assert_result(workload: &str, trace: &str, list: &str) {
    let (result, context) = run_tiny(workload, trace);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let Some(Json::Object(metrics)) = result.get("metrics") else { panic!("no metrics object") };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name} has no value");
            (name.clone(), m.get("unit").and_then(Json::as_str).expect("unit").to_string())
        })
        .collect();
    assert_eq!(printed, declared(list), "{workload} --trace {trace}");

    let context = context.get("perfbench").expect("context object");
    assert_eq!(context.get("seed").and_then(Json::as_u64), Some(3));
    for key in ["held_out_seed", "nproc", "threads", "rustc", "failed_ratio"] {
        assert!(context.get(key).is_some(), "context lacks {key}");
    }
}

#[test]
fn convergence_prints_every_metric() {
    assert_result("convergence-wan-1k", "0", "end_to_end");
    assert_result("convergence-wan-1k", "1", "per_layer");
}

#[test]
fn edge_prints_every_metric() {
    assert_result("edge-1k-broadcast", "0", "end_to_end");
    assert_result("edge-1k-broadcast", "1", "per_layer");
}

#[test]
fn serve_churn_prints_every_metric() {
    assert_result("serve-churn", "0", "end_to_end");
    assert_result("serve-churn", "1", "per_layer");
}

#[test]
fn traced_runs_report_the_remainder_and_the_overhead() {
    let names: Vec<String> = declared("per_layer").into_iter().map(|(n, _)| n).collect();
    assert!(names.iter().any(|n| n == "trace.unattributed_ms"));
    assert!(names.iter().any(|n| n == "trace.overhead_ratio"));
}

#[test]
fn every_layer_metric_is_mapped_in_the_readme() {
    let readme = std::fs::read_to_string(format!("{MANIFEST_DIR}/README.md")).expect("README.md");
    for (name, _) in declared("per_layer") {
        assert!(readme.contains(&format!("`{name}`")), "README.md does not map {name}");
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = perfbench(&["--workload", "no-such-workload"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
