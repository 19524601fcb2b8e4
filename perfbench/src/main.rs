//! The repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--tiny]
//! ```
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones from a traced run (see `trace.rs`). The line
//! before it records the run's context: seed, thread and connection
//! counts, `nproc`, compiler version, and the failure ratio. Any failed
//! output check makes the exit code 1. `--tiny` shrinks every workload to
//! a few hosts for the self-test. README.md in this directory says why
//! each workload exists and which layer metric should move which
//! end-to-end metric.

mod batch;
mod churn;
mod stats;
mod trace;

use batch::Batch;
use btt_core::serialize::json::Json;
use churn::Churn;
use stats::{Metrics, Tally};
use std::time::Duration;
use trace::{Job, Trace};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 2012;
/// A seed kept out of tuning, to check a later claim on unseen inputs.
const HELD_OUT_SEED: u64 = 7919;

/// The paper's Fig.-13 convergence study at 1024 hosts, as a batch.
const CONVERGENCE: Batch = Batch { spec: "wan-1k", pieces: 128, iterations: 40, nominal_s: 4.5 };
/// An engine-bound campaign on 20 Mb/s consumer-edge access links.
/// `wan:8x128:0.5:20` is the `edge-1k` preset's 1024 hosts and 20 Mb/s
/// access tier in 8 sites of 128 rather than 16 of 64: on edge-1k the final
/// oNMI reads 0 for most seeds at this depth (small clusters merge, which
/// LFK oNMI scores as nothing), and an accuracy metric stuck at 0 cannot
/// show a regression. 12 iterations rather than 8 keep it above 0.94 on
/// every seed tried instead of anywhere from 0.5 to 1.
const EDGE: Batch = Batch { spec: "wan:8x128:0.5:20", pieces: 128, iterations: 12, nominal_s: 4.5 };
/// Small churned jobs served by the daemon to a closed loop of clients.
/// The `wan-512-churn` preset's hosts, churn and cross-traffic, in 4 sites
/// of 128 rather than 16 of 32: jobs small enough to serve 100 of them in
/// a run find no site at all on wan-512-churn (final oNMI 0).
const CHURN: Churn = Churn {
    spec: "wan:4x128:0.5+churn=0.05+xtraffic=0.2",
    pieces: 128,
    iterations: 4,
    nominal_jobs_per_s: 5.0,
    min_jobs: 100,
    poll: Duration::from_millis(10),
    checks: 6,
};

const TINY_CONVERGENCE: Batch =
    Batch { spec: "wan:2x4:0.5", pieces: 16, iterations: 3, nominal_s: 1e9 };
const TINY_EDGE: Batch =
    Batch { spec: "wan:2x4:0.5:20", pieces: 16, iterations: 2, nominal_s: 1e9 };
const TINY_CHURN: Churn = Churn {
    spec: "wan:2x4:0.5+churn=0.2",
    pieces: 16,
    iterations: 2,
    nominal_jobs_per_s: 0.0,
    min_jobs: 4,
    poll: Duration::from_millis(2),
    checks: 2,
};

/// The workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["convergence-wan-1k", "edge-1k-broadcast", "serve-churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--tiny]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let Some(value) = it.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value.parse().unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

fn main() {
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (batch, churn) = if args.tiny {
        ([TINY_CONVERGENCE, TINY_EDGE], TINY_CHURN)
    } else {
        ([CONVERGENCE, EDGE], CHURN)
    };
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let mut trace = Trace::default();
    let mut context = vec![("threads", Json::UInt(nproc as u64))];
    match args.workload.as_str() {
        "serve-churn" => {
            let mut e2e = Metrics::default();
            let traced = args.trace.then_some(&mut trace);
            let jobs = churn.run(args.seed, args.seconds, nproc, traced, &mut e2e, &mut tally);
            if !args.trace {
                metrics = e2e;
            }
            context = vec![
                ("threads", Json::UInt(1)),
                ("connections", Json::UInt(nproc as u64)),
                ("jobs", Json::UInt(jobs as u64)),
            ];
        }
        name => {
            let b = if name == WORKLOADS[0] { &batch[0] } else { &batch[1] };
            let job = Job {
                spec: b.spec.to_string(),
                pieces: b.pieces,
                iterations: b.iterations,
                seed: args.seed,
                threads: nproc,
            };
            if args.trace {
                b.trace(&job, &mut trace, &mut tally);
            } else {
                b.measure(&job, args.seconds, &mut metrics, &mut tally);
                context.push(("campaigns", Json::UInt(b.campaigns(args.seconds) as u64)));
            }
        }
    }
    if args.trace {
        trace.emit(&mut metrics);
    }

    let mut rendered = Vec::new();
    for &(name, value, unit) in &metrics.0 {
        tally.check(value.is_finite(), || format!("metric {name} is {value}"));
        let value = if value.is_finite() { value } else { 0.0 };
        rendered.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    let mut info = vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::UInt(args.seed)),
        ("held_out_seed", Json::UInt(HELD_OUT_SEED)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("tiny", Json::Bool(args.tiny)),
        ("nproc", Json::UInt(nproc as u64)),
        ("rustc", Json::Str(env!("PERFBENCH_RUSTC").to_string())),
        ("failed_ratio", Json::Float(failed_ratio)),
    ];
    info.extend(context);
    println!("{}", Json::obj(vec![("perfbench", Json::obj(info))]).render());
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        rendered.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
