//! The two batch workloads: whole campaigns run in-process through
//! `TomographySession`, from the built session to the rendered report.

use crate::stats::{mean, median, peak_rss_mb, percentile, secs, Metrics, Tally};
use crate::trace::{render, Job, Trace};
use btt_cluster::onmi::onmi_partitions;
use btt_core::backend::Backend;
use btt_core::dataset::Scenario;
use std::time::Instant;

/// A batch workload's shape. The campaign count per run is fixed by the
/// run length, never by how fast the machine is, so a given seed and
/// `--seconds` always measure the same inputs.
pub struct Batch {
    pub spec: &'static str,
    pub pieces: u32,
    pub iterations: u32,
    /// Expected seconds per campaign on the reference machine; sets the
    /// campaign count as `--seconds / nominal_s`.
    pub nominal_s: f64,
}

/// Fewest scenario builds timed per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 9;

impl Batch {
    /// Campaigns a run of `seconds` measures (at least one).
    pub fn campaigns(&self, seconds: f64) -> usize {
        ((seconds / self.nominal_s).round() as usize).max(1)
    }

    /// The untraced run: every end-to-end metric.
    pub fn measure(&self, job: &Job, seconds: f64, m: &mut Metrics, tally: &mut Tally) {
        // Scenario builds are spread over the run, before every campaign
        // and after the last, so one burst of machine noise cannot move
        // their median; the first build is the scenario measured.
        let mut setup = Vec::new();
        let scenario = timed_build(job, &mut setup);
        let campaigns = self.campaigns(seconds);
        let builds_per_gap = SETUP_BUILDS / (campaigns + 1) + 1;
        let interleave = |setup: &mut Vec<f64>| {
            for _ in 0..builds_per_gap {
                std::hint::black_box(timed_build(job, setup));
            }
        };

        // Campaign `r` runs on seed `seed + r`: a run averages over several
        // inputs, so its figures move less from one `--seed` to the next.
        let (mut walls, mut rates, mut onmis) = (Vec::new(), Vec::new(), Vec::new());
        for rep in 0..campaigns {
            interleave(&mut setup);
            let job = Job { seed: job.seed + rep as u64, ..job.clone() };
            let session = job.session(scenario.clone());
            let t = Instant::now();
            let campaign = session.measure();
            let phase1 = secs(t);
            let report = session.analyze_with(campaign, Backend::default());
            std::hint::black_box(render(&report, job.pieces));
            let wall = secs(t);
            walls.push(wall);
            rates.push(job.iterations as f64 / phase1);
            eprintln!("perfbench: seed {}: campaign {wall:.3} s, phase 1 {phase1:.3} s", job.seed);
            for (k, run) in report.campaign.runs.iter().enumerate() {
                tally
                    .check(run.finished, || format!("seed {}: broadcast {k} unfinished", job.seed));
            }
            onmis.push(onmi_partitions(&report.final_partition, &report.ground_truth));
        }
        interleave(&mut setup);
        let peak = peak_rss_mb();
        tally.check(peak.is_ok(), || format!("peak RSS: {:?}", peak.as_ref().err()));

        let total: f64 = walls.iter().sum();
        m.put("setup_s", median(&setup), "s");
        m.put("wall_s", median(&walls), "s");
        m.put("broadcasts_per_s", median(&rates), "1/s");
        m.put("onmi_final", mean(&onmis), "ratio");
        m.put("peak_rss_mb", peak.unwrap_or(0.0), "MB");
        m.put("jobs_per_s", walls.len() as f64 / total, "1/s");
        m.put("job_latency_p50_s", median(&walls), "s");
        m.put("job_latency_p90_s", percentile(&walls, 90.0), "s");
    }

    /// The traced run: the decomposed path and the live replay, both
    /// checked byte for byte against an untraced `run()` timed before and
    /// after them.
    pub fn trace(&self, job: &Job, trace: &mut Trace, tally: &mut Tally) {
        trace.setup(&job.spec);
        let scenario = job.scenario();
        let reference = trace.untraced(job, &scenario);
        let traced = trace.job(job, &scenario);
        tally.check(trace.untraced(job, &scenario) == reference, || {
            "TomographySession::run() differs between two calls".into()
        });
        tally.check(traced.all_finished, || "traced campaign: a broadcast is unfinished".into());
        tally.check(traced.batch_json == reference, || {
            "traced decomposition differs from TomographySession::run()".into()
        });
        tally.check(traced.live_json == reference, || {
            "LiveSession replay differs from TomographySession::run()".into()
        });
    }
}

/// Builds `job`'s scenario, recording the time taken in `setup`.
fn timed_build(job: &Job, setup: &mut Vec<f64>) -> Scenario {
    let t = Instant::now();
    let scenario = job.scenario();
    setup.push(secs(t));
    scenario
}
