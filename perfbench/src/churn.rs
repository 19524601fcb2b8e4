//! The served workload: `serve()` in-process on loopback under a closed
//! loop of client connections, each submitting one small churned job at a
//! time and polling it to completion.

use crate::stats::{mean, median, peak_rss_mb, percentile, secs, Metrics, Tally};
use crate::trace::{render, Job, ServeTrace, Trace};
use btt_bench::serve::{serve, ServeClient, ServeConfig, ServerHandle};
use btt_cluster::onmi::onmi_partitions;
use btt_core::serialize::json::Json;
use btt_core::serialize::ReportRecord;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The served workload's shape. The job count is fixed by the run length,
/// never by how fast the machine is.
pub struct Churn {
    pub spec: &'static str,
    pub pieces: u32,
    pub iterations: u32,
    /// Expected jobs completed per second on the reference machine; sets
    /// the job count as `--seconds × nominal_jobs_per_s`.
    pub nominal_jobs_per_s: f64,
    /// Fewest jobs a run submits: enough for `job_latency_p90_s` to have
    /// ten samples beyond it.
    pub min_jobs: usize,
    /// Interval between a client's status/snapshot polls.
    pub poll: Duration,
    /// Served reports checked against an offline `run()` per run.
    pub checks: usize,
}

/// Daemon starts timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;

/// Where the daemon writes job artifacts, inside the working directory.
const OUT_ROOT: &str = ".perfbench_out";

/// One job as a client saw it.
struct Served {
    index: usize,
    job_id: u64,
    latency_s: f64,
    onmi: f64,
    /// The served report, re-rendered in the artifact format.
    report: String,
}

/// What one client connection measured.
#[derive(Default)]
struct Client {
    served: Vec<Served>,
    trace: ServeTrace,
    failures: Vec<String>,
    jobs: u64,
    jobs_failed: u64,
    first_submit: Option<Instant>,
    last_report: Option<Instant>,
}

impl Churn {
    fn jobs(&self, seconds: f64) -> usize {
        ((seconds * self.nominal_jobs_per_s).round() as usize).max(self.min_jobs)
    }

    fn job(&self, seed: u64, index: usize) -> Job {
        Job {
            spec: self.spec.to_string(),
            pieces: self.pieces,
            iterations: self.iterations,
            seed: seed + index as u64,
            threads: 1,
        }
    }

    /// Runs the closed loop; with `trace`, also replays sampled jobs
    /// through the decomposed path. Returns the job count submitted.
    pub fn run(
        &self,
        seed: u64,
        seconds: f64,
        connections: usize,
        trace: Option<&mut Trace>,
        m: &mut Metrics,
        tally: &mut Tally,
    ) -> usize {
        let dir = OutDir(PathBuf::from(OUT_ROOT).join(format!("serve-{}", std::process::id())));
        let out = dir.0.as_path();
        let config = ServeConfig { addr: "127.0.0.1:0".to_string(), out: Some(out.to_path_buf()) };
        let mut setup = Vec::new();
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let handle = serve(config.clone()).expect("bind a loopback port");
            let pong = first_ping(&handle);
            setup.push(secs(t));
            tally.check(pong, || "daemon never answered ping".into());
            stop(handle, tally);
        }

        let jobs = self.jobs(seconds);
        let handle = serve(config).expect("bind a loopback port");
        let addr = handle.addr();
        let next = AtomicUsize::new(0);
        let clients: Vec<Client> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..connections)
                .map(|_| scope.spawn(|| self.client(&addr, &next, jobs, seed)))
                .collect();
            workers.into_iter().map(|w| w.join().expect("client threads never panic")).collect()
        });
        stop(handle, tally);

        let mut served: Vec<Served> = Vec::new();
        let mut serve_trace = ServeTrace::default();
        let first = clients.iter().filter_map(|c| c.first_submit).min();
        let last = clients.iter().filter_map(|c| c.last_report).max();
        for c in clients {
            let failed = c.jobs_failed + c.trace.error_responses;
            tally.add(c.jobs + c.trace.requests, failed, c.failures);
            served.extend(c.served);
            serve_trace.merge(c.trace);
        }
        tally.check(served.len() == jobs, || format!("{} of {jobs} jobs served", served.len()));
        let wall = match (first, last) {
            (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
            _ => 0.0,
        };
        let peak = peak_rss_mb();
        tally.check(peak.is_ok(), || format!("peak RSS: {:?}", peak.as_ref().err()));
        served.sort_by_key(|s| s.index);

        let n = self.checks.min(served.len());
        let sampled: Vec<&Served> = (0..n).map(|j| &served[j * served.len() / n]).collect();
        match trace {
            None => self.check_offline(out, seed, &sampled, connections, tally),
            Some(trace) => {
                trace.setup(self.spec);
                for s in &sampled {
                    self.check_traced(out, seed, s, trace, tally);
                }
                trace.serve = serve_trace;
            }
        }

        let latencies: Vec<f64> = served.iter().map(|s| s.latency_s).collect();
        let done = served.len() as f64;
        m.put("setup_s", median(&setup), "s");
        m.put("wall_s", wall, "s");
        m.put("broadcasts_per_s", done * self.iterations as f64 / wall, "1/s");
        m.put("onmi_final", mean(&served.iter().map(|s| s.onmi).collect::<Vec<_>>()), "ratio");
        m.put("peak_rss_mb", peak.unwrap_or(0.0), "MB");
        m.put("jobs_per_s", done / wall, "1/s");
        m.put("job_latency_p50_s", median(&latencies), "s");
        m.put("job_latency_p90_s", percentile(&latencies, 90.0), "s");
        jobs
    }

    /// One closed-loop connection: claim the next job index, submit it,
    /// poll status and snapshot every `poll` until it completes, fetch the
    /// report, repeat.
    fn client(
        &self,
        addr: &std::net::SocketAddr,
        next: &AtomicUsize,
        jobs: usize,
        seed: u64,
    ) -> Client {
        let mut c = Client::default();
        let mut conn = match ServeClient::connect(addr) {
            Ok(conn) => conn,
            Err(e) => {
                c.jobs_failed += 1;
                c.failures.push(format!("connect: {e}"));
                return c;
            }
        };
        loop {
            let index = next.fetch_add(1, Ordering::SeqCst);
            if index >= jobs {
                return c;
            }
            let job = self.job(seed, index);
            let spec = Json::obj(vec![
                ("scenario", Json::Str(job.spec.clone())),
                ("seed", Json::UInt(job.seed)),
                ("iterations", Json::UInt(u64::from(job.iterations))),
                ("pieces", Json::UInt(u64::from(job.pieces))),
                ("recluster_every", Json::UInt(1)),
                ("threads", Json::UInt(job.threads as u64)),
            ]);
            let submitted = Instant::now();
            c.first_submit.get_or_insert(submitted);
            c.jobs += 1;
            match self.drive(&mut conn, &mut c, spec) {
                Ok(Some((job_id, record))) => {
                    let now = Instant::now();
                    c.last_report = Some(now);
                    let onmi = onmi_partitions(&record.final_partition, &record.ground_truth);
                    c.served.push(Served {
                        index,
                        job_id,
                        latency_s: now.duration_since(submitted).as_secs_f64(),
                        onmi,
                        report: record.to_json().render_pretty(),
                    });
                }
                Ok(None) => {}
                Err(e) => {
                    c.jobs_failed += 1;
                    c.failures.push(format!("job {index}: connection lost: {e}"));
                    return c;
                }
            }
        }
    }

    /// Submits one job and follows it to its report. `Ok(None)` is a job
    /// the daemon refused or failed, counted and logged in `c`.
    fn drive(
        &self,
        conn: &mut ServeClient,
        c: &mut Client,
        spec: Json,
    ) -> std::io::Result<Option<(u64, ReportRecord)>> {
        let resp = timed(conn, &mut c.trace, "submit", vec![("job", spec)])?;
        let Some(job_id) = ok(&resp, c).and_then(|r| r.get("job_id")).and_then(Json::as_u64) else {
            c.jobs_failed += 1;
            return Ok(None);
        };
        let id = || vec![("job_id", Json::UInt(job_id))];
        loop {
            let status = timed(conn, &mut c.trace, "status", id())?;
            let state = ok(&status, c)
                .and_then(|s| s.get("state"))
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            let snap = timed(conn, &mut c.trace, "snapshot", id())?;
            let available = ok(&snap, c).and_then(|s| s.get("available")).and_then(Json::as_bool);
            if available == Some(true) && state == "measuring" {
                c.trace.snapshots_mid_job += 1;
            }
            match state.as_str() {
                "complete" => break,
                "queued" | "measuring" => std::thread::sleep(self.poll),
                other => {
                    c.jobs_failed += 1;
                    c.failures.push(format!("job {job_id} ended {other}: {}", status.render()));
                    return Ok(None);
                }
            }
        }
        let resp = timed(conn, &mut c.trace, "report", id())?;
        let record = ok(&resp, c)
            .and_then(|r| r.get("report"))
            .map(ReportRecord::from_json)
            .and_then(Result::ok);
        match record {
            Some(record) => Ok(Some((job_id, record))),
            None => {
                c.jobs_failed += 1;
                c.failures.push(format!("job {job_id}: unreadable report: {}", resp.render()));
                Ok(None)
            }
        }
    }

    /// Byte-compares sampled served reports, and their artifacts on disk,
    /// with offline `TomographySession::run()`s of the same coordinates,
    /// on `threads` threads.
    fn check_offline(
        &self,
        out: &Path,
        seed: u64,
        sampled: &[&Served],
        threads: usize,
        tally: &mut Tally,
    ) {
        let results = Mutex::new(Vec::new());
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads.max(1) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::SeqCst);
                    let Some(s) = sampled.get(i) else { break };
                    let job = self.job(seed, s.index);
                    let report = job.session(job.scenario()).run();
                    let finished = report.campaign.runs.iter().all(|r| r.finished);
                    let offline = render(&report, job.pieces);
                    results.lock().expect("check results lock").push((s, finished, offline));
                });
            }
        });
        for (s, finished, offline) in results.into_inner().expect("check results lock") {
            compare(out, s, finished, &offline, tally);
        }
    }

    /// The traced counterpart of [`Churn::check_offline`] for one sampled
    /// job: the decomposed path and live replay between two untraced
    /// `run()`s, all compared with the served report.
    fn check_traced(
        &self,
        out: &Path,
        seed: u64,
        s: &Served,
        trace: &mut Trace,
        tally: &mut Tally,
    ) {
        let job = self.job(seed, s.index);
        let scenario = job.scenario();
        let offline = trace.untraced(&job, &scenario);
        let traced = trace.job(&job, &scenario);
        compare(out, s, traced.all_finished, &offline, tally);
        tally.check(trace.untraced(&job, &scenario) == offline, || {
            format!("job {}: run() differs between two calls", s.index)
        });
        tally.check(traced.batch_json == offline, || {
            format!("job {}: traced decomposition differs from run()", s.index)
        });
        tally.check(traced.live_json == offline, || {
            format!("job {}: LiveSession replay differs from run()", s.index)
        });
    }
}

/// Checks one served job against its offline report: every broadcast
/// finished, and the served report and its artifact match byte for byte.
fn compare(out: &Path, s: &Served, finished: bool, offline: &str, tally: &mut Tally) {
    tally.check(finished, || format!("job {}: a broadcast is unfinished", s.index));
    tally.check(s.report == offline, || {
        format!("job {}: served report differs from offline run()", s.index)
    });
    let artifact = artifact(out, s.job_id);
    tally.check(artifact.as_deref() == Some(offline), || {
        format!("job {}: artifact of daemon job {} differs from offline run()", s.index, s.job_id)
    });
}

/// The daemon's artifact directory, removed with everything in it when the
/// run ends, however it ends.
struct OutDir(PathBuf);

impl Drop for OutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(OUT_ROOT); // only if no other run is using it
    }
}

/// The report JSON the daemon wrote for `job_id`, if any.
fn artifact(out: &Path, job_id: u64) -> Option<String> {
    let prefix = format!("job{job_id}__");
    std::fs::read_dir(out).ok()?.flatten().find_map(|e| {
        let name = e.file_name().into_string().ok()?;
        (name.starts_with(&prefix) && name.ends_with(".json"))
            .then(|| std::fs::read_to_string(e.path()).ok())
            .flatten()
    })
}

/// Connects and pings until the daemon answers (bounded at one second).
fn first_ping(handle: &ServerHandle) -> bool {
    let deadline = Instant::now() + Duration::from_secs(1);
    while Instant::now() < deadline {
        if let Ok(mut conn) = ServeClient::connect(&handle.addr()) {
            let ping = ServeClient::envelope("ping", vec![]);
            if let Ok(resp) = conn.request(&ping) {
                return resp.get("ok").and_then(Json::as_bool) == Some(true);
            }
        }
    }
    false
}

/// Shuts the daemon down and waits for it to drain.
fn stop(handle: ServerHandle, tally: &mut Tally) {
    handle.shutdown();
    let stats = handle.wait();
    tally.check(matches!(stats, Ok(s) if s.failed == 0), || format!("daemon drain: {stats:?}"));
}

/// One request, its round trip recorded under its kind.
fn timed(
    conn: &mut ServeClient,
    trace: &mut ServeTrace,
    kind: &str,
    extra: Vec<(&str, Json)>,
) -> std::io::Result<Json> {
    let t = Instant::now();
    let resp = conn.request(&ServeClient::envelope(kind, extra))?;
    let rtt = t.elapsed().as_secs_f64() * 1e3;
    trace.requests += 1;
    match kind {
        "submit" => trace.submit_ms.push(rtt),
        "status" => trace.status_ms.push(rtt),
        "snapshot" => trace.snapshot_ms.push(rtt),
        _ => {}
    }
    Ok(resp)
}

/// The response if it is `ok`; an error response is counted and logged.
fn ok<'a>(resp: &'a Json, c: &mut Client) -> Option<&'a Json> {
    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
        Some(resp)
    } else {
        c.trace.error_responses += 1;
        c.failures.push(format!("error response: {}", resp.render()));
        None
    }
}
