//! The traced run: one tomography job executed as a decomposition of
//! `TomographySession::run()` into calls to each layer's public functions,
//! each timed from here, plus a `LiveSession` replay of the same
//! observations.
//!
//! The program itself is not instrumented. Spans are taken around the calls
//! this module makes; below `Swarm::run` the engine/solver/swarm split comes
//! from the always-on `RunOutcome::prof` counters. The decomposition must
//! reproduce the untraced report byte for byte — the proof that the trace
//! measured the same program — and the caller checks that.

use crate::stats::{median, ms, percentile, Metrics};
use btt_cluster::modularity::modularity;
use btt_cluster::nmi::nmi;
use btt_cluster::onmi::onmi_partitions;
use btt_core::backend::Backend;
use btt_core::dataset::Scenario;
use btt_core::diagnosis::inference_diagnosis;
use btt_core::pipeline::{
    auto_metric_graph, degenerate_partition, ConvergencePoint, ReliabilityReport, TomographyReport,
};
use btt_core::scenarios::ScenarioSpec;
use btt_core::serialize::ReportRecord;
use btt_core::session::TomographySession;
use btt_netsim::perturb::{generate_schedule, horizon_estimate};
use btt_netsim::routing::RouteTable;
use btt_netsim::util::{seed_for_iteration, splitmix64};
use btt_swarm::broadcast::{Campaign, RootPolicy, RunObservation};
use btt_swarm::config::SwarmConfig;
use btt_swarm::metrics::MetricAccumulator;
use btt_swarm::swarm::{Swarm, SwarmProf};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// The coordinates that determine a tomography job's report. Everything
/// else takes the session defaults: Louvain, fixed root 0, re-clustering
/// after every broadcast.
#[derive(Debug, Clone)]
pub struct Job {
    pub spec: String,
    pub pieces: u32,
    pub iterations: u32,
    pub seed: u64,
    /// Phase-1 worker threads, always explicit (never `0`).
    pub threads: usize,
}

impl Job {
    /// Parses and builds the job's scenario.
    pub fn scenario(&self) -> Scenario {
        ScenarioSpec::parse(&self.spec).expect("workload specs are valid").build()
    }

    /// The session `TomographySession::run()` executes for this job.
    pub fn session(&self, scenario: Scenario) -> TomographySession {
        TomographySession::over(scenario)
            .pieces(self.pieces)
            .iterations(self.iterations)
            .seed(self.seed)
            .threads(self.threads)
    }

    fn swarm_config(&self) -> SwarmConfig {
        SwarmConfig { num_pieces: self.pieces, ..SwarmConfig::paper() }
    }
}

/// The report artifact exactly as the daemon and `btt sweep` write it.
pub fn render(report: &TomographyReport, pieces: u32) -> String {
    ReportRecord::new(report, pieces).to_json().render_pretty()
}

/// Scenario and route-table builds a traced run times.
const SETUP_REPS: usize = 9;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Per-layer accumulators of one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    /// Per setup repetition: scenario build minus route-table build.
    build_self_ms: Vec<f64>,
    table_ms: Vec<f64>,
    new_ns: u64,
    run_ms: Vec<f64>,
    emit_wait_ns: u64,
    prof: SwarmProf,
    fold_ns: u64,
    nnz_edges: u64,
    graph_ns: u64,
    graph_edges: u64,
    infer_ns: u64,
    score_ns: u64,
    observe_ms: Vec<f64>,
    finalize_ns: u64,
    render_ns: u64,
    bytes: u64,
    unattributed_ns: u64,
    traced_wall_s: f64,
    untraced_wall_s: f64,
    /// Client-side round trips per request kind (serve workload only).
    pub serve: ServeTrace,
}

/// What a daemon client measured, request by request.
#[derive(Debug, Default)]
pub struct ServeTrace {
    pub submit_ms: Vec<f64>,
    pub status_ms: Vec<f64>,
    pub snapshot_ms: Vec<f64>,
    pub requests: u64,
    pub error_responses: u64,
    pub snapshots_mid_job: u64,
}

impl ServeTrace {
    pub fn merge(&mut self, other: ServeTrace) {
        self.submit_ms.extend(other.submit_ms);
        self.status_ms.extend(other.status_ms);
        self.snapshot_ms.extend(other.snapshot_ms);
        self.requests += other.requests;
        self.error_responses += other.error_responses;
        self.snapshots_mid_job += other.snapshots_mid_job;
    }
}

/// One broadcast as the traced phase 1 produced it.
struct Broadcast {
    obs: RunObservation,
    new_ns: u64,
    run_ns: u64,
}

/// The reports one traced job produced, for the caller's byte compares.
pub struct TracedJob {
    /// The decomposed batch path: phase 1, then `analyze()` step by step.
    pub batch_json: String,
    /// The `LiveSession` replay of the same observations.
    pub live_json: String,
    /// Whether every broadcast finished.
    pub all_finished: bool,
}

impl Trace {
    /// Times scenario builds and route-table builds for `spec`.
    pub fn setup(&mut self, spec: &str) {
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let scenario = ScenarioSpec::parse(spec).expect("workload specs are valid").build();
            let build = ms(ns_since(t));
            let t = Instant::now();
            let table = RouteTable::new(scenario.grid.topology.clone());
            let table_ms = ms(ns_since(t));
            self.build_self_ms.push((build - table_ms).max(0.0));
            self.table_ms.push(table_ms);
            std::hint::black_box((scenario, table));
        }
    }

    /// One untraced `TomographySession::run()` of `job`, rendered. Called
    /// before and after [`Trace::job`]; the mean of the two wall times is
    /// the base of `trace.overhead_ratio`.
    pub fn untraced(&mut self, job: &Job, scenario: &Scenario) -> String {
        let t = Instant::now();
        let report = job.session(scenario.clone()).run();
        let json = render(&report, job.pieces);
        self.untraced_wall_s += t.elapsed().as_secs_f64() / 2.0;
        json
    }

    fn add_broadcast(&mut self, b: &Broadcast) {
        self.new_ns += b.new_ns;
        self.run_ms.push(ms(b.run_ns));
        let (p, q) = (&mut self.prof, &b.obs.outcome.prof);
        p.engine.merge(&q.engine);
        p.rechoke_passes += q.rechoke_passes;
        p.service_calls += q.service_calls;
        p.piece_picks += q.piece_picks;
        p.have_announcements += q.have_announcements;
        p.service_ns += q.service_ns;
        p.haves_ns += q.haves_ns;
        p.rechoke_ns += q.rechoke_ns;
    }

    /// Runs `job` decomposed, then replays its observations through a
    /// `LiveSession`. Only the decomposed path counts as traced wall time;
    /// the replay is timed per `observe` call.
    pub fn job(&mut self, job: &Job, scenario: &Scenario) -> TracedJob {
        let wall = Instant::now();
        let mut covered = 0u64; // span time on this thread inside `wall`
        let mut metric = MetricAccumulator::new(scenario.hosts.len());
        let mut observations: Vec<RunObservation> = Vec::with_capacity(job.iterations as usize);
        let outside_emit = self.phase1(job, scenario, &mut |trace, b| {
            trace.add_broadcast(&b);
            let t = Instant::now();
            metric.push_run_partial(&b.obs.outcome.fragments, &b.obs.outcome.participated());
            let d = ns_since(t);
            trace.fold_ns += d;
            covered += d;
            observations.push(b.obs);
        });
        covered += outside_emit;
        let runs: Vec<_> = observations.iter().map(|o| o.outcome.clone()).collect();
        let all_finished = runs.iter().all(|r| r.finished);
        let (report, spans) = self.phase2(job, scenario, Campaign { runs, metric });
        covered += spans;
        let t = Instant::now();
        let batch_json = render(&report, job.pieces);
        let d = ns_since(t);
        self.render_ns += d;
        self.bytes += batch_json.len() as u64;
        covered += d;
        let wall_ns = ns_since(wall);
        self.traced_wall_s += wall_ns as f64 / 1e9;
        self.unattributed_ns += wall_ns.saturating_sub(covered);

        let mut live = job.session(scenario.clone()).live();
        for obs in observations {
            let t = Instant::now();
            live.observe(obs).expect("observations replay in iteration order");
            self.observe_ms.push(ms(ns_since(t)));
        }
        let t = Instant::now();
        let live_report = live.finalize().expect("at least one observation");
        self.finalize_ns += ns_since(t);
        let live_json = render(&live_report, job.pieces);
        TracedJob { batch_json, live_json, all_finished }
    }

    /// Phase 1: every broadcast as `Swarm::new` + `Swarm::run`, on the same
    /// ordered worker pool shape as the campaign layer (serial at one
    /// thread), handing broadcasts to `emit` in iteration order. Returns
    /// the time this thread spent outside `emit`: running broadcasts when
    /// serial, blocked waiting for the next one otherwise.
    fn phase1(
        &mut self,
        job: &Job,
        scenario: &Scenario,
        emit: &mut dyn FnMut(&mut Trace, Broadcast),
    ) -> u64 {
        let cfg = job.swarm_config();
        let reliability = scenario.reliability;
        let horizon = if reliability.is_off() {
            0.0
        } else {
            horizon_estimate(scenario.routes.topology(), &scenario.hosts, cfg.file_bytes())
        };
        let run_one = |k: u32| {
            let seed = seed_for_iteration(job.seed, k as u64);
            let root = RootPolicy::Fixed(0).root_for(k, scenario.hosts.len(), job.seed);
            let t = Instant::now();
            let mut swarm =
                Swarm::new(scenario.routes.clone(), &scenario.hosts, root, cfg.clone(), seed);
            if !reliability.is_off() {
                let topo = scenario.routes.topology();
                let schedule =
                    generate_schedule(topo, &scenario.hosts, root, &reliability, horizon, seed);
                swarm = swarm.with_perturbations(schedule);
            }
            let new_ns = ns_since(t);
            let t = Instant::now();
            let outcome = swarm.run();
            let run_ns = ns_since(t);
            Broadcast { obs: RunObservation { iteration: k, root, seed, outcome }, new_ns, run_ns }
        };
        let (end, workers) = (job.iterations, job.threads);
        if workers <= 1 || end <= 1 {
            let mut busy = 0;
            for k in 0..end {
                let b = run_one(k);
                busy += b.new_ns + b.run_ns;
                emit(self, b);
            }
            return busy;
        }
        // Workers claim iterations from a shared cursor and park results in
        // a reorder buffer bounded at 2 × workers; this thread drains it in
        // order. Blocked time is split by whether a later broadcast was
        // already parked (head-of-line wait, `broadcast.emit_wait_ms`).
        let bound = 2 * workers;
        let cursor = AtomicU32::new(0);
        let shared = Mutex::new((0u32, BTreeMap::<u32, Broadcast>::new()));
        let ready = Condvar::new();
        let mut waited = 0u64;
        std::thread::scope(|scope| {
            for _ in 0..workers.min(end as usize) {
                scope.spawn(|| loop {
                    let k = cursor.fetch_add(1, Ordering::SeqCst);
                    if k >= end {
                        break;
                    }
                    let b = run_one(k);
                    let mut state = shared.lock().expect("trace pool poisoned");
                    while state.1.len() >= bound && k != state.0 {
                        state = ready.wait(state).expect("trace pool poisoned");
                    }
                    state.1.insert(k, b);
                    drop(state);
                    ready.notify_all();
                });
            }
            let mut state = shared.lock().expect("trace pool poisoned");
            while state.0 < end {
                let k = state.0;
                if let Some(b) = state.1.remove(&k) {
                    state.0 = k + 1;
                    drop(state);
                    ready.notify_all();
                    emit(self, b);
                    state = shared.lock().expect("trace pool poisoned");
                } else {
                    let head_of_line = !state.1.is_empty();
                    let t = Instant::now();
                    state = ready.wait(state).expect("trace pool poisoned");
                    let d = ns_since(t);
                    waited += d;
                    if head_of_line {
                        self.emit_wait_ns += d;
                    }
                }
            }
        });
        waited
    }

    /// Phase 2 as `analyze()` performs it, one call at a time and serially:
    /// the convergence series (fold, graph, infer, score per prefix), then
    /// the final partition, reliability block and diagnosis. Returns the
    /// report and the span time taken.
    fn phase2(
        &mut self,
        job: &Job,
        scenario: &Scenario,
        campaign: Campaign,
    ) -> (TomographyReport, u64) {
        let backend = Backend::default();
        let truth = &scenario.ground_truth;
        let (mut fold, mut graph, mut infer, mut score) = (0u64, 0u64, 0u64, 0u64);
        let mut acc = MetricAccumulator::new(scenario.hosts.len());
        let mut convergence = Vec::with_capacity(campaign.runs.len());
        for (i, run) in campaign.runs.iter().enumerate() {
            let k = i as u64 + 1;
            let t = Instant::now();
            acc.push_run_partial(&run.fragments, &run.participated());
            fold += ns_since(t);
            let t = Instant::now();
            let g = auto_metric_graph(&acc);
            graph += ns_since(t);
            let t = Instant::now();
            let p = backend.infer(&g, splitmix64(job.seed ^ k));
            infer += ns_since(t);
            let t = Instant::now();
            convergence.push(ConvergencePoint {
                iterations: k as u32,
                onmi: onmi_partitions(&p, truth),
                nmi: nmi(&p, truth),
                clusters: p.num_clusters(),
                modularity: modularity(&g, &p),
            });
            score += ns_since(t);
        }
        let t = Instant::now();
        let g = auto_metric_graph(&campaign.metric);
        graph += ns_since(t);
        let t = Instant::now();
        let final_partition = backend.infer(&g, splitmix64(job.seed ^ 0xFFFF_FFFF));
        infer += ns_since(t);
        let t = Instant::now();
        let reliability = ReliabilityReport::from_campaign(&campaign, &final_partition, truth);
        let degenerate = degenerate_partition(&final_partition);
        let diagnosis = inference_diagnosis(&g, truth, &scenario.routes, &scenario.hosts);
        score += ns_since(t);
        self.nnz_edges += campaign.metric.num_nonzero_edges() as u64;
        self.graph_edges += g.num_edges() as u64;
        self.fold_ns += fold;
        self.graph_ns += graph;
        self.infer_ns += infer;
        self.score_ns += score;
        let report = TomographyReport {
            scenario_id: scenario.id.clone(),
            backend,
            seed: job.seed,
            campaign,
            convergence,
            final_partition,
            ground_truth: truth.clone(),
            degenerate_partition: degenerate,
            reliability,
            diagnosis,
        };
        (report, fold + graph + infer + score)
    }

    /// Every per-layer metric, in the order `BENCHMARK.json` lists them.
    pub fn emit(&self, m: &mut Metrics) {
        let p = &self.prof;
        let e = &p.engine;
        let s = &e.solver;
        let phases_ns = e.advance_ns + p.service_ns + p.haves_ns + p.rechoke_ns;
        let run_total_ms: f64 = self.run_ms.iter().sum();
        m.put("scenarios.build_ms", median(&self.build_self_ms), "ms");
        m.put("routing.table_ms", median(&self.table_ms), "ms");
        m.put("broadcast.new_ms", ms(self.new_ns), "ms");
        m.put("broadcast.run_ms_p50", median(&self.run_ms), "ms");
        m.put("broadcast.emit_wait_ms", ms(self.emit_wait_ns), "ms");
        m.put("engine.advance_ms", ms(e.advance_ns.saturating_sub(e.solver_ns)), "ms");
        m.put("engine.events_popped", e.events_popped as f64, "count");
        m.put("engine.stale_events", e.stale_events as f64, "count");
        let stale =
            if e.events_popped == 0 { 0.0 } else { e.stale_events as f64 / e.events_popped as f64 };
        m.put("engine.stale_ratio", stale, "ratio");
        m.put("fairness.solver_ms", ms(e.solver_ns), "ms");
        m.put("fairness.resolves", s.resolves as f64, "count");
        m.put("fairness.components", s.components as f64, "count");
        m.put("fairness.waterfill_rounds", s.waterfill_rounds as f64, "count");
        m.put("fairness.parallel_resolves", s.parallel_resolves as f64, "count");
        m.put("swarm.service_ms", ms(p.service_ns), "ms");
        m.put("swarm.haves_ms", ms(p.haves_ns), "ms");
        m.put("swarm.rechoke_ms", ms(p.rechoke_ns), "ms");
        m.put("swarm.piece_picks", p.piece_picks as f64, "count");
        m.put("swarm.have_announcements", p.have_announcements as f64, "count");
        m.put("swarm.unattributed_ms", (run_total_ms - ms(phases_ns)).max(0.0), "ms");
        m.put("metrics.fold_ms", ms(self.fold_ns), "ms");
        m.put("metrics.nnz_edges", self.nnz_edges as f64, "count");
        m.put("pipeline.graph_ms", ms(self.graph_ns), "ms");
        m.put("pipeline.graph_edges", self.graph_edges as f64, "count");
        let keep =
            if self.nnz_edges == 0 { 0.0 } else { self.graph_edges as f64 / self.nnz_edges as f64 };
        m.put("pipeline.prune_keep_ratio", keep, "ratio");
        m.put("pipeline.infer_ms", ms(self.infer_ns), "ms");
        m.put("pipeline.score_ms", ms(self.score_ns), "ms");
        m.put("session.observe_ms_p50", median(&self.observe_ms), "ms");
        m.put("session.observe_ms_total", self.observe_ms.iter().sum(), "ms");
        m.put("session.finalize_ms", ms(self.finalize_ns), "ms");
        m.put("serialize.render_ms", ms(self.render_ns), "ms");
        m.put("serialize.bytes", self.bytes as f64, "bytes");
        let v = &self.serve;
        m.put("serve.submit_ms_p50", median(&v.submit_ms), "ms");
        m.put("serve.status_ms_p50", median(&v.status_ms), "ms");
        m.put("serve.snapshot_ms_p50", median(&v.snapshot_ms), "ms");
        m.put("serve.snapshot_ms_p99", percentile(&v.snapshot_ms, 99.0), "ms");
        m.put("serve.requests", v.requests as f64, "count");
        m.put("serve.error_responses", v.error_responses as f64, "count");
        m.put("serve.snapshots_mid_job", v.snapshots_mid_job as f64, "count");
        m.put("trace.unattributed_ms", ms(self.unattributed_ns), "ms");
        let overhead = if self.untraced_wall_s > 0.0 {
            self.traced_wall_s / self.untraced_wall_s
        } else {
            0.0
        };
        m.put("trace.overhead_ratio", overhead, "ratio");
    }
}
