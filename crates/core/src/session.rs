//! High-level entry point: a configured tomography session.
//!
//! Wires the two phases together with a builder API:
//!
//! ```
//! use btt_core::prelude::*;
//!
//! let report = TomographySession::new(Dataset::Small2x2)
//!     .iterations(4)
//!     .pieces(96)          // small file for a fast doc test
//!     .seed(7)
//!     .run();
//! assert_eq!(report.convergence.len(), 4);
//! assert!((0.0..=1.0).contains(&report.last().onmi));
//! ```
//!
//! # Streaming sessions
//!
//! Beyond the one-shot [`TomographySession::run`], a session can be driven
//! *incrementally*: [`TomographySession::live`] produces a [`LiveSession`]
//! state machine that consumes per-broadcast [`RunObservation`] events as
//! measurements complete, folds each one into the streaming metric
//! accumulator, re-clusters on a configurable cadence (reusing one
//! [`LouvainScratch`] across snapshots), and serves its
//! [`LiveSession::current_best`] partition — with the reliability
//! confidence fields — at any point mid-campaign. [`LiveSession::finalize`]
//! then yields a [`TomographyReport`] byte-identical to what the batch
//! path produces from the same seed. Live re-clusters are scored by the
//! pipeline's prefix scorer, and finalize back-fills the prefixes the
//! cadence skipped through the batch pipeline's own prefix-parallel fill
//! and report assembly (see [`crate::pipeline`]), so inverting the control
//! flow changes *when* inference happens, never *what* it computes.

use crate::backend::Backend;
use crate::dataset::{Dataset, Scenario};
use crate::pipeline::{
    analyze, assemble_report, auto_metric_graph, degenerate_partition, score_prefix,
    ClusteringAlgorithm, ConvergencePoint, PipelineError, ReliabilityReport, TomographyReport,
};
use btt_cluster::louvain::LouvainScratch;
use btt_cluster::partition::Partition;
use btt_netsim::util::splitmix64;
use btt_swarm::broadcast::{
    run_campaign_with_reliability, stream_campaign_with_reliability, BroadcastResult, Campaign,
    RootPolicy, RunObservation,
};
use btt_swarm::config::SwarmConfig;
use btt_swarm::metrics::MetricAccumulator;

/// A configured end-to-end tomography run over one scenario.
#[derive(Debug, Clone)]
pub struct TomographySession {
    scenario: Scenario,
    cfg: SwarmConfig,
    iterations: u32,
    root_policy: RootPolicy,
    backend: Backend,
    seed: u64,
    recluster_every: u32,
    threads: usize,
}

impl TomographySession {
    /// A session on a paper dataset, with the paper's iteration count, the
    /// paper's 239 MB file, Louvain clustering, and a fixed root.
    pub fn new(dataset: Dataset) -> Self {
        Self::over(dataset.build())
    }

    /// A session over a custom scenario.
    pub fn over(scenario: Scenario) -> Self {
        let iterations = scenario.default_iterations;
        TomographySession {
            scenario,
            cfg: SwarmConfig::paper(),
            iterations,
            root_policy: RootPolicy::Fixed(0),
            backend: Backend::Clustering(ClusteringAlgorithm::Louvain),
            seed: 0x5EED,
            recluster_every: 1,
            threads: 0,
        }
    }

    /// Sets the number of broadcast iterations (default: the paper's count).
    pub fn iterations(mut self, n: u32) -> Self {
        assert!(n >= 1);
        self.iterations = n;
        self
    }

    /// Sets the file size in 16 KiB fragments (default: the paper's 15 259).
    pub fn pieces(mut self, pieces: u32) -> Self {
        self.cfg.num_pieces = pieces;
        self
    }

    /// Replaces the whole swarm configuration.
    pub fn swarm_config(mut self, cfg: SwarmConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the root (initial seed) policy.
    pub fn root_policy(mut self, p: RootPolicy) -> Self {
        self.root_policy = p;
        self
    }

    /// Sets the phase-2 inference backend (default the paper's Louvain
    /// clustering); a bare [`ClusteringAlgorithm`] converts into its
    /// [`Backend::Clustering`] variant.
    pub fn backend(mut self, b: impl Into<Backend>) -> Self {
        self.backend = b.into();
        self
    }

    /// Sets the master seed. Everything — tracker graphs, choking
    /// tie-breaks, piece selection, clustering visit order — derives from
    /// it.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Sets the streaming re-clustering cadence: a [`LiveSession`] built
    /// from this session re-clusters after every `n`-th observation (and
    /// always after the last). Default 1 — a fresh snapshot per broadcast,
    /// the full Fig. 13 series computed live. Only affects *when* snapshots
    /// exist mid-stream; the finalized report is identical for every
    /// cadence.
    pub fn recluster_every(mut self, n: u32) -> Self {
        assert!(n >= 1);
        self.recluster_every = n;
        self
    }

    /// Sets the phase-1 worker-thread count: `0` (the default) uses one
    /// worker per available CPU, `1` runs broadcasts strictly serially.
    /// Purely a wall-clock knob — completed runs are folded in iteration
    /// order through a reorder buffer, so the report is byte-identical for
    /// every thread count (pinned by `tests/parallel_equivalence.rs`).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The underlying scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Runs both phases and produces the report.
    pub fn run(&self) -> TomographyReport {
        self.analyze_with(self.measure(), self.backend)
    }

    /// Runs phase 1 only: the broadcast measurement campaign (under the
    /// scenario's reliability perturbations, if any). The campaign depends
    /// on everything in the session *except* the clustering algorithm, so
    /// sweeps over several algorithms can measure once and
    /// [`TomographySession::analyze_with`] each.
    pub fn measure(&self) -> btt_swarm::broadcast::Campaign {
        run_campaign_with_reliability(
            &self.scenario.routes,
            &self.scenario.hosts,
            &self.cfg,
            self.iterations,
            self.root_policy,
            self.seed,
            &self.scenario.reliability,
            self.threads,
        )
    }

    /// Runs phase 2 on a previously-measured campaign with the given
    /// backend. `run()` is exactly `analyze_with(measure(), backend)`.
    ///
    /// # Panics
    ///
    /// If `campaign` holds zero iterations. Campaigns produced by
    /// [`TomographySession::measure`] always hold at least one (the
    /// builder rejects `iterations(0)`); analyzing an arbitrary
    /// hand-built campaign fallibly is what
    /// [`crate::pipeline::analyze`] is for.
    pub fn analyze_with(
        &self,
        campaign: btt_swarm::broadcast::Campaign,
        backend: impl Into<Backend>,
    ) -> TomographyReport {
        analyze(&self.scenario, campaign, backend, self.seed)
            .expect("session campaigns hold at least one iteration")
    }

    /// Starts a streaming instance of this session: an empty [`LiveSession`]
    /// ready to consume [`RunObservation`]s (e.g. from
    /// [`TomographySession::stream_into`], or replayed from a stored
    /// campaign).
    pub fn live(&self) -> LiveSession {
        let n = self.scenario.hosts.len();
        LiveSession {
            session: self.clone(),
            runs: Vec::with_capacity(self.iterations as usize),
            acc: MetricAccumulator::new(n),
            points: vec![None; self.iterations as usize],
            scratch: LouvainScratch::default(),
            observed: vec![false; n],
            hosts_lost: 0,
            runs_disrupted: 0,
            best: None,
        }
    }

    /// Runs phase 1 as a completion-driven stream: broadcasts execute on the
    /// session's `threads` measurement pool and each finished run is handed
    /// to `sink` in iteration order. This is the measurement side of the
    /// inverted control flow; feed the observations to
    /// [`LiveSession::observe`] to infer while measuring.
    pub fn stream_into(&self, sink: &mut dyn FnMut(RunObservation)) {
        stream_campaign_with_reliability(
            &self.scenario.routes,
            &self.scenario.hosts,
            &self.cfg,
            self.iterations,
            self.root_policy,
            self.seed,
            &self.scenario.reliability,
            self.threads,
            sink,
        );
    }

    /// Runs the whole session through the streaming layer: measurement
    /// events feed a [`LiveSession`] one at a time, in iteration order, and
    /// the result is finalized into a report. Byte-identical to [`TomographySession::run`] for every seed
    /// and cadence — the equivalence the streaming refactor is pinned by.
    pub fn run_streamed(&self) -> TomographyReport {
        let mut live = self.live();
        self.stream_into(&mut |obs| {
            live.observe(obs).expect("in-order stream observations always apply");
        });
        live.finalize().expect("session campaigns hold at least one iteration")
    }
}

/// Where a [`LiveSession`] stands in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// Still consuming observations: `received` of `expected` broadcasts
    /// have been folded in.
    Measuring {
        /// Observations folded so far.
        received: u32,
        /// Total broadcasts the session was configured for.
        expected: u32,
    },
    /// Every expected observation has arrived; the session only serves
    /// snapshots and [`LiveSession::finalize`] from here.
    Complete {
        /// Total observations folded.
        iterations: u32,
    },
}

/// The best partition a [`LiveSession`] can currently serve: the latest
/// cadence re-clustering, scored against ground truth and carrying the
/// reliability confidence fields so a consumer can judge how much of the
/// measurement graph the snapshot actually rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSnapshot {
    /// Quality of the snapshot (iteration count, oNMI, NMI, cluster count,
    /// modularity) — one point of the Fig. 13 series, computed live.
    pub point: ConvergencePoint,
    /// The clustering itself.
    pub partition: Partition,
    /// True when the snapshot partition is structurally degenerate
    /// (all-one-cluster / all-singletons) — see
    /// [`crate::pipeline::degenerate_partition`].
    pub degenerate: bool,
    /// Confidence fields over the observations folded so far: coverage,
    /// blind spots, loss counters, observed-host oNMI and its
    /// coverage-discounted variant.
    pub reliability: ReliabilityReport,
}

/// A malformed observation, rejected at the session boundary.
///
/// The streaming contract is strict: observations arrive exactly once, in
/// iteration order, sized to the session's host set, and never after the
/// campaign completed. Violations are typed errors naming what was
/// expected — not panics — because the daemon feeds sessions from
/// long-lived queues where a stale or duplicated event must not take the
/// process down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The observation's iteration index is not the next expected one.
    OutOfOrder {
        /// Iteration index the observation carried.
        got: u32,
        /// Iteration index the session expected next.
        expected: u32,
    },
    /// An observation arrived after the session had already received every
    /// configured iteration.
    AfterComplete {
        /// Iteration index of the rejected observation.
        iteration: u32,
    },
    /// The observation's fragment matrix is sized for a different host set.
    WrongHostCount {
        /// Host count the observation carried.
        got: usize,
        /// Host count of the session's scenario.
        expected: usize,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::OutOfOrder { got, expected } => {
                write!(f, "observation out of order: got iteration {got}, expected {expected}")
            }
            SessionError::AfterComplete { iteration } => {
                write!(f, "observation {iteration} arrived after the session completed")
            }
            SessionError::WrongHostCount { got, expected } => {
                write!(f, "observation sized for {got} hosts, session has {expected}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// A running tomography session: the streaming state machine behind
/// tomography-as-a-service.
///
/// Feed it [`RunObservation`]s as broadcasts complete ([`LiveSession::observe`]);
/// it folds each into the campaign-wide [`MetricAccumulator`], re-clusters
/// the live measurement graph every `recluster_every`-th observation
/// (reusing one [`LouvainScratch`] across snapshots so the hot loop stays
/// allocation-free), and keeps [`LiveSession::current_best`] pointed at the
/// freshest scored partition. [`LiveSession::finalize`] back-fills the
/// convergence prefixes the cadence skipped through the batch pipeline's
/// prefix-parallel fill and emits the standard [`TomographyReport`] —
/// byte-identical to the batch pipeline's, because every input to every
/// computation (fold order, accumulator state, per-prefix seeds, graph
/// policy) is the same.
#[derive(Debug)]
pub struct LiveSession {
    session: TomographySession,
    runs: Vec<BroadcastResult>,
    acc: MetricAccumulator,
    points: Vec<Option<ConvergencePoint>>,
    scratch: LouvainScratch,
    observed: Vec<bool>,
    hosts_lost: u64,
    runs_disrupted: u32,
    best: Option<PartitionSnapshot>,
}

impl LiveSession {
    /// The session configuration this instance is running.
    pub fn config(&self) -> &TomographySession {
        &self.session
    }

    /// Lifecycle position: how many observations have arrived, out of how
    /// many are expected.
    pub fn phase(&self) -> SessionPhase {
        let received = self.runs.len() as u32;
        if received >= self.session.iterations {
            SessionPhase::Complete { iterations: received }
        } else {
            SessionPhase::Measuring { received, expected: self.session.iterations }
        }
    }

    /// Folds one completed broadcast into the session. Observations must
    /// arrive in iteration order (the stream guarantees it); re-clusters
    /// and refreshes [`LiveSession::current_best`] on cadence boundaries
    /// and on the final observation.
    pub fn observe(&mut self, obs: RunObservation) -> Result<(), SessionError> {
        let expected = self.runs.len() as u32;
        if expected >= self.session.iterations {
            return Err(SessionError::AfterComplete { iteration: obs.iteration });
        }
        if obs.iteration != expected {
            return Err(SessionError::OutOfOrder { got: obs.iteration, expected });
        }
        if obs.outcome.fragments.len() != self.acc.len() {
            return Err(SessionError::WrongHostCount {
                got: obs.outcome.fragments.len(),
                expected: self.acc.len(),
            });
        }
        self.acc.push_run_partial(&obs.outcome.fragments, &obs.outcome.participated());
        self.hosts_lost += obs.outcome.hosts_lost() as u64;
        if obs.outcome.disrupted.iter().any(|&d| d) {
            self.runs_disrupted += 1;
        }
        for (seen, &d) in self.observed.iter_mut().zip(&obs.outcome.disrupted) {
            if !d {
                *seen = true;
            }
        }
        self.runs.push(obs.outcome);
        let k = expected + 1;
        if k.is_multiple_of(self.session.recluster_every) || k == self.session.iterations {
            self.recluster(k);
        }
        Ok(())
    }

    /// The freshest scored partition, or `None` before the first cadence
    /// boundary. Available mid-campaign — this is what a daemon serves to
    /// snapshot requests while measurement is still running.
    pub fn current_best(&self) -> Option<&PartitionSnapshot> {
        self.best.as_ref()
    }

    /// Re-clusters the live graph after `k` observations, exactly as the
    /// batch convergence series clusters prefix `k`: same graph policy,
    /// same per-prefix seed, the same prefix scorer, and `infer_into`
    /// output is identical to `infer` for any scratch state.
    fn recluster(&mut self, k: u32) {
        let truth = &self.session.scenario.ground_truth;
        let g = auto_metric_graph(&self.acc);
        let seed = splitmix64(self.session.seed ^ k as u64);
        let p = self.session.backend.infer_into(&g, seed, &mut self.scratch);
        let point = score_prefix(k as usize, &g, &p, truth);
        self.points[k as usize - 1] = Some(point.clone());
        let reliability = ReliabilityReport::compute(
            &p,
            truth,
            &self.observed,
            &self.acc,
            self.hosts_lost,
            self.runs_disrupted,
        );
        self.best = Some(PartitionSnapshot {
            point,
            degenerate: degenerate_partition(&p),
            partition: p,
            reliability,
        });
    }

    /// Closes the session and produces the standard report over everything
    /// observed so far (a session may finalize early with fewer runs than
    /// configured — e.g. an aborted daemon job — as long as at least one
    /// observation arrived).
    ///
    /// Convergence prefixes the cadence skipped are back-filled here by the
    /// batch pipeline's own prefix-parallel fill, and the report is built
    /// by its report assembly, so the finalized report is byte-identical to
    /// `analyze()` on the equivalent campaign.
    pub fn finalize(self) -> Result<TomographyReport, PipelineError> {
        let LiveSession { session, runs, acc, mut points, .. } = self;
        points.truncate(runs.len());
        let campaign = Campaign { runs, metric: acc };
        assemble_report(&session.scenario, campaign, points, session.backend, session.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_session_runs_end_to_end() {
        let report =
            TomographySession::new(Dataset::Small2x2).iterations(3).pieces(64).seed(42).run();
        assert_eq!(report.scenario_id, "2x2");
        assert_eq!(report.convergence.len(), 3);
        assert_eq!(report.campaign.runs.len(), 3);
        for run in &report.campaign.runs {
            assert!(run.finished);
        }
        assert!(report.measurement_time() > 0.0);
    }

    #[test]
    fn sessions_are_reproducible() {
        let mk =
            || TomographySession::new(Dataset::Small2x2).iterations(2).pieces(48).seed(9).run();
        let a = mk();
        let b = mk();
        assert_eq!(a.convergence, b.convergence);
        assert_eq!(a.final_partition, b.final_partition);
    }

    #[test]
    fn live_session_streams_to_the_same_report_as_batch() {
        // The pinned equivalence in miniature: run() and run_streamed()
        // must agree field-for-field, for cadences that hit every prefix
        // and cadences that skip most of them.
        for cadence in [1u32, 3] {
            let session = TomographySession::new(Dataset::Small2x2)
                .iterations(4)
                .pieces(48)
                .seed(11)
                .recluster_every(cadence);
            let batch = session.run();
            let streamed = session.run_streamed();
            assert_eq!(batch.convergence, streamed.convergence, "cadence {cadence}");
            assert_eq!(batch.final_partition, streamed.final_partition);
            assert_eq!(batch.degenerate_partition, streamed.degenerate_partition);
            assert_eq!(batch.reliability, streamed.reliability);
            assert_eq!(batch.campaign.metric, streamed.campaign.metric);
        }
    }

    #[test]
    fn live_session_phases_and_snapshots() {
        let session = TomographySession::new(Dataset::Small2x2)
            .iterations(3)
            .pieces(48)
            .seed(5)
            .recluster_every(2);
        let mut live = session.live();
        assert_eq!(live.phase(), SessionPhase::Measuring { received: 0, expected: 3 });
        assert!(live.current_best().is_none(), "no snapshot before the first cadence boundary");

        let mut observations = Vec::new();
        session.stream_into(&mut |obs| observations.push(obs));
        assert_eq!(observations.len(), 3);

        live.observe(observations[0].clone()).unwrap();
        assert_eq!(live.phase(), SessionPhase::Measuring { received: 1, expected: 3 });
        assert!(live.current_best().is_none(), "cadence 2: iteration 1 is not a boundary");

        live.observe(observations[1].clone()).unwrap();
        let snap = live.current_best().expect("boundary at iteration 2").clone();
        assert_eq!(snap.point.iterations, 2);
        assert_eq!(snap.partition.len(), 4);
        assert!((0.0..=1.0).contains(&snap.point.onmi));
        assert_eq!(snap.reliability.pair_coverage, 1.0, "static scenario: full coverage");

        // Mid-stream snapshots match the batch convergence series point
        // for the same prefix exactly.
        let batch = session.run();
        assert_eq!(snap.point, batch.convergence[1]);

        live.observe(observations[2].clone()).unwrap();
        assert_eq!(live.phase(), SessionPhase::Complete { iterations: 3 });
        let last = live.current_best().unwrap();
        assert_eq!(last.point.iterations, 3, "final observation always re-clusters");

        // The stream is exhausted: replaying an observation is a typed
        // error, not a panic.
        let err = live.observe(observations[2].clone()).unwrap_err();
        assert_eq!(err, SessionError::AfterComplete { iteration: 2 });

        let report = live.finalize().unwrap();
        assert_eq!(report.convergence, batch.convergence);
        assert_eq!(report.final_partition, batch.final_partition);
    }

    #[test]
    fn live_session_rejects_malformed_observations() {
        let session = TomographySession::new(Dataset::Small2x2).iterations(2).pieces(48).seed(8);
        let mut observations = Vec::new();
        session.stream_into(&mut |obs| observations.push(obs));

        // Out of order: iteration 1 before iteration 0.
        let mut live = session.live();
        let err = live.observe(observations[1].clone()).unwrap_err();
        assert_eq!(err, SessionError::OutOfOrder { got: 1, expected: 0 });
        assert!(err.to_string().contains("expected 0"));

        // Wrong host count: an observation from a different scenario.
        let foreign_session = TomographySession::over(
            crate::scenarios::ScenarioSpec::parse("star:2x4:0.1:4").unwrap().build(),
        )
        .iterations(1)
        .pieces(48)
        .seed(8);
        let mut foreign = Vec::new();
        foreign_session.stream_into(&mut |obs| foreign.push(obs));
        let err = live.observe(foreign[0].clone()).unwrap_err();
        let got = foreign_session.scenario().num_hosts();
        assert_eq!(err, SessionError::WrongHostCount { got, expected: 4 });

        // A valid stream still applies after rejections, and early
        // finalize (1 of 2 runs) produces a 1-point report.
        live.observe(observations[0].clone()).unwrap();
        let report = live.finalize().unwrap();
        assert_eq!(report.convergence.len(), 1);

        // Finalizing with nothing observed is the pipeline's typed error.
        let empty = session.live();
        assert_eq!(empty.finalize().unwrap_err(), PipelineError::EmptyCampaign);
    }

    #[test]
    fn builder_overrides_apply() {
        let s = TomographySession::new(Dataset::GT)
            .iterations(5)
            .pieces(128)
            .backend(ClusteringAlgorithm::Infomap)
            .root_policy(btt_swarm::broadcast::RootPolicy::RoundRobin);
        assert_eq!(s.iterations, 5);
        assert_eq!(s.cfg.num_pieces, 128);
        assert_eq!(s.backend, Backend::Clustering(ClusteringAlgorithm::Infomap));
        assert_eq!(s.scenario().num_hosts(), 64);
    }
}
