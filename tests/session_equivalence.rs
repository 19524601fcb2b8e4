//! The streaming session reproduces the batch pipeline byte for byte.
//!
//! The tomography-as-a-service refactor inverts the control flow —
//! broadcasts feed a [`LiveSession`] one observation at a time, the metric
//! accumulates incrementally, and clustering re-runs on a cadence — but
//! the final report must not move by a single byte: same per-prefix seeds,
//! same fold order, same graph policy. This suite pins that equivalence on
//! the acceptance presets (`wan-512`, `wan-512-churn`), in **both**
//! [`DriveMode`]s, across re-cluster cadences, down to the serialized
//! report text.

use bittorrent_tomography::core::backend::Backend;
use bittorrent_tomography::core::pipeline::analyze;
use bittorrent_tomography::core::scenarios::ScenarioSpec;
use bittorrent_tomography::core::serialize::ReportRecord;
use bittorrent_tomography::core::session::TomographySession;
use bittorrent_tomography::swarm::broadcast::Campaign;
use bittorrent_tomography::swarm::config::{DriveMode, SwarmConfig};
use bittorrent_tomography::swarm::metrics::MetricAccumulator;

fn session(spec: &str, pieces: u32, iterations: u32, drive: DriveMode) -> TomographySession {
    let cfg = SwarmConfig { num_pieces: pieces, drive, ..SwarmConfig::default() };
    TomographySession::over(ScenarioSpec::parse(spec).expect("spec parses").build())
        .swarm_config(cfg)
        .iterations(iterations)
        .seed(2012)
}

fn render(session: &TomographySession, streamed: bool, pieces: u32) -> String {
    let report = if streamed { session.run_streamed() } else { session.run() };
    ReportRecord::new(&report, pieces).to_json().render_pretty()
}

/// The acceptance pin: on the 512-host WAN preset, with and without churn,
/// in both drive modes, replaying the campaign through the streaming
/// session lands the exact serialized report the batch path produces.
#[test]
fn streamed_session_matches_batch_on_wan_512_presets() {
    for spec in ["wan-512", "wan-512-churn"] {
        for drive in [DriveMode::EventDriven, DriveMode::FixedStep] {
            let session = session(spec, 64, 2, drive);
            let batch = render(&session, false, 64);
            let streamed = render(&session, true, 64);
            assert_eq!(
                batch, streamed,
                "{spec} ({drive:?}): streamed report must be byte-identical to batch"
            );
        }
    }
    // The churned preset's streamed report carries the reliability evidence
    // (the stream loses the same hosts the batch loses).
    let churned = render(&session("wan-512-churn", 64, 2, DriveMode::EventDriven), true, 64);
    assert!(churned.contains("\"reliability\""));
    assert!(churned.contains("\"hosts_lost\""));
}

/// The equivalence is cadence-invariant: skipping intermediate re-clusters
/// (and back-filling them at finalize) cannot move any byte of the report.
#[test]
fn recluster_cadence_does_not_change_the_report() {
    let spec = "star:3x4:0.1:4+churn=0.2";
    let base = session(spec, 96, 4, DriveMode::EventDriven);
    let batch = render(&base, false, 96);
    for cadence in [1u32, 2, 4, 7] {
        let streamed = render(&base.clone().recluster_every(cadence), true, 96);
        assert_eq!(batch, streamed, "cadence {cadence}");
    }
    // 40 iterations: the back-filled prefixes straddle prefix 32, the
    // parallel fill's chunk size. Cadence 5 leaves 32 gaps spread over the
    // whole series; cadence 33 leaves prefixes 1..=32 and 34..=39.
    let long = session(spec, 48, 40, DriveMode::EventDriven);
    let batch = render(&long, false, 48);
    for cadence in [5u32, 33] {
        let streamed = render(&long.clone().recluster_every(cadence), true, 48);
        assert_eq!(batch, streamed, "40 iterations, cadence {cadence}");
    }
}

/// An early finalize back-fills the last observed prefix too: after 5 of 8
/// observations at cadence 3 only prefix 3 was clustered live, and the
/// report must equal `analyze()` on the 5-run campaign, byte for byte.
#[test]
fn early_finalize_matches_analyze_on_the_observed_prefix() {
    let base = session("star:3x4:0.1:4+churn=0.2", 96, 8, DriveMode::EventDriven);
    let session = base.recluster_every(3);
    let mut observations = Vec::new();
    session.stream_into(&mut |obs| observations.push(obs));
    observations.truncate(5);

    let mut live = session.live();
    let mut metric = MetricAccumulator::new(session.scenario().num_hosts());
    let mut runs = Vec::new();
    for obs in observations {
        metric.push_run_partial(&obs.outcome.fragments, &obs.outcome.participated());
        runs.push(obs.outcome.clone());
        live.observe(obs).expect("in-order observation");
    }
    let streamed = live.finalize().expect("five observations");
    let batch = analyze(session.scenario(), Campaign { runs, metric }, Backend::default(), 2012)
        .expect("five runs");
    assert_eq!(streamed.convergence.len(), 5);
    assert_eq!(
        ReportRecord::new(&batch, 96).to_json().render_pretty(),
        ReportRecord::new(&streamed, 96).to_json().render_pretty()
    );
}

/// The equivalence holds across seeds and algorithms, not just the default
/// Louvain draw — the session layer is algorithm-agnostic.
#[test]
fn streamed_session_matches_batch_across_seeds_and_algorithms() {
    use bittorrent_tomography::core::pipeline::ClusteringAlgorithm;
    for seed in [7u64, 99] {
        for algorithm in [ClusteringAlgorithm::Louvain, ClusteringAlgorithm::LabelPropagation] {
            let session =
                session("wan:2x4:0.4", 64, 3, DriveMode::FixedStep).seed(seed).backend(algorithm);
            let batch = render(&session, false, 64);
            let streamed = render(&session, true, 64);
            assert_eq!(batch, streamed, "seed {seed}, {algorithm:?}");
        }
    }
}
