//! Phase-2-at-scale invariants: the incremental parallel convergence series
//! must reproduce the historical serial path bit-for-bit on the paper's
//! Grid'5000 scenarios, and pruned-graph clustering must agree with dense
//! clustering on those same scenarios.
//!
//! The serial path lives here, as a test oracle: [`convergence_series_serial`]
//! re-aggregates every prefix from scratch and scores it with its own code,
//! so it shares nothing with the pipeline's fill or scorer but the
//! clustering algorithms themselves.

use btt_core::pipeline::{
    analyze, convergence_series, metric_graph, sparse_metric_graph, ClusteringAlgorithm,
    PipelineError, DEFAULT_PRUNE, SPARSE_NODE_THRESHOLD,
};
use btt_core::prelude::*;
use proptest::prelude::*;

/// The pre-streaming reference implementation: re-aggregates the metric
/// from scratch via [`Campaign::metric_after`] and clusters a dense graph
/// for every prefix, serially — O(n²) aggregation work per series. The
/// incremental parallel path must reproduce it bit-for-bit below
/// [`SPARSE_NODE_THRESHOLD`] hosts.
fn convergence_series_serial(
    campaign: &Campaign,
    ground_truth: &Partition,
    backend: impl Into<Backend>,
    seed: u64,
) -> Vec<ConvergencePoint> {
    let backend = backend.into();
    (1..=campaign.runs.len())
        .map(|k| {
            let g = metric_graph(&campaign.metric_after(k));
            let p = backend.infer(&g, btt_netsim::util::splitmix64(seed ^ k as u64));
            ConvergencePoint {
                iterations: k as u32,
                onmi: onmi_partitions(&p, ground_truth),
                nmi: nmi(&p, ground_truth),
                clusters: p.num_clusters(),
                modularity: modularity(&g, &p),
            }
        })
        .collect()
}

/// A hand-built campaign over `n` hosts: `runs` identical-shape broadcasts
/// in which each strong pair exchanges `10 + r` fragments in run `r`, over
/// one weak background edge.
fn fake_campaign(n: usize, runs: usize, strong_pairs: &[(usize, usize)]) -> Campaign {
    let mut all = Vec::new();
    for r in 0..runs {
        let mut m = FragmentMatrix::new(n);
        for &(a, b) in strong_pairs {
            for _ in 0..(10 + r) {
                m.record(a, b);
            }
        }
        m.record(0, n - 1);
        all.push(btt_swarm::swarm::RunOutcome {
            fragments: m,
            completion: vec![Some(0.0); n],
            makespan: 1.0,
            finished: true,
            sim_steps: 10,
            disrupted: vec![false; n],
            departed: vec![false; n],
            prof: Default::default(),
        });
    }
    let mut metric = MetricAccumulator::new(n);
    for r in &all {
        metric.push_run(&r.fragments);
    }
    Campaign { runs: all, metric }
}

fn measured(dataset: Dataset, iterations: u32, pieces: u32, seed: u64) -> TomographySession {
    TomographySession::new(dataset).iterations(iterations).pieces(pieces).seed(seed)
}

/// Golden equivalence: the streaming + parallel series equals the serial
/// from-scratch reference exactly — every float of every convergence point —
/// on Grid'5000 scenarios (which all sit below the sparsification
/// threshold, so this also pins that reports stay byte-identical per seed
/// across the refactor).
#[test]
fn streaming_series_is_bit_identical_to_serial_on_grid5000() {
    for (dataset, iterations) in [(Dataset::Small2x2, 4), (Dataset::GT, 5)] {
        let session = measured(dataset, iterations, 192, 2012);
        assert!(session.scenario().num_hosts() < SPARSE_NODE_THRESHOLD);
        let campaign = session.measure();
        let truth = &session.scenario().ground_truth;
        for algorithm in [ClusteringAlgorithm::Louvain, ClusteringAlgorithm::LabelPropagation] {
            let fast = convergence_series(&campaign, truth, algorithm, 2012);
            let slow = convergence_series_serial(&campaign, truth, algorithm, 2012);
            assert_eq!(fast, slow, "{} / {}", dataset.id(), algorithm.name());
            assert_eq!(fast.len(), iterations as usize);
        }
    }
}

#[test]
fn streaming_series_matches_serial_reference() {
    // The incremental parallel path must reproduce the from-scratch
    // serial path exactly — same floats, same partitions — for every
    // algorithm (below the sparsification threshold).
    let c = fake_campaign(8, 6, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]);
    let truth = Partition::from_assignments(&[0, 0, 0, 0, 1, 1, 1, 1]);
    for alg in ClusteringAlgorithm::ALL {
        let fast = convergence_series(&c, &truth, alg, 13);
        let slow = convergence_series_serial(&c, &truth, alg, 13);
        assert_eq!(fast, slow, "{}", alg.name());
    }
}

#[test]
fn streaming_series_matches_serial_across_chunk_boundaries() {
    // 70 prefixes span three 32-prefix chunks of the parallel fill;
    // chunked draining must not perturb a single float.
    let c = fake_campaign(6, 70, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
    let truth = Partition::from_assignments(&[0, 0, 0, 1, 1, 1]);
    let fast = convergence_series(&c, &truth, ClusteringAlgorithm::Louvain, 5);
    let slow = convergence_series_serial(&c, &truth, ClusteringAlgorithm::Louvain, 5);
    assert_eq!(fast.len(), 70);
    assert_eq!(fast, slow);
}

/// The analyze() boundary surfaces empty campaigns as a typed error, and a
/// normal session round-trips through it untouched.
#[test]
fn analyze_boundary_rejects_empty_campaigns() {
    let scenario = ScenarioSpec::parse("2x2").unwrap().build();
    let empty = Campaign { runs: Vec::new(), metric: MetricAccumulator::new(4) };
    assert_eq!(
        analyze(&scenario, empty, ClusteringAlgorithm::Louvain, 7).unwrap_err(),
        PipelineError::EmptyCampaign
    );
    let session = measured(Dataset::Small2x2, 2, 48, 7);
    let report = analyze(session.scenario(), session.measure(), ClusteringAlgorithm::Louvain, 7)
        .expect("non-empty campaign analyzes");
    assert_eq!(report.convergence.len(), 2);
    assert_eq!(report.last().iterations, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Pruned-graph clustering agrees with dense clustering on the
    /// Grid'5000 scenarios: the top-k/ε sparsification keeps the bandwidth
    /// signal Louvain needs (oNMI between the two partitions ≥ 0.99), at
    /// both the default pruning and a harsher setting.
    ///
    /// The campaign must be reasonably measured (paper-scale fragments and
    /// a few iterations): on a starved campaign *both* graphs sit in a
    /// noisy modularity landscape and the comparison measures Louvain's
    /// local-optimum jitter, not pruning fidelity.
    #[test]
    fn pruned_clustering_matches_dense_on_grid5000(seed in 0u64..1000) {
        let session = measured(Dataset::GT, 6, 512, seed);
        let campaign = session.measure();
        let dense_g = metric_graph(&campaign.metric);
        let dense_p = ClusteringAlgorithm::Louvain.cluster(&dense_g, seed);
        for prune in [
            DEFAULT_PRUNE,
            PruneConfig { top_k: 12, relative: 0.3, epsilon: 1e-3 },
        ] {
            let pruned_g = sparse_metric_graph(&campaign.metric, prune);
            prop_assert!(pruned_g.num_edges() <= dense_g.num_edges());
            let pruned_p = ClusteringAlgorithm::Louvain.cluster(&pruned_g, seed);
            let agreement = onmi_partitions(&pruned_p, &dense_p);
            prop_assert!(
                agreement >= 0.99,
                "top_k={} eps={}: oNMI {} (dense {} vs pruned {} clusters)",
                prune.top_k,
                prune.epsilon,
                agreement,
                dense_p.num_clusters(),
                pruned_p.num_clusters()
            );
        }
    }
}
