//! Criterion: phase-2 inference — the streaming convergence series, and
//! dense vs pruned clustering on measurement-like graphs.

use btt_core::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};

/// One shared mid-size campaign (3 sites × 8 hosts WAN, 12 iterations):
/// big enough that per-prefix aggregation and clustering show, small
/// enough for quick bench runs.
fn campaign() -> (btt_swarm::broadcast::Campaign, Partition) {
    let scenario = ScenarioSpec::parse("wan:3x8:0.25").expect("spec parses").build();
    let truth = scenario.ground_truth.clone();
    let session = TomographySession::over(scenario).pieces(96).iterations(12).seed(2012);
    (session.measure(), truth)
}

fn bench_convergence(c: &mut Criterion) {
    let (campaign, truth) = campaign();
    let mut group = c.benchmark_group("inference/convergence-series");
    group.bench_function("streaming-parallel", |b| {
        b.iter(|| convergence_series(&campaign, &truth, ClusteringAlgorithm::Louvain, 7))
    });
    group.finish();
}

fn bench_pruned_clustering(c: &mut Criterion) {
    let (campaign, _) = campaign();
    let mut group = c.benchmark_group("inference/metric-graph");
    group.bench_function("dense", |b| {
        b.iter(|| {
            let g = metric_graph(&campaign.metric);
            louvain(&g, 3).best().num_clusters()
        })
    });
    group.bench_function("pruned-top16", |b| {
        b.iter(|| {
            let g = sparse_metric_graph(&campaign.metric, DEFAULT_PRUNE);
            louvain(&g, 3).best().num_clusters()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_convergence, bench_pruned_clustering);
criterion_main!(benches);
