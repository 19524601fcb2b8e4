//! Criterion: the *incremental* max-min solver under the churn patterns the
//! event engine actually generates — flow add/remove bursts, single-channel
//! degradation re-rates, and dirty sets of both shapes (one giant component
//! vs many independent ones). The `fairness` bench times the from-scratch
//! reference solve; this one times what a broadcast pays per perturbation.

use btt_netsim::fairness::IncrementalMaxMin;
use btt_netsim::prelude::*;
use btt_netsim::routing::RouteTable;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

fn build(clusters: usize, hosts_per: usize) -> (Arc<Topology>, RouteTable) {
    let mut b = TopologyBuilder::new();
    let backbone = b.add_switch("bb", "s");
    for c in 0..clusters {
        let sw = b.add_switch(format!("sw{c}"), "s");
        b.link(sw, backbone, LinkSpec::lan(Bandwidth::from_mbps(890.0)));
        for h in 0..hosts_per {
            let host = b.add_host(format!("h{c}-{h}"), "s", format!("c{c}"));
            b.link(host, sw, LinkSpec::lan(Bandwidth::from_mbps(890.0)));
        }
    }
    let t = Arc::new(b.build().unwrap());
    let rt = RouteTable::new(t.clone());
    (t, rt)
}

/// A solver pre-loaded with `nflows` resolved cross-cluster flows, plus the
/// route pool they were drawn from.
fn loaded_solver(
    topo: &Arc<Topology>,
    rt: &RouteTable,
    nflows: usize,
) -> (IncrementalMaxMin, Vec<Vec<ChannelId>>) {
    let hosts = topo.hosts().to_vec();
    let routes: Vec<Vec<ChannelId>> = (0..nflows)
        .map(|i| {
            let a = hosts[i % hosts.len()];
            let b = hosts[(i * 7 + 13) % hosts.len()];
            if a == b {
                rt.route(a, hosts[(i * 7 + 14) % hosts.len()])
            } else {
                rt.route(a, b)
            }
        })
        .collect();
    let mut solver = IncrementalMaxMin::new(topo.channel_capacities());
    for (i, r) in routes.iter().enumerate() {
        solver.insert(i as u64, r, None);
    }
    solver.resolve();
    (solver, routes)
}

/// Add/remove churn: the steady-state of a broadcast — transfers finish and
/// restart continuously, each flip dirtying the touched channels. One
/// iteration replaces 8 flows (remove + insert) and resolves once, the
/// batched pattern the engine's rate-refresh quantum produces.
fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/churn");
    for nflows in [256usize, 1024] {
        let (topo, rt) = build(8, 16);
        group.bench_with_input(BenchmarkId::from_parameter(nflows), &nflows, |bch, &n| {
            let (mut solver, routes) = loaded_solver(&topo, &rt, n);
            let mut next_id = n as u64;
            let mut victim = 0u64;
            bch.iter(|| {
                for k in 0..8 {
                    solver.remove(victim);
                    victim += 1;
                    solver.insert(next_id, &routes[(next_id as usize + k) % routes.len()], None);
                    next_id += 1;
                }
                solver.resolve().0.len()
            });
        });
    }
    group.finish();
}

/// Degraded-link re-rate: a reliability perturbation halves one trunk's
/// capacity and the solver re-rates everything crossing it. One iteration
/// degrades, resolves, restores, resolves — the round-trip a transient
/// fault costs.
fn bench_degrade(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/degraded-link");
    for nflows in [256usize, 1024] {
        let (topo, rt) = build(8, 16);
        group.bench_with_input(BenchmarkId::from_parameter(nflows), &nflows, |bch, &n| {
            let (mut solver, routes) = loaded_solver(&topo, &rt, n);
            // A backbone channel (middle hop of a cross-cluster route):
            // every flow crossing it re-rates.
            let cross = routes.iter().find(|r| r.len() >= 4).expect("cross-cluster route");
            let trunk = cross[cross.len() / 2].0 as usize;
            let full = solver.capacity(trunk);
            bch.iter(|| {
                solver.set_capacity(trunk, full * 0.5);
                solver.resolve();
                solver.set_capacity(trunk, full);
                solver.resolve().0.len()
            });
        });
    }
    group.finish();
}

/// Dirty-set shape: the same number of dirtied flows packed into one
/// connected component (dense — every flow shares the backbone) vs spread
/// over independent intra-cluster components (sparse — eight components
/// water-filled one after another).
fn bench_dirty_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/dirty-set");
    let (topo, rt) = build(8, 16);
    let hosts = topo.hosts().to_vec();

    // Dense: cross-cluster flows, all sharing backbone channels.
    group.bench_function("dense-one-component", |bch| {
        let (mut solver, routes) = loaded_solver(&topo, &rt, 512);
        let mut next_id = 512u64;
        let mut victim = 0u64;
        bch.iter(|| {
            for k in 0..16 {
                solver.remove(victim);
                victim += 1;
                solver.insert(next_id, &routes[(next_id as usize + k) % routes.len()], None);
                next_id += 1;
            }
            solver.resolve().0.len()
        });
    });

    // Sparse: intra-cluster flows only — 8 independent components.
    let intra: Vec<Vec<ChannelId>> = (0..512)
        .map(|i| {
            let cluster = i % 8;
            let base = cluster * 16;
            let a = hosts[base + i / 8 % 16];
            let b = hosts[base + (i / 8 + 1 + i % 15) % 16];
            rt.route(a, b)
        })
        .filter(|r| !r.is_empty())
        .collect();
    group.bench_function("sparse-serial", |bch| {
        let mut solver = IncrementalMaxMin::new(topo.channel_capacities());
        for (i, r) in intra.iter().enumerate() {
            solver.insert(i as u64, r, None);
        }
        solver.resolve();
        let mut next_id = intra.len() as u64;
        let mut victim = 0u64;
        bch.iter(|| {
            for k in 0..16 {
                solver.remove(victim);
                victim += 1;
                solver.insert(next_id, &intra[(next_id as usize + k) % intra.len()], None);
                next_id += 1;
            }
            solver.resolve().0.len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_churn, bench_degrade, bench_dirty_shape);
criterion_main!(benches);
