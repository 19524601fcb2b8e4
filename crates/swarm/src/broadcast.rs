//! Measurement campaigns: synchronized broadcast iterations and metric
//! aggregation (phase 1 of the tomography method).
//!
//! A *campaign* runs `n` independent instrumented broadcasts over the same
//! set of hosts, each with a fresh tracker peer graph and RNG stream, and
//! aggregates the fragment counts into the Eq. (2) metric. Iterations are
//! independent, so they shard across a bounded worker pool with per-iteration
//! seeds derived via splitmix64; a reorder buffer ahead of the fold emits
//! completed runs in strict iteration order — results are identical no
//! matter the thread count.

use crate::config::SwarmConfig;
use crate::metrics::MetricAccumulator;
use crate::swarm::{RunOutcome, Swarm};
use btt_netsim::perturb::{generate_schedule, horizon_estimate, ReliabilityCfg};
use btt_netsim::routing::RouteTable;
use btt_netsim::topology::NodeId;
use btt_netsim::util::seed_for_iteration;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Result of one synchronized broadcast (paper terminology: one *iteration*
/// of the measurement procedure).
pub type BroadcastResult = RunOutcome;

/// How the broadcast root (initial seed) is chosen across iterations.
///
/// The paper uses a fixed root and notes (§II-C) that rotating roots over
/// runs is a simple fix for broadcast asymmetry; `RoundRobin`/`Random`
/// implement that fix for the `ablation-root` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootPolicy {
    /// The same host seeds every iteration.
    Fixed(usize),
    /// Iteration `k` is seeded by host `k mod n`.
    RoundRobin,
    /// Each iteration seeds from a seed-derived pseudo-random host.
    Random,
}

impl RootPolicy {
    /// The root index for iteration `k` of `n` hosts under `base_seed`.
    pub fn root_for(self, k: u32, n: usize, base_seed: u64) -> usize {
        match self {
            RootPolicy::Fixed(r) => {
                assert!(r < n, "fixed root out of range");
                r
            }
            RootPolicy::RoundRobin => k as usize % n,
            RootPolicy::Random => {
                (btt_netsim::util::splitmix64(base_seed ^ (ROOT_SALT + k as u64)) % n as u64)
                    as usize
            }
        }
    }
}

/// Salt decorrelating root choice from protocol seeds.
const ROOT_SALT: u64 = 0x0072_6f6f_7421_1111;

/// Runs one synchronized instrumented broadcast and returns its outcome.
pub fn run_broadcast(
    routes: &Arc<RouteTable>,
    hosts: &[NodeId],
    root: usize,
    cfg: &SwarmConfig,
    seed: u64,
) -> BroadcastResult {
    Swarm::new(routes.clone(), hosts, root, cfg.clone(), seed).run()
}

/// A full measurement campaign: per-iteration outcomes plus the aggregated
/// Eq. (2) metric.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Outcomes in iteration order.
    pub runs: Vec<BroadcastResult>,
    /// Aggregated metric over **all** runs.
    pub metric: MetricAccumulator,
}

impl Campaign {
    /// Re-aggregates the metric over only the first `k` iterations — used to
    /// study convergence vs iteration count (paper Fig. 13).
    ///
    /// Compatibility wrapper: each call re-streams the prefix from scratch,
    /// so scoring every prefix `1..=n` through it costs O(n²) aggregations.
    /// Convergence studies should instead keep one [`MetricAccumulator`]
    /// and [`MetricAccumulator::push_run`] each run exactly once, snapshot
    /// via [`MetricAccumulator::edges`] after every push (what
    /// `btt_core::pipeline::convergence_series` does).
    pub fn metric_after(&self, k: usize) -> MetricAccumulator {
        let n = self.runs.first().map_or(0, |r| r.fragments.len());
        let mut acc = MetricAccumulator::new(n);
        for run in self.runs.iter().take(k) {
            acc.push_run_partial(&run.fragments, &run.participated());
        }
        acc
    }

    /// Sum of makespans: the total simulated measurement time the campaign
    /// cost (what the paper compares against probing methods).
    pub fn total_measurement_time(&self) -> f64 {
        self.runs.iter().map(|r| r.makespan).sum()
    }

    /// Total host-loss events across all runs (a host lost in two runs
    /// counts twice — each run is an independent broadcast).
    pub fn hosts_lost(&self) -> u64 {
        self.runs.iter().map(|r| r.hosts_lost() as u64).sum()
    }

    /// Per-host: true when the host fully participated in at least one run
    /// (its clustering assignment rests on at least one clean measurement).
    pub fn observed_hosts(&self) -> Vec<bool> {
        let n = self.runs.first().map_or(0, |r| r.fragments.len());
        let mut seen = vec![false; n];
        for run in &self.runs {
            for (i, &d) in run.disrupted.iter().enumerate() {
                if !d {
                    seen[i] = true;
                }
            }
        }
        seen
    }
}

/// Runs `iterations` independent broadcasts (in parallel) and aggregates.
///
/// `base_seed` fully determines the campaign: iteration `k` uses
/// `seed_for_iteration(base_seed, k)` for all protocol randomness and
/// `root_policy` for its seed host.
pub fn run_campaign(
    routes: &Arc<RouteTable>,
    hosts: &[NodeId],
    cfg: &SwarmConfig,
    iterations: u32,
    root_policy: RootPolicy,
    base_seed: u64,
) -> Campaign {
    run_campaign_with_reliability(
        routes,
        hosts,
        cfg,
        iterations,
        root_policy,
        base_seed,
        &ReliabilityCfg::default(),
        0,
    )
}

/// One completed broadcast iteration, emitted by the streaming campaign
/// driver the moment the run finishes. Carries the metadata a consumer
/// needs to fold the run incrementally (iteration index, chosen root,
/// derived seed) alongside the full per-run outcome — including the
/// partial-run reliability fields (`disrupted`, `departed`).
#[derive(Debug, Clone)]
pub struct RunObservation {
    /// Iteration index `k` within the campaign (0-based).
    pub iteration: u32,
    /// The host index that seeded this broadcast.
    pub root: usize,
    /// The per-iteration protocol seed, `seed_for_iteration(base_seed, k)`.
    pub seed: u64,
    /// The full instrumented outcome of the run.
    pub outcome: BroadcastResult,
}

/// Resolves a campaign `threads` knob to a concrete worker count: `0`
/// (auto) means one worker per available CPU, `1` is the strictly serial
/// path (no pool, no extra threads), anything else is used as given.
///
/// The knob never changes results — only wall-clock: every iteration is a
/// pure function of its derived seed and the fold consumes observations in
/// iteration order regardless of which worker finished first.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// Shared state between pool workers and the emitting thread: completed
/// results parked until their iteration index is next in line.
struct Reorder<T> {
    /// The iteration index the emitter needs next.
    next: u32,
    /// Completed, not-yet-emitted results keyed by iteration index.
    slots: BTreeMap<u32, T>,
}

/// Runs `produce(k)` for every `k` in `0..end` on a bounded
/// work-stealing pool of `workers` threads and hands each result to `emit`
/// **in strict `k` order** on the calling thread.
///
/// Workers steal the next unclaimed index from a shared atomic cursor and
/// park finished results in a reorder buffer; the calling thread drains the
/// buffer in order as soon as the next index lands. Backpressure bounds the
/// buffer at `2 × workers` parked results — a worker that races far ahead
/// blocks until the emitter catches up, except for the one holding the
/// next-needed index, which always inserts (no deadlock).
fn pool_run_ordered<T: Send>(
    end: u32,
    workers: usize,
    produce: &(dyn Fn(u32) -> T + Sync),
    emit: &mut dyn FnMut(T),
) {
    // Clamp the width to the work first: an unchecked `threads` value
    // (any u64 from a job spec) must not overflow the buffer bound.
    let workers = workers.min(end as usize);
    let bound = 2 * workers;
    let cursor = AtomicU32::new(0);
    let shared = Mutex::new(Reorder { next: 0, slots: BTreeMap::new() });
    let ready = Condvar::new();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = cursor.fetch_add(1, Ordering::SeqCst);
                if k >= end {
                    break;
                }
                let value = produce(k);
                let mut state = shared.lock().expect("campaign pool poisoned");
                // Backpressure — unless this is the next-needed result,
                // which must always land for the emitter to progress.
                while state.slots.len() >= bound && k != state.next {
                    state = ready.wait(state).expect("campaign pool poisoned");
                }
                state.slots.insert(k, value);
                drop(state);
                ready.notify_all();
            });
        }
        // The calling thread is the emitter: drain in iteration order.
        let mut state = shared.lock().expect("campaign pool poisoned");
        while state.next < end {
            let k = state.next;
            if let Some(value) = state.slots.remove(&k) {
                state.next = k + 1;
                drop(state);
                ready.notify_all();
                emit(value);
                state = shared.lock().expect("campaign pool poisoned");
            } else {
                state = ready.wait(state).expect("campaign pool poisoned");
            }
        }
    });
}

/// Completion-driven campaign driver: runs `iterations` broadcasts and hands
/// each one to `sink` as a [`RunObservation`] instead of returning a finished
/// [`Campaign`]. This is the streaming entry point the session layer consumes.
///
/// Iterations run on `threads` pool workers (`0` = one per CPU, `1` = the
/// serial path; see [`resolve_threads`]), but observations are **always
/// emitted in iteration order** through a reorder buffer that releases each
/// run as soon as it is next in line: each run is a pure function of its
/// derived seed, so the thread count changes latency, never content, and an
/// in-order fold of the observations reproduces the batch metric bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn stream_campaign_with_reliability(
    routes: &Arc<RouteTable>,
    hosts: &[NodeId],
    cfg: &SwarmConfig,
    iterations: u32,
    root_policy: RootPolicy,
    base_seed: u64,
    reliability: &ReliabilityCfg,
    threads: usize,
    sink: &mut dyn FnMut(RunObservation),
) {
    reliability.validate();
    let horizon = if reliability.is_off() {
        0.0
    } else {
        horizon_estimate(routes.topology(), hosts, cfg.file_bytes())
    };
    let run_one = |k: u32| {
        let seed = seed_for_iteration(base_seed, k as u64);
        let root = root_policy.root_for(k, hosts.len(), base_seed);
        let mut swarm = Swarm::new(routes.clone(), hosts, root, cfg.clone(), seed);
        if !reliability.is_off() {
            let schedule =
                generate_schedule(routes.topology(), hosts, root, reliability, horizon, seed);
            swarm = swarm.with_perturbations(schedule);
        }
        let outcome = swarm.run();
        RunObservation { iteration: k, root, seed, outcome }
    };
    let workers = resolve_threads(threads);
    if workers <= 1 || iterations <= 1 {
        for k in 0..iterations {
            sink(run_one(k));
        }
    } else {
        pool_run_ordered(iterations, workers, &run_one, sink);
    }
}

/// [`run_campaign`] under reliability perturbations: each iteration gets an
/// independent deterministic schedule (host churn, link degradation,
/// cross-traffic) derived from its iteration seed, sized to the scenario's
/// makespan floor ([`horizon_estimate`]), with the iteration's root excluded
/// from churn. Partial runs fold into the metric with per-pair observation
/// counts, so truncated measurements never dilute clean ones.
///
/// The batch path is the streaming path plus a collector: this function is a
/// thin fold over [`stream_campaign_with_reliability`], which is what makes
/// the session layer's replay byte-identical by construction.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_with_reliability(
    routes: &Arc<RouteTable>,
    hosts: &[NodeId],
    cfg: &SwarmConfig,
    iterations: u32,
    root_policy: RootPolicy,
    base_seed: u64,
    reliability: &ReliabilityCfg,
    threads: usize,
) -> Campaign {
    let mut runs: Vec<BroadcastResult> = Vec::with_capacity(iterations as usize);
    let mut metric = MetricAccumulator::new(hosts.len());
    stream_campaign_with_reliability(
        routes,
        hosts,
        cfg,
        iterations,
        root_policy,
        base_seed,
        reliability,
        threads,
        &mut |obs| {
            metric.push_run_partial(&obs.outcome.fragments, &obs.outcome.participated());
            runs.push(obs.outcome);
        },
    );
    Campaign { runs, metric }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btt_netsim::prelude::*;

    fn star(n: usize) -> (Arc<RouteTable>, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let hosts: Vec<NodeId> = (0..n).map(|i| b.add_host(format!("h{i}"), "s", "c")).collect();
        let sw = b.add_switch("sw", "s");
        for &h in &hosts {
            b.link(h, sw, LinkSpec::lan(Bandwidth::from_mbps(890.0)));
        }
        let topo = Arc::new(b.build().unwrap());
        (Arc::new(RouteTable::new(topo)), hosts)
    }

    fn cfg() -> SwarmConfig {
        SwarmConfig { num_pieces: 64, endgame_pieces: 0, ..SwarmConfig::default() }
    }

    #[test]
    fn campaign_aggregates_eq2() {
        let (routes, hosts) = star(5);
        let c = run_campaign(&routes, &hosts, &cfg(), 4, RootPolicy::Fixed(0), 99);
        assert_eq!(c.runs.len(), 4);
        assert_eq!(c.metric.iterations(), 4);
        // w(e) should equal the mean of single-run edges.
        let mean = c.runs.iter().map(|r| r.fragments.edge(1, 2) as f64).sum::<f64>() / 4.0;
        assert!((c.metric.w(1, 2) - mean).abs() < 1e-9);
        assert!(c.total_measurement_time() > 0.0);
    }

    #[test]
    fn campaign_is_deterministic_and_parallel_safe() {
        let (routes, hosts) = star(6);
        let a = run_campaign(&routes, &hosts, &cfg(), 6, RootPolicy::Fixed(0), 1234);
        let b = run_campaign(&routes, &hosts, &cfg(), 6, RootPolicy::Fixed(0), 1234);
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.fragments, y.fragments);
        }
        assert_eq!(a.metric, b.metric);
    }

    #[test]
    fn iterations_differ_from_each_other() {
        let (routes, hosts) = star(6);
        let c = run_campaign(&routes, &hosts, &cfg(), 3, RootPolicy::Fixed(0), 5);
        assert_ne!(c.runs[0].fragments, c.runs[1].fragments, "runs must be stochastic");
        assert_ne!(c.runs[1].fragments, c.runs[2].fragments);
    }

    #[test]
    fn metric_after_prefixes() {
        let (routes, hosts) = star(4);
        let c = run_campaign(&routes, &hosts, &cfg(), 5, RootPolicy::Fixed(0), 77);
        let m2 = c.metric_after(2);
        assert_eq!(m2.iterations(), 2);
        let manual = (c.runs[0].fragments.edge(0, 1) + c.runs[1].fragments.edge(0, 1)) as f64 / 2.0;
        assert!((m2.w(0, 1) - manual).abs() < 1e-9);
        let mall = c.metric_after(99);
        assert_eq!(mall.iterations(), 5, "prefix longer than runs clamps");
    }

    #[test]
    fn churned_campaign_records_losses_and_weighs_observations() {
        let (routes, hosts) = star(10);
        let rel = ReliabilityCfg { churn: 0.4, ..ReliabilityCfg::default() };
        let c = run_campaign_with_reliability(
            &routes,
            &hosts,
            &cfg(),
            4,
            RootPolicy::Fixed(0),
            2012,
            &rel,
            0,
        );
        assert_eq!(c.runs.len(), 4);
        // Losses happen (churn 0.4 of 9 leechers, half never recover) and
        // the metric's coverage drops below the churn-free 1.0.
        assert!(c.hosts_lost() > 0, "churn must cost hosts");
        assert!(c.metric.pair_coverage() < 1.0, "coverage {}", c.metric.pair_coverage());
        // Every run still finishes for its survivors.
        for run in &c.runs {
            assert!(run.finished);
            assert_eq!(run.disrupted.len(), hosts.len());
        }
        // Determinism: the same seed reproduces the same failures.
        let d = run_campaign_with_reliability(
            &routes,
            &hosts,
            &cfg(),
            4,
            RootPolicy::Fixed(0),
            2012,
            &rel,
            2,
        );
        assert_eq!(c.metric, d.metric);
        for (x, y) in c.runs.iter().zip(&d.runs) {
            assert_eq!(x.fragments, y.fragments);
            assert_eq!(x.departed, y.departed);
        }
        // Observed-host mask: the root and most survivors are observed.
        let observed = c.observed_hosts();
        assert!(observed[0]);
        assert!(observed.iter().filter(|&&o| o).count() >= hosts.len() / 2);
    }

    #[test]
    fn reliability_off_is_bit_identical_to_plain_campaign() {
        let (routes, hosts) = star(6);
        let plain = run_campaign(&routes, &hosts, &cfg(), 3, RootPolicy::Fixed(0), 9);
        let off = run_campaign_with_reliability(
            &routes,
            &hosts,
            &cfg(),
            3,
            RootPolicy::Fixed(0),
            9,
            &ReliabilityCfg::default(),
            0,
        );
        assert_eq!(plain.metric, off.metric);
        for (x, y) in plain.runs.iter().zip(&off.runs) {
            assert_eq!(x.fragments, y.fragments);
            assert_eq!(x.makespan.to_bits(), y.makespan.to_bits());
        }
    }

    #[test]
    fn stream_matches_batch_at_any_thread_count() {
        let (routes, hosts) = star(8);
        let rel = ReliabilityCfg { churn: 0.3, ..ReliabilityCfg::default() };
        let batch = run_campaign_with_reliability(
            &routes,
            &hosts,
            &cfg(),
            5,
            RootPolicy::RoundRobin,
            7,
            &rel,
            0,
        );
        for threads in [1usize, 2, 0] {
            let mut obs = Vec::new();
            stream_campaign_with_reliability(
                &routes,
                &hosts,
                &cfg(),
                5,
                RootPolicy::RoundRobin,
                7,
                &rel,
                threads,
                &mut |o| obs.push(o),
            );
            assert_eq!(obs.len(), 5, "threads {threads}");
            // Emitted strictly in iteration order, with batch-identical
            // metadata and per-run content.
            for (k, o) in obs.iter().enumerate() {
                assert_eq!(o.iteration, k as u32);
                assert_eq!(o.root, RootPolicy::RoundRobin.root_for(k as u32, hosts.len(), 7));
                assert_eq!(o.seed, seed_for_iteration(7, k as u64));
                assert_eq!(o.outcome.fragments, batch.runs[k].fragments);
                assert_eq!(o.outcome.disrupted, batch.runs[k].disrupted);
            }
            // An in-order fold of the stream rebuilds the batch metric
            // bit for bit.
            let mut acc = MetricAccumulator::new(hosts.len());
            for o in &obs {
                acc.push_run_partial(&o.outcome.fragments, &o.outcome.participated());
            }
            assert_eq!(acc, batch.metric, "threads {threads}");
        }
    }

    #[test]
    fn stream_is_thread_count_invariant() {
        let (routes, hosts) = star(8);
        let rel = ReliabilityCfg { churn: 0.25, xtraffic: 0.2, ..ReliabilityCfg::default() };
        let collect = |threads: usize| {
            let mut obs = Vec::new();
            stream_campaign_with_reliability(
                &routes,
                &hosts,
                &cfg(),
                6,
                RootPolicy::RoundRobin,
                2012,
                &rel,
                threads,
                &mut |o| obs.push(o),
            );
            obs
        };
        let serial = collect(1);
        assert_eq!(serial.len(), 6);
        for threads in [2usize, 4, 0] {
            let pooled = collect(threads);
            assert_eq!(pooled.len(), serial.len(), "threads {threads}");
            for (a, b) in serial.iter().zip(&pooled) {
                assert_eq!(a.iteration, b.iteration, "in-order emission");
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.root, b.root);
                assert_eq!(a.outcome.fragments, b.outcome.fragments);
                assert_eq!(a.outcome.completion, b.outcome.completion);
                assert_eq!(a.outcome.disrupted, b.outcome.disrupted);
                assert_eq!(
                    a.outcome.makespan.to_bits(),
                    b.outcome.makespan.to_bits(),
                    "bit-identical makespan at threads {threads}"
                );
            }
        }
    }

    #[test]
    fn pool_reorder_buffer_emits_in_order_under_backpressure() {
        // Many cheap jobs on many workers: the reorder buffer (bounded at
        // 2 x workers) must still emit 0..n in exact order, once each.
        let produce = |k: u32| k * 3;
        let mut seen = Vec::new();
        pool_run_ordered(500, 8, &produce, &mut |v| seen.push(v));
        assert_eq!(seen.len(), 500);
        for (i, v) in seen.iter().enumerate() {
            assert_eq!(*v, i as u32 * 3);
        }
    }

    #[test]
    fn pool_clamps_an_oversized_width_to_the_work() {
        let mut seen = Vec::new();
        pool_run_ordered(3, usize::MAX, &|k| k, &mut |v| seen.push(v));
        assert_eq!(seen, [0, 1, 2]);
    }

    #[test]
    fn resolve_threads_maps_zero_to_auto() {
        assert!(resolve_threads(0) >= 1, "auto resolves to at least one worker");
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn root_policies() {
        assert_eq!(RootPolicy::Fixed(2).root_for(9, 5, 0), 2);
        assert_eq!(RootPolicy::RoundRobin.root_for(7, 5, 0), 2);
        let r = RootPolicy::Random.root_for(3, 5, 42);
        assert!(r < 5);
        // Random roots are deterministic in the seed.
        assert_eq!(r, RootPolicy::Random.root_for(3, 5, 42));
    }

    #[test]
    fn root_policies_cover_and_stay_stable_at_large_n() {
        // 1024 hosts, 4096 iterations: the scale regime the event engine
        // targets. Policies must stay in range, be a pure function of
        // (k, n, seed), and spread roots across the whole host set.
        let n = 1024usize;
        let iters = 4096u32;

        // RoundRobin hits every host exactly iters/n times.
        let mut rr_counts = vec![0u32; n];
        for k in 0..iters {
            rr_counts[RootPolicy::RoundRobin.root_for(k, n, 9)] += 1;
        }
        assert!(rr_counts.iter().all(|&c| c == iters / n as u32), "round robin is exact");

        // Random: in range, seed-stable, and covers the large majority of
        // hosts after 4x oversampling (coupon-collector leaves a small tail).
        let mut seen = vec![false; n];
        for k in 0..iters {
            let r = RootPolicy::Random.root_for(k, n, 42);
            assert!(r < n);
            assert_eq!(r, RootPolicy::Random.root_for(k, n, 42), "seed-stable");
            seen[r] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert!(covered > n * 9 / 10, "random roots cover {covered}/{n} hosts");
        // Different base seeds decorrelate the sequence.
        let a: Vec<usize> = (0..64).map(|k| RootPolicy::Random.root_for(k, n, 1)).collect();
        let b: Vec<usize> = (0..64).map(|k| RootPolicy::Random.root_for(k, n, 2)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn round_robin_rotates_roots() {
        let (routes, hosts) = star(4);
        let c = run_campaign(&routes, &hosts, &cfg(), 4, RootPolicy::RoundRobin, 10);
        for (k, run) in c.runs.iter().enumerate() {
            // The root of iteration k is host k: it receives nothing.
            assert_eq!(run.fragments.received_by(k), 0, "iteration {k}");
            assert_eq!(run.completion[k], Some(0.0));
        }
    }
}
