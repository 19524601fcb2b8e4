//! Deterministic-seeding regression test: the whole pipeline — ChaCha12
//! seeding through netsim traffic, swarm tracker/choking/selection, and the
//! Louvain tie-breaking — must be a pure function of the master seed, even
//! though broadcast iterations and phase 2's prefix fill run on the worker
//! pool.

use bittorrent_tomography::prelude::*;

fn run_once(dataset: Dataset, seed: u64) -> String {
    let report = TomographySession::new(dataset).pieces(256).iterations(3).seed(seed).run();
    format!("{report:?}")
}

#[test]
fn same_seed_same_report() {
    let a = run_once(Dataset::Small2x2, 7);
    let b = run_once(Dataset::Small2x2, 7);
    assert_eq!(a, b, "two runs with the same seed must be byte-identical");
}

#[test]
fn same_seed_same_report_under_contention() {
    // The larger two-site dataset exercises the pooled campaign path, tracker randomization, and choking rotation; the report must
    // still be a pure function of the master seed.
    let a = run_once(Dataset::GT, 2012);
    let b = run_once(Dataset::GT, 2012);
    assert_eq!(a, b, "parallel campaign must be byte-identical per seed");
}

#[test]
fn different_seed_different_traffic() {
    // Not a correctness requirement of the method, but a tripwire for the
    // seed plumbing: if the seed were ignored entirely, every seed would
    // produce the same report and the tests above would pass vacuously.
    // (On the tiny symmetric 2x2 dataset the report is seed-invariant, so
    // this must run on a contended topology.)
    let a = run_once(Dataset::GT, 7);
    let b = run_once(Dataset::GT, 8);
    assert_ne!(a, b, "distinct seeds should perturb the measured metric");
}
