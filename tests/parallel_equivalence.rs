//! Parallel campaigns are byte-identical to the serial schedule.
//!
//! A session's `threads` is the width of its one worker pool, which runs
//! both the broadcasts and phase 2's prefix fill. A reorder buffer hands
//! finished broadcasts to the metric fold, and scored prefixes to the
//! series, in strict index order — so the worker count is a pure
//! wall-clock knob. This suite pins that claim the same way
//! the streaming refactor was pinned: serialized reports must not move by a
//! single byte for any thread count, on clean and churned presets, in both
//! [`DriveMode`]s, through both the batch and the streaming entry points.

use bittorrent_tomography::core::scenarios::ScenarioSpec;
use bittorrent_tomography::core::serialize::ReportRecord;
use bittorrent_tomography::core::session::TomographySession;
use bittorrent_tomography::swarm::config::{DriveMode, SwarmConfig};
use proptest::prelude::*;

const PIECES: u32 = 64;

fn session(spec: &str, iterations: u32, drive: DriveMode) -> TomographySession {
    let cfg = SwarmConfig { num_pieces: PIECES, drive, ..SwarmConfig::default() };
    TomographySession::over(ScenarioSpec::parse(spec).expect("spec parses").build())
        .swarm_config(cfg)
        .iterations(iterations)
        .seed(2012)
}

fn render(session: &TomographySession, streamed: bool) -> String {
    let report = if streamed { session.run_streamed() } else { session.run() };
    ReportRecord::new(&report, PIECES).to_json().render_pretty()
}

/// The acceptance pin: on the 512-host presets — clean WAN, churned WAN,
/// and the homogeneous fat-tree — every worker count (serial, 2, 4, and
/// auto) lands the exact serialized report of the single-threaded
/// schedule, in both drive modes, through the batch entry point.
#[test]
fn thread_count_never_moves_the_report() {
    for spec in ["wan-512", "wan-512-churn", "fat-tree-512"] {
        for drive in [DriveMode::EventDriven, DriveMode::FixedStep] {
            let base = session(spec, 2, drive);
            let serial = render(&base.clone().threads(1), false);
            for threads in [2usize, 4, 0] {
                let pooled = render(&base.clone().threads(threads), false);
                assert_eq!(
                    serial, pooled,
                    "{spec} ({drive:?}): threads={threads} must reproduce the serial report"
                );
            }
        }
    }
}

/// The two equivalences compose: a pooled campaign streamed through a
/// [`LiveSession`] still matches the serial batch report — the reorder
/// buffer preserves the exact observation order the incremental fold
/// assumes, even when churn makes iterations finish out of order.
#[test]
fn pooled_streaming_matches_serial_batch() {
    for spec in ["wan-512-churn", "fat-tree-512"] {
        let base = session(spec, 3, DriveMode::EventDriven);
        let serial_batch = render(&base.clone().threads(1), false);
        for threads in [4usize, 0] {
            let pooled_streamed = render(&base.clone().threads(threads), true);
            assert_eq!(
                serial_batch, pooled_streamed,
                "{spec}: streamed threads={threads} must match the serial batch report"
            );
        }
    }
}

proptest! {
    // Each case runs two full mini-campaigns; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fuzzing the scheduling surface: arbitrary worker counts, seeds, and
    /// reliability perturbations never move the report off the
    /// single-threaded reference. `threads` only reshapes *when* broadcasts
    /// execute; the reorder buffer guarantees the fold never sees a
    /// difference.
    #[test]
    fn scheduling_knobs_never_move_the_report(
        threads in 0usize..6,
        seed in any::<u64>(),
        churn in 0.0f64..0.3,
        degrade in 0.0f64..0.3,
    ) {
        let spec = format!("star:3x4:0.1:4+churn={churn:.3}+degrade={degrade:.3}");
        let base = session(&spec, 4, DriveMode::EventDriven).seed(seed);
        let reference = render(&base.clone().threads(1), false);
        // Pooled batch path.
        prop_assert_eq!(&render(&base.clone().threads(threads), false), &reference);
        // Pooled streaming path.
        let streamed = base.clone().threads(threads);
        let mut live = streamed.live();
        streamed.stream_into(&mut |obs| {
            live.observe(obs).expect("in-order stream observations always apply");
        });
        let report = live.finalize().expect("campaign holds iterations");
        let rendered = ReportRecord::new(&report, PIECES).to_json().render_pretty();
        prop_assert_eq!(&rendered, &reference, "threads {}", threads);
    }
}
