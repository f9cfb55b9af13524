//! The session trial's instrumentation: the obs report splits a trial
//! into its peak search, power-up and keyed step (and, in a full
//! session whose Query decoded, the out-of-band uplink), books each peak
//! search's grid argmax either as certified on the single-precision twin
//! or as one f64 grid fill, and each keyed step either as certified by
//! the droop bound or as one PIE decode of the synthesized window.
//!
//! `obs::set_enabled(true)` flips a process-global flag and the counts
//! below are exact, so these checks run in their own test binary (their
//! own process) and take one lock each: no sibling test records
//! concurrently.

use ivn::core::body::{Placement, TagSpec};
use ivn::core::scenario::{builtin, evaluate};
use ivn::core::system::{IvnSystem, SystemConfig};
use ivn_runtime::obs::{self, Report};
use ivn_runtime::rng::StdRng;
use std::sync::{Mutex, MutexGuard};

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Takes the lock and starts recording from zero.
fn recording() -> MutexGuard<'static, ()> {
    let guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    obs::reset();
    guard
}

/// Spans recorded under `name`.
fn spans(report: &Report, name: &str) -> u64 {
    report.histogram(name).map_or(0, |h| h.count)
}

/// The named counter, 0 when nothing booked it.
fn count(report: &Report, name: &str) -> u64 {
    report.counter(name).unwrap_or(0)
}

/// Keyed steps the droop certificate decided without a synthesized
/// window.
fn certified(report: &Report) -> u64 {
    count(report, "experiment.trial.keyed_certified")
}

#[test]
fn evaluate_splits_every_trial_and_keys_only_powered_ones() {
    let _guard = recording();
    let m = evaluate(&builtin("session").unwrap(), true).unwrap();
    let report = obs::report();
    obs::set_enabled(false);

    let (trials, powered) = (m.trials as u64, m.powered as u64);
    assert!(powered > 0, "no trial powered: {m:?}");
    assert_eq!(spans(&report, "experiment.trial.peak_ns"), trials);
    // Every grid argmax is certified on the twin or read off one f64
    // fill, never both; the session builtin's peaks are all certified.
    let argmax_certified = count(&report, "experiment.trial.argmax_certified");
    let filled = count(&report, "experiment.trial.argmax_filled");
    assert_eq!(argmax_certified + filled, trials);
    assert_eq!(argmax_certified, trials);
    assert_eq!(spans(&report, "experiment.trial.powerup_ns"), trials);
    assert_eq!(spans(&report, "experiment.trial.keyed_ns"), powered);
    // A campaign trial stops at the downlink: it has no uplink stage.
    assert_eq!(spans(&report, "experiment.trial.uplink_ns"), 0);
    // Every keyed step is certified or decoded, never both; the session
    // builtin's plan is flat enough over the Query to certify them all.
    assert_eq!(
        spans(&report, "rfid.pie_decode_ns") + certified(&report),
        powered
    );
    assert_eq!(certified(&report), powered);
}

#[test]
fn run_session_books_each_span_once_and_keys_only_when_powered() {
    let sys = IvnSystem::new(SystemConfig::paper_prototype(8, TagSpec::standard()));
    for (range_m, seed, powers) in [(2.0, 1, true), (500.0, 2, false)] {
        let _guard = recording();
        let out = sys.run_session(
            &mut StdRng::seed_from_u64(seed),
            &Placement::free_space(range_m),
        );
        let report = obs::report();
        obs::set_enabled(false);

        assert_eq!(out.powered, powers, "{range_m} m: {out:?}");
        let keyed = powers as u64;
        assert_eq!(spans(&report, "experiment.trial.peak_ns"), 1);
        assert_eq!(count(&report, "experiment.trial.argmax_certified"), 1);
        assert_eq!(count(&report, "experiment.trial.argmax_filled"), 0);
        assert_eq!(spans(&report, "experiment.trial.powerup_ns"), 1);
        assert_eq!(spans(&report, "experiment.trial.keyed_ns"), keyed);
        assert_eq!(certified(&report), keyed);
        // Stage 4, the out-of-band uplink, runs once the Query decoded.
        assert_eq!(out.command_decoded, powers, "{range_m} m: {out:?}");
        assert_eq!(spans(&report, "experiment.trial.uplink_ns"), keyed);
        assert_eq!(spans(&report, "rfid.pie_decode_ns"), 0);
        // The Query was encoded once, when the system was built.
        assert_eq!(spans(&report, "rfid.pie_encode_ns"), 0);
    }
}
