//! Thread-count invariance: the parallel Monte-Carlo runners must produce
//! byte-identical results no matter how many worker threads execute them.
//! Trial `i` always draws from RNG stream `fork(i)`, and the worker pool
//! reassembles results in input order, so the outputs below must match
//! exactly — not approximately — across 1, 2 and 8 threads.

use ivn::core::cib::CibConfig;
use ivn::core::experiment::{gain_vs_antennas_threads, peak_gain_cdf_threads};
use ivn::core::PAPER_OFFSETS_HZ;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn peak_gain_cdf_identical_across_thread_counts() {
    let reference = peak_gain_cdf_threads(&PAPER_OFFSETS_HZ[..5], 64, 512, 42, 1);
    assert_eq!(reference.len(), 64);
    for threads in THREAD_COUNTS {
        let cdf = peak_gain_cdf_threads(&PAPER_OFFSETS_HZ[..5], 64, 512, 42, threads);
        assert_eq!(cdf.len(), reference.len(), "{threads} threads");
        for (i, (a, b)) in cdf.samples().iter().zip(reference.samples()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "sample {i} differs at {threads} threads: {a} vs {b}"
            );
        }
    }
}

#[test]
fn gain_vs_antennas_identical_across_thread_counts() {
    let cib = CibConfig::paper_prototype_n(6);
    let reference = gain_vs_antennas_threads(&cib, 40, 7, 1);
    for threads in THREAD_COUNTS {
        let rows = gain_vs_antennas_threads(&cib, 40, 7, threads);
        assert_eq!(rows.len(), reference.len(), "{threads} threads");
        for (row, expect) in rows.iter().zip(&reference) {
            assert_eq!(row.n, expect.n);
            for (a, b) in [
                (row.gain.p10, expect.gain.p10),
                (row.gain.median, expect.gain.median),
                (row.gain.p90, expect.gain.p90),
            ] {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "n={} differs at {threads} threads: {a} vs {b}",
                    row.n
                );
            }
        }
    }
}

#[test]
fn obs_instrumentation_never_perturbs_results() {
    // The observability layer must be a pure observer: running the same
    // experiment with tracing enabled yields byte-identical output at
    // every thread count. Compute the reference with obs off, then flip
    // the global flag on and re-run across the thread sweep.
    ivn_runtime::obs::set_enabled(false);
    let reference = peak_gain_cdf_threads(&PAPER_OFFSETS_HZ[..5], 48, 384, 7, 1);
    ivn_runtime::obs::set_enabled(true);
    for threads in THREAD_COUNTS {
        let cdf = peak_gain_cdf_threads(&PAPER_OFFSETS_HZ[..5], 48, 384, 7, threads);
        assert_eq!(cdf.len(), reference.len(), "{threads} threads");
        for (i, (a, b)) in cdf.samples().iter().zip(reference.samples()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "obs-on sample {i} differs at {threads} threads: {a} vs {b}"
            );
        }
    }
    // And the instrumentation actually fired while enabled.
    let report = ivn_runtime::obs::report();
    assert!(
        report.counter("experiment.trials").unwrap_or(0) >= 48 * THREAD_COUNTS.len() as u64,
        "experiment.trials missing from report"
    );
    ivn_runtime::obs::set_enabled(false);
}

#[test]
fn trace_instrumentation_never_perturbs_results() {
    // Same guarantee as the obs test, for the timeline layer: recording
    // begin/end events and physics counter samples into the per-thread
    // rings must leave experiment outputs byte-identical at every thread
    // count.
    ivn_runtime::trace::set_enabled(false);
    let reference = peak_gain_cdf_threads(&PAPER_OFFSETS_HZ[..5], 48, 384, 11, 1);
    ivn_runtime::trace::set_enabled(true);
    for threads in THREAD_COUNTS {
        let cdf = peak_gain_cdf_threads(&PAPER_OFFSETS_HZ[..5], 48, 384, 11, threads);
        assert_eq!(cdf.len(), reference.len(), "{threads} threads");
        for (i, (a, b)) in cdf.samples().iter().zip(reference.samples()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "trace-on sample {i} differs at {threads} threads: {a} vs {b}"
            );
        }
    }
    ivn_runtime::trace::set_enabled(false);
    // And the timeline actually recorded while enabled: experiment spans
    // plus at least one physics counter track.
    let snap = ivn_runtime::trace::snapshot();
    assert!(
        snap.events
            .iter()
            .any(|e| e.name == "experiment.peak_gain_cdf_ns"),
        "experiment span missing from trace"
    );
    assert!(
        snap.events
            .iter()
            .any(|e| e.name == "physics.envelope_peak"),
        "physics probe missing from trace"
    );
}

#[test]
fn repeated_runs_are_bit_identical() {
    // Same seed, same thread count: the whole pipeline is a pure function
    // of the seed.
    let a = peak_gain_cdf_threads(&PAPER_OFFSETS_HZ[..5], 32, 256, 9, 4);
    let b = peak_gain_cdf_threads(&PAPER_OFFSETS_HZ[..5], 32, 256, 9, 4);
    assert_eq!(a, b);
}
