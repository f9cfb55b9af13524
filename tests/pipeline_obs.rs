//! The streaming pipeline's sdr and harvester instrumentation.
//!
//! `obs::set_enabled(true)` flips a process-global flag, and the counts
//! below are exact, so this check runs in its own test binary (its own
//! process) where no sibling test records concurrently.

use ivn_bench::pipeline::{outputs_streaming, StreamOptions};
use ivn_runtime::obs;

/// Every calibration sub-block opens one `sdr.emit_ns` span and counts
/// one `sdr.emissions`; the fused power pass opens none (perfbench's
/// `pipeline.sdr.emit_all_passes_s` is the calibration pass, and
/// `verify.sh`'s trace-span gate reads the span). The power pass books
/// every sample as one harvester charge step, one `harvester.power_up_ns`
/// span per block.
#[test]
fn streaming_pipeline_reports_calibration_emissions_and_every_charge_step() {
    obs::set_enabled(true);
    // 1e5 S/s: the calibration prunes (visits fewer windows than the
    // period holds). A 512-sample block splits every window, the short
    // last one (100 000 − 97·1024 = 672 samples) included, into exactly
    // two sub-blocks.
    let opts = StreamOptions {
        sample_rate: Some(1e5),
        block: 512,
        ..Default::default()
    };
    obs::reset();
    let report = outputs_streaming(true, &opts);
    let metrics = obs::report();
    obs::set_enabled(false);

    let (visited, total) = report.calibration_windows;
    assert!(visited < total, "calibration visited {visited} of {total}");
    let calibration = 2 * visited as u64;
    assert_eq!(
        metrics.counter("sdr.emissions"),
        Some(calibration),
        "{visited} windows visited"
    );
    let span = metrics.histogram("sdr.emit_ns").expect("sdr.emit_ns span");
    assert_eq!(span.count, calibration, "one span per emission");
    assert!(span.sum > 0, "sdr.emit_ns recorded no time");

    let n = report.outputs.n_samples as u64;
    let power_pass = n.div_ceil(opts.block as u64);
    assert_eq!(metrics.counter("harvester.charge_steps"), Some(n));
    let charge = metrics
        .histogram("harvester.power_up_ns")
        .expect("harvester.power_up_ns span");
    assert_eq!(charge.count, power_pass, "one charge run per block");
}
