//! The host-speed probe: a fixed floating-point kernel that owes nothing
//! to the program, timed on as many threads as a workload runs.
//!
//! The benchmark shares its cores with other machines' work, and their
//! load slows every instruction stream by tens of percent for stretches
//! of seconds to minutes: on a 2-vCPU Xeon VM the median `pipeline` run
//! time of one unchanged input moved by up to 45% between processes a
//! minute apart. The probe slows with it (per-run correlation 0.6–0.9
//! on `pipeline`), so each timed figure is scaled by
//! `REFERENCE_S / probe time` taken around the same run. A change to the
//! program moves the figures and not the probe.

use std::hint::black_box;
use std::time::Instant;

/// Probe time the scaled figures refer to, s: about the probe's median
/// time on that VM's 2.1 GHz Xeon vCPUs.
pub const REFERENCE_S: f64 = 1.0e-3;

/// Kernel steps per probe.
const STEPS: usize = 40_000;

/// One probe on the calling thread, s. Transcendentals and a
/// loop-carried sum, the instruction mix of the waveform layers.
fn on_this_thread() -> f64 {
    let step = black_box(0.0123_f64);
    let t0 = Instant::now();
    let mut acc = 0.0;
    for k in 0..STEPS {
        let x = k as f64 * step;
        let (s, c) = x.sin_cos();
        acc += s * c + (-x * 1e-3).exp();
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Runs the probe on `threads` threads at once; returns their mean
/// time, s.
pub fn time(threads: usize) -> f64 {
    if threads <= 1 {
        return on_this_thread();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(on_this_thread)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}
