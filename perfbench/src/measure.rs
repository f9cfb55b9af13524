//! The untraced measurement of one workload: a warm-up, then timed runs
//! until the run length is spent, each preceded by a slice of repeated
//! set-ups. Every run's output is checked against the witness.
//!
//! The host's speed drifts by tens of percent over seconds to minutes,
//! so every timed figure is scaled to the host-speed probe
//! ([`crate::probe`]) timed just before and just after its run: a
//! figure of `t` seconds while the probe took `p` is reported as
//! `t · REFERENCE_S / p`. Run times are reported as their median;
//! set-up time as the median over the slices of each slice's fastest
//! set-up, so it is sampled throughout the run rather than once at the
//! start.

use crate::probe;
use crate::procstat;
use crate::workloads::{generate, run, setup, Inputs, Output, Prepared, Scale, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-up is repeated before every timed run for about this long, so
/// its samples span the same stretch of time as the runs.
const SETUP_SLICE: Duration = Duration::from_millis(20);
/// Timed runs per measurement, at least.
const MIN_RUNS: usize = 3;

/// The end-to-end figures of one workload. Times are scaled to the
/// probe's reference speed.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Median over the slices of the fastest set-up in each, s.
    pub setup_s: f64,
    /// Median run time, s.
    pub wall_s: f64,
    /// Simulated work per second at the median run time.
    pub throughput_per_s: f64,
    /// Mean process CPU time per run, s (the `/proc/self/stat` clock
    /// ticks too coarse for a per-run median).
    pub cpu_s: f64,
    /// Peak resident set of the process, MB.
    pub peak_rss_mb: f64,
    /// Median unscaled run time, s.
    pub raw_wall_s: f64,
    /// Median probe time, s.
    pub probe_s: f64,
    /// Timed runs.
    pub runs: usize,
    /// Operations attempted over every checked run.
    pub attempted: usize,
    /// Operations failed: a witness mismatch, a broken output property
    /// or a panic.
    pub failed: usize,
}

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Repeats set-up for about [`SETUP_SLICE`]; returns the slice's
/// fastest time and the last result. The fastest of a slice is the warm
/// set-up cost: the slower repeats are the ones that follow a run's
/// cache eviction or meet a neighbour's load. Keeping one value per
/// slice also keeps the samples out of the peak resident set.
fn setup_slice(inputs: &Inputs) -> Result<(f64, Prepared), String> {
    let started = Instant::now();
    let mut best = f64::INFINITY;
    loop {
        let t0 = Instant::now();
        let prepared = setup(inputs)?;
        best = best.min(t0.elapsed().as_secs_f64());
        if started.elapsed() >= SETUP_SLICE {
            return Ok((best, prepared));
        }
    }
}

/// Checks one run against the reference digest: returns (attempted,
/// failed).
pub fn check(out: &Output, reference: u64) -> (usize, usize) {
    let attempted = out.attempted();
    if out.digest() != reference {
        (attempted, attempted)
    } else {
        (attempted, out.failed().min(attempted))
    }
}

/// Runs the workload once, catching a panic.
pub fn run_caught(p: &Prepared) -> Option<Output> {
    catch_unwind(AssertUnwindSafe(|| run(p))).ok()
}

/// Measures `w` at `seed` for about `seconds` of timed runs, checking
/// every run against the `reference` digest.
pub fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    reference: u64,
) -> Result<Measured, String> {
    let inputs = generate(w, seed, scale);
    let threads = inputs.threads();

    // Warm-up: set-up and one checked run, untimed. It starts the pool
    // and faults in the working set.
    let warm = run_caught(&setup(&inputs)?).ok_or("warm-up run panicked")?;
    let per_run = warm.attempted();
    let (mut attempted, mut failed) = check(&warm, reference);

    let (mut setups, mut walls, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_walls, mut probes) = (Vec::new(), Vec::new());
    let mut work = warm.work();
    let started = Instant::now();
    while walls.len() < MIN_RUNS || started.elapsed().as_secs_f64() < seconds {
        let (setup_s, prepared) = setup_slice(&inputs)?;
        let before = probe::time(threads);
        let cpu0 = procstat::cpu_seconds()?;
        let t0 = Instant::now();
        let out = run_caught(&prepared);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = procstat::cpu_seconds()? - cpu0;
        let probe_s = 0.5 * (before + probe::time(threads));
        let speed = probe::REFERENCE_S / probe_s;
        setups.push(setup_s * speed);
        walls.push(wall * speed);
        cpus.push(cpu * speed);
        raw_walls.push(wall);
        probes.push(probe_s);
        match out {
            Some(out) => {
                let (a, f) = check(&out, reference);
                attempted += a;
                failed += f;
                work = out.work();
            }
            None => {
                attempted += per_run;
                failed += per_run;
            }
        }
    }
    let wall_s = median(&walls);
    Ok(Measured {
        setup_s: median(&setups),
        wall_s,
        throughput_per_s: work / wall_s,
        cpu_s: cpus.iter().sum::<f64>() / cpus.len() as f64,
        peak_rss_mb: procstat::peak_rss_mb()?,
        raw_wall_s: median(&raw_walls),
        probe_s: median(&probes),
        runs: walls.len(),
        attempted,
        failed,
    })
}
