//! Property pin for the power-up integrator: every feeding is
//! **bit-identical** to `power_up_oracle` (the per-sample
//! `Rectifier::step` loop) on any envelope, at any split — `step_block`
//! on received power, `Pump::step` inside `charge` runs on complex rx's
//! `|rx|²·scale` (the streaming pipeline's fused pass), and per-sample
//! feeding against per-block feeding, trace-stride probes included.

use ivn_dsp::Complex64;
use ivn_harvester::powerup::{PowerUpOutcome, TagPowerProfile};
use ivn_runtime::prop::any;
use ivn_runtime::props;
use ivn_runtime::rng::{Rng, StdRng};
use ivn_runtime::trace;
use std::sync::Mutex;

const FS: f64 = 1e6;

fn profile(mini: bool) -> TagPowerProfile {
    if mini {
        TagPowerProfile::miniature_tag()
    } else {
        TagPowerProfile::standard_tag()
    }
}

/// A run-length envelope: power levels spanning dead air to strong
/// drive, with run lengths from single samples to long CW stretches.
fn runs_from_seed(seed: u64) -> Vec<(f64, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_runs = 2 + (rng.next_u64() % 12) as usize;
    (0..n_runs)
        .map(|_| {
            let p = match rng.next_u64() % 4 {
                0 => 0.0,
                1 => 1e-6 * rng.random::<f64>(),
                2 => 2e-4 * rng.random::<f64>(),
                _ => 5e-3 * rng.random::<f64>(),
            };
            let m = match rng.next_u64() % 3 {
                0 => 1 + (rng.next_u64() % 9) as usize,
                1 => 100 + (rng.next_u64() % 2_000) as usize,
                _ => 10_000 + (rng.next_u64() % 80_000) as usize,
            };
            (p, m)
        })
        .collect()
}

fn expand(runs: &[(f64, usize)]) -> Vec<f64> {
    let mut env = Vec::new();
    for &(p, m) in runs {
        env.extend(std::iter::repeat_n(p, m));
    }
    env
}

/// Consecutive `(start, end)` blocks of 1..=5000 samples covering `0..len`.
fn random_splits(rng: &mut StdRng, len: usize) -> Vec<(usize, usize)> {
    let mut splits = Vec::new();
    let mut i = 0usize;
    while i < len {
        let end = (i + 1 + (rng.next_u64() % 5000) as usize).min(len);
        splits.push((i, end));
        i = end;
    }
    splits
}

fn assert_bitwise(a: &PowerUpOutcome, b: &PowerUpOutcome, what: &str) {
    assert_eq!(a.powered, b.powered, "{what}: powered");
    assert_eq!(
        a.time_to_power_s.map(f64::to_bits),
        b.time_to_power_s.map(f64::to_bits),
        "{what}: wake time"
    );
    assert_eq!(a.peak_vdc.to_bits(), b.peak_vdc.to_bits(), "{what}: peak");
    assert_eq!(
        a.final_vdc.to_bits(),
        b.final_vdc.to_bits(),
        "{what}: final"
    );
}

props! {
    cases = 48;

    /// The hoisted loop IS the oracle, bit for bit, under any block
    /// split, through either entry point.
    fn step_block_bitwise_equals_oracle(seed in any::<u64>(), mini in any::<bool>()) {
        let tag = profile(mini);
        let env = expand(&runs_from_seed(seed));
        let oracle = tag.power_up_oracle(&env, FS);
        let batch = tag.power_up(&env, FS);
        assert_bitwise(&batch, &oracle, "batch vs oracle");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut st = tag
            .begin_power_up(FS)
            .with_trace_stride((env.len() / 32).max(1));
        for (i, end) in random_splits(&mut rng, env.len()) {
            st.step_block(&env[i..end]);
        }
        assert_bitwise(&st.finish(), &oracle, "split blocks vs oracle");

        // Complex rx whose |rx|²·scale follows the same envelope with a
        // random per-sample amplitude jitter and phase: the same dead air,
        // wake and drain, but no two samples equal.
        let scale = 1e-3 + 1e-2 * rng.random::<f64>();
        let rx: Vec<Complex64> = env
            .iter()
            .map(|&p| {
                let amp = (p / scale).sqrt() * (0.5 + rng.random::<f64>());
                let (s, c) = (std::f64::consts::TAU * rng.random::<f64>()).sin_cos();
                Complex64::new(amp * c, amp * s)
            })
            .collect();
        let power: Vec<f64> = rx.iter().map(|v| v.norm_sqr() * scale).collect();
        let oracle = tag.power_up_oracle(&power, FS);
        let mut st = tag.begin_power_up(FS);
        for (i, end) in random_splits(&mut rng, rx.len()) {
            st.charge(|pump| {
                for v in &rx[i..end] {
                    pump.step(v.norm_sqr() * scale);
                }
            });
        }
        assert_bitwise(&st.finish(), &oracle, "split rx charge runs vs oracle");
    }

    /// Per-sample feeding — one `Pump::step` call per sample, across
    /// charge runs cut at random points — equals per-block feeding under
    /// another random split, bit for bit: wake index, peak, final
    /// voltage and every trace-stride probe of the banked energy.
    fn per_sample_feeding_equals_per_block_under_any_split(
        seed in any::<u64>(), mini in any::<bool>(), stride_sel in 0usize..3,
    ) {
        let tag = profile(mini);
        let env = expand(&runs_from_seed(seed));
        let mut rng = StdRng::seed_from_u64(seed.rotate_left(9));
        // Few enough probes that neither feeding overruns a trace track.
        let stride = env.len() / 2000 + [1, 7, 1 + (rng.next_u64() % 4096) as usize][stride_sel];
        let per_block = traced(|| {
            let mut st = tag.begin_power_up(FS).with_trace_stride(stride);
            for (i, end) in random_splits(&mut rng, env.len()) {
                st.step_block(&env[i..end]);
            }
            st.finish()
        });
        let per_sample = traced(|| {
            let mut st = tag.begin_power_up(FS).with_trace_stride(stride);
            let mut at = 0;
            for (_, end) in random_splits(&mut rng, env.len()) {
                st.charge(|pump| {
                    while at < end {
                        pump.step(env[at]);
                        at += 1;
                    }
                });
            }
            st.finish()
        });
        assert_bitwise(&per_sample.0, &per_block.0, "per sample vs per block");
        assert_eq!(per_sample.1.len(), env.len().div_ceil(stride), "probe count");
        assert_eq!(per_sample.1, per_block.1, "trace-stride probes");
    }
}

/// Runs `f` with tracing on and returns its result with the bits of the
/// `physics.harvested_charge_j` probes it emitted, in order. Tracing is
/// process-global, so runs take one lock, and a marker counter names
/// this thread's track among any other test's (a caller checks the probe
/// count, which an overrun of that track would cut).
fn traced(f: impl FnOnce() -> PowerUpOutcome) -> (PowerUpOutcome, Vec<u64>) {
    static LOCK: Mutex<()> = Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::reset();
    trace::set_enabled(true);
    trace::counter(trace::intern("powerup_props.track"), 0.0);
    let out = f();
    trace::set_enabled(false);
    let snap = trace::snapshot();
    let track = snap
        .events
        .iter()
        .find(|e| e.name == "powerup_props.track")
        .expect("marker event")
        .track;
    let probes = snap
        .events
        .iter()
        .filter(|e| e.track == track && e.name == "physics.harvested_charge_j")
        .map(|e| e.value.to_bits())
        .collect();
    (out, probes)
}
