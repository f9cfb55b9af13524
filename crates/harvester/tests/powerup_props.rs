//! Property pin for the power-up integrator: both streaming entry
//! points are **bit-identical** to `power_up_oracle` (the per-sample
//! `Rectifier::step` loop) on any envelope, at any block split —
//! `step_block` on received power, and `step_rx_block` on complex rx
//! against the oracle run on `|rx|²·scale`.

use ivn_dsp::Complex64;
use ivn_harvester::powerup::{PowerUpOutcome, TagPowerProfile};
use ivn_runtime::prop::any;
use ivn_runtime::props;
use ivn_runtime::rng::{Rng, StdRng};

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
            st.step_rx_block(&rx[i..end], scale);
        }
        assert_bitwise(&st.finish(), &oracle, "split rx blocks vs oracle");
    }
}
