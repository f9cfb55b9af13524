//! Two-stage CIB (paper §3.7, "optimizing power transfer with depth
//! knowledge").
//!
//! Plain CIB maximizes the *peak* because it must assume nothing about
//! attenuation. But once a sensor has been woken and the link margin is
//! known, a better strategy exists: choose a frequency plan that
//! maximizes the *time the envelope spends above the harvester
//! threshold* (the conduction window) rather than the height of the
//! peak. The paper sketches this as a discovery/steady two-stage design;
//! this module implements it:
//!
//! * stage 1 — **discovery**: the standard Eq. 10 peak-optimized plan;
//! * stage 2 — **steady**: once the margin `m = peak/threshold` is
//!   known, re-optimize for expected above-threshold duty.

use crate::freqsel::{feasible, FreqSelConfig, FrequencyPlan};
use crate::waveform::CibEnvelope;
use ivn_runtime::rng::{Rng, StdRng};
use std::f64::consts::TAU;

/// Monte-Carlo estimate of the expected fraction of the period the
/// envelope spends above `threshold` (in units of a single antenna's
/// amplitude), over random phase draws.
pub fn expected_duty<R: Rng + ?Sized>(
    offsets_hz: &[f64],
    threshold: f64,
    draws: usize,
    grid: usize,
    rng: &mut R,
) -> f64 {
    assert!(draws > 0 && grid > 0 && threshold >= 0.0);
    let mut acc = 0.0;
    let mut phases = vec![0.0; offsets_hz.len()];
    for _ in 0..draws {
        for p in phases.iter_mut() {
            *p = rng.random::<f64>() * TAU;
        }
        let env = CibEnvelope::new(offsets_hz, &phases);
        let samples = env.sample_period(grid);
        let above = samples.iter().filter(|&&v| v > threshold).count();
        acc += above as f64 / grid as f64;
    }
    acc / draws as f64
}

/// Result of a stage-2 optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyPlan {
    /// Offsets, first always 0, ascending.
    pub(crate) offsets_hz: Vec<f64>,
    /// Expected above-threshold duty achieved.
    pub expected_duty: f64,
    /// The threshold (single-antenna amplitude units) it was tuned for.
    pub threshold: f64,
}

/// Optimizes a frequency plan for above-threshold duty at a given
/// threshold, using the same constrained hill-climbing machinery as the
/// Eq. 10 optimizer. Deterministic per seed.
pub(crate) fn optimize_duty(cfg: &FreqSelConfig, threshold: f64, seed: u64) -> SteadyPlan {
    assert!(cfg.n_antennas >= 2);
    let mut best: Option<SteadyPlan> = None;
    for restart in 0..cfg.restarts {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(restart as u64 * 7717));
        // Initial feasible set: small distinct offsets (tight plans favour
        // long conduction windows).
        let mut current: Vec<u32> = (0..cfg.n_antennas as u32).collect();
        let eval_seed: u64 = rng.random();
        let eval = |set: &[u32]| -> f64 {
            let offsets: Vec<f64> = set.iter().map(|&v| v as f64).collect();
            let mut r = StdRng::seed_from_u64(eval_seed);
            expected_duty(&offsets, threshold, cfg.mc_draws, cfg.grid, &mut r)
        };
        let mut score = eval(&current);
        for _ in 0..cfg.iterations {
            let idx = rng.random_range(1..current.len());
            let delta = *[1i64, -1, 2, -2, 5, -5, 13, -13]
                .get(rng.random_range(0..8usize))
                .expect("in range");
            let mut cand = current.clone();
            let newv = (cand[idx] as i64 + delta).clamp(1, cfg.max_offset_hz as i64) as u32;
            if cand.contains(&newv) {
                continue;
            }
            cand[idx] = newv;
            let offsets: Vec<f64> = cand.iter().map(|&v| v as f64).collect();
            if !feasible(&offsets, cfg.rms_limit_hz) {
                continue;
            }
            let s = eval(&cand);
            if s > score {
                score = s;
                current = cand;
            }
        }
        let mut offsets: Vec<f64> = current.iter().map(|&v| v as f64).collect();
        offsets.sort_by(f64::total_cmp);
        let plan = SteadyPlan {
            offsets_hz: offsets,
            expected_duty: score,
            threshold,
        };
        if best
            .as_ref()
            .map(|b| plan.expected_duty > b.expected_duty)
            .unwrap_or(true)
        {
            best = Some(plan);
        }
    }
    best.expect("at least one restart")
}

/// The two-stage controller.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoStageCib {
    /// Stage-1 peak-optimized plan (Eq. 10).
    pub(crate) discovery: FrequencyPlan,
    /// Optimizer settings reused for stage 2.
    pub(crate) config: FreqSelConfig,
    /// Seed for deterministic stage-2 optimization.
    pub(crate) seed: u64,
}

impl TwoStageCib {
    /// Creates a controller from an existing discovery plan.
    pub fn new(discovery: FrequencyPlan, config: FreqSelConfig, seed: u64) -> Self {
        TwoStageCib {
            discovery,
            config,
            seed,
        }
    }

    /// Stage-2 transition: given the *measured* link margin (ratio of the
    /// discovery peak amplitude to the harvester threshold amplitude,
    /// above 1 once the tag wakes), returns the steady plan tuned to keep the
    /// envelope above threshold as long as possible.
    ///
    /// # Panics
    /// Panics if `margin <= 1` (the tag never woke; stay in discovery).
    pub fn steady_plan(&self, margin: f64) -> SteadyPlan {
        assert!(margin > 1.0, "stage 2 requires a positive margin");
        // The threshold in single-antenna units: the discovery peak
        // reaches ≈ expected_peak; threshold = peak/margin.
        let threshold = self.discovery.expected_peak / margin;
        optimize_duty(&self.config, threshold, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freqsel::optimize;

    fn cfg() -> FreqSelConfig {
        let mut c = FreqSelConfig::test_scale(5);
        c.mc_draws = 24;
        c.grid = 512;
        c
    }

    #[test]
    fn duty_decreases_with_threshold() {
        let mut rng = StdRng::seed_from_u64(1);
        let d_low = expected_duty(&crate::PAPER_OFFSETS_HZ, 1.0, 16, 512, &mut rng);
        let mut rng = StdRng::seed_from_u64(1);
        let d_high = expected_duty(&crate::PAPER_OFFSETS_HZ, 8.0, 16, 512, &mut rng);
        assert!(d_low > d_high);
        assert!(d_low > 0.5, "duty above 1σ threshold {d_low}");
        assert!(d_high < 0.05, "duty near ceiling {d_high}");
    }

    #[test]
    fn zero_threshold_full_duty() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = expected_duty(&[0.0, 7.0, 20.0], 0.0, 8, 256, &mut rng);
        assert!((d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn steady_plan_feasible_and_deterministic() {
        let c = cfg();
        let discovery = optimize(&c, 21);
        let controller = TwoStageCib::new(discovery.clone(), c, 22);
        let a = controller.steady_plan(2.0);
        let b = controller.steady_plan(2.0);
        assert_eq!(a, b);
        assert!(feasible(&a.offsets_hz, c.rms_limit_hz));
        assert_eq!(a.offsets_hz[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "positive margin")]
    fn stage2_requires_wakeup() {
        let c = cfg();
        let discovery = optimize(&c, 31);
        TwoStageCib::new(discovery, c, 32).steady_plan(0.9);
    }
}
