//! Frequency-plan optimization — the paper's Eq. 10.
//!
//! Finds integer offsets `Δf₂…Δf_N` maximizing the Monte-Carlo expectation
//! of the peak envelope over random phase draws, subject to the Eq. 9 RMS
//! constraint. The paper solves this with a one-time Monte-Carlo
//! simulation ("less than 5 mins in MATLAB"); we use seeded random-restart
//! hill climbing, parallelized across restarts on the `ivn-runtime` scoped
//! worker pool. A worst-set search (same machinery, minimizing) provides
//! Fig. 6's bad example.

use crate::kernels::{CrnKernel, EnvelopeScratch};
use crate::waveform::rms_offset;
use ivn_runtime::rng::{Rng, StdRng};

/// Optimizer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreqSelConfig {
    /// Number of antennas N (tones including the zero-offset reference).
    pub n_antennas: usize,
    /// RMS-offset ceiling from Eq. 9, Hz.
    pub rms_limit_hz: f64,
    /// Largest single offset considered, Hz.
    pub max_offset_hz: u32,
    /// Monte-Carlo phase draws per objective evaluation.
    pub mc_draws: usize,
    /// Time-grid resolution for the per-draw peak search.
    pub grid: usize,
    /// Random restarts.
    pub restarts: usize,
    /// Hill-climbing iterations per restart.
    pub iterations: usize,
}

impl FreqSelConfig {
    /// A fast configuration for tests.
    pub fn test_scale(n: usize) -> Self {
        FreqSelConfig {
            n_antennas: n,
            rms_limit_hz: 199.0,
            max_offset_hz: 160,
            mc_draws: 32,
            grid: 512,
            restarts: 3,
            iterations: 60,
        }
    }
}

/// A selected frequency plan with its score.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyPlan {
    /// Offsets in Hz, first always 0, ascending.
    pub offsets_hz: Vec<f64>,
    /// Expected peak envelope (Monte-Carlo estimate), in units of a single
    /// antenna's amplitude; the ideal ceiling is N.
    pub expected_peak: f64,
}

impl FrequencyPlan {
    /// Expected peak *power* gain over a single antenna, `(E[peak])²`.
    pub fn expected_power_gain(&self) -> f64 {
        self.expected_peak * self.expected_peak
    }

    /// RMS of the offsets.
    pub fn rms_hz(&self) -> f64 {
        rms_offset(&self.offsets_hz)
    }
}

/// Monte-Carlo estimate of `E_β[max_t Y(t)]` for an offset set, using
/// `draws` random phase vectors from `rng`.
///
/// Allocates one [`EnvelopeScratch`] for the call; the crate's batched
/// evaluation loops hold their own scratch and use
/// `expected_peak_scratch`.
pub fn expected_peak<R: Rng + ?Sized>(
    offsets_hz: &[f64],
    draws: usize,
    grid: usize,
    rng: &mut R,
) -> f64 {
    let mut scratch = EnvelopeScratch::new();
    expected_peak_scratch(&mut scratch, offsets_hz, draws, grid, rng)
}

/// [`expected_peak`] on a caller-supplied workspace: zero allocations in
/// steady state (the scratch's grid and phase buffers are reused across
/// calls and draws).
pub(crate) fn expected_peak_scratch<R: Rng + ?Sized>(
    scratch: &mut EnvelopeScratch,
    offsets_hz: &[f64],
    draws: usize,
    grid: usize,
    rng: &mut R,
) -> f64 {
    assert!(draws > 0);
    let _span = ivn_runtime::span!("freqsel.mc_eval_ns");
    let _kernel_span = ivn_runtime::span!("freqsel.kernel_batch_ns");
    ivn_runtime::obs_count!("freqsel.mc_evals", 1);
    ivn_runtime::obs_count!("freqsel.mc_draws", draws);
    scratch.expected_peak(offsets_hz, draws, grid, rng)
}

/// Whether an offset set satisfies the RMS constraint.
pub fn feasible(offsets_hz: &[f64], rms_limit_hz: f64) -> bool {
    rms_offset(offsets_hz) <= rms_limit_hz
}

fn draw_feasible_set<R: Rng + ?Sized>(cfg: &FreqSelConfig, rng: &mut R) -> Vec<u32> {
    // Draw distinct nonzero offsets until feasible (rejection sampling with
    // shrinking range).
    let mut range = cfg.max_offset_hz;
    loop {
        let mut set = std::collections::BTreeSet::new();
        while set.len() < cfg.n_antennas - 1 {
            set.insert(rng.random_range(1..=range));
        }
        let offsets: Vec<f64> = std::iter::once(0.0)
            .chain(set.iter().map(|&v| v as f64))
            .collect();
        if feasible(&offsets, cfg.rms_limit_hz) {
            return std::iter::once(0u32).chain(set).collect();
        }
        // Rejection-sampling cost is invisible in wall-clock profiles
        // (the draws are cheap but can loop many times at tight RMS
        // limits); count them so tight configs show up in reports.
        ivn_runtime::obs_count!("freqsel.rejection_draws", 1);
        range = (range * 3 / 4).max(cfg.n_antennas as u32);
    }
}

fn climb(cfg: &FreqSelConfig, seed: u64, maximize: bool) -> FrequencyPlan {
    let _span = ivn_runtime::span!("freqsel.restart_ns");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = draw_feasible_set(cfg, &mut rng);
    // Common random numbers: one evaluation seed reused for every
    // candidate in this restart, so the climb compares candidates on the
    // same phase draws (variance reduction). The CRN kernel fixes the
    // phase draws once and caches the per-draw complex grids of the
    // current set, so each one-tone candidate costs O(grid·draws)
    // instead of O(N·grid·draws).
    let eval_seed: u64 = rng.random();
    let offsets: Vec<f64> = current.iter().map(|&v| v as f64).collect();
    let mut eval_rng = StdRng::seed_from_u64(eval_seed);
    let mut kernel = CrnKernel::new(&offsets, cfg.mc_draws, cfg.grid, &mut eval_rng);
    let mut best_score = kernel.score_current();
    // Maintained incrementally so feasibility checks allocate nothing.
    let mut sum_sq: f64 = current.iter().map(|&v| (v as f64) * (v as f64)).sum();
    let n = current.len() as f64;
    for _ in 0..cfg.iterations {
        // Perturb one non-reference offset.
        let idx = rng.random_range(1..current.len());
        let delta = *[1i64, -1, 2, -2, 5, -5, 11, -11, 23, -23]
            .get(rng.random_range(0..10usize))
            .expect("in range");
        let newv = (current[idx] as i64 + delta).clamp(1, cfg.max_offset_hz as i64) as u32;
        if current.contains(&newv) {
            continue; // collision with an existing tone
        }
        let old = current[idx] as f64;
        let new = newv as f64;
        let cand_sum_sq = sum_sq - old * old + new * new;
        if (cand_sum_sq / n).sqrt() > cfg.rms_limit_hz {
            continue; // infeasible — skip without touching the kernel
        }
        let s = {
            let _span = ivn_runtime::span!("freqsel.kernel_incr_ns");
            kernel.score_swap(idx, new)
        };
        let better = if maximize {
            s > best_score
        } else {
            s < best_score
        };
        if better {
            best_score = s;
            kernel.commit_swap(idx, new);
            current[idx] = newv;
            sum_sq = cand_sum_sq;
        }
    }
    let mut offsets: Vec<f64> = current.iter().map(|&v| v as f64).collect();
    offsets.sort_by(f64::total_cmp);
    FrequencyPlan {
        offsets_hz: offsets,
        expected_peak: best_score,
    }
}

/// Runs the full optimization (Eq. 10): random-restart hill climbing, with
/// restarts in parallel. Deterministic for a given `seed`.
pub fn optimize(cfg: &FreqSelConfig, seed: u64) -> FrequencyPlan {
    assert!(cfg.n_antennas >= 2, "need at least two antennas");
    run_restarts(cfg, seed, true)
}

/// Finds a deliberately *bad* feasible plan (Fig. 6's "worst frequency"
/// curve) by minimizing the same objective.
pub fn pessimize(cfg: &FreqSelConfig, seed: u64) -> FrequencyPlan {
    assert!(cfg.n_antennas >= 2, "need at least two antennas");
    run_restarts(cfg, seed, false)
}

fn run_restarts(cfg: &FreqSelConfig, seed: u64, maximize: bool) -> FrequencyPlan {
    // Each restart is seeded independently, so the pool's scheduling
    // cannot affect the result — only how fast it arrives. The restarts
    // stay on scoped threads even inside a campaign's pool worker: on
    // `WorkerPool::global().map_indexed`, where a nested call runs
    // inline, `campaign` `wall_s` got worse (2-core box, `--seconds 5
    // --trace 0`, alternating pairs): median 0.2735 → 0.2857 s (+4.5%),
    // worse in 8 of 10 pairs on seeds 401–410 and 6 of 8 on 301–308.
    let restarts: Vec<u64> = (0..cfg.restarts as u64).collect();
    let plans = ivn_runtime::par::par_map(&restarts, |_, &r| {
        climb(cfg, seed.wrapping_add(r * 0x9E37), maximize)
    });
    plans
        .into_iter()
        .max_by(|a, b| {
            let (x, y) = (a.expected_peak, b.expected_peak);
            if maximize {
                x.total_cmp(&y)
            } else {
                y.total_cmp(&x)
            }
        })
        .expect("at least one restart")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAPER_OFFSETS_HZ;

    #[test]
    fn expected_peak_of_single_tone_is_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = expected_peak(&[0.0], 16, 64, &mut rng);
        assert!((e - 1.0).abs() < 1e-9);
    }

    #[test]
    fn paper_plan_scores_high() {
        // The paper's published set recovers ~0.75 of the N = 10 amplitude
        // ceiling in expectation — far above any same-frequency scheme
        // (√(π/4·10) ≈ 2.8) and close to what any feasible integer plan
        // achieves under the 199 Hz RMS cap.
        let mut rng = StdRng::seed_from_u64(2);
        let e = expected_peak(&PAPER_OFFSETS_HZ, 64, 2048, &mut rng);
        assert!(e > 7.2, "expected peak {e}");
    }

    #[test]
    fn degenerate_plan_scores_low() {
        // All tones at the same frequency cannot scan: expected peak is
        // the |sum of random phasors| ≈ √(π/4·N) ≪ N.
        let mut rng = StdRng::seed_from_u64(3);
        let e = expected_peak(&[0.0; 5], 128, 64, &mut rng);
        assert!(e < 3.0, "degenerate expected peak {e}");
    }

    #[test]
    fn feasibility_check() {
        assert!(feasible(&PAPER_OFFSETS_HZ, 199.0));
        assert!(!feasible(&[0.0, 500.0, 700.0], 199.0));
    }

    #[test]
    fn optimize_produces_feasible_high_scoring_plan() {
        let cfg = FreqSelConfig::test_scale(5);
        let plan = optimize(&cfg, 42);
        assert_eq!(plan.offsets_hz.len(), 5);
        assert_eq!(plan.offsets_hz[0], 0.0);
        assert!(feasible(&plan.offsets_hz, cfg.rms_limit_hz));
        // 5 antennas: a good plan should reach ≥ 85 % of ceiling.
        assert!(plan.expected_peak > 4.2, "peak {}", plan.expected_peak);
        // Offsets distinct and sorted.
        for w in plan.offsets_hz.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn pessimize_is_clearly_worse() {
        let cfg = FreqSelConfig::test_scale(5);
        let best = optimize(&cfg, 7);
        let worst = pessimize(&cfg, 7);
        assert!(feasible(&worst.offsets_hz, cfg.rms_limit_hz));
        assert!(
            best.expected_peak > worst.expected_peak + 0.2,
            "best {} worst {}",
            best.expected_peak,
            worst.expected_peak
        );
    }

    #[test]
    fn optimize_deterministic_per_seed() {
        let cfg = FreqSelConfig::test_scale(4);
        let a = optimize(&cfg, 9);
        let b = optimize(&cfg, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn power_gain_squares_peak() {
        let plan = FrequencyPlan {
            offsets_hz: vec![0.0, 7.0],
            expected_peak: 1.9,
        };
        assert!((plan.expected_power_gain() - 3.61).abs() < 1e-12);
        assert!((plan.rms_hz() - (49.0f64 / 2.0).sqrt()).abs() < 1e-9);
    }
}
