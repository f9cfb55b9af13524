//! Seeded experiment runners for every figure in the paper's evaluation.
//!
//! Each figure-level function takes a declarative [`Scenario`] (built-in
//! ones come from [`crate::scenario::builtin`]), the quick/full run mode
//! and the fields of the scenario's kind, and returns the statistics the
//! paper plots. The bench registry picks the experiment from the kind;
//! the figure modules (`ivn-bench`) format the result into the paper's
//! rows/series; integration tests assert their shapes. The positional
//! `*_threads` kernels remain for determinism tests and micro-benchmarks.
//!
//! All Monte-Carlo loops run on `ivn_runtime::par`'s scoped ensembles:
//! trial `i` draws from an RNG stream forked off the campaign seed
//! (`StdRng::seed_from_u64(seed).fork(i)`), so the results are
//! byte-identical at any worker-thread count — including the serial
//! fallback. The `*_threads` variants take an explicit thread count; the
//! plain forms use [`ivn_runtime::par::num_threads`].

use crate::baselines::blind_coherent_power;
use crate::body::{Placement, TagSpec};
use crate::cib::CibConfig;
use crate::freqsel::{optimize, pessimize, FrequencyPlan};
use crate::scenario::{FreqSelSpec, PlacementSpec, QuickFull, Scenario};
use crate::system::{IvnSystem, SystemConfig};
use ivn_dsp::complex::Complex64;
use ivn_dsp::stats::{Ecdf, Summary};
use ivn_dsp::units::dbm_to_watts;
use ivn_em::medium::Medium;
use ivn_runtime::par;
use ivn_runtime::rng::{Rng, StdRng};
use std::f64::consts::TAU;

/// Draws `n` unit-amplitude blind channels.
pub(crate) fn blind_channels<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|_| Complex64::from_polar(1.0, rng.random::<f64>() * TAU))
        .collect()
}

/// Rician K-factor used for the "measured in a room" campaigns (Figs. 9,
/// 11, 12): a dominant line-of-sight path plus indoor scatter. This is
/// what makes the *measured* gain-over-single-antenna exceed the
/// unit-amplitude analytic value — the single-antenna reference fades.
pub(crate) const LAB_RICIAN_K: f64 = 4.0;

/// Draws `n` blind channels with Rician-faded amplitudes (mean-square 1)
/// and uniform phases — the ensemble of a real room.
pub(crate) fn faded_channels<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    k_factor: f64,
) -> Vec<Complex64> {
    let los = (k_factor / (1.0 + k_factor)).sqrt();
    (0..n)
        .map(|_| {
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let scatter_amp = (-u.ln()).sqrt() / (1.0 + k_factor).sqrt();
            let scatter_ph = rng.random::<f64>() * TAU;
            let amp =
                (Complex64::from_real(los) + Complex64::from_polar(scatter_amp, scatter_ph)).norm();
            Complex64::from_polar(amp, rng.random::<f64>() * TAU)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 6 — CDF of the 5-antenna peak power gain, best vs worst plan.
// ---------------------------------------------------------------------

/// Monte-Carlo CDF of the peak power gain for an offset plan under random
/// phases (`trials` draws), on the default worker-pool width.
pub(crate) fn peak_gain_cdf(offsets_hz: &[f64], trials: usize, grid: usize, seed: u64) -> Ecdf {
    peak_gain_cdf_threads(offsets_hz, trials, grid, seed, par::num_threads())
}

/// `peak_gain_cdf` with an explicit worker-thread count. The result is
/// independent of `threads`: trial `i` always draws from stream `fork(i)`.
pub fn peak_gain_cdf_threads(
    offsets_hz: &[f64],
    trials: usize,
    grid: usize,
    seed: u64,
    threads: usize,
) -> Ecdf {
    let _span = ivn_runtime::span!("experiment.peak_gain_cdf_ns");
    ivn_runtime::obs_count!("experiment.trials", trials);
    let cfg = CibConfig {
        offsets_hz: offsets_hz.to_vec(),
        carrier_hz: crate::BEAMFORMER_CARRIER_HZ,
        grid,
    };
    let n = offsets_hz.len();
    let samples = par::ensemble_threads(threads, trials, seed, |rng, _| {
        cfg.received_peak_power(&blind_channels(rng, n))
    });
    Ecdf::new(samples)
}

/// Fig. 6 as one experiment: the Eq. 10 search's best and worst plans and
/// their gain CDFs under random channels.
#[derive(Debug, Clone)]
pub struct GainCdfResult {
    /// The optimizer's best plan.
    pub best: FrequencyPlan,
    /// The pessimizer's worst feasible plan.
    pub worst: FrequencyPlan,
    /// Gain CDF of the best plan.
    pub best_cdf: Ecdf,
    /// Gain CDF of the worst plan.
    pub worst_cdf: Ecdf,
}

/// Runs a `gain_cdf` scenario: optimize + pessimize `freqsel` with
/// `plan_seed`, then Monte-Carlo both CDFs on a `cdf_grid` envelope with
/// the scenario's trial seed.
pub fn gain_cdf_experiment(
    s: &Scenario,
    quick: bool,
    freqsel: &FreqSelSpec,
    plan_seed: u64,
    cdf_grid: QuickFull<usize>,
) -> GainCdfResult {
    let cfg = freqsel.resolve(quick);
    let best = optimize(&cfg, plan_seed);
    let worst = pessimize(&cfg, plan_seed);
    let trials = s.trial_count(quick);
    let grid = cdf_grid.get(quick);
    let best_cdf = peak_gain_cdf(&best.offsets_hz, trials, grid, s.seed);
    let worst_cdf = peak_gain_cdf(&worst.offsets_hz, trials, grid, s.seed);
    GainCdfResult {
        best,
        worst,
        best_cdf,
        worst_cdf,
    }
}

// ---------------------------------------------------------------------
// Fig. 9 — peak power gain vs number of antennas (nominal power budget).
// ---------------------------------------------------------------------

/// One Fig. 9 row: antenna count and the gain summary over `trials`
/// random channel conditions.
#[derive(Debug, Clone)]
pub struct GainVsAntennas {
    /// Antenna count.
    pub n: usize,
    /// Peak power gain over a single antenna (median, p10, p90).
    pub gain: Summary,
}

/// Runs a `gain_vs_antennas` scenario: gain vs the first `1..=n` of the
/// array's `n` antennas, the scenario's trial count per point.
pub fn gain_vs_antennas(s: &Scenario, quick: bool) -> Vec<GainVsAntennas> {
    gain_vs_antennas_threads(
        &s.cib(quick),
        s.trial_count(quick),
        s.seed,
        par::num_threads(),
    )
}

/// Positional kernel behind [`gain_vs_antennas`] over the antennas of
/// `cib`, with an explicit worker-thread count; the result is
/// independent of `threads`.
pub fn gain_vs_antennas_threads(
    cib: &CibConfig,
    trials: usize,
    seed: u64,
    threads: usize,
) -> Vec<GainVsAntennas> {
    let n_max = cib.n();
    let _span = ivn_runtime::span!("experiment.gain_vs_antennas_ns");
    ivn_runtime::obs_count!("experiment.trials", trials * n_max);
    ivn_runtime::obs_count!("experiment.rounds", n_max);
    (1..=n_max)
        .map(|n| {
            let cfg = cib.first(n);
            let gains =
                par::ensemble_threads(threads, trials, seed.wrapping_add(n as u64), |rng, _| {
                    let ch = faded_channels(rng, n, LAB_RICIAN_K);
                    cfg.received_peak_power(&ch) / ch[0].norm_sqr()
                });
            GainVsAntennas {
                n,
                gain: Summary::of(&gains).expect("non-empty"),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 10 — gain vs depth and orientation (stability).
// ---------------------------------------------------------------------

/// One Fig. 10 row: the swept parameter value and the gain summary.
#[derive(Debug, Clone)]
pub struct GainAtParameter {
    /// Depth in metres (Fig. 10a) or orientation in radians (Fig. 10b).
    pub parameter: f64,
    /// Peak power gain over a single antenna at the same location.
    pub gain: Summary,
}

/// Fig. 10a: gain vs depth in water, one row per entry of `depths_m`
/// (a `gain_stability` scenario's depths). The gain is the ratio of
/// CIB's peak power to the single-antenna power *at the same location*,
/// so the medium attenuation cancels and the result is flat (§6.1.1b).
pub fn gain_vs_depth(s: &Scenario, quick: bool, depths_m: &[f64]) -> Vec<GainAtParameter> {
    let cfg = s.cib(quick);
    let n = s.array.n_antennas;
    let tag = s.tag.spec();
    let eirp = dbm_to_watts(s.eirp_dbm);
    let trials = s.trial_count(quick);
    depths_m
        .iter()
        .enumerate()
        .map(|(di, &d)| {
            let placement = Placement::water_tank(d);
            let gains = par::ensemble(trials, s.seed.wrapping_add(di as u64 * 977), |rng, _| {
                let trial = placement.draw_trial(rng, n, &tag, eirp, cfg.carrier_hz);
                let single = trial.channels[0].norm_sqr();
                cfg.received_peak_power(&trial.channels) / single
            });
            GainAtParameter {
                parameter: d,
                gain: Summary::of(&gains).expect("non-empty"),
            }
        })
        .collect()
}

/// Fig. 10b: gain vs receive-antenna orientation, one row per entry of
/// `orientations_rad` (seed stream `seed + 1` so the two panels draw
/// independently). Orientation scales every antenna's channel equally,
/// so the gain is flat.
pub fn gain_vs_orientation(
    s: &Scenario,
    quick: bool,
    orientations_rad: &[f64],
) -> Vec<GainAtParameter> {
    let cfg = s.cib(quick);
    let n = s.array.n_antennas;
    let tag = s.tag.spec();
    let trials = s.trial_count(quick);
    let seed = s.seed.wrapping_add(1);
    orientations_rad
        .iter()
        .enumerate()
        .map(|(oi, &theta)| {
            let orient = tag.antenna.orientation_factor(theta);
            let gains = par::ensemble(trials, seed.wrapping_add(oi as u64 * 7919), |rng, _| {
                let channels: Vec<Complex64> = blind_channels(rng, n)
                    .into_iter()
                    .map(|c| c * orient.sqrt())
                    .collect();
                let single = channels[0].norm_sqr();
                cfg.received_peak_power(&channels) / single
            });
            GainAtParameter {
                parameter: theta,
                gain: Summary::of(&gains).expect("non-empty"),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 11 — gain across media, CIB vs the 10-antenna baseline.
// ---------------------------------------------------------------------

/// One Fig. 11 bar pair.
#[derive(Debug, Clone)]
pub struct MediaGain {
    /// Medium name.
    pub medium: String,
    /// CIB gain over a single antenna.
    pub cib: Summary,
    /// Blind 10-antenna baseline gain over a single antenna.
    pub baseline: Summary,
}

/// Runs a `media_gain` scenario over the paper's seven media.
pub fn gain_across_media(s: &Scenario, quick: bool) -> Vec<MediaGain> {
    let trials = s.trial_count(quick);
    let _span = ivn_runtime::span!("experiment.gain_across_media_ns");
    ivn_runtime::obs_count!("experiment.trials", trials * 7);
    let n = s.array.n_antennas;
    let cib = s.cib(quick);
    Medium::figure11_media()
        .into_iter()
        .enumerate()
        .map(|(mi, medium)| {
            // Bulk attenuation is common to all antennas, so the gain
            // over a single antenna is attenuation-free — the medium
            // randomizes *phases*, which every medium does equally.
            // This is the paper's Fig. 11 point: the gain is
            // medium-independent. Small-scale Rician fading supplies
            // the per-antenna amplitude spread of a real room.
            let pairs = par::ensemble(trials, s.seed.wrapping_add(mi as u64 * 104729), |rng, _| {
                let channels = faded_channels(rng, n, LAB_RICIAN_K);
                let single = channels[0].norm_sqr();
                (
                    cib.received_peak_power(&channels) / single,
                    blind_coherent_power(&channels) / single,
                )
            });
            let (cib_gains, base_gains): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            MediaGain {
                medium: medium.name,
                cib: Summary::of(&cib_gains).expect("non-empty"),
                baseline: Summary::of(&base_gains).expect("non-empty"),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 12 — CDF of the CIB / baseline power ratio per location.
// ---------------------------------------------------------------------

/// Runs a `ratio_cdf` scenario: the per-location ratio of CIB peak
/// power to the blind baseline's power, as an ECDF.
pub fn cib_vs_baseline_cdf(s: &Scenario, quick: bool) -> Ecdf {
    let trials = s.trial_count(quick);
    let _span = ivn_runtime::span!("experiment.cib_vs_baseline_ns");
    ivn_runtime::obs_count!("experiment.trials", trials);
    let n = s.array.n_antennas;
    let cib = s.cib(quick);
    let ratios = par::ensemble(trials, s.seed, |rng, _| {
        let channels = faded_channels(rng, n, LAB_RICIAN_K);
        cib.received_peak_power(&channels) / blind_coherent_power(&channels).max(1e-12)
    });
    Ecdf::new(ratios)
}

/// Ablation (§6.1.1c footnote): oracle coherent beamforming vs the blind
/// baseline — in non-line-of-sight media, coherent precoding without
/// valid channel estimates is no better than the baseline. Returns the
/// ECDF of MRT-with-stale-phases / baseline ratios.
pub fn stale_mrt_vs_baseline_cdf(trials: usize, seed: u64) -> Ecdf {
    let ratios = par::ensemble(trials, seed, |rng, _| {
        // The "coherent beamformer" applied precoding for a *previous*
        // channel draw; the medium shifted the phases since.
        let stale = blind_channels(rng, 10);
        let current = blind_channels(rng, 10);
        let precoded: Vec<Complex64> = current
            .iter()
            .zip(&stale)
            .map(|(h, s)| *h * s.conj())
            .collect();
        let coherent_power = precoded.iter().copied().sum::<Complex64>().norm_sqr();
        coherent_power / blind_coherent_power(&current).max(1e-12)
    });
    Ecdf::new(ratios)
}

// ---------------------------------------------------------------------
// Fig. 13 — range/depth vs number of antennas, both tags.
// ---------------------------------------------------------------------

/// One Fig. 13 data point.
#[derive(Debug, Clone)]
pub struct RangePoint {
    /// Antenna count.
    pub n: usize,
    /// Maximum operating range/depth, metres.
    pub range_m: f64,
}

/// Runs a `range` scenario: max range vs the first `1..=n_max` antennas
/// of the scenario's array for its tag, in air for a free-space
/// placement and water depth for everything else.
pub fn range_vs_antennas(s: &Scenario, quick: bool, n_max: QuickFull<usize>) -> Vec<RangePoint> {
    let n_max = n_max.get(quick);
    let in_air = matches!(s.placement, PlacementSpec::FreeSpace { .. });
    let tag = s.tag.spec();
    let cib = s.cib(quick);
    let _span = ivn_runtime::span!("experiment.range_vs_antennas_ns");
    ivn_runtime::obs_count!("experiment.rounds", n_max);
    // Each antenna count is an independent bisection search with its own
    // seed, so the sweep parallelizes over `n` rather than over trials.
    let ns: Vec<usize> = (1..=n_max).collect();
    par::par_map(&ns, |_, &n| {
        let sys = IvnSystem::new(SystemConfig::new(cib.first(n), tag.clone(), s.eirp_dbm));
        let mut rng = StdRng::seed_from_u64(s.seed.wrapping_add(n as u64 * 31));
        let range_m = if in_air {
            sys.max_range_air(&mut rng, 0.05, 80.0, 2)
        } else {
            sys.max_depth_water(&mut rng, 0.5, 2)
        };
        RangePoint { n, range_m }
    })
}

// ---------------------------------------------------------------------
// §6.2 / Fig. 15 — in-vivo trials.
// ---------------------------------------------------------------------

/// One in-vivo campaign row.
#[derive(Debug, Clone)]
pub struct InVivoRow {
    /// Placement name.
    pub placement: String,
    /// Tag name.
    pub tag: String,
    /// Successful trials.
    pub successes: usize,
    /// Total trials.
    pub trials: usize,
    /// Median preamble correlation across trials.
    pub median_correlation: f64,
}

/// Runs an `in_vivo` scenario — the §6.2 swine campaign: gastric and
/// subcutaneous placements × standard and miniature tags, the scenario's
/// trial count per cell with its antenna array.
pub fn in_vivo_campaign(s: &Scenario, quick: bool) -> Vec<InVivoRow> {
    let trials = s.trial_count(quick);
    let _span = ivn_runtime::span!("experiment.in_vivo_campaign_ns");
    ivn_runtime::obs_count!("experiment.trials", trials * 4);
    ivn_runtime::obs_count!("experiment.rounds", 4);
    let placements = [Placement::swine_gastric(), Placement::swine_subcutaneous()];
    let tags = [TagSpec::standard(), TagSpec::miniature()];
    let cib = s.cib(quick);
    let mut rows = Vec::new();
    for (pi, placement) in placements.iter().enumerate() {
        for (ti, tag) in tags.iter().enumerate() {
            let sys = IvnSystem::new(SystemConfig::new(cib.clone(), tag.clone(), s.eirp_dbm));
            let outcomes = par::ensemble(
                trials,
                s.seed.wrapping_add((pi * 2 + ti) as u64 * 65537),
                |rng, _| {
                    let out = sys.run_session(rng, placement);
                    (out.success(), out.correlation)
                },
            );
            let successes = outcomes.iter().filter(|(ok, _)| *ok).count();
            let correlations: Vec<f64> = outcomes.iter().map(|(_, c)| *c).collect();
            rows.push(InVivoRow {
                placement: placement.name.clone(),
                tag: tag.power.name.clone(),
                successes,
                trials,
                median_correlation: ivn_dsp::stats::median(&correlations).unwrap_or(0.0),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::coherent_mrt_power;

    /// Mean CIB-to-MRT peak-power ratio over random channels: how close
    /// blind CIB gets to the channel-aware optimum.
    fn cib_mrt_efficiency(n: usize, trials: usize, seed: u64) -> f64 {
        let cib = CibConfig::paper_prototype_n(n.min(10));
        let ratios = par::ensemble(trials, seed, |rng, _| {
            let ch = blind_channels(rng, n.min(10));
            cib.received_peak_power(&ch) / coherent_mrt_power(&ch)
        });
        ratios.iter().sum::<f64>() / trials as f64
    }

    #[test]
    fn fig6_best_vs_worst_plan() {
        let best = peak_gain_cdf(&crate::PAPER_OFFSETS_HZ[..5], 150, 2048, 6);
        let worst = peak_gain_cdf(&[0.0, 1.0, 2.0, 3.0, 4.0], 150, 2048, 6);
        // Best: 90 % of trials above 0.85·25.
        assert!(
            best.eval(21.25) < 0.2,
            "best CDF at 21.25: {}",
            best.eval(21.25)
        );
        // Worst: most trials below that.
        assert!(worst.quantile(0.5).unwrap() < best.quantile(0.5).unwrap());
    }

    #[test]
    fn cib_efficiency_grows_toward_one() {
        // With 10 tones scanning a 1 s period, blind CIB recovers ~60 % of
        // the channel-aware MRT peak power on average (≈ 0.78 of the
        // amplitude ceiling).
        let e = cib_mrt_efficiency(10, 40, 7);
        assert!(e > 0.45 && e <= 1.0, "efficiency {e}");
        // Fewer antennas align better.
        let e3 = cib_mrt_efficiency(3, 40, 7);
        assert!(e3 > e, "e3 {e3} vs e10 {e}");
    }

    #[test]
    fn stale_mrt_no_better_than_baseline() {
        let cdf = stale_mrt_vs_baseline_cdf(300, 8);
        let median = cdf.quantile(0.5).unwrap();
        assert!(median < 3.0, "stale MRT median ratio {median}");
    }
}
