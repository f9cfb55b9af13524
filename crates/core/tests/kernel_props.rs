//! Property tests for the envelope kernels (`ivn_core::kernels`): every
//! fast path — batched scratch fill, FFT synthesis, incremental CRN
//! swap, the keyed downlink window — must agree with the reference
//! `CibEnvelope::envelope` sum to 1e-9, the prefiltered grid argmax must
//! pick exactly the index of a full `hypot` scan, the chunked period
//! stream, its peeks and the early-stopping power-up must reproduce the
//! whole-grid fill bit for bit, and the optimizer built on them must stay
//! deterministic per seed. The tone bank, the four-lane `|z|²` scans and
//! `peak_over_period`'s hoisted refinement are pinned bit for bit against
//! test-local copies of the tone-at-a-time passes, serial scans and
//! pointwise refinement they replaced.

use ivn_core::body::{Placement, TagSpec};
use ivn_core::cib::CibConfig;
use ivn_core::freqsel::{optimize, pessimize, FreqSelConfig};
use ivn_core::kernels::{
    envelope_window, fft_pays_off, grid_argmax, max_norm_sqr, tone_bank, tone_sum, CrnKernel,
    EnvelopeScratch, RENORM_INTERVAL,
};
use ivn_core::system::{power_up_over_period, WAKE_PROBE};
use ivn_core::waveform::CibEnvelope;
use ivn_dsp::complex::Complex64;
use ivn_dsp::units::dbm_to_watts;
use ivn_harvester::TagPowerProfile;
use ivn_runtime::prop::{any, btree_set, vec as pvec, Just, Strategy};
use ivn_runtime::rng::{Rng, StdRng};
use ivn_runtime::{prop_assert, prop_assert_eq, prop_assume, props};
use std::f64::consts::TAU;

fn offsets() -> impl Strategy<Value = Vec<f64>> {
    btree_set(1u32..300, 1..9).prop_map(|set| {
        std::iter::once(0.0)
            .chain(set.into_iter().map(|v| v as f64))
            .collect()
    })
}

fn phases(n: usize) -> impl Strategy<Value = Vec<f64>> {
    pvec(0.0f64..std::f64::consts::TAU, n..=n)
}

fn offsets_and_phases() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    offsets().prop_flat_map(|o| {
        let n = o.len();
        (Just(o), phases(n))
    })
}

/// Power-of-two grids large enough to resolve the offset range.
fn pow2_grid() -> impl Strategy<Value = usize> {
    (9u32..12).prop_map(|p| 1usize << p)
}

/// Window lengths around the four-rotator remainder (`len mod 4`) and
/// the [`ivn_core::kernels::RENORM_INTERVAL`] resync boundary.
const WINDOW_LENS: [usize; 8] = [0, 1, 3, 4, 255, 256, 257, 1000];

fn window_len() -> impl Strategy<Value = usize> {
    (0..WINDOW_LENS.len()).prop_map(|i| WINDOW_LENS[i])
}

/// Non-integer, possibly negative offsets with per-tone amplitudes.
fn free_tones() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
    (1usize..=10).prop_flat_map(|n| {
        (
            pvec(-400.0f64..400.0, n..=n),
            phases(n),
            pvec(0.05f64..2.0, n..=n),
        )
    })
}

/// Window start instants on both sides of the `[0, 1)` period.
fn window_start() -> impl Strategy<Value = f64> {
    (0u32..3, 0.0f64..1.0).prop_map(|(side, u)| match side {
        0 => -3.0 * u,
        1 => u,
        _ => 1.0 + 4.0 * u,
    })
}

/// Command rates, including non-integer ones.
fn window_rate() -> impl Strategy<Value = f64> {
    (0u32..4, 0.0f64..1.0).prop_map(|(which, u)| match which {
        0 => 400e3,
        1 => 2048.0,
        _ => 1e3 + 2e6 * u,
    })
}

/// Period grids around the chunk boundary, plus the session sizes.
const STREAM_GRIDS: [usize; 8] = [1, 3, 255, 256, 257, 1000, 2048, 4096];

fn stream_grid() -> impl Strategy<Value = usize> {
    (0..STREAM_GRIDS.len()).prop_map(|i| STREAM_GRIDS[i])
}

/// Integer offsets (one-period periodic) or free ones, with amplitudes.
fn stream_tones() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
    (any::<bool>(), free_tones()).prop_map(|(integer, (offs, ph, amps))| {
        let offs = if integer {
            offs.iter().map(|f| f.round()).collect()
        } else {
            offs
        };
        (offs, ph, amps)
    })
}

/// The whole-grid fill `sample_period` used before it streamed: one
/// `EnvelopeScratch::fill` and a `hypot` per sample.
fn whole_grid_period(offs: &[f64], ph: &[f64], amps: &[f64], grid: usize) -> Vec<f64> {
    let mut s = EnvelopeScratch::new();
    s.fill(offs, ph, Some(amps), grid);
    s.grid().iter().map(|z| z.norm()).collect()
}

/// The concatenated chunk stream, checking every chunk but the last is
/// exactly `RENORM_INTERVAL` long.
fn streamed_period(env: &CibEnvelope, grid: usize) -> Vec<f64> {
    let mut chunks = env.period_chunks(grid);
    let mut out = Vec::new();
    while let Some(chunk) = chunks.next_chunk() {
        assert!(!chunk.is_empty() && chunk.len() <= RENORM_INTERVAL);
        assert!(
            out.len() % RENORM_INTERVAL == 0,
            "short chunk before the last"
        );
        out.extend_from_slice(chunk);
    }
    assert!(
        chunks.next_chunk().is_none(),
        "stream restarted after its end"
    );
    out
}

/// Probe lengths around the quad remainder, the power-up probe and the
/// chunk length.
const PEEK_LENS: [usize; 9] = [1, 3, 4, 15, 16, 17, 255, 256, 300];

/// Period grids of one partial quad, one short chunk, a chunk and a bit,
/// and the session size.
const PEEK_GRIDS: [usize; 7] = [1, 2, 15, 16, 17, 257, 2048];

/// `streamed_period` with a `peek(m)` before every chunk: each peek,
/// taken twice, must be the first `min(m, len)` bits of the chunk that
/// follows, and the stream must end with a `None` peek.
fn peeked_period(env: &CibEnvelope, grid: usize, m: usize) -> Vec<f64> {
    let mut chunks = env.period_chunks(grid);
    let mut out = Vec::new();
    while let Some(probe) = chunks.peek(m) {
        let probe = bits(probe);
        assert_eq!(
            bits(chunks.peek(m).unwrap()),
            probe,
            "peek is not repeatable"
        );
        let chunk = chunks.next_chunk().expect("a peeked chunk exists");
        assert_eq!(probe.len(), m.min(chunk.len()), "probe length");
        assert_eq!(
            bits(&chunk[..probe.len()]),
            probe,
            "probe is not the chunk's prefix"
        );
        out.extend_from_slice(chunk);
    }
    assert!(
        chunks.next_chunk().is_none(),
        "peek ended before the stream"
    );
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|y| y.to_bits()).collect()
}

/// The whole-period power-up loop the campaign trial and
/// `IvnSystem::run_session` ran before the early stop: the full
/// `rate`-point envelope, squared, integrated to the end.
fn whole_period_power_up(
    power: &TagPowerProfile,
    (offs, ph, amps): (&[f64], &[f64], &[f64]),
    rate: f64,
) -> (bool, Option<f64>) {
    let watts: Vec<f64> = whole_grid_period(offs, ph, amps, rate as usize)
        .iter()
        .map(|a| a * a)
        .collect();
    let up = power.power_up(&watts, rate);
    (up.powered, up.time_to_power_s)
}

/// The `hypot`-scan argmax the prefiltered kernel must reproduce.
fn reference_argmax(grid: &[Complex64]) -> Option<usize> {
    grid.iter()
        .map(|z| z.norm())
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(k, _)| k)
}

props! {
    cases = 48;

    fn scratch_fill_matches_reference_pointwise(
        (offs, ph) in offsets_and_phases(), grid in pow2_grid()
    ) {
        // The batched allocation-free fill (whichever path `fill`
        // auto-selects) reproduces |Σᵢ e^{j(2πfᵢt+βᵢ)}| on every grid
        // sample.
        let env = CibEnvelope::new(&offs, &ph);
        let mut s = EnvelopeScratch::new();
        s.fill(&offs, &ph, None, grid);
        for (k, z) in s.grid().iter().enumerate() {
            let t = k as f64 / grid as f64;
            prop_assert!(
                (z.norm() - env.envelope(t)).abs() < 1e-9,
                "sample {k}/{grid} diverged"
            );
        }
    }

    fn fft_fill_matches_direct_fill(
        (offs, ph) in offsets_and_phases(), grid in pow2_grid()
    ) {
        let mut direct = EnvelopeScratch::new();
        let mut fft = EnvelopeScratch::new();
        direct.fill_direct(&offs, &ph, None, grid);
        fft.fill_fft(&offs, &ph, None, grid);
        for (k, (a, b)) in direct.grid().iter().zip(fft.grid()).enumerate() {
            prop_assert!((*a - *b).norm() < 1e-9, "sample {k}/{grid} diverged");
        }
    }

    fn sample_period_fft_matches_reference(
        (offs, ph) in offsets_and_phases(), grid in pow2_grid()
    ) {
        let env = CibEnvelope::new(&offs, &ph);
        let samples = env.sample_period_fft(grid);
        for (k, y) in samples.iter().enumerate() {
            let t = k as f64 / grid as f64;
            prop_assert!(
                (y - env.envelope(t)).abs() < 1e-9,
                "sample {k}/{grid} diverged"
            );
        }
    }

    fn crn_swap_matches_fresh_evaluation(
        offs in offsets(), seed in any::<u64>(),
        idx_pick in any::<u32>(), new_off in 1u32..300
    ) {
        // Scoring a one-tone perturbation incrementally (copy cached
        // grid, −old +new) must equal a from-scratch evaluation of the
        // perturbed set under the same phase draws.
        let n = offs.len();
        prop_assume!(n >= 2);
        let idx = 1 + (idx_pick as usize) % (n - 1); // never tone 0
        let draws = 4;
        let grid = 512;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kernel = CrnKernel::new(&offs, draws, grid, &mut rng);
        let incr = kernel.score_swap(idx, new_off as f64);

        let mut swapped = offs.clone();
        swapped[idx] = new_off as f64;
        let mut s = EnvelopeScratch::new();
        let mut acc = 0.0;
        for d in 0..draws {
            let ph = kernel.draw_phases(d).to_vec();
            s.fill(&swapped, &ph, None, grid);
            acc += s.peak(&swapped, &ph, None);
        }
        let fresh = acc / draws as f64;
        prop_assert!(
            (incr - fresh).abs() < 1e-9,
            "incremental {incr} vs fresh {fresh}"
        );
    }

    fn crn_commit_keeps_scores_consistent(
        offs in offsets(), seed in any::<u64>(), new_off in 1u32..300
    ) {
        // After committing a swap, the cached grids must score the new
        // set exactly as a kernel built directly on it would.
        let n = offs.len();
        prop_assume!(n >= 2);
        let draws = 3;
        let grid = 512;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kernel = CrnKernel::new(&offs, draws, grid, &mut rng);
        kernel.score_swap(n - 1, new_off as f64);
        kernel.commit_swap(n - 1, new_off as f64);
        let committed = kernel.score_current();

        let mut swapped = offs.clone();
        swapped[n - 1] = new_off as f64;
        let mut s = EnvelopeScratch::new();
        let mut acc = 0.0;
        for d in 0..draws {
            let ph = kernel.draw_phases(d).to_vec();
            s.fill(&swapped, &ph, None, grid);
            acc += s.peak(&swapped, &ph, None);
        }
        let fresh = acc / draws as f64;
        prop_assert!(
            (committed - fresh).abs() < 1e-9,
            "committed {committed} vs fresh {fresh}"
        );
    }

    fn optimize_deterministic_per_seed(seed in any::<u64>()) {
        let cfg = FreqSelConfig {
            n_antennas: 3,
            rms_limit_hz: 199.0,
            max_offset_hz: 96,
            mc_draws: 4,
            grid: 128,
            restarts: 2,
            iterations: 10,
        };
        let a = optimize(&cfg, seed);
        let b = optimize(&cfg, seed);
        prop_assert_eq!(a.offsets_hz, b.offsets_hz);
        prop_assert_eq!(a.expected_peak, b.expected_peak);
        let p = pessimize(&cfg, seed);
        let q = pessimize(&cfg, seed);
        prop_assert_eq!(p.offsets_hz, q.offsets_hz);
        prop_assert_eq!(p.expected_peak, q.expected_peak);
    }

    fn envelope_window_matches_pointwise(
        (offs, ph, amps) in free_tones(),
        len in window_len(),
        t0 in window_start(),
        rate in window_rate()
    ) {
        let mut out = vec![f64::NAN; len];
        envelope_window(&offs, &ph, Some(&amps), t0, rate, &mut out);
        let ceiling: f64 = amps.iter().sum();
        for (k, y) in out.iter().enumerate() {
            let direct = tone_sum(&offs, &ph, Some(&amps), t0 + k as f64 / rate).norm();
            prop_assert!(
                (y - direct).abs() <= 1e-9 * ceiling,
                "sample {k}/{len} at t0 {t0}, rate {rate}: {y} vs {direct}"
            );
        }
    }

    fn keyed_window_matches_pointwise_profile(
        (offs, ph, amps) in free_tones(),
        levels in pvec(0u32..4, 0..1100),
        t_peak in window_start()
    ) {
        // Rasterized command profiles mix zero-level (PIE low) samples
        // with partial and full levels.
        let profile: Vec<f64> = levels.iter().map(|&l| l as f64 / 3.0).collect();
        let rate = 400e3;
        let env = CibEnvelope::with_amplitudes(&offs, &ph, &amps);
        let keyed = env.keyed_window(&profile, t_peak, rate);
        prop_assert_eq!(keyed.len(), profile.len());
        let t_start = t_peak - profile.len() as f64 / rate / 2.0;
        for (k, (&y, &p)) in keyed.iter().zip(&profile).enumerate() {
            if p == 0.0 {
                prop_assert!(y.to_bits() == 0, "zero-level sample {k} came out {y}");
                continue;
            }
            let direct = p * env.envelope(t_start + k as f64 / rate);
            prop_assert!(
                (y - direct).abs() <= 1e-9 * p * env.ceiling(),
                "sample {k}: {y} vs {direct}"
            );
        }
    }

    fn grid_argmax_matches_hypot_scan_on_random_grids(
        parts in pvec((-1.0f64..1.0, -1.0f64..1.0), 1..600)
    ) {
        let grid: Vec<Complex64> = parts.iter().map(|&(re, im)| Complex64::new(re, im)).collect();
        prop_assert_eq!(grid_argmax(&grid), reference_argmax(&grid));
    }

    fn grid_argmax_matches_hypot_scan_on_near_ties(
        base in (0.1f64..1.0, 0.0f64..std::f64::consts::TAU),
        nudges in pvec(0u32..6, 1..300)
    ) {
        // Every point within a few ulps of the same magnitude: `|z|²`
        // cannot separate them, only the `hypot` of the candidates can.
        let z = Complex64::from_polar(base.0, base.1);
        let grid: Vec<Complex64> = nudges
            .iter()
            .map(|&n| z * (1.0 + n as f64 * f64::EPSILON))
            .collect();
        prop_assert_eq!(grid_argmax(&grid), reference_argmax(&grid));
    }

    fn period_chunks_concatenate_to_the_whole_grid_fill(
        (offs, ph, amps) in stream_tones(), grid in stream_grid()
    ) {
        let env = CibEnvelope::with_amplitudes(&offs, &ph, &amps);
        let whole = bits(&whole_grid_period(&offs, &ph, &amps, grid));
        prop_assert_eq!(bits(&streamed_period(&env, grid)), whole.clone());
        prop_assert_eq!(bits(&env.sample_period(grid)), whole);
    }

    fn period_chunks_slice_the_fft_fill(
        offs in btree_set(1u32..2000, 11..=11), ph in phases(12), amps in pvec(0.05f64..2.0, 12..=12)
    ) {
        // Twelve integer tones on 2048 points: the FFT synthesis pays
        // off, so the stream and its peeks must yield slices of that fill.
        let offs: Vec<f64> = std::iter::once(0.0).chain(offs.into_iter().map(f64::from)).collect();
        prop_assert!(fft_pays_off(offs.len(), 2048, &offs));
        let env = CibEnvelope::with_amplitudes(&offs, &ph, &amps);
        let whole = bits(&whole_grid_period(&offs, &ph, &amps, 2048));
        prop_assert_eq!(bits(&streamed_period(&env, 2048)), whole.clone());
        for m in PEEK_LENS {
            prop_assert_eq!(bits(&peeked_period(&env, 2048, m)), whole.clone());
        }
        prop_assert_eq!(bits(&env.sample_period(2048)), whole);
    }

    fn period_chunks_peek_is_the_next_chunks_prefix((offs, ph, amps) in stream_tones()) {
        // Every probe length on every grid; peeking never advances the
        // stream, so the chunks still concatenate to the whole-grid fill.
        // Integer tones on the power-of-two grids 1, 2 and 16 take the
        // FFT path whenever they outnumber log₂ grid.
        let env = CibEnvelope::with_amplitudes(&offs, &ph, &amps);
        for grid in PEEK_GRIDS {
            let whole = bits(&whole_grid_period(&offs, &ph, &amps, grid));
            for m in PEEK_LENS {
                prop_assert_eq!(bits(&peeked_period(&env, grid, m)), whole.clone());
            }
        }
    }

    fn grid_argmax_matches_hypot_scan_on_envelopes(
        (offs, ph) in offsets_and_phases(), grid in pow2_grid()
    ) {
        let mut s = EnvelopeScratch::new();
        s.fill(&offs, &ph, None, grid);
        prop_assert_eq!(grid_argmax(s.grid()), reference_argmax(s.grid()));
    }
}

#[test]
fn grid_argmax_constant_envelope() {
    // Equal offsets never scan: the envelope is flat (here ~0 by balanced
    // phases) and every grid point is a candidate.
    let phases = [
        0.0,
        std::f64::consts::TAU / 3.0,
        2.0 * std::f64::consts::TAU / 3.0,
    ];
    let mut s = EnvelopeScratch::new();
    s.fill(&[50.0; 3], &phases, None, 4096);
    assert_eq!(grid_argmax(s.grid()), reference_argmax(s.grid()));
    let mut aligned = EnvelopeScratch::new();
    aligned.fill(&[50.0; 3], &[0.0; 3], None, 4096);
    assert_eq!(
        grid_argmax(aligned.grid()),
        reference_argmax(aligned.grid())
    );
}

#[test]
fn grid_argmax_last_of_duplicate_maxima_wins() {
    let peak = Complex64::new(0.6, -0.8);
    let mut grid = vec![Complex64::new(0.1, 0.2); 64];
    for k in [3, 17, 40] {
        grid[k] = peak;
    }
    assert_eq!(grid_argmax(&grid), Some(40));
    assert_eq!(grid_argmax(&grid), reference_argmax(&grid));
}

#[test]
fn grid_argmax_separates_values_one_ulp_apart() {
    // Two points whose `hypot`s are one ulp apart while their `|z|²`
    // round to the same square. The larger sits *before* the tie, so a
    // last-wins `|z|²` ranking alone would pick the wrong one.
    let (lo, hi) = (0..100_000)
        .find_map(|i| {
            let a = 0.3 + i as f64 * 1e-9;
            let lo = Complex64::new(a, 0.8);
            let mut re = a;
            for _ in 0..16 {
                re = re.next_up();
                let hi = Complex64::new(re, 0.8);
                if hi.norm() == lo.norm().next_up() && hi.norm_sqr() == lo.norm_sqr() {
                    return Some((lo, hi));
                }
            }
            None
        })
        .expect("a |z|²-tied pair one hypot ulp apart");
    let grid = [Complex64::new(0.1, 0.0), hi, lo, Complex64::new(0.2, 0.0)];
    assert_eq!(grid_argmax(&grid), Some(1));
    assert_eq!(grid_argmax(&grid), reference_argmax(&grid));
    let reversed = [lo, hi];
    assert_eq!(grid_argmax(&reversed), Some(1));
}

#[test]
fn grid_argmax_degenerate_grids() {
    assert_eq!(grid_argmax(&[]), None);
    let zeros = vec![Complex64::ZERO; 100];
    assert_eq!(grid_argmax(&zeros), Some(99));
    // Magnitudes whose squares underflow to (sub)normals fall back to the
    // full scan.
    let tiny: Vec<Complex64> = (1..50)
        .map(|k| Complex64::new(1e-170 * (1.0 + (k % 7) as f64), 3e-171))
        .collect();
    assert_eq!(grid_argmax(&tiny), reference_argmax(&tiny));
    // Squares that overflow, too.
    let huge: Vec<Complex64> = (1..50)
        .map(|k| Complex64::new(1e160 * (1.0 + (k % 5) as f64), -1e159))
        .collect();
    assert_eq!(grid_argmax(&huge), reference_argmax(&huge));
}

#[test]
fn grid_argmax_with_nan_matches_hypot_scan() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut grid: Vec<Complex64> = (0..200)
        .map(|_| Complex64::new(rng.random::<f64>(), rng.random::<f64>()))
        .collect();
    grid[57] = Complex64::new(f64::NAN, 0.5);
    assert_eq!(grid_argmax(&grid), reference_argmax(&grid));
    // hypot(inf, NaN) = inf while |z|² is NaN.
    grid[120] = Complex64::new(f64::INFINITY, f64::NAN);
    assert_eq!(grid_argmax(&grid), reference_argmax(&grid));
}

#[test]
fn early_stop_power_up_matches_whole_period_loop() {
    // Random placements from shallow to hopelessly deep, at EIRPs from
    // far below to well above the wake threshold. Every other draw is
    // rescaled so its envelope peak sits near the threshold, where the
    // chip can only wake around the peak, late in the period, or not at
    // all.
    let mut rng = StdRng::seed_from_u64(17);
    let (mut never, mut late, mut rest_of_chunk, mut probe) = (0, 0, 0, 0);
    for case in 0..600 {
        let rate = [1.0, 3.0, 255.0, 256.0, 257.0, 1000.0, 2048.0, 4096.0][case % 8];
        let n = 1 + rng.random_range(0..10usize);
        let tag = if rng.random::<bool>() {
            TagSpec::standard()
        } else {
            TagSpec::miniature()
        };
        let placement = if rng.random::<bool>() {
            Placement::water_tank(0.15 * rng.random::<f64>())
        } else {
            Placement::free_space(0.5 + 20.0 * rng.random::<f64>())
        };
        let eirp_w = dbm_to_watts(20.0 + 25.0 * rng.random::<f64>());
        let cib = CibConfig::paper_prototype_n(n);
        let mut channels = placement
            .draw_trial(&mut rng, n, &tag, eirp_w, cib.carrier_hz)
            .channels;
        if case % 2 == 1 {
            let (_, peak) = cib.received_peak(&channels);
            let want_w = tag.power.required_peak_power_watts() * (0.8 + 1.5 * rng.random::<f64>());
            let scale = want_w.sqrt() / peak;
            channels.iter_mut().for_each(|h| *h *= scale);
        }
        let env = cib.envelope_at(&channels);
        let ph: Vec<f64> = channels.iter().map(|h| h.arg()).collect();
        let amps: Vec<f64> = channels.iter().map(|h| h.norm()).collect();

        let tones = (&cib.offsets_hz[..], &ph[..], &amps[..]);
        let (powered, want) = whole_period_power_up(&tag.power, tones, rate);
        let got = power_up_over_period(&tag.power, &env, rate);
        assert_eq!(got.is_some(), powered, "case {case}: powered");
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "case {case}: time_to_power_s {got:?} vs {want:?}"
        );
        match want.map(|t| (t * rate).round() as usize) {
            None => never += 1,
            Some(k) if k >= RENORM_INTERVAL => late += 1,
            Some(k) if k >= WAKE_PROBE => rest_of_chunk += 1,
            Some(_) => probe += 1,
        }
    }
    assert!(
        never >= 20 && late >= 20 && rest_of_chunk >= 20 && probe >= 20,
        "coverage: {never} never, {late} in a later chunk, {rest_of_chunk} in the rest of \
         the first chunk, {probe} in the probe"
    );
}

/// One tone over `acc` with four interleaved rotators, resynchronized
/// every [`RENORM_INTERVAL`] samples: the tone-at-a-time pass every
/// synthesis ran on before [`tone_bank`], kept as its bit-for-bit oracle.
fn tone_pass<const WRITE: bool>(
    acc: &mut [Complex64],
    offset_hz: f64,
    phase: f64,
    amp: f64,
    t0: f64,
    dt: f64,
) {
    let w = TAU * offset_hz * dt;
    let step1 = Complex64::cis(w);
    let step4 = Complex64::cis(4.0 * w);
    let mut start = 0usize;
    for chunk in acc.chunks_mut(RENORM_INTERVAL) {
        let len = chunk.len();
        let base = TAU * offset_hz * (t0 + start as f64 * dt) + phase;
        let p0 = Complex64::from_polar(amp, base);
        let mut p = [
            p0,
            p0 * step1,
            p0 * step1 * step1,
            p0 * step1 * step1 * step1,
        ];
        let mut quads = chunk.chunks_exact_mut(4);
        for quad in &mut quads {
            for j in 0..4 {
                if WRITE {
                    quad[j] = p[j];
                } else {
                    quad[j] += p[j];
                }
                p[j] *= step4;
            }
        }
        let rem = quads.into_remainder();
        let done = len - rem.len();
        for (j, a) in rem.iter_mut().enumerate() {
            let v = Complex64::from_polar(amp, base + w * (done + j) as f64);
            if WRITE {
                *a = v;
            } else {
                *a += v;
            }
        }
        start += len;
    }
}

/// The tone-at-a-time synthesis [`tone_bank`] replaces: one
/// [`tone_pass`] per tone, in tone order, the first one writing in
/// write mode.
fn per_tone_bank(
    acc: &mut [Complex64],
    (offs, ph, amps): (&[f64], &[f64], Option<&[f64]>),
    t0: f64,
    dt: f64,
    write: bool,
) {
    if write && offs.is_empty() {
        acc.fill(Complex64::ZERO);
    }
    for i in 0..offs.len() {
        let a = amps.map_or(1.0, |a| a[i]);
        if write && i == 0 {
            tone_pass::<true>(acc, offs[i], ph[i], a, t0, dt);
        } else {
            tone_pass::<false>(acc, offs[i], ph[i], a, t0, dt);
        }
    }
}

/// `envelope_window` before the tone bank: each chunk zeroed, then one
/// accumulating [`tone_pass`] per tone and a `hypot` per sample.
fn per_tone_window(
    (offs, ph, amps): (&[f64], &[f64], Option<&[f64]>),
    t0: f64,
    rate: f64,
    out: &mut [f64],
) {
    let dt = 1.0 / rate;
    let mut buf = [Complex64::ZERO; RENORM_INTERVAL];
    for (c, chunk) in out.chunks_mut(RENORM_INTERVAL).enumerate() {
        let acc = &mut buf[..chunk.len()];
        let t_chunk = t0 + (c * RENORM_INTERVAL) as f64 * dt;
        acc.fill(Complex64::ZERO);
        for i in 0..offs.len() {
            let a = amps.map_or(1.0, |a| a[i]);
            tone_pass::<false>(acc, offs[i], ph[i], a, t_chunk, dt);
        }
        for (o, z) in chunk.iter_mut().zip(acc.iter()) {
            *o = z.norm();
        }
    }
}

fn complex_bits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

/// 1–20 tones (crossing the bank's 8-tone block twice) at free, possibly
/// negative offsets, with unit amplitudes (`None`) or per-tone ones of
/// either sign.
fn bank_tones() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Option<Vec<f64>>)> {
    (1usize..=20).prop_flat_map(|n| {
        (
            pvec(-400.0f64..400.0, n..=n),
            phases(n),
            any::<bool>(),
            pvec(-2.0f64..2.0, n..=n),
        )
            .prop_map(|(offs, ph, some, amps)| (offs, ph, some.then_some(amps)))
    })
}

/// Buffer lengths off the quad (`len mod 4`) and chunk (256) grid, plus
/// the whole-chunk and session sizes.
const BANK_LENS: [usize; 10] = [0, 1, 2, 3, 5, 254, 257, 378, 1023, 1024];

fn bank_len() -> impl Strategy<Value = usize> {
    (0..BANK_LENS.len()).prop_map(|i| BANK_LENS[i])
}

/// Serial `if p > best` scan from `f64::MIN`: the first index of the
/// largest `|z|²`, as `refined_peak` ran it.
fn serial_first_max(grid: &[Complex64]) -> (usize, f64) {
    let (mut k, mut best) = (0, f64::MIN);
    for (i, z) in grid.iter().enumerate() {
        let p = z.norm_sqr();
        if p > best {
            (best, k) = (p, i);
        }
    }
    (k, best)
}

/// Grids over a few magnitudes, so equal maxima are common: all zero,
/// with NaNs mixed in, or plain.
fn scan_grid() -> impl Strategy<Value = Vec<Complex64>> {
    (0u32..3, pvec(0u32..6, 0..41)).prop_map(|(kind, picks)| {
        picks
            .iter()
            .map(|&p| match (kind, p) {
                (0, _) => Complex64::ZERO,
                (1, 0) => Complex64::new(f64::NAN, 0.5),
                _ => Complex64::new(0.25 * p as f64, -0.5),
            })
            .collect()
    })
}

/// `peak_over_period` before the per-thread scratch and the hoisted
/// phasors: a fresh scratch, and the ternary refinement on 121
/// pointwise `envelope()` calls.
fn pointwise_peak(env: &CibEnvelope, tones: (&[f64], &[f64], &[f64]), grid: usize) -> (f64, f64) {
    let mut s = EnvelopeScratch::new();
    s.fill(tones.0, tones.1, Some(tones.2), grid);
    let k = grid_argmax(s.grid()).expect("non-empty grid");
    let dt = 1.0 / grid as f64;
    let (mut lo, mut hi) = ((k as f64 - 1.0) * dt, (k as f64 + 1.0) * dt);
    for _ in 0..60 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        if env.envelope(m1) < env.envelope(m2) {
            lo = m1;
        } else {
            hi = m2;
        }
    }
    let t = 0.5 * (lo + hi);
    (t.rem_euclid(1.0), env.envelope(t))
}

/// Tones for the refinement: offsets ±0.0 or integer, phases ±0.0 or
/// free. When `aligned`, every phase is a signed zero, so the peak sits
/// at `t = 0` and the refinement brackets `t < 0`.
fn refine_tones() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
    (1usize..=10, any::<bool>()).prop_flat_map(|(n, aligned)| {
        (
            pvec(0u32..6, n..=n),
            pvec((0u32..3, 0.0f64..TAU), n..=n),
            pvec(0.05f64..2.0, n..=n),
        )
            .prop_map(move |(kinds, phs, amps)| {
                let offs = kinds
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| match k {
                        0 => 0.0,
                        1 => -0.0,
                        _ => (7 * i + 3 * k as usize) as f64,
                    })
                    .collect();
                let ph = phs
                    .iter()
                    .map(|&(k, u)| match (k, aligned) {
                        (0, _) => 0.0,
                        (1, _) | (_, true) => -0.0,
                        (_, false) => u,
                    })
                    .collect();
                (offs, ph, amps)
            })
    })
}

props! {
    cases = 64;

    fn tone_bank_matches_per_tone_passes_bit_for_bit(
        (offs, ph, amps) in bank_tones(),
        len in bank_len(),
        t0 in window_start(),
        rate in window_rate(),
        (write, seed) in (any::<bool>(), any::<u64>())
    ) {
        // Accumulate mode runs onto arbitrary prior contents.
        let mut rng = StdRng::seed_from_u64(seed);
        let init: Vec<Complex64> = (0..len)
            .map(|_| Complex64::new(rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5))
            .collect();
        let (mut bank, mut want) = (init.clone(), init);
        let tones = (&offs[..], &ph[..], amps.as_deref());
        tone_bank(&mut bank, &offs, &ph, amps.as_deref(), t0, 1.0 / rate, write);
        per_tone_bank(&mut want, tones, t0, 1.0 / rate, write);
        prop_assert_eq!(complex_bits(&bank), complex_bits(&want));
    }

    fn fill_direct_matches_per_tone_passes_bit_for_bit(
        (offs, ph, amps) in bank_tones(), len in bank_len()
    ) {
        // `fill_direct` is the write-mode bank on the 1 s grid.
        prop_assume!(len > 0);
        let mut s = EnvelopeScratch::new();
        s.fill_direct(&offs, &ph, amps.as_deref(), len);
        let mut want = vec![Complex64::new(f64::NAN, 1.0); len];
        per_tone_bank(&mut want, (&offs, &ph, amps.as_deref()), 0.0, 1.0 / len as f64, true);
        prop_assert_eq!(complex_bits(s.grid()), complex_bits(&want));
    }

    fn envelope_window_matches_per_tone_window_bit_for_bit(
        (offs, ph, amps) in bank_tones(),
        len in bank_len(),
        t0 in window_start(),
        rate in window_rate()
    ) {
        let mut out = vec![f64::NAN; len];
        let mut want = vec![f64::NAN; len];
        envelope_window(&offs, &ph, amps.as_deref(), t0, rate, &mut out);
        per_tone_window((&offs, &ph, amps.as_deref()), t0, rate, &mut want);
        prop_assert_eq!(bits(&out), bits(&want));
    }

    fn lane_scans_match_serial_scans(grid in scan_grid()) {
        let (k, max, nan) = max_norm_sqr(&grid);
        let (want_k, want_max) = serial_first_max(&grid);
        prop_assert_eq!((k, max.to_bits()), (want_k, want_max.to_bits()));
        prop_assert_eq!(nan, grid.iter().any(|z| z.norm_sqr().is_nan()));
        prop_assert_eq!(grid_argmax(&grid), reference_argmax(&grid));
    }

    fn hoisted_refinement_matches_pointwise_envelope(
        (offs, ph, amps) in refine_tones(),
        grid in (0usize..3).prop_map(|i| [64, 100, 1024][i])
    ) {
        let env = CibEnvelope::with_amplitudes(&offs, &ph, &amps);
        let (t, y) = env.peak_over_period(grid);
        let (want_t, want_y) = pointwise_peak(&env, (&offs, &ph, &amps), grid);
        prop_assert_eq!((t.to_bits(), y.to_bits()), (want_t.to_bits(), want_y.to_bits()));
    }
}
