//! The CIB envelope and its analytics.
//!
//! Everything the paper derives in §3.3–§3.6 about the waveform
//! `Y(t) = |Σᵢ aᵢ·e^{j(2πΔfᵢt + βᵢ)}|` lives here: fast peak search over
//! one period, the amplitude-flatness metric around the peak (Eq. 7), and
//! the first-order droop bound (Eq. 8) that yields the RMS-offset
//! constraint (Eq. 9).

use crate::kernels::{envelope_sqr, settle_margin, tone_sum, EnvelopeScratch, ToneSeries};
use ivn_dsp::complex::Complex64;
use std::f64::consts::TAU;

thread_local! {
    /// [`CibEnvelope::peak_over_period`]'s grid and hoisted phasors, reused
    /// by a campaign's trials instead of allocating a fresh grid each.
    static PEAK_SCRATCH: std::cell::RefCell<(EnvelopeScratch, Vec<Option<Complex64>>)> =
        Default::default();
}

/// An analytic CIB envelope: tones at integer-hertz offsets with fixed
/// phases and amplitudes, periodic in 1 second.
#[derive(Debug, Clone)]
pub struct CibEnvelope {
    offsets_hz: Vec<f64>,
    phases: Vec<f64>,
    amplitudes: Vec<f64>,
}

impl CibEnvelope {
    /// Creates an envelope with unit amplitudes.
    ///
    /// # Panics
    /// Panics if the slices differ in length or are empty.
    pub fn new(offsets_hz: &[f64], phases: &[f64]) -> Self {
        Self::with_amplitudes(offsets_hz, phases, &vec![1.0; offsets_hz.len()])
    }

    /// Creates an envelope with per-tone amplitudes (the physical case:
    /// each antenna's channel has its own attenuation).
    ///
    /// # Panics
    /// Panics if lengths differ or no tone is given.
    pub fn with_amplitudes(offsets_hz: &[f64], phases: &[f64], amplitudes: &[f64]) -> Self {
        assert!(!offsets_hz.is_empty(), "need at least one tone");
        assert_eq!(offsets_hz.len(), phases.len(), "offsets/phases mismatch");
        assert_eq!(offsets_hz.len(), amplitudes.len(), "offsets/amps mismatch");
        CibEnvelope {
            offsets_hz: offsets_hz.to_vec(),
            phases: phases.to_vec(),
            amplitudes: amplitudes.to_vec(),
        }
    }

    /// Number of tones (antennas).
    pub fn n(&self) -> usize {
        self.offsets_hz.len()
    }

    /// Envelope value `Y(t)`: the pointwise [`tone_sum`], `hypot`ed.
    pub fn envelope(&self, t: f64) -> f64 {
        tone_sum(&self.offsets_hz, &self.phases, Some(&self.amplitudes), t).norm()
    }

    /// Sum of amplitudes — the unreachable-or-reached ceiling `Y ≤ Σaᵢ`
    /// (equals N for unit amplitudes; paper §3.4).
    pub fn ceiling(&self) -> f64 {
        self.amplitudes.iter().sum()
    }

    /// Samples one period (1 s for integer offsets) on a uniform grid:
    /// the [`Self::period_chunks`] stream, collected.
    pub fn sample_period(&self, grid: usize) -> Vec<f64> {
        let mut chunks = self.period_chunks(grid);
        let mut out = Vec::with_capacity(grid);
        while let Some(chunk) = chunks.next_chunk() {
            out.extend_from_slice(chunk);
        }
        out
    }

    /// The `grid`-point period `Y(k/grid)` as a stream of
    /// [`RENORM_INTERVAL`](crate::kernels::RENORM_INTERVAL)-sample
    /// chunks, synthesized only as far as the reader pulls.
    ///
    /// Each chunk is one [`crate::kernels::envelope_window`] call at
    /// `t0 = start·dt`, `rate = grid`: the same chunk bases, tone order
    /// and per-sample `hypot` as the whole-grid direct fill, so the
    /// values are its bits. Where the sparse-spectrum FFT synthesis is
    /// cheaper ([`crate::kernels::fft_pays_off`]) the whole grid is
    /// filled that way up front and the chunks are slices of it.
    /// [`PeriodChunks::peek`] reads the start of the next chunk, with the
    /// same bits, without advancing.
    ///
    /// # Panics
    /// Panics if `grid` is zero.
    pub fn period_chunks(&self, grid: usize) -> PeriodChunks<'_> {
        assert!(grid > 0);
        let fft = crate::kernels::fft_pays_off(self.n(), grid, &self.offsets_hz);
        PeriodChunks {
            env: self,
            grid,
            start: 0,
            fft,
            buf: if fft {
                self.sample_period_fft(grid)
            } else {
                Vec::new()
            },
        }
    }

    /// [`Self::sample_period`] forced through the sparse-spectrum FFT
    /// path: each integer-hertz tone is one bin of an unnormalized
    /// inverse DFT. O(grid·log grid) independent of the tone count.
    ///
    /// # Panics
    /// Panics if `grid` is not a power of two or any offset is not an
    /// exact integer.
    pub fn sample_period_fft(&self, grid: usize) -> Vec<f64> {
        let mut scratch = EnvelopeScratch::new();
        scratch.fill_fft(&self.offsets_hz, &self.phases, Some(&self.amplitudes), grid);
        scratch.grid().iter().map(|z| z.norm()).collect()
    }

    /// Peak of the envelope over one period: `(t_peak, Y_peak)`.
    ///
    /// Grid search at `grid` points on a per-thread scratch ([`EnvelopeScratch::argmax`]:
    /// a full `hypot` scan's index, last of equal maxima, certified on an f32
    /// twin of the grid, else read off it; obs counters `experiment.trial.argmax_certified`
    /// and `…_filled`), then 60 ternary steps that keep exactly the brackets a
    /// refinement on [`Self::envelope`] keeps:
    /// - The early steps, whose two probes differ by far more than any
    ///   rounding, are settled on certified squared envelopes: first a
    ///   [`ToneSeries`] around the initial bracket, then the lanes of
    ///   [`crate::kernels::envelope_sqr`], which take libm's rounded angles
    ///   and settle a step while `|g̃(m₁) − g̃(m₂)| > 60ε·(n + 4)·(Σ|aᵢ|)²`.
    ///   Each evaluator's error against libm's `Y²` is bounded (the
    ///   derivations are in `kernels.rs`), and a step is settled only when
    ///   the difference is 20× that bound, so its comparison is libm's.
    /// - The first step neither can settle hands the bracket to libm,
    ///   which takes every remaining step and the final `y`. Amplitudes
    ///   summing outside `[1e-100, 1e100]` (or non-finite) and angles
    ///   beyond the lanes' exact reduction take libm from step 0.
    ///
    /// On libm, a zero-offset tone's phasor is evaluated once per call: its
    /// angle `0·t + β` is `β` up to the sign of a zero, which a sum from
    /// `ZERO` drops, and it keeps its place in the tone order. So `(t, y)`
    /// are a full scan's bits.
    pub fn peak_over_period(&self, grid: usize) -> (f64, f64) {
        let (offs, ph, amps) = (&self.offsets_hz, &self.phases, &self.amplitudes);
        let phasor = |i: usize, t: f64| Complex64::from_polar(amps[i], TAU * offs[i] * t + ph[i]);
        let (t, y) = PEAK_SCRATCH.with_borrow_mut(|(scratch, fixed)| {
            let (k, certified) = scratch.argmax(offs, ph, amps, grid);
            ivn_runtime::obs_count!("experiment.trial.argmax_certified", u64::from(certified));
            ivn_runtime::obs_count!("experiment.trial.argmax_filled", u64::from(!certified));
            fixed.clear();
            fixed.extend((0..self.n()).map(|i| (offs[i] == 0.0).then(|| phasor(i, 0.0))));
            let envelope = |t: f64| {
                let sum =
                    |acc, (i, z): (usize, &Option<_>)| acc + z.unwrap_or_else(|| phasor(i, t));
                fixed.iter().enumerate().fold(Complex64::ZERO, sum).norm()
            };
            // Ternary-search refinement on the bracketing interval: the
            // steps the certified evaluators settle, then libm's.
            let dt = 1.0 / grid as f64;
            let (mut lo, mut hi) = ((k as f64 - 1.0) * dt, (k as f64 + 1.0) * dt);
            let mut settled = 0;
            if let Some(margin) = settle_margin(offs, ph, amps, lo.abs().max(hi.abs())) {
                if let Some(series) = ToneSeries::around(offs, ph, amps, lo, hi) {
                    let g = |m| series.envelope_sqr(m);
                    settle_steps(&mut lo, &mut hi, &mut settled, series.margin(), g);
                }
                let g = |m| envelope_sqr(offs, ph, amps, m);
                settle_steps(&mut lo, &mut hi, &mut settled, margin, g);
            }
            for _ in settled..60 {
                let m1 = lo + (hi - lo) / 3.0;
                let m2 = hi - (hi - lo) / 3.0;
                if envelope(m1) < envelope(m2) {
                    lo = m1;
                } else {
                    hi = m2;
                }
            }
            let t = 0.5 * (lo + hi);
            (t, envelope(t))
        });
        // Physics probes: the found peak amplitude, and how close the N
        // carriers came to perfect phase alignment there (Y_peak / Σaᵢ;
        // 1.0 = fully coherent).
        ivn_runtime::trace_counter!("physics.envelope_peak", y);
        if ivn_runtime::trace::enabled() {
            let ceiling = self.ceiling();
            if ceiling > 0.0 {
                ivn_runtime::trace_counter!("physics.phase_alignment", y / ceiling);
            }
        }
        (t.rem_euclid(1.0), y)
    }

    /// A rasterized command profile keyed so its centre rides the
    /// instant `t_peak`: returns `profile[k]·Y(t_start + k/rate)` with
    /// `t_start = t_peak − profile.len()/rate/2` — what the tag's
    /// envelope detector sees when a downlink command is sent on the
    /// CIB peak (paper §3.3–§3.6).
    ///
    /// Runs on [`crate::kernels::envelope_window`]'s tone bank (no trig
    /// per sample); agrees with `profile[k]·envelope(t)` to a few hundred
    /// ulps of the ceiling. A zero-level sample skips its `hypot` and comes
    /// out as the level itself (`0.0`, or `-0.0` for a `-0.0` level): the
    /// bits of `Y·p` for any finite envelope.
    pub fn keyed_window(&self, profile: &[f64], t_peak: f64, rate: f64) -> Vec<f64> {
        let t_start = t_peak - profile.len() as f64 / rate / 2.0;
        let mut out = profile.to_vec();
        crate::kernels::keyed_envelope_window(
            &self.offsets_hz,
            &self.phases,
            Some(&self.amplitudes),
            t_start,
            rate,
            &mut out,
        );
        out
    }

    /// Bounds `(lo, hi)` on the envelope over a `len`-sample window
    /// centred on `t_peak` at `rate` S/s, without synthesizing it
    /// (`kernels::window_bounds`, whose doc derives the bound, over the
    /// half-width `len/rate/2`, padded by 10⁻⁹ of itself for the rounding
    /// of the window's instants); `None` when the tones are not
    /// certifiable. It bounds every unit-level sample of
    /// [`Self::keyed_window`] for a `len`-sample profile keyed on
    /// `t_peak`, and the sample path's calibration bounds each resync
    /// window of its streamed tone sum with it.
    ///
    /// This is Eq. 8 turned into a certificate: `lo > hi/2` is Eq. 7's
    /// fluctuation below `α = 0.5` over the whole window, the tolerance
    /// Eq. 9 sets the paper's RMS(Δf) limit from.
    pub fn keyed_bounds(&self, len: usize, t_peak: f64, rate: f64) -> Option<(f64, f64)> {
        let h = len as f64 / rate / 2.0 * (1.0 + 1e-9);
        crate::kernels::window_bounds(&self.offsets_hz, &self.phases, &self.amplitudes, t_peak, h)
    }

    /// The paper's Eq. 7 fluctuation `(A_max − A_min)/A_max` over a window
    /// of `duration_s` centred at `t_center`.
    pub fn fluctuation_around(&self, t_center: f64, duration_s: f64, grid: usize) -> f64 {
        assert!(grid > 1 && duration_s > 0.0);
        let mut a_max = f64::MIN;
        let mut a_min = f64::MAX;
        for k in 0..grid {
            let t = t_center - duration_s / 2.0 + duration_s * k as f64 / (grid - 1) as f64;
            let v = self.envelope(t);
            a_max = a_max.max(v);
            a_min = a_min.min(v);
        }
        if a_max <= 0.0 {
            0.0
        } else {
            (a_max - a_min) / a_max
        }
    }
}

/// A period grid streamed chunk by chunk; see
/// [`CibEnvelope::period_chunks`]. [`Self::peek`] reads the start of the
/// next chunk without synthesizing the rest of it, for a reader that
/// usually stops within its first few samples.
#[derive(Debug)]
pub struct PeriodChunks<'a> {
    env: &'a CibEnvelope,
    grid: usize,
    /// Grid index of the next chunk's first sample.
    start: usize,
    /// Whether the whole grid came from one FFT fill up front.
    fft: bool,
    /// The current chunk, or the whole FFT-filled grid.
    buf: Vec<f64>,
}

impl PeriodChunks<'_> {
    /// The next chunk of at most
    /// [`RENORM_INTERVAL`](crate::kernels::RENORM_INTERVAL) samples, or
    /// `None` once the period is exhausted.
    pub fn next_chunk(&mut self) -> Option<&[f64]> {
        let start = self.start;
        let len = self.chunk_len()?;
        self.start += len;
        Some(self.fill(start, len))
    }

    /// The next chunk's first `min(m, len)` samples without advancing the
    /// stream, or `None` once the period is exhausted: the same bits
    /// [`Self::next_chunk`] will return there.
    ///
    /// The synthesis runs to `m` rounded up to a whole quad (capped at
    /// the chunk's length): [`crate::kernels::tone_bank`] walks a chunk
    /// quad by quad from the chunk base, whatever its length, but takes
    /// exact trig for a trailing partial quad. On the FFT path the
    /// prefix is a slice of the up-front fill.
    pub fn peek(&mut self, m: usize) -> Option<&[f64]> {
        let len = self.chunk_len()?;
        let fill = m.next_multiple_of(4).min(len);
        Some(&self.fill(self.start, fill)[..m.min(len)])
    }

    /// Length of the next chunk, `None` once the period is exhausted.
    fn chunk_len(&self) -> Option<usize> {
        let left = self.grid - self.start;
        (left > 0).then(|| crate::kernels::RENORM_INTERVAL.min(left))
    }

    /// Grid samples `start..start + len`, `len` at most one chunk from
    /// the chunk base `start`: one [`crate::kernels::envelope_window`] at
    /// `t0 = start·dt`, or a slice of the FFT fill.
    fn fill(&mut self, start: usize, len: usize) -> &[f64] {
        if self.fft {
            return &self.buf[start..start + len];
        }
        let env = self.env;
        self.buf.resize(len, 0.0);
        crate::kernels::envelope_window(
            &env.offsets_hz,
            &env.phases,
            Some(&env.amplitudes),
            start as f64 * (1.0 / self.grid as f64),
            self.grid as f64,
            &mut self.buf,
        );
        &self.buf
    }
}

/// Ternary steps on the bracket `[lo, hi]` decided on a certified
/// squared envelope `g`, while its two values differ by more than
/// `margin` and fewer than 60 steps are done; `settled` counts them.
fn settle_steps(
    lo: &mut f64,
    hi: &mut f64,
    settled: &mut usize,
    margin: f64,
    g: impl Fn([f64; 2]) -> [f64; 2],
) {
    while *settled < 60 {
        let m1 = *lo + (*hi - *lo) / 3.0;
        let m2 = *hi - (*hi - *lo) / 3.0;
        let [g1, g2] = g([m1, m2]);
        let certain = (g1 - g2).abs() > margin;
        if !certain {
            return;
        }
        if g1 < g2 {
            *lo = m1;
        } else {
            *hi = m2;
        }
        *settled += 1;
    }
}

/// RMS of a set of offsets: `√(Σ Δfᵢ² / N)`.
pub fn rms_offset(offsets_hz: &[f64]) -> f64 {
    assert!(!offsets_hz.is_empty());
    (offsets_hz.iter().map(|f| f * f).sum::<f64>() / offsets_hz.len() as f64).sqrt()
}

/// The Eq. 9 RMS bound for fluctuation tolerance `alpha` and command
/// duration `dt_s`, in Hz.
pub fn eq9_rms_bound(alpha: f64, dt_s: f64) -> f64 {
    assert!((0.0..=1.0).contains(&alpha) && dt_s > 0.0);
    (alpha / (2.0 * std::f64::consts::PI.powi(2) * dt_s * dt_s)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAPER_OFFSETS_HZ;
    use ivn_runtime::rng::{Rng, StdRng};

    #[test]
    fn aligned_phases_peak_at_n() {
        let env = CibEnvelope::new(&PAPER_OFFSETS_HZ, &[0.0; 10]);
        let (t, y) = env.peak_over_period(8192);
        assert!((y - 10.0).abs() < 1e-6, "peak {y}");
        assert!(!(1e-4..=1.0 - 1e-4).contains(&t), "peak time {t}");
        assert!((y * y - 100.0).abs() < 1e-3);
    }

    #[test]
    fn random_phases_still_near_ceiling() {
        // The CIB property: whatever the βᵢ, some instant in the period
        // re-aligns the tones most of the way to the ceiling N = 10.
        // (The 1-D time scan cannot align 9 independent phases perfectly;
        // empirically the paper plan reaches ~0.7–0.85 of the ceiling.)
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let phases: Vec<f64> = (0..10).map(|_| rng.random::<f64>() * TAU).collect();
            let env = CibEnvelope::new(&PAPER_OFFSETS_HZ, &phases);
            let (_, y) = env.peak_over_period(8192);
            assert!(y > 6.0, "peak only {y} with random phases");
        }
    }

    #[test]
    fn same_frequency_tones_do_not_scan() {
        // All offsets equal (a traditional blind beamformer): the envelope
        // is constant, and with adversarial phases it can be ~0 forever —
        // the blind-spot problem of §3.4.
        let phases = [0.0, TAU / 3.0, 2.0 * TAU / 3.0];
        let env = CibEnvelope::new(&[50.0; 3], &phases);
        let (_, y) = env.peak_over_period(4096);
        assert!(y < 1e-9, "three balanced phasors should cancel, got {y}");
    }

    #[test]
    fn peak_invariant_to_common_frequency_shift() {
        // The optimization depends only on offset differences (§3.6).
        let mut rng = StdRng::seed_from_u64(2);
        let phases: Vec<f64> = (0..5).map(|_| rng.random::<f64>() * TAU).collect();
        let a = CibEnvelope::new(&[0.0, 7.0, 20.0, 49.0, 68.0], &phases);
        let shifted: Vec<f64> = [0.0, 7.0, 20.0, 49.0, 68.0]
            .iter()
            .map(|f| f + 3.0)
            .collect();
        let b = CibEnvelope::new(&shifted, &phases);
        let (_, ya) = a.peak_over_period(8192);
        let (_, yb) = b.peak_over_period(8192);
        assert!((ya - yb).abs() < 1e-6);
    }

    #[test]
    fn amplitude_weighted_ceiling() {
        let env = CibEnvelope::with_amplitudes(&[0.0, 7.0], &[0.0, 0.0], &[2.0, 3.0]);
        assert_eq!(env.ceiling(), 5.0);
        let (_, y) = env.peak_over_period(4096);
        assert!((y - 5.0).abs() < 1e-6);
    }

    #[test]
    fn envelope_periodicity() {
        let env = CibEnvelope::new(&[0.0, 7.0, 20.0], &[0.3, 1.1, 2.7]);
        for k in 0..10 {
            let t = k as f64 * 0.083;
            assert!((env.envelope(t) - env.envelope(t + 1.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn sample_period_matches_pointwise() {
        let env = CibEnvelope::new(&PAPER_OFFSETS_HZ, &[0.5; 10]);
        let grid = env.sample_period(1000);
        for k in (0..1000).step_by(97) {
            assert!((grid[k] - env.envelope(k as f64 / 1000.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn sample_period_drift_bounded_at_large_grids() {
        // The incremental-rotation loop resynchronizes from exact trig
        // every 256 steps, so even at grid = 8192 every sample pins to a
        // full direct-trig evaluation to 1e-9.
        let mut rng = StdRng::seed_from_u64(7);
        let phases: Vec<f64> = (0..10).map(|_| rng.random::<f64>() * TAU).collect();
        let env = CibEnvelope::new(&PAPER_OFFSETS_HZ, &phases);
        let grid = env.sample_period(8192);
        for (k, &g) in grid.iter().enumerate() {
            let t = k as f64 / 8192.0;
            let direct = (0..10)
                .map(|i| Complex64::from_polar(1.0, TAU * PAPER_OFFSETS_HZ[i] * t + phases[i]))
                .sum::<Complex64>()
                .norm();
            assert!(
                (g - direct).abs() < 1e-9,
                "drift {} at sample {k}",
                (g - direct).abs()
            );
        }
    }

    #[test]
    fn sample_period_fft_matches_direct() {
        let mut rng = StdRng::seed_from_u64(8);
        let phases: Vec<f64> = (0..10).map(|_| rng.random::<f64>() * TAU).collect();
        let amps: Vec<f64> = (0..10).map(|_| 0.5 + rng.random::<f64>()).collect();
        let env = CibEnvelope::with_amplitudes(&PAPER_OFFSETS_HZ, &phases, &amps);
        let direct = env.sample_period(1024);
        let via_fft = env.sample_period_fft(1024);
        for (a, b) in direct.iter().zip(&via_fft) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn sample_period_fft_rejects_non_pow2() {
        CibEnvelope::new(&[0.0, 7.0], &[0.0, 0.0]).sample_period_fft(1000);
    }

    #[test]
    fn flatness_small_near_peak_for_paper_plan() {
        // Eq. 7/9: the paper plan keeps the envelope within α = 0.5 over a
        // ~800 µs command at the peak.
        let env = CibEnvelope::new(&PAPER_OFFSETS_HZ, &[0.0; 10]);
        let (t, _) = env.peak_over_period(8192);
        let fl = env.fluctuation_around(t + 400e-6, 800e-6, 256);
        assert!(fl < 0.5, "fluctuation {fl}");
    }

    #[test]
    fn taylor_bound_holds() {
        // The true envelope must sit at or above the Eq. 8 lower bound
        // N − 2π²·dt²·ΣΔfᵢ² near an aligned peak.
        let env = CibEnvelope::new(&PAPER_OFFSETS_HZ, &[0.0; 10]);
        let sum_sq: f64 = PAPER_OFFSETS_HZ.iter().map(|f| f * f).sum();
        for dt in [1e-4, 4e-4, 8e-4] {
            let bound = 10.0 - 2.0 * std::f64::consts::PI.powi(2) * dt * dt * sum_sq;
            let actual = env.envelope(dt);
            assert!(
                actual >= bound - 1e-9,
                "dt {dt}: actual {actual} < bound {bound}"
            );
        }
    }

    #[test]
    fn rms_and_eq9() {
        let rms = rms_offset(&PAPER_OFFSETS_HZ);
        assert!((rms - 81.9).abs() < 0.5, "rms {rms}");
        let bound = eq9_rms_bound(0.5, 800e-6);
        assert!((bound - 199.0).abs() < 1.5, "bound {bound}");
        assert!(rms < bound);
    }

    #[test]
    fn wider_offsets_droop_faster() {
        let narrow = CibEnvelope::new(&[0.0, 5.0, 11.0], &[0.0; 3]);
        let wide = CibEnvelope::new(&[0.0, 500.0, 1100.0], &[0.0; 3]);
        let dt = 8e-4;
        assert!(wide.envelope(dt) < narrow.envelope(dt));
    }

    #[test]
    #[should_panic(expected = "at least one tone")]
    fn rejects_empty() {
        CibEnvelope::new(&[], &[]);
    }
}
