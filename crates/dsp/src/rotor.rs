//! Trig-free lane-batched phasor synthesis.
//!
//! The sdr emission path needs `e^{jφ₀ + j2πfk/fs}` for millions of
//! consecutive `k` — one unit phasor per transmitted sample. Calling
//! `sin`/`cos` per sample caps the whole transmitter bank near 1.5 MS/s
//! (BENCH_runtime.json before this layer existed), two orders of
//! magnitude slower than every other pipeline stage. A complex
//! *rotator* replaces the per-sample trig with one complex multiply:
//!
//! ```text
//! p[k+1] = p[k] · e^{jΔ}        (4 mul + 2 add, no libm)
//! ```
//!
//! Two refinements make the recurrence both fast and trustworthy:
//!
//! 1. **Lane batching.** A single rotator is a serial dependency chain —
//!    each multiply waits on the previous one. [`PhasorRotor`] instead
//!    keeps [`LANES`] = 8 interleaved sub-rotators in struct-of-arrays
//!    form: sub-lane `j` produces samples `j, j+8, j+16, …` and advances
//!    by the stride rotator `e^{j·8Δ}`. The row loop over 8 independent
//!    multiplies has no loop-carried dependency, so the compiler
//!    auto-vectorizes it (the same trick the PR-4 envelope kernels use
//!    for the Monte-Carlo objective).
//!
//! 2. **Periodic exact resync.** Floating-point rotation drifts in both
//!    amplitude and phase at O(k·ε). Every [`PhasorRotor::resync`]
//!    samples the lanes are recomputed *exactly* from the closed-form
//!    phase `φ₀ + kΔ mod 2π`, so the worst-case error is the drift of a
//!    single window (≲ 10⁻¹³ at the default window), not of the whole
//!    stream. `tests/rotor_props.rs` pins the ≤ 1e-9 bound against the
//!    trig oracle across 10⁷ samples and randomized resync intervals.
//!
//! Resync points sit at fixed absolute sample indices, and the lane
//! state is a pure function of how many samples have been emitted —
//! never of how the stream was sliced into blocks. Streaming callers
//! can therefore split `fill` calls anywhere and stay bit-identical to
//! a single whole-buffer call (`fill_is_split_invariant` below).
//!
//! ## Seeking
//!
//! The same fact makes every resync window regenerable on its own:
//! [`PhasorRotor::seek`] jumps to any window start and recomputes the
//! lanes there from the closed-form phase, exactly as a stream arriving
//! at that boundary would. The samples that follow are bit-identical to
//! the ones a rotor run from sample 0 emits at those indices
//! (`seek_reproduces_streamed_windows` below), so a caller can revisit
//! a few windows of a long stream without synthesizing the rest. Seeking
//! to any other index would start a window off the fixed grid and is
//! rejected.

use crate::complex::Complex64;
use std::f64::consts::TAU;

/// Number of interleaved sub-rotators (the SIMD-friendly lane width).
pub const LANES: usize = 8;

/// Default resync window, samples. A multiple of [`LANES`]; 1024 keeps
/// worst-case drift near 1e-13 while spending < 1% of samples on trig.
pub const DEFAULT_RESYNC: usize = 1024;

/// A phase-continuous unit-phasor generator: `out[k] = e^{j(φ₀ + kΔ)}`
/// with no trig in the steady-state path.
#[derive(Debug, Clone)]
pub struct PhasorRotor {
    /// Initial phase φ₀, radians.
    phase0: f64,
    /// Per-sample phase increment Δ = 2πf/fs, radians.
    inc: f64,
    /// Resync window length, samples (multiple of [`LANES`]).
    resync: usize,
    /// Sub-lane phasor real parts (SoA layout).
    lre: [f64; LANES],
    /// Sub-lane phasor imaginary parts.
    lim: [f64; LANES],
    /// Stride rotator `e^{j·LANES·Δ}`.
    srot_re: f64,
    srot_im: f64,
    /// Absolute index of the next output sample.
    pos: u64,
    /// Position within the current resync window.
    win_pos: usize,
}

impl PhasorRotor {
    /// A rotator for `freq_hz` at `sample_rate`, starting at phase
    /// `phase0` (radians), with the default resync window.
    ///
    /// # Panics
    /// Panics if `sample_rate` is not strictly positive.
    pub fn new(freq_hz: f64, sample_rate: f64, phase0: f64) -> Self {
        Self::with_resync(freq_hz, sample_rate, phase0, DEFAULT_RESYNC)
    }

    /// [`PhasorRotor::new`] with an explicit resync window. The window
    /// is rounded up to a multiple of [`LANES`] (and at least one row).
    pub fn with_resync(freq_hz: f64, sample_rate: f64, phase0: f64, resync: usize) -> Self {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        let inc = TAU * freq_hz / sample_rate;
        let (s, c) = (LANES as f64 * inc).sin_cos();
        let resync = resync.max(1).div_ceil(LANES) * LANES;
        let mut rotor = PhasorRotor {
            phase0,
            inc,
            resync,
            lre: [0.0; LANES],
            lim: [0.0; LANES],
            srot_re: c,
            srot_im: s,
            pos: 0,
            win_pos: 0,
        };
        rotor.resync_lanes();
        rotor
    }

    /// Per-sample phase increment Δ, radians.
    #[inline]
    pub fn increment(&self) -> f64 {
        self.inc
    }

    /// Resync window length, samples.
    #[inline]
    pub fn resync(&self) -> usize {
        self.resync
    }

    /// The exact phase the trig oracle assigns to sample `k`:
    /// `(φ₀ + kΔ) mod 2π`. This is also the formula the resync path
    /// evaluates, so rotator error returns to zero at window starts.
    #[inline]
    pub fn ideal_phase(&self, k: u64) -> f64 {
        (self.phase0 + k as f64 * self.inc).rem_euclid(TAU)
    }

    /// Repositions the rotor at absolute sample `pos`, which must be a
    /// resync boundary (a multiple of [`PhasorRotor::resync`]): the
    /// lanes are recomputed there exactly as a streaming `fill` does on
    /// reaching that boundary, so what follows is bit-identical to the
    /// stream.
    ///
    /// # Panics
    /// Panics if `pos` is not a multiple of the resync window.
    pub fn seek(&mut self, pos: u64) {
        assert!(
            pos.is_multiple_of(self.resync as u64),
            "seek target {pos} is not a resync boundary"
        );
        self.pos = pos;
        self.resync_lanes();
    }

    /// Recomputes every lane exactly from the closed-form phase at the
    /// current position and restarts the window.
    fn resync_lanes(&mut self) {
        let base = self.ideal_phase(self.pos);
        for j in 0..LANES {
            let (s, c) = (base + j as f64 * self.inc).sin_cos();
            self.lre[j] = c;
            self.lim[j] = s;
        }
        self.win_pos = 0;
    }

    /// Emits sub-lane `j`'s current phasor and rotates that lane by the
    /// stride rotator (the scalar path for partial rows).
    #[inline]
    fn step_lane(&mut self, j: usize) -> Complex64 {
        let out = Complex64::new(self.lre[j], self.lim[j]);
        let re = self.lre[j] * self.srot_re - self.lim[j] * self.srot_im;
        let im = self.lre[j] * self.srot_im + self.lim[j] * self.srot_re;
        self.lre[j] = re;
        self.lim[j] = im;
        out
    }

    /// Emits the current row scaled by `gain` and rotates every
    /// sub-lane by the stride rotator: 8 independent multiplies per row,
    /// the auto-vectorized steady state. The caller keeps `pos`.
    #[inline]
    fn row_scaled(&mut self, gain: f64) -> [Complex64; LANES] {
        let out = std::array::from_fn(|j| Complex64::new(self.lre[j], self.lim[j]) * gain);
        for j in 0..LANES {
            let re = self.lre[j] * self.srot_re - self.lim[j] * self.srot_im;
            let im = self.lre[j] * self.srot_im + self.lim[j] * self.srot_re;
            self.lre[j] = re;
            self.lim[j] = im;
        }
        self.win_pos += LANES;
        out
    }

    /// The next [`LANES`] phasors scaled by `gain` — the samples
    /// [`PhasorRotor::fill_scaled`] would write, by the same ops and with
    /// the resync at the same absolute index — for a caller that steps
    /// the stream a row at a time.
    ///
    /// # Panics
    /// Panics unless the rotor sits on a row boundary: a multiple of
    /// [`LANES`] samples past sample 0 or the last seek.
    #[inline]
    pub fn next_row_scaled(&mut self, gain: f64) -> [Complex64; LANES] {
        assert!(
            self.win_pos.is_multiple_of(LANES),
            "rotor is not on a row boundary"
        );
        if self.win_pos == self.resync {
            self.resync_lanes();
        }
        self.pos += LANES as u64;
        self.row_scaled(gain)
    }

    /// Produces the next sample and advances (scalar convenience; the
    /// block API [`PhasorRotor::fill`] is the hot path).
    #[inline]
    pub fn next_sample(&mut self) -> Complex64 {
        if self.win_pos == self.resync {
            self.resync_lanes();
        }
        let s = self.step_lane(self.win_pos % LANES);
        self.win_pos += 1;
        self.pos += 1;
        s
    }

    /// Fills `out` with the next `out.len()` consecutive unit phasors.
    ///
    /// The output is bit-identical for any split of the stream into
    /// `fill` calls: lane state depends only on the absolute sample
    /// index, and resyncs fire at fixed absolute positions. (It is
    /// [`PhasorRotor::fill_scaled`] at gain 1.0, which is exact.)
    pub fn fill(&mut self, out: &mut [Complex64]) {
        self.fill_scaled(out, 1.0);
    }

    /// [`PhasorRotor::fill`] with every phasor scaled by the real
    /// `gain` as it is stored: `out[k] = phasor(k) · gain`, the same
    /// `Complex64 · f64` multiply as scaling after the fill, so the bits
    /// are unchanged and the block is written once.
    pub fn fill_scaled(&mut self, out: &mut [Complex64], gain: f64) {
        let n = out.len();
        let mut i = 0;
        while i < n {
            if self.win_pos == self.resync {
                self.resync_lanes();
            }
            // Never cross a resync boundary inside the batched section.
            let seg_start = i;
            let end = i + (self.resync - self.win_pos).min(n - i);
            // Leading partial row (resuming mid-row after a block split).
            while i < end && !self.win_pos.is_multiple_of(LANES) {
                out[i] = self.step_lane(self.win_pos % LANES) * gain;
                self.win_pos += 1;
                i += 1;
            }
            // Full rows: 8 independent multiplies per row — the
            // auto-vectorized steady state.
            while end - i >= LANES {
                out[i..i + LANES].copy_from_slice(&self.row_scaled(gain));
                i += LANES;
            }
            // Trailing partial row (block ends mid-row).
            while i < end {
                out[i] = self.step_lane(self.win_pos % LANES) * gain;
                self.win_pos += 1;
                i += 1;
            }
            self.pos += (i - seg_start) as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(r: &PhasorRotor, k: u64) -> Complex64 {
        Complex64::cis(r.ideal_phase(k))
    }

    #[test]
    fn matches_oracle_within_window_drift() {
        let mut r = PhasorRotor::new(137.0, 1e5, 0.7);
        let probe = r.clone();
        let mut out = vec![Complex64::ZERO; 5000];
        r.fill(&mut out);
        for (k, s) in out.iter().enumerate() {
            let want = oracle(&probe, k as u64);
            assert!((*s - want).norm() < 1e-12, "sample {k}: {s:?} vs {want:?}");
        }
    }

    #[test]
    fn fill_scaled_equals_fill_then_scale() {
        // Any split, any gain (negative and zero included): the fused
        // store is the same multiply as scaling the filled phasors.
        for (block, gain) in [(1usize, 0.8), (7, -0.25), (1000, 0.0), (3000, 1.0)] {
            let mut a = PhasorRotor::with_resync(49.0, 4096.0, 1.1, 96);
            let mut b = a.clone();
            let mut want = vec![Complex64::ZERO; 3000];
            a.fill(&mut want);
            let mut got = vec![Complex64::ZERO; 3000];
            for chunk in got.chunks_mut(block) {
                b.fill_scaled(chunk, gain);
            }
            for (k, (x, y)) in want.iter().zip(&got).enumerate() {
                let x = *x * gain;
                assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "block {block} gain {gain} sample {k}"
                );
            }
        }
    }

    #[test]
    fn fill_is_split_invariant() {
        for block in [1usize, 3, 7, 8, 64, 1000] {
            let mut a = PhasorRotor::with_resync(49.0, 4096.0, 1.1, 96);
            let mut b = a.clone();
            let mut whole = vec![Complex64::ZERO; 3000];
            a.fill(&mut whole);
            let mut split = Vec::new();
            let mut buf = Vec::new();
            let mut left = 3000usize;
            while left > 0 {
                let take = block.min(left);
                buf.clear();
                buf.resize(take, Complex64::ZERO);
                b.fill(&mut buf);
                split.extend_from_slice(&buf);
                left -= take;
            }
            for (k, (x, y)) in whole.iter().zip(&split).enumerate() {
                assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "block {block} sample {k}"
                );
            }
        }
    }

    #[test]
    fn seek_reproduces_streamed_windows() {
        let mut a = PhasorRotor::with_resync(137.0, 1e4, 2.5, 96);
        let mut whole = vec![Complex64::ZERO; 96 * 7 + 13];
        a.fill(&mut whole);
        let mut b = PhasorRotor::with_resync(137.0, 1e4, 2.5, 96);
        for w in [5usize, 0, 7, 2] {
            b.seek((w * 96) as u64);
            let end = whole.len().min((w + 1) * 96);
            let mut win = vec![Complex64::ZERO; end - w * 96];
            // Split mid-row so the partial-row paths run after a seek too.
            let split = win.len().min(11);
            let (head, tail) = win.split_at_mut(split);
            b.fill(head);
            b.fill(tail);
            for (k, (x, y)) in win.iter().zip(&whole[w * 96..end]).enumerate() {
                assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "window {w} sample {k}"
                );
            }
            assert_eq!(b.pos, end as u64);
        }
    }

    #[test]
    #[should_panic(expected = "not a resync boundary")]
    fn seek_rejects_mid_window() {
        PhasorRotor::with_resync(1.0, 10.0, 0.0, 8).seek(12);
    }

    #[test]
    fn next_sample_matches_fill() {
        let mut a = PhasorRotor::new(-20.0, 1e3, 0.0);
        let mut b = a.clone();
        let mut out = vec![Complex64::ZERO; 300];
        a.fill(&mut out);
        for (k, want) in out.iter().enumerate() {
            let got = b.next_sample();
            assert_eq!(got.re.to_bits(), want.re.to_bits(), "sample {k}");
            assert_eq!(got.im.to_bits(), want.im.to_bits(), "sample {k}");
        }
    }

    #[test]
    fn unit_magnitude_everywhere() {
        let mut r = PhasorRotor::new(7.0, 1e5, 0.3);
        let mut out = vec![Complex64::ZERO; 10_000];
        r.fill(&mut out);
        for s in &out {
            assert!((s.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn resync_window_rounds_to_lane_multiple() {
        let r = PhasorRotor::with_resync(1.0, 10.0, 0.0, 1);
        assert_eq!(r.resync(), LANES);
        let r = PhasorRotor::with_resync(1.0, 10.0, 0.0, 100);
        assert_eq!(r.resync(), 104);
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn rejects_bad_sample_rate() {
        PhasorRotor::new(1.0, 0.0, 0.0);
    }
}
