//! Allocation-free CIB envelope kernels.
//!
//! The Eq. 10 frequency-plan search evaluates the envelope
//! `Y(t) = |Σᵢ aᵢ·e^{j(2πΔfᵢt + βᵢ)}|` millions of times; this module is
//! the kernel layer [`crate::freqsel`] (and [`crate::waveform`]'s grid
//! sampler) run on. Three stacked optimizations over the naive
//! per-evaluation path:
//!
//! 1. **Batched, allocation-free evaluation** — [`EnvelopeScratch`] owns
//!    the complex accumulator grid, the FFT buffer, and the phase-draw
//!    buffer, so a Monte-Carlo objective touches the allocator once per
//!    *call* instead of five times per *draw*. The peak search compares
//!    `|z|²` and takes the single `sqrt` at the winner instead of `grid`
//!    times per draw, and the iterative ternary refinement is replaced by
//!    one parabolic interpolation plus one direct evaluation.
//! 2. **Incremental one-tone re-evaluation** — the Eq. 10 hill climber
//!    perturbs exactly one offset per candidate under common random
//!    numbers. [`CrnKernel`] caches the per-draw complex grid of the
//!    current set and scores a candidate by subtracting the old tone and
//!    adding the new one: O(grid·draws) per candidate instead of
//!    O(N·grid·draws) — an ~N/3× algorithmic win at paper scale (N = 10).
//! 3. **An FFT path** — integer-hertz offsets on a uniform 1 s grid make
//!    the sampled period exactly an unnormalized inverse DFT of a sparse
//!    spectrum ([`ivn_dsp::fft::ifft_unnormalized`]); selected
//!    automatically when `N·grid > grid·log₂(grid)`, i.e. when the tone
//!    count exceeds `log₂(grid)`.
//!
//! Two more kernels serve the per-trial session path (a campaign's hot
//! loop: find the envelope peak, power the tag up, key a Query on the
//! peak, decode it):
//!
//! * [`envelope_window`] — `Y(t0 + k/rate)` over a window with the
//!   same four-rotator scheme, behind
//!   [`crate::waveform::CibEnvelope::keyed_window`] (the keyed downlink,
//!   whose values differ from the pointwise sum by a few hundred ulps;
//!   only the decoded bit string depends on them) and
//!   [`crate::waveform::CibEnvelope::period_chunks`] (the power-up
//!   envelope, below).
//! * [`grid_argmax`] — the grid argmax of
//!   [`crate::waveform::CibEnvelope::peak_over_period`], ranked on
//!   `|z|²` with `hypot` taken only for the near-maximal candidates; it
//!   returns exactly the index a full `hypot` scan would.
//!
//! Two `hypot`/trig paths stay deliberately exact, because their values
//! feed bit-hashed outputs (campaign `gains_db`, `times_to_power_s`):
//!
//! * The harvester's power-up envelope streams the period grid one
//!   [`RENORM_INTERVAL`] chunk at a time
//!   ([`crate::waveform::CibEnvelope::period_chunks`]): each chunk is an
//!   [`envelope_window`] at `t0 = start/grid`, `rate = grid`, so it has
//!   the whole-grid direct fill's chunk bases, tone order and per-sample
//!   `hypot`, and its bits (where the FFT synthesis pays off, the chunks
//!   are slices of that fill). `sample_period` collects the stream;
//!   [`crate::system::power_up_over_period`] pulls it only until the
//!   chip wakes, so a trial that powers in its first chunk synthesizes
//!   and integrates 256 samples instead of the whole period.
//! * `peak_over_period`'s ternary refinement evaluates `envelope()`
//!   pointwise.
//!
//! All paths agree with [`crate::waveform::CibEnvelope::envelope`]
//! pointwise to well under 1e-9 (property-tested in
//! `crates/core/tests/kernel_props.rs`). Incremental phasor rotation is
//! resynchronized from exact trig every [`RENORM_INTERVAL`] samples so
//! rounding drift cannot compound across the grid.

use ivn_dsp::complex::Complex64;
use ivn_dsp::envelope::parabolic_peak;
use ivn_dsp::fft;
use ivn_runtime::rng::Rng;
use std::f64::consts::TAU;

/// The incremental-rotation loop re-derives its phasor from exact trig
/// every this many samples, bounding the compounded rounding error of
/// `ph *= step` to ~256 ulps regardless of grid size.
pub const RENORM_INTERVAL: usize = 256;

/// One tone pass over `acc`, sample `k` at time `t0 + k·dt`:
/// `WRITE = true` assigns (initializing the buffer without a separate
/// zeroing pass), `WRITE = false` accumulates.
///
/// The incremental rotation runs as **four interleaved rotators**, each
/// advancing by `4ω·dt`: a single rotator is a serial dependency chain —
/// every sample waits one complex-multiply latency on the previous — so
/// four independent chains keep the multiplier pipeline full, ~3× the
/// throughput of the textbook loop. Each [`RENORM_INTERVAL`] chunk
/// re-derives its rotators from exact trig, bounding compounded rounding
/// to a few hundred ulps regardless of grid size. With `t0 = 0.0` the
/// chunk bases are bit-identical to the grid form `2πf·k·dt + φ`.
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

/// Accumulates one tone `amp·e^{j(2πf·k/grid + phase)}` into `acc`
/// (`grid = acc.len()` samples spanning one 1-second period).
///
/// No trig in the inner loop (see `tone_pass`); resynchronized from
/// exact trig every [`RENORM_INTERVAL`] samples. A negative `amp`
/// subtracts the tone exactly (`from_polar(-a, θ)` is the exact negation
/// of `from_polar(a, θ)`), which is how [`CrnKernel`] removes a perturbed
/// tone from a cached grid.
pub fn accumulate_tone(acc: &mut [Complex64], offset_hz: f64, phase: f64, amp: f64) {
    tone_pass::<false>(acc, offset_hz, phase, amp, 0.0, 1.0 / acc.len() as f64);
}

/// [`accumulate_tone`] that *assigns* instead of accumulating — the first
/// tone of a fill initializes the buffer, saving the zeroing pass.
pub fn write_tone(acc: &mut [Complex64], offset_hz: f64, phase: f64, amp: f64) {
    tone_pass::<true>(acc, offset_hz, phase, amp, 0.0, 1.0 / acc.len() as f64);
}

/// Direct evaluation of the envelope `Y(t)` from raw tone parameters —
/// no intermediate struct, no allocation. `amps == None` means unit
/// amplitudes.
pub fn envelope_value(offsets_hz: &[f64], phases: &[f64], amps: Option<&[f64]>, t: f64) -> f64 {
    let mut acc = Complex64::ZERO;
    for i in 0..offsets_hz.len() {
        let a = amps.map_or(1.0, |a| a[i]);
        acc += Complex64::from_polar(a, TAU * offsets_hz[i] * t + phases[i]);
    }
    acc.norm()
}

/// The envelope over a sample window: `out[k] = Y(t0 + k/rate)` for
/// `k < out.len()` — the keyed-downlink path, where a command rides the
/// envelope at `rate` samples/s from an arbitrary start instant.
///
/// Allocation-free: the window is processed in [`RENORM_INTERVAL`]-sample
/// chunks, each accumulated tone by tone into one stack buffer with the
/// same four-rotator scheme as the grid sampler (`tone_pass`), so every
/// chunk starts from exact trig. One `hypot` per sample; no trig in the
/// inner loop. Agrees with [`envelope_value`] pointwise to a few hundred
/// ulps of `Σ|aᵢ|` (property-tested in `crates/core/tests/kernel_props.rs`).
///
/// # Panics
/// Panics if `offsets_hz` and `phases` differ in length.
pub fn envelope_window(
    offsets_hz: &[f64],
    phases: &[f64],
    amps: Option<&[f64]>,
    t0: f64,
    rate: f64,
    out: &mut [f64],
) {
    assert_eq!(offsets_hz.len(), phases.len(), "offsets/phases mismatch");
    let dt = 1.0 / rate;
    let mut buf = [Complex64::ZERO; RENORM_INTERVAL];
    for (c, chunk) in out.chunks_mut(RENORM_INTERVAL).enumerate() {
        let acc = &mut buf[..chunk.len()];
        let t_chunk = t0 + (c * RENORM_INTERVAL) as f64 * dt;
        acc.fill(Complex64::ZERO);
        for i in 0..offsets_hz.len() {
            let a = amps.map_or(1.0, |a| a[i]);
            tone_pass::<false>(acc, offsets_hz[i], phases[i], a, t_chunk, dt);
        }
        for (o, z) in chunk.iter_mut().zip(acc.iter()) {
            *o = z.norm();
        }
    }
}

/// Relative `|z|²` band below the grid maximum inside which
/// [`grid_argmax`] takes the exact `hypot`. `norm_sqr` and `hypot` each
/// round within a few ulps, so any point whose `hypot` could tie or beat
/// the `|z|²` winner lies well inside this band.
const ARGMAX_BAND: f64 = 1e-9;

/// Index of the largest `|z|` on a complex grid, `None` when empty.
///
/// Returns exactly the index
/// `grid.iter().map(|z| z.norm()).enumerate().max_by(total_cmp)` would —
/// including its rule that the last of equal maxima wins — but takes the
/// `hypot` only for the candidates with `|z|² ≥ max|z|²·(1 − 1e-9)`
/// instead of for every point. When the `|z|²` scan cannot vouch for
/// that (a NaN or infinite `|z|²`, or a maximum below
/// `f64::MIN_POSITIVE` where subnormal squares lose their relative
/// precision) it falls back to the full `hypot` scan.
pub fn grid_argmax(grid: &[Complex64]) -> Option<usize> {
    let mut max_sqr = 0.0f64;
    let mut nan = false;
    for z in grid {
        let p = z.norm_sqr();
        nan |= p.is_nan();
        max_sqr = max_sqr.max(p);
    }
    let by_value = |a: &(usize, f64), b: &(usize, f64)| a.1.total_cmp(&b.1);
    if nan || !(max_sqr.is_finite() && max_sqr >= f64::MIN_POSITIVE) {
        return grid
            .iter()
            .map(|z| z.norm())
            .enumerate()
            .max_by(by_value)
            .map(|(k, _)| k);
    }
    let floor = max_sqr * (1.0 - ARGMAX_BAND);
    grid.iter()
        .enumerate()
        .filter(|(_, z)| z.norm_sqr() >= floor)
        .map(|(k, z)| (k, z.norm()))
        .max_by(by_value)
        .map(|(k, _)| k)
}

/// Whether the sparse-spectrum FFT synthesis beats direct accumulation:
/// direct is O(N·grid), the FFT is O(grid·log₂ grid), so the FFT wins
/// once the tone count exceeds `log₂(grid)`. Requires a power-of-two
/// grid and exactly-integer offsets (the sparse bins must be exact).
pub fn fft_pays_off(n_tones: usize, grid: usize, offsets_hz: &[f64]) -> bool {
    grid.is_power_of_two()
        && n_tones > grid.trailing_zeros() as usize
        && offsets_hz
            .iter()
            .all(|f| f.fract() == 0.0 && f.abs() < 4.5e15)
}

/// Refined peak amplitude of a sampled complex grid: parabolic
/// interpolation of `|z|²` around the discrete argmax (periodic
/// neighbours), then one direct evaluation of the true envelope at the
/// interpolated instant. Never below the grid peak itself.
fn refined_peak(
    acc: &[Complex64],
    offsets_hz: &[f64],
    phases: &[f64],
    amps: Option<&[f64]>,
) -> f64 {
    let grid = acc.len();
    let (mut k, mut best_sqr) = (0usize, f64::MIN);
    for (i, z) in acc.iter().enumerate() {
        let p = z.norm_sqr();
        if p > best_sqr {
            best_sqr = p;
            k = i;
        }
    }
    let ym = acc[(k + grid - 1) % grid].norm_sqr();
    let yp = acc[(k + 1) % grid].norm_sqr();
    let (dx, _) = parabolic_peak(ym, best_sqr, yp);
    let t = (k as f64 + dx) / grid as f64;
    envelope_value(offsets_hz, phases, amps, t).max(best_sqr.sqrt())
}

/// Reusable workspace for batched envelope evaluation: the complex
/// accumulator grid and the phase-draw buffer live here, so repeated
/// evaluations (the Monte-Carlo objective, the grid sampler) never touch
/// the allocator in steady state.
#[derive(Debug, Default)]
pub struct EnvelopeScratch {
    acc: Vec<Complex64>,
    phase_buf: Vec<f64>,
}

impl EnvelopeScratch {
    /// An empty workspace; buffers grow to the working size on first use
    /// and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// The complex grid produced by the latest `fill_*` call.
    pub fn grid(&self) -> &[Complex64] {
        &self.acc
    }

    /// Fills the grid by direct per-tone accumulation: O(N·grid).
    pub fn fill_direct(
        &mut self,
        offsets_hz: &[f64],
        phases: &[f64],
        amps: Option<&[f64]>,
        grid: usize,
    ) {
        assert!(grid > 0);
        assert_eq!(offsets_hz.len(), phases.len(), "offsets/phases mismatch");
        if self.acc.len() != grid {
            self.acc.clear();
            self.acc.resize(grid, Complex64::ZERO);
        }
        if offsets_hz.is_empty() {
            self.acc.fill(Complex64::ZERO);
            return;
        }
        for i in 0..offsets_hz.len() {
            let a = amps.map_or(1.0, |a| a[i]);
            if i == 0 {
                // The first tone writes, initializing the grid without a
                // separate zeroing pass.
                write_tone(&mut self.acc, offsets_hz[i], phases[i], a);
            } else {
                accumulate_tone(&mut self.acc, offsets_hz[i], phases[i], a);
            }
        }
    }

    /// Fills the grid by sparse-spectrum inverse FFT: O(grid·log grid).
    ///
    /// Each integer offset `f` lands in bin `f mod grid` (negative
    /// offsets wrap); aliasing of `|f| ≥ grid` is *exact* on the sample
    /// grid since `e^{j2πfk/grid}` depends only on `f mod grid`.
    ///
    /// # Panics
    /// Panics if `grid` is not a power of two or any offset is not an
    /// exact integer.
    pub fn fill_fft(
        &mut self,
        offsets_hz: &[f64],
        phases: &[f64],
        amps: Option<&[f64]>,
        grid: usize,
    ) {
        assert!(grid.is_power_of_two(), "FFT path needs a power-of-two grid");
        assert_eq!(offsets_hz.len(), phases.len(), "offsets/phases mismatch");
        self.acc.clear();
        self.acc.resize(grid, Complex64::ZERO);
        for i in 0..offsets_hz.len() {
            let f = offsets_hz[i];
            assert!(f.fract() == 0.0, "FFT path needs integer offsets, got {f}");
            let bin = (f as i64).rem_euclid(grid as i64) as usize;
            let a = amps.map_or(1.0, |a| a[i]);
            self.acc[bin] += Complex64::from_polar(a, phases[i]);
        }
        fft::ifft_unnormalized(&mut self.acc);
    }

    /// Fills the grid, auto-selecting the FFT path when it is cheaper
    /// ([`fft_pays_off`]) and falling back to direct accumulation.
    pub fn fill(&mut self, offsets_hz: &[f64], phases: &[f64], amps: Option<&[f64]>, grid: usize) {
        if fft_pays_off(offsets_hz.len(), grid, offsets_hz) {
            self.fill_fft(offsets_hz, phases, amps, grid);
        } else {
            self.fill_direct(offsets_hz, phases, amps, grid);
        }
    }

    /// Refined peak amplitude of the current grid (see `refined_peak`).
    pub fn peak(&self, offsets_hz: &[f64], phases: &[f64], amps: Option<&[f64]>) -> f64 {
        refined_peak(&self.acc, offsets_hz, phases, amps)
    }

    /// Monte-Carlo `E[max_t Y(t)]` over `draws` uniform phase draws —
    /// the allocation-free engine behind
    /// [`crate::freqsel::expected_peak`]. Phase draws consume `rng` in
    /// the same order as the original per-draw loop, so seeded results
    /// remain reproducible.
    pub fn expected_peak<R: Rng + ?Sized>(
        &mut self,
        offsets_hz: &[f64],
        draws: usize,
        grid: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(draws > 0);
        let n = offsets_hz.len();
        let mut phases = std::mem::take(&mut self.phase_buf);
        phases.clear();
        phases.resize(n, 0.0);
        let mut acc = 0.0;
        for _ in 0..draws {
            let _t = ivn_runtime::trace_span!("freqsel.kernel_fill");
            for p in phases.iter_mut() {
                *p = rng.random::<f64>() * TAU;
            }
            self.fill(offsets_hz, &phases, None, grid);
            let y = self.peak(offsets_hz, &phases, None);
            // Physics probes (same contract as `peak_over_period`): the
            // per-draw peak amplitude, and how close the N unit carriers
            // came to perfect phase alignment (1.0 = fully coherent).
            ivn_runtime::trace_counter!("physics.envelope_peak", y);
            if n > 0 {
                ivn_runtime::trace_counter!("physics.phase_alignment", y / n as f64);
            }
            acc += y;
        }
        self.phase_buf = phases;
        acc / draws as f64
    }
}

/// Common-random-numbers incremental evaluator for the Eq. 10 hill
/// climber (unit amplitudes).
///
/// Caches, for every Monte-Carlo draw, the complex grid of the *current*
/// offset set. A candidate that swaps one tone is scored by copying each
/// cached grid into scratch, subtracting the old tone and adding the new
/// one — two tone passes instead of N — and an accepted swap is committed
/// to the cache with the same two passes. The phase draws are fixed at
/// construction (common random numbers), exactly the draw sequence
/// [`EnvelopeScratch::expected_peak`] would consume from the same RNG.
#[derive(Debug)]
pub struct CrnKernel {
    offsets_hz: Vec<f64>,
    cand: Vec<f64>,
    /// `draws × n` phase draws, row-major.
    phases: Vec<f64>,
    /// `draws × grid` cached complex grids of the current set, row-major.
    grids: Vec<Complex64>,
    scratch: Vec<Complex64>,
    draws: usize,
    grid: usize,
    commits_since_rebuild: usize,
}

/// Cached-grid rebuild cadence: accepted swaps mutate the cache by
/// `−old + new` deltas whose rounding could compound over a long climb,
/// so the cache is re-accumulated from scratch every this many commits.
const REBUILD_INTERVAL: usize = 32;

impl CrnKernel {
    /// Builds the evaluator for `offsets_hz`, drawing `draws × n` phases
    /// from `rng` (draw-major, tone-minor — the same order as the
    /// original re-seeded per-candidate evaluation).
    pub fn new<R: Rng + ?Sized>(
        offsets_hz: &[f64],
        draws: usize,
        grid: usize,
        rng: &mut R,
    ) -> Self {
        assert!(draws > 0 && grid > 0 && !offsets_hz.is_empty());
        let n = offsets_hz.len();
        let phases: Vec<f64> = (0..draws * n).map(|_| rng.random::<f64>() * TAU).collect();
        let mut kernel = CrnKernel {
            offsets_hz: offsets_hz.to_vec(),
            cand: offsets_hz.to_vec(),
            phases,
            grids: vec![Complex64::ZERO; draws * grid],
            scratch: vec![Complex64::ZERO; grid],
            draws,
            grid,
            commits_since_rebuild: 0,
        };
        kernel.rebuild();
        kernel
    }

    /// The current (committed) offset set.
    pub fn offsets_hz(&self) -> &[f64] {
        &self.offsets_hz
    }

    /// The phase draws of draw `d`.
    pub fn draw_phases(&self, d: usize) -> &[f64] {
        let n = self.offsets_hz.len();
        &self.phases[d * n..(d + 1) * n]
    }

    fn rebuild(&mut self) {
        let n = self.offsets_hz.len();
        self.grids.fill(Complex64::ZERO);
        for d in 0..self.draws {
            let acc = &mut self.grids[d * self.grid..(d + 1) * self.grid];
            for i in 0..n {
                accumulate_tone(acc, self.offsets_hz[i], self.phases[d * n + i], 1.0);
            }
        }
        self.commits_since_rebuild = 0;
    }

    /// Scores the current set from the cached grids: the mean refined
    /// peak over all draws.
    pub fn score_current(&self) -> f64 {
        let n = self.offsets_hz.len();
        let mut acc = 0.0;
        for d in 0..self.draws {
            acc += refined_peak(
                &self.grids[d * self.grid..(d + 1) * self.grid],
                &self.offsets_hz,
                &self.phases[d * n..(d + 1) * n],
                None,
            );
        }
        acc / self.draws as f64
    }

    /// Scores the candidate that replaces tone `idx` with `new_hz`,
    /// without committing it: O(grid·draws) regardless of N.
    pub fn score_swap(&mut self, idx: usize, new_hz: f64) -> f64 {
        let n = self.offsets_hz.len();
        let old_hz = self.offsets_hz[idx];
        self.cand.copy_from_slice(&self.offsets_hz);
        self.cand[idx] = new_hz;
        let mut acc = 0.0;
        for d in 0..self.draws {
            let phase = self.phases[d * n + idx];
            self.scratch
                .copy_from_slice(&self.grids[d * self.grid..(d + 1) * self.grid]);
            accumulate_tone(&mut self.scratch, old_hz, phase, -1.0);
            accumulate_tone(&mut self.scratch, new_hz, phase, 1.0);
            acc += refined_peak(
                &self.scratch,
                &self.cand,
                &self.phases[d * n..(d + 1) * n],
                None,
            );
        }
        acc / self.draws as f64
    }

    /// Commits the swap of tone `idx` to `new_hz`: applies the same
    /// `−old + new` delta [`score_swap`](Self::score_swap) evaluated to
    /// the cached grids, rebuilding from scratch every
    /// `REBUILD_INTERVAL` commits to bound delta-rounding drift.
    pub fn commit_swap(&mut self, idx: usize, new_hz: f64) {
        let n = self.offsets_hz.len();
        let old_hz = self.offsets_hz[idx];
        self.offsets_hz[idx] = new_hz;
        self.commits_since_rebuild += 1;
        if self.commits_since_rebuild >= REBUILD_INTERVAL {
            self.rebuild();
            return;
        }
        for d in 0..self.draws {
            let phase = self.phases[d * n + idx];
            let acc = &mut self.grids[d * self.grid..(d + 1) * self.grid];
            accumulate_tone(acc, old_hz, phase, -1.0);
            accumulate_tone(acc, new_hz, phase, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::CibEnvelope;
    use ivn_runtime::rng::StdRng;

    #[test]
    fn accumulate_matches_direct_trig_across_renorm_boundaries() {
        let mut acc = vec![Complex64::ZERO; 1024];
        accumulate_tone(&mut acc, 137.0, 0.9, 0.7);
        for k in (0..1024).step_by(41) {
            let t = k as f64 / 1024.0;
            let want = Complex64::from_polar(0.7, TAU * 137.0 * t + 0.9);
            assert!((acc[k] - want).norm() < 1e-12, "sample {k}");
        }
    }

    #[test]
    fn negative_amplitude_subtracts_exactly() {
        let mut acc = vec![Complex64::ZERO; 512];
        accumulate_tone(&mut acc, 49.0, 1.2, 1.0);
        accumulate_tone(&mut acc, 49.0, 1.2, -1.0);
        for z in &acc {
            assert_eq!(*z, Complex64::ZERO);
        }
    }

    #[test]
    fn fft_and_direct_fill_agree() {
        let offsets = [0.0, 7.0, 20.0, 49.0, 68.0, 73.0, 90.0, 113.0, 121.0, 137.0];
        let phases: Vec<f64> = (0..10).map(|i| 0.37 * i as f64).collect();
        let mut a = EnvelopeScratch::new();
        let mut b = EnvelopeScratch::new();
        a.fill_direct(&offsets, &phases, None, 256);
        b.fill_fft(&offsets, &phases, None, 256);
        for (x, y) in a.grid().iter().zip(b.grid()) {
            assert!((*x - *y).norm() < 1e-9);
        }
    }

    #[test]
    fn fft_aliasing_is_exact_on_grid() {
        // |offset| ≥ grid wraps modulo grid — identical on the samples.
        let mut a = EnvelopeScratch::new();
        let mut b = EnvelopeScratch::new();
        a.fill_direct(&[70.0], &[0.3], None, 64);
        b.fill_fft(&[70.0], &[0.3], None, 64);
        for (x, y) in a.grid().iter().zip(b.grid()) {
            assert!((*x - *y).norm() < 1e-9);
        }
    }

    #[test]
    fn auto_selection_predicate() {
        let int_offsets: Vec<f64> = (0..12).map(|i| i as f64 * 7.0).collect();
        // 12 tones > log2(1024) = 10 → FFT pays off.
        assert!(fft_pays_off(12, 1024, &int_offsets));
        // 10 tones on a 1024 grid: equal cost, stay direct.
        assert!(!fft_pays_off(10, 1024, &int_offsets[..10]));
        // Non-integer offsets or non-pow2 grids disqualify.
        assert!(!fft_pays_off(12, 1000, &int_offsets));
        assert!(!fft_pays_off(2, 2, &[0.0, 7.5]));
    }

    #[test]
    fn scratch_peak_close_to_iterative_peak_search() {
        let offsets = [0.0, 7.0, 20.0, 49.0, 68.0];
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..8 {
            let phases: Vec<f64> = (0..5).map(|_| rng.random::<f64>() * TAU).collect();
            let mut s = EnvelopeScratch::new();
            s.fill(&offsets, &phases, None, 1024);
            let fast = s.peak(&offsets, &phases, None);
            let (_, slow) = CibEnvelope::new(&offsets, &phases).peak_over_period(1024);
            assert!((fast - slow).abs() < 2e-3, "fast {fast} slow {slow}");
            assert!(fast <= slow + 1e-9, "refinement overshot: {fast} > {slow}");
        }
    }

    #[test]
    fn crn_swap_score_matches_fresh_evaluation() {
        let offsets = [0.0, 7.0, 20.0, 49.0, 68.0];
        let mut rng = StdRng::seed_from_u64(3);
        let mut k = CrnKernel::new(&offsets, 8, 512, &mut rng);
        let swapped = [0.0, 7.0, 25.0, 49.0, 68.0];
        let s_incr = k.score_swap(2, 25.0);
        // A fresh kernel over the swapped set with the same phase draws.
        let mut rng = StdRng::seed_from_u64(3);
        let fresh = CrnKernel::new(&swapped, 8, 512, &mut rng);
        let s_full = fresh.score_current();
        assert!(
            (s_incr - s_full).abs() < 1e-9,
            "incr {s_incr} full {s_full}"
        );
    }

    #[test]
    fn crn_commit_then_score_is_consistent() {
        let offsets = [0.0, 7.0, 20.0, 49.0, 68.0];
        let mut rng = StdRng::seed_from_u64(4);
        let mut k = CrnKernel::new(&offsets, 6, 256, &mut rng);
        let scored = k.score_swap(1, 11.0);
        k.commit_swap(1, 11.0);
        assert_eq!(k.offsets_hz()[1], 11.0);
        let rescored = k.score_current();
        assert!((scored - rescored).abs() < 1e-9, "{scored} vs {rescored}");
    }

    #[test]
    fn crn_rebuild_interval_keeps_cache_honest() {
        let offsets = [0.0, 5.0, 9.0];
        let mut rng = StdRng::seed_from_u64(5);
        let mut k = CrnKernel::new(&offsets, 4, 128, &mut rng);
        // Hammer far past the rebuild cadence.
        for step in 0..(2 * REBUILD_INTERVAL + 3) {
            let new_hz = 10.0 + (step % 50) as f64;
            k.commit_swap(2, new_hz);
        }
        let cached = k.score_current();
        let mut rng = StdRng::seed_from_u64(5);
        let fresh = CrnKernel::new(k.offsets_hz(), 4, 128, &mut rng).score_current();
        assert!((cached - fresh).abs() < 1e-9, "{cached} vs {fresh}");
    }
}
