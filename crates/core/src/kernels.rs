//! Allocation-free CIB envelope kernels.
//!
//! The Eq. 10 frequency-plan search evaluates the envelope
//! `Y(t) = |Σᵢ aᵢ·e^{j(2πΔfᵢt + βᵢ)}|` millions of times, and every
//! campaign trial searches it for its peak; this module is the kernel
//! layer [`crate::freqsel`] and [`crate::waveform`] run on.
//!
//! * **One tone bank** — [`tone_bank`], sample-major with four rotators
//!   per tone and no trig in the inner loop, is every multi-tone
//!   synthesis: the grid fill, [`envelope_window`] and [`CrnKernel`]'s
//!   cache rebuilds and `−old + new` swap deltas.
//! * **Batched, allocation-free evaluation** — [`EnvelopeScratch`] owns
//!   the complex grid and the phase-draw buffer. The Monte-Carlo objective
//!   ranks the grid on `|z|²` in one four-lane scan ([`max_norm_sqr`]),
//!   then takes one parabolic step and one direct evaluation.
//! * **Incremental one-tone re-evaluation** — [`CrnKernel`] caches the
//!   per-draw grid of the current offset set and scores a one-tone swap by
//!   subtracting the old tone and adding the new one: O(grid·draws) per
//!   candidate instead of O(N·grid·draws).
//! * **An FFT path** — integer-hertz offsets on a uniform 1 s grid make
//!   the sampled period an unnormalized inverse DFT of a sparse spectrum
//!   ([`ivn_dsp::fft::ifft_unnormalized`]), selected when the tone count
//!   exceeds `log₂(grid)` ([`fft_pays_off`]).
//! * **The grid argmax** — [`EnvelopeScratch::argmax`] takes it from an
//!   f32 twin of the bank ([`tone_bank_f32`]) whose top sample is `2E` clear
//!   of the rest, else from [`grid_argmax`], which takes `hypot` only for
//!   the near-maximal `|z|²`, yet returns exactly a full `hypot` scan's index.
//! * **Certified squared envelopes** — [`envelope_sqr`] evaluates
//!   `|Σᵢ aᵢe^{jθ̂ᵢ}|²` on libm's own rounded angles with branch-free
//!   lanes of fdlibm sine/cosine ([`sin_cos_lanes`]), and [`ToneSeries`]
//!   as a power series around a bracket's centre. Each comes with an
//!   error bound against the libm envelope `Y²` (derived at `SETTLE` and
//!   at [`ToneSeries`]), so a comparison of two instants that differ by
//!   20× that bound is the libm envelope's comparison.
//! * **The droop certificate** — `curvature_bound` is
//!   `L₂ = Σᵢⱼ|aᵢaⱼ|(2π(fᵢ − fⱼ))² ≥ |g″|` for `g = Y²`, the paper's
//!   Eq. 8 droop coefficient for any amplitudes, and `window_bounds`
//!   turns it, the slope `g′ = 2Re(S̄·S′)` at one instant and the error
//!   bounds of libm and the tone bank into an interval holding every
//!   window sample within `h` of that instant. A keyed Query whose
//!   interval keeps the envelope above half its maximum (Eq. 9's
//!   `α = 0.5`) decodes as its bare raster does, with no window
//!   synthesized ([`crate::system::KeyedQuery::decodes`]).
//!
//! The session trial's outputs are exact, as their values feed bit-hashed
//! outputs (campaign `gains_db`, `times_to_power_s`): the power-up stream
//! ([`crate::waveform::CibEnvelope::period_chunks`]) is one
//! [`envelope_window`] per chunk, with the whole-grid fill's bits, and
//! [`crate::waveform::CibEnvelope::peak_over_period`] settles its early
//! ternary steps on the certified envelopes (about 25 on the series and 6
//! on the lanes of 60 on a campaign trial), then refines on pointwise
//! [`tone_sum`]s, which also give the final `(t, y)`; a certified keyed
//! decode is the synthesized window's decode by construction. The bank
//! reproduces one tone-at-a-time pass per tone bit for bit; every path
//! agrees with `CibEnvelope::envelope` to well under 1e-9
//! (property-tested in `crates/core/tests/kernel_props.rs`).

use ivn_dsp::complex::Complex64;
use ivn_dsp::envelope::parabolic_peak;
use ivn_dsp::fft;
use ivn_runtime::rng::Rng;
use std::array::from_fn;
use std::f64::consts::{FRAC_2_PI, TAU};

/// The incremental-rotation loop re-derives its phasor from exact trig
/// every this many samples, bounding the compounded rounding error of
/// `ph *= step` to ~256 ulps regardless of grid size.
pub const RENORM_INTERVAL: usize = 256;

/// The tone bank: sample `k` of `acc` gets
/// `Σᵢ aᵢ·e^{j(2πfᵢ(t0 + k·dt) + βᵢ)}` (`amps == None`: unit amplitudes),
/// summed in tone order. `write = true` assigns (the first tone
/// initializes the buffer, no zeroing pass); `write = false` accumulates.
///
/// Each [`RENORM_INTERVAL`] chunk is walked quad by quad. A tone has
/// **four rotators**, one per quad lane, each advancing by `4ω·dt` and
/// re-derived from exact trig at every chunk start, which bounds
/// compounded rounding to a few hundred ulps; a chunk's last `len mod 4`
/// samples take exact trig. Tones go in blocks of 8, then of 4, 2 or 1:
/// a block keeps its rotators in SoA re/im arrays and sums them into
/// register accumulators, storing each sample once. Every sample sees the
/// float ops, in order, of one tone-at-a-time pass per tone, so the bits
/// do not depend on the blocking.
///
/// # Panics
/// Panics if `offsets_hz` and `phases` differ in length.
pub fn tone_bank(
    acc: &mut [Complex64],
    offsets_hz: &[f64],
    phases: &[f64],
    amps: Option<&[f64]>,
    t0: f64,
    dt: f64,
    write: bool,
) {
    assert_eq!(offsets_hz.len(), phases.len(), "offsets/phases mismatch");
    if write && offsets_hz.is_empty() {
        acc.fill(Complex64::ZERO);
    }
    let mut lo = 0;
    while lo < offsets_hz.len() {
        let (f, p, a) = (&offsets_hz[lo..], &phases[lo..], amps.map(|a| &a[lo..]));
        let first = write && lo == 0;
        lo += match f.len() {
            8.. => bank_block::<8>(acc, f, p, a, t0, dt, first),
            4..=7 => bank_block::<4>(acc, f, p, a, t0, dt, first),
            2 | 3 => bank_block::<2>(acc, f, p, a, t0, dt, first),
            _ => bank_block::<1>(acc, f, p, a, t0, dt, first),
        };
    }
}

/// One [`tone_bank`] pass of the first `N` tones, the first one writing
/// when `first`; returns `N`.
fn bank_block<const N: usize>(
    acc: &mut [Complex64],
    offsets_hz: &[f64],
    phases: &[f64],
    amps: Option<&[f64]>,
    t0: f64,
    dt: f64,
    first: bool,
) -> usize {
    let (mut w, mut step1, mut step4) = ([0.0; N], [Complex64::ZERO; N], [Complex64::ZERO; N]);
    for b in 0..N {
        w[b] = TAU * offsets_hz[b] * dt;
        (step1[b], step4[b]) = (Complex64::cis(w[b]), Complex64::cis(4.0 * w[b]));
    }
    for (c, chunk) in acc.chunks_mut(RENORM_INTERVAL).enumerate() {
        let (mut base, mut amp) = ([0.0; N], [0.0; N]);
        let (mut re, mut im) = ([[0.0; 4]; N], [[0.0; 4]; N]);
        for b in 0..N {
            amp[b] = amps.map_or(1.0, |a| a[b]);
            base[b] = TAU * offsets_hz[b] * (t0 + (c * RENORM_INTERVAL) as f64 * dt) + phases[b];
            let mut p = Complex64::from_polar(amp[b], base[b]);
            for j in 0..4 {
                (re[b][j], im[b][j]) = (p.re, p.im);
                p *= step1[b];
            }
        }
        let done = chunk.len() / 4 * 4;
        let mut quads = chunk.chunks_exact_mut(4);
        for quad in &mut quads {
            let (mut ar, mut ai) = if first {
                (re[0], im[0])
            } else {
                (from_fn(|j| quad[j].re), from_fn(|j| quad[j].im))
            };
            for b in 0..N {
                for j in 0..4 {
                    let (r, m) = (re[b][j], im[b][j]);
                    if b >= usize::from(first) {
                        ar[j] += r;
                        ai[j] += m;
                    }
                    re[b][j] = r * step4[b].re - m * step4[b].im;
                    im[b][j] = r * step4[b].im + m * step4[b].re;
                }
            }
            for j in 0..4 {
                quad[j] = Complex64::new(ar[j], ai[j]);
            }
        }
        for (j, a) in quads.into_remainder().iter_mut().enumerate() {
            for b in 0..N {
                let v = Complex64::from_polar(amp[b], base[b] + w[b] * (done + j) as f64);
                *a = if first && b == 0 { v } else { *a + v };
            }
        }
    }
    N
}

/// Swaps one tone of the 1 s grid `acc` from `old_hz` to `new_hz` at
/// `phase`: one accumulating two-tone [`tone_bank`] of amplitudes −1, +1,
/// the bits of subtracting the old tone and then adding the new one
/// (`from_polar(-1, θ)` is the exact negation of `from_polar(1, θ)`).
fn swap_tone(acc: &mut [Complex64], old_hz: f64, new_hz: f64, phase: f64) {
    let (dt, offs) = (1.0 / acc.len() as f64, [old_hz, new_hz]);
    tone_bank(acc, &offs, &[phase; 2], Some(&[-1.0, 1.0]), 0.0, dt, false);
}

/// The complex sum `Σᵢ aᵢ·e^{j(2πfᵢt + βᵢ)}` at one instant, in tone
/// order (`amps == None`: unit amplitudes) — the pointwise reference
/// behind [`crate::waveform::CibEnvelope::envelope`].
pub fn tone_sum(offsets_hz: &[f64], phases: &[f64], amps: Option<&[f64]>, t: f64) -> Complex64 {
    let mut acc = Complex64::ZERO;
    for i in 0..offsets_hz.len() {
        let a = amps.map_or(1.0, |a| a[i]);
        acc += Complex64::from_polar(a, TAU * offsets_hz[i] * t + phases[i]);
    }
    acc
}

/// Lanes of one [`sin_cos_lanes`] call: [`envelope_sqr`] fills them with
/// `LANES / 2` tones at two instants, [`ToneSeries`] with `LANES` tones.
pub const LANES: usize = 8;

/// Largest `|θ|` (radians) [`sin_cos_lanes`] reduces exactly: its
/// quadrant index `k = round(θ·2/π)` stays below 2^20, so `k` times each
/// 33-bit part of π/2 is exact. Beyond it a lane returns NaN.
pub const CERTIFIED_ANGLE: f64 = 1_048_576.0;

/// π/2 in a 33 + 33 + 53-bit Cody–Waite split (fdlibm's `pio2_1`,
/// `pio2_2`, `pio2_2t`; the literals are those doubles' shortest forms).
const PIO2_1: f64 = 1.570_796_326_734_125_6;
const PIO2_2: f64 = 6.077_100_506_303_966e-11;
const PIO2_2T: f64 = 2.022_266_248_795_950_6e-21;

/// fdlibm's `__kernel_sin` and `__kernel_cos` minimax coefficients on
/// `[−π/4, π/4]`.
const S: [f64; 6] = [
    -0.166_666_666_666_666_32,
    0.008_333_333_333_322_49,
    -0.000_198_412_698_298_579_5,
    2.755_731_370_707_006_8e-6,
    -2.505_076_025_340_686_3e-8,
    1.589_690_995_211_55e-10,
];
const C: [f64; 6] = [
    0.041_666_666_666_666_6,
    -0.001_388_888_888_887_411,
    2.480_158_728_947_673e-5,
    -2.755_731_435_139_066_3e-7,
    2.087_572_321_298_175e-9,
    -1.135_964_755_778_819_5e-11,
];

/// `a + b` as an exact double-double `(s, e)` (Knuth's TwoSum).
#[inline(always)]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    (s, (a - (s - bb)) + (b - bb))
}

/// `(sin θ, cos θ)` of every lane, branch-free so the lanes vectorize:
/// a Cody–Waite reduction `θ = k·π/2 + (y₀ + y₁)` with π/2 to 119 bits
/// (both steps always taken, the second TwoSum-compensated, instead of
/// fdlibm's cancellation branches), fdlibm's `__kernel_sin`/`__kernel_cos`
/// polynomials on the double-double `y₀ + y₁`, and the quadrant `k mod 4`
/// applied by selects and sign-bit flips. fdlibm's polynomials are within
/// 1 ulp of the true value on an exact reduced argument, and every lane is
/// property-tested within 2 ulp of libm's over `|θ| ≤ CERTIFIED_ANGLE`
/// (`crates/core/tests/kernel_props.rs`). A lane with
/// `|θ| > CERTIFIED_ANGLE` or a non-finite `θ` returns NaN for both.
#[inline]
pub fn sin_cos_lanes(theta: &[f64; LANES]) -> ([f64; LANES], [f64; LANES]) {
    // 1.5·2^52: adding it rounds to an integer kept in the low mantissa bits.
    const TOINT: f64 = 6_755_399_441_055_744.0;
    // One lane-wise statement at a time, so the lanes' chains interleave.
    let x: [f64; LANES] = from_fn(|j| {
        let in_range = theta[j].abs() <= CERTIFIED_ANGLE;
        if in_range {
            theta[j]
        } else {
            f64::NAN
        }
    });
    let kf: [f64; LANES] = from_fn(|j| x[j] * FRAC_2_PI + TOINT);
    let k: [f64; LANES] = from_fn(|j| kf[j] - TOINT);
    // x − k·PIO2_1 and k·PIO2_2 are exact for |k| < 2^20.
    let r: [(f64, f64); LANES] = from_fn(|j| {
        let (h, e) = two_sum(x[j] - k[j] * PIO2_1, -(k[j] * PIO2_2));
        (h, e - k[j] * PIO2_2T)
    });
    let y0: [f64; LANES] = from_fn(|j| r[j].0 + r[j].1);
    let y1: [f64; LANES] = from_fn(|j| (r[j].0 - y0[j]) + r[j].1);
    let z: [f64; LANES] = from_fn(|j| y0[j] * y0[j]);
    let w: [f64; LANES] = from_fn(|j| z[j] * z[j]);
    let s: [f64; LANES] = from_fn(|j| {
        let (z, w, v) = (z[j], w[j], z[j] * y0[j]);
        let r = S[1] + z * (S[2] + z * S[3]) + z * w * (S[4] + z * S[5]);
        y0[j] - ((z * (0.5 * y1[j] - v * r) - y1[j]) - v * S[0])
    });
    let c: [f64; LANES] = from_fn(|j| {
        let (z, w) = (z[j], w[j]);
        let r = z * (C[0] + z * (C[1] + z * C[2])) + w * w * (C[3] + z * (C[4] + z * C[5]));
        let hz = 0.5 * z;
        let one_minus = 1.0 - hz;
        one_minus + (((1.0 - one_minus) - hz) + (z * r - y0[j] * y1[j]))
    });
    // sin: s, c, −s, −c and cos: c, −s, −c, s for k ≡ 0, 1, 2, 3.
    let q: [u64; LANES] = from_fn(|j| kf[j].to_bits() & 3);
    let sin = from_fn(|j| {
        let v = if q[j] & 1 == 1 { c[j] } else { s[j] };
        f64::from_bits(v.to_bits() ^ ((q[j] & 2) << 62))
    });
    let cos = from_fn(|j| {
        let v = if q[j] & 1 == 1 { s[j] } else { c[j] };
        f64::from_bits(v.to_bits() ^ (((q[j] + 1) & 2) << 62))
    });
    (sin, cos)
}

/// `g̃(t) = |Σᵢ aᵢ(cos θ̂ᵢ + j·sin θ̂ᵢ)|²` at two instants, the squared
/// envelope on [`sin_cos_lanes`]: the same rounded angles
/// `θ̂ᵢ = fl(fl(fl(2π·fᵢ)·t) + βᵢ)` and the same tone-order sums as
/// [`tone_sum`], then `re² + im²` without a `hypot`. A block holds
/// `LANES / 2` tones at both instants, so each instant's sum is its own
/// lane of a pairwise add. NaN when an angle is outside
/// [`CERTIFIED_ANGLE`].
///
/// # Panics
/// Panics if the slices differ in length.
pub fn envelope_sqr(offsets_hz: &[f64], phases: &[f64], amps: &[f64], t: [f64; 2]) -> [f64; 2] {
    const TONES: usize = LANES / 2;
    assert!(offsets_hz.len() == phases.len() && phases.len() == amps.len());
    let (mut re, mut im) = ([0.0; 2], [0.0; 2]);
    for ((f, p), a) in offsets_hz
        .chunks(TONES)
        .zip(phases.chunks(TONES))
        .zip(amps.chunks(TONES))
    {
        let mut theta = [0.0; LANES];
        for i in 0..f.len() {
            let w = TAU * f[i];
            theta[2 * i] = w * t[0] + p[i];
            theta[2 * i + 1] = w * t[1] + p[i];
        }
        let (sin, cos) = sin_cos_lanes(&theta);
        for i in 0..f.len() {
            for m in 0..2 {
                re[m] += a[i] * cos[2 * i + m];
                im[m] += a[i] * sin[2 * i + m];
            }
        }
    }
    [re[0] * re[0] + im[0] * im[0], re[1] * re[1] + im[1] * im[1]]
}

/// The error certificate of [`envelope_sqr`] against
/// [`crate::waveform::CibEnvelope::envelope`]: two instants whose `g̃`
/// differ by more than `SETTLE · (n + 4) · (Σ|aᵢ|)²` compare, on the
/// libm envelope `Y = hypot(Ŝ)`, the way their `g̃` do.
///
/// Derivation, with `ε = 2⁻⁵²`, `A = Σ|aᵢ|` and `n` tones, at one instant:
/// 1. Both paths take the same rounded angle `θ̂ᵢ`, so their `cos θ̂ᵢ`
///    differ by at most 1 ulp (fdlibm) + 1 ulp (libm) ≤ 2ε, and so do
///    their `sin θ̂ᵢ`.
/// 2. The products `fl(aᵢ·cos θ̂ᵢ)` then differ by at most
///    `2ε|aᵢ| + 2·(ε/2)|aᵢ| = 3ε|aᵢ|`.
/// 3. The `n` tone-order additions each round by at most `ε/2` of a
///    partial sum no larger than `A`, in either path: each component of
///    `S̃ − Ŝ` is at most `(3 + n)·ε·A`, so `|S̃ − Ŝ| ≤ √2(n + 3)·ε·A`.
/// 4. `||S̃|² − |Ŝ|²| ≤ (|S̃| + |Ŝ|)·|S̃ − Ŝ| ≤ 2.83(n + 3)·ε·A²`.
/// 5. `g̃ = fl(fl(re²) + fl(im²))` is within `1.01·ε·|S̃|²` of `|S̃|²`, and
///    libm's `hypot` within 1 ulp puts `Y²` within `2.01·ε·|Ŝ|²` of
///    `|Ŝ|²`.
///
/// So `|g̃ − Y²| ≤ (2.83(n + 3) + 3.02)·ε·A² ≤ 3(n + 4)·ε·A²`, and
/// `sign(g̃(m₁) − g̃(m₂)) ≠ sign(Y(m₁)² − Y(m₂)²)` needs
/// `|g̃(m₁) − g̃(m₂)| ≤ 6(n + 4)·ε·A²`. `SETTLE = 60ε` holds 10× over
/// that, which also absorbs the rounding of the difference and of the
/// threshold itself.
const SETTLE: f64 = 60.0 * f64::EPSILON;

/// The margin above which [`envelope_sqr`] orders two instants in
/// `[−t_max, t_max]` exactly as the libm envelope does (see [`SETTLE`]),
/// or `None` when the tones are not [`certifiable`] there.
pub(crate) fn settle_margin(
    offsets_hz: &[f64],
    phases: &[f64],
    amps: &[f64],
    t_max: f64,
) -> Option<f64> {
    let (a, _) = certifiable(offsets_hz, phases, amps, t_max)?;
    Some(SETTLE * (offsets_hz.len() + 4) as f64 * a * a)
}

/// `(A, Θ)` with `A = Σ|aᵢ|` and the angle bound
/// `Θ = maxᵢ(|fl(2π·fᵢ)|·t_max + |βᵢ|)` of every instant in
/// `[−t_max, t_max]`, or `None` when no certified evaluator can vouch for
/// the tones there: `A` outside `[1e-100, 1e100]` (non-finite amplitudes,
/// or squares and products near the subnormal or overflow range), or `Θ`
/// beyond half of [`CERTIFIED_ANGLE`] (slack for the angles' rounding).
fn certifiable(offsets_hz: &[f64], phases: &[f64], amps: &[f64], t_max: f64) -> Option<(f64, f64)> {
    let a: f64 = amps.iter().map(|a| a.abs()).sum();
    let mut theta: f64 = 0.0;
    for (f, p) in offsets_hz.iter().zip(phases) {
        let bound = (TAU * f).abs() * t_max + p.abs();
        let in_range = bound <= 0.5 * CERTIFIED_ANGLE;
        if !in_range {
            return None;
        }
        theta = theta.max(bound);
    }
    (1e-100..=1e100).contains(&a).then_some((a, theta))
}

/// Most coefficients a [`ToneSeries`] keeps.
const SERIES_TERMS: usize = 24;

/// Largest `X = maxᵢ|fl(2π·fᵢ)|·h` a [`ToneSeries`] expands over.
const SERIES_MAX_X: f64 = 2.0;

/// The tone sum around the centre `c` of a bracket `[lo, hi]` as a power
/// series in `u = (t − c)/h`, `h = (hi − lo)/2`:
/// `S(t) = Σₖ Bₖuᵏ` with `Bₖ = Σᵢ Pᵢ(j·xᵢ)ᵏ/k!`, `Pᵢ = aᵢe^{j(wᵢc + βᵢ)}`
/// (from [`sin_cos_lanes`]) and `xᵢ = wᵢh`. One evaluation is a Horner
/// pass over at most 24 coefficients instead of `n` sines
/// and cosines, so it settles the ternary's early steps, where the two
/// values differ by far more than the series' error.
///
/// Unlike [`envelope_sqr`] it does not take the libm path's rounded
/// angles, so its certificate ([`Self::margin`]) carries their rounding.
/// With `ε = 2⁻⁵²`, `A = Σ|aᵢ|`, the angle bound
/// `Θ = maxᵢ(|wᵢ|·max(|lo|, |hi|) + |βᵢ|)`, `X = maxᵢ|xᵢ|` and `K`
/// coefficients, the series `S̃` and the libm sum
/// `Ŝ` differ by at most `D = A·(3εΘ + 3(n + 3)ε + T + 4(K + n + 4)ε·e^X)`:
/// 1. the libm angles `fl(fl(wᵢt) + βᵢ)` are within `εΘ` of `wᵢt + βᵢ`,
///    and so are the angles of the `Pᵢ`; each path's sines and cosines
///    are within 1 ulp ≤ ε of the true ones at its angles, its products
///    within `ε/2`, and the libm path's `n` additions within `(n/2)·ε·A`
///    per component (`3εΘ` and `3(n + 3)ε` hold √2 for the modulus);
/// 2. the truncation after `K` terms is at most
///    `T = X^K/K!·e^X` (every omitted term is at most `A·Xᵏ/k!`);
/// 3. the coefficient recurrence, the Horner pass and the rounding of
///    `u` each lose a few ε relative to `Σₖ A·Xᵏ/k! ≤ A·e^X`.
///
/// So `|g̃ − Y²| ≤ E = 2(A + D)·D + 4εA²` (the last term the rounding of
/// `g̃ = re² + im²` and libm's 1-ulp `hypot`), and the margin `20·E`
/// holds 10× over the `2E` a wrong comparison needs.
#[derive(Debug)]
pub struct ToneSeries {
    c: f64,
    inv_h: f64,
    len: usize,
    re: [f64; SERIES_TERMS],
    im: [f64; SERIES_TERMS],
    margin: f64,
}

impl ToneSeries {
    /// The series over `[lo, hi]`, or `None` when the bracket is empty,
    /// `X` exceeds 2, or no certified evaluator can vouch for the tones
    /// there (the conditions of the lanes' margin: `A` in
    /// `[1e-100, 1e100]`, `Θ` within half of [`CERTIFIED_ANGLE`]). It keeps
    /// the fewest coefficients whose truncation bound is within
    /// `ε·max(Θ, 1)`, at most 24.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn around(
        offsets_hz: &[f64],
        phases: &[f64],
        amps: &[f64],
        lo: f64,
        hi: f64,
    ) -> Option<Self> {
        assert!(offsets_hz.len() == phases.len() && phases.len() == amps.len());
        let (a_sum, theta) = certifiable(offsets_hz, phases, amps, lo.abs().max(hi.abs()))?;
        let (c, h) = (0.5 * (lo + hi), 0.5 * (hi - lo));
        let x_max = offsets_hz
            .iter()
            .map(|f| (TAU * f * h).abs())
            .fold(0.0, f64::max);
        let expands = h > 0.0 && x_max <= SERIES_MAX_X;
        if !expands {
            return None;
        }
        let (eps, ex) = (f64::EPSILON, x_max.exp());
        // `tail` bounds the first omitted term's share, A·X^len/len!·e^X / A.
        let (mut len, mut tail) = (1, x_max * ex);
        while len < SERIES_TERMS && tail > eps * theta.max(1.0) {
            len += 1;
            tail *= x_max / len as f64;
        }
        let (mut re, mut im) = ([0.0; SERIES_TERMS], [0.0; SERIES_TERMS]);
        for ((f, p), a) in offsets_hz
            .chunks(LANES)
            .zip(phases.chunks(LANES))
            .zip(amps.chunks(LANES))
        {
            let mut angle = [0.0; LANES];
            for i in 0..f.len() {
                angle[i] = TAU * f[i] * c + p[i];
            }
            let (sin, cos) = sin_cos_lanes(&angle);
            // Per lane, the term Pᵢ(j·xᵢ)ᵏ/k!, stepped by j·xᵢ/(k + 1).
            let mut pr: [f64; LANES] = from_fn(|i| if i < f.len() { a[i] * cos[i] } else { 0.0 });
            let mut pi: [f64; LANES] = from_fn(|i| if i < f.len() { a[i] * sin[i] } else { 0.0 });
            let x: [f64; LANES] = from_fn(|i| if i < f.len() { TAU * f[i] * h } else { 0.0 });
            for k in 0..len {
                re[k] += pr.iter().sum::<f64>();
                im[k] += pi.iter().sum::<f64>();
                let step = 1.0 / (k + 1) as f64;
                for i in 0..LANES {
                    let y = x[i] * step;
                    (pr[i], pi[i]) = (-pi[i] * y, pr[i] * y);
                }
            }
        }
        let n = offsets_hz.len() as f64;
        let d = a_sum
            * (3.0 * eps * theta
                + 3.0 * (n + 3.0) * eps
                + tail
                + 4.0 * (len as f64 + n + 4.0) * eps * ex);
        let e = 2.0 * (a_sum + d) * d + 4.0 * eps * a_sum * a_sum;
        Some(ToneSeries {
            c,
            inv_h: 1.0 / h,
            len,
            re,
            im,
            margin: 20.0 * e,
        })
    }

    /// The certificate: two instants of the bracket whose
    /// [`Self::envelope_sqr`] differ by more than this compare, on the
    /// libm envelope, the way their series values do.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// `|S̃(t)|²` at two instants; NaN for an instant outside the bracket
    /// (`|u| > 1` beyond rounding), where the bound does not hold.
    pub fn envelope_sqr(&self, t: [f64; 2]) -> [f64; 2] {
        t.map(|t| {
            let u = (t - self.c) * self.inv_h;
            let inside = u.abs() <= 1.0 + 1e-9;
            if !inside {
                return f64::NAN;
            }
            let (mut re, mut im) = (0.0, 0.0);
            for k in (0..self.len).rev() {
                re = re * u + self.re[k];
                im = im * u + self.im[k];
            }
            re * re + im * im
        })
    }
}

/// `L₂ = Σᵢⱼ |aᵢaⱼ|·(2π(fᵢ − fⱼ))²`, a bound on the curvature of the
/// squared envelope `g = |S|²` at every instant: `g` is
/// `Σᵢⱼ aᵢaⱼ·cos(2π(fᵢ − fⱼ)t + βᵢ − βⱼ)`, so
/// `|g″| = |Σᵢⱼ aᵢaⱼ(2π(fᵢ − fⱼ))²·cos(…)| ≤ L₂`. With unit amplitudes
/// `L₂ = 8π²(N·Σfᵢ² − (Σfᵢ)²)`, and `g ≥ N² − L₂Δt²/2` around an aligned
/// peak is the paper's Eq. 8 droop in `Y²` (on mean-centred offsets,
/// which the envelope cannot tell from the raw ones).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn curvature_bound(offsets_hz: &[f64], amps: &[f64]) -> f64 {
    assert_eq!(offsets_hz.len(), amps.len(), "offsets/amplitudes mismatch");
    let mut half = 0.0;
    for i in 0..offsets_hz.len() {
        for j in i + 1..offsets_hz.len() {
            let w = TAU * (offsets_hz[i] - offsets_hz[j]);
            half += (amps[i] * amps[j]).abs() * w * w;
        }
    }
    2.0 * half
}

/// Bounds `(lo, hi)` on the envelope over `[t − h, t + h]`, as
/// [`envelope_window`]'s tone bank evaluates it there: every sample it
/// takes in that span lies in `[lo, hi]`. `None` under the conditions of
/// the other certificates over `[−(|t| + h), |t| + h]`: `A` outside
/// `[1e-100, 1e100]` (or non-finite), or an angle beyond half of
/// [`CERTIFIED_ANGLE`].
///
/// With `S′ = Σᵢ j·2πfᵢ·aᵢe^{j(2πfᵢt + βᵢ)}`, `g = |S|²` has slope
/// `g′ = 2·Re(S̄·S′)` and curvature at most [`curvature_bound`]'s `L₂`,
/// so Taylor's theorem puts every `g(t + δ)`, `|δ| ≤ h`, within
/// `D = |g′(t)|·h + L₂h²/2` of `g(t)`. One libm pass evaluates `S(t)`
/// and `S′(t)`; with `ε = 2⁻⁵²`, `A = Σ|aᵢ|`, `A₁ = Σ|2πfᵢaᵢ|` and the
/// angle bound `Θ`, each is within `δ₀ = 8(Θ + n + 4)εA` (resp.
/// `δ₁ = 8(Θ + n + 4)εA₁`) of the exact sum (angle rounding `3εΘ`, one
/// ulp per sine, cosine and product, `n` tone-order additions, √2 for the
/// modulus). So `g(t)` is within `r = (2A + δ₀)δ₀ + 4εA²` of the computed
/// `|Ŝ|²`, and `|g′(t)|` at most `2|Re(Ŝ̄Ŝ′)| + 2(Aδ₁ + A₁δ₀ + δ₀δ₁) +
/// 8εAA₁`; `D` is widened by 10⁻⁶ of itself for its own rounding. Last,
/// the bank's samples are within `e = 2·10⁻⁹·A` of the envelope: 10⁻⁹·A
/// is the tolerance `crates/core/tests/kernel_props.rs` asserts of the
/// bank against the libm `Y`, and as much again covers `Y`'s own angle
/// rounding (`3εΘA`, below 4·10⁻¹⁰·A as `Θ ≤ 2¹⁹`) and the rounding of
/// `lo` and `hi`. So `lo = √(|Ŝ|² − D − r) − e`, `hi = √(|Ŝ|² + D + r) + e`.
///
/// # Panics
/// Panics if the slices differ in length.
pub(crate) fn window_bounds(
    offsets_hz: &[f64],
    phases: &[f64],
    amps: &[f64],
    t: f64,
    h: f64,
) -> Option<(f64, f64)> {
    assert!(offsets_hz.len() == phases.len() && phases.len() == amps.len());
    let (a, theta) = certifiable(offsets_hz, phases, amps, t.abs() + h)?;
    let (mut s, mut ds, mut a1) = (Complex64::ZERO, Complex64::ZERO, 0.0);
    for i in 0..offsets_hz.len() {
        let w = TAU * offsets_hz[i];
        let z = Complex64::from_polar(amps[i], w * t + phases[i]);
        s += z;
        ds += Complex64::new(-w * z.im, w * z.re);
        a1 += (w * amps[i]).abs();
    }
    let eps = f64::EPSILON;
    let scale = 8.0 * (theta + offsets_hz.len() as f64 + 4.0) * eps;
    let (d0, d1) = (scale * a, scale * a1);
    let r = (2.0 * a + d0) * d0 + 4.0 * eps * a * a;
    let slope = 2.0 * (s.re * ds.re + s.im * ds.im).abs()
        + 2.0 * (a * d1 + a1 * d0 + d0 * d1)
        + 8.0 * eps * a * a1;
    let d = (slope * h + 0.5 * curvature_bound(offsets_hz, amps) * h * h) * (1.0 + 1e-6);
    let (g, e) = (s.norm_sqr(), 2e-9 * a);
    Some(((g - d - r).max(0.0).sqrt() - e, (g + d + r).sqrt() + e))
}

/// The envelope over a sample window: `out[k] = Y(t0 + k/rate)` for
/// `k < out.len()` — the keyed-downlink path, where a command rides the
/// envelope at `rate` samples/s from an arbitrary start instant.
///
/// Allocation-free: each [`RENORM_INTERVAL`]-sample chunk is one
/// [`tone_bank`] write into a stack buffer, so every chunk starts from
/// exact trig, then one `hypot` per sample. Agrees with [`tone_sum`]
/// pointwise to a few hundred ulps of `Σ|aᵢ|` (property-tested in
/// `crates/core/tests/kernel_props.rs`).
///
/// # Panics
/// Panics if `offsets_hz` and `phases` differ in length and `out` is
/// not empty.
pub fn envelope_window(
    offsets_hz: &[f64],
    phases: &[f64],
    amps: Option<&[f64]>,
    t0: f64,
    rate: f64,
    out: &mut [f64],
) {
    window_map(offsets_hz, phases, amps, t0, rate, out, |o, z| {
        *o = z.norm()
    });
}

/// A command profile keyed onto the envelope in place:
/// `levels[k] *= Y(t0 + k/rate)`, except that a zero level (±0.0) is left
/// as it is without taking the `hypot` — the bits of the product for any
/// finite `Y ≥ 0`. The tone bank still walks every sample, so the other
/// levels get [`envelope_window`]'s bits.
pub(crate) fn keyed_envelope_window(
    offsets_hz: &[f64],
    phases: &[f64],
    amps: Option<&[f64]>,
    t0: f64,
    rate: f64,
    levels: &mut [f64],
) {
    window_map(offsets_hz, phases, amps, t0, rate, levels, |o, z| {
        if *o != 0.0 {
            *o *= z.norm();
        }
    });
}

/// The chunk walk behind [`envelope_window`]: one [`tone_bank`] write per
/// [`RENORM_INTERVAL`]-sample chunk into a stack buffer, then `each(out[k],
/// z_k)` per sample.
fn window_map(
    offsets_hz: &[f64],
    phases: &[f64],
    amps: Option<&[f64]>,
    t0: f64,
    rate: f64,
    out: &mut [f64],
    each: impl Fn(&mut f64, &Complex64),
) {
    let dt = 1.0 / rate;
    let mut buf = [Complex64::ZERO; RENORM_INTERVAL];
    for (c, chunk) in out.chunks_mut(RENORM_INTERVAL).enumerate() {
        let acc = &mut buf[..chunk.len()];
        let t_chunk = t0 + (c * RENORM_INTERVAL) as f64 * dt;
        tone_bank(acc, offsets_hz, phases, amps, t_chunk, dt, true);
        for (o, z) in chunk.iter_mut().zip(acc.iter()) {
            each(o, z);
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
    let (_, max_sqr, nan) = max_norm_sqr(grid);
    let prefilter = !nan && max_sqr.is_finite() && max_sqr >= f64::MIN_POSITIVE;
    let floor = max_sqr * (1.0 - ARGMAX_BAND);
    grid.iter()
        .enumerate()
        .filter(|(_, z)| !prefilter || z.norm_sqr() >= floor)
        .map(|(k, z)| (k, z.norm()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(k, _)| k)
}

/// One four-lane pass over a grid's `|z|²`: `(k, max, nan)`, with `k` the
/// lowest index of the largest non-NaN `|z|²` (`(0, f64::MIN)` when there
/// is none) and `nan` whether any `|z|²` is NaN — what a serial
/// `if p > best` scan gives. Lane `j` keeps the first maximum among the
/// indices `≡ j (mod 4)`; the lanes merge on the larger value, then the
/// lower index.
pub fn max_norm_sqr(grid: &[Complex64]) -> (usize, f64, bool) {
    let (mut best, mut idx, mut nan) = ([f64::MIN; 4], [0usize; 4], [false; 4]);
    let mut lane = |j: usize, i: usize, z: &Complex64| {
        let p = z.norm_sqr();
        nan[j] |= p.is_nan();
        if p > best[j] {
            (best[j], idx[j]) = (p, i);
        }
    };
    let quads = grid.chunks_exact(4);
    let (rem, done) = (quads.remainder(), grid.len() / 4 * 4);
    for (q, quad) in quads.enumerate() {
        for (j, z) in quad.iter().enumerate() {
            lane(j, 4 * q + j, z);
        }
    }
    for (j, z) in rem.iter().enumerate() {
        lane(j, done + j, z);
    }
    let by_max_then_first =
        |&a: &usize, &b: &usize| best[a].total_cmp(&best[b]).then(idx[b].cmp(&idx[a]));
    let j = (0..4).max_by(by_max_then_first).unwrap_or(0);
    (idx[j], best[j], nan.contains(&true))
}

/// The single-precision twin of the 1 s grid's [`tone_bank`] write, on
/// amplitudes scaled by the power of two `s` that puts `A = Σ|aᵢ|·s` in
/// `[1, 2)`: the bank's chunk bases, lane starts and steps `σᵢ = cis(4wᵢ)`
/// from its own f64 expressions, rounded to f32; four lane rotators per
/// tone; exact trig for a chunk's last `len mod 4` samples. Leaves
/// `g̃ₖ = |z̃ₖ|²` in `g` (`im` is scratch) and returns `(s, E)`, or `None`
/// (nothing written) when `Σ|aᵢ|` is outside `[1e-300, 1e300]`.
///
/// `E` bounds `|√g̃ₖ − s·hypot(zₖ)|`, `zₖ` the bank sample [`grid_argmax`]
/// ranks. With `u = 2⁻²⁴`, `ε = 2⁻⁵²`, `n` tones and `Zₖ = s·Σᵢ Pᵢⱼσᵢ^q`
/// the exact walk from the bank's lane starts at `k = 256c + 4q + j` (at
/// a tail sample, `s` times the bank's own exact-trig terms):
/// 1. rounding `s·Pᵢⱼ` (exact but for underflow) costs `u·s|aᵢ|`; each of
///    the ≤ 63 f32 multiplies by `fl(σᵢ)` adds `u` for that rounding and
///    `√5·u` for its own (no FMA), so a lane is within
///    `(1 + 63(1 + √5))·u·s|aᵢ|·1.0001` of `s·Pᵢⱼσᵢ^q`, a tail term `u·s|aᵢ|`;
/// 2. `n` f32 tone additions, each within `u` of a partial sum below
///    `1.0001·A`, add `√2·n·u·A·1.0001` to the modulus;
/// 3. `√g̃` is within `(u + u²)·|z̃|` of `|z̃|`; f32 underflow (products,
///    squares, tiny scaled amplitudes) adds under 2⁻⁷⁰;
/// 4. `s·zₖ` is within `(63√5 + n + 1)·ε·A` of `Zₖ` (step 1 at `ε` on the
///    bank's own `σᵢ`) and `hypot` within `ε·A`: under 2⁻⁴⁰·A together.
///
/// So the error is at most `(206 + 1.42n)·u·A·1.0002 + 2⁻⁴⁰·A < E =
/// (208 + 2n)·u·A`.
///
/// # Panics
/// Panics if the tone slices differ in length.
pub fn tone_bank_f32(
    g: &mut [f32],
    im: &mut [f32],
    offsets_hz: &[f64],
    phases: &[f64],
    amps: &[f64],
) -> Option<(f64, f64)> {
    assert!(offsets_hz.len() == phases.len() && phases.len() == amps.len());
    let a_sum: f64 = amps.iter().map(|a| a.abs()).sum();
    if !(1e-300..=1e300).contains(&a_sum) {
        return None;
    }
    let s = 2f64.powi(1023 - (a_sum.to_bits() >> 52) as i32);
    let (dt, len) = (1.0 / g.len() as f64, RENORM_INTERVAL);
    g.fill(0.0);
    im.fill(0.0);
    for lo in (0..offsets_hz.len()).step_by(4) {
        // Up to four tones; a missing one is a zero lane that stays zero.
        let tones = lo..offsets_hz.len().min(lo + 4);
        let (mut w, mut step1) = ([0.0; 4], [Complex64::ZERO; 4]);
        let (mut s4r, mut s4i) = ([[1f32; 4]; 4], [[0f32; 4]; 4]);
        for (b, i) in tones.clone().enumerate() {
            w[b] = TAU * offsets_hz[i] * dt;
            let step4 = Complex64::cis(4.0 * w[b]);
            (s4r[b], s4i[b]) = ([step4.re as f32; 4], [step4.im as f32; 4]);
            step1[b] = Complex64::cis(w[b]);
        }
        for (c, (cr, ci)) in g.chunks_mut(len).zip(im.chunks_mut(len)).enumerate() {
            let (mut pr, mut pi, mut base) = ([[0f32; 4]; 4], [[0f32; 4]; 4], [0.0; 4]);
            for (b, i) in tones.clone().enumerate() {
                let t = 0.0 + (c * len) as f64 * dt;
                base[b] = TAU * offsets_hz[i] * t + phases[i];
                let mut p = Complex64::from_polar(amps[i] * s, base[b]);
                for j in 0..4 {
                    (pr[b][j], pi[b][j]) = (p.re as f32, p.im as f32);
                    p *= step1[b];
                }
            }
            walk_f32(cr, ci, (pr, pi), (&s4r, &s4i));
            for k in cr.len() / 4 * 4..cr.len() {
                for (b, i) in tones.clone().enumerate() {
                    let v = Complex64::from_polar(amps[i] * s, base[b] + w[b] * k as f64);
                    (cr[k], ci[k]) = (cr[k] + v.re as f32, ci[k] + v.im as f32);
                }
            }
        }
    }
    for (r, i) in g.iter_mut().zip(im.iter()) {
        *r = *r * *r + i * i;
    }
    let e = (208.0 + 2.0 * offsets_hz.len() as f64) * (a_sum * s) / 16_777_216.0;
    Some((s, e))
}

/// Four tones' four lanes, `[tone][lane]`.
type Lanes = [[f32; 4]; 4];

/// One chunk of [`tone_bank_f32`]: adds four tones' lanes `p` to each quad,
/// then steps lane `j` of tone `b` by `s4[b][j]`. Out of line, as inlined
/// LLVM shuffles the lanes at every quad (the walk ran 1.5× slower).
#[inline(never)]
fn walk_f32(re: &mut [f32], im: &mut [f32], p: (Lanes, Lanes), s4: (&Lanes, &Lanes)) {
    let ((mut pr, mut pi), (s4r, s4i)) = (p, s4);
    for (qr, qi) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
        let (mut ar, mut ai): ([f32; 4], [f32; 4]) = (from_fn(|j| qr[j]), from_fn(|j| qi[j]));
        for b in 0..4 {
            let (r, m) = (pr[b], pi[b]);
            for j in 0..4 {
                (ar[j], ai[j]) = (ar[j] + r[j], ai[j] + m[j]);
                pr[b][j] = r[j] * s4r[b][j] - m[j] * s4i[b][j];
                pi[b][j] = r[j] * s4i[b][j] + m[j] * s4r[b][j];
            }
        }
        qr.copy_from_slice(&ar);
        qi.copy_from_slice(&ai);
    }
}

/// The index of the twin's largest `g̃` when every other `g̃` lies below
/// `τ = (√g̃_top − 2E)²`, rounded down, so that `√g̃_top − √g̃_second > 2E`
/// (then `E` orders the f64 grid's `hypot`s the same way); `None` when
/// two or more `g̃` reach `τ` (a NaN always does) or `√g̃_top ≤ 2E`.
fn certified_argmax(g: &[f32], e: f64) -> Option<usize> {
    let (mut top, lanes) = ([0f32; 8], g.chunks_exact(8));
    let max = |m: f32, x: f32| if x > m { x } else { m };
    for c in lanes.clone() {
        top = from_fn(|j| max(top[j], c[j]));
    }
    let top = top.into_iter().chain(lanes.remainder().iter().copied());
    let top = top.fold(0f32, max);
    let root = f64::from(top).sqrt() - 2.0 * e;
    let tau = ((root * root) as f32).next_down();
    let reach = |&x: &f32| u32::from(x >= tau || x.is_nan());
    let unique = root > 0.0 && g.iter().map(reach).sum::<u32>() == 1;
    unique.then(|| g.iter().position(|&x| x == top))?
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
    let (k, best_sqr, _) = max_norm_sqr(acc);
    let ym = acc[(k + grid - 1) % grid].norm_sqr();
    let yp = acc[(k + 1) % grid].norm_sqr();
    let (dx, _) = parabolic_peak(ym, best_sqr, yp);
    let t = (k as f64 + dx) / grid as f64;
    tone_sum(offsets_hz, phases, amps, t)
        .norm()
        .max(best_sqr.sqrt())
}

/// Reusable workspace for batched envelope evaluation: the complex
/// accumulator grid and the phase-draw buffer live here, so repeated
/// evaluations (the Monte-Carlo objective, the grid sampler) never touch
/// the allocator in steady state.
#[derive(Debug, Default)]
pub struct EnvelopeScratch {
    acc: Vec<Complex64>,
    phase_buf: Vec<f64>,
    /// [`tone_bank_f32`]'s `g̃` grid, then its `im` scratch.
    twin: Vec<f32>,
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

    /// Fills the grid by direct synthesis, one [`tone_bank`] write:
    /// O(N·grid).
    pub fn fill_direct(
        &mut self,
        offsets_hz: &[f64],
        phases: &[f64],
        amps: Option<&[f64]>,
        grid: usize,
    ) {
        assert!(grid > 0);
        self.acc.resize(grid, Complex64::ZERO);
        let dt = 1.0 / grid as f64;
        tone_bank(&mut self.acc, offsets_hz, phases, amps, 0.0, dt, true);
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

    /// The index [`grid_argmax`] returns on the `grid`-point [`Self::fill`],
    /// and whether [`tone_bank_f32`]'s bound certified it without that
    /// fill. FFT-filled grids, where the bound is not derived, always fill.
    ///
    /// # Panics
    /// Panics if `grid` is zero or the slices differ in length.
    pub fn argmax(&mut self, offs: &[f64], ph: &[f64], amps: &[f64], grid: usize) -> (usize, bool) {
        if !fft_pays_off(offs.len(), grid, offs) {
            self.twin.resize(2 * grid, 0.0);
            let (g, im) = self.twin.split_at_mut(grid);
            let e = tone_bank_f32(g, im, offs, ph, amps).map(|(_, e)| e);
            if let Some(k) = e.and_then(|e| certified_argmax(g, e)) {
                return (k, true);
            }
        }
        self.fill(offs, ph, Some(amps), grid);
        (grid_argmax(&self.acc).expect("non-empty grid"), false)
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
    pub(crate) fn expected_peak<R: Rng + ?Sized>(
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
/// `EnvelopeScratch::expected_peak` would consume from the same RNG.
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

    /// The phase draws of draw `d`: the inputs
    /// `tests/kernel_props.rs::crn_swap_matches_fresh_evaluation` and
    /// `crn_commit_keeps_scores_consistent` rebuild the reference score from.
    pub fn draw_phases(&self, d: usize) -> &[f64] {
        let n = self.offsets_hz.len();
        &self.phases[d * n..(d + 1) * n]
    }

    fn rebuild(&mut self) {
        let (n, dt) = (self.offsets_hz.len(), 1.0 / self.grid as f64);
        for d in 0..self.draws {
            let acc = &mut self.grids[d * self.grid..(d + 1) * self.grid];
            let phases = &self.phases[d * n..(d + 1) * n];
            tone_bank(acc, &self.offsets_hz, phases, None, 0.0, dt, true);
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
            swap_tone(&mut self.scratch, old_hz, new_hz, phase);
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
            swap_tone(acc, old_hz, new_hz, phase);
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
        tone_bank(
            &mut acc,
            &[137.0],
            &[0.9],
            Some(&[0.7]),
            0.0,
            1.0 / 1024.0,
            false,
        );
        for k in (0..1024).step_by(41) {
            let t = k as f64 / 1024.0;
            let want = Complex64::from_polar(0.7, TAU * 137.0 * t + 0.9);
            assert!((acc[k] - want).norm() < 1e-12, "sample {k}");
        }
    }

    #[test]
    fn negative_amplitude_subtracts_exactly() {
        let mut acc = vec![Complex64::ZERO; 512];
        tone_bank(&mut acc, &[49.0], &[1.2], None, 0.0, 1.0 / 512.0, false);
        tone_bank(
            &mut acc,
            &[49.0],
            &[1.2],
            Some(&[-1.0]),
            0.0,
            1.0 / 512.0,
            false,
        );
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
        assert_eq!(k.offsets_hz[1], 11.0);
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
        let fresh = CrnKernel::new(&k.offsets_hz, 4, 128, &mut rng).score_current();
        assert!((cached - fresh).abs() < 1e-9, "{cached} vs {fresh}");
    }
}
