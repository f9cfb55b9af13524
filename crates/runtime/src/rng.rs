//! Deterministic pseudo-randomness for every experiment in the workspace.
//!
//! The generator is Xoshiro256++ (Blackman & Vigna), seeded through
//! SplitMix64 so that any `u64` seed — including 0 — expands to a
//! well-mixed 256-bit state. On top of the raw generator sits the small
//! [`Rng`] trait surface the simulator actually uses:
//!
//! * `random::<T>()` for `f64` in `[0, 1)`, the unsigned integers and
//!   `bool`;
//! * `random_range(range)` for half-open and inclusive integer ranges
//!   (bias-free via Lemire rejection) and `f64` ranges;
//! * `StdRng::seed_from_stream` / [`StdRng::fork`] — independent
//!   *streams* from one seed, used to give every Monte-Carlo trial its own
//!   generator so ensembles are reproducible at any worker-thread count.
//!
//! All of `dsp`, `em`, `core`, `rfid`, `sdr` and the test suites draw
//! their randomness exclusively through this module (DESIGN.md §5).

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 state-mixing step: advances `state` and returns the next
/// well-mixed output word.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic Xoshiro256++ generator.
///
/// `StdRng` is the workspace-wide generator type: everything that needs
/// randomness takes `&mut R where R: Rng + ?Sized` and callers construct a
/// `StdRng` from an explicit seed, so every experiment is reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
    seed: u64,
    stream: u64,
}

impl StdRng {
    /// Creates a generator from a 64-bit seed (stream 0).
    pub fn seed_from_u64(seed: u64) -> Self {
        Self::seed_from_stream(seed, 0)
    }

    /// Creates the generator for `(seed, stream)`.
    ///
    /// Distinct streams of the same seed are statistically independent:
    /// the pair is folded through SplitMix64 before state expansion. This
    /// is the basis of per-trial seeding — trial `i` of an ensemble uses
    /// stream `i`, so results do not depend on which thread ran the trial.
    pub(crate) fn seed_from_stream(seed: u64, stream: u64) -> Self {
        let mut sm = seed ^ stream.wrapping_mul(GOLDEN | 1).rotate_left(17);
        // Decorrelate (seed, stream) pairs that collide in the xor above.
        let _ = splitmix64(&mut sm);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StdRng { s, seed, stream }
    }

    /// A generator for sub-stream `stream` of this generator's seed,
    /// without consuming any of this generator's output.
    ///
    /// Forking composes: `fork(a).fork(b)` differs from `fork(b).fork(a)`
    /// because the parent stream is folded into the child's.
    pub fn fork(&self, stream: u64) -> StdRng {
        StdRng::seed_from_stream(
            self.seed,
            self.stream
                .wrapping_mul(0x100_0000_01B3) // FNV prime: spread parent stream
                .wrapping_add(stream)
                .wrapping_add(1),
        )
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        // Xoshiro256++ reference update (Blackman & Vigna, 2019).
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }
}

/// The uniform-randomness surface used across the workspace.
///
/// Implementors only provide [`Rng::next_u64`]; everything else derives
/// from it deterministically, so two implementations with the same word
/// stream produce identical values of every type.
pub trait Rng {
    /// The next raw 64-bit word of the stream.
    fn next_u64(&mut self) -> u64;

    /// A uniform value of `T`: `f64` in `[0, 1)`, integers over their full
    /// range, `bool` fair.
    fn random<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value in `range` (half-open or inclusive; integer ranges
    /// are bias-free).
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_from(self)
    }
}

impl<T: Rng + ?Sized> Rng for &mut T {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types drawable uniformly from an RNG via [`Rng::random`].
pub trait Sample {
    /// Draws one uniform value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with 53 random mantissa bits.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! impl_sample_uint {
    ($($t:ty),*) => {$(
        impl Sample for $t {
            fn sample<R: Rng + ?Sized>(rng: &mut R) -> $t {
                // Truncate from the top bits, which Xoshiro mixes best.
                (rng.next_u64() >> (64 - <$t>::BITS)) as $t
            }
        }
    )*};
}
impl_sample_uint!(u8, u16, u32, u64, usize);

impl Sample for u128 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> u128 {
        (rng.next_u64() as u128) << 64 | rng.next_u64() as u128
    }
}

/// Uniform `u128` in `[0, span)` by Lemire multiply-shift with rejection
/// (no modulo bias). `span` must be nonzero.
fn bounded_u128<R: Rng + ?Sized>(rng: &mut R, span: u128) -> u128 {
    debug_assert!(span > 0);
    // Fast path: spans fitting in 64 bits use one word per attempt.
    if let Ok(span64) = u64::try_from(span) {
        let zone = span64.wrapping_neg() % span64; // 2^64 mod span
        loop {
            let m = rng.next_u64() as u128 * span64 as u128;
            if m as u64 >= zone {
                return m >> 64;
            }
        }
    }
    // Wide path: rejection-sample a raw u128 against the largest multiple
    // of `span` below 2^128.
    let zone = u128::MAX - (u128::MAX - span + 1) % span;
    loop {
        let v: u128 = u128::sample(rng);
        if v <= zone {
            return v % span;
        }
    }
}

/// Ranges drawable via [`Rng::random_range`].
pub trait SampleRange {
    /// The element type of the range.
    type Output;
    /// Draws one uniform value from the range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! impl_sample_range_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u128;
                let v = bounded_u128(rng, span) as $u;
                self.start.wrapping_add(v as $t)
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in random_range");
                let span = (hi as $u).wrapping_sub(lo as $u) as u128 + 1;
                // Full-range inclusive ranges wrap span to 0: draw raw.
                if span == 0 {
                    return <$u as Sample>::sample(rng) as $t;
                }
                let v = bounded_u128(rng, span) as $u;
                lo.wrapping_add(v as $t)
            }
        }
    )*};
}
impl_sample_range_int!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
);

impl SampleRange for core::ops::Range<u128> {
    type Output = u128;
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> u128 {
        assert!(self.start < self.end, "empty range in random_range");
        self.start + bounded_u128(rng, self.end - self.start)
    }
}

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in random_range");
        let u: f64 = f64::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange for core::ops::RangeInclusive<f64> {
    type Output = f64;
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range in random_range");
        let u: f64 = f64::sample(rng);
        lo + u * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_is_well_mixed() {
        let mut r = StdRng::seed_from_u64(0);
        let words: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(words.iter().any(|&w| w != 0));
        assert!(words.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn streams_are_distinct_and_deterministic() {
        let a = StdRng::seed_from_stream(3, 0);
        let b = StdRng::seed_from_stream(3, 1);
        assert_ne!(a, b);
        assert_eq!(a, StdRng::seed_from_u64(3));
        let mut fork1 = StdRng::seed_from_u64(3).fork(5);
        let mut fork2 = StdRng::seed_from_u64(3).fork(5);
        assert_eq!(fork1.next_u64(), fork2.next_u64());
        assert_ne!(
            StdRng::seed_from_u64(3).fork(5),
            StdRng::seed_from_u64(3).fork(6)
        );
    }

    #[test]
    fn fork_composes_order_sensitively() {
        let r = StdRng::seed_from_u64(11);
        assert_ne!(r.fork(1).fork(2), r.fork(2).fork(1));
        assert_ne!(r.fork(1).fork(2), r.fork(1).fork(3));
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = StdRng::seed_from_u64(1);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn integer_ranges_cover_and_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.random_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let v = r.random_range(1..=5u32);
            assert!((1..=5).contains(&v));
            let w = r.random_range(-3i64..3);
            assert!((-3..3).contains(&w));
        }
    }

    #[test]
    fn u128_range_in_bounds() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let v = r.random_range(1u128..(u128::MAX >> 32));
            assert!((1..u128::MAX >> 32).contains(&v));
        }
    }

    #[test]
    fn full_inclusive_range_does_not_panic() {
        let mut r = StdRng::seed_from_u64(4);
        let _: u8 = r.random_range(0..=u8::MAX);
        let _: u64 = r.random_range(0..=u64::MAX);
    }

    #[test]
    fn f64_range_bounds() {
        let mut r = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let v = r.random_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&v));
            let w = r.random_range(1.0..=2.0);
            assert!((1.0..=2.0).contains(&w));
        }
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut r = StdRng::seed_from_u64(6);
        let trues = (0..10_000).filter(|_| r.random::<bool>()).count();
        assert!((4_500..5_500).contains(&trues), "trues {trues}");
    }

    #[test]
    fn works_through_unsized_refs() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.random::<f64>()
        }
        let mut r = StdRng::seed_from_u64(9);
        let via_generic = draw(&mut r);
        assert!((0.0..1.0).contains(&via_generic));
    }
}
