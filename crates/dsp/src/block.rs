//! Block-streaming sample-path primitives.
//!
//! The paper's prototype streams baseband continuously through USRP
//! front-ends; the whole-buffer APIs elsewhere in the workspace
//! materialize a full 1-second CIB period (`O(fs)` memory per stage)
//! instead. The streaming driver (`ivn-bench`'s `pipeline`) passes
//! fixed-size blocks from stage to stage through reusable scratch
//! `Vec`s, into consumers such as a [`PeakMeter`], the harvester's
//! power-up integrator and the RFID decoders. State that must survive a
//! block boundary (rotor phase, charge-pump voltage, partial FM0
//! symbols) lives inside the stage, so pushing the same samples in
//! blocks of 1 or 4096 produces **bit-identical** output — the property
//! `tests/streaming_equivalence.rs` pins across the whole pipeline.
//!
//! Per-stage memory is bounded by the block size, never by the total
//! sample count ([`Footprint`] measures this, and
//! `tests/streaming_equivalence.rs::per_stage_footprint_is_bounded_by_block_size`
//! gates it).

use crate::complex::Complex64;

/// Default block size for streaming drivers: large enough to amortize
/// per-block overhead, small enough that per-stage scratch stays cache
/// resident (4096 complex samples = 64 KiB).
pub const DEFAULT_BLOCK: usize = 4096;

/// Running maximum of `|x|` over a stream — the constant-memory
/// replacement for "materialize the envelope, then take its peak".
#[derive(Debug, Clone, Copy, Default)]
pub struct PeakMeter {
    peak: f64,
    /// Bits `(re, im)` of the last complex sample folded in.
    last: Option<(u64, u64)>,
}

impl PeakMeter {
    /// A meter starting at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one real sample into the running peak.
    #[inline]
    pub fn observe(&mut self, amplitude: f64) {
        self.peak = self.peak.max(amplitude);
    }

    /// Folds one complex sample (by magnitude).
    ///
    /// Bit-identical to folding `s.norm()`. A sample with the same bits
    /// as the previous one is skipped, because `hypot` is pure and the
    /// max fold idempotent: a constant stream costs one `hypot`.
    #[inline]
    pub fn observe_sample(&mut self, s: Complex64) {
        let bits = (s.re.to_bits(), s.im.to_bits());
        if self.last != Some(bits) {
            self.last = Some(bits);
            self.observe(s.norm());
        }
    }

    /// The peak seen so far.
    pub fn peak(&self) -> f64 {
        self.peak
    }
}

/// Order-sensitive FNV-1a digest of a sample stream's exact bit
/// patterns: two paths produce the same digest iff they produce the
/// same samples in the same order. The streaming pipeline's `rx_hash`
/// is pinned in `tests/streaming_equivalence.rs`.
#[derive(Debug, Clone, Copy)]
pub struct StreamHasher {
    state: u64,
}

impl Default for StreamHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamHasher {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;

    /// A fresh hasher (FNV-1a offset basis).
    pub fn new() -> Self {
        StreamHasher {
            state: Self::OFFSET,
        }
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.state ^= byte as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Hashes one complex sample (re then im bit patterns).
    #[inline]
    pub fn update_sample(&mut self, s: Complex64) {
        self.mix(s.re.to_bits());
        self.mix(s.im.to_bits());
    }

    /// The digest so far.
    pub fn digest(&self) -> u64 {
        self.state
    }
}

/// Peak scratch-buffer sizes per stage, in samples — the evidence that a
/// streaming driver's memory is bounded by the block size rather than
/// the stream length. Stages report the length of every scratch buffer
/// they touch each block; the meter keeps the per-stage maximum.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    entries: Vec<(&'static str, usize)>,
}

impl Footprint {
    /// An empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a buffer of `len` samples owned by `stage`, keeping the
    /// maximum per stage.
    pub fn observe(&mut self, stage: &'static str, len: usize) {
        match self.entries.iter_mut().find(|(s, _)| *s == stage) {
            Some((_, max)) => *max = (*max).max(len),
            None => self.entries.push((stage, len)),
        }
    }

    /// Per-stage peak buffer sizes, in report order.
    pub fn entries(&self) -> &[(&'static str, usize)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_meter_matches_batch_peak() {
        let env = [0.3, 1.7, 0.2, 1.69];
        let mut m = PeakMeter::new();
        for v in env {
            m.observe(v);
        }
        assert_eq!(m.peak(), 1.7);
    }

    #[test]
    fn hasher_is_order_sensitive() {
        let data: Vec<Complex64> = (0..100)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let (mut a, mut rev) = (StreamHasher::new(), StreamHasher::new());
        data.iter().for_each(|&s| a.update_sample(s));
        data.iter().rev().for_each(|&s| rev.update_sample(s));
        assert_ne!(a.digest(), rev.digest());
    }

    #[test]
    fn footprint_keeps_per_stage_max() {
        let mut f = Footprint::new();
        f.observe("sdr", 100);
        f.observe("sdr", 80);
        f.observe("em", 120);
        assert_eq!(f.entries(), &[("sdr", 100), ("em", 120)]);
    }
}
