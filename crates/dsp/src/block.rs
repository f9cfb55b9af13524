//! Block-streaming sample-path primitives.
//!
//! The paper's prototype streams baseband continuously through USRP
//! front-ends; the whole-buffer APIs elsewhere in the workspace
//! materialize a full 1-second CIB period (`O(fs)` memory per stage)
//! instead. This module defines the constant-memory alternative: a
//! sample path is a [`BlockSource`] feeding one or more [`BlockStage`]s
//! into a [`BlockSink`], all exchanging fixed-size blocks through
//! reusable scratch `Vec`s. State that must survive a block boundary
//! (oscillator phase, delay-line history, charge-pump voltage, partial
//! FM0 symbols) lives inside the stage, so pushing the same samples in
//! blocks of 1 or 4096 produces **bit-identical** output — the property
//! `tests/streaming_equivalence.rs` pins across the whole pipeline.
//!
//! Conventions:
//! - stages **append** to their output scratch and never clear it; the
//!   driver clears scratch buffers between blocks and reuses them, so
//!   the steady state allocates nothing;
//! - `flush` ends the stream, draining whatever latency the stage holds
//!   (e.g. a negative trigger shift that needs future profile samples);
//! - per-stage memory is bounded by the block size, never by the total
//!   sample count ([`Footprint`] measures this and `verify.sh` gates it).

use crate::complex::Complex64;

/// Default block size for streaming drivers: large enough to amortize
/// per-block overhead, small enough that per-stage scratch stays cache
/// resident (4096 complex samples = 64 KiB).
pub const DEFAULT_BLOCK: usize = 4096;

/// Produces sample blocks (the head of a streaming chain).
pub trait BlockSource {
    /// The sample type produced.
    type Item: Copy;

    /// Appends up to `max` samples to `out`; returns how many were
    /// produced. Returning `0` means the source is exhausted.
    fn fill(&mut self, out: &mut Vec<Self::Item>, max: usize) -> usize;
}

/// Transforms sample blocks, carrying whatever state must survive a
/// block boundary.
pub trait BlockStage {
    /// Input sample type.
    type In: Copy;
    /// Output sample type.
    type Out: Copy;

    /// Consumes one input block and appends the produced samples to
    /// `out`. A stage with internal latency may produce fewer (or more)
    /// samples than it consumed.
    fn push(&mut self, input: &[Self::In], out: &mut Vec<Self::Out>);

    /// Ends the stream: appends any samples still held back by the
    /// stage's latency. Default: stateless stages have nothing to drain.
    fn flush(&mut self, out: &mut Vec<Self::Out>) {
        let _ = out;
    }
}

/// Consumes sample blocks (the tail of a streaming chain).
pub trait BlockSink {
    /// Input sample type.
    type In: Copy;

    /// Consumes one block.
    fn consume(&mut self, input: &[Self::In]);

    /// Ends the stream (e.g. final bookkeeping on an integrator).
    fn finish(&mut self) {}
}

/// A constant-amplitude [`BlockSource`] of known length — the "carrier
/// on" drive profile of the pipeline's power-delivery phase.
#[derive(Debug, Clone)]
pub struct ConstSource {
    value: f64,
    remaining: usize,
}

impl ConstSource {
    /// A source emitting `len` samples of `value`.
    pub fn new(value: f64, len: usize) -> Self {
        ConstSource {
            value,
            remaining: len,
        }
    }
}

impl BlockSource for ConstSource {
    type Item = f64;

    fn fill(&mut self, out: &mut Vec<f64>, max: usize) -> usize {
        let n = self.remaining.min(max);
        out.extend(std::iter::repeat(self.value).take(n));
        self.remaining -= n;
        n
    }
}

/// Accumulates `block[k] · gain` into `acc[k]` — the per-antenna flat
/// channel application + superposition step shared by the streaming
/// mixer ([`ivn-em`]'s `BlockSuperposer`) and the whole-buffer
/// `TxBank::superpose` wrapper. Both paths run this exact loop, so they
/// agree bit for bit.
///
/// # Panics
/// Panics on length mismatch.
pub fn accumulate_scaled(acc: &mut [Complex64], block: &[Complex64], gain: Complex64) {
    assert_eq!(acc.len(), block.len(), "block length mismatch");
    for (a, &b) in acc.iter_mut().zip(block) {
        *a += b * gain;
    }
}

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

    /// Folds a block of complex samples (by magnitude).
    ///
    /// Bit-identical to folding `s.norm()` for every sample. A sample
    /// with the same bits as the previous one is skipped, because `hypot`
    /// is pure and the max fold idempotent: a constant block costs one
    /// `hypot`.
    pub fn observe_block(&mut self, block: &[Complex64]) {
        for s in block {
            let bits = (s.re.to_bits(), s.im.to_bits());
            if self.last != Some(bits) {
                self.last = Some(bits);
                self.observe(s.norm());
            }
        }
    }

    /// The peak seen so far.
    pub fn peak(&self) -> f64 {
        self.peak
    }
}

impl BlockSink for PeakMeter {
    type In = f64;

    fn consume(&mut self, input: &[f64]) {
        for &v in input {
            self.observe(v);
        }
    }
}

/// Order-sensitive FNV-1a digest of a sample stream's exact bit
/// patterns: two paths produce the same digest iff they produce the
/// same samples in the same order. Splitting a stream into blocks does
/// not change the digest, so `verify.sh` compares the streaming and
/// batch pipelines through this.
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

    /// Hashes a block of real samples (exact f64 bit patterns).
    pub fn update_real(&mut self, block: &[f64]) {
        for &v in block {
            self.mix(v.to_bits());
        }
    }

    /// Hashes a block of complex samples (re then im bit patterns).
    pub fn update_complex(&mut self, block: &[Complex64]) {
        for s in block {
            self.mix(s.re.to_bits());
            self.mix(s.im.to_bits());
        }
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

    /// The largest single per-stage buffer seen.
    pub fn max_stage(&self) -> usize {
        self.entries.iter().map(|&(_, n)| n).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_source_emits_exact_length() {
        let mut src = ConstSource::new(1.0, 10);
        let mut out = Vec::new();
        assert_eq!(src.fill(&mut out, 4), 4);
        assert_eq!(src.fill(&mut out, 4), 4);
        assert_eq!(src.fill(&mut out, 4), 2);
        assert_eq!(src.fill(&mut out, 4), 0);
        assert_eq!(out, vec![1.0; 10]);
    }

    #[test]
    fn accumulate_scaled_matches_manual() {
        let mut acc = vec![Complex64::ZERO; 3];
        let block = vec![Complex64::ONE, Complex64::I, Complex64::new(1.0, 1.0)];
        accumulate_scaled(&mut acc, &block, Complex64::from_real(2.0));
        assert_eq!(acc[0], Complex64::new(2.0, 0.0));
        assert_eq!(acc[1], Complex64::new(0.0, 2.0));
        assert_eq!(acc[2], Complex64::new(2.0, 2.0));
    }

    #[test]
    fn peak_meter_matches_batch_peak() {
        let env = [0.3, 1.7, 0.2, 1.69];
        let mut m = PeakMeter::new();
        m.consume(&env);
        assert_eq!(m.peak(), 1.7);
    }

    #[test]
    fn hasher_is_split_invariant_but_order_sensitive() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let mut a = StreamHasher::new();
        a.update_real(&data);
        let mut b = StreamHasher::new();
        for chunk in data.chunks(7) {
            b.update_real(chunk);
        }
        assert_eq!(a.digest(), b.digest());
        let mut rev = StreamHasher::new();
        let reversed: Vec<f64> = data.iter().rev().copied().collect();
        rev.update_real(&reversed);
        assert_ne!(a.digest(), rev.digest());
    }

    #[test]
    fn footprint_keeps_per_stage_max() {
        let mut f = Footprint::new();
        f.observe("sdr", 100);
        f.observe("sdr", 80);
        f.observe("em", 120);
        assert_eq!(f.entries(), &[("sdr", 100), ("em", 120)]);
        assert_eq!(f.max_stage(), 120);
    }
}
