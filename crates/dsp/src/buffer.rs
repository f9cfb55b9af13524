//! IQ sample buffers with sample-rate metadata.
//!
//! An [`IqBuffer`] is the unit of exchange between the SDR front-end, the
//! channel simulator and the decoders: a contiguous run of complex baseband
//! samples plus the rate at which they were taken. Keeping the rate attached
//! to the data prevents the classic bug of mixing streams sampled at
//! different rates.

use crate::complex::Complex64;

/// A buffer of complex baseband samples at a known sample rate.
#[derive(Debug, Clone, PartialEq)]
pub struct IqBuffer {
    samples: Vec<Complex64>,
    sample_rate: f64,
}

impl IqBuffer {
    /// Creates a buffer from raw samples.
    ///
    /// # Panics
    /// Panics if `sample_rate` is not strictly positive and finite.
    pub fn new(samples: Vec<Complex64>, sample_rate: f64) -> Self {
        assert!(
            sample_rate.is_finite() && sample_rate > 0.0,
            "sample rate must be positive, got {sample_rate}"
        );
        IqBuffer {
            samples,
            sample_rate,
        }
    }

    /// Creates a zero-filled buffer of `len` samples.
    pub fn zeros(len: usize, sample_rate: f64) -> Self {
        Self::new(vec![Complex64::ZERO; len], sample_rate)
    }

    /// Synthesizes a buffer by evaluating `f(t)` at each sample instant
    /// `t = n / sample_rate` for `n` in `0..len`.
    pub fn from_fn(len: usize, sample_rate: f64, mut f: impl FnMut(f64) -> Complex64) -> Self {
        let dt = 1.0 / sample_rate;
        let samples = (0..len).map(|n| f(n as f64 * dt)).collect();
        Self::new(samples, sample_rate)
    }

    /// Sample rate in samples/second.
    #[inline]
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Number of samples held.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the buffer holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Duration covered by the samples, in seconds.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate
    }

    /// Time of sample `n` relative to the start of the buffer, seconds.
    #[inline]
    pub fn time_of(&self, n: usize) -> f64 {
        n as f64 / self.sample_rate
    }

    /// Read-only view of the samples.
    #[inline]
    pub fn samples(&self) -> &[Complex64] {
        &self.samples
    }

    /// Mutable view of the samples.
    #[inline]
    pub fn samples_mut(&mut self) -> &mut [Complex64] {
        &mut self.samples
    }

    /// Mean power (average |x|²) of the buffer; 0 for an empty buffer.
    pub fn mean_power(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.norm_sqr()).sum::<f64>() / self.samples.len() as f64
    }

    /// Peak instantaneous power, max |x|²; 0 for an empty buffer.
    pub fn peak_power(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.norm_sqr())
            .fold(0.0, f64::max)
    }

    /// Index and magnitude of the strongest sample; `None` if empty.
    pub fn peak_sample(&self) -> Option<(usize, f64)> {
        self.samples
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.norm()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Adds another buffer sample-wise (e.g. superposing signals at a
    /// receiver).
    ///
    /// # Panics
    /// Panics if lengths or sample rates differ: superposition is only
    /// meaningful for streams on a common clock.
    pub fn add_assign(&mut self, other: &IqBuffer) {
        assert_eq!(self.len(), other.len(), "buffer length mismatch");
        assert!(
            (self.sample_rate - other.sample_rate).abs() < 1e-9,
            "sample rate mismatch"
        );
        for (a, b) in self.samples.iter_mut().zip(other.samples.iter()) {
            *a += *b;
        }
    }

    /// Scales every sample by a complex gain (a flat channel).
    pub fn scale(&mut self, gain: Complex64) {
        for s in &mut self.samples {
            *s *= gain;
        }
    }

    /// Returns a sub-range as a new buffer.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> IqBuffer {
        IqBuffer::new(self.samples[range].to_vec(), self.sample_rate)
    }

    /// Appends the samples of `other`.
    ///
    /// # Panics
    /// Panics on sample-rate mismatch.
    pub fn extend(&mut self, other: &IqBuffer) {
        assert!(
            (self.sample_rate - other.sample_rate).abs() < 1e-9,
            "sample rate mismatch"
        );
        self.samples.extend_from_slice(&other.samples);
    }

    /// Magnitude envelope `|x[n]|` of the buffer.
    pub fn envelope(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.norm()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let b = IqBuffer::zeros(100, 1e6);
        assert_eq!(b.len(), 100);
        assert!(!b.is_empty());
        assert_eq!(b.mean_power(), 0.0);
        assert_eq!(b.peak_power(), 0.0);
        assert!((b.duration() - 1e-4).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn rejects_bad_rate() {
        let _ = IqBuffer::new(vec![], 0.0);
    }

    #[test]
    fn from_fn_evaluates_time() {
        let b = IqBuffer::from_fn(4, 2.0, |t| Complex64::from_real(t));
        let re: Vec<f64> = b.samples().iter().map(|s| s.re).collect();
        assert_eq!(re, vec![0.0, 0.5, 1.0, 1.5]);
        assert_eq!(b.time_of(3), 1.5);
    }

    #[test]
    fn power_measures() {
        let b = IqBuffer::new(
            vec![Complex64::new(1.0, 0.0), Complex64::new(0.0, 3.0)],
            1.0,
        );
        assert!((b.mean_power() - 5.0).abs() < 1e-12);
        assert!((b.peak_power() - 9.0).abs() < 1e-12);
        let (idx, mag) = b.peak_sample().unwrap();
        assert_eq!(idx, 1);
        assert!((mag - 3.0).abs() < 1e-12);
    }

    #[test]
    fn superposition() {
        let mut a = IqBuffer::new(vec![Complex64::ONE; 4], 1.0);
        let b = IqBuffer::new(vec![Complex64::I; 4], 1.0);
        a.add_assign(&b);
        for s in a.samples() {
            assert!((*s - Complex64::new(1.0, 1.0)).norm() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn superposition_length_checked() {
        let mut a = IqBuffer::zeros(4, 1.0);
        let b = IqBuffer::zeros(5, 1.0);
        a.add_assign(&b);
    }

    #[test]
    #[should_panic(expected = "sample rate mismatch")]
    fn superposition_rate_checked() {
        let mut a = IqBuffer::zeros(4, 1.0);
        let b = IqBuffer::zeros(4, 2.0);
        a.add_assign(&b);
    }

    #[test]
    fn scale_applies_complex_gain() {
        let mut b = IqBuffer::new(vec![Complex64::ONE; 3], 1.0);
        b.scale(Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2));
        for s in b.samples() {
            assert!((s.norm() - 2.0).abs() < 1e-12);
            assert!((s.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        }
    }

    #[test]
    fn slice_and_extend() {
        let mut a = IqBuffer::from_fn(10, 1.0, |t| Complex64::from_real(t));
        let s = a.slice(2..5);
        assert_eq!(s.len(), 3);
        assert_eq!(s.samples()[0].re, 2.0);
        a.extend(&s);
        assert_eq!(a.len(), 13);
    }

    #[test]
    fn envelope_is_magnitude() {
        let b = IqBuffer::new(vec![Complex64::new(3.0, 4.0)], 1.0);
        assert_eq!(b.envelope(), vec![5.0]);
    }
}
