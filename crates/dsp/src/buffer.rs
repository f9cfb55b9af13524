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

    /// Sample rate in samples/second.
    #[inline]
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Read-only view of the samples.
    #[inline]
    pub fn samples(&self) -> &[Complex64] {
        &self.samples
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
    #[should_panic(expected = "sample rate must be positive")]
    fn rejects_bad_rate() {
        let _ = IqBuffer::new(vec![], 0.0);
    }

    #[test]
    fn envelope_is_magnitude() {
        let b = IqBuffer::new(vec![Complex64::new(3.0, 4.0)], 1.0);
        assert_eq!(b.envelope(), vec![5.0]);
    }
}
