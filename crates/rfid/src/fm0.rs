//! FM0 (bi-phase space) baseband coding — the tag→reader uplink.
//!
//! FM0 inverts the baseband level at *every* symbol boundary; a data-0
//! additionally inverts mid-symbol, a data-1 does not. Decoding therefore
//! needs only to detect the presence/absence of a mid-symbol transition.
//!
//! The paper's in-vivo decoder (§6.2) correlates the received waveform
//! against the tag's known 12-bit preamble `110100100011` in FM0 form and
//! declares success above a correlation of 0.8; [`preamble_waveform`] and
//! [`ivn_dsp::correlate::best_match_real`] reproduce that exact pipeline.

/// FM0 encoder state and parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fm0 {
    /// Samples per half-symbol when rasterizing.
    pub(crate) samples_per_half: usize,
}

impl Fm0 {
    /// Creates an FM0 codec with the given time resolution.
    ///
    /// # Panics
    /// Panics if `samples_per_half == 0`.
    pub fn new(samples_per_half: usize) -> Self {
        assert!(samples_per_half > 0, "need at least one sample per half");
        Fm0 { samples_per_half }
    }

    /// Encodes bits into half-symbol levels (`±1.0`), starting from level
    /// `+1`. Each bit yields two half-symbols.
    pub fn encode_halves(&self, bits: &[bool]) -> Vec<f64> {
        let _span = ivn_runtime::span!("rfid.fm0_encode_ns");
        ivn_runtime::obs_count!("rfid.fm0_symbols_encoded", bits.len());
        let mut out = Vec::with_capacity(bits.len() * 2);
        let mut level = 1.0;
        for &bit in bits {
            // Boundary inversion happens *entering* each symbol.
            level = -level;
            out.push(level);
            if !bit {
                // data-0: mid-symbol inversion.
                level = -level;
            }
            out.push(level);
        }
        out
    }

    /// Rasterizes bits to baseband samples (±1.0).
    pub fn encode(&self, bits: &[bool]) -> Vec<f64> {
        self.encode_halves(bits)
            .into_iter()
            .flat_map(|l| std::iter::repeat_n(l, self.samples_per_half))
            .collect()
    }

    /// Decodes baseband samples back into bits. Accepts any amplitude
    /// scale and either polarity; requires sample alignment (the reader's
    /// correlator provides the offset). A trailing partial symbol is
    /// dropped.
    pub fn decode(&self, samples: &[f64]) -> Vec<bool> {
        let _span = ivn_runtime::span!("rfid.fm0_decode_ns");
        let half = self.samples_per_half;
        let bits: Vec<bool> = samples
            .chunks_exact(self.samples_per_symbol())
            .map(|sym| {
                let first: f64 = sym[..half].iter().sum();
                let second: f64 = sym[half..].iter().sum();
                // Same sign across halves → data-1; flip → data-0.
                first.signum() == second.signum()
            })
            .collect();
        ivn_runtime::obs_count!("rfid.fm0_symbols_decoded", bits.len());
        bits
    }

    /// Samples per full symbol.
    pub fn samples_per_symbol(&self) -> usize {
        self.samples_per_half * 2
    }
}

/// The paper's 12-bit preamble rendered as an FM0 baseband template
/// (`samples_per_half` resolution), ready for correlation detection.
pub fn preamble_waveform(samples_per_half: usize) -> Vec<f64> {
    Fm0::new(samples_per_half).encode(&crate::PAPER_PREAMBLE_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Verifies an FM0 half-level stream obeys the boundary-inversion rule
    /// (every symbol starts with a level flip): the oracle the encoder is
    /// checked against.
    fn check_coding_rule(halves: &[f64]) -> bool {
        // halves[2k] must differ in sign from halves[2k-1].
        halves
            .chunks_exact(2)
            .zip(std::iter::once(1.0).chain(halves.chunks_exact(2).map(|c| c[1])))
            .all(|(sym, prev_end)| sym[0].signum() != prev_end.signum())
    }

    #[test]
    fn encode_lengths() {
        let fm0 = Fm0::new(4);
        let bits = [true, false, true];
        assert_eq!(fm0.encode_halves(&bits).len(), 6);
        assert_eq!(fm0.encode(&bits).len(), 24);
        assert_eq!(fm0.samples_per_symbol(), 8);
    }

    #[test]
    fn boundary_inversion_always_happens() {
        let fm0 = Fm0::new(1);
        for pattern in 0..64u32 {
            let bits: Vec<bool> = (0..6).map(|i| (pattern >> i) & 1 == 1).collect();
            let halves = fm0.encode_halves(&bits);
            assert!(check_coding_rule(&halves), "pattern {pattern:06b}");
        }
    }

    #[test]
    fn data0_has_mid_transition_data1_does_not() {
        let fm0 = Fm0::new(1);
        let h0 = fm0.encode_halves(&[false]);
        assert_ne!(h0[0].signum(), h0[1].signum());
        let h1 = fm0.encode_halves(&[true]);
        assert_eq!(h1[0].signum(), h1[1].signum());
    }

    #[test]
    fn roundtrip_exhaustive_bytes() {
        let fm0 = Fm0::new(3);
        for pattern in 0..256u32 {
            let bits: Vec<bool> = (0..8).map(|i| (pattern >> i) & 1 == 1).collect();
            let mut wave = fm0.encode(&bits);
            assert_eq!(fm0.decode(&wave), bits, "pattern {pattern:08b}");
            // A trailing partial symbol is dropped.
            wave.extend_from_slice(&[1.0; 5]);
            assert_eq!(fm0.decode(&wave), bits, "pattern {pattern:08b} + 5");
        }
    }

    #[test]
    fn decode_is_scale_and_polarity_invariant() {
        let fm0 = Fm0::new(4);
        let bits = vec![true, false, false, true, true, false];
        let mut wave = fm0.encode(&bits);
        for v in &mut wave {
            *v *= -0.003; // inverted, tiny amplitude
        }
        assert_eq!(fm0.decode(&wave), bits);
    }

    #[test]
    fn paper_preamble_template() {
        let w = preamble_waveform(5);
        assert_eq!(w.len(), 12 * 2 * 5);
        // Must be a ±1 waveform.
        assert!(w.iter().all(|&v| v == 1.0 || v == -1.0));
        // It must decode back to the preamble bits.
        let fm0 = Fm0::new(5);
        assert_eq!(fm0.decode(&w), crate::PAPER_PREAMBLE_BITS.to_vec());
    }

    #[test]
    fn preamble_autocorrelation_is_peaky() {
        // The preamble must correlate strongly with itself and weakly with
        // shifted versions — that is what makes the 0.8 threshold robust.
        let w = preamble_waveform(4);
        let self_corr = ivn_dsp::correlate::best_match_real(&w, &w).unwrap();
        assert_eq!(self_corr.0, 0);
        assert!((self_corr.1 - 1.0).abs() < 1e-9);
        // Misaligned by half a symbol: correlation must drop well below 0.8.
        let shifted: Vec<f64> = w.iter().skip(4).cloned().collect();
        let c = ivn_dsp::correlate::normalized_xcorr_real(&w, &shifted[..w.len() - 4]);
        assert!(c[0] < 0.8, "shifted corr {}", c[0]);
    }
}
