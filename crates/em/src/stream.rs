//! Per-block channel application and superposition.
//!
//! The narrowband (flat-per-tone) assumption of the paper's Eq. 5 makes
//! the channel stage of the sample path a single complex gain per
//! antenna. [`BlockSuperposer`] captures those gains once — evaluating
//! each antenna's channel at that antenna's own emission frequency —
//! and then folds each sample's per-antenna carriers into the received
//! superposition ([`BlockSuperposer::superpose`]), allocating nothing.

use crate::channel::ChannelEnsemble;
use ivn_dsp::complex::Complex64;

/// The most antennas one superposer folds (the paper's arrays have at
/// most 10).
const MAX_LANES: usize = 16;

/// Streaming fan-in: applies one flat gain per antenna and sums the
/// result at the receive point.
#[derive(Debug, Clone)]
pub struct BlockSuperposer {
    gains: Vec<Complex64>,
}

impl BlockSuperposer {
    /// A superposer with explicit per-antenna gains.
    ///
    /// # Panics
    /// Panics if `gains` is empty or longer than `MAX_LANES` (16).
    pub fn new(gains: Vec<Complex64>) -> Self {
        assert!(!gains.is_empty(), "nothing to superpose");
        assert!(gains.len() <= MAX_LANES, "at most {MAX_LANES} antennas");
        BlockSuperposer { gains }
    }

    /// Captures gains from `ensemble`, evaluating antenna `i`'s channel
    /// at `emission_hz(i)` — the per-tone narrowband evaluation the
    /// batch pipeline performs.
    ///
    /// # Panics
    /// Panics if the ensemble is empty.
    pub fn from_ensemble(ensemble: &ChannelEnsemble, emission_hz: impl Fn(usize) -> f64) -> Self {
        let n = ensemble.len();
        let mut scratch = vec![Complex64::ZERO; n];
        let mut gains = vec![Complex64::ZERO; n];
        for (i, g) in gains.iter_mut().enumerate() {
            ensemble.responses_into(emission_hz(i), &mut scratch);
            *g = scratch[i];
        }
        BlockSuperposer::new(gains)
    }

    /// The per-antenna gains.
    pub fn gains(&self) -> &[Complex64] {
        &self.gains
    }

    /// One received sample, `Σ zᵢ·gᵢ` over one sample `zᵢ` per antenna
    /// from `+0.0` in device order. Samples past the number of gains are
    /// ignored; callers check the count once.
    #[inline]
    pub fn superpose(&self, lanes: impl IntoIterator<Item = Complex64>) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for (z, &g) in lanes.into_iter().zip(&self.gains) {
            acc += z * g;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_runtime::rng::StdRng;

    #[test]
    fn from_ensemble_picks_own_frequency_response() {
        let mut rng = StdRng::seed_from_u64(7);
        let ens = ChannelEnsemble::blind(&mut rng, 4, 0.3, 915e6);
        let freqs = [915e6, 915e6 + 7.0, 915e6 + 20.0, 915e6 + 49.0];
        let sp = BlockSuperposer::from_ensemble(&ens, |i| freqs[i]);
        for (i, &g) in sp.gains().iter().enumerate() {
            assert_eq!(g, ens.responses(freqs[i])[i], "antenna {i}");
        }
        assert_eq!(sp.gains().len(), 4);
    }

    #[test]
    #[should_panic(expected = "at most 16 antennas")]
    fn lane_count_capped() {
        BlockSuperposer::new(vec![Complex64::ONE; 17]);
    }
}
