//! Per-block channel application and superposition.
//!
//! The narrowband (flat-per-tone) assumption of the paper's Eq. 5 makes
//! the channel stage of the sample path a single complex gain per
//! antenna. [`BlockSuperposer`] captures those gains once — evaluating
//! each antenna's channel at that antenna's own emission frequency —
//! and then folds any number of aligned per-antenna sample blocks into
//! the received superposition, block by block, with no per-call
//! allocation. Single samples, blocks and whole buffers
//! ([`BlockSuperposer::superpose_buffers`]) run the same loop
//! ([`BlockSuperposer::superpose`]), so every path agrees bit for bit.

use crate::channel::ChannelEnsemble;
use ivn_dsp::buffer::IqBuffer;
use ivn_dsp::complex::Complex64;

/// The most antennas one superposer folds (the paper's arrays have at
/// most 10): lanes are indexed from a fixed array, so a block allocates
/// nothing.
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
    /// from `+0.0` in device order: the loop every path runs. Samples
    /// past the number of gains are ignored; callers check the count once.
    #[inline]
    pub fn superpose(&self, lanes: impl IntoIterator<Item = Complex64>) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for (z, &g) in lanes.into_iter().zip(&self.gains) {
            acc += z * g;
        }
        acc
    }

    /// Superposes one aligned block per antenna into `out` (cleared and
    /// refilled; capacity is reused across calls, so the steady state
    /// allocates nothing), handing each finished sample to
    /// `sink(k, out[k])` once, in ascending `k`.
    ///
    /// Sample-major: `out[k]` is [`Self::superpose`] of the blocks'
    /// `k`-th samples, the per-sample op sequence of summing whole
    /// devices into a zeroed buffer one after another.
    ///
    /// # Panics
    /// Panics if the number of blocks differs from the number of gains
    /// or the blocks are not all the same length.
    pub fn superpose_block<'a>(
        &self,
        blocks: impl Iterator<Item = &'a [Complex64]>,
        out: &mut Vec<Complex64>,
        mut sink: impl FnMut(usize, Complex64),
    ) {
        let mut lanes: [&[Complex64]; MAX_LANES] = [&[]; MAX_LANES];
        let mut seen = 0usize;
        for block in blocks {
            assert!(seen < self.gains.len(), "one block per antenna required");
            lanes[seen] = block;
            seen += 1;
        }
        assert_eq!(seen, self.gains.len(), "one block per antenna required");
        let lanes = &lanes[..seen];
        let len = lanes[0].len();
        assert!(
            lanes.iter().all(|l| l.len() == len),
            "block length mismatch"
        );
        out.clear();
        out.extend((0..len).map(|k| {
            let acc = self.superpose(lanes.iter().map(|l| l[k]));
            sink(k, acc);
            acc
        }));
    }

    /// Whole-buffer convenience: superposes full per-antenna buffers in
    /// one call (a single maximal block).
    ///
    /// # Panics
    /// Panics on antenna-count or length mismatch, or empty input.
    pub fn superpose_buffers(&self, emissions: &[IqBuffer]) -> IqBuffer {
        assert!(!emissions.is_empty(), "nothing to superpose");
        let mut out = Vec::new();
        self.superpose_block(emissions.iter().map(|e| e.samples()), &mut out, |_, _| {});
        IqBuffer::new(out, emissions[0].sample_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_runtime::rng::StdRng;

    fn tone(phase_step: f64, len: usize) -> Vec<Complex64> {
        (0..len)
            .map(|k| Complex64::cis(phase_step * k as f64))
            .collect()
    }

    #[test]
    fn block_superposition_matches_whole_buffer() {
        let gains = vec![
            Complex64::from_polar(0.3, 0.4),
            Complex64::from_polar(0.3, 2.2),
            Complex64::from_polar(0.3, 5.0),
        ];
        let sp = BlockSuperposer::new(gains.clone());
        let emissions: Vec<Vec<Complex64>> =
            (0..3).map(|i| tone(0.01 * (i + 1) as f64, 500)).collect();

        let mut whole = Vec::new();
        sp.superpose_block(
            emissions.iter().map(|e| e.as_slice()),
            &mut whole,
            |_, _| {},
        );

        for block in [1usize, 7, 256] {
            let mut streamed: Vec<Complex64> = Vec::new();
            let mut scratch = Vec::new();
            let mut start = 0;
            while start < 500 {
                let end = (start + block).min(500);
                sp.superpose_block(
                    emissions.iter().map(|e| &e[start..end]),
                    &mut scratch,
                    |_, _| {},
                );
                streamed.extend_from_slice(&scratch);
                start = end;
            }
            assert_eq!(streamed, whole, "block {block}");
        }
    }

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

    #[test]
    #[should_panic(expected = "one block per antenna")]
    fn antenna_count_checked() {
        let sp = BlockSuperposer::new(vec![Complex64::ONE; 2]);
        let one = tone(0.1, 8);
        let mut out = Vec::new();
        sp.superpose_block(std::iter::once(one.as_slice()), &mut out, |_, _| {});
    }
}
