//! Streaming PIE rasterization and PIE/FM0 decode.
//!
//! The reader→tag command in the block pipeline is produced and
//! consumed block by block: [`RunRasterizer`] emits the PIE amplitude
//! profile without materializing it,
//! [`PieStreamDecoder`] measures notch intervals incrementally from
//! envelope blocks, and [`Fm0Decoder`] folds uplink baseband blocks
//! into bits, carrying partial symbols across block boundaries. The
//! whole-buffer APIs in [`crate::pie`] and [`crate::fm0`] are thin
//! wrappers over these cores (one maximal block), so batch and
//! streaming output are bit-identical by construction.

use crate::fm0::Fm0;
use crate::pie::{classify_intervals, LevelRuns, PieError};

/// Streams a run-length encoded PIE waveform as amplitude blocks.
///
/// Reproduces the exact sequential `t_edge` accumulation and
/// nearest-sample rounding of [`crate::pie::rasterize`], so the emitted
/// stream is identical at any block size.
#[derive(Debug, Clone)]
pub struct RunRasterizer {
    runs: LevelRuns,
    sample_rate: f64,
    low_level: f64,
    /// Next run to enter.
    run_idx: usize,
    /// Accumulated edge time of the current run, seconds.
    t_edge: f64,
    /// Absolute sample index the current run extends to.
    target: usize,
    level: f64,
    emitted: usize,
}

impl RunRasterizer {
    /// A source rasterizing `runs` (1.0 high / `low_level` low) at
    /// `sample_rate`.
    ///
    /// # Panics
    /// Panics on a non-positive sample rate.
    pub fn new(runs: LevelRuns, sample_rate: f64, low_level: f64) -> Self {
        assert!(sample_rate > 0.0);
        RunRasterizer {
            runs,
            sample_rate,
            low_level,
            run_idx: 0,
            t_edge: 0.0,
            target: 0,
            level: 0.0,
            emitted: 0,
        }
    }

    /// Appends up to `max` samples to `out`; returns how many were
    /// produced. Returning `0` means the waveform is exhausted.
    pub fn fill(&mut self, out: &mut Vec<f64>, max: usize) -> usize {
        let mut produced = 0usize;
        while produced < max {
            if self.emitted < self.target {
                let n = (self.target - self.emitted).min(max - produced);
                out.extend(std::iter::repeat_n(self.level, n));
                self.emitted += n;
                produced += n;
            } else if self.run_idx < self.runs.len() {
                let (high, dur) = self.runs[self.run_idx];
                self.run_idx += 1;
                self.t_edge += dur;
                self.target = (self.t_edge * self.sample_rate).round() as usize;
                self.level = if high { 1.0 } else { self.low_level };
            } else {
                break;
            }
        }
        produced
    }
}

/// Incremental PIE notch-interval decoder.
///
/// Unlike the whole-buffer [`crate::pie::decode_frame`], which folds
/// the envelope for its peak first, a streaming caller supplies the
/// threshold explicitly (e.g. half of a calibration pass's running
/// peak). Edge positions are the only retained state, so memory is
/// O(symbols in the frame), independent of the sample rate.
#[derive(Debug, Clone)]
pub struct PieStreamDecoder {
    thr: f64,
    dt: f64,
    /// Level state carried across blocks; `None` until the first sample
    /// (the first sample can never register an edge, matching batch).
    high: Option<bool>,
    edges: Vec<usize>,
    n: usize,
    peak: f64,
}

impl PieStreamDecoder {
    /// A decoder thresholding at `threshold` over samples at
    /// `sample_rate`.
    pub fn new(threshold: f64, sample_rate: f64) -> Self {
        PieStreamDecoder {
            thr: threshold,
            dt: 1.0 / sample_rate,
            high: None,
            edges: Vec::new(),
            n: 0,
            peak: 0.0,
        }
    }

    /// Scans one envelope block for falling edges (notch starts).
    ///
    /// Runs as two block passes instead of a per-sample state machine:
    /// a branch-free peak fold, then a level-run scan that hops from
    /// threshold crossing to threshold crossing (`position` over the
    /// remaining slice). The crossings found are exactly the per-sample
    /// `high → !now_high` transitions — a sample is `high` iff
    /// `v > thr`, so runs of equal level are skipped wholesale — and
    /// the first sample of a stream still never registers an edge (the
    /// carried state initializes to that sample's own level, as in the
    /// whole-buffer decoder).
    pub fn push(&mut self, block: &[f64]) {
        if block.is_empty() {
            return;
        }
        let thr = self.thr;
        let mut peak = self.peak;
        for &v in block {
            peak = peak.max(v);
        }
        self.peak = peak;
        let mut high = match self.high {
            Some(h) => h,
            None => block[0] > thr,
        };
        let mut i = 0usize;
        while i < block.len() {
            if high {
                // Falling edge: first sample at or below threshold.
                // The exact complement of the rising test, so NaN is low.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let fall = block[i..].iter().position(|&v| !(v > thr));
                match fall {
                    Some(off) => {
                        self.edges.push(self.n + i + off);
                        high = false;
                        i += off + 1;
                    }
                    None => break,
                }
            } else {
                // Rising transition: no edge is recorded, but the level
                // state flips so the next fall registers.
                match block[i..].iter().position(|&v| v > thr) {
                    Some(off) => {
                        high = true;
                        i += off + 1;
                    }
                    None => break,
                }
            }
        }
        self.high = Some(high);
        self.n += block.len();
    }

    /// Classifies the accumulated notch intervals into bits — the back
    /// end shared with the whole-buffer decoder (no validation of the
    /// stream length; see [`Self::finish`]).
    pub(crate) fn classify(&self) -> Result<Vec<bool>, PieError> {
        // Falling edges mark notch starts. With the leading carrier,
        // edge 0 is the delimiter itself; the interval edge1→edge2 spans
        // the RTcal symbol, which self-calibrates the decoder.
        if self.edges.len() < 3 {
            return Err(PieError::NoPreamble);
        }
        let intervals: Vec<f64> = self
            .edges
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 * self.dt)
            .collect();
        classify_intervals(&intervals)
    }

    /// Ends the stream: validates it the way [`crate::pie::decode_frame`]
    /// does (too-short / all-zero envelopes), classifies, and books the
    /// decode observability counters.
    pub fn finish(&self) -> Result<Vec<bool>, PieError> {
        let _span = ivn_runtime::span!("rfid.pie_decode_ns");
        let result = if self.n < 8 {
            Err(PieError::TooShort)
        } else if self.peak <= 0.0 {
            Err(PieError::NoPreamble)
        } else {
            self.classify()
        };
        match &result {
            Ok(bits) => ivn_runtime::obs_count!("rfid.pie_symbols_decoded", bits.len()),
            Err(_) => ivn_runtime::obs_count!("rfid.pie_decode_errors", 1),
        }
        result
    }

    /// Samples scanned so far.
    pub fn samples_seen(&self) -> usize {
        self.n
    }
}

/// Streaming FM0 decoder: carries the partial symbol across block
/// boundaries, discarding any trailing partial symbol at the end —
/// exactly the `chunks_exact` semantics of [`Fm0::decode`].
#[derive(Debug, Clone)]
pub struct Fm0Decoder {
    fm0: Fm0,
    /// The in-progress symbol (< 2·samples_per_half samples).
    partial: Vec<f64>,
    bits: Vec<bool>,
}

impl Fm0Decoder {
    /// A streaming decoder for the given codec.
    pub fn new(fm0: Fm0) -> Self {
        Fm0Decoder {
            partial: Vec::with_capacity(fm0.samples_per_symbol()),
            fm0,
            bits: Vec::new(),
        }
    }

    /// Folds one baseband block into bits.
    ///
    /// Whole symbols are decoded straight off the input slice
    /// (`chunks_exact`, no per-sample buffering); only a boundary
    /// symbol straddling the block edge goes through the carry buffer.
    /// The half-symbol sums run in the same sequential order either
    /// way, so the decoded bits are byte-identical at any block size.
    pub fn push(&mut self, block: &[f64]) {
        let _span = ivn_runtime::span!("rfid.fm0_decode_ns");
        let spb = self.fm0.samples_per_symbol();
        let half = self.fm0.samples_per_half;
        let mut decoded = 0usize;
        let mut rest = block;
        if !self.partial.is_empty() {
            let need = spb - self.partial.len();
            let take = need.min(rest.len());
            self.partial.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.partial.len() == spb {
                let first: f64 = self.partial[..half].iter().sum();
                let second: f64 = self.partial[half..].iter().sum();
                // Same sign across halves → data-1; flip → data-0.
                self.bits.push(first.signum() == second.signum());
                self.partial.clear();
                decoded += 1;
            }
        }
        let mut symbols = rest.chunks_exact(spb);
        for sym in &mut symbols {
            let first: f64 = sym[..half].iter().sum();
            let second: f64 = sym[half..].iter().sum();
            self.bits.push(first.signum() == second.signum());
            decoded += 1;
        }
        self.partial.extend_from_slice(symbols.remainder());
        ivn_runtime::obs_count!("rfid.fm0_symbols_decoded", decoded);
    }

    /// Ends the stream, discarding any trailing partial symbol.
    pub fn finish(self) -> Vec<bool> {
        self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pie::{decode_frame, encode_frame, rasterize, PieParams};

    const FS: f64 = 4e6;

    #[test]
    fn rasterizer_matches_batch_any_block_size() {
        let p = PieParams::paper_defaults();
        let bits = vec![true, false, false, true, true, false, true];
        let runs = encode_frame(&bits, &p, true);
        let batch = rasterize(&runs, FS, 0.2);
        for block in [1usize, 7, 256, 4096] {
            let mut src = RunRasterizer::new(runs.clone(), FS, 0.2);
            let mut streamed = Vec::new();
            while src.fill(&mut streamed, block) > 0 {}
            assert_eq!(streamed.len(), batch.len(), "block {block}");
            let same = streamed
                .iter()
                .zip(&batch)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "block {block}");
        }
    }

    #[test]
    fn pie_stream_decoder_matches_batch() {
        let p = PieParams::paper_defaults();
        let bits = vec![false, true, true, false, true, false, false, true];
        let runs = encode_frame(&bits, &p, true);
        let env = rasterize(&runs, FS, 0.1);
        let batch = decode_frame(&env, FS).expect("batch decode");
        for block in [1usize, 7, 256, 4096] {
            let mut dec = PieStreamDecoder::new(0.5, FS);
            for chunk in env.chunks(block) {
                dec.push(chunk);
            }
            assert_eq!(dec.finish().expect("stream decode"), batch, "block {block}");
            assert_eq!(dec.samples_seen(), env.len());
            assert_eq!(dec.peak, 1.0);
        }
    }

    #[test]
    fn pie_stream_decoder_error_paths() {
        let short = PieStreamDecoder::new(0.5, FS);
        assert_eq!(short.finish(), Err(PieError::TooShort));
        let mut dark = PieStreamDecoder::new(0.5, FS);
        dark.push(&[0.0; 100]);
        assert_eq!(dark.finish(), Err(PieError::NoPreamble));
    }

    #[test]
    fn fm0_decoder_matches_batch_across_blocks() {
        let fm0 = Fm0::new(8);
        let bits = vec![true, false, false, true, true, false, true, true, false];
        let mut wave = fm0.encode(&bits);
        // Trailing partial symbol must be discarded, as in batch.
        wave.extend_from_slice(&[1.0; 5]);
        let batch = fm0.decode(&wave);
        for block in [1usize, 7, 256, 4096] {
            let mut dec = Fm0Decoder::new(fm0);
            for chunk in wave.chunks(block) {
                dec.push(chunk);
            }
            assert_eq!(dec.bits, batch, "block {block}");
            assert_eq!(dec.finish(), batch, "block {block}");
        }
    }
}
