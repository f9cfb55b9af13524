//! Pulse-interval encoding (PIE) — the reader→tag downlink waveform.
//!
//! Gen2 readers keep their carrier high and cut short low-power notches
//! ("PW pulses"). A symbol is the interval between notches: `Tari` for a
//! data-0, 1.5–2×`Tari` for a data-1. Frames start with a preamble
//! (delimiter, data-0, RTcal calibration symbol, and — for Query — a TRcal
//! symbol that sets the tag's backscatter link frequency).
//!
//! Waveforms are represented as *level runs* `(level, duration)` so they
//! can be rasterized at any sample rate, and decoded back from envelope
//! samples by notch-interval measurement — exactly how a tag's envelope
//! detector does it.

/// PIE timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PieParams {
    /// Reference interval Tari (duration of data-0), seconds. Gen2 allows
    /// 6.25–25 µs.
    pub(crate) tari_s: f64,
    /// Data-1 length as a multiple of Tari (1.5–2.0).
    pub(crate) data1_ratio: f64,
    /// Low-pulse (notch) width, seconds (≤ 0.525·Tari).
    pub pw_s: f64,
    /// Delimiter width, seconds (12.5 µs ± 5 %).
    pub(crate) delimiter_s: f64,
    /// TRcal duration, seconds (sets the tag's BLF together with DR).
    pub(crate) trcal_s: f64,
}

impl PieParams {
    /// The paper's prototype settings: Tari 25 µs (the Gen2 maximum, used
    /// by long-range readers), data-1 = 2 Tari — yielding a Query frame of
    /// ≈ 800–950 µs, matching the paper's Δt ≈ 800 µs working figure
    /// (§3.6).
    pub fn paper_defaults() -> Self {
        PieParams {
            tari_s: 25e-6,
            data1_ratio: 2.0,
            pw_s: 12.5e-6,
            delimiter_s: 12.5e-6,
            trcal_s: 133.3e-6,
        }
    }

    /// Duration of a data-0 symbol.
    pub fn data0_s(&self) -> f64 {
        self.tari_s
    }

    /// Duration of a data-1 symbol.
    pub fn data1_s(&self) -> f64 {
        self.tari_s * self.data1_ratio
    }

    /// RTcal (reader→tag calibration) = data-0 + data-1 duration.
    pub fn rtcal_s(&self) -> f64 {
        self.data0_s() + self.data1_s()
    }

    /// Total on-air duration of a payload of `zeros` data-0s and `ones`
    /// data-1s behind a preamble (`with_trcal` for Query frames).
    pub fn frame_duration_s(&self, zeros: usize, ones: usize, with_trcal: bool) -> f64 {
        let preamble = self.delimiter_s
            + self.data0_s()
            + self.rtcal_s()
            + if with_trcal { self.trcal_s } else { 0.0 };
        preamble + zeros as f64 * self.data0_s() + ones as f64 * self.data1_s()
    }
}

/// A run-length encoded binary waveform: `(high?, seconds)` segments.
pub(crate) type LevelRuns = Vec<(bool, f64)>;

/// Encodes a command's bits into level runs, including the preamble.
///
/// `with_trcal` must be true for Query (full preamble) and false for all
/// other commands (frame-sync only).
pub fn encode_frame(bits: &[bool], p: &PieParams, with_trcal: bool) -> LevelRuns {
    let _span = ivn_runtime::span!("rfid.pie_encode_ns");
    ivn_runtime::obs_count!("rfid.pie_symbols_encoded", bits.len());
    let mut runs: LevelRuns = Vec::with_capacity(2 * bits.len() + 10);
    // Symbols are "high for (duration − PW), then low for PW".
    let push_symbol = |runs: &mut LevelRuns, duration: f64| {
        runs.push((true, duration - p.pw_s));
        runs.push((false, p.pw_s));
    };
    // Leading carrier so the delimiter's falling edge is observable, then
    // the preamble: delimiter (low), data-0, RTcal[, TRcal].
    runs.push((true, p.data1_s()));
    runs.push((false, p.delimiter_s));
    push_symbol(&mut runs, p.data0_s());
    push_symbol(&mut runs, p.rtcal_s());
    if with_trcal {
        push_symbol(&mut runs, p.trcal_s);
    }
    for &b in bits {
        push_symbol(&mut runs, if b { p.data1_s() } else { p.data0_s() });
    }
    // Trailing carrier so the final notch is measurable.
    runs.push((true, p.data1_s()));
    runs
}

/// Rasterizes level runs to an amplitude profile (1.0 high / `low_level`
/// low) at `sample_rate`.
///
/// Thin wrapper over the streaming [`crate::stream::RunRasterizer`]
/// (one maximal block), so the batch and block paths agree bit for bit.
pub fn rasterize(runs: &LevelRuns, sample_rate: f64, low_level: f64) -> Vec<f64> {
    let mut src = crate::stream::RunRasterizer::new(runs.clone(), sample_rate, low_level);
    let mut out = Vec::new();
    while src.fill(&mut out, usize::MAX) > 0 {}
    out
}

/// Errors from PIE decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PieError {
    /// No delimiter/notch structure found.
    NoPreamble,
    /// A notch interval matched neither data-0 nor data-1 plausibly.
    BadSymbol,
    /// Fewer than the minimum symbols for a frame.
    TooShort,
}

/// Decodes an envelope (amplitude samples) back into command bits.
///
/// Recovers notch positions by thresholding at half amplitude, measures
/// the first intervals as data-0 and RTcal to self-calibrate, optionally
/// skips TRcal (any interval > RTcal), then classifies each remaining
/// interval against the RTcal/2 pivot. This mirrors a real tag's decoder,
/// so it inherits the paper's amplitude-flatness requirement: if the CIB
/// envelope droops too much during the frame, notches are missed.
pub fn decode_frame(envelope: &[f64], sample_rate: f64) -> Result<Vec<bool>, PieError> {
    let _span = ivn_runtime::span!("rfid.pie_decode_ns");
    let result = decode_frame_unobserved(envelope, sample_rate);
    match &result {
        Ok(bits) => ivn_runtime::obs_count!("rfid.pie_symbols_decoded", bits.len()),
        Err(_) => ivn_runtime::obs_count!("rfid.pie_decode_errors", 1),
    }
    result
}

/// [`decode_frame`] without its span and obs counters, for a decode that
/// belongs to no traced operation (one taken once, at set-up).
///
/// Whole-buffer decode delegating to the streaming edge detector
/// ([`crate::stream::PieStreamDecoder`]) as one maximal block — the two
/// paths share every comparison, so they agree bit for bit. The peak
/// (for the half-amplitude threshold) is folded over the full envelope
/// first, exactly as before; a streaming caller supplies the threshold
/// from its own running peak instead.
pub fn decode_frame_unobserved(envelope: &[f64], sample_rate: f64) -> Result<Vec<bool>, PieError> {
    if envelope.len() < 8 {
        return Err(PieError::TooShort);
    }
    let peak = envelope.iter().cloned().fold(0.0f64, f64::max);
    if peak <= 0.0 {
        return Err(PieError::NoPreamble);
    }
    let mut dec = crate::stream::PieStreamDecoder::new(peak * 0.5, sample_rate);
    dec.push(envelope);
    dec.classify()
}

/// Classifies notch intervals into bits — the self-calibrating back end
/// shared by [`decode_frame`] and the streaming
/// [`crate::stream::PieStreamDecoder`].
pub(crate) fn classify_intervals(intervals: &[f64]) -> Result<Vec<bool>, PieError> {
    // intervals[0] = delimiter + data-0 − PW (composite), intervals[1] = RTcal.
    let composite = intervals[0];
    let rtcal = intervals[1];
    // Sanity: the composite preamble interval must be shorter than RTcal
    // (delimiter ≈ data-0 ≈ Tari, so composite ≈ 2·Tari − PW < 3·Tari).
    if composite >= rtcal || rtcal <= 0.0 {
        return Err(PieError::NoPreamble);
    }
    let pivot = rtcal / 2.0;
    let mut rest = &intervals[2..];
    // Skip TRcal when present (longer than RTcal).
    if let Some(&first) = rest.first() {
        if first > rtcal * 1.05 {
            rest = &rest[1..];
        }
    }
    let mut bits = Vec::with_capacity(rest.len());
    for &iv in rest {
        if iv > rtcal * 1.05 {
            return Err(PieError::BadSymbol);
        }
        bits.push(iv > pivot);
    }
    Ok(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 4e6;

    #[test]
    fn paper_query_duration_near_800us() {
        // A Query is 22 bits; with typical bit mix the frame lasts ~0.5-1 ms.
        let p = PieParams::paper_defaults();
        let d = p.frame_duration_s(11, 11, true);
        assert!(d > 4e-4 && d < 1.2e-3, "duration {d}");
    }

    #[test]
    fn encode_rasterize_decode_roundtrip() {
        let p = PieParams::paper_defaults();
        let bits = vec![
            true, false, false, true, true, true, false, true, false, false,
        ];
        for with_trcal in [false, true] {
            let runs = encode_frame(&bits, &p, with_trcal);
            let env = rasterize(&runs, FS, 0.0);
            let decoded = decode_frame(&env, FS).expect("decode");
            assert_eq!(decoded, bits, "trcal={with_trcal}");
        }
    }

    #[test]
    fn roundtrip_with_partial_modulation_depth() {
        // 80 % depth: notches go to 0.2, decoder thresholds at half.
        let p = PieParams::paper_defaults();
        let bits = vec![false, true, true, false, true];
        let runs = encode_frame(&bits, &p, true);
        let env = rasterize(&runs, FS, 0.2);
        assert_eq!(decode_frame(&env, FS).unwrap(), bits);
    }

    #[test]
    fn decode_rejects_flat_envelope() {
        assert_eq!(
            decode_frame(&vec![1.0; 1000], FS),
            Err(PieError::NoPreamble)
        );
        assert_eq!(
            decode_frame(&vec![0.0; 1000], FS),
            Err(PieError::NoPreamble)
        );
        assert_eq!(decode_frame(&[1.0; 4], FS), Err(PieError::TooShort));
    }

    #[test]
    fn decode_survives_scaling() {
        // Channel gain must not matter (tag sees absolute scale-free env).
        let p = PieParams::paper_defaults();
        let bits = vec![true, false, true];
        let runs = encode_frame(&bits, &p, false);
        let mut env = rasterize(&runs, FS, 0.1);
        for v in &mut env {
            *v *= 3.7e-4;
        }
        assert_eq!(decode_frame(&env, FS).unwrap(), bits);
    }

    #[test]
    fn empty_payload_decodes_empty() {
        let p = PieParams::paper_defaults();
        let runs = encode_frame(&[], &p, false);
        let env = rasterize(&runs, FS, 0.0);
        assert_eq!(decode_frame(&env, FS).unwrap(), Vec::<bool>::new());
    }

    #[test]
    fn frame_duration_matches_rasterized_length() {
        let p = PieParams::paper_defaults();
        let bits = vec![true, true, false, false, true];
        let runs = encode_frame(&bits, &p, true);
        let env = rasterize(&runs, FS, 0.0);
        // + leading carrier + trailing carrier
        let expected = p.frame_duration_s(2, 3, true) + 2.0 * p.data1_s();
        assert!(((env.len() as f64 / FS) - expected).abs() < 2.0 / FS);
    }
}
