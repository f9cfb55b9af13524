//! Streaming bank emission and the trig oracle.
//!
//! [`CarrierWindows`] synthesizes the carrier-on (constant 1.0)
//! emission of the whole bank — the one profile the pipeline's
//! calibration and power pass stream — either window by window in any
//! order (calibration) or sequentially from sample 0 (the power pass),
//! handing each sample's carriers to a caller's fold as they are
//! stepped. Each lane takes its rotor and PA gain from the bank and
//! steps the rotor with the gain ([`PhasorRotor::fill_scaled`] or its
//! row form), so no libm call survives on the per-sample path.
//!
//! The rotator output differs from the textbook scalar path (one
//! `sin_cos` per oscillator sample, the PA's polar round-trip) only by
//! the recurrence's bounded rounding (≤ 1e-12 per resync window);
//! [`emit_oracle`] keeps that formulation so tests can pin the distance
//! (`tests/streaming_equivalence.rs`).

use crate::bank::TxBank;
use ivn_dsp::complex::Complex64;
use ivn_dsp::osc::Oscillator;
use ivn_dsp::rotor::{PhasorRotor, LANES};
use std::ops::Range;

/// The most devices one [`CarrierWindows`] steps (its row is an array).
const MAX_DEVICES: usize = 16;

/// The bank's carrier-on emission — device `i` fed the constant-1.0
/// profile — stepped sample by sample, from sample 0 or from any resync
/// window, bit for bit.
///
/// With a constant profile every lane reads level 1.0 at every output
/// sample, inside the command and outside it alike, so the trigger
/// shift drops out: lane `i`'s sample `k` is `rotorᵢ(k) · gᵢ`, with
/// `gᵢ` the PA gain at the drive. The rotor resyncs at fixed absolute
/// indices, so [`CarrierWindows::seek`] to a window start followed by
/// [`CarrierWindows::fold`] calls of any lengths reproduces the stream
/// from that window on, in any order and any split. Memory is one row
/// of [`LANES`] samples per lane.
#[derive(Debug, Clone)]
pub struct CarrierWindows {
    lanes: Vec<WindowLane>,
    len: usize,
    window: usize,
    /// Absolute index of the next sample to step and hand out.
    next: usize,
    /// The row being handed out: `row[j][i]` is device `i`'s sample at offset `j`.
    row: [[Complex64; MAX_DEVICES]; LANES],
}

#[derive(Debug, Clone)]
struct WindowLane {
    rotor: PhasorRotor,
    gain: f64,
}

impl CarrierWindows {
    /// The carrier-on emission of every device of `bank` at PA drive
    /// `drive`, `len` samples long, positioned at sample 0.
    ///
    /// # Panics
    /// Panics if the bank has more than 16 devices.
    pub fn new(bank: &TxBank, drive: f64, len: usize) -> Self {
        assert!(
            bank.len() <= MAX_DEVICES,
            "at most {MAX_DEVICES} devices per stream"
        );
        let lanes: Vec<WindowLane> = (0..bank.len())
            .map(|i| WindowLane {
                rotor: bank.rotor(i),
                gain: bank.pa_gain(i, drive),
            })
            .collect();
        let window = lanes.first().map_or(1, |l| l.rotor.resync());
        assert!(
            lanes.iter().all(|l| l.rotor.resync() == window),
            "lanes disagree on the resync window"
        );
        CarrierWindows {
            lanes,
            len,
            window,
            next: 0,
            row: [[Complex64::ZERO; MAX_DEVICES]; LANES],
        }
    }

    /// Number of windows covering the `len` samples (the last may be
    /// short).
    pub fn count(&self) -> usize {
        self.len.div_ceil(self.window)
    }

    /// The absolute sample indices of window `w`.
    pub fn range(&self, w: usize) -> Range<usize> {
        let start = w * self.window;
        start..self.len.min(start + self.window)
    }

    /// Number of lanes (devices).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Lane `i`'s rotor (its closed-form phase and increment).
    pub fn rotor(&self, i: usize) -> &PhasorRotor {
        &self.lanes[i].rotor
    }

    /// Lane `i`'s signed real PA gain at the drive.
    pub fn gain(&self, i: usize) -> f64 {
        self.lanes[i].gain
    }

    /// Positions every lane at the start of window `w` and returns the
    /// window's sample range.
    ///
    /// # Panics
    /// Panics if `w` is past the last window.
    pub fn seek(&mut self, w: usize) -> Range<usize> {
        assert!(w < self.count(), "window {w} out of range");
        let range = self.range(w);
        for lane in &mut self.lanes {
            lane.rotor.seek(range.start as u64);
        }
        self.next = range.start;
        range
    }

    /// Hands the next `n` samples after the last [`CarrierWindows::seek`]
    /// or `fold` to `f(k, carriers)` once each, in ascending absolute
    /// index `k`, with `carriers[i]` device `i`'s sample `k`. Lanes are
    /// stepped a row at a time (up to the next multiple of [`LANES`] or
    /// the end of the call), bit-identical to stepping each sample on its
    /// own ([`PhasorRotor::next_sample`] times the gain) for any split, so
    /// a caller's per-sample work runs between the steps.
    ///
    /// # Panics
    /// Panics if the `n` samples run past the stream's `len`.
    #[inline]
    pub fn fold(&mut self, n: usize, mut f: impl FnMut(usize, &[Complex64])) {
        let end = self.next + n;
        assert!(end <= self.len, "fold past the end of the stream");
        let devices = self.lanes.len();
        let mut stepped = self.next;
        for k in self.next..end {
            if k == stepped {
                stepped += self.step_row(k, end - k);
            }
            f(k, &self.row[k % LANES][..devices]);
        }
        self.next = end;
    }

    /// Steps every lane from sample `from` to the end of its row, or
    /// `want` samples if fewer (a partial row by `fill_scaled`); returns
    /// the count.
    fn step_row(&mut self, from: usize, want: usize) -> usize {
        let at = from % LANES;
        let m = (LANES - at).min(want);
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            if m == LANES {
                let col = lane.rotor.next_row_scaled(lane.gain);
                for (row, z) in self.row.iter_mut().zip(col) {
                    row[i] = z;
                }
            } else {
                let mut col = [Complex64::ZERO; LANES];
                lane.rotor.fill_scaled(&mut col[..m], lane.gain);
                for (row, z) in self.row[at..at + m].iter_mut().zip(col) {
                    row[i] = z;
                }
            }
        }
        m
    }
}

/// The pre-rotor scalar emission path, kept as the trig oracle: one
/// `sin_cos` per oscillator sample and the PA's polar round-trip
/// (`atan2` + `sin_cos`), exactly as the bank's emitter computed before
/// it went trig-free.
///
/// This is deliberately *not* the production path — it exists so the
/// equivalence suite can bound the rotator path's distance from the
/// textbook formulation (≤ 1e-9 of the emitted amplitude per sample;
/// see `tests/streaming_equivalence.rs`) and so new goldens were pinned
/// against something slower but independently derived.
pub fn emit_oracle(bank: &TxBank, i: usize, profile: &[f64], drive: f64) -> Vec<Complex64> {
    let dev = bank.device(i);
    let shift = bank.shift(i);
    let mut osc = Oscillator::new(bank.offsets_hz()[i], bank.sample_rate());
    let carrier = Complex64::cis(dev.pll.initial_phase());
    let total = profile.len() as i64;
    (0..profile.len())
        .map(|k| {
            let idx = k as i64 - shift;
            let amp = if (0..total).contains(&idx) {
                profile[idx as usize]
            } else {
                1.0
            };
            let x = osc.next_sample() * amp * drive;
            let (r, theta) = x.to_polar();
            Complex64::from_polar(dev.pa.am_am(r), theta) * carrier
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockDistribution;
    use ivn_runtime::rng::StdRng;

    const OFFSETS: [f64; 4] = [0.0, 7.0, 20.0, 49.0];

    fn bank(clock: &ClockDistribution, seed: u64) -> TxBank {
        let mut rng = StdRng::seed_from_u64(seed);
        TxBank::new(&mut rng, 4, 915e6, 100e3, &OFFSETS, clock)
    }

    #[test]
    fn free_running_lanes_advance_at_the_nominal_offset() {
        // `ClockDistribution::residual_ppm_rms` is not simulated: a
        // free-running bank differs from an Octoclock one only in
        // trigger slop, and every lane's rotor is the one at exactly the
        // nominal offset. Applying the ppm error must change this test.
        let b = bank(&ClockDistribution::free_running(), 9);
        let win = CarrierWindows::new(&b, 0.05, 1);
        for (i, &f) in OFFSETS.iter().enumerate() {
            let phase0 = b.device(i).pll.initial_phase();
            let mut want = [Complex64::ZERO; 64];
            PhasorRotor::new(f, b.sample_rate(), phase0).fill(&mut want);
            let mut got = [Complex64::ZERO; 64];
            win.rotor(i).clone().fill(&mut got);
            let bits = |z: &[Complex64]| {
                z.iter()
                    .map(|c| (c.re.to_bits(), c.im.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&got), bits(&want), "lane {i}");
        }
    }
}
