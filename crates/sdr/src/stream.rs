//! Streaming bank emission and the trig oracle.
//!
//! [`CarrierWindows`] synthesizes the carrier-on (constant 1.0)
//! emission of the whole bank — the only profile the pipeline's
//! calibration and power pass stream — either window by window in any
//! order (calibration) or sequentially from sample 0 (the power pass).
//! Every other profile goes through the whole-buffer [`TxBank::emit`].
//! Both take each device's rotor and PA gain from the bank and hand the
//! rotor the output block itself with the gain
//! ([`PhasorRotor::fill_scaled`]), so they agree bit for bit on the
//! carrier-on profile and no libm call survives on the per-sample path.
//!
//! The rotator output differs from the textbook scalar path (one
//! `sin_cos` per oscillator sample, the PA's polar round-trip) only by
//! the recurrence's bounded rounding (≤ 1e-12 per resync window);
//! [`emit_oracle`] keeps that formulation so tests can pin the distance
//! (`tests/streaming_equivalence.rs`).

use crate::bank::TxBank;
use ivn_dsp::complex::Complex64;
use ivn_dsp::osc::Oscillator;
use ivn_dsp::rotor::PhasorRotor;
use ivn_runtime::pool::WorkerPool;
use std::ops::Range;

/// The bank's carrier-on emission — device `i` fed the constant-1.0
/// profile — synthesized block by block, from sample 0 or from any
/// resync window, bit for bit.
///
/// With a constant profile every lane reads level 1.0 at every output
/// sample, inside the command and outside it alike, so the trigger
/// shift drops out: lane `i`'s sample `k` is `rotorᵢ(k) · gᵢ`, with
/// `gᵢ` the PA gain of level 1.0 — exactly what [`TxBank::emit`]
/// produces for that profile. The rotor resyncs at
/// fixed absolute indices, so [`CarrierWindows::seek`] to a window
/// start followed by `emit` calls of any lengths reproduces the stream
/// from that window on, in any order and any split. Memory is one
/// output block per lane, sized by the caller's `emit` lengths.
#[derive(Debug, Clone)]
pub struct CarrierWindows {
    lanes: Vec<WindowLane>,
    len: usize,
    window: usize,
    threads: usize,
}

#[derive(Debug, Clone)]
struct WindowLane {
    rotor: PhasorRotor,
    gain: f64,
    buf: Vec<Complex64>,
}

impl WindowLane {
    /// Replaces the block with the lane's next `n` samples, rotor-filled
    /// and scaled by the lane's gain in one pass. The block is resized,
    /// not cleared: the fill overwrites every sample.
    fn emit(&mut self, n: usize) {
        self.buf.resize(n, Complex64::ZERO);
        self.rotor.fill_scaled(&mut self.buf, self.gain);
    }
}

impl CarrierWindows {
    /// The carrier-on emission of every device of `bank` at PA drive
    /// `drive`, `len` samples long, positioned at sample 0, with lanes
    /// advanced inline.
    pub fn new(bank: &TxBank, drive: f64, len: usize) -> Self {
        let lanes: Vec<WindowLane> = (0..bank.len())
            .map(|i| WindowLane {
                rotor: bank.rotor(i),
                gain: bank.pa_gain(i, 1.0, drive),
                buf: Vec::new(),
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
            threads: 1,
        }
    }

    /// Advances the lanes on `threads` workers of the global
    /// [`WorkerPool`] (1 = inline). The samples do not depend on it.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
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

    /// Lane `i`'s real PA gain at level 1.0.
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
        range
    }

    /// Replaces every lane's block with its next `n` samples, continuing
    /// from the last [`CarrierWindows::seek`] or `emit`. With more than
    /// one thread the lanes are moved through the persistent
    /// [`WorkerPool`] — the no-`unsafe` rule forbids lending `&mut`
    /// state to pool threads, so ownership makes the round trip instead
    /// — and come back in device order, so the blocks are bit-identical
    /// at any worker count.
    pub fn emit(&mut self, n: usize) {
        let _span = ivn_runtime::span!("sdr.emit_ns");
        ivn_runtime::obs_count!("sdr.emissions", 1);
        if self.threads <= 1 || self.lanes.len() <= 1 {
            for lane in &mut self.lanes {
                lane.emit(n);
            }
        } else {
            let lanes = std::mem::take(&mut self.lanes);
            self.lanes = WorkerPool::global().map_move(lanes, self.threads, move |_, mut lane| {
                lane.emit(n);
                lane
            });
        }
    }

    /// Every lane's current block, in device order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = &[Complex64]> {
        self.lanes.iter().map(|l| l.buf.as_slice())
    }

    /// Device `i`'s current block.
    pub fn block(&self, i: usize) -> &[Complex64] {
        &self.lanes[i].buf
    }

    /// Largest per-lane block currently held, in samples — the
    /// footprint probe for the sdr stage.
    pub fn peak_lane_footprint(&self) -> usize {
        self.lanes.iter().map(|l| l.buf.len()).max().unwrap_or(0)
    }
}

/// The pre-rotor scalar emission path, kept as the trig oracle: one
/// `sin_cos` per oscillator sample and the PA's polar round-trip
/// (`atan2` + `sin_cos`), exactly as `TxBank::emit` computed before it
/// went trig-free.
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
    fn carrier_windows_aligned_and_identical_across_threads() {
        // Every sequential block holds the same samples on every lane as
        // the whole-buffer emission of the constant-1.0 profile, at any
        // worker count and for a ragged last block.
        let b = bank(&ClockDistribution::octoclock(), 3);
        let profile = vec![1.0; 512];
        let reference: Vec<_> = (0..b.len()).map(|i| b.emit(i, &profile, 0.05)).collect();
        for threads in [1usize, 2, 8] {
            let mut win = CarrierWindows::new(&b, 0.05, profile.len()).with_threads(threads);
            let mut at = 0;
            while at < profile.len() {
                let take = 100.min(profile.len() - at);
                win.emit(take);
                assert_eq!(win.blocks().len(), b.len());
                for (i, got) in win.blocks().enumerate() {
                    assert_eq!(
                        got,
                        &reference[i].samples()[at..at + take],
                        "device {i} samples {at}.. at {threads} threads"
                    );
                }
                at += take;
            }
        }
    }

    #[test]
    fn free_running_lanes_advance_at_the_nominal_offset() {
        // `ClockDistribution::residual_ppm_rms` is not simulated: a
        // free-running bank differs from an Octoclock one only in
        // trigger slop, and every lane's rotor steps by exactly
        // TAU·offset/fs. Applying the ppm error must change this test.
        let b = bank(&ClockDistribution::free_running(), 9);
        let win = CarrierWindows::new(&b, 0.05, 1);
        for (i, &f) in OFFSETS.iter().enumerate() {
            let want = std::f64::consts::TAU * f / b.sample_rate();
            assert_eq!(
                win.rotor(i).increment().to_bits(),
                want.to_bits(),
                "lane {i}"
            );
        }
    }
}
