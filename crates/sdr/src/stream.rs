//! Block-streaming bank emission.
//!
//! Two synthesizers share one rotor fill and one `phasor · gain`
//! multiply, so they agree bit for bit wherever both apply:
//!
//! - [`EmitterLane`] is the general-profile core behind
//!   [`TxBank::emit`]: one device's oscillator, PA and carrier-phase
//!   state, advanced block by block over any amplitude profile. The
//!   whole-buffer `emit` pushes the full profile and flushes.
//! - [`CarrierWindows`] synthesizes the carrier-on (constant 1.0)
//!   emission of the whole bank — the only profile the pipeline's
//!   calibration and power pass feed it — either window by window in
//!   any order (calibration) or sequentially from sample 0 (the power
//!   pass).
//!
//! The lane's one stateful subtlety is the trigger offset: device `i`
//! reads the shared command profile at `k − shiftᵢ`, so a lane keeps a
//! small sliding window of profile history (for positive shifts, i.e.
//! delayed devices) and holds back up to `latency` output samples (for
//! negative shifts, which need *future* profile samples). Both bounds
//! are set by the clock distribution's trigger jitter — nanoseconds for
//! an Octoclock, ≪ one block even free-running — so lane memory stays
//! O(block + |shift|), independent of the stream length. Under a
//! constant profile the shift drops out, which is what lets
//! [`CarrierWindows`] do without history or latency.
//!
//! ## The trig-free hot loop
//!
//! The emission inner loop used to be the slowest stage of the whole
//! sample path (~1.5 MS/s vs em's 130 MS/s): per output sample it paid
//! a `sin_cos` in the oscillator and an `atan2` + `sin_cos` + two
//! `powf` in the PA's polar round-trip. A lane now rides a
//! [`PhasorRotor`] — the carrier phase and the soft offset fold into
//! one lane-batched rotator with periodic exact resync — and the PA
//! collapses to a memoized real gain: command profiles are long runs
//! of constant amplitude (1.0 with 0.0 notches), so the lane walks the
//! block run by run and looks the gain up once per run. Both
//! synthesizers hand the rotor the output block itself and the gain
//! ([`PhasorRotor::fill_scaled`]), so each sample is written once, with
//! no phasor scratch. No libm call survives on the per-sample path.
//!
//! The rotator output differs from the old scalar path only by the
//! recurrence's bounded rounding (≤ 1e-12 per resync window);
//! [`emit_oracle`] preserves the original trig formulation so tests can
//! pin that distance (`tests/streaming_equivalence.rs`).

use crate::bank::TxBank;
use crate::pa::PowerAmp;
use ivn_dsp::block::BlockStage;
use ivn_dsp::complex::Complex64;
use ivn_dsp::osc::Oscillator;
use ivn_dsp::rotor::PhasorRotor;
use ivn_runtime::pool::WorkerPool;
use std::ops::Range;

/// One device's streaming emitter: carries rotator phase, trigger
/// shift and profile history across block boundaries.
#[derive(Debug, Clone)]
pub struct EmitterLane {
    /// Unit phasor source `e^{j(θ_pll + kΔ)}`: PLL phase and soft
    /// offset in one trig-free rotator.
    rotor: PhasorRotor,
    pa: PowerAmp,
    drive: f64,
    /// Trigger offset as a whole-sample profile shift (positive = the
    /// device fires late and reads older profile samples).
    shift: i64,
    /// Output samples held back until enough profile has arrived
    /// (a negative shift reads future profile samples).
    latency: usize,
    /// Profile history retained behind the emission point (covers
    /// positive shifts).
    lookback: usize,
    hist: Vec<f64>,
    hist_start: usize,
    pushed: usize,
    next: usize,
    /// Last profile amplitude seen / the PA gain computed for it.
    memo_amp: f64,
    memo_gain: f64,
}

impl EmitterLane {
    /// A streaming emitter for device `i` of `bank` at PA drive `drive`.
    pub fn new(bank: &TxBank, i: usize, drive: f64) -> Self {
        let dev = bank.device(i);
        let shift = (dev.trigger_offset_s * bank.sample_rate()).round() as i64;
        EmitterLane {
            rotor: PhasorRotor::new(
                bank.offsets_hz()[i],
                bank.sample_rate(),
                dev.pll.initial_phase(),
            ),
            pa: dev.pa,
            drive,
            shift,
            latency: (-shift).max(0) as usize,
            lookback: shift.max(0) as usize,
            hist: Vec::new(),
            hist_start: 0,
            pushed: 0,
            next: 0,
            memo_amp: f64::NAN,
            memo_gain: 0.0,
        }
    }

    /// The profile shift in samples: the trigger delay
    /// `tests/stream_props.rs`'s per-sample reference rebuilds the
    /// emission with.
    pub fn shift(&self) -> i64 {
        self.shift
    }

    /// Emits output samples `next .. next+count`, reading profile
    /// amplitudes from the history window. `total` is the final profile
    /// length once known (`flush`); indices outside `[0, total)` read
    /// as 1.0 — outside the command the carrier stays on.
    ///
    /// Hot path: the tail is walked in runs of equal profile bits. The
    /// PA reduces to a real gain memoized on the profile level, looked
    /// up once per run, and the rotor fills each run of the appended
    /// tail in place already scaled by it (one complex multiply per
    /// sample, auto-vectorized rows, no libm call). The fill is
    /// split-invariant, so the run boundaries do not move a bit.
    fn emit_samples(&mut self, count: usize, total: Option<usize>, out: &mut Vec<Complex64>) {
        if count == 0 {
            return;
        }
        let _span = ivn_runtime::span!("sdr.emit_ns");
        ivn_runtime::obs_count!("sdr.emissions", 1);
        let start = out.len();
        out.resize(start + count, Complex64::ZERO);
        let mut j = 0;
        while j < count {
            let (amp, run) = self.profile_run(self.next + j, count - j, total);
            if amp.to_bits() != self.memo_amp.to_bits() {
                self.memo_amp = amp;
                self.memo_gain = pa_gain(&self.pa, amp, self.drive);
            }
            let at = start + j;
            self.rotor
                .fill_scaled(&mut out[at..at + run], self.memo_gain);
            j += run;
        }
        self.next += count;
    }

    /// The profile level output sample `k` reads, and how many of the
    /// next `max` samples (≥ 1) read the same bits. Before the command
    /// and, once `total` is known, after it, the level is 1.0.
    fn profile_run(&self, k: usize, max: usize, total: Option<usize>) -> (f64, usize) {
        let idx = k as i64 - self.shift;
        if idx < 0 {
            return (1.0, max.min(idx.unsigned_abs() as usize));
        }
        let idx = idx as usize;
        let end = total.unwrap_or(usize::MAX);
        if idx >= end {
            return (1.0, max);
        }
        debug_assert!(
            idx >= self.hist_start && idx < self.hist_start + self.hist.len(),
            "profile index {idx} outside history window"
        );
        let h = &self.hist[idx - self.hist_start..];
        let h = &h[..h.len().min(max).min(end - idx)];
        let bits = h[0].to_bits();
        (h[0], h.iter().take_while(|v| v.to_bits() == bits).count())
    }

    /// Drops history the emission point has moved past.
    fn compact(&mut self) {
        let keep_from = self.next.saturating_sub(self.lookback);
        if keep_from > self.hist_start {
            self.hist.drain(..keep_from - self.hist_start);
            self.hist_start = keep_from;
        }
    }
}

impl BlockStage for EmitterLane {
    type In = f64;
    type Out = Complex64;

    fn push(&mut self, input: &[f64], out: &mut Vec<Complex64>) {
        self.hist.extend_from_slice(input);
        self.pushed += input.len();
        let ready = self.pushed.saturating_sub(self.latency);
        let count = ready.saturating_sub(self.next);
        self.emit_samples(count, None, out);
        self.compact();
    }

    fn flush(&mut self, out: &mut Vec<Complex64>) {
        let total = self.pushed;
        let count = total - self.next;
        self.emit_samples(count, Some(total), out);
        self.compact();
    }
}

/// The PA's signed real gain for profile level `amp` at `drive`: a
/// unit phasor times this is the emitted sample.
fn pa_gain(pa: &PowerAmp, amp: f64, drive: f64) -> f64 {
    let a = amp * drive;
    let g = pa.am_am(a.abs());
    if a.is_sign_negative() {
        -g
    } else {
        g
    }
}

/// The bank's carrier-on emission — device `i` fed the constant-1.0
/// profile — synthesized block by block, from sample 0 or from any
/// resync window, bit for bit.
///
/// With a constant profile every lane reads level 1.0 at every output
/// sample, inside the command and outside it alike, so the trigger
/// shift and latency drop out: lane `i`'s sample `k` is
/// `rotorᵢ(k) · gᵢ`, with `gᵢ` the PA gain of level 1.0 — exactly what
/// [`TxBank::emit`] produces for that profile. The rotor resyncs at
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
            .map(|i| {
                let lane = EmitterLane::new(bank, i, drive);
                WindowLane {
                    gain: pa_gain(&lane.pa, 1.0, drive),
                    rotor: lane.rotor,
                    buf: Vec::new(),
                }
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
/// (`atan2` + `sin_cos`), exactly as `TxBank::emit` computed before the
/// lane went trig-free.
///
/// This is deliberately *not* the production path — it exists so the
/// equivalence suite can bound the rotator path's distance from the
/// textbook formulation (≤ 1e-9 of the emitted amplitude per sample;
/// see `tests/streaming_equivalence.rs`) and so new goldens were pinned
/// against something slower but independently derived.
pub fn emit_oracle(bank: &TxBank, i: usize, profile: &[f64], drive: f64) -> Vec<Complex64> {
    let dev = bank.device(i);
    let shift = (dev.trigger_offset_s * bank.sample_rate()).round() as i64;
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

    fn notched_profile(n: usize) -> Vec<f64> {
        let mut p = vec![1.0; n];
        for v in p[n / 3..n / 3 + n / 10].iter_mut() {
            *v = 0.0;
        }
        p
    }

    #[test]
    fn streaming_matches_batch_emit_any_block_size() {
        // Free-running clock → trigger shifts of many whole samples, so
        // both the history window and the latency path are exercised.
        let b = bank(&ClockDistribution::free_running(), 9);
        let profile = notched_profile(1000);
        for block in [1usize, 7, 64, 1000] {
            for i in 0..b.len() {
                let batch = b.emit(i, &profile, 0.05);
                let mut lane = EmitterLane::new(&b, i, 0.05);
                let mut out = Vec::new();
                for chunk in profile.chunks(block) {
                    lane.push(chunk, &mut out);
                }
                lane.flush(&mut out);
                assert_eq!(out.len(), profile.len(), "device {i} block {block}");
                for (k, (s, t)) in out.iter().zip(batch.samples()).enumerate() {
                    assert!(
                        s.re.to_bits() == t.re.to_bits() && s.im.to_bits() == t.im.to_bits(),
                        "device {i} block {block} sample {k}: {s:?} vs {t:?}"
                    );
                }
            }
        }
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
            let lane = EmitterLane::new(&b, i, 0.05);
            assert_eq!(lane.rotor.increment().to_bits(), want.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn lane_history_stays_bounded() {
        let b = bank(&ClockDistribution::free_running(), 9);
        let mut lane = EmitterLane::new(&b, 0, 0.05);
        let mut out = Vec::new();
        let block = vec![1.0; 256];
        let mut peak_hist = 0usize;
        for _ in 0..100 {
            out.clear();
            lane.push(&block, &mut out);
            peak_hist = peak_hist.max(lane.hist.len());
        }
        // Bounded by block + |shift| slack, not by the 25 600 samples pushed.
        let slack = lane.shift().unsigned_abs() as usize + lane.latency;
        assert!(
            peak_hist <= 256 + slack + 1,
            "history {peak_hist} exceeds block+slack"
        );
    }
}
