//! Block-streaming bank emission.
//!
//! [`EmitterLane`] is the streaming core behind [`TxBank::emit`]: one
//! device's oscillator, PA and carrier-phase state, advanced block by
//! block. The whole-buffer `emit` is now a thin wrapper — push the full
//! profile, flush — so the two paths are bit-identical by construction.
//!
//! The only stateful subtlety is the trigger offset: device `i` reads
//! the shared command profile at `k − shiftᵢ`, so a lane keeps a small
//! sliding window of profile history (for positive shifts, i.e. delayed
//! devices) and holds back up to `latency` output samples (for negative
//! shifts, which need *future* profile samples). Both bounds are set by
//! the clock distribution's trigger jitter — nanoseconds for an
//! Octoclock, ≪ one block even free-running — so lane memory stays
//! O(block + |shift|), independent of the stream length.
//!
//! [`BankStreamer`] runs one lane per device with a common latency, so
//! every `push` yields the same number of aligned output samples on all
//! lanes — exactly what the per-block superposition in `ivn-em` needs.
//! Lane advancement is embarrassingly parallel (disjoint state): slots
//! are *moved* through the persistent `ivn_runtime::pool::WorkerPool`
//! and reassembled in device order, so the output is bit-identical at
//! any worker count.
//!
//! ## The trig-free hot loop
//!
//! The emission inner loop used to be the slowest stage of the whole
//! sample path (~1.5 MS/s vs em's 130 MS/s): per output sample it paid
//! a `sin_cos` in the oscillator and an `atan2` + `sin_cos` + two
//! `powf` in the PA's polar round-trip. The lane now rides a
//! [`PhasorRotor`] — the carrier phase and the soft offset fold into
//! one lane-batched rotator with periodic exact resync — and the PA
//! collapses to a memoized real gain: command profiles are long runs
//! of constant amplitude (1.0 with 0.0 notches), so the lane walks the
//! block run by run, looks the gain up once per run, and scales the
//! run's phasors in one vectorizable loop. No libm call survives on
//! the per-sample path.
//!
//! [`CarrierWindows`] regenerates any resync window of the carrier-on
//! (constant 1.0) stream in isolation, through the same rotor fill and
//! the same `phasor · gain` multiply, so a caller can revisit a few
//! windows of a long stream bit for bit without emitting the rest.
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
use std::sync::Arc;

/// Per-lane scratch block length: bounds rotor scratch at O(block) even
/// when a whole-buffer `emit` asks for one huge block.
const SCRATCH_BLOCK: usize = 4096;

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
    /// (covers lanes with negative shift in this bank).
    latency: usize,
    /// Profile history retained behind the emission point (covers
    /// positive shifts).
    lookback: usize,
    hist: Vec<f64>,
    hist_start: usize,
    pushed: usize,
    next: usize,
    /// Reusable rotor output scratch.
    phasors: Vec<Complex64>,
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
            phasors: Vec::new(),
            memo_amp: f64::NAN,
            memo_gain: 0.0,
        }
    }

    /// Forces a common output latency across a bank's lanes (must be at
    /// least this lane's own requirement).
    fn set_latency(&mut self, latency: usize) {
        assert!(latency >= self.latency, "latency below lane requirement");
        self.latency = latency;
    }

    /// The profile shift in samples.
    pub fn shift(&self) -> i64 {
        self.shift
    }

    /// Samples of profile history currently buffered (footprint probe).
    pub fn history_len(&self) -> usize {
        self.hist.len()
    }

    /// Emits output samples `next .. next+count`, reading profile
    /// amplitudes from the history window. `total` is the final profile
    /// length once known (`flush`); indices outside `[0, total)` read
    /// as 1.0 — outside the command the carrier stays on.
    ///
    /// Hot path: the rotor fills a phasor scratch block (one complex
    /// multiply per sample, auto-vectorized rows), and the block is
    /// walked in runs of equal profile bits. The PA reduces to a real
    /// gain memoized on the profile level, looked up once per run, and
    /// each run is one `phasor · gain` loop with no libm call.
    fn emit_samples(&mut self, count: usize, total: Option<usize>, out: &mut Vec<Complex64>) {
        if count == 0 {
            return;
        }
        let _span = ivn_runtime::span!("sdr.emit_ns");
        ivn_runtime::obs_count!("sdr.emissions", 1);
        out.reserve(count);
        let end = self.next + count;
        while self.next < end {
            let take = SCRATCH_BLOCK.min(end - self.next);
            self.phasors.clear();
            self.phasors.resize(take, Complex64::ZERO);
            self.rotor.fill(&mut self.phasors);
            let mut j = 0;
            while j < take {
                let (amp, run) = self.profile_run(self.next + j, take - j, total);
                if amp.to_bits() != self.memo_amp.to_bits() {
                    self.memo_amp = amp;
                    self.memo_gain = pa_gain(&self.pa, amp, self.drive);
                }
                scale_into(&self.phasors[j..j + run], self.memo_gain, out);
                j += run;
            }
            self.next += take;
        }
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

/// Appends `phasors[k] · gain` to `out` — the one emission multiply,
/// shared by the streaming lane and [`CarrierWindows`].
fn scale_into(phasors: &[Complex64], gain: f64, out: &mut Vec<Complex64>) {
    out.extend(phasors.iter().map(|&p| p * gain));
}

/// The bank's carrier-on emission — the constant-1.0 profile a
/// [`BankStreamer`] is fed — regenerated one resync window at a time,
/// in isolation and bit for bit.
///
/// With a constant profile every lane reads level 1.0 at every output
/// sample, inside the command and outside it alike, so the trigger
/// shift and latency drop out: lane `i`'s sample `k` is
/// `rotorᵢ(k) · gᵢ`, with `gᵢ` the memoized PA gain of level 1.0. The
/// rotor resyncs at fixed absolute indices, so [`PhasorRotor::seek`]
/// to a window start followed by the same `fill` and the same
/// `phasor · gain` multiply reproduces the streamed samples of that
/// window exactly, in any order and any split. Memory is one phasor and
/// one output block per lane, sized by the caller's `emit` lengths.
#[derive(Debug, Clone)]
pub struct CarrierWindows {
    lanes: Vec<WindowLane>,
    len: usize,
    window: usize,
}

#[derive(Debug, Clone)]
struct WindowLane {
    rotor: PhasorRotor,
    gain: f64,
    phasors: Vec<Complex64>,
    buf: Vec<Complex64>,
}

impl CarrierWindows {
    /// The carrier-on emission of every device of `bank` at PA drive
    /// `drive`, `len` samples long.
    pub fn new(bank: &TxBank, drive: f64, len: usize) -> Self {
        let lanes: Vec<WindowLane> = (0..bank.len())
            .map(|i| {
                let lane = EmitterLane::new(bank, i, drive);
                WindowLane {
                    gain: pa_gain(&lane.pa, 1.0, drive),
                    rotor: lane.rotor,
                    phasors: Vec::new(),
                    buf: Vec::new(),
                }
            })
            .collect();
        let window = lanes.first().map_or(1, |l| l.rotor.resync());
        assert!(
            lanes.iter().all(|l| l.rotor.resync() == window),
            "lanes disagree on the resync window"
        );
        CarrierWindows { lanes, len, window }
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

    /// Emits the next `n` samples of every lane into its block (cleared
    /// first), continuing from the last [`CarrierWindows::seek`] or
    /// `emit`.
    pub fn emit(&mut self, n: usize) {
        for lane in &mut self.lanes {
            lane.phasors.clear();
            lane.phasors.resize(n, Complex64::ZERO);
            lane.rotor.fill(&mut lane.phasors);
            lane.buf.clear();
            scale_into(&lane.phasors, lane.gain, &mut lane.buf);
        }
    }

    /// Every lane's current block, in device order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = &[Complex64]> {
        self.lanes.iter().map(|l| l.buf.as_slice())
    }

    /// Largest per-lane buffer currently held, in samples.
    pub fn peak_lane_footprint(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.buf.len().max(l.phasors.len()))
            .max()
            .unwrap_or(0)
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

/// One lane plus its reusable output scratch block.
#[derive(Debug, Clone)]
struct LaneSlot {
    lane: EmitterLane,
    buf: Vec<Complex64>,
}

/// The whole bank as an aligned multi-lane streaming emitter: every
/// [`BankStreamer::push`] advances all devices by the same number of
/// output samples, leaving one block per device in reusable scratch.
#[derive(Debug, Clone)]
pub struct BankStreamer {
    slots: Vec<LaneSlot>,
    threads: usize,
}

impl BankStreamer {
    /// Builds a streamer over `bank` at PA drive `drive`, advancing
    /// lanes on `threads` workers (1 = inline).
    pub fn new(bank: &TxBank, drive: f64, threads: usize) -> Self {
        let lanes: Vec<EmitterLane> = (0..bank.len())
            .map(|i| EmitterLane::new(bank, i, drive))
            .collect();
        // A common latency keeps every lane's output aligned.
        let latency = lanes.iter().map(|l| l.latency).max().unwrap_or(0);
        let slots = lanes
            .into_iter()
            .map(|mut lane| {
                lane.set_latency(latency);
                LaneSlot {
                    lane,
                    buf: Vec::new(),
                }
            })
            .collect();
        BankStreamer { slots, threads }
    }

    /// Number of lanes (devices).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the streamer has no lanes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Pushes one shared profile block; every lane appends the same
    /// number of output samples to its scratch block (cleared first).
    /// Returns that per-lane count.
    pub fn push(&mut self, profile: &[f64]) -> usize {
        self.advance(Some(profile))
    }

    /// Ends the stream, draining held-back samples into the per-lane
    /// blocks. Returns the per-lane count.
    pub fn flush(&mut self) -> usize {
        self.advance(None)
    }

    /// Advances every lane by one block (`Some(profile)`) or drains it
    /// (`None`). With more than one thread, slots are moved through the
    /// persistent [`WorkerPool`] — the no-`unsafe` rule forbids lending
    /// `&mut` state to pool threads, so ownership makes the round trip
    /// instead — and come back in device order, keeping output
    /// bit-identical at any worker count.
    fn advance(&mut self, profile: Option<&[f64]>) -> usize {
        if self.threads <= 1 || self.slots.len() <= 1 {
            for slot in &mut self.slots {
                slot.buf.clear();
                match profile {
                    Some(p) => slot.lane.push(p, &mut slot.buf),
                    None => slot.lane.flush(&mut slot.buf),
                }
            }
        } else {
            let shared: Option<Arc<[f64]>> = profile.map(Arc::from);
            let slots = std::mem::take(&mut self.slots);
            self.slots = WorkerPool::global().map_move(slots, self.threads, move |_, mut slot| {
                slot.buf.clear();
                match &shared {
                    Some(p) => slot.lane.push(p, &mut slot.buf),
                    None => slot.lane.flush(&mut slot.buf),
                }
                slot
            });
        }
        self.slots.first().map_or(0, |s| s.buf.len())
    }

    /// Device `i`'s current output block.
    pub fn block(&self, i: usize) -> &[Complex64] {
        &self.slots[i].buf
    }

    /// All current output blocks, in device order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = &[Complex64]> {
        self.slots.iter().map(|s| s.buf.as_slice())
    }

    /// Largest per-lane buffer currently held (scratch block, rotor
    /// phasor scratch, or profile history), in samples — the footprint
    /// probe for the sdr stage.
    pub fn peak_lane_footprint(&self) -> usize {
        self.slots
            .iter()
            .map(|s| {
                s.buf
                    .len()
                    .max(s.lane.history_len())
                    .max(s.lane.phasors.len())
            })
            .max()
            .unwrap_or(0)
    }
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
    fn bank_streamer_aligned_and_identical_across_threads() {
        let b = bank(&ClockDistribution::octoclock(), 3);
        let profile = notched_profile(512);
        let reference: Vec<_> = (0..b.len()).map(|i| b.emit(i, &profile, 0.05)).collect();
        for threads in [1usize, 2, 8] {
            let mut st = BankStreamer::new(&b, 0.05, threads);
            let mut collected: Vec<Vec<Complex64>> = vec![Vec::new(); b.len()];
            for chunk in profile.chunks(100) {
                st.push(chunk);
                for (i, c) in collected.iter_mut().enumerate() {
                    c.extend_from_slice(st.block(i));
                }
            }
            st.flush();
            for (i, c) in collected.iter_mut().enumerate() {
                c.extend_from_slice(st.block(i));
            }
            for (i, (got, want)) in collected.iter().zip(&reference).enumerate() {
                assert_eq!(got, want.samples(), "device {i} at {threads} threads");
            }
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
            peak_hist = peak_hist.max(lane.history_len());
        }
        // Bounded by block + |shift| slack, not by the 25 600 samples pushed.
        let slack = lane.shift().unsigned_abs() as usize + lane.latency;
        assert!(
            peak_hist <= 256 + slack + 1,
            "history {peak_hist} exceeds block+slack"
        );
    }
}
