//! End-to-end *sample path*: the hardware chain the paper's prototype ran,
//! at baseband sample level rather than through the analytic envelope the
//! figure modules use.
//!
//! One pass chains every pipeline crate: frequency-plan scoring
//! (`freqsel`) → synchronized bank synthesis and per-device emission
//! (`sdr`) → blind per-antenna channels (`em`) → superposition at the
//! sensor → Dickson-pump power-up on the received power envelope
//! (`harvester`) → one PIE Query downlink and one FM0 RN16 reply (`rfid`),
//! the reader's one query per CIB period. Under `--trace` this is the
//! target that exercises every instrumented stage in a single timeline.
//!
//! ## One streaming driver
//!
//! Samples flow through the chain in fixed-size blocks
//! (`ivn_dsp::block`), so per-stage memory is O(block) rather than
//! O(fs) — a full 1-second CIB period at 1 MS/s runs in a few MB.
//!
//! The harvester's input is scaled so the received peak sits at
//! [`POWER_MARGIN`] × the tag's wake power, so the exact peak of `|rx|`
//! must be known before the power pass starts. [`calibrate_peak`] finds
//! it without synthesizing the period: the emitters' rotors resync from
//! the closed-form phase every 1024 samples, so any such window can be
//! regenerated on its own, bit for bit ([`CarrierWindows`]), and a
//! cheap closed-form bound on `|rx|` per window rules out all but the
//! few windows near the CIB envelope peaks (11 of 977 at 1 MS/s). Then
//! one full pass folds the same [`CarrierWindows`] from sample 0: per
//! sample, the carriers are superposed into `rx[k]`, which is digested
//! and drives one harvester step, and device 0's carrier feeds its
//! running peak — no per-device or rx buffer.
//!
//! With the carrier-on profile the received stream is the analytic
//! trial's tone sum, `rx[k] = Σᵢ cᵢ·e^{j2πfᵢk/fs}` with
//! `cᵢ = hᵢ·gᵢ·rotorᵢ(0)`: a `CibEnvelope` sampled at `fs`.
//! `tests/streaming_equivalence.rs` checks the stream, the calibrated
//! peak and the wake time against that envelope, and pins the
//! [`PathOutputs`] (the FNV-1a `rx_hash` of every received sample
//! included) at every block size.

use ivn_core::freqsel::expected_peak;
use ivn_core::PAPER_OFFSETS_HZ;
use ivn_dsp::block::{Footprint, PeakMeter, StreamHasher, DEFAULT_BLOCK};
use ivn_dsp::complex::Complex64;
use ivn_dsp::rotor::LANES;
use ivn_em::channel::ChannelEnsemble;
use ivn_em::stream::BlockSuperposer;
use ivn_harvester::powerup::{PowerUpOutcome, TagPowerProfile};
use ivn_rfid::commands::Command;
use ivn_rfid::fm0::Fm0;
use ivn_rfid::pie::{encode_frame, PieParams};
use ivn_rfid::stream::{Fm0Decoder, PieStreamDecoder, RunRasterizer};
use ivn_runtime::rng::{Rng, StdRng};
use ivn_sdr::bank::TxBank;
use ivn_sdr::clock::ClockDistribution;
use ivn_sdr::stream::CarrierWindows;
use std::time::Instant;

const SEED: u64 = 42;
const N_ANTENNAS: usize = 5;
const CARRIER_HZ: f64 = 915e6;
/// Headroom above the tag's required peak power when calibrating the
/// received level (the "place the sensor inside range" step): the
/// harvester sees `|rx|²` scaled so the calibrated peak is this many
/// times [`TagPowerProfile::required_peak_power_watts`].
pub const POWER_MARGIN: f64 = 2.0;
/// PA drive for the carrier-on profile.
pub const DRIVE: f64 = 0.05;
/// Sample rate of the PIE downlink frame (envelope-level, not RF).
const RFID_FS: f64 = 400e3;

/// A sample rate outside [1, 1e8] S/s. Below 1 S/s the 1-second CIB
/// period holds no sample (a 0-sample run with a NaN envelope peak); an
/// infinite or huge rate sizes it past any run that ends (`usize::MAX`
/// samples at `inf`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRateError(pub f64);

impl std::fmt::Display for SampleRateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sample rate {} S/s is outside [1, 1e8] S/s", self.0)
    }
}

/// Checks that one CIB period can be streamed at `hz` S/s: a finite
/// rate in [1, 1e8] S/s (NaN fails too).
pub fn check_sample_rate(hz: f64) -> Result<f64, SampleRateError> {
    if (1.0..=1e8).contains(&hz) {
        Ok(hz)
    } else {
        Err(SampleRateError(hz))
    }
}

/// Knobs of the streaming driver.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Override the sample rate (defaults to the quick/full presets);
    /// must pass [`check_sample_rate`].
    pub sample_rate: Option<f64>,
    /// Samples per block; must be at least 1.
    pub block: usize,
    /// Worker threads requested. Nothing reads it: the power pass is
    /// one per-sample loop on the calling thread. It is kept only
    /// because perfbench's `pipeline` workload constructs it.
    pub threads: usize,
    /// Append footprint/throughput diagnostics to the rendered output.
    pub stats: bool,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            sample_rate: None,
            block: DEFAULT_BLOCK,
            threads: 1,
            stats: false,
        }
    }
}

/// Everything the sample path computes, in comparable form (the
/// received stream itself through `rx_hash`): a run is pinned by one
/// value of this type.
#[derive(Debug, Clone, PartialEq)]
pub struct PathOutputs {
    /// Sample rate of the CIB period, S/s.
    pub sample_rate: f64,
    /// Samples in the 1-second period.
    pub n_samples: usize,
    /// freqsel Eq. 10 Monte-Carlo score.
    pub score: f64,
    /// Running peak amplitude of device 0's emission (calibration).
    pub single_amp: f64,
    /// Running peak amplitude of the received superposition.
    pub peak_amp: f64,
    /// Harvester outcome on the calibrated power envelope.
    pub outcome: PowerUpOutcome,
    /// PIE Query round trip succeeded.
    pub downlink_ok: bool,
    /// FM0 RN16 round trip succeeded.
    pub uplink_ok: bool,
    /// FNV-1a digest of every received (superposed) sample, in order.
    pub rx_hash: u64,
}

/// Outputs plus streaming diagnostics.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The comparable path outputs.
    pub outputs: PathOutputs,
    /// Block size used.
    pub block: usize,
    /// Calibration resync windows regenerated, of all windows in the
    /// period: `(visited, total)`.
    pub calibration_windows: (usize, usize),
    /// Peak per-stage scratch sizes, samples.
    pub footprint: Vec<(&'static str, usize)>,
    /// Wall-clock per timed stage, (stage, ns, samples). The one stage
    /// is `em`, the whole fused power pass (carriers, superposition, rx
    /// digest, device 0's peak and the harvester step — the FNV chain is
    /// latency-bound, so it costs about the digest alone). The rfid
    /// round trip is a few µs and is not timed here;
    /// `stages.stage=rfid.median_ns` in `bench_runtime` gates its codec.
    pub stage_ns: Vec<(&'static str, u128, usize)>,
}

/// The stages of one run of the sample path, as [`setup`] seeds them.
pub struct Setup {
    /// The synchronized transmitter bank.
    pub bank: TxBank,
    /// Each device's flat channel to the sensor, at its own emission
    /// frequency.
    pub superposer: BlockSuperposer,
    /// The harvester the received power drives.
    pub tag: TagPowerProfile,
    score: f64,
    rn16: Vec<bool>,
    sample_rate: f64,
    n_samples: usize,
}

/// Seeds the RNG and builds the stages of one run. The RNG draw order
/// (freqsel → bank → channels → RN16) is part of the output contract:
/// `rx_hash` and every other [`PathOutputs`] field depend on it.
///
/// # Panics
/// Panics if a `sample_rate` override fails [`check_sample_rate`],
/// before anything is synthesized.
pub fn setup(quick: bool, sample_rate: Option<f64>) -> Setup {
    if let Some(Err(e)) = sample_rate.map(check_sample_rate) {
        panic!("StreamOptions::sample_rate: {e}");
    }
    let mut rng = StdRng::seed_from_u64(SEED);
    let offsets = &PAPER_OFFSETS_HZ[..N_ANTENNAS];
    // One full CIB period (1 s) of baseband; the tones span 137 Hz so a
    // few kS/s resolves every envelope feature.
    let sample_rate = sample_rate.unwrap_or(if quick { 4096.0 } else { 16384.0 });
    let n_samples = sample_rate as usize;

    // freqsel: score the plan with the Eq. 10 Monte-Carlo objective.
    let draws = if quick { 8 } else { 64 };
    let grid = if quick { 256 } else { 1024 };
    let score = expected_peak(offsets, draws, grid, &mut rng);

    // sdr: the synchronized bank.
    let bank = TxBank::new(
        &mut rng,
        N_ANTENNAS,
        CARRIER_HZ,
        sample_rate,
        offsets,
        &ClockDistribution::octoclock(),
    );

    // em: each device sees its own blind channel at its own emission
    // frequency (narrowband superposition).
    let ens = ChannelEnsemble::blind(&mut rng, N_ANTENNAS, 0.3, CARRIER_HZ);
    let superposer = BlockSuperposer::from_ensemble(&ens, |i| bank.emission_hz(i));

    let rn16: Vec<bool> = (0..16).map(|_| rng.random::<bool>()).collect();
    Setup {
        bank,
        superposer,
        tag: TagPowerProfile::standard_tag(),
        score,
        rn16,
        sample_rate,
        n_samples,
    }
}

/// Outcome of [`calibrate_peak`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Exact running peak of `|rx|` over the period.
    pub peak: f64,
    /// Resync windows regenerated.
    pub visited: usize,
    /// Resync windows in the period.
    pub total: usize,
}

/// Rounding slack of the window bound, relative to `Σ|cᵢ|`: far above
/// the rotor's in-window drift (≤ 1e-9, pinned by `rotor_props`) and the
/// few-ulp rounding of the phase, superposition and `hypot`.
const BOUND_ROUNDING: f64 = 1e-6;

/// Upper bound on `|rx[k]|` over each resync window of the carrier-on
/// stream. With `cᵢ = hᵢ·gᵢ` (channel gain times PA gain) and window
/// centre `k_c`, `rx[k] = Σ cᵢ·cis(θᵢ(k_c) + (k − k_c)Δᵢ)`; factoring out
/// the common rotation `(k − k_c)Δ_mid` gives
/// `|rx[k]| ≤ |Σ cᵢ·cis(θᵢ(k_c))| + Σ|cᵢ|·|Δᵢ − Δ_mid|·|k − k_c|`.
struct WindowBound {
    coef: Vec<Complex64>,
    /// `Σ|cᵢ|·|Δᵢ − Δ_mid|`, per sample of distance from the centre.
    slope: f64,
    rounding: f64,
}

impl WindowBound {
    fn new(win: &CarrierWindows, channel: &[Complex64]) -> Self {
        assert_eq!(channel.len(), win.lanes(), "one channel gain per lane");
        let coef: Vec<Complex64> = channel
            .iter()
            .enumerate()
            .map(|(i, &h)| h * win.gain(i))
            .collect();
        let incs = (0..win.lanes()).map(|i| win.rotor(i).increment());
        let (lo, hi) = incs
            .clone()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), d| {
                (lo.min(d), hi.max(d))
            });
        let mid = 0.5 * (lo + hi);
        let slope = coef
            .iter()
            .zip(incs)
            .map(|(c, d)| c.norm() * (d - mid).abs())
            .sum();
        let rounding = BOUND_ROUNDING * coef.iter().map(|c| c.norm()).sum::<f64>();
        WindowBound {
            coef,
            slope,
            rounding,
        }
    }

    /// The bound on window `w` (NaN if any input is NaN).
    fn at(&self, win: &CarrierWindows, w: usize) -> f64 {
        let r = win.range(w);
        let half = r.len() / 2;
        let centre = (r.start + half) as u64;
        let mut sum = Complex64::ZERO;
        for (i, &c) in self.coef.iter().enumerate() {
            sum += c * Complex64::cis(win.rotor(i).ideal_phase(centre));
        }
        sum.norm() + self.slope * (half + 1) as f64 + self.rounding
    }
}

/// The exact running peak of `|rx|` over `n_samples` of the carrier-on
/// stream (`bank` at PA drive `drive` through `superposer`) —
/// bit-identical to a [`PeakMeter`] over the whole streamed period —
/// regenerating only the resync windows whose closed-form bound on
/// `|rx|` can reach it.
///
/// Two sweeps, O(1) extra memory: the first seeds `best` from the
/// window with the largest bound, the second regenerates every other
/// window whose bound is not below `best` (or is NaN). A skipped window
/// has every `|rx[k]|` below its bound, hence below a peak already seen,
/// so the maximum is unchanged. Windows are folded like the power pass,
/// in sub-blocks of at most `block` samples (one `sdr.emit_ns` span
/// each); the fold holds one row of carriers, so memory stays O(1).
// `!(bound < best)` is deliberate: a NaN bound must still be visited.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn calibrate_peak(
    bank: &TxBank,
    superposer: &BlockSuperposer,
    drive: f64,
    n_samples: usize,
    block: usize,
    footprint: &mut Footprint,
) -> Calibration {
    let mut win = CarrierWindows::new(bank, drive, n_samples);
    let bound = WindowBound::new(&win, superposer.gains());
    let total = win.count();
    let mut meter = PeakMeter::new();
    // Regenerates window `w` into the meter; returns the peak so far.
    let mut visit = |win: &mut CarrierWindows, w: usize| {
        let mut left = win.seek(w).len();
        while left > 0 {
            let take = block.max(1).min(left);
            let _span = ivn_runtime::span!("sdr.emit_ns");
            ivn_runtime::obs_count!("sdr.emissions", 1);
            win.fold(take, |_, carriers| {
                meter.observe_sample(superposer.superpose(carriers.iter().copied()));
            });
            footprint.observe("sdr", take.min(LANES));
            left -= take;
        }
        meter.peak()
    };
    let (mut best, mut visited) = (0.0, 0);
    if total > 0 {
        let mut top = (0, bound.at(&win, 0));
        for w in 1..total {
            let b = bound.at(&win, w);
            if b > top.1 {
                top = (w, b);
            }
        }
        best = visit(&mut win, top.0);
        visited = 1;
        for w in (0..total).filter(|&w| w != top.0) {
            if !(bound.at(&win, w) < best) {
                best = visit(&mut win, w);
                visited += 1;
            }
        }
    }
    Calibration {
        peak: best,
        visited,
        total,
    }
}

/// Runs the sample path with the **block-streaming** driver: per-stage
/// memory stays O(`opts.block`) regardless of `n_samples`.
///
/// # Panics
/// Panics if `opts.block` is 0 or `opts.sample_rate` fails
/// [`check_sample_rate`].
pub fn outputs_streaming(quick: bool, opts: &StreamOptions) -> StreamReport {
    assert!(
        opts.block > 0,
        "StreamOptions::block must be at least 1 sample"
    );
    let s = setup(quick, opts.sample_rate);
    let p_req = s.tag.required_peak_power_watts();
    let mut footprint = Footprint::new();

    // Calibration: the exact running peak of |rx|, from the few resync
    // windows whose bound can reach it (see [`calibrate_peak`]).
    let calibration = calibrate_peak(
        &s.bank,
        &s.superposer,
        DRIVE,
        s.n_samples,
        opts.block,
        &mut footprint,
    );
    let peak_amp = calibration.peak;

    // harvester calibration: the received level is scaled so the peak
    // sits at POWER_MARGIN × the tag's wake threshold.
    let scale = POWER_MARGIN * p_req / (peak_amp * peak_amp);

    // The one full pass — power + hash: fold the carrier-on period from
    // sample 0 and, per sample as it is superposed, digest it, fold
    // device 0's carrier into the single-antenna peak and take one
    // harvester step on |rx|²·scale. The byte-serial FNV chain is
    // latency-bound, so the rest runs in its shadow. Timed as one stage,
    // `em`; each block is one harvester charge run (one span, one step
    // count).
    let mut hasher = StreamHasher::new();
    let mut single_meter = PeakMeter::new();
    let mut state = s
        .tag
        .begin_power_up(s.sample_rate)
        .with_trace_stride((s.n_samples / 32).max(1));
    let mut em_ns = 0u128;
    let mut win = CarrierWindows::new(&s.bank, DRIVE, s.n_samples);
    let mut left = s.n_samples;
    while left > 0 {
        let take = opts.block.min(left);
        let t0 = Instant::now();
        state.charge(|pump| {
            win.fold(take, |_, carriers| {
                let rx = s.superposer.superpose(carriers.iter().copied());
                hasher.update_sample(rx);
                single_meter.observe_sample(carriers[0]);
                pump.step(rx.norm_sqr() * scale);
            })
        });
        em_ns += t0.elapsed().as_nanos();
        footprint.observe("em", take.min(LANES));
        left -= take;
    }
    let outcome = state.finish();
    let single_amp = single_meter.peak();

    // rfid: the period's one reader query. The PIE Query frame is
    // stream-rasterized and edge-decoded block by block, then the FM0
    // RN16 reply is decoded block by block. The rasterized peak is
    // exactly 1.0 (full-level leading carrier), so the half-amplitude
    // threshold is 0.5 — the same comparisons the whole-buffer decoder
    // makes.
    let bits = Command::canonical_query().encode();
    let runs = encode_frame(&bits, &PieParams::paper_defaults(), true);
    let mut raster = RunRasterizer::new(runs, RFID_FS, 0.0);
    let mut dec = PieStreamDecoder::new(0.5, RFID_FS);
    let mut frame = Vec::new();
    loop {
        frame.clear();
        if raster.fill(&mut frame, opts.block) == 0 {
            break;
        }
        dec.push(&frame);
        footprint.observe("rfid", frame.len());
    }
    let downlink_ok = dec.finish().is_ok_and(|d| d == bits);

    let fm0 = Fm0::new(8);
    let mut up = Fm0Decoder::new(fm0);
    for chunk in fm0.encode(&s.rn16).chunks(opts.block) {
        up.push(chunk);
    }
    let uplink_ok = up.finish() == s.rn16;

    StreamReport {
        outputs: PathOutputs {
            sample_rate: s.sample_rate,
            n_samples: s.n_samples,
            score: s.score,
            single_amp,
            peak_amp,
            outcome,
            downlink_ok,
            uplink_ok,
            rx_hash: hasher.digest(),
        },
        block: opts.block,
        calibration_windows: (calibration.visited, calibration.total),
        footprint: footprint.entries().to_vec(),
        stage_ns: vec![("em", em_ns, s.n_samples)],
    }
}

/// Renders the stage-by-stage summary from computed outputs.
fn render(o: &PathOutputs) -> String {
    let mut out =
        crate::header("PIPELINE — sample-path chain (freqsel → sdr → em → harvester → rfid)");
    let offsets = &PAPER_OFFSETS_HZ[..N_ANTENNAS];
    out += &format!(
        "freqsel    E[Y_peak] of {{{}}} Hz plan: {:.3} (of {} max)\n",
        offsets
            .iter()
            .map(|f| format!("{f:.0}"))
            .collect::<Vec<_>>()
            .join(", "),
        o.score,
        N_ANTENNAS
    );
    out += &format!(
        "sdr        {} devices emitted {} samples each at {:.0} S/s\n",
        N_ANTENNAS, o.n_samples, o.sample_rate
    );
    let cib_gain = o.peak_amp / (0.3 * o.single_amp);
    out += &format!(
        "em         blind channels drawn; envelope peaks at {:.2}x one antenna\n",
        cib_gain
    );
    let p_req = TagPowerProfile::standard_tag().required_peak_power_watts();
    out += &format!(
        "harvester  peak {:.1} µW vs {:.1} µW required: powered={} t={}\n",
        1e6 * POWER_MARGIN * p_req,
        1e6 * p_req,
        o.outcome.powered,
        o.outcome
            .time_to_power_s
            .map(|t| format!("{:.0} ms", 1e3 * t))
            .unwrap_or_else(|| "-".into()),
    );
    out += &format!(
        "rfid       PIE Query round trip: {}; FM0 RN16 round trip: {}\n",
        if o.downlink_ok { "ok" } else { "FAIL" },
        if o.uplink_ok { "ok" } else { "FAIL" },
    );
    out
}

/// Renders the streaming diagnostics block (`--stream-stats`).
fn render_stats(r: &StreamReport) -> String {
    let mut out = format!(
        "stream     block={} rx_hash={:016x}\n",
        r.block, r.outputs.rx_hash
    );
    out += "stream     footprint";
    for &(stage, n) in &r.footprint {
        out += &format!(" {stage}={n}");
    }
    out += " samples (gate: 2x block)\n";
    out += "stream     throughput";
    for &(stage, ns, samples) in &r.stage_ns {
        let msps = if ns > 0 {
            samples as f64 * 1e3 / ns as f64
        } else {
            f64::INFINITY
        };
        out += &format!(" {stage}={msps:.2}");
    }
    out += " MS/s\n";
    let (visited, total) = r.calibration_windows;
    out += &format!("stream     calibration windows visited={visited} of {total}\n");
    out
}

/// Runs the sample-path chain (streaming driver, default options) and
/// renders its stage-by-stage summary.
pub(crate) fn run(quick: bool) -> String {
    run_with(quick, &StreamOptions::default())
}

/// `run` with explicit streaming options.
pub fn run_with(quick: bool, opts: &StreamOptions) -> String {
    let report = outputs_streaming(quick, opts);
    let mut out = render(&report.outputs);
    if opts.stats {
        out += &render_stats(&report);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_chain_succeeds() {
        let text = run(true);
        assert!(text.contains("powered=true"), "{text}");
        assert!(text.contains("PIE Query round trip: ok"), "{text}");
        assert!(text.contains("FM0 RN16 round trip: ok"), "{text}");
    }

    #[test]
    fn pipeline_is_deterministic() {
        assert_eq!(run(true), run(true));
    }

    #[test]
    #[should_panic(expected = "StreamOptions::block")]
    fn zero_block_is_rejected() {
        let opts = StreamOptions {
            block: 0,
            ..Default::default()
        };
        outputs_streaming(true, &opts);
    }

    fn run_at_rate(hz: f64) {
        let opts = StreamOptions {
            sample_rate: Some(hz),
            ..Default::default()
        };
        outputs_streaming(true, &opts);
    }

    #[test]
    #[should_panic(expected = "StreamOptions::sample_rate")]
    fn sub_hertz_sample_rate_is_rejected() {
        // 0.5 S/s holds no sample of the 1 s period.
        run_at_rate(0.5);
    }

    #[test]
    #[should_panic(expected = "StreamOptions::sample_rate")]
    fn infinite_sample_rate_is_rejected() {
        // An infinite rate would size the period at usize::MAX samples;
        // the check fires before setup synthesizes anything.
        run_at_rate(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "StreamOptions::sample_rate")]
    fn nan_sample_rate_is_rejected() {
        run_at_rate(f64::NAN);
    }
}
