//! End-to-end *sample path*: the hardware chain the paper's prototype ran,
//! at baseband sample level rather than through the analytic envelope the
//! figure modules use.
//!
//! One pass chains every pipeline crate: frequency-plan scoring
//! (`freqsel`) → synchronized bank synthesis and per-device emission
//! (`sdr`) → blind per-antenna channels (`em`) → superposition at the
//! sensor → Dickson-pump power-up on the received power envelope
//! (`harvester`) → PIE downlink and FM0 uplink codec round trips (`rfid`).
//! Under `--trace` this is the target that exercises every instrumented
//! stage in a single timeline.
//!
//! ## Streaming vs batch
//!
//! The default driver is the **block-streaming** one: samples flow
//! through the chain in fixed-size blocks via the `ivn_dsp::block`
//! traits, so per-stage memory is O(block) rather than O(fs) — a full
//! 1-second CIB period at 1 MS/s runs in a few MB. Two passes are made
//! over the (regenerable, deterministic) sample stream: a calibration
//! pass that measures the running envelope peaks, then a power pass
//! that drives the harvester and hashes the received stream. The
//! whole-buffer path ([`outputs_batch`]) is kept for cross-checking:
//! both produce identical [`PathOutputs`] — including a bit-exact
//! FNV-1a hash of every received sample — at any block size or worker
//! count (`tests/streaming_equivalence.rs`).

use ivn_core::freqsel::expected_peak;
use ivn_core::PAPER_OFFSETS_HZ;
use ivn_dsp::block::{BlockSource, ConstSource, Footprint, PeakMeter, StreamHasher, DEFAULT_BLOCK};
use ivn_dsp::envelope;
use ivn_em::channel::ChannelEnsemble;
use ivn_em::stream::BlockSuperposer;
use ivn_harvester::powerup::{PowerUpOutcome, TagPowerProfile};
use ivn_rfid::commands::{Command, DivideRatio, Session, TagEncoding};
use ivn_rfid::fm0::Fm0;
use ivn_rfid::pie::{decode_frame, encode_frame, rasterize, PieParams};
use ivn_rfid::stream::{Fm0Decoder, PieStreamDecoder, RunRasterizer};
use ivn_runtime::rng::{Rng, StdRng};
use ivn_sdr::bank::TxBank;
use ivn_sdr::clock::ClockDistribution;
use std::time::Instant;

const SEED: u64 = 42;
const N_ANTENNAS: usize = 5;
const CARRIER_HZ: f64 = 915e6;
/// Headroom above the tag's required peak power when calibrating the
/// received level (the "place the sensor inside range" step).
const POWER_MARGIN: f64 = 2.0;
/// PA drive for the carrier-on profile.
const DRIVE: f64 = 0.05;
/// Sample rate of the PIE downlink frame (envelope-level, not RF).
const RFID_FS: f64 = 400e3;

/// Knobs of the streaming driver.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Override the sample rate (defaults to the quick/full presets).
    pub sample_rate: Option<f64>,
    /// Samples per block.
    pub block: usize,
    /// Worker threads advancing the per-device emitter lanes.
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

/// Everything the sample path computes, in comparable form: the
/// streaming and batch drivers must produce equal values (the received
/// stream itself is compared through `rx_hash`).
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
    /// Worker threads used.
    pub threads: usize,
    /// Peak per-stage scratch sizes, samples.
    pub footprint: Vec<(&'static str, usize)>,
    /// Wall-clock per stage over the power pass, (stage, ns, samples).
    pub stage_ns: Vec<(&'static str, u128, usize)>,
}

struct SharedSetup {
    bank: TxBank,
    superposer: BlockSuperposer,
    tag: TagPowerProfile,
    score: f64,
    rn16: Vec<bool>,
    sample_rate: f64,
    n_samples: usize,
}

/// Seeds the RNG and builds the stages both drivers share. RNG draw
/// order (freqsel → bank → channels → RN16) is part of the output
/// contract: the two paths must consume the stream identically.
fn setup(quick: bool, sample_rate: Option<f64>) -> SharedSetup {
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
    SharedSetup {
        bank,
        superposer,
        tag: TagPowerProfile::standard_tag(),
        score,
        rn16,
        sample_rate,
        n_samples,
    }
}

/// The Query command the downlink round-trips.
fn query_bits() -> Vec<bool> {
    Command::Query {
        dr: DivideRatio::Dr8,
        m: TagEncoding::Fm0,
        trext: false,
        session: Session::S0,
        q: 0,
    }
    .encode()
}

/// Runs the sample path with the **block-streaming** driver: per-stage
/// memory stays O(`opts.block`) regardless of `n_samples`.
pub fn outputs_streaming(quick: bool, opts: &StreamOptions) -> StreamReport {
    let s = setup(quick, opts.sample_rate);
    let p_req = s.tag.required_peak_power_watts();
    let mut footprint = Footprint::new();

    // Pass A — calibration: stream sdr→em and take running peaks. The
    // sample stream is deterministic, so pass B simply regenerates it.
    let mut single_meter = PeakMeter::new();
    let mut peak_meter = PeakMeter::new();
    {
        let mut streamer = s.bank.streamer(DRIVE, opts.threads);
        let mut src = ConstSource::new(1.0, s.n_samples);
        let mut profile = Vec::new();
        let mut rx = Vec::new();
        loop {
            profile.clear();
            let got = src.fill(&mut profile, opts.block);
            let done = got == 0;
            if done {
                streamer.flush();
            } else {
                streamer.push(&profile);
            }
            s.superposer.superpose_block(streamer.blocks(), &mut rx);
            single_meter.observe_block(streamer.block(0));
            peak_meter.observe_block(&rx);
            if done {
                break;
            }
        }
    }
    let single_amp = single_meter.peak();
    let peak_amp = peak_meter.peak();

    // harvester calibration: the received level is scaled so the peak
    // sits at POWER_MARGIN × the tag's wake threshold.
    let scale = POWER_MARGIN * p_req / (peak_amp * peak_amp);

    // Pass B — power + hash: regenerate the stream, drive the pump
    // incrementally, and digest every received sample.
    let mut hasher = StreamHasher::new();
    let mut state = s
        .tag
        .begin_power_up(s.sample_rate)
        .with_trace_stride((s.n_samples / 32).max(1));
    let (mut sdr_ns, mut em_ns, mut harv_ns) = (0u128, 0u128, 0u128);
    {
        let mut streamer = s.bank.streamer(DRIVE, opts.threads);
        let mut src = ConstSource::new(1.0, s.n_samples);
        let mut profile = Vec::new();
        let mut rx = Vec::new();
        loop {
            profile.clear();
            let got = src.fill(&mut profile, opts.block);
            let done = got == 0;
            let t0 = Instant::now();
            if done {
                streamer.flush();
            } else {
                streamer.push(&profile);
            }
            let t1 = Instant::now();
            s.superposer.superpose_block(streamer.blocks(), &mut rx);
            let t2 = Instant::now();
            // Harness bookkeeping, not a pipeline stage: the rx digest
            // feeds the streaming-vs-batch equivalence check only, so it
            // is excluded from every stage's timing window.
            hasher.update_complex(&rx);
            let t2b = Instant::now();
            // |rx|²·scale fused into the integrator: identical op order
            // to materializing the power vector first (the whole-buffer
            // oracle does exactly that), one less memory pass.
            state.step_rx_block(&rx, scale);
            let t3 = Instant::now();
            sdr_ns += (t1 - t0).as_nanos();
            em_ns += (t2 - t1).as_nanos();
            harv_ns += (t3 - t2b).as_nanos();
            footprint.observe("sdr", streamer.peak_lane_footprint());
            footprint.observe("em", rx.len());
            footprint.observe("harvester", rx.len());
            if done {
                break;
            }
        }
    }
    let outcome = state.finish();

    // rfid: stream-rasterize PIE Query frames and edge-decode them
    // block by block, each followed by an FM0 RN16 uplink — a
    // reader-session population rather than a single 378-sample frame,
    // so the measured MS/s is stable enough to gate in the baseline
    // sentinel. The population is sized to the sample budget of the
    // run (one frame ≈ 634 samples downlink+uplink), every session is
    // the same deterministic round trip, and `downlink_ok`/`uplink_ok`
    // require *all* of them to decode — equal to the batch oracle's
    // single round trip by determinism. The rasterized peak is exactly
    // 1.0 (full-level leading carrier), so the half-amplitude threshold
    // is 0.5 — the same comparisons the whole-buffer decoder makes.
    let bits = query_bits();
    let runs = encode_frame(&bits, &PieParams::paper_defaults(), true);
    let fm0 = Fm0::new(8);
    let wave = fm0.encode(&s.rn16);
    let frame_len = {
        let mut probe = RunRasterizer::new(runs.clone(), RFID_FS, 0.0);
        let mut sink = Vec::new();
        while probe.fill(&mut sink, 4096) > 0 {}
        probe.emitted() + wave.len()
    };
    let sessions = (s.n_samples / frame_len).max(1);
    let (mut downlink_ok, mut uplink_ok) = (true, true);
    let mut rfid_samples = 0usize;
    let t0 = Instant::now();
    for _ in 0..sessions {
        let mut raster = RunRasterizer::new(runs.clone(), RFID_FS, 0.0);
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
        rfid_samples += dec.samples_seen();
        downlink_ok &= dec.finish().map(|d| d == bits).unwrap_or(false);

        let mut up = Fm0Decoder::new(fm0);
        for chunk in wave.chunks(opts.block) {
            up.push(chunk);
        }
        rfid_samples += wave.len();
        uplink_ok &= up.finish() == s.rn16;
    }
    let rfid_ns = t0.elapsed().as_nanos();

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
        threads: opts.threads,
        footprint: footprint.entries().to_vec(),
        stage_ns: vec![
            ("sdr", sdr_ns, s.n_samples),
            ("em", em_ns, s.n_samples),
            ("harvester", harv_ns, s.n_samples),
            ("rfid", rfid_ns, rfid_samples),
        ],
    }
}

/// Runs the sample path with the original **whole-buffer** driver
/// (O(fs) memory) — kept as the cross-check oracle for the streaming
/// path.
pub fn outputs_batch(quick: bool, sample_rate: Option<f64>) -> PathOutputs {
    let s = setup(quick, sample_rate);
    let profile = vec![1.0; s.n_samples];
    let emissions = s.bank.emit_all(&profile, DRIVE);
    // Calibrate from the running peak of device 0's emission (not just
    // its first sample), so non-constant drive profiles calibrate
    // correctly; identical op order to the streaming PeakMeter.
    let mut single_meter = PeakMeter::new();
    single_meter.observe_block(emissions[0].samples());
    let single_amp = single_meter.peak();

    let rx = s.superposer.superpose_buffers(&emissions);
    let mut hasher = StreamHasher::new();
    hasher.update_complex(rx.samples());
    let env = rx.envelope();
    let (_, peak_amp) = envelope::peak(&env).expect("non-empty envelope");

    let tag = &s.tag;
    let p_req = tag.required_peak_power_watts();
    let scale = POWER_MARGIN * p_req / (peak_amp * peak_amp);
    // |rx|²·scale straight from the complex samples — the identical op
    // order to the streaming driver, so outcomes stay bit-equal.
    let power: Vec<f64> = rx.samples().iter().map(|&v| v.norm_sqr() * scale).collect();
    let outcome = tag.power_up(&power, s.sample_rate);

    let bits = query_bits();
    let frame = rasterize(
        &encode_frame(&bits, &PieParams::paper_defaults(), true),
        RFID_FS,
        0.0,
    );
    let downlink_ok = decode_frame(&frame, RFID_FS)
        .map(|d| d == bits)
        .unwrap_or(false);
    let fm0 = Fm0::new(8);
    let uplink_ok = fm0.decode(&fm0.encode(&s.rn16)) == s.rn16;

    PathOutputs {
        sample_rate: s.sample_rate,
        n_samples: s.n_samples,
        score: s.score,
        single_amp,
        peak_amp,
        outcome,
        downlink_ok,
        uplink_ok,
        rx_hash: hasher.digest(),
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
        "stream     block={} threads={} rx_hash={:016x}\n",
        r.block, r.threads, r.outputs.rx_hash
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
    out
}

/// Runs the sample-path chain (streaming driver, default options) and
/// renders its stage-by-stage summary.
pub fn run(quick: bool) -> String {
    run_with(quick, &StreamOptions::default())
}

/// [`run`] with explicit streaming options.
pub fn run_with(quick: bool, opts: &StreamOptions) -> String {
    let report = outputs_streaming(quick, opts);
    let mut out = render(&report.outputs);
    if opts.stats {
        out += &render_stats(&report);
    }
    out
}

/// Runs the whole-buffer oracle and renders it, appending its `rx_hash`
/// so it can be compared against the streaming path.
pub fn run_batch(quick: bool, sample_rate: Option<f64>, stats: bool) -> String {
    let o = outputs_batch(quick, sample_rate);
    let mut out = render(&o);
    if stats {
        out += &format!("batch      rx_hash={:016x}\n", o.rx_hash);
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
    fn streaming_equals_batch_at_default_block() {
        let stream = outputs_streaming(true, &StreamOptions::default());
        let batch = outputs_batch(true, None);
        assert_eq!(stream.outputs, batch);
    }
}
