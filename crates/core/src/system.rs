//! The complete IVN system: beamformer + harvester + tag + out-of-band
//! reader, run as one sample-level session.
//!
//! [`IvnSystem::run_session`] walks the full chain the paper's prototype
//! exercises:
//!
//! 1. **Power-up** — the CIB envelope at the tag (√watt units) drives the
//!    harvester transient; the chip must reach its operating voltage.
//! 2. **Downlink** — a Gen2 Query is PIE-keyed synchronously on all
//!    antennas around the envelope peak; the tag's envelope detector must
//!    decode it *through* the CIB amplitude ripple (this is where the
//!    Eq. 7 flatness constraint becomes operational).
//! 3. **Tag logic** — the Gen2 state machine produces an RN16.
//! 4. **Uplink** — the tag backscatters the out-of-band reader's 880 MHz
//!    carrier; the reader averages periods, correlates the preamble, and
//!    must exceed 0.8 (§6.2).
//!
//! A session succeeds only if every stage succeeds — exactly the paper's
//! success criterion for Figs. 13 and 15.
//!
//! Stages 1–2 are [`session_trial`], which every single-sensor campaign
//! trial ([`crate::scenario::evaluate`]) runs too, on a [`KeyedQuery`]
//! built once per system or per scenario.

use crate::body::{Placement, TagSpec, PAPER_EIRP_DBM};
use crate::cib::CibConfig;
use crate::oob::{JamTone, OobReader, OobReaderConfig};
use crate::waveform::CibEnvelope;
use ivn_dsp::units::dbm_to_watts;
use ivn_harvester::TagPowerProfile;
use ivn_rfid::backscatter::BackscatterModulator;
use ivn_rfid::commands::Command;
use ivn_rfid::link::LinkParams;
use ivn_rfid::pie;
use ivn_rfid::tag::{Tag, TagReply};
use ivn_runtime::rng::Rng;

/// Full-system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Beamformer frequency plan.
    pub(crate) cib: CibConfig,
    /// Tag under test.
    pub(crate) tag: TagSpec,
    /// Per-antenna EIRP, dBm.
    pub(crate) eirp_dbm: f64,
    /// Out-of-band reader.
    pub(crate) reader: OobReaderConfig,
    /// Link timing.
    pub(crate) link: LinkParams,
    /// Envelope sample rate for the harvester transient, S/s.
    pub(crate) powerup_rate: f64,
    /// Sample rate for command keying/decoding, S/s.
    pub(crate) command_rate: f64,
}

impl SystemConfig {
    /// The paper's prototype with `n` beamformer antennas and the given
    /// tag.
    pub fn paper_prototype(n: usize, tag: TagSpec) -> Self {
        SystemConfig::new(CibConfig::paper_prototype_n(n), tag, PAPER_EIRP_DBM)
    }

    /// The prototype's reader, link and rates around the array `cib`,
    /// the tag and a per-antenna EIRP.
    pub(crate) fn new(cib: CibConfig, tag: TagSpec, eirp_dbm: f64) -> Self {
        SystemConfig {
            cib,
            tag,
            eirp_dbm,
            reader: OobReaderConfig::paper_defaults(),
            link: LinkParams::paper_defaults(),
            powerup_rate: 4096.0,
            command_rate: 400e3,
        }
    }
}

/// Outcome of one end-to-end session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The chip reached its operating voltage.
    pub powered: bool,
    /// When it first did, seconds into the period.
    pub(crate) time_to_power_s: Option<f64>,
    /// The tag decoded the Query through the CIB ripple.
    pub command_decoded: bool,
    /// The reader recovered the RN16 (correlation ≥ threshold and
    /// payload intact).
    pub rn16_decoded: bool,
    /// Preamble correlation achieved at the reader.
    pub correlation: f64,
    /// Peak received power at the tag, watts.
    pub peak_power_w: f64,
    /// The drawn tag orientation, radians.
    pub(crate) orientation: f64,
}

impl SessionOutcome {
    /// Overall success: every stage passed.
    pub fn success(&self) -> bool {
        self.powered && self.command_decoded && self.rn16_decoded
    }
}

/// How many samples of the first power-up chunk
/// [`power_up_over_period`] synthesizes and integrates before it
/// synthesizes the rest. A histogram of the `campaign` perfbench fleet
/// (seed 3, 36 864 trials at the 2048 S/s power-up rate) puts 95.7% of
/// wake samples below 16, 3.2% in [16, 32), 1.0% in [32, 64) and 0.1%
/// in [64, 128); none wake later or stay unpowered.
pub const WAKE_PROBE: usize = 16;

/// When the harvester first wakes under one CIB period of `envelope`
/// (√W at the tag), sampled at `rate` S/s on a `rate`-point grid;
/// `None` when it never does.
///
/// The answer is fixed at the wake sample, so the envelope is
/// synthesized only as far as the chip needs: first a
/// [`PeriodChunks::peek`](crate::waveform::PeriodChunks::peek) of
/// [`WAKE_PROBE`] samples, returning as soon as they wake it; then the
/// rest of that first chunk and each later
/// [`CibEnvelope::period_chunks`] chunk in turn, stopping at the first
/// that wakes the chip. Chunked
/// [`ivn_harvester::powerup::PowerUpState::step_block`] is
/// split-invariant and the probe and chunks are `sample_period`'s bits,
/// so the result equals a whole-period `power_up` over
/// `sample_period(rate)²` exactly. The `physics.harvested_charge_j`
/// probe keeps that whole-period call's ~32-point stride.
pub fn power_up_over_period(
    power: &TagPowerProfile,
    envelope: &CibEnvelope,
    rate: f64,
) -> Option<f64> {
    let grid = rate as usize;
    let mut state = power
        .begin_power_up(rate)
        .with_trace_stride((grid / 32).max(1));
    let mut chunks = envelope.period_chunks(grid);
    let mut watts = [0.0; crate::kernels::RENORM_INTERVAL];
    let mut wakes = |amp: &[f64]| {
        let watts = &mut watts[..amp.len()];
        for (w, a) in watts.iter_mut().zip(amp) {
            *w = a * a;
        }
        state.step_block(watts);
        state.outcome().powered
    };
    let probe = chunks.peek(WAKE_PROBE).expect("a period has a sample");
    // Samples of the current chunk already integrated.
    let mut skip = probe.len();
    if !wakes(probe) {
        while let Some(amp) = chunks.next_chunk() {
            if wakes(&amp[skip..]) {
                break;
            }
            skip = 0;
        }
    }
    state.finish().time_to_power_s
}

/// The canonical Gen2 Query ([`Command::canonical_query`]) as the
/// reader keys it: its bits and its PIE raster at the command rate,
/// built once and keyed on each trial's envelope peak.
///
/// Keying it is exact without synthesizing the keyed window whenever the
/// paper's Eq. 8 droop bound can vouch for the envelope over the 945 µs
/// window ([`CibEnvelope::keyed_bounds`]). The decoder thresholds at half
/// the window's maximum, and the raster's zero levels stay exactly 0; so
/// once every unit-level sample provably exceeds half of any sample
/// (`lo > hi/2`: Eq. 7's fluctuation below the `α = 0.5` that Eq. 9's
/// RMS(Δf) limit is set for), the decoder sees the raster's own edges and
/// returns the bare raster's decode, taken once here. Otherwise the window
/// is synthesized and decoded ([`Self::synthesized_decodes`]). On the
/// `campaign` perfbench fleet every powered trial is certified; the Eq. 9
/// ablation's ×20 and ×60 plans are not.
#[derive(Debug, Clone)]
pub struct KeyedQuery {
    bits: Vec<bool>,
    profile: Vec<f64>,
    rate: f64,
    /// Whether the bare raster decodes to `bits`.
    raster_decodes: bool,
}

impl KeyedQuery {
    /// Encodes the Query with `link`'s PIE timing and rasterizes it at
    /// `rate` S/s (zero-level notches).
    pub fn new(link: &LinkParams, rate: f64) -> Self {
        let command = Command::canonical_query();
        let bits = command.encode();
        let runs = pie::encode_frame(&bits, &link.pie, command.needs_trcal());
        let profile = pie::rasterize(&runs, rate, 0.0);
        let raster_decodes = pie::decode_frame_unobserved(&profile, rate).is_ok_and(|d| d == bits);
        KeyedQuery {
            bits,
            profile,
            rate,
            raster_decodes,
        }
    }

    /// Keys the raster so its centre rides `t_peak` of `envelope` and
    /// decodes what the tag's envelope detector sees: whether the decoded
    /// bits are the Query's. Certified trials count under the obs counter
    /// `experiment.trial.keyed_certified`; either way the step is one
    /// `experiment.trial.keyed_ns` span.
    pub fn decodes(&self, envelope: &CibEnvelope, t_peak: f64) -> bool {
        let _span = ivn_runtime::span!("experiment.trial.keyed_ns");
        let flat = envelope
            .keyed_bounds(self.profile.len(), t_peak, self.rate)
            .is_some_and(|(lo, hi)| lo > 0.5 * hi);
        if flat {
            ivn_runtime::obs_count!("experiment.trial.keyed_certified", 1);
            return self.raster_decodes;
        }
        self.synthesized_decodes(envelope, t_peak)
    }

    /// [`Self::decodes`] without the certificate: synthesizes the keyed
    /// window ([`CibEnvelope::keyed_window`]) and PIE-decodes it.
    pub fn synthesized_decodes(&self, envelope: &CibEnvelope, t_peak: f64) -> bool {
        let tag_env = envelope.keyed_window(&self.profile, t_peak, self.rate);
        pie::decode_frame(&tag_env, self.rate).is_ok_and(|d| d == self.bits)
    }
}

/// What the first two stages of one session produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialRecord {
    /// Instant of the envelope peak within the period, seconds.
    pub t_peak: f64,
    /// Envelope amplitude there, √W at the tag.
    pub peak_amp: f64,
    /// When the chip first reached its operating voltage.
    pub time_to_power_s: Option<f64>,
    /// The tag decoded the Query keyed on the peak (tried once powered).
    pub decoded: bool,
}

/// One single-sensor session trial up to the downlink: the peak of
/// `envelope` on a `grid`-point period grid, the power-up at
/// `powerup_rate`, then `query` keyed on that peak. Draws no RNG.
pub fn session_trial(
    envelope: &CibEnvelope,
    power: &TagPowerProfile,
    powerup_rate: f64,
    grid: usize,
    query: &KeyedQuery,
) -> TrialRecord {
    let (t_peak, peak_amp) = {
        let _span = ivn_runtime::span!("experiment.trial.peak_ns");
        envelope.peak_over_period(grid)
    };
    let time_to_power_s = {
        let _span = ivn_runtime::span!("experiment.trial.powerup_ns");
        power_up_over_period(power, envelope, powerup_rate)
    };
    TrialRecord {
        t_peak,
        peak_amp,
        time_to_power_s,
        decoded: time_to_power_s.is_some() && query.decodes(envelope, t_peak),
    }
}

/// The assembled system.
#[derive(Debug, Clone)]
pub struct IvnSystem {
    /// Configuration.
    pub(crate) config: SystemConfig,
    query: KeyedQuery,
}

impl IvnSystem {
    /// Creates a system.
    pub fn new(config: SystemConfig) -> Self {
        let query = KeyedQuery::new(&config.link, config.command_rate);
        IvnSystem { config, query }
    }

    /// Runs one full session against a placement. All randomness (channel
    /// phases, orientation, RN16, noise) flows from `rng`.
    pub fn run_session<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        placement: &Placement,
    ) -> SessionOutcome {
        let cfg = &self.config;
        let eirp_w = dbm_to_watts(cfg.eirp_dbm);
        let trial = placement.draw_trial(rng, cfg.cib.n(), &cfg.tag, eirp_w, cfg.cib.carrier_hz);
        let envelope = cfg.cib.envelope_at(&trial.channels);

        // ---- Stages 1–2: power-up and the Query keyed on the peak. ----
        let rec = session_trial(
            &envelope,
            &cfg.tag.power,
            cfg.powerup_rate,
            cfg.cib.grid,
            &self.query,
        );
        let mut outcome = SessionOutcome {
            powered: rec.time_to_power_s.is_some(),
            time_to_power_s: rec.time_to_power_s,
            command_decoded: rec.decoded,
            rn16_decoded: false,
            correlation: 0.0,
            peak_power_w: rec.peak_amp * rec.peak_amp,
            orientation: trial.orientation,
        };
        if !outcome.command_decoded {
            return outcome;
        }

        // ---- Stage 3: tag state machine. -----------------------------
        let mut tag = Tag::with_epc96(0x3005_FB63_AC1F_3681_EC88_0467, rng.random());
        tag.set_powered(true);
        let rn16 = match tag.process(&Command::canonical_query()) {
            TagReply::Rn16(rn) => rn,
            _ => return outcome,
        };
        let rn_bits: Vec<bool> = (0..16).rev().map(|i| (rn16 >> i) & 1 == 1).collect();

        // ---- Stage 4: out-of-band uplink. ----------------------------
        let _span = ivn_runtime::span!("experiment.trial.uplink_ns");
        // Reader illumination of the tag at 880 MHz (same EIRP budget).
        let orient = cfg.tag.antenna.orientation_factor(trial.orientation)
            / cfg.tag.antenna.orientation_factor(0.0);
        let p_reader_at_tag =
            placement.nominal_rx_power(&cfg.tag, eirp_w, cfg.reader.carrier_hz) * orient;
        // Reverse path: fractional loss for 1 W of re-radiated EIRP.
        let reverse_loss =
            placement.nominal_rx_power(&cfg.tag, 1.0, cfg.reader.carrier_hz) * orient;
        let modulator = BackscatterModulator::typical_rfid();
        let uplink_amp = (p_reader_at_tag * reverse_loss).sqrt() * modulator.differential();

        // The CIB tones leak into the reader antenna over an in-air path
        // (~1 m between racks).
        let jam_coupling = ivn_em::layered::LayeredPath::free_space(1.0)
            .response(cfg.cib.carrier_hz)
            .norm()
            * ivn_dsp::units::wavelength(cfg.cib.carrier_hz)
            / (4.0 * std::f64::consts::PI);
        let jam: Vec<JamTone> = (0..cfg.cib.n())
            .map(|i| JamTone {
                freq_hz: cfg.cib.emission_hz(i),
                amplitude: (eirp_w).sqrt() * jam_coupling,
                phase: rng.random::<f64>() * std::f64::consts::TAU,
            })
            .collect();

        let samples_per_half = ((cfg.reader.sample_rate / cfg.link.blf_hz()) / 2.0)
            .round()
            .max(1.0) as usize;
        let period_samples = (cfg.reader.sample_rate * 0.02) as usize; // 20 ms windows
        let result = OobReader::new(cfg.reader.clone()).receive_and_decode(
            rng,
            uplink_amp,
            &rn_bits,
            samples_per_half,
            &jam,
            period_samples,
        );
        outcome.correlation = result.correlation;
        outcome.rn16_decoded = result.success && result.payload == rn_bits;
        outcome
    }

    /// Largest free-space range (m) at which a session still succeeds,
    /// found by bisection with `repeats` confirmations (the paper repeats
    /// 3× at the found range). Deterministic per seed.
    pub fn max_range_air<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        lo_m: f64,
        hi_m: f64,
        repeats: usize,
    ) -> f64 {
        self.bisect(rng, lo_m, hi_m, repeats, Placement::free_space)
    }

    /// Largest water depth (m) at which a session still succeeds.
    pub fn max_depth_water<R: Rng + ?Sized>(&self, rng: &mut R, hi_m: f64, repeats: usize) -> f64 {
        self.bisect(rng, 0.0, hi_m, repeats, Placement::water_tank)
    }

    fn bisect<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mut lo: f64,
        mut hi: f64,
        repeats: usize,
        make: impl Fn(f64) -> Placement,
    ) -> f64 {
        let works = |x: f64, rng: &mut R| -> bool {
            let placement = make(x.max(1e-3));
            (0..repeats.max(1)).all(|_| self.run_session(rng, &placement).success())
        };
        if !works(lo.max(1e-3), rng) {
            return 0.0;
        }
        if works(hi, rng) {
            return hi;
        }
        for _ in 0..24 {
            let mid = 0.5 * (lo + hi);
            if works(mid, rng) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_runtime::rng::StdRng;

    #[test]
    fn close_range_session_succeeds_end_to_end() {
        let sys = IvnSystem::new(SystemConfig::paper_prototype(8, TagSpec::standard()));
        let mut rng = StdRng::seed_from_u64(1);
        let out = sys.run_session(&mut rng, &Placement::free_space(2.0));
        assert!(out.powered, "not powered: {out:?}");
        assert!(out.command_decoded, "command lost: {out:?}");
        assert!(out.rn16_decoded, "uplink lost: corr {}", out.correlation);
        assert!(out.success());
    }

    #[test]
    fn absurd_range_session_fails_at_powerup() {
        let sys = IvnSystem::new(SystemConfig::paper_prototype(8, TagSpec::standard()));
        let mut rng = StdRng::seed_from_u64(2);
        let out = sys.run_session(&mut rng, &Placement::free_space(500.0));
        assert!(!out.powered);
        assert!(!out.success());
        assert!(out.time_to_power_s.is_none());
    }

    #[test]
    fn single_antenna_vs_cib_in_water() {
        // 10 cm of water: a single antenna cannot power the standard tag;
        // 8 CIB antennas can.
        let mut rng = StdRng::seed_from_u64(3);
        let placement = Placement::water_tank(0.10);
        let single = IvnSystem::new(SystemConfig::paper_prototype(1, TagSpec::standard()));
        let eight = IvnSystem::new(SystemConfig::paper_prototype(8, TagSpec::standard()));
        let s1 = single.run_session(&mut rng, &placement);
        assert!(!s1.powered, "single antenna should fail at 10 cm");
        let mut successes = 0;
        for _ in 0..5 {
            if eight.run_session(&mut rng, &placement).success() {
                successes += 1;
            }
        }
        assert!(successes >= 4, "8-antenna CIB succeeded only {successes}/5");
    }

    #[test]
    fn range_search_monotone_in_antennas() {
        let mut rng = StdRng::seed_from_u64(4);
        let sys2 = IvnSystem::new(SystemConfig::paper_prototype(2, TagSpec::standard()));
        let sys8 = IvnSystem::new(SystemConfig::paper_prototype(8, TagSpec::standard()));
        let r2 = sys2.max_range_air(&mut rng, 1.0, 80.0, 1);
        let r8 = sys8.max_range_air(&mut rng, 1.0, 80.0, 1);
        assert!(r8 > r2 * 1.5, "r2 {r2} r8 {r8}");
        assert!(r2 > 4.0, "two antennas should beat single-antenna range");
    }

    #[test]
    fn eight_antenna_range_near_38m() {
        let mut rng = StdRng::seed_from_u64(5);
        let sys = IvnSystem::new(SystemConfig::paper_prototype(8, TagSpec::standard()));
        let r = sys.max_range_air(&mut rng, 1.0, 80.0, 2);
        assert!(r > 25.0 && r < 50.0, "8-antenna range {r} m");
    }

    #[test]
    fn session_outcome_orientation_recorded() {
        let sys = IvnSystem::new(SystemConfig::paper_prototype(4, TagSpec::standard()));
        let mut rng = StdRng::seed_from_u64(6);
        let out = sys.run_session(&mut rng, &Placement::swine_gastric());
        assert!(out.orientation >= 0.0 && out.orientation <= std::f64::consts::FRAC_PI_2);
    }
}
