//! End-to-end power-up decision for a battery-free tag.
//!
//! Given the received RF power envelope at the tag's antenna terminals,
//! decides whether the chip powers up — the gate every experiment in the
//! paper ultimately tests. The chain is:
//!
//! ```text
//! P(t) ──(input resistance)──▶ Vs(t) ──(Dickson pump)──▶ V_DC(t) ──▶ chip
//! ```
//!
//! with `Vs = √(2·P·R_in)` the carrier amplitude across the rectifier
//! input, and the chip alive once `V_DC` reaches its operating voltage.
//!
//! ## Calibration (DESIGN.md §5)
//!
//! The standard-tag profile is anchored so that a single 37 dBm-EIRP
//! antenna powers it at ≈ 5.2 m in free space, the paper's measured
//! single-antenna range: with a 4-stage pump, a 250 mV diode, an 0.8 V
//! operating point and `R_in ≈ 1012 Ω`, the *peak* power needed to wake
//! the chip is `(vth + v_op/N)²/(2R_in) = 1.0e−4 W = −10 dBm`. The
//! miniature tag couples far less power (mm-scale antenna, poor
//! matching): `R_in ≈ 101 Ω` puts its wake-up requirement at 0 dBm,
//! reproducing the ~10× shorter range of the paper's Fig. 13b.
//!
//! ## Integration speed (DESIGN.md §8)
//!
//! The pump step is an exact first-order recurrence
//! `v' = target + (v − target)·α` with `α = exp(−dt/RC)` *constant per
//! stream*, so one per-sample step ([`Pump::step`]) hoists the
//! exponential and the load term and makes the charge decision a
//! branchless select. [`PowerUpState::step_block`] loops it, and a caller
//! with other per-sample work steps it in [`PowerUpState::charge`], both
//! bit-identical to `Rectifier::step` every sample (the preserved
//! [`TagPowerProfile::power_up_oracle`]) at any split.

use crate::diode::DiodeModel;
use crate::rectifier::Rectifier;

/// Electrical power-up profile of a battery-free tag.
#[derive(Debug, Clone, PartialEq)]
pub struct TagPowerProfile {
    /// Descriptive name.
    pub name: String,
    /// Rectifier input resistance, ohms (sets power→voltage coupling).
    pub(crate) r_in: f64,
    /// The charge pump.
    pub rectifier: Rectifier,
    /// DC supply voltage at which the chip wakes, volts.
    pub(crate) v_operate: f64,
    /// On-chip storage capacitance, farads.
    pub(crate) c_storage: f64,
    /// Chip current draw once awake, amps.
    pub(crate) i_chip: f64,
}

impl TagPowerProfile {
    /// The standard UHF tag (Avery AD-238u8 class).
    pub fn standard_tag() -> Self {
        TagPowerProfile {
            name: "standard tag".into(),
            r_in: 1012.5,
            rectifier: Rectifier::new(4, DiodeModel::typical_rfid(), 2000.0),
            v_operate: 0.8,
            c_storage: 1e-9,
            i_chip: 5e-6,
        }
    }

    /// The miniature implantable tag (Xerafy Dash-On XS class): same chip
    /// family, far poorer antenna coupling.
    pub fn miniature_tag() -> Self {
        TagPowerProfile {
            name: "miniature tag".into(),
            r_in: 101.25,
            rectifier: Rectifier::new(4, DiodeModel::typical_rfid(), 2000.0),
            v_operate: 0.8,
            c_storage: 1e-9,
            i_chip: 5e-6,
        }
    }

    /// Carrier amplitude at the rectifier input for received power `p`
    /// watts: `√(2·P·R_in)`.
    pub fn input_amplitude(&self, p_watts: f64) -> f64 {
        assert!(p_watts >= 0.0, "power must be non-negative");
        (2.0 * p_watts * self.r_in).sqrt()
    }

    /// Static sensitivity: the continuous-wave received power below which
    /// the tag can never power up (input amplitude at the diode threshold),
    /// watts. The analytic bound the integrator is checked against by
    /// `tests/proptests.rs::powerup_requires_threshold`.
    pub fn static_sensitivity_watts(&self) -> f64 {
        let vth = self.rectifier.input_threshold();
        vth * vth / (2.0 * self.r_in)
    }

    /// Runs the power-up simulation over a received-power envelope
    /// (watts per sample at `sample_rate`). Returns the outcome.
    ///
    /// Thin wrapper over the resumable streaming core
    /// ([`Self::begin_power_up`]): the whole envelope is one block, so
    /// batch and streaming integration are identical by construction.
    pub fn power_up(&self, power_envelope: &[f64], sample_rate: f64) -> PowerUpOutcome {
        let mut state = self
            .begin_power_up(sample_rate)
            .with_trace_stride((power_envelope.len() / 32).max(1));
        state.step_block(power_envelope);
        state.finish()
    }

    /// The reference integrator: steps the rectifier (with its per-sample
    /// exponential) for every sample. [`Self::power_up`] and every
    /// [`PowerUpState`] feeding are bit-identical to this, pinned by
    /// `tests/powerup_props.rs::step_block_bitwise_equals_oracle`.
    pub fn power_up_oracle(&self, power_envelope: &[f64], sample_rate: f64) -> PowerUpOutcome {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        let dt = 1.0 / sample_rate;
        let mut v = 0.0f64;
        let mut v_peak = 0.0f64;
        let mut awake_at: Option<usize> = None;
        for (n, &p) in power_envelope.iter().enumerate() {
            let amp = self.input_amplitude(p);
            let i_load = if awake_at.is_some() { self.i_chip } else { 0.0 };
            v = self.rectifier.step(v, amp, dt, self.c_storage, i_load);
            v_peak = v_peak.max(v);
            if awake_at.is_none() && v >= self.v_operate {
                awake_at = Some(n);
            }
        }
        PowerUpOutcome {
            powered: awake_at.is_some(),
            time_to_power_s: awake_at.map(|n| n as f64 / sample_rate),
            peak_vdc: v_peak,
            final_vdc: v,
        }
    }

    /// Starts a resumable power-up integration at `sample_rate`: feed
    /// received power through [`PowerUpState::step_block`] or
    /// [`PowerUpState::charge`], then read [`PowerUpState::finish`].
    /// Pump voltage, peak tracking and the wake timestamp carry across
    /// calls, so any split produces the same outcome as [`Self::power_up`].
    pub fn begin_power_up(&self, sample_rate: f64) -> PowerUpState<'_> {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        let dt = 1.0 / sample_rate;
        let alpha = self.rectifier.charge_alpha(dt, self.c_storage);
        PowerUpState {
            sample_rate,
            pump: Pump {
                profile: self,
                stages_f: self.rectifier.stages as f64,
                vth: self.rectifier.input_threshold(),
                alpha,
                drain: self.i_chip * dt / self.c_storage,
                trace_stride: 1,
                tracing: false,
                v: 0.0,
                v_peak: 0.0,
                awake_at: None,
                n: 0,
            },
            crossing_counted: false,
        }
    }

    /// Fast analytic check used by range sweeps: can a *peak* received
    /// power `p_peak` ever wake the chip, i.e. does the steady-state pump
    /// output at that drive clear `v_operate`?
    pub fn can_power_at_peak(&self, p_peak_watts: f64) -> bool {
        let vs = self.input_amplitude(p_peak_watts);
        self.rectifier.steady_state_vdc(vs) >= self.v_operate
    }

    /// The peak received power (watts) needed to satisfy
    /// [`Self::can_power_at_peak`]: inverts `N(√(2PR) − vth) = v_op`.
    pub fn required_peak_power_watts(&self) -> f64 {
        let vth = self.rectifier.input_threshold();
        let n = self.rectifier.stages as f64;
        let vs_needed = vth + self.v_operate / n;
        vs_needed * vs_needed / (2.0 * self.r_in)
    }
}

/// Resumable Dickson-pump charge integration — the streaming core
/// behind [`TagPowerProfile::power_up`].
///
/// The integrator is a first-order recurrence (each step depends only
/// on the previous pump voltage and the current input amplitude), so
/// carrying `v`, the running peak and the wake index across block
/// boundaries reproduces the whole-buffer loop exactly: pushing the
/// same envelope in any split, or one sample per step, yields
/// bit-identical outcomes.
#[derive(Debug, Clone)]
pub struct PowerUpState<'a> {
    sample_rate: f64,
    pump: Pump<'a>,
    crossing_counted: bool,
}

/// The integrator's per-sample state and the constants a step reads,
/// lent out by [`PowerUpState::charge`]; [`Pump::step`] is the body of
/// every integration loop.
#[derive(Debug, Clone)]
pub struct Pump<'a> {
    profile: &'a TagPowerProfile,
    stages_f: f64,
    vth: f64,
    /// `exp(−dt/RC)`, hoisted: the same float [`Rectifier::step`] would
    /// recompute every sample.
    alpha: f64,
    /// Awake load subtraction per step, `i_chip·dt/C`.
    drain: f64,
    trace_stride: usize,
    /// Whether tracing was on when the charge run began.
    tracing: bool,
    v: f64,
    v_peak: f64,
    awake_at: Option<usize>,
    /// Global sample index (drives the trace stride and wake timestamp).
    n: usize,
}

impl Pump<'_> {
    /// Integrates one sample of received power (watts): the reference
    /// integrator's exact op sequence with `α` (and the load term)
    /// hoisted.
    ///
    /// # Panics
    /// Panics if `p` is negative or NaN.
    #[inline]
    pub fn step(&mut self, p: f64) {
        assert!(p >= 0.0, "power must be non-negative");
        let amp = (2.0 * p * self.profile.r_in).sqrt();
        let target = (self.stages_f * (amp - self.vth)).max(0.0);
        // Branchless select: in CIB steady state `target > v` flips
        // almost every sample (the beat envelope oscillates around the
        // settled voltage), so a branch here mispredicts constantly.
        // Computing the charged value unconditionally and selecting
        // costs two always-run flops but no pipeline flushes — and picks
        // the identical bits either way.
        let charged = target + (self.v - target) * self.alpha;
        let mut v = if target > self.v { charged } else { self.v };
        // The load current is decided *before* the step (the oracle
        // passes `i_load` into `Rectifier::step`), so the wake sample
        // itself draws nothing; subtracting a zero load and re-clamping
        // is a bitwise no-op on v ≥ 0, so the asleep branch skips it.
        if self.awake_at.is_some() {
            v = (v - self.drain).max(0.0);
        } else if v >= self.profile.v_operate {
            self.awake_at = Some(self.n);
        }
        self.v = v;
        self.v_peak = self.v_peak.max(v);
        // Behind the run's tracing flag, so untraced steps skip it.
        if self.tracing && self.n.is_multiple_of(self.trace_stride) {
            ivn_runtime::trace_counter!(
                "physics.harvested_charge_j",
                0.5 * self.profile.c_storage * v * v
            );
        }
        self.n += 1;
    }
}

impl PowerUpState<'_> {
    /// Sets the physics-probe stride: the banked energy (½·C·V²) is
    /// emitted as a `physics.harvested_charge_j` trace counter every
    /// `stride` samples. The whole-buffer wrapper uses ~32 points across
    /// the transient; a streaming driver should derive the stride from
    /// its expected total sample count.
    ///
    /// # Panics
    /// Panics if `stride` is zero.
    pub fn with_trace_stride(mut self, stride: usize) -> Self {
        assert!(stride > 0, "trace stride must be positive");
        self.pump.trace_stride = stride;
        self
    }

    /// Integrates one block of received power (watts per sample), one
    /// [`Pump::step`] per sample in one [`Self::charge`] run:
    /// bit-identical to [`TagPowerProfile::power_up_oracle`] over the
    /// same samples.
    pub fn step_block(&mut self, power_block: &[f64]) {
        self.charge(|pump| {
            for &p in power_block {
                pump.step(p);
            }
        });
    }

    /// A charge run: lends `feed` the pump to step any number of samples
    /// through [`Pump::step`]. One `harvester.power_up_ns` span (timing
    /// any work `feed` interleaves) and one `harvester.charge_steps`
    /// count per run, never per sample.
    pub fn charge(&mut self, feed: impl FnOnce(&mut Pump<'_>)) {
        let _span = ivn_runtime::span!("harvester.power_up_ns");
        let n = self.pump.n;
        self.pump.tracing = ivn_runtime::trace::enabled();
        feed(&mut self.pump);
        ivn_runtime::obs_count!("harvester.charge_steps", self.pump.n - n);
    }

    /// Ends the stream (books the threshold-crossing observation once)
    /// and returns the outcome. Idempotent; the state can keep
    /// integrating afterwards if more samples arrive.
    pub fn finish(&mut self) -> PowerUpOutcome {
        if self.pump.awake_at.is_some() && !self.crossing_counted {
            ivn_runtime::obs_count!("harvester.threshold_crossings", 1);
            self.crossing_counted = true;
        }
        self.outcome()
    }

    /// The outcome as of the samples integrated so far.
    pub fn outcome(&self) -> PowerUpOutcome {
        PowerUpOutcome {
            powered: self.pump.awake_at.is_some(),
            time_to_power_s: self.pump.awake_at.map(|n| n as f64 / self.sample_rate),
            peak_vdc: self.pump.v_peak,
            final_vdc: self.pump.v,
        }
    }
}

/// Result of a power-up attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerUpOutcome {
    /// Whether the chip reached its operating voltage.
    pub powered: bool,
    /// When it did, seconds from the start of the window.
    pub time_to_power_s: Option<f64>,
    /// Highest DC voltage reached.
    pub peak_vdc: f64,
    /// DC voltage at the end of the window.
    pub final_vdc: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_dsp::units::dbm_to_watts;

    #[test]
    fn calibrated_sensitivities() {
        let std_tag = TagPowerProfile::standard_tag();
        let mini = TagPowerProfile::miniature_tag();
        // Wake-up anchors: standard −10 dBm peak, miniature 0 dBm peak
        // (DESIGN.md §5). Static (diode-threshold) floors sit ~5 dB lower.
        let dbm = |w: f64| 10.0 * (w / 1e-3).log10();
        let std_req = dbm(std_tag.required_peak_power_watts());
        let mini_req = dbm(mini.required_peak_power_watts());
        assert!((std_req + 10.0).abs() < 0.3, "std {std_req}");
        assert!(mini_req.abs() < 0.3, "mini {mini_req}");
        assert!(std_tag.static_sensitivity_watts() < std_tag.required_peak_power_watts());
        assert!(mini.static_sensitivity_watts() < mini.required_peak_power_watts());
    }

    #[test]
    fn input_amplitude_square_root_law() {
        let tag = TagPowerProfile::standard_tag();
        let v1 = tag.input_amplitude(1e-4);
        let v4 = tag.input_amplitude(4e-4);
        assert!((v4 / v1 - 2.0).abs() < 1e-12);
        assert_eq!(tag.input_amplitude(0.0), 0.0);
    }

    #[test]
    fn strong_signal_powers_quickly() {
        let tag = TagPowerProfile::standard_tag();
        // 10 dBm received — 20 dB above sensitivity.
        let env = vec![dbm_to_watts(10.0); 50_000];
        let out = tag.power_up(&env, 1e6);
        assert!(out.powered);
        assert!(out.time_to_power_s.unwrap() < 0.05);
        assert!(out.peak_vdc >= 1.0);
    }

    #[test]
    fn weak_signal_never_powers() {
        let tag = TagPowerProfile::standard_tag();
        // −20 dBm: below the diode threshold entirely.
        let env = vec![dbm_to_watts(-20.0); 100_000];
        let out = tag.power_up(&env, 1e6);
        assert!(!out.powered);
        assert_eq!(out.peak_vdc, 0.0);
        assert!(out.time_to_power_s.is_none());
    }

    #[test]
    fn above_threshold_but_below_operate_stalls() {
        let tag = TagPowerProfile::standard_tag();
        // Slightly above diode threshold: pump output saturates below the
        // 1 V operating point.
        let p = tag.static_sensitivity_watts() * 1.2;
        let env = vec![p; 200_000];
        let out = tag.power_up(&env, 1e6);
        assert!(!out.powered);
        assert!(out.peak_vdc > 0.0 && out.peak_vdc < 1.0);
    }

    #[test]
    fn peaky_envelope_powers_where_steady_fails() {
        // The CIB effect at the harvester: same average power, delivered
        // as N× amplitude peaks, wakes the chip.
        let tag = TagPowerProfile::standard_tag();
        let p_avg = tag.static_sensitivity_watts() * 0.8; // steady: dead
        let steady = vec![p_avg; 100_000];
        assert!(!tag.power_up(&steady, 1e6).powered);

        // Peaks of 100× power (10 antennas) for 1 % of the time.
        let mut peaky = vec![0.0; 100_000];
        for chunk in peaky.chunks_mut(10_000) {
            for v in chunk.iter_mut().take(100) {
                *v = p_avg * 100.0;
            }
        }
        let out = tag.power_up(&peaky, 1e6);
        assert!(out.powered, "peak_vdc {}", out.peak_vdc);
    }

    #[test]
    fn required_peak_power_consistent() {
        let tag = TagPowerProfile::standard_tag();
        let p_req = tag.required_peak_power_watts();
        assert!(!tag.can_power_at_peak(p_req * 0.99));
        assert!(tag.can_power_at_peak(p_req * 1.01));
        // Requirement sits above the static sensitivity (needs V_op too).
        assert!(p_req > tag.static_sensitivity_watts());
    }

    #[test]
    fn mini_tag_needs_more_power() {
        let std_req = TagPowerProfile::standard_tag().required_peak_power_watts();
        let mini_req = TagPowerProfile::miniature_tag().required_peak_power_watts();
        assert!(
            (mini_req / std_req - 10.0).abs() < 0.5,
            "ratio {}",
            mini_req / std_req
        );
    }

    #[test]
    fn streaming_integration_matches_batch_any_block_size() {
        let tag = TagPowerProfile::standard_tag();
        // A ramp that crosses the wake threshold partway through, then
        // drops — exercises wake timing and post-wake drain across
        // block boundaries.
        let env: Vec<f64> = (0..40_000)
            .map(|k| {
                if k < 30_000 {
                    dbm_to_watts(10.0) * (k as f64 / 30_000.0)
                } else {
                    0.0
                }
            })
            .collect();
        let batch = tag.power_up(&env, 1e6);
        assert!(batch.powered);
        for block in [1usize, 7, 256, 4096] {
            let mut st = tag
                .begin_power_up(1e6)
                .with_trace_stride((env.len() / 32).max(1));
            for chunk in env.chunks(block) {
                st.step_block(chunk);
            }
            let out = st.finish();
            assert_eq!(out.powered, batch.powered, "block {block}");
            assert_eq!(
                out.time_to_power_s.map(f64::to_bits),
                batch.time_to_power_s.map(f64::to_bits),
                "block {block}"
            );
            assert_eq!(out.peak_vdc.to_bits(), batch.peak_vdc.to_bits());
            assert_eq!(out.final_vdc.to_bits(), batch.final_vdc.to_bits());
        }
    }

    #[test]
    fn step_block_matches_oracle_bitwise() {
        // The α-hoist must not change a single bit: the streaming loop
        // is the oracle's op sequence with the exponential precomputed.
        let tag = TagPowerProfile::standard_tag();
        let env: Vec<f64> = (0..50_000)
            .map(|k| {
                let x = k as f64 / 50_000.0;
                dbm_to_watts(10.0) * x * (0.5 + 0.5 * (40.0 * x).sin().abs())
            })
            .collect();
        let fast = tag.power_up(&env, 1e6);
        let oracle = tag.power_up_oracle(&env, 1e6);
        assert_eq!(fast.powered, oracle.powered);
        assert_eq!(
            fast.time_to_power_s.map(f64::to_bits),
            oracle.time_to_power_s.map(f64::to_bits)
        );
        assert_eq!(fast.peak_vdc.to_bits(), oracle.peak_vdc.to_bits());
        assert_eq!(fast.final_vdc.to_bits(), oracle.final_vdc.to_bits());
    }

    #[test]
    fn chip_drain_after_wake() {
        let tag = TagPowerProfile::standard_tag();
        // Power strongly, then cut the signal: voltage must decay due to
        // chip draw.
        let mut env = vec![dbm_to_watts(10.0); 20_000];
        env.extend(vec![0.0; 500_000]);
        let out = tag.power_up(&env, 1e6);
        assert!(out.powered);
        assert!(out.final_vdc < out.peak_vdc);
    }
}
