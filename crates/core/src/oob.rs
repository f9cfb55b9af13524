//! The out-of-band reader (paper §4).
//!
//! CIB's transmissions can combine constructively at the receive antenna
//! just as they do at the sensor, saturating a conventional reader. IVN's
//! reader therefore operates 35 MHz below the beamformer (880 vs
//! 915 MHz): because backscatter modulation is frequency-agnostic, the
//! powered tag also modulates the reader's own carrier, and a SAW filter
//! strips the beamformer jam before the ADC.
//!
//! To survive deep-tissue uplink budgets, the reader coherently averages
//! the tag response over repeated CIB periods (1 s each in the paper) and
//! correlates against the known 12-bit FM0 preamble; correlation ≥ 0.8
//! declares success (§6.2).

use ivn_dsp::complex::Complex64;
use ivn_dsp::correlate::{best_match_real, coherent_average};
use ivn_dsp::noise::AwgnSource;
use ivn_rfid::fm0::Fm0;
use ivn_runtime::rng::Rng;
use ivn_sdr::adc::{Adc, SawFilter};
use std::f64::consts::TAU;

/// Reader configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct OobReaderConfig {
    /// Reader carrier, Hz (880 MHz in the paper).
    pub carrier_hz: f64,
    /// Beamformer band centre, Hz (the jam to reject).
    pub(crate) beamformer_hz: f64,
    /// The SAW pre-filter.
    pub(crate) saw: SawFilter,
    /// Whether the SAW filter is installed (ablation switch).
    pub use_saw: bool,
    /// Receiver sample rate, S/s.
    pub(crate) sample_rate: f64,
    /// Number of CIB periods averaged coherently.
    pub averaging_periods: usize,
    /// Correlation threshold for declaring a decode (0.8 in the paper).
    pub(crate) correlation_threshold: f64,
    /// Receiver noise power, watts (thermal + NF in the RX bandwidth).
    pub noise_watts: f64,
    /// ADC model.
    pub(crate) adc: Adc,
    /// TX→RX leakage attenuation of the reader's own carrier, dB.
    pub(crate) self_leak_db: f64,
    /// Digital down-converter rejection of components outside ±fs/2, dB.
    /// Applied *after* the ADC — out-of-band blockers still consume
    /// dynamic range (desensitization) even though the DDC removes them.
    pub(crate) ddc_rejection_db: f64,
}

impl OobReaderConfig {
    /// The paper's reader: 880 MHz, high-rejection SAW, coherent
    /// averaging over 20 periods (each a window around one reply, 20 ms
    /// in `IvnSystem::run_session`), 0.8 correlation threshold.
    pub fn paper_defaults() -> Self {
        OobReaderConfig {
            carrier_hz: crate::READER_CARRIER_HZ,
            beamformer_hz: crate::BEAMFORMER_CARRIER_HZ,
            saw: SawFilter::reader_880(),
            use_saw: true,
            sample_rate: 400e3,
            averaging_periods: 20,
            correlation_threshold: 0.8,
            noise_watts: ivn_dsp::units::dbm_to_watts(-92.0),
            adc: Adc::new(0.5, 14),
            self_leak_db: 30.0,
            ddc_rejection_db: 60.0,
        }
    }

    /// The in-band ablation: reader at the beamformer frequency with no
    /// SAW — demonstrates the self-jamming failure.
    pub fn in_band_ablation() -> Self {
        let mut cfg = Self::paper_defaults();
        cfg.carrier_hz = cfg.beamformer_hz;
        cfg.use_saw = false;
        cfg
    }
}

/// One interfering CIB tone as seen at the reader antenna.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JamTone {
    /// Absolute frequency, Hz.
    pub freq_hz: f64,
    /// Amplitude at the reader antenna, √W.
    pub amplitude: f64,
    /// Phase, radians.
    pub phase: f64,
}

/// Result of one decode attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeResult {
    /// Best preamble correlation found.
    pub correlation: f64,
    /// Whether the correlation beat the threshold.
    pub success: bool,
    /// Offset (samples) of the best match within the averaged window.
    pub(crate) offset: usize,
    /// The decoded payload bits after the preamble (when successful).
    pub(crate) payload: Vec<bool>,
    /// Fraction of ADC samples that saturated (self-jamming indicator).
    pub adc_saturation: f64,
}

/// The out-of-band reader.
#[derive(Debug, Clone)]
pub struct OobReader {
    /// Configuration.
    pub config: OobReaderConfig,
}

impl OobReader {
    /// Creates a reader.
    pub fn new(config: OobReaderConfig) -> Self {
        OobReader { config }
    }

    /// Simulates reception and decoding of a tag uplink.
    ///
    /// * `uplink_amplitude` — backscatter signal amplitude at the reader
    ///   antenna (√W): forward illumination × Γ-differential × reverse
    ///   channel.
    /// * `message_bits` — the FM0 payload the tag repeats each period
    ///   (preamble prepended internally).
    /// * `samples_per_half` — FM0 half-symbol duration in RX samples.
    /// * `jam` — CIB tones present at the antenna.
    /// * `period_samples` — samples per CIB repetition period.
    ///
    /// Returns the decode verdict after SAW filtering, ADC conversion,
    /// coherent averaging and preamble correlation.
    pub fn receive_and_decode<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        uplink_amplitude: f64,
        message_bits: &[bool],
        samples_per_half: usize,
        jam: &[JamTone],
        period_samples: usize,
    ) -> DecodeResult {
        assert!(uplink_amplitude >= 0.0);
        assert!(samples_per_half > 0 && period_samples > 0);
        let cfg = &self.config;
        let fs = cfg.sample_rate;
        let fm0 = Fm0::new(samples_per_half);

        // The repeated uplink waveform: preamble + payload, FM0 levels.
        let mut bits = ivn_rfid::PAPER_PREAMBLE_BITS.to_vec();
        bits.extend_from_slice(message_bits);
        let baseband = fm0.encode(&bits);
        assert!(
            baseband.len() <= period_samples,
            "uplink longer than the repetition period"
        );

        // Self-leak of the reader's own carrier (DC in its own baseband).
        let leak_amp = uplink_amplitude.max(1e-12)
            * ivn_dsp::units::db_to_amplitude(40.0) // illumination ≫ echo
            * ivn_dsp::units::db_to_amplitude(-cfg.self_leak_db);

        let mut noise = AwgnSource::new(cfg.noise_watts);
        let total = period_samples * cfg.averaging_periods;
        // Jam tones after the SAW (the analog front end sees these): the
        // tones are not commensurate with the sampling, so precompute
        // per-sample rotations relative to the reader carrier.
        struct JamOsc {
            state: Complex64,
            rot: Complex64,
            ddc_gain: f64,
        }
        let mut jam_osc: Vec<JamOsc> = jam
            .iter()
            .map(|t| {
                let df = t.freq_hz - cfg.carrier_hz;
                let saw_gain = if cfg.use_saw {
                    cfg.saw.gain_at(t.freq_hz)
                } else {
                    1.0
                };
                let ddc_gain = if df.abs() > fs / 2.0 {
                    ivn_dsp::units::db_to_amplitude(-cfg.ddc_rejection_db)
                } else {
                    1.0
                };
                JamOsc {
                    state: Complex64::from_polar(t.amplitude * saw_gain, t.phase),
                    rot: Complex64::cis(TAU * df / fs),
                    ddc_gain,
                }
            })
            .collect();

        let self_gain = if cfg.use_saw {
            cfg.saw.gain_at(cfg.carrier_hz)
        } else {
            1.0
        };
        // `frontend[k]` is what reaches the ADC (post-SAW, pre-DDC); the
        // DDC-filtered jam residual is tracked separately so blockers
        // consume dynamic range without surviving digitally.
        let mut frontend = Vec::with_capacity(total);
        let mut ddc_jam = Vec::with_capacity(total);
        for k in 0..total {
            let in_period = k % period_samples;
            let bb = if in_period < baseband.len() {
                baseband[in_period]
            } else {
                0.0
            };
            // Backscatter: tag switches between two reflection states; the
            // differential component is ±uplink_amplitude/2 around a mean.
            let signal = Complex64::from_real(uplink_amplitude * 0.5 * bb) * self_gain;
            let leak = Complex64::from_real(leak_amp) * self_gain;
            let base = signal + leak + noise.sample(rng);
            let mut jam_full = Complex64::ZERO;
            let mut jam_filtered = Complex64::ZERO;
            for o in jam_osc.iter_mut() {
                jam_full += o.state;
                jam_filtered += o.state * o.ddc_gain;
                o.state *= o.rot;
            }
            frontend.push(base + jam_full);
            ddc_jam.push(jam_filtered - jam_full);
        }

        // AGC: the variable-gain stage scales the *front-end* signal to a
        // quarter of the ADC range. A strong blocker therefore steals
        // resolution from the wanted signal — the §4 desensitization.
        let rms = (frontend.iter().map(|s| s.norm_sqr()).sum::<f64>() / frontend.len() as f64)
            .sqrt()
            .max(1e-30);
        let agc_gain = 0.25 * cfg.adc.full_scale / rms;

        // ADC conversion at AGC gain, then digital down-conversion
        // (removing the out-of-band jam), then undo the gain.
        let mut converted = Vec::with_capacity(total);
        for (s, dj) in frontend.iter().zip(&ddc_jam) {
            let q = cfg.adc.convert(*s * agc_gain);
            converted.push(q * (1.0 / agc_gain) + *dj);
        }
        let saturation = {
            let scaled: Vec<Complex64> = frontend.iter().map(|s| *s * agc_gain).collect();
            cfg.adc.saturation_fraction(&scaled)
        };

        // Coherent averaging across periods.
        let averaged = coherent_average(&converted, period_samples, cfg.averaging_periods)
            .expect("sized above");

        // Remove the DC component (leak) and take the in-phase envelope
        // deviation for the real-valued correlator.
        let mean: Complex64 = averaged.iter().copied().sum::<Complex64>() / averaged.len() as f64;
        let real_env: Vec<f64> = averaged.iter().map(|s| (*s - mean).re).collect();

        // Correlate against the preamble template.
        let template = ivn_rfid::fm0::preamble_waveform(samples_per_half);
        let (offset, correlation) = best_match_real(&real_env, &template).unwrap_or((0, 0.0));
        let success = correlation >= cfg.correlation_threshold;

        // Decode the payload following the matched preamble.
        let payload = if success {
            let start = offset + template.len();
            let end = (start + message_bits.len() * samples_per_half * 2).min(real_env.len());
            if end > start {
                fm0.decode(&real_env[start..end])
            } else {
                Vec::new()
            }
        } else {
            Vec::new()
        };

        DecodeResult {
            correlation,
            success,
            offset,
            payload,
            adc_saturation: saturation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_runtime::rng::StdRng;

    fn rn16_bits(v: u16) -> Vec<bool> {
        (0..16).rev().map(|i| (v >> i) & 1 == 1).collect()
    }

    fn jam_tones(amp: f64) -> Vec<JamTone> {
        crate::PAPER_OFFSETS_HZ
            .iter()
            .enumerate()
            .map(|(i, &df)| JamTone {
                freq_hz: 915e6 + df,
                amplitude: amp,
                phase: i as f64,
            })
            .collect()
    }

    #[test]
    fn clean_uplink_decodes() {
        let mut rng = StdRng::seed_from_u64(1);
        let reader = OobReader::new(OobReaderConfig::paper_defaults());
        let msg = rn16_bits(0xBEEF);
        let r = reader.receive_and_decode(&mut rng, 1e-3, &msg, 4, &[], 2000);
        assert!(r.success, "correlation {}", r.correlation);
        assert_eq!(r.payload, msg);
        assert!(r.adc_saturation < 0.01);
    }

    #[test]
    fn decodes_under_full_cib_jam() {
        // The headline §4 scenario: 10 CIB tones far stronger than the
        // backscatter echo; the SAW makes the decode survive.
        let mut rng = StdRng::seed_from_u64(2);
        let reader = OobReader::new(OobReaderConfig::paper_defaults());
        let msg = rn16_bits(0x1234);
        let r = reader.receive_and_decode(&mut rng, 1e-4, &msg, 4, &jam_tones(0.05), 2000);
        assert!(r.success, "correlation {}", r.correlation);
        assert_eq!(r.payload, msg);
    }

    #[test]
    fn in_band_reader_fails_under_jam() {
        // Ablation: same jam, reader parked in-band with no SAW → the ADC
        // saturates / correlation collapses.
        let mut rng = StdRng::seed_from_u64(3);
        let reader = OobReader::new(OobReaderConfig::in_band_ablation());
        let msg = rn16_bits(0x1234);
        let r = reader.receive_and_decode(&mut rng, 1e-4, &msg, 4, &jam_tones(0.05), 2000);
        assert!(
            !r.success,
            "in-band decode should fail, corr {}",
            r.correlation
        );
        // The AGC backs off for the blocker, crushing the signal below the
        // quantization floor — the §4 desensitization mechanism.
    }

    #[test]
    fn weak_uplink_fails_without_averaging_succeeds_with() {
        let msg = rn16_bits(0xA5A5);
        // Uplink buried in noise: single period fails.
        let mut one = OobReaderConfig::paper_defaults();
        one.averaging_periods = 1;
        let mut rng = StdRng::seed_from_u64(4);
        let r1 = OobReader::new(one).receive_and_decode(&mut rng, 2.2e-6, &msg, 4, &[], 2000);

        let mut many = OobReaderConfig::paper_defaults();
        many.averaging_periods = 64;
        let mut rng2 = StdRng::seed_from_u64(4);
        let r64 = OobReader::new(many).receive_and_decode(&mut rng2, 2.2e-6, &msg, 4, &[], 2000);
        assert!(
            r64.correlation > r1.correlation,
            "averaging did not help: {} vs {}",
            r64.correlation,
            r1.correlation
        );
        assert!(r64.success, "64-period correlation {}", r64.correlation);
    }

    #[test]
    fn zero_uplink_never_succeeds() {
        let mut rng = StdRng::seed_from_u64(5);
        let reader = OobReader::new(OobReaderConfig::paper_defaults());
        let msg = rn16_bits(0xFFFF);
        let r = reader.receive_and_decode(&mut rng, 0.0, &msg, 4, &[], 2000);
        assert!(!r.success, "false positive at corr {}", r.correlation);
    }

    #[test]
    fn deterministic_per_seed() {
        let reader = OobReader::new(OobReaderConfig::paper_defaults());
        let msg = rn16_bits(0x0F0F);
        let a = reader.receive_and_decode(
            &mut StdRng::seed_from_u64(6),
            1e-4,
            &msg,
            4,
            &jam_tones(0.01),
            1500,
        );
        let b = reader.receive_and_decode(
            &mut StdRng::seed_from_u64(6),
            1e-4,
            &msg,
            4,
            &jam_tones(0.01),
            1500,
        );
        assert_eq!(a, b);
    }
}
