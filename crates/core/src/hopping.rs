//! Adaptive centre-frequency hopping (paper §3.7, "robustness to
//! multipath and mobility").
//!
//! CIB's offsets all sit inside the coherence bandwidth, so when the
//! whole band lands in a frequency-selective fade, every tone fades
//! together and the delivered power drops — the gain survives, the
//! absolute level doesn't. The paper's suggested extension "adaptively
//! hop\[s\] the center frequency to a different band": probe candidate
//! centres across the ISM band, measure delivered peak power, and camp on
//! the best.

use crate::cib::CibConfig;
use ivn_dsp::complex::Complex64;
use ivn_em::channel::ChannelModel;

/// The 902–928 MHz ISM band hop set used by default: 13 centres on a
/// 2 MHz grid.
pub fn ism_hop_set() -> Vec<f64> {
    (0..13).map(|k| 903e6 + k as f64 * 2e6).collect()
}

/// Result of a hop search.
#[derive(Debug, Clone, PartialEq)]
pub struct HopDecision {
    /// The chosen centre frequency, Hz.
    pub carrier_hz: f64,
    /// Peak power delivered at that centre.
    pub(crate) peak_power: f64,
    /// Peak power at the original centre (for the improvement ratio).
    pub(crate) baseline_power: f64,
}

impl HopDecision {
    /// Improvement over staying put.
    pub fn improvement(&self) -> f64 {
        if self.baseline_power <= 0.0 {
            f64::INFINITY
        } else {
            self.peak_power / self.baseline_power
        }
    }
}

/// Probes every candidate centre with the given per-antenna channels and
/// returns the best. The channels are frequency-dependent
/// ([`ChannelModel`]), which is the whole point: a static beamformer
/// cannot escape a notch, a hopping one can.
pub fn choose_center(
    cib: &CibConfig,
    channels: &[Box<dyn ChannelModel + Send + Sync>],
    candidates: &[f64],
) -> HopDecision {
    assert_eq!(channels.len(), cib.n(), "one channel per antenna");
    assert!(!candidates.is_empty(), "need at least one candidate");
    let probe = |center: f64| -> f64 {
        let hs: Vec<Complex64> = (0..cib.n())
            .map(|i| channels[i].response(center + cib.offsets_hz[i]))
            .collect();
        cib.received_peak_power(&hs)
    };
    let baseline_power = probe(cib.carrier_hz);
    let mut best = (cib.carrier_hz, baseline_power);
    for &c in candidates {
        let p = probe(c);
        if p > best.1 {
            best = (c, p);
        }
    }
    HopDecision {
        carrier_hz: best.0,
        peak_power: best.1,
        baseline_power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_em::multipath::{MultipathChannel, Path};
    use ivn_runtime::rng::{Rng, StdRng};

    /// A two-ray channel with a deep notch exactly at `notch_hz`.
    fn notched_channel(notch_hz: f64, rng: &mut StdRng) -> MultipathChannel {
        // Paths of equal gain separated by τ cancel at odd multiples of
        // 1/(2τ); choose τ so the notch lands on `notch_hz`.
        // f_notch = (k + 1/2)/τ → pick k so τ ≈ 50 ns.
        let k = (notch_hz * 50e-9 - 0.5).round();
        let tau = (k + 0.5) / notch_hz;
        let phase = rng.random::<f64>() * std::f64::consts::TAU;
        MultipathChannel::new(vec![
            Path {
                delay_s: 0.0,
                gain: Complex64::from_polar(0.5, phase),
            },
            Path {
                delay_s: tau,
                gain: Complex64::from_polar(0.5, phase),
            },
        ])
    }

    #[test]
    fn hop_set_covers_ism() {
        let set = ism_hop_set();
        assert_eq!(set.len(), 13);
        assert!(set[0] >= 902e6 && *set.last().unwrap() <= 928e6);
    }

    #[test]
    fn hopping_escapes_a_notch() {
        let mut rng = StdRng::seed_from_u64(5);
        let cib = CibConfig::paper_prototype_n(6);
        let channels: Vec<Box<dyn ChannelModel + Send + Sync>> = (0..6)
            .map(|_| {
                Box::new(notched_channel(915e6, &mut rng)) as Box<dyn ChannelModel + Send + Sync>
            })
            .collect();
        let decision = choose_center(&cib, &channels, &ism_hop_set());
        assert_ne!(decision.carrier_hz, 915e6, "should hop away from the notch");
        assert!(
            decision.improvement() > 5.0,
            "improvement {}",
            decision.improvement()
        );
    }

    #[test]
    fn flat_channel_stays_put_or_ties() {
        let mut rng = StdRng::seed_from_u64(6);
        let cib = CibConfig::paper_prototype_n(4);
        // One zero-delay path: the same gain at every frequency.
        let channels: Vec<Box<dyn ChannelModel + Send + Sync>> = (0..4)
            .map(|_| {
                let phase = rng.random::<f64>() * std::f64::consts::TAU;
                Box::new(MultipathChannel::new(vec![Path {
                    delay_s: 0.0,
                    gain: Complex64::from_polar(1.0, phase),
                }])) as Box<dyn ChannelModel + Send + Sync>
            })
            .collect();
        let decision = choose_center(&cib, &channels, &ism_hop_set());
        // Flat channels: every centre is identical, improvement ≈ 1.
        assert!((decision.improvement() - 1.0).abs() < 1e-9);
        assert!((decision.peak_power - decision.baseline_power).abs() < 1e-12);
    }

    #[test]
    fn probes_respect_per_tone_frequencies() {
        // A channel with strong dispersion across the CIB span would make
        // per-tone responses differ; verify the probe evaluates each tone
        // at its own emission frequency by using a channel whose response
        // changes with every hertz.
        struct Comb;
        impl ChannelModel for Comb {
            fn response(&self, f: f64) -> Complex64 {
                // 1 on even-hertz, 0.1 on odd-hertz frequencies.
                if (f as u64).is_multiple_of(2) {
                    Complex64::from_real(1.0)
                } else {
                    Complex64::from_real(0.1)
                }
            }
        }
        let cib = CibConfig {
            offsets_hz: vec![0.0, 7.0],
            carrier_hz: 915e6,
            grid: 512,
        };
        let channels: Vec<Box<dyn ChannelModel + Send + Sync>> =
            vec![Box::new(Comb), Box::new(Comb)];
        let d = choose_center(&cib, &channels, &[915e6]);
        // Tone 0 at even (1.0), tone 1 at odd (0.1): ceiling (1.1)² = 1.21.
        assert!(d.peak_power <= 1.21 + 1e-9);
        assert!(d.peak_power > 1.0);
    }
}
