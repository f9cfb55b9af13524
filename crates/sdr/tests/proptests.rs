//! Property-based tests for the SDR testbed models.

use ivn_dsp::complex::Complex64;
use ivn_runtime::prop::any;
use ivn_runtime::rng::StdRng;
use ivn_runtime::{prop_assert, prop_assert_eq, props};
use ivn_sdr::adc::{Adc, SawFilter};
use ivn_sdr::bank::TxBank;
use ivn_sdr::clock::ClockDistribution;
use ivn_sdr::pa::PowerAmp;
use ivn_sdr::pll::Pll;

props! {
    cases = 96;

    fn pll_tunes_within_half_step(step in 1.0f64..1e6, target in 1e8f64..2e9,
                                  seed in any::<u64>()) {
        let mut pll = Pll::new(step);
        let mut rng = StdRng::seed_from_u64(seed);
        let f = pll.tune(&mut rng, target);
        prop_assert!((f - target).abs() <= step / 2.0 + 1e-9);
    }

    fn pll_phase_in_range(seed in any::<u64>()) {
        let mut pll = Pll::sbx_class();
        let mut rng = StdRng::seed_from_u64(seed);
        pll.tune(&mut rng, 915e6);
        let p = pll.initial_phase();
        prop_assert!((0.0..std::f64::consts::TAU).contains(&p));
    }

    fn pa_monotone_bounded(gain in 1.0f64..50.0, vsat in 1.0f64..20.0,
                           p in 0.5f64..4.0, v1 in 0.0f64..10.0, dv in 0.0f64..10.0) {
        let pa = PowerAmp::new(gain, vsat, p);
        let a1 = pa.am_am(v1);
        let a2 = pa.am_am(v1 + dv);
        prop_assert!(a2 >= a1 - 1e-9);
        prop_assert!(a2 <= vsat * (1.0 + 1e-9));
        // Never exceeds linear gain.
        prop_assert!(a2 <= gain * (v1 + dv) + 1e-9);
    }

    fn adc_error_bounded_by_lsb(bits in 4u32..16, re in -0.99f64..0.99, im in -0.99f64..0.99) {
        let adc = Adc::new(1.0, bits);
        let x = Complex64::new(re, im);
        let y = adc.convert(x);
        prop_assert!((y.re - re).abs() <= adc.lsb() / 2.0 + 1e-12);
        prop_assert!((y.im - im).abs() <= adc.lsb() / 2.0 + 1e-12);
    }

    fn adc_clips_to_full_scale(v in 1.0f64..100.0) {
        let adc = Adc::new(1.0, 12);
        let y = adc.convert(Complex64::new(v, -v));
        prop_assert!(y.re <= 1.0 + 1e-12 && y.im >= -1.0 - 1e-12);
    }

    fn saw_gain_bounded(f in 8e8f64..1e9) {
        let saw = SawFilter::reader_880();
        let g = saw.gain_at(f);
        prop_assert!(g > 0.0 && g < 1.0);
    }

    fn bank_emissions_match_offsets(n in 1usize..8, seed in any::<u64>()) {
        let offsets: Vec<f64> = (0..n).map(|i| i as f64 * 13.0).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let bank = TxBank::new(&mut rng, n, 915e6, 1e5, &offsets, &ClockDistribution::octoclock());
        for i in 0..n {
            prop_assert_eq!(bank.emission_hz(i), 915e6 + i as f64 * 13.0);
        }
    }
}
