//! Property-based tests for the CIB core.

use ivn_core::cib::CibConfig;
use ivn_core::freqsel::{expected_peak, feasible};
use ivn_core::twostage::expected_duty;
use ivn_core::waveform::{eq9_rms_bound, rms_offset, CibEnvelope};
use ivn_dsp::complex::Complex64;
use ivn_runtime::prop::{any, btree_set, vec as pvec, Just, Strategy};
use ivn_runtime::rng::StdRng;
use ivn_runtime::{prop_assert, prop_assert_eq, props};

fn offsets() -> impl Strategy<Value = Vec<f64>> {
    btree_set(1u32..300, 1..9).prop_map(|set| {
        std::iter::once(0.0)
            .chain(set.into_iter().map(|v| v as f64))
            .collect()
    })
}

fn phases(n: usize) -> impl Strategy<Value = Vec<f64>> {
    pvec(0.0f64..std::f64::consts::TAU, n..=n)
}

props! {
    cases = 64;

    fn envelope_bounded_by_tone_count((offs, ph) in offsets().prop_flat_map(|o| {
        let n = o.len();
        (Just(o), phases(n))
    }), t in 0.0f64..1.0) {
        let env = CibEnvelope::new(&offs, &ph);
        prop_assert!(env.envelope(t) <= env.n() as f64 + 1e-9);
    }

    fn peak_at_least_one_tone((offs, ph) in offsets().prop_flat_map(|o| {
        let n = o.len();
        (Just(o), phases(n))
    })) {
        // The time average of Y² is N, so the peak envelope is ≥ √N —
        // a fortiori ≥ 1.
        let env = CibEnvelope::new(&offs, &ph);
        let (_, y) = env.peak_over_period(2048);
        prop_assert!(y >= (env.n() as f64).sqrt() - 1e-6, "peak {y} for n={}", env.n());
    }

    fn peak_power_between_static_and_mrt((offs, ph) in offsets().prop_flat_map(|o| {
        let n = o.len();
        (Just(o), phases(n))
    })) {
        let n = offs.len();
        let channels: Vec<Complex64> =
            ph.iter().map(|&p| Complex64::from_polar(1.0, p)).collect();
        let cfg = CibConfig { offsets_hz: offs, carrier_hz: 915e6, grid: 2048 };
        let peak = cfg.received_peak_power(&channels);
        let static_power = channels.iter().copied().sum::<Complex64>().norm_sqr();
        prop_assert!(peak >= static_power - 1e-6);
        prop_assert!(peak <= (n * n) as f64 + 1e-6);
    }

    fn expected_peak_within_bounds(offs in offsets(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = expected_peak(&offs, 8, 256, &mut rng);
        let n = offs.len() as f64;
        prop_assert!(e >= n.sqrt() - 1e-6, "E[peak] {e} below √N");
        prop_assert!(e <= n + 1e-9, "E[peak] {e} above N");
    }

    fn duty_antitone_in_threshold(offs in offsets(), seed in any::<u64>(),
                                  thr in 0.0f64..5.0, extra in 0.0f64..5.0) {
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        let d_low = expected_duty(&offs, thr, 6, 256, &mut r1);
        let d_high = expected_duty(&offs, thr + extra, 6, 256, &mut r2);
        prop_assert!(d_high <= d_low + 1e-12);
        prop_assert!((0.0..=1.0).contains(&d_low));
    }

    fn rms_scale_invariance(offs in offsets(), k in 1.0f64..10.0) {
        let scaled: Vec<f64> = offs.iter().map(|f| f * k).collect();
        prop_assert!((rms_offset(&scaled) - k * rms_offset(&offs)).abs() < 1e-9);
        // Feasibility threshold scales accordingly.
        let limit = rms_offset(&offs) + 1.0;
        prop_assert!(feasible(&offs, limit));
        prop_assert_eq!(
            feasible(&scaled, k * limit),
            true
        );
    }

    fn eq9_bound_antitone_in_dt(alpha in 0.05f64..1.0, dt in 1e-5f64..1e-2, k in 1.1f64..10.0) {
        prop_assert!(eq9_rms_bound(alpha, dt * k) < eq9_rms_bound(alpha, dt));
    }

    fn taylor_bound_is_a_lower_bound(offs in offsets(), dt in 0.0f64..5e-4) {
        // At an aligned peak (zero phases) the true envelope sits at or
        // above the Eq. 8 second-order bound N − 2π²·dt²·ΣΔfᵢ².
        let env = CibEnvelope::new(&offs, &vec![0.0; offs.len()]);
        let sum_sq: f64 = offs.iter().map(|f| f * f).sum();
        let bound = offs.len() as f64 - 2.0 * std::f64::consts::PI.powi(2) * dt * dt * sum_sq;
        prop_assert!(env.envelope(dt) >= bound - 1e-9);
    }
}
