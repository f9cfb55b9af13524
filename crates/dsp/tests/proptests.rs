//! Property-based tests for the DSP substrate.

use ivn_dsp::complex::Complex64;
use ivn_dsp::correlate::coherent_average;
use ivn_dsp::fft::ifft_unnormalized;
use ivn_dsp::stats::{percentile, Ecdf};
use ivn_dsp::units::{db_to_linear, dbm_to_watts};
use ivn_runtime::prop::{vec as pvec, Strategy};
use ivn_runtime::{prop_assert, prop_assert_eq, props};

fn finite_f64(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    range
}

fn complex_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Complex64>> {
    pvec(
        (finite_f64(-10.0..10.0), finite_f64(-10.0..10.0)).prop_map(|(r, i)| Complex64::new(r, i)),
        len,
    )
}

props! {
    fn complex_mul_commutes(a in finite_f64(-5.0..5.0), b in finite_f64(-5.0..5.0),
                            c in finite_f64(-5.0..5.0), d in finite_f64(-5.0..5.0)) {
        let x = Complex64::new(a, b);
        let y = Complex64::new(c, d);
        prop_assert!(((x * y) - (y * x)).norm() < 1e-9);
    }

    fn complex_norm_triangle_inequality(a in complex_vec(2..3)) {
        let (x, y) = (a[0], a[1]);
        prop_assert!((x + y).norm() <= x.norm() + y.norm() + 1e-9);
    }

    fn complex_polar_roundtrip(r in finite_f64(0.001..100.0), theta in finite_f64(-3.0..3.0)) {
        let z = Complex64::from_polar(r, theta);
        let (r2, t2) = z.to_polar();
        prop_assert!((r - r2).abs() < 1e-9 * r.max(1.0));
        prop_assert!((theta - t2).abs() < 1e-9);
    }

    fn db_conversions_invert(db in finite_f64(-120.0..120.0)) {
        prop_assert!((10.0 * db_to_linear(db).log10() - db).abs() < 1e-9);
        prop_assert!((10.0 * (dbm_to_watts(db) / 1e-3).log10() - db).abs() < 1e-9);
    }

    fn ifft_unnormalized_matches_direct_sum(data in complex_vec(1..65)) {
        let n = data.len().next_power_of_two();
        let mut spectrum = data.clone();
        spectrum.resize(n, Complex64::ZERO);
        let mut time = spectrum.clone();
        ifft_unnormalized(&mut time);
        for (k, got) in time.iter().enumerate() {
            let want = spectrum.iter().enumerate().fold(Complex64::ZERO, |acc, (m, x)| {
                let ang = 2.0 * std::f64::consts::PI * (m * k % n) as f64 / n as f64;
                acc + *x * Complex64::cis(ang)
            });
            prop_assert!((*got - want).norm() < 1e-7 * n as f64);
        }
    }

    fn ifft_unnormalized_is_linear(a in complex_vec(16..17), b in complex_vec(16..17)) {
        let mut ta = a.clone();
        let mut tb = b.clone();
        let mut tsum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        ifft_unnormalized(&mut ta);
        ifft_unnormalized(&mut tb);
        ifft_unnormalized(&mut tsum);
        for i in 0..16 {
            prop_assert!(((ta[i] + tb[i]) - tsum[i]).norm() < 1e-6);
        }
    }

    fn coherent_average_of_identical_reps_is_identity(
        template in complex_vec(4..16), reps in 1usize..6,
    ) {
        let mut x = Vec::new();
        for _ in 0..reps {
            x.extend_from_slice(&template);
        }
        let avg = coherent_average(&x, template.len(), reps).unwrap();
        for (a, b) in avg.iter().zip(&template) {
            prop_assert!((*a - *b).norm() < 1e-9);
        }
    }

    fn percentile_within_minmax(data in pvec(finite_f64(-100.0..100.0), 1..50),
                                p in finite_f64(0.0..100.0)) {
        let v = percentile(&data, p).unwrap();
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    fn percentile_monotone_in_p(data in pvec(finite_f64(-10.0..10.0), 2..40)) {
        let p25 = percentile(&data, 25.0).unwrap();
        let p50 = percentile(&data, 50.0).unwrap();
        let p75 = percentile(&data, 75.0).unwrap();
        prop_assert!(p25 <= p50 + 1e-12 && p50 <= p75 + 1e-12);
    }

    fn ecdf_is_monotone_cdf(data in pvec(finite_f64(-10.0..10.0), 1..50)) {
        let e = Ecdf::new(data);
        let mut prev = 0.0;
        for x in [-20.0, -5.0, 0.0, 5.0, 20.0] {
            let v = e.eval(x);
            prop_assert!(v >= prev);
            prop_assert!((0.0..=1.0).contains(&v));
            prev = v;
        }
        prop_assert_eq!(e.eval(1e12), 1.0);
    }
}
