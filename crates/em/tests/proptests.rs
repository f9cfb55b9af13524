//! Property-based tests for the electromagnetics substrate.

use ivn_dsp::complex::Complex64;
use ivn_em::antenna::Antenna;
use ivn_em::boundary::{power_transmittance, reflection};
use ivn_em::coupling::CouplingModel;
use ivn_em::layered::{single_medium_path, Layer, LayeredPath};
use ivn_em::medium::Medium;
use ivn_em::stream::BlockSuperposer;
use ivn_runtime::prop::{any, Strategy};
use ivn_runtime::rng::{Rng, StdRng};
use ivn_runtime::{prop_assert, prop_assert_eq, props};
use ivn_sdr::bank::TxBank;
use ivn_sdr::clock::ClockDistribution;
use ivn_sdr::stream::CarrierWindows;

fn medium() -> impl Strategy<Value = Medium> {
    (1.0f64..85.0, 0.0f64..3.0).prop_map(|(e, s)| Medium::new("prop", e, s))
}

/// One `f64` weighted toward the IEEE specials: `±0.0`, NaN (quiet and
/// with a random payload), `±∞`, subnormals, any raw bit pattern, and
/// plain values.
fn raw_f64(rng: &mut StdRng) -> f64 {
    let sign = if rng.random::<bool>() { 1u64 << 63 } else { 0 };
    match rng.random_range(0..8u32) {
        0 => f64::from_bits(sign),
        1 => f64::NAN,
        2 => f64::from_bits(0x7ff0_0000_0000_0001 | sign | (rng.random::<u64>() >> 13)),
        3 => f64::from_bits(0x7ff0_0000_0000_0000 | sign),
        4 => f64::from_bits(sign | (rng.random::<u64>() >> 12)),
        5 => f64::from_bits(rng.random::<u64>()),
        _ => rng.random_range(-2.0..2.0),
    }
}

/// Bit equality, except that any NaN matches any NaN: Rust leaves a NaN
/// result's payload and sign unspecified (codegen may commute a
/// multiply's operands, and x86 returns the first operand's NaN).
/// Every other value, `-0.0` included, must match bit for bit.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// The device-major reference: each device's `block·g` added into a
/// zeroed buffer in turn, as the superposer did before it went
/// sample-major.
fn device_major(gains: &[Complex64], blocks: &[Vec<Complex64>]) -> Vec<Complex64> {
    let mut acc = vec![Complex64::ZERO; blocks[0].len()];
    for (block, &g) in blocks.iter().zip(gains) {
        for (a, &b) in acc.iter_mut().zip(block) {
            *a += b * g;
        }
    }
    acc
}

/// One complex gain, weighted toward `±0.0` parts (so a product of
/// `-0.0` is common) and otherwise drawn like [`raw_f64`].
fn channel_gain(rng: &mut StdRng) -> Complex64 {
    let part = |rng: &mut StdRng| {
        if rng.random::<bool>() {
            f64::from_bits(if rng.random::<bool>() { 1 << 63 } else { 0 })
        } else {
            raw_f64(rng)
        }
    };
    Complex64::new(part(rng), part(rng))
}

const OFFSETS: [f64; 10] = [0., 7., 20., 49., 68., 73., 90., 113., 121., 137.];

props! {
    cases = 96;

    fn reflection_magnitude_below_unity(m1 in medium(), m2 in medium(), f in 4e8f64..3e9) {
        let g = reflection(&m1, &m2, f);
        prop_assert!(g.norm() <= 1.0 + 1e-9);
        let t = power_transmittance(&m1, &m2, f);
        prop_assert!((g.norm_sqr() + t - 1.0).abs() < 1e-9);
    }

    fn propagation_magnitude_decays(m in medium(), f in 4e8f64..3e9,
                                    d1 in 0.0f64..0.3, d2 in 0.0f64..0.3) {
        let (near, far) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(m.propagate(f, far).norm() <= m.propagate(f, near).norm() + 1e-12);
        prop_assert!(m.propagate(f, 0.0).norm() - 1.0 < 1e-12);
    }

    fn layered_response_multiplicative_in_depth(m in medium(), f in 4e8f64..3e9,
                                                d in 0.001f64..0.1) {
        // Two layers of the same medium equal one double-thickness layer.
        let double = single_medium_path(1.0, m.clone(), 2.0 * d);
        let split = LayeredPath::new(
            1.0,
            vec![Layer::new(m.clone(), d), Layer::new(m, d)],
        );
        let a = double.response(f);
        let b = split.response(f);
        prop_assert!((a - b).norm() < 1e-9 * a.norm().max(1e-30));
    }

    fn path_loss_positive_beyond_reference(m in medium(), air in 1.0f64..10.0,
                                           d in 0.0f64..0.1, f in 4e8f64..3e9) {
        let pl = single_medium_path(air, m, d).path_loss_db(f);
        prop_assert!(pl >= -1e-9, "negative path loss {pl}");
    }

    fn antenna_factors_bounded(theta in -7.0f64..7.0) {
        for ant in [Antenna::standard_tag(), Antenna::miniature_tag()] {
            let o = ant.orientation_factor(theta);
            prop_assert!(o > 0.0 && o <= 1.0 + 1e-12, "{ant:?} at {theta}: {o}");
            prop_assert!(ant.polarization_factor() <= 1.0);
            prop_assert!(ant.total_gain(theta) <= ant.gain_linear());
        }
    }

    fn sample_major_superposition_is_device_major_bit_for_bit(
        seed in any::<u64>(), n_ant in 1usize..11, len_sel in 0usize..4) {
        let len = [0usize, 1, 7, 4096][len_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let draw = |rng: &mut StdRng| Complex64::new(raw_f64(rng), raw_f64(rng));
        let gains: Vec<Complex64> = (0..n_ant).map(|_| draw(&mut rng)).collect();
        let blocks: Vec<Vec<Complex64>> = (0..n_ant)
            .map(|_| (0..len).map(|_| draw(&mut rng)).collect())
            .collect();
        let want = device_major(&gains, &blocks);
        let sup = BlockSuperposer::new(gains);
        for (k, y) in want.iter().enumerate() {
            let x = sup.superpose(blocks.iter().map(|b| b[k]));
            prop_assert!(same(x.re, y.re) && same(x.im, y.im),
                "{} devices, sample {}: {:?} vs {:?}", n_ant, k, x, y);
        }
    }

    fn fused_fold_is_carrier_blocks_then_device_major_sum_bit_for_bit(
        seed in any::<u64>(), n_ant in 1usize..11, len_sel in 0usize..7,
        free_running in any::<bool>()) {
        // The streaming power pass: `CarrierWindows::fold` hands each
        // sample's carriers to `superpose` as they are stepped. The
        // reference emits whole per-device blocks, every resync window
        // from its own `seek`, and superposes them after the fact.
        let len = [0usize, 1, 7, 8, 1023, 1025, 4096][len_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let clock = if free_running {
            ClockDistribution::free_running()
        } else {
            ClockDistribution::octoclock()
        };
        let bank = TxBank::new(&mut rng, n_ant, 915e6, 1e6, &OFFSETS[..n_ant], &clock);
        let gains: Vec<Complex64> = (0..n_ant).map(|_| channel_gain(&mut rng)).collect();
        let sup = BlockSuperposer::new(gains.clone());
        let mut win = CarrierWindows::new(&bank, 0.05, 4096 * 3);
        let w = rng.random_range(0..win.count() - len.div_ceil(1024));
        let start = win.seek(w).start;

        let blocks: Vec<Vec<Complex64>> = (0..n_ant)
            .map(|i| {
                let mut block = vec![Complex64::ZERO; len];
                for (c, chunk) in block.chunks_mut(1024).enumerate() {
                    let mut rotor = win.rotor(i).clone();
                    rotor.seek((start + 1024 * c) as u64);
                    rotor.fill_scaled(chunk, win.gain(i));
                }
                block
            })
            .collect();
        let reference = device_major(&gains, &blocks);

        // Folded in two calls split at a random point, so a call can end
        // and the next resume mid-row.
        let cut = rng.random_range(0..=len);
        let mut sunk = Vec::new();
        for n in [cut, len - cut] {
            win.fold(n, |k, carriers| {
                sunk.push((k, sup.superpose(carriers.iter().copied()), carriers[0]));
            });
        }
        prop_assert_eq!(sunk.len(), len);
        for (j, &(k, rx, dev0)) in sunk.iter().enumerate() {
            prop_assert_eq!(k, start + j);
            let r = reference[j];
            prop_assert!(same(rx.re, r.re) && same(rx.im, r.im),
                "{} devices, sample {}: {:?} vs {:?}", n_ant, k, rx, r);
            let d = blocks[0][j];
            prop_assert!((dev0.re.to_bits(), dev0.im.to_bits()) == (d.re.to_bits(), d.im.to_bits()),
                "device 0 sample {}: {:?} vs {:?}", k, dev0, d);
        }
    }

    fn coupling_factors_bounded_and_batch_consistent(
        det in 0.0f64..1.0, shadow in 0.0f64..2.0,
        n in 1usize..48, spacing in 0.0005f64..0.05) {
        let m = CouplingModel::new(det, 0.02, shadow);
        let batch = m.gain_factors(n, spacing);
        prop_assert_eq!(batch.len(), n);
        for (i, &f) in batch.iter().enumerate() {
            prop_assert!(f > 0.0 && f <= 1.0 + 1e-12);
            prop_assert!((f - m.gain_factor(i, n, spacing)).abs() < 1e-12);
        }
    }

    fn coupling_monotone_in_population_and_spacing(
        n in 2usize..32, spacing in 0.001f64..0.02) {
        let m = CouplingModel::new(0.05, 0.02, 0.1);
        // Adding a tag to the line never helps any existing tag.
        let before = m.gain_factors(n, spacing);
        let after = m.gain_factors(n + 1, spacing);
        for (i, &f) in before.iter().enumerate() {
            prop_assert!(after[i] <= f + 1e-12);
        }
        // Spreading the line out never hurts.
        let wider = m.gain_factors(n, spacing * 2.0);
        for (i, &f) in before.iter().enumerate() {
            prop_assert!(wider[i] + 1e-12 >= f);
        }
    }
}
