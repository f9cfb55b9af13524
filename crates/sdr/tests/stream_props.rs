//! Exactness suite for [`CarrierWindows`], the window-at-a-time
//! regeneration of the carrier-on stream.
//!
//! A bit-level contract, not a tolerance: any window of
//! [`CarrierWindows`], folded in any order and any split, and the whole
//! stream folded sequentially from sample 0 in any chunk size, hand over
//! the same samples as each device's rotor stepped one sample at a time
//! times its PA gain, each at its own absolute index, once and in order.

use ivn_dsp::complex::Complex64;
use ivn_dsp::rotor::{PhasorRotor, DEFAULT_RESYNC};
use ivn_runtime::prop::any;
use ivn_runtime::rng::{Rng, StdRng};
use ivn_runtime::{prop_assert, prop_assert_eq, props};
use ivn_sdr::bank::TxBank;
use ivn_sdr::clock::ClockDistribution;
use ivn_sdr::stream::CarrierWindows;

const OFFSETS: [f64; 10] = [0., 7., 20., 49., 68., 73., 90., 113., 121., 137.];
const DRIVE: f64 = 0.05;

fn clock(free_running: bool) -> ClockDistribution {
    if free_running {
        ClockDistribution::free_running()
    } else {
        ClockDistribution::octoclock()
    }
}

fn bank(seed: u64, n: usize, rate: f64, free_running: bool) -> TxBank {
    let mut rng = StdRng::seed_from_u64(seed);
    TxBank::new(
        &mut rng,
        n,
        915e6,
        rate,
        &OFFSETS[..n],
        &clock(free_running),
    )
}

fn same_bits(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Device `i`'s carrier-on emission rebuilt sample by sample: its own
/// [`PhasorRotor`], stepped once per sample, times the PA's `am_am`
/// gain at the drive.
fn carrier_on(b: &TxBank, i: usize, len: usize) -> Vec<Complex64> {
    let dev = b.device(i);
    let mut rotor = PhasorRotor::new(b.offsets_hz()[i], b.sample_rate(), dev.pll.initial_phase());
    let g = dev.pa.am_am(DRIVE);
    (0..len).map(|_| rotor.next_sample() * g).collect()
}

/// [`carrier_on`] for every device of the bank.
fn bank_carrier_on(b: &TxBank, len: usize) -> Vec<Vec<Complex64>> {
    (0..b.len()).map(|i| carrier_on(b, i, len)).collect()
}

/// Folds the next `n` samples into one block per lane, checking that
/// the fold hands over indices `at..at + n` once each, in order.
fn fold_blocks(win: &mut CarrierWindows, at: usize, n: usize) -> Vec<Vec<Complex64>> {
    let mut blocks = vec![Vec::with_capacity(n); win.lanes()];
    let mut next = at;
    win.fold(n, |k, carriers| {
        assert_eq!(k, next, "fold skipped or repeated an index");
        assert_eq!(carriers.len(), blocks.len(), "one carrier per lane");
        for (block, &z) in blocks.iter_mut().zip(carriers) {
            block.push(z);
        }
        next += 1;
    });
    assert_eq!(
        next,
        at + n,
        "fold handed over {} of {n} samples",
        next - at
    );
    blocks
}

props! {
    cases = 24;

    fn carrier_windows_match_per_sample_rotor(
        seed in any::<u64>(), n_dev in 2usize..11, free_running in any::<bool>(),
        len in 1usize..7000, rate_sel in 0usize..4,
    ) {
        let rate = [4096.0, 32e3, 100e3, 1e6][rate_sel];
        let b = bank(seed, n_dev, rate, free_running);
        let streamed = bank_carrier_on(&b, len);

        let mut win = CarrierWindows::new(&b, DRIVE, len);
        prop_assert_eq!(win.count(), len.div_ceil(DEFAULT_RESYNC));
        let mut rng = StdRng::seed_from_u64(seed.rotate_left(17));
        // Random windows in random order, each folded in random
        // sub-blocks (a call can end and the next resume mid-row).
        for _ in 0..6 {
            let w = rng.random_range(0..win.count());
            let range = win.seek(w);
            let mut at = range.start;
            while at < range.end {
                let take = rng.random_range(1..=range.end - at);
                for (i, got) in fold_blocks(&mut win, at, take).iter().enumerate() {
                    prop_assert!(
                        same_bits(got, &streamed[i][at..at + take]),
                        "lane {} window {} samples {}..{}",
                        i, w, at, at + take
                    );
                }
                at += take;
            }
        }
    }

    fn sequential_carrier_windows_equal_per_sample_rotor(
        seed in any::<u64>(), n_dev in 1usize..11, free_running in any::<bool>(),
        len in 1usize..9000, rate_sel in 0usize..4,
    ) {
        // The power pass: a fresh `CarrierWindows` folded from sample 0
        // by back-to-back calls of a fixed chunk size, the last ragged.
        let rate = [4096.0, 32e3, 100e3, 1e6][rate_sel];
        let b = bank(seed, n_dev, rate, free_running);
        let want = bank_carrier_on(&b, len);
        for chunk in [1usize, 7, 8, 256, 1025, 4096] {
            let mut win = CarrierWindows::new(&b, DRIVE, len);
            let mut at = 0;
            while at < len {
                let take = chunk.min(len - at);
                for (i, got) in fold_blocks(&mut win, at, take).iter().enumerate() {
                    prop_assert!(
                        same_bits(got, &want[i][at..at + take]),
                        "lane {} samples {}..{} chunk {}",
                        i, at, at + take, chunk
                    );
                }
                at += take;
            }
        }
    }
}

#[test]
fn carrier_windows_cover_a_full_rate_period() {
    // A 1 MS/s period is 977 windows, the last one short; every lane of
    // every window matches the per-sample rotor. The reference is built
    // one device at a time, so memory holds one device's period, not the
    // bank's.
    let b = bank(5, 5, 1e6, true);
    let len = 1_000_000;
    let mut win = CarrierWindows::new(&b, DRIVE, len);
    assert_eq!((win.range(0).len(), win.count()), (DEFAULT_RESYNC, 977));
    for i in 0..b.len() {
        let want = carrier_on(&b, i, len);
        for w in 0..win.count() {
            let range = win.seek(w);
            let got = fold_blocks(&mut win, range.start, range.len());
            assert!(same_bits(&got[i], &want[range]), "lane {i} window {w}");
        }
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn carrier_windows_reject_seek_past_the_end() {
    let b = bank(1, 2, 4096.0, false);
    CarrierWindows::new(&b, DRIVE, 2048).seek(2);
}

#[test]
#[should_panic(expected = "past the end")]
fn carrier_windows_reject_a_fold_past_the_end() {
    let b = bank(1, 2, 4096.0, false);
    let mut win = CarrierWindows::new(&b, DRIVE, 2048);
    win.seek(1);
    win.fold(1025, |_, _| {});
}
