//! Exactness suite for the streaming emitter's run-length hot loop and
//! for [`CarrierWindows`], the window-at-a-time regeneration of the
//! carrier-on stream.
//!
//! Both are bit-level contracts, not tolerances:
//! - an [`EmitterLane`] fed any profile, in any block size, emits
//!   exactly `rotor(k) · g(level)` per sample, where the reference
//!   rebuilds every sample on its own from a [`PhasorRotor`] and the
//!   PA's `am_am`;
//! - any window of [`CarrierWindows`], regenerated in any order and any
//!   split, equals the same samples of a [`BankStreamer`] fed the
//!   constant-1.0 profile, at any worker count.

use ivn_dsp::block::BlockStage;
use ivn_dsp::complex::Complex64;
use ivn_dsp::rotor::{PhasorRotor, DEFAULT_RESYNC};
use ivn_runtime::prop::any;
use ivn_runtime::rng::{Rng, StdRng};
use ivn_runtime::{prop_assert, prop_assert_eq, props};
use ivn_sdr::bank::TxBank;
use ivn_sdr::clock::ClockDistribution;
use ivn_sdr::stream::{BankStreamer, CarrierWindows, EmitterLane};

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

/// Device `i`'s emission rebuilt sample by sample: its own rotor, the
/// profile level at `k − shift` (1.0 outside the command) and the PA's
/// signed `am_am` gain for that level.
fn per_sample_reference(b: &TxBank, i: usize, profile: &[f64], drive: f64) -> Vec<Complex64> {
    let dev = b.device(i);
    let shift = EmitterLane::new(b, i, drive).shift();
    let mut rotor = PhasorRotor::new(b.offsets_hz()[i], b.sample_rate(), dev.pll.initial_phase());
    (0..profile.len())
        .map(|k| {
            let idx = k as i64 - shift;
            let amp = if (0..profile.len() as i64).contains(&idx) {
                profile[idx as usize]
            } else {
                1.0
            };
            let a = amp * drive;
            let g = dev.pa.am_am(a.abs());
            rotor.next_sample() * if a.is_sign_negative() { -g } else { g }
        })
        .collect()
}

/// A profile of runs: full carrier, 0.0 notches, intermediate and
/// negative levels, with run lengths from 1 sample up.
fn notched_profile(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let levels = [1.0, 0.0, 0.5, 1.0, 0.25, -0.75, 1.0];
    let mut p = Vec::with_capacity(n);
    while p.len() < n {
        let level = levels[rng.random_range(0..levels.len())];
        let run = if rng.random::<bool>() {
            rng.random_range(1..4usize)
        } else {
            rng.random_range(1..900usize)
        };
        p.extend(std::iter::repeat_n(level, run.min(n - p.len())));
    }
    p
}

props! {
    cases = 24;

    fn run_length_emission_matches_per_sample_reconstruction(
        seed in any::<u64>(), n_dev in 1usize..5, free_running in any::<bool>(),
        len in 1usize..6000, rate_sel in 0usize..3,
    ) {
        let rate = [4096.0, 100e3, 1e6][rate_sel];
        let b = bank(seed, n_dev, rate, free_running);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let profile = notched_profile(&mut rng, len);
        for i in 0..b.len() {
            let want = per_sample_reference(&b, i, &profile, DRIVE);
            for block in [1usize, 7, 64, 4096] {
                let mut lane = EmitterLane::new(&b, i, DRIVE);
                let mut out = Vec::new();
                for chunk in profile.chunks(block) {
                    lane.push(chunk, &mut out);
                }
                // The flush path drains the held-back samples of lanes
                // that fire early.
                lane.flush(&mut out);
                prop_assert!(
                    same_bits(&out, &want),
                    "device {} block {} (shift {}) diverged", i, block, lane.shift()
                );
            }
        }
    }

    fn carrier_windows_match_bank_streamer(
        seed in any::<u64>(), n_dev in 2usize..11, free_running in any::<bool>(),
        len in 1usize..7000, block in 1usize..3000, thread_sel in 0usize..3,
        rate_sel in 0usize..4,
    ) {
        let rate = [4096.0, 32e3, 100e3, 1e6][rate_sel];
        let threads = [1usize, 2, 8][thread_sel];
        let b = bank(seed, n_dev, rate, free_running);
        let profile = vec![1.0; len];
        let mut st = BankStreamer::new(&b, DRIVE, threads);
        let mut streamed: Vec<Vec<Complex64>> = vec![Vec::new(); b.len()];
        for chunk in profile.chunks(block) {
            st.push(chunk);
            for (i, s) in streamed.iter_mut().enumerate() {
                s.extend_from_slice(st.block(i));
            }
        }
        st.flush();
        for (i, s) in streamed.iter_mut().enumerate() {
            s.extend_from_slice(st.block(i));
        }

        let mut win = CarrierWindows::new(&b, DRIVE, len);
        prop_assert_eq!(win.count(), len.div_ceil(DEFAULT_RESYNC));
        let mut rng = StdRng::seed_from_u64(seed.rotate_left(17));
        // Random windows in random order, each regenerated in random
        // sub-blocks (the rotor's fill is split-invariant after a seek).
        for _ in 0..6 {
            let w = rng.random_range(0..win.count());
            let range = win.seek(w);
            let mut at = range.start;
            while at < range.end {
                let take = rng.random_range(1..=range.end - at);
                win.emit(take);
                for (i, got) in win.blocks().enumerate() {
                    prop_assert!(
                        same_bits(got, &streamed[i][at..at + take]),
                        "lane {} window {} samples {}..{} at {} threads",
                        i, w, at, at + take, threads
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
    // every window matches the streamer. Windows are checked as soon as
    // the stream has passed them, then dropped, so memory stays small.
    let b = bank(5, 5, 1e6, true);
    let len = 1_000_000;
    let mut st = BankStreamer::new(&b, DRIVE, 1);
    let mut win = CarrierWindows::new(&b, DRIVE, len);
    assert_eq!((win.range(0).len(), win.count()), (DEFAULT_RESYNC, 977));
    let profile = vec![1.0; 4096];
    let mut pending: Vec<Vec<Complex64>> = vec![Vec::new(); b.len()];
    let (mut pushed, mut w) = (0, 0);
    while w < win.count() {
        if pushed < len {
            let take = profile.len().min(len - pushed);
            st.push(&profile[..take]);
            pushed += take;
        } else {
            st.flush();
        }
        for (i, p) in pending.iter_mut().enumerate() {
            p.extend_from_slice(st.block(i));
        }
        while w < win.count() && pending[0].len() >= win.range(w).len() {
            let n = win.seek(w).len();
            win.emit(n);
            for (i, got) in win.blocks().enumerate() {
                assert!(same_bits(got, &pending[i][..n]), "lane {i} window {w}");
            }
            for p in &mut pending {
                p.drain(..n);
            }
            w += 1;
        }
    }
    assert!(pending.iter().all(Vec::is_empty));
}

#[test]
#[should_panic(expected = "out of range")]
fn carrier_windows_reject_seek_past_the_end() {
    let b = bank(1, 2, 4096.0, false);
    CarrierWindows::new(&b, DRIVE, 2048).seek(2);
}
