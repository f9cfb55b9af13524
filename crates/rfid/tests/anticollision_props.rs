//! Property-based tests for the anti-collision seam: the population
//! driver must equal the broadcast reader for every arm, every policy
//! must converge with slot spend proportional to the tag count, the
//! capture model must be bit-deterministic under fork-per-trial RNG at
//! any thread count, and collision pressure must grow with the
//! population.

use ivn_rfid::anticollision::{AdaptiveQ, AntiCollision, CaptureModel, FixedQ, SchouteQ};
use ivn_rfid::commands::Session;
use ivn_rfid::epc::Epc;
use ivn_rfid::population::inventory_population;
use ivn_rfid::reader::{QAlgorithm, Reader};
use ivn_rfid::tag::Tag;
use ivn_runtime::par;
use ivn_runtime::prop::any;
use ivn_runtime::rng::{Rng, StdRng};
use ivn_runtime::{prop_assert, prop_assert_eq, props};

/// A powered population of `n` tags seeded from `rng`.
fn population(n: usize, rng: &mut StdRng) -> Vec<Tag> {
    (0..n)
        .map(|i| {
            let mut t = Tag::with_epc96(0x7000_0000 + i as u128, rng.random());
            t.set_powered(true);
            t
        })
        .collect()
}

/// Like [`population`], but each tag's EPC is 16, 96, 128 or 496 bits
/// long (drawn per tag): random bits, then the tag index in the last
/// 16, so EPCs stay unique for up to 2^16 tags.
fn mixed_population(n: usize, rng: &mut StdRng) -> Vec<Tag> {
    (0..n)
        .map(|i| {
            let len = [16, 96, 128, 496][rng.random_range(0..4usize)];
            let mut bits: Vec<bool> = (0..len - 16).map(|_| rng.random()).collect();
            bits.extend((0..16).rev().map(|k| (i >> k) & 1 == 1));
            let mut t = Tag::new(Epc::from_bits(&bits), rng.random());
            t.set_powered(true);
            t
        })
        .collect()
}

/// The three policy arms, with the fixed arm sized to the population.
fn arms(n: usize) -> Vec<Box<dyn AntiCollision>> {
    let q_fit = (n.max(2) as f64).log2().ceil() as u8;
    vec![
        Box::new(QAlgorithm::default().policy()),
        Box::new(FixedQ::new(q_fit)),
        Box::new(SchouteQ::new(4)),
    ]
}

props! {
    cases = 16;

    // Q convergence: whatever the arm, an inventory of n tags finishes
    // within the round budget and spends slots proportional to n — the
    // frame size tracks the backlog instead of wandering off.
    fn every_policy_converges_with_linear_slot_spend(
        n in 4usize..64, seed in 0u64..1 << 48) {
        let root = StdRng::seed_from_u64(seed);
        for mut policy in arms(n) {
            let mut rng = root.fork(0);
            let mut tags = population(n, &mut rng);
            let out = inventory_population(policy.as_mut(), None, &mut tags, 256);
            prop_assert!(out.terminated, "{} left {} of {} tags unread",
                         policy.name(), n - out.epcs.len(), n);
            prop_assert_eq!(out.epcs.len(), n);
            let slots = out.total_slots();
            prop_assert!(slots >= n, "{}: {} slots for {} tags", policy.name(), slots, n);
            prop_assert!(slots <= 32 * n + 64,
                         "{}: {} slots for {} tags", policy.name(), slots, n);
        }
    }

    // Capture determinism: a trial consumes only forks of its stream,
    // so an ensemble is bit-identical at 1, 2, and 8 threads.
    fn capture_trials_thread_invariant(
        n in 2usize..24, seed in 0u64..1 << 48,
        threshold_db in 1.0f64..9.0, fade_db in 0.0f64..6.0) {
        let run = |threads: usize| {
            par::ensemble_threads(threads, 6, seed, |rng, _| {
                let mut tags = population(n, rng);
                let powers: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
                let mut capture =
                    CaptureModel::new(powers, threshold_db, fade_db, rng.fork(n as u64));
                let mut policy = AdaptiveQ::new(QAlgorithm::default());
                let out =
                    inventory_population(&mut policy, Some(&mut capture), &mut tags, 64);
                (out.total_slots(), out.total_captures(), out.epcs)
            })
        };
        let serial = run(1);
        prop_assert_eq!(&run(2), &serial);
        prop_assert_eq!(&run(8), &serial);
    }

    // Collision pressure is monotone in population size: at a fixed
    // frame size, four times the tags never produce fewer collisions
    // (summed over an ensemble to wash out per-trial noise).
    fn collisions_grow_with_population(
        n in 2usize..16, q in 3u8..6, seed in 0u64..1 << 48) {
        let collisions = |count: usize| -> usize {
            par::ensemble_threads(1, 12, seed, |rng, _| {
                let mut tags = population(count, rng);
                let mut policy = FixedQ::new(q);
                inventory_population(&mut policy, None, &mut tags, 128)
                    .total_collisions()
            })
            .into_iter()
            .sum()
        };
        let small = collisions(n);
        let large = collisions(4 * n + 8);
        prop_assert!(large >= small,
                     "collisions fell from {small} to {large} when {n} tags became {}",
                     4 * n + 8);
    }
}

/// Every arm at frame size `q`, plus the largest frames: an adaptive
/// start at Q = 15 and a fixed Q of 9..=15 (two radix digits).
fn arms_at(q: u8, c: f64) -> Vec<Box<dyn AntiCollision>> {
    vec![
        Box::new(AdaptiveQ::new(QAlgorithm { q0: q, c })),
        Box::new(AdaptiveQ::new(QAlgorithm { q0: 15, c })),
        Box::new(FixedQ::new(q)),
        Box::new(FixedQ::new(9 + q % 7)),
        Box::new(SchouteQ::new(q)),
    ]
}

props! {
    cases = 24;

    // Identity: the population driver's whole outcome equals the
    // broadcast reader's for every arm, with and without capture. The
    // reader gets the powered tags only — unpowered ones never reply,
    // but it would count them as unread — with capture powers
    // re-indexed to match, so replier order and fades line up. Mixed
    // EPC lengths make the reader pack replies other than 96 bits.
    fn population_driver_equals_broadcast_reader(
        n in 1usize..129, q in 0u8..16, c in 0.0f64..1.0,
        unpowered_in_8 in 0u32..4, seed in 0u64..1 << 48, mixed_lengths in any::<bool>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tags = if mixed_lengths {
            mixed_population(n, &mut rng)
        } else {
            population(n, &mut rng)
        };
        for t in tags.iter_mut() {
            t.set_powered(rng.random_range(0..8u32) >= unpowered_in_8);
        }
        let powers: Vec<f64> = (0..n).map(|_| rng.random_range(0.5..8.0)).collect();
        let (powered_tags, powered_powers): (Vec<Tag>, Vec<f64>) = tags
            .iter()
            .zip(&powers)
            .filter(|(t, _)| t.is_powered())
            .map(|(t, &p)| (t.clone(), p))
            .unzip();
        let capture_seed = rng.random::<u64>();
        let capture = |powers: &[f64]| {
            CaptureModel::new(powers.to_vec(), 3.0, 6.0, StdRng::seed_from_u64(capture_seed))
        };
        for with_capture in [false, true] {
            for (mut fast_policy, slow_policy) in arms_at(q, c).into_iter().zip(arms_at(q, c)) {
                let mut fast_tags = tags.clone();
                let mut fast_capture = with_capture.then(|| capture(&powers));
                let fast = inventory_population(
                    fast_policy.as_mut(), fast_capture.as_mut(), &mut fast_tags, 64);

                let name = slow_policy.name();
                let mut reader = Reader::with_policy(Session::S0, slow_policy);
                if with_capture {
                    reader.set_capture(capture(&powered_powers));
                }
                let slow = reader.inventory_all(&mut powered_tags.clone(), 64);
                prop_assert!(fast == slow,
                             "{name} (capture {with_capture}) diverged: {:?} vs {:?} rounds",
                             fast.rounds, slow.rounds);
            }
        }
    }
}

/// `CaptureModel::arbitrate` before its no-capture early-out, verbatim:
/// one fade per replier, in order, then the capture test.
fn reference_arbitrate(
    powers: &[f64],
    ratio_lin: f64,
    fade_db: f64,
    rng: &mut StdRng,
    replier_tags: &[usize],
) -> Option<usize> {
    let mut best = 0usize;
    let mut best_p = f64::NEG_INFINITY;
    let mut total = 0.0;
    for (k, &tag_idx) in replier_tags.iter().enumerate() {
        let u: f64 = rng.random();
        let fade = 10f64.powf(fade_db * (2.0 * u - 1.0) / 10.0);
        let p = powers.get(tag_idx).copied().unwrap_or(1.0) * fade;
        total += p;
        if p > best_p {
            best_p = p;
            best = k;
        }
    }
    let rest = total - best_p;
    (rest <= 0.0 || best_p >= ratio_lin * rest).then_some(best)
}

/// A mean power: mostly spread over six decades, sometimes one of the
/// values the early-out must refuse (zero, negative, infinite, NaN).
fn contest_power(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..24u32) {
        0 => 0.0,
        1 => -1.0,
        2 => f64::INFINITY,
        3 => f64::NAN,
        _ => 10f64.powf(6.0 * rng.random::<f64>() - 3.0),
    }
}

props! {
    cases = 256;

    // The no-capture early-out is exact: for any powers, fade, threshold
    // and replier set (repeats and unknown tag indices included), a
    // contest returns what the full fade loop returns and leaves the
    // model's RNG where that loop leaves it.
    fn arbitrate_equals_the_full_fade_loop(
        seed in any::<u64>(),
        n_tags in 1usize..40,
        threshold_db in -3.0f64..12.0,
        fade_db in -2.0f64..12.0,
        repliers in 0usize..12
    ) {
        let mut draw = StdRng::seed_from_u64(seed);
        let powers: Vec<f64> = (0..n_tags).map(|_| contest_power(&mut draw)).collect();
        let mut model =
            CaptureModel::new(powers.clone(), threshold_db, fade_db, draw.fork(1));
        let mut rng = draw.fork(1);
        let ratio_lin = 10f64.powf(threshold_db / 10.0);
        for _ in 0..8 {
            // Indices past the table fall back to unit power.
            let tags: Vec<usize> =
                (0..repliers).map(|_| draw.random_range(0..n_tags + 2)).collect();
            let want = reference_arbitrate(&powers, ratio_lin, fade_db, &mut rng, &tags);
            let got = model.arbitrate(&tags);
            prop_assert!(got == want, "{got:?} != {want:?} for repliers {tags:?}");
            // The whole model, RNG state included, as the loop leaves it
            // (compared as text, so NaN powers compare equal).
            let expect = CaptureModel::new(powers.clone(), threshold_db, fade_db, rng.clone());
            prop_assert_eq!(format!("{model:?}"), format!("{expect:?}"));
        }
    }
}

/// One of the certificate's boundaries for [`boundary_contest`].
#[derive(Debug, Clone, Copy)]
enum Edge {
    /// The top-two log gap near 0: the argmax is a near-tie.
    Tie,
    /// Near `ln ratio`, the rest beyond the runner-up negligible.
    NoCapture,
    /// Near `ln ratio + ln(n−1)`, all `n − 1` others level.
    Capture,
}

/// Mean powers that put a contest of `n` repliers `0..n` on `edge`,
/// read off the fades `rng` will draw: the winner's log power (faded)
/// is 0 and the runner-up's sits `edge + δ` below it, `δ` within ±1e-6
/// at any scale down to 10⁻¹⁷, or 0.
fn boundary_contest(
    draw: &mut StdRng,
    rng: &StdRng,
    n: usize,
    edge: Edge,
    ratio_lin: f64,
    fade_db: f64,
) -> Vec<f64> {
    let k = fade_db * std::f64::consts::LN_10 / 10.0;
    let mut peek = rng.clone();
    let fades: Vec<f64> = (0..n)
        .map(|_| k * (2.0 * peek.random::<f64>() - 1.0))
        .collect();
    let delta = match draw.random_range(0..3u32) {
        0 => 0.0,
        s => (2.0 * f64::from(s) - 3.0) * 10f64.powf(-draw.random_range(6.0..17.0)),
    };
    let others = (n.max(2) - 1) as f64;
    let gap = delta
        + match edge {
            Edge::Tie => 0.0,
            Edge::NoCapture => ratio_lin.ln(),
            Edge::Capture => ratio_lin.ln() + others.ln(),
        };
    let winner = draw.random_range(0..n.max(1));
    let runner_up = (winner + 1) % n.max(1);
    (0..n)
        .map(|i| {
            let l = if i == winner {
                0.0
            } else if i == runner_up || !matches!(edge, Edge::NoCapture) {
                -gap
            } else {
                -gap - 40.0
            };
            (l - fades[i]).exp()
        })
        .collect()
}

props! {
    cases = 2048;

    // The log certificate is exact at its own boundaries: contests whose
    // top-two log gap sits within ±1e-6 of 0, of `ln ratio` and of
    // `ln ratio + ln(n−1)` return what the full fade loop returns and
    // leave the model as it leaves it. So do contests of 0 or 1
    // repliers, unknown tag indices, zero, negative, infinite, NaN or
    // extreme powers, negative fades, and thresholds high enough that
    // the certificate's cap on `n` binds. Low thresholds let near-ties
    // capture; high ones make the loop's sums round far enough to matter.
    fn arbitrate_equals_the_fade_loop_on_certificate_boundaries(
        seed in any::<u64>(),
        edge in 0usize..3,
        n in 0usize..40,
        degenerate in any::<bool>(),
        fade_db in -6.0f64..12.0
    ) {
        let mut draw = StdRng::seed_from_u64(seed);
        let rng = draw.fork(1);
        let n = if draw.random() { n % 4 } else { n };
        let threshold_db = [-6.0..0.0, 0.0..12.0, 55.0..75.0][draw.random_range(0..3usize)].clone();
        let threshold_db = draw.random_range(threshold_db);
        // Now and then a fade so wide that `|k|` leaves the log table's range.
        let fade_db = if draw.random_range(0..8u32) == 0 { fade_db * 400.0 } else { fade_db };
        let ratio_lin = 10f64.powf(threshold_db / 10.0);
        let edge = [Edge::Tie, Edge::NoCapture, Edge::Capture][edge];
        let mut powers = boundary_contest(&mut draw, &rng, n, edge, ratio_lin, fade_db);
        let mut tags: Vec<usize> = (0..n).collect();
        if degenerate {
            for i in 0..n {
                match draw.random_range(0..6u32) {
                    0 | 5 => tags[i] = n + draw.random_range(0..2usize),
                    1 => powers[i] = [0.0, -1.0, f64::INFINITY, f64::NAN, 1e-310, 1.7e308]
                        [draw.random_range(0..6usize)],
                    _ => {}
                }
            }
        }
        let mut model = CaptureModel::new(powers.clone(), threshold_db, fade_db, rng.clone());
        let mut loop_rng = rng;
        let want = reference_arbitrate(&powers, ratio_lin, fade_db, &mut loop_rng, &tags);
        let got = model.arbitrate(&tags);
        prop_assert!(got == want, "{edge:?}: {got:?} != {want:?} for powers {powers:?}");
        let expect = CaptureModel::new(powers, threshold_db, fade_db, loop_rng);
        prop_assert_eq!(format!("{model:?}"), format!("{expect:?}"));
    }
}
