//! The capture counters `inventory_population` publishes. This file's
//! one test is the only code in its process that turns metrics on, so it
//! reads the process-wide counters without interference.

use ivn_rfid::anticollision::{CaptureModel, FixedQ};
use ivn_rfid::population::inventory_population;
use ivn_rfid::tag::Tag;
use ivn_runtime::obs;
use ivn_runtime::rng::{Rng, StdRng};

fn decided() -> [u64; 3] {
    [
        "rfid.capture_never",
        "rfid.capture_certified",
        "rfid.capture_exact",
    ]
    .map(|name| obs::counter(name).total())
}

#[test]
fn every_contest_handed_to_capture_is_counted_once() {
    obs::set_enabled(true);
    // Spread powers: some contests are hopeless from the mean powers,
    // most are certified, a few reach the fade loop. Every multi-reply
    // slot goes to capture and ends captured or as a collision.
    let mut draw = StdRng::seed_from_u64(8);
    let mut handed = 0;
    for _ in 0..4 {
        let mut tags: Vec<Tag> = (0..512)
            .map(|i| {
                let mut t = Tag::with_epc96(0x5000 + i as u128, draw.random());
                t.set_powered(true);
                t
            })
            .collect();
        let powers: Vec<f64> = (0..512).map(|_| draw.random_range(0.1..10.0)).collect();
        let mut cap = CaptureModel::new(powers, 6.0, 3.0, draw.fork(1));
        let out = inventory_population(&mut FixedQ::new(6), Some(&mut cap), &mut tags, 256);
        assert!(out.terminated);
        handed += out.total_collisions() + out.total_captures();
        let counts = decided();
        assert_eq!(counts.iter().sum::<u64>(), handed as u64, "{counts:?}");
    }
    let counts = decided();
    assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    // The powf loop decides a small share of the contests.
    assert!(counts[2] * 20 < handed as u64, "{counts:?}");
    // Without capture nothing reaches the counters.
    let mut tags: Vec<Tag> = (0..64).map(|i| Tag::with_epc96(i, i as u64)).collect();
    tags.iter_mut().for_each(|t| t.set_powered(true));
    inventory_population(&mut FixedQ::new(3), None, &mut tags, 64);
    assert_eq!(decided(), counts);
}
