//! Multi-sensor deployment: several battery-free sensors at increasing
//! depth, one CIB beamformer, Gen2 arbitration — the paper's §3.7
//! multi-sensor story, plus the adaptive frequency-hopping extension.
//!
//! The sensors are the `multisensor` built-in scenario re-spaced in
//! depth: one CIB plan powers each sensor at its own instant, and the
//! reader inventories whoever woke.
//!
//! ```sh
//! cargo run --release --example multi_sensor
//! ```

use ivn::core::cib::CibConfig;
use ivn::core::hopping::{choose_center, ism_hop_set};
use ivn::core::inventory::InventoryExperiment;
use ivn::core::scenario::{builtin, ScenarioKind};
use ivn::em::channel::ChannelModel;
use ivn::em::multipath::MultipathChannel;
use ivn_runtime::rng::StdRng;

fn main() {
    // Five sensors in fluid, 2 cm to 34 cm deep, 8 cm apart: the deepest
    // lie beyond reach of the 8-antenna array.
    let mut s = builtin("multisensor").expect("built-in scenario");
    let ScenarioKind::Inventory { population, .. } = &mut s.kind else {
        unreachable!("multisensor is an inventory scenario")
    };
    population.spacing_m = 0.08;
    let count = population.count;
    let exp = InventoryExperiment::prepare(&s, false).expect("scenario resolves");

    println!(
        "Multi-sensor campaign: {count} sensors in fluid, 2-34 cm deep, {}-antenna CIB\n",
        s.array.n_antennas
    );
    println!(
        "{:>6}  {:>8}  {:>12}  {:>7}  {:>6}",
        "trial", "powered", "inventoried", "rounds", "slots"
    );
    // Trial `i` draws from the scenario seed's fork `i`, as a campaign does.
    let root = StdRng::seed_from_u64(s.seed);
    for trial in 0..s.trial_count(false) {
        let run = exp.run_trial(&root.fork(trial as u64));
        println!(
            "{:>6}  {:>8}  {:>12}  {:>7}  {:>6}",
            trial,
            format!("{}/{count}", run.powered),
            format!("{}/{}", run.inventoried, run.powered),
            run.rounds,
            run.slots
        );
    }

    // Frequency hopping: if the environment notches the 915 MHz band,
    // the beamformer probes the ISM band and camps on a clean centre.
    let cib = CibConfig::paper_prototype_n(8);
    println!("\nAdaptive hopping demo — a multipath notch at 915 MHz:");
    let channels: Vec<Box<dyn ChannelModel + Send + Sync>> = (0..8)
        .map(|k| {
            let mut r = StdRng::seed_from_u64(0xB0B + k);
            Box::new(MultipathChannel::rayleigh(&mut r, 6, 40e-9, 1.0))
                as Box<dyn ChannelModel + Send + Sync>
        })
        .collect();
    let decision = choose_center(&cib, &channels, &ism_hop_set());
    println!(
        "hopped {} → {:.0} MHz, delivered power ×{:.1}",
        if decision.carrier_hz == cib.carrier_hz {
            "(stayed)"
        } else {
            "away"
        },
        decision.carrier_hz / 1e6,
        decision.improvement()
    );
}
