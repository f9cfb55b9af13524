//! Multi-tag inventory experiments: link budgets + inter-tag coupling
//! feeding a full Gen2 anti-collision inventory.
//!
//! This is the one multi-tag trial: a few sensors powered by one CIB
//! plan, each at its own instant (paper §3.7, the `multisensor`
//! builtin), and a dense population (the `inventory` builtin) both run
//! here. A [`ScenarioKind::Inventory`] scenario declares a
//! [`TagPopulation`](crate::scenario::TagPopulation) (count, spacing,
//! coupling knobs) and a [`PolicySpec`]; [`InventoryExperiment`]
//! resolves everything that is trial-invariant **once** — per-tag
//! placements along the geometry axis, coupling gain factors, the
//! nominal budget's powered flags and capture model (its tables shared
//! by every policy arm), and the CIB frequency plan (through the global
//! plan cache, so a fleet of
//! bodies sharing an array computes the plan one time) — and then runs
//! trials through [`ivn_rfid::population::inventory_population`].
//!
//! Determinism: a trial consumes only forks of its trial stream — tag
//! `i` draws from `fork(i)` (channel realization + protocol RNG seed)
//! and the reader-side capture contests from `fork(count)` — so results
//! are bit-identical at any thread count.
//!
//! Two trial flavours share the protocol stage:
//!
//! * [`run_trial`](InventoryExperiment::run_trial) draws blind per-tag
//!   channels (the physical campaign path used by `evaluate`);
//! * [`run_trial_nominal`](InventoryExperiment::run_trial_nominal)
//!   powers tags from the precomputed nominal link budget (coherent CIB
//!   peak), skipping the per-tag channel draws — the bench fleet uses it
//!   to push millions of tag-sessions through the protocol layer.

use crate::body::Placement;
use crate::body::TagSpec;
use crate::cib::CibConfig;
use crate::scenario::{PolicySpec, Scenario, ScenarioKind};
use ivn_dsp::units::dbm_to_watts;
use ivn_rfid::anticollision::CaptureModel;
use ivn_rfid::population::inventory_population;
use ivn_rfid::tag::Tag;
use ivn_runtime::rng::{Rng, StdRng};

/// EPC base for inventory populations; tag `i` gets `base + i`.
const INVENTORY_EPC_BASE: u128 = 0x3006_0000_0000_0000_0000_0000;

/// Aggregate outcome of one inventory trial (one body, one population).
#[derive(Debug, Clone, PartialEq)]
pub struct InventoryRun {
    /// Population size.
    pub(crate) population: usize,
    /// Tags that harvested enough power to participate.
    pub powered: usize,
    /// Tags actually inventoried.
    pub inventoried: usize,
    /// Inventory rounds executed.
    pub rounds: usize,
    /// Whether every powered tag was read before `max_rounds`.
    pub terminated: bool,
    /// Total protocol slots.
    pub slots: usize,
    /// Total collision slots.
    pub collisions: usize,
    /// Collision slots resolved by capture.
    pub captures: usize,
}

/// A prepared inventory experiment: everything trial-invariant resolved.
#[derive(Debug, Clone)]
pub struct InventoryExperiment {
    cib: CibConfig,
    spec: TagSpec,
    placements: Vec<Placement>,
    coupling: Vec<f64>,
    /// Whether each tag powers on the nominal budget.
    nominal_powered: Vec<bool>,
    /// The capture model over the nominal budget (reseeded per trial).
    nominal_capture: CaptureModel,
    policy: PolicySpec,
    max_rounds: usize,
    capture_db: f64,
    fade_db: f64,
    eirp_w: f64,
}

impl InventoryExperiment {
    /// Resolves an `inventory` scenario: per-tag placements, coupling
    /// factors, nominal link budgets and the (cached) frequency plan.
    pub fn prepare(s: &Scenario, quick: bool) -> Result<Self, String> {
        let ScenarioKind::Inventory {
            population,
            policy,
            max_rounds,
            capture_db,
            fade_db,
        } = &s.kind
        else {
            return Err(format!(
                "scenario '{}' is not inventory (kind '{}')",
                s.name,
                s.kind.type_name()
            ));
        };
        let cib = s.cib(quick);
        let spec = s.tag.spec();
        let eirp_w = dbm_to_watts(s.eirp_dbm);
        let coupling = population
            .coupling()
            .gain_factors(population.count, population.spacing_m);
        let placements = (0..population.count)
            .map(|i| {
                s.placement
                    .at_offset(i as f64 * population.spacing_m)
                    .resolve()
                    .map_err(|e| e.reason)
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Nominal budget at the coherent CIB peak: N² over one antenna.
        let n2 = (cib.n() * cib.n()) as f64;
        let nominal_powers: Vec<f64> = placements
            .iter()
            .zip(&coupling)
            .map(|(p, c)| p.nominal_rx_power(&spec, eirp_w, cib.carrier_hz) * n2 * c)
            .collect();
        Ok(InventoryExperiment {
            nominal_powered: (nominal_powers.iter())
                .map(|&p| spec.power.can_power_at_peak(p))
                .collect(),
            // Each trial replaces the RNG with its own capture stream.
            nominal_capture: CaptureModel::new(
                nominal_powers,
                *capture_db,
                *fade_db,
                StdRng::seed_from_u64(0),
            ),
            cib,
            spec,
            placements,
            coupling,
            policy: policy.clone(),
            max_rounds: *max_rounds,
            capture_db: *capture_db,
            fade_db: *fade_db,
            eirp_w,
        })
    }

    /// Population size.
    pub fn count(&self) -> usize {
        self.placements.len()
    }

    /// Same experiment with a different policy arm.
    pub fn with_policy(&self, policy: PolicySpec) -> Self {
        InventoryExperiment {
            policy,
            ..self.clone()
        }
    }

    /// One physical trial: blind per-tag channel draws (tag `i` from
    /// `rng.fork(i)`), coupling-scaled CIB peak powers, then the full
    /// anti-collision inventory.
    pub fn run_trial(&self, rng: &StdRng) -> InventoryRun {
        let n = self.count();
        let mut tags = Vec::with_capacity(n);
        let mut powers = Vec::with_capacity(n);
        for i in 0..n {
            let mut tag_rng = rng.fork(i as u64);
            let trial = self.placements[i].draw_trial(
                &mut tag_rng,
                self.cib.n(),
                &self.spec,
                self.eirp_w,
                self.cib.carrier_hz,
            );
            let peak = self.cib.received_peak_power(&trial.channels) * self.coupling[i];
            tags.push(self.tag(i, self.spec.power.can_power_at_peak(peak), tag_rng.random()));
            powers.push(peak);
        }
        let capture = CaptureModel::new(powers, self.capture_db, self.fade_db, rng.clone());
        self.run_protocol(rng, tags, &capture)
    }

    /// One protocol-dominated trial: tags power from the precomputed
    /// nominal budget (no channel draws); RNG is spent only on per-tag
    /// protocol seeds and capture contests. Bit-deterministic per trial
    /// stream, ~µs per tag — the fleet-scale bench path.
    pub fn run_trial_nominal(&self, rng: &StdRng) -> InventoryRun {
        let tags = (self.nominal_powered.iter().enumerate())
            .map(|(i, &on)| self.tag(i, on, rng.fork(i as u64).random()))
            .collect();
        self.run_protocol(rng, tags, &self.nominal_capture)
    }

    fn tag(&self, i: usize, powered: bool, seed: u64) -> Tag {
        let mut tag = Tag::with_epc96(INVENTORY_EPC_BASE + i as u128, seed);
        tag.set_powered(powered);
        tag
    }

    fn run_protocol(&self, rng: &StdRng, mut tags: Vec<Tag>, cap: &CaptureModel) -> InventoryRun {
        let powered = tags.iter().filter(|t| t.is_powered()).count();
        let mut policy = self.policy.build();
        // `cap`'s tables, with this trial's own capture stream.
        let mut capture =
            (self.capture_db > 0.0).then(|| cap.with_rng(rng.fork(self.count() as u64)));
        let out = inventory_population(
            policy.as_mut(),
            capture.as_mut(),
            &mut tags,
            self.max_rounds,
        );
        InventoryRun {
            population: self.count(),
            powered,
            inventoried: out.epcs.len(),
            rounds: out.rounds.len(),
            terminated: out.terminated,
            slots: out.total_slots(),
            collisions: out.total_collisions(),
            captures: out.total_captures(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{builtin, ArraySpec, PlacementSpec};

    fn prepared() -> InventoryExperiment {
        InventoryExperiment::prepare(&builtin("inventory").unwrap(), true).unwrap()
    }

    /// The `multisensor` builtin (capture and coupling off) re-placed:
    /// `count` sensors `spacing_m` apart from `placement`, read by the
    /// first `n` antennas of the paper array.
    fn sensors(
        placement: PlacementSpec,
        count: usize,
        spacing_m: f64,
        n: usize,
    ) -> InventoryExperiment {
        let mut s = builtin("multisensor").unwrap();
        s.placement = placement;
        s.array = ArraySpec::paper(n);
        let ScenarioKind::Inventory { population, .. } = &mut s.kind else {
            panic!("multisensor is an inventory scenario")
        };
        population.count = count;
        population.spacing_m = spacing_m;
        InventoryExperiment::prepare(&s, true).unwrap()
    }

    #[test]
    fn nearby_population_is_fully_inventoried() {
        let exp = sensors(PlacementSpec::FreeSpace { range_m: 2.0 }, 5, 0.3, 8);
        let run = exp.run_trial(&StdRng::seed_from_u64(1));
        assert_eq!((run.powered, run.inventoried), (5, 5), "{run:?}");
        assert!(run.terminated);
    }

    #[test]
    fn out_of_reach_tail_is_unpowered_and_unread() {
        // Tag `i` draws from `fork(i)`, so the head of a population sees
        // the same channel as a population of the head alone: when the
        // head alone powers and is read, and the whole population
        // powers and reads exactly one tag, the one left out is the tail.
        let cases = [
            (PlacementSpec::FreeSpace { range_m: 2.0 }, 498.0, 4, 2),
            (PlacementSpec::WaterTank { depth_m: 0.05 }, 0.40, 8, 3),
        ];
        for (placement, spacing_m, n, seed) in cases {
            let rng = StdRng::seed_from_u64(seed);
            let head = sensors(placement.clone(), 1, spacing_m, n).run_trial(&rng);
            assert_eq!(
                (head.powered, head.inventoried),
                (1, 1),
                "{placement:?}: {head:?}"
            );
            let run = sensors(placement.clone(), 2, spacing_m, n).run_trial(&rng);
            assert_eq!(
                (run.powered, run.inventoried),
                (1, 1),
                "{placement:?}: {run:?}"
            );
            assert!(run.terminated, "{placement:?}: {run:?}");
        }
    }

    #[test]
    fn builtin_inventory_reads_the_population() {
        let exp = prepared();
        let rng = StdRng::seed_from_u64(7);
        let run = exp.run_trial(&rng);
        assert_eq!(run.population, 64);
        assert!(run.powered > 32, "only {} powered", run.powered);
        assert_eq!(run.inventoried, run.powered);
        assert!(run.terminated, "{run:?}");
        assert!(run.rounds > 0 && run.slots >= run.powered);
    }

    #[test]
    fn trials_are_deterministic_per_stream() {
        let exp = prepared();
        let rng = StdRng::seed_from_u64(11);
        assert_eq!(exp.run_trial(&rng), exp.run_trial(&rng));
        assert_eq!(exp.run_trial_nominal(&rng), exp.run_trial_nominal(&rng));
    }

    #[test]
    fn nominal_path_powers_shallow_tags_only() {
        // The builtin spreads 64 tags from 2 cm down to ~14.6 cm of
        // water: the shallow half powers on the nominal budget, the deep
        // tail does not — and everyone powered gets read.
        let exp = prepared();
        let rng = StdRng::seed_from_u64(3);
        let run = exp.run_trial_nominal(&rng);
        assert!(
            run.powered > 32 && run.powered < 64,
            "powered {}",
            run.powered
        );
        assert!(run.terminated);
        assert_eq!(run.inventoried, run.powered);
    }

    /// `run_trial_nominal` as each body ran it before `prepare` kept the
    /// powered flags and the capture table: the nominal budget, the
    /// tags and a fresh `CaptureModel::new` rebuilt per body.
    fn nominal_trial_rebuilt(exp: &InventoryExperiment, rng: &StdRng) -> InventoryRun {
        let n2 = (exp.cib.n() * exp.cib.n()) as f64;
        let powers: Vec<f64> = (exp.placements.iter().zip(&exp.coupling))
            .map(|(p, c)| p.nominal_rx_power(&exp.spec, exp.eirp_w, exp.cib.carrier_hz) * n2 * c)
            .collect();
        let mut tags: Vec<Tag> = (0..exp.count())
            .map(|i| {
                let seed = rng.fork(i as u64).random();
                let mut tag = Tag::with_epc96(INVENTORY_EPC_BASE + i as u128, seed);
                tag.set_powered(exp.spec.power.can_power_at_peak(powers[i]));
                tag
            })
            .collect();
        let powered = tags.iter().filter(|t| t.is_powered()).count();
        let mut capture = (exp.capture_db > 0.0).then(|| {
            let rng = rng.fork(exp.count() as u64);
            CaptureModel::new(powers, exp.capture_db, exp.fade_db, rng)
        });
        let mut policy = exp.policy.build();
        let out =
            inventory_population(policy.as_mut(), capture.as_mut(), &mut tags, exp.max_rounds);
        InventoryRun {
            population: exp.count(),
            powered,
            inventoried: out.epcs.len(),
            rounds: out.rounds.len(),
            terminated: out.terminated,
            slots: out.total_slots(),
            collisions: out.total_collisions(),
            captures: out.total_captures(),
        }
    }

    #[test]
    fn nominal_trials_equal_bodies_rebuilt_from_the_budget() {
        let exp = prepared();
        let root = StdRng::seed_from_u64(17);
        let mut captures = 0;
        for policy in PolicySpec::default_arms() {
            let arm = exp.with_policy(policy.clone());
            for body in 0..64 {
                let rng = root.fork(body);
                let run = arm.run_trial_nominal(&rng);
                assert_eq!(
                    run,
                    nominal_trial_rebuilt(&arm, &rng),
                    "{} body {body}",
                    policy.name()
                );
                assert!(run.powered > 0 && run.powered < run.population, "{run:?}");
                captures += run.captures;
            }
        }
        assert!(captures > 0, "no body reached the capture model");
    }

    #[test]
    fn every_policy_arm_completes() {
        let exp = prepared();
        let rng = StdRng::seed_from_u64(21);
        for policy in PolicySpec::default_arms() {
            let run = exp.with_policy(policy.clone()).run_trial_nominal(&rng);
            assert!(run.terminated, "{} did not finish: {run:?}", policy.name());
            assert_eq!(run.inventoried, run.powered);
        }
    }

    #[test]
    fn capture_disabled_still_converges() {
        let s = builtin("inventory").unwrap();
        let ScenarioKind::Inventory {
            mut population,
            policy,
            max_rounds,
            fade_db,
            ..
        } = s.kind.clone()
        else {
            panic!()
        };
        population.count = 16;
        let mut s2 = s.clone();
        s2.kind = ScenarioKind::Inventory {
            population,
            policy,
            max_rounds,
            capture_db: 0.0,
            fade_db,
        };
        let exp = InventoryExperiment::prepare(&s2, true).unwrap();
        let run = exp.run_trial_nominal(&StdRng::seed_from_u64(5));
        assert_eq!(run.captures, 0);
        assert!(run.terminated);
    }
}
