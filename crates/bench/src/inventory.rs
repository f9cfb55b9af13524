//! The `inventory` reproduce target and the population-scale fleet
//! runner behind the `inventory` section of BENCH_runtime.json.
//!
//! `render` is the human-facing report: it takes an `inventory`
//! scenario, runs its trials under each anti-collision policy arm
//! (the scenario's own plus the remaining defaults) and prints a
//! policy-comparison table — rounds to full inventory, slots per tag
//! read, read fraction, capture-resolved slots.
//!
//! [`run_fleet`] is the throughput harness: a fleet of bodies, each
//! carrying the same prepared population, pushed through the persistent
//! worker pool with one RNG fork per body. Per-body state is a handful
//! of counters, so a million tag-sessions run in constant memory; the
//! per-body stats vector doubles as the byte-identity witness the
//! thread-invariance check compares across 1/2/8 workers.

use ivn_core::inventory::InventoryExperiment;
use ivn_core::scenario::{PolicySpec, Scenario, ScenarioKind, TagPopulation};
use ivn_dsp::stats::Summary;
use ivn_runtime::json::{Json, ToJson};
use ivn_runtime::par;
use ivn_runtime::pool::WorkerPool;
use ivn_runtime::rng::StdRng;
use std::sync::Arc;

/// Policy arms for a scenario: its declared policy first, then the
/// default arms whose names it doesn't already cover.
fn policy_arms(declared: &PolicySpec) -> Vec<PolicySpec> {
    let mut arms = vec![declared.clone()];
    for p in PolicySpec::default_arms() {
        if p.name() != declared.name() {
            arms.push(p);
        }
    }
    arms
}

/// Renders the `inventory` reproduce target: the scenario's
/// `population` inventoried under each policy arm (its declared
/// `policy` first), physical per-tag channel draws.
pub(crate) fn render(
    s: &Scenario,
    quick: bool,
    population: &TagPopulation,
    policy: &PolicySpec,
    capture_db: f64,
) -> Result<String, String> {
    let exp = InventoryExperiment::prepare(s, quick)?;
    let trials = s.trial_count(quick).max(1);
    ivn_runtime::obs_count!("experiment.trials", trials * population.count);

    let mut out = crate::header(&format!(
        "scenario '{}' (inventory, {} tags, {} antennas)",
        s.name, population.count, s.array.n_antennas
    ));
    // The enable tests `InventoryExperiment` (capture) and `CouplingModel`
    // (coupling) apply.
    let capture = if capture_db > 0.0 {
        format!("capture at {capture_db} dB")
    } else {
        "capture off".to_string()
    };
    let coupling = if population.detuning > 0.0 || population.shadow_db > 0.0 {
        "on"
    } else {
        "off"
    };
    out += &format!(
        "{:>10} trials x {} tags, {capture}, coupling {coupling}\n\n",
        trials, population.count
    );
    out += &format!(
        "{:>10}  {:>14}  {:>10}  {:>8}  {:>8}\n",
        "policy", "rounds-to-full", "slots/tag", "read", "captures"
    );

    let mut policies_json: Vec<Json> = Vec::new();
    for arm in policy_arms(policy) {
        let arm_exp = exp.with_policy(arm.clone());
        let runs = par::ensemble_threads(1, trials, s.seed, |rng, _| arm_exp.run_trial(rng));
        let rounds: Vec<f64> = runs
            .iter()
            .filter(|r| r.terminated)
            .map(|r| r.rounds as f64)
            .collect();
        let (mut powered, mut read, mut slots, mut captures) = (0usize, 0usize, 0usize, 0usize);
        for r in &runs {
            powered += r.powered;
            read += r.inventoried;
            slots += r.slots;
            captures += r.captures;
        }
        let rounds_median = Summary::of(&rounds).map(|s| s.median).unwrap_or(f64::NAN);
        let slots_per_tag = slots as f64 / read.max(1) as f64;
        let read_frac = read as f64 / powered.max(1) as f64;
        out += &format!(
            "{:>10}  {:>14.1}  {:>10.2}  {:>7.0}%  {:>8}\n",
            arm.name(),
            rounds_median,
            slots_per_tag,
            read_frac * 100.0,
            captures
        );
        policies_json.push(Json::obj([
            ("policy", arm.name().to_string().into()),
            ("rounds_to_full_median", rounds_median.into()),
            ("slots_per_tag", slots_per_tag.into()),
            ("read_frac", read_frac.into()),
            ("captures", captures.into()),
        ]));
    }
    let doc = Json::obj([
        ("name", s.name.clone().into()),
        ("trials", trials.into()),
        ("population", population.count.into()),
        ("policies", Json::Arr(policies_json)),
    ]);
    out += &format!("\n{}\n", doc.dump());
    Ok(out)
}

/// Per-body outcome in a fleet run — small and `PartialEq`, so the
/// whole vector doubles as a byte-identity witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BodyStats {
    /// Tags read.
    pub inventoried: u32,
    /// Rounds executed.
    pub rounds: u32,
    /// Whether every powered tag was read.
    pub terminated: bool,
    /// Total protocol slots.
    pub slots: u64,
    /// Collision slots.
    pub collisions: u64,
    /// Capture-resolved slots.
    pub captures: u64,
}

/// Aggregate of one policy's fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Bodies simulated.
    pub bodies: usize,
    /// Population per body.
    pub tags_per_body: usize,
    /// `bodies × tags_per_body`.
    pub tag_sessions: usize,
    /// Tags read across the fleet.
    pub(crate) inventoried: u64,
    /// Bodies whose inventory completed.
    pub terminated: usize,
    /// Median rounds-to-full across completed bodies.
    pub rounds_to_full_median: f64,
    /// Protocol slots per tag read.
    pub slots_per_tag: f64,
    /// Capture-resolved slots across the fleet.
    pub captures: u64,
    /// Per-body outcomes (the thread-invariance witness).
    pub per_body: Vec<BodyStats>,
}

/// The fleet population: a dense free-space line close enough that the
/// nominal budget powers every tag, with the coupling knobs on.
pub fn fleet_experiment(tags_per_body: usize) -> InventoryExperiment {
    let mut s = Scenario::base(
        "inventory-fleet",
        ScenarioKind::Inventory {
            population: TagPopulation {
                count: tags_per_body,
                spacing_m: 0.001,
                detuning: 0.02,
                shadow_db: 0.01,
            },
            policy: PolicySpec::Adaptive { q0: 6, c: 0.3 },
            max_rounds: 1024,
            capture_db: 6.0,
            fade_db: 3.0,
        },
    );
    s.placement = ivn_core::scenario::PlacementSpec::FreeSpace { range_m: 1.0 };
    InventoryExperiment::prepare(&s, true).expect("fleet scenario resolves")
}

/// Runs `bodies` protocol-dominated inventories under one policy on the
/// worker pool. Body `b` draws from `seed`'s fork `b`, so the result is
/// bit-identical at any thread count.
pub fn run_fleet(
    exp: &InventoryExperiment,
    policy: PolicySpec,
    bodies: usize,
    seed: u64,
    threads: usize,
) -> FleetStats {
    let tags_per_body = exp.count();
    let arm = Arc::new(exp.with_policy(policy));
    let root = StdRng::seed_from_u64(seed);
    let per_body: Vec<BodyStats> = WorkerPool::global().map_indexed(bodies, threads, move |b| {
        let run = arm.run_trial_nominal(&root.fork(b as u64));
        BodyStats {
            inventoried: run.inventoried as u32,
            rounds: run.rounds as u32,
            terminated: run.terminated,
            slots: run.slots as u64,
            collisions: run.collisions as u64,
            captures: run.captures as u64,
        }
    });
    FleetStats::of_bodies(tags_per_body, per_body)
}

impl FleetStats {
    /// Aggregates per-body outcomes of `tags_per_body`-tag populations —
    /// one [`run_fleet`] call's, or several calls' concatenated.
    pub fn of_bodies(tags_per_body: usize, per_body: Vec<BodyStats>) -> FleetStats {
        let rounds: Vec<f64> = per_body
            .iter()
            .filter(|b| b.terminated)
            .map(|b| b.rounds as f64)
            .collect();
        let inventoried: u64 = per_body.iter().map(|b| b.inventoried as u64).sum();
        let slots: u64 = per_body.iter().map(|b| b.slots).sum();
        FleetStats {
            bodies: per_body.len(),
            tags_per_body,
            tag_sessions: per_body.len() * tags_per_body,
            inventoried,
            terminated: per_body.iter().filter(|b| b.terminated).count(),
            rounds_to_full_median: Summary::of(&rounds).map(|s| s.median).unwrap_or(f64::NAN),
            slots_per_tag: slots as f64 / inventoried.max(1) as f64,
            captures: per_body.iter().map(|b| b.captures).sum(),
            per_body,
        }
    }
}

impl ToJson for FleetStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("bodies", self.bodies.into()),
            ("tags_per_body", self.tags_per_body.into()),
            ("tag_sessions", self.tag_sessions.into()),
            ("inventoried", (self.inventoried as usize).into()),
            ("terminated", self.terminated.into()),
            ("rounds_to_full_median", self.rounds_to_full_median.into()),
            ("slots_per_tag", self.slots_per_tag.into()),
            ("captures", (self.captures as usize).into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_compares_three_policies() {
        let out = crate::render_quick("inventory");
        for name in ["adaptive", "fixed", "schoute"] {
            assert!(out.contains(name), "missing {name}: {out}");
        }
        assert!(out.contains("rounds-to-full"), "{out}");
        assert!(out.contains("\"policies\""), "{out}");
        assert!(out.contains("capture at 6 dB, coupling on"), "{out}");
    }

    #[test]
    fn multisensor_render_says_capture_and_coupling_are_off() {
        let out = crate::render_quick("multisensor");
        assert!(
            out.contains("3 trials x 5 tags, capture off, coupling off"),
            "{out}"
        );
        assert!(out.contains("\"population\":5"), "{out}");
    }

    #[test]
    fn fleet_is_thread_invariant_and_completes() {
        let exp = fleet_experiment(64);
        let policy = PolicySpec::Adaptive { q0: 6, c: 0.3 };
        let a = run_fleet(&exp, policy.clone(), 16, 99, 1);
        let b = run_fleet(&exp, policy.clone(), 16, 99, 2);
        let c = run_fleet(&exp, policy, 16, 99, 8);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.tag_sessions, 16 * 64);
        assert_eq!(a.terminated, 16, "every body should finish: {a:?}");
        assert_eq!(a.inventoried, 16 * 64, "fleet tags all power: {a:?}");
    }

    #[test]
    fn fleet_scales_population_without_budget_exhaustion() {
        for &tags in &[16usize, 128, 512] {
            let exp = fleet_experiment(tags);
            let stats = run_fleet(&exp, PolicySpec::Schoute { q0: 6 }, 4, 7, 2);
            assert_eq!(stats.terminated, 4, "{tags} tags: {stats:?}");
            assert!(stats.slots_per_tag < 10.0, "{tags} tags: {stats:?}");
        }
    }
}
