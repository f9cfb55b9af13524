//! The three workloads: input generation from the seed (untimed), the
//! set-up the program does before its result (timed as `setup_s`), and
//! one run through the program's public entry points (timed as
//! `wall_s`).
//!
//! Every call into a layer is framed by a benchmark span. The spans cost
//! one relaxed load while not recording, so the timed and the traced
//! runs execute the same code.

use crate::witness;
use ivn_bench::campaign::{self, CampaignOutcome};
use ivn_bench::inventory::{self, FleetStats};
use ivn_bench::pipeline::{self, StreamOptions, StreamReport};
use ivn_core::freqsel::expected_peak;
use ivn_core::inventory::InventoryExperiment;
use ivn_core::plancache::PlanCache;
use ivn_core::scenario::{builtin, gen, FreqPlan, FreqSelSpec, PolicySpec, QuickFull, Scenario};
use ivn_core::PAPER_OFFSETS_HZ;
use ivn_dsp::block::DEFAULT_BLOCK;
use ivn_em::channel::ChannelEnsemble;
use ivn_em::stream::BlockSuperposer;
use ivn_runtime::json::Json;
use ivn_runtime::rng::{Rng, StdRng};
use ivn_runtime::trace::{self, intern, TraceSpan};
use ivn_sdr::bank::TxBank;
use ivn_sdr::clock::ClockDistribution;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

static RECORDING: AtomicBool = AtomicBool::new(false);

/// Turns recording of the benchmark's spans on or off.
///
/// The recorder is switched on only while a benchmark span opens (its end
/// event is emitted whatever the switch), so the trace holds the
/// benchmark's spans and not the program's own events, which would
/// overflow the per-thread rings on the campaign. The program's counters
/// and span histograms come from `obs` instead.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::SeqCst);
}

/// Opens a benchmark span named `name` (a no-op while not recording).
pub fn span(name: &'static str) -> TraceSpan {
    if !RECORDING.load(Ordering::Relaxed) {
        return TraceSpan::noop();
    }
    trace::set_enabled(true);
    let s = TraceSpan::enter(intern(name));
    trace::set_enabled(false);
    s
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 1-second CIB period at 1 MS/s through the streaming driver.
    Pipeline,
    /// A generated `session` fleet through the campaign runner.
    Campaign,
    /// A 512-tag population under three policies through `run_fleet`.
    Inventory,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Pipeline, Workload::Campaign, Workload::Inventory];

    /// The workload's name on the command line and in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pipeline => "pipeline",
            Workload::Campaign => "campaign",
            Workload::Inventory => "inventory",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is the benchmark; the tests run
/// [`Scale::SMALL`].
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Pipeline sample rate, S/s (one 1-second period).
    pub sample_rate: f64,
    /// Generated scenarios per campaign.
    pub scenarios: usize,
    /// Distinct `array.plan.seed` values across the campaign.
    pub plan_seeds: usize,
    /// Campaign trial mode (`false` = full, 24 trials per scenario).
    pub quick: bool,
    /// Tags per body in the inventory fleet.
    pub tags: usize,
    /// Bodies per policy arm.
    pub bodies: usize,
    /// Pool width of the campaign and inventory runs.
    pub width: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        sample_rate: 1e6,
        scenarios: 384,
        plan_seeds: 8,
        quick: false,
        tags: 512,
        bodies: 768,
        width: 2,
    };

    /// Small sizes for the benchmark's own tests.
    pub const SMALL: Scale = Scale {
        sample_rate: 2e4,
        scenarios: 8,
        plan_seeds: 2,
        quick: true,
        tags: 32,
        bodies: 6,
        width: 2,
    };
}

/// Pipeline constants the streaming driver uses for its set-up: the
/// benchmark calls the same public constructors with the same arguments.
const PIPELINE_SEED: u64 = 42;
const PIPELINE_ANTENNAS: usize = 5;
const PIPELINE_CARRIER_HZ: f64 = 915e6;
const PIPELINE_DRAWS: usize = 8;
const PIPELINE_GRID: usize = 256;

/// The three anti-collision arms of the inventory workload.
pub fn policy_arms() -> [PolicySpec; 3] {
    [
        PolicySpec::Adaptive { q0: 6, c: 0.3 },
        PolicySpec::Fixed { q: 9 },
        PolicySpec::Schoute { q0: 6 },
    ]
}

/// Generated inputs: all the program receives.
pub enum Inputs {
    /// Streaming options (the pipeline has no seeded input).
    Pipeline(StreamOptions),
    /// Scenario files as text, in campaign order.
    Campaign {
        /// `Scenario::dump` of every generated scenario.
        texts: Vec<String>,
        /// Trial mode.
        quick: bool,
        /// Pool width.
        width: usize,
    },
    /// Fleet shape and run seed.
    Inventory {
        /// Tags per body.
        tags: usize,
        /// Bodies per arm.
        bodies: usize,
        /// `run_fleet` seed.
        seed: u64,
        /// Pool width.
        width: usize,
    },
}

impl Inputs {
    /// Threads a run keeps busy: the pipeline's driver threads or the
    /// pool width.
    pub fn threads(&self) -> usize {
        match self {
            Inputs::Pipeline(opts) => opts.threads,
            Inputs::Campaign { width, .. } | Inputs::Inventory { width, .. } => *width,
        }
    }
}

/// The result of set-up, consumed by [`run`].
pub enum Prepared {
    /// The pipeline's driver builds its own stages; set-up leaves only
    /// the options.
    Pipeline(StreamOptions),
    /// Parsed scenarios, trial mode and pool width.
    Campaign(Vec<Scenario>, bool, usize),
    /// The prepared population, bodies per arm, seed and pool width.
    Inventory(Box<InventoryExperiment>, usize, u64, usize),
}

/// What one run returned.
pub enum Output {
    /// The streaming report.
    Pipeline(StreamReport),
    /// The campaign outcome and its rendered report.
    Campaign(CampaignOutcome, String),
    /// One `FleetStats` per policy arm.
    Inventory(Vec<FleetStats>),
}

/// Distinct input sets per seeded workload: `seed` selects variant
/// `seed % INPUT_VARIANTS`, and `witnesses.json` holds a digest for each.
pub const INPUT_VARIANTS: u64 = 128;

/// Builds the workload's inputs from `seed`.
pub fn generate(w: Workload, seed: u64, scale: &Scale) -> Inputs {
    let seed = seed % INPUT_VARIANTS;
    match w {
        Workload::Pipeline => Inputs::Pipeline(StreamOptions {
            sample_rate: Some(scale.sample_rate),
            block: DEFAULT_BLOCK,
            threads: 1,
            stats: false,
        }),
        Workload::Campaign => {
            let texts = campaign_fleet(seed, scale)
                .iter()
                .map(|s| s.dump())
                .collect();
            Inputs::Campaign {
                texts,
                quick: scale.quick,
                width: scale.width,
            }
        }
        Workload::Inventory => Inputs::Inventory {
            tags: scale.tags,
            bodies: scale.bodies,
            seed,
            width: scale.width,
        },
    }
}

/// The campaign fleet: `session` under an `Optimize` plan whose seed
/// takes `scale.plan_seeds` values, swept over four depths with ±5% EIRP
/// jitter (the plan-sharing fleet shape of `bench_runtime`).
fn campaign_fleet(seed: u64, scale: &Scale) -> Vec<Scenario> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut base = builtin("session").expect("builtin session scenario");
    base.seed = rng.random::<u32>() as u64;
    base.array.plan = FreqPlan::Optimize {
        spec: FreqSelSpec {
            n_antennas: base.array.n_antennas,
            rms_limit_hz: 199.0,
            max_offset_hz: 160,
            mc_draws: QuickFull::same(16),
            grid: QuickFull::same(512),
            restarts: QuickFull::same(2),
            iterations: QuickFull::same(40),
        },
        seed: 0,
    };
    let plan_seeds: Vec<Json> = (0..scale.plan_seeds)
        .map(|_| Json::from(rng.random::<u32>() as f64))
        .collect();
    let spec = gen::GenSpec {
        base,
        count: scale.scenarios,
        seed: rng.random(),
        sweeps: vec![
            gen::SweepAxis {
                path: "placement.depth_m".into(),
                values: [0.02, 0.05, 0.08, 0.11]
                    .iter()
                    .map(|&d| Json::from(d))
                    .collect(),
            },
            gen::SweepAxis {
                path: "array.plan.seed".into(),
                values: plan_seeds,
            },
        ],
        jitters: vec![gen::JitterSpec {
            path: "eirp_dbm".into(),
            frac: 0.05,
        }],
    };
    gen::generate(&spec).expect("campaign fleet generates")
}

/// Set-up: the program work before the timed result.
pub fn setup(inputs: &Inputs) -> Result<Prepared, String> {
    match inputs {
        Inputs::Pipeline(opts) => {
            pipeline_constructors(opts.sample_rate.expect("pipeline sets its rate"));
            Ok(Prepared::Pipeline(opts.clone()))
        }
        Inputs::Campaign {
            texts,
            quick,
            width,
        } => {
            let _s = span("campaign.scenario.parse");
            let scenarios = texts
                .iter()
                .map(|t| Scenario::parse(t).map_err(|e| e.reason))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Prepared::Campaign(scenarios, *quick, *width))
        }
        Inputs::Inventory {
            tags,
            bodies,
            seed,
            width,
        } => {
            let _s = span("inventory.core.prepare");
            Ok(Prepared::Inventory(
                Box::new(inventory::fleet_experiment(*tags)),
                *bodies,
                *seed,
                *width,
            ))
        }
    }
}

/// The public constructors the streaming driver calls before its first
/// block, with the driver's arguments: the freqsel score, the sdr bank,
/// and the em channel ensemble with its block superposer.
fn pipeline_constructors(sample_rate: f64) {
    let mut rng = StdRng::seed_from_u64(PIPELINE_SEED);
    let offsets = &PAPER_OFFSETS_HZ[..PIPELINE_ANTENNAS];
    {
        let _s = span("pipeline.freqsel.score");
        black_box(expected_peak(
            offsets,
            PIPELINE_DRAWS,
            PIPELINE_GRID,
            &mut rng,
        ));
    }
    let bank = {
        let _s = span("pipeline.sdr.bank");
        TxBank::new(
            &mut rng,
            PIPELINE_ANTENNAS,
            PIPELINE_CARRIER_HZ,
            sample_rate,
            offsets,
            &ClockDistribution::octoclock(),
        )
    };
    let _s = span("pipeline.em.ensemble");
    let ens = ChannelEnsemble::blind(&mut rng, PIPELINE_ANTENNAS, 0.3, PIPELINE_CARRIER_HZ);
    black_box(BlockSuperposer::from_ensemble(&ens, |i| {
        bank.emission_hz(i)
    }));
}

/// One run of the workload's entry points, from parsed inputs to the
/// rendered result. The plan cache is cleared first, as in a fresh
/// process.
pub fn run(p: &Prepared) -> Output {
    let cache = PlanCache::global();
    cache.clear();
    cache.reset_counters();
    match p {
        Prepared::Pipeline(opts) => {
            let _s = span("pipeline.stream");
            Output::Pipeline(pipeline::outputs_streaming(true, opts))
        }
        Prepared::Campaign(scenarios, quick, width) => {
            let outcome = {
                let _s = span("campaign.pool.dispatch");
                campaign::run(scenarios, *quick, *width)
            };
            let report = {
                let _s = span("campaign.json.report");
                outcome.report().dump()
            };
            Output::Campaign(outcome, report)
        }
        Prepared::Inventory(exp, bodies, seed, width) => {
            let names = [
                "inventory.rfid.adaptive",
                "inventory.rfid.fixed",
                "inventory.rfid.schoute",
            ];
            let arms = policy_arms()
                .into_iter()
                .zip(names)
                .map(|(policy, name)| {
                    let _s = span(name);
                    inventory::run_fleet(exp, policy, *bodies, *seed, *width)
                })
                .collect();
            Output::Inventory(arms)
        }
    }
}

impl Output {
    /// Operations this run attempted: periods, scenarios or bodies.
    pub fn attempted(&self) -> usize {
        match self {
            Output::Pipeline(_) => 1,
            Output::Campaign(c, _) => c.metrics.len() + c.errors.len(),
            Output::Inventory(arms) => arms.iter().map(|a| a.bodies).sum(),
        }
    }

    /// Simulated work: samples, scenarios or tag-sessions.
    pub fn work(&self) -> f64 {
        match self {
            Output::Pipeline(r) => r.outputs.n_samples as f64,
            Output::Campaign(c, _) => (c.metrics.len() + c.errors.len()) as f64,
            Output::Inventory(arms) => arms.iter().map(|a| a.tag_sessions as f64).sum(),
        }
    }

    /// The output witness.
    pub fn digest(&self) -> u64 {
        match self {
            Output::Pipeline(r) => witness::pipeline(&r.outputs),
            Output::Campaign(c, _) => witness::campaign(c),
            Output::Inventory(arms) => witness::inventory(arms),
        }
    }

    /// Operations whose output breaks a property every correct run has,
    /// whatever the seed: the period powers and both codec round trips
    /// decode; no scenario errs and each ran its trials; every body
    /// reads its whole population.
    pub fn failed(&self) -> usize {
        match self {
            Output::Pipeline(r) => {
                let o = &r.outputs;
                usize::from(!(o.outcome.powered && o.downlink_ok && o.uplink_ok))
            }
            Output::Campaign(c, _) => {
                let expected = c.metrics.first().map_or(0, |m| m.trials);
                let short = c
                    .metrics
                    .iter()
                    .filter(|m| m.trials != expected || m.trials == 0)
                    .count();
                c.errors.len() + short
            }
            Output::Inventory(arms) => arms
                .iter()
                .map(|a| {
                    a.per_body
                        .iter()
                        .filter(|b| !b.terminated || b.inventoried as usize != a.tags_per_body)
                        .count()
                })
                .sum(),
        }
    }
}
