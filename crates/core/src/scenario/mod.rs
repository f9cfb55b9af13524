//! Declarative experiment scenarios — the configuration substrate every
//! workload in this repo runs on.
//!
//! A [`Scenario`] captures everything a measurement campaign needs:
//! the body/placement preset and its media stack, the tag under test,
//! the antenna-array geometry and frequency plan (fixed offsets or an
//! Eq. 10 [`crate::freqsel`] search), per-antenna EIRP, trial counts
//! (with a single quick/full policy, [`QuickFull`]) and the campaign
//! seed. The [`ScenarioKind`] field selects the experiment family and
//! carries its family-specific knobs.
//!
//! Scenarios round-trip through the in-tree JSON layer
//! ([`ivn_runtime::json`]): `Scenario::from_json(&Json::parse(text)?)`
//! reads a user-supplied file, and [`ToJson`] emits a canonical form
//! whose bytes are stable under parse→dump. Each object type declares
//! its keys once, next to its `FromJson`, and the same list orders its
//! dump. Parse rejects any other key with its dot path and the nearest
//! listed spelling ([`Fields`]); `comment` and keys starting with `_`
//! stay allowed as annotations. Each kind also declares which common
//! fields (`seed`, `trials`, `array`, `tag`, `placement`, `eirp_dbm`)
//! its experiment reads: parse rejects the others, naming the kind, and
//! the dump omits them, so every field a file can set is read.
//!
//! The built-in registry ([`builtin`]) names one scenario per paper
//! figure/table; the bench harness resolves `reproduce` targets through
//! it. [`gen`] sweeps and jitters any scenario field to mass-produce
//! scenario files, and `eval` is the uniform per-scenario workload
//! (gain / power-up / decode metrics) the campaign driver aggregates.

pub(crate) mod eval;
pub mod gen;

use crate::body::{Placement, TagSpec, PAPER_EIRP_DBM};
use crate::cib::CibConfig;
use crate::freqsel::{optimize, FreqSelConfig};
use ivn_em::medium::Medium;
use ivn_runtime::json::{keyed, keyed_tagged, Fields, FromJson, Json, JsonError, Keys, ToJson};

pub use eval::{evaluate, ScenarioMetrics};

fn err<T>(reason: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError {
        offset: 0,
        reason: reason.into(),
    })
}

// ---------------------------------------------------------------------
// Quick/full policy
// ---------------------------------------------------------------------

/// A value with distinct quick-mode and full-mode settings — the single
/// place the `--quick` trial-count policy lives. In JSON either
/// `{"quick": 50, "full": 150}` or a bare number (same value for both).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuickFull<T> {
    /// CI-speed value.
    pub(crate) quick: T,
    /// Paper-scale value.
    pub(crate) full: T,
}

impl<T: Copy> QuickFull<T> {
    /// Same value in both modes.
    pub fn same(v: T) -> Self {
        QuickFull { quick: v, full: v }
    }

    /// Resolves the policy for a run mode.
    pub(crate) fn get(&self, quick: bool) -> T {
        if quick {
            self.quick
        } else {
            self.full
        }
    }
}

const QUICK_FULL_KEYS: [&str; 2] = ["quick", "full"];

impl<T: ToJson + PartialEq> ToJson for QuickFull<T> {
    fn to_json(&self) -> Json {
        keyed(
            &QUICK_FULL_KEYS,
            vec![self.quick.to_json(), self.full.to_json()],
        )
    }
}

impl<T: FromJson + Copy> FromJson for QuickFull<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if let Json::Obj(_) = value {
            let f = Fields::of(value, &QUICK_FULL_KEYS)?;
            Ok(QuickFull {
                quick: f.req("quick")?,
                full: f.req("full")?,
            })
        } else {
            // A bare scalar applies to both modes.
            let v = T::from_json(value)?;
            Ok(QuickFull { quick: v, full: v })
        }
    }
}

// ---------------------------------------------------------------------
// Tag
// ---------------------------------------------------------------------

/// Which of the paper's two tags a scenario powers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagKind {
    /// The Avery-class air-matched dipole tag.
    Standard,
    /// The Xerafy-class medium-matched implant tag.
    Miniature,
}

impl TagKind {
    /// Resolves to the full electrical specification.
    pub(crate) fn spec(&self) -> TagSpec {
        match self {
            TagKind::Standard => TagSpec::standard(),
            TagKind::Miniature => TagSpec::miniature(),
        }
    }

    /// The JSON name.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            TagKind::Standard => "standard",
            TagKind::Miniature => "miniature",
        }
    }
}

impl ToJson for TagKind {
    fn to_json(&self) -> Json {
        Json::Str(self.name().into())
    }
}

impl FromJson for TagKind {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_str() {
            Some("standard") => Ok(TagKind::Standard),
            Some("miniature") => Ok(TagKind::Miniature),
            Some(other) => err(format!("unknown tag '{other}'")),
            None => err("tag must be a string"),
        }
    }
}

// ---------------------------------------------------------------------
// Placement / media stack
// ---------------------------------------------------------------------

/// Resolves a medium by its report name (the `Medium::name` field of the
/// in-tree presets).
pub(crate) fn medium_by_name(name: &str) -> Option<Medium> {
    let all = [
        Medium::air(),
        Medium::water(),
        Medium::gastric_fluid(),
        Medium::intestinal_fluid(),
        Medium::muscle(),
        Medium::steak(),
        Medium::fat(),
        Medium::bacon(),
        Medium::chicken(),
        Medium::skin(),
        Medium::stomach_wall(),
        Medium::gastric_content(),
        Medium::blood(),
        Medium::bone(),
    ];
    all.into_iter().find(|m| m.name == name)
}

/// Declarative form of a [`Placement`]: which body/media preset the
/// sensor sits in, plus its geometric knob.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementSpec {
    /// Free-space line of sight at `range_m`.
    FreeSpace {
        /// Antenna-to-tag range, metres.
        range_m: f64,
    },
    /// The paper's water tank; tag `depth_m` inside.
    WaterTank {
        /// Immersion depth, metres.
        depth_m: f64,
    },
    /// A Fig. 11 media container: named medium, sensor `depth_m` deep.
    MediaBox {
        /// Medium preset name (see `medium_by_name`).
        medium: String,
        /// Depth into the medium, metres.
        depth_m: f64,
    },
    /// Swine intragastric placement (§6.2).
    SwineGastric,
    /// Swine subcutaneous placement (§6.2).
    SwineSubcutaneous,
}

impl PlacementSpec {
    /// Resolves to the physical placement (media stack + link budget).
    pub(crate) fn resolve(&self) -> Result<Placement, JsonError> {
        Ok(match self {
            PlacementSpec::FreeSpace { range_m } => Placement::free_space(*range_m),
            PlacementSpec::WaterTank { depth_m } => Placement::water_tank(*depth_m),
            PlacementSpec::MediaBox { medium, depth_m } => {
                let m = medium_by_name(medium).ok_or(JsonError {
                    offset: 0,
                    reason: format!("unknown medium '{medium}'"),
                })?;
                Placement::media_box(m, *depth_m)
            }
            PlacementSpec::SwineGastric => Placement::swine_gastric(),
            PlacementSpec::SwineSubcutaneous => Placement::swine_subcutaneous(),
        })
    }

    /// The same placement family shifted `offset_m` deeper/farther —
    /// used to spread a tag population along the geometry axis.
    pub(crate) fn at_offset(&self, offset_m: f64) -> PlacementSpec {
        match self {
            PlacementSpec::FreeSpace { range_m } => PlacementSpec::FreeSpace {
                range_m: range_m + offset_m,
            },
            PlacementSpec::WaterTank { depth_m } => PlacementSpec::WaterTank {
                depth_m: depth_m + offset_m,
            },
            PlacementSpec::MediaBox { medium, depth_m } => PlacementSpec::MediaBox {
                medium: medium.clone(),
                depth_m: depth_m + offset_m,
            },
            other => other.clone(),
        }
    }

    /// Each placement type's key list.
    fn keys(ty: &str) -> Option<Keys> {
        Some(match ty {
            "free_space" => &["type", "range_m"],
            "water_tank" => &["type", "depth_m"],
            "media_box" => &["type", "medium", "depth_m"],
            "swine_gastric" | "swine_subcutaneous" => &["type"],
            _ => return None,
        })
    }
}

impl ToJson for PlacementSpec {
    fn to_json(&self) -> Json {
        let (ty, values) = match self {
            PlacementSpec::FreeSpace { range_m } => ("free_space", vec![(*range_m).into()]),
            PlacementSpec::WaterTank { depth_m } => ("water_tank", vec![(*depth_m).into()]),
            PlacementSpec::MediaBox { medium, depth_m } => {
                ("media_box", vec![medium.clone().into(), (*depth_m).into()])
            }
            PlacementSpec::SwineGastric => ("swine_gastric", vec![]),
            PlacementSpec::SwineSubcutaneous => ("swine_subcutaneous", vec![]),
        };
        keyed_tagged(ty, PlacementSpec::keys, values)
    }
}

impl FromJson for PlacementSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let (ty, f) = Fields::tagged(value, PlacementSpec::keys)?;
        Ok(match ty {
            "free_space" => PlacementSpec::FreeSpace {
                range_m: f.req("range_m")?,
            },
            "water_tank" => PlacementSpec::WaterTank {
                depth_m: f.req("depth_m")?,
            },
            "media_box" => PlacementSpec::MediaBox {
                medium: f.req("medium")?,
                depth_m: f.req("depth_m")?,
            },
            "swine_gastric" => PlacementSpec::SwineGastric,
            "swine_subcutaneous" => PlacementSpec::SwineSubcutaneous,
            _ => unreachable!("`Fields::tagged` admits only listed types"),
        })
    }
}

// ---------------------------------------------------------------------
// Frequency plan / freqsel
// ---------------------------------------------------------------------

/// Declarative form of a [`FreqSelConfig`] with quick/full effort levels.
#[derive(Debug, Clone, PartialEq)]
pub struct FreqSelSpec {
    /// Number of antennas N.
    pub n_antennas: usize,
    /// Eq. 9 RMS ceiling, Hz.
    pub rms_limit_hz: f64,
    /// Largest single offset considered, Hz.
    pub max_offset_hz: usize,
    /// Monte-Carlo draws per objective evaluation.
    pub mc_draws: QuickFull<usize>,
    /// Time-grid resolution.
    pub grid: QuickFull<usize>,
    /// Random restarts.
    pub restarts: QuickFull<usize>,
    /// Hill-climbing iterations per restart.
    pub iterations: QuickFull<usize>,
}

impl FreqSelSpec {
    /// The paper-scale search with the historical quick-mode trims.
    pub(crate) fn paper_scale() -> Self {
        FreqSelSpec {
            n_antennas: 10,
            rms_limit_hz: 199.0,
            max_offset_hz: 256,
            mc_draws: QuickFull {
                quick: 32,
                full: 96,
            },
            grid: QuickFull {
                quick: 512,
                full: 1024,
            },
            restarts: QuickFull { quick: 3, full: 8 },
            iterations: QuickFull {
                quick: 60,
                full: 160,
            },
        }
    }

    /// The historical test-scale search for `n` antennas.
    pub(crate) fn test_scale(n: usize) -> Self {
        FreqSelSpec {
            n_antennas: n,
            rms_limit_hz: 199.0,
            max_offset_hz: 160,
            mc_draws: QuickFull {
                quick: 32,
                full: 32,
            },
            grid: QuickFull::same(512),
            restarts: QuickFull { quick: 3, full: 3 },
            iterations: QuickFull {
                quick: 60,
                full: 60,
            },
        }
    }

    /// Resolves to the optimizer configuration for a run mode.
    pub fn resolve(&self, quick: bool) -> FreqSelConfig {
        FreqSelConfig {
            n_antennas: self.n_antennas,
            rms_limit_hz: self.rms_limit_hz,
            max_offset_hz: self.max_offset_hz as u32,
            mc_draws: self.mc_draws.get(quick),
            grid: self.grid.get(quick),
            restarts: self.restarts.get(quick),
            iterations: self.iterations.get(quick),
        }
    }
}

const FREQSEL_KEYS: [&str; 7] = [
    "n_antennas",
    "rms_limit_hz",
    "max_offset_hz",
    "mc_draws",
    "grid",
    "restarts",
    "iterations",
];

impl ToJson for FreqSelSpec {
    fn to_json(&self) -> Json {
        keyed(
            &FREQSEL_KEYS,
            vec![
                self.n_antennas.into(),
                self.rms_limit_hz.into(),
                self.max_offset_hz.into(),
                self.mc_draws.to_json(),
                self.grid.to_json(),
                self.restarts.to_json(),
                self.iterations.to_json(),
            ],
        )
    }
}

impl FromJson for FreqSelSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let f = Fields::of(value, &FREQSEL_KEYS)?;
        Ok(FreqSelSpec {
            n_antennas: f.req("n_antennas")?,
            rms_limit_hz: f.req("rms_limit_hz")?,
            max_offset_hz: f.req("max_offset_hz")?,
            mc_draws: f.req("mc_draws")?,
            grid: f.req("grid")?,
            restarts: f.req("restarts")?,
            iterations: f.req("iterations")?,
        })
    }
}

/// Where a scenario's CIB frequency plan comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum FreqPlan {
    /// The paper's published plan, truncated to the array size.
    Paper,
    /// Explicit offsets in Hz.
    Offsets(Vec<f64>),
    /// Run the Eq. 10 search with this spec and seed.
    Optimize {
        /// Search configuration.
        spec: FreqSelSpec,
        /// Optimizer seed.
        seed: u64,
    },
}

impl FreqPlan {
    /// Each object plan type's key list (`"paper"` is a bare string).
    fn keys(ty: &str) -> Option<Keys> {
        Some(match ty {
            "offsets" => &["type", "offsets_hz"],
            "optimize" => &["type", "seed", "freqsel"],
            _ => return None,
        })
    }
}

impl ToJson for FreqPlan {
    fn to_json(&self) -> Json {
        match self {
            FreqPlan::Paper => Json::Str("paper".into()),
            FreqPlan::Offsets(v) => keyed_tagged("offsets", FreqPlan::keys, vec![v.clone().into()]),
            FreqPlan::Optimize { spec, seed } => keyed_tagged(
                "optimize",
                FreqPlan::keys,
                vec![(*seed as f64).into(), spec.to_json()],
            ),
        }
    }
}

impl FromJson for FreqPlan {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if let Some(s) = value.as_str() {
            return match s {
                "paper" => Ok(FreqPlan::Paper),
                other => err(format!("unknown plan '{other}'")),
            };
        }
        let (ty, f) = Fields::tagged(value, FreqPlan::keys)?;
        Ok(match ty {
            "offsets" => FreqPlan::Offsets(f.req("offsets_hz")?),
            "optimize" => FreqPlan::Optimize {
                seed: f.req::<f64>("seed")? as u64,
                spec: f.req("freqsel")?,
            },
            _ => unreachable!("`Fields::tagged` admits only listed types"),
        })
    }
}

/// Largest `array.grid` a scenario accepts: the analytic peak search
/// holds one complex sample per grid point (2²⁴ points ≈ 270 MB).
pub(crate) const MAX_GRID: usize = 1 << 24;

/// The `array.carrier_hz` band a scenario accepts, Hz: 1 MHz to
/// 100 GHz, the RF range the tissue and antenna models describe. A zero
/// or near-zero carrier makes the wavelength infinite, and one far above
/// it underflows the path loss to NaN received power.
pub(crate) const CARRIER_RANGE_HZ: (f64, f64) = (1e6, 1e11);

/// Largest `power_session` envelope rate, samples/s. `powerup_rate`
/// sizes a one-period envelope grid of that many samples and
/// `command_rate` the keyed Query window, so the cap bounds both
/// allocations (10 MS/s ≈ 240 MB of one-period grid).
pub(crate) const MAX_ENVELOPE_RATE: f64 = 1e7;

/// Highest per-antenna `eirp_dbm` a scenario accepts: 60 dBm (1 kW). It
/// sits 24 dB above the 36 dBm FCC EIRP limit the paper's §7 argues
/// against, so over-limit what-if sweeps still run, and above every
/// in-tree sweep (37 dBm builtins, 38 dBm in `verify.sh`'s inventory
/// fleet, 38.85 dBm under the benchmark's ±5 % jitter), while keeping
/// the link-budget powers far from overflow.
pub(crate) const MAX_EIRP_DBM: f64 = 60.0;

/// Longest sensor-placing length a scenario accepts (range, depth,
/// spacing), m: 1 km, far past every in-tree sweep. At 1e308 m the
/// layered-path model returns NaN received power.
pub(crate) const MAX_LENGTH_M: f64 = 1e3;

/// Antenna-array geometry: how many antennas, which frequency plan they
/// emit, and the analytic peak-search resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ArraySpec {
    /// Antenna count.
    pub n_antennas: usize,
    /// Frequency plan source.
    pub plan: FreqPlan,
    /// Band-centre carrier, Hz.
    pub carrier_hz: f64,
    /// Grid resolution for analytic envelope-peak searches.
    pub grid: usize,
}

impl ArraySpec {
    /// The paper's prototype array truncated to `n` antennas.
    pub(crate) fn paper(n: usize) -> Self {
        ArraySpec {
            n_antennas: n,
            plan: FreqPlan::Paper,
            carrier_hz: crate::BEAMFORMER_CARRIER_HZ,
            grid: 4096,
        }
    }

    /// Resolves to the CIB transmitter configuration (runs the Eq. 10
    /// search for [`FreqPlan::Optimize`] plans, consulting the global
    /// [`PlanCache`](crate::plancache::PlanCache) first — the search
    /// depends only on the spec, seed and quick flag, so fleets sharing
    /// an array config compute each plan once).
    pub fn cib(&self, quick: bool) -> CibConfig {
        let offsets_hz = match &self.plan {
            FreqPlan::Paper => {
                assert!(
                    (1..=crate::PAPER_OFFSETS_HZ.len()).contains(&self.n_antennas),
                    "paper plan has 1..=10 antennas"
                );
                crate::PAPER_OFFSETS_HZ[..self.n_antennas].to_vec()
            }
            FreqPlan::Offsets(v) => v.clone(),
            FreqPlan::Optimize { spec, seed } => crate::plancache::PlanCache::global()
                .get_or_compute(&self.plan_key(quick), || {
                    optimize(&spec.resolve(quick), *seed).offsets_hz
                }),
        };
        CibConfig {
            offsets_hz,
            carrier_hz: self.carrier_hz,
            grid: self.grid,
        }
    }

    /// Checks that `n_antennas` lies in the plan's range: 1..=10 for the
    /// paper plan, the tone count for explicit offsets, and for an Eq. 10
    /// search the spec's own count, which must be in
    /// `2..=max_offset_hz + 1` (one reference tone plus distinct nonzero
    /// integer offsets).
    fn validate(&self) -> Result<(), JsonError> {
        let n = self.n_antennas;
        let (lo, hi) = match &self.plan {
            FreqPlan::Paper => (1, crate::PAPER_OFFSETS_HZ.len()),
            FreqPlan::Offsets(v) => (v.len().max(1), v.len()),
            FreqPlan::Optimize { spec, .. } => {
                let max = spec.max_offset_hz.saturating_add(1);
                if !(2..=max).contains(&spec.n_antennas) {
                    return err(format!(
                        "array.plan.freqsel.n_antennas must be in 2..={max}, got {}",
                        spec.n_antennas
                    ));
                }
                (spec.n_antennas, spec.n_antennas)
            }
        };
        if !(lo..=hi).contains(&n) {
            return err(format!(
                "array.n_antennas must be in {lo}..={hi} for this plan, got {n}"
            ));
        }
        let (lo, hi) = CARRIER_RANGE_HZ;
        if !(self.carrier_hz >= lo && self.carrier_hz <= hi) {
            return err(format!(
                "array.carrier_hz must be in [{lo:e}, {hi:e}] Hz, got {:?}",
                self.carrier_hz
            ));
        }
        Ok(())
    }

    /// The canonical [`PlanCache`](crate::plancache::PlanCache) key for
    /// this array at the given resolution: the array's canonical JSON
    /// (fixed field order) plus the quick flag — exactly the inputs
    /// that reach the plan optimizer, and nothing else (body,
    /// placement, EIRP and trial seeds cannot influence the offsets, so
    /// sweep/jitter fleets share the entry).
    pub(crate) fn plan_key(&self, quick: bool) -> String {
        format!("quick={quick}|{}", self.to_json().dump())
    }
}

const ARRAY_KEYS: [&str; 4] = ["n_antennas", "plan", "carrier_hz", "grid"];

impl ToJson for ArraySpec {
    fn to_json(&self) -> Json {
        keyed(
            &ARRAY_KEYS,
            vec![
                self.n_antennas.into(),
                self.plan.to_json(),
                self.carrier_hz.into(),
                self.grid.into(),
            ],
        )
    }
}

impl FromJson for ArraySpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let f = Fields::of(value, &ARRAY_KEYS)?;
        let plan: FreqPlan = f.opt("plan")?.unwrap_or(FreqPlan::Paper);
        let n_antennas = match (&plan, f.opt::<usize>("n_antennas")?) {
            (FreqPlan::Offsets(v), None) => v.len(),
            (FreqPlan::Offsets(v), Some(n)) => {
                if n != v.len() {
                    return err(format!(
                        "array.n_antennas {n} != {} explicit offsets",
                        v.len()
                    ));
                }
                n
            }
            (_, Some(n)) => n,
            (_, None) => return err("missing field 'n_antennas'"),
        };
        if n_antennas == 0 {
            return err("array.n_antennas must be positive");
        }
        Ok(ArraySpec {
            n_antennas,
            plan,
            carrier_hz: f.opt("carrier_hz")?.unwrap_or(crate::BEAMFORMER_CARRIER_HZ),
            grid: f.opt("grid")?.unwrap_or(4096),
        })
    }
}

// ---------------------------------------------------------------------
// Tag populations / anti-collision policies
// ---------------------------------------------------------------------

/// A population of tags spread along the placement's geometry axis,
/// with the inter-tag coupling knobs (ivn-em's
/// [`CouplingModel`](ivn_em::coupling::CouplingModel)). Tag `i` sits at
/// `i × spacing_m` past the scenario placement and draws its RNG from
/// the trial stream's fork `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct TagPopulation {
    /// Number of tags.
    pub count: usize,
    /// Spacing between consecutive tags along the geometry axis, metres.
    pub spacing_m: f64,
    /// Mutual-detuning strength (0 disables).
    pub detuning: f64,
    /// Shadowing cost per interposed tag, dB (0 disables).
    pub shadow_db: f64,
}

impl TagPopulation {
    /// The population's coupling model (2 cm reference spacing).
    pub fn coupling(&self) -> ivn_em::coupling::CouplingModel {
        ivn_em::coupling::CouplingModel::new(self.detuning, 0.02, self.shadow_db)
    }
}

const POPULATION_KEYS: [&str; 4] = ["count", "spacing_m", "detuning", "shadow_db"];

impl ToJson for TagPopulation {
    fn to_json(&self) -> Json {
        keyed(
            &POPULATION_KEYS,
            vec![
                self.count.into(),
                self.spacing_m.into(),
                self.detuning.into(),
                self.shadow_db.into(),
            ],
        )
    }
}

impl FromJson for TagPopulation {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let f = Fields::of(value, &POPULATION_KEYS)?;
        let count: usize = f.req("count")?;
        if count == 0 {
            return err("population count must be positive");
        }
        Ok(TagPopulation {
            count,
            spacing_m: f.opt("spacing_m")?.unwrap_or(0.001),
            detuning: f.opt("detuning")?.unwrap_or(0.0),
            shadow_db: f.opt("shadow_db")?.unwrap_or(0.0),
        })
    }
}

/// Declarative form of an anti-collision policy
/// ([`ivn_rfid::anticollision::AntiCollision`]); `build` instantiates
/// the trait object, so a scenario file can pick any registered policy.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// Per-slot Qfp ± C, read as Q at each Query (no mid-round
    /// `QueryAdjust`).
    Adaptive {
        /// Initial Q.
        q0: u8,
        /// Step constant C.
        c: f64,
    },
    /// A constant frame size.
    Fixed {
        /// Frame size exponent.
        q: u8,
    },
    /// Schoute backlog estimation.
    Schoute {
        /// Initial Q.
        q0: u8,
    },
}

impl PolicySpec {
    /// The JSON/report name.
    pub fn name(&self) -> &'static str {
        match self {
            PolicySpec::Adaptive { .. } => "adaptive",
            PolicySpec::Fixed { .. } => "fixed",
            PolicySpec::Schoute { .. } => "schoute",
        }
    }

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn ivn_rfid::anticollision::AntiCollision> {
        use ivn_rfid::anticollision::{AdaptiveQ, FixedQ, SchouteQ};
        use ivn_rfid::reader::QAlgorithm;
        match self {
            PolicySpec::Adaptive { q0, c } => {
                Box::new(AdaptiveQ::new(QAlgorithm { q0: *q0, c: *c }))
            }
            PolicySpec::Fixed { q } => Box::new(FixedQ::new(*q)),
            PolicySpec::Schoute { q0 } => Box::new(SchouteQ::new(*q0)),
        }
    }

    /// Each policy type's key list.
    fn keys(ty: &str) -> Option<Keys> {
        Some(match ty {
            "adaptive" => &["type", "q0", "c"],
            "fixed" => &["type", "q"],
            "schoute" => &["type", "q0"],
            _ => return None,
        })
    }

    /// The three default policy arms every comparison runs.
    pub fn default_arms() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Adaptive { q0: 4, c: 0.3 },
            PolicySpec::Fixed { q: 6 },
            PolicySpec::Schoute { q0: 4 },
        ]
    }
}

impl ToJson for PolicySpec {
    fn to_json(&self) -> Json {
        let values = match self {
            PolicySpec::Adaptive { q0, c } => vec![(*q0 as usize).into(), (*c).into()],
            PolicySpec::Fixed { q } => vec![(*q as usize).into()],
            PolicySpec::Schoute { q0 } => vec![(*q0 as usize).into()],
        };
        keyed_tagged(self.name(), PolicySpec::keys, values)
    }
}

impl FromJson for PolicySpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let (ty, f) = Fields::tagged(value, PolicySpec::keys)?;
        let q = |key| Ok::<_, JsonError>(f.opt::<usize>(key)?.map(|q| q as u8));
        Ok(match ty {
            "adaptive" => PolicySpec::Adaptive {
                q0: q("q0")?.unwrap_or(4),
                c: f.opt("c")?.unwrap_or(0.3),
            },
            "fixed" => PolicySpec::Fixed {
                q: q("q")?.unwrap_or(6),
            },
            "schoute" => PolicySpec::Schoute {
                q0: q("q0")?.unwrap_or(4),
            },
            _ => unreachable!("`Fields::tagged` admits only listed types"),
        })
    }
}

// ---------------------------------------------------------------------
// ScenarioKind
// ---------------------------------------------------------------------

/// The experiment family a scenario runs, with family-specific knobs.
/// The common substrate (array, tag, placement, trials, seed) lives on
/// [`Scenario`] itself.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioKind {
    /// Fig. 2 — diode I-V curves.
    Diode,
    /// Fig. 3 — tissue-vs-air path loss.
    TissueLoss,
    /// Fig. 4 — conduction angle across placements.
    Conduction,
    /// Fig. 6 — best-vs-worst frequency-plan gain CDFs.
    GainCdf {
        /// Eq. 10 search configuration.
        freqsel: FreqSelSpec,
        /// Seed of the plan search (distinct from the CDF seed).
        plan_seed: u64,
        /// Envelope grid for the CDF trials.
        cdf_grid: QuickFull<usize>,
    },
    /// Fig. 9 — gain vs number of antennas, `1..=array.n_antennas`.
    GainVsAntennas,
    /// Fig. 10 — gain stability vs depth and orientation.
    GainStability {
        /// Depths swept, metres.
        depths_m: Vec<f64>,
        /// Orientations swept, radians.
        orientations_rad: Vec<f64>,
    },
    /// Fig. 11 — gain across the seven media.
    MediaGain,
    /// Fig. 12 — CIB/baseline power-ratio CDF.
    RatioCdf,
    /// Fig. 13 — range vs antennas (one panel; the figure derives four).
    Range {
        /// Largest antenna count searched.
        n_max: QuickFull<usize>,
    },
    /// §6.2 / Fig. 15 — the in-vivo swine campaign.
    InVivo,
    /// §5 — the frequency-plan optimization table.
    FreqPlanSearch {
        /// Eq. 10 search configuration.
        freqsel: FreqSelSpec,
    },
    /// Design-choice ablations.
    Ablations,
    /// End-to-end sample-path chain.
    Pipeline,
    /// The campaign workhorse: per-trial gain, power-up transient and
    /// downlink decode through the CIB ripple.
    PowerSession {
        /// Envelope sample rate for the harvester transient, S/s.
        powerup_rate: f64,
        /// Sample rate for command keying/decoding, S/s.
        command_rate: f64,
    },
    /// Population-scale anti-collision inventory: link budgets + inter-tag
    /// coupling feed a full Gen2 inventory under a pluggable policy.
    Inventory {
        /// The tag population and its coupling knobs.
        population: TagPopulation,
        /// Frame-sizing policy.
        policy: PolicySpec,
        /// Maximum inventory rounds per trial.
        max_rounds: usize,
        /// Capture threshold in dB (≤ 0 disables capture arbitration).
        capture_db: f64,
        /// Per-reply fade half-range in dB for capture contests.
        fade_db: f64,
    },
}

impl ScenarioKind {
    /// The JSON tag.
    pub fn type_name(&self) -> &'static str {
        match self {
            ScenarioKind::Diode => "diode",
            ScenarioKind::TissueLoss => "tissue_loss",
            ScenarioKind::Conduction => "conduction",
            ScenarioKind::GainCdf { .. } => "gain_cdf",
            ScenarioKind::GainVsAntennas => "gain_vs_antennas",
            ScenarioKind::GainStability { .. } => "gain_stability",
            ScenarioKind::MediaGain => "media_gain",
            ScenarioKind::RatioCdf => "ratio_cdf",
            ScenarioKind::Range { .. } => "range",
            ScenarioKind::InVivo => "in_vivo",
            ScenarioKind::FreqPlanSearch { .. } => "freq_plan_search",
            ScenarioKind::Ablations => "ablations",
            ScenarioKind::Pipeline => "pipeline",
            ScenarioKind::PowerSession { .. } => "power_session",
            ScenarioKind::Inventory { .. } => "inventory",
        }
    }

    /// Each kind's key list.
    fn keys(ty: &str) -> Option<Keys> {
        Some(match ty {
            "diode" | "tissue_loss" | "conduction" | "gain_vs_antennas" | "media_gain"
            | "ratio_cdf" | "in_vivo" | "ablations" | "pipeline" => &["type"],
            "gain_cdf" => &["type", "freqsel", "plan_seed", "cdf_grid"],
            "gain_stability" => &["type", "depths_m", "orientations_rad"],
            "range" => &["type", "n_max"],
            "freq_plan_search" => &["type", "freqsel"],
            "power_session" => &["type", "powerup_rate", "command_rate"],
            "inventory" => &[
                "type",
                "population",
                "policy",
                "max_rounds",
                "capture_db",
                "fade_db",
            ],
            _ => return None,
        })
    }

    /// The common scenario fields this kind's experiment reads, in
    /// canonical order (every kind reads `name` and `kind`). Parse
    /// rejects the others and [`Scenario::dump`] omits them.
    pub(crate) fn reads(&self) -> Keys {
        match self {
            ScenarioKind::Diode
            | ScenarioKind::TissueLoss
            | ScenarioKind::Conduction
            | ScenarioKind::Ablations
            | ScenarioKind::Pipeline => &[],
            ScenarioKind::FreqPlanSearch { .. } => &["seed"],
            ScenarioKind::GainCdf { .. } => &["seed", "trials"],
            ScenarioKind::GainVsAntennas | ScenarioKind::MediaGain | ScenarioKind::RatioCdf => {
                &["seed", "trials", "array"]
            }
            ScenarioKind::Range { .. } => &["seed", "array", "eirp_dbm"],
            ScenarioKind::InVivo => &["seed", "trials", "array", "eirp_dbm"],
            ScenarioKind::GainStability { .. } => &["seed", "trials", "array", "tag", "eirp_dbm"],
            ScenarioKind::PowerSession { .. } | ScenarioKind::Inventory { .. } => {
                &SCENARIO_KEYS[1..7]
            }
        }
    }
}

impl ToJson for ScenarioKind {
    fn to_json(&self) -> Json {
        let values = match self {
            ScenarioKind::GainCdf {
                freqsel,
                plan_seed,
                cdf_grid,
            } => vec![
                freqsel.to_json(),
                (*plan_seed as f64).into(),
                cdf_grid.to_json(),
            ],
            ScenarioKind::GainStability {
                depths_m,
                orientations_rad,
            } => vec![depths_m.clone().into(), orientations_rad.clone().into()],
            ScenarioKind::Range { n_max } => vec![n_max.to_json()],
            ScenarioKind::FreqPlanSearch { freqsel } => vec![freqsel.to_json()],
            ScenarioKind::PowerSession {
                powerup_rate,
                command_rate,
            } => vec![(*powerup_rate).into(), (*command_rate).into()],
            ScenarioKind::Inventory {
                population,
                policy,
                max_rounds,
                capture_db,
                fade_db,
            } => vec![
                population.to_json(),
                policy.to_json(),
                (*max_rounds).into(),
                (*capture_db).into(),
                (*fade_db).into(),
            ],
            _ => vec![],
        };
        keyed_tagged(self.type_name(), ScenarioKind::keys, values)
    }
}

impl FromJson for ScenarioKind {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let (ty, f) = Fields::tagged(value, ScenarioKind::keys)?;
        Ok(match ty {
            "diode" => ScenarioKind::Diode,
            "tissue_loss" => ScenarioKind::TissueLoss,
            "conduction" => ScenarioKind::Conduction,
            "gain_cdf" => ScenarioKind::GainCdf {
                freqsel: f.req("freqsel")?,
                plan_seed: f.req::<f64>("plan_seed")? as u64,
                cdf_grid: f.req("cdf_grid")?,
            },
            "gain_vs_antennas" => ScenarioKind::GainVsAntennas,
            "gain_stability" => ScenarioKind::GainStability {
                depths_m: f.req("depths_m")?,
                orientations_rad: f.req("orientations_rad")?,
            },
            "media_gain" => ScenarioKind::MediaGain,
            "ratio_cdf" => ScenarioKind::RatioCdf,
            "range" => ScenarioKind::Range {
                n_max: f.req("n_max")?,
            },
            "in_vivo" => ScenarioKind::InVivo,
            "freq_plan_search" => ScenarioKind::FreqPlanSearch {
                freqsel: f.req("freqsel")?,
            },
            "ablations" => ScenarioKind::Ablations,
            "pipeline" => ScenarioKind::Pipeline,
            "power_session" => ScenarioKind::PowerSession {
                powerup_rate: f.opt("powerup_rate")?.unwrap_or(4096.0),
                command_rate: f.opt("command_rate")?.unwrap_or(400e3),
            },
            "inventory" => ScenarioKind::Inventory {
                population: f.req("population")?,
                policy: f
                    .opt("policy")?
                    .unwrap_or(PolicySpec::Adaptive { q0: 4, c: 0.3 }),
                max_rounds: f.opt("max_rounds")?.unwrap_or(64),
                capture_db: f.opt("capture_db")?.unwrap_or(6.0),
                fade_db: f.opt("fade_db")?.unwrap_or(3.0),
            },
            _ => unreachable!("`Fields::tagged` admits only listed types"),
        })
    }
}

// ---------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------

/// One declarative experiment: the full configuration a campaign needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Name for reports and file naming.
    pub name: String,
    /// Campaign seed; trial `i` draws from stream `fork(i)`.
    pub seed: u64,
    /// Monte-Carlo trials per measurement (quick/full policy).
    pub trials: QuickFull<usize>,
    /// Antenna array + frequency plan.
    pub array: ArraySpec,
    /// Tag under test.
    pub(crate) tag: TagKind,
    /// Where the sensor sits (body preset / media stack).
    pub placement: PlacementSpec,
    /// Per-antenna EIRP, dBm.
    pub(crate) eirp_dbm: f64,
    /// Experiment family + its knobs.
    pub kind: ScenarioKind,
}

impl Scenario {
    /// A neutral base scenario: paper array, standard tag, free space.
    pub fn base(name: &str, kind: ScenarioKind) -> Self {
        Scenario {
            name: name.to_string(),
            seed: 1,
            trials: QuickFull { quick: 8, full: 50 },
            array: ArraySpec::paper(10),
            tag: TagKind::Standard,
            placement: PlacementSpec::FreeSpace { range_m: 2.0 },
            eirp_dbm: PAPER_EIRP_DBM,
            kind,
        }
    }

    /// Trial count for a run mode (the quick-mode policy).
    pub fn trial_count(&self, quick: bool) -> usize {
        self.trials.get(quick)
    }

    /// Resolved CIB configuration.
    pub(crate) fn cib(&self, quick: bool) -> CibConfig {
        self.array.cib(quick)
    }

    /// Same scenario with a different tag.
    pub fn with_tag(&self, tag: TagKind) -> Scenario {
        Scenario {
            tag,
            ..self.clone()
        }
    }

    /// Same scenario with a different placement.
    pub fn with_placement(&self, placement: PlacementSpec) -> Scenario {
        Scenario {
            placement,
            ..self.clone()
        }
    }

    /// Parses a scenario from JSON text.
    pub fn parse(text: &str) -> Result<Scenario, JsonError> {
        Scenario::from_json(&Json::parse(text)?)
    }

    /// Boundary checks on the fields the evaluation path sizes buffers
    /// with or divides by, so a hostile value is rejected here with the
    /// field's dot path instead of panicking deep inside a kernel.
    /// [`FromJson`] runs it on every parsed (and so every generated)
    /// scenario. Rejected `f64`s print in their shortest round-trip form
    /// (`{:?}`), so `1e308` reads as `1e308`, not as a 309-digit integer.
    pub fn validate(&self) -> Result<(), JsonError> {
        for (mode, n) in [("quick", self.trials.quick), ("full", self.trials.full)] {
            if n == 0 {
                return err(format!("trials.{mode} must be positive, got 0"));
            }
        }
        if !(self.eirp_dbm.is_finite() && self.eirp_dbm <= MAX_EIRP_DBM) {
            return err(format!(
                "eirp_dbm must be finite and at most {MAX_EIRP_DBM} dBm, got {:?}",
                self.eirp_dbm
            ));
        }
        self.array.validate()?;
        // Every length that places a sensor: a negative, non-finite or
        // huge one reaches the layered-media model as an impossible depth.
        let length = |path: &str, v: f64| {
            if (0.0..=MAX_LENGTH_M).contains(&v) {
                Ok(())
            } else {
                err(format!(
                    "{path} must be a length in [0, {MAX_LENGTH_M}] m, got {v:?}"
                ))
            }
        };
        match &self.placement {
            // The free-space range is the air gap, the 1/r reference of
            // the layered path, so 0 is as impossible as a negative one.
            PlacementSpec::FreeSpace { range_m } => {
                if !(*range_m > 0.0 && *range_m <= MAX_LENGTH_M) {
                    return err(format!(
                        "placement.range_m must be a length in (0, {MAX_LENGTH_M}] m, got {range_m:?}"
                    ));
                }
            }
            PlacementSpec::WaterTank { depth_m } | PlacementSpec::MediaBox { depth_m, .. } => {
                length("placement.depth_m", *depth_m)?
            }
            PlacementSpec::SwineGastric | PlacementSpec::SwineSubcutaneous => {}
        }
        match &self.kind {
            ScenarioKind::GainStability { depths_m, .. } => {
                for &d in depths_m {
                    length("kind.depths_m", d)?
                }
            }
            ScenarioKind::Inventory { population, .. } => {
                length("kind.population.spacing_m", population.spacing_m)?
            }
            ScenarioKind::Range { n_max } => {
                let hi = self.array.n_antennas;
                for (mode, n) in [("quick", n_max.quick), ("full", n_max.full)] {
                    if !(1..=hi).contains(&n) {
                        return err(format!(
                            "kind.n_max.{mode} must be in 1..={hi} (array.n_antennas), got {n}"
                        ));
                    }
                }
            }
            _ => {}
        }
        if !(1..=MAX_GRID).contains(&self.array.grid) {
            return err(format!(
                "array.grid must be in 1..={MAX_GRID}, got {}",
                self.array.grid
            ));
        }
        if let ScenarioKind::PowerSession {
            powerup_rate,
            command_rate,
        } = self.kind
        {
            let cap = MAX_ENVELOPE_RATE;
            if !(powerup_rate >= 1.0 && powerup_rate <= cap) {
                return err(format!(
                    "kind.powerup_rate must be in [1, {cap:e}] S/s, got {powerup_rate:?}"
                ));
            }
            // The power-up grid has `rate as usize` points and the
            // harvester steps at dt = 1/rate: only a whole rate keeps
            // the two on one clock.
            if powerup_rate.fract() != 0.0 {
                return err(format!(
                    "kind.powerup_rate must be a whole number of S/s, got {powerup_rate:?}"
                ));
            }
            if !(command_rate > 0.0 && command_rate <= cap) {
                return err(format!(
                    "kind.command_rate must be in (0, {cap:e}] S/s, got {command_rate:?}"
                ));
            }
        }
        Ok(())
    }

    /// Canonical JSON text (stable under parse → dump).
    pub fn dump(&self) -> String {
        self.to_json().dump()
    }
}

/// A scenario's keys in canonical order. Every kind reads `name` and
/// `kind`; the six between them are read as [`ScenarioKind::reads`] says.
static SCENARIO_KEYS: [&str; 8] = [
    "name",
    "seed",
    "trials",
    "array",
    "tag",
    "placement",
    "eirp_dbm",
    "kind",
];

impl ToJson for Scenario {
    /// Omits the fields the kind does not read.
    fn to_json(&self) -> Json {
        let reads = self.kind.reads();
        let values = [
            self.name.clone().into(),
            (self.seed as f64).into(),
            self.trials.to_json(),
            self.array.to_json(),
            self.tag.to_json(),
            self.placement.to_json(),
            self.eirp_dbm.into(),
            self.kind.to_json(),
        ];
        Json::Obj(
            SCENARIO_KEYS
                .iter()
                .zip(values)
                .filter(|(k, _)| matches!(**k, "name" | "kind") || reads.contains(k))
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

impl FromJson for Scenario {
    /// An absent field takes [`Scenario::base`]'s value; a present one the
    /// kind does not read is an error naming the kind.
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let f = Fields::of(value, &SCENARIO_KEYS)?;
        let d = Scenario::base("scenario", f.req("kind")?);
        let reads = d.kind.reads();
        let unread: Vec<&str> = SCENARIO_KEYS[1..7]
            .iter()
            .copied()
            .filter(|k| value.get(k).is_some() && !reads.contains(k))
            .collect();
        if !unread.is_empty() {
            let verb = if unread.len() == 1 { "is" } else { "are" };
            return err(format!(
                "{} {verb} not read by kind '{}'",
                unread.join(", "),
                d.kind.type_name()
            ));
        }
        let scenario = Scenario {
            name: f.opt("name")?.unwrap_or(d.name),
            seed: f.opt::<f64>("seed")?.map_or(d.seed, |v| v as u64),
            trials: f.opt("trials")?.unwrap_or(d.trials),
            array: f.opt("array")?.unwrap_or(d.array),
            tag: f.opt("tag")?.unwrap_or(d.tag),
            placement: f.opt("placement")?.unwrap_or(d.placement),
            eirp_dbm: f.opt("eirp_dbm")?.unwrap_or(d.eirp_dbm),
            kind: d.kind,
        };
        scenario.validate()?;
        Ok(scenario)
    }
}

// ---------------------------------------------------------------------
// Built-in registry
// ---------------------------------------------------------------------

/// Names of every built-in scenario, in `reproduce all` order plus the
/// campaign workhorses.
pub const BUILTIN_NAMES: [&str; 16] = [
    "fig2",
    "fig3",
    "fig4",
    "fig6",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "invivo",
    "freqs",
    "ablations",
    "pipeline",
    "session",
    "multisensor",
    "inventory",
];

/// Resolves a built-in scenario by name. Every figure/table target of
/// the paper's evaluation is one entry; `session` is the single-tag
/// campaign workhorse, and `multisensor` (§3.7's few sensors) and
/// `inventory` (a dense population) are both `inventory` kinds.
pub fn builtin(name: &str) -> Option<Scenario> {
    let s = match name {
        "fig2" => Scenario::base("fig2", ScenarioKind::Diode),
        "fig3" => Scenario::base("fig3", ScenarioKind::TissueLoss),
        "fig4" => Scenario::base("fig4", ScenarioKind::Conduction),
        "fig6" => Scenario {
            seed: 606,
            trials: QuickFull {
                quick: 200,
                full: 2000,
            },
            ..Scenario::base(
                "fig6",
                ScenarioKind::GainCdf {
                    freqsel: FreqSelSpec {
                        mc_draws: QuickFull {
                            quick: 32,
                            full: 96,
                        },
                        restarts: QuickFull { quick: 3, full: 6 },
                        iterations: QuickFull {
                            quick: 60,
                            full: 200,
                        },
                        ..FreqSelSpec::test_scale(5)
                    },
                    plan_seed: 2018,
                    cdf_grid: QuickFull {
                        quick: 1024,
                        full: 4096,
                    },
                },
            )
        },
        "fig9" => Scenario {
            seed: 918,
            trials: QuickFull {
                quick: 50,
                full: 150,
            },
            ..Scenario::base("fig9", ScenarioKind::GainVsAntennas)
        },
        "fig10" => Scenario {
            seed: 1010,
            trials: QuickFull {
                quick: 30,
                full: 100,
            },
            ..Scenario::base(
                "fig10",
                ScenarioKind::GainStability {
                    depths_m: vec![0.0, 0.025, 0.05, 0.075, 0.10, 0.125, 0.15, 0.175, 0.20],
                    orientations_rad: (0..9)
                        .map(|k| k as f64 * std::f64::consts::TAU / 8.0 / 2.0)
                        .collect(),
                },
            )
        },
        "fig11" => Scenario {
            seed: 1111,
            trials: QuickFull {
                quick: 40,
                full: 100,
            },
            ..Scenario::base("fig11", ScenarioKind::MediaGain)
        },
        "fig12" => Scenario {
            seed: 1212,
            trials: QuickFull {
                quick: 300,
                full: 3000,
            },
            ..Scenario::base("fig12", ScenarioKind::RatioCdf)
        },
        "fig13" => Scenario {
            seed: 1313,
            ..Scenario::base(
                "fig13",
                ScenarioKind::Range {
                    n_max: QuickFull { quick: 4, full: 8 },
                },
            )
        },
        "invivo" => Scenario {
            seed: 1515,
            trials: QuickFull { quick: 6, full: 12 },
            array: ArraySpec::paper(8),
            ..Scenario::base("invivo", ScenarioKind::InVivo)
        },
        "freqs" => Scenario {
            seed: 5150,
            ..Scenario::base(
                "freqs",
                ScenarioKind::FreqPlanSearch {
                    freqsel: FreqSelSpec::paper_scale(),
                },
            )
        },
        "ablations" => Scenario::base("ablations", ScenarioKind::Ablations),
        "pipeline" => Scenario::base("pipeline", ScenarioKind::Pipeline),
        "session" => Scenario {
            seed: 77,
            trials: QuickFull { quick: 4, full: 24 },
            array: ArraySpec {
                grid: 1024,
                ..ArraySpec::paper(8)
            },
            placement: PlacementSpec::WaterTank { depth_m: 0.08 },
            ..Scenario::base(
                "session",
                ScenarioKind::PowerSession {
                    powerup_rate: 2048.0,
                    command_rate: 400e3,
                },
            )
        },
        "multisensor" => Scenario {
            seed: 88,
            trials: QuickFull { quick: 3, full: 10 },
            array: ArraySpec::paper(8),
            placement: PlacementSpec::WaterTank { depth_m: 0.02 },
            ..Scenario::base(
                "multisensor",
                ScenarioKind::Inventory {
                    population: TagPopulation {
                        count: 5,
                        spacing_m: 0.03,
                        detuning: 0.0,
                        shadow_db: 0.0,
                    },
                    policy: PolicySpec::Adaptive { q0: 2, c: 0.3 },
                    max_rounds: 40,
                    capture_db: 0.0,
                    fade_db: 0.0,
                },
            )
        },
        "inventory" => Scenario {
            seed: 1001,
            trials: QuickFull { quick: 2, full: 8 },
            array: ArraySpec::paper(8),
            placement: PlacementSpec::WaterTank { depth_m: 0.02 },
            ..Scenario::base(
                "inventory",
                ScenarioKind::Inventory {
                    population: TagPopulation {
                        count: 64,
                        spacing_m: 0.002,
                        detuning: 0.05,
                        shadow_db: 0.1,
                    },
                    policy: PolicySpec::Adaptive { q0: 6, c: 0.3 },
                    max_rounds: 256,
                    capture_db: 6.0,
                    fade_db: 3.0,
                },
            )
        },
        _ => return None,
    };
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_round_trips_byte_identically() {
        for name in BUILTIN_NAMES {
            let s = builtin(name).expect(name);
            let text = s.dump();
            let back = Scenario::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back, s, "{name} value round trip");
            assert_eq!(back.dump(), text, "{name} byte round trip");
        }
        assert!(builtin("nope").is_none());
    }

    #[test]
    fn unknown_fields_tolerated() {
        let mut s = builtin("fig9").unwrap().to_json();
        if let Json::Obj(pairs) = &mut s {
            pairs.push(("comment".into(), Json::Str("hand-edited".into())));
            pairs.insert(0, ("_version".into(), Json::Num(2.0)));
        }
        let back = Scenario::from_json(&s).unwrap();
        assert_eq!(back, builtin("fig9").unwrap());
    }

    #[test]
    fn defaults_fill_missing_substrate() {
        let s = Scenario::parse(r#"{"kind":{"type":"media_gain"}}"#).unwrap();
        assert_eq!(s.name, "scenario");
        assert_eq!(s.seed, 1);
        assert_eq!(s.array.n_antennas, 10);
        assert_eq!(s.tag, TagKind::Standard);
        assert!(matches!(s.placement, PlacementSpec::FreeSpace { .. }));
        assert_eq!(s.eirp_dbm, PAPER_EIRP_DBM);
    }

    #[test]
    fn kind_is_required() {
        assert!(Scenario::parse(r#"{"name":"x"}"#).is_err());
    }

    #[test]
    fn quickfull_accepts_bare_scalar() {
        let s = Scenario::parse(r#"{"trials":17,"kind":{"type":"ratio_cdf"}}"#).unwrap();
        assert_eq!(
            s.trials,
            QuickFull {
                quick: 17,
                full: 17
            }
        );
    }

    #[test]
    fn float_fields_round_trip_exactly() {
        let mut s = builtin("session").unwrap();
        s.eirp_dbm = 36.99999999999997;
        s.placement = PlacementSpec::WaterTank {
            depth_m: 0.1 + 1e-17,
        };
        s.array.carrier_hz = 915e6 + 1.0 / 3.0;
        let back = Scenario::parse(&s.dump()).unwrap();
        assert_eq!(back.eirp_dbm.to_bits(), s.eirp_dbm.to_bits());
        assert_eq!(
            back.array.carrier_hz.to_bits(),
            s.array.carrier_hz.to_bits()
        );
        let (PlacementSpec::WaterTank { depth_m: a }, PlacementSpec::WaterTank { depth_m: b }) =
            (&back.placement, &s.placement)
        else {
            panic!("placement kind changed");
        };
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn explicit_offsets_infer_antenna_count() {
        let s = Scenario::parse(
            r#"{"array":{"plan":{"type":"offsets","offsets_hz":[0,11,29]}},
                "kind":{"type":"ratio_cdf"}}"#,
        )
        .unwrap();
        assert_eq!(s.array.n_antennas, 3);
        assert_eq!(s.cib(true).offsets_hz, vec![0.0, 11.0, 29.0]);
    }

    #[test]
    fn mismatched_offsets_count_rejected() {
        let r = Scenario::parse(
            r#"{"array":{"n_antennas":5,"plan":{"type":"offsets","offsets_hz":[0,11]}},
                "kind":{"type":"ratio_cdf"}}"#,
        );
        assert!(r.is_err());
    }

    #[test]
    fn medium_lookup_covers_figure11_media() {
        for m in Medium::figure11_media() {
            assert!(medium_by_name(&m.name).is_some(), "missing {}", m.name);
        }
        assert!(medium_by_name("unobtainium").is_none());
    }

    #[test]
    fn inventory_kind_defaults_and_tolerance() {
        // Only the population count is mandatory; everything else
        // defaults.
        let s =
            Scenario::parse(r#"{"kind":{"type":"inventory","population":{"count":100}}}"#).unwrap();
        let ScenarioKind::Inventory {
            population,
            policy,
            max_rounds,
            capture_db,
            fade_db,
        } = &s.kind
        else {
            panic!("wrong kind");
        };
        assert_eq!(population.count, 100);
        assert_eq!(population.spacing_m, 0.001);
        assert_eq!(*policy, PolicySpec::Adaptive { q0: 4, c: 0.3 });
        assert_eq!(*max_rounds, 64);
        assert_eq!(*capture_db, 6.0);
        assert_eq!(*fade_db, 3.0);
        assert!(
            Scenario::parse(r#"{"kind":{"type":"inventory","population":{"count":0}}}"#).is_err()
        );
    }

    #[test]
    fn policy_specs_round_trip_and_build() {
        for p in PolicySpec::default_arms() {
            let back = PolicySpec::from_json(&p.to_json()).unwrap();
            assert_eq!(back, p);
            assert_eq!(back.build().name(), p.name());
        }
        assert!(PolicySpec::from_json(&Json::parse(r#"{"type":"aloha"}"#).unwrap()).is_err());
    }

    #[test]
    fn placement_offsets_move_the_geometry_axis() {
        let p = PlacementSpec::WaterTank { depth_m: 0.05 };
        let PlacementSpec::WaterTank { depth_m } = p.at_offset(0.03) else {
            panic!()
        };
        assert!((depth_m - 0.08).abs() < 1e-12);
        // Swine presets have no geometry knob; the offset is a no-op.
        assert_eq!(
            PlacementSpec::SwineGastric.at_offset(1.0),
            PlacementSpec::SwineGastric
        );
    }
}
