//! Scenario mass-production: grid sweeps and seeded jitter over any
//! scenario field.
//!
//! The generator works on the **canonical JSON form** of a scenario, so
//! any field addressable by a dot path (`"placement.depth_m"`,
//! `"array.n_antennas"`, `"kind.population"`) can be swept or jittered
//! without the generator knowing the schema. Scenario `i` of a
//! [`GenSpec`]:
//!
//! * takes grid coordinates `i mod ∏|axis|` decomposed mixed-radix over
//!   the sweep axes (first axis varies fastest),
//! * multiplies each jittered numeric field by `1 + frac·(2u−1)` with
//!   `u` drawn from RNG stream `seed_from_u64(gen_seed).fork(i)`,
//! * drops what a sweep over `kind.type` leaves stale (the old kind's
//!   keys and the common fields the new kind does not read; a swept or
//!   jittered field among them is an error),
//! * is renamed `{base}-{i:05}` and, if its kind reads a seed, reseeded
//!   `base_seed + i` so every generated scenario runs distinct trial
//!   streams,
//! * and is re-parsed through [`Scenario::from_json`], so an axis that
//!   breaks the schema is a per-scenario error, not a latent panic.
//!
//! Everything is deterministic in `(base, axes, jitters, count, seed)`.

use super::{Scenario, ScenarioKind};
use ivn_runtime::json::{FromJson, Json, ToJson};
use ivn_runtime::rng::{Rng, StdRng};

/// One grid axis: a dot-path into the scenario JSON and the values it
/// cycles through.
#[derive(Debug, Clone)]
pub struct SweepAxis {
    /// Dot-separated field path, e.g. `"placement.depth_m"`.
    pub path: String,
    /// Values the axis takes (any JSON value).
    pub values: Vec<Json>,
}

/// Seeded multiplicative jitter on a numeric field: the value is scaled
/// by `1 + frac·(2u−1)`, `u ~ U[0,1)` per generated scenario.
#[derive(Debug, Clone)]
pub struct JitterSpec {
    /// Dot-separated field path; must address a number.
    pub path: String,
    /// Relative half-width, e.g. `0.1` for ±10%.
    pub frac: f64,
}

/// A full generation request.
#[derive(Debug, Clone)]
pub struct GenSpec {
    /// The scenario every variant starts from.
    pub base: Scenario,
    /// How many scenarios to produce; `0` means one per grid point.
    pub count: usize,
    /// Jitter seed (independent of the scenarios' trial seeds).
    pub seed: u64,
    /// Grid axes (may be empty).
    pub sweeps: Vec<SweepAxis>,
    /// Jittered fields (may be empty).
    pub jitters: Vec<JitterSpec>,
}

/// Looks up a mutable reference to the value at `path`.
fn at_path<'a>(root: &'a mut Json, path: &str) -> Result<&'a mut Json, String> {
    let mut cur = root;
    for seg in path.split('.') {
        let Json::Obj(pairs) = cur else {
            return Err(format!("path '{path}': '{seg}' parent is not an object"));
        };
        cur = match pairs.iter_mut().find(|(k, _)| k == seg) {
            Some((_, v)) => v,
            None => return Err(format!("path '{path}': no field '{seg}'")),
        };
    }
    Ok(cur)
}

/// Replaces the value at `path` (the field must already exist in the
/// canonical form — the generator never invents schema).
pub fn set_path(root: &mut Json, path: &str, value: Json) -> Result<(), String> {
    *at_path(root, path)? = value;
    Ok(())
}

/// Drops the fields of a canonical scenario dump that its kind does not
/// read: the keys of another kind type and the common fields outside
/// [`ScenarioKind::reads`].
fn drop_unread(json: &mut Json) -> Result<(), String> {
    let Json::Obj(pairs) = json else {
        return Ok(());
    };
    let Some((_, kind)) = pairs.iter_mut().find(|(k, _)| k == "kind") else {
        return Ok(());
    };
    let keys = kind
        .get("type")
        .and_then(Json::as_str)
        .and_then(ScenarioKind::keys);
    if let (Some(keys), Json::Obj(kind_pairs)) = (keys, &mut *kind) {
        kind_pairs.retain(|(k, _)| keys.contains(&k.as_str()));
    }
    let reads = ScenarioKind::from_json(kind).map_err(|e| e.reason)?.reads();
    pairs.retain(|(k, _)| matches!(k.as_str(), "name" | "kind") || reads.contains(&k.as_str()));
    Ok(())
}

/// Number of grid points (`1` when there are no sweep axes).
pub(crate) fn grid_size(sweeps: &[SweepAxis]) -> usize {
    sweeps
        .iter()
        .map(|a| a.values.len().max(1))
        .product::<usize>()
        .max(1)
}

/// Generates `spec.count` scenarios (or one per grid point when
/// `count == 0`). Deterministic; errors name the offending path.
pub fn generate(spec: &GenSpec) -> Result<Vec<Scenario>, String> {
    for axis in &spec.sweeps {
        if axis.values.is_empty() {
            return Err(format!("sweep '{}' has no values", axis.path));
        }
    }
    let grid = grid_size(&spec.sweeps);
    let count = if spec.count == 0 { grid } else { spec.count };
    let base_json = spec.base.to_json();
    let root_rng = StdRng::seed_from_u64(spec.seed);

    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let mut json = base_json.clone();

        // Grid coordinates, mixed radix, first axis fastest.
        let mut rem = i % grid;
        for axis in &spec.sweeps {
            let k = rem % axis.values.len();
            rem /= axis.values.len();
            set_path(&mut json, &axis.path, axis.values[k].clone())?;
        }

        // Seeded jitter, one RNG stream per scenario.
        let mut rng = root_rng.fork(i as u64);
        for j in &spec.jitters {
            let slot = at_path(&mut json, &j.path)?;
            let Json::Num(v) = slot else {
                return Err(format!("jitter '{}': field is not a number", j.path));
            };
            let u: f64 = rng.random();
            *slot = Json::Num(*v * (1.0 + j.frac * (2.0 * u - 1.0)));
        }

        // A swept `kind.type` leaves the old kind's fields behind; drop
        // them, but never a field the spec set.
        let invalid = |e: String| format!("scenario {i} failed validation: {e}");
        drop_unread(&mut json).map_err(invalid)?;
        let paths = spec.sweeps.iter().map(|a| &a.path);
        for path in paths.chain(spec.jitters.iter().map(|j| &j.path)) {
            at_path(&mut json, path)
                .map_err(|_| invalid(format!("its kind does not read {path}")))?;
        }

        // Distinct name + trial seed, then validate through the schema.
        set_path(
            &mut json,
            "name",
            Json::Str(format!("{}-{i:05}", spec.base.name)),
        )?;
        if let Ok(seed) = at_path(&mut json, "seed") {
            *seed = Json::Num((spec.base.seed + i as u64) as f64);
        }
        let s = Scenario::from_json(&json).map_err(|e| invalid(e.reason))?;
        out.push(s);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::{builtin, PlacementSpec};
    use super::*;

    fn spec() -> GenSpec {
        GenSpec {
            base: builtin("session").unwrap(),
            count: 0,
            seed: 9,
            sweeps: vec![
                SweepAxis {
                    path: "placement.depth_m".into(),
                    values: vec![Json::Num(0.02), Json::Num(0.06), Json::Num(0.10)],
                },
                SweepAxis {
                    path: "array.n_antennas".into(),
                    values: vec![Json::Num(4.0), Json::Num(8.0)],
                },
            ],
            jitters: vec![JitterSpec {
                path: "eirp_dbm".into(),
                frac: 0.05,
            }],
        }
    }

    #[test]
    fn grid_covers_every_combination() {
        let scenarios = generate(&spec()).unwrap();
        assert_eq!(scenarios.len(), 6);
        let mut combos: Vec<(usize, String)> = scenarios
            .iter()
            .map(|s| {
                let PlacementSpec::WaterTank { depth_m } = s.placement else {
                    panic!("placement kind changed")
                };
                (s.array.n_antennas, format!("{depth_m:.2}"))
            })
            .collect();
        combos.sort();
        combos.dedup();
        assert_eq!(combos.len(), 6, "duplicate grid points");
    }

    #[test]
    fn names_and_seeds_are_distinct_and_stable() {
        let scenarios = generate(&spec()).unwrap();
        assert_eq!(scenarios[0].name, "session-00000");
        assert_eq!(scenarios[5].name, "session-00005");
        let base_seed = builtin("session").unwrap().seed;
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.seed, base_seed + i as u64);
        }
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let a = generate(&spec()).unwrap();
        let b = generate(&spec()).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y, "generation must be deterministic");
        }
        let mut distinct = false;
        for s in &a {
            let rel = (s.eirp_dbm - 37.0) / 37.0;
            assert!(rel.abs() <= 0.05 + 1e-12, "jitter out of range: {rel}");
            if s.eirp_dbm != 37.0 {
                distinct = true;
            }
        }
        assert!(distinct, "jitter had no effect");
    }

    #[test]
    fn count_beyond_grid_wraps_with_fresh_jitter() {
        let mut g = spec();
        g.count = 14;
        let scenarios = generate(&g).unwrap();
        assert_eq!(scenarios.len(), 14);
        // Same grid point, different jitter stream and seed.
        assert_eq!(scenarios[0].array.n_antennas, scenarios[6].array.n_antennas);
        assert_ne!(scenarios[0].eirp_dbm, scenarios[6].eirp_dbm);
        assert_ne!(scenarios[0].seed, scenarios[6].seed);
    }

    #[test]
    fn bad_paths_are_reported() {
        let mut g = spec();
        g.sweeps[0].path = "placement.range_m".into(); // water tank has depth_m
        let err = generate(&g).unwrap_err();
        assert!(err.contains("range_m"), "{err}");

        let mut g = spec();
        g.jitters[0].path = "name".into();
        let err = generate(&g).unwrap_err();
        assert!(err.contains("not a number"), "{err}");
    }

    #[test]
    fn kind_type_sweeps_drop_what_the_new_kind_does_not_read() {
        let kinds = [
            "power_session",
            "media_gain",
            "in_vivo",
            "gain_vs_antennas",
            "diode",
        ];
        let mut g = spec();
        g.sweeps = vec![SweepAxis {
            path: "kind.type".into(),
            values: kinds.map(Json::from).to_vec(),
        }];
        g.jitters.clear();
        let scenarios = generate(&g).unwrap();
        for (s, kind) in scenarios.iter().zip(kinds) {
            assert_eq!(s.kind.type_name(), kind);
            assert_eq!(Scenario::parse(&s.dump()).unwrap(), *s);
        }
        let base = builtin("session").unwrap();
        assert_eq!(scenarios[1].array, base.array);
        assert_eq!(
            scenarios[4].seed,
            Scenario::base("", ScenarioKind::Diode).seed
        );
        // A swept or jittered field the new kind does not read is an error.
        g.jitters = spec().jitters;
        let err = generate(&g).unwrap_err();
        assert!(
            err.contains("scenario 1") && err.contains("eirp_dbm"),
            "{err}"
        );
    }

    #[test]
    fn generated_scenarios_revalidate_through_schema() {
        let mut g = spec();
        // Sweeping antennas to 0 must be caught by Scenario validation.
        g.sweeps[1].values = vec![Json::Num(0.0)];
        let err = generate(&g).unwrap_err();
        assert!(err.contains("validation"), "{err}");
    }
}
