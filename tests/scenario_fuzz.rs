//! Fuzzing the scenario boundary. Scenario files are user input: a
//! mutated file must parse to a scenario or to an error naming what is
//! wrong, and a mutated `session` scenario that parses must evaluate to
//! metrics or to an error — never panic anywhere on the way.
//!
//! The mutations walk the JSON tree of a builtin: delete a field, flip a
//! number's sign, set it to 0, NaN, 1e308 or a fraction, swap a node for
//! another JSON type, or misspell its key. Every builtin goes through
//! `parse → validate`; the `session` builtin goes on through `evaluate`
//! in quick mode. A misspelled key must be an error that names it.

use ivn::core::scenario::{builtin, evaluate, Scenario, BUILTIN_NAMES};
use ivn_runtime::json::{FromJson, Json, ToJson};
use ivn_runtime::prop::{any, vec as pvec};
use ivn_runtime::{prop_assert, props};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One edit of a JSON node.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Delete,
    FlipSign,
    Zero,
    Nan,
    Huge,
    /// `x + 0.5` (a fractional rate, count or size).
    Fraction,
    ToString,
    ToBool,
    ToNull,
    ToArray,
    ToObject,
    /// The node's key with its last letter doubled (`seed` → `seedd`).
    RenameKey,
}

const MUTATIONS: [Mutation; 12] = [
    Mutation::Delete,
    Mutation::FlipSign,
    Mutation::Zero,
    Mutation::Nan,
    Mutation::Huge,
    Mutation::Fraction,
    Mutation::ToString,
    Mutation::ToBool,
    Mutation::ToNull,
    Mutation::ToArray,
    Mutation::ToObject,
    Mutation::RenameKey,
];

/// A node's position: object keys and array indices from the root.
type Path = Vec<usize>;

/// Every node below the root, parents before children.
fn paths(json: &Json) -> Vec<Path> {
    fn walk(node: &Json, at: &mut Path, out: &mut Vec<Path>) {
        let children: Vec<&Json> = match node {
            Json::Obj(pairs) => pairs.iter().map(|(_, v)| v).collect(),
            Json::Arr(items) => items.iter().collect(),
            _ => return,
        };
        for (i, child) in children.into_iter().enumerate() {
            at.push(i);
            out.push(at.clone());
            walk(child, at, out);
            at.pop();
        }
    }
    let mut out = Vec::new();
    walk(json, &mut Vec::new(), &mut out);
    out
}

fn child_mut(node: &mut Json, i: usize) -> &mut Json {
    match node {
        Json::Obj(pairs) => &mut pairs[i].1,
        Json::Arr(items) => &mut items[i],
        _ => unreachable!("paths only index containers"),
    }
}

/// Applies `m` to the node at `path` (non-empty).
fn mutate(root: &mut Json, path: &[usize], m: Mutation) {
    let (&last, parent_path) = path.split_last().expect("non-root path");
    let parent = parent_path.iter().fold(root, |node, &i| child_mut(node, i));
    match (m, parent) {
        (Mutation::Delete, Json::Obj(pairs)) => drop(pairs.remove(last)),
        (Mutation::Delete, Json::Arr(items)) => drop(items.remove(last)),
        (Mutation::RenameKey, Json::Obj(pairs)) => {
            let key = &mut pairs[last].0;
            key.push(key.chars().last().expect("keys are not empty"));
        }
        // An array item has no key to misspell.
        (Mutation::RenameKey, _) => {}
        (_, parent) => mutate_node(child_mut(parent, last), m),
    }
}

/// Applies a value mutation `m` to `node`.
fn mutate_node(node: &mut Json, m: Mutation) {
    let x = node.as_f64();
    *node = match m {
        Mutation::Delete | Mutation::RenameKey => unreachable!("handled by `mutate`"),
        Mutation::FlipSign => Json::Num(-x.unwrap_or(1.0)),
        Mutation::Zero => Json::Num(0.0),
        Mutation::Nan => Json::Num(f64::NAN),
        Mutation::Huge => Json::Num(1e308),
        Mutation::Fraction => Json::Num(x.unwrap_or(0.0) + 0.5),
        Mutation::ToString => Json::Str("x".into()),
        Mutation::ToBool => Json::Bool(true),
        Mutation::ToNull => Json::Null,
        Mutation::ToArray => Json::Arr(Vec::new()),
        Mutation::ToObject => Json::Obj(Vec::new()),
    };
}

/// The builtin `name` with each `(node pick, mutation)` applied in turn;
/// a pick indexes the paths of the tree as the previous edits left it.
fn mutated(name: &str, picks: &[(u32, usize)]) -> Json {
    let mut json = builtin(name).expect("builtin").to_json();
    for &(pick, m) in picks {
        let all = paths(&json);
        if all.is_empty() {
            break;
        }
        mutate(&mut json, &all[pick as usize % all.len()], MUTATIONS[m]);
    }
    json
}

/// `parse → validate` through the JSON value (which can carry NaN) and
/// through its text (which carries NaN as `null`). A panic is reported
/// as an `Err` tagged `panic`.
fn parse_and_validate(json: &Json) -> Result<Result<Scenario, String>, String> {
    let run = || {
        let _ = Scenario::parse(&json.dump()).map(|s| s.validate());
        Scenario::from_json(json)
            .and_then(|s| s.validate().map(|()| s))
            .map_err(|e| e.reason)
    };
    catch_unwind(AssertUnwindSafe(run)).map_err(|_| format!("panic parsing {}", json.dump()))
}

/// Parses and, when that succeeds, evaluates in quick mode; `Ok(true)`
/// when the mutated scenario reached `evaluate`.
fn parse_and_evaluate(json: &Json) -> Result<bool, String> {
    let Ok(s) = parse_and_validate(json)? else {
        return Ok(false);
    };
    catch_unwind(AssertUnwindSafe(|| drop(evaluate(&s, true))))
        .map_err(|_| format!("panic evaluating {}", json.dump()))?;
    Ok(true)
}

#[test]
fn every_single_mutation_of_session_parses_and_evaluates_without_panic() {
    let base = builtin("session").expect("builtin").to_json();
    let all = paths(&base);
    assert!(all.len() >= 15, "session has {} nodes", all.len());
    let mut evaluated = 0;
    for path in &all {
        for m in MUTATIONS {
            let mut json = base.clone();
            mutate(&mut json, path, m);
            match parse_and_evaluate(&json) {
                Ok(ran) => evaluated += ran as usize,
                Err(e) => panic!("{m:?} at {path:?}: {e}"),
            }
        }
    }
    // Deleted optional fields, sign flips of signed ones and the like
    // still parse, so the evaluation path is exercised too.
    assert!(evaluated >= 20, "only {evaluated} mutants reached evaluate");
}

#[test]
fn every_single_mutation_of_every_builtin_parses_without_panic() {
    for name in BUILTIN_NAMES {
        let base = builtin(name).expect("builtin").to_json();
        for path in paths(&base) {
            for m in MUTATIONS {
                let mut json = base.clone();
                mutate(&mut json, &path, m);
                if let Err(e) = parse_and_validate(&json) {
                    panic!("{name}: {m:?} at {path:?}: {e}");
                }
            }
        }
    }
}

#[test]
fn every_misspelled_key_of_every_builtin_is_an_error_naming_it() {
    let mut renamed = 0;
    for name in BUILTIN_NAMES {
        let base = builtin(name).expect("builtin").to_json();
        for path in paths(&base) {
            let mut json = base.clone();
            mutate(&mut json, &path, Mutation::RenameKey);
            let (&last, parent_path) = path.split_last().expect("non-root path");
            let parent = parent_path
                .iter()
                .fold(&mut json, |node, &i| child_mut(node, i));
            let Json::Obj(pairs) = parent else {
                continue;
            };
            let key = pairs[last].0.clone();
            match parse_and_validate(&json) {
                Ok(Err(reason)) => assert!(reason.contains(&key), "{name}: '{key}': {reason}"),
                Ok(Ok(_)) => panic!("{name}: misspelled key '{key}' parsed"),
                Err(panic) => panic!("{name}: {panic}"),
            }
            renamed += 1;
        }
    }
    assert!(renamed >= 100, "only {renamed} keys renamed");
}

props! {
    cases = 128;

    fn stacked_session_mutations_parse_and_evaluate_without_panic(
        picks in pvec((any::<u32>(), 0..MUTATIONS.len()), 2..=4)
    ) {
        let json = mutated("session", &picks);
        let outcome = parse_and_evaluate(&json);
        prop_assert!(outcome.is_ok(), "{picks:?}: {}", outcome.unwrap_err());
    }

    fn stacked_builtin_mutations_parse_without_panic(
        which in 0..BUILTIN_NAMES.len(),
        picks in pvec((any::<u32>(), 0..MUTATIONS.len()), 2..=4)
    ) {
        let json = mutated(BUILTIN_NAMES[which], &picks);
        let outcome = parse_and_validate(&json);
        prop_assert!(
            outcome.is_ok(),
            "{} {picks:?}: {}",
            BUILTIN_NAMES[which],
            outcome.unwrap_err()
        );
    }
}
