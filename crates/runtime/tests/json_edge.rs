//! Edge-case coverage for the minimal JSON layer: string escapes,
//! nesting limits, tolerance of unknown fields, and bit-exact float
//! round-trips — the properties the scenario substrate leans on.

use ivn_runtime::json::{FromJson, Json};

// ---------------------------------------------------------------------
// String escapes.
// ---------------------------------------------------------------------

#[test]
fn escape_round_trips() {
    let cases = [
        "plain",
        "tab\there",
        "newline\nand return\r",
        "quote\"backslash\\slash/",
        "control \u{1} \u{1f} bytes",
        "bell\u{8}feed\u{c}",
        "unicode é ü 中文 ελληνικά",
        "emoji \u{1f600} pair \u{1f680}",
        "",
    ];
    for s in cases {
        let dumped = Json::Str(s.to_string()).dump();
        let parsed = Json::parse(&dumped).unwrap_or_else(|e| panic!("{s:?}: {}", e.reason));
        assert_eq!(parsed, Json::Str(s.to_string()), "{s:?} via {dumped}");
    }
}

#[test]
fn surrogate_pairs_and_bad_escapes() {
    // A surrogate pair decodes to one astral-plane scalar.
    assert_eq!(
        Json::parse("\"\\ud83d\\ude00\"").unwrap(),
        Json::Str("\u{1f600}".into())
    );
    // A lone high surrogate is an error, not replacement garbage.
    assert!(Json::parse("\"\\ud83d\"").is_err());
    // A high surrogate followed by a non-surrogate escape is an error.
    assert!(Json::parse("\"\\ud83d\\u0041\"").is_err());
    // Truncated and invalid \u escapes are errors.
    assert!(Json::parse("\"\\u00\"").is_err());
    assert!(Json::parse("\"\\uZZZZ\"").is_err());
    // Unknown single-letter escapes are errors.
    assert!(Json::parse("\"\\x\"").is_err());
}

// ---------------------------------------------------------------------
// Deep nesting: the parser refuses stack-blowing inputs at a fixed
// depth rather than crashing.
// ---------------------------------------------------------------------

fn nested_arrays(depth: usize) -> String {
    let mut s = String::new();
    for _ in 0..depth {
        s.push('[');
    }
    s.push('1');
    for _ in 0..depth {
        s.push(']');
    }
    s
}

#[test]
fn nesting_accepted_below_limit_rejected_above() {
    // 127 nested arrays parse; a pathological 5000-deep input errors
    // cleanly instead of overflowing the stack.
    assert!(Json::parse(&nested_arrays(127)).is_ok());
    let err = Json::parse(&nested_arrays(5000)).unwrap_err();
    assert!(err.reason.contains("deep"), "{}", err.reason);
    // Mixed object/array nesting hits the same guard.
    let mut deep = String::new();
    for _ in 0..3000 {
        deep.push_str("{\"k\":[");
    }
    assert!(Json::parse(&deep).is_err());
}

// ---------------------------------------------------------------------
// Unknown-field tolerance: decoding through `get` ignores extra keys,
// so scenario files written by newer versions still load.
// ---------------------------------------------------------------------

#[test]
fn unknown_fields_are_ignored_by_get() {
    let v = Json::parse(r#"{"known": 3, "future_knob": {"a": [1,2]}, "note": "hi"}"#).unwrap();
    assert_eq!(f64::from_json(v.get("known").unwrap()).unwrap(), 3.0);
    assert!(v.get("missing").is_none());
    // Unknown keys survive a round-trip untouched (insertion order kept).
    assert_eq!(Json::parse(&v.dump()).unwrap(), v);
}

// ---------------------------------------------------------------------
// Float round-trips: dump → parse must be bit-exact for every value the
// scenario engine stores (depths, rates, seeds-as-f64, jittered EIRPs).
// ---------------------------------------------------------------------

#[test]
fn floats_round_trip_bit_exact() {
    let cases = [
        0.0,
        -0.0,
        0.1,
        1.0 / 3.0,
        2.5e-8,
        915e6,
        199.0,
        f64::MIN_POSITIVE,          // smallest normal
        f64::MIN_POSITIVE / 1024.0, // subnormal
        f64::MAX,
        -f64::MAX,
        1e308,
        123456789.12345679,
        (1u64 << 53) as f64,
        37.0 * (1.0 + 0.05 * (2.0 * 0.123456789 - 1.0)), // a jittered EIRP
    ];
    for x in cases {
        let dumped = Json::Num(x).dump();
        let parsed = Json::parse(&dumped).unwrap();
        let Json::Num(y) = parsed else {
            panic!("{x} parsed to non-number")
        };
        assert_eq!(x.to_bits(), y.to_bits(), "{x} via {dumped} -> {y}");
    }
}

#[test]
fn float_dump_is_stable_under_reparse() {
    // dump(parse(dump(x))) == dump(x): byte-identity for re-exports.
    for x in [0.1, 1e-300, 7.0 / 11.0, 1.7976931348623157e308] {
        let once = Json::Num(x).dump();
        let twice = Json::parse(&once).unwrap().dump();
        assert_eq!(once, twice);
    }
}

#[test]
fn non_finite_numbers_are_unrepresentable() {
    // JSON has no NaN/Infinity; the parser must reject the idents and
    // the emitter must not produce unparseable output for them.
    assert!(Json::parse("NaN").is_err());
    assert!(Json::parse("Infinity").is_err());
    assert!(Json::parse("-Infinity").is_err());
}
