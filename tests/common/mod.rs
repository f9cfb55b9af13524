//! Scenario setup shared by the cross-crate integration tests.
//!
//! Each test binary compiles this module independently and uses a
//! subset, so unused helpers are expected.
#![allow(dead_code)]

use ivn::rfid::commands::{Command, DivideRatio, Session, TagEncoding};
use ivn::rfid::pie::{encode_frame, rasterize, PieParams};

/// The canonical Query (DR=8, FM0, no TRext, session S0, Q=0) every
/// downlink scenario keys on.
pub fn query() -> Command {
    Command::Query {
        dr: DivideRatio::Dr8,
        m: TagEncoding::Fm0,
        trext: false,
        session: Session::S0,
        q: 0,
    }
}

/// Encodes the canonical Query into a rasterized PIE envelope at
/// `sample_rate` with notches at `low_level`; returns the command bits
/// alongside the envelope.
pub fn rasterized_query(sample_rate: f64, low_level: f64) -> (Vec<bool>, Vec<f64>) {
    let bits = query().encode();
    let runs = encode_frame(&bits, &PieParams::paper_defaults(), true);
    let env = rasterize(&runs, sample_rate, low_level);
    (bits, env)
}

/// Parses figure output into numeric rows: every line starting with a
/// digit becomes the vector of its parseable whitespace-separated cells.
pub fn numeric_rows(s: &str) -> Vec<Vec<f64>> {
    s.lines()
        .filter(|l| l.trim_start().starts_with(char::is_numeric))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .collect()
}

/// The committed `reproduce <target> --quick` output,
/// `tests/golden/figures/<target>.quick.txt`.
pub fn golden(target: &str) -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/figures")
        .join(format!("{target}.quick.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}
