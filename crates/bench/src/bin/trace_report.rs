//! `trace_report` — offline analyzer for Chrome Trace Event JSON written
//! by `reproduce --trace`.
//!
//! ```text
//! trace_report <trace.json> [--check] [--top <k>] [--attribute]
//! ```
//!
//! Prints the profiler view (self-vs-total per span name, per-track
//! utilization, critical path, widest idle gaps, physics counter tracks).
//! With `--check` it instead validates the file — parses through the
//! in-tree JSON layer, requires a non-empty `traceEvents` array and a
//! matching `E` for every `B` — and exits non-zero on violation
//! (`scripts/verify.sh` runs this as the trace round-trip gate).
//! With `--attribute` it prints the bottleneck attribution report
//! instead: span self time grouped and ranked by pipeline stage, and
//! pool-lane (`pool.job`) utilization and imbalance, so a flat thread
//! sweep gets an explanation instead of a number.

use ivn_bench::trace_analysis::{analyze, attribute};
use ivn_runtime::json::Json;
use ivn_runtime::trace::Trace;
use std::process::ExitCode;

const USAGE: &str = "usage: trace_report <trace.json> [--check] [--top <k>] [--attribute]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let with_attribution = args.iter().any(|a| a == "--attribute");
    let top_k = args
        .iter()
        .position(|a| a == "--top")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(5);
    let path = {
        let mut paths = Vec::new();
        let mut skip = false;
        for a in &args {
            if skip {
                skip = false;
                continue;
            }
            match a.as_str() {
                "--top" => skip = true,
                "--check" | "--attribute" => {}
                _ => paths.push(a.clone()),
            }
        }
        paths.into_iter().next()
    };
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_report: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("trace_report: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match Trace::from_chrome_json(&doc) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_report: {path} is not a Chrome trace: {e}");
            return ExitCode::FAILURE;
        }
    };

    if check {
        if trace.events.is_empty() {
            eprintln!("trace_report: FAIL — traceEvents is empty");
            return ExitCode::FAILURE;
        }
        match trace.check_balanced() {
            Ok(matched) => {
                println!(
                    "trace_report: OK — {} events, {} balanced span pairs",
                    trace.events.len(),
                    matched
                );
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("trace_report: FAIL — unbalanced spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if with_attribution {
        print!("{}", attribute(&analyze(&trace)).render());
        return ExitCode::SUCCESS;
    }

    print!("{}", analyze(&trace).render(top_k));
    if trace.dropped > 0 {
        println!(
            "note: {} events were dropped (ring wraparound) before export",
            trace.dropped
        );
    }
    ExitCode::SUCCESS
}
