//! `ivn-perfbench --workload <pipeline|campaign|inventory> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it measures one workload untraced and prints its
//! end-to-end metrics; with `--trace 1` it runs every workload once under
//! the trace recorder and prints the per-layer metrics of all three, and
//! writes each timeline to `out/trace-<workload>.json` beside the
//! manifest. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `ivn-perfbench --record-witnesses` prints the witness table for every
//! input variant (the content of `witnesses.json`). Every run is checked
//! against that table; a seed without a committed digest is an error.

use ivn_perfbench::layers::traced;
use ivn_perfbench::measure::measure;
use ivn_perfbench::witness::Committed;
use ivn_perfbench::workloads::{generate, run, setup, Scale, Workload, INPUT_VARIANTS};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: ivn-perfbench --workload <pipeline|campaign|inventory> --seed <n> --seconds <s> --trace <0|1>
       ivn-perfbench --record-witnesses";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One metric as a JSON member; values must be finite numbers.
fn member(name: &str, value: f64, unit: &str) -> Result<String, String> {
    if !value.is_finite() {
        return Err(format!("metric {name} is not finite ({value})"));
    }
    Ok(format!(
        "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
    ))
}

fn result_line(attempted: usize, failed: usize, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

fn end_to_end(args: &Args, committed: &Committed) -> Result<String, String> {
    let reference = committed.get(args.workload, args.seed)?;
    let m = measure(
        args.workload,
        args.seed,
        args.seconds,
        &Scale::FULL,
        reference,
    )?;
    println!(
        "{} seed {}: {} timed runs, wall {:.4} s, setup {:.6} s (scaled); unscaled wall {:.4} s, probe {:.6} s",
        args.workload.name(),
        args.seed,
        m.runs,
        m.wall_s,
        m.setup_s,
        m.raw_wall_s,
        m.probe_s,
    );
    let metrics = [
        member("setup_s", m.setup_s, "s")?,
        member("wall_s", m.wall_s, "s")?,
        member("throughput_per_s", m.throughput_per_s, "1/s")?,
        member("cpu_s", m.cpu_s, "s")?,
        member("peak_rss_mb", m.peak_rss_mb, "MB")?,
    ];
    Ok(result_line(m.attempted, m.failed, &metrics))
}

fn per_layer(args: &Args, committed: &Committed) -> Result<String, String> {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for w in Workload::ALL {
        let path = out_dir.join(format!("trace-{}.json", w.name()));
        let reference = committed.get(w, args.seed)?;
        let t = traced(w, args.seed, &Scale::FULL, reference, Some(&path))?;
        println!(
            "{}: traced total {:.4} s, {} events in {}",
            w.name(),
            t.total_s,
            t.trace.events.len(),
            path.display()
        );
        attempted += t.attempted;
        failed += t.failed;
        for m in &t.metrics {
            metrics.push(member(&m.name, m.value, m.unit)?);
        }
    }
    Ok(result_line(attempted, failed, &metrics))
}

/// Prints the witness table for every input variant.
fn record_witnesses() -> Result<(), String> {
    let digest = |w: Workload, seed: u64| -> Result<String, String> {
        let prepared = setup(&generate(w, seed, &Scale::FULL))?;
        let out = run(&prepared);
        if out.failed() > 0 {
            return Err(format!("{} seed {seed}: output check failed", w.name()));
        }
        Ok(format!("{:016x}", out.digest()))
    };
    let mut sections = vec![format!(
        "  \"pipeline\": {{\"any\": \"{}\"}}",
        digest(Workload::Pipeline, 0)?
    )];
    for w in [Workload::Campaign, Workload::Inventory] {
        let entries = (0..INPUT_VARIANTS)
            .map(|seed| Ok(format!("    \"{seed}\": \"{}\"", digest(w, seed)?)))
            .collect::<Result<Vec<_>, String>>()?;
        sections.push(format!(
            "  \"{}\": {{\n{}\n  }}",
            w.name(),
            entries.join(",\n")
        ));
    }
    println!("{{\n{}\n}}", sections.join(",\n"));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv == ["--record-witnesses"] {
        record_witnesses()
    } else {
        parse_args(&argv)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|args| {
                let committed = Committed::builtin();
                if args.trace {
                    per_layer(&args, &committed)
                } else {
                    end_to_end(&args, &committed)
                }
            })
            .map(|line| println!("{line}"))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ivn-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
