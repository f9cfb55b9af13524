//! `reproduce` — regenerates every table and figure of the IVN paper,
//! and runs declarative scenarios: every target is a named built-in
//! [`ivn_core::scenario::Scenario`] resolved through the bench registry,
//! and arbitrary scenario files run through the same door.
//!
//! ```text
//! reproduce <target> [--quick] [--obs] [--obs-json <path>] [--trace <path>]
//!
//! targets:
//!   fig2    diode I-V curves (ideal vs threshold)
//!   fig3    signal loss in tissue vs air
//!   fig4    conduction angle across placements
//!   fig6    CDF of 5-antenna gain, best vs worst frequency set
//!   fig9    gain vs number of antennas
//!   fig10   gain stability vs depth and orientation
//!   fig11   gain across media (CIB vs baseline)
//!   fig12   CDF of CIB/baseline power ratio
//!   fig13   range vs antennas (both tags, air and water)
//!   invivo  swine campaign (§6.2 / Fig. 15)
//!   freqs   frequency-plan optimization (§5)
//!   ablations   design-choice ablations
//!   pipeline    end-to-end sample-path chain (all five crates)
//!   session     one power-up + downlink session (metrics report)
//!   multisensor Gen2 inventory of five sensors (§3.7), policy table
//!   inventory   Gen2 inventory of a dense tag population, policy table
//!   all     the thirteen targets fig2 … pipeline above, in order
//!
//! scenario subcommands:
//!   reproduce --scenario <file.json> [--quick]   run a scenario file
//!   reproduce list                               list built-in scenarios
//!   reproduce export <name> [--out <path>]       dump a built-in as JSON
//!   reproduce generate --out <dir> [--base <name|file>] [--count N]
//!             [--seed S] [--sweep path=v1,v2,..]... [--jitter path=frac]...
//!   reproduce campaign <dir> [--quick] [--threads N] [--out <file>]
//!             [--live <file.ndjson>] [--live-interval-ms <n>]
//!             [--obs] [--obs-json <path>] [--trace <path>]
//! ```
//!
//! `--live <file>` attaches the `ivn_runtime::telemetry` flight recorder
//! to a campaign: periodic NDJSON heartbeats (counter deltas, derived
//! rates, pool gauges) stream to `file` while the campaign runs, and a
//! progress line (scenarios done, scenarios/sec, ETA) goes to stderr on
//! every heartbeat. Stdout bytes are identical with or without `--live`.
//!
//! `--obs` enables the `ivn_runtime::obs` observability layer for the run
//! and appends the rendered metric report (span timings, per-crate
//! counters) after the figure output; `--obs-json <path>` additionally (or
//! instead) writes the report as JSON to `path`, keeping stdout text-only.
//! `--trace <path>` records a timeline with `ivn_runtime::trace` and
//! writes Chrome Trace Event JSON to `path` — open it in Perfetto /
//! `chrome://tracing`, or feed it to the `trace_report` binary.
//! Instrumentation never changes figure bytes — `tests/determinism.rs`
//! pins that. A campaign takes the same three flags and reports after
//! its own output; `list`, `export` and `generate` run no experiment and
//! reject them.
//!
//! Every command reads a fixed list of flags ([`flags_read`]) and rejects
//! any other with `<cmd> does not take <flag>`, so a flag never silently
//! does nothing: `--sample-rate`, `--block` and `--stream-stats` belong to
//! `pipeline` (and `all`, whose pipeline step reads them), `--threads`
//! and `--live` to `campaign`.

use ivn_bench::pipeline::check_sample_rate;
use ivn_bench::{campaign, registry};
use ivn_core::scenario::{builtin, gen, Scenario, BUILTIN_NAMES};
use ivn_runtime::json::{Json, ToJson};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const ALL_TARGETS: [&str; 13] = [
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
];

const USAGE: &str = "usage: reproduce <target|all> [--quick] [--obs] [--obs-json <path>] [--trace <path>] [--sample-rate <hz>] [--block <n>] [--stream-stats]
       reproduce --scenario <file.json> [--quick]
       reproduce list
       reproduce export <name> [--out <path>]
       reproduce generate --out <dir> [--base <name|file>] [--count <n>] [--seed <s>] [--sweep <path=v1,v2,..>]... [--jitter <path=frac>]...
       reproduce campaign <dir> [--quick] [--threads <n>] [--out <file>] [--live <file.ndjson>] [--live-interval-ms <n>] [--obs] [--obs-json <path>] [--trace <path>]";

struct Args {
    target: Option<String>,
    /// Every flag given, by its long name, in command-line order.
    flags: Vec<String>,
    quick: bool,
    with_obs: bool,
    obs_json: Option<String>,
    trace_path: Option<String>,
    /// Run a scenario file instead of a named target.
    scenario: Option<String>,
    /// Shared output path (export/generate/campaign).
    out: Option<String>,
    /// generate: base scenario (built-in name or file path).
    base: Option<String>,
    /// generate: number of scenarios (0 = one per grid point).
    count: usize,
    /// generate: jitter seed.
    seed: u64,
    /// generate: sweep axes as `path=v1,v2,..`.
    sweeps: Vec<String>,
    /// generate: jitters as `path=frac`.
    jitters: Vec<String>,
    /// campaign: worker threads (0 = auto).
    threads: usize,
    /// campaign: flight-recorder NDJSON sink.
    live: Option<String>,
    /// campaign: heartbeat interval in milliseconds.
    live_interval_ms: u64,
    /// Pipeline-only: override the sample rate (e.g. 1e6 for 1 MS/s).
    sample_rate: Option<f64>,
    /// Pipeline-only: streaming block size.
    block: Option<usize>,
    /// Pipeline-only: append footprint/throughput/hash diagnostics.
    stream_stats: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        target: None,
        flags: Vec::new(),
        quick: false,
        with_obs: false,
        obs_json: None,
        trace_path: None,
        scenario: None,
        out: None,
        base: None,
        count: 0,
        seed: 0,
        sweeps: Vec::new(),
        jitters: Vec::new(),
        threads: 0,
        live: None,
        live_interval_ms: 200,
        sample_rate: None,
        block: None,
        stream_stats: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a.starts_with('-') {
            args.flags
                .push(if a == "-q" { "--quick" } else { a }.to_string());
        }
        match a.as_str() {
            "--quick" | "-q" => args.quick = true,
            "--obs" => args.with_obs = true,
            "--obs-json" => {
                let path = it.next().ok_or("--obs-json needs a path")?;
                args.obs_json = Some(path.clone());
            }
            "--trace" => {
                let path = it.next().ok_or("--trace needs a path")?;
                args.trace_path = Some(path.clone());
            }
            "--scenario" => {
                let path = it.next().ok_or("--scenario needs a file path")?;
                args.scenario = Some(path.clone());
            }
            "--out" => {
                let path = it.next().ok_or("--out needs a path")?;
                args.out = Some(path.clone());
            }
            "--base" => {
                let b = it.next().ok_or("--base needs a name or file path")?;
                args.base = Some(b.clone());
            }
            "--count" => {
                let v = it.next().ok_or("--count needs a number")?;
                args.count = v.parse().map_err(|_| format!("bad --count '{v}'"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a number")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--sweep" => {
                let v = it.next().ok_or("--sweep needs path=v1,v2,..")?;
                args.sweeps.push(v.clone());
            }
            "--jitter" => {
                let v = it.next().ok_or("--jitter needs path=frac")?;
                args.jitters.push(v.clone());
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a number")?;
                args.threads = v.parse().map_err(|_| format!("bad --threads '{v}'"))?;
            }
            "--live" => {
                let path = it.next().ok_or("--live needs a file path")?;
                args.live = Some(path.clone());
            }
            "--live-interval-ms" => {
                let v = it.next().ok_or("--live-interval-ms needs a number")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --live-interval-ms '{v}'"))?;
                if ms == 0 {
                    return Err("--live-interval-ms must be positive".into());
                }
                args.live_interval_ms = ms;
            }
            "--sample-rate" => {
                let v = it.next().ok_or("--sample-rate needs a value in Hz")?;
                let hz: f64 = v.parse().map_err(|_| format!("bad --sample-rate '{v}'"))?;
                let hz = check_sample_rate(hz).map_err(|e| format!("--sample-rate: {e}"))?;
                args.sample_rate = Some(hz);
            }
            "--block" => {
                let v = it.next().ok_or("--block needs a sample count")?;
                let n: usize = v.parse().map_err(|_| format!("bad --block '{v}'"))?;
                if n == 0 {
                    return Err("--block must be positive".into());
                }
                args.block = Some(n);
            }
            "--stream-stats" => args.stream_stats = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            word => {
                // First positional is the target/subcommand; export and
                // campaign take one operand each.
                match args.target.as_deref() {
                    None => args.target = Some(word.to_string()),
                    Some("export") | Some("campaign") if args.base.is_none() => {
                        args.base = Some(word.to_string())
                    }
                    _ => return Err(format!("unexpected extra argument '{word}'")),
                }
            }
        }
    }
    Ok(args)
}

/// The command `args` names: the positional target, or `--scenario` for
/// a scenario-file run without one.
fn command(args: &Args) -> Option<&str> {
    args.target
        .as_deref()
        .or(args.scenario.as_ref().map(|_| "--scenario"))
}

/// The flags `cmd` reads, space-separated. Any other flag is an error
/// rather than a no-op.
fn flags_read(cmd: &str) -> &'static str {
    match cmd {
        // No experiment runs, so there is nothing to observe or trace.
        "list" => "",
        "export" => "--out",
        "generate" => "--out --base --count --seed --sweep --jitter",
        "campaign" => "--quick --obs --obs-json --trace --threads --out --live --live-interval-ms",
        // `all` ends with the pipeline target, which reads the streaming knobs.
        "pipeline" | "all" => {
            "--quick --obs --obs-json --trace --sample-rate --block --stream-stats"
        }
        "--scenario" => "--scenario --quick --obs --obs-json --trace",
        _ => "--quick --obs --obs-json --trace",
    }
}

/// Rejects the first flag in `flags` that `cmd` does not read.
fn check_flags(cmd: &str, flags: &[String]) -> Result<(), String> {
    match flags
        .iter()
        .find(|f| !flags_read(cmd).split(' ').any(|r| r == *f))
    {
        Some(flag) => Err(format!("{cmd} does not take {flag}")),
        None => Ok(()),
    }
}

/// Loads a scenario from a built-in name or a JSON file path.
fn load_base(spec: &str) -> Result<Scenario, String> {
    if let Some(s) = builtin(spec) {
        return Ok(s);
    }
    let text = std::fs::read_to_string(spec)
        .map_err(|e| format!("'{spec}' is not a built-in scenario and not readable: {e}"))?;
    Scenario::parse(&text).map_err(|e| format!("{spec}: {}", e.reason))
}

/// Parses one `path=v1,v2,..` sweep axis; each value is JSON if it
/// parses, a bare string otherwise.
fn parse_sweep(arg: &str) -> Result<gen::SweepAxis, String> {
    let (path, vals) = arg
        .split_once('=')
        .ok_or_else(|| format!("--sweep '{arg}' is not path=v1,v2,.."))?;
    let values: Vec<Json> = vals
        .split(',')
        .map(|v| Json::parse(v).unwrap_or_else(|_| Json::Str(v.to_string())))
        .collect();
    if values.is_empty() {
        return Err(format!("--sweep '{arg}' has no values"));
    }
    Ok(gen::SweepAxis {
        path: path.to_string(),
        values,
    })
}

/// Parses one `path=frac` jitter spec.
fn parse_jitter(arg: &str) -> Result<gen::JitterSpec, String> {
    let (path, frac) = arg
        .split_once('=')
        .ok_or_else(|| format!("--jitter '{arg}' is not path=frac"))?;
    let frac: f64 = frac
        .parse()
        .map_err(|_| format!("--jitter '{arg}': bad fraction"))?;
    Ok(gen::JitterSpec {
        path: path.to_string(),
        frac,
    })
}

fn cmd_list() -> Result<(), String> {
    println!("{:<14}  {:<18}  description", "name", "kind");
    for name in BUILTIN_NAMES {
        let s = builtin(name).expect("registered builtin");
        // A kind that reads no seed has none to show (`export` omits it).
        let seed = match s.to_json().get("seed") {
            Some(_) => format!("seed {}", s.seed),
            None => String::new(),
        };
        let line = format!("{:<14}  {:<18}  {seed}", name, s.kind.type_name());
        println!("{}", line.trim_end());
    }
    Ok(())
}

fn cmd_export(args: &Args) -> Result<(), String> {
    let name = args
        .base
        .as_deref()
        .ok_or("export needs a built-in scenario name")?;
    let s = builtin(name).ok_or_else(|| {
        format!(
            "unknown scenario '{name}' (try: {})",
            BUILTIN_NAMES.join(", ")
        )
    })?;
    let doc = s.dump() + "\n";
    match &args.out {
        Some(path) => {
            std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {name} to {path}");
        }
        None => print!("{doc}"),
    }
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let out = args.out.as_deref().ok_or("generate needs --out <dir>")?;
    let base = load_base(args.base.as_deref().unwrap_or("session"))?;
    let spec = gen::GenSpec {
        base,
        count: args.count,
        seed: args.seed,
        sweeps: args
            .sweeps
            .iter()
            .map(|s| parse_sweep(s))
            .collect::<Result<_, _>>()?,
        jitters: args
            .jitters
            .iter()
            .map(|j| parse_jitter(j))
            .collect::<Result<_, _>>()?,
    };
    let scenarios = gen::generate(&spec)?;
    let dir = PathBuf::from(out);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {out}: {e}"))?;
    for s in &scenarios {
        let path = dir.join(format!("{}.json", s.name));
        std::fs::write(&path, s.dump() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("generated {} scenarios in {out}", scenarios.len());
    Ok(())
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    let dir = args.base.as_deref().ok_or("campaign needs a directory")?;
    let scenarios = campaign::load_dir(Path::new(dir))?;
    let threads = if args.threads == 0 {
        ivn_runtime::par::num_threads()
    } else {
        args.threads
    };

    // `--live` attaches the flight recorder: metrics on, heartbeats to
    // the NDJSON sink, progress to stderr. Stdout is untouched either
    // way, so campaign output stays byte-identical without the flag.
    // Metrics stay on after the recorder stops, so an `--obs` or
    // `--obs-json` report written afterwards covers the whole run.
    let recorder = match &args.live {
        Some(path) => {
            ivn_runtime::obs::set_enabled(true);
            let sink = std::fs::File::create(path)
                .map_err(|e| format!("cannot create live sink {path}: {e}"))?;
            let total = scenarios.len();
            Some(ivn_runtime::telemetry::start_with(
                std::time::Duration::from_millis(args.live_interval_ms),
                sink,
                move |snap| {
                    let done = snap
                        .totals
                        .counter("campaign.scenarios_done")
                        .unwrap_or(0)
                        .min(total as u64);
                    let rate = snap.rate("campaign.scenarios_done").unwrap_or(0.0);
                    let eta = if rate > 0.0 && done < total as u64 {
                        format!("{:.1}s", (total as u64 - done) as f64 / rate)
                    } else {
                        "-".to_string()
                    };
                    eprintln!(
                        "live[{}] {done}/{total} scenarios, {rate:.1}/s, eta {eta}",
                        snap.seq
                    );
                },
            ))
        }
        None => None,
    };

    let outcome = campaign::run_loaded(scenarios, args.quick, threads);

    if let Some(rec) = recorder {
        rec.stop()
            .map_err(|e| format!("flight recorder sink error: {e}"))?;
        if let Some(path) = &args.live {
            eprintln!("wrote live telemetry to {path}");
        }
    }

    print!("{}", outcome.render());
    if let Some(path) = &args.out {
        std::fs::write(path, outcome.report().dump() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote campaign report to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("reproduce: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let fail = |e: String| -> ExitCode {
        eprintln!("reproduce: {e}");
        ExitCode::FAILURE
    };

    let Some(target) = command(&args).map(str::to_string) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if let Err(e) = check_flags(&target, &args.flags) {
        return fail(e);
    }

    if let cmd @ ("list" | "export" | "generate") = target.as_str() {
        let result = match cmd {
            "list" => cmd_list(),
            "export" => cmd_export(&args),
            _ => cmd_generate(&args),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(e),
        };
    }

    let quick = args.quick;

    // --obs-json implies collecting metrics even without --obs.
    if args.with_obs || args.obs_json.is_some() {
        ivn_runtime::obs::set_enabled(true);
    }
    if args.trace_path.is_some() {
        ivn_runtime::trace::set_enabled(true);
    }

    let finish = || -> ExitCode {
        if args.with_obs || args.obs_json.is_some() {
            let report = ivn_runtime::obs::report();
            if let Some(path) = &args.obs_json {
                if let Err(e) = std::fs::write(path, report.to_json().dump() + "\n") {
                    eprintln!("reproduce: cannot write obs report to {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote obs report to {path}");
            }
            if args.with_obs {
                println!("\n── observability report ──");
                print!("{}", report.render());
            }
        }
        if let Some(path) = &args.trace_path {
            ivn_runtime::trace::set_enabled(false);
            let trace = ivn_runtime::trace::snapshot();
            let doc = trace.to_chrome_json();
            if let Err(e) = std::fs::write(path, doc.dump() + "\n") {
                eprintln!("reproduce: cannot write trace to {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote trace to {path} ({} events{}) — open in Perfetto or run trace_report",
                trace.events.len(),
                if trace.dropped > 0 {
                    format!(", {} dropped to ring wraparound", trace.dropped)
                } else {
                    String::new()
                }
            );
        }
        ExitCode::SUCCESS
    };

    if target == "campaign" {
        return match cmd_campaign(&args) {
            Ok(()) => finish(),
            Err(e) => fail(e),
        };
    }

    // The pipeline target keeps its streaming knobs outside the scenario
    // substrate; everything else resolves through the registry.
    let render = |name: &str| -> Option<Result<String, String>> {
        if name == "pipeline" {
            let mut opts = ivn_bench::pipeline::StreamOptions {
                sample_rate: args.sample_rate,
                stats: args.stream_stats,
                ..Default::default()
            };
            if let Some(b) = args.block {
                opts.block = b;
            }
            return Some(Ok(ivn_bench::pipeline::run_with(quick, &opts)));
        }
        let s = builtin(name)?;
        Some(registry::render(&s, quick))
    };

    if let Some(path) = &args.scenario {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(format!("cannot read {path}: {e}")),
        };
        let s = match Scenario::parse(&text) {
            Ok(s) => s,
            Err(e) => return fail(format!("{path}: {}", e.reason)),
        };
        return match registry::render(&s, quick) {
            Ok(out) => {
                print!("{out}");
                finish()
            }
            Err(e) => fail(format!("{path}: {e}")),
        };
    }

    if target == "all" {
        for name in ALL_TARGETS {
            match render(name).expect("known target") {
                Ok(s) => print!("{s}"),
                Err(e) => return fail(format!("{name}: {e}")),
            }
        }
        return finish();
    }

    match render(&target) {
        Some(Ok(s)) => {
            print!("{s}");
            finish()
        }
        Some(Err(e)) => fail(format!("{target}: {e}")),
        None => {
            eprintln!("unknown target '{target}'\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(line: &str) -> Result<(), String> {
        let argv: Vec<String> = line.split(' ').map(String::from).collect();
        let args = parse_args(&argv)?;
        check_flags(command(&args).expect(line), &args.flags)
    }

    #[test]
    fn each_command_takes_only_the_flags_it_reads() {
        for line in [
            "fig2 -q --obs --obs-json o --trace t",
            "pipeline -q --sample-rate 1e6 --block 7 --stream-stats",
            "all --sample-rate 1e6 --block 7 --stream-stats --obs",
            "export x --out s.json",
            "generate --out d --base session --count 3 --seed 1",
            "generate --out d --sweep eirp_dbm=36,37 --jitter eirp_dbm=0.1",
            "campaign d -q --threads 2 --out r --live l --live-interval-ms 5",
            "campaign d --obs --obs-json o --trace t",
            "--scenario s -q --obs --obs-json o --trace t",
        ] {
            assert_eq!(check(line), Ok(()), "{line}");
        }
        for (line, flag) in [
            ("fig2 -q --live f --threads 3", "--live"),
            ("fig2 -q --threads 3", "--threads"),
            ("fig9 --out o", "--out"),
            ("session --sample-rate 1e6", "--sample-rate"),
            ("session --block 7", "--block"),
            ("list --obs", "--obs"),
            ("list --trace t", "--trace"),
            ("export x --obs-json o", "--obs-json"),
            ("export x --quick", "--quick"),
            ("generate --out d --threads 2", "--threads"),
            ("campaign d --block 7", "--block"),
            ("--scenario s --threads 2", "--threads"),
        ] {
            let cmd = line.split(' ').next().unwrap();
            let want = Err(format!("{cmd} does not take {flag}"));
            assert_eq!(check(line), want, "{line}");
        }
    }
}
