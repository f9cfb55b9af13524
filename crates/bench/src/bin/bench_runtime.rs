//! Runtime-layer benchmark: serial vs parallel Monte-Carlo wall-clock,
//! plus a per-stage breakdown of the pipeline.
//!
//! Sweeps `peak_gain_cdf` across worker-pool widths 1/2/4/8, verifies
//! every width produces bit-identical results, records per-width
//! speedups (`"parallel_sweep"` in the JSON), times one representative
//! workload per pipeline stage (sdr, em, harvester, rfid, freqsel) and
//! per envelope kernel (fill_direct, fill_fft, swap_eval, climb), and
//! writes `BENCH_runtime.json` (machine-readable, via the in-tree JSON
//! layer) to the current directory.
//!
//! With `--obs`, observability (`ivn_runtime::obs`) is enabled for the
//! stage runs and the resulting metric `Report` is embedded in the JSON
//! under `"obs_report"` — counters and span histograms from inside every
//! instrumented crate. With `--trace <path>`, a `ivn_runtime::trace`
//! timeline of the stage runs is exported as Chrome Trace Event JSON.
//!
//! The instrumentation *overhead* is always measured: the `peak_gain_cdf`
//! workload runs with everything off, with obs on, and with obs+trace on,
//! and the deltas land in the JSON as `obs_overhead_pct` /
//! `trace_overhead_pct` — the data behind the "one relaxed load when
//! disabled, negligible when enabled" contract.
//!
//! Two early-exit check modes turn the binary into a verify gate
//! without re-running the benches: `--check-baseline [--baseline <p>]
//! [--bench <p>]` evaluates an existing BENCH_runtime.json against the
//! committed BENCH_baseline.json tolerance bands (the perf-regression
//! sentinel), and `--check-ndjson <path>` validates a flight-recorder
//! NDJSON stream (gapless seq, monotone clock, ≥3 heartbeats).
//!
//! Set `IVN_BENCH_FAST=1` for a quick smoke run.

use ivn_bench::sentinel;
use ivn_core::experiment::peak_gain_cdf_threads;
use ivn_core::PAPER_OFFSETS_HZ;
use ivn_runtime::bench::{black_box, Bench};
use ivn_runtime::json::{Json, ToJson};
use ivn_runtime::obs;
use ivn_runtime::par;
use ivn_runtime::rng::StdRng;
use ivn_runtime::telemetry;
use ivn_runtime::trace;

const SEED: u64 = 42;
const GRID: usize = 1024;

/// Worker-pool widths the parallel sweep measures. The pool spawns
/// exactly the requested count regardless of the machine's core count,
/// so oversubscribed widths still produce honest (if flat) speedups.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// A confidence-aware overhead estimate: the median paired relative
/// delta plus a 95% confidence interval on that median.
struct OverheadEstimate {
    /// Median of the per-round relative deltas, percent.
    pct: f64,
    /// 95% CI bounds on the median, percent.
    ci_lo: f64,
    ci_hi: f64,
}

/// Median and a distribution-free 95% CI for the median via order
/// statistics: ranks `n/2 ± 1.96·√n/2` of the sorted samples.
fn median_ci95(samples: &mut [f64]) -> OverheadEstimate {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    assert!(n >= 8, "too few rounds for a CI");
    let pct = if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    };
    let half = 1.96 * (n as f64).sqrt() / 2.0;
    let lo = ((n as f64 / 2.0 - half).floor().max(0.0)) as usize;
    let hi = ((n as f64 / 2.0 + half).ceil() as usize).min(n - 1);
    OverheadEstimate {
        pct,
        ci_lo: samples[lo],
        ci_hi: samples[hi],
    }
}

/// Overhead of turning instrumentation on, as a percentage of the
/// baseline `peak_gain_cdf` wall-clock with everything off.
///
/// Each round times the three configurations (off, obs on, obs+trace
/// on) back to back and records the two *paired relative deltas* for
/// that round: scheduling noise and thermal drift hit the adjacent runs
/// alike and cancel inside a pair instead of biasing the estimate.
/// (The previous min-of-mins scheme could — and did — report negative
/// overhead: the minimum of 200 noisy "on" samples can undercut the
/// minimum of 200 noisy "off" samples even when "on" is truly slower.)
/// The reported figure is the median paired delta with a 95% CI on the
/// median; the committed baseline gates the *upper* CI bound, so the
/// check cannot pass on noise alone.
fn measure_overhead(offsets: &[f64]) -> (OverheadEstimate, OverheadEstimate) {
    const ROUNDS: usize = 200;
    let run = || black_box(peak_gain_cdf_threads(offsets, 16, GRID, SEED, 1));
    let time_one = || {
        let t0 = std::time::Instant::now();
        run();
        t0.elapsed().as_nanos() as f64
    };
    run(); // warm-up
    let mut obs_deltas = Vec::with_capacity(ROUNDS);
    let mut trace_deltas = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        obs::set_enabled(false);
        trace::set_enabled(false);
        let off = time_one();
        obs::set_enabled(true);
        let obs_on = time_one();
        trace::set_enabled(true);
        let both_on = time_one();
        obs_deltas.push(100.0 * (obs_on - off) / off);
        trace_deltas.push(100.0 * (both_on - off) / off);
    }
    obs::set_enabled(false);
    trace::set_enabled(false);
    trace::reset();
    (median_ci95(&mut obs_deltas), median_ci95(&mut trace_deltas))
}

/// A deterministic ~µs-scale compute kernel for the dispatch bench:
/// xorshift rounds on an index-derived seed, nothing to optimize away.
fn dispatch_workload(i: usize) -> u64 {
    let mut x = (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(1);
    for _ in 0..200 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// One representative, seeded workload per pipeline stage. Each returns a
/// value to `black_box` so nothing is optimized away.
fn stage_workload(stage: &str, fast: bool) -> f64 {
    match stage {
        "sdr" => {
            // Bank synthesis + one device emission.
            use ivn_sdr::bank::TxBank;
            use ivn_sdr::clock::ClockDistribution;
            let mut rng = StdRng::seed_from_u64(SEED);
            let bank = TxBank::new(
                &mut rng,
                5,
                915e6,
                100e3,
                &PAPER_OFFSETS_HZ[..5],
                &ClockDistribution::octoclock(),
            );
            let profile = vec![1.0; if fast { 2_000 } else { 20_000 }];
            bank.emit(0, &profile, 0.05).samples()[0].norm()
        }
        "em" => {
            // Blind-channel ensemble evaluation across the CIB tones.
            use ivn_em::channel::ChannelEnsemble;
            let mut rng = StdRng::seed_from_u64(SEED);
            let ens = ChannelEnsemble::blind(&mut rng, 10, 0.3, 915e6);
            let sweeps = if fast { 200 } else { 2_000 };
            (0..sweeps)
                .flat_map(|k| ens.responses(915e6 + k as f64))
                .map(|c| c.norm_sqr())
                .sum()
        }
        "harvester" => {
            // Dickson-pump power-up transient on a peaky envelope.
            use ivn_harvester::powerup::TagPowerProfile;
            let tag = TagPowerProfile::standard_tag();
            let n = if fast { 10_000 } else { 100_000 };
            let mut env = vec![0.0; n];
            for chunk in env.chunks_mut(1_000) {
                for v in chunk.iter_mut().take(10) {
                    *v = 1e-2;
                }
            }
            let out = tag.power_up(&env, 1e6);
            out.peak_vdc
        }
        "rfid" => {
            // Full downlink + uplink codec pass: PIE encode→rasterize→
            // decode of a Query, then FM0 encode→decode of a reply.
            use ivn_rfid::commands::{Command, DivideRatio, Session, TagEncoding};
            use ivn_rfid::fm0::Fm0;
            use ivn_rfid::pie::{decode_frame, encode_frame, rasterize, PieParams};
            let bits = Command::Query {
                dr: DivideRatio::Dr8,
                m: TagEncoding::Fm0,
                trext: false,
                session: Session::S0,
                q: 0,
            }
            .encode();
            let p = PieParams::paper_defaults();
            let reps = if fast { 5 } else { 50 };
            let fm0 = Fm0::new(8);
            let reply: Vec<bool> = (0..96).map(|i| i % 3 == 0).collect();
            let mut acc = 0.0;
            for _ in 0..reps {
                let runs = encode_frame(&bits, &p, true);
                let env = rasterize(&runs, 400e3, 0.0);
                acc += decode_frame(&env, 400e3).map(|d| d.len()).unwrap_or(0) as f64;
                acc += fm0.decode(&fm0.encode(&reply)).len() as f64;
            }
            acc
        }
        "freqsel" => {
            // The Eq. 10 Monte-Carlo objective on the paper's plan.
            use ivn_core::freqsel::expected_peak;
            let mut rng = StdRng::seed_from_u64(SEED);
            let draws = if fast { 16 } else { 96 };
            expected_peak(&PAPER_OFFSETS_HZ, draws, GRID, &mut rng)
        }
        other => unreachable!("unknown stage {other}"),
    }
}

/// One micro-workload per envelope kernel (`ivn_core::kernels`). These
/// run with the same obs/trace state as the stage benches, so with
/// `--obs` the incremental-climb span `freqsel.kernel_incr_ns` lands in
/// the embedded report alongside the batched-eval spans.
fn kernel_workload(kernel: &str, fast: bool) -> f64 {
    use ivn_core::freqsel::{optimize, FreqSelConfig};
    use ivn_core::kernels::EnvelopeScratch;
    // Fixed, arbitrary per-tone phases: the kernels are deterministic
    // given phases, so the micro-benches need no RNG in the hot loop.
    let phases: Vec<f64> = (0..PAPER_OFFSETS_HZ.len())
        .map(|i| 0.37 * (i as f64 + 1.0))
        .collect();
    match kernel {
        "fill_direct" => {
            let mut s = EnvelopeScratch::new();
            s.fill_direct(&PAPER_OFFSETS_HZ, &phases, None, GRID);
            s.peak(&PAPER_OFFSETS_HZ, &phases, None)
        }
        "fill_fft" => {
            let mut s = EnvelopeScratch::new();
            s.fill_fft(&PAPER_OFFSETS_HZ, &phases, None, GRID);
            s.peak(&PAPER_OFFSETS_HZ, &phases, None)
        }
        "climb" => {
            // A miniature end-to-end optimize() so the incremental span
            // shows up in the obs report with realistic call counts.
            let cfg = FreqSelConfig {
                n_antennas: 4,
                rms_limit_hz: 199.0,
                max_offset_hz: 96,
                mc_draws: if fast { 8 } else { 24 },
                grid: 256,
                restarts: 2,
                iterations: if fast { 24 } else { 60 },
            };
            optimize(&cfg, SEED).expected_peak
        }
        other => unreachable!("unknown kernel {other}"),
    }
}

/// Loads and parses a JSON document, with the file's role in the error.
fn load_json(path: &str, role: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {role} {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{role} {path} is not valid JSON: {e}"))
}

/// `--check-baseline`: evaluate an existing bench document against the
/// committed tolerance bands. Skips (exit 0, with a notice) when the
/// baseline was recorded under a different mode than the bench run —
/// fast-mode numbers must never be judged against full-mode bands.
fn run_check_baseline(bench_path: &str, baseline_path: &str) -> std::process::ExitCode {
    let (bench, baseline) = match (
        load_json(bench_path, "bench document"),
        load_json(baseline_path, "baseline"),
    ) {
        (Ok(b), Ok(bl)) => (b, bl),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_runtime: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let bench_mode = bench.get("mode").and_then(Json::as_str).unwrap_or("full");
    match sentinel::baseline_mode(&baseline) {
        Some(m) if m == bench_mode => {}
        Some(m) => {
            println!(
                "check-baseline: SKIP — baseline recorded in '{m}' mode, bench ran in '{bench_mode}'"
            );
            return std::process::ExitCode::SUCCESS;
        }
        None => {
            eprintln!("bench_runtime: baseline {baseline_path} has no 'mode' field");
            return std::process::ExitCode::FAILURE;
        }
    }
    let checks = match sentinel::check(&bench, &baseline) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_runtime: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    for c in &checks {
        println!("{}", c.render());
    }
    let failed = checks.iter().filter(|c| !c.ok).count();
    if failed == 0 {
        println!(
            "check-baseline: OK — {} metrics within tolerance of {baseline_path}",
            checks.len()
        );
        std::process::ExitCode::SUCCESS
    } else {
        eprintln!(
            "check-baseline: FAIL — {failed}/{} metrics outside tolerance of {baseline_path}",
            checks.len()
        );
        std::process::ExitCode::FAILURE
    }
}

/// `--check-ndjson`: validate a flight-recorder stream. Requires at
/// least 3 snapshots (baseline + ≥2 heartbeats) so a recorder that
/// started and immediately died cannot pass the gate.
fn run_check_ndjson(path: &str) -> std::process::ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_runtime: cannot read ndjson {path}: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    match telemetry::validate_ndjson(&text) {
        Ok(n) if n >= 3 => {
            println!("check-ndjson: OK — {n} valid snapshots in {path}");
            std::process::ExitCode::SUCCESS
        }
        Ok(n) => {
            eprintln!("check-ndjson: FAIL — only {n} snapshots in {path}, need >= 3");
            std::process::ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("check-ndjson: FAIL — {path}: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    if argv.iter().any(|a| a == "--check-baseline") {
        let bench_path = flag_value("--bench").unwrap_or_else(|| "BENCH_runtime.json".into());
        let baseline_path =
            flag_value("--baseline").unwrap_or_else(|| "BENCH_baseline.json".into());
        return run_check_baseline(&bench_path, &baseline_path);
    }
    if let Some(ndjson_path) = flag_value("--check-ndjson") {
        return run_check_ndjson(&ndjson_path);
    }
    let with_obs = argv.iter().any(|a| a == "--obs");
    let trace_path = argv
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| argv.get(i + 1))
        .cloned();
    let fast = std::env::var("IVN_BENCH_FAST").is_ok_and(|v| v == "1");
    let trials = if fast { 64 } else { 400 };
    let threads = par::num_threads();
    let offsets = &PAPER_OFFSETS_HZ[..5];

    // The parallel path must change only how fast the answer arrives:
    // every sweep width has to be bit-identical to the serial run.
    let serial = peak_gain_cdf_threads(offsets, trials, GRID, SEED, 1);
    for &t in &THREAD_SWEEP[1..] {
        let parallel = peak_gain_cdf_threads(offsets, trials, GRID, SEED, t);
        assert_eq!(
            serial, parallel,
            "peak_gain_cdf at {t} threads diverged from serial"
        );
    }

    let mut b = Bench::new();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let serial_ns = b
        .bench("peak_gain_cdf/serial", || {
            black_box(peak_gain_cdf_threads(offsets, trials, GRID, SEED, 1))
        })
        .median_ns;
    let mut sweep_entries = Vec::new();
    let mut parallel_ns = serial_ns;
    for &t in &THREAD_SWEEP {
        if t > cores {
            // Timing an oversubscribed width only measures contention,
            // not the pool. Record the skip explicitly so a reader can
            // tell "deliberately skipped" from "missing".
            println!("threads {t}: skipped (oversubscribed, {cores} cores)");
            sweep_entries.push(Json::obj([
                ("threads", t.into()),
                ("skipped_oversubscribed", true.into()),
            ]));
            continue;
        }
        let ns = if t == 1 {
            serial_ns
        } else {
            b.bench(&format!("peak_gain_cdf/parallel_x{t}"), || {
                black_box(peak_gain_cdf_threads(offsets, trials, GRID, SEED, t))
            })
            .median_ns
        };
        let speedup = serial_ns / ns;
        println!("threads {t}: median {ns:.0} ns, speedup {speedup:.2}x");
        // Only reached with >= 8 cores: a timed 8-wide sweep must scale.
        assert!(
            t != 8 || speedup >= 4.0,
            "8-thread parallel_sweep speedup {speedup:.2}x is below 4x on {cores} cores"
        );
        sweep_entries.push(Json::obj([
            ("threads", t.into()),
            ("median_ns", ns.into()),
            ("speedup", speedup.into()),
        ]));
        parallel_ns = ns;
    }
    let speedup = serial_ns / parallel_ns;
    println!("worker pool width: {threads}, widest-sweep speedup: {speedup:.2}x");

    // Dispatch amortization: identical chunked work through freshly
    // spawned scoped threads vs the persistent pool. This isolates the
    // fixed cost the pool exists to remove — on a single-core host the
    // wall-clock sweep above cannot show parallel speedup, but the
    // dispatch delta is real on any machine.
    let pool_json = {
        use ivn_runtime::pool::WorkerPool;
        let items: Vec<usize> = (0..64).collect();
        let expect: Vec<u64> = items.iter().map(|&i| dispatch_workload(i)).collect();
        let pool = WorkerPool::global();
        assert_eq!(
            pool.map_indexed(items.len(), 8, dispatch_workload),
            expect,
            "pooled dispatch diverged from inline"
        );
        let spawn_ns = b
            .bench("pool/spawn_dispatch_x8", || {
                black_box(par::par_map_threads(8, &items, |_, &i| {
                    dispatch_workload(i)
                }))
            })
            .median_ns;
        let pooled_ns = b
            .bench("pool/pool_dispatch_x8", || {
                black_box(pool.map_indexed(64, 8, dispatch_workload))
            })
            .median_ns;
        let dispatch_speedup = spawn_ns / pooled_ns;
        println!(
            "pool dispatch x8: spawn {spawn_ns:.0} ns vs pooled {pooled_ns:.0} ns \
             ({dispatch_speedup:.2}x, {} workers on {cores} cores)",
            pool.workers()
        );
        Json::obj([
            ("workers", pool.workers().into()),
            ("cores", cores.into()),
            ("spawn_dispatch_ns", spawn_ns.into()),
            ("pool_dispatch_ns", pooled_ns.into()),
            ("dispatch_speedup_x8", dispatch_speedup.into()),
        ])
    };

    // What does flipping the instrumentation on actually cost?
    let (obs_oh, trace_oh) = measure_overhead(offsets);
    println!(
        "instrumentation overhead on peak_gain_cdf: obs {:+.2}% [95% CI {:+.2}..{:+.2}], \
         obs+trace {:+.2}% [95% CI {:+.2}..{:+.2}]",
        obs_oh.pct, obs_oh.ci_lo, obs_oh.ci_hi, trace_oh.pct, trace_oh.ci_lo, trace_oh.ci_hi
    );

    // Per-stage wall-clock breakdown. With --obs the stage runs also feed
    // the metric registry, so the report reflects exactly this work.
    const STAGES: [&str; 5] = ["sdr", "em", "harvester", "rfid", "freqsel"];
    if with_obs {
        obs::reset();
        obs::set_enabled(true);
    }
    if trace_path.is_some() {
        trace::reset();
        trace::set_enabled(true);
    }
    let mut stage_entries = Vec::new();
    for stage in STAGES {
        let r = b.bench(&format!("stage/{stage}"), || {
            black_box(stage_workload(stage, fast))
        });
        println!("stage {stage:<10} median {:>12.0} ns", r.median_ns);
        stage_entries.push(Json::obj([
            ("stage", stage.into()),
            ("median_ns", r.median_ns.into()),
            ("mean_ns", r.mean_ns.into()),
            ("min_ns", r.min_ns.into()),
        ]));
    }
    // Envelope-kernel micro-benches, under the same obs/trace state so
    // their spans feed the same report.
    const KERNELS: [&str; 3] = ["fill_direct", "fill_fft", "climb"];
    let mut kernel_entries = Vec::new();
    for kernel in KERNELS {
        let r = b.bench(&format!("kernel/{kernel}"), || {
            black_box(kernel_workload(kernel, fast))
        });
        println!("kernel {kernel:<12} median {:>12.0} ns", r.median_ns);
        kernel_entries.push(Json::obj([
            ("kernel", kernel.into()),
            ("median_ns", r.median_ns.into()),
            ("mean_ns", r.mean_ns.into()),
            ("min_ns", r.min_ns.into()),
        ]));
    }
    {
        // The hill climber's inner step: one incremental candidate
        // evaluation over cached per-draw grids (kernel built once, so
        // the bench isolates the swap itself).
        use ivn_core::kernels::CrnKernel;
        let mut rng = StdRng::seed_from_u64(SEED);
        let draws = if fast { 16 } else { 96 };
        let mut ck = CrnKernel::new(&PAPER_OFFSETS_HZ, draws, GRID, &mut rng);
        let r = b.bench("kernel/swap_eval", || black_box(ck.score_swap(3, 55.0)));
        println!("kernel {:<12} median {:>12.0} ns", "swap_eval", r.median_ns);
        kernel_entries.push(Json::obj([
            ("kernel", "swap_eval".into()),
            ("median_ns", r.median_ns.into()),
            ("mean_ns", r.mean_ns.into()),
            ("min_ns", r.min_ns.into()),
        ]));
    }
    // Streaming sample-path throughput: one full 1-second CIB period
    // through the block driver (100 kS/s in fast mode, 1 MS/s in full),
    // timed per stage. Runs under the same obs/trace state so the
    // streaming spans land in the embedded report too.
    let streaming_json = {
        let opts = ivn_bench::pipeline::StreamOptions {
            sample_rate: Some(if fast { 1e5 } else { 1e6 }),
            ..Default::default()
        };
        let report = ivn_bench::pipeline::outputs_streaming(true, &opts);
        let mut entries = Vec::new();
        for &(stage, ns, samples) in &report.stage_ns {
            let msps = if ns > 0 {
                samples as f64 * 1e3 / ns as f64
            } else {
                0.0
            };
            println!("streaming {stage:<10} {msps:>10.2} MS/s");
            entries.push(Json::obj([
                ("stage", stage.into()),
                ("msps", msps.into()),
                ("ns", (ns as f64).into()),
                ("samples", samples.into()),
            ]));
        }
        Json::obj([
            ("sample_rate", report.outputs.sample_rate.into()),
            ("block", report.block.into()),
            ("threads", report.threads.into()),
            ("stages", Json::Arr(entries)),
        ])
    };

    // Mass-campaign throughput: a generated fleet of power-session
    // scenarios through the campaign driver at full pool width.
    let campaign_json = {
        use ivn_core::scenario::{builtin, gen};
        let n_scenarios = if fast { 64 } else { 256 };
        let spec = gen::GenSpec {
            base: builtin("session").expect("builtin"),
            count: n_scenarios,
            seed: SEED,
            sweeps: vec![gen::SweepAxis {
                path: "placement.depth_m".into(),
                values: [0.02, 0.05, 0.08, 0.11]
                    .iter()
                    .map(|&d| Json::from(d))
                    .collect(),
            }],
            jitters: vec![gen::JitterSpec {
                path: "eirp_dbm".into(),
                frac: 0.05,
            }],
        };
        let fleet = gen::generate(&spec).expect("generate fleet");
        let t0 = std::time::Instant::now();
        let outcome = ivn_bench::campaign::run(&fleet, true, threads);
        let seconds = t0.elapsed().as_secs_f64();
        assert!(outcome.errors.is_empty(), "campaign errors: {outcome:?}");
        let per_sec = n_scenarios as f64 / seconds;
        println!(
            "campaign: {n_scenarios} scenarios in {seconds:.2} s ({per_sec:.1} scenarios/sec)"
        );
        Json::obj([
            ("scenarios", n_scenarios.into()),
            ("threads", threads.into()),
            ("seconds", seconds.into()),
            ("scenarios_per_sec", per_sec.into()),
        ])
    };

    // Plan-sharing campaign: the same session fleet but with an
    // `Optimize` frequency plan, so every scenario runs the Eq. 10
    // search unless the PlanCache intervenes. Cold = cache disabled
    // (every scenario pays the search), warm = cache enabled from
    // empty (first miss computes, the rest of the fleet hits — depth
    // sweeps and EIRP jitters don't touch the plan key). The two
    // reports must be byte-identical: a cache hit returns exactly what
    // the cold path computes.
    let campaign_planshare_json = {
        use ivn_core::plancache::PlanCache;
        use ivn_core::scenario::{builtin, gen, FreqPlan, FreqSelSpec, QuickFull};
        let n_scenarios = if fast { 128 } else { 256 };
        let mut base = builtin("session").expect("builtin");
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
            seed: SEED,
        };
        let spec = gen::GenSpec {
            base,
            count: n_scenarios,
            seed: SEED + 1,
            sweeps: vec![gen::SweepAxis {
                path: "placement.depth_m".into(),
                values: [0.02, 0.05, 0.08, 0.11]
                    .iter()
                    .map(|&d| Json::from(d))
                    .collect(),
            }],
            jitters: vec![gen::JitterSpec {
                path: "eirp_dbm".into(),
                frac: 0.05,
            }],
        };
        let fleet = gen::generate(&spec).expect("generate planshare fleet");
        let cache = PlanCache::global();

        cache.clear();
        cache.set_enabled(false);
        let t0 = std::time::Instant::now();
        let cold = ivn_bench::campaign::run(&fleet, true, threads);
        let cold_seconds = t0.elapsed().as_secs_f64();
        assert!(cold.errors.is_empty(), "cold planshare errors: {cold:?}");

        cache.set_enabled(true);
        cache.clear();
        cache.reset_counters();
        let t0 = std::time::Instant::now();
        let warm = ivn_bench::campaign::run(&fleet, true, threads);
        let warm_seconds = t0.elapsed().as_secs_f64();
        assert!(warm.errors.is_empty(), "warm planshare errors: {warm:?}");
        let (hits, misses) = cache.counters();
        assert!(hits > 0, "plan-sharing fleet produced no cache hits");
        assert!(
            (misses as usize) < n_scenarios,
            "every scenario missed the plan cache"
        );
        let byte_identical = cold.report().dump() == warm.report().dump();
        assert!(byte_identical, "cache hits diverged from cold computation");

        let cold_per_sec = n_scenarios as f64 / cold_seconds;
        let warm_per_sec = n_scenarios as f64 / warm_seconds;
        let speedup = cold_seconds / warm_seconds;
        let hit_rate = hits as f64 / (hits + misses) as f64;
        println!(
            "campaign planshare: {n_scenarios} scenarios cold {cold_per_sec:.1}/s \
             warm {warm_per_sec:.1}/s ({speedup:.1}x, hit rate {hit_rate:.2})"
        );
        Json::obj([
            ("scenarios", n_scenarios.into()),
            ("threads", threads.into()),
            ("cold_seconds", cold_seconds.into()),
            ("warm_seconds", warm_seconds.into()),
            ("cold_per_sec", cold_per_sec.into()),
            ("warm_per_sec", warm_per_sec.into()),
            ("speedup", speedup.into()),
            ("cache_hits", (hits as f64).into()),
            ("cache_misses", (misses as f64).into()),
            ("hit_rate", hit_rate.into()),
            ("byte_identical", byte_identical.into()),
        ])
    };

    // Population-scale inventory fleet: three anti-collision policies,
    // each inventorying a fleet of bodies carrying 512 tags through the
    // worker pool. Per-body state is a few counters, so the run holds
    // constant memory while pushing over a million tag-sessions; a
    // 64-body probe re-run at 1/2/8 workers pins pool-width invariance.
    let inventory_json = {
        use ivn_bench::inventory::{fleet_experiment, run_fleet};
        use ivn_core::scenario::PolicySpec;
        let tags_per_body = 512;
        let bodies = if fast { 768 } else { 1024 };
        let exp = fleet_experiment(tags_per_body);

        let probe = PolicySpec::Adaptive { q0: 6, c: 0.3 };
        let one = run_fleet(&exp, probe.clone(), 64, SEED, 1);
        for t in [2, 8] {
            assert_eq!(
                one,
                run_fleet(&exp, probe.clone(), 64, SEED, t),
                "inventory fleet diverged at {t} threads"
            );
        }

        let policies = [
            PolicySpec::Adaptive { q0: 6, c: 0.3 },
            PolicySpec::Fixed { q: 9 },
            PolicySpec::Schoute { q0: 6 },
        ];
        let mut total_sessions = 0usize;
        let mut policy_entries = Vec::new();
        for policy in policies {
            let name = policy.name();
            let t0 = std::time::Instant::now();
            let stats = run_fleet(&exp, policy, bodies, SEED, threads);
            let seconds = t0.elapsed().as_secs_f64();
            let per_sec = stats.tag_sessions as f64 / seconds;
            total_sessions += stats.tag_sessions;
            println!(
                "inventory {name:<9} {bodies} bodies x {tags_per_body} tags in {seconds:.2} s \
                 ({per_sec:.0} tag-sessions/sec, rounds-to-full median {:.0})",
                stats.rounds_to_full_median
            );
            policy_entries.push(Json::obj([
                ("policy", name.into()),
                ("tag_sessions", stats.tag_sessions.into()),
                ("seconds", seconds.into()),
                ("tag_sessions_per_sec", per_sec.into()),
                ("rounds_to_full_median", stats.rounds_to_full_median.into()),
                (
                    "terminated_frac",
                    (stats.terminated as f64 / bodies as f64).into(),
                ),
                ("slots_per_tag", stats.slots_per_tag.into()),
                ("captures", (stats.captures as usize).into()),
            ]));
        }
        assert!(
            total_sessions >= 1_000_000,
            "inventory fleet too small: {total_sessions} tag-sessions"
        );
        Json::obj([
            ("tags_per_body", tags_per_body.into()),
            ("bodies_per_policy", bodies.into()),
            ("total_tag_sessions", total_sessions.into()),
            ("thread_invariant", true.into()),
            ("policies", Json::Arr(policy_entries)),
        ])
    };

    // Per-worker pool observatory snapshot, taken after every pooled
    // workload above has run, so the lanes reflect this process's whole
    // dispatch history (sweep + dispatch bench + campaign).
    let pool_workers_json = {
        use ivn_runtime::pool::WorkerPool;
        let lanes = WorkerPool::global().stats();
        Json::Arr(
            lanes
                .iter()
                .map(|l| {
                    Json::obj([
                        ("lane", l.lane.as_str().into()),
                        ("tasks", (l.tasks as f64).into()),
                        ("steals", (l.steals as f64).into()),
                        ("steal_misses", (l.steal_misses as f64).into()),
                        ("parks", (l.parks as f64).into()),
                        ("wakes", (l.wakes as f64).into()),
                        ("busy_ns", (l.busy_ns as f64).into()),
                        ("idle_ns", (l.idle_ns as f64).into()),
                        ("busy_frac", l.busy_frac().into()),
                        ("queue_pushed", (l.queue_pushed as f64).into()),
                        ("queue_depth_peak", (l.queue_depth_peak as f64).into()),
                    ])
                })
                .collect(),
        )
    };

    let obs_report = with_obs.then(|| {
        let report = obs::report();
        obs::set_enabled(false);
        print!("{}", report.render());
        report.to_json()
    });
    if let Some(path) = &trace_path {
        trace::set_enabled(false);
        let t = trace::snapshot();
        std::fs::write(path, t.to_chrome_json().dump() + "\n").expect("write trace");
        println!("wrote trace to {path} ({} events)", t.events.len());
    }

    let mut fields = vec![
        ("bench", Json::from("peak_gain_cdf")),
        ("mode", Json::from(if fast { "fast" } else { "full" })),
        ("offsets", offsets.to_vec().into()),
        ("trials", trials.into()),
        ("grid", GRID.into()),
        ("seed", (SEED as f64).into()),
        ("worker_threads", threads.into()),
        ("cores", cores.into()),
        ("serial_median_ns", serial_ns.into()),
        ("parallel_median_ns", parallel_ns.into()),
        ("speedup", speedup.into()),
        ("parallel_sweep", Json::Arr(sweep_entries)),
        ("pool", pool_json),
        ("obs_overhead_pct", obs_oh.pct.into()),
        (
            "obs_overhead_ci95_pct",
            Json::Arr(vec![obs_oh.ci_lo.into(), obs_oh.ci_hi.into()]),
        ),
        ("trace_overhead_pct", trace_oh.pct.into()),
        (
            "trace_overhead_ci95_pct",
            Json::Arr(vec![trace_oh.ci_lo.into(), trace_oh.ci_hi.into()]),
        ),
        ("stages", Json::Arr(stage_entries)),
        ("kernels", Json::Arr(kernel_entries)),
        ("streaming", streaming_json),
        ("campaign", campaign_json),
        ("campaign_planshare", campaign_planshare_json),
        ("inventory", inventory_json),
        ("pool_workers", pool_workers_json),
        ("results", b.to_json()),
    ];
    if let Some(report) = obs_report {
        fields.push(("obs_report", report));
    }
    let doc = Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    std::fs::write("BENCH_runtime.json", doc.dump() + "\n").expect("write BENCH_runtime.json");
    println!("wrote BENCH_runtime.json");
    std::process::ExitCode::SUCCESS
}
