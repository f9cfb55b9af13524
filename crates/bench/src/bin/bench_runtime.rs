//! Runtime-layer benchmark: the Monte-Carlo thread sweep (scoped
//! `par::ensemble_threads` at widths 1–8), the worker pool's dispatch
//! cost, the instrumentation overhead, one workload per pipeline stage,
//! streaming sample-path throughput, and campaign and inventory rates,
//! written to `BENCH_runtime.json` (via the in-tree JSON layer) in the
//! current directory.
//!
//! Every gated number is taken one way: [`sentinel::measure`] (or
//! [`sentinel::measure_columns`]) runs the workload for a fixed number of
//! rounds and records the median with an
//! order-statistic 95% CI, written as `<name>` and `<name>_ci95`.
//! The determinism checks run alongside: the sweep asserts serial ==
//! parallel at every width, the dispatch bench pooled == inline, every
//! plan-share round cold == warm report bytes, and the inventory fleet
//! 1/2/8-thread identity.
//!
//! With `--obs`, observability (`ivn_runtime::obs`) is enabled for the
//! stage, streaming, campaign and inventory runs and the resulting metric
//! `Report` is embedded in the JSON under `"obs_report"` — counters and
//! span histograms from inside every instrumented crate.
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

use ivn_bench::sentinel::{self, measure, time_ns, Estimate, MIN_ROUNDS};
use ivn_core::experiment::peak_gain_cdf_threads;
use ivn_core::scenario::{gen, Scenario};
use ivn_core::PAPER_OFFSETS_HZ;
use ivn_runtime::json::{Json, ToJson};
use ivn_runtime::obs;
use ivn_runtime::par;
use ivn_runtime::rng::StdRng;
use ivn_runtime::telemetry;
use ivn_runtime::trace;
use std::hint::black_box;

const SEED: u64 = 42;
const GRID: usize = 1024;

/// Widths the parallel sweep measures. `peak_gain_cdf_threads` runs its
/// trials on exactly that many scoped threads (width 1 runs inline)
/// regardless of the machine's core count; oversubscribed widths are
/// skipped rather than timed.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Rounds for the sub-millisecond workloads: the stage workloads and
/// `swap_eval`.
const STAGE_ROUNDS: usize = 101;
/// Rounds for the millisecond-scale workloads: the thread sweep, pool
/// dispatch, the streaming period and the session campaign.
const ROUNDS: usize = 21;
/// Back-to-back dispatches one pool-dispatch round times.
const DISPATCH_BATCH: usize = 16;
/// Paired off/on rounds behind the instrumentation-overhead CI.
const OVERHEAD_ROUNDS: usize = 200;
/// Bodies per inventory round: each policy's fleet is split into rounds
/// of this many bodies, one seed per round.
const INVENTORY_ROUND_BODIES: usize = 64;

/// A JSON object from `(key, value)` pairs plus the median/CI fields of
/// each named estimate.
fn obj_with(pairs: Vec<(&str, Json)>, estimates: &[(&str, Estimate)]) -> Json {
    let mut fields: Vec<(String, Json)> =
        pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    for (name, est) in estimates {
        fields.extend(est.fields(name));
    }
    Json::Obj(fields)
}

/// `count` scenarios generated from `base`, swept over four depths
/// with ±5 % EIRP jitter — the campaign benches' fleet shape.
fn session_fleet(base: Scenario, count: usize, seed: u64) -> Vec<Scenario> {
    gen::generate(&gen::GenSpec {
        base,
        count,
        seed,
        sweeps: vec![gen::SweepAxis {
            path: "placement.depth_m".into(),
            values: [0.02, 0.05, 0.08, 0.11].map(Json::from).to_vec(),
        }],
        jitters: vec![gen::JitterSpec {
            path: "eirp_dbm".into(),
            frac: 0.05,
        }],
    })
    .expect("generate fleet")
}

/// Overhead of turning instrumentation on, as a percentage of the
/// baseline `peak_gain_cdf` wall-clock with everything off.
///
/// Each round times the three configurations (off, obs on, obs+trace
/// on) back to back and records the two *paired relative deltas* for
/// that round: scheduling noise and thermal drift hit the adjacent runs
/// alike and cancel inside a pair instead of biasing the estimate.
/// The reported figure is the median paired delta with a 95% CI on the
/// median; the committed baseline gates the *upper* CI bound, so the
/// check cannot pass on noise alone.
fn measure_overhead(offsets: &[f64]) -> [Estimate; 2] {
    let run = || peak_gain_cdf_threads(offsets, 16, GRID, SEED, 1);
    run(); // warm-up
    let deltas = measure(OVERHEAD_ROUNDS, || {
        obs::set_enabled(false);
        trace::set_enabled(false);
        let off = time_ns(run).0;
        obs::set_enabled(true);
        let obs_on = time_ns(run).0;
        trace::set_enabled(true);
        let both_on = time_ns(run).0;
        [100.0 * (obs_on - off) / off, 100.0 * (both_on - off) / off]
    });
    obs::set_enabled(false);
    trace::set_enabled(false);
    trace::reset();
    deltas
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

/// Mean wall-clock ns of one `dispatch` over [`DISPATCH_BATCH`]
/// back-to-back calls.
fn batch_ns<T>(dispatch: impl Fn() -> T) -> f64 {
    let ns = time_ns(|| {
        for _ in 0..DISPATCH_BATCH {
            black_box(dispatch());
        }
    })
    .0;
    ns / DISPATCH_BATCH as f64
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
            use ivn_rfid::commands::Command;
            use ivn_rfid::fm0::Fm0;
            use ivn_rfid::pie::{decode_frame, encode_frame, rasterize, PieParams};
            let bits = Command::canonical_query().encode();
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
    let fast = std::env::var("IVN_BENCH_FAST").is_ok_and(|v| v == "1");
    let trials = if fast { 64 } else { 400 };
    let threads = par::num_threads();
    let offsets = &PAPER_OFFSETS_HZ[..5];
    let sweep = |t: usize| peak_gain_cdf_threads(offsets, trials, GRID, SEED, t);

    // The parallel path must change only how fast the answer arrives:
    // every sweep width has to be bit-identical to the serial run.
    let serial = sweep(1);
    for &t in &THREAD_SWEEP[1..] {
        assert_eq!(
            serial,
            sweep(t),
            "peak_gain_cdf at {t} threads diverged from serial"
        );
    }

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let [serial_est] = measure(ROUNDS, || [time_ns(|| sweep(1)).0]);
    let serial_ns = serial_est.median;
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
        let est = if t == 1 {
            serial_est
        } else {
            measure(ROUNDS, || [time_ns(|| sweep(t)).0])[0]
        };
        let speedup = serial_ns / est.median;
        println!("threads {t}: median {est:.0} ns, speedup {speedup:.2}x");
        // Only reached with >= 8 cores: a timed 8-wide sweep must scale.
        assert!(
            t != 8 || speedup >= 4.0,
            "8-thread parallel_sweep speedup {speedup:.2}x is below 4x on {cores} cores"
        );
        sweep_entries.push(obj_with(
            vec![("threads", t.into()), ("speedup", speedup.into())],
            &[("median_ns", est)],
        ));
        parallel_ns = est.median;
    }
    let speedup = serial_ns / parallel_ns;
    println!("default width: {threads}, widest-sweep speedup: {speedup:.2}x");

    // Dispatch amortization: identical chunked work through freshly
    // spawned scoped threads vs the persistent pool. This isolates the
    // fixed cost the pool exists to remove — on a single-core host the
    // wall-clock sweep above cannot show parallel speedup, but the
    // dispatch delta is real on any machine. Each round times the two
    // back to back, so the speedup is a paired ratio.
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
        // A round times a batch of back-to-back dispatches each way, so
        // the pool is measured warm, as a mass campaign drives it.
        let [spawn, pooled, dispatch_speedup] = measure(ROUNDS, || {
            let spawn = batch_ns(|| par::par_map_threads(8, &items, |_, &i| dispatch_workload(i)));
            let pooled = batch_ns(|| pool.map_indexed(64, 8, dispatch_workload));
            [spawn, pooled, spawn / pooled]
        });
        println!(
            "pool dispatch x8: spawn {:.0} ns vs pooled {:.0} ns, speedup {dispatch_speedup:.2} \
             ({} workers on {cores} cores)",
            spawn.median,
            pooled.median,
            pool.workers()
        );
        obj_with(
            vec![("workers", pool.workers().into()), ("cores", cores.into())],
            &[
                ("spawn_dispatch_ns", spawn),
                ("pool_dispatch_ns", pooled),
                ("dispatch_speedup_x8", dispatch_speedup),
            ],
        )
    };

    // What does flipping the instrumentation on actually cost?
    let [obs_oh, trace_oh] = measure_overhead(offsets);
    println!(
        "instrumentation overhead on peak_gain_cdf, %: obs {obs_oh:.2}, obs+trace {trace_oh:.2}"
    );

    // Per-stage wall-clock breakdown. With --obs the stage runs also feed
    // the metric registry, so the report reflects exactly this work.
    const STAGES: [&str; 5] = ["sdr", "em", "harvester", "rfid", "freqsel"];
    if with_obs {
        obs::reset();
        obs::set_enabled(true);
    }
    let mut stage_entries = Vec::new();
    for stage in STAGES {
        let [est] = measure(STAGE_ROUNDS, || [time_ns(|| stage_workload(stage, fast)).0]);
        println!("stage {stage:<10} median {est:.0} ns");
        stage_entries.push(obj_with(
            vec![("stage", stage.into())],
            &[("median_ns", est)],
        ));
    }
    let swap_eval_json = {
        // The hill climber's inner step: one incremental candidate
        // evaluation over cached per-draw grids (kernel built once, so
        // the bench isolates the swap itself).
        use ivn_core::kernels::CrnKernel;
        let mut rng = StdRng::seed_from_u64(SEED);
        let draws = if fast { 16 } else { 96 };
        let mut ck = CrnKernel::new(&PAPER_OFFSETS_HZ, draws, GRID, &mut rng);
        let [est] = measure(STAGE_ROUNDS, || [time_ns(|| ck.score_swap(3, 55.0)).0]);
        println!("kernel swap_eval median {est:.0} ns");
        obj_with(vec![("kernel", "swap_eval".into())], &[("median_ns", est)])
    };

    // Streaming sample-path throughput: one full 1-second CIB period
    // through the block driver (100 kS/s in fast mode, 1 MS/s in full),
    // per stage the report lists — the fused power pass under `em`, then
    // `rfid`. Runs under the same obs state so the streaming spans land
    // in the embedded report too.
    let streaming_json = {
        let opts = ivn_bench::pipeline::StreamOptions {
            sample_rate: Some(if fast { 1e5 } else { 1e6 }),
            ..Default::default()
        };
        let first = ivn_bench::pipeline::outputs_streaming(true, &opts);
        let names: Vec<&str> = first.stage_ns.iter().map(|&(stage, ..)| stage).collect();
        let msps = sentinel::measure_columns(ROUNDS, names.len(), || {
            let report = ivn_bench::pipeline::outputs_streaming(true, &opts);
            report
                .stage_ns
                .iter()
                .map(|&(_, ns, samples)| samples as f64 * 1e3 / (ns as f64).max(1.0))
                .collect()
        });
        let mut entries = Vec::new();
        for (stage, est) in names.iter().zip(msps) {
            println!("streaming {stage:<10} {est:.2} MS/s");
            entries.push(obj_with(vec![("stage", (*stage).into())], &[("msps", est)]));
        }
        Json::obj([
            ("sample_rate", first.outputs.sample_rate.into()),
            ("block", first.block.into()),
            ("threads", first.threads.into()),
            ("stages", Json::Arr(entries)),
        ])
    };

    // Mass-campaign throughput: a generated fleet of power-session
    // scenarios through the campaign driver at full pool width.
    let campaign_json = {
        use ivn_core::scenario::builtin;
        let n_scenarios = if fast { 64 } else { 256 };
        let fleet = session_fleet(builtin("session").expect("builtin"), n_scenarios, SEED);
        let [per_sec] = measure(ROUNDS, || {
            let (ns, outcome) = time_ns(|| ivn_bench::campaign::run(&fleet, true, threads));
            assert!(outcome.errors.is_empty(), "campaign errors: {outcome:?}");
            [n_scenarios as f64 * 1e9 / ns]
        });
        println!("campaign: {n_scenarios} scenarios, {per_sec:.1} scenarios/sec");
        obj_with(
            vec![
                ("scenarios", n_scenarios.into()),
                ("threads", threads.into()),
            ],
            &[("scenarios_per_sec", per_sec)],
        )
    };

    // Plan-sharing campaign: the same session fleet but with an
    // `Optimize` frequency plan, so every scenario runs the Eq. 10
    // search unless the PlanCache intervenes. Each round runs it cold
    // (cache disabled: every scenario pays the search) and then warm
    // (cache enabled from empty: the first miss computes, the rest of
    // the fleet hits — depth sweeps and EIRP jitters don't touch the
    // plan key). The two reports must be byte-identical: a cache hit
    // returns exactly what the cold path computes.
    let campaign_planshare_json = {
        use ivn_core::plancache::PlanCache;
        use ivn_core::scenario::{builtin, FreqPlan, FreqSelSpec, QuickFull};
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
        let fleet = session_fleet(base, n_scenarios, SEED + 1);
        let cache = PlanCache::global();
        let (mut hits, mut misses) = (0, 0);
        let [cold_per_sec, warm_per_sec, speedup] = measure(MIN_ROUNDS, || {
            cache.clear();
            cache.set_enabled(false);
            let (cold_ns, cold) = time_ns(|| ivn_bench::campaign::run(&fleet, true, threads));
            assert!(cold.errors.is_empty(), "cold planshare errors: {cold:?}");

            cache.set_enabled(true);
            cache.clear();
            cache.reset_counters();
            let (warm_ns, warm) = time_ns(|| ivn_bench::campaign::run(&fleet, true, threads));
            assert!(warm.errors.is_empty(), "warm planshare errors: {warm:?}");
            (hits, misses) = cache.counters();
            assert!(hits > 0, "plan-sharing fleet produced no cache hits");
            assert!(
                (misses as usize) < n_scenarios,
                "every scenario missed the plan cache"
            );
            assert!(
                cold.report().dump() == warm.report().dump(),
                "cache hits diverged from cold computation"
            );
            let per_sec = |ns: f64| n_scenarios as f64 * 1e9 / ns;
            [per_sec(cold_ns), per_sec(warm_ns), cold_ns / warm_ns]
        });
        let hit_rate = hits as f64 / (hits + misses) as f64;
        println!(
            "campaign planshare: {n_scenarios} scenarios cold {:.1}/s warm {:.1}/s, \
             speedup {speedup:.1} (hit rate {hit_rate:.2})",
            cold_per_sec.median, warm_per_sec.median
        );
        obj_with(
            vec![
                ("scenarios", n_scenarios.into()),
                ("threads", threads.into()),
                ("cache_hits", (hits as f64).into()),
                ("cache_misses", (misses as f64).into()),
                ("hit_rate", hit_rate.into()),
                ("byte_identical", true.into()),
            ],
            &[
                ("cold_per_sec", cold_per_sec),
                ("warm_per_sec", warm_per_sec),
                ("speedup", speedup),
            ],
        )
    };

    // Population-scale inventory fleet: three anti-collision policies,
    // each inventorying a fleet of bodies carrying 512 tags through the
    // worker pool, in rounds of 64 bodies with one seed per round.
    // Per-body state is a few counters, so the run holds constant memory
    // while pushing over a million tag-sessions; a 64-body probe re-run
    // at 1/2/8 workers pins pool-width invariance.
    let inventory_json = {
        use ivn_bench::inventory::{fleet_experiment, run_fleet, FleetStats};
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
        let rounds = bodies / INVENTORY_ROUND_BODIES;
        let mut total_sessions = 0usize;
        let mut policy_entries = Vec::new();
        for policy in policies {
            let name = policy.name();
            let mut per_body = Vec::with_capacity(bodies);
            let mut seed = SEED;
            let [per_sec] = measure(rounds, || {
                seed += 1;
                let (ns, stats) = time_ns(|| {
                    run_fleet(&exp, policy.clone(), INVENTORY_ROUND_BODIES, seed, threads)
                });
                per_body.extend(stats.per_body);
                [stats.tag_sessions as f64 * 1e9 / ns]
            });
            let stats = FleetStats::of_bodies(tags_per_body, per_body);
            total_sessions += stats.tag_sessions;
            println!(
                "inventory {name:<9} {bodies} bodies x {tags_per_body} tags, \
                 {per_sec:.0} tag-sessions/sec, rounds-to-full median {:.0}",
                stats.rounds_to_full_median
            );
            policy_entries.push(obj_with(
                vec![
                    ("policy", name.into()),
                    ("tag_sessions", stats.tag_sessions.into()),
                    ("rounds_to_full_median", stats.rounds_to_full_median.into()),
                    (
                        "terminated_frac",
                        (stats.terminated as f64 / stats.bodies as f64).into(),
                    ),
                    ("slots_per_tag", stats.slots_per_tag.into()),
                    ("captures", (stats.captures as usize).into()),
                ],
                &[("tag_sessions_per_sec", per_sec)],
            ));
        }
        assert!(
            total_sessions >= 1_000_000,
            "inventory fleet too small: {total_sessions} tag-sessions"
        );
        Json::obj([
            ("tags_per_body", tags_per_body.into()),
            ("bodies_per_policy", bodies.into()),
            ("bodies_per_round", INVENTORY_ROUND_BODIES.into()),
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

    let mut fields = vec![
        ("bench", Json::from("peak_gain_cdf")),
        ("mode", Json::from(if fast { "fast" } else { "full" })),
        ("offsets", offsets.to_vec().into()),
        ("trials", trials.into()),
        ("grid", GRID.into()),
        ("seed", (SEED as f64).into()),
        ("worker_threads", threads.into()),
        ("cores", cores.into()),
        ("parallel_median_ns", parallel_ns.into()),
        ("speedup", speedup.into()),
        ("parallel_sweep", Json::Arr(sweep_entries)),
        ("pool", pool_json),
        ("obs_overhead_pct", obs_oh.median.into()),
        (
            "obs_overhead_ci95_pct",
            Json::Arr(vec![obs_oh.ci95[0].into(), obs_oh.ci95[1].into()]),
        ),
        ("trace_overhead_pct", trace_oh.median.into()),
        (
            "trace_overhead_ci95_pct",
            Json::Arr(vec![trace_oh.ci95[0].into(), trace_oh.ci95[1].into()]),
        ),
        ("stages", Json::Arr(stage_entries)),
        ("kernels", Json::Arr(vec![swap_eval_json])),
        ("streaming", streaming_json),
        ("campaign", campaign_json),
        ("campaign_planshare", campaign_planshare_json),
        ("inventory", inventory_json),
        ("pool_workers", pool_workers_json),
    ];
    if let Some(report) = obs_report {
        fields.push(("obs_report", report));
    }
    let doc = obj_with(fields, &[("serial_median_ns", serial_est)]);
    std::fs::write("BENCH_runtime.json", doc.dump() + "\n").expect("write BENCH_runtime.json");
    println!("wrote BENCH_runtime.json");
    std::process::ExitCode::SUCCESS
}
