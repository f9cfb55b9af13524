#!/usr/bin/env sh
# Offline verification: build, test, format check, and the runtime-layer
# benchmark. Must pass from a clean checkout with an empty cargo registry —
# the workspace has no external dependencies.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> rustdoc: no broken or ambiguous intra-doc links"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> clippy: whole workspace lint clean (rustc's dead_code included)"
cargo clippy --offline --workspace --all-targets --no-deps -- -D warnings

echo "==> test-only pub fns and unreached modules: every one is allowlisted with its reason"
# rustc's dead_code cannot see a `pub fn` whose only callers are tests.
# The scan is textual over the program: crates/*/src outside
# `#[cfg(test)]` items, src/, examples/ and perfbench/src, without
# comment lines. It makes three checks:
# - a `pub fn`'s name appears on a program line other than its own `fn`
#   line;
# - each crates/*/src module file is named (`m::…` or `use …m`) by a
#   program line of another file;
# - each top-level `pub fn` of module `m` is named `m::name`, imported
#   from `m`, or called in its own file.
# The last two catch a module or free fn whose name is also some
# method's (`new`, `peak`), which the first lets through.
# Each allowlisted name is a reference or harness a test relies on:
#   any, btree_set, vec  props! strategies the crate test suites draw from
#   prop             the props! harness module, named only by those suites and its own macro
#   draw_phases      CrnKernel's draws, which kernel_props rebuilds reference scores from
#   emit_oracle      trig oracle the CarrierWindows rotor path is bounded against
#   from_values      registry-free histogram, the reference Report merges are checked against
#   gain_factor      per-tag coupling reference for the batch gain_factors
#   reflect_baseband sample-level backscatter uplink the protocol round-trip test decodes
#   inventory_all    the broadcast rfid Reader, reference for the population fast path
#   set_capture      (same Reader)
#   power_up         whole-envelope wrapper the harvester and cross-crate props drive
#   power_up_oracle  reference integrator for every PowerUpState feeding
#   static_sensitivity_watts  analytic floor the power-up integrator is checked against
ALLOWED="any btree_set draw_phases emit_oracle from_values gain_factor inventory_all prop reflect_baseband set_capture power_up power_up_oracle static_sensitivity_watts vec"
SRC=target/verify_program
rm -rf "$SRC"
mkdir -p "$SRC"
for f in $(find crates/*/src src examples perfbench/src -name '*.rs' | sort); do
    g="$SRC/$(echo "$f" | tr / _)"
    awk '/^#\[cfg\(test\)\]/ { skip = 1; next }
         skip && /^}/ { skip = 0; next }
         !skip && !/^[[:space:]]*\/\//' "$f" > "$g"
    # One `use` statement per line, however rustfmt wrapped it.
    tr '\n' ' ' < "$g" | { grep -oE '\buse [^;]*;' || true; } > "${g%.rs}.use"
done
CORPUS=target/verify_program.rs
cat "$SRC"/*.rs > "$CORPUS"
unlisted=""
flag() { case " $ALLOWED " in *" $1 "*) ;; *) unlisted="$unlisted $2" ;; esac; }
for name in $(grep -oE '^[[:space:]]*pub fn [a-z_0-9]+' "$CORPUS" | awk '{print $3}' | sort -u); do
    grep -E "\\b$name\\b" "$CORPUS" | grep -vqE "fn $name\\b" || flag "$name" "$name"
done
for f in $(find crates/*/src -name '*.rs' ! -path '*/bin/*' | sort); do
    g="$SRC/$(echo "$f" | tr / _)"
    m=$(basename "$f" .rs)
    [ "$m" = mod ] && m=$(basename "$(dirname "$f")")
    if [ "$m" = lib ]; then
        m="(crate|ivn_$(echo "$f" | cut -d/ -f2))"
    else
        grep -lE "\\b$m::|\\buse [^;]*\\b$m\\b" "$SRC"/* | grep -vqxE "${g%.rs}\\.(rs|use)" || flag "$m" "$f"
    fi
    for name in $(grep -oE '^pub fn [a-z_0-9]+' "$g" | awk '{print $3}'); do
        grep -qE "\\b$m::([^;]*[{ ,])?$name\\b" "$SRC"/* && continue
        grep -E "\\b$name\\(" "$g" | grep -vqE "fn $name\\b" || flag "$name" "$m::$name"
    done
done
if [ -n "$unlisted" ]; then
    echo "verify: FAIL — unreached outside tests:$unlisted (delete it, or allowlist it with its reason)" >&2
    exit 1
fi
echo "every test-only pub fn and unreached module is allowlisted"

echo "==> trace round trip: reproduce --trace → in-tree JSON parse → balance check"
TRACE_OUT=target/verify_trace.json
cargo run --release --offline -p ivn-bench --bin reproduce -- pipeline --quick --trace "$TRACE_OUT" > /dev/null
# trace_report --check parses through the in-tree JSON layer, requires a
# non-empty traceEvents array, and verifies every B has a matching E.
cargo run --release --offline -p ivn-bench --bin trace_report -- "$TRACE_OUT" --check
for span in sdr.emit_ns em.ensemble_responses_ns harvester.power_up_ns rfid.pie_decode_ns rfid.fm0_decode_ns freqsel.mc_eval_ns freqsel.kernel_batch_ns freqsel.kernel_fill physics.envelope_peak physics.harvested_charge_j; do
    grep -q "\"$span\"" "$TRACE_OUT" || {
        echo "verify: FAIL — '$span' missing from $TRACE_OUT" >&2
        exit 1
    }
done

echo "==> runtime bench with observability (BENCH_runtime.json)"
IVN_BENCH_FAST="${IVN_BENCH_FAST:-1}" cargo run --release --offline -p ivn-bench --bin bench_runtime -- --obs

echo "==> scenario export: every builtin round-trips through a file"
SCN_DIR=target/verify_scenarios
rm -rf "$SCN_DIR"
mkdir -p "$SCN_DIR"
# export → --scenario must reproduce each figure's golden bytes, and the
# other builtins must at least run.
for name in $(cargo run -q --release --offline -p ivn-bench --bin reproduce -- list | tail -n +2 | cut -d' ' -f1); do
    cargo run -q --release --offline -p ivn-bench --bin reproduce -- export "$name" --out "$SCN_DIR/$name.json" 2> /dev/null
    cargo run -q --release --offline -p ivn-bench --bin reproduce -- --scenario "$SCN_DIR/$name.json" --quick > "$SCN_DIR/$name.out"
    if [ -f "tests/golden/figures/$name.quick.txt" ]; then
        cmp "$SCN_DIR/$name.out" "tests/golden/figures/$name.quick.txt" || {
            echo "verify: FAIL — exported $name diverged from tests/golden/figures/$name.quick.txt" >&2
            exit 1
        }
    fi
done
# export → run through a file → re-export must not change a byte; the
# scenario_golden suite pins parse→dump stability, this pins the CLI path.
cargo run --release --offline -p ivn-bench --bin reproduce -- export session --out "$SCN_DIR/session2.json" 2> /dev/null
cmp "$SCN_DIR/session.json" "$SCN_DIR/session2.json" || {
    echo "verify: FAIL — scenario export is not byte-stable" >&2
    exit 1
}
# A file with a misspelled or unread field, or a sweep past the array,
# must fail at parse and name every offending field on stderr.
reject() {
    file=$1
    shift
    if cargo run -q --release --offline -p ivn-bench --bin reproduce -- --scenario "$file" --quick > /dev/null 2> "$file.err"; then
        echo "verify: FAIL — $file parsed" >&2
        exit 1
    fi
    for want in "$@"; do
        grep -qF -- "$want" "$file.err" || {
            echo "verify: FAIL — $file: stderr does not name $want" >&2
            cat "$file.err" >&2
            exit 1
        }
    done
}
sed 's/^{/{"eirp_dBm":100,"seeed":7,/' "$SCN_DIR/fig9.json" > "$SCN_DIR/typos.json"
reject "$SCN_DIR/typos.json" "'eirp_dBm' (did you mean 'eirp_dbm'?)" "'seeed' (did you mean 'seed'?)"
sed 's/"n_max":{"quick":4/"n_max":{"quick":11/' "$SCN_DIR/fig13.json" > "$SCN_DIR/n_max.json"
reject "$SCN_DIR/n_max.json" "kind.n_max.quick"
sed 's/^{/{"trials":5,/' "$SCN_DIR/fig13.json" > "$SCN_DIR/unread.json"
reject "$SCN_DIR/unread.json" "trials is not read by kind 'range'"
# The range figure reads its array's carrier: at 2.4 GHz Fig. 13 moves.
sed 's/"carrier_hz":915000000/"carrier_hz":2400000000/' "$SCN_DIR/fig13.json" > "$SCN_DIR/carrier.json"
cargo run -q --release --offline -p ivn-bench --bin reproduce -- --scenario "$SCN_DIR/carrier.json" --quick > "$SCN_DIR/carrier.out"
if cmp -s "$SCN_DIR/carrier.out" tests/golden/figures/fig13.quick.txt; then
    echo "verify: FAIL — fig13 at a 2.4 GHz carrier reproduced the 915 MHz golden" >&2
    exit 1
fi
echo "scenario export round-trip OK (every builtin; typos, unread fields and n_max rejected)"

echo "==> built-in scenarios reproduce the legacy figure bytes"
# Cheap targets only here (the full 13-target pin runs in scenario_golden):
# the registry path through `reproduce <target>` must match the golden files.
for target in fig2 fig4 fig9 fig11 invivo; do
    cargo run --release --offline -p ivn-bench --bin reproduce -- "$target" --quick > "target/verify_$target.txt"
    cmp "target/verify_$target.txt" "tests/golden/figures/$target.quick.txt" || {
        echo "verify: FAIL — reproduce $target --quick diverged from tests/golden/figures/$target.quick.txt" >&2
        exit 1
    }
done
echo "figure bytes match golden files"

echo "==> 25-scenario generated campaign smoke run"
FLEET_DIR=target/verify_fleet
rm -rf "$FLEET_DIR"
cargo run --release --offline -p ivn-bench --bin reproduce -- generate --out "$FLEET_DIR" --base session --count 25 --seed 7 \
    --sweep placement.depth_m=0.02,0.05,0.08 --jitter eirp_dbm=0.05
cargo run --release --offline -p ivn-bench --bin reproduce -- campaign "$FLEET_DIR" --quick --threads 2 --out target/verify_campaign.json
grep -q '"evaluated":25' target/verify_campaign.json || {
    echo "verify: FAIL — campaign report did not evaluate all 25 scenarios" >&2
    exit 1
}
grep -q '"errors":0' target/verify_campaign.json || {
    echo "verify: FAIL — campaign reported scenario errors" >&2
    exit 1
}
# The report bytes are pinned in the repo: every gain, time-to-power and
# decode count of the 25 sessions must match the committed golden.
cmp target/verify_campaign.json tests/golden/campaign/session25.quick.json || {
    echo "verify: FAIL — session campaign report diverged from tests/golden/campaign/session25.quick.json" >&2
    exit 1
}
echo "campaign smoke run OK (25 scenarios, report matches golden)"

echo "==> campaign --obs-json: per-trial spans reported, stdout unchanged"
cargo run --release --offline -p ivn-bench --bin reproduce -- campaign "$FLEET_DIR" --quick --threads 2 \
    --obs-json target/verify_campaign_obs.json > target/verify_campaign_obs_on.txt
for name in experiment.trial.peak_ns experiment.trial.keyed_certified; do
    grep -q "\"$name\"" target/verify_campaign_obs.json || {
        echo "verify: FAIL — campaign --obs-json report lacks $name" >&2
        exit 1
    }
done
cargo run --release --offline -p ivn-bench --bin reproduce -- campaign "$FLEET_DIR" --quick --threads 2 > target/verify_campaign_obs_off.txt
cmp target/verify_campaign_obs_on.txt target/verify_campaign_obs_off.txt || {
    echo "verify: FAIL — campaign stdout differs with --obs-json" >&2
    exit 1
}
# Subcommands that run no experiment reject the instrumentation flags.
if cargo run --release --offline -p ivn-bench --bin reproduce -- list --obs > /dev/null 2>&1; then
    echo "verify: FAIL — reproduce list accepted --obs" >&2
    exit 1
fi
# A figure target reads no --threads (IVN_THREADS sets its width), so
# passing one is an error, not a silent no-op.
if cargo run --release --offline -p ivn-bench --bin reproduce -- fig2 --quick --threads 3 > /dev/null 2>&1; then
    echo "verify: FAIL — reproduce fig2 accepted --threads" >&2
    exit 1
fi
echo "campaign obs report OK (stdout byte-identical; list rejects --obs, fig2 rejects --threads)"

echo "==> multi_sensor example: the multisensor builtin on the inventory path"
cargo run --release --offline --example multi_sensor

echo "==> perfbench's own tests: layers sum to the traced total, metric names match BENCHMARK.json"
cargo test -q --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "==> perfbench witness smoke: every workload still matches perfbench/witnesses.json"
# One short untraced run per workload; perfbench checks every run's
# output against its committed witness and counts mismatches as failed.
# Its own target dir keeps the build out of perfbench/.
for workload in pipeline campaign inventory; do
    last=$(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench -- \
        --workload "$workload" --seed 0 --seconds 1 --trace 0 | tail -n 1)
    case "$last" in
        *'"failed": 0,'*) echo "perfbench $workload: 0 failed" ;;
        *)
            echo "verify: FAIL — perfbench $workload: $last" >&2
            exit 1
            ;;
    esac
done

echo "==> perfbench witnesses: every variant still matches perfbench/witnesses.json"
# The smoke above checks one variant per workload; this re-records the
# whole table (the pipeline plus all campaign and inventory variants,
# about a minute on two cores) and diffs it against the committed file.
cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench -- \
    --record-witnesses > target/verify_witnesses.json
diff -u perfbench/witnesses.json target/verify_witnesses.json || {
    echo "verify: FAIL — perfbench --record-witnesses diverged from perfbench/witnesses.json" >&2
    exit 1
}
echo "perfbench witnesses: every variant matches"

echo "==> 64-tag inventory campaign: byte-identical at 1/2/8 threads"
INV_DIR=target/verify_inventory_fleet
rm -rf "$INV_DIR"
cargo run --release --offline -p ivn-bench --bin reproduce -- generate --out "$INV_DIR" --base inventory --count 6 --seed 11 \
    --sweep eirp_dbm=36,37,38 > /dev/null
cargo run --release --offline -p ivn-bench --bin reproduce -- campaign "$INV_DIR" --quick --threads 1 --out target/verify_inventory_t1.json
cargo run --release --offline -p ivn-bench --bin reproduce -- campaign "$INV_DIR" --quick --threads 2 --out target/verify_inventory_t2.json
cargo run --release --offline -p ivn-bench --bin reproduce -- campaign "$INV_DIR" --quick --threads 8 --out target/verify_inventory_t8.json
grep -q '"evaluated":6' target/verify_inventory_t1.json || {
    echo "verify: FAIL — inventory campaign did not evaluate all 6 scenarios" >&2
    exit 1
}
grep -q '"errors":0' target/verify_inventory_t1.json || {
    echo "verify: FAIL — inventory campaign reported scenario errors" >&2
    exit 1
}
cmp target/verify_inventory_t1.json target/verify_inventory_t2.json || {
    echo "verify: FAIL — inventory campaign diverged between 1 and 2 threads" >&2
    exit 1
}
cmp target/verify_inventory_t1.json target/verify_inventory_t8.json || {
    echo "verify: FAIL — inventory campaign diverged between 1 and 8 threads" >&2
    exit 1
}
echo "inventory campaign OK (6 x 64-tag scenarios, byte-identical at 1/2/8 threads)"

echo "==> flight recorder: live campaign telemetry is valid NDJSON"
LIVE_FLEET=target/verify_live_fleet
LIVE_OUT=target/verify_live.ndjson
rm -rf "$LIVE_FLEET"
cargo run --release --offline -p ivn-bench --bin reproduce -- generate --out "$LIVE_FLEET" --base session --count 64 --seed 7 \
    --sweep placement.depth_m=0.02,0.05,0.08,0.11 --jitter eirp_dbm=0.05 > /dev/null
cargo run --release --offline -p ivn-bench --bin reproduce -- campaign "$LIVE_FLEET" --quick \
    --live "$LIVE_OUT" --live-interval-ms 2 > target/verify_live_on.txt 2> /dev/null
# validate_ndjson checks parseable lines, gapless seq from 0, monotone
# elapsed time; the gate also requires >= 3 snapshots so a recorder that
# started and immediately died cannot pass.
cargo run --release --offline -p ivn-bench --bin bench_runtime -- --check-ndjson "$LIVE_OUT"
grep -q '"rates"' "$LIVE_OUT" || {
    echo "verify: FAIL — no rates in $LIVE_OUT snapshots" >&2
    exit 1
}
grep -q 'campaign.scenarios_done' "$LIVE_OUT" || {
    echo "verify: FAIL — campaign progress counter missing from $LIVE_OUT" >&2
    exit 1
}
# --live must never change the campaign's answer: stdout byte-identical
# to a run with telemetry off.
cargo run --release --offline -p ivn-bench --bin reproduce -- campaign "$LIVE_FLEET" --quick > target/verify_live_off.txt 2> /dev/null
cmp target/verify_live_on.txt target/verify_live_off.txt || {
    echo "verify: FAIL — campaign stdout differs with --live enabled" >&2
    exit 1
}
echo "live telemetry OK ($(wc -l < "$LIVE_OUT") snapshots, stdout byte-identical)"

echo "==> bottleneck attribution from the verify trace"
cargo run --release --offline -p ivn-bench --bin trace_report -- "$TRACE_OUT" --attribute > target/verify_attr.txt
grep -q 'bottleneck attribution' target/verify_attr.txt && grep -q 'stage ranking' target/verify_attr.txt || {
    echo "verify: FAIL — trace_report --attribute did not produce an attribution report" >&2
    exit 1
}
echo "attribution report OK"

echo "==> perf-regression sentinel: BENCH_runtime.json vs committed baseline"
# BENCH_baseline.json holds the one gate for every number in
# BENCH_runtime.json: stage medians, throughput floors, the overhead CI
# ceiling, obs spans and pool-lane counters. Every timed number is the
# median of repeated rounds, written with its 95% CI. The check skips itself
# (exit 0 with a notice) when the bench ran in a different mode than the
# baseline was recorded under. bench_runtime itself asserts the
# thread-sweep, plan-cache and inventory invariants before it writes the
# JSON.
cargo run --release --offline -p ivn-bench --bin bench_runtime -- --check-baseline

echo "verify: OK"
