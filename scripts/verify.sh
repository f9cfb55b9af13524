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

echo "==> trace round trip: reproduce --trace → in-tree JSON parse → balance check"
TRACE_OUT=target/verify_trace.json
cargo run --release --offline -p ivn-bench --bin reproduce -- pipeline --quick --trace "$TRACE_OUT" > /dev/null
# trace_report --check parses through the in-tree JSON layer, requires a
# non-empty traceEvents array, and verifies every B has a matching E.
cargo run --release --offline -p ivn-bench --bin trace_report -- "$TRACE_OUT" --check
for span in sdr.emit_ns em.ensemble_responses_ns harvester.power_up_ns rfid.pie_decode_ns freqsel.mc_eval_ns freqsel.kernel_batch_ns freqsel.kernel_fill physics.envelope_peak physics.harvested_charge_j; do
    grep -q "\"$span\"" "$TRACE_OUT" || {
        echo "verify: FAIL — '$span' missing from $TRACE_OUT" >&2
        exit 1
    }
done

echo "==> streaming vs batch: 1 MS/s pipeline summaries are byte-identical"
# At 1 MS/s the streaming path's calibration skips most of the period
# (only windows whose bound can reach the peak are regenerated); the
# rendered gain, power-up time and decode results must still match the
# whole-buffer oracle byte for byte.
cargo run --release --offline -p ivn-bench --bin reproduce -- pipeline --sample-rate 1e6 > target/verify_pipeline_stream.txt
cargo run --release --offline -p ivn-bench --bin reproduce -- pipeline --sample-rate 1e6 --batch > target/verify_pipeline_batch.txt
cmp target/verify_pipeline_stream.txt target/verify_pipeline_batch.txt || {
    echo "verify: FAIL — 1 MS/s streaming pipeline summary differs from the --batch oracle" >&2
    exit 1
}
echo "1 MS/s streaming == batch summary OK"

echo "==> runtime bench with observability (BENCH_runtime.json)"
IVN_BENCH_FAST="${IVN_BENCH_FAST:-1}" cargo run --release --offline -p ivn-bench --bin bench_runtime -- --obs

echo "==> scenario export: byte-identical JSON round-trip"
SCN_DIR=target/verify_scenarios
mkdir -p "$SCN_DIR"
for name in fig6 fig9 fig13 invivo session multisensor; do
    cargo run --release --offline -p ivn-bench --bin reproduce -- export "$name" --out "$SCN_DIR/$name.json" 2> /dev/null
    cargo run --release --offline -p ivn-bench --bin reproduce -- --scenario "$SCN_DIR/$name.json" --quick > /dev/null
done
# export → run through a file → re-export must not change a byte; the
# scenario_golden suite pins parse→dump stability, this pins the CLI path.
cargo run --release --offline -p ivn-bench --bin reproduce -- export session --out "$SCN_DIR/session2.json" 2> /dev/null
cmp "$SCN_DIR/session.json" "$SCN_DIR/session2.json" || {
    echo "verify: FAIL — scenario export is not byte-stable" >&2
    exit 1
}
echo "scenario export round-trip OK"

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
cargo run --release --offline -p ivn-bench --bin trace_report -- "$TRACE_OUT" --attribute --bench BENCH_runtime.json > target/verify_attr.txt
grep -q 'bottleneck attribution' target/verify_attr.txt && grep -q 'stage ranking' target/verify_attr.txt || {
    echo "verify: FAIL — trace_report --attribute did not produce an attribution report" >&2
    exit 1
}
echo "attribution report OK"

echo "==> perf-regression sentinel: BENCH_runtime.json vs committed baseline"
# BENCH_baseline.json holds the one gate for every number in
# BENCH_runtime.json: stage medians, throughput floors, the overhead CI
# ceiling, obs spans and pool-lane counters. The check skips itself
# (exit 0 with a notice) when the bench ran in a different mode than the
# baseline was recorded under. bench_runtime itself asserts the
# thread-sweep, plan-cache and inventory invariants before it writes the
# JSON.
cargo run --release --offline -p ivn-bench --bin bench_runtime -- --check-baseline

echo "verify: OK"
