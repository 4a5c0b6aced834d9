#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, and the full test suite.
# Run from the repo root before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> benchmark package (build + the --quick suite against these crates)"
# benchmark/ is its own frozen package with path deps on crates/*: a
# crate-API change that breaks it fails here, in the first minute, not as
# a failed benchmark run after the long stages below.
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> cipher, storage-function and queue-ring tests, optimised"
# The AES-NI routine is only inlined and pipelined under optimisation, and
# the sector and LBA overflow cases only panic in the debug run above: each
# build catches what the other cannot. This run includes
# `hardware_engine_is_selected_when_the_cpu_has_it`, so a host with AES-NI
# that fell back to the portable engine fails here instead of reporting a
# slow number. The ring's real-thread tests run here too, where the
# compiler is free to move the cached index loads.
cargo test --release -q -p nvmetro-crypto -p nvmetro-functions -p nvmetro-nvme

echo "==> chaos sweep (seeded fault plans, 1 and 4 shards)"
# The servicing suite's doorbell re-bind cases (a VM detached with queued
# commands, pushes between snapshot and restore) take the swept seed too.
for seed in 1 4242 31337; do
  echo "    CHAOS_SEED=$seed"
  CHAOS_SEED=$seed cargo test -q --test chaos
  CHAOS_SEED=$seed cargo test -q --test sharding
  CHAOS_SEED=$seed cargo test -q --test servicing
done

echo "==> stash committed bench baselines for the perf gate"
# The smoke benches below overwrite BENCH_*.json in place; keep the
# committed versions around so the perf gate can diff against them.
mkdir -p target/bench_baseline
for f in BENCH_*.json; do
  git show "HEAD:$f" > "target/bench_baseline/$f" 2>/dev/null \
    || rm -f "target/bench_baseline/$f"   # new bench, no baseline yet
done

echo "==> sharding scaling smoke (writes BENCH_sharding.json)"
cargo run --release -q -p nvmetro-bench --bin scaling_smoke

echo "==> insight smoke (writes BENCH_insight.json + target/insight_trace.json)"
# Asserts the insight bars: >= 99% span coverage on the sharded rig,
# >= 1M events/s assembly, watchdog overhead < 2%, and both export
# formats valid; then double-checks the Chrome trace really is JSON.
NVMETRO_BENCH_MS="${NVMETRO_BENCH_MS:-100}" \
  cargo run --release -q -p nvmetro-bench --bin insight_report
python3 -c "import json; d=json.load(open('target/insight_trace.json')); assert d['traceEvents'], 'empty trace'" \
  || { echo "insight trace failed JSON validation"; exit 1; }

echo "==> fleet smoke (writes BENCH_fleet.json)"
# Asserts the fleet bars: >= 1000 VM queue groups bound and finished
# exactly-once, coalescing >= 1.2x IOPS and >= 20% device-occupancy cut
# on the device-bound hot set, weight-normalized Jain fairness >= 0.5.
NVMETRO_BENCH_MS="${NVMETRO_BENCH_MS:-20}" \
  cargo run --release -q -p nvmetro-bench --bin fleet_report
python3 -c "import json; d=json.load(open('BENCH_fleet.json')); assert d['fleet_exactly_once'] and d['fleet_queue_groups'] >= 1000" \
  || { echo "BENCH_fleet.json failed validation"; exit 1; }

echo "==> servicing smoke (writes BENCH_servicing.json)"
# Asserts the live-servicing bars: quiesce drains under load, the
# snapshot byte format round-trips into a working engine, repeated 2<->4
# reshards under QD-128 replay in-flight requests with zero lost or
# duplicated completions, and the reshard drain p99 stays under 5 ms.
NVMETRO_BENCH_MS="${NVMETRO_BENCH_MS:-20}" \
  cargo run --release -q -p nvmetro-bench --bin servicing_smoke
python3 -c "import json; d=json.load(open('BENCH_servicing.json')); assert d['zero_drop'] and d['quiesce_ns'] > 0 and d['reshard_drain_p99_ns'] > 0 and d['restore_wall_us'] >= 0" \
  || { echo "BENCH_servicing.json failed validation"; exit 1; }

echo "==> adaptive smoke (writes BENCH_adaptive.json)"
# Asserts the adaptive-datapath bars: a governor-run shard parks on idle
# trickle (duty < 5%, an order of magnitude under always-spin), and loaded
# p99 within 5% of always-spin.
NVMETRO_BENCH_MS="${NVMETRO_BENCH_MS:-40}" \
  cargo run --release -q -p nvmetro-bench --bin adaptive_smoke
python3 -c "
import json
d = json.load(open('BENCH_adaptive.json'))
assert d['idle_parks'] >= 1 and d['idle_wakes'] >= 1, 'no park/wake cycle'
assert d['idle_duty'] < 0.05, 'idle duty above 5%'
assert d['idle_adaptive_cpu_ns'] * 10 <= d['idle_spin_cpu_ns'], 'idle burn not well under spin'
assert d['loaded_p99_ratio'] <= 1.05, 'adaptive loaded p99 above 1.05x spin'
" || { echo "BENCH_adaptive.json failed validation"; exit 1; }

echo "==> blackbox smoke (writes BENCH_blackbox.json)"
# Asserts the flight-recorder bars: recorder overhead < 1% on the loaded
# sharded rig (self-attributed), the manual dump bundle round-trips
# through its byte format and renders an incident report, and fan-out
# link coverage on the coalescing rig is 100%.
NVMETRO_BENCH_MS="${NVMETRO_BENCH_MS:-40}" \
  cargo run --release -q -p nvmetro-bench --bin blackbox_smoke
python3 -c "
import json
d = json.load(open('BENCH_blackbox.json'))
assert d['recorder_overhead']['fraction'] < 0.01, 'recorder overhead above 1%'
assert d['forest']['link_coverage'] == 1.0, 'fan-out link coverage below 100%'
assert d['forensics']['bundle_bytes'] > 0 and d['forensics']['timeline_events'] > 0
" || { echo "BENCH_blackbox.json failed validation"; exit 1; }

echo "==> perf-regression gate (headline metrics vs committed baselines)"
# Direction-aware: each headline metric may only move the wrong way by
# its tolerance (15% for deterministic virtual-time metrics, wider for
# wall-clock ones). Baselines were stashed from HEAD above.
python3 scripts/perf_gate.py target/bench_baseline .

echo "CI OK"
