#!/usr/bin/env python3
"""Direction-aware perf-regression gate over the BENCH_*.json reports.

Usage: perf_gate.py <baseline_dir> <current_dir>

Compares the headline metric of every smoke-bench report against the
committed baseline (ci.sh stashes `git show HEAD:BENCH_*.json` into the
baseline dir before re-running the benches). A metric may only move the
wrong way by its tolerance (default 15%); wall-clock-derived metrics get
wider tolerances than virtual-time ones, which are deterministic.

A report (or a metric) with no committed baseline is reported as new and
skipped, so adding a bench does not require seeding its baseline by hand.
A report or metric missing from the current run is a failure.
"""

import json
import re
import sys

# (file, path, direction, tolerance)
#   direction "higher": regression when current < baseline * (1 - tol)
#   direction "lower":  regression when current > baseline * (1 + tol)
# Virtual-time metrics (iops/p99 from the simulated clock, coverage
# fractions) are deterministic and keep the default 15%; wall-clock
# throughput and overhead fractions are noisy on shared machines and get
# wider bands — their hard absolute bars live in the benches themselves.
METRICS = [
    ("BENCH_sharding.json", "speedup_1_to_4", "higher", 0.15),
    ("BENCH_sharding.json", "results[1].iops", "higher", 0.15),
    ("BENCH_sharding.json", "results[1].p99_ns", "lower", 0.15),
    ("BENCH_insight.json", "coverage.fraction", "higher", 0.05),
    ("BENCH_insight.json", "assembly.events_per_sec", "higher", 0.50),
    ("BENCH_insight.json", "watchdog_overhead.fraction", "lower", 1.00),
    ("BENCH_fleet.json", "coalesce_iops_win", "higher", 0.15),
    ("BENCH_fleet.json", "device_occupancy_cut", "higher", 0.15),
    ("BENCH_fleet.json", "fairness_jain", "higher", 0.15),
    # Wall clock (tagged "clock": "wall" in the report): a ratio of two
    # ~10 ns timings; the hard 4x bar lives in fleet_report.
    ("BENCH_fleet.json", "idle_poll.ratio_1024_to_16", "lower", 1.00),
    ("BENCH_servicing.json", "quiesce_ns", "lower", 0.15),
    ("BENCH_servicing.json", "reshard_drain_p99_ns", "lower", 0.15),
    ("BENCH_adaptive.json", "idle_duty", "lower", 0.15),
    ("BENCH_adaptive.json", "loaded_p99_ratio", "lower", 0.05),
    ("BENCH_blackbox.json", "recorder_overhead.fraction", "lower", 1.00),
    ("BENCH_blackbox.json", "forest.link_coverage", "higher", 0.0),
]

# What `resolve` raises when a path names nothing in the document.
MISSING = (KeyError, IndexError, TypeError)

PATH_PART = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)((?:\[\d+\])*)")


def resolve(doc, path):
    """Walk a dotted path with optional [i] indexing into a JSON doc."""
    node = doc
    for part in path.split("."):
        m = PATH_PART.fullmatch(part)
        if not m:
            raise KeyError(path)
        node = node[m.group(1)]
        for idx in re.findall(r"\[(\d+)\]", m.group(2)):
            node = node[int(idx)]
    return node


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    base_dir, cur_dir = sys.argv[1], sys.argv[2]
    failures = 0
    for fname, path, direction, tol in METRICS:
        try:
            with open(f"{cur_dir}/{fname}") as f:
                cur = resolve(json.load(f), path)
        except FileNotFoundError:
            print(f"FAIL  {fname}:{path}: bench did not write its report")
            failures += 1
            continue
        except MISSING:
            print(f"FAIL  {fname}:{path}: metric missing from the current report")
            failures += 1
            continue
        try:
            with open(f"{base_dir}/{fname}") as f:
                base = resolve(json.load(f), path)
        except (FileNotFoundError, *MISSING):
            print(f"new   {fname}:{path} = {cur} (no committed baseline)")
            continue
        if base == 0:
            verdict = "ok" if (direction == "higher" or cur == 0) else "FAIL"
        elif direction == "higher":
            verdict = "ok" if cur >= base * (1.0 - tol) else "FAIL"
        else:
            verdict = "ok" if cur <= base * (1.0 + tol) else "FAIL"
        arrow = "^" if direction == "higher" else "v"
        print(
            f"{verdict:5} {fname}:{path} [{arrow} tol {tol:.0%}] "
            f"baseline {base} -> current {cur}"
        )
        if verdict == "FAIL":
            failures += 1
    if failures:
        print(f"perf gate: {failures} metric(s) missing or regressed past tolerance")
        sys.exit(1)
    print("perf gate: all headline metrics within tolerance")


if __name__ == "__main__":
    main()
