#!/usr/bin/env python3
"""Telemetry overhead gate: bench_micro_ops built with telemetry ON vs OFF.

Runs the live micro-ops most sensitive to instrumentation cost in both
builds, takes each row's fastest repetition per build, prints the ON/OFF
ratios and exits 1 when any ratio exceeds BOUND.

    cmake -B build-on -S . -DCMAKE_BUILD_TYPE=Release
    cmake -B build-off -S . -DCMAKE_BUILD_TYPE=Release -DCATFISH_TELEMETRY=OFF
    cmake --build build-on --target bench_micro_ops
    cmake --build build-off --target bench_micro_ops
    python3 tools/telemetry_overhead.py build-on/bench/bench_micro_ops \\
        build-off/bench/bench_micro_ops

The minimum over repetitions is the least noisy estimate of what a row
costs on a shared host, and the builds take turns (ROUNDS runs of
REPETITIONS each) so a slow phase of the host hits both. BOUND catches a
mutex or a timer sample returning to a per-op path (which measured
1.5-2.0x); the aim is 1.10.
"""
import argparse
import json
import subprocess
import sys

ROWS = ["BM_RingRoundTrip/64", "BM_RdmaSimRead/1024", "BM_RdmaSimReadBatch/16"]
BOUND = 1.35
REPETITIONS = 5
ROUNDS = 5


def run(binary, best):
    """Runs every row REPETITIONS times; folds each row's fastest real
    time (ns) into `best`."""
    pattern = "^(" + "|".join(ROWS) + ")$"
    out = subprocess.run(
        [binary, f"--benchmark_filter={pattern}",
         f"--benchmark_repetitions={REPETITIONS}", "--benchmark_format=json"],
        capture_output=True, text=True, check=True).stdout
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    for b in json.loads(out)["benchmarks"]:
        if b.get("run_type") != "iteration":
            continue
        name = b["run_name"]
        ns = b["real_time"] * scale[b["time_unit"]]
        best[name] = min(ns, best.get(name, ns))
    missing = [r for r in ROWS if r not in best]
    if missing:
        sys.exit(f"{binary}: rows not reported: {missing}")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("on", help="bench_micro_ops built with telemetry ON")
    ap.add_argument("off", help="bench_micro_ops built with telemetry OFF")
    args = ap.parse_args(argv)

    on, off = {}, {}
    for _ in range(ROUNDS):
        run(args.on, on)
        run(args.off, off)
    failed = False
    print(f"{'row':<26} {'ON ns':>10} {'OFF ns':>10} {'ON/OFF':>7}")
    for row in ROWS:
        ratio = on[row] / off[row]
        bad = ratio > BOUND
        failed |= bad
        print(f"{row:<26} {on[row]:>10.1f} {off[row]:>10.1f} {ratio:>7.2f}"
              + ("  > bound" if bad else ""))
    print(f"bound {BOUND:.2f}: {'FAIL' if failed else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
