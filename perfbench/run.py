#!/usr/bin/env python3
"""Builds and runs the live Catfish benchmark (perfbench/live.cc).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fast-point --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

The first call configures and builds the repository's libraries and the
benchmark binary (Release) under $CARGO_TARGET_DIR (default .bench_build).
One workload prints the binary's report; its last stdout line is the JSON
result. `--workload all` runs every workload of BENCHMARK.json, untraced
and traced, and prints one table of every metric with its unit and
sample count.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "catfish_live", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed:", " ".join(cmd))
            return None
    return os.path.join(out, "catfish_live")


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    every file the benchmark builds from."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    tops = ["CMakeLists.txt", "src", "perfbench"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def check_result(result, spec, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names
    for this mode, each with its declared unit."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return "result keys are not " + str(sorted(RESULT_KEYS))
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            return "metric %s has unit %s, declared %s" % (
                name, got[name].get("unit"), unit)
    if result["attempted"] < 1:
        return "no operation attempted"
    return None


def run_one(binary, spec, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed result, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--source", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (workload,
                                                          RUN_TIMEOUT_S))
        return 1, None, []
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: %s exited with code %d" % (workload, proc.returncode))
        return proc.returncode or 1, None, lines
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: last line is not JSON:", lines[-1])
        return 1, None, lines
    problem = check_result(result, spec, trace)
    if problem:
        log("perfbench: %s: %s" % (workload, problem))
        return 1, None, lines
    if echo:
        print("\n".join(lines), flush=True)
    return 0, result, lines


def sample_counts(lines):
    """metric name -> sample count, from the binary's `metric` lines."""
    counts = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 5 and parts[0] == "metric" and parts[4].startswith("n="):
            counts[parts[1]] = parts[4][2:]
    return counts


def run_all(binary, spec, seed, seconds):
    """Every workload, untraced then traced, as one table."""
    code = 0
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        rows = {}
        for w in spec["workloads"]:
            rc, result, lines = run_one(binary, spec, w["name"], seed, seconds,
                                        trace, echo=False)
            if rc != 0:
                code = rc
                continue
            rows[w["name"]] = (result, sample_counts(lines))
        names = [w["name"] for w in spec["workloads"] if w["name"] in rows]
        print("\n%s metrics (seed %d, %g s, trace %d)" % (
            key, seed, seconds, trace))
        print("%-34s %-6s %-6s" % ("metric", "unit", "better") + "".join(
            " %26s" % n for n in names))
        for m in spec[key]:
            cells = ""
            for n in names:
                value = rows[n][0]["metrics"][m["name"]]["value"]
                count = rows[n][1].get(m["name"], "-")
                cells += " %15.4f n=%-8s" % (value, count)
            print("%-34s %-6s %-6s%s" % (m["name"], m["unit"], m["better"],
                                          cells))
        for n in names:
            r = rows[n][0]
            print("%s: correct=%s attempted=%d failed=%d error_rate=%.3g" % (
                n, r["correct"], r["attempted"], r["failed"],
                r["failed"] / r["attempted"]))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json:", e)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in workloads:
        log("perfbench: unknown workload %r (known: %s)" % (
            args.workload, ", ".join(workloads)))
        return 2
    binary = build()
    if binary is None:
        return 2
    if args.workload == "all":
        return run_all(binary, spec, args.seed, seconds)
    rc, _, _ = run_one(binary, spec, args.workload, args.seed, seconds,
                       args.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
