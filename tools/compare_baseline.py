#!/usr/bin/env python3
"""Diff fresh figure-bench JSONL against the pinned BENCH_baseline.json.

The baseline pins the single-server numbers the repo's perf claims rest
on. This script re-matches a fresh pinned-seed run against it cell by
cell and warns on drift, so a refactor that quietly regresses p99 or
throughput shows up in CI output instead of months later.

Usage (from a build directory):

    CATFISH_QUICK=1 ./bench/bench_fig10_search_throughput \
        --telemetry-json fig10.jsonl > /dev/null
    python3 ../tools/compare_baseline.py ../BENCH_baseline.json fig10.jsonl

Cells are matched on (figure, scheme, variant, workload, insert_ratio,
clients). Two cells with the same key in either input are an error
(exit 1): a dict would silently keep only the last one, so the other
would never be compared. Fresh cells with no baseline counterpart (new variants, new
figures) are reported and skipped, as are fresh lines without the
compared fields (e.g. shard-scaling rows, which report
search_latency_us rather than latency_us); baseline cells the fresh run
did not produce are only reported when the fresh run covered their
figure.

By default the exit code is 0 no matter what drifts — the baseline is
warn-only, the simulation is deterministic but the model is allowed to
be recalibrated deliberately. Pass --strict to exit 1 on any warning
(for local use when you expect a perfect match), or --strict-cells
<patterns.json> to enforce only a curated stable-cell subset: warnings
on cells matching any pattern fail the run, the rest stay warn-only.
CI uses the latter with tools/stable_cells.json, so the load-bearing
figures are gated while recalibration-prone cells keep warning.
"""
import argparse
import json
import sys

# Drift beyond these fractions of the baseline value is warned about.
# The simulator is virtual-time deterministic, so any drift is a real
# source change; the thresholds just separate "recalibrated cost model"
# noise from "broke the hot path" signal.
THROUGHPUT_TOL = 0.05   # throughput_kops may drop by up to 5 %
LATENCY_TOL = 0.05      # p50/p99 may rise by up to 5 %


def key(cell):
    return (
        cell["figure"],
        cell["scheme"],
        cell.get("variant", ""),
        str(cell["workload"]),
        float(cell.get("insert_ratio", 0)),
        int(cell["clients"]),
    )


def load_fresh(paths, duplicates):
    """Returns (cells, skipped): comparable cells keyed by `key`, plus
    human-readable notes for lines that could not be compared (missing
    match keys or missing compared fields) rather than crashing on
    them — bench JSONL schemas are allowed to grow. Keys seen twice are
    appended to `duplicates`."""
    cells = {}
    skipped = []
    for path in paths:
        with open(path) as f:
            for n, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                d = json.loads(line)
                try:
                    k = key(d)
                except (KeyError, TypeError, ValueError) as e:
                    skipped.append(f"{path}:{n}: unkeyable cell ({e})")
                    continue
                if k in cells:
                    duplicates.append(f"{path}:{n}: {fmt_key(k)}")
                try:
                    cells[k] = {
                        "throughput_kops": d["throughput_kops"],
                        "latency_p50_us": d["latency_us"]["p50"],
                        "latency_p99_us": d["latency_us"]["p99"],
                    }
                except (KeyError, TypeError) as e:
                    skipped.append(
                        f"{path}:{n}: {fmt_key(k)} lacks compared field "
                        f"{e}")
    return cells, skipped


def load_patterns(path):
    """Returns the curated stable-cell patterns: a list of dicts whose
    given fields must all equal the cell's key fields to match."""
    with open(path) as f:
        doc = json.load(f)
    return doc["patterns"]


def matches(k, pattern):
    figure, scheme, variant, workload, insert_ratio, clients = k
    fields = {
        "figure": figure,
        "scheme": scheme,
        "variant": variant,
        "workload": workload,
        "insert_ratio": insert_ratio,
        "clients": clients,
    }
    for field, want in pattern.items():
        got = fields[field]
        if field == "insert_ratio":
            if float(got) != float(want):
                return False
        elif field == "clients":
            if int(got) != int(want):
                return False
        elif str(got) != str(want):
            return False
    return True


def is_stable(k, patterns):
    return any(matches(k, p) for p in patterns)


def fmt_key(k):
    figure, scheme, variant, workload, insert_ratio, clients = k
    bits = [figure, scheme]
    if variant:
        bits.append(variant)
    bits.append(f"scale={workload}")
    if insert_ratio:
        bits.append(f"ins={insert_ratio:g}")
    bits.append(f"c={clients}")
    return " ".join(bits)


def main(argv):
    ap = argparse.ArgumentParser(
        description="Warn-only diff of fresh bench JSONL vs the pinned "
                    "baseline.")
    ap.add_argument("baseline", help="path to BENCH_baseline.json")
    ap.add_argument("jsonl", nargs="+", help="fresh --telemetry-json files")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 if anything drifted or went missing")
    ap.add_argument("--strict-cells", metavar="PATTERNS_JSON",
                    help="exit 1 only when a warning hits a cell matching "
                         "the curated patterns (tools/stable_cells.json); "
                         "other warnings stay warn-only")
    args = ap.parse_args(argv[1:])

    with open(args.baseline) as f:
        doc = json.load(f)
    duplicates = []
    base = {}
    for c in doc["cells"]:
        k = key(c)
        if k in base:
            duplicates.append(f"{args.baseline}: {fmt_key(k)}")
        base[k] = c
    fresh, skipped = load_fresh(args.jsonl, duplicates)
    if duplicates:
        for d in duplicates:
            print(f"error: duplicate cell key {d}", file=sys.stderr)
        return 1
    fresh_figures = {k[0] for k in fresh}
    patterns = load_patterns(args.strict_cells) if args.strict_cells else []

    warnings = []  # (key, message) pairs

    compared = 0
    unmatched_fresh = []
    for k, got in sorted(fresh.items()):
        want = base.get(k)
        if want is None:
            unmatched_fresh.append(k)
            continue
        compared += 1
        tput, base_tput = got["throughput_kops"], want["throughput_kops"]
        if tput < base_tput * (1 - THROUGHPUT_TOL):
            warnings.append(
                (k, f"{fmt_key(k)}: throughput {tput:.1f} kops vs baseline "
                    f"{base_tput:.1f} ({tput / base_tput - 1:+.1%})"))
        for field, label in (("latency_p50_us", "p50"),
                             ("latency_p99_us", "p99")):
            lat, base_lat = got[field], want[field]
            if lat > base_lat * (1 + LATENCY_TOL):
                warnings.append(
                    (k, f"{fmt_key(k)}: {label} {lat:.1f} us vs baseline "
                        f"{base_lat:.1f} ({lat / base_lat - 1:+.1%})"))

    missing = [k for k in sorted(base)
               if k not in fresh and k[0] in fresh_figures]

    print(f"compared {compared} cells "
          f"({len(unmatched_fresh)} fresh-only, {len(skipped)} "
          f"incomparable, {len(missing)} baseline-only within covered "
          f"figures)")
    for k in unmatched_fresh:
        print(f"  note: no baseline for {fmt_key(k)}")
    for note in skipped:
        print(f"  note: skipped {note}")
    for k in missing:
        warnings.append((k, f"baseline cell not produced: {fmt_key(k)}"))
    if warnings:
        strict_hits = 0
        for k, w in warnings:
            if patterns and is_stable(k, patterns):
                strict_hits += 1
                print(f"  FAIL: {w}")
            else:
                print(f"  WARN: {w}")
        if args.strict:
            print(f"{len(warnings)} warning(s) (--strict: failing)")
            return 1
        if strict_hits:
            print(f"{strict_hits} of {len(warnings)} warning(s) hit the "
                  f"curated stable-cell subset (--strict-cells: failing)")
            return 1
        print(f"{len(warnings)} warning(s); none on curated cells"
              if patterns else
              f"{len(warnings)} warning(s); baseline is warn-only")
        return 0
    print("all compared cells within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
