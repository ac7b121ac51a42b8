#!/usr/bin/env python3
"""Produce / merge versioned xbarlife.bench.v1 documents.

Two sources feed the perf trajectory (BENCH_PR*.json):

  * google-benchmark JSON from `micro_kernels --benchmark_format=json`
    (convert with --from-gbench),
  * native bench.v1 documents written by the other benches and by
    `xbarlife bench --json` (merge with --merge).

Both can be combined in one call; results are concatenated in input
order. The git revision is stamped from `git rev-parse --short HEAD`
unless --git-rev (or $XBARLIFE_GIT_REV) overrides it.

Usage:
  build/bench/micro_kernels --benchmark_format=json > mk.json
  python3 scripts/bench_to_json.py --from-gbench mk.json \
      --merge results/micro_parallel.bench.json \
      --merge results/table1_lifetime.bench.json \
      --tool all-benches -o BENCH_PR4.json
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_SCHEMA = "xbarlife.bench.v1"


def fail(message):
    print(f"bench_to_json: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def percentile(values, p):
    values = sorted(values)
    if not values:
        fail("percentile of an empty sample set")
    rank = p / 100.0 * (len(values) - 1)
    lo, hi = int(rank), min(int(rank) + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (rank - lo)


def summarize(name, unit, values):
    return {
        "name": name,
        "unit": unit,
        "reps": len(values),
        "median": percentile(values, 50),
        "p10": percentile(values, 10),
        "p90": percentile(values, 90),
    }


def git_rev(args):
    if args.git_rev:
        return args.git_rev
    env = os.environ.get("XBARLIFE_GIT_REV")
    if env:
        return env
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def from_gbench(path):
    """Converts google-benchmark --benchmark_format=json output: runs of
    the same benchmark name aggregate into one bench.v1 result (real_time
    per repetition, converted to ms)."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
    series = {}
    for run in doc.get("benchmarks", []):
        # Skip google-benchmark's own aggregate rows; raw iterations carry
        # run_type "iteration" (or no run_type in older versions).
        if run.get("run_type", "iteration") != "iteration":
            continue
        unit = run.get("time_unit", "ns")
        if unit not in scale:
            fail(f"{path}: unknown time_unit {unit!r}")
        series.setdefault(run["name"], []).append(
            run["real_time"] * scale[unit])
    if not series:
        fail(f"{path}: no benchmark runs found")
    return [summarize(name, "ms", values)
            for name, values in series.items()]


def from_bench_v1(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("schema") != BENCH_SCHEMA:
        fail(f"{path}: schema {doc.get('schema')!r} != {BENCH_SCHEMA!r}")
    # Results pass through verbatim: keys beyond the pinned median/p10/p90
    # prefix survive the merge unchanged so downstream tooling can rely on
    # them.
    return doc["results"], doc.get("kernel"), doc.get("executor")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--from-gbench", action="append", default=[],
                        metavar="FILE",
                        help="google-benchmark JSON file to convert")
    parser.add_argument("--merge", action="append", default=[],
                        metavar="FILE",
                        help="existing bench.v1 document to merge")
    parser.add_argument("--tool", default="merged",
                        help="'tool' field of the output document")
    parser.add_argument("--threads", type=int, default=1,
                        help="'threads' field of the output document")
    parser.add_argument("--git-rev", help="override the stamped git rev")
    parser.add_argument("--kernel",
                        help="override the 'kernel' field (default: the "
                             "variant the merged documents agree on, "
                             "'mixed' when they disagree, 'unknown' when "
                             "no input carries one)")
    parser.add_argument("--executor",
                        help="override the 'executor' field (same "
                             "agree/mixed/unknown rule as --kernel)")
    parser.add_argument("-o", "--output", default="-",
                        help="output path (default: stdout)")
    args = parser.parse_args()

    results = []
    kernels = set()
    executors = set()
    for path in args.from_gbench:
        results.extend(from_gbench(path))
    for path in args.merge:
        merged, kernel, executor = from_bench_v1(path)
        results.extend(merged)
        if kernel:
            kernels.add(kernel)
        if executor:
            executors.add(executor)
    if not results:
        fail("no inputs (--from-gbench / --merge)")
    if args.kernel:
        kernel = args.kernel
    elif len(kernels) == 1:
        kernel = kernels.pop()
    else:
        kernel = "mixed" if kernels else "unknown"
    if args.executor:
        executor = args.executor
    elif len(executors) == 1:
        executor = executors.pop()
    else:
        executor = "mixed" if executors else "unknown"
    names = [r["name"] for r in results]
    duplicates = {n for n in names if names.count(n) > 1}
    if duplicates:
        fail(f"duplicate result names after merge: {sorted(duplicates)}")

    doc = {
        "schema": BENCH_SCHEMA,
        "tool": args.tool,
        "kernel": kernel,
        "executor": executor,
        "threads": args.threads,
        "git_rev": git_rev(args),
        "results": results,
    }
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"bench_to_json: wrote {len(results)} results to "
              f"{args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
