#!/usr/bin/env python3
"""Gate on perf regressions between two xbarlife.bench.v1 documents.

Compares the median of every result name present in BOTH documents and
fails when any current median exceeds the baseline median by more than
--threshold (default 0.25 = 25%). Names present in only one document are
reported and skipped — machines differ, suites grow, and the gate must
not block on that.

Usage:
  build/apps/xbarlife bench --reps 5 --json bench_current.json
  python3 scripts/check_bench_regression.py \
      --baseline BENCH_PR4.json --current bench_current.json
  # PRs warn instead of failing:
  python3 scripts/check_bench_regression.py ... --warn-only

Additionally asserts two structural invariants on the *current*
document, both immune to --warn-only because they indicate bugs rather
than machine artifacts:

  * threaded-vs-serial: whenever a (name_threaded, name_serial) pair is
    present — gemm_threaded/gemm_serial, sweep_threaded/sweep_serial —
    the threaded median must not exceed the serial median by more than
    --threaded-slack (default 0.10 = 10%). Threading that loses to
    serial execution is a grain-tuning / serial-fallback bug.
  * batched-vs-percell: when program_batched and program_percell are
    both present, the batched-executor median must not exceed the
    per-cell median by more than --batched-slack (default 0.10).
    Batched programming exists to amortize per-pulse work; losing to
    the per-cell path means the ProgramSequence pipeline regressed.

Exit status: 0 when no regression (or --warn-only), 1 on regression or
a violated invariant, 2 on unusable inputs.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_bench_regression: cannot read {path}: {err}",
              file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "xbarlife.bench.v1":
        print(f"check_bench_regression: {path} is not a bench.v1 document",
              file=sys.stderr)
        sys.exit(2)
    return {r["name"]: r for r in doc["results"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed bench.v1 baseline (BENCH_PR*.json)")
    parser.add_argument("--current", required=True,
                        help="freshly measured bench.v1 document")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative median increase (0.25 = 25%%)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (PR mode)")
    parser.add_argument("--threaded-slack", type=float, default=0.10,
                        help="allowed threaded-over-serial median excess "
                             "(0.10 = 10%%)")
    parser.add_argument("--batched-slack", type=float, default=0.10,
                        help="allowed batched-over-percell median excess "
                             "(0.10 = 10%%)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    shared = sorted(set(baseline) & set(current))
    skipped = sorted(set(baseline) ^ set(current))
    if not shared:
        print("check_bench_regression: no shared result names; nothing "
              "to compare", file=sys.stderr)
        sys.exit(2)

    regressions = []
    for name in shared:
        base = baseline[name]["median"]
        cur = current[name]["median"]
        ratio = cur / base if base > 0 else float("inf")
        marker = ""
        if ratio > 1.0 + args.threshold:
            regressions.append(name)
            marker = "  <-- REGRESSION"
        print(f"  {name}: baseline {base:.3f} ms, current {cur:.3f} ms "
              f"({ratio:.1%} of baseline){marker}")
    if skipped:
        print(f"  (skipped, present in only one document: "
              f"{', '.join(skipped)})")

    # Threaded must never lose to serial (beyond measurement slack) in
    # the freshly measured document.
    violations = []
    for threaded, serial in (("gemm_threaded", "gemm_serial"),
                             ("sweep_threaded", "sweep_serial")):
        if threaded not in current or serial not in current:
            continue
        t = current[threaded]["median"]
        s = current[serial]["median"]
        ok = t <= s * (1.0 + args.threaded_slack)
        print(f"  invariant {threaded} <= {serial} * "
              f"{1.0 + args.threaded_slack:.2f}: {t:.3f} ms vs "
              f"{s:.3f} ms {'OK' if ok else '<-- VIOLATED'}")
        if not ok:
            violations.append(threaded)

    # Batched programming must never lose to the per-cell reference path
    # (beyond measurement slack) in the freshly measured document.
    batched_violations = []
    if "program_batched" in current and "program_percell" in current:
        b = current["program_batched"]["median"]
        p = current["program_percell"]["median"]
        ok = b <= p * (1.0 + args.batched_slack)
        print(f"  invariant program_batched <= program_percell * "
              f"{1.0 + args.batched_slack:.2f}: {b:.3f} ms vs "
              f"{p:.3f} ms {'OK' if ok else '<-- VIOLATED'}")
        if not ok:
            batched_violations.append("program_batched")

    failed = False
    if regressions:
        level = "WARN" if args.warn_only else "FAIL"
        print(f"check_bench_regression: {level}: {len(regressions)} of "
              f"{len(shared)} benches regressed beyond "
              f"{args.threshold:.0%}: {', '.join(regressions)}")
        failed = failed or not args.warn_only
    if violations:
        print(f"check_bench_regression: FAIL: threaded slower than "
              f"serial: {', '.join(violations)}")
        failed = True
    if batched_violations:
        print(f"check_bench_regression: FAIL: batched programming slower "
              f"than per-cell: {', '.join(batched_violations)}")
        failed = True
    if failed:
        return 1
    if not regressions:
        print(f"check_bench_regression: OK: {len(shared)} benches within "
              f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
