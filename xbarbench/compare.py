#!/usr/bin/env python3
"""Compares xbarbench runs of two revisions, or reports the spread of one.

Each input file holds the stdout of one ``xbarbench/run.py`` call; the
record line (schema ``xbarbench.run.v1``) carries the host stamp, the
metrics and the simulated-statistics digests.

    # spread of one set: quartiles and IQR/median per workload and metric
    python3 xbarbench/compare.py --base runs/*.out

    # parent vs change: medians, ratio, and the verdict against the
    # bounds in BENCHMARK.json
    python3 xbarbench/compare.py --base parent/*.out --change change/*.out

Medians are only compared between runs whose host stamps agree (core
count, CPU model, compiler, build type, kernel variant, executor); the
tool refuses with exit code 2 otherwise. Within one set the revision must
agree too. Lifetime statistics must be identical seed for seed across
the sets unless ``--science-change`` is given.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

STAMP_KEYS = ("hardware_concurrency", "cpu_model", "compiler", "build_type",
              "kernel", "executor")


def load(paths):
    records = []
    for p in paths:
        docs = [json.loads(l) for l in Path(p).read_text().splitlines()
                if l.startswith("{")]
        rec = next((d for d in reversed(docs)
                    if d.get("schema") == "xbarbench.run.v1"), None)
        if rec is None:
            sys.exit(f"{p}: no xbarbench record line")
        records.append(rec)
    return records


def stamp(rec):
    return tuple(rec["host"][k] for k in STAMP_KEYS)


def check_stamps(sets):
    stamps = {stamp(r) for recs in sets for r in recs}
    if len(stamps) > 1:
        print("refusing to compare: host stamps differ:", file=sys.stderr)
        for s in sorted(stamps, key=str):
            print("  " + json.dumps(dict(zip(STAMP_KEYS, s))),
                  file=sys.stderr)
        sys.exit(2)
    for recs in sets:
        revs = {r["host"]["rev"] for r in recs}
        if len(revs) > 1:
            print(f"refusing: one set mixes revisions {sorted(revs)}",
                  file=sys.stderr)
            sys.exit(2)


def by_workload(recs):
    out = defaultdict(list)
    for r in recs:
        out[r["workload"]].append(r)
    return out


def values(recs, name):
    return [r["metrics"][name]["value"] for r in recs
            if name in r["metrics"]]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+")
    ap.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    ap.add_argument("--science-change", action="store_true",
                    help="allow lifetime statistics to differ")
    args = ap.parse_args()

    bench = json.loads(Path(args.benchmark).read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    base = load(args.base)
    change = load(args.change) if args.change else []
    check_stamps([base, change] if change else [base])

    worst = 0
    for wl, recs in sorted(by_workload(base).items()):
        other = by_workload(change).get(wl, [])
        print(f"== {wl}: {len(recs)} base run(s)"
              + (f", {len(other)} change run(s)" if change else ""))
        # Host-speed probe beside the metrics: a slower calibration loop
        # points at a slow neighbour rather than a slow change.
        calib = [statistics.median(rep["calib_ms"] for rep in r["reps"])
                 for r in recs if r.get("reps")]
        if calib:
            line = f"  host calib_ms median {statistics.median(calib):.3f}"
            ocalib = [statistics.median(rep["calib_ms"] for rep in r["reps"])
                      for r in other if r.get("reps")]
            if ocalib:
                line += f"  change {statistics.median(ocalib):.3f}"
            print(line)
        names = sorted({n for r in recs + other for n in r["metrics"]})
        for name in names:
            b = values(recs, name)
            q1, med, q3 = quartiles(b)
            spread = (q3 - q1) / med if med else 0.0
            line = (f"  {name:28s} median {med:12.6g}  "
                    f"IQR/median {spread:7.4f}")
            m = bounds.get(name)
            if m and name != "setup_s" and spread > m["bound"]:
                line += "  SPREAD>BOUND"
                worst = max(worst, 1)
            if other:
                c = values(other, name)
                cmed = statistics.median(c)
                ratio = cmed / med if med else float("nan")
                line += f"  change {cmed:12.6g}  ratio {ratio:7.4f}"
                if m:
                    worse = (ratio - 1.0 if m["better"] == "lower"
                             else 1.0 - ratio)
                    if worse > m["bound"]:
                        line += f"  REGRESSION (> {m['bound']})"
                        worst = max(worst, 1)
            print(line)
        if other and not args.science_change:
            apps = {r["seed"]: r["science"].get("lifetime_apps")
                    for r in recs}
            for r in other:
                if (r["seed"] in apps and
                        apps[r["seed"]] != r["science"].get("lifetime_apps")):
                    print(f"  lifetime_apps differs at seed {r['seed']}")
                    worst = max(worst, 1)
        failed = sum(r.get("fail_frac", 0) > 0 for r in recs + other)
        if failed:
            print(f"  {failed} run(s) with failed operations")
            worst = max(worst, 1)
    return worst


if __name__ == "__main__":
    sys.exit(main())
