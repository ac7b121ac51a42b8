#!/usr/bin/env python3
"""Builds and runs the xbarlife end-to-end benchmark.

Usage (from the repository root):

    python3 xbarbench/run.py --workload lenet5_stat --seed 7 --seconds 20 --trace 0
    python3 xbarbench/run.py --list        # workloads and metric tables
    python3 xbarbench/run.py --self-test   # correctness-gate self checks

The first call configures and builds ``xbarbench`` (a Release build of the
library plus the benchmark binary from ``xbarbench/src``) under ``$CARGO_TARGET_DIR``
(default ``.bench_build``); later calls rebuild incrementally. Build output
goes to stderr. The binary's last stdout line is the result object, the
line before it the full record with the host stamp (see compare.py).

Reference digests of the ``--threads 1`` runs are cached per workload,
seed, kernel variant and source revision under ``<build root>/refs``.
The revision is a content hash of the source tree, so an edit never
reuses a stale reference.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Per-run limit, so a wedged run still ends, with an error, within 3 minutes.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def source_rev():
    """Content hash of every file the benchmark binary is built from."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt"]
    for top in (ROOT / "src", ROOT / "apps", HERE / "src"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:12]


def build(build_root):
    build_dir = build_root / "xbarbench"
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "xbarbench",
         "-j3"],
        check=True, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S)
    return build_dir / "xbarbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("xbarbench: no xbarlife source tree next to the benchmark "
              f"(expected {ROOT}/CMakeLists.txt and src/)", file=sys.stderr)
        return 2
    if not (args.list or args.self_test or args.workload):
        ap.error("--workload is required")

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        print(f"xbarbench: build failed: {e}", file=sys.stderr)
        return 3

    if args.list:
        cmd = [str(binary), "--list"]
    elif args.self_test:
        cmd = [str(binary), "--self-test"]
    else:
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--refs", str(build_root / "refs"), "--rev", source_rev()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("xbarbench: run timed out", file=sys.stderr)
        return 4
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
