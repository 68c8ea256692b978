#!/usr/bin/env python3
"""Exact-count gate over the end-to-end benchmark's traced runs.

Runs every workload of bench/e2e once with `--quick --trace 1` and checks
two counts that are deterministic at that scale:

- `vfs.neg_resident` is 0: a complete directory is its own negative cache
  (paper §5.1), and every directory a workload looks absent names up in
  is complete (made by mkdir or listed), so no negative dentry is cached.
- `locks.global_write_per_op` equals `core.fallbacks_per_op`: the global
  write lock is taken only by fastpath misses, never by an absent-name
  lookup or a listing.

It then runs tree-wide once at full size (`--seconds 1 --trace 1`, about
3 s, with counts as deterministic as a quick run's) and checks that the PCC answers what the DLHT already knows:
`core.fastpath_hit_ratio` >= 0.85 and `locks.global_write_per_op` <= 0.10
(the baseline kernel's figure).  A PCC that cannot grow past the paper's
4,096 entries, or a PCC miss that walks instead of refilling, fails it.

Usage, from the repository root:

    python3 bench/exact_gate.py              # builds and runs via dune
    python3 bench/exact_gate.py --exe PATH   # runs a prebuilt e2e.exe

Exits 1 and names the offending workload and metric on any mismatch.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["tree-hot", "tree-wide", "webserver", "maildir"]


WIDE_MIN_HIT_RATIO = 0.85
WIDE_MAX_GLOBAL_WRITE = 0.10


def run(exe, workload, size=("--quick",)):
    cmd = (
        [exe] if exe else ["dune", "exec", "--no-print-directory", "./bench/e2e/e2e.exe", "--"]
    ) + ["--workload", workload, *size, "--trace", "1"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def check(workload, result):
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    problems = []
    if not result["correct"]:
        problems.append("wrong outcomes: failed = %d" % result["failed"])
    if metrics["vfs.neg_resident"] != 0:
        problems.append("vfs.neg_resident = %g, want 0" % metrics["vfs.neg_resident"])
    gw, fb = metrics["locks.global_write_per_op"], metrics["core.fallbacks_per_op"]
    if gw != fb:
        problems.append("locks.global_write_per_op = %r != core.fallbacks_per_op = %r" % (gw, fb))
    status = "ok" if not problems else "FAIL"
    print(
        "%-10s %-4s neg_resident %g  global_write/op %.6f  fallbacks/op %.6f"
        % (workload, status, metrics["vfs.neg_resident"], gw, fb)
    )
    for p in problems:
        print("  " + p)
    return not problems


def check_wide(result):
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    hit, gw = metrics["core.fastpath_hit_ratio"], metrics["locks.global_write_per_op"]
    problems = []
    if not result["correct"]:
        problems.append("wrong outcomes: failed = %d" % result["failed"])
    if hit < WIDE_MIN_HIT_RATIO:
        problems.append("core.fastpath_hit_ratio = %r < %g" % (hit, WIDE_MIN_HIT_RATIO))
    if gw > WIDE_MAX_GLOBAL_WRITE:
        problems.append("locks.global_write_per_op = %r > %g" % (gw, WIDE_MAX_GLOBAL_WRITE))
    print(
        "%-10s %-4s full size: hit ratio %.6f  global_write/op %.6f"
        % ("tree-wide", "ok" if not problems else "FAIL", hit, gw)
    )
    for p in problems:
        print("  " + p)
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--exe", help="prebuilt e2e.exe (default: dune exec)")
    args = ap.parse_args()
    ok = all([check(w, run(args.exe, w)) for w in WORKLOADS])
    ok = check_wide(run(args.exe, "tree-wide", ("--seconds", "1"))) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
