#!/usr/bin/env python3
"""Check the BENCH_*.json records that bench/main.exe writes.

Every record must parse as JSON and carry the envelope: "experiment"
(matching the file name), "mode" ("quick" or "full") and "host_cores".
A timed cell is an object with "median", "q1", "q3" and "n", where
q1 <= median <= q3 and n >= 1; an object with any of those keys must
have all four.  Every experiment that times something has at least one
timed cell: all but tab4 (it counts lines of code) and bechamel (its
cells are bechamel's own OLS estimates).

Usage: python3 bench/record_gate.py [FILE...]
Without arguments it checks every BENCH_*.json in the working directory
except the chrome trace BENCH_coherence_trace.json.  Exits 1 on any
violation, naming the file and the offending key path.
"""

import glob
import json
import sys

UNTIMED = {"tab4", "bechamel"}
SPREAD = ("median", "q1", "q3", "n")


def spreads(value, path, problems):
    """Count well-formed spreads under [value]; record malformed ones."""
    found = 0
    if isinstance(value, dict):
        if any(k in value for k in SPREAD):
            missing = [k for k in SPREAD if not isinstance(value.get(k), (int, float))]
            if missing:
                problems.append("%s: timed cell lacks %s" % (path, ", ".join(missing)))
            elif not (value["q1"] <= value["median"] <= value["q3"] and value["n"] >= 1):
                problems.append("%s: timed cell out of order: %r" % (path, value))
            else:
                found += 1
        for k, v in value.items():
            found += spreads(v, path + "." + k, problems)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            found += spreads(v, "%s[%d]" % (path, i), problems)
    return found


def check(path):
    problems = []
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, ValueError) as e:
        return ["%s: %s" % (path, e)]
    if not isinstance(record, dict):
        return ["%s: not a JSON object" % path]
    experiment = record.get("experiment")
    if path.split("/")[-1] != "BENCH_%s.json" % experiment:
        problems.append("%s: envelope names experiment %r" % (path, experiment))
    if record.get("mode") not in ("quick", "full"):
        problems.append("%s: envelope mode is %r" % (path, record.get("mode")))
    if not isinstance(record.get("host_cores"), int) or record["host_cores"] < 1:
        problems.append("%s: envelope host_cores is %r" % (path, record.get("host_cores")))
    timed = spreads(record, path, problems)
    if timed == 0 and experiment not in UNTIMED:
        problems.append("%s: no timed cell (median/q1/q3/n)" % path)
    return problems


def main():
    files = sys.argv[1:] or sorted(
        f for f in glob.glob("BENCH_*.json") if f != "BENCH_coherence_trace.json"
    )
    if not files:
        print("record_gate: no BENCH_*.json records found")
        return 1
    problems = [p for f in files for p in check(f)]
    for p in problems:
        print("FAIL: " + p)
    print("record_gate: %d records, %d problems" % (len(files), len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
