#!/usr/bin/env python3
"""Compares saved outputs of perfbench/run.py for one workload.

    python3 perfbench/compare.py --base a1.txt a2.txt ... --new b1.txt b2.txt ...

Each file is the standard output of one run (its `fingerprint` line and its
last-line JSON result). Refuses (exit 3) when the host fingerprints differ
in anything but the source digest: a difference across hosts, ISA tiers,
core counts, compilers or build types is not a regression. Otherwise prints
each metric's median on both sides and flags a change that is worse than
the metric's BENCHMARK.json bound (exit 1 if any).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    fingerprint = None
    lines = Path(path).read_text().rstrip("\n").split("\n")
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    if fingerprint is None:
        sys.exit(f"compare: {path} has no fingerprint line")
    return fingerprint, json.loads(lines[-1])


def host_key(fingerprint):
    return {k: v for k, v in fingerprint.items() if k != "source"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()

    runs = {"base": [load(p) for p in args.base], "new": [load(p) for p in args.new]}
    hosts = {json.dumps(host_key(fp), sort_keys=True)
             for side in runs.values() for fp, _ in side}
    if len(hosts) != 1:
        print("compare: refusing, host fingerprints differ:", file=sys.stderr)
        for host in sorted(hosts):
            print(f"  {host}", file=sys.stderr)
        sys.exit(3)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    regressions = 0
    names = sorted(set().union(*(r["metrics"] for _, r in runs["base"])))
    print(f"{'metric':40s} {'base':>12s} {'new':>12s} {'change':>8s}")
    for name in names:
        base = statistics.median(r["metrics"][name]["value"] for _, r in runs["base"])
        new = statistics.median(r["metrics"][name]["value"] for _, r in runs["new"])
        change = (new - base) / base if base else 0.0
        meta = declared.get(name, {})
        worse = -change if meta.get("better") == "higher" else change
        flag = ""
        if "bound" in meta and worse > meta["bound"]:
            flag = "  REGRESSION"
            regressions += 1
        print(f"{name:40s} {base:12.6g} {new:12.6g} {change:+8.2%}{flag}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
