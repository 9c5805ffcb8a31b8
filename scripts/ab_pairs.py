#!/usr/bin/env python3
"""Alternating A/B pairs of one perfbench workload between two revisions.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload train_tcp \
        [--pairs 5] [--seconds 25] [--seed 7] [--trace 0|1] [--work DIR]

PARENT and CHANGE are git revisions; "." is the working tree with its
uncommitted changes. Each side is exported into its own tree under the
work directory and builds its own perfbench driver there (its own
CARGO_TARGET_DIR), so neither run sees the other's objects. Pair i runs
both sides on the same seed, the parent first in even pairs and the
change first in odd ones.

For every metric of the result line (BENCHMARK.json's end-to-end ones,
or the per-layer ones with --trace 1), for the run record's
host_probe_ms and for its unscaled times (raw.<metric>: perfbench
scales times by that host-speed probe), it prints each side's median and interquartile range and
the number of pairs the change won. A run that is not correct is
reported and counted, and its numbers are left out. perfbench/ and
BENCHMARK.json are read, never written. Without --work the trees go to
a temporary directory that is removed at exit; with it they are kept
and rebuilt incrementally on the next call.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev, dest):
    """Write revision @rev's files (or the working tree's, for ".")
    into @dest, replacing what a previous export left there."""
    src = os.path.join(dest, "src")
    shutil.rmtree(src, ignore_errors=True)
    os.makedirs(src)
    if rev == ".":
        files = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"], cwd=ROOT, check=True,
            capture_output=True).stdout.split(b"\0")
        for name in filter(None, (f.decode() for f in files)):
            path = os.path.join(ROOT, name)
            if os.path.isfile(path):
                os.makedirs(os.path.dirname(os.path.join(src, name)),
                            exist_ok=True)
                shutil.copy2(path, os.path.join(src, name))
    else:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", src], input=archive, check=True)
    return src


def run_once(tree, build, args):
    """One perfbench run in @tree: (record, result) or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return None
    try:
        return json.loads(lines[-2]), json.loads(lines[-1])
    except ValueError:
        return None


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (float("nan"), float("nan"))
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True,
                    choices=("plan_cold", "train_block", "train_tcp"))
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", help="keep the trees and builds here")
    args = ap.parse_args()

    work = args.work or tempfile.mkdtemp(prefix="ab_pairs_")
    try:
        sides = {}
        for name, rev in (("parent", args.parent), ("change", args.change)):
            base = os.path.join(work, name)
            tree = export(rev, base)
            sides[name] = (tree, os.path.join(base, "build"))
        with open(os.path.join(sides["change"][0], "BENCHMARK.json")) as f:
            spec = json.load(f)
        better = {m["name"]: m["better"]
                  for m in spec["per_layer" if args.trace else "end_to_end"]}
        for name in list(better):
            better["raw." + name] = better[name]
        better["host_probe_ms"] = "lower"

        values = {"parent": [], "change": []}
        failed = {"parent": 0, "change": 0}
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                               "parent")
            pair = {}
            for name in order:
                got = run_once(*sides[name], args)
                if got is None or not got[1].get("correct"):
                    failed[name] += 1
                    print("pair %d %s: run not correct" % (i, name),
                          file=sys.stderr)
                    continue
                record = got[0].get("record", {})
                row = {k: v["value"] for k, v in got[1]["metrics"].items()}
                row["host_probe_ms"] = record.get("host_probe_ms")
                for k, v in record.get("unscaled", {}).items():
                    row["raw." + k] = v
                pair[name] = row
            for name in pair:
                values[name].append(pair[name])
            if len(pair) == 2:
                pairs.append(pair)
            print("pair %d done (%s first)" % (i, order[0]),
                  file=sys.stderr)

        print("%s: %s vs %s, %d pairs of %g s, seed %d; failed runs: "
              "parent %d, change %d" % (args.workload, args.parent,
                                         args.change, args.pairs,
                                         args.seconds, args.seed,
                                         failed["parent"], failed["change"]))
        print("%-32s %28s %28s %6s" % ("metric", "parent median [IQR]",
                                       "change median [IQR]", "wins"))
        for metric in sorted(better):
            if not any(row.get(metric) is not None
                       for name in ("parent", "change")
                       for row in values[name]):
                continue
            cols = []
            for name in ("parent", "change"):
                xs = [row[metric] for row in values[name]
                      if row.get(metric) is not None]
                if not xs:
                    cols.append("-")
                    continue
                lo, hi = quartiles(xs)
                cols.append("%.4g [%.4g, %.4g]" %
                            (statistics.median(xs), lo, hi))
            sign = 1.0 if better[metric] == "higher" else -1.0
            wins = sum(1 for p in pairs
                       if p["parent"].get(metric) is not None and
                       p["change"].get(metric) is not None and
                       sign * (p["change"][metric] - p["parent"][metric]) > 0)
            print("%-32s %28s %28s %3d/%-2d" % (metric, cols[0], cols[1],
                                                wins, len(pairs)))
        return 0 if not failed["parent"] and not failed["change"] else 1
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
