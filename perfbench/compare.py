#!/usr/bin/env python3
"""Check that sets of benchmark runs agree within the benchmark's bounds.

    python3 perfbench/compare.py collect OUT.jsonl [--runs 10] [--first-seed 1]
        Run every workload of BENCHMARK.json (--trace 0) once per seed and
        append one line per run: {"workload", "seed", "result"}.

    python3 perfbench/compare.py check A.jsonl [B.jsonl]
        For every workload and end-to-end metric, print the median and the
        spread (distance between the first and third quartile as a share
        of the median) of each set.  Fails when a spread other than
        setup_s exceeds the metric's bound, when B's median is worse than
        A's by more than the bound, when a run was not correct, or when
        the share of failed operations differs between runs.

Run from the root of a checkout.  Exit status 0 means every check held.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def collect(out, runs, first_seed):
    bench = load_benchmark()
    for w in bench["workloads"]:
        for seed in range(first_seed, first_seed + runs):
            argv = bench["command"] + ["--workload", w["name"], "--seed", str(seed),
                                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            r = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if r.returncode != 0:
                sys.exit("%s seed %d failed: %s" % (w["name"], seed, r.stderr[-400:]))
            result = json.loads(r.stdout.strip().splitlines()[-1])
            with open(out, "a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": w["name"], "seed": seed, "result": result}) + "\n")
            print("%s seed %d done" % (w["name"], seed), file=sys.stderr)


def read_set(path):
    by_workload = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                by_workload.setdefault(row["workload"], []).append(row["result"])
    return by_workload


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / statistics.median(values)


def check(paths):
    bench = load_benchmark()
    sets = [read_set(p) for p in paths]
    ok = True
    for w in (x["name"] for x in bench["workloads"]):
        shares = set()
        for i, s in enumerate(sets):
            runs = s.get(w, [])
            if len(runs) < 4:
                print("%s: set %d has %d runs, need at least 4" % (w, i + 1, len(runs)))
                ok = False
                continue
            if not all(r["correct"] for r in runs):
                print("%s: set %d has incorrect runs" % (w, i + 1))
                ok = False
            shares |= {(r["failed"] / r["attempted"]) for r in runs}
        if len(shares) > 1:
            print("%s: failed share differs between runs: %s" % (w, sorted(shares)))
            ok = False
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            medians = []
            for i, s in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in s.get(w, [])]
                if len(values) < 4:
                    continue
                med = statistics.median(values)
                medians.append(med)
                _, sp = spread(values)
                limit = "" if name == "setup_s" else ("  OVER %.3f" % bound if sp > bound else "")
                if limit:
                    ok = False
                print("%-18s %-15s set %d  median %.6g  spread %.4f (bound %.2f)%s"
                      % (w, name, i + 1, med, sp, bound, limit))
            if len(medians) == 2:
                a, b = medians
                worse = (b - a) / a if lower else (a - b) / a
                if worse > bound:
                    print("%-18s %-15s second median worse by %.4f > %.2f" % (w, name, worse, bound))
                    ok = False
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    k = sub.add_parser("check")
    k.add_argument("sets", nargs="+")
    args = ap.parse_args()
    if args.cmd == "collect":
        collect(args.out, args.runs, args.first_seed)
        return 0
    if len(args.sets) > 2:
        ap.error("check takes one or two sets")
    return check(args.sets)


if __name__ == "__main__":
    sys.exit(main())
