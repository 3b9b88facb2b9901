#!/usr/bin/env python3
"""Check that running the benchmark leaves the working tree unchanged.

    python3 perfbench/check_clean.py [--seconds 1]

Records `git status --porcelain`, runs every workload of
BENCHMARK.json once with --trace 0 and once with --trace 1, and fails
when the status differs afterwards or the scratch directory is left
behind.  Run from the root of a git checkout.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def status():
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    before = status()
    for w in bench["workloads"]:
        for trace in ("0", "1"):
            argv = bench["command"] + ["--workload", w["name"], "--seed", "1",
                                       "--seconds", str(args.seconds), "--trace", trace]
            r = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if r.returncode != 0:
                sys.exit("%s --trace %s failed: %s" % (w["name"], trace, r.stderr[-400:]))
    after = status()
    leftover = os.path.exists(os.path.join(ROOT, ".perfbench-tmp"))
    if before != after or leftover:
        print("working tree changed:\n--- before\n%s--- after\n%s" % (before, after))
        if leftover:
            print(".perfbench-tmp/ was left behind")
        return 1
    print("working tree unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
