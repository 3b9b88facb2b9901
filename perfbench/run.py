#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds bin/ndnsim.exe and
perfbench/perfbench.exe with dune (nothing else: no tests, no bench
families), then repeats whole rounds of the workload for S seconds, each
round in processes of its own, and prints one JSON object as the last
line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over rounds) from
runs without spans; --trace 1 is the span run and reports the per-layer
metrics, including its own overhead against interleaved rounds without
spans.  Workloads, seeds, metrics and oracles are described in
perfbench/README.md.  Scratch files (traces, runtime-event rings) live
in .perfbench-tmp/ under the checkout and are removed before exit.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NDNSIM = os.path.join(ROOT, "_build", "default", "bin", "ndnsim.exe")
PERFBENCH = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
CHILD_TIMEOUT_S = 120

WORKLOADS = ["fig3-lan", "fig3-lan-bintrace", "tree-flood", "fig5-replay"]

# The Fig. 3 LAN campaign: CONTENTS warm and CONTENTS cold names per
# run, RUNS fresh-cache runs, one trial domain.  Each content costs
# three consumer requests (the user's warm fetch and the adversary's
# two probes).
CONTENTS = 2000
RUNS = 5
REQUESTS_PER_CAMPAIGN = 3 * CONTENTS * RUNS
# The small render the span check reads in both formats.
SMALL_CONTENTS = 20
# End-to-end times are scaled to a host on which `perfbench.exe
# reference` takes this long; see host_factor.
REF_NOMINAL_S = 0.2

PER_LAYER = [
    "topology.build_s", "workload.generate_s", "network.run_s", "replay.run_s",
    "campaign.run_s", "trace.cost_s", "trace.rss_mb", "analyze.run_s",
    "engine.events", "cs.lookups", "cs.hits", "cs.insertions", "cs.evictions",
    "cs.hit_ratio", "node.interests_forwarded", "node.interests_collapsed",
    "node.nacks_sent", "pit.rejections", "pit.evictions", "flood.issued",
    "flood.nacked", "rc.hidden_hits", "trace.events", "trace.bytes",
    "trace.bytes_per_event", "analyze.events_per_s", "gc.minor_words",
    "gc.promoted_words", "gc.major_collections", "gc.pause_s",
    "engine.attributed_s", "cs.attributed_s", "pit.attributed_s",
    "fib.attributed_s", "name.attributed_s", "crypto.attributed_s",
    "random_cache.attributed_s", "unattributed_s", "span.overhead_pct",
    "host.ref_s",
]


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    if name == "trace.bytes_per_event":
        return "B/event"
    if name == "trace.bytes":
        return "B"
    if name == "cs.hit_ratio":
        return "ratio"
    if name.startswith("gc.") and name.endswith("_words"):
        return "words"
    return "count"


class BenchError(Exception):
    pass


class Child:
    def __init__(self, wall_s, rss_mb, out, err, pid):
        self.wall_s, self.rss_mb, self.out, self.err, self.pid = wall_s, rss_mb, out, err, pid


def run_child(argv, tmp, env=None):
    """Run one process to its end; return its wall time, its own peak
    RSS (from wait4, so each workload process is measured alone), and
    its output."""
    out_path = os.path.join(tmp, "child.out")
    err_path = os.path.join(tmp, "child.err")
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT,
                             env=dict(os.environ, **(env or {})))
        killer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        out = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        err = f.read()
    os.remove(out_path)
    os.remove(err_path)
    if p.returncode != 0:
        raise BenchError("%s exited with %d: %s" % (" ".join(argv[1:3]), p.returncode, err[-400:]))
    return Child(wall, usage.ru_maxrss / 1024.0, out, err, p.pid)


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def build():
    for need in ("dune-project", os.path.join("bin", "ndnsim.ml"), os.path.join("lib", "sim")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("not a checkout of the simulator: %s is missing" % need)
    # The shared dune cache lives outside the checkout; keep the build inside.
    r = subprocess.run(["dune", "build", "--root", ROOT, "./bin/ndnsim.exe",
                        "./perfbench/perfbench.exe"],
                       cwd=ROOT, env=dict(os.environ, DUNE_CACHE="disabled"),
                       stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if r.returncode != 0:
        raise BenchError("dune build failed with %d" % r.returncode)


# --- runtime-events plumbing for span rounds ---

def span_env(tmp):
    """Environment that makes an OCaml 5.1 process record runtime events
    into a ring under tmp and keep it after exit, and print its GC
    counters at exit (v=0x400)."""
    return {"OCAML_RUNTIME_EVENTS_START": "1", "OCAML_RUNTIME_EVENTS_DIR": tmp,
            "OCAML_RUNTIME_EVENTS_PRESERVE": "1", "OCAMLRUNPARAM": "v=0x400"}


def gc_pause_s(tmp, pid):
    r = run_child([PERFBENCH, "gc-pauses", tmp, str(pid)], tmp)
    ring = os.path.join(tmp, "%d.events" % pid)
    if os.path.exists(ring):
        os.remove(ring)
    g = last_json(r.out)
    if g["lost_events"]:
        print("warning: %d runtime events lost; gc.pause_s is a lower bound"
              % g["lost_events"], file=sys.stderr)
    return g["pause_s"]


def exit_gc_stats(err):
    stats = {}
    for line in err.splitlines():
        m = re.match(r"^(minor_words|promoted_words|major_collections): ([0-9.]+)$", line)
        if m:
            stats[m.group(1)] = float(m.group(2))
    return stats


# --- fig3 workloads (child ndnsim processes) ---

def attack_argv(seed, contents=CONTENTS, runs=RUNS, trace=None, fmt="binary"):
    argv = [NDNSIM, "attack", "--topology", "lan", "--contents", str(contents),
            "--runs", str(runs), "--jobs", "1", "--seed", str(seed)]
    if trace:
        argv += ["--trace", trace, "--trace-format", fmt]
    return argv


ATTACK_LINE = re.compile(r"hits: n=(\d+) mean=\S+\s+misses: n=(\d+) mean=\S+\s+timeouts=(\d+)")
SUCCESS_LINE = re.compile(r"distinguisher success rate: ([0-9.]+)%")


def campaign_checks(out, contents=CONTENTS, runs=RUNS):
    m = ATTACK_LINE.search(out)
    s = SUCCESS_LINE.search(out)
    if not m or not s:
        return {"attack_output_parsed": False}
    expected = contents * runs
    return {
        "hit_samples": int(m.group(1)) == expected,
        "miss_samples": int(m.group(2)) == expected,
        "no_timeouts": int(m.group(3)) == 0,
        "success_rate_at_least_99pct": float(s.group(1)) >= 99.0,
    }


def analyzer_checks(a, contents=CONTENTS, runs=RUNS):
    att = a.get("attack", {})
    expected = contents * runs
    return {"analyzer_warm": att.get("warm") == expected,
            "analyzer_cold": att.get("cold") == expected,
            "analyzer_events": a.get("events", 0) > 0}


def setup_child(seed, tmp):
    """The campaign's fixed cost: a one-content, one-run campaign."""
    return run_child(attack_argv(seed, contents=1, runs=1), tmp).wall_s


def traced_campaign(seed, tmp):
    """Traced binary campaign followed by a streaming analyze pass."""
    path = os.path.join(tmp, "campaign.bin")
    c = run_child(attack_argv(seed, trace=path), tmp)
    size = os.path.getsize(path)
    a = run_child([NDNSIM, "analyze", path, "--json"], tmp)
    os.remove(path)
    return c, a, json.loads(a.out), size


def span_check(seed, tmp):
    """The analyzer's span must equal the range of the JSONL `time`
    field (virtual ms) of the same small campaign."""
    jl = os.path.join(tmp, "small.jsonl")
    bn = os.path.join(tmp, "small.bin")
    run_child(attack_argv(seed, contents=SMALL_CONTENTS, runs=1, trace=jl, fmt="jsonl"), tmp)
    run_child(attack_argv(seed, contents=SMALL_CONTENTS, runs=1, trace=bn), tmp)
    a = json.loads(run_child([NDNSIM, "analyze", bn, "--json"], tmp).out)
    times = []
    with open(jl, encoding="utf-8") as f:
        for line in f:
            times.append(json.loads(line)["time"])
    os.remove(jl)
    os.remove(bn)
    jsonl_span_ms = max(times) - min(times)
    analyzer_span_ms = a["span_us"] / 1000.0
    return abs(analyzer_span_ms - jsonl_span_ms) <= 1e-3


def fig3_round(seed, tmp, traced):
    setup = setup_child(seed, tmp)
    if not traced:
        c = run_child(attack_argv(seed), tmp)
        return {"setup_s": setup, "wall_s": c.wall_s, "rss_mb": c.rss_mb,
                "checks": campaign_checks(c.out), "requests": REQUESTS_PER_CAMPAIGN,
                "attempted": REQUESTS_PER_CAMPAIGN, "failed": 0}
    c, a, analysis, _ = traced_campaign(seed, tmp)
    checks = campaign_checks(c.out)
    checks.update(analyzer_checks(analysis))
    span_ok = span_check(seed, tmp)
    return {"setup_s": setup, "wall_s": c.wall_s + a.wall_s,
            "rss_mb": max(c.rss_mb, a.rss_mb), "checks": checks,
            "requests": REQUESTS_PER_CAMPAIGN, "attempted": REQUESTS_PER_CAMPAIGN + 1,
            "failed": 0 if span_ok else 1}


# --- in-process workloads (perfbench.exe rounds) ---

def inproc_round(workload, seed, tmp, env=None, spans=False):
    argv = [PERFBENCH, workload, str(seed)] + (["--spans"] if spans else [])
    c = run_child(argv, tmp, env)
    r = last_json(c.out)
    setup = r.get("build_s", 0.0) + r["generate_s"]
    return c, r, {"setup_s": setup, "wall_s": r["run_s"], "rss_mb": c.rss_mb,
                  "checks": r["checks"], "requests": r["requests"],
                  "attempted": r["requests"], "failed": 0}


def reference_s(tmp):
    return last_json(run_child([PERFBENCH, "reference"], tmp).out)["ref_s"]


def host_factor(ref_s):
    """How much slower than nominal the host ran next to a round.  The
    host switches between speed states for tens of seconds at a time, so
    every round is paired with a reference run just before it, and its
    times are divided by this factor."""
    return ref_s / REF_NOMINAL_S


def e2e_round(workload, seed, tmp):
    ref = reference_s(tmp)
    if workload == "fig3-lan":
        r = fig3_round(seed, tmp, traced=False)
    elif workload == "fig3-lan-bintrace":
        r = fig3_round(seed, tmp, traced=True)
    else:
        r = inproc_round(workload, seed, tmp)[2]
    r["ref_s"] = ref
    return r


def for_seconds(seconds, fn):
    """Whole rounds until the measuring time is used up."""
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        out.append(fn())
    return out


def summarize(rounds):
    correct = all(all(r["checks"].values()) for r in rounds)
    bad = sorted({k for r in rounds for k, ok in r["checks"].items() if not ok})
    if bad:
        print("oracle failures: " + ", ".join(bad), file=sys.stderr)
    return (correct, sum(r["attempted"] for r in rounds), sum(r["failed"] for r in rounds))


def end_to_end(workload, seed, seconds, tmp):
    rounds = for_seconds(seconds, lambda: e2e_round(workload, seed, tmp))
    correct, attempted, failed = summarize(rounds)
    metrics = {
        "requests_per_s": median([r["requests"] * host_factor(r["ref_s"]) / r["wall_s"]
                                  for r in rounds]),
        "setup_s": median([r["setup_s"] / host_factor(r["ref_s"]) for r in rounds]),
        "peak_rss_mb": median([r["rss_mb"] for r in rounds]),
    }
    units = {"requests_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    print("%s seed=%d rounds=%d unscaled requests_per_s=%.6g setup_s=%.6g reference_s=%.6g"
          % (workload, seed, len(rounds), median([r["requests"] / r["wall_s"] for r in rounds]),
             median([r["setup_s"] for r in rounds]), median([r["ref_s"] for r in rounds])),
          file=sys.stderr)
    return correct, attempted, failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


# --- the span run ---

def calibrate(shape, tmp):
    return last_json(run_child([PERFBENCH, "calibrate", shape], tmp).out)


def attribute(m, cal, counts, measured_s):
    """Each layer's count times its isolated ns/op; what is left of the
    measured time is unattributed."""
    parts = {
        "engine.attributed_s": counts["engine"] * cal["engine_ns"],
        "cs.attributed_s": counts["cs_lookups"] * cal["cs_lookup_ns"]
        + counts["cs_insertions"] * cal["cs_insert_ns"],
        "pit.attributed_s": counts["pit"] * cal["pit_ns"],
        "fib.attributed_s": counts["fib"] * cal["fib_ns"],
        "name.attributed_s": counts["name"] * cal["name_ns"],
        "crypto.attributed_s": counts["crypto"] * cal["crypto_ns"],
        "random_cache.attributed_s": counts["random_cache"] * cal["random_cache_ns"],
    }
    for k, ns in parts.items():
        m[k] = ns / 1e9
    m["unattributed_s"] = measured_s - sum(parts.values()) / 1e9


def overhead_pct(plain, spanned):
    return 100.0 * (median(spanned) / median(plain) - 1.0)


def span_run_fig3(workload, seed, seconds, tmp):
    m = {}
    plain, spanned, rounds = [], [], []
    checks_rounds = []
    pauses, gcs = [], []
    traced_walls, traced_rss, analyze_walls, untraced_rss = [], [], [], []
    analysis = size = None

    def one():
        nonlocal analysis, size
        c = run_child(attack_argv(seed), tmp)
        plain.append(c.wall_s)
        untraced_rss.append(c.rss_mb)
        checks_rounds.append(campaign_checks(c.out))
        s = run_child(attack_argv(seed), tmp, span_env(tmp))
        spanned.append(s.wall_s)
        pauses.append(gc_pause_s(tmp, s.pid))
        gcs.append(exit_gc_stats(s.err))
        tc, ta, analysis, size = traced_campaign(seed, tmp)
        traced_walls.append(tc.wall_s)
        traced_rss.append(tc.rss_mb)
        analyze_walls.append(ta.wall_s)
        # The traced workload keeps its failing span check, so the span
        # run fails the same share of operations as the timed runs.
        rounds.append(span_check(seed, tmp) if workload == "fig3-lan-bintrace" else True)

    for_seconds(seconds, one)
    kinds = analysis["kinds"]
    events = analysis["events"]
    lookups = kinds.get("cs.hit", 0) + kinds.get("cs.miss", 0)
    m.update({
        "campaign.run_s": median(plain),
        "trace.cost_s": median(traced_walls) - median(plain),
        "trace.rss_mb": median(traced_rss) - median(untraced_rss),
        "analyze.run_s": median(analyze_walls),
        "trace.events": events, "trace.bytes": size,
        "trace.bytes_per_event": size / events,
        "analyze.events_per_s": events / median(analyze_walls),
        "engine.events": kinds.get("engine.step", 0),
        "cs.lookups": lookups, "cs.hits": kinds.get("cs.hit", 0),
        "cs.insertions": kinds.get("cs.insert", 0),
        "cs.evictions": kinds.get("cs.evict", 0),
        "cs.hit_ratio": kinds.get("cs.hit", 0) / lookups,
        "node.interests_forwarded": kinds.get("interest.fwd", 0),
        "gc.minor_words": median([g.get("minor_words", 0) for g in gcs]),
        "gc.promoted_words": median([g.get("promoted_words", 0) for g in gcs]),
        "gc.major_collections": median([g.get("major_collections", 0) for g in gcs]),
        "gc.pause_s": median(pauses),
        "span.overhead_pct": overhead_pct(plain, spanned),
    })
    counts = {
        "engine": m["engine.events"], "cs_lookups": lookups,
        "cs_insertions": m["cs.insertions"],
        "pit": kinds.get("interest.recv", 0) - kinds.get("cs.hit", 0),
        "fib": m["node.interests_forwarded"], "name": REQUESTS_PER_CAMPAIGN,
        # Two of the three requests per content reach the producer,
        # which signs a fresh Data object for each.
        "crypto": 2 * CONTENTS * RUNS, "random_cache": 0,
    }
    attribute(m, calibrate("lan", tmp), counts, m["campaign.run_s"])
    checks = {k: all(c.get(k, False) for c in checks_rounds) for k in checks_rounds[0]}
    checks.update(analyzer_checks(analysis))
    if workload == "fig3-lan-bintrace":
        return m, checks, (REQUESTS_PER_CAMPAIGN + 1) * len(rounds), rounds.count(False)
    return m, checks, REQUESTS_PER_CAMPAIGN * len(rounds), 0


def span_run_inproc(workload, seed, seconds, tmp):
    m = {}
    plain, spanned, results, pauses = [], [], [], []

    def one():
        _, _, p = inproc_round(workload, seed, tmp)
        plain.append(p["wall_s"])
        c, r, s = inproc_round(workload, seed, tmp, span_env(tmp), spans=True)
        pauses.append(gc_pause_s(tmp, c.pid))
        spanned.append(s["wall_s"])
        results.append((r, s))

    for_seconds(seconds, one)
    r = results[0][0]
    med = lambda key: median([x[0][key] for x in results])
    spans = {}
    for x in results:
        for sp in x[0].get("spans", []):
            spans.setdefault(sp["name"], []).append(sp["end_s"] - sp["start_s"])
    m.update({
        "workload.generate_s": median(spans["workload.generate"]),
        "engine.events": r.get("engine.events", 0),
        "cs.lookups": r["cs.lookups"], "cs.hits": r["cs.hits"],
        "cs.insertions": r["cs.insertions"], "cs.evictions": r["cs.evictions"],
        "cs.hit_ratio": r["cs.hits"] / r["cs.lookups"],
        "gc.minor_words": med("gc_minor_words"),
        "gc.promoted_words": med("gc_promoted_words"),
        "gc.major_collections": med("gc_major_collections"),
        "gc.pause_s": median(pauses),
        "span.overhead_pct": overhead_pct(plain, spanned),
    })
    if workload == "tree-flood":
        for k in ("node.interests_forwarded", "node.interests_collapsed", "node.nacks_sent",
                  "pit.rejections", "pit.evictions", "flood.issued", "flood.nacked"):
            m[k] = r[k]
        m["topology.build_s"] = median(spans["topology.build"])
        m["network.run_s"] = median(spans["network.run"])
        counts = {
            "engine": r["engine.events"], "cs_lookups": r["cs.lookups"],
            "cs_insertions": r["cs.insertions"],
            "pit": r["node.interests_received"] - r["node.cache_responses"],
            "fib": r["node.interests_forwarded"], "name": r["requests"],
            "crypto": r["producer.data"], "random_cache": 0,
        }
        attribute(m, calibrate("tree", tmp), counts, m["network.run_s"])
    else:
        m["rc.hidden_hits"] = r["rc.hidden_hits"]
        m["replay.run_s"] = median(spans["replay.run"])
        counts = {
            "engine": 0, "cs_lookups": r["cs.lookups"], "cs_insertions": r["cs.insertions"],
            "pit": 0, "fib": 0, "name": r["requests"],
            # Replay signs each distinct content once (it interns Data).
            "crypto": r["distinct_contents"], "random_cache": r["requests"],
        }
        attribute(m, calibrate("fig5", tmp), counts, m["replay.run_s"])
    checks = {}
    for x in results:
        for k, ok in x[0]["checks"].items():
            checks[k] = checks.get(k, True) and ok
    return m, checks, sum(x[1]["attempted"] for x in results), 0


def per_layer(workload, seed, seconds, tmp):
    if workload.startswith("fig3"):
        m, checks, attempted, failed = span_run_fig3(workload, seed, seconds, tmp)
    else:
        m, checks, attempted, failed = span_run_inproc(workload, seed, seconds, tmp)
    bad = sorted(k for k, ok in checks.items() if not ok)
    if bad:
        print("oracle failures: " + ", ".join(bad), file=sys.stderr)
    m["host.ref_s"] = reference_s(tmp)
    # A layer the workload does not run reads 0.
    metrics = {k: {"value": m.get(k, 0), "unit": unit_of(k)} for k in PER_LAYER}
    return not bad, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # A terminated run still stops its child and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    tmp_root = os.path.join(ROOT, ".perfbench-tmp")
    try:
        build()
        os.makedirs(tmp_root, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
        try:
            if args.trace:
                result = per_layer(args.workload, args.seed, args.seconds, tmp)
            else:
                result = end_to_end(args.workload, args.seed, args.seconds, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                os.rmdir(tmp_root)
            except OSError:
                pass
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
    correct, attempted, failed, metrics = result
    for k, v in metrics.items():
        print("%-28s %.6g %s" % (k, v["value"], v["unit"]), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
