#!/usr/bin/env python3
"""Repository benchmark: build the overlay from source and run one workload.

    python3 perfbench/run.py --workload scale|joins|loopback \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every phase runs in a fresh worker
process (perfbench/worker) so no workload inherits another's heap.  On
the simulator each of SIM_SEEDS sub-seeds is set up and measured by
REPEATS workers; on loopback one worker only sets up and REPEATS set up
and measure.  With --trace 1 one worker drives the window through the
per-step tracer instead, and an oracle pass and the codec kernels follow.  The last line of standard
output is the JSON result; the lines before it repeat every metric with
its unit and sample count, the correctness checks and the deterministic
fingerprint.  Exits non-zero, without a result, if the checkout cannot be
built or a phase fails, and with a result marked incorrect if a
correctness check fails.  See perfbench/NOTES.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker")
# The worker's build workspace: links to its files and to the checkout's
# lib/, so the worker project links the in-tree libraries.
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "_build", "default", "bench.exe")
WORKLOADS = ("scale", "joins", "loopback")
# Simulator: distinct sub-seeds per run, each set up and measured by
# REPEATS worker processes.  The simulation is deterministic, so the
# repeats of a sub-seed do identical work.  Loopback: one set-up-only
# worker, then REPEATS measured ones on one sub-seed.
SIM_SEEDS = {"scale": 2, "joins": 4}
REPEATS = 2
DEADLINE_S = 170  # the whole run, build excluded
BUILD_DEADLINE_S = 700  # a first build from a clean checkout takes well under a minute

# name -> (unit, sample-count key in the worker's "samples")
END_TO_END = {
    "setup_s": ("s", None),
    "cpu_s_per_sim_s": ("s/s", "window_chunks"),
    "dgram_pps": ("1/s", "window_chunks"),
    "peak_heap_mb": ("MB", None),
    "routing_bytes_per_node_s": ("B/s", None),
    "rec_age_p50_s": ("s", "rec_age"),
    "rec_age_p99_s": ("s", "rec_age"),
    "route_ok_share": ("ratio", "route_probes"),
    "dgram_delivered_share": ("ratio", None),
    "dgram_latency_p50_ms": ("ms", "dgram_latency"),
    "dgram_latency_p99_ms": ("ms", "dgram_latency"),
    "stretch_p99": ("ratio", "stretch"),
    "join_ok_share": ("ratio", "joins"),
}

CLASSES = ("router.ingest", "router.tick", "monitor.ingest", "monitor.tick",
           "membership", "dataplane.forward", "dataplane.originate",
           "engine.quiet_timers")
CODECS = ("frame", "packet", "message", "linkstate_wire", "membership_wire")

PER_LAYER = {}
for c in CLASSES:
    PER_LAYER[c + ".calls_per_sim_s"] = "1/s"
    PER_LAYER[c + ".cpu_ms_per_sim_s"] = "ms/s"
    PER_LAYER[c + ".minor_kwords_per_sim_s"] = "kword/s"
PER_LAYER.update({
    "engine.events_per_sim_s": "1/s",
    "engine.max_pending": "count",
    "gc.minor_mwords_per_sim_s": "Mword/s",
    "gc.major_mwords_per_sim_s": "Mword/s",
    "setup.topology_s": "s",
    "setup.create_s": "s",
    "setup.warmup_s": "s",
    "membership.join_latency_p90_s": "s",
    "membership.bytes_per_join": "B",
    "udp.user_cpu_s_per_s": "s/s",
    "udp.sys_cpu_s_per_s": "s/s",
    "udp.frames_per_batch": "count",
    "udp.syscalls_per_dgram": "count",
    "udp.send_retries": "count",
    "udp.frames_dropped": "count",
    "udp.latency_floor_share": "ratio",
})
for c in CODECS:
    for op in ("encode", "decode"):
        PER_LAYER["codec.%s.%s_ns" % (c, op)] = "ns"
        PER_LAYER["codec.%s.%s_words" % (c, op)] = "word"
PER_LAYER.update({"trace.coverage_share": "ratio", "trace.overhead_share": "ratio"})


def sub_seed(seed, i):
    """The i-th sub-seed of a run: distinct for every run seed."""
    return seed * 16 + i


def nearest_rank(xs, p):
    xs = sorted(xs)
    return xs[max(0, math.ceil(p / 100 * len(xs)) - 1)] if xs else float("nan")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def assemble():
    links = {name: os.path.join(WORKER, name) for name in os.listdir(WORKER)
             if not name.startswith(("_", "."))}
    links["lib"] = os.path.join(ROOT, "lib")
    os.makedirs(BUILD, exist_ok=True)
    for name in os.listdir(BUILD):
        path = os.path.join(BUILD, name)
        if os.path.islink(path) and name not in links:
            os.remove(path)
    for name, target in links.items():
        path, rel = os.path.join(BUILD, name), os.path.relpath(target, BUILD)
        if not (os.path.islink(path) and os.readlink(path) == rel):
            if os.path.lexists(path):
                os.remove(path)
            os.symlink(rel, path)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no dune-project and lib/ next to perfbench/: not a checkout of the repository")
    assemble()
    cmd = ["dune", "build", "--root", BUILD, "--profile", "release", "--cache=disabled",
           "--display", "quiet", "./bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=BUILD, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_DEADLINE_S)
    except OSError as e:
        die("cannot run dune: %s" % e)
    except subprocess.TimeoutExpired:
        die("build did not finish in %d s" % BUILD_DEADLINE_S)
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def worker(deadline, workload, mode, seed, seconds):
    cmd = [EXE, "--workload", workload, "--mode", mode, "--seed", str(seed),
           "--seconds", str(seconds)]
    left = deadline - time.monotonic()
    if left <= 1:
        die("out of time before the %s phase" % mode)
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        die("%s phase of %s did not finish in time" % (mode, workload))
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die("%s phase of %s exited with %d" % (mode, workload, r.returncode))
    lines = r.stdout.strip().splitlines()
    if not lines:
        die("%s phase of %s printed nothing" % (mode, workload))
    return json.loads(lines[-1])


def finite(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds < 1:
        die("--seconds must be at least 1")

    build()
    deadline = time.monotonic() + DEADLINE_S
    w, seed, secs = a.workload, a.seed, a.seconds
    sim = w != "loopback"

    checks = {}
    if a.trace:
        # one traced window; the oracle pass and the codec kernels follow
        runs = [worker(deadline, w, "traced", sub_seed(seed, 0), secs)]
        setups = [runs[0]["setup"]]
    elif sim:
        # REPEATS set-ups and windows of each sub-seed, on one fixed map, in
        # rounds, so that a sub-seed's repeats lie apart in time
        rounds = [[worker(deadline, w, "measure", sub_seed(seed, i), secs)
                   for i in range(SIM_SEEDS[w])] for _ in range(REPEATS)]
        groups = [list(g) for g in zip(*rounds)]
        for i, g in enumerate(groups):
            same = all(r["fingerprint"] == g[0]["fingerprint"] for r in g)
            checks["repeats_identical[%d]" % i] = {
                "ok": same, "detail": "%d runs of sub-seed %d %s" % (
                    len(g), sub_seed(seed, i), "agree" if same else "differ")}
        runs = [g[0] for g in groups]
        setups = [r["setup"] for g in groups for r in g]
    else:
        setups = [worker(deadline, w, "setup", sub_seed(seed, 0), secs)["setup"]]
        runs = [worker(deadline, w, "measure", sub_seed(seed, 0), secs)
                for _ in range(REPEATS)]
        setups += [r["setup"] for r in runs]
    setup_med = {k: statistics.median(s[k] for s in setups) for k in setups[0]}

    for i, r in enumerate(runs):
        for k, c in r["checks"].items():
            checks[k if len(runs) == 1 else "%s[%d]" % (k, i)] = c
    samples = {}
    for r in runs:
        for k, v in r["samples"].items():
            if finite(v):
                samples[k] = samples.get(k, 0) + v
    samples["measured"] = len(runs)
    samples["setups"] = len(setups)
    latencies = [x for r in runs for x in r["samples"].get("join_latencies", [])]

    if a.trace:
        layers = dict(runs[0]["layers"])
        if sim:
            oracle = worker(deadline, w, "oracle", sub_seed(seed, 0), secs)
            checks.update({"oracle." + k: v for k, v in oracle["checks"].items()
                           if k.startswith("oracle_")})
        layers.update(worker(deadline, w, "codecs", sub_seed(seed, 0), secs)["layers"])
        for k in ("topology_s", "create_s", "warmup_s"):
            layers["setup." + k] = setup_med[k]
        unmeasured = sorted(k for k in PER_LAYER if k not in layers)
        values = {k: layers.get(k, 0) for k in PER_LAYER}
        units = PER_LAYER
    else:
        values = {k: statistics.median(r["e2e"][k] for r in runs) for k in END_TO_END}
        values["setup_s"] = setup_med["setup_s"]
        if sim:
            # The repeats of a sub-seed do identical work (checked above by
            # their fingerprints), so chunk c of a sub-seed has REPEATS timings
            # of the same work.  The machine has slow spells of seconds that
            # slow identical work by 20-40% (see NOTES.md); the least
            # disturbed timing is the steady estimate.  Different sub-seeds do
            # different work, so their windows are added up, not compared.
            cpu = sum(min(c) for g in groups
                      for c in zip(*(r["samples"]["chunk_cpu_s"] for r in g)))
            values["cpu_s_per_sim_s"] = cpu / samples["window_sim_s"]
        else:
            # The repeats run the same load on the same sub-seed.  The
            # machine's slow spells raise both the CPU and the latencies of
            # the loop, so the least disturbed repeat gives the steady cost.
            for k in ("cpu_s_per_sim_s", "dgram_latency_p50_ms", "dgram_latency_p99_ms"):
                values[k] = min(r["e2e"][k] for r in runs)
        joins = samples.get("joins", 0)
        if joins:
            values["join_ok_share"] = samples["joins_on_time"] / joins
            print("detail membership.join_latency_p90_s %.6g  samples=%d" % (
                nearest_rank(latencies, 90), len(latencies)))
            print("detail membership.bytes_per_join %.6g" % (samples["membership_bytes"] / 2 / joins))
        unmeasured = ["dgram_pps"] if sim else ["stretch_p99"]
        if not joins:
            unmeasured.append("join_ok_share")
        units = {k: u for k, (u, _) in END_TO_END.items()}

    bad = sorted(k for k, v in values.items() if not finite(v))
    if bad:
        checks["metrics_finite"] = {"ok": False, "detail": "no value for " + ", ".join(bad)}
    failed = sorted(k for k, c in checks.items() if not c["ok"])

    for k in sorted(values):
        n = None
        if not a.trace:
            key = END_TO_END[k][1]
            n = len(setups) if k == "setup_s" else samples.get(key) if key else None
            if k in unmeasured:
                n = None
            if n is not None and k != "setup_s" and len(runs) > 1:
                n = "%s over %d %s" % (n, len(runs), "sub-seeds" if sim else "processes")
        v = values[k]
        shown = ("%.6g" % v) if finite(v) else "n/a"
        print("metric %-42s %14s %-8s%s%s" % (
            k, shown, units[k], "  samples=%s" % n if n is not None else "",
            "  (not measured on this workload)" if k in unmeasured else ""))
    for k, c in sorted(checks.items()):
        print("check  %-32s %s  %s" % (k, "ok  " if c["ok"] else "FAIL", c["detail"]))
    print("samples " + json.dumps(samples, sort_keys=True))
    for r in runs:
        print("fingerprint " + json.dumps(r["fingerprint"], sort_keys=True))

    result = {
        "correct": not failed,
        "attempted": sum(int(r["attempted"]) for r in runs),
        "failed": len(failed),
        "metrics": {k: {"value": values[k] if finite(values[k]) else None, "unit": units[k]}
                    for k in values},
    }
    print(json.dumps(result))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
