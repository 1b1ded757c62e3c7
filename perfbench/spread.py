#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread, (Q3 - Q1) / median, against its bound.

    python3 perfbench/spread.py --workloads scale,joins,loopback \
        --seeds 1-10 [--seconds S] [--trace 0|1]

Seconds default to run_seconds from BENCHMARK.json.  A spread above a
third of the metric's bound is flagged; setup_s has no spread limit, only
its median is compared between commits.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="scale,joins,loopback")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = a.seconds or bench["run_seconds"]
    for w in a.workloads.split(","):
        values = {}
        walls = []
        for seed in seeds_of(a.seeds):
            t0 = time.monotonic()
            r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                                "--seed", str(seed), "--seconds", str(seconds),
                                "--trace", str(a.trace)],
                               cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - t0)
            if r.returncode != 0:
                sys.stderr.write(r.stdout[-2000:] + r.stderr[-2000:])
                sys.exit("%s seed %d failed with %d" % (w, seed, r.returncode))
            res = json.loads(r.stdout.strip().splitlines()[-1])
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        print("== %s: %d runs, wall per run median %.1f s, max %.1f s"
              % (w, len(walls), statistics.median(walls), max(walls)))
        for k, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(k)
            flag = ""
            if bound is not None and k != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3" if spread <= bound else "  <-- ABOVE BOUND"
            print("  %-36s median %-14.6g spread %.4f  bound %s%s"
                  % (k, med, spread, bound, flag))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
