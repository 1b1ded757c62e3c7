#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_fingerprint.py

1. Each simulator workload runs twice in traced mode at one fixed seed;
   the deterministic fingerprint (engine events, max_pending, routing and
   membership bytes, datagram counts, joins, per-class calls and minor
   words, membership messages per join) must be identical.
2. BENCHMARK.json must list exactly the metrics, with the same units, that
   run.py prints.

Exits 1 on the first mismatch.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py)


def fingerprint(workload):
    out = subprocess.run([run.EXE, "--workload", workload, "--mode", "traced", "--seed", "7",
                          "--seconds", "2"], cwd=run.ROOT, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])["fingerprint"]


def main():
    run.build()
    failed = False
    for w in ("scale", "joins"):
        a, b = fingerprint(w), fingerprint(w)
        same = a == b
        failed |= not same
        print("%-6s fingerprint %s (%d counters)" % (w, "repeats" if same else "DIFFERS", len(a)))
        if not same:
            for k in sorted(set(a) | set(b)):
                if a.get(k) != b.get(k):
                    print("  %s: %s != %s" % (k, a.get(k), b.get(k)))
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for key, expected in (("end_to_end", {k: u for k, (u, _) in run.END_TO_END.items()}),
                          ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        same = listed == expected
        failed |= not same
        print("BENCHMARK.json %s %s run.py" % (key, "matches" if same else "DIFFERS FROM"))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
