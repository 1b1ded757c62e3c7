#!/usr/bin/env python3
"""Compare the deterministic fields of a `bench --only micro` JSON file
against the checked-in BENCH_core.json.

Usage: python3 bench/check_core.py NEW.json [REFERENCE.json]

For every scaling row of NEW.json whose n is 49 or 144 (the sizes
`--quick` runs), the row with the same n and mode in REFERENCE.json
(default: BENCH_core.json next to this script's parent directory) must
carry exactly the same routing bytes, recommendation latency, event
count, queue high-water mark and drop count: at a fixed seed these are
pure functions of the protocol, so any difference is a behaviour change.
Exits 1 and names each differing row and field.
"""

import json
import os
import sys

FIELDS = [
    "routing_bytes_per_node_s",
    "rec_latency_median_s",
    "events",
    "max_pending",
    "drops",
]
SIZES = {49, 144}


def rows_by_key(path):
    with open(path) as f:
        doc = json.load(f)
    return doc["seed"], {(r["n"], r["mode"]): r for r in doc["runs"]}


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ref_path = (
        argv[2]
        if len(argv) == 3
        else os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_core.json")
    )
    new_seed, new = rows_by_key(argv[1])
    ref_seed, ref = rows_by_key(ref_path)
    errors = []
    if new_seed != ref_seed:
        errors.append(f"seed {new_seed} differs from the reference's {ref_seed}")
    checked = 0
    for key in sorted(new):
        n, mode = key
        if n not in SIZES:
            continue
        if key not in ref:
            errors.append(f"row n={n} mode={mode}: missing from {ref_path}")
            continue
        checked += 1
        for field in FIELDS:
            got, want = new[key][field], ref[key][field]
            if got != want:
                errors.append(f"row n={n} mode={mode}: {field} is {got}, reference has {want}")
    if checked == 0:
        errors.append("no n=49 or n=144 rows to compare")
    for e in errors:
        print(f"check_core: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_core: {checked} rows match {os.path.basename(ref_path)} on {', '.join(FIELDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
