#!/usr/bin/env python3
"""Check a fresh paper-figures run against the committed results.json.

Compares the two files field by field: `scale`, `seed`, the set of
experiments, each experiment's row count and fields, and every value
except the wall-clock ones (the `merge` timings, and the time,
overhead and retransmits of the `faults` loss rows, which follow the
host). Every simulated time, byte count and ablation row must come
back exactly. Exits 1 and names each field that differs.

    cargo run --release --offline -p kylix-bench --bin figures -- \\
        all --scale 4000 --seed 7 --json /tmp/results.json
    python3 scripts/check_results_json.py /tmp/results.json [--committed results.json]

Standard library only.
"""

import argparse
import json
import os
import sys

WALL = {"merge": {"hash_union_ms", "tree_merge_ms", "speedup"}}
LOSS_WALL = {"time", "overhead", "retransmits"}


def wall(exp, row):
    """Fields of `row` that are wall-clock readings, so never compared."""
    if exp == "faults" and row.get("scenario") == "loss":
        return LOSS_WALL
    return WALL.get(exp, set())


def same(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def differences(want, got):
    bad = []
    for k in ("scale", "seed"):
        if not same(want[k], got[k]):
            bad.append(f"{k}: committed {want[k]!r}, fresh {got[k]!r}")
    we, ge = want["experiments"], got["experiments"]
    if set(we) != set(ge):
        bad.append(f"experiments: committed {sorted(we)}, fresh {sorted(ge)}")
    for exp in sorted(set(we) & set(ge)):
        if len(we[exp]) != len(ge[exp]):
            bad.append(f"{exp}: {len(we[exp])} committed rows, {len(ge[exp])} fresh")
            continue
        for i, (w, g) in enumerate(zip(we[exp], ge[exp])):
            if set(w) != set(g):
                bad.append(f"{exp}[{i}]: fields {sorted(w)} vs {sorted(g)}")
                continue
            skip = wall(exp, w)
            for field in sorted(w):
                if field not in skip and not same(w[field], g[field]):
                    bad.append(f"{exp}[{i}].{field}: committed {w[field]!r}, fresh {g[field]!r}")
    return bad


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", help="results file written by `figures all --json`")
    ap.add_argument("--committed", default=os.path.join(root, "results.json"))
    a = ap.parse_args()
    with open(a.committed) as f:
        want = json.load(f)
    with open(a.fresh) as f:
        got = json.load(f)
    bad = differences(want, got)
    for line in bad:
        print(line)
    if bad:
        sys.exit(f"{len(bad)} differences: regenerate results.json (see EXPERIMENTS.md)")
    rows = sum(len(v) for v in want["experiments"].values())
    print(f"ok: {len(want['experiments'])} experiments, {rows} rows match results.json")


if __name__ == "__main__":
    main()
