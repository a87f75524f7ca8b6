#!/usr/bin/env python3
"""Check a fresh paper-figures run's text tables against figures_output.txt.

Compares the printed output line by line: every table title, header,
row and cell must come back exactly, except the wall-clock cells (the
`time s`, `overhead` and `rexmit` cells of the fault sweep's `loss`
rows, and the `tree_merge ms`, `hash_union ms` and `speedup` cells of
the merge rows), which follow the host. Those columns are the last of
their tables, so a row's wall-clock cells are its last whitespace-
separated words; everything before them must still match, and the row
must still have them. Cargo's status lines before the first table and
the `wrote PATH` lines are not part of the output and are dropped from
both files. Exits 1 and names each line that differs.

    cargo run --release --offline -p kylix-bench --bin figures -- \\
        all --scale 4000 --seed 7 > /tmp/figures_output.txt
    python3 scripts/check_figures_output.py /tmp/figures_output.txt [--committed figures_output.txt]

Standard library only.
"""

import argparse
import os
import sys

# Table title prefix -> (its trailing wall-clock columns, whether a row's
# cells in them are wall-clock, given the row's first word).
WALL = {
    "Fault sweep": (("time s", "overhead", "rexmit"), lambda first: first == "loss"),
    "§VI.A": (("tree_merge ms", "hash_union ms", "speedup"), lambda first: True),
}


def tables(path):
    """The output's tables, each a (title, header, separator, rows) tuple."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    while lines and not lines[0].startswith("=== "):
        lines.pop(0)
    lines = [l for l in lines if not l.startswith("wrote ")]
    out = []
    for block in "\n".join(lines).split("\n\n"):
        rows = block.splitlines()
        if len(rows) < 3 or not rows[0].startswith("=== "):
            raise SystemExit(f"{path}: not a table: {block[:80]!r}")
        out.append((rows[0], rows[1], rows[2], rows[3:]))
    return out


def differences(want, got):
    bad = []
    if [t[0] for t in want] != [t[0] for t in got]:
        bad.append(f"titles: committed {[t[0] for t in want]}, fresh {[t[0] for t in got]}")
        return bad
    for (title, wh, ws, wrows), (_, gh, gs, grows) in zip(want, got):
        name = title.strip("= ")
        wall = next((w for p, w in WALL.items() if name.startswith(p)), None)
        if len(wrows) != len(grows):
            bad.append(f"{name}: {len(wrows)} committed rows, {len(grows)} fresh")
            continue
        if wall is None:
            pairs = [("header", wh, gh), ("separator", ws, gs)]
            pairs += [(f"row {i + 1}", w, g) for i, (w, g) in enumerate(zip(wrows, grows))]
            bad += [f"{name} {where}: committed {w!r}, fresh {g!r}" for where, w, g in pairs if w != g]
            continue
        # A wall-clock cell's width can move the header and the other
        # rows' wall columns, so those compare word by word.
        cols, is_wall = wall
        words = " ".join(wh.split())
        if words != " ".join(gh.split()) or not words.endswith(" ".join(cols)):
            bad.append(f"{name} header: committed {wh!r}, fresh {gh!r}")
        if set(gs) != {"-"}:
            bad.append(f"{name} separator: fresh {gs!r}")
        for i, (w, g) in enumerate(zip(wrows, grows)):
            wp, *wc = w.rsplit(None, len(cols))
            gp, *gc = g.rsplit(None, len(cols))
            if wp != gp or len(gc) != len(cols) or (not is_wall(w.split()[0]) and wc != gc):
                bad.append(f"{name} row {i + 1}: committed {w!r}, fresh {g!r}")
    return bad


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", help="stdout of `figures all --scale 4000 --seed 7`")
    ap.add_argument("--committed", default=os.path.join(root, "figures_output.txt"))
    a = ap.parse_args()
    want, got = tables(a.committed), tables(a.fresh)
    bad = differences(want, got)
    for line in bad:
        print(line)
    if bad:
        sys.exit(f"{len(bad)} differences: regenerate figures_output.txt (see EXPERIMENTS.md)")
    rows = sum(len(t[3]) for t in want)
    print(f"ok: {len(want)} tables, {rows} rows match figures_output.txt")


if __name__ == "__main__":
    main()
