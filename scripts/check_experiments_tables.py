#!/usr/bin/env python3
"""Check the EXPERIMENTS.md tables against results.json.

EXPERIMENTS.md quotes the simulator's numbers by hand. This compares
every cell of the Fig. 6, Fig. 7, Fig. 9, Table I and straggler tables
with the matching results.json row, at the precision the cell is
printed with ("0.193" must be the value rounded to three decimals, and
"2.6×" the speedup rounded to one). Exits 1 and names each cell that
differs.

    python3 scripts/check_experiments_tables.py [--experiments EXPERIMENTS.md] [--results results.json]

Standard library only.
"""

import argparse
import json
import os
import re
import sys

SUPERSCRIPT = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def table_after(text, heading):
    """Rows of the first markdown table under the `## heading` section,
    as lists of cells with emphasis stripped (header row included)."""
    start = text.find("\n## " + heading)
    if start < 0:
        raise SystemExit(f"EXPERIMENTS.md: no section '## {heading}'")
    rows = []
    for line in text[start + 1 :].splitlines()[1:]:
        if line.startswith("## "):
            break
        if line.startswith("|"):
            cells = [c.strip().replace("**", "") for c in line.strip().strip("|").split("|")]
            if not all(re.fullmatch(r"-+", c) for c in cells):
                rows.append(cells)
        elif rows:
            break
    if not rows:
        raise SystemExit(f"EXPERIMENTS.md: no table under '## {heading}'")
    return rows


def topology(cell):
    """`direct (64)` -> `64`, `binary (2⁶)` -> `2x2x2x2x2x2`, `8×4×2` -> `8x4x2`."""
    m = re.fullmatch(r"direct \((\d+)\)", cell)
    if m:
        return m.group(1)
    m = re.fullmatch(r"binary \((\d+)\^?(\d+)\)", cell.translate(SUPERSCRIPT))
    if m:
        return "x".join([m.group(1)] * int(m.group(2)))
    return cell.replace("×", "x")


class Checker:
    def __init__(self):
        self.bad = []
        self.cells = 0

    def num(self, where, cell, value):
        """`cell` is `value` rounded to the cell's printed decimals."""
        self.cells += 1
        text = cell.rstrip("×").strip()
        decimals = len(text.split(".")[1]) if "." in text else 0
        want = f"{value:.{decimals}f}"
        if text != want:
            self.bad.append(f"{where}: table says {cell!r}, results.json gives {want}")

    def same(self, where, cell, value):
        self.cells += 1
        if cell != value:
            self.bad.append(f"{where}: table says {cell!r}, results.json gives {value!r}")

    def rows(self, name, table, results):
        if len(table) != len(results):
            self.bad.append(f"{name}: {len(table)} table rows, {len(results)} in results.json")
        return zip(table, results)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--experiments", default=os.path.join(root, "EXPERIMENTS.md"))
    ap.add_argument("--results", default=os.path.join(root, "results.json"))
    a = ap.parse_args()
    with open(a.experiments) as f:
        text = f.read()
    with open(a.results) as f:
        exps = json.load(f)["experiments"]
    ck = Checker()

    table = table_after(text, "Fig. 6")[1:]
    for i, (row, r) in enumerate(ck.rows("Fig. 6", table, exps["fig6"])):
        where = f"Fig. 6 row {i + 1}"
        ck.same(where + " dataset", row[0], r["dataset"])
        ck.same(where + " topology", topology(row[1]), r["topology"])
        ck.num(where + " config", row[2], r["config_time"])
        ck.num(where + " reduce", row[3], r["reduce_time"])

    header, runtime = table_after(text, "Fig. 7")[:2]
    for i, ((threads, cell), r) in enumerate(
        ck.rows("Fig. 7", list(zip(header[1:], runtime[1:])), exps["fig7"])
    ):
        where = f"Fig. 7 column {i + 1}"
        ck.same(where + " threads", threads, str(r["threads"]))
        ck.num(where + " runtime", cell, r["runtime"])

    # Fig. 9 shows a subset of the sizes; each shown row must exist.
    by_size = {(r["dataset"].removesuffix("-like"), str(r["m"])): r for r in exps["fig9"]}
    for row in table_after(text, "Fig. 9")[1:]:
        where = f"Fig. 9 {row[0]} m={row[1]}"
        r = by_size.get((row[0], row[1]))
        ck.cells += 1
        if r is None:
            ck.bad.append(f"{where}: no such row in results.json")
            continue
        ck.same(where + " degrees", row[2].replace("×", "x"), "x".join(map(str, r["degrees"])))
        ck.num(where + " compute", row[3], r["compute_time"])
        ck.num(where + " comm", row[4], r["comm_time"])
        ck.num(where + " speedup", row[5], r["speedup"])

    table = table_after(text, "Table I")[1:]
    for i, (row, r) in enumerate(ck.rows("Table I", table, exps["table1"])):
        where = f"Table I row {i + 1}"
        ck.same(where + " system", row[0].replace("×", "x"), r["system"])
        ck.same(where + " dead", row[1], str(r["dead_nodes"]))
        ck.num(where + " config", row[2], r["config_time"])
        ck.num(where + " reduce", row[3], r["reduce_time"])

    table = table_after(text, "Straggler sweep")[1:]
    for i, (row, r) in enumerate(ck.rows("Straggler", table, exps["straggler"])):
        where = f"Straggler row {i + 1}"
        ck.num(where + " skew", row[0], r["skew"])
        ck.num(where + " fixed", row[1], r["fixed"])
        ck.num(where + " arrival", row[2], r["arrival"])
        ck.num(where + " speedup", row[3], r["speedup"])

    for line in ck.bad:
        print(line)
    if ck.bad:
        sys.exit(f"{len(ck.bad)} EXPERIMENTS.md cells differ from results.json")
    print(f"ok: {ck.cells} EXPERIMENTS.md cells match results.json")


if __name__ == "__main__":
    main()
