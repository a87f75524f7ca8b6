#!/usr/bin/env python3
"""Check the EXPERIMENTS.md tables against results.json.

EXPERIMENTS.md quotes the simulator's numbers by hand. This compares
every cell of the Fig. 6, Fig. 7, Fig. 9, Table I and straggler tables,
the measured rows of the Fig. 5 table, the measured column of the
Fig. 8 table and every value of the Ablations table with the matching
results.json row, at the precision the cell is printed with ("0.193"
must be the value rounded to three decimals, "2.6×" the speedup rounded
to one, and "1633" the full-scale MB rounded to a whole one). Exits 1
and names each cell that differs.

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


def words(label):
    """`8×4 rep=2, straggler` -> {'8x4', 'rep=2', 'straggler'}."""
    return set(re.findall(r"[\w=.]+", label.replace("×", "x").replace("-", " ").lower()))


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
        results = json.load(f)
    exps, scale = results["experiments"], results["scale"]
    ck = Checker()

    # Fig. 5's measured rows, in full-scale MB; the predicted rows come
    # from the model and are not in results.json.
    mb = scale / 1e6
    table = [row for row in table_after(text, "Fig. 5")[1:] if row[0].endswith("(measured)")]
    for row, r in ck.rows("Fig. 5", table, exps["fig5"]):
        where = f"Fig. 5 {row[0]}"
        dataset, plan = row[0].removesuffix(" (measured)").split(", ")
        ck.same(where + " dataset", dataset, r["dataset"])
        ck.same(where + " plan", plan.replace("×", "x"), "x".join(map(str, r["degrees"])))
        for l, cell in enumerate(row[1:-1]):
            if l < len(r["measured_bytes"]):
                ck.num(f"{where} layer {l + 1}", cell, r["measured_bytes"][l] * mb)
            else:
                ck.same(f"{where} layer {l + 1}", cell, "—")
        ck.num(where + " bottom", row[-1], r["bottom_bytes"] * mb)

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

    table = table_after(text, "Fig. 8")[1:]
    for i, (row, r) in enumerate(ck.rows("Fig. 8", table, exps["fig8"])):
        where = f"Fig. 8 row {i + 1}"
        ck.same(where + " dataset", row[0] + "-like", r["dataset"])
        ck.same(where + " system", row[1].removesuffix(" (model)"), r["system"])
        ck.num(where + " measured", row[2], r["seconds_per_iter"])

    # An Ablations row is one study: its variants cell names them (in
    # its own order, by a subset of each results.json variant's words)
    # and its result cell quotes their values in that order, in MB when
    # it says so.
    unquoted = list(exps["ablations"])
    for row in table_after(text, "Ablations")[1:]:
        study, variants, result = row[0], row[1].split(" / "), row[2].split(" — ")[0]
        values = re.findall(r"\d+(?:\.\d+)?", result)
        ck.cells += 1
        if len(values) != len(variants):
            ck.bad.append(f"Ablations {study}: {len(variants)} variants, {len(values)} values")
            continue
        for variant, cell in zip(variants, values):
            where = f"Ablations {study} / {variant}"
            found = [
                r
                for r in unquoted
                if study.startswith(r["study"].replace("-", " ")) and words(variant) <= words(r["variant"])
            ]
            if len(found) != 1:
                ck.bad.append(f"{where}: matches {len(found)} unquoted results.json rows")
                continue
            unquoted.remove(found[0])
            ck.num(where, cell, found[0]["value"] / (1e6 if "MB" in result else 1))
    for r in unquoted:
        ck.bad.append(f"Ablations: {r['study']} / {r['variant']} is not quoted")

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
