#!/usr/bin/env python3
"""Alternating before/after pairs of the kybench benchmark.

Builds two revisions of the repository, each in its own checkout with
its own CARGO_TARGET_DIR, runs the benchmark command of BENCHMARK.json
on both in N alternating pairs, and prints each side's median and
quartiles per metric, the pairs the change won, and whether the change
wins at least 9 in 10 pairs by a median gap wider than the parent's
interquartile range.

    python3 scripts/kybench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload twitter-thread --pairs 10 --seconds 30

Each checkout is a `git archive` of its revision, so uncommitted edits
are never measured; `git stash create` names a commit of the working
tree without moving any ref. Targets never share a directory: workspace
artifact names do not depend on the checkout path, so two checkouts
sharing one target directory can run each other's binary. `--builds 2`
adds a second checkout and build of each side under another directory;
pairs alternate between the builds, and the script says whether the two
builds of a side have byte-identical `.text` sections. Where they do,
the spread between them is host drift over the run, not code placement.
Pair i runs seed i + 1 on both sides and uses build i mod --builds; the
side that runs first flips after each round of builds (with one build,
even pairs run the parent first, odd pairs the change).

Run it from inside the repository. Standard library only, and
BENCHMARK.json is only read.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")


def git(root, *args):
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True).stdout


def checkout(root, sha, dest):
    """Extract `sha` into `dest/src`, unless it already holds it."""
    src = os.path.join(dest, "src")
    stamp = os.path.join(dest, "rev")
    if os.path.exists(stamp) and open(stamp).read() == sha:
        return src
    shutil.rmtree(src, ignore_errors=True)
    os.makedirs(src)
    with tarfile.open(fileobj=io.BytesIO(git(root, "archive", sha))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(src, filter="data")
        else:
            tar.extractall(src)
    with open(stamp, "w") as f:
        f.write(sha)
    return src


def text_section(path):
    """The bytes of the `.text` section of the ELF64 file at `path`."""
    with open(path, "rb") as f:
        elf = f.read()
    if elf[:4] != b"\x7fELF" or elf[4] != 2:
        raise ValueError(f"{path}: not an ELF64 file")
    end = "<" if elf[5] == 1 else ">"
    shoff, = struct.unpack_from(end + "Q", elf, 0x28)
    shentsize, shnum, shstrndx = struct.unpack_from(end + "HHH", elf, 0x3A)

    def header(i):
        # sh_name, sh_type, sh_flags, sh_addr, sh_offset, sh_size
        return struct.unpack_from(end + "IIQQQQ", elf, shoff + i * shentsize)

    names = header(shstrndx)
    for i in range(shnum):
        name, _, _, _, offset, size = header(i)
        at = names[4] + name
        if elf[at : elf.index(b"\0", at)] == b".text":
            return elf[offset : offset + size]
    raise ValueError(f"{path}: no .text section")


def run_one(build, command, workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed)]
    args += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(
        command + args, cwd=build["src"], env=build["env"], capture_output=True, text=True
    )
    lines = reversed(proc.stdout.splitlines())
    line = next((l for l in lines if l.startswith("{")), None)
    if proc.returncode != 0 or line is None:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"{build['name']} seed {seed}: kybench exited {proc.returncode}")
    doc = json.loads(line)
    if not doc["correct"] or doc["failed"]:
        sys.exit(f"{build['name']} seed {seed}: correct {doc['correct']}, failed {doc['failed']}")
    return {k: v["value"] for k, v in doc["metrics"].items()}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def fmt(x):
    return f"{x:.4g}"


def main():
    root = git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1", help="revision measured as the parent")
    ap.add_argument("--change", default="HEAD", help="revision measured as the change")
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--builds", type=int, choices=(1, 2), default=1)
    ap.add_argument(
        "--workdir",
        help="where checkouts and targets live, kept and reused while the "
        "revision matches (default: a temporary directory, removed at the end)",
    )
    a = ap.parse_args()
    if a.pairs < 1:
        ap.error("--pairs must be at least 1")

    command = bench["command"]
    build_cmd = ["build" if c == "run" else c for c in command[: command.index("--")]]
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    if a.trace:
        metrics += [(m["name"], m["better"]) for m in bench["per_layer"]]

    workdir = a.workdir or tempfile.mkdtemp(prefix="kybench-pairs-")
    builds = {}
    try:
        for side, rev in zip(SIDES, (a.parent, a.change)):
            sha = git(root, "rev-parse", "--verify", rev + "^{commit}").decode().strip()
            for b in range(a.builds):
                dest = os.path.join(workdir, f"{side}-{b + 1}")
                src = checkout(root, sha, dest)
                env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(dest, "target"))
                name = f"{side} {sha[:10]} build {b + 1}"
                print(f"building {name} in {src}", file=sys.stderr, flush=True)
                subprocess.run(build_cmd, cwd=src, env=env, check=True)
                binary = os.path.join(dest, "target", "release", command[command.index("--bin") + 1])
                builds[side, b] = {"name": name, "src": src, "env": env, "binary": binary}
        # Whether a side's builds hold the same machine code, read before
        # the workdir may be removed.
        same_text = {
            side: len({text_section(builds[side, b]["binary"]) for b in range(a.builds)}) == 1
            for side in SIDES
        }

        # runs[side] = [(build, metrics)] in pair order
        runs = {side: [] for side in SIDES}
        for i in range(a.pairs):
            b = i % a.builds
            # The side that runs first flips every round of builds, so
            # each build runs first and second equally often.
            order = SIDES if (i // a.builds) % 2 == 0 else SIDES[::-1]
            for side in order:
                got = run_one(builds[side, b], command, a.workload, i + 1, a.seconds, a.trace)
                runs[side].append((b, got))
                ops = got.get("ops_s")
                ops = fmt(ops) if ops else "-"
                print(
                    f"pair {i + 1}/{a.pairs} {side} (build {b + 1}, seed {i + 1}): ops_s {ops}",
                    file=sys.stderr,
                    flush=True,
                )
    finally:
        if not a.workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"workload {a.workload}: {a.pairs} pairs at --seconds {a.seconds:g} --trace {a.trace}, "
        f"parent {a.parent}, change {a.change}, {a.builds} build(s) per side"
    )
    print(
        "claim rule: change wins >= 9/10 of pairs and its median beats "
        "the parent's by more than the parent's IQR"
    )
    print(
        f"{'metric':<34} {'better':<6} {'parent median (q1-q3)':>30} "
        f"{'change median (q1-q3)':>30} {'ratio':>7} {'won':>7}  rule"
    )
    for name, better in metrics:
        pairs = [
            (p[name], c[name])
            for (_, p), (_, c) in zip(runs["parent"], runs["change"])
            if name in p and name in c
        ]
        if not pairs:
            continue
        pv, cv = [p for p, _ in pairs], [c for _, c in pairs]
        sign = 1 if better == "higher" else -1
        won = sum(1 for p, c in pairs if sign * (c - p) > 0)
        pq1, pmed, pq3 = quartiles(pv)
        cq1, cmed, cq3 = quartiles(cv)
        holds = won * 10 >= 9 * len(pairs) and sign * (cmed - pmed) > pq3 - pq1
        ratio = cmed / pmed if pmed else float("nan")
        parent = f"{fmt(pmed)} ({fmt(pq1)}-{fmt(pq3)})"
        change = f"{fmt(cmed)} ({fmt(cq1)}-{fmt(cq3)})"
        print(
            f"{name:<34} {better:<6} {parent:>30} {change:>30} {ratio:>7.3f} "
            f"{won:>3}/{len(pairs):<3}  {'holds' if holds else 'no'}"
        )
    if a.builds > 1:
        print("ops_s median per build (builds alternate every pair):")
        for side in SIDES:
            per = []
            for b in range(a.builds):
                xs = [m["ops_s"] for bb, m in runs[side] if bb == b and "ops_s" in m]
                per.append(f"build {b + 1} {fmt(statistics.median(xs)) if xs else '-'}")
            if same_text[side]:
                spread = ".text byte-identical, so the spread is host drift"
            else:
                spread = ".text differs, so the spread is code placement and host drift"
            print(f"  {side}: " + ", ".join(per) + f" ({spread})")


if __name__ == "__main__":
    main()
