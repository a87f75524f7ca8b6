#!/usr/bin/env python3
"""Run kybench on every workload and record each run's result line.

    python3 scripts/kybench_record.py OUT SECONDS SEED [SEED ...]

runs the benchmark command of BENCHMARK.json with `--trace 0 --seconds
SECONDS` for each workload in BENCHMARK.json and each seed, passing
kybench's output through, and writes OUT:

    {"commit": ..., "cpu": ..., "seconds": ..., "runs": [
        {"workload": ..., "seed": ..., "steal_s": ..., "line": ...}, ...]}

`commit` is the commit measured: HEAD, or for a tree with uncommitted
edits the commit `git stash create` makes of it (no ref moves). `cpu` is
the model name from /proc/cpuinfo. `line` is kybench's last output line,
verbatim. `steal_s` is the hypervisor steal time the host's /proc/stat
counted during the run, in seconds of one CPU: a run that met a lot of
it measured a busy host, not the code.

OUT is written even when a run fails; the exit status is 1 if any run
exited non-zero or reported a wrong result, so this is also a
correctness smoke. Standard library only.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 300


def git(*args):
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def steal_s():
    """Steal time summed over all CPUs, in seconds (None off Linux)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def run(command, workload, seed, seconds):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    before = steal_s()
    try:
        proc = subprocess.run(
            command + args + ["--trace", "0"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
        out, status = proc.stdout, proc.returncode
        sys.stderr.write(proc.stderr)
    except subprocess.TimeoutExpired as e:
        out, status = (e.stdout or b"").decode(), "timeout"
    after = steal_s()
    sys.stdout.write(out)
    lines = out.splitlines()
    line = lines[-1] if lines else ""
    ok = status == 0 and line.startswith("{")
    if ok:
        doc = json.loads(line)
        ok = doc["correct"] and not doc["failed"]
    if not ok:
        print(f"{workload} seed {seed}: kybench exited {status}", file=sys.stderr)
    steal = None if before is None else round(after - before, 2)
    return ok, {"workload": workload, "seed": seed, "steal_s": steal, "line": line}


def main():
    if len(sys.argv) < 4:
        sys.exit(__doc__.split("\n\n")[1])
    out, seconds, seeds = sys.argv[1], int(sys.argv[2]), [int(s) for s in sys.argv[3:]]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    commit = git("stash", "create") or git("rev-parse", "HEAD")
    runs, all_ok = [], True
    for w in bench["workloads"]:
        for seed in seeds:
            ok, record = run(bench["command"], w["name"], seed, seconds)
            all_ok &= ok
            runs.append(record)
    doc = {"commit": commit, "cpu": cpu_model(), "seconds": seconds, "runs": runs}
    with open(out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
