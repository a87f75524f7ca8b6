#!/usr/bin/env python3
"""Check the Fig. 5 telemetry artifact written by `figures --telemetry`.

The file must name the `fig5` experiment and hold at least one
profile; every profile's telemetry must list ranks, and those ranks
must have recorded sends. Every counter slot must sit in one of the
six wire phases, and every profile must file own parts (`self_bytes`)
under the down pass (phase 1), where Fig. 5 reads them. Exits 1 on
the first failed check.

    cargo run --release --offline -p kylix-bench --bin figures -- \\
        fig5 --quick --telemetry BENCH_fig5_telemetry.json
    python3 scripts/check_fig5_telemetry.py [BENCH_fig5_telemetry.json]

Standard library only.
"""

import argparse
import json

PHASES = 6
DOWN = 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "artifact",
        nargs="?",
        default="BENCH_fig5_telemetry.json",
        help="file written by `figures fig5 --telemetry`",
    )
    a = ap.parse_args()
    with open(a.artifact) as f:
        doc = json.load(f)
    assert doc["experiment"] == "fig5", doc.keys()
    profiles = doc["profiles"]
    assert profiles, "telemetry export has no profiles"
    for p in profiles:
        ranks = p["telemetry"]["ranks"]
        assert ranks, f"{p['dataset']}: no ranks in telemetry"
        rows = [row for r in ranks for row in r["counters"]]
        sent = sum(row.get("msgs_sent", 0) for row in rows)
        assert sent > 0, f"{p['dataset']}: telemetry recorded no sends"
        stray = sorted({row["phase"] for row in rows if row["phase"] >= PHASES})
        assert not stray, f"{p['dataset']}: counters under phases {stray}"
        own = sum(row.get("self_bytes", 0) for row in rows if row["phase"] == DOWN)
        assert own > 0, f"{p['dataset']}: no self_bytes under the down pass"
    print(f"ok: {len(profiles)} profiles, {len(ranks)} ranks each")


if __name__ == "__main__":
    main()
