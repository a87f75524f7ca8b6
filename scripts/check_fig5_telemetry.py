#!/usr/bin/env python3
"""Check the Fig. 5 telemetry artifact written by `figures --telemetry`.

The file must name the `fig5` experiment and hold at least one
profile; every profile's telemetry must list ranks, and those ranks
must have recorded sends. Exits 1 on the first failed check.

    cargo run --release --offline -p kylix-bench --bin figures -- \\
        fig5 --quick --telemetry BENCH_fig5_telemetry.json
    python3 scripts/check_fig5_telemetry.py [BENCH_fig5_telemetry.json]

Standard library only.
"""

import argparse
import json


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
        sent = sum(
            row.get("msgs_sent", 0)
            for r in ranks
            for row in r["counters"]
        )
        assert sent > 0, f"{p['dataset']}: telemetry recorded no sends"
    print(f"ok: {len(profiles)} profiles, {len(ranks)} ranks each")


if __name__ == "__main__":
    main()
