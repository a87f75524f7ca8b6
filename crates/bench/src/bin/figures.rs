//! Regenerate every table and figure of the Kylix paper's evaluation.
//!
//! ```text
//! figures [EXPERIMENT|all]… [--scale N] [--seed N] [--quick] [--json PATH] [--telemetry PATH]
//! ```
//!
//! The experiments are the names in `EXPERIMENTS` (`--help` lists them);
//! `all`, or no name, runs every one in that order.
//! Each experiment prints an aligned text table; `--json` additionally
//! dumps machine-readable rows (used to refresh EXPERIMENTS.md); a
//! missing or malformed flag value prints the usage and exits with 2, as
//! do an unknown experiment, `--scale 0` and `--telemetry` without `fig5`.
//! `--telemetry` writes the per-rank telemetry behind the Fig. 5
//! volumes (the CI build artifact) through the same JSON printer, one
//! `{dataset, telemetry}` profile per dataset. `--quick` trims the fault
//! and straggler sweeps to their CI-smoke subsets and `merge` to fewer
//! timed calls.

use kylix_bench::json::Json;
use kylix_bench::{
    ablation, fault_sweep, fig2, fig4, fig5, fig6, fig7, fig8, fig9, merge, print_table, straggler,
    table1,
};
use std::collections::BTreeMap;

#[derive(Debug)]
struct Args {
    which: Vec<String>,
    scale: u64,
    seed: u64,
    quick: bool,
    json: Option<String>,
    telemetry: Option<String>,
}

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [&str; 12] = [
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table1",
    "fig8",
    "fig9",
    "ablations",
    "faults",
    "straggler",
    "merge",
];

fn usage() -> String {
    format!(
        "usage: figures [{}|all]… [--scale N] [--seed N] [--quick] [--json PATH] [--telemetry PATH]",
        EXPERIMENTS.join("|")
    )
}

/// Parse the command line; `Err` carries what was wrong with it.
fn parse_args() -> Result<Args, String> {
    let mut which = Vec::new();
    let mut scale = 4000;
    let mut seed = 7;
    let mut quick = false;
    let mut json = None;
    let mut telemetry = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{a} needs {what}"));
        match a.as_str() {
            "--scale" => scale = parse_number(&a, &value("N")?)?,
            "--seed" => seed = parse_number(&a, &value("N")?)?,
            "--quick" => quick = true,
            "--json" => json = Some(value("PATH")?),
            "--telemetry" => telemetry = Some(value("PATH")?),
            "-h" | "--help" => {
                eprintln!("{}", usage());
                std::process::exit(0);
            }
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    if let Some(w) = which.iter().find(|w| !EXPERIMENTS.contains(&w.as_str())) {
        return Err(format!("unknown experiment: {w}"));
    }
    if scale == 0 {
        return Err("--scale needs a positive integer, got '0'".into());
    }
    if telemetry.is_some() && !which.iter().any(|w| w == "fig5") {
        return Err("--telemetry writes fig5's telemetry, and fig5 is not run".into());
    }
    Ok(Args {
        which,
        scale,
        seed,
        quick,
        json,
        telemetry,
    })
}

fn parse_number(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag} needs a non-negative integer, got '{v}'"))
}

fn mb(bytes: f64) -> String {
    format!("{:.2}", bytes / 1e6)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("figures: {e}\n{}", usage());
        std::process::exit(2);
    });
    let mut json_out: BTreeMap<String, Json> = BTreeMap::new();

    for which in &args.which {
        match which.as_str() {
            "fig2" => {
                let rows = fig2::run();
                print_table(
                    "Fig. 2 — throughput vs packet size (10 Gb/s NIC model)",
                    &["packet", "measured Gb/s", "model Gb/s", "utilisation"],
                    &rows
                        .iter()
                        .map(|r| {
                            vec![
                                format!("{} KB", r.packet_bytes / 1024),
                                format!("{:.2}", r.measured_gbps),
                                format!("{:.2}", r.model_gbps),
                                format!("{:.1}%", r.utilisation * 100.0),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                json_out.insert(
                    "fig2".into(),
                    rows.iter()
                        .map(|r| {
                            Json::object(&[
                                ("packet_bytes", &r.packet_bytes),
                                ("measured_gbps", &r.measured_gbps),
                                ("utilisation", &r.utilisation),
                            ])
                        })
                        .collect(),
                );
            }
            "fig4" => {
                let rows = fig4::run(1 << 18);
                print_table(
                    "Fig. 4 — density vs normalised scaling factor (n = 2^18)",
                    &["alpha", "lambda/lambda_0.9", "density"],
                    &rows
                        .iter()
                        .filter(|r| {
                            let l = r.lambda_norm.log10();
                            (l - l.round()).abs() < 1e-9
                        })
                        .map(|r| {
                            vec![
                                format!("{:.1}", r.alpha),
                                format!("{:.0e}", r.lambda_norm),
                                format!("{:.4}", r.density),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                json_out.insert(
                    "fig4".into(),
                    rows.iter()
                        .map(|r| {
                            Json::object(&[
                                ("alpha", &r.alpha),
                                ("lambda_norm", &r.lambda_norm),
                                ("density", &r.density),
                            ])
                        })
                        .collect(),
                );
            }
            "fig5" => {
                let profiles = fig5::run(args.scale, args.seed);
                if let Some(path) = &args.telemetry {
                    let profiles: Json = profiles
                        .iter()
                        .map(|p| {
                            Json::object(&[("dataset", &p.dataset), ("telemetry", &p.telemetry)])
                        })
                        .collect();
                    let artifact = Json::object(&[
                        ("experiment", &"fig5"),
                        ("scale", &args.scale),
                        ("seed", &args.seed),
                        ("profiles", &profiles),
                    ]);
                    std::fs::write(path, artifact.to_pretty()).expect("write telemetry");
                    eprintln!("wrote {path}");
                }
                for p in &profiles {
                    let degrees: Vec<String> = p.degrees.iter().map(|d| d.to_string()).collect();
                    let mut rows = Vec::new();
                    for (l, (&m, &pr)) in
                        p.measured_bytes.iter().zip(&p.predicted_bytes).enumerate()
                    {
                        rows.push(vec![
                            format!("layer {}", l + 1),
                            mb(m as f64 * args.scale as f64),
                            mb(pr * args.scale as f64),
                        ]);
                    }
                    rows.push(vec![
                        "reduced (bottom)".into(),
                        mb(p.bottom_bytes as f64 * args.scale as f64),
                        mb(p.predicted_bottom * args.scale as f64),
                    ]);
                    print_table(
                        &format!(
                            "Fig. 5 — per-layer volume, {} on {} (full-scale MB)",
                            p.dataset,
                            degrees.join("x")
                        ),
                        &["layer", "measured MB", "predicted MB"],
                        &rows,
                    );
                }
                json_out.insert(
                    "fig5".into(),
                    profiles
                        .iter()
                        .map(|p| {
                            Json::object(&[
                                ("dataset", &p.dataset),
                                ("degrees", &p.degrees),
                                ("measured_bytes", &p.measured_bytes),
                                ("bottom_bytes", &p.bottom_bytes),
                            ])
                        })
                        .collect(),
                );
            }
            "fig6" => {
                let rows = fig6::run(args.scale, args.seed);
                print_table(
                    "Fig. 6 — config/reduce time per topology (full-scale seconds)",
                    &["dataset", "topology", "config s", "reduce s"],
                    &rows
                        .iter()
                        .map(|r| {
                            vec![
                                r.dataset.clone(),
                                r.topology.clone(),
                                format!("{:.3}", r.config_time),
                                format!("{:.3}", r.reduce_time),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                json_out.insert(
                    "fig6".into(),
                    rows.iter()
                        .map(|r| {
                            Json::object(&[
                                ("dataset", &r.dataset),
                                ("topology", &r.topology),
                                ("config_time", &r.config_time),
                                ("reduce_time", &r.reduce_time),
                            ])
                        })
                        .collect(),
                );
            }
            "fig7" => {
                let rows = fig7::run(args.scale, args.seed);
                print_table(
                    "Fig. 7 — allreduce runtime vs thread count (8x4x2, full-scale s)",
                    &["threads", "runtime s"],
                    &rows
                        .iter()
                        .map(|r| vec![r.threads.to_string(), format!("{:.3}", r.runtime)])
                        .collect::<Vec<_>>(),
                );
                json_out.insert(
                    "fig7".into(),
                    rows.iter()
                        .map(|r| Json::object(&[("threads", &r.threads), ("runtime", &r.runtime)]))
                        .collect(),
                );
            }
            "table1" => {
                let rows = table1::run(args.scale, args.seed);
                print_table(
                    "Table I — cost of fault tolerance (full-scale seconds)",
                    &["system", "dead", "config s", "reduce s"],
                    &rows
                        .iter()
                        .map(|r| {
                            vec![
                                r.system.clone(),
                                r.dead_nodes.to_string(),
                                format!("{:.3}", r.config_time),
                                format!("{:.3}", r.reduce_time),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                json_out.insert(
                    "table1".into(),
                    rows.iter()
                        .map(|r| {
                            Json::object(&[
                                ("system", &r.system),
                                ("dead_nodes", &r.dead_nodes),
                                ("config_time", &r.config_time),
                                ("reduce_time", &r.reduce_time),
                            ])
                        })
                        .collect(),
                );
            }
            "fig8" => {
                let rows = fig8::run(args.scale, args.seed);
                print_table(
                    "Fig. 8 — PageRank runtime per iteration (full-scale seconds, log-scale in paper)",
                    &["dataset", "system", "s/iteration"],
                    &rows
                        .iter()
                        .map(|r| {
                            vec![
                                r.dataset.clone(),
                                r.system.clone(),
                                format!("{:.3}", r.seconds_per_iter),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                json_out.insert(
                    "fig8".into(),
                    rows.iter()
                        .map(|r| {
                            Json::object(&[
                                ("dataset", &r.dataset),
                                ("system", &r.system),
                                ("seconds_per_iter", &r.seconds_per_iter),
                            ])
                        })
                        .collect(),
                );
            }
            "fig9" => {
                let rows = fig9::run(args.scale, args.seed);
                print_table(
                    "Fig. 9 — compute/comm breakdown and speedup vs cluster size",
                    &["dataset", "m", "degrees", "compute s", "comm s", "speedup"],
                    &rows
                        .iter()
                        .map(|r| {
                            let degrees: Vec<String> =
                                r.degrees.iter().map(|d| d.to_string()).collect();
                            vec![
                                r.dataset.clone(),
                                r.m.to_string(),
                                degrees.join("x"),
                                format!("{:.3}", r.compute_time),
                                format!("{:.3}", r.comm_time),
                                format!("{:.2}x", r.speedup),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                json_out.insert(
                    "fig9".into(),
                    rows.iter()
                        .map(|r| {
                            Json::object(&[
                                ("dataset", &r.dataset),
                                ("m", &r.m),
                                ("degrees", &r.degrees),
                                ("compute_time", &r.compute_time),
                                ("comm_time", &r.comm_time),
                                ("speedup", &r.speedup),
                            ])
                        })
                        .collect(),
                );
            }
            "ablations" => {
                let rows = ablation::run(args.scale, args.seed);
                print_table(
                    "Ablations — design-choice studies",
                    &["study", "variant", "value", "unit"],
                    &rows
                        .iter()
                        .map(|r| {
                            vec![
                                r.study.to_string(),
                                r.variant.clone(),
                                format!("{:.4}", r.value),
                                r.unit.to_string(),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                json_out.insert(
                    "ablations".into(),
                    rows.iter()
                        .map(|r| {
                            Json::object(&[
                                ("study", &r.study),
                                ("variant", &r.variant),
                                ("value", &r.value),
                                ("unit", &r.unit),
                            ])
                        })
                        .collect(),
                );
            }
            "faults" => {
                let rows = fault_sweep::run(args.scale, args.seed, args.quick);
                print_table(
                    "Fault sweep — completion and overhead under injected failures",
                    &[
                        "scenario", "faults", "done", "correct", "time s", "overhead", "rexmit",
                    ],
                    &rows
                        .iter()
                        .map(|r| {
                            vec![
                                r.scenario.to_string(),
                                r.detail.clone(),
                                format!("{}/{}", r.completed, r.total),
                                if r.correct { "yes" } else { "NO" }.to_string(),
                                format!("{:.4}", r.time),
                                format!("{:.2}x", r.overhead),
                                r.retransmits.to_string(),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                json_out.insert(
                    "faults".into(),
                    rows.iter()
                        .map(|r| {
                            Json::object(&[
                                ("scenario", &r.scenario),
                                ("detail", &r.detail),
                                ("completed", &r.completed),
                                ("total", &r.total),
                                ("correct", &r.correct),
                                ("time", &r.time),
                                ("overhead", &r.overhead),
                                ("retransmits", &r.retransmits),
                            ])
                        })
                        .collect(),
                );
            }
            "straggler" => {
                let rows = straggler::run(args.scale, args.seed, args.quick);
                print_table(
                    "Straggler sweep — fixed vs arrival-order receives (full-scale s/op)",
                    &["skew", "fixed s", "arrival s", "speedup"],
                    &rows
                        .iter()
                        .map(|r| {
                            vec![
                                format!("{:.0}x", r.skew),
                                format!("{:.4}", r.fixed),
                                format!("{:.4}", r.arrival),
                                format!("{:.2}x", r.speedup),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                json_out.insert(
                    "straggler".into(),
                    rows.iter()
                        .map(|r| {
                            Json::object(&[
                                ("skew", &r.skew),
                                ("fixed", &r.fixed),
                                ("arrival", &r.arrival),
                                ("speedup", &r.speedup),
                            ])
                        })
                        .collect(),
                );
            }
            "merge" => {
                let rows = merge::run(args.seed, args.quick);
                print_table(
                    "§VI.A — index-set union: tree merge vs hash union (wall-clock ms per call)",
                    &[
                        "k",
                        "keys",
                        "union",
                        "tree_merge ms",
                        "hash_union ms",
                        "speedup",
                    ],
                    &rows
                        .iter()
                        .map(|r| {
                            vec![
                                r.k.to_string(),
                                r.keys.to_string(),
                                r.union.to_string(),
                                format!("{:.3}", r.tree_merge_ms),
                                format!("{:.3}", r.hash_union_ms),
                                format!("{:.2}x", r.speedup),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                json_out.insert(
                    "merge".into(),
                    rows.iter()
                        .map(|r| {
                            Json::object(&[
                                ("k", &r.k),
                                ("keys", &r.keys),
                                ("union", &r.union),
                                ("tree_merge_ms", &r.tree_merge_ms),
                                ("hash_union_ms", &r.hash_union_ms),
                                ("speedup", &r.speedup),
                            ])
                        })
                        .collect(),
                );
            }
            other => unreachable!("{other} is not in EXPERIMENTS"),
        }
    }

    if let Some(path) = &args.json {
        let payload = Json::object(&[
            ("scale", &args.scale),
            ("seed", &args.seed),
            ("experiments", &Json::Object(json_out)),
        ]);
        std::fs::write(path, payload.to_pretty()).expect("write json");
        eprintln!("wrote {path}");
    }
}
