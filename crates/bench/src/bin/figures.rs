//! Regenerate every table and figure of the Kylix paper's evaluation.
//!
//! ```text
//! figures [EXPERIMENT|all]… [--scale N] [--seed N] [--quick] [--json PATH] [--telemetry PATH]
//! ```
//!
//! `EXPERIMENTS` is the one table of experiments: each name with its
//! runner, in the order `all` (or no name) runs them; `--help` lists the
//! names. A runner's report is one list of `Col`s, an entry per reported
//! field giving its text header, its JSON key and how its cell prints;
//! `report` prints the aligned text table from that list and returns the
//! JSON rows that `--json` dumps (used to refresh EXPERIMENTS.md). A
//! field only one output shows has an empty key or header. A missing or
//! malformed flag value prints the usage and exits with 2, as do an
//! unknown experiment, `--scale 0` and `--telemetry` without `fig5`.
//! `--telemetry` writes the per-rank telemetry behind the Fig. 5
//! volumes (the CI build artifact) through the same JSON printer, one
//! `{dataset, telemetry}` profile per dataset. `--quick` trims the fault
//! and straggler sweeps to their CI-smoke subsets and `merge` to fewer
//! timed calls.

use kylix_bench::json::{Json, ToJson};
use kylix_bench::{
    ablation, fault_sweep, fig2, fig4, fig5, fig6, fig7, fig8, fig9, merge, straggler, table1,
};
use std::collections::BTreeMap;
use Cell::*;

struct Args {
    which: Vec<(&'static str, Runner)>,
    scale: u64,
    seed: u64,
    quick: bool,
    json: Option<String>,
    telemetry: Option<String>,
}

/// Runs an experiment, prints its tables and returns its JSON rows.
type Runner = fn(&Args) -> Json;

/// One reported field of a row type `R`: the text column's header, the
/// JSON key, the field's value, and how that value prints as a cell. An
/// empty header keeps the field out of the text table, an empty key out
/// of the JSON.
struct Col<R> {
    head: &'static str,
    key: &'static str,
    value: fn(&R) -> Json,
    cell: Cell,
}

fn col<R>(head: &'static str, key: &'static str, value: fn(&R) -> Json, cell: Cell) -> Col<R> {
    Col {
        head,
        key,
        value,
        cell,
    }
}

/// The `Col` of a row's field `$field`: its text header is `$head` (empty
/// for JSON only), its JSON key the field's own name, and `$cell` prints
/// its value.
macro_rules! field {
    ($head:literal, $field:ident, $cell:expr) => {
        col($head, stringify!($field), |r| r.$field.to_json(), $cell)
    };
}

/// Print `rows` as `title`'s aligned table of the text columns.
fn table<'a, R: 'a>(title: &str, rows: impl IntoIterator<Item = &'a R>, cols: &[Col<R>]) {
    let cols: Vec<&Col<R>> = cols.iter().filter(|c| !c.head.is_empty()).collect();
    let mut lines = vec![cols.iter().map(|c| c.head.to_string()).collect::<Vec<_>>()];
    for r in rows {
        lines.push(cols.iter().map(|c| c.cell.print(&(c.value)(r))).collect());
    }
    let mut widths = vec![0; cols.len()];
    for line in &lines {
        for (w, cell) in widths.iter_mut().zip(line) {
            *w = (*w).max(cell.len());
        }
    }
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
    println!("\n=== {title} ===");
    for (i, line) in lines.iter().enumerate() {
        let cells: Vec<String> = line
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", cells.join("  "));
        if i == 0 {
            println!("{rule}");
        }
    }
}

/// Every row's keyed columns as a JSON array of objects.
fn json_rows<R>(rows: &[R], cols: &[Col<R>]) -> Json {
    rows.iter()
        .map(|r| {
            let fields = cols.iter().filter(|c| !c.key.is_empty());
            Json::Object(fields.map(|c| (c.key.to_string(), (c.value)(r))).collect())
        })
        .collect()
}

/// Print `rows` as `title`'s table and return them as JSON rows.
fn report<R>(title: &str, rows: &[R], cols: &[Col<R>]) -> Json {
    table(title, rows, cols);
    json_rows(rows, cols)
}

/// How a field's value prints as a text cell.
#[derive(Clone, Copy, Debug)]
enum Cell {
    /// A string as is, anything else as its JSON text.
    Plain,
    /// A number with this many decimals.
    Fixed(usize),
    /// A ratio: this many decimals and an `x`.
    Ratio(usize),
    /// A fraction as a percentage with one decimal.
    Percent,
    /// Rounded to a power of ten: `1e-3`.
    Decade,
    /// Bytes as whole KB.
    Kb,
    /// Bytes as MB with two decimals.
    Mb,
    /// `[8, 4, 2]` as `8x4x2`.
    Dims,
    /// `true` as `yes`, `false` as `NO`.
    YesNo,
}

impl Cell {
    fn print(self, v: &Json) -> String {
        let x = || match v {
            Json::Float(x) => *x,
            Json::UInt(n) => *n as f64,
            other => panic!("{self:?} prints a number, not {other:?}"),
        };
        match (self, v) {
            (Plain, Json::Str(s)) => s.clone(),
            (Plain, v) => v.to_pretty(),
            (Fixed(p), _) => format!("{:.*}", p, x()),
            (Ratio(p), _) => format!("{:.*}x", p, x()),
            (Percent, _) => format!("{:.1}%", x() * 100.0),
            (Decade, _) => format!("{:.0e}", x()),
            (Kb, _) => format!("{} KB", x() as u64 / 1024),
            (Mb, _) => format!("{:.2}", x() / 1e6),
            (Dims, Json::Array(d)) => d.iter().map(Json::to_pretty).collect::<Vec<_>>().join("x"),
            (YesNo, Json::Bool(b)) => if *b { "yes" } else { "NO" }.into(),
            (cell, v) => panic!("{cell:?} cannot print {v:?}"),
        }
    }
}

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[(&str, Runner)] = &[
    ("fig2", |_| {
        report(
            "Fig. 2 — throughput vs packet size (10 Gb/s NIC model)",
            &fig2::run(),
            &[
                field!("packet", packet_bytes, Kb),
                field!("measured Gb/s", measured_gbps, Fixed(2)),
                col("model Gb/s", "", |r| r.model_gbps.to_json(), Fixed(2)),
                field!("utilisation", utilisation, Percent),
            ],
        )
    }),
    ("fig4", |_| {
        let rows = fig4::run(1 << 18);
        let cols: [Col<fig4::Fig4Row>; 3] = [
            field!("alpha", alpha, Fixed(1)),
            field!("lambda/lambda_0.9", lambda_norm, Decade),
            field!("density", density, Fixed(4)),
        ];
        // The text shows the decades of λ/λ₀.₉ only.
        let shown = |r: &&fig4::Fig4Row| {
            let l = r.lambda_norm.log10();
            (l - l.round()).abs() < 1e-9
        };
        table(
            "Fig. 4 — density vs normalised scaling factor (n = 2^18)",
            rows.iter().filter(shown),
            &cols,
        );
        json_rows(&rows, &cols)
    }),
    ("fig5", |a| {
        let profiles = fig5::run(a.scale, a.seed);
        if let Some(path) = &a.telemetry {
            let profiles: Json = profiles
                .iter()
                .map(|p| Json::object(&[("dataset", &p.dataset), ("telemetry", &p.telemetry)]))
                .collect();
            let artifact = Json::object(&[
                ("experiment", &"fig5"),
                ("scale", &a.scale),
                ("seed", &a.seed),
                ("profiles", &profiles),
            ]);
            std::fs::write(path, artifact.to_pretty()).expect("write telemetry");
            eprintln!("wrote {path}");
        }
        // Each profile prints one table: per layer, then the reduced
        // bottom, its (label, measured, predicted) bytes at full scale.
        let s = a.scale as f64;
        for p in &profiles {
            let mut layers: Vec<(String, f64, f64)> = p
                .measured_bytes
                .iter()
                .zip(&p.predicted_bytes)
                .enumerate()
                .map(|(l, (&m, &pr))| (format!("layer {}", l + 1), m as f64 * s, pr * s))
                .collect();
            let bottom = p.bottom_bytes as f64 * s;
            layers.push(("reduced (bottom)".into(), bottom, p.predicted_bottom * s));
            let degrees = Dims.print(&p.degrees.to_json());
            table(
                &format!(
                    "Fig. 5 — per-layer volume, {} on {degrees} (full-scale MB)",
                    p.dataset
                ),
                &layers,
                &[
                    col("layer", "", |r: &(String, f64, f64)| r.0.to_json(), Plain),
                    col("measured MB", "", |r| r.1.to_json(), Mb),
                    col("predicted MB", "", |r| r.2.to_json(), Mb),
                ],
            );
        }
        json_rows(
            &profiles,
            &[
                field!("", dataset, Plain),
                field!("", degrees, Plain),
                field!("", measured_bytes, Plain),
                field!("", bottom_bytes, Plain),
            ],
        )
    }),
    ("fig6", |a| {
        report(
            "Fig. 6 — config/reduce time per topology (full-scale seconds)",
            &fig6::run(a.scale, a.seed),
            &[
                field!("dataset", dataset, Plain),
                field!("topology", topology, Plain),
                field!("config s", config_time, Fixed(3)),
                field!("reduce s", reduce_time, Fixed(3)),
            ],
        )
    }),
    ("fig7", |a| {
        report(
            "Fig. 7 — allreduce runtime vs thread count (8x4x2, full-scale s)",
            &fig7::run(a.scale, a.seed),
            &[
                field!("threads", threads, Plain),
                field!("runtime s", runtime, Fixed(3)),
            ],
        )
    }),
    ("table1", |a| {
        report(
            "Table I — cost of fault tolerance (full-scale seconds)",
            &table1::run(a.scale, a.seed),
            &[
                field!("system", system, Plain),
                field!("dead", dead_nodes, Plain),
                field!("config s", config_time, Fixed(3)),
                field!("reduce s", reduce_time, Fixed(3)),
            ],
        )
    }),
    ("fig8", |a| {
        report(
            "Fig. 8 — PageRank runtime per iteration (full-scale seconds, log-scale in paper)",
            &fig8::run(a.scale, a.seed),
            &[
                field!("dataset", dataset, Plain),
                field!("system", system, Plain),
                field!("s/iteration", seconds_per_iter, Fixed(3)),
            ],
        )
    }),
    ("fig9", |a| {
        report(
            "Fig. 9 — compute/comm breakdown and speedup vs cluster size",
            &fig9::run(a.scale, a.seed),
            &[
                field!("dataset", dataset, Plain),
                field!("m", m, Plain),
                field!("degrees", degrees, Dims),
                field!("compute s", compute_time, Fixed(3)),
                field!("comm s", comm_time, Fixed(3)),
                field!("speedup", speedup, Ratio(2)),
            ],
        )
    }),
    ("ablations", |a| {
        report(
            "Ablations — design-choice studies",
            &ablation::run(a.scale, a.seed),
            &[
                field!("study", study, Plain),
                field!("variant", variant, Plain),
                field!("value", value, Fixed(4)),
                field!("unit", unit, Plain),
            ],
        )
    }),
    ("faults", |a| {
        report(
            "Fault sweep — completion and overhead under injected failures",
            &fault_sweep::run(a.scale, a.seed, a.quick),
            &[
                field!("scenario", scenario, Plain),
                field!("faults", detail, Plain),
                col(
                    "done",
                    "",
                    |r| format!("{}/{}", r.completed, r.total).to_json(),
                    Plain,
                ),
                field!("", completed, Plain),
                field!("", total, Plain),
                field!("correct", correct, YesNo),
                field!("time s", time, Fixed(4)),
                field!("overhead", overhead, Ratio(2)),
                field!("rexmit", retransmits, Plain),
            ],
        )
    }),
    ("straggler", |a| {
        report(
            "Straggler sweep — fixed vs arrival-order receives (full-scale s/op)",
            &straggler::run(a.scale, a.seed, a.quick),
            &[
                field!("skew", skew, Ratio(0)),
                field!("fixed s", fixed, Fixed(4)),
                field!("arrival s", arrival, Fixed(4)),
                field!("speedup", speedup, Ratio(2)),
            ],
        )
    }),
    ("merge", |a| {
        report(
            "§VI.A — index-set union: tree merge vs hash union (wall-clock ms per call)",
            &merge::run(a.seed, a.quick),
            &[
                field!("k", k, Plain),
                field!("keys", keys, Plain),
                field!("union", union, Plain),
                field!("tree_merge ms", tree_merge_ms, Fixed(3)),
                field!("hash_union ms", hash_union_ms, Fixed(3)),
                field!("speedup", speedup, Ratio(2)),
            ],
        )
    }),
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    format!(
        "usage: figures [{}|all]… [--scale N] [--seed N] [--quick] [--json PATH] [--telemetry PATH]",
        names.join("|")
    )
}

/// Parse the command line; `Err` carries what was wrong with it.
fn parse_args() -> Result<Args, String> {
    let mut names = Vec::new();
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
            other => names.push(other.to_string()),
        }
    }
    let which = if names.is_empty() || names.iter().any(|w| w == "all") {
        EXPERIMENTS.to_vec()
    } else {
        let find = |w: &String| EXPERIMENTS.iter().find(|(name, _)| name == w).copied();
        names
            .iter()
            .map(|w| find(w).ok_or_else(|| format!("unknown experiment: {w}")))
            .collect::<Result<_, _>>()?
    };
    if scale == 0 {
        return Err("--scale needs a positive integer, got '0'".into());
    }
    if telemetry.is_some() && !which.iter().any(|&(name, _)| name == "fig5") {
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

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("figures: {e}\n{}", usage());
        std::process::exit(2);
    });
    let experiments: BTreeMap<String, Json> = args
        .which
        .iter()
        .map(|&(name, run)| (name.to_string(), run(&args)))
        .collect();
    if let Some(path) = &args.json {
        let payload = Json::object(&[
            ("scale", &args.scale),
            ("seed", &args.seed),
            ("experiments", &Json::Object(experiments)),
        ]);
        std::fs::write(path, payload.to_pretty()).expect("write json");
        eprintln!("wrote {path}");
    }
}
