//! The `figures` harness's machine-readable output: a small JSON
//! document type and a pretty printer, std only.
//!
//! The printed form follows the usual pretty-JSON conventions (two-space
//! indent, `"key": value`): object keys come out in sorted order,
//! non-finite floats as `null`, and strings are escaped, so a rerun of
//! the same experiment diffs cleanly against the committed
//! `results.json`. The `--telemetry` artifact is written through the
//! same printer, by way of the [`ToJson`] impl for [`TelemetryReport`].

use kylix_net::telemetry::{TelemetryReport, ALL_COUNTERS};
use std::collections::BTreeMap;
use std::fmt::Write;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, printed without a fraction.
    UInt(u64),
    /// A float; NaN and ±∞ print as `null`.
    Float(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; the map keeps its keys sorted.
    Object(BTreeMap<String, Json>),
}

/// Conversion of experiment row fields into [`Json`].
pub trait ToJson {
    /// This value as JSON.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::UInt(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

/// The telemetry export: the `clock` name, and per rank its `rank`,
/// `ops`, `op_nanos`, `counters` (one object per non-zero `(phase,
/// layer)` slot holding its non-zero cells by counter name), `hist`
/// trimmed after its last non-zero bucket, and `events` when the trace
/// kept any.
impl ToJson for TelemetryReport {
    fn to_json(&self) -> Json {
        let ranks: Json = self
            .ranks
            .iter()
            .enumerate()
            .map(|(rank, r)| {
                let counters: Json = r
                    .counters
                    .iter()
                    .map(|(&(phase, layer), cells)| {
                        let mut slot = BTreeMap::from([
                            ("phase".to_string(), Json::UInt(phase.into())),
                            ("layer".to_string(), Json::UInt(layer.into())),
                        ]);
                        for (counter, &n) in ALL_COUNTERS.iter().zip(cells) {
                            if n != 0 {
                                slot.insert(counter.name().to_string(), Json::UInt(n));
                            }
                        }
                        Json::Object(slot)
                    })
                    .collect();
                let top = r.hist.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
                let hist = &r.hist[..top];
                let events: Json = r
                    .events
                    .iter()
                    .map(|e| {
                        Json::object(&[
                            ("t", &e.t),
                            ("phase", &u64::from(e.phase)),
                            ("layer", &u64::from(e.layer)),
                            ("label", &e.label),
                            ("value", &e.value),
                        ])
                    })
                    .collect();
                let mut fields: Vec<(&str, &dyn ToJson)> = vec![
                    ("rank", &rank),
                    ("ops", &r.ops),
                    ("op_nanos", &r.op_nanos),
                    ("counters", &counters),
                    ("hist", &hist),
                ];
                if !r.events.is_empty() {
                    fields.push(("events", &events));
                }
                Json::object(&fields)
            })
            .collect();
        Json::object(&[("clock", &self.clock.name()), ("ranks", &ranks)])
    }
}

impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(iter: I) -> Self {
        Json::Array(iter.into_iter().collect())
    }
}

impl Json {
    /// An object from `(key, value)` fields; a repeated key keeps its
    /// last value.
    pub fn object(fields: &[(&str, &dyn ToJson)]) -> Json {
        Json::Object(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }

    /// Pretty-printed text, with no trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            // `{:?}` is the shortest text that parses back to the same
            // f64, and keeps the `.0` on integral values.
            Json::Float(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => write_seq(out, depth, '[', ']', items.iter(), |out, v| {
                v.write(out, depth + 1)
            }),
            Json::Object(fields) => {
                write_seq(out, depth, '{', '}', fields.iter(), |out, (k, v)| {
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                })
            }
        }
    }
}

/// `open`, one item per line indented one level deeper, `close`; an
/// empty sequence prints as `open close` on one line (`[]`, `{}`).
fn write_seq<I: ExactSizeIterator>(
    out: &mut String,
    depth: usize,
    open: char,
    close: char,
    items: I,
    mut item: impl FnMut(&mut String, I::Item),
) {
    out.push(open);
    let empty = items.len() == 0;
    for (i, v) in items.enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        indent(out, depth + 1);
        item(out, v);
    }
    if !empty {
        out.push('\n');
        indent(out, depth);
    }
    out.push(close);
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use kylix_net::telemetry::{Clock, Counter, Telemetry};

    #[test]
    fn keys_print_sorted_whatever_the_field_order() {
        let doc = Json::object(&[("zeta", &1u64), ("alpha", &2u64), ("mid", &true)]);
        assert_eq!(
            doc.to_pretty(),
            "{\n  \"alpha\": 2,\n  \"mid\": true,\n  \"zeta\": 1\n}"
        );
    }

    #[test]
    fn non_finite_floats_print_as_null() {
        let row = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5, 78703000.0];
        assert_eq!(
            row.to_json().to_pretty(),
            "[\n  null,\n  null,\n  null,\n  0.5,\n  78703000.0\n]"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let s = "quote \" backslash \\ newline \n tab \t bell \u{07} é";
        assert_eq!(
            s.to_json().to_pretty(),
            "\"quote \\\" backslash \\\\ newline \\n tab \\t bell \\u0007 é\""
        );
    }

    #[test]
    fn nesting_indents_and_empty_containers_stay_inline() {
        let empty: Vec<u64> = Vec::new();
        let inner = Json::object(&[("xs", &vec![1u64, 2]), ("none", &empty)]);
        let doc = Json::object(&[("rows", &vec![inner]), ("tag", &"t")]);
        assert_eq!(
            doc.to_pretty(),
            "{\n  \"rows\": [\n    {\n      \"none\": [],\n      \"xs\": [\n        1,\n        2\n      ]\n    }\n  ],\n  \"tag\": \"t\"\n}"
        );
    }

    fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
        match doc {
            Json::Object(fields) => fields.get(key).unwrap_or_else(|| panic!("no {key}")),
            other => panic!("{key}: not an object: {other:?}"),
        }
    }

    fn items(doc: &Json) -> &[Json] {
        match doc {
            Json::Array(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn uint(doc: &Json) -> u64 {
        match doc {
            Json::UInt(n) => *n,
            other => panic!("not an unsigned integer: {other:?}"),
        }
    }

    fn text(doc: &Json) -> &str {
        match doc {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    /// Every field of a 2-rank traced report reads back out of its
    /// export: the clock, counters by name with zero cells left out,
    /// the op totals, the trimmed histogram and each trace event.
    #[test]
    fn telemetry_export_round_trips() {
        let tel = Telemetry::with_trace(2, Clock::Virtual, 8);
        tel.rank(0).add(1, 2, Counter::BytesSent, 160);
        tel.rank(0).add(1, 2, Counter::MsgsSent, 2);
        tel.rank(0).add(3, 0, Counter::SelfBytes, 24);
        tel.rank(0).record_op(1500);
        tel.rank(0).record_op(3);
        tel.rank(1).trace_event(0.5, 1, 2, "reduce_op", 1500);
        tel.rank(1).trace_event(1.25, 7, 0, "sim_emit", 64);
        let rep = tel.report();
        let doc = rep.to_json();

        assert_eq!(text(field(&doc, "clock")), "virtual");
        let ranks = items(field(&doc, "ranks"));
        assert_eq!(ranks.len(), 2);
        for (i, (js, r)) in ranks.iter().zip(&rep.ranks).enumerate() {
            assert_eq!(uint(field(js, "rank")), i as u64);
            assert_eq!(uint(field(js, "ops")), r.ops);
            assert_eq!(uint(field(js, "op_nanos")), r.op_nanos);
            let hist: Vec<u64> = items(field(js, "hist")).iter().map(uint).collect();
            let top = r.hist.iter().rposition(|&c| c != 0).map_or(0, |b| b + 1);
            assert_eq!(hist, r.hist[..top]);

            let mut cells = BTreeMap::new();
            for slot in items(field(js, "counters")) {
                let Json::Object(named) = slot else {
                    panic!("counter slot {slot:?}")
                };
                let key = (uint(field(slot, "phase")), uint(field(slot, "layer")));
                for (name, n) in named
                    .iter()
                    .filter(|(k, _)| !["phase", "layer"].contains(&k.as_str()))
                {
                    assert_ne!(uint(n), 0, "zero cell {name} exported");
                    cells.insert((key, name.clone()), uint(n));
                }
            }
            let mut want = BTreeMap::new();
            for (&(phase, layer), kinds) in &r.counters {
                for (counter, &n) in ALL_COUNTERS.iter().zip(kinds).filter(|(_, &n)| n != 0) {
                    want.insert(
                        ((phase.into(), layer.into()), counter.name().to_string()),
                        n,
                    );
                }
            }
            assert_eq!(cells, want, "rank {i} counters");

            if r.events.is_empty() {
                let Json::Object(fields) = js else {
                    panic!("rank {i}: {js:?}")
                };
                assert!(!fields.contains_key("events"), "rank {i}: empty events");
                continue;
            }
            let events = items(field(js, "events"));
            assert_eq!(events.len(), r.events.len());
            for (e, want) in events.iter().zip(&r.events) {
                assert!(matches!(field(e, "t"), Json::Float(t) if *t == want.t));
                assert_eq!(uint(field(e, "phase")), u64::from(want.phase));
                assert_eq!(uint(field(e, "layer")), u64::from(want.layer));
                assert_eq!(text(field(e, "label")), want.label);
                assert_eq!(uint(field(e, "value")), want.value);
            }
        }
        // The report itself holds what was recorded, so the checks
        // above compared something: ops on rank 0, events on rank 1.
        assert_eq!((rep.ranks[0].ops, rep.ranks[0].op_nanos), (2, 1503));
        assert_eq!(
            (rep.ranks[0].events.len(), rep.ranks[1].events.len()),
            (0, 2)
        );
    }
}
