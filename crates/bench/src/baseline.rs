//! Checked-in baseline reading and the >20 % regression gate.
//!
//! The vendored `serde_json` stand-in is serialize-only, so the gate
//! carries its own reader for the one shape `results/` uses: an array
//! of flat objects whose interesting fields are numbers. Non-numeric
//! fields (e.g. `"weekday": "Mon"`) are skipped.

use serde::Serialize;
use std::collections::BTreeMap;

/// Relative drift beyond which a metric counts as regressed.
pub const GATE_TOLERANCE: f64 = 0.20;

/// One row of a `results/` file: its numeric fields by name.
pub type Row = BTreeMap<String, f64>;

/// Parse `[{...}, {...}]` into one map of numeric fields per object.
/// Nested containers are not supported (none of the baselines use any).
pub fn parse_numeric_objects(text: &str) -> Vec<Row> {
    let mut out = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '{' {
            continue;
        }
        let mut obj = BTreeMap::new();
        loop {
            // Find the next key (or the end of the object).
            let mut key = String::new();
            let mut in_key = false;
            let mut closed = false;
            for c in chars.by_ref() {
                match c {
                    '"' if !in_key => in_key = true,
                    '"' if in_key => break,
                    '}' if !in_key => {
                        closed = true;
                        break;
                    }
                    _ if in_key => key.push(c),
                    _ => {}
                }
            }
            if closed || key.is_empty() {
                break;
            }
            // Skip to the value after ':'.
            for c in chars.by_ref() {
                if c == ':' {
                    break;
                }
            }
            // Collect the raw value token.
            let mut val = String::new();
            let mut in_str = false;
            let mut done = false;
            while let Some(&c) = chars.peek() {
                match c {
                    '"' => {
                        in_str = !in_str;
                        chars.next();
                    }
                    ',' | '}' if !in_str => {
                        done = c == '}';
                        chars.next();
                        break;
                    }
                    _ => {
                        if !in_str {
                            val.push(c);
                        }
                        chars.next();
                    }
                }
            }
            if let Ok(v) = val.trim().parse::<f64>() {
                obj.insert(key, v);
            }
            if done {
                break;
            }
        }
        out.push(obj);
    }
    out
}

/// `rows` as the gate reads them back from a `results/` file.
pub fn rows_of<T: Serialize>(rows: &[T]) -> Vec<Row> {
    parse_numeric_objects(&serde_json::to_string(rows).expect("rows serialize"))
}

/// Max of a field across all parsed objects.
pub fn max_field(objs: &[Row], field: &str) -> f64 {
    objs.iter()
        .filter_map(|o| o.get(field))
        .fold(f64::NEG_INFINITY, |a, &b| a.max(b))
}

/// The accumulating regression gate: collect failures, report at the
/// end so one run surfaces every drifted metric.
#[derive(Debug, Default)]
pub struct Gate {
    /// Human-readable descriptions of every failed check.
    pub failures: Vec<String>,
}

impl Gate {
    /// Fail unless `current` is within [`GATE_TOLERANCE`] of `baseline`
    /// (two-sided: silent speedups on gated metrics are drift too and
    /// deserve a baseline refresh). A non-finite side fails loudly —
    /// `max_field`/`min`-folds over a missing baseline field produce
    /// infinities, and `inf/inf = NaN` must not read as "no drift".
    pub fn check_within(&mut self, name: &str, baseline: f64, current: f64) {
        if !baseline.is_finite() || !current.is_finite() {
            self.failures.push(format!(
                "{name}: non-finite comparison (baseline {baseline}, current {current}) — \
                 baseline field missing or renamed?"
            ));
            return;
        }
        let denom = baseline.abs().max(f64::MIN_POSITIVE);
        let drift = (current - baseline).abs() / denom;
        if drift > GATE_TOLERANCE {
            self.failures.push(format!(
                "{name}: {current:.3} drifted {:.1}% from baseline {baseline:.3} (>\
                 {:.0}% gate)",
                drift * 100.0,
                GATE_TOLERANCE * 100.0
            ));
        }
    }

    /// Gate a suite row by row: each row of `current` is matched to the
    /// `baseline` row with the same `key` value, where every `within`
    /// field must stay inside [`GATE_TOLERANCE`] and every `exact` field
    /// must be equal. A row on one side only fails by name, so a
    /// regression in one row cannot hide behind a gain in another, and
    /// a removed row is not read as drift of a total.
    pub fn check_rows(
        &mut self,
        suite: &str,
        key: &str,
        within: &[&str],
        exact: &[&str],
        baseline: &[Row],
        current: &[Row],
    ) {
        let id = |r: &Row| r.get(key).copied();
        let label = |r: &Row| match id(r) {
            Some(v) => format!("{suite} {key} {v}"),
            None => format!("{suite} row without {key}"),
        };
        for b in baseline {
            if id(b).is_none() || !current.iter().any(|c| id(c) == id(b)) {
                let row = label(b);
                self.failures
                    .push(format!("{row}: in the baseline, missing from this run"));
            }
        }
        for c in current {
            let name = label(c);
            let Some(b) = baseline.iter().find(|b| id(b).is_some() && id(b) == id(c)) else {
                self.failures
                    .push(format!("{name}: missing from the baseline"));
                continue;
            };
            let field = |r: &Row, f: &str| r.get(f).copied().unwrap_or(f64::NAN);
            for f in within {
                self.check_within(&format!("{name}: {f}"), field(b, f), field(c, f));
            }
            for f in exact {
                let (was, now) = (field(b, f), field(c, f));
                let detail = format!("baseline {was} vs current {now}, must match exactly");
                self.check(&format!("{name}: {f}"), was == now, detail);
            }
        }
    }

    /// Fail unless `cond` holds.
    pub fn check(&mut self, name: &str, cond: bool, detail: String) {
        if !cond {
            self.failures.push(format!("{name}: {detail}"));
        }
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_numeric_objects() {
        let text = r#"[
  {
    "edge": 0,
    "weekday": "Mon",
    "trunk_out_pkts": 2340,
    "peak": 713.6999999999983
  },
  {
    "edge": 1,
    "trunk_out_pkts": 586
  }
]"#;
        let objs = parse_numeric_objects(text);
        assert_eq!(objs.len(), 2);
        assert_eq!(objs[0]["edge"], 0.0);
        assert_eq!(objs[0]["trunk_out_pkts"], 2340.0);
        assert!((objs[0]["peak"] - 713.7).abs() < 1e-6);
        assert!(!objs[0].contains_key("weekday"), "strings are skipped");
        assert_eq!(max_field(&objs, "trunk_out_pkts"), 2340.0);
    }

    #[test]
    fn roundtrips_own_serializer() {
        // The reader must understand what `write_json` emits.
        #[derive(serde::Serialize)]
        struct Row {
            a: u64,
            b: f64,
        }
        let rows = vec![Row { a: 7, b: 2.5 }, Row { a: 9, b: -1.0 }];
        let text = serde_json::to_string_pretty(&rows).unwrap();
        let objs = parse_numeric_objects(&text);
        assert_eq!(objs.len(), 2);
        assert_eq!(objs[0]["a"], 7.0);
        assert_eq!(objs[1]["b"], -1.0);
        assert_eq!(rows_of(&rows), objs, "the gate reads a run as its file");
    }

    #[test]
    fn gate_tolerance_band() {
        let mut g = Gate::default();
        g.check_within("ok-high", 100.0, 119.0);
        g.check_within("ok-low", 100.0, 81.0);
        assert!(g.passed());
        g.check_within("bad", 100.0, 121.0);
        assert_eq!(g.failures.len(), 1);
        g.check("cond", false, "detail".into());
        assert!(!g.passed());
        assert_eq!(g.failures.len(), 2);
    }

    #[test]
    fn rows_are_gated_one_by_one() {
        let base = parse_numeric_objects(
            r#"[{"scenario": 0, "fps": 40, "refused": 3}, {"scenario": 1, "fps": 20, "refused": 0}]"#,
        );
        let run = |rows: &str| {
            let mut g = Gate::default();
            let current = parse_numeric_objects(rows);
            g.check_rows("fault", "scenario", &["fps"], &["refused"], &base, &current);
            g.failures
        };
        let same = r#"[{"scenario": 1, "fps": 21, "refused": 0}, {"scenario": 0, "fps": 39, "refused": 3}]"#;
        assert!(run(same).is_empty(), "rows match by key, not position");
        // The sum (60) holds, but row 1 drifted 25 %.
        let failures = run(
            r#"[{"scenario": 0, "fps": 35, "refused": 3}, {"scenario": 1, "fps": 25, "refused": 0}]"#,
        );
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with("fault scenario 1: fps"),
            "{failures:?}"
        );
        let failures = run(
            r#"[{"scenario": 0, "fps": 40, "refused": 2}, {"scenario": 1, "fps": 20, "refused": 0}]"#,
        );
        assert!(failures[0].contains("must match exactly"), "{failures:?}");
        // A row on one side only fails by name.
        let failures = run(
            r#"[{"scenario": 0, "fps": 40, "refused": 3}, {"scenario": 2, "fps": 20, "refused": 0}]"#,
        );
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(
            failures[0].contains("scenario 1: in the baseline"),
            "{failures:?}"
        );
        assert!(
            failures[1].contains("scenario 2: missing from the baseline"),
            "{failures:?}"
        );
    }

    #[test]
    fn missing_baseline_field_fails_instead_of_nan_passing() {
        // max_field over a missing field folds to -inf; the gate must
        // fail loudly rather than let inf/inf = NaN pass silently.
        let objs = parse_numeric_objects(r#"[{"a": 1.0}]"#);
        let mut g = Gate::default();
        g.check_within("missing-max", max_field(&objs, "nope"), 5.0);
        assert_eq!(g.failures.len(), 1);
        let mut g = Gate::default();
        g.check_within("nan-current", 5.0, f64::NAN);
        assert!(!g.passed());
    }
}
