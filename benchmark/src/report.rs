//! Printing, result files, the history line and `compare`.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::{Pass, RunConfig, Workload, WORKLOADS};
use std::path::Path;

/// Spans written in full to a trace file; the totals cover all of them.
const TRACE_SPANS_WRITTEN: usize = 20_000;

fn value_of(pass: &Pass, name: &str) -> Option<f64> {
    pass.metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
}

/// `(name, unit, value)` of every metric the pass must report: all
/// end-to-end metrics for a timed pass, all per-layer ones (0 where the
/// workload does not exercise the layer) for a traced pass.
fn reported(pass: &Pass, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
    if traced {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, value_of(pass, m.name).unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v =
                    value_of(pass, m.name).expect("a timed pass measures every end-to-end metric");
                (m.name, m.unit, v)
            })
            .collect()
    }
}

/// The metrics as an object of `{value, unit}` objects, with the
/// timings' quartiles and sample counts when `with_spread`.
fn metrics_json(pass: &Pass, traced: bool, with_spread: bool) -> Value {
    Value::Obj(
        reported(pass, traced)
            .into_iter()
            .map(|(name, unit, value)| {
                let mut members = vec![
                    ("value".to_string(), Value::from(value)),
                    ("unit".to_string(), Value::from(unit)),
                ];
                let summary = pass.summaries.iter().find(|(n, _)| *n == name);
                if let (true, Some((_, s))) = (with_spread, summary) {
                    members.push(("q1".to_string(), Value::from(s.q1)));
                    members.push(("q3".to_string(), Value::from(s.q3)));
                    members.push(("n".to_string(), Value::from(s.n as u64)));
                }
                (name.to_string(), Value::Obj(members))
            })
            .collect(),
    )
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric exactly `value` and `unit`.
pub fn driver_line(pass: &Pass, traced: bool) -> String {
    Value::object([
        ("correct", Value::from(pass.failed == 0)),
        ("attempted", Value::from(pass.attempted.max(1))),
        ("failed", Value::from(pass.failed)),
        ("metrics", metrics_json(pass, traced, false)),
    ])
    .to_compact()
}

/// Print a pass: every metric by name with its unit.
pub fn print_pass(w: &Workload, pass: &Pass, traced: bool) {
    let kind = if traced { "traced" } else { "timed" };
    println!(
        "== {} ({kind} pass): {} attempted, {} failed; op = {}, call = {}",
        w.name, pass.attempted, pass.failed, w.op, w.call
    );
    for (name, unit, value) in reported(pass, traced) {
        if traced && value == 0.0 && value_of(pass, name).is_none() {
            continue; // a layer this workload does not exercise
        }
        match pass.summaries.iter().find(|(n, _)| *n == name) {
            Some((_, s)) => println!(
                "  {name:<42} {value:>16.4} {unit:<10} [q1 {:.4}, q3 {:.4}, n {}]",
                s.q1, s.q3, s.n
            ),
            None => println!("  {name:<42} {value:>16.4} {unit}"),
        }
    }
    let fp: Vec<String> = pass
        .fingerprint
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("  (fixed-work counters: {})", fp.join(" "));
}

/// One workload's entry in `results.json`.
pub fn workload_json(timed: Option<&Pass>, traced: Option<&Pass>) -> Value {
    let mut members = Vec::new();
    for (key, pass, is_traced) in [("end_to_end", timed, false), ("per_layer", traced, true)] {
        let Some(pass) = pass else { continue };
        members.push((key.to_string(), metrics_json(pass, is_traced, true)));
        let prefix = if is_traced { "traced" } else { "timed" };
        members.push((format!("{prefix}_attempted"), Value::from(pass.attempted)));
        members.push((format!("{prefix}_failed"), Value::from(pass.failed)));
        let fp = pass
            .fingerprint
            .iter()
            .map(|(k, v)| (k.to_string(), Value::from(*v)))
            .collect();
        members.push((format!("{prefix}_fingerprint"), Value::Obj(fp)));
    }
    Value::Obj(members)
}

/// `git rev-parse HEAD`, or `"unknown"` outside a repository.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The whole run as one document.
pub fn results_json(cfg: &RunConfig, workloads: Vec<(String, Value)>) -> Value {
    Value::object([
        ("commit", Value::from(commit())),
        ("seed", Value::from(cfg.seed)),
        ("seconds", Value::from(cfg.seconds)),
        ("scale", Value::from(cfg.scale)),
        ("workloads", Value::Obj(workloads)),
    ])
}

/// Write `results.json` and one `trace-<workload>.json` per traced pass.
pub fn write_out(
    dir: &Path,
    results: &Value,
    traces: &[(&'static str, &Pass)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("results.json"), results.to_pretty())?;
    for (name, pass) in traces {
        if let Some(tracer) = &pass.tracer {
            let doc = tracer.to_json(name, TRACE_SPANS_WRITTEN);
            std::fs::write(dir.join(format!("trace-{name}.json")), doc.to_compact())?;
        }
    }
    Ok(())
}

/// Append the run as one JSON line, keyed by commit.
pub fn append_record(file: &Path, results: &Value) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(file)?;
    writeln!(f, "{}", results.to_compact())
}

/// How the driver invokes the benchmark, and for how long it measures.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json`, from the tables in `metrics` and `workloads`.
pub fn benchmark_json() -> Value {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Value::object([("name", Value::from(w.name)), ("why", Value::from(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Value::object([
                ("name", Value::from(m.name)),
                ("unit", Value::from(m.unit)),
                ("better", Value::from(m.better.as_str())),
                ("bound", Value::from(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Value::object([
                ("name", Value::from(m.name)),
                ("unit", Value::from(m.unit)),
                ("better", Value::from(m.better.as_str())),
            ])
        })
        .collect();
    Value::object([
        (
            "command",
            Value::Arr(COMMAND.iter().map(|&c| Value::from(c)).collect()),
        ),
        ("paths", Value::Arr(vec![Value::from("benchmark")])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        ("workloads", Value::Arr(workloads)),
        ("end_to_end", Value::Arr(end_to_end)),
        ("per_layer", Value::Arr(per_layer)),
    ])
}

/// The workload and metric tables as markdown, for the README.
pub fn tables_markdown() -> String {
    let mut out = String::from("| workload | op | timed call | why |\n|---|---|---|---|\n");
    for w in &WORKLOADS {
        out += &format!("| `{}` | {} | {} | {} |\n", w.name, w.op, w.call, w.why);
    }
    out += "\n| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|\n";
    for m in &END_TO_END {
        let bound = format!(
            "{:.0} %{}",
            m.bound * 100.0,
            if m.exact { " (`compare`: exact)" } else { "" }
        );
        out += &format!(
            "| `{}` | {} | {} | {bound} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
    out += "\n| per-layer metric | unit | better | should move |\n|---|---|---|---|\n";
    for m in &PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
    out
}

/// One side of a comparison: one or more result files of the same commit.
struct Side {
    docs: Vec<Value>,
}

impl Side {
    fn load(paths: &str) -> Result<Side, String> {
        let docs = paths
            .split(',')
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                json::parse(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Side { docs })
    }

    /// The metric's value in every file that has it.
    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.docs
            .iter()
            .filter_map(|d| {
                d.get("workloads")?
                    .get(workload)?
                    .get("end_to_end")?
                    .get(metric)?
                    .get("value")?
                    .as_f64()
            })
            .collect()
    }
}

/// What `compare` concluded about one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// The base's own run-to-run spread is wider than the bound.
    Unresolved,
}

/// How far apart two readings of an exact metric may be and still count as
/// equal. Counts that repeat for a seed are compared with `==` in spirit,
/// but `std`'s randomly seeded hash maps grow a few parts per million
/// earlier or later from process to process, which moves `allocs_per_op`
/// of `sim_federation` in its seventh digit.
const EXACT_TOLERANCE: f64 = 1e-4;

/// Judge `new` against `base`. Exact metrics must be equal (within
/// [`EXACT_TOLERANCE`]) or better; the rest are judged against `bound`,
/// unless the base's `spread` (share of its median) is wider than that.
pub fn judge(base: f64, new: f64, better: Better, bound: f64, exact: bool, spread: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => (new - base) / base.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (base - new) / base.abs().max(f64::MIN_POSITIVE),
    };
    if exact {
        return if worse_by > EXACT_TOLERANCE {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `compare a.json b.json` (each side may be a comma-separated set of
/// files of one commit: medians are compared and the base set's range is
/// its spread). Prints one row per (workload, end-to-end metric); returns
/// whether every row is `ok`.
pub fn compare(base_paths: &str, new_paths: &str) -> Result<bool, String> {
    let (base, new) = (Side::load(base_paths)?, Side::load(new_paths)?);
    let names: Vec<String> = base.docs[0]
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("no workloads in the base file")?
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>22} {:>7} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound", "spread"
    );
    let mut all_ok = true;
    for w in &names {
        for m in &END_TO_END {
            let (mut a, mut b) = (base.values(w, m.name), new.values(w, m.name));
            if a.is_empty() || b.is_empty() {
                println!("{w:<16} {:<20} missing on one side", m.name);
                all_ok = false;
                continue;
            }
            let (sa, sb) = (stats::summarize(&mut a), stats::summarize(&mut b));
            let spread = (a[a.len() - 1] - a[0]) / sa.median.abs().max(f64::MIN_POSITIVE);
            let verdict = judge(sa.median, sb.median, m.better, m.bound, m.exact, spread);
            all_ok &= verdict == Verdict::Ok;
            let ratio = format!("{:.4} (base {:.4})", sb.median / sa.median, sa.median);
            let bound = if m.exact {
                "exact".to_string()
            } else {
                format!("{:.0}%", m.bound * 100.0)
            };
            println!(
                "{w:<16} {:<20} {:>14.4} {:>14.4} {ratio:>22} {bound:>7} {:>7.1}%  {}",
                m.name,
                sa.median,
                sb.median,
                spread * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(judge(100.0, 109.0, Lower, 0.10, false, 0.02), Verdict::Ok);
        assert_eq!(
            judge(100.0, 111.0, Lower, 0.10, false, 0.02),
            Verdict::Regressed
        );
        assert_eq!(judge(100.0, 50.0, Lower, 0.10, false, 0.02), Verdict::Ok);
        assert_eq!(
            judge(100.0, 89.0, Higher, 0.10, false, 0.02),
            Verdict::Regressed
        );
        assert_eq!(judge(100.0, 130.0, Higher, 0.10, false, 0.02), Verdict::Ok);
        // A base that is itself noisier than the bound settles nothing.
        assert_eq!(
            judge(100.0, 150.0, Lower, 0.10, false, 0.15),
            Verdict::Unresolved
        );
        // Exact metrics ignore bound and spread.
        assert_eq!(judge(3.0, 3.0, Lower, 0.05, true, 0.5), Verdict::Ok);
        assert_eq!(
            judge(3.0, 3.001, Lower, 0.05, true, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            judge(610.5030, 610.5035, Lower, 0.05, true, 0.0),
            Verdict::Ok
        );
        assert_eq!(judge(3.0, 2.0, Lower, 0.05, true, 0.0), Verdict::Ok);
    }
}
