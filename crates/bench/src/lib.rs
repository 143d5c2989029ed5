//! # scallop-bench — the experiment harness
//!
//! One binary per table and figure of the paper's evaluation (§7,
//! appendices B–F). Each binary regenerates the artifact's rows/series on
//! stdout and writes a machine-readable copy under `results/`.
//!
//! | binary | artifact |
//! |---|---|
//! | `fig02_streams_per_meeting` | Fig. 2 — streams at the SFU vs. meeting size |
//! | `fig03_04_software_overload` | Figs. 3/4 — jitter and frame rate on an overloaded software SFU |
//! | `table1_packet_mix` | Table 1 — control/data-plane packet and byte split |
//! | `fig14_rate_adaptation` | Fig. 14 — SVC rate adaptation timeline |
//! | `fig15_scalability_gain` | Fig. 15 — improvement over a 32-core server |
//! | `fig16_minmax_meetings` | Fig. 16 — best/worst supported meetings |
//! | `fig17_design_capacity` | Fig. 17 — per-design capacity lines + §7.2 headline numbers |
//! | `fig18_seqrewrite_overhead` | Fig. 18 — erroneous re-TX rate of S-LR vs. loss |
//! | `fig19_forwarding_latency` | Fig. 19 — RTP RTT CDF, Scallop vs. software SFU |
//! | `table2_trace_summary` | Table 2 — synthesized campus capture summary |
//! | `table3_resources` | Table 3 — Tofino resource utilization |
//! | `fig20_21_campus_load` | Figs. 20/21 — concurrent meetings/participants |
//! | `fig22_agent_bytes` | Fig. 22 — software SFU vs. switch-agent byte rates |
//! | `fig23_24_layer_adaptation` | Figs. 23/24 — per-receiver / per-layer adaptation timelines |
//!
//! Criterion microbenchmarks live in `benches/`: per-packet data-plane
//! cost, PRE fan-out, sequence rewriting, wire-format codecs, GCC and
//! decoder steps, and the Scallop-vs-software per-packet path.
//!
//! The `bench_smoke` binary is the CI regression gate: it re-runs the
//! deterministic campus-fabric slice ([`fabric`]), the churn/migration
//! phase, the Fig. 15 sweep ([`scale`]), the batched data-plane smoke
//! ([`dataplane`]), the flash-crowd/webinar control-plane compilation
//! smoke ([`control`]), the fault-recovery suite ([`fault`]), and the
//! capacity-planner admission suite ([`capacity`]); writes
//! `BENCH_fabric.json` / `BENCH_scale.json` / `BENCH_dataplane.json` /
//! `BENCH_control.json` / `BENCH_fault.json` / `BENCH_capacity.json`
//! for artifact upload; and fails when key metrics drift more than
//! 20 % from the checked-in `results/` baselines ([`baseline`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod capacity;
pub mod control;
pub mod dataplane;
pub mod fabric;
pub mod fault;
pub mod scale;

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Print a section header.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Print an aligned key/value row.
pub fn kv(key: &str, value: impl std::fmt::Display) {
    println!("{key:<42} {value}");
}

/// Print a series as aligned columns.
pub fn series_table(headers: &[&str], rows: &[Vec<String>]) {
    let header = headers
        .iter()
        .map(|h| format!("{h:>14}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("{header}");
    for r in rows {
        let line = r
            .iter()
            .map(|c| format!("{c:>14}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!("{line}");
    }
}

/// Where machine-readable results are written.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Serialize an experiment result to `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if fs::write(&path, s).is_ok() {
                println!("[written {}]", path.display());
            }
        }
        Err(e) => eprintln!("serialization failed: {e}"),
    }
}

/// Format a float with fixed precision for table cells.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists_after_call() {
        let d = results_dir();
        assert!(d.exists());
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(2.34567, 2), "2.35");
        assert_eq!(f(10.0, 0), "10");
    }
}
