//! Tofino resource-utilization reporting (Table 3, Appendix F).
//!
//! Table 3 categorizes resources by scaling behaviour: fixed (pipeline
//! program footprint — identical under any load, the `=` column),
//! linear (state that grows with participants), and quadratic (egress
//! throughput). The fixed rows are compile-time properties of the P4
//! program; we report the paper's measured values as constants of the
//! modeled program and compute the load-dependent rows from the live
//! data-plane state.

use crate::switch::ScallopDataPlane;

/// Total switch SRAM budget used for percentage reporting (Tofino2-class:
/// ≈240 Mbit of MAU SRAM).
pub(crate) const TOTAL_SRAM_BITS: u64 = 240 * 1024 * 1024;

/// How a resource scales with load (Table 3, column 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scaling {
    /// Identical under any traffic (program footprint).
    Fixed,
    /// Grows with participants/streams.
    Linear,
    /// Grows with participants² (egress throughput).
    Quadratic,
}

impl Scaling {
    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            Scaling::Fixed => "Fixed",
            Scaling::Linear => "Linear",
            Scaling::Quadratic => "Quadratic",
        }
    }
}

/// One row of the resource report.
#[derive(Debug, Clone)]
pub struct ResourceRow {
    /// Resource name.
    pub name: &'static str,
    /// Scaling class.
    pub scaling: Scaling,
    /// Value under the reported load.
    pub value: String,
    /// Value under maximum utilization (`"="` when load-independent).
    pub max_value: String,
}

/// Fixed program-footprint values (compile-time properties of the §6.3
/// P4 program, reported in Table 3).
pub mod fixed {
    /// Ingress parser depth budget consumed.
    pub(crate) const PARSE_DEPTH_INGRESS: u8 = 27;
    /// Egress parser depth.
    pub(crate) const PARSE_DEPTH_EGRESS: u8 = 7;
    /// Ingress match-action stages.
    pub(crate) const STAGES_INGRESS: u8 = 7;
    /// Egress match-action stages.
    pub(crate) const STAGES_EGRESS: u8 = 5;
    /// PHV container utilization.
    pub(crate) const PHV_PCT: f64 = 17.9;
    /// Exact-match crossbar utilization.
    pub(crate) const EXACT_XBAR_PCT: f64 = 5.66;
    /// Ternary crossbar utilization.
    pub(crate) const TERNARY_XBAR_PCT: f64 = 2.52;
    /// Hash bits consumed.
    pub(crate) const HASH_BITS_PCT: f64 = 4.62;
    /// Hash distribution units.
    pub(crate) const HASH_DIST_PCT: f64 = 6.94;
    /// VLIW instructions.
    pub(crate) const VLIW_PCT: f64 = 7.29;
    /// Logical table ids.
    pub(crate) const LOGICAL_TABLE_PCT: f64 = 21.87;
    /// TCAM blocks.
    pub(crate) const TCAM_PCT: f64 = 1.38;
}

/// Build the Table 3 report from a live data plane plus the measured
/// egress throughputs (bits/s) under the reported load and at maximum
/// utilization.
pub fn report(
    dp: &ScallopDataPlane,
    egress_bps_load: f64,
    egress_bps_max: f64,
) -> Vec<ResourceRow> {
    let eq = || "=".to_string();
    // Registers are provisioned statically (they dominate); match-action
    // table SRAM is counted by installed entries, like the compiler's
    // block allocation report.
    let sram_bits = dp.port_rules.sram_bits_used() as u64
        + dp.egress.sram_bits_used() as u64
        + dp.tracker.sram_bits() as u64;
    let sram_pct = 100.0 * sram_bits as f64 / TOTAL_SRAM_BITS as f64;
    vec![
        ResourceRow {
            name: "Parsing depth",
            scaling: Scaling::Fixed,
            value: format!(
                "Ing. {}, Eg. {}",
                fixed::PARSE_DEPTH_INGRESS,
                fixed::PARSE_DEPTH_EGRESS
            ),
            max_value: eq(),
        },
        ResourceRow {
            name: "No. of stages",
            scaling: Scaling::Fixed,
            value: format!(
                "Ing. {}, Eg. {}",
                fixed::STAGES_INGRESS,
                fixed::STAGES_EGRESS
            ),
            max_value: eq(),
        },
        ResourceRow {
            name: "PHV containers",
            scaling: Scaling::Fixed,
            value: format!("{:.1}%", fixed::PHV_PCT),
            max_value: eq(),
        },
        ResourceRow {
            name: "Exact xbars",
            scaling: Scaling::Fixed,
            value: format!("{:.2}%", fixed::EXACT_XBAR_PCT),
            max_value: eq(),
        },
        ResourceRow {
            name: "Ternary xbars",
            scaling: Scaling::Fixed,
            value: format!("{:.2}%", fixed::TERNARY_XBAR_PCT),
            max_value: eq(),
        },
        ResourceRow {
            name: "Hash bits",
            scaling: Scaling::Fixed,
            value: format!("{:.2}%", fixed::HASH_BITS_PCT),
            max_value: eq(),
        },
        ResourceRow {
            name: "Hash dist. units",
            scaling: Scaling::Fixed,
            value: format!("{:.2}%", fixed::HASH_DIST_PCT),
            max_value: eq(),
        },
        ResourceRow {
            name: "VLIW instr.",
            scaling: Scaling::Fixed,
            value: format!("{:.2}%", fixed::VLIW_PCT),
            max_value: eq(),
        },
        ResourceRow {
            name: "Logical table ID",
            scaling: Scaling::Fixed,
            value: format!("{:.2}%", fixed::LOGICAL_TABLE_PCT),
            max_value: eq(),
        },
        ResourceRow {
            name: "SRAM",
            scaling: Scaling::Fixed,
            value: format!("{sram_pct:.2}%"),
            max_value: eq(),
        },
        ResourceRow {
            name: "TCAM",
            scaling: Scaling::Fixed,
            value: format!("{:.2}%", fixed::TCAM_PCT),
            max_value: eq(),
        },
        ResourceRow {
            name: "Egress Tput.",
            scaling: Scaling::Quadratic,
            value: format_bps(egress_bps_load),
            max_value: format_bps(egress_bps_max),
        },
    ]
}

/// Human-readable bits/s.
pub fn format_bps(bps: f64) -> String {
    if bps >= 1e12 {
        format!("{:.1} Tb/s", bps / 1e12)
    } else if bps >= 1e9 {
        format!("{:.1} Gb/s", bps / 1e9)
    } else if bps >= 1e6 {
        format!("{:.1} Mb/s", bps / 1e6)
    } else if bps >= 1e3 {
        format!("{:.1} kb/s", bps / 1e3)
    } else {
        format!("{bps:.0} b/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqrewrite::SeqRewriteMode;

    #[test]
    fn report_has_all_table3_rows() {
        let dp = ScallopDataPlane::new(SeqRewriteMode::LowRetransmission);
        let rows = report(&dp, 1.2e9, 197e9);
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        for expected in [
            "Parsing depth",
            "No. of stages",
            "PHV containers",
            "Exact xbars",
            "Ternary xbars",
            "Hash bits",
            "Hash dist. units",
            "VLIW instr.",
            "Logical table ID",
            "SRAM",
            "TCAM",
            "Egress Tput.",
        ] {
            assert!(names.contains(&expected), "missing row {expected}");
        }
    }

    #[test]
    fn fixed_rows_are_load_independent() {
        let dp = ScallopDataPlane::new(SeqRewriteMode::LowRetransmission);
        let rows = report(&dp, 1.0, 1.0);
        for r in rows.iter().filter(|r| r.scaling == Scaling::Fixed) {
            assert_eq!(r.max_value, "=", "{} must be load-independent", r.name);
        }
    }

    #[test]
    fn sram_percentage_in_paper_band() {
        let dp = ScallopDataPlane::new(SeqRewriteMode::LowRetransmission);
        let rows = report(&dp, 0.0, 0.0);
        let sram = rows.iter().find(|r| r.name == "SRAM").unwrap();
        let pct: f64 = sram.value.trim_end_matches('%').parse().unwrap();
        // Paper: 6.77 %. Model: same order, always below 22 % ("low
        // enough such that other network applications can be deployed").
        assert!(pct > 1.0 && pct < 22.0, "SRAM {pct}%");
    }

    #[test]
    fn bps_formatting() {
        assert_eq!(format_bps(1.2e9), "1.2 Gb/s");
        assert_eq!(format_bps(197e9), "197.0 Gb/s");
        assert_eq!(format_bps(12.8e12), "12.8 Tb/s");
        assert_eq!(format_bps(4.4e6), "4.4 Mb/s");
        assert_eq!(format_bps(500.0), "500 b/s");
    }
}
