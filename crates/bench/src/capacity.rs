//! Capacity-planner admission smoke: the gate behind
//! `results/BENCH_capacity.json`.
//!
//! Drives the `hotspot_crowd` oversubscription shape — every sender in
//! one building, viewers spread over the remote edges — against a small
//! campus twice: once with the capacity budgets **enforced** and once
//! in **advisory** mode (the same budgets armed for measurement, but no
//! join refused or degraded). The pair demonstrates the planner's whole
//! value proposition as two rows of one table:
//!
//! * enforced: the hot edge's trunk stays at or under budget
//!   (`oversubscribed_links == 0`), late segments are admitted SVC-thin
//!   (alive at the reduced frame rate, not frozen), the joins that fit
//!   nowhere are refused with a typed reason, and the ledger reconciles
//!   to zero after every member leaves;
//! * advisory: the identical join sequence books the trunk visibly
//!   above budget — the oversubscription the planner exists to prevent.
//!
//! Both runs are seeded and deterministic; `bench_smoke` gates the
//! report with the standard >20 % drift rule plus hard invariants
//! (zero oversubscribed links under enforcement, at least one without,
//! a stable refusal count, and post-teardown reconciliation).

use scallop_core::capacity::{AdmissionDecision, CapacityModel, FabricBudgets};
use scallop_core::harness::{HarnessConfig, ScallopHarness};
use scallop_netsim::time::SimDuration;
use scallop_workload::hotspot_crowd;
use serde::Serialize;

/// Edges of the bench campus (senders on edge 0, viewers on 1..4).
pub const EDGES: usize = 4;
/// Camera-on participants, all in the hot building.
pub const SENDERS: usize = 2;
/// Camera-off viewers, round-robined over the remote edges.
pub const RECEIVERS: usize = 9;
/// Per-trunk budget: fits the first remote segment at full rate
/// (2 × 6 Mb/s out) and the second only thin (+ 3 Mb/s each), leaving
/// the third segment infeasible even thin — so one deterministic join
/// sequence exercises all three admission outcomes.
pub const TRUNK_BPS: u64 = 20_000_000;
/// The fabric floor a fully admitted receiver must hold.
pub const FULL_FLOOR_FPS: f64 = 25.0;

/// One run of the hotspot scenario (flat numeric fields only — the
/// baseline parser reads nothing else).
#[derive(Serialize)]
pub struct CapacityReport {
    /// 1 = budgets enforced, 0 = advisory (measure-only) mode.
    pub enforced: u64,
    /// Joins admitted at full rate.
    pub admitted_full: u64,
    /// Joins degraded to SVC-thin admission.
    pub admitted_thin: u64,
    /// Joins refused outright.
    pub refused: u64,
    /// Refusals whose typed reason was a trunk over budget.
    pub refused_trunk: u64,
    /// Trunk directions + WAN links booked above budget at peak.
    pub oversubscribed_links: u64,
    /// Peak offered load booked on the hot edge's trunk uplink (bits/s).
    pub trunk_out_bps: u64,
    /// Decoded fps at a fully admitted remote viewer.
    pub full_fps: f64,
    /// Decoded fps at an SVC-thin viewer (advisory mode admits it full,
    /// so both rows report a live stream; only the enforced row's is
    /// capped to the thin decode target).
    pub thin_fps: f64,
    /// 1 when the ledger reconciled to zero after every member left.
    pub reconciled_after_teardown: u64,
}

/// Budgets for the bench campus: model defaults except the trunk line,
/// deliberately thin so the hotspot overruns it.
fn bench_budgets(enforce: bool) -> FabricBudgets {
    let mut b = CapacityModel::default().fabric_budgets();
    b.trunk_bps = TRUNK_BPS;
    b.enforce = enforce;
    b
}

/// Drive the hotspot crowd through admission-checked joins and report.
pub fn run_hotspot(enforce: bool) -> CapacityReport {
    let mut h = ScallopHarness::new(
        HarnessConfig::default()
            .participants(0)
            .switches(EDGES)
            .cores(1)
            .seed(0xCAFA_C17E)
            .admission(bench_budgets(enforce)),
    );
    // Track every admitted viewer by its admission tier.
    let mut full_viewers = Vec::new();
    let mut thin_viewers = Vec::new();
    for j in hotspot_crowd(EDGES, SENDERS, RECEIVERS) {
        let (decision, idx) = h.try_join_late(j.edge, j.sends);
        h.run_for_secs(0.5);
        if j.sends {
            continue;
        }
        match (decision, idx) {
            (AdmissionDecision::Admitted, Some(i)) => full_viewers.push(i),
            (AdmissionDecision::AdmittedThin, Some(i)) => thin_viewers.push(i),
            _ => {}
        }
    }
    // Advisory mode refuses and degrades nothing, so every viewer is
    // "full"; probe the second remote segment's viewers as the thin row
    // (they report full rate there — the contrast is the point).
    if thin_viewers.is_empty() {
        thin_viewers = full_viewers
            .iter()
            .copied()
            .filter(|i| i % 3 == 0)
            .collect();
    }
    h.run_for_secs(3.0);
    let led = h.controller.ledger();
    let counts = led.counts();
    let oversubscribed_links = led.oversubscribed_links();
    let trunk_out_bps = led.trunk_out_bps(0);
    let window = SimDuration::from_secs(1);
    let min_fps = |h: &mut ScallopHarness, set: &[usize]| {
        set.iter()
            .map(|&r| h.fps_between(0, r, window).unwrap_or(0.0))
            .fold(f64::INFINITY, f64::min)
    };
    let full_fps = min_fps(&mut h, &full_viewers);
    let thin_fps = min_fps(&mut h, &thin_viewers);
    // Full teardown: every debit must come back as a credit.
    for idx in 0..h.client_ids.len() {
        h.leave(idx);
    }
    h.run_for_secs(0.5);
    CapacityReport {
        enforced: enforce as u64,
        admitted_full: counts.admitted_full,
        admitted_thin: counts.admitted_thin,
        refused: counts.refused,
        refused_trunk: counts.refused_trunk,
        oversubscribed_links,
        trunk_out_bps,
        full_fps,
        thin_fps,
        reconciled_after_teardown: h.controller.ledger().reconciled() as u64,
    }
}

/// Run the enforced and advisory rows in order.
pub fn run_capacity_suite() -> Vec<CapacityReport> {
    vec![run_hotspot(true), run_hotspot(false)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enforced_row_holds_every_budget_line() {
        let row = run_hotspot(true);
        assert_eq!(row.oversubscribed_links, 0);
        assert!(
            row.trunk_out_bps <= TRUNK_BPS,
            "{} booked",
            row.trunk_out_bps
        );
        assert!(row.admitted_full >= 1 && row.admitted_thin >= 1);
        assert!(row.refused >= 1 && row.refused_trunk == row.refused);
        assert!(
            row.full_fps >= FULL_FLOOR_FPS,
            "full at {:.1}",
            row.full_fps
        );
        // Thin viewers are degraded, not frozen: alive below the full
        // floor (the thin decode target halves the frame rate).
        assert!(
            row.thin_fps > 5.0 && row.thin_fps < FULL_FLOOR_FPS,
            "thin at {:.1}",
            row.thin_fps
        );
        assert_eq!(row.reconciled_after_teardown, 1);
    }

    #[test]
    fn advisory_row_shows_the_oversubscription_enforcement_prevents() {
        let row = run_hotspot(false);
        assert_eq!(row.refused, 0);
        assert_eq!(row.admitted_thin, 0);
        assert!(row.oversubscribed_links >= 1);
        assert!(
            row.trunk_out_bps > TRUNK_BPS,
            "{} booked",
            row.trunk_out_bps
        );
        assert_eq!(row.reconciled_after_teardown, 1);
    }
}
