//! Fault-recovery smoke: the gate behind `results/BENCH_fault.json`.
//!
//! Replays the three failure classes of ARCHITECTURE.md's "Failure
//! domains" table that a switch sees — core-relay crash, trunk-link
//! cut, and edge-switch death — against a small deterministic campus,
//! and measures how fast the cross-edge stream climbs back above the
//! fabric floor (25 fps) after the repair pass runs. (A controller
//! shard has no failure to replay: ownership is bookkeeping in one
//! process, and no switch reads it.) Every scenario is seeded and
//! stepped on a fixed 500 ms cadence, so the report is byte-stable run
//! to run; `bench_smoke` gates it with the standard >20 % drift check
//! plus two hard invariants:
//!
//! * `stranded_meetings == 0` — after recovery every meeting has an
//!   owner and a non-empty roster,
//! * `recovery_ticks <= RECOVERY_TICK_BOUND` for every scenario.

use scallop_core::harness::{HarnessConfig, ScallopHarness};
use scallop_netsim::time::SimDuration;
use serde::Serialize;

/// Recovery is sampled on this cadence; `recovery_ticks` counts these.
pub const STEP_MS: u64 = 500;
/// The fabric floor a recovered stream must climb back above.
pub const RECOVERY_FLOOR_FPS: f64 = 25.0;
/// Hard bound on `recovery_ticks` for every failure class (3 s of
/// simulated time — enough for the trailing fps window to flush the
/// blackhole and re-fill with repaired media).
pub const RECOVERY_TICK_BOUND: u64 = 6;
/// Sampling gives up after this many ticks (the scenario then reports
/// the cap, which trips the bound invariant loudly instead of hanging).
const RECOVERY_TICK_CAP: u64 = 20;

/// One scenario row of `results/BENCH_fault.json` (flat numeric fields
/// only — the baseline parser reads nothing else).
#[derive(Serialize)]
pub struct FaultReport {
    /// Failure class: 0 = core kill, 1 = trunk cut, 3 = edge death (2
    /// is unused, so each row keeps the id its baseline row has).
    pub scenario: u64,
    /// Trailing-window fps of the monitored pair during the impact
    /// window (near zero: each fault cuts the monitored path).
    pub blackhole_fps: f64,
    /// 500 ms steps from the repair pass until the monitored pair is
    /// back above [`RECOVERY_FLOOR_FPS`].
    pub recovery_ticks: u64,
    /// The fps the monitored pair recovered to.
    pub recovered_fps: f64,
    /// Meetings left without a live owner or a roster after recovery.
    pub stranded_meetings: u64,
    /// Trunk branches the repair pass re-aimed (data-plane faults).
    pub repaired_branches: u64,
    /// Members dropped with their crashed edge (edge-death scenario).
    pub members_dropped: u64,
    /// Packets discarded against fail-stopped nodes over the whole run.
    pub packets_failstopped: u64,
}

fn campus(cores: usize, seed: u64) -> ScallopHarness {
    ScallopHarness::new(
        HarnessConfig::default()
            .participants(4)
            .switches(2)
            .cores(cores)
            .shards(1)
            .seed(seed),
    )
}

fn fps(h: &mut ScallopHarness, s: usize, r: usize) -> f64 {
    h.fps_between(s, r, SimDuration::from_secs(1))
        .unwrap_or(0.0)
}

/// Step the sim on the 500 ms cadence until the monitored pair is back
/// above the floor; returns `(ticks, recovered_fps)`.
fn ticks_to_recover(h: &mut ScallopHarness, s: usize, r: usize) -> (u64, f64) {
    for tick in 1..=RECOVERY_TICK_CAP {
        h.run_for_secs(STEP_MS as f64 / 1_000.0);
        let f = fps(h, s, r);
        if f >= RECOVERY_FLOOR_FPS {
            return (tick, f);
        }
    }
    let f = fps(h, s, r);
    (RECOVERY_TICK_CAP, f)
}

/// A meeting is stranded when nobody owns it or its roster is empty
/// while the plane still tracks it.
fn stranded(h: &ScallopHarness) -> u64 {
    let gmid = h.fabric_meeting;
    let owned = h.controller.owner_of(gmid).is_some();
    u64::from(!owned || h.controller.fabric_members(gmid).is_empty())
}

/// Scenario 0: the core relay carrying the 0↔1 trunk fail-stops; the
/// repair pass re-aims every affected branch at the surviving core.
pub fn run_core_kill() -> FaultReport {
    let mut h = campus(2, 0xFA51_0000);
    h.run_for_secs(3.0);
    let victim = h.fabric.topology.core_between(0, 1).expect("trunk core");
    h.kill_core(victim);
    h.run_for_secs(2.0);
    let blackhole_fps = fps(&mut h, 0, 1);
    let repaired = h.repair_trunks();
    let (recovery_ticks, recovered_fps) = ticks_to_recover(&mut h, 0, 1);
    FaultReport {
        scenario: 0,
        blackhole_fps,
        recovery_ticks,
        recovered_fps,
        stranded_meetings: stranded(&h),
        repaired_branches: repaired,
        members_dropped: 0,
        packets_failstopped: h.sim.stats.packets_failstopped,
    }
}

/// Scenario 1: edge 0's link to the trunk-carrying core is cut; only
/// branches touching the cut edge fail over to the alternate core.
pub fn run_trunk_cut() -> FaultReport {
    let mut h = campus(2, 0xFA51_0001);
    h.run_for_secs(3.0);
    let core = h.fabric.topology.core_between(0, 1).expect("trunk core");
    h.cut_trunk(0, core);
    h.run_for_secs(2.0);
    let blackhole_fps = fps(&mut h, 0, 1);
    let repaired = h.repair_trunks();
    let (recovery_ticks, recovered_fps) = ticks_to_recover(&mut h, 0, 1);
    FaultReport {
        scenario: 1,
        blackhole_fps,
        recovery_ticks,
        recovered_fps,
        stranded_meetings: stranded(&h),
        repaired_branches: repaired,
        members_dropped: 0,
        packets_failstopped: h.sim.stats.packets_failstopped,
    }
}

/// Scenario 3: an edge switch fail-stops, taking its attached members
/// with it; evacuation drops the lost roster and collects the dead
/// segment, and the co-located survivors (P0 → P2 on edge 0) keep
/// talking.
pub fn run_edge_death() -> FaultReport {
    let mut h = campus(1, 0xFA51_0003);
    h.run_for_secs(2.0);
    h.kill_edge(1);
    let dropped = h.evacuate_edge(1);
    let blackhole_fps = fps(&mut h, 0, 1);
    let (recovery_ticks, recovered_fps) = ticks_to_recover(&mut h, 0, 2);
    FaultReport {
        scenario: 3,
        blackhole_fps,
        recovery_ticks,
        recovered_fps,
        stranded_meetings: stranded(&h),
        repaired_branches: 0,
        members_dropped: dropped,
        packets_failstopped: h.sim.stats.packets_failstopped,
    }
}

/// Run all three failure classes in order.
pub fn run_fault_suite() -> Vec<FaultReport> {
    vec![run_core_kill(), run_trunk_cut(), run_edge_death()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_recovers_with_nothing_stranded() {
        for row in run_fault_suite() {
            assert_eq!(row.stranded_meetings, 0, "scenario {}", row.scenario);
            assert!(
                row.recovery_ticks <= RECOVERY_TICK_BOUND,
                "scenario {} took {} ticks",
                row.scenario,
                row.recovery_ticks
            );
            assert!(
                row.recovered_fps >= RECOVERY_FLOOR_FPS,
                "scenario {} recovered to {:.1} fps",
                row.scenario,
                row.recovered_fps
            );
        }
    }

    #[test]
    fn data_plane_faults_blackhole_before_repair() {
        let core = run_core_kill();
        assert!(core.blackhole_fps < 5.0);
        assert!(core.repaired_branches > 0);
        assert!(core.packets_failstopped > 0);
        let trunk = run_trunk_cut();
        assert!(trunk.blackhole_fps < 5.0);
        assert!(trunk.repaired_branches > 0);
    }
}
