//! Fault-recovery smoke: the gate behind `results/BENCH_fault.json`.
//!
//! Replays the four failure classes of ARCHITECTURE.md's "Failure
//! domains" table — core-relay crash, trunk-link cut, controller-shard
//! silence, and edge-switch death — against a small deterministic
//! campus, and measures how fast the cross-edge stream climbs back
//! above the fabric floor (25 fps) after the repair pass runs. Every
//! scenario is seeded and stepped on a fixed 500 ms cadence, so the
//! report is byte-stable run to run; `bench_smoke` gates it with the
//! standard >20 % drift check plus three hard invariants:
//!
//! * `stranded_meetings == 0` — after recovery every meeting has a
//!   live (non-silent) owner and a non-empty roster,
//! * `recovery_ticks <= RECOVERY_TICK_BOUND` for every scenario,
//! * `stale_epoch_writes_rejected >= 1` — the shard scenario actually
//!   exercised the epoch fence.

use scallop_core::harness::{HarnessConfig, ScallopHarness};
use scallop_core::shard::LEASE_TICKS;
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
    /// Failure class: 0 = core kill, 1 = trunk cut, 2 = shard silence,
    /// 3 = edge death.
    pub scenario: u64,
    /// Trailing-window fps of the monitored pair during the impact
    /// window (near zero for data-plane faults; unaffected for a
    /// control-plane fault — media does not ride the controller).
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
    /// Lease steals performed (shard-silence scenario).
    pub lease_steals: u64,
    /// Stale-epoch ownership re-assertions fenced off at revival.
    pub stale_epoch_writes_rejected: u64,
    /// Packets discarded against fail-stopped nodes over the whole run.
    pub packets_failstopped: u64,
}

fn campus(cores: usize, shards: usize, seed: u64) -> ScallopHarness {
    ScallopHarness::new(
        HarnessConfig::default()
            .participants(4)
            .switches(2)
            .cores(cores)
            .shards(shards)
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

/// A meeting is stranded when nobody owns it, its owner is silent, or
/// its roster is empty while the plane still tracks it.
fn stranded(h: &ScallopHarness) -> u64 {
    let gmid = h.fabric_meeting;
    match h.controller.owner_of(gmid) {
        None => 1,
        Some(s) if h.controller.shard_is_silent(s) => 1,
        Some(_) if h.controller.fabric_members(gmid).is_empty() => 1,
        Some(_) => 0,
    }
}

/// Scenario 0: the core relay carrying the 0↔1 trunk fail-stops; the
/// repair pass re-aims every affected branch at the surviving core.
pub fn run_core_kill() -> FaultReport {
    let mut h = campus(2, 1, 0xFA51_0000);
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
        lease_steals: 0,
        stale_epoch_writes_rejected: 0,
        packets_failstopped: h.sim.stats.packets_failstopped,
    }
}

/// Scenario 1: edge 0's link to the trunk-carrying core is cut; only
/// branches touching the cut edge fail over to the alternate core.
pub fn run_trunk_cut() -> FaultReport {
    let mut h = campus(2, 1, 0xFA51_0001);
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
        lease_steals: 0,
        stale_epoch_writes_rejected: 0,
        packets_failstopped: h.sim.stats.packets_failstopped,
    }
}

/// Scenario 2: the owner shard goes silent; its lease drains, a live
/// peer steals the meeting under a bumped epoch, and the resurrected
/// owner's stale re-assertion is fenced off. Media never dips — the
/// "blackhole" fps doubles as proof the data plane ignores controller
/// death.
pub fn run_shard_silence() -> FaultReport {
    let mut h = campus(1, 3, 0xFA51_0002);
    h.run_for_secs(2.0);
    let owner = h.shard_of_meeting();
    h.controller.silence_shard(owner);
    for _ in 0..LEASE_TICKS {
        h.controller.tick_leases();
        h.run_for_secs(STEP_MS as f64 / 1_000.0);
    }
    let blackhole_fps = fps(&mut h, 0, 1);
    let steals = h.controller.steal_expired_leases();
    let rejected = h.revive_shard(owner);
    let (recovery_ticks, recovered_fps) = ticks_to_recover(&mut h, 0, 1);
    FaultReport {
        scenario: 2,
        blackhole_fps,
        recovery_ticks,
        recovered_fps,
        stranded_meetings: stranded(&h),
        repaired_branches: 0,
        members_dropped: 0,
        lease_steals: steals,
        stale_epoch_writes_rejected: rejected,
        packets_failstopped: h.sim.stats.packets_failstopped,
    }
}

/// Scenario 3: an edge switch fail-stops, taking its attached members
/// with it; evacuation drops the lost roster and collects the dead
/// segment, and the co-located survivors (P0 → P2 on edge 0) keep
/// talking.
pub fn run_edge_death() -> FaultReport {
    let mut h = campus(1, 1, 0xFA51_0003);
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
        lease_steals: 0,
        stale_epoch_writes_rejected: 0,
        packets_failstopped: h.sim.stats.packets_failstopped,
    }
}

/// Run all four failure classes in order.
pub fn run_fault_suite() -> Vec<FaultReport> {
    vec![
        run_core_kill(),
        run_trunk_cut(),
        run_shard_silence(),
        run_edge_death(),
    ]
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
    fn data_plane_faults_blackhole_and_control_plane_faults_do_not() {
        let core = run_core_kill();
        assert!(core.blackhole_fps < 5.0);
        assert!(core.repaired_branches > 0);
        assert!(core.packets_failstopped > 0);
        let trunk = run_trunk_cut();
        assert!(trunk.blackhole_fps < 5.0);
        assert!(trunk.repaired_branches > 0);
        let shard = run_shard_silence();
        assert!(shard.blackhole_fps >= RECOVERY_FLOOR_FPS);
        assert_eq!(shard.lease_steals, 1);
        assert!(shard.stale_epoch_writes_rejected >= 1);
    }
}
