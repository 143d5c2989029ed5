//! Experiment scenario helpers (Fig. 22 and capacity-sweep inputs).
//!
//! Bridges the workload models to the harnesses: per-bin SFU load series
//! (what a software SFU must process vs. what Scallop's switch agent
//! processes) and meeting mixes for the capacity sweeps.

use crate::campus::MeetingRecord;
use scallop_netsim::time::SimDuration;
use serde::Serialize;

/// Fraction of SFU bytes that reach the switch agent (Table 1: 0.35 % of
/// bytes are control-plane; Fig. 22's red curve is the blue curve scaled
/// by this factor).
pub const AGENT_BYTE_FRACTION: f64 = 0.0035;

/// Per-active-participant SFU processing rate (bits/s, both directions).
/// Calibrated so the campus population's peak concurrency lands at
/// Fig. 22's ≈1,250 Mbit/s software-SFU peak (and therefore at the
/// paper's "3.1 % of a 40 Gbit/s server").
pub(crate) const SFU_BITS_PER_PARTICIPANT: f64 = 1.6e6;

/// One bin of the load series.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LoadPoint {
    /// Bin start, seconds from the period start.
    pub t_secs: f64,
    /// Concurrent meetings.
    pub meetings: u64,
    /// Concurrent participants.
    pub participants: u64,
    /// Byte rate a software SFU would process (bits/s) — Fig. 22 blue.
    pub software_sfu_bps: f64,
    /// Byte rate Scallop's switch agent processes (bits/s) — Fig. 22 red.
    pub agent_bps: f64,
}

/// Build the Fig. 22 load series from a meeting population.
pub fn sfu_load_series(meetings: &[MeetingRecord], bin: SimDuration) -> Vec<LoadPoint> {
    let horizon = meetings
        .iter()
        .map(|m| m.end().as_nanos())
        .max()
        .unwrap_or(0);
    if horizon == 0 {
        return Vec::new();
    }
    let bins = (horizon / bin.as_nanos() + 1) as usize;
    let mut meeting_count = vec![0u64; bins];
    let mut participant_count = vec![0.0f64; bins];
    for m in meetings {
        let first = (m.start.as_nanos() / bin.as_nanos()) as usize;
        let last = (m.end().as_nanos() / bin.as_nanos()) as usize;
        for b in first..=last.min(bins - 1) {
            meeting_count[b] += 1;
            participant_count[b] += m.concurrent_participants();
        }
    }
    let w = bin.as_secs_f64();
    (0..bins)
        .map(|b| {
            let sfu = participant_count[b] * SFU_BITS_PER_PARTICIPANT;
            LoadPoint {
                t_secs: b as f64 * w,
                meetings: meeting_count[b],
                participants: participant_count[b].round() as u64,
                software_sfu_bps: sfu,
                agent_bps: sfu * AGENT_BYTE_FRACTION,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campus::{CampusModel, CampusParams};
    use scallop_netsim::time::SimTime;

    #[test]
    fn load_series_reproduces_fig22_scale() {
        let meetings = CampusModel::new(CampusParams::default(), 21).generate();
        let series = sfu_load_series(&meetings, SimDuration::from_secs(600));
        assert!(!series.is_empty());
        let peak = series
            .iter()
            .map(|p| p.software_sfu_bps)
            .fold(0.0, f64::max);
        // Fig. 22: peaks around 1,250 Mbit/s.
        assert!((0.8e9..3.0e9).contains(&peak), "software peak {peak} bps");
        let agent_peak = series.iter().map(|p| p.agent_bps).fold(0.0, f64::max);
        // Fig. 22: agent peaks around 4.4 Mbit/s.
        assert!(
            (2.0e6..11.0e6).contains(&agent_peak),
            "agent peak {agent_peak} bps"
        );
        // The ratio is the Table 1 byte split.
        assert!((agent_peak / peak - AGENT_BYTE_FRACTION).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        assert!(sfu_load_series(&[], SimDuration::from_secs(60)).is_empty());
    }

    #[test]
    fn counts_are_consistent() {
        let m = MeetingRecord {
            start: SimTime::from_secs(100),
            duration: scallop_netsim::time::SimDuration::from_secs(200),
            size: 5,
            video_senders: 2,
            audio_senders: 5,
            screen_senders: 0,
            building: 0,
            cross_building: 0,
            zone: 0,
            cross_zone: 0,
        };
        let series = sfu_load_series(&[m], SimDuration::from_secs(60));
        // Active in bins 1..=5 (100 s to 300 s).
        assert_eq!(series[1].meetings, 1);
        assert_eq!(series[1].participants, 2); // 5 × attendance 0.45
        assert_eq!(series[0].meetings, 0);
        let last_active = series.iter().rposition(|p| p.meetings > 0).unwrap();
        assert_eq!(last_active, 5);
    }
}
