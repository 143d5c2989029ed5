//! Deterministic batched-forwarding smoke phase (CI regression gate).
//!
//! Builds a real meeting through the switch agent, replays a fixed
//! RTP/RTCP/STUN/garbage mix through
//! [`ScallopDataPlane::process_batch`] twice — one packet per call on
//! one data plane, one burst per call with dense SoA registers enabled
//! on its twin — and cross-checks them packet for packet and counter
//! for counter. Everything in the emitted [`DataplaneBatchSmoke`] is a
//! function of the fixed inputs, so `bench_smoke` gates the fields at
//! the usual 20 % drift rule.

use scallop_core::agent::{JoinGrant, SwitchAgent};
use scallop_dataplane::batch::BatchOutput;
use scallop_dataplane::seqrewrite::SeqRewriteMode;
use scallop_dataplane::switch::ScallopDataPlane;
use scallop_media::encoder::{EncodedFrame, FrameLabelCompact};
use scallop_media::packetizer::Packetizer;
use scallop_netsim::packet::{HostAddr, Packet};
use scallop_netsim::time::SimTime;
use scallop_proto::rtcp::{self, Nack, ReceiverReport, Remb, RtcpPacket, SenderReport};
use scallop_proto::stun::StunMessage;
use serde::Serialize;
use std::net::Ipv4Addr;

/// SFU port span handed to the agent (mirrors an edge's contiguous
/// range from the topology; also the dense-register span).
const PORT_BASE: u16 = 10_000;
const PORT_LIMIT: u16 = 20_000;

/// Deterministic fields of the batch smoke (all gated in CI).
#[derive(Serialize)]
pub struct DataplaneBatchSmoke {
    /// Meeting size the mix was generated for.
    pub parties: u64,
    /// Packets pushed through the burst-per-call side.
    pub pkts_processed: u64,
    /// Replicas it emitted toward receivers.
    pub replicas_emitted: u64,
    /// Bursts (`process_batch` calls) run.
    pub batches: u64,
    /// Port matches served from the data plane's flow table.
    pub port_lookups_saved: u64,
    /// Egress matches served from the data plane's flow table.
    pub egress_lookups_saved: u64,
    /// PRE tree walks served from the data plane's flow table.
    pub pre_walks_saved: u64,
    /// Lookups served by the dense SoA registers.
    pub dense_lookups: u64,
    /// Packets punted to the CPU ring.
    pub cpu_punts: u64,
    /// 1 iff burst-per-call matched packet-per-call byte-for-byte
    /// (forwards, punt order, and all data-plane counters).
    pub equivalent: u64,
}

/// One meeting of `parties` all-sending participants built through the
/// real agent, identically on every call.
fn build_meeting(parties: usize) -> (ScallopDataPlane, SwitchAgent, Vec<(HostAddr, JoinGrant)>) {
    let mut dp = ScallopDataPlane::new(SeqRewriteMode::LowRetransmission);
    let mut agent =
        SwitchAgent::new(Ipv4Addr::new(10, 0, 0, 100)).with_port_range(PORT_BASE, PORT_LIMIT);
    let m = agent.create_meeting();
    let mut members = Vec::with_capacity(parties);
    for i in 0..parties {
        let addr = HostAddr::new(
            Ipv4Addr::new(10, 9, (i / 200) as u8, (i % 200 + 1) as u8),
            5000,
        );
        let grant = agent.join(&mut dp, m, addr, true);
        members.push((addr, grant));
    }
    (dp, agent, members)
}

/// The deterministic traffic mix: `rounds` bursts, each carrying video
/// from every sender (templates cycling through the L1T3 structure,
/// with periodic key frames whose extended DDs punt), audio, a sender
/// report, receiver feedback (NACK and RR+REMB), a STUN probe, and one
/// unparseable packet.
fn traffic_mix(
    agent: &SwitchAgent,
    members: &[(HostAddr, JoinGrant)],
    rounds: usize,
) -> Vec<Vec<Packet>> {
    let mut pzs: Vec<Packetizer> = (0..members.len())
        .map(|i| Packetizer::new(0x1000 + i as u32, 96, 1200))
        .collect();
    let templates = [1u8, 3, 2, 4];
    let mut batches = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let mut batch = Vec::new();
        for (i, (addr, grant)) in members.iter().enumerate() {
            let template_id = templates[(round + i) % templates.len()];
            let is_key = round == 0 && i % 5 == 0;
            let frames = pzs[i].packetize(&EncodedFrame {
                frame_number: round as u16,
                label: FrameLabelCompact {
                    temporal_id: match template_id {
                        0 | 1 => 0,
                        2 => 1,
                        _ => 2,
                    },
                    template_id: if is_key { 0 } else { template_id },
                    is_key,
                },
                // ~5 MTU-sized packets per frame (a real drain cycle sees
                // whole frames, not lone packets): the flow table serves
                // every packet of a port its rule but the first, and
                // replays every packet of a flow but the first.
                size_bytes: 5_000,
                captured_at: SimTime::ZERO,
                rtp_timestamp: round as u32 * 3000,
            });
            for f in &frames {
                batch.push(Packet::new(*addr, grant.video_uplink, f.serialize()));
            }
        }
        // Sender 0's SR fans out like media.
        let sr = rtcp::serialize(&RtcpPacket::Sr(SenderReport {
            ssrc: 0x1000,
            ntp_sec: round as u32,
            ntp_frac: 0,
            rtp_ts: round as u32 * 3000,
            packet_count: round as u32,
            octet_count: round as u32 * 1100,
            reports: vec![],
        }));
        batch.push(Packet::new(members[0].0, members[0].1.video_uplink, sr));
        // Receiver 1 NACKs sender 0; receiver 2 reports RR+REMB.
        if members.len() >= 3 {
            let s = members[0].1.participant;
            if let Some(fb) = agent.video_pair_addr(s, members[1].1.participant) {
                let nack = rtcp::serialize(&RtcpPacket::Nack(Nack {
                    sender_ssrc: 2,
                    media_ssrc: 0x1000,
                    entries: vec![(round as u16, 0)],
                }));
                batch.push(Packet::new(members[1].0, fb, nack));
            }
            if let Some(fb) = agent.video_pair_addr(s, members[2].1.participant) {
                let rr = rtcp::serialize_compound(&[
                    RtcpPacket::Rr(ReceiverReport {
                        ssrc: 3,
                        reports: vec![],
                    }),
                    RtcpPacket::Remb(Remb {
                        sender_ssrc: 3,
                        bitrate_bps: 2_000_000,
                        ssrcs: vec![0x1000],
                    }),
                ]);
                batch.push(Packet::new(members[2].0, fb, rr));
            }
        }
        batch.push(Packet::new(
            members[0].0,
            HostAddr::new(Ipv4Addr::new(10, 0, 0, 100), PORT_BASE),
            StunMessage::binding_request([round as u8; 12]).serialize(),
        ));
        batch.push(Packet::new(
            members[0].0,
            HostAddr::new(Ipv4Addr::new(10, 0, 0, 100), PORT_BASE + 7),
            vec![0xFFu8; 24],
        ));
        batches.push(batch);
    }
    batches
}

/// Run the smoke: identical meetings, identical mix, both batchings.
pub fn run_batch_smoke(parties: usize, rounds: usize) -> DataplaneBatchSmoke {
    let (mut seq_dp, seq_agent, seq_members) = build_meeting(parties);
    let (mut bat_dp, _bat_agent, _bat_members) = build_meeting(parties);
    bat_dp.enable_dense_ports(PORT_BASE, PORT_LIMIT);
    let batches = traffic_mix(&seq_agent, &seq_members, rounds);

    // One packet per call.
    let mut seq_fwd: Vec<Packet> = Vec::new();
    let mut seq_punts: Vec<(usize, u32)> = Vec::new(); // (batch, index)
    let mut out = BatchOutput::default();
    for (bi, batch) in batches.iter().enumerate() {
        for (pi, pkt) in batch.iter().enumerate() {
            seq_dp.process_batch(std::slice::from_ref(pkt), &mut out);
            seq_fwd.append(&mut out.forwards);
            if !out.cpu_punts.is_empty() {
                seq_punts.push((bi, pi as u32));
            }
        }
    }

    // One burst per call.
    let mut bat_fwd: Vec<Packet> = Vec::new();
    let mut bat_punts: Vec<(usize, u32)> = Vec::new();
    let mut bout = BatchOutput::default();
    for (bi, batch) in batches.iter().enumerate() {
        bat_dp.process_batch(batch, &mut bout);
        bat_fwd.append(&mut bout.forwards);
        bat_punts.extend(bout.cpu_punts.iter().map(|&i| (bi, i)));
    }

    let equivalent = bat_fwd == seq_fwd
        && bat_punts == seq_punts
        && bat_dp.counters == seq_dp.counters
        && bat_dp.max_parse_depth == seq_dp.max_parse_depth;

    DataplaneBatchSmoke {
        parties: parties as u64,
        pkts_processed: bout.stats.batch_pkts,
        replicas_emitted: bat_dp.counters.forwarded_pkts,
        batches: bout.stats.batches,
        port_lookups_saved: bout.stats.port_lookups_saved,
        egress_lookups_saved: bout.stats.egress_lookups_saved,
        pre_walks_saved: bout.stats.pre_walks_saved,
        dense_lookups: bat_dp.dense_ports.as_ref().map_or(0, |d| d.dense_lookups),
        cpu_punts: bat_punts.len() as u64,
        equivalent: u64::from(equivalent),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_equivalent_and_deterministic() {
        let a = run_batch_smoke(8, 3);
        assert_eq!(a.equivalent, 1, "a burst must match its packets one by one");
        assert!(a.port_lookups_saved > 0);
        assert!(a.pre_walks_saved > 0);
        assert!(a.dense_lookups > 0);
        assert!(a.cpu_punts > 0, "mix must exercise the punt ring");
        let b = run_batch_smoke(8, 3);
        assert_eq!(a.pkts_processed, b.pkts_processed);
        assert_eq!(a.replicas_emitted, b.replicas_emitted);
        assert_eq!(a.port_lookups_saved, b.port_lookups_saved);
    }
}
