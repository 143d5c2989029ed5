//! Batch equivalence: how a packet sequence is cut into `process_batch`
//! calls must not show in what the data plane does.
//!
//! Two layers of teeth:
//!
//! 1. **Data plane**: one N-packet `process_batch` over a mixed
//!    RTP/RTCP/STUN/unknown burst produces byte-identical forwards, the
//!    same punts (ring indices mapped back to input indices), and
//!    identical counters to N one-packet `process_batch` calls on a
//!    twin data plane — handcrafted mixes and proptest-randomized
//!    batches alike, with dense SoA registers enabled on the N-packet
//!    side only (so the test also proves dense == exact-table). Two
//!    receivers are rate-adapted, so replicas are suppressed and
//!    sequence-rewritten; the one-packet side's forwards are kept as
//!    their wire bytes (payload with the sequence-number overlay written
//!    in), so the comparison checks every rewritten number.
//! 2. **Baselines**: the live fabric slice reproduces the checked-in
//!    `results/fig20_21_fabric_slice.json` byte-for-byte.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use scallop::core::agent::{JoinGrant, SwitchAgent};
use scallop::dataplane::batch::{BatchOutput, BatchStats};
use scallop::dataplane::rules::{EgressKey, PortRule, ReplicationAction};
use scallop::dataplane::seqrewrite::SeqRewriteMode;
use scallop::dataplane::switch::{DataPlaneCounters, ScallopDataPlane};
use scallop::media::encoder::{EncodedFrame, FrameLabelCompact};
use scallop::media::packetizer::Packetizer;
use scallop::netsim::packet::{HostAddr, Packet};
use scallop::netsim::time::SimTime;
use scallop::workload::campus::{CampusModel, CampusParams};
use scallop_bench::baseline::parse_numeric_objects;
use scallop_bench::fabric::{peak_time, run_fabric_slice};
use std::net::Ipv4Addr;

const PORT_BASE: u16 = 10_000;
const PORT_LIMIT: u16 = 12_000;

/// An n-party all-sending meeting built through the real agent, with
/// the second participant decoding at DT1 and the third at DT0; the
/// same construction on every call, so two calls yield identical rule
/// tables.
fn meeting(n: usize) -> (ScallopDataPlane, SwitchAgent, Vec<(HostAddr, JoinGrant)>) {
    let mut dp = ScallopDataPlane::new(SeqRewriteMode::LowRetransmission);
    let mut agent =
        SwitchAgent::new(Ipv4Addr::new(10, 0, 0, 100)).with_port_range(PORT_BASE, PORT_LIMIT);
    let m = agent.create_meeting();
    let mut members = Vec::new();
    for i in 0..n {
        let addr = HostAddr::new(Ipv4Addr::new(10, 9, 0, (i + 1) as u8), 5000);
        let g = agent.join(&mut dp, m, addr, true);
        members.push((addr, g));
    }
    for (dt, (_, g)) in [(1, &members[1]), (0, &members[2])] {
        agent.apply_dt_change(&mut dp, g.participant, dt);
    }
    (dp, agent, members)
}

fn video_bytes(ssrc: u32, seq: u16, template_id: u8, is_key: bool) -> Vec<u8> {
    let mut pz = Packetizer::new(ssrc, 96, 1200);
    pz.set_next_seq(seq);
    let frames = pz.packetize(&EncodedFrame {
        frame_number: seq,
        label: FrameLabelCompact {
            temporal_id: match template_id {
                0 | 1 => 0,
                2 => 1,
                _ => 2,
            },
            template_id,
            is_key,
        },
        size_bytes: 900,
        captured_at: SimTime::ZERO,
        rtp_timestamp: seq as u32 * 3000,
    });
    frames[0].serialize()
}

/// What the one-batch side of [`assert_equivalent_after`] did.
struct BatchSide {
    /// What the port memo and the flow table saved.
    stats: BatchStats,
    counters: DataPlaneCounters,
    forwards: u64,
    /// Port matches that went to a table (dense registers or exact).
    port_lookups: u64,
    /// Sequence-rewritten replicas produced.
    rewritten: usize,
}

/// [`assert_equivalent_after`] on the meeting as built.
fn assert_equivalent(pkts: &[Packet], parties: usize) -> BatchSide {
    assert_equivalent_after(pkts, parties, |_| {})
}

/// Run the same packets as one batch and as batches of one on
/// identically-built data planes (`tweak` applied to both, dense
/// registers on the one-batch side) and assert full equivalence:
/// forwards, punt ring, counters, parse depth — and the same flow-table
/// savings, which outlive a call.
fn assert_equivalent_after(
    pkts: &[Packet],
    parties: usize,
    tweak: impl Fn(&mut ScallopDataPlane),
) -> BatchSide {
    let (mut seq_dp, _, _) = meeting(parties);
    let (mut bat_dp, _, _) = meeting(parties);
    tweak(&mut seq_dp);
    tweak(&mut bat_dp);
    bat_dp.enable_dense_ports(PORT_BASE, PORT_LIMIT);

    // What a forward puts on the wire: addresses and datagram.
    let wire = |f: &Packet| (f.src, f.dst, f.wire_bytes().into_owned());
    let mut seq_fwd = Vec::new();
    let mut seq_punts = Vec::new();
    let mut out = BatchOutput::default();
    for (i, pkt) in pkts.iter().enumerate() {
        seq_dp.process_batch(std::slice::from_ref(pkt), &mut out);
        seq_fwd.extend(out.forwards.iter().map(wire));
        // A batch of one punts index 0: map it back to the input index.
        seq_punts.extend(out.cpu_punts.iter().map(|&p| p + i as u32));
    }

    let mut bout = BatchOutput::default();
    bat_dp.process_batch(pkts, &mut bout);

    let bat_fwd: Vec<_> = bout.forwards.iter().map(wire).collect();
    assert_eq!(bat_fwd, seq_fwd, "forwarded packets diverged");
    assert_eq!(bout.cpu_punts, seq_punts, "punt ring diverged");
    assert_eq!(bat_dp.counters, seq_dp.counters, "counters diverged");
    assert_eq!(
        bat_dp.max_parse_depth, seq_dp.max_parse_depth,
        "parse depth diverged"
    );
    let flow_savings = |s: &BatchStats| (s.pre_walks_saved, s.egress_lookups_saved);
    assert_eq!(
        flow_savings(&out.stats),
        flow_savings(&bout.stats),
        "a flow resolved by an earlier call was not replayed"
    );
    // Every media replica, rewritten or not, shares its ingress packet's
    // buffer; a rewritten one carries its number in the overlay.
    let media: Vec<&Packet> = bout
        .forwards
        .iter()
        .filter(|f| scallop::proto::classify(&f.payload) == scallop::proto::PacketClass::Rtp)
        .collect();
    assert!(
        media.iter().all(|f| pkts
            .iter()
            .any(|p| p.payload.as_ptr() == f.payload.as_ptr())),
        "a media replica copied its payload"
    );
    let rewritten = media.iter().filter(|f| f.seq_overlay().is_some()).count();
    BatchSide {
        stats: bout.stats,
        counters: bat_dp.counters,
        forwards: bout.forwards.len() as u64,
        port_lookups: bat_dp.dense_ports.as_ref().unwrap().dense_lookups
            + bat_dp.port_rules.hits
            + bat_dp.port_rules.misses,
        rewritten,
    }
}

#[test]
fn mixed_traffic_batch_matches_batches_of_one() {
    let (_, agent, members) = meeting(6);
    let mut pkts = Vec::new();
    // Multi-packet flows from every sender: repeats exercise the port
    // and flow caches; the key frame's extended DD punts mid-batch.
    for round in 0..4u16 {
        for (i, (addr, grant)) in members.iter().enumerate() {
            let template = [1u8, 3, 2, 4][(round as usize + i) % 4];
            let is_key = round == 0 && i == 2;
            for burst in 0..3u16 {
                pkts.push(Packet::new(
                    *addr,
                    grant.video_uplink,
                    video_bytes(
                        0x1000 + i as u32,
                        round * 8 + burst,
                        if is_key { 0 } else { template },
                        is_key,
                    ),
                ));
            }
        }
        // STUN probe (punts) and an unparseable packet (drops).
        pkts.push(Packet::new(
            members[0].0,
            HostAddr::new(Ipv4Addr::new(10, 0, 0, 100), PORT_BASE),
            scallop::proto::stun::StunMessage::binding_request([round as u8; 12]).serialize(),
        ));
        pkts.push(Packet::new(
            members[0].0,
            HostAddr::new(Ipv4Addr::new(10, 0, 0, 100), PORT_BASE + 3),
            vec![0xFF; 16],
        ));
        // Feedback traffic: receiver 1 NACKs sender 0.
        let s0 = members[0].0;
        if let Some(fb) = agent.video_pair_addr(members[0].1.participant, members[1].1.participant)
        {
            let nack = scallop::proto::rtcp::serialize(&scallop::proto::rtcp::RtcpPacket::Nack(
                scallop::proto::rtcp::Nack {
                    sender_ssrc: 2,
                    media_ssrc: 0x1000,
                    entries: vec![(round, 0)],
                },
            ));
            pkts.push(Packet::new(s0, fb, nack));
        }
    }
    let rewritten = assert_equivalent(&pkts, 6).rewritten;
    assert!(
        rewritten > 0,
        "the adapted receivers' replicas are rewritten"
    );
}

/// The flow table keeps every flow resolved since the last table write,
/// and the port memo the previous packet's rule. Every case is checked
/// against batches of one on a twin: the walks and egress matches saved
/// must equal the repeats of each flow, adjacent or not, and the port
/// matches saved the adjacent repeats of a port.
#[test]
fn savings_are_the_repeats_of_each_flow_since_the_last_write() {
    const PARTIES: usize = 4;
    let (dp, _, members) = meeting(PARTIES);
    let sfu = |port| HostAddr::new(Ipv4Addr::new(10, 0, 0, 100), port);
    // T0 video (every receiver takes it): sender `s`, sequence number
    // `seq`, addressed to `port` of the SFU.
    let video_to = |s: usize, seq: u16, port: u16| {
        let bytes = video_bytes(0x1000 + s as u32, seq, 1, false);
        Packet::new(members[s].0, sfu(port), bytes)
    };
    let video = |s: usize, seq: u16| video_to(s, seq, members[s].1.video_uplink.port);
    // Senders that were never rate-adapted; three receivers each.
    let (a, b) = (0, 3);
    let fanout = (PARTIES - 1) as u64;
    let saved = |side: &BatchSide| {
        (
            side.stats.port_lookups_saved,
            side.stats.pre_walks_saved,
            side.stats.egress_lookups_saved,
        )
    };

    // A,B,A,B: no packet repeats its neighbour's port, but the second A
    // and the second B replay their flows.
    let side = assert_equivalent(
        &[video(a, 0), video(b, 0), video(a, 1), video(b, 1)],
        PARTIES,
    );
    assert_eq!(saved(&side), (0, 2, 2 * fanout));
    assert_eq!(side.port_lookups, 4);

    // A,A,B,B,A: two adjacent port repeats, and three flow repeats — the
    // returning A among them.
    let side = assert_equivalent(
        &[
            video(a, 0),
            video(a, 1),
            video(b, 0),
            video(b, 1),
            video(a, 2),
        ],
        PARTIES,
    );
    assert_eq!(saved(&side), (2, 3, 3 * fanout));
    assert_eq!(side.forwards, 5 * fanout);

    // A port with no rule, three times: one lookup, three drops.
    let unused = PORT_BASE + 1_500;
    let to_unused = [0, 1, 2].map(|seq| video_to(a, seq, unused));
    let side = assert_equivalent(&to_unused, PARTIES);
    assert_eq!(saved(&side), (2, 0, 0));
    assert_eq!(side.port_lookups, 1);
    assert_eq!(side.counters.no_rule_drops, 3);
    assert_eq!(side.forwards, 0);

    // A flow whose MGID has no group, three times: the failed walk is
    // replayed, and each packet is still a drop.
    let side = assert_equivalent_after(&to_unused, PARTIES, |dp| {
        let action = ReplicationAction::Multicast {
            mgid_by_tier: [60_000; 3],
            l1_xid: 0,
            rid: 0,
            l2_xid: 0,
        };
        let rule = PortRule::SenderUplink {
            action,
            punt_extended_dd: false,
        };
        dp.install_port_rule(unused, rule).unwrap();
    });
    assert_eq!(saved(&side), (2, 2, 0));
    assert_eq!(side.counters.no_rule_drops, 3);
    assert_eq!(side.forwards, 0);

    // A replica without an egress rule, three times: the other replicas
    // go out, the hole is a drop per packet, replayed or not.
    let hole = t0_egress_of(&dp, members[a].1.video_uplink.port);
    let side = assert_equivalent_after(&[0, 1, 2].map(|seq| video(a, seq)), PARTIES, |dp| {
        dp.remove_egress(hole).unwrap();
    });
    assert_eq!(saved(&side), (2, 2, 2 * fanout));
    assert_eq!(side.counters.no_rule_drops, 3);
    assert_eq!(side.forwards, 3 * (fanout - 1));

    // STUN and garbage wedged into a flow resolve nothing and leave both
    // the port memo and the flow table alone: the second A is a hit.
    let stun = scallop::proto::stun::StunMessage::binding_request([9; 12]).serialize();
    let side = assert_equivalent(
        &[
            video(a, 0),
            Packet::new(members[b].0, sfu(members[b].1.video_uplink.port), stun),
            Packet::new(members[b].0, sfu(unused), vec![0xFF; 16]),
            video(a, 1),
        ],
        PARTIES,
    );
    assert_eq!(saved(&side), (1, 1, fanout));
    assert_eq!(side.port_lookups, 1);
}

/// The lowest-RID egress key of the T0 tree that `uplink`'s packets
/// fan out through.
fn t0_egress_of(dp: &ScallopDataPlane, uplink: u16) -> EgressKey {
    let Some(PortRule::SenderUplink {
        action: ReplicationAction::Multicast { mgid_by_tier, .. },
        ..
    }) = dp.port_rules.peek(&uplink).copied()
    else {
        panic!("a sender of a meeting of three or more replicates through the PRE");
    };
    dp.egress
        .iter()
        .map(|(k, _)| *k)
        .filter(|k| k.mgid == mgid_by_tier[0] && k.in_port == uplink)
        .min_by_key(|k| k.rid)
        .expect("the T0 tree has replicas")
}

/// A table write between two packets of one flow makes the second one
/// resolve cold, through every way in: a data-plane method, a direct
/// PRE call (as the agent makes them), and a table swapped in whole —
/// even one whose entries the flow table was once filled from.
#[test]
fn a_write_between_two_packets_of_a_flow_resolves_the_second_cold() {
    const PARTIES: usize = 4;
    let (mut dp, _, members) = meeting(PARTIES);
    let (addr, grant) = members[0];
    let fanout = PARTIES - 1;
    let mut seq = 0;
    let mut out = BatchOutput::default();
    // One packet of sender 0's T0 flow, in a call of its own: (replicas
    // forwarded, walks saved so far).
    let mut send = |dp: &mut ScallopDataPlane| {
        seq += 1;
        let pkt = Packet::new(addr, grant.video_uplink, video_bytes(0x1000, seq, 1, false));
        dp.process_batch(std::slice::from_ref(&pkt), &mut out);
        (out.forwards.len(), out.stats.pre_walks_saved)
    };
    assert_eq!(send(&mut dp), (fanout, 0), "first packet: cold");
    assert_eq!(send(&mut dp), (fanout, 1), "no write: replayed");
    assert_eq!(dp.resolved_flows(), 1);

    // An egress entry removed: the second packet sees the hole.
    let before = dp.egress.clone();
    let hole = t0_egress_of(&dp, grant.video_uplink.port);
    let spec = dp.remove_egress(hole).unwrap();
    assert_eq!(send(&mut dp), (fanout - 1, 1), "cold, with the hole");
    assert_eq!(send(&mut dp), (fanout - 1, 2));

    // The table from before the removal, swapped in whole: it carries the
    // version the flow table was first filled under, not the latest one.
    dp.egress = before;
    assert_eq!(send(&mut dp), (fanout, 2), "cold, without the hole");

    // A write that changes nothing still empties the flow table.
    dp.install_egress(hole, spec).unwrap();
    assert_eq!(send(&mut dp), (fanout, 2));
    assert_eq!(send(&mut dp), (fanout, 3));

    // A direct PRE write, as the agent makes them.
    dp.pre.set_l2_xid_ports(u16::MAX, vec![]);
    assert_eq!(send(&mut dp), (fanout, 3));
    assert_eq!(send(&mut dp), (fanout, 4));
}

#[test]
fn bench_smoke_runner_reports_equivalent() {
    // 10 senders x 5-packet frames x 4 rounds, plus sender 0's sender
    // report each round: each frame's four later packets repeat its first
    // one's port. No meeting is rate-adapted, so each sender's media is
    // one flow (9 replicas), resolved once for the whole run.
    let report = scallop_bench::dataplane::run_batch_smoke(10, 4);
    assert_eq!(report.equivalent, 1);
    assert_eq!(report.port_lookups_saved, 10 * 4 * 4);
    let media_pkts = 10 * 4 * 5 + 4;
    assert_eq!(report.pre_walks_saved, media_pkts - 10);
    assert_eq!(report.egress_lookups_saved, (media_pkts - 10) * 9);
    assert!(report.dense_lookups > 0, "dense registers never hit");
}

/// One randomized packet: who sends, what kind, and the knobs the
/// parser/match pipeline branches on.
#[derive(Debug, Clone)]
enum Gen {
    Video {
        sender: usize,
        seq: u16,
        template: u8,
        is_key: bool,
    },
    Stun {
        port_off: u16,
    },
    Garbage {
        port_off: u16,
        bytes: Vec<u8>,
    },
}

fn arb_pkt(parties: usize) -> impl Strategy<Value = Gen> {
    let video = || {
        (0..parties, any::<u16>(), 0u8..5, any::<bool>()).prop_map(
            |(sender, seq, template, is_key)| Gen::Video {
                sender,
                seq,
                template,
                is_key,
            },
        )
    };
    prop_oneof![
        // The vendored proptest's Union is unweighted; repeating the
        // video arm biases the mix toward media like a real burst.
        video(),
        video(),
        video(),
        (0u16..64).prop_map(|port_off| Gen::Stun { port_off }),
        ((0u16..64), pvec(any::<u8>(), 0..40))
            .prop_map(|(port_off, bytes)| Gen::Garbage { port_off, bytes }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any batch of randomized video/STUN/garbage traffic — valid and
    /// invalid ports, key frames that punt, templates across all
    /// tiers — is processed identically whole and packet by packet.
    #[test]
    fn random_batches_are_equivalent(gens in pvec(arb_pkt(5), 1..80)) {
        let (_, _, members) = meeting(5);
        let pkts: Vec<Packet> = gens
            .iter()
            .map(|g| match g {
                Gen::Video { sender, seq, template, is_key } => Packet::new(
                    members[*sender].0,
                    members[*sender].1.video_uplink,
                    video_bytes(0x1000 + *sender as u32, *seq, *template, *is_key),
                ),
                Gen::Stun { port_off } => Packet::new(
                    members[0].0,
                    HostAddr::new(Ipv4Addr::new(10, 0, 0, 100), PORT_BASE + port_off),
                    scallop::proto::stun::StunMessage::binding_request([7; 12]).serialize(),
                ),
                Gen::Garbage { port_off, bytes } => Packet::new(
                    members[0].0,
                    HostAddr::new(Ipv4Addr::new(10, 0, 0, 100), PORT_BASE + port_off),
                    bytes.clone(),
                ),
            })
            .collect();
        assert_equivalent(&pkts, 5);
    }
}

/// A reused `BatchOutput` carries nothing from one burst into the next:
/// two different bursts of the same length are each parsed afresh.
#[test]
fn reused_output_parses_each_same_length_burst_afresh() {
    let (_, _, members) = meeting(4);
    let (addr, grant) = &members[0];
    let media: Vec<Packet> = (0..6u16)
        .map(|seq| {
            Packet::new(
                *addr,
                grant.video_uplink,
                video_bytes(0x1000, seq, 1, false),
            )
        })
        .collect();
    // Same length, same ports, nothing in it is RTP.
    let other: Vec<Packet> = (0..6u8)
        .map(|i| {
            let payload = if i % 2 == 0 {
                scallop::proto::stun::StunMessage::binding_request([i; 12]).serialize()
            } else {
                vec![0xFF; 16]
            };
            Packet::new(*addr, grant.video_uplink, payload)
        })
        .collect();

    let (mut reused_dp, _, _) = meeting(4);
    let (mut fresh_dp, _, _) = meeting(4);
    let mut reused = BatchOutput::default();
    for burst in [&media, &other, &media] {
        reused_dp.process_batch(burst, &mut reused);
        let mut fresh = BatchOutput::default();
        fresh_dp.process_batch(burst, &mut fresh);
        assert_eq!(reused.forwards, fresh.forwards);
        assert_eq!(reused.cpu_punts, fresh.cpu_punts);
        assert_eq!(reused_dp.counters, fresh_dp.counters);
    }
    assert_eq!(reused_dp.counters.stun_pkts, 3);
    assert_eq!(reused_dp.counters.unknown_drops, 3);
    assert_eq!(reused_dp.counters.rtp_in_pkts, 12);
}

#[test]
fn fabric_slice_reproduces_checked_in_baseline() {
    // Same configuration as `bench_smoke` and the fig20/21 binary.
    let params = CampusParams::default();
    let population = CampusModel::new(params, 0x7AB20).generate();
    let bin = scallop::netsim::time::SimDuration::from_secs(600);
    let (meetings, _) = CampusModel::concurrency_series(&population, bin);
    let peak_t = peak_time(&meetings);
    let slice = run_fabric_slice(&population, &params, peak_t, 4, 4, 2.0);

    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/fig20_21_fabric_slice.json"),
    )
    .expect("checked-in baseline exists");
    let baseline = parse_numeric_objects(&text);
    assert_eq!(baseline.len(), slice.edge_rows.len());
    for (row, base) in slice.edge_rows.iter().zip(&baseline) {
        let field = |k: &str| base.get(k).copied().unwrap_or(f64::NAN);
        assert_eq!(row.edge as f64, field("edge"));
        assert_eq!(
            row.meetings_homed as f64,
            field("meetings_homed"),
            "edge {}",
            row.edge
        );
        assert_eq!(
            row.rtp_in_pkts as f64,
            field("rtp_in_pkts"),
            "edge {}",
            row.edge
        );
        assert_eq!(
            row.forwarded_pkts as f64,
            field("forwarded_pkts"),
            "edge {}",
            row.edge
        );
        assert_eq!(
            row.trunk_out_pkts as f64,
            field("trunk_out_pkts"),
            "edge {}",
            row.edge
        );
        assert_eq!(
            row.trunk_in_pkts as f64,
            field("trunk_in_pkts"),
            "edge {}",
            row.edge
        );
    }
}
