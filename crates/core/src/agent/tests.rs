use super::check::first_difference;
use super::*;
use proptest::prelude::*;
use scallop_dataplane::rules::{EgressKey, PortRule};
use scallop_dataplane::seqrewrite::SeqRewriteMode;
use scallop_dataplane::BatchOutput;
use scallop_media::encoder::{EncodedFrame, FrameLabelCompact};
use scallop_media::packetizer::Packetizer;
use scallop_proto::rtcp::{self, RtcpPacket};
use scallop_proto::rtp::RtpView;
use scallop_proto::stun::StunMessage;

impl SwitchAgent {
    /// The fabric check of this switch alone: its ownership audit, then
    /// its tables against a rebuild of every meeting.
    fn check_compiled(&self, dp: &ScallopDataPlane) -> Result<(), String> {
        let rebuilt = self.rebuilt_state(dp)?;
        first_difference("tables", &self.canonical_state(dp)?, &rebuilt)
    }
}

fn mk() -> (SwitchAgent, ScallopDataPlane) {
    (
        SwitchAgent::new(Ipv4Addr::new(10, 0, 0, 100)),
        ScallopDataPlane::new(SeqRewriteMode::LowRetransmission),
    )
}

fn addr(last: u8) -> HostAddr {
    HostAddr::new(Ipv4Addr::new(10, 1, 0, last), 5000)
}

#[test]
fn two_party_meeting_uses_fast_path() {
    let (mut agent, mut dp) = mk();
    let m = agent.create_meeting();
    let _g1 = agent.join(&mut dp, m, addr(1), true);
    let g2 = agent.join(&mut dp, m, addr(2), true);
    assert_eq!(agent.design_of(m), Some(TreeDesign::TwoParty));
    assert_eq!(dp.pre.groups_used(), 0, "no trees for two-party");
    // Distinct uplink ports allocated.
    assert_ne!(g2.video_uplink.port, g2.audio_uplink.port);
}

#[test]
fn third_join_migrates_to_nra() {
    let (mut agent, mut dp) = mk();
    let m = agent.create_meeting();
    agent.join(&mut dp, m, addr(1), true);
    agent.join(&mut dp, m, addr(2), true);
    agent.join(&mut dp, m, addr(3), true);
    assert_eq!(agent.design_of(m), Some(TreeDesign::Nra));
    assert_eq!(dp.pre.groups_used(), 1, "one tree per NRA meeting pair");
    assert_eq!(dp.pre.group_size(dp_first_group(&dp)).unwrap(), 3);
    assert_eq!(agent.counters.migrations, 1, "TwoParty -> NRA");
}

fn dp_first_group(dp: &ScallopDataPlane) -> u16 {
    // The agent allocates MGIDs from 1.
    (1..100)
        .find(|&g| dp.pre.group_size(g).is_some())
        .expect("a group exists")
}

#[test]
fn nra_trees_pack_two_meetings() {
    let (mut agent, mut dp) = mk();
    let m1 = agent.create_meeting();
    for i in 1..=3 {
        agent.join(&mut dp, m1, addr(i), true);
    }
    let m2 = agent.create_meeting();
    for i in 11..=13 {
        agent.join(&mut dp, m2, addr(i), true);
    }
    // m = 2 packing: both meetings share one tree.
    assert_eq!(dp.pre.groups_used(), 1, "two meetings share a tree");
    assert_eq!(dp.pre.group_size(dp_first_group(&dp)).unwrap(), 6);
}

#[test]
fn dt_change_migrates_to_ra_r_and_back() {
    let (mut agent, mut dp) = mk();
    let m = agent.create_meeting();
    let g1 = agent.join(&mut dp, m, addr(1), true);
    let _g2 = agent.join(&mut dp, m, addr(2), true);
    let g3 = agent.join(&mut dp, m, addr(3), true);
    assert_eq!(agent.design_of(m), Some(TreeDesign::Nra));
    // Receiver 3 degrades to 15 fps.
    agent.apply_dt_change(&mut dp, g3.participant, 1);
    assert_eq!(agent.design_of(m), Some(TreeDesign::RaR));
    assert_eq!(dp.pre.groups_used(), 3, "one tree per quality tier");
    assert_eq!(agent.dt_of(g3.participant), Some(1));
    // Tracker slot allocated for the adapted streams toward g3.
    assert!(dp.tracker.packets_processed == 0);
    // Recovery: back to NRA.
    agent.apply_dt_change(&mut dp, g3.participant, 2);
    assert_eq!(agent.design_of(m), Some(TreeDesign::Nra));
    assert_eq!(dp.pre.groups_used(), 1);
    let _ = g1;
}

#[test]
fn per_sender_dt_forces_ra_sr() {
    let (mut agent, mut dp) = mk();
    let m = agent.create_meeting();
    let g1 = agent.join(&mut dp, m, addr(1), true);
    let _g2 = agent.join(&mut dp, m, addr(2), true);
    let g3 = agent.join(&mut dp, m, addr(3), true);
    agent.set_sender_dt(&mut dp, g1.participant, g3.participant, 0);
    assert_eq!(agent.design_of(m), Some(TreeDesign::RaSr));
    // 3 senders -> 2 sender-groups × 3 tiers = 6 trees.
    assert_eq!(dp.pre.groups_used(), 6);
}

#[test]
fn leave_cleans_up() {
    let (mut agent, mut dp) = mk();
    let m = agent.create_meeting();
    let g1 = agent.join(&mut dp, m, addr(1), true);
    let _g2 = agent.join(&mut dp, m, addr(2), true);
    let g3 = agent.join(&mut dp, m, addr(3), true);
    let rules_at_three = dp.port_rules.len();
    agent.leave(&mut dp, m, g3.participant);
    assert_eq!(agent.design_of(m), Some(TreeDesign::TwoParty));
    assert_eq!(dp.pre.groups_used(), 0, "trees released");
    assert!(dp.port_rules.len() < rules_at_three);
    agent.leave(&mut dp, m, g1.participant);
    // Lone participant: media rules removed.
    assert_eq!(dp.pre.groups_used(), 0);
}

#[test]
fn a_second_leave_of_the_same_participant_is_a_no_op() {
    // A graftable layout, so the first leave prunes.
    let (mut agent, mut dp, m) = with_partner();
    let g: Vec<JoinGrant> = (1..=4)
        .map(|i| agent.join(&mut dp, m, addr(i), i != 3))
        .collect();
    agent.leave(&mut dp, m, g[1].participant);
    assert_eq!(agent.counters.prune_leaves, 1);
    let (lines, counters) = (agent.canonical_state(&dp), dp.counters);
    agent.leave(&mut dp, m, g[1].participant);
    assert_eq!(
        agent.canonical_state(&dp),
        lines,
        "the tables are unchanged"
    );
    assert_eq!(
        (dp.counters.rule_installs, dp.counters.rule_removals),
        (counters.rule_installs, counters.rule_removals),
        "nothing is written"
    );
    agent
        .check_compiled(&dp)
        .expect("the switch still passes its check");
}

#[test]
fn a_two_party_shrink_forwards_nacks_in_the_numbers_the_receiver_saw() {
    // Receiver 1 at target 0 in a three-party meeting: its stream from
    // sender 0 is renumbered, and the tracker row's offset grows with
    // every frame it drops.
    let (mut agent, mut dp) = mk();
    let m = agent.create_meeting();
    let g: Vec<JoinGrant> = (1..=3)
        .map(|i| agent.join(&mut dp, m, addr(i), true))
        .collect();
    let (s, r) = (g[0], g[1].participant);
    agent.apply_dt_change(&mut dp, r, 0);
    let mut pz = Packetizer::new(0xAA, 96, 1200);
    let mut out = BatchOutput::default();
    // Sender 0's frame `n` of (temporal layer, template); the sequence
    // number receiver 1 gets it under, if it gets it.
    let mut send = |dp: &mut ScallopDataPlane, n: u16, (temporal_id, template_id)| {
        let frame = EncodedFrame {
            frame_number: n,
            label: FrameLabelCompact {
                temporal_id,
                template_id,
                is_key: false,
            },
            size_bytes: 500,
            captured_at: SimTime::ZERO,
            rtp_timestamp: n as u32 * 3000,
        };
        let pkt = Packet::new(addr(1), s.video_uplink, pz.packetize(&frame)[0].serialize());
        dp.process_batch(std::slice::from_ref(&pkt), &mut out);
        let to_r = out.forwards.iter().find(|f| f.dst == addr(2));
        to_r.map(|f| RtpView::new(&f.wire_bytes()).unwrap().sequence_number())
    };
    for (n, layer) in [(0, 1), (2, 3), (1, 2), (2, 4), (0, 1)]
        .into_iter()
        .enumerate()
    {
        send(&mut dp, n as u16, layer);
    }
    let slot = agent.pinfo[&r].tracker_idx[&s.participant];
    assert_ne!(dp.tracker.offset_of(slot.into()), 0, "frames were dropped");
    // The third member leaves: the pair falls back to unicast, which
    // renumbers nothing.
    agent.leave(&mut dp, m, g[2].participant);
    assert_eq!(agent.design_of(m), Some(TreeDesign::TwoParty));
    let seen = send(&mut dp, 5, (0, 1)).expect("a T0 frame reaches receiver 1");
    let nack = rtcp::serialize_compound(&[RtcpPacket::Nack(rtcp::Nack {
        sender_ssrc: 2,
        media_ssrc: 0xAA,
        entries: vec![(seen, 0)],
    })]);
    let vp = agent.video_pair_addr(s.participant, r).unwrap();
    dp.process_batch(&[Packet::new(addr(2), vp, nack.clone())], &mut out);
    assert_eq!(out.forwards.len(), 1);
    assert_eq!(out.forwards[0].dst, addr(1));
    assert_eq!(out.forwards[0].payload, nack, "the NACK names what r saw");
}

#[test]
fn ports_recycle_under_meeting_churn() {
    // A fabric edge owns a narrow port slice; meeting churn must
    // recycle released ports or the range exhausts while nearly
    // empty. 40 rounds × ~18 ports/round only fits in 50 ports if
    // leave() returns them.
    let mut agent = SwitchAgent::new(Ipv4Addr::new(10, 0, 0, 100)).with_port_range(10_000, 10_050);
    let mut dp = ScallopDataPlane::new(SeqRewriteMode::LowRetransmission);
    for round in 0..40u8 {
        let m = agent.create_meeting();
        let grants: Vec<_> = (1..=3)
            .map(|i| agent.join(&mut dp, m, addr(round.wrapping_mul(3) + i), true))
            .collect();
        for g in grants {
            agent.leave(&mut dp, m, g.participant);
        }
    }
    assert_eq!(dp.pre.groups_used(), 0, "all trees released");
}

#[test]
fn stun_answered_from_cpu() {
    let (mut agent, mut dp) = mk();
    let req = StunMessage::binding_request([9; 12]).serialize();
    let pkt = Packet::new(addr(1), HostAddr::new(agent.sfu_ip(), 10_000), req);
    let out: Vec<Packet> = agent
        .handle_cpu_packet(SimTime::ZERO, &pkt, &mut dp)
        .collect();
    assert_eq!(out.len(), 1);
    let resp = StunMessage::parse(&out[0].payload).unwrap();
    assert!(resp.is_success_response());
    assert_eq!(resp.xor_mapped_address(), Some((addr(1).ip, addr(1).port)));
    assert_eq!(agent.counters.stun_answered, 1);
}

#[test]
fn remb_copy_drives_dt_selection() {
    let (mut agent, mut dp) = mk();
    let m = agent.create_meeting();
    let g1 = agent.join(&mut dp, m, addr(1), true);
    let _g2 = agent.join(&mut dp, m, addr(2), true);
    let g3 = agent.join(&mut dp, m, addr(3), true);
    // Feedback copy: g3 reports a 1 Mbit/s downlink for g1's video.
    let vp = agent
        .video_pair_addr(g1.participant, g3.participant)
        .unwrap();
    let remb = rtcp::serialize_compound(&[RtcpPacket::Remb(rtcp::Remb {
        sender_ssrc: 0x33,
        bitrate_bps: 1_000_000,
        ssrcs: vec![0x11],
    })]);
    let pkt = Packet::new(addr(3), vp, remb);
    agent.handle_cpu_packet(SimTime::ZERO, &pkt, &mut dp);
    assert_eq!(agent.counters.rembs_analyzed, 1);
    // 1 Mbit/s sits between the default thresholds -> DT 1.
    assert_eq!(agent.dt_of(g3.participant), Some(1));
    assert_eq!(agent.design_of(m), Some(TreeDesign::RaR));
}

#[test]
fn feedback_filter_selects_best_downlink() {
    let (mut agent, mut dp) = mk();
    let m = agent.create_meeting();
    let g1 = agent.join(&mut dp, m, addr(1), true);
    let g2 = agent.join(&mut dp, m, addr(2), true);
    let g3 = agent.join(&mut dp, m, addr(3), true);
    // g2 reports 2.5 Mbit/s, g3 reports 0.9 Mbit/s about g1.
    for (rcv, raddr, bps) in [
        (g2.participant, addr(2), 2_500_000u64),
        (g3.participant, addr(3), 900_000),
    ] {
        let vp = agent.video_pair_addr(g1.participant, rcv).unwrap();
        let remb = rtcp::serialize_compound(&[RtcpPacket::Remb(rtcp::Remb {
            sender_ssrc: 1,
            bitrate_bps: bps,
            ssrcs: vec![0x11],
        })]);
        agent.handle_cpu_packet(SimTime::ZERO, &Packet::new(raddr, vp, remb), &mut dp);
    }
    agent.tick(SimTime::from_millis(100), &mut dp);
    // Only g2's pair port may forward REMB to g1.
    let vp2 = agent
        .video_pair_addr(g1.participant, g2.participant)
        .unwrap();
    let vp3 = agent
        .video_pair_addr(g1.participant, g3.participant)
        .unwrap();
    let allowed = |dp: &ScallopDataPlane, port: u16| match dp.port_rules.peek(&port) {
        Some(PortRule::ReceiverFeedback { remb_allowed, .. }) => *remb_allowed,
        other => panic!("missing feedback rule: {other:?}"),
    };
    assert!(allowed(&dp, vp2.port), "best downlink must be selected");
    assert!(!allowed(&dp, vp3.port), "worse downlink must be filtered");
}

#[test]
fn feedback_sink_min_aggregates_remote_estimates() {
    let (mut agent, mut dp) = mk();
    let m = agent.create_meeting();
    let g1 = agent.join(&mut dp, m, addr(1), true);
    let g2 = agent.join(&mut dp, m, addr(2), false);
    let g3 = agent.join(&mut dp, m, addr(3), false);
    let sink = agent.feedback_sink(&mut dp, g1.participant);
    assert_eq!(
        agent.feedback_sink(&mut dp, g1.participant),
        sink,
        "sink port is idempotent"
    );
    // While the sink is live, no local pair forwards REMB directly.
    let vp2 = agent
        .video_pair_addr(g1.participant, g2.participant)
        .unwrap();
    match dp.port_rules.peek(&vp2.port) {
        Some(PortRule::ReceiverFeedback { remb_allowed, .. }) => {
            assert!(!remb_allowed, "sink takes over REMB forwarding")
        }
        other => panic!("missing feedback rule: {other:?}"),
    }
    let send_local = |agent: &mut SwitchAgent, dp: &mut _, rcv, raddr, bps| {
        let vp = agent.video_pair_addr(g1.participant, rcv).unwrap();
        let remb = rtcp::serialize_compound(&[RtcpPacket::Remb(rtcp::Remb {
            sender_ssrc: 1,
            bitrate_bps: bps,
            ssrcs: vec![0x11],
        })]);
        agent
            .handle_cpu_packet(SimTime::ZERO, &Packet::new(raddr, vp, remb), dp)
            .collect::<Vec<_>>()
    };
    // Both local receivers report; the filter's best (g2 at 3 Mb/s)
    // becomes the local component and the aggregate.
    send_local(&mut agent, &mut dp, g2.participant, addr(2), 3_000_000);
    let out = send_local(&mut agent, &mut dp, g3.participant, addr(3), 2_500_000);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].dst, addr(1), "aggregate goes to the sender");
    let parsed = rtcp::parse_compound(&out[0].payload).unwrap();
    let RtcpPacket::Remb(agg) = &parsed[0] else {
        panic!("expected REMB");
    };
    assert_eq!(agg.bitrate_bps, 3_000_000);
    // A remote edge reporting 1 Mb/s at the sink caps the aggregate.
    let remote_edge = HostAddr::new(Ipv4Addr::new(10, 0, 1, 100), 20_000);
    let sink_addr = HostAddr::new(agent.sfu_ip(), sink);
    let remb = rtcp::serialize_compound(&[RtcpPacket::Remb(rtcp::Remb {
        sender_ssrc: 1,
        bitrate_bps: 1_000_000,
        ssrcs: vec![0x11],
    })]);
    let out: Vec<Packet> = agent
        .handle_cpu_packet(
            SimTime::ZERO,
            &Packet::new(remote_edge, sink_addr, remb),
            &mut dp,
        )
        .collect();
    let parsed = rtcp::parse_compound(&out[0].payload).unwrap();
    let RtcpPacket::Remb(agg) = &parsed[0] else {
        panic!("expected REMB");
    };
    assert_eq!(agg.bitrate_bps, 1_000_000, "min over per-edge estimates");
    assert!(agent.counters.rembs_aggregated >= 2);
    // NACKs arriving at the sink ride through to the sender, sourced
    // like a locally forwarded NACK.
    let nack = rtcp::serialize_compound(&[RtcpPacket::Nack(rtcp::Nack {
        sender_ssrc: 3,
        media_ssrc: 0xAA,
        entries: vec![(5, 0)],
    })]);
    let out: Vec<Packet> = agent
        .handle_cpu_packet(
            SimTime::ZERO,
            &Packet::new(remote_edge, sink_addr, nack.clone()),
            &mut dp,
        )
        .collect();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].dst, addr(1));
    assert_eq!(out[0].src, g1.video_uplink);
    assert_eq!(out[0].payload, nack, "relayed byte for byte");
    // GC of the remote segment lifts the cap.
    agent.clear_remote_est(g1.participant, remote_edge.ip);
    let out = send_local(&mut agent, &mut dp, g2.participant, addr(2), 3_000_000);
    let parsed = rtcp::parse_compound(&out[0].payload).unwrap();
    let RtcpPacket::Remb(agg) = &parsed[0] else {
        panic!("expected REMB");
    };
    assert_eq!(agg.bitrate_bps, 3_000_000, "stale remote estimate cleared");
}

#[test]
fn cadence_mapping() {
    assert_eq!(cadence_for_dt(2), 1);
    assert_eq!(cadence_for_dt(1), 2);
    assert_eq!(cadence_for_dt(0), 4);
    assert_eq!(cadence_for_dt(9), 1);
}

#[test]
fn default_policy_hysteresis() {
    let p = default_policy([450_000, 1_100_000]);
    // (explicit thresholds: the test pins the policy's arithmetic,
    // not the deployment defaults)
    assert_eq!(p(2, 2_000_000), 2);
    assert_eq!(p(2, 800_000), 1); // drop below threshold
    assert_eq!(p(1, 1_400_000), 1); // within the 2.2x up-gate band
    assert_eq!(p(1, 2_500_000), 2); // clearly past 2.42M
    assert_eq!(p(1, 300_000), 0);
    assert_eq!(p(0, 900_000), 0); // 450k*2.2 = 990k > 900k
    assert_eq!(p(0, 1_050_000), 1);
}

/// A 3-party partner meeting, then a fresh meeting `m` on the same
/// switch: the partner's tree half waits in the packing pool, so
/// `m`'s first tree pairs with it at once (a half still waiting
/// there pins every change of its meeting to the rebuild path —
/// see [`SwitchAgent::graft_tiers`]'s re-pack guard).
fn with_partner() -> (SwitchAgent, ScallopDataPlane, MeetingId) {
    let (mut agent, mut dp) = mk();
    let partner = agent.create_meeting();
    for i in 101..=103 {
        agent.join(&mut dp, partner, addr(i), true);
    }
    let m = agent.create_meeting();
    (agent, dp, m)
}

/// What compiling `joins` into `m` by one full rebuild bills,
/// `(installs, removals)`: admit them into a copy, rebuild once.
fn rebuild_bill(
    agent: &SwitchAgent,
    dp: &ScallopDataPlane,
    m: MeetingId,
    joins: &[(HostAddr, bool)],
) -> (u64, u64) {
    let (mut agent, mut dp) = agent.copy_with(dp);
    for &(a, sends) in joins {
        agent.admit(&mut dp, m, a, sends, ParticipantClass::Local, TRUNK_XID);
    }
    agent.rebuild_meeting(&mut dp, m);
    (dp.counters.rule_installs, dp.counters.rule_removals)
}

#[test]
fn grafted_joins_match_full_rebuild() {
    // 6 joins: TwoParty -> NRA migration, then three grafted joins.
    let (mut agent, mut dp, m) = with_partner();
    for i in 1..=6 {
        agent.join(&mut dp, m, addr(i), i % 2 == 1);
        agent
            .check_compiled(&dp)
            .expect("grafted state is its rebuild");
    }
    assert!(agent.counters.graft_joins >= 3, "joins 4..6 must graft");
}

#[test]
fn pruned_leaves_match_full_rebuild() {
    // Leave a receiver (3) and a sender (0) from a 7-party meeting;
    // both prunes must land on the rebuild reference.
    let (mut agent, mut dp, m) = with_partner();
    let grants: Vec<JoinGrant> = (1..=7)
        .map(|i| agent.join(&mut dp, m, addr(i), i % 2 == 1))
        .collect();
    for l in [3, 0] {
        agent.leave(&mut dp, m, grants[l].participant);
        agent
            .check_compiled(&dp)
            .expect("pruned state is its rebuild");
    }
    assert!(agent.counters.prune_leaves >= 1, "a leave must prune");
}

#[test]
fn grafts_bill_fewer_flow_mods_than_rebuilds() {
    let (mut agent, mut dp, m) = with_partner();
    let (installs_before, mut rebuilt) = (dp.counters.rule_installs, 0);
    for i in 1..=12 {
        let join = (addr(i), i <= 2);
        rebuilt += rebuild_bill(&agent, &dp, m, &[join]).0;
        agent.join(&mut dp, m, join.0, join.1);
    }
    let grafted = dp.counters.rule_installs - installs_before;
    assert!(
        rebuilt > 2 * grafted,
        "per-join rebuilds must out-bill grafts: {rebuilt} vs {grafted}"
    );
}

#[test]
fn a_batch_of_one_grafts_and_a_batch_of_two_rebuilds_once() {
    // A graftable layout: the partner meeting pairs the tree half,
    // three members put the meeting on NRA.
    let graftable = || {
        let (mut agent, mut dp, m) = with_partner();
        for i in 1..=3 {
            agent.join(&mut dp, m, addr(i), i == 1);
        }
        (agent, dp, m)
    };
    // What `joins` bill on that layout: (grafts, installs, removals).
    let bill = |joins: &[(HostAddr, bool)]| {
        let (mut agent, mut dp, m) = graftable();
        let (grafts, before) = (agent.counters.graft_joins, dp.counters);
        assert_eq!(agent.join_many(&mut dp, m, joins).len(), joins.len());
        (
            agent.counters.graft_joins - grafts,
            dp.counters.rule_installs - before.rule_installs,
            dp.counters.rule_removals - before.rule_removals,
        )
    };
    let (agent, dp, m) = graftable();
    // A join is a burst of one: one graft, touching nothing that
    // was installed — far below the rebuild bill for the same join.
    let one = bill(&[(addr(4), false)]);
    let one_rebuilt = rebuild_bill(&agent, &dp, m, &[(addr(4), false)]);
    assert_eq!((one.0, one.2), (1, 0), "a batch of one grafts");
    assert!(one.1 < one_rebuilt.0, "{} vs {}", one.1, one_rebuilt.0);
    // `join` is that same batch of one.
    let (mut agent1, mut dp1, _) = graftable();
    let before = dp1.counters.rule_installs;
    agent1.join(&mut dp1, m, addr(4), false);
    assert_eq!(dp1.counters.rule_installs - before, one.1);
    // Two joiners: no graft, exactly the bill of one full rebuild.
    let two = [(addr(4), false), (addr(5), true)];
    let (grafts, installs, removals) = bill(&two);
    assert_eq!(grafts, 0, "a batch of two does not graft");
    assert_eq!(
        (installs, removals),
        rebuild_bill(&agent, &dp, m, &two),
        "one rebuild"
    );
}

#[test]
fn join_many_matches_sequential_joins() {
    // Batched admission admits in input order, so its final state
    // is byte-identical to sequential joins — one compile instead
    // of ten.
    let batch: Vec<(HostAddr, bool)> = (1..=10).map(|i| (addr(i), i <= 2)).collect();
    let (mut seq_agent, mut seq_dp) = mk();
    let m = seq_agent.create_meeting();
    for &(a, sends) in &batch {
        seq_agent.join(&mut seq_dp, m, a, sends);
    }
    let (mut bat_agent, mut bat_dp) = mk();
    let mb = bat_agent.create_meeting();
    let grants = bat_agent.join_many(&mut bat_dp, mb, &batch);
    assert_eq!(grants.len(), batch.len());
    assert_eq!(
        bat_agent.canonical_state(&bat_dp),
        seq_agent.canonical_state(&seq_dp),
        "batched admission diverged from sequential joins"
    );
    bat_agent.check_compiled(&bat_dp).expect("batch compiles");
    assert!(
        bat_dp.counters.rule_installs < seq_dp.counters.rule_installs,
        "one batch compile must bill less than per-join compiles"
    );
}

#[test]
fn check_ignores_which_meeting_shares_a_packed_tree() {
    // A and B pack one NRA tree, C holds a second one alone. B falls
    // back to two-party, leaving A and C alone on half-empty trees:
    // a rebuild of A repacks it onto C's tree, in C's free slot,
    // while the installed A stays put until A itself changes.
    let (mut agent, mut dp) = mk();
    let mut grants = Vec::new();
    let meetings: Vec<MeetingId> = (0..3).map(|_| agent.create_meeting()).collect();
    for (k, &m) in meetings.iter().enumerate() {
        for i in 1..=3 {
            grants.push(agent.join(&mut dp, m, addr(10 * k as u8 + i), true));
        }
    }
    agent.leave(&mut dp, meetings[1], grants[3].participant);
    assert_eq!(dp.pre.groups_used(), 2);
    let (mut copy, mut copy_dp) = agent.copy_with(&dp);
    copy.rebuild_meeting(&mut copy_dp, meetings[0]);
    assert_eq!(copy_dp.pre.groups_used(), 1, "a rebuild repacks A onto C");
    // Partner and slot are naming, like the MGID: not a difference.
    agent
        .check_compiled(&dp)
        .expect("a lone packed meeting compiles");
}

#[test]
fn check_accounts_for_every_id_each_pool_draws() {
    // Ports, pids and tracker slots (an adapted receiver) in use, and
    // some of each handed back by a leave.
    let (mut agent, mut dp) = mk();
    let m = agent.create_meeting();
    let g: Vec<JoinGrant> = (1..=4)
        .map(|i| agent.join(&mut dp, m, addr(i), true))
        .collect();
    agent.apply_dt_change(&mut dp, g[3].participant, 1);
    agent.leave(&mut dp, m, g[0].participant);
    agent
        .check_compiled(&dp)
        .expect("every id is held once or free once");
    let broken = |corrupt: &dyn Fn(&mut SwitchAgent)| {
        let mut copy = agent.clone();
        corrupt(&mut copy);
        copy.check_compiled(&dp).expect_err("the check must see it")
    };
    let uplink = g[1].video_uplink.port;
    let freed = g[0].participant;
    let err = broken(&|a| a.ports.give(uplink));
    assert!(err.contains("both free and in use"), "{err}");
    let err = broken(&|a| a.pids.give(freed));
    assert!(
        err.contains("participant ids drawn, but"),
        "freed twice: {err}"
    );
    let err = broken(&|a| {
        a.mgids.take();
    });
    assert!(err.contains("MGIDs drawn, but"), "leaked: {err}");
    let err = broken(&|a| {
        a.trackers.take();
    });
    assert!(err.contains("tracker slots drawn, but"), "leaked: {err}");
}

#[test]
fn the_ownership_audit_names_a_stray_egress_entry() {
    // Meeting A: two senders and a receiver that does not send; meeting
    // B: one more sender.
    let (mut agent, mut dp) = mk();
    let (a, b) = (agent.create_meeting(), agent.create_meeting());
    let g: Vec<JoinGrant> = (1..=3)
        .map(|i| agent.join(&mut dp, a, addr(i), i != 3))
        .collect();
    let other = agent.join(&mut dp, b, addr(11), true);
    agent.join(&mut dp, b, addr(12), true);
    agent.check_compiled(&dp).expect("every entry is a pair");
    let (mgid, _) = agent.meetings[&a].trees[0];
    let spec = *dp.egress.iter().next().expect("an egress entry").1;
    let pair_port = agent.video_pair_addr(g[0].participant, g[1].participant);
    // Into receiver 1's entries: from a port that is no uplink, from
    // the uplink of a member that does not send, and from the uplink of
    // another meeting's sender.
    for in_port in [
        pair_port.unwrap().port,
        g[2].video_uplink.port,
        other.video_uplink.port,
    ] {
        let (copy, mut copy_dp) = agent.copy_with(&dp);
        let key = EgressKey {
            mgid,
            rid: g[1].participant,
            in_port,
        };
        // Straight on the table: the agent's one egress writer stays one.
        copy_dp.egress.upsert(key, spec).unwrap();
        let err = copy.check_compiled(&copy_dp).expect_err("a stray entry");
        assert_eq!(err, format!("egress {key:?} is no pair of one meeting"));
    }
}

#[test]
fn the_fabric_check_names_the_part_that_differs() {
    use crate::controller::JoinRequest;
    use crate::fabric::Fabric;
    use crate::shard::ShardedControlPlane;
    use scallop_netsim::link::LinkConfig;
    use scallop_netsim::sim::Simulator;
    use scallop_netsim::time::SimDuration;
    use scallop_netsim::topology::Topology;
    // A sender on edge 0 and receivers on both edges of zone 1, so the
    // meeting holds a gateway, remote entries and a WAN branch.
    let world = || {
        let mut sim = Simulator::new(7);
        let f = Fabric::build(
            &mut sim,
            Topology::federation(2, 2, 0),
            LinkConfig::infinite(SimDuration::from_micros(50)),
            SeqRewriteMode::LowRetransmission,
        );
        let mut plane = ShardedControlPlane::new(1);
        let gmid = plane.create_fabric_meeting(&mut sim, &f, 0);
        let reqs: Vec<JoinRequest> = [(0, true), (2, false), (3, false)]
            .into_iter()
            .enumerate()
            .map(|(i, (edge, sends))| JoinRequest {
                edge,
                addr: addr(i as u8 + 1),
                sends,
            })
            .collect();
        let out = plane.join(&mut sim, &f, gmid, &reqs);
        let sender = out[0].grant.expect("admitted");
        (sim, f, plane, gmid, sender)
    };
    let (mut sim, f, plane, gmid, sender) = world();
    assert_eq!(f.check(&mut sim, &plane), Ok(()));
    let broken = |corrupt: &dyn Fn(&mut Simulator, &Fabric, &mut ShardedControlPlane)| {
        let (mut sim, f, mut plane, ..) = world();
        corrupt(&mut sim, &f, &mut plane);
        f.check(&mut sim, &plane)
            .expect_err("the check must see it")
    };
    let err = broken(&|sim, f, _| {
        let dp = &mut f.edge_mut(sim, 0).dp;
        let key = *dp.egress.iter().next().expect("an egress entry").0;
        // Straight on the table: the agent's one egress writer stays one.
        dp.egress.remove(&key);
    });
    assert!(
        err.starts_with("edge 0: tables differ"),
        "table line: {err}"
    );
    let err = broken(&|_, _, plane| plane.ledger.credit_member(gmid, sender.global));
    assert!(err.starts_with("ledger books differ"), "books: {err}");
    let err = broken(&|_, _, plane| {
        let rec = plane.fabric_meetings.get_mut(&gmid).expect("live");
        rec.zone_gateways.remove(&1);
    });
    assert!(err.ends_with("zone has no gateway"), "gateway: {err}");
    let port = sender.local.video_uplink.port;
    let err = broken(&|sim, f, _| f.edge_mut(sim, 0).agent.ports.give(port));
    assert!(
        err.starts_with("edge 0: ") && err.contains("both free and in use"),
        "{err}"
    );
}

/// Report a distinct REMB estimate for every (sender, receiver) pair of
/// `g` — all high enough that no decode target moves, and highest
/// toward `top` so that a capped `top` is the one the filter passes
/// over. Returns the estimates by (sender, receiver) index.
fn report_distinct_estimates(
    agent: &mut SwitchAgent,
    dp: &mut ScallopDataPlane,
    g: &[(JoinGrant, HostAddr)],
    top: usize,
) -> Vec<Vec<u64>> {
    let n = g.len();
    let est = |s: usize, r: usize| {
        let bonus = if r == top { 10_000_000 } else { 0 };
        3_000_000 + 100_000 * ((3 * s + 7 * r) % 25) as u64 + bonus
    };
    for (s, r) in (0..n).flat_map(|s| (0..n).map(move |r| (s, r))) {
        if s == r {
            continue;
        }
        let (rcv, raddr) = g[r];
        let vp = agent
            .video_pair_addr(g[s].0.participant, rcv.participant)
            .unwrap();
        let remb = rtcp::serialize_compound(&[RtcpPacket::Remb(rtcp::Remb {
            sender_ssrc: r as u32,
            bitrate_bps: est(s, r),
            ssrcs: vec![s as u32],
        })]);
        agent.handle_cpu_packet(SimTime::ZERO, &Packet::new(raddr, vp, remb), dp);
    }
    (0..n)
        .map(|s| (0..n).map(|r| est(s, r)).collect())
        .collect()
}

/// After a rebuild, every sender's pairs carry the gates the next tick
/// would choose: one open REMB gate, on the best uncapped receiver, or
/// none while `sink` (a sender index) aggregates at a feedback sink —
/// and the tick reprograms nothing.
fn assert_rebuild_gates_are_the_ticks(
    agent: &mut SwitchAgent,
    dp: &mut ScallopDataPlane,
    g: &[(JoinGrant, HostAddr)],
    est: &[Vec<u64>],
    capped: usize,
    sink: Option<usize>,
) {
    let n = g.len();
    for s in 0..n {
        let best = (0..n)
            .filter(|&r| r != s && r != capped && sink != Some(s))
            .max_by_key(|&r| est[s][r]);
        for r in (0..n).filter(|&r| r != s) {
            let vp = agent
                .video_pair_addr(g[s].0.participant, g[r].0.participant)
                .unwrap();
            let open = match dp.port_rules.peek(&vp.port) {
                Some(PortRule::ReceiverFeedback { remb_allowed, .. }) => *remb_allowed,
                other => panic!("missing feedback rule: {other:?}"),
            };
            assert_eq!(open, best == Some(r), "gate {s} -> {r}");
        }
    }
    let before = agent.counters.filter_updates;
    agent.tick(SimTime::from_millis(100), dp);
    assert_eq!(
        agent.counters.filter_updates, before,
        "tick reprograms nothing"
    );
}

#[test]
fn a_rebuild_installs_the_gates_the_tick_would_choose() {
    // Five all-sending members, one capped below the full decode
    // target, one sender aggregating at a feedback sink.
    let (mut agent, mut dp) = mk();
    let m = agent.create_meeting();
    let g: Vec<(JoinGrant, HostAddr)> = (1..=5)
        .map(|i| (agent.join(&mut dp, m, addr(i), true), addr(i)))
        .collect();
    let (capped, sink) = (4, 0);
    agent.set_dt_cap(&mut dp, g[capped].0.participant, 1);
    agent.feedback_sink(&mut dp, g[sink].0.participant);
    let est = report_distinct_estimates(&mut agent, &mut dp, &g, capped);
    // Tiered: a decode-target change amends the RA-R layout and
    // refreshes its gates.
    agent.apply_dt_change(&mut dp, g[1].0.participant, 1);
    assert_eq!(agent.design_of(m), Some(TreeDesign::RaR));
    assert_rebuild_gates_are_the_ticks(&mut agent, &mut dp, &g, &est, capped, Some(sink));
    // RA-SR: a per-sender decode target rebuilds per-sender trees.
    agent.set_sender_dt(&mut dp, g[2].0.participant, g[3].0.participant, 1);
    assert_eq!(agent.design_of(m), Some(TreeDesign::RaSr));
    assert_rebuild_gates_are_the_ticks(&mut agent, &mut dp, &g, &est, capped, Some(sink));
}

#[test]
fn a_two_party_rebuild_opens_no_gate_on_a_capped_receiver() {
    // Capping the receiver rebuilds the direct path; the capped
    // member's partner has no uncapped receiver to take its REMB from.
    let (mut agent, mut dp) = mk();
    let m = agent.create_meeting();
    let g: Vec<(JoinGrant, HostAddr)> = (1..=2)
        .map(|i| (agent.join(&mut dp, m, addr(i), true), addr(i)))
        .collect();
    let est = report_distinct_estimates(&mut agent, &mut dp, &g, 1);
    agent.set_dt_cap(&mut dp, g[1].0.participant, 1);
    assert_eq!(agent.design_of(m), Some(TreeDesign::TwoParty));
    assert_rebuild_gates_are_the_ticks(&mut agent, &mut dp, &g, &est, 1, None);
}

/// Each meeting's branches in each of its trees, in the order the PRE
/// walks them, named by `(meeting, tree index)`. The walk order is the
/// order of same-instant replicas, which the fabric check (it sorts
/// nodes) cannot see.
fn walk_orders(
    agent: &SwitchAgent,
    dp: &ScallopDataPlane,
) -> BTreeMap<(MeetingId, usize), Vec<ParticipantId>> {
    let mut orders = BTreeMap::new();
    for (&id, m) in &agent.meetings {
        for (i, &(mgid, _)) in m.trees.iter().enumerate() {
            let (_, nodes) = dp.pre.groups().find(|&(g, _)| g == mgid).expect("tree");
            let mine = nodes.iter().filter(|n| m.participants.contains(&n.rid));
            orders.insert((id, i), mine.map(|n| n.rid).collect());
        }
    }
    orders
}

/// One operation of a random single-switch history.
#[derive(Debug, Clone)]
enum AgentOp {
    Join { meeting: usize, sends: bool },
    Leave(usize),
    Dt { idx: usize, dt: u8 },
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every operation of a random history — three local meetings
    /// packing their trees two to a set, and a fabric segment on
    /// exclusive trees — each meeting's branches sit in every tree in
    /// the order a rebuild lays them, and the switch passes its fabric
    /// check. Decode-target changes are half the operations, so amends
    /// of every kind run on both tree kinds.
    #[test]
    fn every_tree_walks_a_meeting_in_its_rebuilds_order(
        ops in prop::collection::vec(prop_oneof![
            (0..4usize, any::<bool>()).prop_map(|(meeting, sends)| AgentOp::Join { meeting, sends }),
            any::<usize>().prop_map(AgentOp::Leave),
            (any::<usize>(), 0..3u8).prop_map(|(idx, dt)| AgentOp::Dt { idx, dt }),
            (any::<usize>(), 0..3u8).prop_map(|(idx, dt)| AgentOp::Dt { idx, dt }),
        ], 1..60),
    ) {
        let (mut agent, mut dp) = mk();
        let meetings: Vec<MeetingId> = (0..4).map(|_| agent.create_meeting()).collect();
        agent.join_egress(&mut dp, meetings[3], Tier::Trunk);
        let mut live: Vec<(MeetingId, ParticipantId)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                AgentOp::Join { meeting, sends } => {
                    let m = meetings[meeting];
                    let g = agent.join(&mut dp, m, addr(i as u8 + 1), sends);
                    live.push((m, g.participant));
                }
                AgentOp::Leave(idx) if !live.is_empty() => {
                    let (m, pid) = live.remove(idx % live.len());
                    agent.leave(&mut dp, m, pid);
                }
                AgentOp::Dt { idx, dt } if !live.is_empty() => {
                    let (_, pid) = live[idx % live.len()];
                    agent.apply_dt_change(&mut dp, pid, dt);
                }
                _ => {}
            }
            let (mut copy, mut copy_dp) = agent.copy_with(&dp);
            for &m in &meetings {
                copy.rebuild_meeting(&mut copy_dp, m);
            }
            prop_assert_eq!(
                walk_orders(&agent, &dp),
                walk_orders(&copy, &copy_dp),
                "walk order after op {} ({:?}) of {:?}", i, op, ops
            );
            if let Err(e) = agent.check_compiled(&dp) {
                panic!("after op {i} ({op:?}) of {ops:?}: {e}");
            }
        }
    }
}

/// The port-rule and egress writes one non-flipping decode-target
/// change makes in an all-sending meeting of `p` members (one pinned at
/// target 0 keeps it on RA-R), and those of a rebuild of the same
/// change on a copy.
fn dt_change_writes(p: u8) -> (u64, u64) {
    let (mut agent, mut dp) = mk();
    let m = agent.create_meeting();
    let g: Vec<JoinGrant> = (1..=p)
        .map(|i| agent.join(&mut dp, m, addr(i), true))
        .collect();
    agent.apply_dt_change(&mut dp, g[0].participant, 0);
    let writes = |dp: &ScallopDataPlane| dp.counters.rule_installs + dp.counters.rule_removals;
    let (mut copy, mut copy_dp) = agent.copy_with(&dp);
    let before = writes(&dp);
    agent.apply_dt_change(&mut dp, g[1].participant, 1);
    // The pin flipped NRA → RA-R in place; both changes amend.
    let counters = agent.counters;
    assert_eq!((counters.dt_deltas, counters.dt_rebuilds), (2, 0));
    agent
        .check_compiled(&dp)
        .expect("amended state is its rebuild");
    copy.pinfo.get_mut(&g[1].participant).unwrap().dt = 1;
    let rebuilt = writes(&copy_dp);
    copy.rebuild_meeting(&mut copy_dp, m);
    (writes(&dp) - before, writes(&copy_dp) - rebuilt)
}

#[test]
fn a_decode_target_change_writes_in_proportion_to_the_senders() {
    // Receiver 1 moves 2 → 1: its three video entries come out, two go
    // back in, its audio entry stays, and its two feedback rules take the
    // pair's first tracker slot — seven writes per sender, where a
    // rebuild rewrites every pair.
    let (small, large) = (dt_change_writes(10), dt_change_writes(50));
    assert_eq!((small.0, large.0), (7 * 9, 7 * 49), "writes per sender");
    assert!(
        large.1 > 40 * large.0,
        "a rebuild writes every pair: {large:?}"
    );
}
