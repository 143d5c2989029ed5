//! Integration tests at the protocol boundary: what actually crosses the
//! wire between clients and the Scallop switch must be valid, parseable
//! RTP/RTCP/STUN — verified by capturing live simulation traffic.

use scallop::core::harness::{HarnessConfig, ScallopHarness};
use scallop::netsim::trace::TraceSink;
use scallop::proto::demux::{classify, PacketClass};
use scallop::proto::rtp::RtpPacket;
use scallop::proto::{rtcp, stun};

#[test]
fn every_wire_packet_is_classifiable_and_parseable() {
    let mut h = ScallopHarness::new(HarnessConfig::default().participants(3).seed(0xC0DE));
    h.sim.trace = TraceSink::bounded(200_000);
    h.run_for_secs(3.0);

    // The TraceSink records every delivery's sizes; check the wire
    // accounting invariant across all captured traffic.
    let records = h.sim.trace.records();
    assert!(records.len() > 5_000, "captured {}", records.len());
    for r in records {
        assert!(r.payload_bytes > 0);
        assert!(r.wire_bytes == r.payload_bytes + 42);
    }

    // And the client-side tap sees a healthy stream of parseable RTP
    // (the tap only records packets that already parsed as RTP).
    let mut h2 = ScallopHarness::new(HarnessConfig::default().participants(2).seed(0xC0DF));
    {
        let cid = h2.client_ids[1];
        let c: &mut scallop::client::ClientNode = h2.sim.node_mut(cid).expect("client");
        c.rx_tap = Some(Vec::new());
    }
    h2.run_for_secs(2.0);
    let cid = h2.client_ids[1];
    let c: &mut scallop::client::ClientNode = h2.sim.node_mut(cid).expect("client");
    let tap = c.rx_tap.take().expect("tap");
    assert!(tap.len() > 500);
}

#[test]
fn switch_emits_valid_rtp_with_intact_payloads() {
    // Drive the data plane directly and parse everything it emits.
    use scallop::core::agent::SwitchAgent;
    use scallop::dataplane::batch::BatchOutput;
    use scallop::dataplane::seqrewrite::SeqRewriteMode;
    use scallop::dataplane::switch::ScallopDataPlane;
    use scallop::media::encoder::{EncoderConfig, VideoEncoder};
    use scallop::media::packetizer::Packetizer;
    use scallop::netsim::packet::{HostAddr, Packet};
    use scallop::netsim::time::SimTime;
    use std::net::Ipv4Addr;

    let mut dp = ScallopDataPlane::new(SeqRewriteMode::LowRetransmission);
    let mut agent = SwitchAgent::new(Ipv4Addr::new(10, 0, 0, 100));
    let m = agent.create_meeting();
    let addr = |l: u8| HostAddr::new(Ipv4Addr::new(10, 7, 0, l), 5000);
    let g1 = agent.join(&mut dp, m, addr(1), true);
    let _g2 = agent.join(&mut dp, m, addr(2), true);
    let g3 = agent.join(&mut dp, m, addr(3), true);
    agent.apply_dt_change(&mut dp, g3.participant, 1);

    let mut enc = VideoEncoder::new(EncoderConfig::default());
    let mut pz = Packetizer::new(0xAA, 96, 1200);
    let mut t = SimTime::ZERO;
    let mut emitted = 0u64;
    let mut out = BatchOutput::default();
    for _ in 0..120 {
        let frame = enc.produce(t);
        for pkt in pz.packetize(&frame) {
            let original = pkt.clone();
            let ingress = Packet::new(addr(1), g1.video_uplink, pkt.serialize());
            dp.process_batch(&[ingress], &mut out);
            for fwd in &out.forwards {
                emitted += 1;
                // Every emitted media packet parses as valid RTP…
                let parsed = RtpPacket::parse(&fwd.payload).expect("valid RTP");
                // …with the payload bytes untouched (Zoom-style exact
                // copies, §3) and only headers rewritten.
                assert_eq!(parsed.payload, original.payload);
                assert_eq!(parsed.ssrc, original.ssrc);
                assert_eq!(classify(&fwd.payload), PacketClass::Rtp);
            }
        }
        t += enc.frame_interval();
    }
    assert!(emitted > 1_000, "emitted {emitted}");
}

#[test]
fn wire_formats_cross_validate() {
    // RTCP and STUN built by the client stack parse with the standalone
    // parsers (no private framing).
    let nack = rtcp::RtcpPacket::Nack(rtcp::Nack::from_lost_sequences(1, 2, &[5, 6, 9]));
    let bytes = rtcp::serialize_compound(std::slice::from_ref(&nack));
    assert_eq!(classify(&bytes), PacketClass::Rtcp);
    assert_eq!(rtcp::parse_compound(&bytes).expect("parse"), vec![nack]);

    let req = stun::StunMessage::binding_request([3; 12]);
    let bytes = req.serialize();
    assert_eq!(classify(&bytes), PacketClass::Stun);
    assert_eq!(stun::StunMessage::parse(&bytes).expect("parse"), req);
}

/// §5.1 across a fabric: an SDP offer arriving at edge 1 of a 2-edge
/// campus becomes a join on edge 1, and its answer names edge 1's switch
/// as the client's sole peer, at the uplink ports the plane granted. An
/// offer without candidates is refused before the plane is asked, so
/// nothing is booked.
#[test]
fn sdp_offer_at_a_fabric_edge_is_answered_with_that_edges_uplinks() {
    use scallop::core::controller::{sdp_answer, JoinRequest};
    use scallop::core::fabric::Fabric;
    use scallop::core::shard::ShardedControlPlane;
    use scallop::dataplane::seqrewrite::SeqRewriteMode;
    use scallop::netsim::link::LinkConfig;
    use scallop::netsim::packet::HostAddr;
    use scallop::netsim::sim::Simulator;
    use scallop::netsim::time::SimDuration;
    use scallop::netsim::topology::Topology;
    use scallop::proto::sdp::{Candidate, MediaKind, MediaSection, SessionDescription};
    use std::net::Ipv4Addr;

    let mut sim = Simulator::new(0x5D9);
    let fabric = Fabric::build(
        &mut sim,
        Topology::campus(2, 0),
        LinkConfig::infinite(SimDuration::from_micros(50)),
        SeqRewriteMode::LowRetransmission,
    );
    let mut plane = ShardedControlPlane::new(2);
    let gmid = plane.create_fabric_meeting(&mut sim, &fabric, 0);

    let bare = "v=0\r\no=x 0 0 IN IP4 0.0.0.0\r\ns=-\r\nt=0 0\r\nm=video 1 UDP/RTP/AVPF 96\r\n";
    let bare = SessionDescription::parse(bare).unwrap();
    assert!(JoinRequest::from_offer(1, &bare).is_err());
    assert!(plane.fabric_members(gmid).is_empty());
    assert!(plane.ledger().reconciled());

    let client = HostAddr::new(Ipv4Addr::new(10, 9, 0, 1), 5000);
    let mut offer = SessionDescription::new("alice");
    for kind in [MediaKind::Video, MediaKind::Audio] {
        let mut m = MediaSection::new(kind, client.port);
        m.candidates.push(Candidate::host(client.ip, client.port));
        offer.media.push(m);
    }
    let offer = SessionDescription::parse(&offer.serialize()).unwrap();
    let req = JoinRequest::from_offer(1, &offer).unwrap();
    let expected = JoinRequest {
        edge: 1,
        addr: client,
        sends: true,
    };
    assert_eq!(req, expected);

    let grant = plane.join(&mut sim, &fabric, gmid, &[req])[0]
        .grant
        .expect("admitted");
    assert_eq!(grant.edge, 1);
    let edge1 = fabric.topology.edge_spec(1).ip;
    let ports = fabric.topology.port_base(1)..fabric.topology.port_limit(1);
    let answer = SessionDescription::parse(&sdp_answer(&offer, &grant.local)).unwrap();
    assert_eq!(answer.connection_ip, Some(edge1));
    assert_eq!(answer.media.len(), 2);
    for m in &answer.media {
        let uplink = match m.kind {
            MediaKind::Video => grant.local.video_uplink,
            MediaKind::Audio => grant.local.audio_uplink,
        };
        assert_eq!(uplink.ip, edge1, "{:?} uplink", m.kind);
        assert!(ports.contains(&uplink.port), "{:?} uplink", m.kind);
        assert_eq!(m.port, uplink.port);
        assert_eq!(m.candidates, vec![Candidate::host(edge1, uplink.port)]);
    }
    assert_ne!(grant.local.video_uplink, grant.local.audio_uplink);
    assert_eq!(plane.fabric_members(gmid), vec![grant.global]);
}
