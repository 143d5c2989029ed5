//! Depth-aware ingress parser (Appendix E).
//!
//! The Tofino parser walks a static parse graph with `lookahead` and a
//! `ParserCounter`. This model performs the same classification work on
//! the UDP payload — first-nibble demux, RTP fixed header, then a
//! depth-limited walk of the RTP extension elements to find the AV1
//! dependency descriptor — while accounting parse depth the way the
//! hardware budget does (ingress parse depth 27 states in Table 3).
//!
//! Two outcomes mirror the prototype:
//! * packets whose descriptor fits the mandatory 3 bytes are fully parsed
//!   in the data plane;
//! * packets with an *extended* descriptor (key frames carrying template
//!   structures) are flagged for the CPU port — the data plane cannot
//!   walk the variable-length structure (§5.4).

use scallop_proto::av1::{DependencyDescriptor, DD_EXTENSION_ID};
use scallop_proto::demux::{classify, PacketClass};
use scallop_proto::rtcp;
use scallop_proto::rtp::RtpView;

/// Maximum extension elements the parse graph can walk (depth budget).
pub(crate) const MAX_EXT_ELEMENTS: usize = 8;

/// Summary the parser hands to the match-action pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedPacket {
    /// First-nibble classification.
    pub class: PacketClass,
    /// RTP fields (when `class == Rtp`).
    pub rtp: Option<RtpSummary>,
    /// RTCP leading packet type (when `class == Rtcp`).
    pub rtcp_pt: Option<u8>,
    /// Parser states consumed (depth accounting).
    pub parse_depth: u8,
}

/// Extracted RTP fields (the PHV view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtpSummary {
    /// Sequence number.
    pub seq: u16,
    /// SSRC.
    pub ssrc: u32,
    /// RTP timestamp.
    pub timestamp: u32,
    /// Payload type.
    pub payload_type: u8,
    /// Marker bit.
    pub marker: bool,
    /// AV1 DD mandatory fields, if the extension was found within the
    /// depth budget.
    pub dd: Option<DdSummary>,
}

/// Mandatory dependency-descriptor fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdSummary {
    /// Start-of-frame flag.
    pub start_of_frame: bool,
    /// End-of-frame flag.
    pub end_of_frame: bool,
    /// Template id (6 bits).
    pub template_id: u8,
    /// Frame number.
    pub frame_number: u16,
    /// The descriptor has an extended part the data plane cannot parse —
    /// punt a copy to the switch agent.
    pub extended: bool,
}

/// Parse one UDP payload.
pub fn parse(payload: &[u8]) -> ParsedPacket {
    parse_as(classify(payload), payload)
}

/// Parse one UDP payload that [`classify`] put in `class`. The batch
/// path classifies a whole burst first, so that the payloads' first
/// bytes are fetched together, then parses each packet with this.
pub(crate) fn parse_as(class: PacketClass, payload: &[u8]) -> ParsedPacket {
    // Depth: 1 state for eth/ip/udp landing + 1 for the lookahead.
    let mut depth: u8 = 2;
    match class {
        PacketClass::Rtp => {
            let Ok(view) = RtpView::new(payload) else {
                return ParsedPacket {
                    class: PacketClass::Unknown,
                    rtp: None,
                    rtcp_pt: None,
                    parse_depth: depth,
                };
            };
            depth += 1; // RTP fixed header state
            let mut dd = None;
            if let Ok(Some((_profile, body))) = view.extension_block() {
                // Walk elements with the depth-aware landing states.
                let mut rest = body;
                let mut walked = 0;
                while !rest.is_empty() && walked < MAX_EXT_ELEMENTS {
                    depth += 1;
                    walked += 1;
                    let first = rest[0];
                    if first == 0 {
                        rest = &rest[1..]; // padding state
                        continue;
                    }
                    // Two-byte profile (the packetizer emits two-byte).
                    if rest.len() < 2 {
                        break;
                    }
                    let id = first;
                    let len = rest[1] as usize;
                    if rest.len() < 2 + len {
                        break;
                    }
                    if id == DD_EXTENSION_ID {
                        if let Ok((start, end, template_id, frame_number, extended)) =
                            DependencyDescriptor::parse_mandatory(&rest[2..2 + len])
                        {
                            dd = Some(DdSummary {
                                start_of_frame: start,
                                end_of_frame: end,
                                template_id,
                                frame_number,
                                extended,
                            });
                        }
                        break;
                    }
                    rest = &rest[2 + len..];
                }
            }
            ParsedPacket {
                class,
                rtp: Some(RtpSummary {
                    seq: view.sequence_number(),
                    ssrc: view.ssrc(),
                    timestamp: view.timestamp(),
                    payload_type: view.payload_type(),
                    marker: view.marker(),
                    dd,
                }),
                rtcp_pt: None,
                parse_depth: depth,
            }
        }
        PacketClass::Rtcp => {
            depth += 1;
            ParsedPacket {
                class,
                rtp: None,
                rtcp_pt: payload.get(1).copied(),
                parse_depth: depth,
            }
        }
        PacketClass::Stun | PacketClass::Unknown => ParsedPacket {
            class,
            rtp: None,
            rtcp_pt: None,
            parse_depth: depth,
        },
    }
}

/// Is the RTCP packet type a sender-side report (SR/SDES compound head)?
/// Those are replicated to receivers like media (§5.5, green arrows).
pub fn rtcp_is_sender_report(pt: u8) -> bool {
    pt == rtcp::PT_SR || pt == rtcp::PT_SDES
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use scallop_media::encoder::{EncodedFrame, FrameLabelCompact};
    use scallop_media::packetizer::Packetizer;
    use scallop_netsim::time::SimTime;
    use scallop_proto::rtcp::{self, Pli, RtcpPacket};
    use scallop_proto::rtp::RtpPacket;
    use scallop_proto::stun::StunMessage;

    fn video_packets(is_key: bool) -> Vec<RtpPacket> {
        let mut pz = Packetizer::new(0xAA, 96, 1200);
        pz.packetize(&EncodedFrame {
            frame_number: 3,
            label: FrameLabelCompact {
                temporal_id: 2,
                template_id: if is_key { 0 } else { 4 },
                is_key,
            },
            size_bytes: 2400,
            captured_at: SimTime::ZERO,
            rtp_timestamp: 1234,
        })
    }

    #[test]
    fn parses_video_with_dd() {
        let pkts = video_packets(false);
        let p = parse(&pkts[0].serialize());
        assert_eq!(p.class, PacketClass::Rtp);
        let rtp = p.rtp.unwrap();
        assert_eq!(rtp.ssrc, 0xAA);
        assert_eq!(rtp.payload_type, 96);
        let dd = rtp.dd.unwrap();
        assert!(dd.start_of_frame);
        assert_eq!(dd.template_id, 4);
        assert_eq!(dd.frame_number, 3);
        assert!(!dd.extended);
    }

    #[test]
    fn flags_extended_dd_for_cpu() {
        let pkts = video_packets(true);
        let dd0 = parse(&pkts[0].serialize()).rtp.unwrap().dd.unwrap();
        assert!(dd0.extended, "key-frame first packet must be punted");
        let dd1 = parse(&pkts[1].serialize()).rtp.unwrap().dd.unwrap();
        assert!(!dd1.extended);
    }

    #[test]
    fn classifies_rtcp_and_stun() {
        let pli = rtcp::serialize(&RtcpPacket::Pli(Pli {
            sender_ssrc: 1,
            media_ssrc: 2,
        }));
        let p = parse(&pli);
        assert_eq!(p.class, PacketClass::Rtcp);
        assert_eq!(p.rtcp_pt, Some(rtcp::PT_PSFB));

        let stun = StunMessage::binding_request([7; 12]).serialize();
        assert_eq!(parse(&stun).class, PacketClass::Stun);
        assert!(rtcp_is_sender_report(rtcp::PT_SR));
        assert!(rtcp_is_sender_report(rtcp::PT_SDES));
        assert!(!rtcp_is_sender_report(rtcp::PT_RR));
    }

    #[test]
    fn audio_without_dd_parses() {
        let mut pkt = RtpPacket::new(111, 5, 6, 7);
        pkt.payload = Bytes::from(vec![0u8; 128]);
        let p = parse(&pkt.serialize());
        let rtp = p.rtp.unwrap();
        assert_eq!(rtp.payload_type, 111);
        assert!(rtp.dd.is_none());
    }

    #[test]
    fn depth_within_ingress_budget() {
        // Table 3: ingress parse depth 27. All our packets must fit.
        for pkt in video_packets(true) {
            assert!(parse(&pkt.serialize()).parse_depth <= 27);
        }
    }

    #[test]
    fn garbage_does_not_panic() {
        for len in 0..64 {
            let junk: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
            let _ = parse(&junk);
        }
    }
}
