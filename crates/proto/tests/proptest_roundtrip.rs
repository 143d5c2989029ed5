//! Property tests: wire-format round trips and total parsers.
//!
//! Three invariant families:
//! 1. serialize → parse is the identity for every valid message,
//! 2. parsers never panic on arbitrary bytes (they are run on every input
//!    the fuzzer produces; errors are fine, panics are not),
//! 3. the RTCP writers and the borrowed RTCP walk agree byte for byte and
//!    error for error with the owned encoder and decoder they replaced
//!    (`rtcp_reference`), on valid and on hostile input.

mod rtcp_reference;

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use scallop_proto::av1::{DependencyDescriptor, Dti, TemplateInfo, TemplateStructure};
use scallop_proto::error::ProtoError;
use scallop_proto::rtcp::{
    self, Bye, Nack, Pli, ReceiverReport, Remb, ReportBlock, RtcpPacket, Sdes, SenderReport,
};
use scallop_proto::rtp::{ExtensionElement, ExtensionProfile, RtpPacket};
use scallop_proto::sdp::SessionDescription;
use scallop_proto::stun::{StunMessage, StunView};
use scallop_proto::{classify, PacketClass};

fn arb_rtp() -> impl Strategy<Value = RtpPacket> {
    (
        any::<bool>(),
        0u8..128,
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        vec(any::<u32>(), 0..4),
        vec((1u8..15, vec(any::<u8>(), 1..17)), 0..3),
        vec(any::<u8>(), 0..1200),
    )
        .prop_map(
            |(marker, pt, seq, ts, ssrc, csrc, exts, payload)| RtpPacket {
                marker,
                payload_type: pt,
                sequence_number: seq,
                timestamp: ts,
                ssrc,
                csrc,
                extension_profile: ExtensionProfile::OneByte,
                extensions: exts
                    .into_iter()
                    .map(|(id, data)| ExtensionElement { id, data })
                    .collect(),
                payload: Bytes::from(payload),
            },
        )
}

fn arb_report_block() -> impl Strategy<Value = ReportBlock> {
    (
        any::<u32>(),
        any::<u8>(),
        0u32..0x00FF_FFFF,
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(
            |(ssrc, fraction_lost, cumulative_lost, highest_seq, jitter, lsr, dlsr)| ReportBlock {
                ssrc,
                fraction_lost,
                cumulative_lost,
                highest_seq,
                jitter,
                lsr,
                dlsr,
            },
        )
}

fn arb_rtcp() -> impl Strategy<Value = RtcpPacket> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            vec(arb_report_block(), 0..4)
        )
            .prop_map(
                |(ssrc, ntp_sec, ntp_frac, rtp_ts, packet_count, octet_count, reports)| {
                    RtcpPacket::Sr(SenderReport {
                        ssrc,
                        ntp_sec,
                        ntp_frac,
                        rtp_ts,
                        packet_count,
                        octet_count,
                        reports,
                    })
                }
            ),
        (any::<u32>(), vec(arb_report_block(), 0..4))
            .prop_map(|(ssrc, reports)| RtcpPacket::Rr(ReceiverReport { ssrc, reports })),
        vec((any::<u32>(), "[a-z]{1,20}"), 1..4)
            .prop_map(|chunks| RtcpPacket::Sdes(Sdes { chunks })),
        vec(any::<u32>(), 0..5).prop_map(|ssrcs| RtcpPacket::Bye(Bye { ssrcs })),
        (
            any::<u32>(),
            any::<u32>(),
            vec((any::<u16>(), any::<u16>()), 1..8)
        )
            .prop_map(|(sender_ssrc, media_ssrc, entries)| RtcpPacket::Nack(Nack {
                sender_ssrc,
                media_ssrc,
                entries
            })),
        (any::<u32>(), any::<u32>()).prop_map(|(sender_ssrc, media_ssrc)| RtcpPacket::Pli(Pli {
            sender_ssrc,
            media_ssrc
        })),
        // REMB bitrates restricted to exactly-representable mantissas.
        (any::<u32>(), 0u64..(1 << 18), vec(any::<u32>(), 0..4)).prop_map(
            |(sender_ssrc, bitrate_bps, ssrcs)| RtcpPacket::Remb(Remb {
                sender_ssrc,
                bitrate_bps,
                ssrcs
            })
        ),
    ]
}

/// A compound of valid packets, then damaged — bytes flipped, cut short
/// or junk appended — so that hostile input gets past the first header
/// often enough to reach every packet type's decoder.
fn arb_hostile_rtcp() -> impl Strategy<Value = Vec<u8>> {
    (
        vec(arb_rtcp(), 1..4),
        vec((any::<prop::sample::Index>(), any::<u8>()), 0..4),
        any::<prop::sample::Index>(),
        vec(any::<u8>(), 0..12),
        0u8..3,
    )
        .prop_map(|(pkts, flips, cut, junk, damage)| {
            let mut bytes = rtcp::serialize_compound(&pkts);
            for (at, x) in flips {
                let at = at.index(bytes.len());
                bytes[at] ^= x;
            }
            match damage {
                0 => bytes.truncate(cut.index(bytes.len() + 1)),
                1 => bytes.extend_from_slice(&junk),
                _ => {}
            }
            bytes
        })
}

/// Arbitrary bytes half the time, damaged compounds the other half.
fn arb_rtcp_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![vec(any::<u8>(), 0..256), arb_hostile_rtcp()]
}

fn arb_dd() -> impl Strategy<Value = DependencyDescriptor> {
    (
        any::<bool>(),
        any::<bool>(),
        0u8..64,
        any::<u16>(),
        proptest::option::of((1u8..8, 1usize..10).prop_flat_map(|(dt_cnt, tpl_cnt)| {
            (
                0u8..64,
                vec(
                    (
                        0u8..4,
                        0u8..8,
                        vec(0u8..4, dt_cnt as usize..=dt_cnt as usize),
                    ),
                    tpl_cnt..=tpl_cnt,
                ),
            )
                .prop_map(move |(offset, tpls)| TemplateStructure {
                    template_id_offset: offset,
                    decode_target_count: dt_cnt,
                    templates: tpls
                        .into_iter()
                        .map(|(s, t, dtis)| TemplateInfo {
                            spatial_id: s,
                            temporal_id: t,
                            dtis: dtis
                                .into_iter()
                                .map(|d| match d {
                                    0 => Dti::NotPresent,
                                    1 => Dti::Discardable,
                                    2 => Dti::Switch,
                                    _ => Dti::Required,
                                })
                                .collect(),
                        })
                        .collect(),
                })
        })),
        proptest::option::of(any::<u32>()),
    )
        .prop_map(|(s, e, tid, fno, structure, adt)| DependencyDescriptor {
            start_of_frame: s,
            end_of_frame: e,
            template_id: tid,
            frame_number: fno,
            structure,
            active_decode_targets: adt,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rtp_round_trip(p in arb_rtp()) {
        let bytes = p.serialize();
        let q = RtpPacket::parse(&bytes).unwrap();
        prop_assert_eq!(p, q);
    }

    #[test]
    fn rtp_classified_as_rtp(p in arb_rtp()) {
        // Payload types 64..=95 with the marker bit set collide with the
        // RTCP PT range (WebRTC avoids them); exclude that corner.
        let second = ((p.marker as u8) << 7) | p.payload_type;
        prop_assume!(!(192..=223).contains(&second));
        prop_assert_eq!(classify(&p.serialize()), PacketClass::Rtp);
    }

    #[test]
    fn rtcp_round_trip(p in arb_rtcp()) {
        let bytes = rtcp::serialize(&p);
        let (q, used) = rtcp::parse_one(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(p, q);
    }

    #[test]
    fn rtcp_compound_round_trip(ps in vec(arb_rtcp(), 1..5)) {
        let bytes = rtcp::serialize_compound(&ps);
        let qs = rtcp::parse_compound(&bytes).unwrap();
        prop_assert_eq!(ps, qs);
    }

    #[test]
    fn owned_rtcp_encoder_matches_the_reference(ps in vec(arb_rtcp(), 1..4)) {
        let want: Vec<u8> = ps.iter().flat_map(rtcp_reference::serialize).collect();
        prop_assert_eq!(rtcp::serialize_compound(&ps), want);
    }

    /// The packets the endpoints write in place — RR with report blocks
    /// plus REMB, NACK from a lost list, PLI, SR plus SDES — are the bytes
    /// the reference encoder makes of the same owned packets.
    #[test]
    fn rtcp_writers_match_the_reference_encoder(
        ssrcs in (any::<u32>(), any::<u32>()),
        blocks in vec(arb_report_block(), 0..4),
        remb in (any::<u64>(), vec(any::<u32>(), 0..4)),
        lost in vec(any::<u16>(), 0..40),
        sr in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        cname in "[a-z0-9@.-]{0,300}",
    ) {
        let ((me, media), (bitrate_bps, remb_ssrcs)) = (ssrcs, remb);
        let mut got = Vec::new();
        rtcp::write_rr(&mut got, me, blocks.iter().copied());
        rtcp::write_remb(&mut got, me, bitrate_bps, remb_ssrcs.iter().copied());
        let mut want = rtcp_reference::serialize(&RtcpPacket::Rr(ReceiverReport {
            ssrc: me,
            reports: blocks.clone(),
        }));
        want.extend(rtcp_reference::serialize(&RtcpPacket::Remb(Remb {
            sender_ssrc: me,
            bitrate_bps,
            ssrcs: remb_ssrcs,
        })));
        prop_assert_eq!(&got, &want);

        let mut sorted = lost.clone();
        sorted.sort_unstable();
        for lost in [lost, sorted] {
            let entries = rtcp_reference::nack_entries(&lost);
            prop_assert_eq!(rtcp::nack_entries(&lost).collect::<Vec<_>>(), entries.clone());
            prop_assert_eq!(
                rtcp::nack_lost(entries.iter().copied()).collect::<Vec<_>>(),
                rtcp_reference::nack_lost(&entries)
            );
            got.clear();
            rtcp::write_nack(&mut got, me, media, rtcp::nack_entries(&lost));
            let want = rtcp_reference::serialize(&RtcpPacket::Nack(Nack {
                sender_ssrc: me,
                media_ssrc: media,
                entries,
            }));
            prop_assert_eq!(&got, &want);
        }

        got.clear();
        rtcp::write_pli(&mut got, me, media);
        let pli = Pli { sender_ssrc: me, media_ssrc: media };
        prop_assert_eq!(&got, &rtcp_reference::serialize(&RtcpPacket::Pli(pli)));

        let (ntp_sec, ntp_frac, rtp_ts, packet_count, octet_count) = sr;
        let sr = SenderReport {
            ssrc: me,
            ntp_sec,
            ntp_frac,
            rtp_ts,
            packet_count,
            octet_count,
            reports: blocks,
        };
        got.clear();
        rtcp::write_sr(&mut got, &sr);
        rtcp::write_sdes(&mut got, [(me, cname.as_str())]);
        let mut want = rtcp_reference::serialize(&RtcpPacket::Sr(sr));
        want.extend(rtcp_reference::serialize(&RtcpPacket::Sdes(Sdes {
            chunks: vec![(me, cname)],
        })));
        prop_assert_eq!(&got, &want);
    }

    /// On arbitrary and on damaged bytes the borrowed walk yields what the
    /// reference decoder parses, error for error, and re-encodes each
    /// packet as the reference encoder would; `read_compound` and
    /// `parse_compound` accept exactly what the reference accepts.
    #[test]
    fn rtcp_walk_agrees_with_the_reference_decoder(
        bytes in arb_rtcp_bytes(),
    ) {
        let want = rtcp_reference::parse_compound(&bytes);
        prop_assert_eq!(rtcp::parse_compound(&bytes), want.clone());
        let walked: Vec<Result<RtcpPacket, ProtoError>> = rtcp::packets(&bytes)
            .map(|p| p.map(RtcpPacket::from))
            .collect();
        match want {
            Ok(pkts) => {
                prop_assert_eq!(&walked, &pkts.iter().cloned().map(Ok).collect::<Vec<_>>());
                let read: Vec<_> = rtcp::read_compound(&bytes).unwrap().collect();
                prop_assert_eq!(read.len(), pkts.len());
                for (p, owned) in read.iter().zip(&pkts) {
                    let mut again = Vec::new();
                    p.write_into(&mut again);
                    prop_assert_eq!(again, rtcp_reference::serialize(owned));
                }
            }
            Err(e) => {
                let (last, before) = walked.split_last().expect("an error was walked");
                prop_assert_eq!(last, &Err(e));
                prop_assert!(before.iter().all(Result::is_ok));
                prop_assert_eq!(rtcp::read_compound(&bytes).err(), Some(e));
            }
        }
    }

    #[test]
    fn dd_round_trip(dd in arb_dd()) {
        let bytes = dd.serialize();
        let q = DependencyDescriptor::parse(&bytes).unwrap();
        prop_assert_eq!(dd, q);
    }

    #[test]
    fn stun_round_trip(
        tid in proptest::array::uniform12(any::<u8>()),
        username in proptest::option::of("[a-zA-Z0-9:]{1,32}"),
        ip in any::<[u8;4]>(),
        port in any::<u16>(),
    ) {
        let mut m = StunMessage::binding_success(tid, ip.into(), port);
        if let Some(u) = &username {
            m.set_username(u);
        }
        let parsed = StunMessage::parse(&m.serialize()).unwrap();
        prop_assert_eq!(&parsed, &m);
        prop_assert_eq!(parsed.xor_mapped_address(), Some((ip.into(), port)));
    }

    // ----- totality: no parser panics on arbitrary bytes -----

    #[test]
    fn rtp_parse_total(bytes in vec(any::<u8>(), 0..256)) {
        let _ = RtpPacket::parse(&bytes);
    }

    #[test]
    fn rtcp_parse_total(bytes in vec(any::<u8>(), 0..256)) {
        let _ = rtcp::parse_compound(&bytes);
    }

    #[test]
    fn stun_parse_total(bytes in vec(any::<u8>(), 0..256)) {
        let parsed = StunMessage::parse(&bytes);
        let view = StunView::new(&bytes);
        prop_assert_eq!(parsed.as_ref().err(), view.as_ref().err());
        if let (Ok(m), Ok(v)) = (parsed, view) {
            prop_assert_eq!((m.msg_type, m.transaction_id), (v.msg_type, v.transaction_id));
            prop_assert_eq!(
                (m.is_request(), m.is_success_response()),
                (v.is_request(), v.is_success_response())
            );
        }
    }

    #[test]
    fn dd_parse_total(bytes in vec(any::<u8>(), 0..64)) {
        let _ = DependencyDescriptor::parse(&bytes);
        let _ = DependencyDescriptor::parse_mandatory(&bytes);
    }

    #[test]
    fn sdp_parse_total(text in "[ -~\\r\\n]{0,512}") {
        let _ = SessionDescription::parse(&text);
    }

    #[test]
    fn classify_total(bytes in vec(any::<u8>(), 0..64)) {
        let _ = classify(&bytes);
    }
}
