//! Property tests for the media pipeline: packetizer algebra and decoder
//! robustness under arbitrary delivery patterns.

use proptest::collection::vec;
use proptest::prelude::*;
use scallop_media::decoder::{Decoder, DecoderConfig};
use scallop_media::encoder::{EncodedFrame, FrameLabelCompact};
use scallop_media::packetizer::Packetizer;
use scallop_media::svc::L1T3Schedule;
use scallop_netsim::time::SimTime;
use scallop_proto::rtp::RtpPacket;

fn frame(number: u16, schedule: &mut L1T3Schedule, size: usize) -> EncodedFrame {
    let label = schedule.next_label();
    EncodedFrame {
        frame_number: number,
        label: FrameLabelCompact::from(label),
        size_bytes: size,
        captured_at: SimTime::ZERO,
        rtp_timestamp: number as u32 * 3000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Packetization conserves bytes, keeps sequence numbers contiguous,
    /// and marks exactly the last packet of every frame.
    #[test]
    fn packetizer_algebra(sizes in vec(1usize..20_000, 1..40)) {
        let mut sched = L1T3Schedule::new();
        let mut pz = Packetizer::new(9, 96, 1200);
        let mut expected_seq = 0u16;
        for (i, &size) in sizes.iter().enumerate() {
            let f = frame(i as u16, &mut sched, size);
            let pkts = pz.packetize(&f);
            let total: usize = pkts.iter().map(|p| p.payload.len()).sum();
            prop_assert_eq!(total, size, "bytes conserved");
            for (j, p) in pkts.iter().enumerate() {
                prop_assert_eq!(p.sequence_number, expected_seq);
                expected_seq = expected_seq.wrapping_add(1);
                prop_assert_eq!(p.marker, j == pkts.len() - 1);
                prop_assert!(p.payload.len() <= 1200);
            }
        }
    }

    /// The decoder never panics and never reports more decoded frames
    /// than were sent, under arbitrary drop patterns.
    #[test]
    fn decoder_total_under_arbitrary_loss(drops in vec(any::<bool>(), 60..400)) {
        let mut sched = L1T3Schedule::new();
        let mut pz = Packetizer::new(9, 96, 1200);
        let mut dec = Decoder::new(DecoderConfig::default());
        let mut sent_frames = 0u64;
        let mut pkts: Vec<RtpPacket> = Vec::new();
        let mut n = 0u16;
        while pkts.len() < drops.len() {
            let f = frame(n, &mut sched, 2000);
            n = n.wrapping_add(1);
            sent_frames += 1;
            pkts.extend(pz.packetize(&f));
        }
        let mut t = SimTime::ZERO;
        let mut events = Vec::new();
        for (pkt, &dropped) in pkts.iter().zip(&drops) {
            t += scallop_netsim::time::SimDuration::from_millis(11);
            if dropped {
                continue;
            }
            let _ = dec.on_packet(t, pkt);
            dec.poll_into(t, &mut events);
        }
        // Drain timeouts.
        for k in 1..=50u64 {
            dec.poll_into(t + scallop_netsim::time::SimDuration::from_millis(20 * k), &mut events);
        }
        prop_assert!(dec.stats.frames_decoded <= sent_frames);
        // Accounting closes: every frame is decoded or dropped or still
        // pending (none lost track of).
        prop_assert!(dec.stats.frames_decoded + dec.stats.frames_dropped <= sent_frames + 1);
    }

    /// Lossless delivery decodes every frame regardless of frame sizes.
    #[test]
    fn decoder_decodes_everything_when_lossless(sizes in vec(500usize..6_000, 5..60)) {
        let mut sched = L1T3Schedule::new();
        let mut pz = Packetizer::new(9, 96, 1200);
        let mut dec = Decoder::new(DecoderConfig::default());
        let mut t = SimTime::ZERO;
        for (i, &size) in sizes.iter().enumerate() {
            let f = frame(i as u16, &mut sched, size);
            for pkt in pz.packetize(&f) {
                t += scallop_netsim::time::SimDuration::from_millis(3);
                dec.on_packet(t, &pkt);
            }
        }
        prop_assert_eq!(dec.stats.frames_decoded, sizes.len() as u64);
        prop_assert_eq!(dec.stats.freezes, 0);
    }

    /// Benign duplication (exact re-delivery) never decreases decoded
    /// count and never freezes.
    #[test]
    fn decoder_ignores_benign_duplicates(dup_every in 2usize..7) {
        let mut sched = L1T3Schedule::new();
        let mut pz = Packetizer::new(9, 96, 1200);
        let mut dec = Decoder::new(DecoderConfig::default());
        let mut t = SimTime::ZERO;
        for i in 0..40u16 {
            let f = frame(i, &mut sched, 2500);
            for (j, pkt) in pz.packetize(&f).iter().enumerate() {
                t += scallop_netsim::time::SimDuration::from_millis(5);
                dec.on_packet(t, pkt);
                if j % dup_every == 0 {
                    dec.on_packet(t, pkt);
                }
            }
        }
        prop_assert_eq!(dec.stats.frames_decoded, 40);
        prop_assert_eq!(dec.stats.freezes, 0);
        prop_assert!(dec.stats.benign_duplicates > 0);
    }
}
