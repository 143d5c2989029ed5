//! Frame → RTP packetization.
//!
//! §3: "The media stream is packetized so that a layer never crosses a
//! packet boundary." With temporal-only scalability a frame *is* a layer
//! unit, so each frame is split into its own run of RTP packets; every
//! packet carries the AV1 dependency descriptor naming the frame's
//! template id, and the first packet of a key frame carries the extended
//! descriptor with the L1T3 template structure (the packets Scallop's
//! data plane punts to the switch agent, §5.4).

use crate::encoder::EncodedFrame;
use bytes::Bytes;
use scallop_proto::av1::{DependencyDescriptor, TemplateStructure, DD_EXTENSION_ID};
use scallop_proto::rtp::{ExtensionElement, ExtensionProfile, RtpPacket};

/// Default media MTU (payload budget per RTP packet). Matches the
/// 800–1400 B video packets the paper reports (§2.2).
pub const DEFAULT_MTU: usize = 1200;

/// Bytes reserved per packet for the RTP header and the dependency
/// descriptor element ahead of the payload: 12 + 4 + (2 + 3, padded to
/// 8). A key frame's first packet carries the template structure and
/// may grow the buffer once.
const WIRE_HEADER_RESERVE: usize = 24;

/// Stateful packetizer for one video stream (owns the sequence counter).
#[derive(Debug, Clone)]
pub struct Packetizer {
    mtu: usize,
    /// The header of the packet being laid out: identity fields fixed
    /// at construction, the rest overwritten for every packet, the
    /// extension element's buffer reused. Its payload stays empty: the
    /// model carries no pixels, so a payload is a length, rendered as
    /// that many zeros by whoever emits the packet.
    pkt: RtpPacket,
    /// End offset of each packet of the frame being serialized.
    ends: Vec<usize>,
}

impl Packetizer {
    /// Create a packetizer for a stream.
    pub fn new(ssrc: u32, payload_type: u8, mtu: usize) -> Self {
        let mut pkt = RtpPacket::new(payload_type, 0, 0, ssrc);
        pkt.extension_profile = ExtensionProfile::TwoByte;
        pkt.extensions.push(ExtensionElement {
            id: DD_EXTENSION_ID,
            data: Vec::new(),
        });
        Packetizer {
            mtu,
            pkt,
            ends: Vec::new(),
        }
    }

    /// Override the next sequence number (for tests and retransmission
    /// scenarios).
    pub fn set_next_seq(&mut self, seq: u16) {
        self.pkt.sequence_number = seq;
    }

    /// Next sequence number to be used.
    pub fn next_seq(&self) -> u16 {
        self.pkt.sequence_number
    }

    /// How many packets `frame` spans (an empty frame still sends one).
    fn packets_in(&self, frame: &EncodedFrame) -> usize {
        frame.size_bytes.div_ceil(self.mtu).max(1)
    }

    /// Lay out each packet of `frame` in turn and hand its header and
    /// payload length to `emit`.
    fn for_each_packet(&mut self, frame: &EncodedFrame, mut emit: impl FnMut(&RtpPacket, usize)) {
        let n_packets = self.packets_in(frame);
        let mut remaining = frame.size_bytes;
        self.pkt.timestamp = frame.rtp_timestamp;
        for i in 0..n_packets {
            let chunk = remaining.min(self.mtu);
            remaining -= chunk;
            let start = i == 0;
            let end = i == n_packets - 1;
            let mut dd = DependencyDescriptor::mandatory(
                start,
                end,
                frame.label.template_id,
                frame.frame_number,
            );
            if start && frame.label.is_key {
                dd = with_l1t3_structure(dd);
            }
            let element = &mut self.pkt.extensions[0].data;
            element.clear();
            dd.serialize_into(element);
            self.pkt.marker = end;
            emit(&self.pkt, chunk);
            self.pkt.sequence_number = self.pkt.sequence_number.wrapping_add(1);
        }
    }

    /// Packetize one frame into RTP packets.
    pub fn packetize(&mut self, frame: &EncodedFrame) -> Vec<RtpPacket> {
        let mut out = Vec::with_capacity(self.packets_in(frame));
        self.for_each_packet(frame, |header, payload_len| {
            let mut pkt = header.clone();
            pkt.payload = Bytes::from(vec![0u8; payload_len]);
            out.push(pkt);
        });
        out
    }

    /// The longest header [`Self::packetize_wire`] writes: a key frame's
    /// first packet, whose descriptor carries the L1T3 template structure
    /// (36 B; every other packet's is 24 B).
    pub fn max_header_len(&self) -> usize {
        let mut pkt = self.pkt.clone();
        let key = with_l1t3_structure(DependencyDescriptor::mandatory(true, true, 0, 0));
        pkt.extensions[0].data = key.serialize();
        pkt.serialize().len()
    }

    /// Packetize one frame straight to the wire: the datagrams are laid
    /// out back to back in `buf` and appended to `out`, each a view of it,
    /// so a frame costs one buffer however many packets it spans. `buf` is
    /// refilled in place when no other handle holds it ([`Bytes::edit`]),
    /// so a sender that hands back the buffer of a frame nobody reads any
    /// more allocates nothing. `sent` is handed each packet's header as
    /// written and its payload length, in order: all it takes to write
    /// the packet again.
    pub fn packetize_wire(
        &mut self,
        frame: &EncodedFrame,
        buf: &mut Bytes,
        out: &mut Vec<Bytes>,
        mut sent: impl FnMut(&[u8], usize),
    ) {
        let mut ends = std::mem::take(&mut self.ends);
        buf.edit(|buf| {
            let need = frame.size_bytes + self.packets_in(frame) * WIRE_HEADER_RESERVE;
            buf.clear();
            // A refilled buffer too small for this frame, or much larger
            // (it held a key frame, or the bitrate has fallen since), is
            // swapped for a new one — allocated, not grown, so nothing is
            // copied — with 1/16 to spare, as frame sizes wander by a few
            // bytes. Cutting large ones down keeps a pooled buffer from
            // staying at the largest frame it carried.
            if buf.capacity() < need || buf.capacity() > need + need / 2 {
                *buf = Vec::with_capacity(need + need / 16);
            }
            self.for_each_packet(frame, |header, payload_len| {
                let start = buf.len();
                header.serialize_into(buf);
                sent(&buf[start..], payload_len);
                buf.resize(buf.len() + payload_len, 0);
                ends.push(buf.len());
            });
        });
        let mut from = 0;
        for to in ends.drain(..) {
            out.push(buf.slice(from..to));
            from = to;
        }
        self.ends = ends;
    }
}

/// `dd` as a key frame's first packet carries it: with the L1T3 template
/// structure and every decode target active.
fn with_l1t3_structure(mut dd: DependencyDescriptor) -> DependencyDescriptor {
    dd.structure = Some(TemplateStructure::l1t3());
    dd.active_decode_targets = Some(0b111);
    dd
}

/// One-shot convenience wrapper around [`Packetizer::packetize`].
pub fn packetize(
    frame: &EncodedFrame,
    ssrc: u32,
    payload_type: u8,
    first_seq: u16,
) -> Vec<RtpPacket> {
    let mut p = Packetizer::new(ssrc, payload_type, DEFAULT_MTU);
    p.set_next_seq(first_seq);
    p.packetize(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::FrameLabelCompact;
    use scallop_netsim::time::SimTime;

    fn frame(size: usize, is_key: bool, template_id: u8, number: u16) -> EncodedFrame {
        EncodedFrame {
            frame_number: number,
            label: FrameLabelCompact {
                temporal_id: if template_id <= 1 {
                    0
                } else if template_id == 2 {
                    1
                } else {
                    2
                },
                template_id,
                is_key,
            },
            size_bytes: size,
            captured_at: SimTime::ZERO,
            rtp_timestamp: 90_000,
        }
    }

    #[test]
    fn splits_frame_at_mtu() {
        let mut p = Packetizer::new(7, 96, DEFAULT_MTU);
        let pkts = p.packetize(&frame(3000, false, 3, 5));
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].payload.len(), 1200);
        assert_eq!(pkts[1].payload.len(), 1200);
        assert_eq!(pkts[2].payload.len(), 600);
        // Sequence numbers are consecutive; marker on the last only.
        assert_eq!(
            pkts.iter().map(|p| p.sequence_number).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(pkts[2].marker);
        assert!(!pkts[0].marker && !pkts[1].marker);
    }

    #[test]
    fn dd_start_end_flags() {
        let mut p = Packetizer::new(7, 96, DEFAULT_MTU);
        let pkts = p.packetize(&frame(2500, false, 2, 9));
        let dds: Vec<DependencyDescriptor> = pkts
            .iter()
            .map(|p| DependencyDescriptor::parse(p.extension(DD_EXTENSION_ID).unwrap()).unwrap())
            .collect();
        assert!(dds[0].start_of_frame && !dds[0].end_of_frame);
        assert!(!dds[1].start_of_frame && !dds[1].end_of_frame);
        assert!(!dds[2].start_of_frame && dds[2].end_of_frame);
        assert!(dds
            .iter()
            .all(|d| d.template_id == 2 && d.frame_number == 9));
    }

    #[test]
    fn key_frame_first_packet_carries_structure() {
        let mut p = Packetizer::new(7, 96, DEFAULT_MTU);
        let pkts = p.packetize(&frame(2000, true, 0, 0));
        let dd0 = DependencyDescriptor::parse(pkts[0].extension(DD_EXTENSION_ID).unwrap()).unwrap();
        assert!(dd0.is_extended());
        assert!(dd0.structure.is_some());
        let dd1 = DependencyDescriptor::parse(pkts[1].extension(DD_EXTENSION_ID).unwrap()).unwrap();
        assert!(!dd1.is_extended());
    }

    #[test]
    fn sequence_continues_across_frames_and_wraps() {
        let mut p = Packetizer::new(7, 96, DEFAULT_MTU);
        p.set_next_seq(u16::MAX);
        let a = p.packetize(&frame(100, false, 1, 1));
        let b = p.packetize(&frame(100, false, 3, 2));
        assert_eq!(a[0].sequence_number, u16::MAX);
        assert_eq!(b[0].sequence_number, 0);
    }

    #[test]
    fn tiny_frame_single_packet() {
        let mut p = Packetizer::new(7, 96, DEFAULT_MTU);
        let pkts = p.packetize(&frame(1, false, 4, 3));
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].marker);
        let dd = DependencyDescriptor::parse(pkts[0].extension(DD_EXTENSION_ID).unwrap()).unwrap();
        assert!(dd.start_of_frame && dd.end_of_frame);
    }

    #[test]
    fn wire_packets_are_the_owned_packets_serialized() {
        let mut owned = Packetizer::new(0xAB, 96, DEFAULT_MTU);
        let mut wire = Packetizer::new(0xAB, 96, DEFAULT_MTU);
        let mut out = Vec::new();
        let mut buf = Bytes::new();
        for (n, (size, key)) in [(5000, true), (1, false), (2400, false)]
            .into_iter()
            .enumerate()
        {
            let f = frame(size, key, if key { 0 } else { 3 }, n as u16);
            out.clear();
            let mut sent = Vec::new();
            wire.packetize_wire(&f, &mut buf, &mut out, |header, payload_len| {
                sent.push((header.to_vec(), payload_len));
            });
            let pkts = owned.packetize(&f);
            assert_eq!(out.len(), pkts.len());
            assert_eq!(sent.len(), pkts.len());
            for ((w, p), (header, payload_len)) in out.iter().zip(&pkts).zip(&sent) {
                assert_eq!(w, &p.serialize());
                // What `sent` was told is the packet: its header, then
                // its payload's length in zeros.
                assert_eq!(*payload_len, p.payload.len());
                assert_eq!(w[..header.len()], header[..]);
                assert_eq!(w.len(), header.len() + payload_len);
            }
        }
        assert_eq!(owned.next_seq(), wire.next_seq());
    }

    /// A key frame's first packet has the longest header (the template
    /// structure rides in its descriptor), and `max_header_len` is it.
    #[test]
    fn max_header_len_is_a_key_frame_first_packet_header() {
        let mut p = Packetizer::new(0xAB, 96, DEFAULT_MTU);
        let max = p.max_header_len();
        let mut headers = Vec::new();
        let mut buf = Bytes::new();
        for (n, key) in [true, false, true].into_iter().enumerate() {
            let f = frame(3000, key, if key { 0 } else { 2 }, n as u16);
            p.packetize_wire(&f, &mut buf, &mut Vec::new(), |header, _| {
                headers.push(header.len())
            });
        }
        assert_eq!((max, headers[0], headers[1]), (36, 36, 24));
        assert!(headers.iter().all(|&h| h <= max), "{headers:?}");
    }

    #[test]
    fn packets_parse_back_from_wire() {
        let mut p = Packetizer::new(0xAB, 96, DEFAULT_MTU);
        for pkt in p.packetize(&frame(5000, true, 0, 7)) {
            let bytes = pkt.serialize();
            let parsed = RtpPacket::parse(&bytes).unwrap();
            assert_eq!(parsed, pkt);
        }
    }
}
