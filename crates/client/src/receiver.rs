//! Per-stream receive state: jitter, loss, decoding, feedback.
//!
//! One `ReceiverState` exists per incoming media stream. In Scallop's
//! proxy architecture each remote sender's media arrives from a distinct
//! SFU address (§5.3 split connections), so the receiver keys streams by
//! source address and — crucially — its feedback about a stream goes back
//! to that address only, giving the SFU per-sender feedback to filter.

use crate::gcc::{BandwidthEstimator, GccConfig};
use scallop_media::decoder::{Decoder, DecoderConfig, DecoderEvent};
use scallop_netsim::time::{SimDuration, SimTime};
use scallop_proto::av1::DD_EXTENSION_ID;
use scallop_proto::error::ProtoError;
use scallop_proto::rtcp::{self, ReportBlock};
use scallop_proto::rtp::{RtpPacket, RtpView};

/// What the receive path reads of one RTP datagram, borrowed from it:
/// three header fields, the payload's length and the dependency
/// descriptor element. Nothing on the receive side keeps a payload
/// (`media::decoder` assembles frames from sequence numbers and
/// lengths), so nothing is copied out of the datagram either.
#[derive(Debug, Clone, Copy)]
pub struct MediaHeader<'a> {
    /// Wire sequence number. A simulated packet renumbered by a switch
    /// carries it in its overlay, not in the bytes parsed here:
    /// `ClientNode` puts `Packet::seq_overlay` in its place.
    pub sequence_number: u16,
    /// Media timestamp.
    pub timestamp: u32,
    /// Synchronization source.
    pub ssrc: u32,
    /// Payload bytes after header and extensions.
    pub payload_len: usize,
    /// The AV1 dependency descriptor element; video carries one, audio
    /// does not.
    pub dd: Option<&'a [u8]>,
}

impl<'a> MediaHeader<'a> {
    /// Read the fields off a received datagram.
    pub fn parse(datagram: &'a [u8]) -> Result<Self, ProtoError> {
        let view = RtpView::new(datagram)?;
        Ok(MediaHeader {
            sequence_number: view.sequence_number(),
            timestamp: view.timestamp(),
            ssrc: view.ssrc(),
            payload_len: view.payload()?.len(),
            dd: view.find_extension(DD_EXTENSION_ID)?,
        })
    }
}

impl<'a> From<&'a RtpPacket> for MediaHeader<'a> {
    fn from(pkt: &'a RtpPacket) -> Self {
        MediaHeader {
            sequence_number: pkt.sequence_number,
            timestamp: pkt.timestamp,
            ssrc: pkt.ssrc,
            payload_len: pkt.payload.len(),
            dd: pkt.extension(DD_EXTENSION_ID),
        }
    }
}

/// Receive-side statistics for one stream (the WebRTC stats API view the
/// paper's Figs. 3/4/14 are measured with).
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamRxStats {
    /// Packets received.
    pub packets: u64,
    /// Payload bytes received.
    pub bytes: u64,
    /// RFC 3550 interarrival jitter, in milliseconds.
    pub jitter_ms: f64,
    /// Cumulative packets lost (per extended-seq accounting).
    pub cumulative_lost: u64,
    /// Highest extended sequence number seen.
    pub highest_seq: u32,
    /// Forward jumps of more than one in the extended sequence number:
    /// holes in the stream as it arrived, whether lost on the way or
    /// left by a switch that suppressed packets without renumbering.
    pub seq_gaps: u64,
    /// Frames decoded (video only).
    pub frames_decoded: u64,
    /// Decoder freezes (video only).
    pub freezes: u64,
}

/// Per-stream receiver state.
#[derive(Debug)]
pub struct ReceiverState {
    /// SSRC of the remote stream.
    pub ssrc: u32,
    /// Local SSRC used in feedback we send.
    pub local_ssrc: u32,
    /// Whether this is a video stream (has DD extensions, drives GCC).
    pub is_video: bool,
    /// Video decoder (None for audio).
    decoder: Option<Decoder>,
    /// Bandwidth estimator (video only).
    estimator: Option<BandwidthEstimator>,
    /// When the last media packet arrived.
    last_media_at: Option<SimTime>,
    /// Jitter state: last transit time (RFC 3550 A.8).
    last_transit_ms: Option<f64>,
    jitter_ms: f64,
    /// Loss accounting: the first sequence number, and the highest one
    /// seen extended past each wrap (RFC 3550 A.1).
    expected_base: Option<u16>,
    received: u64,
    bytes: u64,
    highest_ext_seq: u32,
    seq_gaps: u64,
    /// Loss snapshot at the last RR (fraction-lost computation).
    last_rr_expected: u64,
    last_rr_received: u64,
    frames_decoded: u64,
    freezes: u64,
    last_pli_at: Option<SimTime>,
    /// Decoder events of the last [`Self::on_media`] or [`Self::poll`].
    events: Vec<DecoderEvent>,
    /// Sequence numbers [`Self::due_nacks`] found for [`Self::write_nack`].
    nacks: Vec<u16>,
}

impl ReceiverState {
    /// Create state for a newly observed stream.
    pub fn new(ssrc: u32, local_ssrc: u32, is_video: bool, gcc: GccConfig) -> Self {
        ReceiverState {
            ssrc,
            local_ssrc,
            is_video,
            decoder: is_video.then(|| Decoder::new(DecoderConfig::default())),
            estimator: is_video.then(|| BandwidthEstimator::new(gcc)),
            last_media_at: None,
            last_transit_ms: None,
            jitter_ms: 0.0,
            expected_base: None,
            received: 0,
            bytes: 0,
            highest_ext_seq: 0,
            seq_gaps: 0,
            last_rr_expected: 0,
            last_rr_received: 0,
            frames_decoded: 0,
            freezes: 0,
            last_pli_at: None,
            events: Vec::new(),
            nacks: Vec::new(),
        }
    }

    /// Feed one RTP packet; returns decoder events (video).
    pub fn on_media(
        &mut self,
        now: SimTime,
        pkt: MediaHeader<'_>,
        wire_len: usize,
    ) -> &[DecoderEvent] {
        self.received += 1;
        self.bytes += pkt.payload_len as u64;
        self.last_media_at = Some(now);

        // Extended sequence tracking: a number is as far ahead of the
        // highest seen as its signed 16-bit distance says, so a late packet
        // from before a wrap is not taken for one a whole cycle ahead.
        // Continuity: a step of more than one is a gap.
        let seq = pkt.sequence_number;
        if self.expected_base.is_none() {
            self.expected_base = Some(seq);
            self.highest_ext_seq = u32::from(seq);
        }
        let ahead = seq.wrapping_sub(self.highest_ext_seq as u16) as i16;
        if ahead > 0 {
            self.highest_ext_seq = self.highest_ext_seq.wrapping_add(ahead as u32);
            self.seq_gaps += u64::from(ahead > 1);
        }

        // RFC 3550 jitter: media clock 90 kHz for video, 48 kHz audio.
        let clock = if self.is_video { 90_000.0 } else { 48_000.0 };
        let send_ms = pkt.timestamp as f64 / clock * 1000.0;
        let transit = now.as_millis_f64() - send_ms;
        if let Some(prev) = self.last_transit_ms {
            let d = (transit - prev).abs();
            self.jitter_ms += (d - self.jitter_ms) / 16.0;
        }
        self.last_transit_ms = Some(transit);

        if let Some(est) = &mut self.estimator {
            est.on_packet(now, send_ms, wire_len);
        }
        self.events.clear();
        if let (Some(dec), Some(dd)) = (&mut self.decoder, pkt.dd) {
            dec.on_video_packet(
                now,
                pkt.sequence_number,
                pkt.payload_len,
                dd,
                &mut self.events,
            );
        }
        self.digest_events()
    }

    /// Count the decoder's latest events into the stream statistics.
    fn digest_events(&mut self) -> &[DecoderEvent] {
        for e in &self.events {
            match e {
                DecoderEvent::FrameDecoded { .. } => self.frames_decoded += 1,
                DecoderEvent::Froze { .. } => self.freezes += 1,
                _ => {}
            }
        }
        &self.events
    }

    /// Time-driven decoder progress.
    pub fn poll(&mut self, now: SimTime) -> &[DecoderEvent] {
        self.events.clear();
        if let Some(dec) = &mut self.decoder {
            dec.poll_into(now, &mut self.events);
        }
        self.digest_events()
    }

    /// When the last media packet arrived (`None` before the first).
    pub(crate) fn last_media_at(&self) -> Option<SimTime> {
        self.last_media_at
    }

    /// Decoded frame rate over a trailing window (video; 0 for audio).
    pub fn fps_over(&mut self, window: SimDuration, now: SimTime) -> f64 {
        self.decoder
            .as_mut()
            .map(|d| d.fps_over(window, now))
            .unwrap_or(0.0)
    }

    /// Snapshot of receive statistics.
    pub fn stats(&self) -> StreamRxStats {
        let expected = self.expected_total();
        StreamRxStats {
            packets: self.received,
            bytes: self.bytes,
            jitter_ms: self.jitter_ms,
            cumulative_lost: expected.saturating_sub(self.received),
            highest_seq: self.highest_ext_seq,
            seq_gaps: self.seq_gaps,
            frames_decoded: self.frames_decoded,
            freezes: self.freezes,
        }
    }

    fn expected_total(&self) -> u64 {
        match self.expected_base {
            None => 0,
            Some(base) => (self.highest_ext_seq as u64)
                .saturating_sub(base as u64)
                .saturating_add(1),
        }
    }

    /// Append the periodic RR (+REMB for video) compound for this stream.
    pub(crate) fn write_feedback(&mut self, out: &mut Vec<u8>) {
        let expected = self.expected_total();
        let exp_delta = expected.saturating_sub(self.last_rr_expected);
        let rcv_delta = self.received.saturating_sub(self.last_rr_received);
        self.last_rr_expected = expected;
        self.last_rr_received = self.received;
        let fraction_lost = if exp_delta == 0 || rcv_delta >= exp_delta {
            0
        } else {
            (((exp_delta - rcv_delta) * 256) / exp_delta).min(255) as u8
        };
        // Drive the loss-based estimator branch (a full drop-tail queue
        // produces flat delay but heavy loss).
        if let Some(est) = &mut self.estimator {
            est.on_loss(fraction_lost as f64 / 256.0);
        }
        let report = ReportBlock {
            ssrc: self.ssrc,
            fraction_lost,
            cumulative_lost: expected.saturating_sub(self.received).min(0x00FF_FFFF) as u32,
            highest_seq: self.highest_ext_seq,
            jitter: (self.jitter_ms * 90.0) as u32, // ms -> 90 kHz ticks
            lsr: 0,
            dlsr: 0,
        };
        rtcp::write_rr(out, self.local_ssrc, [report]);
        if let Some(est) = &self.estimator {
            rtcp::write_remb(out, self.local_ssrc, est.estimate_bps(), [self.ssrc]);
        }
    }

    /// Collect the missing packets due for a NACK now (video); whether
    /// there are any, to send with [`Self::write_nack`].
    pub fn due_nacks(&mut self, now: SimTime) -> bool {
        self.nacks.clear();
        if let Some(dec) = &mut self.decoder {
            dec.take_nack_requests(now, &mut self.nacks);
        }
        !self.nacks.is_empty()
    }

    /// Append the Generic NACK for what [`Self::due_nacks`] collected.
    pub fn write_nack(&self, out: &mut Vec<u8>) {
        rtcp::write_nack(
            out,
            self.local_ssrc,
            self.ssrc,
            rtcp::nack_entries(&self.nacks),
        );
    }

    /// Append the PLI asking this stream's sender for a key frame.
    pub fn write_pli(&self, out: &mut Vec<u8>) {
        rtcp::write_pli(out, self.local_ssrc, self.ssrc);
    }

    /// Whether the decoder is frozen and needs a key frame (drives PLI).
    pub fn needs_keyframe(&self) -> bool {
        self.decoder
            .as_ref()
            .map(|d| d.needs_keyframe())
            .unwrap_or(false)
    }

    /// Whether a PLI should be sent now. PLIs are rate-limited to one
    /// per 2 s per stream — real receivers do the same, and without the
    /// limit a frozen decoder turns every frame into an oversized key
    /// frame whose extra load can keep a congested link's queue pinned
    /// at overflow indefinitely (keys then never complete and the freeze
    /// self-sustains).
    pub(crate) fn take_pli(&mut self, now: SimTime) -> bool {
        if !self.needs_keyframe() {
            return false;
        }
        let due = self
            .last_pli_at
            .map(|t| now.saturating_since(t) >= SimDuration::from_millis(2_000))
            .unwrap_or(true);
        if due {
            self.last_pli_at = Some(now);
        }
        due
    }

    /// Current bandwidth estimate (video).
    pub fn estimate_bps(&self) -> Option<u64> {
        self.estimator.as_ref().map(|e| e.estimate_bps())
    }

    /// Raw decoder statistics (video streams).
    pub fn decoder_stats(&self) -> Option<scallop_media::decoder::DecoderStats> {
        self.decoder.as_ref().map(|d| d.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use scallop_media::encoder::{EncodedFrame, FrameLabelCompact};
    use scallop_media::packetizer::Packetizer;
    use scallop_proto::rtcp::RtcpPacket;

    /// The RR (+REMB) compound `rx` sends now, parsed back.
    fn feedback(rx: &mut ReceiverState) -> Vec<RtcpPacket> {
        let mut wire = Vec::new();
        rx.write_feedback(&mut wire);
        rtcp::parse_compound(&wire).unwrap()
    }

    fn report_block(rx: &mut ReceiverState) -> ReportBlock {
        let RtcpPacket::Rr(rr) = &feedback(rx)[0] else {
            panic!("expected RR first");
        };
        rr.reports[0]
    }

    /// One audio packet numbered `seq`, as the receive path reads it.
    fn audio(seq: u16) -> MediaHeader<'static> {
        MediaHeader {
            sequence_number: seq,
            timestamp: 0,
            ssrc: 8,
            payload_len: 128,
            dd: None,
        }
    }

    fn video_pkt(pz: &mut Packetizer, number: u16, size: usize) -> Vec<RtpPacket> {
        pz.packetize(&EncodedFrame {
            frame_number: number,
            label: FrameLabelCompact {
                temporal_id: 0,
                template_id: if number == 0 { 0 } else { 1 },
                is_key: number == 0,
            },
            size_bytes: size,
            captured_at: SimTime::ZERO,
            rtp_timestamp: number as u32 * 3000,
        })
    }

    #[test]
    fn receives_and_decodes_video() {
        let mut rx = ReceiverState::new(7, 100, true, GccConfig::default());
        let mut pz = Packetizer::new(7, 96, 1200);
        for n in 0..10u16 {
            for p in video_pkt(&mut pz, n, 1000) {
                rx.on_media(SimTime::from_millis(33 * (n as u64 + 1)), (&p).into(), 1042);
            }
        }
        let s = rx.stats();
        assert_eq!(s.packets, 10);
        assert_eq!(s.frames_decoded, 10);
        assert_eq!(s.cumulative_lost, 0);
        assert_eq!(s.seq_gaps, 0);
        assert_eq!(s.freezes, 0);
    }

    #[test]
    fn loss_reflected_in_rr() {
        let mut rx = ReceiverState::new(7, 100, true, GccConfig::default());
        let mut pz = Packetizer::new(7, 96, 1200);
        for n in 0..10u16 {
            for p in video_pkt(&mut pz, n, 1000) {
                if n == 5 {
                    continue; // drop one whole frame (1 packet)
                }
                rx.on_media(SimTime::from_millis(33 * (n as u64 + 1)), (&p).into(), 1042);
            }
        }
        let fb = feedback(&mut rx);
        let RtcpPacket::Rr(rr) = &fb[0] else {
            panic!("expected RR first");
        };
        let block = rr.reports[0];
        assert_eq!(block.cumulative_lost, 1);
        assert!(block.fraction_lost > 0);
        // Second half: REMB present for video.
        assert!(matches!(fb[1], RtcpPacket::Remb(_)));
    }

    /// RFC 3550 A.1: a packet numbered just before a wrap that arrives
    /// after it is late, not a whole cycle ahead. Counting it as ahead
    /// used to report 65 535 lost and a `fraction_lost` of 255 — which
    /// the loss branch of GCC reads as a collapsed link.
    #[test]
    fn reordering_across_the_wrap_loses_nothing() {
        let mut rx = ReceiverState::new(8, 100, false, GccConfig::default());
        for (i, seq) in [0xFFFF, 0x0000, 0xFFFE, 0x0001].into_iter().enumerate() {
            rx.on_media(SimTime::from_millis(20 * i as u64), audio(seq), 170);
        }
        let s = rx.stats();
        assert_eq!((s.cumulative_lost, s.highest_seq), (0, 65_537));
        assert_eq!(s.seq_gaps, 0, "late is not a gap");
        let block = report_block(&mut rx);
        assert_eq!(block.cumulative_lost, 0);
        assert_eq!(block.fraction_lost, 0);
        assert_eq!(block.highest_seq, 65_537);
    }

    /// A forward jump across the wrap still counts the packets skipped.
    #[test]
    fn a_forward_jump_across_the_wrap_counts_the_gap() {
        let mut rx = ReceiverState::new(8, 100, false, GccConfig::default());
        rx.on_media(SimTime::ZERO, audio(0xFFF0), 170);
        rx.on_media(SimTime::from_millis(20), audio(0x0010), 170);
        let s = rx.stats();
        assert_eq!(s.highest_seq, 0x1_0010);
        assert_eq!(s.cumulative_lost, 31);
        assert_eq!(s.seq_gaps, 1, "one jump, however long");
        let block = report_block(&mut rx);
        assert_eq!((block.cumulative_lost, block.fraction_lost), (31, 240));
    }

    #[test]
    fn audio_stream_has_no_remb_or_nack() {
        let mut rx = ReceiverState::new(8, 100, false, GccConfig::default());
        let mut pkt = RtpPacket::new(111, 0, 0, 8);
        pkt.payload = Bytes::from(vec![0u8; 128]);
        rx.on_media(SimTime::from_millis(20), (&pkt).into(), 170);
        let fb = feedback(&mut rx);
        assert_eq!(fb.len(), 1);
        assert!(matches!(fb[0], RtcpPacket::Rr(_)));
        assert!(!rx.due_nacks(SimTime::from_secs(1)));
        assert!(!rx.needs_keyframe());
    }

    #[test]
    fn jitter_grows_with_irregular_arrivals() {
        let regular = {
            let mut rx = ReceiverState::new(7, 1, true, GccConfig::default());
            let mut pz = Packetizer::new(7, 96, 1200);
            for n in 0..60u16 {
                for p in video_pkt(&mut pz, n, 500) {
                    rx.on_media(SimTime::from_millis(33 * (n as u64 + 1)), (&p).into(), 542);
                }
            }
            rx.stats().jitter_ms
        };
        let jittery = {
            let mut rx = ReceiverState::new(7, 1, true, GccConfig::default());
            let mut pz = Packetizer::new(7, 96, 1200);
            for n in 0..60u16 {
                for p in video_pkt(&mut pz, n, 500) {
                    let wobble = if n % 2 == 0 { 0 } else { 25 };
                    rx.on_media(
                        SimTime::from_millis(33 * (n as u64 + 1) + wobble),
                        (&p).into(),
                        542,
                    );
                }
            }
            rx.stats().jitter_ms
        };
        assert!(jittery > 5.0 * regular.max(0.1), "{regular} vs {jittery}");
    }

    #[test]
    fn nacks_emitted_for_gap() {
        let mut rx = ReceiverState::new(7, 100, true, GccConfig::default());
        let mut pz = Packetizer::new(7, 96, 1200);
        let mut t = SimTime::ZERO;
        for n in 0..6u16 {
            for p in video_pkt(&mut pz, n, 2500) {
                t = SimTime::from_millis(20 * (n as u64 + 1));
                if n == 3 && p.sequence_number % 3 == 1 {
                    continue; // drop mid-frame packet
                }
                rx.on_media(t, (&p).into(), 1042);
            }
        }
        assert!(rx.due_nacks(t + SimDuration::from_millis(100)));
        let mut wire = Vec::new();
        rx.write_nack(&mut wire);
        let parsed = rtcp::parse_compound(&wire);
        let Ok([RtcpPacket::Nack(n)]) = parsed.as_deref() else {
            panic!("expected one NACK");
        };
        assert_eq!(n.media_ssrc, 7);
        assert_eq!(n.lost_sequences().len(), 1);
    }
}
