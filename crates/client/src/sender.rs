//! Media sending: encoder, packetizer, retransmission, rate control.
//!
//! The sender side of a participant: produces video (SVC L1T3) and audio
//! packets on their capture clocks, answers NACKs from a bounded
//! retransmission history, refreshes with a key frame on PLI, and adapts
//! the encoder target to incoming REMB values — which, through Scallop's
//! feedback filter, reflect "the highest rate allowed by its uplink and
//! the best downlink" (§5.3).

use bytes::Bytes;
use scallop_media::audio::{AudioConfig, AudioSource};
use scallop_media::encoder::{EncoderConfig, VideoEncoder};
use scallop_media::packetizer::{Packetizer, DEFAULT_MTU};
use scallop_netsim::packet::BufPool;
use scallop_netsim::time::{SimDuration, SimTime};
use scallop_proto::rtcp::{self, SenderReport};
use scallop_proto::rtp::{RtpPacket, MIN_HEADER_LEN};

/// How many recently sent video packets can be sent again. A power of
/// two dividing 65 536, so that `seq % RETX_HISTORY` keeps cycling
/// through the slots in order across the sequence-number wrap.
const RETX_HISTORY: usize = 1024;

/// Most frame buffers kept: two seconds of frames at 30 fps, more than a
/// sender has in flight behind any downlink queue.
const FRAME_POOL_LIMIT: usize = 64;

/// Most audio buffers kept: more than a sender has in flight behind any
/// downlink queue at one packet per 20 ms.
const AUDIO_POOL_LIMIT: usize = 128;

/// Most retransmission buffers kept: a NACK names at most a few frames'
/// packets, and they are delivered within a round trip.
const RETX_POOL_LIMIT: usize = 64;

/// Sender-side statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderStats {
    /// Video packets sent (first transmissions).
    pub video_packets: u64,
    /// Audio packets sent.
    pub audio_packets: u64,
    /// Retransmissions served.
    pub retransmissions: u64,
    /// Key frames produced.
    pub key_frames: u64,
    /// Current encoder target bitrate.
    pub target_bitrate_bps: u64,
    /// REMB feedback messages received (after any switch-side
    /// filtering/aggregation).
    pub rembs_received: u64,
}

/// A packet the history can send again.
#[derive(Debug, Clone, Copy)]
struct Sent {
    seq: u16,
    header_len: u16,
    payload_len: u16,
}

/// The last [`RETX_HISTORY`] video packets, each kept as what it takes to
/// write it again: its header and its payload length. The model carries
/// no pixels — a payload is that many zeros (`scallop_media::packetizer`)
/// — so header and zeros are the datagram that went out, byte for byte.
/// The packet numbered `seq` is in slot `seq % RETX_HISTORY`; sequence
/// numbers are consecutive, so each new packet overwrites the one sent
/// `RETX_HISTORY` before it. Both arrays are allocated once, with the
/// sender: nothing here holds a frame's buffer, or allocates per packet.
#[derive(Debug)]
struct RetxHistory {
    /// Size of a header slot: the longest header the packetizer writes.
    stride: usize,
    /// Slot `i`'s header is the front of `headers[i * stride..][..stride]`.
    headers: Box<[u8]>,
    /// What each slot holds; `None` until a packet is sent into it.
    sent: Box<[Option<Sent>]>,
}

impl RetxHistory {
    fn new(stride: usize) -> Self {
        RetxHistory {
            stride,
            headers: vec![0; RETX_HISTORY * stride].into_boxed_slice(),
            sent: vec![None; RETX_HISTORY].into_boxed_slice(),
        }
    }

    /// Keep packet `seq`, evicting the one `RETX_HISTORY` before it.
    fn record(&mut self, seq: u16, header: &[u8], payload_len: usize) {
        assert!(
            header.len() <= self.stride,
            "a {}-byte header overflows its {}-byte slot",
            header.len(),
            self.stride
        );
        let slot = seq as usize % RETX_HISTORY;
        self.headers[slot * self.stride..][..header.len()].copy_from_slice(header);
        self.sent[slot] = Some(Sent {
            seq,
            header_len: header.len() as u16,
            // Payloads are at most the packetizer's MTU.
            payload_len: u16::try_from(payload_len).expect("a payload within a datagram"),
        });
    }

    /// Packet `seq`'s header and payload length, if it is still kept.
    fn get(&self, seq: u16) -> Option<(&[u8], usize)> {
        let slot = seq as usize % RETX_HISTORY;
        let sent = self.sent[slot].filter(|s| s.seq == seq)?;
        let header = &self.headers[slot * self.stride..][..usize::from(sent.header_len)];
        Some((header, usize::from(sent.payload_len)))
    }
}

/// A participant's media sender.
#[derive(Debug)]
pub struct MediaSender {
    /// Video SSRC.
    pub video_ssrc: u32,
    /// Audio SSRC.
    pub audio_ssrc: u32,
    encoder: VideoEncoder,
    packetizer: Packetizer,
    audio: AudioSource,
    audio_seq: u16,
    history: RetxHistory,
    /// The frame produced by the last [`Self::video_tick`].
    frame: Vec<Bytes>,
    /// Buffers of the frames in flight.
    frame_pool: BufPool,
    /// Buffers of the audio packets in flight.
    audio_pool: BufPool,
    /// Buffers of the retransmissions in flight.
    retx_pool: BufPool,
    stats: SenderStats,
}

impl MediaSender {
    /// Create a sender.
    pub fn new(
        video_ssrc: u32,
        audio_ssrc: u32,
        video_cfg: EncoderConfig,
        audio_cfg: AudioConfig,
    ) -> Self {
        let packetizer = Packetizer::new(video_ssrc, 96, DEFAULT_MTU);
        MediaSender {
            video_ssrc,
            audio_ssrc,
            encoder: VideoEncoder::new(video_cfg),
            history: RetxHistory::new(packetizer.max_header_len()),
            packetizer,
            audio: AudioSource::new(audio_cfg),
            audio_seq: 0,
            frame: Vec::new(),
            frame_pool: BufPool::new(FRAME_POOL_LIMIT),
            audio_pool: BufPool::new(AUDIO_POOL_LIMIT),
            retx_pool: BufPool::new(RETX_POOL_LIMIT),
            stats: SenderStats::default(),
        }
    }

    /// Interval between video frames.
    pub fn video_interval(&self) -> SimDuration {
        self.encoder.frame_interval()
    }

    /// Interval between audio packets.
    pub fn audio_interval(&self) -> SimDuration {
        self.audio.packet_interval()
    }

    /// Capture/encode/packetize the video frame due at `now`: the
    /// frame's datagrams in wire form, each serialized exactly once into
    /// one buffer, whose headers the history keeps.
    ///
    /// The frame is laid out in the buffer of an earlier frame once every
    /// packet of that one has been delivered and dropped.
    pub fn video_tick(&mut self, now: SimTime) -> &[Bytes] {
        let frame = self.encoder.produce(now);
        if frame.label.is_key {
            self.stats.key_frames += 1;
        }
        let mut seq = self.packetizer.next_seq();
        let mut buf = self.frame_pool.take();
        self.frame.clear();
        let history = &mut self.history;
        self.packetizer
            .packetize_wire(&frame, &mut buf, &mut self.frame, |header, payload_len| {
                history.record(seq, header, payload_len);
                seq = seq.wrapping_add(1);
            });
        self.frame_pool.put(buf);
        self.stats.video_packets += self.frame.len() as u64;
        &self.frame
    }

    /// Produce the audio datagram due at `now`.
    pub fn audio_tick(&mut self, now: SimTime) -> Bytes {
        let a = self.audio.produce(now);
        let mut pkt = RtpPacket::new(111, self.audio_seq, a.rtp_timestamp, self.audio_ssrc);
        self.audio_seq = self.audio_seq.wrapping_add(1);
        pkt.marker = true;
        self.stats.audio_packets += 1;
        // The payload is silence: reserve it with the header, then pad.
        self.audio_pool.build(|wire| {
            wire.reserve(MIN_HEADER_LEN + a.size_bytes);
            pkt.serialize_into(wire);
            wire.resize(wire.len() + a.size_bytes, 0);
        })
    }

    /// Serve a NACK: hand `resend` each datagram still in the history,
    /// written again into a pooled buffer, in the order `lost` asks for
    /// them.
    pub fn handle_nack(
        &mut self,
        lost: impl IntoIterator<Item = u16>,
        mut resend: impl FnMut(Bytes),
    ) {
        for seq in lost {
            let Some((header, payload_len)) = self.history.get(seq) else {
                continue;
            };
            resend(self.retx_pool.build(|wire| {
                wire.reserve(header.len() + payload_len);
                wire.extend_from_slice(header);
                wire.resize(header.len() + payload_len, 0);
            }));
            self.stats.retransmissions += 1;
        }
    }

    /// Handle a PLI: next frame will be a key frame.
    pub(crate) fn handle_pli(&mut self) {
        self.encoder.request_key_frame();
    }

    /// Handle a REMB: adapt the encoder target.
    pub(crate) fn handle_remb(&mut self, bitrate_bps: u64) {
        self.stats.rembs_received += 1;
        self.encoder.set_target_bitrate(bitrate_bps);
    }

    /// Current encoder target.
    pub fn target_bitrate_bps(&self) -> u64 {
        self.encoder.target_bitrate_bps()
    }

    /// Append the periodic SR + SDES compound for the video stream.
    pub fn write_sr(&self, now: SimTime, cname: &str, out: &mut Vec<u8>) {
        let secs = now.as_secs_f64();
        rtcp::write_sr(
            out,
            &SenderReport {
                ssrc: self.video_ssrc,
                ntp_sec: secs as u32,
                ntp_frac: ((secs.fract()) * 4_294_967_296.0) as u32,
                rtp_ts: (secs * 90_000.0) as u32,
                packet_count: self.stats.video_packets as u32,
                octet_count: 0,
                reports: Vec::new(),
            },
        );
        rtcp::write_sdes(out, [(self.video_ssrc, cname)]);
    }

    /// Snapshot the sender statistics.
    pub fn stats(&self) -> SenderStats {
        SenderStats {
            target_bitrate_bps: self.encoder.target_bitrate_bps(),
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sender() -> MediaSender {
        MediaSender::new(0x51, 0xA0, EncoderConfig::default(), AudioConfig::default())
    }

    fn parsed(wire: &Bytes) -> RtpPacket {
        RtpPacket::parse(wire).expect("the sender emits valid RTP")
    }

    /// What a NACK of `lost` retransmits, in order.
    fn served(s: &mut MediaSender, lost: &[u16]) -> Vec<Bytes> {
        let mut out = Vec::new();
        s.handle_nack(lost.iter().copied(), |wire| out.push(wire));
        out
    }

    #[test]
    fn video_tick_produces_labeled_packets() {
        let mut s = sender();
        let ssrc = s.video_ssrc;
        let pkts = s.video_tick(SimTime::ZERO);
        assert!(!pkts.is_empty());
        assert!(pkts.iter().all(|p| parsed(p).ssrc == ssrc));
        assert_eq!(s.stats().key_frames, 1, "first frame is a key frame");
    }

    #[test]
    fn audio_tick_sequence_increments() {
        let mut s = sender();
        let a = parsed(&s.audio_tick(SimTime::ZERO));
        let b = parsed(&s.audio_tick(SimTime::from_millis(20)));
        assert_eq!(b.sequence_number, a.sequence_number + 1);
        assert_eq!(a.payload.len(), 128);
        assert!(a.payload.iter().all(|&b| b == 0));
    }

    #[test]
    fn nack_served_from_history() {
        let mut s = sender();
        let sent = s.video_tick(SimTime::ZERO).to_vec();
        let seq = parsed(&sent[0]).sequence_number;
        let retx = served(&mut s, &[seq, 9999]);
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0], sent[0]);
        assert_eq!(s.stats().retransmissions, 1);
    }

    #[test]
    fn history_bounded() {
        let mut s = sender();
        let mut t = SimTime::ZERO;
        let mut first_seq = None;
        for _ in 0..400 {
            let pkts = s.video_tick(t);
            if first_seq.is_none() {
                first_seq = Some(parsed(&pkts[0]).sequence_number);
            }
            t += s.video_interval();
        }
        // The very first packet has been evicted by now.
        assert!(served(&mut s, &[first_seq.unwrap()]).is_empty());
    }

    /// The history is indexed by `seq % RETX_HISTORY`; the index must
    /// keep working when the 16-bit sequence number wraps mid-history.
    #[test]
    fn nack_served_across_the_sequence_wrap() {
        let mut s = sender();
        s.packetizer.set_next_seq(u16::MAX - 5);
        let mut sent: Vec<Bytes> = Vec::new();
        let mut t = SimTime::ZERO;
        while sent.len() < 40 {
            sent.extend_from_slice(s.video_tick(t));
            t += s.video_interval();
        }
        let seqs: Vec<u16> = sent.iter().map(|w| parsed(w).sequence_number).collect();
        assert!(seqs.contains(&u16::MAX) && seqs.contains(&0), "wrapped");
        // Asked for newest first, with one that was never sent: served
        // in the order asked, the unknown one skipped.
        let mut ask: Vec<u16> = seqs.iter().rev().copied().collect();
        ask.insert(3, u16::MAX - 6);
        let retx = served(&mut s, &ask);
        let want: Vec<Bytes> = sent.iter().rev().cloned().collect();
        assert_eq!(retx, want);
        assert_eq!(s.stats().retransmissions, sent.len() as u64);
        // Everything older than the history is gone.
        for _ in 0..400 {
            s.video_tick(t);
            t += s.video_interval();
        }
        assert!(served(&mut s, &seqs).is_empty());
    }

    #[test]
    fn pli_and_remb_affect_encoder() {
        let mut s = sender();
        let _ = s.video_tick(SimTime::ZERO);
        let before = s.target_bitrate_bps();
        s.handle_remb(before / 2);
        assert_eq!(s.target_bitrate_bps(), before / 2);
        s.handle_pli();
        let mut t = SimTime::from_millis(33);
        let pkts = s.video_tick(t);
        let _ = &pkts;
        t += s.video_interval();
        let _ = t;
        assert_eq!(s.stats().key_frames, 2);
    }

    #[test]
    fn sr_compound_shape() {
        let mut s = sender();
        let sent = s.video_tick(SimTime::ZERO).len() as u32;
        let mut wire = Vec::new();
        s.write_sr(SimTime::from_secs(5), "alice", &mut wire);
        let sr = rtcp::parse_compound(&wire).unwrap();
        assert_eq!(sr.len(), 2);
        let rtcp::RtcpPacket::Sr(report) = &sr[0] else {
            panic!("SR first");
        };
        assert_eq!((report.ntp_sec, report.packet_count), (5, sent));
        assert_eq!(
            sr[1],
            rtcp::RtcpPacket::Sdes(rtcp::Sdes {
                chunks: vec![(0x51, "alice".into())]
            })
        );
    }

    /// Audio and frame buffers are refilled as soon as every copy of what
    /// they carried is gone: the history holds headers, not a frame's
    /// buffer, so a frame delivered and dropped frees its buffer for the
    /// next frame but one (the sender's own list of the last frame lets
    /// go at the next tick).
    #[test]
    fn buffers_are_recycled_once_nothing_holds_them() {
        let mut s = sender();
        let first = s.audio_tick(SimTime::ZERO);
        let ptr = first.as_ptr();
        drop(first);
        let second = s.audio_tick(SimTime::from_millis(20));
        assert_eq!(second.as_ptr(), ptr);
        assert_eq!(parsed(&second).sequence_number, 1);

        let mut t = SimTime::ZERO;
        let mut tick = |s: &mut MediaSender| {
            let wire = s.video_tick(t)[0].clone();
            t += s.video_interval();
            wire
        };
        // Past the key frame and the smaller frames that repay it, frames
        // fit each other's buffers.
        for _ in 0..60 {
            tick(&mut s);
        }
        // One frame's first packet is still in flight through the next two.
        let in_flight = tick(&mut s);
        let frame_ptr = in_flight.as_ptr();
        assert_ne!(tick(&mut s).as_ptr(), frame_ptr);
        assert_ne!(tick(&mut s).as_ptr(), frame_ptr);
        drop(in_flight);
        // Delivered: the third frame after it is laid out in its buffer,
        // not 1 024 packets later.
        assert_eq!(tick(&mut s).as_ptr(), frame_ptr);
    }

    /// A retransmission is the first transmission byte for byte: a key
    /// frame's first packet (36-byte header, template structure and all)
    /// and a delta frame's packet (24-byte header), on both sides of the
    /// sequence-number wrap.
    #[test]
    fn retransmissions_are_byte_identical_across_the_wrap() {
        let mut s = sender();
        s.packetizer.set_next_seq(u16::MAX - 1);
        let mut sent: Vec<Bytes> = Vec::new();
        let mut t = SimTime::ZERO;
        while sent.len() < 40 {
            sent.extend_from_slice(s.video_tick(t));
            t += s.video_interval();
        }
        let header_len = |w: &Bytes| w.len() - parsed(w).payload.len();
        assert_eq!(header_len(&sent[0]), 36, "the key frame's first packet");
        assert_eq!(parsed(&sent[0]).sequence_number, u16::MAX - 1);
        let delta = sent
            .iter()
            .position(|w| parsed(w).sequence_number < 100 && header_len(w) == 24)
            .expect("a delta packet after the wrap");
        let before = sent
            .iter()
            .position(|w| parsed(w).sequence_number == u16::MAX)
            .expect("a packet before the wrap");
        let ask = [delta, 0, before].map(|i| parsed(&sent[i]).sequence_number);
        let retx = served(&mut s, &ask);
        assert_eq!(retx, [delta, 0, before].map(|i| sent[i].clone()));
        // Served twice, the same bytes again.
        assert_eq!(served(&mut s, &ask), retx);
    }

    /// A packet whose slot a packet `RETX_HISTORY` newer has taken is not
    /// served; the newer one is.
    #[test]
    fn an_evicted_packet_is_not_served() {
        let mut s = sender();
        let mut sent: Vec<Bytes> = Vec::new();
        let mut t = SimTime::ZERO;
        while sent.len() <= RETX_HISTORY {
            sent.extend_from_slice(s.video_tick(t));
            t += s.video_interval();
        }
        let (old, new) = (&sent[0], &sent[RETX_HISTORY]);
        let seq = |w: &Bytes| parsed(w).sequence_number;
        assert_eq!(seq(new), seq(old).wrapping_add(RETX_HISTORY as u16));
        assert!(served(&mut s, &[seq(old)]).is_empty());
        assert_eq!(served(&mut s, &[seq(new)]), std::slice::from_ref(new));
        assert_eq!(s.stats().retransmissions, 1);
    }
}
