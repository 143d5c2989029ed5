//! Receiver-side decoder state machine.
//!
//! This model reproduces the exact behaviours Scallop's sequence-rewriting
//! design depends on (§6.2):
//!
//! * **Sequence gaps** are interpreted as network loss: the missing
//!   numbers become NACK candidates, and if retransmission never fills
//!   them the enclosing frame is dropped. If a *dependency* frame is
//!   dropped, later frames cannot decode.
//! * **Duplicate sequence numbers carrying different data** break decoder
//!   state: playback freezes and can only recover through a complete key
//!   frame ("missing sequence numbers trigger packet retransmissions,
//!   while incorrect rewrites break the decoder's state, leading to a
//!   permanent freeze").
//! * **Benign duplicates** (network-duplicated identical packets) are
//!   discarded silently, as real RTP receivers do.
//! * Frame-number jumps with contiguous sequence numbers (the signature
//!   of correctly masked SVC adaptation) decode cleanly at the reduced
//!   frame rate.
//!
//! Dependencies follow the L1T3 rules of Fig. 9, evaluated over frame
//! numbers: a T0 frame references the previous T0 (≤ 8 frames back), T1
//! references the nearest T0 (≤ 4 back), T2 references the nearest T1/T0
//! (≤ 2 back).

use scallop_netsim::time::{SimDuration, SimTime};
use scallop_proto::av1::{DependencyDescriptor, DD_EXTENSION_ID};
use scallop_proto::rtp::RtpPacket;
use std::collections::{BTreeMap, VecDeque};

/// Extends wrapping `u16` counters (RTP seq, DD frame number) to `u64`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unwrapper {
    last: Option<u64>,
}

impl Unwrapper {
    /// Map the next observed 16-bit value onto the unwrapped line,
    /// assuming it is within ±2^15 of the previous observation.
    pub fn unwrap(&mut self, v: u16) -> u64 {
        let ext = match self.last {
            None => v as u64,
            Some(last) => {
                let low = (last & 0xFFFF) as u16;
                let fwd = v.wrapping_sub(low) as u64;
                if fwd < 0x8000 {
                    last + fwd
                } else {
                    let back = low.wrapping_sub(v) as u64;
                    last.saturating_sub(back)
                }
            }
        };
        // Only move the reference forward so reordered old packets do not
        // drag the window back.
        if self.last.is_none_or(|l| ext > l) {
            self.last = Some(ext);
        }
        ext
    }
}

/// Decoder configuration.
#[derive(Debug, Clone, Copy)]
pub struct DecoderConfig {
    /// Wait this long after noticing a gap before NACKing (reordering
    /// grace period).
    pub nack_delay: SimDuration,
    /// Declare a missing packet lost (stop waiting) after this long.
    pub loss_timeout: SimDuration,
    /// Maximum NACK attempts per missing packet.
    pub max_nacks: u32,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        DecoderConfig {
            nack_delay: SimDuration::from_millis(20),
            loss_timeout: SimDuration::from_millis(400),
            max_nacks: 3,
        }
    }
}

/// Events surfaced to the owning endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecoderEvent {
    /// A frame was decoded and (conceptually) rendered.
    FrameDecoded {
        /// Extended frame number.
        frame: u64,
        /// Temporal layer id.
        temporal_id: u8,
        /// Whether it was a key frame.
        is_key: bool,
        /// Decode time.
        at: SimTime,
    },
    /// A frame was abandoned (lost packets or stale).
    FrameDropped {
        /// Extended frame number.
        frame: u64,
    },
    /// Decoder state broke; playback is frozen until a key frame.
    Froze {
        /// When the freeze began.
        at: SimTime,
        /// What broke the decoder.
        reason: FreezeReason,
    },
    /// A key frame restored playback.
    Recovered {
        /// When playback resumed.
        at: SimTime,
    },
}

/// Why the decoder froze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreezeReason {
    /// Two different packets carried the same sequence number (the §6.2
    /// catastrophic rewrite error).
    SequenceCollision,
    /// A frame's reference was never decoded (lost dependency).
    MissingReference,
}

/// Aggregate decoder statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecoderStats {
    /// Frames decoded.
    pub frames_decoded: u64,
    /// Key frames decoded.
    pub key_frames_decoded: u64,
    /// Frames dropped without decoding.
    pub frames_dropped: u64,
    /// Freezes entered.
    pub freezes: u64,
    /// Identical duplicates discarded.
    pub benign_duplicates: u64,
    /// Conflicting duplicates (decoder breaks).
    pub sequence_collisions: u64,
    /// Packets declared lost after timeout.
    pub packets_lost: u64,
    /// NACK entries emitted.
    pub nacks_sent: u64,
}

#[derive(Debug)]
struct FrameAssembly {
    temporal_id: u8,
    is_key: bool,
    first_seq: Option<u64>,
    end_seq: Option<u64>,
    /// Distinct sequence numbers received for this frame. A count is
    /// enough: a repeated number never gets this far (see
    /// [`SeqIdentities`]).
    received: u64,
    first_arrival: SimTime,
}

impl FrameAssembly {
    /// Whether every packet of `first..=end` has arrived. An end packet
    /// numbered *below* its start (loss plus a wrong rewrite can deliver
    /// that) spans nothing, so such a frame is never complete.
    fn holds_span(&self, first: u64, end: u64) -> bool {
        end.checked_sub(first)
            .is_some_and(|d| self.received == d + 1)
    }
}

/// How many sequence numbers back a repeat is still recognised. The map
/// this ring replaced was swept down to this many whenever it reached
/// twice as many, so this is what it could be relied on to remember.
const SEQ_IDENTITY_WINDOW: usize = 2048;

/// What each recently received sequence number carried — `(frame number,
/// payload length)` — so that a repeat can be told apart: the same
/// packet again (benign) or different data under a used number (the §6.2
/// rewrite error). A ring indexed by `seq % SEQ_IDENTITY_WINDOW`: one
/// 8-byte slot per packet, no hashing, nothing to sweep.
#[derive(Debug)]
struct SeqIdentities {
    slots: Box<[SeqSlot]>,
}

/// One ring slot. `lap` is `seq / SEQ_IDENTITY_WINDOW + 1`, which with the
/// slot's index is exactly `seq`, and 0 while the slot is vacant, so the
/// ring starts zeroed. The frame number is the descriptor's own 16 bits,
/// and the length fits 16 bits because the decoder takes no payload over
/// 65 535 B (see [`Decoder::on_video_packet`]): comparing slots compares
/// identities exactly.
#[derive(Debug, Clone, Copy, Default)]
struct SeqSlot {
    lap: u32,
    frame: u16,
    len: u16,
}

impl SeqIdentities {
    fn new() -> Self {
        SeqIdentities {
            slots: vec![SeqSlot::default(); SEQ_IDENTITY_WINDOW].into_boxed_slice(),
        }
    }

    /// The first sequence number whose lap does not fit a slot's 32
    /// bits: centuries of packets, or 2^28 that each jump ahead as far as
    /// the unwrapper allows.
    const END: u64 = (u32::MAX as u64) * SEQ_IDENTITY_WINDOW as u64;

    /// `seq`'s slot and lap; `seq` is below [`Self::END`].
    fn locate(seq: u64) -> (usize, u32) {
        let window = SEQ_IDENTITY_WINDOW as u64;
        ((seq % window) as usize, (seq / window + 1) as u32)
    }

    /// What `seq` carried, if it is remembered.
    fn get(&self, seq: u64) -> Option<(u16, u16)> {
        let (i, lap) = Self::locate(seq);
        let slot = self.slots[i];
        (slot.lap == lap).then_some((slot.frame, slot.len))
    }

    /// Remember `seq`. A straggler a whole window behind the slot's
    /// occupant does not displace it: the newer number is the one a
    /// repeat can still arrive for.
    fn insert(&mut self, seq: u64, (frame, len): (u16, u16)) {
        let (i, lap) = Self::locate(seq);
        let slot = &mut self.slots[i];
        if slot.lap < lap {
            *slot = SeqSlot { lap, frame, len };
        }
    }
}

/// How many decode instants are kept for [`Decoder::fps_over`]: 17 s at
/// 30 fps.
const RECENT_DECODES: usize = 512;

#[derive(Debug, Clone, Copy)]
struct MissingEntry {
    noticed_at: SimTime,
    nacks: u32,
    last_nack_at: Option<SimTime>,
}

/// The decoder.
#[derive(Debug)]
pub struct Decoder {
    cfg: DecoderConfig,
    seq_unwrap: Unwrapper,
    frame_unwrap: Unwrapper,
    /// Frames being assembled, by extended frame number.
    frames: BTreeMap<u64, FrameAssembly>,
    /// Unaccounted sequence numbers awaiting retransmission.
    missing: BTreeMap<u64, MissingEntry>,
    /// Identity of recently received seqs.
    seq_identity: SeqIdentities,
    /// Highest extended seq received.
    highest_seq: Option<u64>,
    /// Everything below this seq is accounted (received or given up on).
    /// Frames ending below the current floor can decode.
    decoded_floor: u64,
    /// Last decoded frame number per temporal layer.
    last_decoded: [Option<u64>; 3],
    /// Decoder broken (frozen) until a key frame.
    broken: bool,
    /// Time of last decoded frame (freeze accounting).
    last_decode_at: Option<SimTime>,
    /// Recent decode instants for fps measurement.
    recent_decodes: VecDeque<SimTime>,
    /// Statistics.
    pub stats: DecoderStats,
}

impl Decoder {
    /// Create a decoder.
    pub fn new(cfg: DecoderConfig) -> Self {
        Decoder {
            cfg,
            seq_unwrap: Unwrapper::default(),
            frame_unwrap: Unwrapper::default(),
            frames: BTreeMap::new(),
            missing: BTreeMap::new(),
            seq_identity: SeqIdentities::new(),
            highest_seq: None,
            decoded_floor: 0,
            last_decoded: [None; 3],
            broken: false,
            last_decode_at: None,
            recent_decodes: VecDeque::new(),
            stats: DecoderStats::default(),
        }
    }

    /// Whether the decoder is frozen awaiting a key frame (drives PLI).
    pub fn needs_keyframe(&self) -> bool {
        self.broken
    }

    /// Feed one RTP packet; returns the events it produced.
    pub fn on_packet(&mut self, now: SimTime, pkt: &RtpPacket) -> Vec<DecoderEvent> {
        let mut events = Vec::new();
        // Without a descriptor it is not a labeled video packet; ignore.
        if let Some(dd) = pkt.extension(DD_EXTENSION_ID) {
            self.on_video_packet(now, pkt.sequence_number, pkt.payload.len(), dd, &mut events);
        }
        events
    }

    /// Feed one video packet by the fields the decoder reads — wire
    /// sequence number, payload length and the dependency-descriptor
    /// element `dd` — appending the events it produced to `events`. This
    /// is what a receiver calls straight off the datagram; nothing is
    /// copied and nothing is allocated unless the packet opens a gap.
    ///
    /// A payload over 65 535 B cannot have come in a UDP datagram (whose
    /// length field is 16 bits): such a packet is ignored, like one whose
    /// descriptor does not parse. So is every packet of a stream past its
    /// 2^43rd sequence number, which the identity ring cannot tell apart.
    pub fn on_video_packet(
        &mut self,
        now: SimTime,
        sequence_number: u16,
        payload_len: usize,
        dd: &[u8],
        events: &mut Vec<DecoderEvent>,
    ) {
        // Only a key frame's first packet carries more than the three
        // mandatory bytes; that one is parsed in full, so what is
        // accepted and what is ignored does not depend on the path.
        let is_key = dd.len() > 3
            && match DependencyDescriptor::parse(dd) {
                Ok(full) => full.structure.is_some(),
                Err(_) => return,
            };
        let Ok((start_of_frame, end_of_frame, template_id, frame_number, _)) =
            DependencyDescriptor::parse_mandatory(dd)
        else {
            return;
        };
        let Ok(payload_len) = u16::try_from(payload_len) else {
            return;
        };

        let seq = self.seq_unwrap.unwrap(sequence_number);
        if seq >= SeqIdentities::END {
            return;
        }
        let identity = (frame_number, payload_len);

        // Duplicate / collision detection.
        if let Some(prev) = self.seq_identity.get(seq) {
            if prev == identity {
                self.stats.benign_duplicates += 1;
            } else {
                self.stats.sequence_collisions += 1;
                self.enter_freeze(now, FreezeReason::SequenceCollision, events);
            }
            return;
        }
        self.seq_identity.insert(seq, identity);

        // Gap bookkeeping.
        match self.highest_seq {
            None => {
                self.highest_seq = Some(seq);
                self.decoded_floor = seq;
            }
            Some(h) if seq > h => {
                for s in (h + 1)..seq {
                    self.missing.insert(
                        s,
                        MissingEntry {
                            noticed_at: now,
                            nacks: 0,
                            last_nack_at: None,
                        },
                    );
                }
                self.highest_seq = Some(seq);
            }
            Some(_) => {
                // Late packet filling (or not) a gap.
                self.missing.remove(&seq);
            }
        }

        // Frame assembly.
        let frame = self.frame_unwrap.unwrap(frame_number);
        let entry = self.frames.entry(frame).or_insert_with(|| FrameAssembly {
            temporal_id: 0,
            is_key: false,
            first_seq: None,
            end_seq: None,
            received: 0,
            first_arrival: now,
        });
        entry.received += 1;
        entry.is_key |= is_key;
        if start_of_frame {
            entry.first_seq = Some(seq);
            // Temporal layer from the L1T3 template mapping.
            entry.temporal_id = scallop_proto::av1::l1t3::temporal_of(template_id);
        }
        if end_of_frame {
            entry.end_seq = Some(seq);
        }

        self.advance(now, events);
    }

    /// Time-driven progress: expire missing packets, drop stale frames,
    /// attempt decodes, appending the events to `events`. Call
    /// periodically (e.g. every few ms).
    pub fn poll_into(&mut self, now: SimTime, events: &mut Vec<DecoderEvent>) {
        let (timeout, lost) = (self.cfg.loss_timeout, &mut self.stats.packets_lost);
        self.missing.retain(|_, m| {
            let expired = now.saturating_since(m.noticed_at) >= timeout;
            *lost += u64::from(expired);
            !expired
        });
        self.advance(now, events);
    }

    /// Append to `out` the missing sequence numbers ready to be NACKed
    /// (respecting the reordering grace period, retry limit, and retry
    /// spacing), and mark them as NACKed. A receiver that keeps one
    /// vector for it allocates nothing per poll.
    pub fn take_nack_requests(&mut self, now: SimTime, out: &mut Vec<u16>) {
        let before = out.len();
        for (&seq, m) in self.missing.iter_mut() {
            let age = now.saturating_since(m.noticed_at);
            if age < self.cfg.nack_delay || m.nacks >= self.cfg.max_nacks {
                continue;
            }
            if let Some(last) = m.last_nack_at {
                if now.saturating_since(last) < self.cfg.nack_delay * 2 {
                    continue;
                }
            }
            m.nacks += 1;
            m.last_nack_at = Some(now);
            out.push((seq & 0xFFFF) as u16);
        }
        self.stats.nacks_sent += (out.len() - before) as u64;
    }

    /// Decoded frame rate over the trailing `window` ending at `now`.
    pub fn fps_over(&mut self, window: SimDuration, now: SimTime) -> f64 {
        let cutoff = now - window;
        while let Some(&front) = self.recent_decodes.front() {
            if front < cutoff {
                self.recent_decodes.pop_front();
            } else {
                break;
            }
        }
        self.recent_decodes.len() as f64 / window.as_secs_f64()
    }

    fn enter_freeze(&mut self, now: SimTime, reason: FreezeReason, events: &mut Vec<DecoderEvent>) {
        if !self.broken {
            self.broken = true;
            self.stats.freezes += 1;
            events.push(DecoderEvent::Froze { at: now, reason });
        }
    }

    /// The smallest unaccounted sequence number: frames ending below this
    /// are fully received and ordered.
    fn floor(&self) -> u64 {
        match (self.missing.keys().next(), self.highest_seq) {
            (Some(&m), _) => m,
            (None, Some(h)) => h + 1,
            (None, None) => 0,
        }
    }

    /// Try to decode everything decodable; drop what is undecodable.
    fn advance(&mut self, now: SimTime, events: &mut Vec<DecoderEvent>) {
        let floor = self.floor();
        while let Some((&frame_no, asm)) = self.frames.iter().next() {
            // Complete = start and end known, all seqs in range received,
            // and nothing before its end is still awaited.
            let complete = match (asm.first_seq, asm.end_seq) {
                (Some(f), Some(e)) => asm.holds_span(f, e) && e < floor,
                _ => false,
            };
            if complete {
                let asm = self.frames.remove(&frame_no).expect("present");
                self.decode_frame(now, frame_no, &asm, events);
                continue;
            }
            // Incomplete head-of-line frame: if any of its packets (or its
            // boundaries) can no longer arrive — i.e. packets inside it
            // were declared lost — drop it. A frame is hopeless when its
            // span is below the floor but it is not complete, or when it
            // is older than the loss timeout with unmet pieces.
            let hopeless_by_floor = match (asm.first_seq, asm.end_seq) {
                (Some(f), Some(e)) => e < floor && !asm.holds_span(f, e),
                (Some(f), None) => {
                    // End never seen; if newer frames are already complete
                    // beyond it and floor passed the span start, give up
                    // once stale.
                    f < floor && now.saturating_since(asm.first_arrival) >= self.cfg.loss_timeout
                }
                _ => now.saturating_since(asm.first_arrival) >= self.cfg.loss_timeout * 2,
            };
            let stale = now.saturating_since(asm.first_arrival)
                >= self.cfg.loss_timeout + self.cfg.nack_delay * 4;
            if hopeless_by_floor || stale {
                self.frames.remove(&frame_no);
                self.stats.frames_dropped += 1;
                events.push(DecoderEvent::FrameDropped { frame: frame_no });
                continue;
            }
            // Head of line is still viable but waiting: look deeper only
            // if later frames are complete *and* the head frame's packets
            // are all still pending retransmission — real decoders wait;
            // we wait too.
            break;
        }
    }

    fn decode_frame(
        &mut self,
        now: SimTime,
        frame_no: u64,
        asm: &FrameAssembly,
        events: &mut Vec<DecoderEvent>,
    ) {
        if self.broken && !asm.is_key {
            // Frozen: only a key frame helps.
            self.stats.frames_dropped += 1;
            events.push(DecoderEvent::FrameDropped { frame: frame_no });
            return;
        }
        let deps_ok = if asm.is_key {
            true
        } else {
            let within = |layer: usize, dist: u64| {
                self.last_decoded[layer]
                    .map(|l| frame_no > l && frame_no - l <= dist)
                    .unwrap_or(false)
            };
            match asm.temporal_id {
                0 => within(0, 8),
                1 => within(0, 4),
                _ => within(1, 2) || within(0, 2),
            }
        };
        if !deps_ok {
            self.stats.frames_dropped += 1;
            events.push(DecoderEvent::FrameDropped { frame: frame_no });
            self.enter_freeze(now, FreezeReason::MissingReference, events);
            return;
        }
        if asm.is_key {
            self.last_decoded = [None; 3];
            if self.broken {
                self.broken = false;
                events.push(DecoderEvent::Recovered { at: now });
            }
            self.stats.key_frames_decoded += 1;
        }
        self.last_decoded[asm.temporal_id.min(2) as usize] = Some(frame_no);
        self.stats.frames_decoded += 1;
        self.last_decode_at = Some(now);
        // Room is made before the push, so the deque never outgrows the
        // 512 instants it keeps.
        if self.recent_decodes.len() == RECENT_DECODES {
            self.recent_decodes.pop_front();
        }
        self.recent_decodes.push_back(now);
        events.push(DecoderEvent::FrameDecoded {
            frame: frame_no,
            temporal_id: asm.temporal_id,
            is_key: asm.is_key,
            at: now,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{EncodedFrame, FrameLabelCompact};
    use crate::packetizer::Packetizer;
    use crate::svc::L1T3Schedule;

    fn mk_frame(number: u16, schedule: &mut L1T3Schedule, size: usize) -> EncodedFrame {
        let label = schedule.next_label();
        EncodedFrame {
            frame_number: number,
            label: FrameLabelCompact::from(label),
            size_bytes: size,
            captured_at: SimTime::ZERO,
            rtp_timestamp: number as u32 * 3000,
        }
    }

    /// Generate `n` frames' worth of packets on the L1T3 cadence.
    fn stream(n: u16, size: usize) -> Vec<RtpPacket> {
        let mut sched = L1T3Schedule::new();
        let mut pz = Packetizer::new(1, 96, 1200);
        let mut out = Vec::new();
        for i in 0..n {
            let f = mk_frame(i, &mut sched, size);
            out.extend(pz.packetize(&f));
        }
        out
    }

    fn feed_all(dec: &mut Decoder, pkts: &[RtpPacket]) -> Vec<DecoderEvent> {
        let mut evs = Vec::new();
        for (i, p) in pkts.iter().enumerate() {
            let t = SimTime::from_millis(33 * (i as u64 / 2 + 1));
            evs.extend(dec.on_packet(t, p));
        }
        evs
    }

    #[test]
    fn clean_stream_decodes_every_frame() {
        let pkts = stream(20, 2500);
        let mut dec = Decoder::new(DecoderConfig::default());
        let evs = feed_all(&mut dec, &pkts);
        let decoded = evs
            .iter()
            .filter(|e| matches!(e, DecoderEvent::FrameDecoded { .. }))
            .count();
        assert_eq!(decoded, 20);
        assert_eq!(dec.stats.frames_decoded, 20);
        assert_eq!(dec.stats.freezes, 0);
        assert!(!dec.needs_keyframe());
    }

    #[test]
    fn unwrapper_handles_wraparound_and_reordering() {
        let mut u = Unwrapper::default();
        assert_eq!(u.unwrap(65534), 65534);
        assert_eq!(u.unwrap(65535), 65535);
        assert_eq!(u.unwrap(0), 65536);
        assert_eq!(u.unwrap(1), 65537);
        // Old packet (reordered) maps back, window does not regress.
        assert_eq!(u.unwrap(65535), 65535);
        assert_eq!(u.unwrap(2), 65538);
    }

    #[test]
    fn masked_adaptation_decodes_at_reduced_rate() {
        // Simulate the SFU dropping T2 (templates 3,4) with *perfect* seq
        // rewriting: packets renumbered contiguously.
        let mut sched = L1T3Schedule::new();
        let mut pz = Packetizer::new(1, 96, 1200);
        let mut pkts = Vec::new();
        for i in 0..24u16 {
            let f = mk_frame(i, &mut sched, 2000);
            let frame_pkts = pz.packetize(&f);
            if f.label.temporal_id <= 1 {
                pkts.extend(frame_pkts);
            } else {
                // Dropped by the SFU: rewind the packetizer's seq counter
                // to mimic rewriting (no gap left behind).
                pz.set_next_seq(frame_pkts[0].sequence_number);
            }
        }
        let mut dec = Decoder::new(DecoderConfig::default());
        let evs = feed_all(&mut dec, &pkts);
        let decoded: Vec<u8> = evs
            .iter()
            .filter_map(|e| match e {
                DecoderEvent::FrameDecoded { temporal_id, .. } => Some(*temporal_id),
                _ => None,
            })
            .collect();
        // Half the frames (T0+T1) decode; no freezes; no NACKs.
        assert_eq!(decoded.len(), 12);
        assert!(decoded.iter().all(|&t| t <= 1));
        assert_eq!(dec.stats.freezes, 0);
        let mut nacks = Vec::new();
        dec.take_nack_requests(SimTime::from_secs(10), &mut nacks);
        assert!(nacks.is_empty());
    }

    #[test]
    fn seq_gap_triggers_nack() {
        let pkts = stream(10, 2500);
        let mut dec = Decoder::new(DecoderConfig::default());
        let mut t = SimTime::ZERO;
        for (i, p) in pkts.iter().enumerate() {
            if i == 5 {
                continue; // lose one packet
            }
            t = SimTime::from_millis(10 * i as u64);
            dec.on_packet(t, p);
        }
        let mut nacks = Vec::new();
        dec.take_nack_requests(t + SimDuration::from_millis(50), &mut nacks);
        assert_eq!(nacks, vec![pkts[5].sequence_number]);
        // Retransmission fills the gap; decoding completes.
        dec.on_packet(t + SimDuration::from_millis(60), &pkts[5]);
        dec.poll_into(t + SimDuration::from_millis(61), &mut Vec::new());
        assert_eq!(dec.stats.frames_decoded, 10);
        assert_eq!(dec.stats.freezes, 0);
    }

    #[test]
    fn nack_respects_retry_limit() {
        let pkts = stream(4, 2500);
        let mut dec = Decoder::new(DecoderConfig {
            loss_timeout: SimDuration::from_secs(100), // never expire
            ..DecoderConfig::default()
        });
        for (i, p) in pkts.iter().enumerate() {
            if i == 2 {
                continue;
            }
            dec.on_packet(SimTime::from_millis(5 * i as u64), p);
        }
        let mut nacks = Vec::new();
        for k in 1..20u64 {
            dec.take_nack_requests(SimTime::from_millis(100 * k), &mut nacks);
        }
        assert_eq!(nacks.len(), 3, "max_nacks must cap retries");
        assert_eq!(dec.stats.nacks_sent, 3);
    }

    #[test]
    fn benign_duplicate_ignored() {
        let pkts = stream(6, 2500);
        let mut dec = Decoder::new(DecoderConfig::default());
        for p in &pkts {
            dec.on_packet(SimTime::from_millis(1), p);
            dec.on_packet(SimTime::from_millis(2), p); // exact duplicate
        }
        assert_eq!(dec.stats.benign_duplicates, pkts.len() as u64);
        assert_eq!(dec.stats.freezes, 0);
        assert_eq!(dec.stats.frames_decoded, 6);
    }

    #[test]
    fn sequence_collision_freezes_until_keyframe() {
        let pkts = stream(8, 2500);
        let mut dec = Decoder::new(DecoderConfig::default());
        let mut t = SimTime::ZERO;
        for (i, p) in pkts.iter().enumerate() {
            t = SimTime::from_millis(10 * i as u64);
            if i == 6 {
                // A *different* packet reusing an already-seen sequence
                // number — the catastrophic rewrite mistake of §6.2.
                let mut evil = pkts[2].clone();
                evil.payload = bytes::Bytes::from(vec![9u8; 17]);
                let evs = dec.on_packet(t, &evil);
                assert!(evs.iter().any(|e| matches!(
                    e,
                    DecoderEvent::Froze {
                        reason: FreezeReason::SequenceCollision,
                        ..
                    }
                )));
            }
            dec.on_packet(t, p);
        }
        assert!(dec.needs_keyframe());
        assert_eq!(dec.stats.sequence_collisions, 1);

        // Subsequent delta frames are discarded while frozen...
        let before = dec.stats.frames_decoded;
        let mut sched = L1T3Schedule::new();
        sched.next_label(); // consume key position
        let mut pz = Packetizer::new(1, 96, 1200);
        pz.set_next_seq(pkts.last().unwrap().sequence_number.wrapping_add(1));
        let delta = mk_frame(8, &mut sched, 2000);
        for p in pz.packetize(&delta) {
            dec.on_packet(t + SimDuration::from_millis(33), &p);
        }
        assert_eq!(dec.stats.frames_decoded, before);

        // ...until a key frame recovers playback.
        let mut key_sched = L1T3Schedule::new();
        let key = mk_frame(9, &mut key_sched, 2000);
        assert!(key.label.is_key);
        let mut evs = Vec::new();
        for p in pz.packetize(&key) {
            evs.extend(dec.on_packet(t + SimDuration::from_millis(66), &p));
        }
        assert!(evs
            .iter()
            .any(|e| matches!(e, DecoderEvent::Recovered { .. })));
        assert!(!dec.needs_keyframe());
    }

    #[test]
    fn lost_dependency_freezes_lost_discardable_does_not() {
        // Drop an entire T0 frame (no seq rewrite -> gap), let NACKs
        // expire: later frames reference a missing T0 -> freeze.
        let mut sched = L1T3Schedule::new();
        let mut pz = Packetizer::new(1, 96, 1200);
        let mut dec = Decoder::new(DecoderConfig {
            nack_delay: SimDuration::from_millis(5),
            loss_timeout: SimDuration::from_millis(50),
            max_nacks: 1,
        });
        let mut t = SimTime::ZERO;
        for i in 0..12u16 {
            let f = mk_frame(i, &mut sched, 2000);
            let drop_frame = i == 4; // cadence position 4 = T0 (non-key)
            let is_t0 = f.label.temporal_id == 0 && !f.label.is_key;
            if drop_frame {
                assert!(is_t0, "cadence check: frame 4 must be T0");
            }
            for p in pz.packetize(&f) {
                t += SimDuration::from_millis(16);
                if !drop_frame {
                    dec.on_packet(t, &p);
                }
            }
        }
        // Let the loss expire and the decoder react.
        for k in 1..30u64 {
            dec.poll_into(t + SimDuration::from_millis(10 * k), &mut Vec::new());
        }
        assert!(dec.stats.freezes >= 1, "missing T0 must freeze");
        assert!(dec.needs_keyframe());
    }

    /// Loss plus a wrong rewrite can deliver a frame whose end packet is
    /// numbered below its start. That frame is incomplete and is dropped;
    /// `end - start + 1` on it used to underflow, which panics wherever
    /// overflow checks are on (as they are under tier-1 `cargo test`).
    #[test]
    fn end_packet_numbered_below_its_start_drops_the_frame() {
        let mut pkts = stream(1, 3000);
        assert!(pkts.len() >= 3, "a multi-packet frame");
        let last = pkts.len() - 1;
        pkts[0].sequence_number = 100;
        pkts[last].sequence_number = 98;
        let mut dec = Decoder::new(DecoderConfig::default());
        let mut evs = dec.on_packet(SimTime::ZERO, &pkts[0]);
        evs.extend(dec.on_packet(SimTime::from_millis(1), &pkts[last]));
        assert_eq!(evs, vec![DecoderEvent::FrameDropped { frame: 0 }]);
        assert_eq!(dec.stats.frames_decoded, 0);
    }

    /// A slot is 8 bytes and remembers exactly one sequence number: the
    /// number a whole window before or after it is not taken for it, and
    /// a straggler does not displace the newer occupant.
    #[test]
    fn identity_slots_remember_exactly_one_sequence_number() {
        assert_eq!(std::mem::size_of::<SeqSlot>(), 8);
        let w = SEQ_IDENTITY_WINDOW as u64;
        let mut ids = SeqIdentities::new();
        assert_eq!((ids.get(0), ids.get(5)), (None, None), "vacant");
        ids.insert(5 + w, (7, 1200));
        assert_eq!(ids.get(5 + w), Some((7, 1200)));
        assert_eq!((ids.get(5), ids.get(5 + 2 * w)), (None, None));
        ids.insert(5, (9, 100));
        assert_eq!(ids.get(5 + w), Some((7, 1200)), "the straggler is not kept");
        ids.insert(5 + 2 * w, (1, 1));
        assert_eq!((ids.get(5 + w), ids.get(5 + 2 * w)), (None, Some((1, 1))));
    }

    /// A payload too long for a datagram is ignored. Cut to 16 bits, this
    /// one's length would equal the first packet's, and its repeat of that
    /// packet's number would pass for a benign duplicate.
    #[test]
    fn a_payload_too_long_for_a_datagram_is_ignored() {
        let pkts = stream(1, 1000);
        let mut dec = Decoder::new(DecoderConfig::default());
        dec.on_packet(SimTime::ZERO, &pkts[0]);
        let before = format!("{dec:?}");
        let mut big = pkts[0].clone();
        big.payload = bytes::Bytes::from(vec![0u8; 65_536 + 1000]);
        assert!(dec.on_packet(SimTime::from_millis(1), &big).is_empty());
        assert_eq!(
            dec.stats.benign_duplicates + dec.stats.sequence_collisions,
            0
        );
        assert_eq!(format!("{dec:?}"), before);
    }

    #[test]
    fn fps_measurement_window() {
        let pkts = stream(30, 1000); // 1 packet per frame
        let mut dec = Decoder::new(DecoderConfig::default());
        for (i, p) in pkts.iter().enumerate() {
            dec.on_packet(SimTime::from_millis(33 * (i as u64 + 1)), p);
        }
        let fps = dec.fps_over(SimDuration::from_secs(1), SimTime::from_millis(1023));
        assert!(fps > 25.0 && fps < 35.0, "fps {fps}");
    }

    #[test]
    fn reordered_packets_within_grace_decode_without_nack() {
        let pkts = stream(6, 2500);
        let mut dec = Decoder::new(DecoderConfig::default());
        let mut order: Vec<usize> = (0..pkts.len()).collect();
        order.swap(3, 4); // adjacent swap
        for (k, &i) in order.iter().enumerate() {
            dec.on_packet(SimTime::from_millis(5 * k as u64), &pkts[i]);
        }
        assert_eq!(dec.stats.frames_decoded, 6);
        // The gap was filled before the NACK delay elapsed.
        let mut nacks = Vec::new();
        dec.take_nack_requests(SimTime::from_millis(500), &mut nacks);
        assert!(nacks.is_empty());
        assert_eq!(dec.stats.freezes, 0);
    }
}
