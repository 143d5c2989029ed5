//! Differential test of the receive path.
//!
//! The client reads a received datagram in place ([`MediaHeader::parse`]
//! over `RtpView`) and the decoder assembles frames from a per-frame
//! packet count and a ring of recent sequence identities. Before that,
//! the client built an owned `RtpPacket` per datagram and the decoder kept
//! a `BTreeMap` of sequence numbers per frame and a swept `HashMap` of
//! identities. That implementation is kept here, verbatim but for its
//! name and one loss-accounting fix (see `OldReceiver`), as the oracle:
//! both are fed the same lossy, reordered, duplicated, colliding,
//! wrapping streams and must agree on every decoder event, every NACK
//! list and every statistic.

use proptest::collection::vec;
use proptest::prelude::*;
use scallop_client::receiver::{MediaHeader, ReceiverState, StreamRxStats};
use scallop_client::GccConfig;
use scallop_media::decoder::{DecoderEvent, DecoderStats};
use scallop_media::encoder::{EncodedFrame, FrameLabelCompact};
use scallop_media::packetizer::Packetizer;
use scallop_media::svc::L1T3Schedule;
use scallop_netsim::time::{SimDuration, SimTime};
use scallop_proto::rtcp::{self, RtcpPacket};
use scallop_proto::rtp::RtpPacket;

/// The receive path as it was before it read datagrams in place.
mod oracle {
    use scallop_media::decoder::{
        DecoderConfig, DecoderEvent, DecoderStats, FreezeReason, Unwrapper,
    };
    use scallop_netsim::time::SimTime;
    use scallop_proto::av1::l1t3::TEMPLATE_TEMPORAL;
    use scallop_proto::av1::{DependencyDescriptor, DD_EXTENSION_ID};
    use scallop_proto::rtp::RtpPacket;
    use std::collections::{BTreeMap, HashMap};

    #[derive(Debug)]
    struct FrameAssembly {
        temporal_id: u8,
        is_key: bool,
        first_seq: Option<u64>,
        end_seq: Option<u64>,
        received: BTreeMap<u64, ()>,
        first_arrival: SimTime,
    }

    impl FrameAssembly {
        /// Whether every packet of `first..=end` has arrived. An end packet
        /// numbered *below* its start (loss plus a wrong rewrite can deliver
        /// that) spans nothing, so such a frame is never complete.
        fn holds_span(&self, first: u64, end: u64) -> bool {
            end.checked_sub(first)
                .is_some_and(|d| self.received.len() as u64 == d + 1)
        }
    }

    #[derive(Debug, Clone, Copy)]
    struct MissingEntry {
        noticed_at: SimTime,
        nacks: u32,
        last_nack_at: Option<SimTime>,
    }

    /// The decoder.
    #[derive(Debug)]
    pub struct OldDecoder {
        cfg: DecoderConfig,
        seq_unwrap: Unwrapper,
        frame_unwrap: Unwrapper,
        /// Frames being assembled, by extended frame number.
        frames: BTreeMap<u64, FrameAssembly>,
        /// Unaccounted sequence numbers awaiting retransmission.
        missing: BTreeMap<u64, MissingEntry>,
        /// Identity of recently received seqs: seq -> (frame number, length).
        seq_identity: HashMap<u64, (u16, usize)>,
        /// Highest extended seq received.
        highest_seq: Option<u64>,
        /// Everything below this seq is accounted (received or given up on).
        /// Frames ending below the current floor can decode.
        decoded_floor: u64,
        /// Last decoded frame number per temporal layer.
        last_decoded: [Option<u64>; 3],
        /// Decoder broken (frozen) until a key frame.
        broken: bool,
        /// Statistics.
        pub stats: DecoderStats,
    }

    impl OldDecoder {
        /// Create a decoder.
        pub fn new(cfg: DecoderConfig) -> Self {
            OldDecoder {
                cfg,
                seq_unwrap: Unwrapper::default(),
                frame_unwrap: Unwrapper::default(),
                frames: BTreeMap::new(),
                missing: BTreeMap::new(),
                seq_identity: HashMap::new(),
                highest_seq: None,
                decoded_floor: 0,
                last_decoded: [None; 3],
                broken: false,
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
            let Some(dd_bytes) = pkt.extension(DD_EXTENSION_ID) else {
                return events; // not a labeled video packet; ignore
            };
            let Ok(dd) = DependencyDescriptor::parse(dd_bytes) else {
                return events;
            };

            let seq = self.seq_unwrap.unwrap(pkt.sequence_number);
            let identity = (dd.frame_number, pkt.payload.len());

            // Duplicate / collision detection.
            if let Some(&prev) = self.seq_identity.get(&seq) {
                if prev == identity {
                    self.stats.benign_duplicates += 1;
                } else {
                    self.stats.sequence_collisions += 1;
                    self.enter_freeze(now, FreezeReason::SequenceCollision, &mut events);
                }
                return events;
            }
            self.seq_identity.insert(seq, identity);
            if self.seq_identity.len() > 4096 {
                let cutoff = seq.saturating_sub(2048);
                self.seq_identity.retain(|&s, _| s >= cutoff);
            }

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
            let frame = self.frame_unwrap.unwrap(dd.frame_number);
            let is_key = dd.structure.is_some();
            let entry = self.frames.entry(frame).or_insert_with(|| FrameAssembly {
                temporal_id: 0,
                is_key: false,
                first_seq: None,
                end_seq: None,
                received: BTreeMap::new(),
                first_arrival: now,
            });
            entry.received.insert(seq, ());
            entry.is_key |= is_key;
            if dd.start_of_frame {
                entry.first_seq = Some(seq);
                // Temporal layer from the L1T3 template mapping.
                entry.temporal_id = TEMPLATE_TEMPORAL
                    .get(dd.template_id as usize)
                    .copied()
                    .unwrap_or(2);
            }
            if dd.end_of_frame {
                entry.end_seq = Some(seq);
            }

            self.advance(now, &mut events);
            events
        }

        /// Time-driven progress: expire missing packets, drop stale frames,
        /// attempt decodes. Call periodically (e.g. every few ms).
        pub fn poll(&mut self, now: SimTime) -> Vec<DecoderEvent> {
            let mut events = Vec::new();
            // Expire missing packets.
            let expired: Vec<u64> = self
                .missing
                .iter()
                .filter(|(_, m)| now.saturating_since(m.noticed_at) >= self.cfg.loss_timeout)
                .map(|(&s, _)| s)
                .collect();
            for s in expired {
                self.missing.remove(&s);
                self.stats.packets_lost += 1;
            }
            self.advance(now, &mut events);
            events
        }

        /// Missing sequence numbers ready to be NACKed (respecting the
        /// reordering grace period, retry limit, and retry spacing). Marks
        /// them as NACKed.
        pub fn take_nack_requests(&mut self, now: SimTime) -> Vec<u16> {
            let mut out = Vec::new();
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
            self.stats.nacks_sent += out.len() as u64;
            out
        }

        fn enter_freeze(
            &mut self,
            now: SimTime,
            reason: FreezeReason,
            events: &mut Vec<DecoderEvent>,
        ) {
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
                        f < floor
                            && now.saturating_since(asm.first_arrival) >= self.cfg.loss_timeout
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
            events.push(DecoderEvent::FrameDecoded {
                frame: frame_no,
                temporal_id: asm.temporal_id,
                is_key: asm.is_key,
                at: now,
            });
        }
    }

    /// The stream accounting of `ReceiverState::on_media` over an owned
    /// packet, without the bandwidth estimator (it reads nothing the
    /// packet representation changes and is compared on its own in
    /// `client::gcc`). The one change since: the extended sequence number
    /// follows RFC 3550 A.1 (a signed 16-bit distance from the highest
    /// seen), which the receiver adopted when this differential showed
    /// the old wrap heuristic counting a late pre-wrap packet a cycle
    /// ahead.
    #[derive(Debug)]
    pub struct OldReceiver {
        pub decoder: OldDecoder,
        last_transit_ms: Option<f64>,
        jitter_ms: f64,
        expected_base: Option<u16>,
        received: u64,
        bytes: u64,
        highest_ext_seq: u32,
        frames_decoded: u64,
        freezes: u64,
    }

    impl OldReceiver {
        pub fn new() -> Self {
            OldReceiver {
                decoder: OldDecoder::new(DecoderConfig::default()),
                last_transit_ms: None,
                jitter_ms: 0.0,
                expected_base: None,
                received: 0,
                bytes: 0,
                highest_ext_seq: 0,
                frames_decoded: 0,
                freezes: 0,
            }
        }

        pub fn on_media(&mut self, now: SimTime, pkt: &RtpPacket) -> Vec<DecoderEvent> {
            self.received += 1;
            self.bytes += pkt.payload.len() as u64;
            let seq = pkt.sequence_number;
            if self.expected_base.is_none() {
                self.expected_base = Some(seq);
                self.highest_ext_seq = u32::from(seq);
            }
            let ahead = seq.wrapping_sub(self.highest_ext_seq as u16) as i16;
            if ahead > 0 {
                self.highest_ext_seq = self.highest_ext_seq.wrapping_add(ahead as u32);
            }
            let send_ms = pkt.timestamp as f64 / 90_000.0 * 1000.0;
            let transit = now.as_millis_f64() - send_ms;
            if let Some(prev) = self.last_transit_ms {
                let d = (transit - prev).abs();
                self.jitter_ms += (d - self.jitter_ms) / 16.0;
            }
            self.last_transit_ms = Some(transit);
            let evs = self.decoder.on_packet(now, pkt);
            self.digest(&evs);
            evs
        }

        pub fn poll(&mut self, now: SimTime) -> Vec<DecoderEvent> {
            let evs = self.decoder.poll(now);
            self.digest(&evs);
            evs
        }

        fn digest(&mut self, evs: &[DecoderEvent]) {
            for e in evs {
                match e {
                    DecoderEvent::FrameDecoded { .. } => self.frames_decoded += 1,
                    DecoderEvent::Froze { .. } => self.freezes += 1,
                    _ => {}
                }
            }
        }

        /// `(packets, bytes, jitter, lost, highest, decoded, freezes)`,
        /// the fields of `StreamRxStats`.
        pub fn stats(&self) -> (u64, u64, u64, u64, u32, u64, u64) {
            let expected = match self.expected_base {
                None => 0,
                Some(base) => (self.highest_ext_seq as u64)
                    .saturating_sub(base as u64)
                    .saturating_add(1),
            };
            (
                self.received,
                self.bytes,
                self.jitter_ms.to_bits(),
                expected.saturating_sub(self.received),
                self.highest_ext_seq,
                self.frames_decoded,
                self.freezes,
            )
        }
    }
}

fn stats_tuple(s: StreamRxStats) -> (u64, u64, u64, u64, u32, u64, u64) {
    (
        s.packets,
        s.bytes,
        s.jitter_ms.to_bits(),
        s.cumulative_lost,
        s.highest_seq,
        s.frames_decoded,
        s.freezes,
    )
}

/// One datagram on its way to the receiver.
#[derive(Debug, Clone)]
struct Arrival {
    /// Position in the delivery order (original position plus delay).
    slot: usize,
    wire: Vec<u8>,
}

/// Turn a clean stream into what a bad network and a wrong rewrite make
/// of it. Per packet, `(roll, k)` picks: deliver; drop; drop now and
/// retransmit `k` slots later; deliver `k` slots late (reordering);
/// deliver twice, the copy `k` slots later; or deliver followed `k` slots
/// later by *different* data under the same sequence number.
fn impair(clean: &[RtpPacket], ops: &[(u8, usize)]) -> Vec<Arrival> {
    let mut out = Vec::new();
    for (i, pkt) in clean.iter().enumerate() {
        let (roll, k) = ops[i % ops.len()];
        let wire = pkt.serialize();
        match roll {
            0..=71 => out.push(Arrival { slot: i, wire }),
            72..=75 => {}
            76..=84 => out.push(Arrival {
                slot: i + 8 + k,
                wire,
            }),
            85..=91 => out.push(Arrival { slot: i + k, wire }),
            92..=97 => {
                out.push(Arrival {
                    slot: i,
                    wire: wire.clone(),
                });
                out.push(Arrival { slot: i + k, wire });
            }
            _ => {
                let mut other = pkt.clone();
                other.payload = bytes::Bytes::from(vec![7u8; pkt.payload.len() + 1 + k]);
                out.push(Arrival { slot: i, wire });
                out.push(Arrival {
                    slot: i + k,
                    wire: other.serialize(),
                });
            }
        }
    }
    // Stable: same-slot arrivals keep their emission order.
    out.sort_by_key(|a| a.slot);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn view_path_matches_owned_parse_and_old_assembly(
        sizes in vec(1usize..6_000, 30..120),
        ops in vec((0u8..100, 1usize..40), 40..200),
        first_seq in any::<u16>(),
        near_wrap in any::<bool>(),
    ) {
        // Half the runs start just below the 16-bit wrap.
        let first_seq = if near_wrap { u16::MAX - first_seq % 200 } else { first_seq };
        let mut sched = L1T3Schedule::new();
        let mut pz = Packetizer::new(0x77, 96, 1200);
        pz.set_next_seq(first_seq);
        let mut clean = Vec::new();
        for (n, &size) in sizes.iter().enumerate() {
            // A key frame every 24 frames, so that a freeze can end.
            if n % 24 == 0 {
                sched = L1T3Schedule::new();
            }
            clean.extend(pz.packetize(&EncodedFrame {
                // Frame numbers wrap as well.
                frame_number: (n as u16).wrapping_add(u16::MAX - 20),
                label: FrameLabelCompact::from(sched.next_label()),
                size_bytes: size,
                captured_at: SimTime::ZERO,
                rtp_timestamp: n as u32 * 3_000,
            }));
        }

        let mut new = ReceiverState::new(0x77, 1, true, GccConfig::default());
        let mut old = oracle::OldReceiver::new();
        let mut next_poll = SimTime::ZERO;
        let mut now = SimTime::ZERO;
        let mut last_slot = 0;
        for a in impair(&clean, &ops) {
            // 4 ms per slot; the 15 ms poll runs between arrivals as the
            // client's timer does, and past the end until all is settled.
            now += SimDuration::from_millis(4 * (a.slot - last_slot) as u64);
            last_slot = a.slot;
            while next_poll <= now {
                poll_both(&mut new, &mut old, next_poll);
                next_poll += SimDuration::from_millis(15);
            }
            let owned = RtpPacket::parse(&a.wire).expect("well-formed");
            let header = MediaHeader::parse(&a.wire).expect("well-formed");
            let want = old.on_media(now, &owned);
            let got = new.on_media(now, header, a.wire.len() + 42);
            prop_assert_eq!(got, &want[..], "events at slot {}", a.slot);
        }
        for _ in 0..80 {
            poll_both(&mut new, &mut old, next_poll);
            next_poll += SimDuration::from_millis(15);
        }
        prop_assert_eq!(stats_tuple(new.stats()), old.stats());
        let dec: DecoderStats = new.decoder_stats().expect("video stream");
        prop_assert_eq!(dec, old.decoder.stats);
    }
}

/// One tick of the client's poll timer on both receivers: decoder
/// progress, then the NACK scan.
fn poll_both(new: &mut ReceiverState, old: &mut oracle::OldReceiver, at: SimTime) {
    let want: Vec<DecoderEvent> = old.poll(at);
    assert_eq!(new.poll(at), &want[..], "poll events at {at}");
    let want = old.decoder.take_nack_requests(at);
    let got = if new.due_nacks(at) {
        let mut wire = Vec::new();
        new.write_nack(&mut wire);
        match rtcp::parse_compound(&wire).as_deref() {
            Ok([RtcpPacket::Nack(n)]) => n.lost_sequences(),
            other => panic!("one NACK expected, got {other:?}"),
        }
    } else {
        Vec::new()
    };
    assert_eq!(got, want, "NACK list at {at}");
    assert_eq!(new.needs_keyframe(), old.decoder.needs_keyframe());
}
