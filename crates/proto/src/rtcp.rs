//! RTCP (RFC 3550) compound packets and the feedback messages Scallop uses.
//!
//! The switch agent's entire rate-adaptation loop is driven by RTCP:
//! receiver reports and REMB messages flow to the agent (§5.2–5.3), NACK
//! and PLI are forwarded through the data plane to the media sender
//! (§5.5), and sender reports time-synchronize streams. This module
//! implements parse/serialize for exactly that message set:
//!
//! * SR (PT 200), RR (PT 201) with report blocks,
//! * SDES (PT 202, CNAME item), BYE (PT 203),
//! * Generic NACK (PT 205 / FMT 1, RFC 4585),
//! * PLI (PT 206 / FMT 1, RFC 4585),
//! * REMB (PT 206 / FMT 15, draft-alvestrand-rmcat-remb).
//!
//! There is one encoder and one decoder, each usable without building
//! owned packets:
//!
//! * **Writers** — [`write_sr`], [`write_rr`], [`write_sdes`],
//!   [`write_nack`], [`write_pli`], [`write_remb`] — append one packet to
//!   a buffer. [`serialize`], [`serialize_into`] and
//!   [`serialize_compound`] encode an owned [`RtcpPacket`] by calling
//!   them; the endpoints call them straight into pooled buffers.
//! * **The walk** — [`packets`] — reads a compound datagram in place and
//!   yields each packet as an [`RtcpRef`] borrowed from the wire (the
//!   `proto::rtp` extension-element walk plays the same part for RTP).
//!   [`parse_compound`] converts what it yields into owned packets,
//!   and [`read_compound`] gives the hot callers — clients,
//!   the switch agent, the data plane's NACK rewrite — a compound that
//!   parsed whole, the same all-or-nothing rule, without copying it.

use crate::error::{need, ProtoError};
use std::marker::PhantomData;

/// RTCP packet type: sender report.
pub const PT_SR: u8 = 200;
/// RTCP packet type: receiver report.
pub const PT_RR: u8 = 201;
/// RTCP packet type: source description.
pub const PT_SDES: u8 = 202;
/// RTCP packet type: goodbye.
pub const PT_BYE: u8 = 203;
/// RTCP packet type: transport-layer feedback (NACK lives here).
pub const PT_RTPFB: u8 = 205;
/// RTCP packet type: payload-specific feedback (PLI, REMB).
pub const PT_PSFB: u8 = 206;

/// A reception report block (RFC 3550 §6.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportBlock {
    /// SSRC of the reported-on source.
    pub ssrc: u32,
    /// Fraction of packets lost since the last report (fixed point /256).
    pub fraction_lost: u8,
    /// Cumulative packets lost (24-bit signed, clamped here to u32).
    pub cumulative_lost: u32,
    /// Extended highest sequence number received.
    pub highest_seq: u32,
    /// Interarrival jitter in timestamp units.
    pub jitter: u32,
    /// Last SR timestamp.
    pub lsr: u32,
    /// Delay since last SR (1/65536 s units).
    pub dlsr: u32,
}

/// Sender report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SenderReport {
    /// Sender's SSRC.
    pub ssrc: u32,
    /// NTP timestamp, seconds part.
    pub ntp_sec: u32,
    /// NTP timestamp, fractional part.
    pub ntp_frac: u32,
    /// RTP timestamp corresponding to the NTP timestamp.
    pub rtp_ts: u32,
    /// Packets sent.
    pub packet_count: u32,
    /// Payload octets sent.
    pub octet_count: u32,
    /// Reception report blocks.
    pub reports: Vec<ReportBlock>,
}

/// Receiver report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceiverReport {
    /// Reporter's SSRC.
    pub ssrc: u32,
    /// Reception report blocks.
    pub reports: Vec<ReportBlock>,
}

/// Source description: one CNAME per chunk (the only item WebRTC uses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sdes {
    /// `(ssrc, cname)` chunks.
    pub chunks: Vec<(u32, String)>,
}

/// Goodbye.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bye {
    /// Sources leaving the session.
    pub ssrcs: Vec<u32>,
}

/// Generic NACK (RFC 4585 §6.2.1): each entry names a lost packet id and a
/// bitmask of 16 following packets also lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nack {
    /// SSRC of the feedback sender.
    pub sender_ssrc: u32,
    /// SSRC of the media source this feedback is about.
    pub media_ssrc: u32,
    /// `(packet id, bitmask of following lost packets)` pairs.
    pub entries: Vec<(u16, u16)>,
}

impl Nack {
    /// Expand the compressed `(pid, blp)` entries into the full list of
    /// missing sequence numbers.
    pub fn lost_sequences(&self) -> Vec<u16> {
        nack_lost(self.entries.iter().copied()).collect()
    }

    /// Compress a sorted list of missing sequence numbers into `(pid, blp)`
    /// entries.
    pub fn from_lost_sequences(sender_ssrc: u32, media_ssrc: u32, lost: &[u16]) -> Nack {
        Nack {
            sender_ssrc,
            media_ssrc,
            entries: nack_entries(lost).collect(),
        }
    }
}

/// The `(pid, blp)` entries naming `lost`, a sorted list of missing
/// sequence numbers: each entry's bitmask covers the 16 numbers after its
/// packet id.
pub fn nack_entries(lost: &[u16]) -> impl Iterator<Item = (u16, u16)> + '_ {
    let mut rest = lost;
    std::iter::from_fn(move || {
        let (&pid, tail) = rest.split_first()?;
        rest = tail;
        let mut blp = 0u16;
        while let Some((&seq, tail)) = rest.split_first() {
            let delta = seq.wrapping_sub(pid);
            if !(1..=16).contains(&delta) {
                break;
            }
            blp |= 1 << (delta - 1);
            rest = tail;
        }
        Some((pid, blp))
    })
}

/// The sequence numbers NACK `entries` name, in entry then bit order.
pub fn nack_lost(entries: impl IntoIterator<Item = (u16, u16)>) -> impl Iterator<Item = u16> {
    entries.into_iter().flat_map(|(pid, blp)| {
        std::iter::once(pid).chain(
            (0..16)
                .filter(move |bit| blp & (1 << bit) != 0)
                .map(move |bit| pid.wrapping_add(bit + 1)),
        )
    })
}

/// Picture loss indication (RFC 4585 §6.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pli {
    /// SSRC of the feedback sender.
    pub sender_ssrc: u32,
    /// SSRC of the media source asked to refresh.
    pub media_ssrc: u32,
}

/// Receiver-estimated maximum bitrate (REMB).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Remb {
    /// SSRC of the feedback sender.
    pub sender_ssrc: u32,
    /// Estimated available bitrate in bits/s.
    pub bitrate_bps: u64,
    /// Media SSRCs the estimate applies to.
    pub ssrcs: Vec<u32>,
}

/// Any RTCP packet Scallop understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtcpPacket {
    /// Sender report.
    Sr(SenderReport),
    /// Receiver report.
    Rr(ReceiverReport),
    /// Source description.
    Sdes(Sdes),
    /// Goodbye.
    Bye(Bye),
    /// Generic NACK.
    Nack(Nack),
    /// Picture loss indication.
    Pli(Pli),
    /// Receiver-estimated max bitrate.
    Remb(Remb),
}

impl RtcpPacket {}

// ---------------------------------------------------------------------
// The encoder: writers.
// ---------------------------------------------------------------------

/// Start a packet of type `pt`: a header whose count and length
/// [`finish`] fills in once the body is written.
fn begin(out: &mut Vec<u8>, pt: u8) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0x80, pt, 0, 0]);
    at
}

/// Complete the header [`begin`] wrote at `at`.
fn finish(out: &mut [u8], at: usize, count_or_fmt: u8) {
    let body_len = out.len() - at - 4;
    debug_assert_eq!(body_len % 4, 0);
    out[at] = 0x80 | (count_or_fmt & 0x1F);
    out[at + 2..at + 4].copy_from_slice(&((body_len / 4) as u16).to_be_bytes());
}

fn push_u32s(out: &mut Vec<u8>, words: &[u32]) {
    for w in words {
        out.extend_from_slice(&w.to_be_bytes());
    }
}

fn push_report_block(out: &mut Vec<u8>, b: &ReportBlock) {
    out.extend_from_slice(&b.ssrc.to_be_bytes());
    out.push(b.fraction_lost);
    let cum = b.cumulative_lost.min(0x00FF_FFFF);
    out.extend_from_slice(&cum.to_be_bytes()[1..4]);
    push_u32s(out, &[b.highest_seq, b.jitter, b.lsr, b.dlsr]);
}

/// Append a sender report.
pub fn write_sr(out: &mut Vec<u8>, sr: &SenderReport) {
    let at = begin(out, PT_SR);
    push_u32s(
        out,
        &[
            sr.ssrc,
            sr.ntp_sec,
            sr.ntp_frac,
            sr.rtp_ts,
            sr.packet_count,
            sr.octet_count,
        ],
    );
    for b in &sr.reports {
        push_report_block(out, b);
    }
    finish(out, at, sr.reports.len() as u8);
}

/// Append a receiver report from `ssrc` carrying `reports`.
pub fn write_rr(out: &mut Vec<u8>, ssrc: u32, reports: impl IntoIterator<Item = ReportBlock>) {
    let at = begin(out, PT_RR);
    out.extend_from_slice(&ssrc.to_be_bytes());
    let mut n = 0usize;
    for b in reports {
        push_report_block(out, &b);
        n += 1;
    }
    finish(out, at, n as u8);
}

/// Append a source description: one CNAME item per `(ssrc, cname)`
/// chunk, the CNAME cut at 255 bytes.
pub fn write_sdes<'c>(out: &mut Vec<u8>, chunks: impl IntoIterator<Item = (u32, &'c str)>) {
    let at = begin(out, PT_SDES);
    let mut n = 0usize;
    for (ssrc, cname) in chunks {
        let cname = &cname.as_bytes()[..cname.len().min(255)];
        out.extend_from_slice(&ssrc.to_be_bytes());
        out.push(1); // CNAME item type
        out.push(cname.len() as u8);
        out.extend_from_slice(cname);
        out.push(0); // end of items
        while !(out.len() - at).is_multiple_of(4) {
            out.push(0);
        }
        n += 1;
    }
    finish(out, at, n as u8);
}

/// Append a Generic NACK from `sender_ssrc` about `media_ssrc`.
pub fn write_nack(
    out: &mut Vec<u8>,
    sender_ssrc: u32,
    media_ssrc: u32,
    entries: impl IntoIterator<Item = (u16, u16)>,
) {
    let at = begin(out, PT_RTPFB);
    push_u32s(out, &[sender_ssrc, media_ssrc]);
    for (pid, blp) in entries {
        out.extend_from_slice(&pid.to_be_bytes());
        out.extend_from_slice(&blp.to_be_bytes());
    }
    finish(out, at, 1);
}

/// Append a picture loss indication.
pub fn write_pli(out: &mut Vec<u8>, sender_ssrc: u32, media_ssrc: u32) {
    let at = begin(out, PT_PSFB);
    push_u32s(out, &[sender_ssrc, media_ssrc]);
    finish(out, at, 1);
}

/// Append a REMB: `bitrate_bps` (rounded down to what the 18-bit mantissa
/// holds) for the media `ssrcs`.
pub fn write_remb(
    out: &mut Vec<u8>,
    sender_ssrc: u32,
    bitrate_bps: u64,
    ssrcs: impl IntoIterator<Item = u32>,
) {
    let at = begin(out, PT_PSFB);
    push_u32s(out, &[sender_ssrc, 0]); // media ssrc = 0 per spec
    out.extend_from_slice(b"REMB");
    // 8-bit ssrc count, 6-bit exponent, 18-bit mantissa.
    let count_at = out.len();
    let (exp, mantissa) = encode_remb_bitrate(bitrate_bps);
    let word: u32 = ((exp as u32) << 18) | mantissa;
    out.extend_from_slice(&word.to_be_bytes());
    let mut n = 0usize;
    for s in ssrcs {
        out.extend_from_slice(&s.to_be_bytes());
        n += 1;
    }
    out[count_at] = n as u8;
    finish(out, at, 15);
}

/// Append one RTCP packet (header + body).
pub fn serialize_into(pkt: &RtcpPacket, out: &mut Vec<u8>) {
    match pkt {
        RtcpPacket::Sr(sr) => write_sr(out, sr),
        RtcpPacket::Rr(rr) => write_rr(out, rr.ssrc, rr.reports.iter().copied()),
        RtcpPacket::Sdes(sdes) => write_sdes(out, sdes.chunks.iter().map(|(s, c)| (*s, &c[..]))),
        RtcpPacket::Bye(bye) => {
            let at = begin(out, PT_BYE);
            push_u32s(out, &bye.ssrcs);
            finish(out, at, bye.ssrcs.len() as u8);
        }
        RtcpPacket::Nack(n) => {
            write_nack(out, n.sender_ssrc, n.media_ssrc, n.entries.iter().copied())
        }
        RtcpPacket::Pli(p) => write_pli(out, p.sender_ssrc, p.media_ssrc),
        RtcpPacket::Remb(r) => {
            write_remb(out, r.sender_ssrc, r.bitrate_bps, r.ssrcs.iter().copied())
        }
    }
}

/// Serialize one RTCP packet (header + body).
pub fn serialize(pkt: &RtcpPacket) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    serialize_into(pkt, &mut out);
    out
}

/// Serialize packets back-to-back into one compound datagram.
pub fn serialize_compound(pkts: &[RtcpPacket]) -> Vec<u8> {
    let mut out = Vec::new();
    for p in pkts {
        serialize_into(p, &mut out);
    }
    out
}

/// Encode a bitrate as REMB's 6-bit exponent / 18-bit mantissa.
fn encode_remb_bitrate(bps: u64) -> (u8, u32) {
    let mut exp = 0u8;
    let mut mantissa = bps;
    while mantissa >= (1 << 18) {
        mantissa >>= 1;
        exp += 1;
        if exp >= 63 {
            return (63, (1 << 18) - 1);
        }
    }
    (exp, mantissa as u32)
}

// ---------------------------------------------------------------------
// The decoder: the walk.
// ---------------------------------------------------------------------

fn be32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// What a [`Records`] run can hold: a fixed-size record and how it is
/// read off the wire. Sealed — the three record kinds are RTCP's.
pub trait Record: sealed::Sealed + Sized {
    /// Bytes per record.
    const SIZE: usize;
    /// Read one record from its `SIZE` bytes.
    fn read(b: &[u8]) -> Self;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::ReportBlock {}
    impl Sealed for (u16, u16) {}
    impl Sealed for u32 {}
}

impl Record for ReportBlock {
    const SIZE: usize = 24;
    fn read(b: &[u8]) -> Self {
        ReportBlock {
            ssrc: be32(b, 0),
            fraction_lost: b[4],
            cumulative_lost: u32::from_be_bytes([0, b[5], b[6], b[7]]),
            highest_seq: be32(b, 8),
            jitter: be32(b, 12),
            lsr: be32(b, 16),
            dlsr: be32(b, 20),
        }
    }
}

/// A NACK entry: `(packet id, bitmask of following lost packets)`.
impl Record for (u16, u16) {
    const SIZE: usize = 4;
    fn read(b: &[u8]) -> Self {
        (
            u16::from_be_bytes([b[0], b[1]]),
            u16::from_be_bytes([b[2], b[3]]),
        )
    }
}

/// An SSRC.
impl Record for u32 {
    const SIZE: usize = 4;
    fn read(b: &[u8]) -> Self {
        be32(b, 0)
    }
}

/// A run of fixed-size records read in place: report blocks, NACK
/// entries, SSRC lists.
#[derive(Debug, Clone)]
pub struct Records<'a, T> {
    /// The records not read yet; a multiple of `T::SIZE` bytes.
    bytes: &'a [u8],
    record: PhantomData<T>,
}

impl<'a, T: Record> Records<'a, T> {
    fn new(bytes: &'a [u8]) -> Self {
        Records {
            bytes,
            record: PhantomData,
        }
    }
}

impl<T: Record> Iterator for Records<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let (record, rest) = self.bytes.split_at_checked(T::SIZE)?;
        self.bytes = rest;
        Some(T::read(record))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.bytes.len() / T::SIZE;
        (n, Some(n))
    }
}

/// The `(ssrc, cname)` chunks of an SDES packet, read in place; a chunk
/// without a CNAME item has an empty one. The walk has checked every
/// chunk before it hands these out, so none is an error.
#[derive(Debug, Clone)]
pub struct SdesChunks<'a> {
    /// The chunks not read yet.
    rest: &'a [u8],
    /// Length of the packet body, to find each chunk's padding.
    body_len: usize,
    /// Chunks the header announced and not read yet.
    left: u8,
}

impl<'a> SdesChunks<'a> {
    fn chunk(&mut self) -> Result<(u32, &'a [u8]), ProtoError> {
        let mut rest = self.rest;
        need(rest, 4)?;
        let ssrc = be32(rest, 0);
        rest = &rest[4..];
        let mut cname: &[u8] = &[];
        // Items until a zero terminator.
        loop {
            need(rest, 1)?;
            let item = rest[0];
            rest = &rest[1..];
            if item == 0 {
                break;
            }
            need(rest, 1)?;
            let len = rest[0] as usize;
            need(&rest[1..], len)?;
            if item == 1 {
                cname = &rest[1..1 + len];
            }
            rest = &rest[1 + len..];
        }
        // Skip pad to 32-bit boundary.
        let consumed = self.body_len - rest.len();
        let pad = (4 - consumed % 4) % 4;
        need(rest, pad)?;
        self.rest = &rest[pad..];
        Ok((ssrc, cname))
    }
}

impl<'a> Iterator for SdesChunks<'a> {
    type Item = Result<(u32, &'a [u8]), ProtoError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        let chunk = self.chunk();
        if chunk.is_err() {
            self.left = 0;
        }
        Some(chunk)
    }
}

/// One RTCP packet borrowed from the wire: what the walk ([`packets`])
/// yields, convertible into the owned [`RtcpPacket`] with `From`.
#[derive(Debug, Clone)]
pub enum RtcpRef<'a> {
    /// Sender report.
    Sr {
        /// Sender's SSRC.
        ssrc: u32,
        /// NTP timestamp, seconds part.
        ntp_sec: u32,
        /// NTP timestamp, fractional part.
        ntp_frac: u32,
        /// RTP timestamp corresponding to the NTP timestamp.
        rtp_ts: u32,
        /// Packets sent.
        packet_count: u32,
        /// Payload octets sent.
        octet_count: u32,
        /// Reception report blocks.
        reports: Records<'a, ReportBlock>,
    },
    /// Receiver report.
    Rr {
        /// Reporter's SSRC.
        ssrc: u32,
        /// Reception report blocks.
        reports: Records<'a, ReportBlock>,
    },
    /// Source description.
    Sdes(SdesChunks<'a>),
    /// Goodbye: the sources leaving.
    Bye(Records<'a, u32>),
    /// Generic NACK.
    Nack {
        /// SSRC of the feedback sender.
        sender_ssrc: u32,
        /// SSRC of the media source this feedback is about.
        media_ssrc: u32,
        /// `(packet id, bitmask of following lost packets)` pairs.
        entries: Records<'a, (u16, u16)>,
    },
    /// Picture loss indication.
    Pli(Pli),
    /// Receiver-estimated max bitrate.
    Remb {
        /// SSRC of the feedback sender.
        sender_ssrc: u32,
        /// Estimated available bitrate in bits/s.
        bitrate_bps: u64,
        /// Media SSRCs the estimate applies to.
        ssrcs: Records<'a, u32>,
    },
}

impl RtcpRef<'_> {
    /// Append this packet's canonical encoding — what `serialize` writes
    /// for the owned packet — in place for the packets the fabric relays
    /// per packet (RR, NACK, PLI, REMB); SR, SDES and BYE go through the
    /// owned form.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        match self.clone() {
            RtcpRef::Rr { ssrc, reports } => write_rr(out, ssrc, reports),
            RtcpRef::Nack {
                sender_ssrc,
                media_ssrc,
                entries,
            } => write_nack(out, sender_ssrc, media_ssrc, entries),
            RtcpRef::Pli(p) => write_pli(out, p.sender_ssrc, p.media_ssrc),
            RtcpRef::Remb {
                sender_ssrc,
                bitrate_bps,
                ssrcs,
            } => write_remb(out, sender_ssrc, bitrate_bps, ssrcs),
            other => serialize_into(&other.into(), out),
        }
    }
}

impl From<RtcpRef<'_>> for RtcpPacket {
    fn from(p: RtcpRef<'_>) -> RtcpPacket {
        match p {
            RtcpRef::Sr {
                ssrc,
                ntp_sec,
                ntp_frac,
                rtp_ts,
                packet_count,
                octet_count,
                reports,
            } => RtcpPacket::Sr(SenderReport {
                ssrc,
                ntp_sec,
                ntp_frac,
                rtp_ts,
                packet_count,
                octet_count,
                reports: reports.collect(),
            }),
            RtcpRef::Rr { ssrc, reports } => RtcpPacket::Rr(ReceiverReport {
                ssrc,
                reports: reports.collect(),
            }),
            RtcpRef::Sdes(chunks) => RtcpPacket::Sdes(Sdes {
                chunks: chunks
                    .flatten()
                    .map(|(ssrc, cname)| (ssrc, String::from_utf8_lossy(cname).into_owned()))
                    .collect(),
            }),
            RtcpRef::Bye(ssrcs) => RtcpPacket::Bye(Bye {
                ssrcs: ssrcs.collect(),
            }),
            RtcpRef::Nack {
                sender_ssrc,
                media_ssrc,
                entries,
            } => RtcpPacket::Nack(Nack {
                sender_ssrc,
                media_ssrc,
                entries: entries.collect(),
            }),
            RtcpRef::Pli(p) => RtcpPacket::Pli(p),
            RtcpRef::Remb {
                sender_ssrc,
                bitrate_bps,
                ssrcs,
            } => RtcpPacket::Remb(Remb {
                sender_ssrc,
                bitrate_bps,
                ssrcs: ssrcs.collect(),
            }),
        }
    }
}

/// Read the RTCP packet at the start of `rest` in place, and step `rest`
/// past it; `rest` is left as it was when the packet does not parse.
fn read_one<'a>(rest: &mut &'a [u8]) -> Result<RtcpRef<'a>, ProtoError> {
    let buf: &'a [u8] = rest;
    need(buf, 4)?;
    if buf[0] >> 6 != 2 {
        return Err(ProtoError::BadMagic);
    }
    let count_or_fmt = buf[0] & 0x1F;
    let n = count_or_fmt as usize;
    let pt = buf[1];
    let words = u16::from_be_bytes([buf[2], buf[3]]) as usize;
    let total = 4 + words * 4;
    need(buf, total)?;
    let body = &buf[4..total];

    let pkt = match pt {
        PT_SR => {
            need(body, 24)?;
            need(body, 24 + n * 24)?;
            RtcpRef::Sr {
                ssrc: be32(body, 0),
                ntp_sec: be32(body, 4),
                ntp_frac: be32(body, 8),
                rtp_ts: be32(body, 12),
                packet_count: be32(body, 16),
                octet_count: be32(body, 20),
                reports: Records::new(&body[24..24 + n * 24]),
            }
        }
        PT_RR => {
            need(body, 4)?;
            need(body, 4 + n * 24)?;
            RtcpRef::Rr {
                ssrc: be32(body, 0),
                reports: Records::new(&body[4..4 + n * 24]),
            }
        }
        PT_SDES => {
            let chunks = SdesChunks {
                rest: body,
                body_len: body.len(),
                left: count_or_fmt,
            };
            chunks.clone().try_for_each(|c| c.map(drop))?;
            RtcpRef::Sdes(chunks)
        }
        PT_BYE => {
            need(body, n * 4)?;
            RtcpRef::Bye(Records::new(&body[..n * 4]))
        }
        PT_RTPFB => {
            if count_or_fmt != 1 {
                return Err(ProtoError::Unsupported("RTPFB format"));
            }
            need(body, 8)?;
            RtcpRef::Nack {
                sender_ssrc: be32(body, 0),
                media_ssrc: be32(body, 4),
                entries: Records::new(&body[8..]),
            }
        }
        PT_PSFB => match count_or_fmt {
            1 => {
                need(body, 8)?;
                RtcpRef::Pli(Pli {
                    sender_ssrc: be32(body, 0),
                    media_ssrc: be32(body, 4),
                })
            }
            15 => {
                need(body, 16)?;
                if &body[8..12] != b"REMB" {
                    return Err(ProtoError::Malformed("ALFB without REMB magic"));
                }
                let num = body[12] as usize;
                let exp = (body[13] >> 2) as u32;
                let mantissa =
                    (((body[13] & 0x03) as u32) << 16) | ((body[14] as u32) << 8) | body[15] as u32;
                need(body, 16 + num * 4)?;
                RtcpRef::Remb {
                    sender_ssrc: be32(body, 0),
                    bitrate_bps: (mantissa as u64) << exp,
                    ssrcs: Records::new(&body[16..16 + num * 4]),
                }
            }
            _ => return Err(ProtoError::Unsupported("PSFB format")),
        },
        _ => return Err(ProtoError::Unsupported("RTCP packet type")),
    };
    *rest = &buf[total..];
    Ok(pkt)
}

/// The walk over a compound datagram: its packets in order, borrowed from
/// the wire. A packet that does not parse yields its error and ends the
/// walk.
#[derive(Debug, Clone)]
pub struct Packets<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Packets<'a> {
    type Item = Result<RtcpRef<'a>, ProtoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        let pkt = read_one(&mut self.rest);
        if pkt.is_err() {
            self.rest = &[];
        }
        Some(pkt)
    }
}

/// Walk the packets of the compound datagram `buf` in place.
pub fn packets(buf: &[u8]) -> Packets<'_> {
    Packets { rest: buf }
}

/// The packets of `buf`, read in place, when every one of them parses —
/// the rule [`parse_compound`] applies — else the first error.
pub fn read_compound(buf: &[u8]) -> Result<impl Iterator<Item = RtcpRef<'_>> + Clone, ProtoError> {
    packets(buf).try_for_each(|p| p.map(drop))?;
    Ok(packets(buf).flatten())
}

/// Parse a compound RTCP datagram into its constituent packets.
pub fn parse_compound(buf: &[u8]) -> Result<Vec<RtcpPacket>, ProtoError> {
    let mut out = Vec::new();
    for pkt in packets(buf) {
        out.push(pkt?.into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse a single RTCP packet starting at `buf[0]`. Returns the packet
    /// and its total encoded length.
    fn parse_one(buf: &[u8]) -> Result<(RtcpPacket, usize), ProtoError> {
        let mut rest = buf;
        let pkt = read_one(&mut rest)?;
        Ok((pkt.into(), buf.len() - rest.len()))
    }

    fn block() -> ReportBlock {
        ReportBlock {
            ssrc: 0x1111,
            fraction_lost: 12,
            cumulative_lost: 345,
            highest_seq: 0x0001_0042,
            jitter: 77,
            lsr: 0xAABBCCDD,
            dlsr: 0x00010000,
        }
    }

    #[test]
    fn sr_round_trip() {
        let sr = RtcpPacket::Sr(SenderReport {
            ssrc: 42,
            ntp_sec: 100,
            ntp_frac: 200,
            rtp_ts: 300,
            packet_count: 400,
            octet_count: 500,
            reports: vec![block(), block()],
        });
        let bytes = serialize(&sr);
        let (parsed, used) = parse_one(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(parsed, sr);
    }

    #[test]
    fn rr_round_trip() {
        let rr = RtcpPacket::Rr(ReceiverReport {
            ssrc: 7,
            reports: vec![block()],
        });
        assert_eq!(parse_one(&serialize(&rr)).unwrap().0, rr);
    }

    #[test]
    fn rr_empty_round_trip() {
        let rr = RtcpPacket::Rr(ReceiverReport {
            ssrc: 9,
            reports: vec![],
        });
        assert_eq!(parse_one(&serialize(&rr)).unwrap().0, rr);
    }

    #[test]
    fn sdes_round_trip() {
        let sdes = RtcpPacket::Sdes(Sdes {
            chunks: vec![(1, "alice@example".into()), (2, "bob".into())],
        });
        assert_eq!(parse_one(&serialize(&sdes)).unwrap().0, sdes);
    }

    #[test]
    fn bye_round_trip() {
        let bye = RtcpPacket::Bye(Bye {
            ssrcs: vec![5, 6, 7],
        });
        assert_eq!(parse_one(&serialize(&bye)).unwrap().0, bye);
    }

    #[test]
    fn nack_round_trip_and_expansion() {
        let nack = Nack::from_lost_sequences(1, 2, &[100, 101, 103, 150]);
        assert_eq!(nack.entries.len(), 2);
        assert_eq!(nack.entries[0], (100, 0b0000_0000_0000_0101));
        assert_eq!(nack.entries[1], (150, 0));
        let expanded = nack.lost_sequences();
        assert_eq!(expanded, vec![100, 101, 103, 150]);
        let pkt = RtcpPacket::Nack(nack);
        assert_eq!(parse_one(&serialize(&pkt)).unwrap().0, pkt);
    }

    #[test]
    fn nack_wraparound_sequences() {
        let nack = Nack::from_lost_sequences(1, 2, &[65534, 65535, 0, 1]);
        let expanded = nack.lost_sequences();
        assert_eq!(expanded, vec![65534, 65535, 0, 1]);
    }

    #[test]
    fn pli_round_trip() {
        let pli = RtcpPacket::Pli(Pli {
            sender_ssrc: 3,
            media_ssrc: 4,
        });
        assert_eq!(parse_one(&serialize(&pli)).unwrap().0, pli);
    }

    #[test]
    fn remb_round_trip_exact_when_representable() {
        let remb = RtcpPacket::Remb(Remb {
            sender_ssrc: 10,
            bitrate_bps: 250_000,
            ssrcs: vec![0xAA, 0xBB],
        });
        assert_eq!(parse_one(&serialize(&remb)).unwrap().0, remb);
    }

    #[test]
    fn remb_large_bitrate_rounds_down() {
        // 10 Gbit/s needs the exponent; mantissa truncation loses low bits.
        let remb = Remb {
            sender_ssrc: 1,
            bitrate_bps: 10_000_000_001,
            ssrcs: vec![],
        };
        let bytes = serialize(&RtcpPacket::Remb(remb.clone()));
        let (parsed, _) = parse_one(&bytes).unwrap();
        if let RtcpPacket::Remb(r) = parsed {
            let err =
                (r.bitrate_bps as f64 - remb.bitrate_bps as f64).abs() / remb.bitrate_bps as f64;
            assert!(err < 1e-4, "relative error {err}");
        } else {
            panic!("wrong packet type");
        }
    }

    #[test]
    fn compound_round_trip() {
        let pkts = vec![
            RtcpPacket::Rr(ReceiverReport {
                ssrc: 1,
                reports: vec![block()],
            }),
            RtcpPacket::Remb(Remb {
                sender_ssrc: 1,
                bitrate_bps: 1_500_000,
                ssrcs: vec![2],
            }),
            RtcpPacket::Sdes(Sdes {
                chunks: vec![(1, "x".into())],
            }),
        ];
        let bytes = serialize_compound(&pkts);
        assert_eq!(parse_compound(&bytes).unwrap(), pkts);
    }

    #[test]
    fn rejects_bad_version_and_truncation() {
        let ok = serialize(&RtcpPacket::Pli(Pli {
            sender_ssrc: 1,
            media_ssrc: 2,
        }));
        let mut bad = ok.clone();
        bad[0] = 0x00;
        assert_eq!(parse_one(&bad), Err(ProtoError::BadMagic));
        assert!(matches!(
            parse_one(&ok[..6]),
            Err(ProtoError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_unknown_types() {
        // APP (204) unsupported.
        let buf = [0x80, 204, 0, 0];
        assert_eq!(
            parse_one(&buf),
            Err(ProtoError::Unsupported("RTCP packet type"))
        );
        // PSFB fmt 3 unsupported.
        let buf = [0x83, 206, 0, 2, 0, 0, 0, 1, 0, 0, 0, 2];
        assert_eq!(parse_one(&buf), Err(ProtoError::Unsupported("PSFB format")));
    }

    #[test]
    fn remb_encode_bitrate_edges() {
        assert_eq!(encode_remb_bitrate(0), (0, 0));
        assert_eq!(encode_remb_bitrate(1), (0, 1));
        assert_eq!(encode_remb_bitrate((1 << 18) - 1), (0, (1 << 18) - 1));
        let (exp, mant) = encode_remb_bitrate(1 << 18);
        assert_eq!((mant as u64) << exp, 1 << 18);
        // u64::MAX needs a 46-bit shift to fit the 18-bit mantissa.
        let (exp, mant) = encode_remb_bitrate(u64::MAX);
        assert_eq!(exp, 46);
        assert_eq!(mant, (1 << 18) - 1);
        assert!((mant as u64).checked_shl(exp as u32).is_some());
    }
}
