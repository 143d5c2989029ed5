//! RTP (RFC 3550) with RFC 8285 general-purpose header extensions.
//!
//! Scallop's data plane treats RTP packets as the unit of work: it
//! replicates them, selectively drops them by SVC layer, and rewrites
//! sequence numbers in flight (§6). This module provides:
//!
//! * [`RtpPacket`] — an owned parse/serialize representation,
//! * [`RtpView`] — a zero-copy accessor used on the simulated switch's hot
//!   path, plus in-place mutators ([`set_sequence_number`],
//!   [`set_ssrc`]) mirroring what the egress pipeline's PHV rewrites do.

use crate::error::{need, ProtoError};
use bytes::Bytes;

/// RTP protocol version (always 2).
pub const RTP_VERSION: u8 = 2;

/// RFC 8285 profile value for one-byte extension headers.
pub const EXT_PROFILE_ONE_BYTE: u16 = 0xBEDE;
/// RFC 8285 profile value for two-byte extension headers.
pub const EXT_PROFILE_TWO_BYTE: u16 = 0x1000;

/// Minimum RTP header size (no CSRC, no extension).
pub const MIN_HEADER_LEN: usize = 12;

/// A single RFC 8285 extension element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtensionElement {
    /// Extension id (1–14 for one-byte profile, 1–255 for two-byte).
    pub id: u8,
    /// Raw element payload.
    pub data: Vec<u8>,
}

/// Which RFC 8285 wire encoding the extension block uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtensionProfile {
    /// `0xBEDE`: 4-bit id, 4-bit (length − 1).
    #[default]
    OneByte,
    /// `0x1000`: 8-bit id, 8-bit length.
    TwoByte,
}

/// An owned RTP packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtpPacket {
    /// Marker bit (end-of-frame for video payloads).
    pub marker: bool,
    /// Payload type (7 bits).
    pub payload_type: u8,
    /// Sequence number.
    pub sequence_number: u16,
    /// Media timestamp.
    pub timestamp: u32,
    /// Synchronization source.
    pub ssrc: u32,
    /// Contributing sources (up to 15).
    pub csrc: Vec<u32>,
    /// Extension encoding to use when serializing (when `extensions` is
    /// non-empty).
    pub extension_profile: ExtensionProfile,
    /// RFC 8285 extension elements.
    pub extensions: Vec<ExtensionElement>,
    /// Media payload.
    pub payload: Bytes,
}

impl RtpPacket {
    /// A packet with sensible defaults for the given identity fields.
    pub fn new(payload_type: u8, sequence_number: u16, timestamp: u32, ssrc: u32) -> Self {
        RtpPacket {
            marker: false,
            payload_type,
            sequence_number,
            timestamp,
            ssrc,
            csrc: Vec::new(),
            extension_profile: ExtensionProfile::OneByte,
            extensions: Vec::new(),
            payload: Bytes::new(),
        }
    }

    /// Find an extension element by id.
    pub fn extension(&self, id: u8) -> Option<&[u8]> {
        self.extensions
            .iter()
            .find(|e| e.id == id)
            .map(|e| e.data.as_slice())
    }

    /// Parse from a UDP payload, copying the media payload out.
    pub fn parse(buf: &[u8]) -> Result<RtpPacket, ProtoError> {
        Self::parse_with(buf, Bytes::copy_from_slice)
    }

    /// Parse from a received datagram without copying: the media payload
    /// is a view into `buf`, which it keeps alive.
    pub fn parse_bytes(buf: &Bytes) -> Result<RtpPacket, ProtoError> {
        Self::parse_with(buf, |payload| buf.slice_ref(payload))
    }

    fn parse_with<'a>(
        buf: &'a [u8],
        payload: impl FnOnce(&'a [u8]) -> Bytes,
    ) -> Result<RtpPacket, ProtoError> {
        let view = RtpView::new(buf)?;
        let mut extensions = Vec::new();
        let mut profile = ExtensionProfile::OneByte;
        if let Some((prof, body)) = view.extension_block()? {
            profile = prof;
            for element in (ExtensionElements { profile, body }) {
                let (id, data) = element?;
                extensions.push(ExtensionElement {
                    id,
                    data: data.to_vec(),
                });
            }
        }
        Ok(RtpPacket {
            marker: view.marker(),
            payload_type: view.payload_type(),
            sequence_number: view.sequence_number(),
            timestamp: view.timestamp(),
            ssrc: view.ssrc(),
            csrc: view.csrc(),
            extension_profile: profile,
            extensions,
            payload: payload(view.payload()?),
        })
    }

    /// Serialize to bytes.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MIN_HEADER_LEN + 16 + self.payload.len());
        self.serialize_into(&mut out);
        out
    }

    /// Append the wire form to `out`, so that a sender can lay the
    /// packets of a frame back to back in one buffer.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        let has_ext = !self.extensions.is_empty();
        let v_p_x_cc: u8 =
            (RTP_VERSION << 6) | ((has_ext as u8) << 4) | (self.csrc.len().min(15) as u8);
        out.push(v_p_x_cc);
        out.push(((self.marker as u8) << 7) | (self.payload_type & 0x7F));
        out.extend_from_slice(&self.sequence_number.to_be_bytes());
        out.extend_from_slice(&self.timestamp.to_be_bytes());
        out.extend_from_slice(&self.ssrc.to_be_bytes());
        for c in self.csrc.iter().take(15) {
            out.extend_from_slice(&c.to_be_bytes());
        }
        if has_ext {
            let profile_val = match self.extension_profile {
                ExtensionProfile::OneByte => EXT_PROFILE_ONE_BYTE,
                ExtensionProfile::TwoByte => EXT_PROFILE_TWO_BYTE,
            };
            out.extend_from_slice(&profile_val.to_be_bytes());
            // The word count is known once the elements are written.
            let words_at = out.len();
            out.extend_from_slice(&[0, 0]);
            write_extension_elements(out, self.extension_profile, &self.extensions);
            let words = ((out.len() - words_at - 2) / 4) as u16;
            out[words_at..words_at + 2].copy_from_slice(&words.to_be_bytes());
        }
        out.extend_from_slice(&self.payload);
    }
}

/// The elements of an RFC 8285 extension block, borrowed from the wire:
/// `(id, data)` in wire order, padding skipped. The one walk behind both
/// the owned parser and [`RtpView::find_extension`]. An element that
/// overruns the block yields one `Truncated` error and ends the walk.
struct ExtensionElements<'a> {
    profile: ExtensionProfile,
    body: &'a [u8],
}

impl<'a> Iterator for ExtensionElements<'a> {
    type Item = Result<(u8, &'a [u8]), ProtoError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (first, mut rest) = loop {
            let (&first, rest) = self.body.split_first()?;
            if first != 0 {
                break (first, rest);
            }
            self.body = rest; // padding
        };
        let (id, len) = match self.profile {
            ExtensionProfile::OneByte => {
                if first >> 4 == 15 {
                    // id 15 terminates parsing per RFC 8285 §4.2.
                    self.body = &[];
                    return None;
                }
                (first >> 4, (first & 0x0F) as usize + 1)
            }
            ExtensionProfile::TwoByte => {
                let Some((&len, after)) = rest.split_first() else {
                    self.body = &[];
                    return Some(Err(ProtoError::Truncated { needed: 1, got: 0 }));
                };
                rest = after;
                (first, len as usize)
            }
        };
        if let Err(e) = need(rest, len) {
            self.body = &[];
            return Some(Err(e));
        }
        let (data, after) = rest.split_at(len);
        self.body = after;
        Some(Ok((id, data)))
    }
}

/// Append the RFC 8285 encoding of `elements`, zero-padded to a 32-bit
/// boundary counted from where the block starts.
fn write_extension_elements(
    out: &mut Vec<u8>,
    profile: ExtensionProfile,
    elements: &[ExtensionElement],
) {
    let start = out.len();
    for e in elements {
        match profile {
            ExtensionProfile::OneByte => {
                debug_assert!((1..=14).contains(&e.id), "one-byte ext id out of range");
                debug_assert!(
                    (1..=16).contains(&e.data.len()),
                    "one-byte ext length out of range"
                );
                out.push((e.id << 4) | ((e.data.len() - 1) as u8 & 0x0F));
            }
            ExtensionProfile::TwoByte => {
                debug_assert!(e.id != 0);
                debug_assert!(e.data.len() <= 255);
                out.push(e.id);
                out.push(e.data.len() as u8);
            }
        }
        out.extend_from_slice(&e.data);
    }
    while !(out.len() - start).is_multiple_of(4) {
        out.push(0);
    }
}

/// Zero-copy view over an RTP packet.
///
/// This is the representation the simulated data plane uses: header fields
/// are read directly from the wire without allocation, like PHV extraction
/// in the real pipeline.
#[derive(Debug, Clone, Copy)]
pub struct RtpView<'a> {
    buf: &'a [u8],
}

impl<'a> RtpView<'a> {
    /// Validate the fixed header and wrap the buffer.
    pub fn new(buf: &'a [u8]) -> Result<Self, ProtoError> {
        need(buf, MIN_HEADER_LEN)?;
        if buf[0] >> 6 != RTP_VERSION {
            return Err(ProtoError::BadMagic);
        }
        Ok(RtpView { buf })
    }

    /// Number of CSRC entries.
    pub fn csrc_count(&self) -> usize {
        (self.buf[0] & 0x0F) as usize
    }

    /// Extension bit.
    pub fn has_extension(&self) -> bool {
        self.buf[0] & 0x10 != 0
    }

    /// Marker bit.
    pub fn marker(&self) -> bool {
        self.buf[1] & 0x80 != 0
    }

    /// Payload type.
    pub fn payload_type(&self) -> u8 {
        self.buf[1] & 0x7F
    }

    /// Sequence number.
    pub fn sequence_number(&self) -> u16 {
        u16::from_be_bytes([self.buf[2], self.buf[3]])
    }

    /// Media timestamp.
    pub fn timestamp(&self) -> u32 {
        u32::from_be_bytes([self.buf[4], self.buf[5], self.buf[6], self.buf[7]])
    }

    /// Synchronization source.
    pub fn ssrc(&self) -> u32 {
        u32::from_be_bytes([self.buf[8], self.buf[9], self.buf[10], self.buf[11]])
    }

    /// CSRC list (allocates only for the list itself).
    pub fn csrc(&self) -> Vec<u32> {
        let n = self.csrc_count().min((self.buf.len() - MIN_HEADER_LEN) / 4);
        (0..n)
            .map(|i| {
                let o = MIN_HEADER_LEN + i * 4;
                u32::from_be_bytes([
                    self.buf[o],
                    self.buf[o + 1],
                    self.buf[o + 2],
                    self.buf[o + 3],
                ])
            })
            .collect()
    }

    /// Offset of the extension block header (if the X bit is set).
    fn ext_header_offset(&self) -> usize {
        MIN_HEADER_LEN + self.csrc_count() * 4
    }

    /// The extension profile and body, if present.
    pub fn extension_block(&self) -> Result<Option<(ExtensionProfile, &'a [u8])>, ProtoError> {
        if !self.has_extension() {
            return Ok(None);
        }
        let o = self.ext_header_offset();
        need(self.buf, o + 4)?;
        let profile = u16::from_be_bytes([self.buf[o], self.buf[o + 1]]);
        let words = u16::from_be_bytes([self.buf[o + 2], self.buf[o + 3]]) as usize;
        let body_start = o + 4;
        let body_end = body_start + words * 4;
        if body_end > self.buf.len() {
            return Err(ProtoError::BadLength);
        }
        let prof = match profile {
            EXT_PROFILE_ONE_BYTE => ExtensionProfile::OneByte,
            p if p & 0xFFF0 == EXT_PROFILE_TWO_BYTE => ExtensionProfile::TwoByte,
            _ => return Err(ProtoError::Unsupported("extension profile")),
        };
        Ok(Some((prof, &self.buf[body_start..body_end])))
    }

    /// Offset where the media payload starts.
    pub fn payload_offset(&self) -> Result<usize, ProtoError> {
        let mut o = self.ext_header_offset();
        if self.has_extension() {
            need(self.buf, o + 4)?;
            let words = u16::from_be_bytes([self.buf[o + 2], self.buf[o + 3]]) as usize;
            o += 4 + words * 4;
            if o > self.buf.len() {
                return Err(ProtoError::BadLength);
            }
        } else {
            need(self.buf, o)?;
        }
        Ok(o)
    }

    /// The media payload (after header, CSRC, and extensions; padding, if
    /// any, is not stripped — we never emit padded packets).
    pub fn payload(&self) -> Result<&'a [u8], ProtoError> {
        Ok(&self.buf[self.payload_offset()?..])
    }

    /// Look up an extension element by id without allocating. Elements
    /// after the match are not inspected.
    pub fn find_extension(&self, id: u8) -> Result<Option<&'a [u8]>, ProtoError> {
        let Some((profile, body)) = self.extension_block()? else {
            return Ok(None);
        };
        for element in (ExtensionElements { profile, body }) {
            match element {
                Ok((eid, data)) if eid == id => return Ok(Some(data)),
                Ok(_) => {}
                Err(_) => return Err(ProtoError::BadLength),
            }
        }
        Ok(None)
    }
}

/// Rewrite the sequence number in place — the egress-pipeline operation of
/// §6.2 (S-LM / S-LR apply their computed offset with exactly this write).
pub fn set_sequence_number(buf: &mut [u8], seq: u16) -> Result<(), ProtoError> {
    need(buf, MIN_HEADER_LEN)?;
    buf[2..4].copy_from_slice(&seq.to_be_bytes());
    Ok(())
}

/// Rewrite the SSRC in place.
pub fn set_ssrc(buf: &mut [u8], ssrc: u32) -> Result<(), ProtoError> {
    need(buf, MIN_HEADER_LEN)?;
    buf[8..12].copy_from_slice(&ssrc.to_be_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RtpPacket {
        let mut p = RtpPacket::new(96, 1234, 0xDEADBEEF, 0xCAFEBABE);
        p.marker = true;
        p.payload = Bytes::from_static(b"hello media payload");
        p
    }

    #[test]
    fn round_trip_plain() {
        let p = sample();
        let bytes = p.serialize();
        let q = RtpPacket::parse(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn round_trip_with_csrc() {
        let mut p = sample();
        p.csrc = vec![1, 2, 3];
        let q = RtpPacket::parse(&p.serialize()).unwrap();
        assert_eq!(q.csrc, vec![1, 2, 3]);
        assert_eq!(q.payload, p.payload);
    }

    #[test]
    fn round_trip_one_byte_extension() {
        let mut p = sample();
        p.extensions.push(ExtensionElement {
            id: 5,
            data: vec![0xAA, 0xBB, 0xCC],
        });
        p.extensions.push(ExtensionElement {
            id: 7,
            data: vec![0x01],
        });
        let bytes = p.serialize();
        let q = RtpPacket::parse(&bytes).unwrap();
        assert_eq!(q.extensions, p.extensions);
        assert_eq!(q.extension(5), Some(&[0xAA, 0xBB, 0xCC][..]));
        assert_eq!(q.extension(7), Some(&[0x01][..]));
        assert_eq!(q.extension(9), None);
    }

    #[test]
    fn round_trip_two_byte_extension() {
        let mut p = sample();
        p.extension_profile = ExtensionProfile::TwoByte;
        p.extensions.push(ExtensionElement {
            id: 42,
            data: vec![9; 20], // too long for one-byte profile
        });
        let bytes = p.serialize();
        let q = RtpPacket::parse(&bytes).unwrap();
        assert_eq!(q.extension_profile, ExtensionProfile::TwoByte);
        assert_eq!(q.extensions, p.extensions);
    }

    #[test]
    fn view_reads_fields_without_alloc() {
        let p = sample();
        let bytes = p.serialize();
        let v = RtpView::new(&bytes).unwrap();
        assert_eq!(v.payload_type(), 96);
        assert!(v.marker());
        assert_eq!(v.sequence_number(), 1234);
        assert_eq!(v.timestamp(), 0xDEADBEEF);
        assert_eq!(v.ssrc(), 0xCAFEBABE);
        assert_eq!(v.payload().unwrap(), b"hello media payload");
    }

    #[test]
    fn view_find_extension() {
        let mut p = sample();
        p.extensions.push(ExtensionElement {
            id: 3,
            data: vec![1, 2, 3, 4],
        });
        let bytes = p.serialize();
        let v = RtpView::new(&bytes).unwrap();
        assert_eq!(v.find_extension(3).unwrap(), Some(&[1, 2, 3, 4][..]));
        assert_eq!(v.find_extension(4).unwrap(), None);
    }

    #[test]
    fn in_place_rewrites() {
        let p = sample();
        let mut bytes = p.serialize();
        set_sequence_number(&mut bytes, 9999).unwrap();
        set_ssrc(&mut bytes, 0x11223344).unwrap();
        let q = RtpPacket::parse(&bytes).unwrap();
        assert_eq!(q.sequence_number, 9999);
        assert_eq!(q.ssrc, 0x11223344);
        // Everything else untouched.
        assert_eq!(q.timestamp, p.timestamp);
        assert_eq!(q.payload, p.payload);
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = sample().serialize();
        bytes[0] = 0x00; // version 0
        assert_eq!(RtpPacket::parse(&bytes), Err(ProtoError::BadMagic));
    }

    #[test]
    fn rejects_truncated() {
        let bytes = sample().serialize();
        assert!(matches!(
            RtpPacket::parse(&bytes[..8]),
            Err(ProtoError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_overlong_extension_length() {
        let mut p = sample();
        p.extensions.push(ExtensionElement {
            id: 1,
            data: vec![0; 4],
        });
        let mut bytes = p.serialize();
        // Corrupt the extension word count to exceed the buffer.
        let o = MIN_HEADER_LEN;
        bytes[o + 2] = 0xFF;
        bytes[o + 3] = 0xFF;
        assert_eq!(RtpPacket::parse(&bytes), Err(ProtoError::BadLength));
    }

    #[test]
    fn one_byte_id_15_terminates() {
        // Hand-craft an extension body where id=15 appears: parsing stops.
        let mut p = sample();
        p.extensions.push(ExtensionElement {
            id: 2,
            data: vec![0x55],
        });
        let mut bytes = p.serialize();
        // The element header byte is at ext body start; overwrite a padding
        // byte after the element with id-15 marker followed by junk.
        let body_start = MIN_HEADER_LEN + 4;
        // element occupies 2 bytes; the remaining 2 are padding; set first
        // padding byte to 0xF0 (id 15, len 1).
        bytes[body_start + 2] = 0xF0;
        let q = RtpPacket::parse(&bytes).unwrap();
        assert_eq!(q.extensions.len(), 1);
        assert_eq!(q.extensions[0].id, 2);
    }
}
