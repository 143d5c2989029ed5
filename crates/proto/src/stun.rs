//! STUN (RFC 5389) binding messages.
//!
//! WebRTC's ICE layer sends periodic STUN binding requests as connectivity
//! checks and RTT probes. The paper classifies these as latency-tolerant
//! (§5.1): Scallop's data plane detects them by the first two zero bits and
//! the magic cookie, then punts them to the switch agent, which answers
//! with a binding success response carrying XOR-MAPPED-ADDRESS.
//!
//! Implemented: binding request / success response, XOR-MAPPED-ADDRESS,
//! USERNAME, PRIORITY, and opaque pass-through of unknown attributes.
//! Omitted: MESSAGE-INTEGRITY and FINGERPRINT (no crypto in this
//! reproduction, consistent with §8), TURN methods, error responses.

use crate::error::{need, ProtoError};
use std::net::Ipv4Addr;

/// STUN magic cookie (RFC 5389 §6).
pub(crate) const MAGIC_COOKIE: u32 = 0x2112_A442;

/// Method+class: binding request.
pub(crate) const TYPE_BINDING_REQUEST: u16 = 0x0001;
/// Method+class: binding success response.
pub(crate) const TYPE_BINDING_SUCCESS: u16 = 0x0101;

/// Attribute: XOR-MAPPED-ADDRESS.
pub(crate) const ATTR_XOR_MAPPED_ADDRESS: u16 = 0x0020;
/// Attribute: USERNAME.
pub(crate) const ATTR_USERNAME: u16 = 0x0006;

/// A parsed STUN message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StunMessage {
    /// Message type (method + class bits).
    pub msg_type: u16,
    /// 96-bit transaction id.
    pub transaction_id: [u8; 12],
    /// Attributes in order: `(type, value)`.
    pub attributes: Vec<(u16, Vec<u8>)>,
}

impl StunMessage {
    /// A binding request with the given transaction id.
    pub fn binding_request(transaction_id: [u8; 12]) -> Self {
        StunMessage {
            msg_type: TYPE_BINDING_REQUEST,
            transaction_id,
            attributes: Vec::new(),
        }
    }

    /// A binding success response mirroring `transaction_id` and reporting
    /// the observed reflexive address.
    pub fn binding_success(transaction_id: [u8; 12], ip: Ipv4Addr, port: u16) -> Self {
        let mut m = StunMessage {
            msg_type: TYPE_BINDING_SUCCESS,
            transaction_id,
            attributes: Vec::new(),
        };
        m.set_xor_mapped_address(ip, port);
        m
    }

    /// True for binding requests.
    pub fn is_request(&self) -> bool {
        self.msg_type & 0x0110 == 0x0000
    }

    /// True for success responses.
    pub fn is_success_response(&self) -> bool {
        self.msg_type & 0x0110 == 0x0100
    }

    /// Find the raw value of an attribute.
    pub(crate) fn attribute(&self, ty: u16) -> Option<&[u8]> {
        self.attributes
            .iter()
            .find(|(t, _)| *t == ty)
            .map(|(_, v)| v.as_slice())
    }

    /// Append a USERNAME attribute.
    pub fn set_username(&mut self, username: &str) {
        self.attributes
            .push((ATTR_USERNAME, username.as_bytes().to_vec()));
    }

    /// Read the USERNAME attribute.
    pub fn username(&self) -> Option<String> {
        self.attribute(ATTR_USERNAME)
            .map(|v| String::from_utf8_lossy(v).into_owned())
    }

    /// Append an XOR-MAPPED-ADDRESS attribute (IPv4).
    pub(crate) fn set_xor_mapped_address(&mut self, ip: Ipv4Addr, port: u16) {
        self.attributes
            .push((ATTR_XOR_MAPPED_ADDRESS, xor_mapped_value(ip, port).to_vec()));
    }

    /// Decode the XOR-MAPPED-ADDRESS attribute.
    pub fn xor_mapped_address(&self) -> Option<(Ipv4Addr, u16)> {
        let v = self.attribute(ATTR_XOR_MAPPED_ADDRESS)?;
        if v.len() < 8 || v[1] != 0x01 {
            return None;
        }
        let xport = u16::from_be_bytes([v[2], v[3]]);
        let xip = u32::from_be_bytes([v[4], v[5], v[6], v[7]]);
        Some((
            Ipv4Addr::from(xip ^ MAGIC_COOKIE),
            xport ^ (MAGIC_COOKIE >> 16) as u16,
        ))
    }

    /// Serialize to bytes.
    pub fn serialize(&self) -> Vec<u8> {
        let attrs_len: usize = self
            .attributes
            .iter()
            .map(|(_, v)| 4 + v.len().div_ceil(4) * 4)
            .sum();
        let mut out = Vec::with_capacity(20 + attrs_len);
        write_message(
            &mut out,
            self.msg_type,
            self.transaction_id,
            self.attributes.iter().map(|(ty, v)| (*ty, &v[..])),
        );
        out
    }

    /// Parse from bytes.
    pub fn parse(buf: &[u8]) -> Result<StunMessage, ProtoError> {
        let view = StunView::new(buf)?;
        Ok(StunMessage {
            msg_type: view.msg_type,
            transaction_id: view.transaction_id,
            attributes: view
                .attributes()
                .flatten()
                .map(|(ty, v)| (ty, v.to_vec()))
                .collect(),
        })
    }
}

/// The XOR-MAPPED-ADDRESS value (IPv4) reporting `ip:port`.
fn xor_mapped_value(ip: Ipv4Addr, port: u16) -> [u8; 8] {
    let xport = port ^ (MAGIC_COOKIE >> 16) as u16;
    let xip = u32::from(ip) ^ MAGIC_COOKIE;
    let mut v = [0u8; 8];
    v[1] = 0x01; // family: IPv4 (byte 0 is reserved)
    v[2..4].copy_from_slice(&xport.to_be_bytes());
    v[4..8].copy_from_slice(&xip.to_be_bytes());
    v
}

/// The one STUN encoder: append a message of `msg_type` with
/// `attributes`, each padded to a 32-bit boundary.
fn write_message<'v>(
    out: &mut Vec<u8>,
    msg_type: u16,
    transaction_id: [u8; 12],
    attributes: impl IntoIterator<Item = (u16, &'v [u8])>,
) {
    let start = out.len();
    out.extend_from_slice(&msg_type.to_be_bytes());
    out.extend_from_slice(&[0, 0]); // length, known once the attributes are
    out.extend_from_slice(&MAGIC_COOKIE.to_be_bytes());
    out.extend_from_slice(&transaction_id);
    for (ty, v) in attributes {
        out.extend_from_slice(&ty.to_be_bytes());
        out.extend_from_slice(&(v.len() as u16).to_be_bytes());
        out.extend_from_slice(v);
        while !(out.len() - start).is_multiple_of(4) {
            out.push(0);
        }
    }
    let attrs_len = (out.len() - start - 20) as u16;
    out[start + 2..start + 4].copy_from_slice(&attrs_len.to_be_bytes());
}

/// Append a binding request — what [`StunMessage::binding_request`]
/// serializes to.
pub fn write_binding_request(out: &mut Vec<u8>, transaction_id: [u8; 12]) {
    write_message(out, TYPE_BINDING_REQUEST, transaction_id, []);
}

/// Append a binding success response reporting `ip:port` — what
/// [`StunMessage::binding_success`] serializes to.
pub fn write_binding_success(out: &mut Vec<u8>, transaction_id: [u8; 12], ip: Ipv4Addr, port: u16) {
    let value = xor_mapped_value(ip, port);
    write_message(
        out,
        TYPE_BINDING_SUCCESS,
        transaction_id,
        [(ATTR_XOR_MAPPED_ADDRESS, &value[..])],
    );
}

/// A STUN message read in place: the header fields, and the attributes
/// borrowed from the wire. [`StunView::new`] accepts exactly what
/// [`StunMessage::parse`] does, which is built on it.
#[derive(Debug, Clone, Copy)]
pub struct StunView<'a> {
    /// Message type (method + class bits).
    pub msg_type: u16,
    /// 96-bit transaction id.
    pub transaction_id: [u8; 12],
    attrs: &'a [u8],
}

impl<'a> StunView<'a> {
    /// Validate the header and every attribute of `buf`.
    pub fn new(buf: &'a [u8]) -> Result<StunView<'a>, ProtoError> {
        need(buf, 20)?;
        if buf[0] & 0xC0 != 0 {
            return Err(ProtoError::BadMagic);
        }
        let msg_type = u16::from_be_bytes([buf[0], buf[1]]);
        let len = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        let cookie = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]);
        if cookie != MAGIC_COOKIE {
            return Err(ProtoError::BadMagic);
        }
        need(buf, 20 + len)?;
        let mut transaction_id = [0u8; 12];
        transaction_id.copy_from_slice(&buf[8..20]);
        let view = StunView {
            msg_type,
            transaction_id,
            attrs: &buf[20..20 + len],
        };
        view.attributes().try_for_each(|a| a.map(drop))?;
        Ok(view)
    }

    /// True for binding requests.
    pub fn is_request(&self) -> bool {
        self.msg_type & 0x0110 == 0x0000
    }

    /// True for success responses.
    pub fn is_success_response(&self) -> bool {
        self.msg_type & 0x0110 == 0x0100
    }

    /// The `(type, value)` attributes in wire order. One that overruns
    /// the message yields its error and ends the walk (never, for a view
    /// [`Self::new`] accepted).
    fn attributes(&self) -> impl Iterator<Item = Result<(u16, &'a [u8]), ProtoError>> {
        let mut rest = self.attrs;
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let attr = need(rest, 4).and_then(|()| {
                let ty = u16::from_be_bytes([rest[0], rest[1]]);
                let alen = u16::from_be_bytes([rest[2], rest[3]]) as usize;
                need(&rest[4..], alen)?;
                Ok((ty, &rest[4..4 + alen]))
            });
            rest = match attr {
                // Attributes are padded to 32-bit boundaries; tolerate
                // a missing final pad on the last attribute.
                Ok((_, v)) => &rest[(4 + v.len().div_ceil(4) * 4).min(rest.len())..],
                Err(_) => &[],
            };
            Some(attr)
        })
    }
}

/// Cheap wire test: does this UDP payload look like STUN? (First two bits
/// zero + magic cookie; the check Scallop's ingress parser applies.)
pub(crate) fn is_stun(buf: &[u8]) -> bool {
    buf.len() >= 20
        && buf[0] & 0xC0 == 0
        && u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]) == MAGIC_COOKIE
}

#[cfg(test)]
mod tests {
    use super::*;

    const TID: [u8; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
    /// Method+class: binding indication (keepalive without response).
    const TYPE_BINDING_INDICATION: u16 = 0x0011;
    /// Attribute: PRIORITY (ICE).
    const ATTR_PRIORITY: u16 = 0x0024;

    #[test]
    fn request_round_trip() {
        let mut req = StunMessage::binding_request(TID);
        req.set_username("alice:bob");
        req.attributes.push((ATTR_PRIORITY, vec![0, 1, 2, 3]));
        let bytes = req.serialize();
        assert!(is_stun(&bytes));
        let parsed = StunMessage::parse(&bytes).unwrap();
        assert_eq!(parsed, req);
        assert!(parsed.is_request());
        assert!(!parsed.is_success_response());
        assert_eq!(parsed.username().as_deref(), Some("alice:bob"));
    }

    #[test]
    fn success_response_with_xor_address() {
        let ip = Ipv4Addr::new(192, 168, 1, 77);
        let resp = StunMessage::binding_success(TID, ip, 50000);
        let bytes = resp.serialize();
        let parsed = StunMessage::parse(&bytes).unwrap();
        assert!(parsed.is_success_response());
        assert_eq!(parsed.xor_mapped_address(), Some((ip, 50000)));
        assert_eq!(parsed.transaction_id, TID);
    }

    #[test]
    fn xor_actually_obfuscates() {
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        let resp = StunMessage::binding_success(TID, ip, 4242);
        let raw = resp.attribute(ATTR_XOR_MAPPED_ADDRESS).unwrap();
        // The raw attribute must NOT contain the plain ip/port.
        assert_ne!(&raw[4..8], &u32::from(ip).to_be_bytes());
        assert_ne!(u16::from_be_bytes([raw[2], raw[3]]), 4242);
    }

    #[test]
    fn odd_length_attribute_padding() {
        let mut m = StunMessage::binding_request(TID);
        m.set_username("abc"); // 3 bytes -> 1 byte pad
        let bytes = m.serialize();
        assert_eq!(bytes.len() % 4, 0);
        let parsed = StunMessage::parse(&bytes).unwrap();
        assert_eq!(parsed.username().as_deref(), Some("abc"));
    }

    #[test]
    fn rejects_non_stun() {
        assert!(!is_stun(b"too short"));
        let mut bytes = StunMessage::binding_request(TID).serialize();
        bytes[4] = 0; // break cookie
        assert!(!is_stun(&bytes));
        assert_eq!(StunMessage::parse(&bytes), Err(ProtoError::BadMagic));
        // RTP-looking first byte.
        let mut rtpish = StunMessage::binding_request(TID).serialize();
        rtpish[0] = 0x80;
        assert!(!is_stun(&rtpish));
        assert_eq!(StunMessage::parse(&rtpish), Err(ProtoError::BadMagic));
    }

    #[test]
    fn rejects_truncated_attribute() {
        let mut m = StunMessage::binding_request(TID);
        m.set_username("abcdef");
        let mut bytes = m.serialize();
        // Claim a longer attribute than present.
        bytes[22] = 0x00;
        bytes[23] = 0xFF;
        assert!(StunMessage::parse(&bytes).is_err());
    }

    /// The writers append exactly what the owned messages serialize to,
    /// padding counted from where the message starts.
    #[test]
    fn writers_are_the_owned_messages_serialized() {
        let mut out = vec![0xAA];
        write_binding_request(&mut out, TID);
        assert_eq!(out[1..], StunMessage::binding_request(TID).serialize()[..]);
        let ip = Ipv4Addr::new(10, 3, 7, 1);
        out.truncate(1);
        write_binding_success(&mut out, TID, ip, 5000);
        let resp = StunMessage::binding_success(TID, ip, 5000);
        assert_eq!(out[1..], resp.serialize()[..]);
        let view = StunView::new(&out[1..]).unwrap();
        assert!(view.is_success_response() && !view.is_request());
        assert_eq!(view.transaction_id, TID);
        assert_eq!(view.msg_type, TYPE_BINDING_SUCCESS);
        let req = StunMessage::binding_request(TID).serialize();
        assert!(StunView::new(&req).unwrap().is_request());
    }

    #[test]
    fn indication_classified() {
        let ind = StunMessage {
            msg_type: TYPE_BINDING_INDICATION,
            transaction_id: TID,
            attributes: vec![],
        };
        let parsed = StunMessage::parse(&ind.serialize()).unwrap();
        assert!(!parsed.is_request());
        assert!(!parsed.is_success_response());
    }
}
