//! # scallop-proto — conferencing wire formats
//!
//! Parsers and serializers for every protocol a WebRTC SFU touches on the
//! wire, implemented from the RFCs the paper builds on:
//!
//! * [`rtp`] — RTP (RFC 3550) with RFC 8285 one-byte / two-byte header
//!   extensions. Scallop's data plane forwards, replicates, and rewrites
//!   these packets (§3, §6).
//! * [`rtcp`] — RTCP compound packets: SR, RR, SDES, BYE, NACK (RTPFB),
//!   PLI and REMB (PSFB). Scallop's switch agent analyzes RRs and REMBs to
//!   drive rate adaptation (§5.2–5.5).
//! * [`stun`] — STUN (RFC 5389) binding requests/responses used by ICE
//!   connectivity checks; handled in Scallop's control plane (§5.1).
//! * [`sdp`] — a Session Description Protocol subset sufficient for
//!   WebRTC offer/answer with ICE candidates; Scallop's controller rewrites
//!   candidates to splice itself into the media path (§5.1).
//! * [`av1`] — the AV1 dependency descriptor RTP extension carrying the
//!   SVC template id each packet belongs to; the data plane parses the
//!   mandatory fields, the control plane the extended structure (§5.4,
//!   Appendix E).
//! * [`demux`] — the first-nibble UDP payload classifier (RTP vs RTCP vs
//!   STUN) that Scallop's ingress parser applies (Appendix E).
//!
//! ## Design notes
//!
//! Parsers are total over arbitrary bytes (property-tested: no panics),
//! return typed [`ProtoError`]s, and operate on `&[u8]` without copying
//! payloads. Serializers produce `Vec<u8>`/`bytes::Bytes` and round-trip
//! exactly with the parsers.
//!
//! ## Omissions (documented per the smoltcp tradition)
//!
//! * SRTP encryption/authentication is not implemented (paper §8 leaves it
//!   to future work; payloads here are opaque plaintext).
//! * RTCP XR, transport-wide CC (TWCC) feedback, and compound-packet
//!   padding variants are not implemented — the paper's design explicitly
//!   chooses REMB over TWCC (§5.2).
//! * The AV1 extended dependency descriptor uses a faithful but simplified
//!   bit layout for template structures (see [`av1`] docs).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod av1;
pub mod bits;
pub mod demux;
pub mod error;
pub mod rtcp;
pub mod rtp;
pub mod sdp;
pub mod stun;

pub use demux::{classify, PacketClass};
pub use error::ProtoError;

/// Synchronization source identifier (RFC 3550).
pub type Ssrc = u32;
