//! # scallop-media — scalable media model (AV1 L1T3)
//!
//! The paper's rate adaptation rests on one property of SVC streams:
//! *"reducing the media resolution or frame rate can be achieved by
//! dropping a specific subset of packets"* (§3). This crate models media at
//! exactly the granularity the SFU observes:
//!
//! * [`svc`] — the L1T3 temporal-layer schedule of Fig. 9: which frame in
//!   the cadence belongs to which temporal layer / template id, and the
//!   dependency rules between frames.
//! * [`encoder`] — a synthetic AV1-SVC video encoder: produces sized,
//!   layer-labeled frames at a target bitrate, honors REMB-driven bitrate
//!   changes and PLI-driven key-frame requests.
//! * [`audio`] — an Opus-like constant-rate audio source (50 pkts/s).
//! * [`packetizer`] — frames → RTP packets with AV1 dependency-descriptor
//!   extensions; a layer (frame) never crosses a packet boundary, and key
//!   frames carry the extended DD with the template structure (§5.4).
//! * [`decoder`] — the receiver's decoder state machine, reproducing the
//!   failure semantics §6.2 depends on: sequence-number *gaps* trigger
//!   retransmission requests, but *duplicate* sequence numbers break
//!   decoder state and freeze playback until the next key frame.
//!
//! No actual video is encoded: frame payloads are opaque byte runs of the
//! right size. Every behaviour the SFU and the experiments observe
//! (packet sizes, cadence, layer labels, decode/freeze dynamics) is
//! faithful.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audio;
pub mod decoder;
pub mod encoder;
pub mod packetizer;
pub mod svc;

pub use decoder::{Decoder, DecoderEvent};
pub use encoder::{EncodedFrame, EncoderConfig, VideoEncoder};
pub use packetizer::{packetize, Packetizer, DEFAULT_MTU};
pub use svc::{FrameLabel, L1T3Schedule, TemporalLayer};
