//! # scallop-client — WebRTC-behaviour endpoint model
//!
//! The SFU only ever observes clients through their wire behaviour; this
//! crate reproduces that behaviour faithfully enough that every
//! experiment's feedback loop closes exactly as in the paper:
//!
//! * [`gcc`] — receiver-side Google Congestion Control (§5.2): a
//!   trendline delay-gradient estimator, an adaptive-threshold over-use
//!   detector, and an AIMD remote-rate controller that produces the REMB
//!   values Scallop's switch agent filters and forwards.
//! * [`receiver`] — per-stream receive state: RFC 3550 interarrival
//!   jitter, loss accounting for receiver reports, the media decoder
//!   (freeze semantics from `scallop-media`), NACK/PLI generation.
//! * [`sender`] — media sending: SVC encoder + packetizer + audio source,
//!   a retransmission history answering NACKs, key frames on PLI, and
//!   REMB-driven encoder target updates.
//! * [`peer`] — the [`scallop_netsim::Node`] tying it together: timers
//!   for frames, RTCP reports, STUN keepalives; symmetric-RTP feedback
//!   routing (feedback goes back to the address media came from, which is
//!   exactly what makes Scallop's per-pair port splitting work, §5.3).
//!
//! The same `ClientNode` runs against the Scallop switch and the software
//! baseline SFU — neither end can tell the difference, which is the
//! point of the paper's "true proxy" design.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gcc;
pub mod peer;
pub mod receiver;
pub mod sender;

pub use gcc::{BandwidthEstimator, GccConfig};
pub use peer::{ClientConfig, ClientNode, ClientStats};
pub use receiver::ReceiverState;
pub use sender::MediaSender;
