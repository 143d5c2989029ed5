//! # Scallop — scalable video conferencing using SDN principles
//!
//! This is the facade crate of the Scallop reproduction (Michel et al.,
//! SIGCOMM 2025). It re-exports all workspace crates under one namespace so
//! examples and downstream users can depend on a single crate:
//!
//! * [`netsim`] — deterministic discrete-event network simulation substrate,
//!   including the fabric [`netsim::topology`] (edge + core switches joined
//!   by trunks) and the core-tier [`netsim::relay`].
//! * [`proto`] — RTP/RTCP/STUN/SDP and AV1 dependency-descriptor wire formats.
//! * [`media`] — scalable (L1T3) media model: encoder, packetizer, decoder.
//! * [`dataplane`] — Tofino-model programmable switch data plane, with
//!   trunk-ingress rules and per-remote-switch trunk accounting.
//! * [`client`] — WebRTC-behaviour endpoint (GCC, feedback, jitter buffer).
//! * [`baseline`] — split-proxy software SFU baseline with a CPU cost model.
//! * [`core`] — the Scallop SFU itself: controller + switch agent +
//!   campus switching fabric ([`core::fabric`]) + capacity models.
//! * [`workload`] — campus workload models (buildings map onto fabric
//!   edges) and Zoom-like trace synthesis.
//!
//! ## Quick start
//!
//! ```
//! use scallop::core::harness::{ScallopHarness, HarnessConfig};
//!
//! // Three participants in one meeting, all sending audio+video, for 2 s.
//! let mut h = ScallopHarness::new(HarnessConfig::default().participants(3));
//! let report = h.run_for_secs(2.0);
//! assert_eq!(report.participants, 3);
//! assert!(report.media_packets_forwarded > 0);
//! ```
//!
//! ## Campus fabric
//!
//! The same harness scales past one switch: shard the meeting across a
//! fabric of edge switches (participants attach round-robin) joined by
//! core relays. Each sender's media crosses every trunk **once per
//! remote switch** and fans out again through the remote switch's own
//! replication engine.
//!
//! ```
//! use scallop::core::harness::{ScallopHarness, HarnessConfig};
//!
//! // Four participants sharded over two edge switches + one core.
//! let mut h = ScallopHarness::new(
//!     HarnessConfig::default().participants(4).switches(2).cores(1),
//! );
//! let report = h.run_for_secs(2.0);
//! assert!(report.trunk_packets > 0, "cross-switch media rides trunks");
//! ```
//!
//! ## Sharded control plane
//!
//! At campus scale a single controller owning every meeting becomes
//! the control-plane bottleneck; the `shards` knob partitions meeting
//! ownership over N controller instances ([`core::shard`]) with
//! consistent hashing + bounded loads and a make-before-break
//! ownership-handoff protocol. Sharding is control-plane bookkeeping
//! only — media-plane reports are identical for any shard count.
//!
//! ```
//! use scallop::core::harness::{ScallopHarness, HarnessConfig};
//!
//! let cfg = HarnessConfig::default().participants(6).switches(2).cores(1);
//! let mut sharded = ScallopHarness::new(cfg.shards(4));
//! let mut single = ScallopHarness::new(cfg.shards(1));
//! let (a, b) = (sharded.run_for_secs(1.0), single.run_for_secs(1.0));
//! assert_eq!(a.frames_decoded, b.frames_decoded, "sharding is transparent");
//! // Ownership balance is guaranteed: ceil(meetings/shards) + 1.
//! assert!(sharded.controller.meetings_per_shard().iter().all(|&c| c <= 2));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use scallop_baseline as baseline;
pub use scallop_client as client;
pub use scallop_core as core;
pub use scallop_dataplane as dataplane;
pub use scallop_media as media;
pub use scallop_netsim as netsim;
pub use scallop_proto as proto;
pub use scallop_workload as workload;
