//! # scallop-netsim — deterministic discrete-event network simulator
//!
//! This crate is the substrate every Scallop experiment runs on. The paper
//! evaluates on a hardware testbed (Tofino2 switch + client servers); this
//! reproduction replaces the testbed with a seedable, nanosecond-resolution
//! discrete-event simulation so that every figure can be regenerated
//! bit-for-bit from a seed.
//!
//! ## Model
//!
//! * A [`Simulator`] owns a set of [`Node`]s. A node is a host identified by
//!   one or more IPv4 addresses (a client, an SFU server, a switch).
//! * Each node attaches to the network through an *access link pair*
//!   (uplink + downlink), each a [`link::Link`] with a transmission rate, a
//!   propagation delay, a drop-tail queue, and an optional fault injector
//!   ([`fault::FaultConfig`]: Bernoulli or Gilbert–Elliott loss, duplication,
//!   reordering, jitter).
//! * A packet sent from A to B experiences A's uplink (queueing +
//!   serialization + propagation) followed by B's downlink. This mirrors the
//!   paper's uplink/downlink vocabulary (§5.3) and is exact for the
//!   star topologies used throughout the evaluation.
//! * Nodes interact with the world only through [`Ctx`]: reading the virtual
//!   clock, sending packets, scheduling timers, and drawing deterministic
//!   randomness.
//!
//! ## What is intentionally omitted
//!
//! Following the smoltcp tradition of stating non-features: there is no
//! routing protocol, no TCP, no ARP, and no real I/O — experiments here need
//! only UDP-like datagram delivery with controllable impairments.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
pub mod link;
pub mod packet;
mod queue;
pub mod relay;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;

pub use fault::{FaultConfig, JitterModel, LossModel};
pub use link::{Link, LinkConfig};
pub use packet::{HostAddr, Packet, WIRE_OVERHEAD_BYTES};
pub use relay::{PortRangeRoute, RelayNode, RelayStats};
pub use rng::DetRng;
pub use sim::{Ctx, Node, NodeId, Simulator, TimerToken};
pub use time::{SimDuration, SimTime};
pub use topology::{SwitchRole, SwitchSpec, Topology};
pub use trace::{TraceRecord, TraceSink};
