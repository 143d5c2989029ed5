//! # scallop-dataplane — Tofino-model programmable switch
//!
//! A behavioural model of the Intel Tofino2 pipeline that the paper's data
//! plane (§6) runs on, faithful to the *constraints* that shape Scallop's
//! design rather than to silicon timing:
//!
//! * [`pre`] — the Packet Replication Engine of §6.3/Fig. 13: up to 64 K
//!   multicast trees, 16.8 M L1 nodes, RIDs, and L1/L2 exclusion-ID
//!   pruning. Scallop's NRA/RA-R/RA-SR tree designs are built on these
//!   primitives by `scallop-core`.
//! * [`tables`] — exact-match match-action tables with capacity and SRAM
//!   accounting (the control plane guarantees collision-free indices,
//!   §6.2, so exact tables model the hash tables of the prototype).
//! * [`seqrewrite`] — the Stream Tracker and its two hardware sequence-
//!   rewriting heuristics, S-LM (low memory) and S-LR (low
//!   retransmission), plus a software oracle used to quantify their error
//!   (Fig. 18). The tracker's six register arrays are modelled as one
//!   six-word row per stream, allocated as streams arrive.
//! * [`parser`] — the depth-aware ingress parser of Appendix E: first-
//!   nibble classification and RTP-extension walking with parse-depth
//!   accounting.
//! * [`rules`] — the rule schema the switch agent installs.
//! * [`switch`] — the assembled Scallop data-plane program: classify →
//!   match → replicate → adapt (drop by template id) → rewrite → emit,
//!   with CPU-port copies for the switch agent and full packet/byte
//!   counters (Table 1, Fig. 22).
//! * [`batch`] — the forwarding engine's batch machinery: classify a
//!   burst, then parse it, then match each packet with one probe of the
//!   flow table — keyed by ingress port, it holds a media port's rule and
//!   the PRE flow each tier of it resolved since the tables were last written
//!   — before walking the tables; CPU punts are indices into the input
//!   burst.
//! * [`soa`] — dense struct-of-arrays port-rule registers mirroring the
//!   hot span of the ingress match (hash-free lookups on the
//!   contiguous per-edge port ranges).
//! * [`resources`] — Tofino resource utilization reporting (Table 3).
//!
//! The model enforces the same resource limits as the hardware
//! (tree/node/RID/register budgets) and performs the same per-packet
//! operations, so capacity results and correctness behaviours transfer.
//! Absolute forwarding latency is a calibrated constant (≈1 µs) instead
//! of a measured one.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
mod flows;
pub mod parser;
pub mod pre;
pub mod resources;
pub mod rules;
pub mod seqrewrite;
pub mod soa;
pub mod switch;
pub mod tables;

pub use batch::{BatchOutput, BatchStats};
pub use pre::{PacketReplicationEngine, PreError, Replica};
pub use rules::{EgressSpec, PortRule, ReplicationAction};
pub use seqrewrite::{OracleRewriter, RewriteVerdict, SeqRewriteMode, StreamTracker};
pub use soa::DensePortRules;
pub use switch::{DataPlaneCounters, ScallopDataPlane};
