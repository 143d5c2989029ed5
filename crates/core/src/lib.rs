#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # scallop-core — the Scallop SFU (the paper's contribution)
//!
//! Scallop decouples a selective forwarding unit into a hardware data
//! plane (in `scallop-dataplane`) and a two-tier software control plane,
//! which lives here:
//!
//! * [`controller`] — the centralized controller's meeting operations
//!   (§5.1), as an `impl` block of [`shard::ShardedControlPlane`]:
//!   SDP signaling interception and candidate rewriting (the
//!   proxy-topology splice), meeting creation and membership, re-homing,
//!   trunk repair and edge evacuation, and compilation of data-plane
//!   configuration. Invoked only on session/membership/media changes.
//! * [`meeting`] — the per-meeting control state
//!   ([`meeting::FabricMeetingState`]): one record per meeting, kept in
//!   the plane's one store.
//! * [`shard`] — the controller itself, [`shard::ShardedControlPlane`]:
//!   one meeting store, physically distributed by consistent-hashing
//!   ownership of its records (with bounded loads) over N shards; a
//!   handoff rewrites the record's owner, never moves it, so control
//!   load scales with edges. The ring, loads and readers live here.
//! * [`agent`] — the switch agent (§4, §5.2–5.5): runs on the switch
//!   CPU; analyzes REMB/RR copies, maintains per-downlink EWMAs and the
//!   feedback-selection filter `f` (§5.3), invokes the pluggable
//!   `selectDecodeTarget` policy (§5.4), analyzes extended AV1 dependency
//!   descriptors from key frames, answers STUN, and manages replication
//!   trees — including the two-party / NRA / RA-R / RA-SR designs of
//!   §6.1 and live migration between them.
//! * [`switchnode`] — the deployable switch: data plane + agent behind a
//!   single simulation node, with the pipeline's fixed forwarding latency
//!   and the agent's CPU-path latency.
//! * [`fabric`] — the campus switching fabric (§7's deployment setting):
//!   edge switches built from a [`scallop_netsim::topology::Topology`],
//!   core relays for the trunk tier, and the controller's cross-switch
//!   compilation — each sender's media crosses every trunk once per
//!   remote switch (a trunk-egress branch at full quality), then fans
//!   out per receiver through the remote switch's own PRE.
//! * [`capacity`] — the analytic capacity models behind §7.2/§7.4
//!   (Figs. 15–17 and the 128 K / 42.7 K / 4.3 K / 533 K headline
//!   numbers).
//! * [`harness`] — turn-key experiment assembly: a meeting of N clients
//!   wired through a Scallop switch, with link-impairment hooks.

pub mod agent;
pub mod capacity;
pub mod controller;
pub mod fabric;
pub mod harness;
pub mod meeting;
pub mod shard;
pub mod switchnode;

pub use agent::{
    AdaptationPolicy, JoinGrant, MeetingId, ParticipantClass, ParticipantId, SwitchAgent,
    TreeDesign,
};
pub use capacity::{
    AdmissionCounts, AdmissionDecision, CapacityModel, FabricBudgets, FabricLoadLedger,
    RefusalReason,
};
pub use controller::{FabricGrant, GlobalMeetingId, GlobalParticipantId, JoinOutcome, JoinRequest};
pub use fabric::Fabric;
pub use harness::{HarnessConfig, HarnessReport, ScallopHarness};
pub use meeting::FabricMeetingState;
pub use shard::{HashRing, RebalanceSummary, ShardedControlPlane};
pub use switchnode::{ScallopSwitchNode, SwitchConfig};
