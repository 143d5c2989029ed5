//! The forwarding engine's batch machinery: amortize parse, match, and
//! PRE walks over a burst of packets.
//!
//! [`ScallopDataPlane::process_batch`](crate::switch::ScallopDataPlane::process_batch)
//! is the data plane's one packet entry point. A real switch never sees
//! packets one at a time — it drains a burst from the ingress queue —
//! and almost every packet in a burst shares its match results with a
//! neighbour (the same sender keeps sending on the same uplink port).
//! The engine exploits that:
//!
//! 1. **Parse first.** The whole batch is parsed into a reusable
//!    [`ParsedPacket`] arena before any match work runs (the parse and
//!    match stages are independent, just like the hardware pipeline).
//! 2. **Resolve each flow once per table version.** The data plane
//!    keeps every PRE flow it resolved — the tree walk with every
//!    replica's egress spec already matched — across calls, until the
//!    PRE or the egress table is written (the flow table, `crate::flows`).
//!    A packet of a flow seen since the last write replays that
//!    resolution instead of walking and matching again, whichever call
//!    it arrives in; the ingress port rule is remembered for the next
//!    packet of the same call only (a one-entry memo). A packet that
//!    misses goes to the tables, which are an index, not a search. Saved
//!    work is counted in [`BatchStats`].
//! 3. **Punt by index.** CPU punts are recorded as indices into the
//!    caller's batch ([`BatchOutput::cpu_punts`]) — the agent reads the
//!    original slice, so a punt never clones a packet.
//!
//! Negative results are kept too (no port rule, no such group, a replica
//! without an egress rule), and replaying one still charges the
//! `no_rule_drops` a cold lookup would; packets that resolve nothing
//! (STUN, unparseable) leave both alone. A replay returns what a cold
//! resolution would, because the flow table is emptied by any write to
//! the tables it read, and no port rule can change inside one call. So
//! how a packet sequence is cut into batches changes neither outputs nor
//! counters: one N-packet call equals N one-packet calls byte for byte
//! (enforced by `tests/batch_equivalence.rs`).
//!
//! **Agent interleaving.** The switch agent may rewrite tables when it
//! handles a punted packet (e.g. a key-frame DD triggering a meeting
//! rebuild). A caller with an agent behind it therefore calls with one
//! packet and hands a punt over before the next packet is looked at —
//! that is the simulator's switch node. It still replays every flow it
//! has seen since the agent's last table write: a write bumps the
//! written table's version, and the next packet finds the flow table
//! empty and resolves cold. Callers that own the tables for the length
//! of a burst (benches, tests, the repo benchmark) pass the whole burst,
//! and also save the port matches of adjacent packets.
//!
//! **Egress: descriptors, not copies.** The PRE replicates a packet's
//! descriptor and the egress deparser rewrites two header bytes per
//! receiver (§6.1–6.3), so no replica copies the payload: every replica
//! is the ingress [`Packet`] re-addressed, sharing its buffer (one
//! reference-count bump). A replica the Stream Tracker renumbers carries
//! its new RTP sequence number in the packet's overlay
//! ([`Packet::with_seq_overlay`]), which sits in the struct's padding;
//! the bytes on the wire are the payload with that number written over
//! bytes 2..4 ([`Packet::wire_bytes`]), the length and every byte
//! counter are unchanged, and whatever reads an RTP header off a
//! simulated packet — this data plane's parse stage, `client::peer` —
//! reads the sequence number through the overlay. A rate-adapted
//! receiver's NACK, shifted back to the sender's numbers, is the one
//! thing the data plane writes: it is rebuilt into a buffer from a
//! [`BufPool`](scallop_netsim::packet::BufPool), refilled once the
//! forwarded NACK has been delivered.
//!
//! **What a view pins.** A view keeps its *whole* backing allocation
//! alive: a replica pins the buffer its *sender* built — a video frame's
//! packets lie back to back in one buffer (`media::packetizer`) — and an
//! `RtpPacket.payload` from `RtpPacket::parse_bytes` pins the wire buffer
//! it was parsed from. The count behind a view is a plain `Rc` (the
//! vendored `bytes` is not `Send`; nothing here crosses a thread), so
//! taking or dropping one is an increment, not an atomic. Everything that
//! can hold one beyond delivery is bounded:
//!
//! * the sender refills a frame buffer from its own pool once every
//!   replica of every packet cut from it has been delivered and dropped;
//!   the pool keeps at most 64 frames (two seconds at 30 fps), and a
//!   buffer still read past that — a replica waiting out a constrained
//!   receiver's full queue — is let go of and freed by its last reader;
//! * `core::switchnode`'s departure lanes hold forwards for the fixed
//!   pipeline latency (agent responses for the agent latency) and the
//!   simulator's event queue for one link traversal — both drain in
//!   bounded simulated time;
//! * `client::peer` reads datagrams in place, and `media::decoder`
//!   assembles frames from sequence numbers and payload *lengths* while
//!   `client::receiver` keeps arrival statistics only, so nothing on the
//!   receive side retains a payload;
//! * the NACK/RTX history (`client::sender`) keeps headers and payload
//!   lengths in a fixed ring, never a view of a frame or of a received
//!   datagram;
//! * `baseline::sfu` (the software SFU) copies every replica into an
//!   owned buffer.

use crate::parser::ParsedPacket;
use crate::rules::PortRule;
use scallop_netsim::packet::Packet;

/// What the port memo and the flow table saved relative to resolving
/// every packet cold. Cumulative across batches, like
/// [`DataPlaneCounters`](crate::switch::DataPlaneCounters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// `process_batch` calls.
    pub batches: u64,
    /// Packets processed.
    pub batch_pkts: u64,
    /// Port-rule matches served from the previous packet's resolution.
    pub port_lookups_saved: u64,
    /// Egress matches served from the flow table (one per replica of a
    /// replayed flow).
    pub egress_lookups_saved: u64,
    /// PRE tree walks served from the flow table.
    pub pre_walks_saved: u64,
}

/// Per-call match state: the previous port resolution, and the savings
/// of this call. Egress has no memo of its own — a flow's replicas are
/// kept with every replica's egress already resolved.
#[derive(Debug, Default)]
pub(crate) struct BatchCaches {
    /// Last dst port matched and its rule (`None` = no rule).
    pub(crate) port: Option<(u16, Option<PortRule>)>,
    /// Savings accumulated this batch, folded into [`BatchStats`] when
    /// the batch ends.
    pub(crate) port_lookups_saved: u64,
    pub(crate) egress_lookups_saved: u64,
    pub(crate) pre_walks_saved: u64,
}

/// Output of one batch: the forwarded packets, the punt ring, and the
/// reusable arenas. Create once per switch and pass it to every call.
#[derive(Debug, Default)]
pub struct BatchOutput {
    /// Packets to emit toward clients/trunks, in input order (a packet's
    /// replicas in PRE order).
    pub forwards: Vec<Packet>,
    /// CPU punt ring: indices into the *input* batch slice, in punt
    /// order. The agent reads `batch[i]` — no packet is cloned.
    pub cpu_punts: Vec<u32>,
    /// Amortization accounting (cumulative across batches).
    pub stats: BatchStats,
    /// Parse arena: one [`ParsedPacket`] per input packet, filled by
    /// the parse stage.
    pub(crate) parsed: Vec<ParsedPacket>,
    /// The port memo (reset per batch) and this batch's savings.
    pub(crate) caches: BatchCaches,
}

impl BatchOutput {
    /// Reset for a new input batch (`process_batch` starts with this),
    /// keeping allocated capacity. `stats` is cumulative and survives,
    /// like the data plane's own counters.
    pub(crate) fn clear(&mut self) {
        self.forwards.clear();
        self.cpu_punts.clear();
        self.parsed.clear();
    }
}
