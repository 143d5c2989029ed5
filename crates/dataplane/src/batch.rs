//! The forwarding engine's batch machinery: amortize parse, match, and
//! PRE walks over a burst of packets.
//!
//! [`ScallopDataPlane::process_batch`](crate::switch::ScallopDataPlane::process_batch)
//! is the data plane's one packet entry point. A real switch never sees
//! packets one at a time — it drains a burst from the ingress queue —
//! and a port's packets keep matching the same rule and the same flows
//! until the control plane writes a table. The engine exploits that:
//!
//! 1. **Classify, then parse.** A first pass classifies every packet of
//!    the burst from its first bytes, in a short loop whose loads do not
//!    depend on each other, so the burst's payload cache misses overlap.
//!    A second pass parses each packet as its class into a reusable
//!    [`ParsedPacket`] arena. Both run before any match work (the parse
//!    and match stages are independent, just like the hardware
//!    pipeline).
//! 2. **One ingress match per packet.** The data plane keeps, per media
//!    ingress port, the port's rule and the PRE flow each temporal tier
//!    of it starts — the tree walk with every replica's egress spec
//!    already matched — across calls (the flow table, `crate::flows`).
//!    One probe keyed by the destination port returns both. A port's
//!    entry holds until its rule is written; its flows until the PRE or
//!    the egress table is written. A packet whose port has no entry goes
//!    to the port tables, one whose flow is not held to the PRE and the
//!    egress table; both are an index, not a search. Saved work is
//!    counted in [`BatchStats`].
//! 3. **Punt by index.** CPU punts are recorded as indices into the
//!    caller's batch ([`BatchOutput::cpu_punts`]) — the agent reads the
//!    original slice, so a punt never clones a packet.
//!
//! Negative flow results are kept too (no such group, a replica without
//! an egress rule), and replaying one still charges the `no_rule_drops`
//! a cold lookup would. A port without a rule is not kept — its number
//! comes from the wire — nor is a feedback port, whose packets are few:
//! both are matched in the tables every time. Packets that resolve
//! nothing (STUN, unparseable) leave the table alone. A replay returns
//! what a cold resolution would, because an entry is dropped by any
//! write to the tables it read. So how a packet sequence is cut into
//! batches changes neither outputs, counters nor savings: one N-packet
//! call equals N one-packet calls byte for byte (enforced by
//! `tests/batch_equivalence.rs`).
//!
//! **Agent interleaving.** The switch agent may rewrite tables when it
//! handles a punted packet (e.g. a key-frame DD triggering a meeting
//! rebuild). A caller with an agent behind it therefore calls with one
//! packet and hands a punt over before the next packet is looked at —
//! that is the simulator's switch node. It still replays every flow it
//! has seen since the agent's last table write: a write bumps the
//! written table's version, and the next packet finds what the write
//! could change dropped and resolves it cold. Callers that own the
//! tables for the length of a burst (benches, tests, the repo benchmark)
//! pass the whole burst, and also overlap its payload fetches.
//!
//! **Egress: descriptors, not copies.** The PRE replicates a packet's
//! descriptor and the egress deparser rewrites two header bytes per
//! receiver (§6.1–6.3), so no replica copies the payload: every replica
//! is the ingress [`Packet`] re-addressed, sharing its buffer (one
//! reference-count bump), and is written once, in its slot of
//! [`BatchOutput::forwards`] ([`Packet::push_replica`]). A replica the
//! Stream Tracker renumbers carries its new RTP sequence number in the
//! packet's overlay, which sits in the struct's padding;
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
use scallop_netsim::packet::Packet;

/// What the flow table saved relative to resolving every packet cold.
/// Cumulative across batches, like
/// [`DataPlaneCounters`](crate::switch::DataPlaneCounters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// `process_batch` calls.
    pub batches: u64,
    /// Packets processed.
    pub batch_pkts: u64,
    /// Port-rule matches served from the flow table, without a port
    /// table lookup.
    pub port_lookups_saved: u64,
    /// Egress matches served from the flow table (one per replica of a
    /// replayed flow).
    pub egress_lookups_saved: u64,
    /// PRE tree walks served from the flow table.
    pub pre_walks_saved: u64,
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
    /// Parse arena: one [`ParsedPacket`] per input packet, classified
    /// and then parsed by the parse stage.
    pub(crate) parsed: Vec<ParsedPacket>,
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
