//! The discrete-event simulator core: nodes, events, timers, routing.
//!
//! A [`Simulator`] owns boxed [`Node`]s and a time-ordered event queue.
//! Packets travel source-node → source uplink → destination downlink →
//! destination node (two queueing points, matching the uplink/downlink
//! model of §5.3). A downlink that cannot queue or fault is a pure delay,
//! and a packet is admitted to it as it is sent, without an event of its
//! own. Nodes never touch each other directly; they interact
//! exclusively through packets and timers, which keeps the simulation
//! deterministic and lets the same client code run against either SFU
//! implementation (Scallop switch or the software baseline).
//!
//! **Event order is `(at, push order)`**: the earliest event runs first,
//! and events for one instant run in the order they were pushed. Every
//! simulated counter and checked-in baseline is a function of that order,
//! so it is the queue's contract, not an accident of its structure. The
//! queue that meets it is a calendar queue (the private `queue` module: a
//! ring of sorted 8 µs buckets over one slab, a binary heap only for
//! events more than 67 ms out); [`Simulator::step`] and
//! [`Simulator::run_until`] are both one `pop_until(deadline)` on it.
//!
//! **A hop neither searches nor allocates.** A sent packet's destination
//! address is resolved in an open-addressed table keyed by the `u32`
//! address under a fixed multiplicative hash and kept at most a quarter
//! full, so a lookup is a probe or two, never a search; the fail-stop
//! flags every hop checks sit in one dense vector beside the nodes; the
//! links are O(1); and the events, the node's outbox and its timer list
//! reuse storage that has stopped growing. What a packet costs beyond
//! that is its payload, which the nodes build in recycled buffers
//! (`packet::BufPool`).

use crate::link::{Link, LinkConfig, LinkVerdict};
use crate::packet::Packet;
use crate::queue::CalendarQueue;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceDirection, TraceRecord, TraceSink};
use std::any::Any;
use std::net::Ipv4Addr;

/// Handle identifying a node inside a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index (stable for the lifetime of the simulator).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Opaque timer payload. Nodes encode their own meaning (e.g. "RTCP
/// interval", "encoder tick") in the integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// Behaviour plugged into the simulator.
///
/// `Any` is a supertrait so harnesses can downcast nodes for inspection
/// between simulation runs (`Simulator::node_mut`).
pub trait Node: Any {
    /// A packet addressed to one of this node's IPs arrived.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet);

    /// A previously scheduled timer fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken);

    /// Called once when the node is added, with its id and the start time.
    /// Nodes typically schedule their first timers here.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
}

/// The node-facing API surface for interacting with the world.
pub struct Ctx<'a> {
    now: SimTime,
    rng: &'a mut DetRng,
    outbox: &'a mut Vec<Packet>,
    timers: &'a mut Vec<(SimTime, TimerToken)>,
}

impl<'a> Ctx<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Send a packet. It departs through this node's uplink at the current
    /// time and is routed to the node owning `pkt.dst.ip`.
    pub fn send(&mut self, pkt: Packet) {
        self.outbox.push(pkt);
    }

    /// Schedule a timer for this node `after` from now.
    pub fn schedule(&mut self, after: SimDuration, token: TimerToken) {
        self.timers.push((self.now + after, token));
    }

    /// Deterministic randomness (shared stream, draws are part of the
    /// simulation's reproducible state).
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }
}

#[derive(Debug)]
enum EventKind {
    /// Deliver a packet into a node (it already traversed both links).
    Deliver { dst: NodeId, pkt: Packet },
    /// A packet finished the source uplink; offer it to the destination
    /// downlink at this time. Only a downlink that can queue or fault
    /// needs the offer made on arrival: a packet for a pure-delay
    /// downlink (infinite rate, clean faults) is offered to it when it is
    /// sent and queued straight as a `Deliver`. Uplink duplicates and
    /// injected packets always take this event.
    DownlinkAdmit { dst: NodeId, pkt: Packet },
    /// Fire a node timer.
    Timer { node: NodeId, token: TimerToken },
}

struct NodeSlot {
    node: Box<dyn Node>,
    uplink: Link,
    downlink: Link,
}

/// IPv4 address -> owning node. Every transmit resolves its destination
/// here, so a lookup is one fixed multiplicative hash of the address and,
/// with the table at most a quarter full, a probe or two of linear open
/// addressing over one power-of-two array: no search and no allocation.
/// A slot is `(address, node index + 1)`, 0 marking it empty, so every
/// address — `0.0.0.0` included — can be a key.
#[derive(Default)]
struct RouteTable {
    slots: Vec<(u32, u32)>,
    len: usize,
    /// `32 - log2(slots.len())`: the product's top bits pick the slot.
    shift: u32,
}

impl RouteTable {
    /// ⌊2³² / φ⌋ (Fibonacci hashing): consecutive addresses, which is how
    /// topologies hand them out, land far apart.
    const HASH: u32 = 0x9E37_79B9;
    const MIN_SLOTS: usize = 16;

    /// The slot holding `key`, or the empty one where it would go.
    fn slot(&self, key: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(Self::HASH) >> self.shift) as usize;
        while self.slots[i].1 != 0 && self.slots[i].0 != key {
            i = (i + 1) & mask;
        }
        i
    }

    fn get(&self, ip: Ipv4Addr) -> Option<NodeId> {
        if self.slots.is_empty() {
            return None;
        }
        let (_, node) = self.slots[self.slot(u32::from(ip))];
        node.checked_sub(1).map(|n| NodeId(n as usize))
    }

    /// Panics when `ip` already has an owner.
    fn insert(&mut self, ip: Ipv4Addr, node: NodeId) {
        if (self.len + 1) * 4 > self.slots.len() {
            self.grow();
        }
        let i = self.slot(u32::from(ip));
        assert!(
            self.slots[i].1 == 0,
            "IP {ip} already owned by another node"
        );
        let node = u32::try_from(node.0 + 1).expect("fewer than 2^32 nodes");
        self.slots[i] = (u32::from(ip), node);
        self.len += 1;
    }

    /// Double the table (rehashing every route) to keep it a quarter full.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); slots]);
        self.shift = 32 - slots.trailing_zeros();
        for (key, node) in old.into_iter().filter(|&(_, node)| node != 0) {
            let i = self.slot(key);
            self.slots[i] = (key, node);
        }
    }
}

/// Statistics for a whole simulation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStats {
    /// Events processed.
    pub events: u64,
    /// Packets delivered to nodes.
    pub packets_delivered: u64,
    /// Packets dropped on any link.
    pub packets_dropped: u64,
    /// Packets sent to addresses no node owns.
    pub packets_unroutable: u64,
    /// Packets discarded by fail-stop injection: addressed to a killed
    /// node, or across a cut link.
    pub packets_failstopped: u64,
}

/// The discrete-event simulator.
pub struct Simulator {
    nodes: Vec<NodeSlot>,
    /// Per node: fail-stopped by [`Simulator::kill_node`], so every event
    /// addressed to it is discarded at pop time until a revive. Kept apart
    /// from the node slots, each two links wide, because every transmit
    /// reads the destination's flag and nothing else of its slot.
    dead: Vec<bool>,
    routes: RouteTable,
    /// Pending events, popped in `(at, push order)` order.
    queue: CalendarQueue<EventKind>,
    now: SimTime,
    rng: DetRng,
    /// Side-effect buffers lent to the node of each [`Self::invoke`].
    outbox: Vec<Packet>,
    timers: Vec<(SimTime, TimerToken)>,
    /// Fail-stopped link pairs (normalized lower index first): packets
    /// between the two nodes are discarded at transmit time.
    cuts: std::collections::HashSet<(usize, usize)>,
    /// Run-level statistics.
    pub stats: SimStats,
    /// Optional packet trace capture (records every node delivery).
    pub trace: TraceSink,
}

impl Simulator {
    /// Create a simulator with the given seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            dead: Vec::new(),
            routes: RouteTable::default(),
            queue: CalendarQueue::new(),
            now: SimTime::ZERO,
            rng: DetRng::new(seed),
            outbox: Vec::new(),
            timers: Vec::new(),
            cuts: std::collections::HashSet::new(),
            stats: SimStats::default(),
            trace: TraceSink::disabled(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Inert: the simulator is single-threaded and delivers one packet
    /// at a time, so there is no worker count to set. The frozen
    /// benchmark driver (`benchmark/src/sut.rs`) is the only caller; this
    /// shim goes with its `netsim.sim.workers2_ratio` probe in the next
    /// `benchmark` PR.
    pub fn set_workers(&mut self, n: usize) {
        assert!(n >= 1, "worker count must be at least 1");
    }

    /// Add a node with the given access-link pair and owned IPs. The node's
    /// `on_start` runs immediately.
    pub fn add_node(
        &mut self,
        node: Box<dyn Node>,
        ips: &[Ipv4Addr],
        uplink: LinkConfig,
        downlink: LinkConfig,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeSlot {
            node,
            uplink: Link::new(uplink),
            downlink: Link::new(downlink),
        });
        self.dead.push(false);
        for ip in ips {
            self.routes.insert(*ip, id);
        }
        self.invoke(id, |node, ctx| node.on_start(ctx));
        id
    }

    /// Register an additional IP for an existing node.
    pub fn add_route(&mut self, ip: Ipv4Addr, node: NodeId) {
        self.routes.insert(ip, node);
    }

    /// Look up which node owns an IP.
    pub fn route(&self, ip: Ipv4Addr) -> Option<NodeId> {
        self.routes.get(ip)
    }

    /// Mutable access to a node, downcast to its concrete type. Panics if
    /// the id is invalid; returns `None` on type mismatch.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        let slot = self.nodes.get_mut(id.0).expect("invalid NodeId");
        (slot.node.as_mut() as &mut dyn Any).downcast_mut::<T>()
    }

    /// Mutable access to a node's downlink.
    ///
    /// A packet for a downlink that can queue or fault is offered to it
    /// when it arrives there, so a reconfiguration applies to every
    /// packet still on its way. A packet for a pure-delay downlink
    /// (infinite rate, no loss, jitter, reordering or duplication) was
    /// offered to it when it was sent: a reconfiguration of such a
    /// downlink applies to packets sent after it.
    pub fn downlink_mut(&mut self, id: NodeId) -> &mut Link {
        &mut self.nodes[id.0].downlink
    }

    /// Fail-stop a node at the current tick. The node's queued and
    /// future events (packets *and* timers) are discarded at pop time,
    /// so it stops consuming, emitting, and counting immediately — its
    /// state is frozen, not destroyed, and stays inspectable through
    /// [`Simulator::node_mut`]. A run that never kills anything is
    /// event-for-event identical to one built without this API: the
    /// check is a flag read, with no RNG draws and no re-ordering.
    pub fn kill_node(&mut self, id: NodeId) {
        self.dead[id.0] = true;
    }

    /// Undo [`Simulator::kill_node`]: the node receives traffic again.
    /// Events discarded while dead are gone forever — in particular a
    /// self-rescheduling timer chain broken by the kill does not
    /// restart, so reviving is only transparent for purely reactive
    /// nodes (e.g. relays); stateful switches need control-plane
    /// re-admission on top.
    pub fn revive_node(&mut self, id: NodeId) {
        self.dead[id.0] = false;
    }

    /// Whether `id` is currently fail-stopped.
    pub fn node_is_dead(&self, id: NodeId) -> bool {
        self.dead[id.0]
    }

    /// Cut the (bidirectional) path between two nodes: packets offered
    /// in either direction are discarded at transmit time. Packets
    /// already in flight still arrive — a cut severs the wire, it does
    /// not recall what left before the cut. Both endpoints stay alive.
    pub fn cut_link(&mut self, a: NodeId, b: NodeId) {
        self.cuts.insert(Self::pair_key(a, b));
    }

    /// Undo [`Simulator::cut_link`] for the pair.
    pub fn restore_link(&mut self, a: NodeId, b: NodeId) {
        self.cuts.remove(&Self::pair_key(a, b));
    }

    /// Whether the pair's path is currently cut.
    pub fn link_is_cut(&self, a: NodeId, b: NodeId) -> bool {
        self.cuts.contains(&Self::pair_key(a, b))
    }

    fn pair_key(a: NodeId, b: NodeId) -> (usize, usize) {
        if a.0 <= b.0 {
            (a.0, b.0)
        } else {
            (b.0, a.0)
        }
    }

    /// Whether a packet from `src` to `dst` is discarded by an active
    /// fail-stop injection (dead destination or cut pair).
    fn failstopped(&self, src: NodeId, dst: NodeId) -> bool {
        self.dead[dst.0] || (!self.cuts.is_empty() && self.cuts.contains(&Self::pair_key(src, dst)))
    }

    /// Inject a packet into the network "from outside" (it still traverses
    /// the destination's downlink). Useful for trace replay.
    pub fn inject(&mut self, at: SimTime, pkt: Packet) {
        let at = at.max(self.now);
        if let Some(dst) = self.route(pkt.dst.ip) {
            self.queue.push(at, EventKind::DownlinkAdmit { dst, pkt });
        } else {
            self.stats.packets_unroutable += 1;
        }
    }

    /// Run node code with a context, then process its side effects. The
    /// node is called where it sits, lent the RNG and the timer list
    /// beside it; only the outbox is moved out, because transmitting it
    /// needs the whole simulator.
    fn invoke<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut Box<dyn Node>, &mut Ctx<'_>),
    {
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut ctx = Ctx {
            now: self.now,
            rng: &mut self.rng,
            outbox: &mut outbox,
            timers: &mut self.timers,
        };
        f(&mut self.nodes[id.0].node, &mut ctx);
        for (at, token) in self.timers.drain(..) {
            self.queue.push(at, EventKind::Timer { node: id, token });
        }
        for pkt in outbox.drain(..) {
            self.transmit(id, pkt);
        }
        self.outbox = outbox;
    }

    /// Route a packet out of `src_node` through its uplink.
    fn transmit(&mut self, src_node: NodeId, pkt: Packet) {
        let Some(dst) = self.route(pkt.dst.ip) else {
            self.stats.packets_unroutable += 1;
            return;
        };
        if self.failstopped(src_node, dst) {
            self.stats.packets_failstopped += 1;
            return;
        }
        let wire = pkt.wire_len();
        let now = self.now;
        let verdict = self.nodes[src_node.0]
            .uplink
            .offer(now, wire, &mut self.rng);
        match verdict {
            // The packet is moved on the common (no-duplicate) path and
            // cloned only when the link actually schedules a duplicate;
            // the primary is always pushed first so event sequencing is
            // unchanged.
            LinkVerdict::Deliver {
                at,
                duplicate_at: Some(dup_at),
            } => {
                self.queue.push(
                    at,
                    EventKind::DownlinkAdmit {
                        dst,
                        pkt: pkt.clone(),
                    },
                );
                self.queue
                    .push(dup_at, EventKind::DownlinkAdmit { dst, pkt });
            }
            // A downlink that is a pure delay gives the same verdict now
            // as on arrival, so the packet is admitted as it is sent.
            LinkVerdict::Deliver {
                at,
                duplicate_at: None,
            } if self.nodes[dst.0].downlink.is_pure_delay() => self.admit(at, dst, pkt),
            LinkVerdict::Deliver {
                at,
                duplicate_at: None,
            } => {
                self.queue.push(at, EventKind::DownlinkAdmit { dst, pkt });
            }
            LinkVerdict::Drop(_) => {
                self.stats.packets_dropped += 1;
            }
        }
    }

    /// Offer a packet that reaches `dst`'s downlink at `at` to it, and
    /// queue its delivery.
    fn admit(&mut self, at: SimTime, dst: NodeId, pkt: Packet) {
        let wire = pkt.wire_len();
        let verdict = self.nodes[dst.0].downlink.offer(at, wire, &mut self.rng);
        match verdict {
            // Move unless a duplicate is actually scheduled (primary
            // pushed first, as in `transmit`).
            LinkVerdict::Deliver {
                at,
                duplicate_at: Some(dup_at),
            } => {
                self.queue.push(
                    at,
                    EventKind::Deliver {
                        dst,
                        pkt: pkt.clone(),
                    },
                );
                self.queue.push(dup_at, EventKind::Deliver { dst, pkt });
            }
            LinkVerdict::Deliver {
                at,
                duplicate_at: None,
            } => {
                self.queue.push(at, EventKind::Deliver { dst, pkt });
            }
            LinkVerdict::Drop(_) => {
                self.stats.packets_dropped += 1;
            }
        }
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_until(SimTime::MAX)
    }

    /// Process the next event if it is due by `deadline`; `false` when
    /// none is.
    fn step_until(&mut self, deadline: SimTime) -> bool {
        let Some(ev) = self.queue.pop_until(deadline) else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.stats.events += 1;
        match ev.item {
            EventKind::Timer { node, token } => {
                if self.dead[node.0] {
                    return true;
                }
                self.invoke(node, |n, ctx| n.on_timer(ctx, token));
            }
            EventKind::DownlinkAdmit { dst, pkt } => {
                if self.dead[dst.0] {
                    self.stats.packets_failstopped += 1;
                    return true;
                }
                self.admit(self.now, dst, pkt);
            }
            EventKind::Deliver { dst, pkt } => {
                if self.dead[dst.0] {
                    self.stats.packets_failstopped += 1;
                    return true;
                }
                self.stats.packets_delivered += 1;
                self.trace.record(TraceRecord {
                    at: self.now,
                    src: pkt.src,
                    dst: pkt.dst,
                    payload_bytes: pkt.payload_len(),
                    wire_bytes: pkt.wire_len(),
                    direction: TraceDirection::Delivered,
                });
                self.invoke(dst, |n, ctx| n.on_packet(ctx, pkt));
            }
        }
        true
    }

    /// Run until the queue drains or `deadline` is reached. The clock is
    /// left at `min(deadline, time of last event)`; events at exactly
    /// `deadline` are processed.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.step_until(deadline) {}
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Run for a duration from the current time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Number of events waiting.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::packet::HostAddr;

    /// Echoes every packet back to its source and counts deliveries.
    struct Echo {
        port: u16,
        received: u32,
    }

    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            self.received += 1;
            if pkt.dst.port == self.port {
                ctx.send(pkt.readdressed(pkt.dst, pkt.src));
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _timer: TimerToken) {}
    }

    /// Sends `n` packets to a target on start, recording echo arrival times.
    struct Pinger {
        target: HostAddr,
        me: HostAddr,
        n: u32,
        echoes: Vec<SimTime>,
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule(SimDuration::from_millis(1), TimerToken(0));
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: Packet) {
            self.echoes.push(ctx.now());
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerToken) {
            for _ in 0..self.n {
                ctx.send(Packet::new(self.me, self.target, vec![0u8; 100]));
            }
        }
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn two_node_sim(seed: u64, up: LinkConfig, down: LinkConfig) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(seed);
        let echo = sim.add_node(
            Box::new(Echo {
                port: 5000,
                received: 0,
            }),
            &[ip(2)],
            up,
            down,
        );
        let pinger = sim.add_node(
            Box::new(Pinger {
                target: HostAddr::new(ip(2), 5000),
                me: HostAddr::new(ip(1), 4000),
                n: 3,
                echoes: vec![],
            }),
            &[ip(1)],
            up,
            down,
        );
        (sim, echo, pinger)
    }

    #[test]
    fn ping_pong_round_trip() {
        let cfg = LinkConfig::infinite(SimDuration::from_millis(5));
        let (mut sim, echo, pinger) = two_node_sim(1, cfg, cfg);
        sim.run_until(SimTime::from_secs(1));
        let e: &mut Echo = sim.node_mut(echo).unwrap();
        assert_eq!(e.received, 3);
        let p: &mut Pinger = sim.node_mut(pinger).unwrap();
        assert_eq!(p.echoes.len(), 3);
        // RTT = 4 hops × 5 ms = 20 ms after the 1 ms send timer.
        assert_eq!(p.echoes[0], SimTime::from_millis(21));
    }

    #[test]
    fn lossy_uplink_drops_everything() {
        let lossy = LinkConfig::infinite(SimDuration::from_millis(1))
            .with_faults(FaultConfig::clean().with_loss(1.0));
        let clean = LinkConfig::infinite(SimDuration::from_millis(1));
        let mut sim = Simulator::new(2);
        let echo = sim.add_node(
            Box::new(Echo {
                port: 5000,
                received: 0,
            }),
            &[ip(2)],
            clean,
            clean,
        );
        let _pinger = sim.add_node(
            Box::new(Pinger {
                target: HostAddr::new(ip(2), 5000),
                me: HostAddr::new(ip(1), 4000),
                n: 5,
                echoes: vec![],
            }),
            &[ip(1)],
            lossy,
            clean,
        );
        sim.run_until(SimTime::from_secs(1));
        let e: &mut Echo = sim.node_mut(echo).unwrap();
        assert_eq!(e.received, 0);
        assert_eq!(sim.stats.packets_dropped, 5);
    }

    #[test]
    fn unroutable_counted() {
        let cfg = LinkConfig::infinite(SimDuration::from_millis(1));
        let mut sim = Simulator::new(3);
        let _pinger = sim.add_node(
            Box::new(Pinger {
                target: HostAddr::new(ip(99), 5000), // nobody owns 10.0.0.99
                me: HostAddr::new(ip(1), 4000),
                n: 2,
                echoes: vec![],
            }),
            &[ip(1)],
            cfg,
            cfg,
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats.packets_unroutable, 2);
    }

    #[test]
    fn determinism_across_runs() {
        let up = LinkConfig::infinite(SimDuration::from_millis(3))
            .with_rate(2_000_000)
            .with_faults(FaultConfig::clean().with_loss(0.3));
        let down = LinkConfig::infinite(SimDuration::from_millis(2)).with_rate(4_000_000);
        let run = || {
            let (mut sim, _echo, pinger) = two_node_sim(42, up, down);
            sim.run_until(SimTime::from_secs(2));
            let p: &mut Pinger = sim.node_mut(pinger).unwrap();
            (p.echoes.clone(), sim.stats.events)
        };
        let (a, ea) = run();
        let (b, eb) = run();
        assert_eq!(a, b);
        assert_eq!(ea, eb);
    }

    /// Logs every callback. A packet arms a zero-delay timer carrying the
    /// packet's tag and, when `forward_to` is set, is passed on there.
    struct Stepper {
        forward_to: Option<HostAddr>,
        log: Vec<(&'static str, u64)>,
    }

    impl Node for Stepper {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            let tag = u64::from(pkt.payload[0]);
            self.log.push(("packet", tag));
            ctx.schedule(SimDuration::ZERO, TimerToken(tag));
            if let Some(next) = self.forward_to {
                ctx.send(pkt.readdressed(pkt.dst, next));
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, timer: TimerToken) {
            self.log.push(("timer", timer.0));
        }
    }

    #[test]
    fn same_instant_deliveries_are_handed_over_one_at_a_time_in_seq_order() {
        const K: u64 = 4;
        let cfg = LinkConfig::infinite(SimDuration::from_millis(1));
        let mut sim = Simulator::new(7);
        let stepper = |forward_to| {
            Box::new(Stepper {
                forward_to,
                log: vec![],
            })
        };
        let sink_addr = HostAddr::new(ip(3), 5000);
        let node = sim.add_node(stepper(Some(sink_addr)), &[ip(2)], cfg, cfg);
        let sink = sim.add_node(stepper(None), &[ip(3)], cfg, cfg);
        for tag in 0..K {
            sim.inject(
                SimTime::from_millis(1),
                Packet::new(
                    HostAddr::new(ip(50), 1),
                    HostAddr::new(ip(2), 5000),
                    vec![tag as u8; 8],
                ),
            );
        }
        // The K downlink admissions queue K deliveries for one instant.
        for _ in 0..K {
            sim.step();
        }
        assert_eq!(sim.pending_events(), K as usize);
        for done in 1..=K {
            let events = sim.stats.events;
            sim.step();
            assert_eq!(sim.stats.events, events + 1, "one delivery per step");
            assert_eq!(sim.now(), SimTime::from_millis(2));
            // This packet's timer and send are queued before the next
            // packet is looked at.
            assert_eq!(sim.pending_events(), (K - done + 2 * done) as usize);
            let log = &sim.node_mut::<Stepper>(node).unwrap().log;
            assert_eq!(log.len(), done as usize);
            assert_eq!(log.last(), Some(&("packet", done - 1)));
        }
        sim.run_until(SimTime::from_secs(1));
        let expected: Vec<(&str, u64)> = (0..K)
            .map(|t| ("packet", t))
            .chain((0..K).map(|t| ("timer", t)))
            .collect();
        assert_eq!(sim.node_mut::<Stepper>(node).unwrap().log, expected);
        assert_eq!(sim.node_mut::<Stepper>(sink).unwrap().log, expected);
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut sim = Simulator::new(4);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    /// The event queue's window must not start later than the clock:
    /// after a `run_until` that stopped short of the only pending event
    /// — inside the queue's near window (30 ms) or beyond it (500 ms) —
    /// whatever is pushed at `now` next still finds room in front of it.
    #[test]
    fn events_pushed_at_now_after_a_run_that_stopped_short_keep_their_order() {
        for pending_ms in [30, 500] {
            let cfg = LinkConfig::infinite(SimDuration::ZERO);
            let mut sim = Simulator::new(13);
            let first = sim.add_node(
                Box::new(Stepper {
                    forward_to: None,
                    log: vec![],
                }),
                &[ip(2)],
                cfg,
                cfg,
            );
            sim.inject(
                SimTime::from_millis(pending_ms),
                Packet::new(
                    HostAddr::new(ip(50), 1),
                    HostAddr::new(ip(2), 5000),
                    vec![99u8; 8],
                ),
            );
            sim.run_until(SimTime::from_millis(10));
            assert_eq!(sim.now(), SimTime::from_millis(10));
            assert_eq!(sim.pending_events(), 1, "stopped short of the packet");

            sim.inject(
                sim.now(),
                Packet::new(
                    HostAddr::new(ip(50), 1),
                    HostAddr::new(ip(2), 5000),
                    vec![7u8; 8],
                ),
            );
            // Its `on_start` arms a timer 1 ms from now; two packets follow.
            sim.add_node(
                Box::new(Pinger {
                    target: HostAddr::new(ip(2), 5000),
                    me: HostAddr::new(ip(1), 4000),
                    n: 2,
                    echoes: vec![],
                }),
                &[ip(1)],
                cfg,
                cfg,
            );
            sim.run_until(SimTime::from_secs(1));
            assert_eq!(
                sim.node_mut::<Stepper>(first).unwrap().log,
                vec![
                    ("packet", 7),
                    ("timer", 7),
                    ("packet", 0),
                    ("packet", 0),
                    ("timer", 0),
                    ("timer", 0),
                    ("packet", 99),
                    ("timer", 99),
                ],
                "pending packet at {pending_ms} ms"
            );
        }
    }

    #[test]
    fn injected_packet_is_delivered() {
        let cfg = LinkConfig::infinite(SimDuration::from_millis(1));
        let mut sim = Simulator::new(5);
        let echo = sim.add_node(
            Box::new(Echo {
                port: 5000,
                received: 0,
            }),
            &[ip(2)],
            cfg,
            cfg,
        );
        sim.inject(
            SimTime::from_millis(10),
            Packet::new(
                HostAddr::new(ip(50), 1),
                HostAddr::new(ip(2), 5000),
                vec![1, 2, 3],
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        let e: &mut Echo = sim.node_mut(echo).unwrap();
        assert_eq!(e.received, 1);
    }

    #[test]
    fn killed_node_failstops_traffic_and_timers() {
        let cfg = LinkConfig::infinite(SimDuration::from_millis(5));
        let (mut sim, echo, pinger) = two_node_sim(8, cfg, cfg);
        sim.kill_node(echo);
        assert!(sim.node_is_dead(echo));
        sim.run_until(SimTime::from_secs(1));
        let e: &mut Echo = sim.node_mut(echo).unwrap();
        assert_eq!(e.received, 0, "dead node consumes nothing");
        let p: &mut Pinger = sim.node_mut(pinger).unwrap();
        assert!(p.echoes.is_empty(), "dead node emits nothing");
        assert_eq!(sim.stats.packets_failstopped, 3);
        assert_eq!(sim.stats.packets_dropped, 0, "fail-stop is not link loss");
    }

    /// Records when each packet arrives.
    #[derive(Default)]
    struct Sink {
        arrivals: Vec<SimTime>,
    }

    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: Packet) {
            self.arrivals.push(ctx.now());
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _timer: TimerToken) {}
    }

    const SENT: SimTime = SimTime::from_millis(1);
    const UP: SimDuration = SimDuration::from_millis(3);
    const DOWN: SimDuration = SimDuration::from_millis(2);

    /// One packet, sent at [`SENT`] through an infinite [`UP`] uplink to a
    /// [`Sink`] behind `down`. Returns the simulator just after the send,
    /// the sink, and the event count at the send.
    fn one_hop(down: LinkConfig) -> (Simulator, NodeId, u64) {
        let mut sim = Simulator::new(21);
        let sink = sim.add_node(
            Box::<Sink>::default(),
            &[ip(2)],
            LinkConfig::infinite(SimDuration::ZERO),
            down,
        );
        sim.add_node(
            Box::new(Pinger {
                target: HostAddr::new(ip(2), 5000),
                me: HostAddr::new(ip(1), 4000),
                n: 1,
                echoes: vec![],
            }),
            &[ip(1)],
            LinkConfig::infinite(UP),
            LinkConfig::infinite(UP),
        );
        sim.run_until(SENT);
        let sent = sim.stats.events;
        (sim, sink, sent)
    }

    fn arrivals(sim: &mut Simulator, sink: NodeId) -> Vec<SimTime> {
        sim.node_mut::<Sink>(sink).unwrap().arrivals.clone()
    }

    /// A downlink with infinite rate and no faults is a pure delay: the
    /// packet is admitted to it as it is sent, and its whole hop is one
    /// delivery event.
    #[test]
    fn a_hop_into_a_pure_delay_downlink_is_one_event() {
        let (mut sim, sink, sent) = one_hop(LinkConfig::infinite(DOWN));
        assert_eq!(sim.pending_events(), 1, "the delivery, queued at the send");
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats.events - sent, 1);
        assert_eq!(arrivals(&mut sim, sink), vec![SENT + UP + DOWN]);
        let stats = sim.downlink_mut(sink).stats;
        assert_eq!((stats.offered_packets, stats.delivered_packets), (1, 1));
        assert_eq!(sim.stats.packets_delivered, 1);
    }

    /// A downlink that can queue or fault judges a packet when it gets
    /// there: the hop keeps its admission event, the downlink has seen
    /// nothing while the packet is on the uplink, and each copy delivered
    /// is one more event.
    #[test]
    fn a_downlink_that_can_queue_or_fault_keeps_its_admission_event() {
        let ms = SimDuration::from_millis;
        let clean = FaultConfig::clean();
        let jitter = FaultConfig {
            jitter: crate::fault::JitterModel::Uniform { max: ms(1) },
            ..clean
        };
        let cases = [
            ("rate-limited", 1_000_000, clean, 1),
            ("loss", 0, clean.with_loss(1.0), 0),
            ("jitter", 0, jitter, 1),
            ("duplicate", 0, clean.with_duplication(1.0), 2),
            ("reorder", 0, clean.with_reorder(1.0, ms(1)), 1),
        ];
        for (name, rate_bps, faults, copies) in cases {
            let down = LinkConfig::infinite(DOWN)
                .with_rate(rate_bps)
                .with_faults(faults);
            let (mut sim, sink, sent) = one_hop(down);
            sim.run_until(SENT + UP - SimDuration::from_nanos(1));
            assert_eq!(sim.downlink_mut(sink).stats.offered_packets, 0, "{name}");
            sim.run_until(SimTime::from_secs(1));
            let stats = sim.downlink_mut(sink).stats;
            assert_eq!(stats.offered_packets, 1, "{name}");
            assert_eq!(sim.stats.events - sent, 1 + copies as u64, "{name}");
            let got = arrivals(&mut sim, sink);
            assert_eq!(got.len(), copies, "{name}");
            assert!(got.iter().all(|&at| at >= SENT + UP + DOWN), "{name}");
        }
    }

    /// Loss is judged on arrival at a downlink that can fault, so a fault
    /// configured while the packet is on the uplink drops it. A
    /// pure-delay downlink admitted the packet when it was sent: the same
    /// reconfiguration applies only to packets sent after it.
    #[test]
    fn a_downlink_reconfigured_in_flight_judges_by_its_kind() {
        for (name, rate_bps, delivered) in [("rate-limited", 1_000_000, 0), ("pure delay", 0, 1)] {
            let (mut sim, sink, _) = one_hop(LinkConfig::infinite(DOWN).with_rate(rate_bps));
            sim.downlink_mut(sink)
                .set_faults(FaultConfig::clean().with_loss(1.0));
            sim.run_until(SimTime::from_secs(1));
            assert_eq!(arrivals(&mut sim, sink).len(), delivered, "{name}");
            assert_eq!(sim.stats.packets_dropped, 1 - delivered as u64, "{name}");
        }
    }

    /// A destination killed while a packet for its pure-delay downlink is
    /// in flight discards the packet once, at its delivery.
    #[test]
    fn a_destination_killed_in_flight_failstops_a_pure_delay_hop_once() {
        let (mut sim, sink, sent) = one_hop(LinkConfig::infinite(DOWN));
        sim.kill_node(sink);
        sim.run_until(SimTime::from_secs(1));
        assert!(arrivals(&mut sim, sink).is_empty());
        assert_eq!(sim.stats.packets_failstopped, 1);
        assert_eq!(sim.stats.packets_delivered, 0);
        assert_eq!(sim.stats.events - sent, 1);
    }

    #[test]
    fn revive_restores_delivery_for_reactive_nodes() {
        let cfg = LinkConfig::infinite(SimDuration::from_millis(5));
        let (mut sim, echo, _pinger) = two_node_sim(9, cfg, cfg);
        sim.kill_node(echo);
        sim.run_until(SimTime::from_secs(1));
        sim.revive_node(echo);
        assert!(!sim.node_is_dead(echo));
        // A fresh packet injected after the revive is delivered.
        sim.inject(
            SimTime::from_secs(2),
            Packet::new(
                HostAddr::new(ip(50), 1),
                HostAddr::new(ip(2), 5000),
                vec![0u8; 10],
            ),
        );
        sim.run_until(SimTime::from_secs(3));
        let e: &mut Echo = sim.node_mut(echo).unwrap();
        assert_eq!(e.received, 1);
    }

    #[test]
    fn cut_link_discards_both_directions_until_restored() {
        let cfg = LinkConfig::infinite(SimDuration::from_millis(5));
        let (mut sim, echo, pinger) = two_node_sim(10, cfg, cfg);
        sim.cut_link(pinger, echo);
        assert!(sim.link_is_cut(echo, pinger), "cut is order-insensitive");
        sim.run_until(SimTime::from_secs(1));
        let e: &mut Echo = sim.node_mut(echo).unwrap();
        assert_eq!(e.received, 0);
        assert_eq!(sim.stats.packets_failstopped, 3);
        sim.restore_link(echo, pinger);
        sim.inject(
            SimTime::from_secs(2),
            Packet::new(
                HostAddr::new(ip(1), 4000),
                HostAddr::new(ip(2), 5000),
                vec![0u8; 10],
            ),
        );
        sim.run_until(SimTime::from_secs(3));
        let e: &mut Echo = sim.node_mut(echo).unwrap();
        assert_eq!(e.received, 1, "restored pair carries traffic again");
    }

    #[test]
    fn no_fault_run_is_identical_with_inactive_failstop_state() {
        let cfg = LinkConfig::infinite(SimDuration::from_millis(5));
        let run = |touch: bool| {
            let (mut sim, _echo, pinger) = two_node_sim(12, cfg, cfg);
            if touch {
                // Install and immediately remove injections: inactive
                // fail-stop state must not perturb the run.
                sim.cut_link(pinger, NodeId(0));
                sim.restore_link(pinger, NodeId(0));
            }
            sim.run_until(SimTime::from_secs(1));
            let p: &mut Pinger = sim.node_mut(pinger).unwrap();
            (p.echoes.clone(), sim.stats.events)
        };
        assert_eq!(run(false), run(true));
    }

    mod route_table {
        use super::super::RouteTable;
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Random insert/lookup histories over up to 1 000 addresses
            /// (drawn from a narrow range half the time, so that lookups
            /// hit and probe chains collide) against a `BTreeMap`: the
            /// same answers, a panic on every duplicate insert, and `None`
            /// for the two extreme addresses while nobody owns them.
            #[test]
            fn answers_like_a_btree_map(
                pool in prop::collection::vec(any::<u32>(), 1..1_000),
                narrow in any::<bool>(),
                ops in prop::collection::vec((0u8..4, any::<prop::sample::Index>()), 0..3_000),
            ) {
                let addr = |i: &prop::sample::Index| {
                    let raw = pool[i.index(pool.len())];
                    if narrow { raw % 2_048 } else { raw }
                };
                let mut table = RouteTable::default();
                let mut oracle = BTreeMap::new();
                for (n, (op, i)) in ops.iter().enumerate() {
                    let key = addr(i);
                    let ip = Ipv4Addr::from(key);
                    // One operation in four inserts; the rest look up.
                    if *op == 0 {
                        let node = NodeId(n);
                        let duplicate = oracle.contains_key(&key);
                        let r = catch_unwind(AssertUnwindSafe(|| table.insert(ip, node)));
                        prop_assert_eq!(r.is_err(), duplicate);
                        oracle.entry(key).or_insert(node);
                    }
                    prop_assert_eq!(table.get(ip), oracle.get(&key).copied());
                    prop_assert!(table.len * 4 <= table.slots.len());
                }
                for key in [0, u32::MAX] {
                    prop_assert_eq!(table.get(Ipv4Addr::from(key)), oracle.get(&key).copied());
                }
                for (&key, &node) in &oracle {
                    prop_assert_eq!(table.get(Ipv4Addr::from(key)), Some(node));
                }
            }
        }

        #[test]
        fn an_empty_table_owns_nothing() {
            let mut table = RouteTable::default();
            for key in [0, 1, u32::MAX] {
                assert_eq!(table.get(Ipv4Addr::from(key)), None);
            }
            table.insert(Ipv4Addr::new(10, 0, 0, 1), NodeId(0));
            assert_eq!(table.get(Ipv4Addr::UNSPECIFIED), None);
            assert_eq!(table.get(Ipv4Addr::BROADCAST), None);
            table.insert(Ipv4Addr::UNSPECIFIED, NodeId(7));
            assert_eq!(table.get(Ipv4Addr::UNSPECIFIED), Some(NodeId(7)));
        }
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn duplicate_ip_panics() {
        let cfg = LinkConfig::infinite(SimDuration::ZERO);
        let mut sim = Simulator::new(6);
        let mk = || {
            Box::new(Echo {
                port: 1,
                received: 0,
            })
        };
        sim.add_node(mk(), &[ip(1)], cfg, cfg);
        sim.add_node(mk(), &[ip(1)], cfg, cfg);
    }
}
