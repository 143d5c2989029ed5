//! The switching fabric: edge Scallop switches + core relays in one
//! simulation, built from a [`Topology`] description.
//!
//! The paper's campus story (§7, Figs. 20–21) needs more than one
//! switch: participants attach to the edge switch of their building and
//! meetings span buildings. This module instantiates that fabric:
//!
//! * every **edge** becomes a full [`ScallopSwitchNode`] (data plane +
//!   agent) with its own disjoint SFU port range,
//! * every **core** becomes a [`RelayNode`] routing on destination port
//!   ranges (one route per edge),
//! * `Fabric::trunk_addr` resolves where an edge must address its one
//!   fabric copy per remote switch — through the pair's core, or
//!   directly when the fabric has no core tier.
//!
//! The controller ([`crate::controller`]) compiles cross-switch
//! forwarding on top of this: one trunk-egress branch per (meeting
//! segment, remote switch) on the sender's home edge, one trunk-ingress
//! rule per remote sender on each receiving edge.
//!
//! A `Fabric` is a read-only view shared by every controller shard of
//! a [`crate::shard::ShardedControlPlane`] — shards own disjoint
//! meetings but compile forwarding onto the same switches (the
//! switches themselves are reached mutably through the simulator, per
//! operation, never held). [`Fabric::check`] — the fabric check —
//! holds their [`FabricState`] against a rebuild.

use crate::agent::check::{first_difference, Line};
use crate::capacity::BookLine;
use crate::shard::ShardedControlPlane;
use crate::switchnode::{ScallopSwitchNode, SwitchConfig};
use scallop_dataplane::seqrewrite::SeqRewriteMode;
use scallop_dataplane::switch::DataPlaneCounters;
use scallop_netsim::link::LinkConfig;
use scallop_netsim::packet::HostAddr;
use scallop_netsim::relay::{PortRangeRoute, RelayNode, RelayStats};
use scallop_netsim::sim::{NodeId, Simulator};
use scallop_netsim::topology::Topology;

/// The fabric's control state as one value: every edge's tables (dead
/// edges included) with trees named by their owner, and the ledger's
/// books. Install order, MGID draws, counters and telemetry do not show.
#[derive(Debug, PartialEq, Eq)]
pub struct FabricState {
    edges: Vec<Vec<Line>>,
    books: Vec<BookLine>,
}

/// A built fabric: handles to every switch node in the simulator.
#[derive(Debug)]
pub struct Fabric {
    /// The topology this fabric was built from.
    pub topology: Topology,
    /// Edge switch node ids, in topology order.
    pub edge_ids: Vec<NodeId>,
    /// Core relay node ids, in topology order.
    pub core_ids: Vec<NodeId>,
    /// WAN gateway relay node ids, one per topology WAN link, in WAN
    /// link order (empty for a single-zone fabric).
    pub wan_ids: Vec<NodeId>,
}

impl Fabric {
    /// Instantiate every switch of `topology` into `sim`. Edges attach
    /// through `edge_link` (both directions); cores attach through the
    /// topology's trunk link. Edges are added first, in topology order —
    /// with a single-edge topology this reproduces the single-switch
    /// deployment node-for-node.
    pub fn build(
        sim: &mut Simulator,
        topology: Topology,
        edge_link: LinkConfig,
        mode: SeqRewriteMode,
    ) -> Fabric {
        let mut edge_ids = Vec::new();
        for (i, spec) in topology.edges().iter().enumerate() {
            let cfg = SwitchConfig::new(spec.ip)
                .with_mode(mode)
                .with_port_range(topology.port_base(i), topology.port_limit(i));
            let id = sim.add_node(
                Box::new(ScallopSwitchNode::new(cfg)),
                &[spec.ip],
                edge_link,
                edge_link,
            );
            edge_ids.push(id);
        }
        let mut core_ids = Vec::new();
        let edge_specs = topology.edges();
        for spec in topology.cores() {
            let mut relay = RelayNode::new();
            for (i, edge) in edge_specs.iter().enumerate() {
                relay.add_route(PortRangeRoute {
                    lo: topology.port_base(i),
                    hi: topology.port_limit(i) - 1,
                    next_hop: edge.ip,
                });
            }
            let id = sim.add_node(
                Box::new(relay),
                &[spec.ip],
                topology.trunk_link,
                topology.trunk_link,
            );
            core_ids.push(id);
        }
        // One relay per WAN link (none for a single-zone topology, so
        // the node order of the pre-federation fabric is untouched).
        // Each relay routes only its two endpoint zones' edge port
        // ranges straight to the owning edge: the canonical WAN metric
        // plan makes the direct link the unique cheapest path, so a WAN
        // gateway never needs transit routes through a third zone. The
        // relay's aggregate stats are the per-WAN-link byte counters
        // the benches gate on.
        let mut wan_ids = Vec::new();
        for (idx, wl) in topology.wan_links.iter().enumerate() {
            let mut relay = RelayNode::new();
            for z in [wl.zone_a, wl.zone_b] {
                for e in topology.zone_edges(z) {
                    relay.add_route(PortRangeRoute {
                        lo: topology.port_base(e),
                        hi: topology.port_limit(e) - 1,
                        next_hop: edge_specs[e].ip,
                    });
                }
            }
            // Half the propagation on each attachment side: a packet
            // crossing the relay accrues the link's full one-way
            // latency, and the link's bandwidth meters the crossing.
            let side = LinkConfig::infinite(wl.latency / 2)
                .with_rate(wl.bandwidth_bps)
                .with_queue_bytes(8 * 1024 * 1024);
            let id = sim.add_node(Box::new(relay), &[Topology::wan_ip(idx)], side, side);
            wan_ids.push(id);
        }
        Fabric {
            topology,
            edge_ids,
            core_ids,
            wan_ids,
        }
    }

    /// Number of edge switches.
    pub fn edges(&self) -> usize {
        self.edge_ids.len()
    }

    /// Mutable access to edge switch `i`.
    pub fn edge_mut<'a>(&self, sim: &'a mut Simulator, i: usize) -> &'a mut ScallopSwitchNode {
        sim.node_mut(self.edge_ids[i]).expect("edge switch")
    }

    /// The fabric check, for media-free histories: every zone with a
    /// segment has its gateway, every edge passes its ownership audit,
    /// and [`Self::state`] equals a rebuild of every edge's meetings on a
    /// copy of its tables and a replay of the ledger from the store.
    pub fn check(&self, sim: &mut Simulator, plane: &ShardedControlPlane) -> Result<(), String> {
        let books = plane.replayed_ledger(&self.topology)?.books();
        let installed = self.state(sim, plane)?;
        for (i, lines) in installed.edges.iter().enumerate() {
            let sw = self.edge_mut(sim, i);
            let rebuilt = (sw.agent.rebuilt_state(&sw.dp)).map_err(|e| format!("edge {i}: {e}"))?;
            first_difference(&format!("edge {i}: tables"), lines, &rebuilt)?;
        }
        first_difference("ledger books", &installed.books, &books)
    }

    /// The state `plane` has installed on this fabric. `Err` when an
    /// edge holds an entry its roster cannot name.
    pub fn state(
        &self,
        sim: &mut Simulator,
        plane: &ShardedControlPlane,
    ) -> Result<FabricState, String> {
        let edges = (0..self.edges()).map(|i| {
            let sw = self.edge_mut(sim, i);
            (sw.agent.canonical_state(&sw.dp)).map_err(|e| format!("edge {i}: {e}"))
        });
        let edges = edges.collect::<Result<_, _>>()?;
        let books = plane.ledger().books();
        Ok(FabricState { edges, books })
    }

    /// Where edge `from` must address a trunk copy bound for port `port`
    /// on edge `to` — the fabric's one address rule. Across zones: the
    /// WAN gateway relay of the cheapest WAN link out of `from`'s zone
    /// (which then routes on the port into the destination zone's edge
    /// range). In the same zone: a core relay (it forwards by port
    /// range), and the rule *observes* in `sim` which cores it must
    /// route around. A core is unusable for the pair while its relay is
    /// fail-stopped or either edge's link to it is cut; the pair's
    /// preferred core is checked first (the healthy path allocates
    /// nothing), then the zone's others in rotation
    /// ([`Topology::core_between_avoiding`]), and with no usable core —
    /// or no core tier at all — edge `to` is addressed directly.
    pub(crate) fn trunk_addr(
        &self,
        sim: &Simulator,
        from: usize,
        to: usize,
        port: u16,
    ) -> HostAddr {
        let tz = &self.topology;
        let (zf, zt) = (tz.zone_of_edge(from), tz.zone_of_edge(to));
        if zf != zt {
            let link = tz.wan_next_hop(zf, zt).expect("zones are WAN-connected");
            return HostAddr::new(Topology::wan_ip(link), port);
        }
        let usable = |c: usize| {
            let core = self.core_ids[c];
            !sim.node_is_dead(core)
                && !sim.link_is_cut(self.edge_ids[from], core)
                && !sim.link_is_cut(self.edge_ids[to], core)
        };
        match tz.core_between_avoiding(from, to, usable) {
            Some(c) => HostAddr::new(tz.core_spec(c).ip, port),
            None => HostAddr::new(tz.edge_spec(to).ip, port),
        }
    }

    /// Edge switch `i`, or `None` while it is fail-stopped
    /// ([`Simulator::kill_node`]). Teardown reaches switches through
    /// this so it sends no RPC into a crashed switch: the crash
    /// already took its rules and free-lists with it, and re-issuing
    /// frees against a revived switch would double-free RIDs and ports.
    pub(crate) fn live_edge<'a>(
        &self,
        sim: &'a mut Simulator,
        i: usize,
    ) -> Option<&'a mut ScallopSwitchNode> {
        (!sim.node_is_dead(self.edge_ids[i])).then(move || self.edge_mut(sim, i))
    }

    /// Core indices whose relay is currently fail-stopped (read-only
    /// introspection; `Fabric::trunk_addr` reads the simulator itself).
    pub fn dead_cores(&self, sim: &Simulator) -> Vec<usize> {
        self.core_ids
            .iter()
            .enumerate()
            .filter(|&(_, &id)| sim.node_is_dead(id))
            .map(|(j, _)| j)
            .collect()
    }

    /// Data-plane counters of edge `i`.
    pub fn edge_counters(&self, sim: &mut Simulator, i: usize) -> DataPlaneCounters {
        self.edge_mut(sim, i).counters()
    }

    /// Aggregate data-plane counters across all edges.
    pub fn total_counters(&self, sim: &mut Simulator) -> DataPlaneCounters {
        let mut total = DataPlaneCounters::default();
        for i in 0..self.edges() {
            total += self.edge_counters(sim, i);
        }
        total
    }

    /// Relay statistics of core `j`.
    pub fn core_stats(&self, sim: &mut Simulator, j: usize) -> RelayStats {
        let relay: &mut RelayNode = sim.node_mut(self.core_ids[j]).expect("core relay");
        relay.stats
    }

    /// Relay statistics of the WAN gateway serving WAN link `idx` — the
    /// per-WAN-link packet/byte counters the federation benches track.
    pub fn wan_stats(&self, sim: &mut Simulator, idx: usize) -> RelayStats {
        let relay: &mut RelayNode = sim.node_mut(self.wan_ids[idx]).expect("WAN relay");
        relay.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scallop_netsim::time::SimDuration;
    use std::net::Ipv4Addr;

    #[test]
    fn single_edge_fabric_matches_seed_switch() {
        let mut sim = Simulator::new(1);
        let topo = Topology::single(Ipv4Addr::new(10, 0, 0, 100));
        let f = Fabric::build(
            &mut sim,
            topo,
            LinkConfig::infinite(SimDuration::from_micros(50)),
            SeqRewriteMode::LowRetransmission,
        );
        assert_eq!(f.edges(), 1);
        assert!(f.core_ids.is_empty());
        let sw = f.edge_mut(&mut sim, 0);
        assert_eq!(sw.cfg.ip, Ipv4Addr::new(10, 0, 0, 100));
        assert_eq!(sw.cfg.port_base, 10_000);
    }

    /// A core relay routes exactly the edges' port ranges: a packet to
    /// the last port of the last edge is relayed, and one to the u16
    /// tail the even split leaves past that edge's limit is counted
    /// unroutable, never wrapped into some edge's range.
    #[test]
    fn core_relay_counts_the_port_tail_unroutable() {
        use scallop_netsim::packet::Packet;
        use scallop_netsim::time::SimTime;
        let mut sim = Simulator::new(5);
        let f = Fabric::build(
            &mut sim,
            Topology::campus(4, 1),
            LinkConfig::infinite(SimDuration::from_micros(50)),
            SeqRewriteMode::LowRetransmission,
        );
        let last = f.topology.port_limit(3);
        assert!(last < u16::MAX, "a 4-edge split leaves a tail");
        let src = HostAddr::new(Ipv4Addr::new(10, 9, 0, 1), 5000);
        for port in [last - 1, last, u16::MAX] {
            let dst = HostAddr::new(Topology::core_ip(0), port);
            sim.inject(SimTime::ZERO, Packet::new(src, dst, vec![0u8; 64]));
        }
        sim.run_until(SimTime::from_millis(10));
        let stats = f.core_stats(&mut sim, 0);
        assert_eq!((stats.relayed_pkts, stats.unroutable_pkts), (1, 2));
    }

    #[test]
    fn trunk_addr_routes_through_core_when_present() {
        let mut sim = Simulator::new(2);
        let with_core = Fabric::build(
            &mut sim,
            Topology::campus(3, 1),
            LinkConfig::infinite(SimDuration::from_micros(50)),
            SeqRewriteMode::LowRetransmission,
        );
        let a = with_core.trunk_addr(&sim, 0, 1, 13_005);
        assert_eq!(a.ip, Topology::core_ip(0));
        assert_eq!(a.port, 13_005);

        let mut sim2 = Simulator::new(3);
        let direct = Fabric::build(
            &mut sim2,
            Topology::campus(2, 0),
            LinkConfig::infinite(SimDuration::from_micros(50)),
            SeqRewriteMode::LowRetransmission,
        );
        let b = direct.trunk_addr(&sim2, 0, 1, 13_005);
        assert_eq!(b.ip, Topology::edge_ip(1));
    }

    #[test]
    fn cross_zone_trunk_addr_rides_the_wan_gateway() {
        let mut sim = Simulator::new(4);
        let topo = Topology::federation(3, 2, 1);
        let f = Fabric::build(
            &mut sim,
            topo,
            LinkConfig::infinite(SimDuration::from_micros(50)),
            SeqRewriteMode::LowRetransmission,
        );
        assert_eq!(f.edges(), 6);
        assert_eq!(f.core_ids.len(), 3);
        assert_eq!(f.wan_ids.len(), 3, "one relay per WAN link");
        // Edge 0 (zone 0) to edge 3 (zone 1): the 0-1 WAN gateway.
        let link01 = f.topology.wan_link_between(0, 1).unwrap();
        let port = f.topology.port_base(3) + 7;
        let a = f.trunk_addr(&sim, 0, 3, port);
        assert_eq!(a.ip, Topology::wan_ip(link01));
        assert_eq!(a.port, port);
        // Same zone still rides the zone's own core.
        let c = f.trunk_addr(&sim, 2, 3, port);
        assert_eq!(c.ip, Topology::core_ip(1));
    }

    #[test]
    fn trunk_addr_observes_dead_cores_and_cut_links() {
        let mut sim = Simulator::new(5);
        let f = Fabric::build(
            &mut sim,
            Topology::campus(3, 2),
            LinkConfig::infinite(SimDuration::from_micros(50)),
            SeqRewriteMode::LowRetransmission,
        );
        let port = f.topology.port_base(1) + 3;
        let hop = |sim: &Simulator, from, to| f.trunk_addr(sim, from, to, port).ip;
        let preferred = f.topology.core_between(0, 1).unwrap();
        let alt = 1 - preferred;
        assert_eq!(hop(&sim, 0, 1), Topology::core_ip(preferred));
        // A cut on either edge's link to the preferred core moves the
        // pair — and only pairs touching the cut edge — to the survivor.
        sim.cut_link(f.edge_ids[1], f.core_ids[preferred]);
        let a = f.trunk_addr(&sim, 0, 1, port);
        assert_eq!((a.ip, a.port), (Topology::core_ip(alt), port));
        assert_eq!(f.topology.core_between(0, 2), Some(alt));
        sim.cut_link(f.edge_ids[1], f.core_ids[alt]);
        assert_eq!(hop(&sim, 0, 2), Topology::core_ip(alt));
        // No usable core left for the pair: address the edge directly.
        assert_eq!(hop(&sim, 0, 1), Topology::edge_ip(1));
        sim.restore_link(f.edge_ids[1], f.core_ids[preferred]);
        sim.restore_link(f.edge_ids[1], f.core_ids[alt]);
        // Preferred core dead: the survivor; both dead: direct; and the
        // preferred core again as soon as it is back.
        sim.kill_node(f.core_ids[preferred]);
        assert_eq!(hop(&sim, 0, 1), Topology::core_ip(alt));
        sim.kill_node(f.core_ids[alt]);
        assert_eq!(f.dead_cores(&sim).len(), 2);
        assert_eq!(hop(&sim, 0, 1), Topology::edge_ip(1));
        sim.revive_node(f.core_ids[preferred]);
        assert_eq!(hop(&sim, 0, 1), Topology::core_ip(preferred));
    }
}
