//! Fabric topology description: edge and core switches joined by trunks.
//!
//! The paper's campus deployment (§7, Figs. 20–21) is not one switch but
//! a *switching fabric*: participants attach to the edge switch of their
//! building, and cross-building meeting traffic rides trunk links through
//! a core tier. This module is the pure *description* of such a fabric —
//! which switches exist, their addresses, and which core relays a given
//! edge pair — with no knowledge of SFU behaviour. `scallop-core`'s
//! fabric builder consumes a [`Topology`] to instantiate actual switch
//! and relay nodes in a [`crate::sim::Simulator`].
//!
//! Address plan (fits the simulator's route-by-IP model):
//!
//! * edge switch `i` owns `10.0.i.100`,
//! * core switch `j` owns `10.0.(200+j).100`,
//! * clients live in `10.1.0.0/16` and beyond (assigned by harnesses).
//!
//! Because every switch allocates SFU UDP ports from a disjoint
//! per-switch range (see [`Topology::port_base`]), a core relay can route
//! a trunk packet to its destination edge from the port number alone —
//! exactly how a real fabric would route on a destination prefix.
//!
//! # The zone tier (federation)
//!
//! [`Topology::federation`] adds a second tier above the campus: `zones`
//! campuses, each with its own edge and core slice, joined by explicit
//! [`WanLink`]s that carry per-link latency / cost / bandwidth metrics.
//! Edges are numbered zone-major (zone `z` owns global edges
//! `z*epz .. (z+1)*epz`), so the existing disjoint port-range plan
//! doubles as a zone plan: any SFU port names its edge *and* its zone.
//! WAN gateway relays own `10.0.(240+k).100` (one per WAN link).
//! Metric-aware routing ([`Topology::wan_path`]) picks the cheapest
//! WAN path by cost with deterministic tie-breaking; the canonical
//! metric plan makes every direct link strictly cheaper than any
//! detour, so media never transits a third zone.
//!
//! A 1-zone topology carries `zones == 1` and no WAN links, and every
//! zone helper degenerates to the campus behaviour — construction is
//! bit-identical to the pre-federation fabric.

use crate::link::LinkConfig;
use crate::time::SimDuration;
use std::net::Ipv4Addr;

/// Role of a switch within the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchRole {
    /// Hosts participants and runs the full SFU (data plane + agent).
    Edge,
    /// Pure trunk relay between edges (no participants).
    Core,
}

/// One switch in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchSpec {
    /// Edge or core.
    pub role: SwitchRole,
    /// The switch's IP (all its SFU/trunk ports live on it).
    pub ip: Ipv4Addr,
}

/// First SFU port of edge 0 (matches the single-switch deployment).
pub const FIRST_PORT_BASE: u16 = 10_000;

/// Maximum edges per fabric. The u16 port space above
/// [`FIRST_PORT_BASE`] is split evenly across edges, so more edges mean
/// fewer SFU ports (≈ stream pairs) per edge; 64 edges still leaves
/// ~860 ports each.
pub const MAX_EDGES: usize = 64;

/// Maximum zones per federation: a full WAN mesh of 6 zones is 15
/// links, which fits the 16-slot `10.0.240+` gateway address plan.
pub const MAX_ZONES: usize = 6;

/// One inter-campus WAN link joining two zones, with the routing
/// metrics the zone tier places and routes on. Unlike intra-campus
/// trunks (whose [`LinkConfig`] is an implementation detail of the
/// simulator), these metrics are surfaced at the topology level so the
/// controller can pick cheapest paths and benches can account per-link
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WanLink {
    /// Lower-numbered endpoint zone.
    pub zone_a: usize,
    /// Higher-numbered endpoint zone.
    pub zone_b: usize,
    /// One-way propagation latency of the link.
    pub latency: SimDuration,
    /// Abstract routing cost (lower is preferred); the canonical plan
    /// guarantees every direct link is strictly cheaper than any
    /// two-link detour.
    pub cost: u32,
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: u64,
}

/// A fabric of edge and core switches joined by trunk links.
#[derive(Debug, Clone)]
pub struct Topology {
    /// All switches, edges first (their index order is the fabric's
    /// canonical switch numbering). In a federation, edges are
    /// zone-major: zone `z` owns edges `z*epz .. (z+1)*epz`, then all
    /// cores follow, also zone-major.
    pub switches: Vec<SwitchSpec>,
    /// Link configuration applied to every trunk attachment (both the
    /// uplink and downlink side of each switch's fabric port).
    pub trunk_link: LinkConfig,
    /// Number of zones (campuses). `1` for [`Topology::single`] and
    /// [`Topology::campus`] — the pre-federation fabric.
    pub zones: usize,
    /// Inter-campus WAN links (empty when `zones == 1`). Stored with
    /// `zone_a < zone_b`; index order is the canonical WAN link
    /// numbering used by gateway addressing and per-link telemetry.
    pub wan_links: Vec<WanLink>,
}

impl Topology {
    /// A single edge switch, no core — the seed deployment. Building a
    /// harness from this topology reproduces the single-switch system
    /// exactly.
    pub fn single(ip: Ipv4Addr) -> Self {
        Topology {
            switches: vec![SwitchSpec {
                role: SwitchRole::Edge,
                ip,
            }],
            trunk_link: Self::default_trunk_link(),
            zones: 1,
            wan_links: Vec::new(),
        }
    }

    /// A campus fabric: `edges` edge switches and `cores` core relays on
    /// the canonical address plan. `cores` may be zero, in which case
    /// edges trunk to each other directly.
    pub fn campus(edges: usize, cores: usize) -> Self {
        assert!(edges >= 1, "a fabric needs at least one edge switch");
        assert!(
            edges <= MAX_EDGES,
            "at most {MAX_EDGES} edges (per-switch port ranges are disjoint u16 slices)"
        );
        assert!(
            cores <= 40,
            "core tier capped by the 10.0.200+ address plan"
        );
        let mut switches = Vec::with_capacity(edges + cores);
        for i in 0..edges {
            switches.push(SwitchSpec {
                role: SwitchRole::Edge,
                ip: Self::edge_ip(i),
            });
        }
        for j in 0..cores {
            switches.push(SwitchSpec {
                role: SwitchRole::Core,
                ip: Self::core_ip(j),
            });
        }
        Topology {
            switches,
            trunk_link: Self::default_trunk_link(),
            zones: 1,
            wan_links: Vec::new(),
        }
    }

    /// A federation of `zones` campuses, each with `edges_per_zone`
    /// edge switches and `cores_per_zone` core relays, joined by a full
    /// mesh of WAN links. Edges are numbered zone-major (then cores,
    /// also zone-major), so zone membership is recoverable from any
    /// global edge index or SFU port.
    ///
    /// The canonical WAN metric plan is deterministic in the zone
    /// distance `d = |a - b|`: cost `10 + d`, latency `5 ms · (1 + d)`,
    /// bandwidth 10 Gb/s. Any two-link detour costs ≥ 20 while the most
    /// expensive direct link costs 15, so the direct link is always the
    /// unique cheapest path — WAN gateways never carry transit traffic.
    ///
    /// `federation(1, e, c)` builds the identical switch list to
    /// `campus(e, c)` with no WAN links.
    pub fn federation(zones: usize, edges_per_zone: usize, cores_per_zone: usize) -> Self {
        assert!(zones >= 1, "a federation needs at least one zone");
        assert!(
            zones <= MAX_ZONES,
            "at most {MAX_ZONES} zones (full-mesh WAN fits the 10.0.240+ plan)"
        );
        let mut t = Self::campus(zones * edges_per_zone, zones * cores_per_zone);
        t.zones = zones;
        for a in 0..zones {
            for b in (a + 1)..zones {
                let d = (b - a) as u64;
                t.wan_links.push(WanLink {
                    zone_a: a,
                    zone_b: b,
                    latency: SimDuration::from_millis(5 * (1 + d)),
                    cost: 10 + d as u32,
                    bandwidth_bps: 10_000_000_000,
                });
            }
        }
        t
    }

    /// Campus trunks: 5 µs propagation at effectively unconstrained
    /// rate — a 100 Gb/s fabric link never queues at conferencing scale,
    /// but the rate is still modeled so trunk byte accounting is honest.
    pub fn default_trunk_link() -> LinkConfig {
        LinkConfig::infinite(SimDuration::from_micros(5))
            .with_rate(100_000_000_000)
            .with_queue_bytes(16 * 1024 * 1024)
    }

    /// Canonical IP of edge switch `i`.
    pub fn edge_ip(i: usize) -> Ipv4Addr {
        assert!(i < 200, "edge index out of the 10.0.x address plan");
        Ipv4Addr::new(10, 0, i as u8, 100)
    }

    /// Canonical IP of core switch `j`.
    pub fn core_ip(j: usize) -> Ipv4Addr {
        assert!(j < 40, "core index out of the 10.0.200+ address plan");
        Ipv4Addr::new(10, 0, 200 + j as u8, 100)
    }

    /// Canonical IP of the WAN gateway relay serving WAN link `idx`
    /// (the index into [`Topology::wan_links`]).
    pub fn wan_ip(idx: usize) -> Ipv4Addr {
        assert!(idx < 16, "WAN link index out of the 10.0.240+ address plan");
        Ipv4Addr::new(10, 0, 240 + idx as u8, 100)
    }

    /// Number of zones (campuses) in the federation; `1` for
    /// single-campus topologies.
    pub fn zone_count(&self) -> usize {
        self.zones
    }

    /// Edge switches per zone (the zone-major stride of the global edge
    /// numbering).
    pub fn edges_per_zone(&self) -> usize {
        self.edge_count() / self.zones
    }

    /// Core relays per zone.
    pub fn cores_per_zone(&self) -> usize {
        self.core_count() / self.zones
    }

    /// The zone owning global edge `e`.
    pub fn zone_of_edge(&self, e: usize) -> usize {
        debug_assert!(e < self.edge_count(), "edge index out of range");
        e / self.edges_per_zone()
    }

    /// The global edge indices belonging to zone `z`.
    pub fn zone_edges(&self, z: usize) -> std::ops::Range<usize> {
        assert!(z < self.zones, "zone index out of range");
        let epz = self.edges_per_zone();
        z * epz..(z + 1) * epz
    }

    /// The WAN link joining zones `a` and `b` (either order), as an
    /// index into [`Topology::wan_links`].
    pub fn wan_link_between(&self, a: usize, b: usize) -> Option<usize> {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.wan_links
            .iter()
            .position(|l| l.zone_a == lo && l.zone_b == hi)
    }

    /// Cheapest WAN path from zone `from` to zone `to`, as the ordered
    /// list of WAN link indices to traverse. Dijkstra over the link
    /// costs with a deterministic tie-break (total cost, then hop
    /// count, then lowest intermediate zone). Empty when `from == to`
    /// or no path exists.
    pub fn wan_path(&self, from: usize, to: usize) -> Vec<usize> {
        if from == to || from >= self.zones || to >= self.zones {
            return Vec::new();
        }
        // (cost, hops) per zone; u64::MAX = unreached. Zones are tiny
        // (≤ MAX_ZONES) so a linear-scan Dijkstra is plenty.
        let mut dist = vec![(u64::MAX, usize::MAX); self.zones];
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; self.zones];
        let mut visited = vec![false; self.zones];
        dist[from] = (0, 0);
        loop {
            let mut cur = None;
            for z in 0..self.zones {
                if !visited[z] && dist[z].0 != u64::MAX {
                    match cur {
                        None => cur = Some(z),
                        Some(c) if dist[z] < dist[c] => cur = Some(z),
                        _ => {}
                    }
                }
            }
            let Some(cur) = cur else { break };
            if cur == to {
                break;
            }
            visited[cur] = true;
            for (li, l) in self.wan_links.iter().enumerate() {
                let other = if l.zone_a == cur {
                    l.zone_b
                } else if l.zone_b == cur {
                    l.zone_a
                } else {
                    continue;
                };
                if visited[other] {
                    continue;
                }
                let cand = (dist[cur].0 + l.cost as u64, dist[cur].1 + 1);
                if cand < dist[other] {
                    dist[other] = cand;
                    prev[other] = Some((cur, li));
                }
            }
        }
        let mut path = Vec::new();
        let mut at = to;
        while at != from {
            let Some((p, li)) = prev[at] else {
                return Vec::new();
            };
            path.push(li);
            at = p;
        }
        path.reverse();
        path
    }

    /// The first WAN link on the cheapest path from `from` to `to`
    /// (where a zone-`from` gateway must forward cross-zone traffic).
    pub fn wan_next_hop(&self, from: usize, to: usize) -> Option<usize> {
        self.wan_path(from, to).first().copied()
    }

    /// Number of edge switches.
    pub fn edge_count(&self) -> usize {
        self.switches
            .iter()
            .filter(|s| s.role == SwitchRole::Edge)
            .count()
    }

    /// Number of core switches.
    pub fn core_count(&self) -> usize {
        self.switches.len() - self.edge_count()
    }

    /// The edge switches, in fabric order.
    pub fn edges(&self) -> Vec<SwitchSpec> {
        self.switches
            .iter()
            .copied()
            .filter(|s| s.role == SwitchRole::Edge)
            .collect()
    }

    /// The core switches, in fabric order.
    pub fn cores(&self) -> Vec<SwitchSpec> {
        self.switches
            .iter()
            .copied()
            .filter(|s| s.role == SwitchRole::Core)
            .collect()
    }

    /// Edge switch `i`, allocation-free (edges precede cores in
    /// `switches`).
    pub fn edge_spec(&self, i: usize) -> SwitchSpec {
        let s = self.switches[i];
        debug_assert_eq!(s.role, SwitchRole::Edge);
        s
    }

    /// Core switch `j`, allocation-free.
    pub fn core_spec(&self, j: usize) -> SwitchSpec {
        let s = self.switches[self.edge_count() + j];
        debug_assert_eq!(s.role, SwitchRole::Core);
        s
    }

    /// Width of each edge's private UDP port range: the space above
    /// [`FIRST_PORT_BASE`] split evenly across this fabric's edges. A
    /// single-edge fabric keeps the whole range, exactly like the seed
    /// single-switch deployment.
    pub fn port_span(&self) -> u16 {
        (u16::MAX - FIRST_PORT_BASE) / self.edge_count() as u16
    }

    /// First SFU UDP port of edge `i`'s private range.
    pub fn port_base(&self, i: usize) -> u16 {
        FIRST_PORT_BASE + i as u16 * self.port_span()
    }

    /// One past the last SFU UDP port of edge `i`'s range (exclusive
    /// upper bound; edges must not allocate at or beyond it, or trunk
    /// routing would misdeliver).
    pub fn port_limit(&self, i: usize) -> u16 {
        self.port_base(i).saturating_add(self.port_span())
    }

    /// The edge index owning `port`, per the disjoint port-range plan.
    ///
    /// Out-of-range ports are rejected explicitly: anything below
    /// [`FIRST_PORT_BASE`] and anything at or above the last edge's
    /// [`Topology::port_limit`] (the u16 remainder the even split
    /// leaves unused) maps to no edge — a malformed port must never
    /// silently resolve into a neighbouring zone's range.
    pub fn edge_of_port(&self, port: u16) -> Option<usize> {
        if port < FIRST_PORT_BASE {
            return None;
        }
        let edge = ((port - FIRST_PORT_BASE) / self.port_span()) as usize;
        if edge >= self.edge_count() {
            return None;
        }
        Some(edge)
    }

    /// Which core relays traffic from edge `a` to edge `b`, or `None`
    /// when their zone has no core tier (edges trunk directly), the
    /// edges are in *different* zones (cross-zone traffic rides WAN
    /// gateways, never a campus core), either index is out of range, or
    /// `a == b`. Within a zone the assignment spreads edge pairs across
    /// that zone's cores deterministically; with one zone this is the
    /// classic `(a + b) % cores`.
    pub fn core_between(&self, a: usize, b: usize) -> Option<usize> {
        let ec = self.edge_count();
        if a == b || a >= ec || b >= ec {
            return None;
        }
        let epz = self.edges_per_zone();
        let (za, zb) = (a / epz, b / epz);
        if za != zb {
            return None;
        }
        let cpz = self.cores_per_zone();
        if cpz == 0 {
            return None;
        }
        Some(za * cpz + ((a - za * epz) + (b - zb * epz)) % cpz)
    }

    /// The global core indices belonging to zone `z` (cores are
    /// numbered zone-major, like edges).
    pub fn zone_cores(&self, z: usize) -> std::ops::Range<usize> {
        assert!(z < self.zones, "zone index out of range");
        let cpz = self.cores_per_zone();
        z * cpz..(z + 1) * cpz
    }

    /// [`Topology::core_between`] restricted to cores the caller finds
    /// `usable` for this pair: the pair's preferred core when it is,
    /// otherwise the next usable core rotating through the zone's core
    /// slice (the deterministic failover order every controller
    /// computes identically), or `None` when the pair has no core at
    /// all or no core in the zone is usable — the caller must then fall
    /// back to direct edge-to-edge trunking.
    pub fn core_between_avoiding(
        &self,
        a: usize,
        b: usize,
        usable: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let preferred = self.core_between(a, b)?;
        if usable(preferred) {
            return Some(preferred);
        }
        let cpz = self.cores_per_zone();
        let base = self.zone_of_edge(a) * cpz;
        (1..cpz)
            .map(|off| base + (preferred - base + off) % cpz)
            .find(|&c| usable(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_topology_matches_seed_plan() {
        let t = Topology::single(Ipv4Addr::new(10, 0, 0, 100));
        assert_eq!(t.edge_count(), 1);
        assert_eq!(t.core_count(), 0);
        assert_eq!(t.port_base(0), 10_000);
        assert_eq!(t.port_limit(0), u16::MAX);
    }

    #[test]
    fn campus_layout() {
        let t = Topology::campus(4, 2);
        assert_eq!(t.edge_count(), 4);
        assert_eq!(t.core_count(), 2);
        assert_eq!(t.edges()[2].ip, Ipv4Addr::new(10, 0, 2, 100));
        assert_eq!(t.cores()[1].ip, Ipv4Addr::new(10, 0, 201, 100));
    }

    #[test]
    fn port_ranges_are_disjoint_and_invertible() {
        let t = Topology::campus(8, 1);
        for i in 0..8usize {
            let base = t.port_base(i);
            assert_eq!(t.edge_of_port(base), Some(i));
            assert_eq!(t.edge_of_port(t.port_limit(i) - 1), Some(i));
        }
        assert_eq!(t.edge_of_port(9_999), None);
        // Ranges tile the space with no overlap.
        for i in 1..8usize {
            assert_eq!(t.port_limit(i - 1), t.port_base(i));
        }
    }

    #[test]
    fn port_span_degenerate_single_edge_keeps_whole_range() {
        // 1 edge: the span is the entire space above FIRST_PORT_BASE —
        // the seed single-switch deployment, bit for bit.
        let t = Topology::single(Ipv4Addr::new(10, 0, 0, 100));
        assert_eq!(t.port_span(), u16::MAX - FIRST_PORT_BASE);
        assert_eq!(t.port_base(0), FIRST_PORT_BASE);
        assert_eq!(t.port_limit(0), u16::MAX);
        assert_eq!(t.edge_of_port(FIRST_PORT_BASE), Some(0));
        assert_eq!(t.edge_of_port(u16::MAX - 1), Some(0));
    }

    #[test]
    fn port_span_at_max_edges_still_tiles_disjointly() {
        // 64 edges is the largest fabric the capacity model budgets
        // for; the even split leaves each edge 867 ports and an unused
        // u16 remainder past the last limit.
        let t = Topology::campus(64, 2);
        assert_eq!(t.port_span(), (u16::MAX - FIRST_PORT_BASE) / 64);
        assert_eq!(t.port_span(), 867);
        for i in 1..64usize {
            assert_eq!(t.port_limit(i - 1), t.port_base(i));
        }
        assert_eq!(t.edge_of_port(t.port_base(63)), Some(63));
        assert_eq!(t.edge_of_port(t.port_limit(63) - 1), Some(63));
        // The remainder past the last edge's limit maps to no edge.
        assert_eq!(t.edge_of_port(t.port_limit(63)), None);
        assert_eq!(t.edge_of_port(u16::MAX), None);
        // Every edge still has room for its local members plus one
        // remote-sender entry per peer edge (2 ports each).
        assert!(u64::from(t.port_span()) > 2 * 64);
    }

    #[test]
    fn port_span_partitions_across_zones_not_within_them() {
        // Port ranges are a fabric-global plan: a federation splits the
        // same space over all zones' edges (zone-major order), so a
        // trunk or WAN packet still routes on destination port alone.
        let t = Topology::federation(4, 16, 0);
        assert_eq!(t.edge_count(), 64);
        assert_eq!(t.port_span(), 867);
        for z in 0..4usize {
            let edges = t.zone_edges(z);
            // The zone's block is contiguous and starts where the
            // previous zone's block ended.
            assert_eq!(
                t.port_base(edges.start),
                FIRST_PORT_BASE + edges.start as u16 * 867
            );
            for e in edges {
                assert_eq!(t.edge_of_port(t.port_base(e)), Some(e));
                assert_eq!(t.zone_of_edge(e), z);
            }
        }
        // Zone boundaries tile exactly like edge boundaries.
        assert_eq!(t.port_limit(15), t.port_base(16));
        assert_eq!(t.port_limit(31), t.port_base(32));
    }

    #[test]
    fn core_assignment_spreads_pairs() {
        let t = Topology::campus(4, 2);
        assert_eq!(t.core_between(0, 0), None);
        let c01 = t.core_between(0, 1).unwrap();
        let c02 = t.core_between(0, 2).unwrap();
        assert_ne!(c01, c02, "consecutive pairs alternate cores");
        // Symmetric: both directions of a pair ride the same core.
        assert_eq!(t.core_between(1, 0), Some(c01));
        let direct = Topology::campus(3, 0);
        assert_eq!(direct.core_between(0, 1), None);
    }

    #[test]
    fn one_zone_federation_matches_campus_exactly() {
        let f = Topology::federation(1, 4, 2);
        let c = Topology::campus(4, 2);
        assert_eq!(f.switches, c.switches);
        assert_eq!(f.zones, 1);
        assert!(f.wan_links.is_empty());
        assert_eq!(f.edges_per_zone(), 4);
        assert_eq!(f.cores_per_zone(), 2);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(f.core_between(a, b), c.core_between(a, b));
            }
        }
    }

    #[test]
    fn federation_layout_is_zone_major() {
        let t = Topology::federation(3, 2, 1);
        assert_eq!(t.edge_count(), 6);
        assert_eq!(t.core_count(), 3);
        assert_eq!(t.zone_count(), 3);
        // Zone 1 owns global edges 2..4 and core 1.
        assert_eq!(t.zone_edges(1), 2..4);
        assert_eq!(t.zone_of_edge(2), 1);
        assert_eq!(t.zone_of_edge(3), 1);
        assert_eq!(t.edge_spec(3).ip, Ipv4Addr::new(10, 0, 3, 100));
        assert_eq!(t.core_spec(1).ip, Ipv4Addr::new(10, 0, 201, 100));
        // Full WAN mesh, normalized and deterministic.
        assert_eq!(t.wan_links.len(), 3);
        let l = t.wan_links[t.wan_link_between(2, 0).unwrap()];
        assert_eq!((l.zone_a, l.zone_b), (0, 2));
        assert_eq!(l.cost, 12);
        assert_eq!(l.latency, SimDuration::from_millis(15));
        assert_eq!(l.bandwidth_bps, 10_000_000_000);
    }

    #[test]
    fn wan_routing_prefers_the_direct_link() {
        let t = Topology::federation(4, 1, 0);
        // Direct link is always the unique cheapest path.
        for a in 0..4 {
            for b in 0..4 {
                if a == b {
                    assert!(t.wan_path(a, b).is_empty());
                    continue;
                }
                let path = t.wan_path(a, b);
                assert_eq!(path, vec![t.wan_link_between(a, b).unwrap()]);
                assert_eq!(t.wan_next_hop(a, b), Some(path[0]));
            }
        }
        // Remove the direct 0-3 link: the cheapest detour (0-1-3, cost
        // 11 + 12) wins over 0-2-3 (12 + 11) by the lowest-zone
        // tie-break on the first hop.
        let mut t = t;
        let direct = t.wan_link_between(0, 3).unwrap();
        t.wan_links.remove(direct);
        let path = t.wan_path(0, 3);
        assert_eq!(path.len(), 2);
        assert_eq!(path[0], t.wan_link_between(0, 1).unwrap());
        assert_eq!(path[1], t.wan_link_between(1, 3).unwrap());
    }

    #[test]
    fn zoned_core_assignment_is_zone_local() {
        let t = Topology::federation(3, 2, 1);
        // Intra-zone pairs use their own zone's core.
        assert_eq!(t.core_between(0, 1), Some(0));
        assert_eq!(t.core_between(2, 3), Some(1));
        assert_eq!(t.core_between(4, 5), Some(2));
        // Cross-zone pairs never ride a campus core.
        assert_eq!(t.core_between(1, 2), None);
        assert_eq!(t.core_between(0, 5), None);
    }

    #[test]
    fn core_between_rejects_out_of_range_edges() {
        let t = Topology::federation(2, 2, 1);
        // Out-of-range indices must not wrap into a neighbour zone's
        // core via the modulo arithmetic.
        assert_eq!(t.core_between(0, 4), None);
        assert_eq!(t.core_between(4, 0), None);
        assert_eq!(t.core_between(7, 8), None);
        let campus = Topology::campus(2, 1);
        assert_eq!(campus.core_between(0, 2), None);
    }

    #[test]
    fn surviving_core_query_rotates_within_the_zone() {
        let t = Topology::campus(4, 3);
        let preferred = t.core_between(0, 1).unwrap();
        let avoiding =
            |t: &Topology, dead: &[usize]| t.core_between_avoiding(0, 1, |c| !dead.contains(&c));
        // No dead cores: identical to core_between.
        assert_eq!(avoiding(&t, &[]), Some(preferred));
        // Preferred core dead: the next core in the zone's rotation.
        let alt = avoiding(&t, &[preferred]).unwrap();
        assert_ne!(alt, preferred);
        // Two dead: the single survivor, whichever it is.
        let alt2 = avoiding(&t, &[preferred, alt]).unwrap();
        assert!(alt2 != preferred && alt2 != alt);
        // All dead: no core survives — caller falls back to direct.
        assert_eq!(avoiding(&t, &[0, 1, 2]), None);
        // Pairs without a core at all are unchanged.
        let direct = Topology::campus(2, 0);
        assert_eq!(avoiding(&direct, &[]), None);
    }

    #[test]
    fn surviving_core_query_never_leaves_the_zone() {
        let t = Topology::federation(2, 2, 2);
        assert_eq!(t.zone_cores(0), 0..2);
        assert_eq!(t.zone_cores(1), 2..4);
        let preferred = t.core_between(0, 1).unwrap();
        let alt = t.core_between_avoiding(0, 1, |c| c != preferred).unwrap();
        assert!(t.zone_cores(0).contains(&alt), "failover stays zone-local");
        // Both zone-0 cores dead: zone 1's live cores must NOT be
        // borrowed — the query reports no survivor.
        assert_eq!(t.core_between_avoiding(0, 1, |c| c >= 2), None);
    }

    #[test]
    fn edge_of_port_respects_zone_boundaries() {
        let t = Topology::federation(2, 2, 0);
        // The zone 0 / zone 1 boundary sits between edges 1 and 2.
        let boundary = t.port_base(2);
        assert_eq!(t.edge_of_port(boundary - 1), Some(1));
        assert_eq!(t.edge_of_port(boundary), Some(2));
        assert_eq!(t.zone_of_edge(1), 0);
        assert_eq!(t.zone_of_edge(2), 1);
        // Below the plan and beyond the last edge's limit: no edge, no
        // silent wrap into another range.
        assert_eq!(t.edge_of_port(FIRST_PORT_BASE - 1), None);
        assert_eq!(t.edge_of_port(t.port_limit(3)), None);
        assert_eq!(t.edge_of_port(u16::MAX), None);
    }
}
