//! Analytic capacity models (§6.1, §7.2, §7.4; Figs. 15–17).
//!
//! The evaluation's scalability numbers are resource-budget computations:
//! how many concurrent meetings fit before some hardware or software
//! budget is exhausted. This module encodes every budget line:
//!
//! * **Software baseline**: a 32-core server sustains
//!   `cores × streams_per_core` concurrent SFU streams; a meeting of `n`
//!   participants with `s` senders contributes `2·s·n` streams (s·2
//!   media in + s·2·(n−1) out). Calibrated so 10-party all-sending
//!   meetings cap at 192 and two-party at 4.8 K — the paper's anchors.
//! * **Replication-tree budgets** (§6.1): NRA packs m = 2 meetings/tree
//!   → `m·T` meetings; RA-R needs q = 3 trees per meeting pair →
//!   `m·T/q`; RA-SR aggregates 2 senders per quality per tree →
//!   `2T/(q·s)` meetings.
//! * **Stream-tracker memory** (§6.2/§6.3): the six register arrays hold
//!   65,536 six-word S-LR slots, or twice as many three-word S-LM slots;
//!   each rate-adapted (sender→receiver) video stream consumes one.
//! * **Switch bandwidth**: 12.8 Tbit/s against each meeting's aggregate
//!   in+out rate at the provisioned per-participant peak rate.
//! * **Two-party fast path** (§6.1): no trees at all; bandwidth-bound at
//!   533 K meetings.
//!
//! The overall system line is the minimum across budgets (§7.4:
//! "the overall system performance becomes the minimum of all these
//! lines").
//!
//! ## The online planner
//!
//! Beyond the offline analytics, this module also hosts the *live*
//! fabric-wide capacity planner: [`FabricBudgets`] (per-trunk and
//! per-WAN-link bandwidth budgets plus the per-edge port span derived
//! from [`Topology::port_span`]) and the [`FabricLoadLedger`] — an
//! incrementally-updated account book of offered load that the
//! controller debits on join/compile and credits on leave/GC. The
//! ledger records every debit as a keyed entry so a credit reverses it
//! *exactly*; after a full teardown the book provably reconciles to
//! zero. Admission consults the ledger online and answers with a typed
//! [`AdmissionDecision`]: admit at full rate, degrade to an SVC-thin
//! branch (top temporal layer dropped), or refuse with a
//! [`RefusalReason`].

use scallop_dataplane::pre::{MAX_L1_NODES, MAX_MULTICAST_GROUPS};
use scallop_dataplane::seqrewrite::SeqRewriteMode;
use scallop_netsim::topology::Topology;
use std::collections::BTreeMap;

/// All capacity parameters with the paper's defaults.
#[derive(Debug, Clone, Copy)]
pub struct CapacityModel {
    /// Multicast trees available (T).
    pub trees: u64,
    /// Total L1 nodes available.
    pub l1_nodes: u64,
    /// Meetings aggregated per tree (m).
    pub meetings_per_tree: u64,
    /// Media qualities / decode targets (q, L1T3 = 3).
    pub qualities: u64,
    /// Switch aggregate bandwidth, bits/s.
    pub switch_bps: f64,
    /// Provisioned worst-case media rate per sending participant
    /// (video + audio bundle), bits/s. Chosen so the two-party fast
    /// path lands at the paper's 533 K meetings.
    pub peak_stream_bps: f64,
    /// S-LR stream-tracker slots (six words each).
    pub slr_streams: u64,
    /// S-LM stream-tracker slots (three words in the same SRAM).
    pub slm_streams: u64,
    /// Fraction of forwarded video streams that are rate-adapted (and
    /// therefore consume a tracker slot) in the worst-case analysis.
    pub adapted_fraction: f64,
    /// Software server cores.
    pub sw_cores: u64,
    /// Concurrent SFU streams one core sustains.
    pub sw_streams_per_core: u64,
    /// Bandwidth budget of one trunk direction at one edge, bits/s
    /// (matches [`Topology::default_trunk_link`]'s 100 Gbit/s).
    pub trunk_bps: f64,
    /// Bandwidth budget of one metered WAN link, bits/s (the
    /// federation topology's 10 Gbit/s default).
    pub wan_link_bps: f64,
}

impl Default for CapacityModel {
    fn default() -> Self {
        CapacityModel {
            trees: MAX_MULTICAST_GROUPS as u64,
            l1_nodes: MAX_L1_NODES as u64,
            meetings_per_tree: 2,
            qualities: 3,
            switch_bps: 12.8e12,
            peak_stream_bps: 6.0e6,
            slr_streams: 65_536,
            slm_streams: 131_072,
            adapted_fraction: 0.5,
            sw_cores: 32,
            sw_streams_per_core: 1_200,
            trunk_bps: 100.0e9,
            wan_link_bps: 10.0e9,
        }
    }
}

impl CapacityModel {
    /// Concurrent streams a meeting of `n` participants with `s` senders
    /// places on a *software* SFU (in + out, both media types).
    pub fn sw_streams_per_meeting(&self, n: u64, s: u64) -> u64 {
        // s senders × 2 media × (1 uplink + (n-1) downlinks) = 2·s·n.
        2 * s * n
    }

    /// Meetings a software server supports (§2.1's quadratic scaling).
    pub fn software_meetings(&self, n: u64, s: u64) -> f64 {
        let budget = (self.sw_cores * self.sw_streams_per_core) as f64;
        budget / self.sw_streams_per_meeting(n, s) as f64
    }

    /// Aggregate switch traffic of one meeting (in + out), bits/s.
    pub fn meeting_bps(&self, n: u64, s: u64) -> f64 {
        // s uplinks + s·(n−1) downlink replicas.
        self.peak_stream_bps * (s as f64) * (n as f64)
    }

    /// Bandwidth-bound meeting count.
    pub fn bandwidth_meetings(&self, n: u64, s: u64) -> f64 {
        self.switch_bps / self.meeting_bps(n, s)
    }

    /// Two-party fast path (§6.1): no replication trees, bandwidth-bound.
    pub fn two_party_meetings(&self) -> f64 {
        self.bandwidth_meetings(2, 2)
    }

    /// NRA tree-budget bound: m meetings per tree, n L1 nodes per meeting.
    pub fn nra_tree_meetings(&self, n: u64) -> f64 {
        let by_trees = (self.meetings_per_tree * self.trees) as f64;
        let by_nodes = self.l1_nodes as f64 / n as f64;
        by_trees.min(by_nodes)
    }

    /// RA-R tree-budget bound: q trees per m meetings; up to q·n nodes.
    pub fn ra_r_tree_meetings(&self, n: u64) -> f64 {
        let by_trees = (self.meetings_per_tree * self.trees) as f64 / self.qualities as f64;
        let by_nodes = self.l1_nodes as f64 / (self.qualities * n) as f64;
        by_trees.min(by_nodes)
    }

    /// RA-SR tree-budget bound (§6.1): two senders (and their receivers)
    /// per quality per tree → 2T/(q·s) meetings.
    pub fn ra_sr_tree_meetings(&self, n: u64, s: u64) -> f64 {
        let trees_per_meeting = (self.qualities as f64) * (s as f64) / 2.0;
        let by_trees = self.trees as f64 / trees_per_meeting;
        let by_nodes = self.l1_nodes as f64 / ((self.qualities * s * n) as f64 / 2.0);
        by_trees.min(by_nodes)
    }

    /// Stream-tracker memory bound for a rewrite heuristic: each
    /// rate-adapted (sender → receiver) video stream consumes one slot.
    pub fn rewrite_meetings(&self, n: u64, s: u64, mode: SeqRewriteMode) -> f64 {
        let slots = match mode {
            SeqRewriteMode::LowMemory => self.slm_streams,
            SeqRewriteMode::LowRetransmission => self.slr_streams,
        } as f64;
        let adapted_per_meeting = (s * (n - 1)) as f64 * self.adapted_fraction;
        if adapted_per_meeting <= 0.0 {
            f64::INFINITY
        } else {
            slots / adapted_per_meeting
        }
    }

    /// Best-case Scallop capacity at meeting size `n`: one sender, no
    /// rate adaptation (NRA + S-LM), bandwidth included.
    pub fn scallop_best(&self, n: u64) -> f64 {
        self.scallop_meetings(n, 1, TreeDesignKind::Nra, SeqRewriteMode::LowMemory)
    }

    /// Worst-case Scallop capacity: everyone sends, sender-receiver-
    /// specific adaptation, S-LR memory.
    pub fn scallop_worst(&self, n: u64) -> f64 {
        self.scallop_meetings(
            n,
            n,
            TreeDesignKind::RaSr,
            SeqRewriteMode::LowRetransmission,
        )
    }

    /// Full minimum across budgets for a configuration.
    pub fn scallop_meetings(
        &self,
        n: u64,
        s: u64,
        design: TreeDesignKind,
        mode: SeqRewriteMode,
    ) -> f64 {
        if n <= 2 {
            return self.two_party_meetings();
        }
        let tree_bound = match design {
            TreeDesignKind::Nra => self.nra_tree_meetings(n),
            TreeDesignKind::RaR => self.ra_r_tree_meetings(n),
            TreeDesignKind::RaSr => self.ra_sr_tree_meetings(n, s),
        };
        let rewrite_bound = match design {
            TreeDesignKind::Nra => f64::INFINITY, // no adaptation, no rewriting
            _ => self.rewrite_meetings(n, s, mode),
        };
        tree_bound
            .min(rewrite_bound)
            .min(self.bandwidth_meetings(n, s))
    }

    /// Improvement factor over the software baseline for a configuration.
    pub fn improvement(&self, n: u64, s: u64, design: TreeDesignKind, mode: SeqRewriteMode) -> f64 {
        self.scallop_meetings(n, s, design, mode) / self.software_meetings(n, s)
    }

    /// The (min, max) improvement over a sweep of meeting sizes, sender
    /// counts, and Scallop variants — the paper's "7–210×" headline
    /// (Fig. 15's blue region).
    pub fn improvement_range(&self, n_max: u64) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for n in 2..=n_max {
            let sender_options = [1, n.div_ceil(2), n];
            for &s in &sender_options {
                if s == 0 || s > n {
                    continue;
                }
                for (design, mode) in [
                    (TreeDesignKind::Nra, SeqRewriteMode::LowMemory),
                    (TreeDesignKind::RaR, SeqRewriteMode::LowMemory),
                    (TreeDesignKind::RaR, SeqRewriteMode::LowRetransmission),
                    (TreeDesignKind::RaSr, SeqRewriteMode::LowRetransmission),
                ] {
                    // NRA is only valid when nothing is adapted; it is
                    // the best case, included for every (n, s).
                    let imp = self.improvement(n, s, design, mode);
                    lo = lo.min(imp);
                    hi = hi.max(imp);
                }
            }
        }
        (lo, hi)
    }

    /// Full-rate sender branches one trunk direction sustains before
    /// its bandwidth budget is exhausted.
    pub fn trunk_streams(&self) -> u64 {
        (self.trunk_bps / self.peak_stream_bps) as u64
    }

    /// Full-rate sender branches one WAN link sustains.
    pub fn wan_streams(&self) -> u64 {
        (self.wan_link_bps / self.peak_stream_bps) as u64
    }

    /// Per-edge port budget for `topo`: the [`Topology::port_span`]
    /// slice of UDP port space owned by each edge — it shrinks as
    /// edges are added, so the planner must treat ports as scarce.
    pub fn edge_port_budget(&self, topo: &Topology) -> u64 {
        topo.port_span() as u64
    }

    /// The live-planner budget set derived from this model: trunk and
    /// WAN bandwidth lines, the provisioned full and SVC-thin stream
    /// rates, and per-edge port spans taken from the topology at
    /// [`FabricLoadLedger::set_budgets`] time.
    pub fn fabric_budgets(&self) -> FabricBudgets {
        let stream = self.peak_stream_bps as u64;
        FabricBudgets {
            trunk_bps: self.trunk_bps as u64,
            wan_bps: None,
            stream_bps: stream,
            thin_stream_bps: stream / 2,
            edge_ports: None,
            enforce: true,
        }
    }
}

/// The SVC decode target a thin admission caps a receiver at: dt 1
/// drops the top temporal layer (every-2nd-frame cadence, ~15 fps) —
/// degraded but never frozen.
pub const THIN_DECODE_TARGET: u8 = 1;

/// Bandwidth and port budgets the online planner enforces.
///
/// `None` fields fall back to the topology at
/// [`FabricLoadLedger::set_budgets`] time: per-link WAN budgets come
/// from [`scallop_netsim::topology::WanLink::bandwidth_bps`], the
/// per-edge port budget from [`Topology::port_span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricBudgets {
    /// Bandwidth budget of each trunk direction at each edge, bits/s.
    pub trunk_bps: u64,
    /// Uniform WAN-link budget override, bits/s (`None` → per-link
    /// metered bandwidth from the topology).
    pub wan_bps: Option<u64>,
    /// Planned full rate of one sender branch, bits/s.
    pub stream_bps: u64,
    /// Planned rate of an SVC-thin branch (top layers dropped), bits/s.
    pub thin_stream_bps: u64,
    /// Per-edge port budget override (`None` → [`Topology::port_span`]).
    pub edge_ports: Option<u64>,
    /// Whether admission *enforces* the budgets. When `false` the
    /// ledger still measures offered load against them (the
    /// no-admission baseline a bench compares against) but every join
    /// is admitted.
    pub enforce: bool,
}

impl FabricBudgets {
    /// Budgets derived from the default [`CapacityModel`].
    pub fn from_model() -> Self {
        CapacityModel::default().fabric_budgets()
    }

    /// Same budgets with enforcement off: offered load is still
    /// measured against the budget lines, but nothing is refused.
    pub fn advisory(mut self) -> Self {
        self.enforce = false;
        self
    }
}

/// What the planner answered for one join attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Full-rate admission: every budget line holds with the join's
    /// entire planned load applied.
    Admitted,
    /// SVC-thin admission: the full-rate plan would oversubscribe a
    /// trunk or WAN budget, but the thin-rate plan (top temporal
    /// layer dropped for this receiver's branch) fits.
    AdmittedThin,
    /// The join was refused: even the thin plan breaks a budget line.
    Refused(RefusalReason),
}

/// Which budget line a refused join would have broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalReason {
    /// The edge's [`Topology::port_span`] port slice is exhausted.
    EdgePortsExhausted {
        /// Edge whose port budget is exhausted.
        edge: usize,
    },
    /// A trunk direction at this edge would exceed its bits/s budget.
    TrunkOversubscribed {
        /// Edge whose trunk budget would be exceeded.
        edge: usize,
    },
    /// A metered WAN link would exceed its bits/s budget.
    WanOversubscribed {
        /// Index into [`Topology::wan_links`].
        link: usize,
    },
}

/// Where one trunk-tier branch of a sender's replication plan rides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BranchRoute {
    /// A campus trunk hop: out of `from`'s uplink, into `to`'s.
    Trunk {
        /// Upstream edge (where the branch leaves toward the core).
        from: usize,
        /// Downstream edge (where the branch lands).
        to: usize,
    },
    /// A WAN crossing: the ordered [`Topology::wan_links`] indices of
    /// the gateway-to-gateway path.
    Wan {
        /// WAN link indices traversed.
        links: Vec<usize>,
    },
}

/// One account book entry: the exact amounts a debit charged, so the
/// matching credit reverses them exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadDelta {
    /// Ports charged per edge.
    pub ports: BTreeMap<usize, u64>,
    /// Trunk-out bits/s charged per edge.
    pub trunk_out: BTreeMap<usize, u64>,
    /// Trunk-in bits/s charged per edge.
    pub trunk_in: BTreeMap<usize, u64>,
    /// Bits/s charged per WAN link.
    pub wan: BTreeMap<usize, u64>,
}

impl LoadDelta {
    /// Charge `n` ports at `edge`.
    pub fn add_ports(&mut self, edge: usize, n: u64) {
        *self.ports.entry(edge).or_default() += n;
    }

    /// Charge `bps` along a branch route.
    pub fn add_route(&mut self, route: &BranchRoute, bps: u64) {
        match route {
            BranchRoute::Trunk { from, to } => {
                *self.trunk_out.entry(*from).or_default() += bps;
                *self.trunk_in.entry(*to).or_default() += bps;
            }
            BranchRoute::Wan { links } => {
                for l in links {
                    *self.wan.entry(*l).or_default() += bps;
                }
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.ports.is_empty()
            && self.trunk_out.is_empty()
            && self.trunk_in.is_empty()
            && self.wan.is_empty()
    }
}

/// Ledger account key: which object a debit belongs to. Keys mirror
/// the controller's fabric state — a local member, a remote-sender
/// entry at an edge, or a sender's trunk/WAN branch toward an edge —
/// so every compile step has exactly one reversing credit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LedgerKey {
    /// A local member's uplink ports at its home edge.
    Member {
        /// Global meeting id.
        gmid: u32,
        /// Global participant id.
        global: u32,
    },
    /// A sender's remote entry (trunk-ingress ports) at `edge`.
    Remote {
        /// Global meeting id.
        gmid: u32,
        /// Global participant id of the sender.
        global: u32,
        /// Edge holding the remote entry.
        edge: usize,
    },
    /// A sender's trunk/WAN branch toward segment `to`.
    Branch {
        /// Global meeting id.
        gmid: u32,
        /// Global participant id of the sender.
        global: u32,
        /// Destination edge of the branch.
        to: usize,
    },
}

/// Snapshot of the planner's admission telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionCounts {
    /// Joins admitted at full rate.
    pub admitted_full: u64,
    /// Joins degraded to SVC-thin.
    pub admitted_thin: u64,
    /// Joins refused.
    pub refused: u64,
    /// Refusals on the port-span line.
    pub refused_ports: u64,
    /// Refusals on a trunk bandwidth line.
    pub refused_trunk: u64,
    /// Refusals on a WAN bandwidth line.
    pub refused_wan: u64,
}

/// Uniform uplink ports one local member consumes (video + audio).
pub const MEMBER_PORTS: u64 = 2;
/// Trunk-ingress ports one remote-sender entry consumes at an edge.
pub const REMOTE_PORTS: u64 = 2;

/// The live account book of offered fabric load.
///
/// Without budgets ([`FabricLoadLedger::set_budgets`] never called)
/// the ledger is pure bookkeeping: the controller's debits and credits
/// keep per-edge port occupancy and per-trunk / per-WAN offered bits/s
/// current — which is what breaks a re-home tie — and nothing is ever
/// refused. With budgets set it additionally answers admission
/// queries.
#[derive(Debug, Clone, Default)]
pub struct FabricLoadLedger {
    used: LoadDelta,
    entries: BTreeMap<LedgerKey, LoadDelta>,
    budgets: Option<FabricBudgets>,
    edge_port_budget: u64,
    wan_budget: Vec<u64>,
    counts: AdmissionCounts,
    /// Total debits applied (telemetry).
    pub debits: u64,
    /// Total credits applied (telemetry).
    pub credits: u64,
}

impl FabricLoadLedger {
    /// Install budget lines, resolving topology-derived defaults: the
    /// per-edge port budget from [`Topology::port_span`] and per-link
    /// WAN budgets from the topology's metered bandwidths.
    pub fn set_budgets(&mut self, budgets: FabricBudgets, topo: &Topology) {
        self.edge_port_budget = budgets
            .edge_ports
            .unwrap_or_else(|| topo.port_span() as u64);
        self.wan_budget = topo
            .wan_links
            .iter()
            .map(|l| budgets.wan_bps.unwrap_or(l.bandwidth_bps))
            .collect();
        self.budgets = Some(budgets);
    }

    /// Whether admission actively enforces the budget lines.
    pub fn enforcing(&self) -> bool {
        self.budgets.map(|b| b.enforce).unwrap_or(false)
    }

    /// The installed budgets, if any.
    pub fn budgets(&self) -> Option<FabricBudgets> {
        self.budgets
    }

    /// Planned full rate of one sender branch, bits/s.
    pub fn stream_bps(&self) -> u64 {
        self.budgets
            .map(|b| b.stream_bps)
            .unwrap_or(CapacityModel::default().peak_stream_bps as u64)
    }

    /// Planned SVC-thin branch rate, bits/s.
    pub fn thin_stream_bps(&self) -> u64 {
        self.budgets
            .map(|b| b.thin_stream_bps)
            .unwrap_or(CapacityModel::default().peak_stream_bps as u64 / 2)
    }

    /// Branch rate for a segment of the given thinness.
    pub fn branch_bps(&self, thin: bool) -> u64 {
        if thin {
            self.thin_stream_bps()
        } else {
            self.stream_bps()
        }
    }

    fn apply(&mut self, delta: &LoadDelta, sign_credit: bool) {
        let maps = [
            (&delta.ports, &mut self.used.ports),
            (&delta.trunk_out, &mut self.used.trunk_out),
            (&delta.trunk_in, &mut self.used.trunk_in),
            (&delta.wan, &mut self.used.wan),
        ];
        for (src, dst) in maps {
            for (&k, &v) in src {
                if sign_credit {
                    let cur = dst.get_mut(&k).expect("credit without matching debit");
                    *cur = cur.checked_sub(v).expect("ledger account underflow");
                    if *cur == 0 {
                        dst.remove(&k);
                    }
                } else {
                    *dst.entry(k).or_default() += v;
                }
            }
        }
    }

    /// Debit `delta` under `key`. If the key is already booked the old
    /// entry is credited first, so re-compiling an object (e.g. a
    /// gateway migration re-plumb) never double-counts.
    pub fn debit(&mut self, key: LedgerKey, delta: LoadDelta) {
        self.credit(key);
        if delta.is_empty() {
            return;
        }
        self.apply(&delta, false);
        self.entries.insert(key, delta);
        self.debits += 1;
    }

    /// Credit (exactly reverse) the entry under `key`, if booked.
    pub fn credit(&mut self, key: LedgerKey) {
        if let Some(old) = self.entries.remove(&key) {
            self.apply(&old, true);
            self.credits += 1;
        }
    }

    /// Debit a local member's uplink ports at `edge`.
    pub fn debit_member(&mut self, gmid: u32, global: u32, edge: usize) {
        let mut d = LoadDelta::default();
        d.add_ports(edge, MEMBER_PORTS);
        self.debit(LedgerKey::Member { gmid, global }, d);
    }

    /// Debit a sender's remote entry (trunk-ingress ports) at `edge`.
    pub fn debit_remote(&mut self, gmid: u32, global: u32, edge: usize) {
        let mut d = LoadDelta::default();
        d.add_ports(edge, REMOTE_PORTS);
        self.debit(LedgerKey::Remote { gmid, global, edge }, d);
    }

    /// Debit a sender's branch toward segment `to` along `route`, at
    /// the thin or full planned rate.
    pub fn debit_branch(
        &mut self,
        gmid: u32,
        global: u32,
        to: usize,
        route: &BranchRoute,
        thin: bool,
    ) {
        let mut d = LoadDelta::default();
        d.add_route(route, self.branch_bps(thin));
        self.debit(LedgerKey::Branch { gmid, global, to }, d);
    }

    /// Credit a local member's entry.
    pub fn credit_member(&mut self, gmid: u32, global: u32) {
        self.credit(LedgerKey::Member { gmid, global });
    }

    /// Credit a remote entry.
    pub fn credit_remote(&mut self, gmid: u32, global: u32, edge: usize) {
        self.credit(LedgerKey::Remote { gmid, global, edge });
    }

    /// Credit a branch entry.
    pub fn credit_branch(&mut self, gmid: u32, global: u32, to: usize) {
        self.credit(LedgerKey::Branch { gmid, global, to });
    }

    /// Would `delta`, applied on top of current load, hold every
    /// budget line? Only meaningful when budgets are installed.
    pub fn fits(&self, delta: &LoadDelta) -> Result<(), RefusalReason> {
        let Some(b) = self.budgets else {
            return Ok(());
        };
        for (&e, &v) in &delta.ports {
            if self.ports_used(e) + v > self.edge_port_budget {
                return Err(RefusalReason::EdgePortsExhausted { edge: e });
            }
        }
        for (&e, &v) in &delta.trunk_out {
            if self.trunk_out_bps(e) + v > b.trunk_bps {
                return Err(RefusalReason::TrunkOversubscribed { edge: e });
            }
        }
        for (&e, &v) in &delta.trunk_in {
            if self.trunk_in_bps(e) + v > b.trunk_bps {
                return Err(RefusalReason::TrunkOversubscribed { edge: e });
            }
        }
        for (&l, &v) in &delta.wan {
            let budget = self.wan_budget.get(l).copied().unwrap_or(u64::MAX);
            if self.wan_bps(l) + v > budget {
                return Err(RefusalReason::WanOversubscribed { link: l });
            }
        }
        Ok(())
    }

    /// Ports currently booked at `edge`.
    pub fn ports_used(&self, edge: usize) -> u64 {
        self.used.ports.get(&edge).copied().unwrap_or(0)
    }

    /// Trunk-out bits/s currently booked at `edge`.
    pub fn trunk_out_bps(&self, edge: usize) -> u64 {
        self.used.trunk_out.get(&edge).copied().unwrap_or(0)
    }

    /// Trunk-in bits/s currently booked at `edge`.
    pub fn trunk_in_bps(&self, edge: usize) -> u64 {
        self.used.trunk_in.get(&edge).copied().unwrap_or(0)
    }

    /// Bits/s currently booked on WAN link `l`.
    pub fn wan_bps(&self, l: usize) -> u64 {
        self.used.wan.get(&l).copied().unwrap_or(0)
    }

    /// Load score of an edge for the re-home tie-break: port occupancy
    /// first, then trunk bits (both directions). Lower is emptier.
    pub fn load_score(&self, edge: usize) -> (u64, u64) {
        (
            self.ports_used(edge),
            self.trunk_out_bps(edge) + self.trunk_in_bps(edge),
        )
    }

    /// How many budget lines are currently *over* budget: trunk
    /// directions above `trunk_bps` plus WAN links above their metered
    /// budget. Zero whenever admission enforces the budgets; the
    /// no-admission baseline of the same scenario drives it positive.
    pub fn oversubscribed_links(&self) -> u64 {
        let Some(b) = self.budgets else {
            return 0;
        };
        let trunks = self
            .used
            .trunk_out
            .values()
            .chain(self.used.trunk_in.values())
            .filter(|&&v| v > b.trunk_bps)
            .count();
        let wans = self
            .used
            .wan
            .iter()
            .filter(|(&l, &v)| v > self.wan_budget.get(l).copied().unwrap_or(u64::MAX))
            .count();
        (trunks + wans) as u64
    }

    /// Whether every debit has been exactly reversed: no open entries
    /// and every account at zero. True after a full teardown.
    pub fn reconciled(&self) -> bool {
        self.entries.is_empty() && self.used.is_empty()
    }

    /// Open (un-credited) entries.
    pub fn open_entries(&self) -> usize {
        self.entries.len()
    }

    /// Snapshot of the admission telemetry counters.
    pub fn counts(&self) -> AdmissionCounts {
        self.counts
    }

    /// Record an admission (full or thin) in the telemetry counters.
    pub fn note_admission(&mut self, thin: bool) {
        if thin {
            self.counts.admitted_thin += 1;
        } else {
            self.counts.admitted_full += 1;
        }
    }

    /// Record a refusal in the telemetry counters.
    pub fn note_refusal(&mut self, reason: RefusalReason) {
        self.counts.refused += 1;
        match reason {
            RefusalReason::EdgePortsExhausted { .. } => self.counts.refused_ports += 1,
            RefusalReason::TrunkOversubscribed { .. } => self.counts.refused_trunk += 1,
            RefusalReason::WanOversubscribed { .. } => self.counts.refused_wan += 1,
        }
    }
}

/// Which replication-tree design a capacity query assumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeDesignKind {
    /// Non-rate-adapted (§6.1, Fig. 11b/c).
    Nra,
    /// Receiver-specific rate adaptation (one tree per quality).
    RaR,
    /// Sender-receiver-specific adaptation (2 senders per quality tree).
    RaSr,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> CapacityModel {
        CapacityModel::default()
    }

    #[test]
    fn software_anchors_match_paper() {
        // §6.1: "10 participants per meeting (all sending video and
        // audio) … 192 supported by a 32-core server".
        assert_eq!(m().software_meetings(10, 10).floor() as u64, 192);
        // "4.8K supported by a 32-core server" for two-party meetings.
        assert_eq!(m().software_meetings(2, 2).floor() as u64, 4_800);
    }

    #[test]
    fn scallop_headline_numbers() {
        let c = m();
        // §6.1: two-party fast path "up to 533K concurrent meetings".
        let tp = c.two_party_meetings();
        assert!((530_000.0..540_000.0).contains(&tp), "two-party {tp}");
        // NRA "up to 128K concurrent meetings" (tree budget).
        assert_eq!(c.nra_tree_meetings(10) as u64, 131_072);
        // RA-R "up to 42.7K concurrent meetings".
        let rar = c.ra_r_tree_meetings(10);
        assert!((42_000.0..44_000.0).contains(&rar), "RA-R {rar}");
        // RA-SR at 10 senders: 2T/(q·s) = 4.3K.
        let rasr = c.ra_sr_tree_meetings(10, 10);
        assert!((4_200.0..4_500.0).contains(&rasr), "RA-SR {rasr}");
    }

    #[test]
    fn single_core_fig34_anchor() {
        // Fig. 3/4: one pinned core, 10-party meetings, quality collapses
        // between 60 and 120 participants — i.e. 6..12 meetings/core.
        let one_core = CapacityModel { sw_cores: 1, ..m() };
        let cap = one_core.software_meetings(10, 10);
        assert!((5.0..9.0).contains(&cap), "per-core capacity {cap}");
    }

    #[test]
    fn rewrite_memory_bounds() {
        let c = m();
        let slr = c.rewrite_meetings(10, 10, SeqRewriteMode::LowRetransmission);
        let slm = c.rewrite_meetings(10, 10, SeqRewriteMode::LowMemory);
        // S-LM supports exactly twice the meetings of S-LR (half the
        // state per stream in the same SRAM).
        assert!((slm / slr - 2.0).abs() < 1e-9);
        // 65,536 slots / (10×9×0.5 adapted streams) ≈ 1,456 meetings.
        assert!((1_400.0..1_500.0).contains(&slr), "S-LR bound {slr}");
    }

    #[test]
    fn overall_minimum_rule() {
        let c = m();
        // At n=s=10 with RA-SR + S-LR the binding constraint is the
        // tracker memory (1.46K), not the trees (4.37K).
        let total = c.scallop_meetings(
            10,
            10,
            TreeDesignKind::RaSr,
            SeqRewriteMode::LowRetransmission,
        );
        let mem = c.rewrite_meetings(10, 10, SeqRewriteMode::LowRetransmission);
        assert!((total - mem).abs() < 1e-9);
        // With NRA (no adaptation) the tree budget binds at small n and
        // bandwidth at large n.
        let small = c.scallop_meetings(4, 1, TreeDesignKind::Nra, SeqRewriteMode::LowMemory);
        assert_eq!(small as u64, 131_072);
        let large = c.scallop_meetings(100, 100, TreeDesignKind::Nra, SeqRewriteMode::LowMemory);
        assert!((large - c.bandwidth_meetings(100, 100)).abs() < 1e-9);
    }

    #[test]
    fn improvement_range_has_paper_shape() {
        let (lo, hi) = m().improvement_range(100);
        // Paper: "7-210× improved scaling". The model reproduces the
        // order of magnitude and the wide spread; exact endpoints depend
        // on unpublished workload details.
        assert!((4.0..12.0).contains(&lo), "low end {lo}");
        assert!((100.0..500.0).contains(&hi), "high end {hi}");
    }

    #[test]
    fn improvement_grows_linearly_beyond_two_party() {
        // §7.4: "Thereafter, the improvement grows linearly since Scallop
        // scales linearly while software scales quadratically." The
        // linear regime is the RA-SR *tree* budget (2T/(q·s) ∝ 1/n
        // against software's 1/n²); when the rewrite-memory line binds
        // instead, both scale quadratically and the ratio flattens —
        // exactly the lower bound of Fig. 15's blue region.
        let c = m();
        let tree_imp = |n: u64| c.ra_sr_tree_meetings(n, n) / c.software_meetings(n, n);
        let r1 = tree_imp(40) / tree_imp(20);
        let r2 = tree_imp(80) / tree_imp(40);
        assert!((1.9..2.1).contains(&r1), "ratio {r1}");
        assert!((1.9..2.1).contains(&r2), "ratio {r2}");
        // Memory-bound configurations flatten out (both quadratic).
        let mem_imp = |n: u64| {
            c.rewrite_meetings(n, n, SeqRewriteMode::LowRetransmission) / c.software_meetings(n, n)
        };
        let flat = mem_imp(80) / mem_imp(20);
        assert!((0.8..1.3).contains(&flat), "flat ratio {flat}");
    }

    #[test]
    fn two_party_always_beats_everything_per_meeting_cost() {
        let c = m();
        // Two-party improvement: 533K / 4.8K ≈ 111×.
        let imp = c.two_party_meetings() / c.software_meetings(2, 2);
        assert!((100.0..125.0).contains(&imp), "two-party improvement {imp}");
    }

    #[test]
    fn model_budget_lines() {
        let c = m();
        // 100 Gbit/s trunk at 6 Mbit/s full-rate branches.
        assert_eq!(c.trunk_streams(), 16_666);
        assert_eq!(c.wan_streams(), 1_666);
        let b = c.fabric_budgets();
        assert_eq!(b.stream_bps, 6_000_000);
        assert_eq!(b.thin_stream_bps, 3_000_000);
        assert!(b.enforce && !b.advisory().enforce);
    }

    fn thin_budgets() -> FabricBudgets {
        FabricBudgets {
            trunk_bps: 10_000_000,
            wan_bps: Some(4_000_000),
            stream_bps: 6_000_000,
            thin_stream_bps: 3_000_000,
            edge_ports: Some(6),
            enforce: true,
        }
    }

    #[test]
    fn ledger_debits_credits_reconcile_exactly() {
        let mut l = FabricLoadLedger::default();
        l.set_budgets(thin_budgets(), &Topology::federation(2, 2, 0));
        l.debit_member(1, 7, 0);
        l.debit_remote(1, 7, 3);
        l.debit_branch(1, 7, 3, &BranchRoute::Wan { links: vec![0] }, false);
        l.debit_branch(1, 7, 1, &BranchRoute::Trunk { from: 0, to: 1 }, true);
        assert_eq!(l.ports_used(0), 2);
        assert_eq!(l.ports_used(3), 2);
        assert_eq!(l.wan_bps(0), 6_000_000);
        assert_eq!(l.trunk_out_bps(0), 3_000_000);
        assert_eq!(l.trunk_in_bps(1), 3_000_000);
        assert!(!l.reconciled());
        l.credit_member(1, 7);
        l.credit_remote(1, 7, 3);
        l.credit_branch(1, 7, 3);
        l.credit_branch(1, 7, 1);
        assert!(l.reconciled(), "all accounts must return to zero");
        assert_eq!(l.open_entries(), 0);
        // A second credit of the same key is a no-op.
        l.credit_member(1, 7);
        assert!(l.reconciled());
    }

    #[test]
    fn ledger_redebit_replaces_not_double_counts() {
        let mut l = FabricLoadLedger::default();
        l.set_budgets(thin_budgets(), &Topology::campus(2, 1));
        let r = BranchRoute::Trunk { from: 0, to: 1 };
        l.debit_branch(1, 7, 1, &r, false);
        assert_eq!(l.trunk_out_bps(0), 6_000_000);
        // Re-compiling the same branch (e.g. a gateway migration
        // re-plumb) replaces the entry instead of stacking it.
        l.debit_branch(1, 7, 1, &BranchRoute::Trunk { from: 2, to: 1 }, false);
        assert_eq!(l.trunk_out_bps(0), 0);
        assert_eq!(l.trunk_out_bps(2), 6_000_000);
        l.credit_branch(1, 7, 1);
        assert!(l.reconciled());
    }

    #[test]
    fn ledger_fits_names_the_broken_line() {
        let mut l = FabricLoadLedger::default();
        l.set_budgets(thin_budgets(), &Topology::federation(2, 2, 0));
        let mut ports = LoadDelta::default();
        ports.add_ports(0, 8);
        assert_eq!(
            l.fits(&ports),
            Err(RefusalReason::EdgePortsExhausted { edge: 0 })
        );
        let mut trunk = LoadDelta::default();
        trunk.add_route(&BranchRoute::Trunk { from: 0, to: 1 }, 12_000_000);
        assert_eq!(
            l.fits(&trunk),
            Err(RefusalReason::TrunkOversubscribed { edge: 0 })
        );
        let mut wan = LoadDelta::default();
        wan.add_route(&BranchRoute::Wan { links: vec![0] }, 5_000_000);
        assert_eq!(
            l.fits(&wan),
            Err(RefusalReason::WanOversubscribed { link: 0 })
        );
        let mut ok = LoadDelta::default();
        ok.add_ports(0, 2);
        ok.add_route(&BranchRoute::Trunk { from: 0, to: 1 }, 6_000_000);
        assert_eq!(l.fits(&ok), Ok(()));
    }

    #[test]
    fn ledger_oversubscription_is_measured_not_enforced() {
        // Advisory budgets: the baseline run books load freely and the
        // ledger reports how many budget lines broke.
        let mut l = FabricLoadLedger::default();
        l.set_budgets(thin_budgets().advisory(), &Topology::campus(3, 1));
        assert!(!l.enforcing() && l.budgets().is_some());
        for g in 0..3u32 {
            l.debit_branch(1, g, 1, &BranchRoute::Trunk { from: 0, to: 1 }, false);
        }
        // 18 Mbit/s offered on a 10 Mbit/s trunk: out at 0 and in at 1.
        assert_eq!(l.oversubscribed_links(), 2);
        for g in 0..3u32 {
            l.credit_branch(1, g, 1);
        }
        assert_eq!(l.oversubscribed_links(), 0);
        assert!(l.reconciled());
    }

    #[test]
    fn admission_counters_track_reasons() {
        let mut l = FabricLoadLedger::default();
        l.note_admission(false);
        l.note_admission(true);
        l.note_refusal(RefusalReason::EdgePortsExhausted { edge: 0 });
        l.note_refusal(RefusalReason::TrunkOversubscribed { edge: 1 });
        l.note_refusal(RefusalReason::WanOversubscribed { link: 0 });
        let c = l.counts();
        assert_eq!(c.admitted_full, 1);
        assert_eq!(c.admitted_thin, 1);
        assert_eq!(c.refused, 3);
        assert_eq!((c.refused_ports, c.refused_trunk, c.refused_wan), (1, 1, 1));
    }
}
