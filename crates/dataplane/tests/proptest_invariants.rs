//! Property tests for the data-plane invariants the paper's correctness
//! rests on.
//!
//! 1. **No duplicate outputs, ever** (§6.2's cardinal rule), under
//!    arbitrary loss/reorder/suppression interleavings, for both
//!    heuristics.
//! 2. **Monotone offsets**: the rewrite offset never exceeds the number
//!    of sequence numbers actually absent from the output.
//! 3. **PRE pruning algebra**: replicas = nodes minus L1-pruned minus
//!    L2-pruned, for arbitrary tree shapes.
//! 4. **Parser totality** on arbitrary bytes.
//! 5. **Exact-table oracle**: any install/modify/delete/lookup history
//!    through `ExactTable` (and the fixed hasher under it) equals a
//!    `BTreeMap` plus the capacity rule.

use proptest::collection::vec;
use proptest::prelude::*;
use scallop_dataplane::parser;
use scallop_dataplane::pre::{L1Node, PacketReplicationEngine, PortList};
use scallop_dataplane::rules::EgressKey;
use scallop_dataplane::seqrewrite::{PacketVerdict, RewriteVerdict, SeqRewriteMode, StreamTracker};
use scallop_dataplane::tables::{ExactTable, TableError};
use std::collections::BTreeMap;

/// A scripted packet event for the rewrite stage.
#[derive(Debug, Clone)]
struct Event {
    lost: bool,
    held: bool, // delivered one slot later (light reordering)
}

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    vec(
        (any::<bool>(), 0u8..10).prop_map(|(l, h)| Event {
            lost: l && h < 3, // ~15% loss on the "true" branch
            held: h == 9,     // ~10% of survivors reordered by one
        }),
        64..512,
    )
}

/// One scripted table operation: `(kind, id, wire, value)`. `id` picks
/// one of a dozen agent-allocated keys (so histories collide, refill and
/// hit capacity); `wire` is an arbitrary key only ever looked up.
type TableOp = (u8, u16, u16, u32);

fn arb_table_ops() -> impl Strategy<Value = Vec<TableOp>> {
    vec((0u8..16, 0u16..12, any::<u16>(), any::<u32>()), 1..200)
}

/// Run `ops` through an `ExactTable` of capacity 6 and through a
/// `BTreeMap` + explicit capacity rule (keyed by `ord`, since table keys
/// need not be `Ord`); every result, error, `len` and counter must agree.
fn check_table_history<K: std::hash::Hash + Eq + Copy + std::fmt::Debug>(
    ops: &[TableOp],
    allocated: impl Fn(u16) -> K,
    wire: impl Fn(u16) -> K,
    ord: impl Fn(&K) -> [u16; 3],
) {
    const CAPACITY: usize = 6;
    let mut table: ExactTable<K, u32> = ExactTable::new("t", CAPACITY, 64);
    let mut model: BTreeMap<[u16; 3], u32> = BTreeMap::new();
    let mut lookups = 0u64;
    for &(kind, id, w, value) in ops {
        let key = allocated(id);
        let present = model.contains_key(&ord(&key));
        let full = model.len() >= CAPACITY;
        match kind {
            0..=3 => {
                let want = match (present, full) {
                    (true, _) => Err(TableError::Duplicate),
                    (false, true) => Err(TableError::Full),
                    (false, false) => Ok(()),
                };
                assert_eq!(table.insert(key, value), want, "insert {key:?}");
                if want.is_ok() {
                    model.insert(ord(&key), value);
                }
            }
            4..=7 => {
                let want = if full && !present {
                    Err(TableError::Full)
                } else {
                    Ok(())
                };
                assert_eq!(table.upsert(key, value), want, "upsert {key:?}");
                if want.is_ok() {
                    model.insert(ord(&key), value);
                }
            }
            8..=10 => assert_eq!(table.remove(&key), model.remove(&ord(&key))),
            11..=14 => {
                // Odd kinds probe with the wire-chosen key.
                let key = if kind % 2 == 1 { wire(w) } else { key };
                let want = model.get(&ord(&key));
                assert_eq!(table.peek(&key), want, "peek {key:?}");
                assert_eq!(table.lookup(&key), want, "lookup {key:?}");
                lookups += 1;
            }
            _ if id == 0 => {
                table.clear();
                model.clear();
            }
            _ => {}
        }
        assert_eq!(table.len(), model.len());
        assert_eq!(table.hits + table.misses, lookups);
    }
    let mut left: Vec<([u16; 3], u32)> = table.iter().map(|(k, v)| (ord(k), *v)).collect();
    left.sort_unstable();
    assert_eq!(left, model.into_iter().collect::<Vec<_>>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The exact table under the fixed hasher behaves as a map with a
    /// capacity, for both key shapes the data plane installs; arbitrary
    /// (never-installed, wire-chosen) keys miss and never panic.
    #[test]
    fn exact_table_matches_btreemap_oracle(ops in arb_table_ops()) {
        check_table_history(&ops, |id| 10_000 + id, |w| w, |k| [*k, 0, 0]);
        check_table_history(
            &ops,
            |id| EgressKey { mgid: 1 + id % 3, rid: 1 + id / 3 % 2, in_port: 10_000 + id / 6 },
            |w| EgressKey { mgid: w, rid: w.rotate_left(5), in_port: !w },
            |k| [k.mgid, k.rid, k.in_port],
        );
    }

    /// Under any loss/reorder pattern, neither heuristic ever emits the
    /// same output sequence number twice (distinct-content duplicates
    /// would freeze every receiver, §6.2).
    #[test]
    fn rewrite_never_duplicates(events in arb_events(), cadence in 1u16..5) {
        for mode in [SeqRewriteMode::LowMemory, SeqRewriteMode::LowRetransmission] {
            let mut st = StreamTracker::new(mode, 4);
            st.init_stream(0, cadence);
            let mut seen = std::collections::BTreeSet::new();
            let mut seq = 0u16;
            let mut held: Option<(u16, u16, bool, bool, PacketVerdict)> = None;
            let mut frame = 0u16;
            let mut pos = 0u8;
            let pkts_per_frame = 3u8;
            for ev in &events {
                let suppress = cadence > 1 && !frame.is_multiple_of(cadence);
                let verdict = if suppress { PacketVerdict::Suppress } else { PacketVerdict::Forward };
                let tuple = (seq, frame, pos == 0, pos + 1 == pkts_per_frame, verdict);
                seq = seq.wrapping_add(1);
                pos += 1;
                if pos == pkts_per_frame {
                    pos = 0;
                    frame = frame.wrapping_add(1);
                }
                if ev.lost {
                    continue;
                }
                if ev.held && held.is_none() {
                    held = Some(tuple);
                    continue;
                }
                let (s0, f0, a, b, v) = tuple;
                if let RewriteVerdict::Emit(o) = st.process(0, s0, f0, a, b, v) {
                    prop_assert!(seen.insert(o), "{mode:?} duplicated output {o}");
                }
                if let Some((s1, f1, a1, b1, v1)) = held.take() {
                    if let RewriteVerdict::Emit(o) = st.process(0, s1, f1, a1, b1, v1) {
                        prop_assert!(seen.insert(o), "{mode:?} duplicated late output {o}");
                    }
                }
            }
        }
    }

    /// In-order lossless operation is exact for both modes: outputs are
    /// contiguous from the first emission, regardless of cadence.
    #[test]
    fn rewrite_exact_when_clean(frames in 4u16..200, cadence in 1u16..5, ppf in 1u16..6) {
        for mode in [SeqRewriteMode::LowMemory, SeqRewriteMode::LowRetransmission] {
            let mut st = StreamTracker::new(mode, 4);
            st.init_stream(0, cadence);
            let mut outs = Vec::new();
            let mut seq = 0u16;
            for f in 0..frames {
                let suppress = cadence > 1 && f % cadence != 0;
                for p in 0..ppf {
                    let v = if suppress { PacketVerdict::Suppress } else { PacketVerdict::Forward };
                    if let RewriteVerdict::Emit(o) =
                        st.process(0, seq, f, p == 0, p + 1 == ppf, v)
                    {
                        outs.push(o);
                    }
                    seq = seq.wrapping_add(1);
                }
            }
            let expected: Vec<u16> = (0..outs.len() as u16).collect();
            prop_assert_eq!(&outs, &expected, "{:?} cadence {} ppf {}", mode, cadence, ppf);
        }
    }

    /// PRE pruning: replica count equals nodes minus the L1-excluded set,
    /// minus matching-RID ports in the L2-excluded port set.
    #[test]
    fn pre_pruning_algebra(
        nodes in vec((any::<u16>(), 1u16..4, any::<bool>()), 1..40),
        pkt_xid in 1u16..4,
        pkt_rid_idx in any::<prop::sample::Index>(),
    ) {
        let mut pre = PacketReplicationEngine::new();
        pre.create_group(9).unwrap();
        // Assign each node a unique port = its index; rid = index too.
        for (i, &(_, xid, prune)) in nodes.iter().enumerate() {
            pre.add_node(9, L1Node {
                rid: i as u16,
                xid,
                prune_enabled: prune,
                ports: PortList::One(i as u16),
            }).unwrap();
        }
        let pkt_rid = pkt_rid_idx.index(nodes.len()) as u16;
        // L2 XID 77 prunes the sender's own port (== its rid).
        pre.set_l2_xid_ports(77, vec![pkt_rid]);
        let replicas = pre.replicate(9, pkt_xid, pkt_rid, 77).unwrap();

        let expected = nodes.iter().enumerate().filter(|(i, &(_, xid, prune))| {
            if prune && xid == pkt_xid {
                return false; // L1-pruned
            }
            // L2: the node with rid == pkt_rid loses its port pkt_rid.
            *i as u16 != pkt_rid
        }).count();
        prop_assert_eq!(replicas.len(), expected);
    }

    /// The ingress parser is total and depth-bounded on arbitrary bytes.
    #[test]
    fn parser_total_and_bounded(bytes in vec(any::<u8>(), 0..1600)) {
        let p = parser::parse(&bytes);
        prop_assert!(p.parse_depth <= 27, "depth {}", p.parse_depth);
    }
}
