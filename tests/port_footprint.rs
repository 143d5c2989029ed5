//! Port footprint of a segment, and the free list that recycles it.
//!
//! A pair port exists per (sending participant → receiver) stream, so
//! an `n`-member local segment with `s` senders holds
//! `2n + 2·s·(n−1)` SFU ports: an uplink pair per member plus a
//! (video, audio) pair port for every stream a member receives. The
//! capacity model sizes a 64-edge fabric's edges at 867 ports; on such
//! an edge a one-presenter webinar used to exhaust the range at its
//! 21st member (2n² ports: a pair in both directions of every member
//! pair, senders or not).
//!
//! The second half pins [`FreeList`] — lowest id first, as PR 8's
//! compile-path determinism needs — against the `Vec` + full-scan
//! `take_min` it replaced, which lives on here as the oracle.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use scallop::core::agent::{FreeList, SwitchAgent};
use scallop::dataplane::seqrewrite::SeqRewriteMode;
use scallop::dataplane::switch::ScallopDataPlane;
use scallop::netsim::packet::HostAddr;
use std::net::Ipv4Addr;

/// Per-edge port span of the 64-edge fabric in the capacity model.
const EDGE_PORTS: u16 = 867;
const PORT_BASE: u16 = 10_000;

fn edge() -> (SwitchAgent, ScallopDataPlane) {
    (
        SwitchAgent::new(Ipv4Addr::new(10, 0, 0, 100))
            .with_port_range(PORT_BASE, PORT_BASE + EDGE_PORTS),
        ScallopDataPlane::new(SeqRewriteMode::LowRetransmission),
    )
}

fn client(k: usize) -> HostAddr {
    HostAddr::new(
        Ipv4Addr::new(10, 1, (k / 250) as u8, (k % 250) as u8 + 1),
        5000,
    )
}

fn footprint(n: usize, s: usize) -> usize {
    2 * n + 2 * s * n.saturating_sub(1)
}

/// Join `roster` (sends?) one by one, then leave in `leave_order`,
/// checking the footprint formula after every membership change.
fn check_footprint(roster: &[bool], leave_order: &[usize]) {
    let (mut agent, mut dp) = edge();
    let m = agent.create_meeting();
    let mut live: Vec<Option<(u16, bool)>> = Vec::new();
    let count = |live: &[Option<(u16, bool)>]| {
        let n = live.iter().flatten().count();
        let s = live.iter().flatten().filter(|&&(_, sends)| sends).count();
        footprint(n, s)
    };
    for (k, &sends) in roster.iter().enumerate() {
        let grant = agent.join(&mut dp, m, client(k), sends);
        live.push(Some((grant.participant, sends)));
        assert_eq!(agent.ports_in_use(), count(&live), "after join {k}");
    }
    for &k in leave_order {
        let (pid, _) = live[k].take().expect("leaves once");
        agent.leave(&mut dp, m, pid);
        assert_eq!(agent.ports_in_use(), count(&live), "after leave {k}");
    }
    assert_eq!(agent.ports_in_use(), 0, "everyone left");
}

#[test]
fn one_presenter_webinar_fits_an_867_port_edge() {
    let mut roster = vec![false; 101];
    roster[0] = true;
    // Viewers leave first (odd then even), the presenter last.
    let order: Vec<usize> = (1..=100)
        .step_by(2)
        .chain((2..=100).step_by(2))
        .chain([0])
        .collect();
    check_footprint(&roster, &order);
}

#[test]
fn panel_with_audience_follows_the_formula() {
    // Three panelists among 40 members, the panelists joining late and
    // one of them leaving mid-way.
    let roster: Vec<bool> = (0..40).map(|k| matches!(k, 5 | 17 | 29)).collect();
    let order: Vec<usize> = [17]
        .into_iter()
        .chain((0..40).filter(|&k| k != 17))
        .collect();
    check_footprint(&roster, &order);
}

/// The free list `FreeList` replaced: a `Vec` scanned in full for its
/// smallest element on every allocation.
fn take_min(free: &mut Vec<u16>) -> Option<u16> {
    let (i, _) = free.iter().enumerate().min_by_key(|&(_, v)| *v)?;
    Some(free.swap_remove(i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under any history of releases and allocations `FreeList` hands
    /// out exactly the ids the scanning `Vec` would. An id is released
    /// only while allocated (no duplicates in the pool), as the agent
    /// guarantees.
    #[test]
    fn free_list_matches_the_min_scan(ops in pvec((any::<bool>(), 0u16..64), 0..400)) {
        let mut heap = FreeList::default();
        let mut scan: Vec<u16> = Vec::new();
        let mut pooled = [false; 64];
        for (release, id) in ops {
            if release {
                if !std::mem::replace(&mut pooled[id as usize], true) {
                    heap.push(id);
                    scan.push(id);
                }
            } else {
                let got = heap.take();
                prop_assert_eq!(got, take_min(&mut scan));
                if let Some(id) = got {
                    pooled[id as usize] = false;
                }
            }
        }
        // Drain: the whole remaining pool comes out ascending.
        while let Some(id) = heap.take() {
            prop_assert_eq!(Some(id), take_min(&mut scan));
        }
        prop_assert!(scan.is_empty());
    }
}
