//! Federation integration: one meeting spanning three campuses.
//!
//! The zone tier's claim extends the campus one to a continent. This
//! suite pins its three load-bearing properties end to end:
//!
//! 1. **Quality**: every cross-zone stream decodes at the fabric floor
//!    (≥ 25 fps) despite the WAN hop's latency and rate limit.
//! 2. **WAN economy**: uplink media crosses each WAN link **once per
//!    remote zone**, not once per remote switch or receiver — the
//!    remote zone's gateway edge re-trunks in-zone, and its edges'
//!    PREs fan out per receiver.
//! 3. **Zone-affine ownership**: with zone affinity, every meeting's
//!    owner shard stays in its home zone's shard set (run the corpus
//!    with `SCALLOP_SHARDS=4` to exercise the multi-shard case).

use scallop::core::harness::{HarnessConfig, ScallopHarness};
use scallop::netsim::time::SimDuration;

/// Three campuses of 2 edges + 1 core each; six participants land
/// round-robin on edges 0..6 (two per zone), the first three sending
/// (P0, P1 in zone 0; P2 in zone 1).
fn federation3() -> ScallopHarness {
    ScallopHarness::new(
        HarnessConfig::default()
            .participants(6)
            .senders(3)
            .switches(2)
            .cores(1)
            .zones(3)
            .seed(0xFED3),
    )
}

#[test]
fn cross_zone_streams_decode_near_full_rate() {
    let mut h = federation3();
    h.run_for_secs(5.0);
    // Every sender→receiver pair whose endpoints sit in different
    // zones decodes at the fabric floor.
    let window = SimDuration::from_secs(2);
    let mut cross_pairs = 0;
    for s in 0..3 {
        for r in 0..6 {
            if r == s {
                continue;
            }
            let (zs, zr) = (
                h.fabric.topology.zone_of_edge(h.edge_of(s)),
                h.fabric.topology.zone_of_edge(h.edge_of(r)),
            );
            if zs == zr {
                continue;
            }
            cross_pairs += 1;
            let fps = h.fps_between(s, r, window).expect("cross-zone stream");
            assert!(
                (25.0..35.0).contains(&fps),
                "P{s}(zone {zs}) -> P{r}(zone {zr}) fps {fps}"
            );
        }
    }
    assert!(cross_pairs >= 10, "expected a continental mesh of pairs");
    let report = h.report();
    assert_eq!(report.freezes, 0, "no decoder freezes across the WAN");
}

#[test]
fn wan_carries_one_copy_per_remote_zone() {
    let mut h = federation3();
    h.run_for_secs(5.0);
    assert_eq!(h.fabric.topology.wan_links.len(), 3, "3-zone full mesh");

    // Offered load per zone: media + SRs its edges ingested from
    // *local* clients (`rtp_in`/`rtcp_sr` also count trunk-arrived
    // packets, which `trunk_in` isolates). The meeting spans all three
    // zones, so each zone's uplink must cross each of its two WAN
    // links exactly once — per link, the relay carries the two
    // endpoint zones' offered load, nothing more (a per-switch or
    // per-receiver WAN fan-out would double it).
    let mut offered_zone = vec![0u64; 3];
    for e in 0..6 {
        let c = h.counters_at(e);
        offered_zone[h.fabric.topology.zone_of_edge(e)] +=
            c.rtp_in_pkts + c.rtcp_sr_pkts - c.trunk_in_pkts;
    }
    // Senders sit in zones 0 and 1; zone 2 only receives.
    assert!(
        offered_zone[0] > 0 && offered_zone[1] > 0,
        "{offered_zone:?}"
    );
    assert_eq!(offered_zone[2], 0, "zone 2 hosts no senders");
    for l in 0..3 {
        let (a, b) = {
            let wl = &h.fabric.topology.wan_links[l];
            (wl.zone_a, wl.zone_b)
        };
        let s = h.wan_stats(l);
        let expected = offered_zone[a] + offered_zone[b];
        assert_eq!(s.unroutable_pkts, 0, "link {l} dropped routes");
        assert!(
            s.relayed_pkts <= expected,
            "link {l} (zones {a}-{b}) relayed {} of {expected} offered: \
             media crossed the WAN more than once per remote zone",
            s.relayed_pkts
        );
        assert!(
            s.relayed_pkts as f64 >= 0.95 * expected as f64,
            "link {l} (zones {a}-{b}) relayed {} of {expected} offered",
            s.relayed_pkts
        );
        assert!(s.relayed_bytes > 0, "link {l} carried no bytes");
    }
}

#[test]
fn zone_affine_sharding_keeps_every_owner_in_its_home_zone() {
    // Explicitly 4 shards over 3 zones (the acceptance configuration;
    // the default-config harness below additionally honors
    // `SCALLOP_SHARDS`): shard s may own zone-z meetings only when
    // s ≡ z (mod zones), so a zone's bookkeeping never migrates onto
    // a controller homed with another campus.
    for cfg in [
        HarnessConfig::default()
            .participants(0)
            .switches(2)
            .cores(1)
            .zones(3)
            .shards(4)
            .seed(0xFED4),
        HarnessConfig::default()
            .participants(0)
            .switches(2)
            .cores(1)
            .zones(3)
            .seed(0xFED4),
    ] {
        let mut h = ScallopHarness::new(cfg);
        let mut meetings = vec![h.fabric_meeting];
        for i in 1..12 {
            meetings.push(
                h.controller
                    .create_fabric_meeting(&mut h.sim, &h.fabric, i % 6),
            );
        }
        for &gmid in &meetings {
            let home = h.controller.home_edge_of(gmid).expect("homed");
            let zone = h.fabric.topology.zone_of_edge(home);
            let owner = h.controller.owner_of(gmid).expect("owned");
            assert!(
                h.controller.zone_shards(zone).contains(&owner),
                "meeting {gmid} homed in zone {zone} owned by shard {owner} \
                 outside {:?}",
                h.controller.zone_shards(zone)
            );
        }
        // The per-zone telemetry accounts for every meeting.
        let zc = h.controller.zone_meeting_counts();
        assert_eq!(zc.iter().sum::<usize>(), meetings.len());
        assert!(zc.iter().all(|&c| c == 4), "round-robin balance: {zc:?}");
        assert_eq!(h.controller.cross_zone_handoff_total(), 0);
    }
}
