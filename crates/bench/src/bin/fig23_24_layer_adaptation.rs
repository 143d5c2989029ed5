//! Figs. 23/24 — per-receiver and per-layer adaptation of one stream.
//!
//! Appendix C/D observed a Zoom sender's stream being reduced for two
//! receivers at different times, implemented by dropping labeled packet
//! types. This bench replays the same scenario through the Scallop
//! switch: participant 1 sends to three receivers (the Zoom meeting had
//! more); receivers 2 and 3 degrade at 110 s and 200 s respectively
//! while receiver 4 stays healthy — its feedback keeps the sender at
//! full rate (§5.3 best-downlink selection), exactly why the Zoom
//! sender's outgoing stream stays flat in Fig. 23. Fig. 24 breaks
//! receiver 3's stream down by SVC layer (our template tiers play the
//! role of Zoom's packet-type bitmask values).

use scallop_bench::{f, kv, section, series_table, write_json};
use scallop_client::ClientNode;
use scallop_core::harness::{HarnessConfig, ScallopHarness};
use scallop_netsim::time::SimDuration;
use serde::Serialize;

const RUN_SECS: u64 = 260;

#[derive(Serialize, Default, Clone, Copy)]
struct Sample {
    t: u64,
    sender_kbps: f64,
    rx2_kbps: f64,
    rx3_kbps: f64,
    rx3_t0_kbps: f64,
    rx3_t1_kbps: f64,
    rx3_t2_kbps: f64,
}

fn main() {
    section("Figs. 23/24: per-receiver / per-layer adaptation timelines");
    let mut h = ScallopHarness::new(
        HarnessConfig::default()
            .participants(4)
            .senders(1)
            .seed(0x7AB23),
    );
    for idx in [1, 2] {
        let cid = h.client_ids[idx];
        let c: &mut ClientNode = h.sim.node_mut(cid).expect("client");
        c.rx_tap = Some(Vec::new());
    }

    let mut samples: Vec<Sample> = Vec::new();
    for t in (5..=RUN_SECS).step_by(5) {
        if t == 110 {
            h.degrade_downlink(1, 900_000);
            println!("[t={t}s] receiver 2 downlink degraded");
        }
        if t == 200 {
            h.degrade_downlink(2, 900_000);
            println!("[t={t}s] receiver 3 downlink degraded");
        }
        h.run_for_secs(5.0);
        let now = h.sim.now();
        let sender_kbps = {
            let s = h.client_stats(0);
            let _ = s;
            // Approximate from target bitrate (the encoder holds its
            // configured rate; the uplink is unconstrained).
            h.client_stats(0).sender.target_bitrate_bps as f64 / 1000.0
        };
        let mut sample = Sample {
            t,
            sender_kbps,
            ..Default::default()
        };
        for (idx, rx2) in [(1usize, true), (2usize, false)] {
            let cid = h.client_ids[idx];
            let c: &mut ClientNode = h.sim.node_mut(cid).expect("client");
            let Some(tap) = &mut c.rx_tap else { continue };
            let cutoff = now - SimDuration::from_secs(5);
            let mut total = 0.0;
            let mut by_tier = [0.0f64; 3];
            for r in tap.iter().filter(|r| r.at >= cutoff) {
                if let Some(tier) = r.tier {
                    total += r.bytes as f64;
                    by_tier[tier.min(2) as usize] += r.bytes as f64;
                }
            }
            let kbps = |b: f64| b * 8.0 / 5.0 / 1000.0;
            if rx2 {
                sample.rx2_kbps = kbps(total);
            } else {
                sample.rx3_kbps = kbps(total);
                sample.rx3_t0_kbps = kbps(by_tier[0]);
                sample.rx3_t1_kbps = kbps(by_tier[1]);
                sample.rx3_t2_kbps = kbps(by_tier[2]);
            }
            tap.retain(|r| r.at >= cutoff);
        }
        samples.push(sample);
    }

    section("Fig. 23: forwarded bitrate per receiver (kbit/s)");
    series_table(
        &["t", "sender", "rx2", "rx3"],
        &samples
            .iter()
            .filter(|s| s.t % 20 == 0)
            .map(|s| {
                vec![
                    s.t.to_string(),
                    f(s.sender_kbps, 0),
                    f(s.rx2_kbps, 0),
                    f(s.rx3_kbps, 0),
                ]
            })
            .collect::<Vec<_>>(),
    );

    section("Fig. 24: receiver 3's stream by SVC layer (kbit/s)");
    series_table(
        &["t", "T0 (base)", "T1", "T2", "total"],
        &samples
            .iter()
            .filter(|s| s.t % 20 == 0)
            .map(|s| {
                vec![
                    s.t.to_string(),
                    f(s.rx3_t0_kbps, 0),
                    f(s.rx3_t1_kbps, 0),
                    f(s.rx3_t2_kbps, 0),
                    f(s.rx3_kbps, 0),
                ]
            })
            .collect::<Vec<_>>(),
    );

    section("paper anchors");
    let avg = |lo: u64, hi: u64, get: fn(&Sample) -> f64| -> f64 {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.t > lo && s.t <= hi)
            .map(get)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    kv(
        "rx2 bitrate before/after its degradation",
        format!(
            "{} -> {} kbit/s",
            f(avg(60, 110, |s| s.rx2_kbps), 0),
            f(avg(150, 200, |s| s.rx2_kbps), 0)
        ),
    );
    kv(
        "rx3 bitrate before/after its degradation",
        format!(
            "{} -> {} kbit/s",
            f(avg(150, 200, |s| s.rx3_kbps), 0),
            f(avg(240, RUN_SECS, |s| s.rx3_kbps), 0)
        ),
    );
    kv(
        "rx3 T2 layer share after adaptation (dropped => ~0)",
        f(avg(240, RUN_SECS, |s| s.rx3_t2_kbps), 1),
    );

    write_json("fig23_24_layer_adaptation", &samples);
}
