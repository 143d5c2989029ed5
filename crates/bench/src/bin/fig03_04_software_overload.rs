//! Figs. 3/4 — QoE collapse on an under-provisioned software SFU.
//!
//! Methodology mirrors §2.2: the split-proxy SFU is pinned to a single
//! core; ten-party meetings fill up one participant at a time; the first
//! meeting's receive jitter (median/p95/p99) and decoded frame rate are
//! sampled as total participants grow.
//!
//! Scale substitution: media runs at a reduced 500 kbit/s per sender
//! and participants join every 2 s instead of 10 s, with the per-core
//! packet budget scaled so saturation lands at the paper's ~80
//! participants. The collapse *shape* against the participant axis is
//! the reproduced result.

use scallop_baseline::{SoftwareSfu, SoftwareSfuConfig};
use scallop_bench::{f, kv, section, series_table, write_json};
use scallop_client::{ClientConfig, ClientNode};
use scallop_media::encoder::EncoderConfig;
use scallop_netsim::link::LinkConfig;
use scallop_netsim::packet::HostAddr;
use scallop_netsim::sim::{NodeId, Simulator};
use scallop_netsim::stats::Percentiles;
use scallop_netsim::time::SimDuration;
use serde::Serialize;
use std::net::Ipv4Addr;

const MEETINGS: usize = 15;
const PER_MEETING: usize = 10;
const JOIN_INTERVAL: SimDuration = SimDuration::from_secs(2);
const VIDEO_BPS: u64 = 500_000;

#[derive(Serialize)]
struct Sample {
    participants: usize,
    jitter_median_ms: f64,
    jitter_p95_ms: f64,
    jitter_p99_ms: f64,
    rx_fps: f64,
    cpu_utilization: f64,
}

fn client_ip(idx: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 2, (idx / 200) as u8, (idx % 200 + 1) as u8)
}

fn main() {
    section("Figs. 3/4: software SFU overload (single pinned core)");
    let sfu_ip = Ipv4Addr::new(10, 2, 250, 1);
    let mut cfg = SoftwareSfuConfig::new(sfu_ip);
    cfg.pinned_core = Some(0);
    // Quality degradation sets in when run-queue delay becomes a frame
    // interval, well before literal 100 % utilization; a 16.5 µs
    // per-packet budget puts the onset at the paper's ~60 participants
    // and the unusable point at ~100-120.
    cfg.cpu.per_packet = SimDuration::from_nanos(16_500);
    // Scale the layer-selection thresholds to the reduced media rate so
    // unconstrained receivers stay at the full 30 fps tier.
    cfg.remb_thresholds = [100_000, 250_000];

    let mut sim = Simulator::new(0xF1634);
    let link = LinkConfig::infinite(SimDuration::from_millis(5));
    let sfu = SoftwareSfu::new(cfg);
    let sfu_id = sim.add_node(
        Box::new(sfu),
        &[sfu_ip],
        LinkConfig::infinite(SimDuration::from_micros(50)),
        LinkConfig::infinite(SimDuration::from_micros(50)),
    );

    let mut samples: Vec<Sample> = Vec::new();
    let mut meeting1_clients: Vec<NodeId> = Vec::new();
    let mut joined = 0usize;

    for meeting in 0..MEETINGS {
        for _ in 0..PER_MEETING {
            let idx = joined;
            joined += 1;
            let ip = client_ip(idx);
            let addr = HostAddr::new(ip, 5000);
            let uplink = {
                let s: &mut SoftwareSfu = sim.node_mut(sfu_id).expect("sfu");
                s.add_participant(meeting as u32 + 1, addr)
            };
            let mut ccfg =
                ClientConfig::sender(ip, 5000, 0x100 * (idx as u32 + 1)).sending_to(uplink, uplink);
            // Pin the ceiling too: the REMB relay must not push senders
            // past the scaled-down media rate.
            ccfg.video = Some(EncoderConfig {
                start_bitrate_bps: VIDEO_BPS,
                min_bitrate_bps: 150_000,
                max_bitrate_bps: VIDEO_BPS,
                ..EncoderConfig::default()
            });
            let id = sim.add_node(Box::new(ClientNode::new(ccfg)), &[ip], link, link);
            if meeting == 0 {
                meeting1_clients.push(id);
            }
            sim.run_for(JOIN_INTERVAL);

            // Sample the first meeting's quality.
            let mut jitter = Percentiles::new();
            let mut fps_sum = 0.0;
            let mut fps_n = 0.0;
            let now = sim.now();
            for &cid in &meeting1_clients {
                let c: &mut ClientNode = sim.node_mut(cid).expect("client");
                for (_, rx) in c
                    .stats()
                    .streams
                    .iter()
                    .filter(|(_, r)| r.frames_decoded > 0)
                {
                    jitter.add(rx.jitter_ms);
                }
                let sources: Vec<HostAddr> = c
                    .stats()
                    .streams
                    .iter()
                    .filter(|(_, r)| r.frames_decoded > 0)
                    .map(|(a, _)| *a)
                    .collect();
                for src in sources {
                    if let Some(fps) = c.fps_from(src, SimDuration::from_secs(2), now) {
                        fps_sum += fps;
                        fps_n += 1.0;
                    }
                }
            }
            let util = {
                let s: &mut SoftwareSfu = sim.node_mut(sfu_id).expect("sfu");
                s.cpu_utilization(now)
            };
            samples.push(Sample {
                participants: joined,
                jitter_median_ms: jitter.median().unwrap_or(0.0),
                jitter_p95_ms: jitter.quantile(0.95).unwrap_or(0.0),
                jitter_p99_ms: jitter.quantile(0.99).unwrap_or(0.0),
                rx_fps: if fps_n > 0.0 { fps_sum / fps_n } else { 0.0 },
                cpu_utilization: util,
            });
        }
    }

    section("Fig. 3: video RX jitter vs. participants   |   Fig. 4: RX frame rate");
    let rows: Vec<Vec<String>> = samples
        .iter()
        .filter(|s| s.participants % 10 == 0 || s.participants < 10)
        .map(|s| {
            vec![
                s.participants.to_string(),
                f(s.jitter_median_ms, 2),
                f(s.jitter_p95_ms, 2),
                f(s.jitter_p99_ms, 2),
                f(s.rx_fps, 1),
                f(s.cpu_utilization * 100.0, 1),
            ]
        })
        .collect();
    series_table(
        &[
            "parts",
            "jit p50 ms",
            "jit p95 ms",
            "jit p99 ms",
            "rx fps",
            "cpu %",
        ],
        &rows,
    );

    section("paper anchors");
    let sat = samples
        .iter()
        .find(|s| s.cpu_utilization > 0.90)
        .map(|s| s.participants);
    kv(
        "CPU saturation (>90%) at participants (paper: 100% at ~80)",
        format!("{sat:?}"),
    );
    let fps_drop = samples
        .iter()
        .find(|s| s.participants >= 40 && s.rx_fps < 25.0)
        .map(|s| s.participants);
    kv(
        "frame rate degradation onset (paper: ~60)",
        format!("{fps_drop:?}"),
    );
    let tail_blowup = samples
        .iter()
        .find(|s| s.jitter_p99_ms > 100.0)
        .map(|s| s.participants);
    kv(
        "p99 jitter exceeds 100 ms at (paper: tail high throughout, >100 ms under load)",
        format!("{tail_blowup:?}"),
    );

    write_json("fig03_04_software_overload", &samples);
}
