//! Fig. 19 — per-packet RTP round-trip time through each SFU.
//!
//! Two probe endpoints exchange RTP packets through (a) the Scallop
//! switch and (b) the software SFU, on a LAN-like topology (microsecond
//! links) so the SFU's own forwarding path dominates. The probe embeds
//! its send timestamp in the payload; the peer echoes it back through
//! its own uplink, so each sample is a true A→SFU→B→SFU→A round trip.

use scallop_baseline::{SoftwareSfu, SoftwareSfuConfig};
use scallop_bench::{f, kv, section, series_table, write_json};
use scallop_core::switchnode::{ScallopSwitchNode, SwitchConfig};
use scallop_netsim::link::LinkConfig;
use scallop_netsim::packet::{HostAddr, Packet};
use scallop_netsim::sim::{Ctx, Node, Simulator, TimerToken};
use scallop_netsim::stats::Percentiles;
use scallop_netsim::time::{SimDuration, SimTime};
use scallop_proto::rtp::RtpPacket;
use serde::Serialize;
use std::net::Ipv4Addr;

const PROBES: u64 = 20_000;
const PROBE_INTERVAL: SimDuration = SimDuration::from_micros(500);

/// Sends timestamped RTP probes and measures echo RTT.
struct Prober {
    me: HostAddr,
    sfu_uplink: HostAddr,
    seq: u16,
    sent: u64,
    pub rtts_us: Percentiles,
}

impl Node for Prober {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(SimDuration::from_millis(10), TimerToken(1));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
        if self.sent >= PROBES {
            return;
        }
        self.sent += 1;
        let mut pkt = RtpPacket::new(111, self.seq, 0, 0xAAAA);
        self.seq = self.seq.wrapping_add(1);
        let mut payload = ctx.now().as_nanos().to_be_bytes().to_vec();
        payload.resize(200, 0);
        pkt.payload = payload.into();
        ctx.send(Packet::new(self.me, self.sfu_uplink, pkt.serialize()));
        ctx.schedule(PROBE_INTERVAL, TimerToken(1));
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let Ok(rtp) = RtpPacket::parse_bytes(&pkt.payload) else {
            return;
        };
        if rtp.payload.len() >= 8 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&rtp.payload[..8]);
            let sent_at = SimTime::from_nanos(u64::from_be_bytes(b));
            let rtt = ctx.now().saturating_since(sent_at);
            self.rtts_us.add(rtt.as_micros_f64());
        }
    }
}

/// Echoes every received RTP payload back through its own uplink.
struct Echoer {
    me: HostAddr,
    sfu_uplink: HostAddr,
    seq: u16,
}

impl Node for Echoer {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let Ok(rtp) = RtpPacket::parse_bytes(&pkt.payload) else {
            return;
        };
        let mut echo = RtpPacket::new(111, self.seq, 0, 0xBBBB);
        self.seq = self.seq.wrapping_add(1);
        echo.payload = rtp.payload;
        ctx.send(Packet::new(self.me, self.sfu_uplink, echo.serialize()));
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
}

#[derive(Serialize)]
struct CdfOut {
    system: String,
    median_us: f64,
    p95_us: f64,
    p99_us: f64,
    cdf: Vec<(f64, f64)>,
}

/// LAN-grade access link: 2.5 µs propagation plus rare microburst
/// spikes (1.2 % of packets, 50–150 µs) — the testbed switch-fabric and
/// NIC noise both systems share in the paper's measurement. The median
/// network contribution is ~20 µs; the tail reaches ~150 µs.
fn lan() -> LinkConfig {
    LinkConfig::infinite(SimDuration::from_nanos(2_500)).with_faults(
        scallop_netsim::fault::FaultConfig {
            jitter: scallop_netsim::fault::JitterModel::Spike {
                prob: 0.012,
                min: SimDuration::from_micros(50),
                max: SimDuration::from_micros(150),
            },
            ..scallop_netsim::fault::FaultConfig::clean()
        },
    )
}

fn run_scallop() -> Percentiles {
    let mut sim = Simulator::new(0xF1619);
    let sfu_ip = Ipv4Addr::new(10, 3, 0, 100);
    let mut node = ScallopSwitchNode::new(SwitchConfig::new(sfu_ip));
    let meeting = node.agent.create_meeting();
    let a_addr = HostAddr::new(Ipv4Addr::new(10, 3, 0, 1), 5000);
    let b_addr = HostAddr::new(Ipv4Addr::new(10, 3, 0, 2), 5000);
    let ga = node.join(meeting, a_addr, true);
    let gb = node.join(meeting, b_addr, true);
    let switch_id = sim.add_node(Box::new(node), &[sfu_ip], lan(), lan());
    let prober_id = sim.add_node(
        Box::new(Prober {
            me: a_addr,
            sfu_uplink: ga.audio_uplink,
            seq: 0,
            sent: 0,
            rtts_us: Percentiles::new(),
        }),
        &[a_addr.ip],
        lan(),
        lan(),
    );
    let _ = sim.add_node(
        Box::new(Echoer {
            me: b_addr,
            sfu_uplink: gb.audio_uplink,
            seq: 0,
        }),
        &[b_addr.ip],
        lan(),
        lan(),
    );
    let _ = switch_id;
    sim.run_until(SimTime::from_secs(60));
    let p: &mut Prober = sim.node_mut(prober_id).expect("prober");
    std::mem::take(&mut p.rtts_us)
}

fn run_software() -> Percentiles {
    let mut sim = Simulator::new(0xF1619);
    let sfu_ip = Ipv4Addr::new(10, 3, 1, 100);
    let mut sfu = SoftwareSfu::new(SoftwareSfuConfig::new(sfu_ip));
    let a_addr = HostAddr::new(Ipv4Addr::new(10, 3, 1, 1), 5000);
    let b_addr = HostAddr::new(Ipv4Addr::new(10, 3, 1, 2), 5000);
    let ua = sfu.add_participant(1, a_addr);
    let ub = sfu.add_participant(1, b_addr);
    sim.add_node(Box::new(sfu), &[sfu_ip], lan(), lan());
    let prober_id = sim.add_node(
        Box::new(Prober {
            me: a_addr,
            sfu_uplink: ua,
            seq: 0,
            sent: 0,
            rtts_us: Percentiles::new(),
        }),
        &[a_addr.ip],
        lan(),
        lan(),
    );
    let _ = sim.add_node(
        Box::new(Echoer {
            me: b_addr,
            sfu_uplink: ub,
            seq: 0,
        }),
        &[b_addr.ip],
        lan(),
        lan(),
    );
    sim.run_until(SimTime::from_secs(60));
    let p: &mut Prober = sim.node_mut(prober_id).expect("prober");
    std::mem::take(&mut p.rtts_us)
}

fn main() {
    section("Fig. 19: RTP round-trip time CDF, Scallop vs. software SFU");
    let mut scallop = run_scallop();
    let mut software = run_software();

    let report = |name: &str, p: &mut Percentiles| -> CdfOut {
        CdfOut {
            system: name.to_string(),
            median_us: p.median().unwrap_or(0.0),
            p95_us: p.quantile(0.95).unwrap_or(0.0),
            p99_us: p.quantile(0.99).unwrap_or(0.0),
            cdf: p.cdf_points(40),
        }
    };
    let s = report("scallop", &mut scallop);
    let w = report("mediasoup-like", &mut software);

    series_table(
        &["system", "median us", "p95 us", "p99 us", "samples"],
        &[
            vec![
                "scallop".into(),
                f(s.median_us, 1),
                f(s.p95_us, 1),
                f(s.p99_us, 1),
                scallop.count().to_string(),
            ],
            vec![
                "software".into(),
                f(w.median_us, 1),
                f(w.p95_us, 1),
                f(w.p99_us, 1),
                software.count().to_string(),
            ],
        ],
    );

    section("paper anchors");
    kv(
        "median RTT ratio (paper: 26.8x lower with Scallop)",
        format!("{}x", f(w.median_us / s.median_us, 1)),
    );
    kv(
        "p99 RTT ratio (paper: 8.5x)",
        format!("{}x", f(w.p99_us / s.p99_us, 1)),
    );

    write_json("fig19_forwarding_latency", &vec![s, w]);
}
