//! Property tests for the simulation substrate: conservation, ordering,
//! and determinism under arbitrary traffic.

use proptest::collection::vec;
use proptest::prelude::*;
use scallop_netsim::fault::FaultConfig;
use scallop_netsim::link::{Link, LinkConfig, LinkVerdict};
use scallop_netsim::packet::{HostAddr, Packet};
use scallop_netsim::rng::DetRng;
use scallop_netsim::sim::{Ctx, Node, Simulator, TimerToken};
use scallop_netsim::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// FIFO links never reorder: delivery times are non-decreasing in
    /// offer order, whatever the sizes and offer times.
    #[test]
    fn links_are_fifo(
        offers in vec((0u64..1_000_000, 64usize..1_500), 2..64),
        rate in 100_000u64..100_000_000,
    ) {
        let mut link = Link::new(
            LinkConfig::infinite(SimDuration::from_micros(50))
                .with_rate(rate)
                .with_queue_bytes(1 << 30),
        );
        let mut rng = DetRng::new(7);
        let mut offers = offers;
        offers.sort_by_key(|&(t, _)| t);
        let mut last = SimTime::ZERO;
        for (t_us, size) in offers {
            match link.offer(SimTime::from_micros(t_us), size, &mut rng) {
                LinkVerdict::Deliver { at, .. } => {
                    prop_assert!(at >= last, "reordered: {at} < {last}");
                    last = at;
                }
                LinkVerdict::Drop(_) => {}
            }
        }
    }

    /// Serialization time is the `u128` formula exactly, on both sides
    /// of the size where the `u64` product overflows.
    #[test]
    fn serialization_is_the_wide_formula(
        small in 0usize..70_000,
        huge in 2_000_000_000usize..usize::MAX,
        rate in 1u64..u64::MAX,
    ) {
        for bytes in [small, huge] {
            let wide = (bytes as u128 * 8 * 1_000_000_000 / rate as u128) as u64;
            prop_assert_eq!(SimDuration::serialization(bytes, rate).as_nanos(), wide);
        }
    }

    /// Conservation: offered = delivered + dropped, and loss statistics
    /// are consistent.
    #[test]
    fn link_conservation(n in 1usize..500, loss in 0.0f64..1.0) {
        let mut link = Link::new(
            LinkConfig::infinite(SimDuration::ZERO)
                .with_faults(FaultConfig::clean().with_loss(loss)),
        );
        let mut rng = DetRng::new(11);
        for i in 0..n {
            let _ = link.offer(SimTime::from_millis(i as u64), 500, &mut rng);
        }
        let s = link.stats;
        prop_assert_eq!(s.offered_packets, n as u64);
        prop_assert_eq!(
            s.delivered_packets + s.queue_drops + s.fault_drops,
            n as u64
        );
    }

    /// Whole-simulation determinism: arbitrary star topologies with
    /// impaired links produce identical event/delivery counts across
    /// runs with the same seed.
    #[test]
    fn simulation_deterministic(
        n_nodes in 2usize..8,
        loss_pct in 0u8..40,
        seed in any::<u64>(),
    ) {
        /// Every node sends a packet to the next node each 10 ms.
        struct Chatter {
            me: HostAddr,
            peer: HostAddr,
            received: u64,
        }
        impl Node for Chatter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule(SimDuration::from_millis(10), TimerToken(1));
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
                ctx.send(Packet::new(self.me, self.peer, vec![0u8; 200]));
                ctx.schedule(SimDuration::from_millis(10), TimerToken(1));
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {
                self.received += 1;
            }
        }
        let build_and_run = || {
            let mut sim = Simulator::new(seed);
            let link = LinkConfig::infinite(SimDuration::from_millis(3))
                .with_rate(5_000_000)
                .with_faults(FaultConfig::clean().with_loss(loss_pct as f64 / 100.0));
            for i in 0..n_nodes {
                let ip = Ipv4Addr::new(10, 5, 0, i as u8 + 1);
                let peer_ip = Ipv4Addr::new(10, 5, 0, ((i + 1) % n_nodes) as u8 + 1);
                sim.add_node(
                    Box::new(Chatter {
                        me: HostAddr::new(ip, 1000),
                        peer: HostAddr::new(peer_ip, 1000),
                        received: 0,
                    }),
                    &[ip],
                    link,
                    link,
                );
            }
            sim.run_until(SimTime::from_secs(2));
            (sim.stats.events, sim.stats.packets_delivered, sim.stats.packets_dropped)
        };
        prop_assert_eq!(build_and_run(), build_and_run());
    }
}
