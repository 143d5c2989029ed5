//! Fault injection: packet-level link impairments and node-level
//! fail-stop crashes.
//!
//! Figures 18 (sequence-rewriting overhead under loss) and the robustness
//! tests need controllable network impairments. Following the smoltcp
//! examples' fault-injection flags, every link carries a [`FaultConfig`]
//! that can drop (Bernoulli or bursty Gilbert–Elliott), duplicate, delay
//! (jitter), and reorder packets deterministically from the simulation seed.
//!
//! # Fail-stop injection (node kills, trunk cuts)
//!
//! Packet impairments degrade a path; crash faults *remove* it. The
//! simulator exposes two fail-stop primitives, both exact (no
//! randomness) and both inert until invoked, so a run that never injects
//! a fault is event-for-event identical to one built before this API
//! existed:
//!
//! * [`Simulator::kill_node`] fail-stops a node at the current tick:
//!   every queued and future event addressed to it — packets *and*
//!   timers — is discarded at pop time. The node's state is frozen, not
//!   destroyed (its counters stay inspectable, which is how tests pin
//!   "the dead core's relay counters stop advancing").
//!   [`Simulator::revive_node`] undoes the kill, but events discarded
//!   while dead are gone: a self-rescheduling timer chain does not
//!   restart, so revival is transparent only for purely reactive nodes
//!   such as trunk relays.
//! * [`Simulator::cut_link`] severs the path between one node pair in
//!   both directions (packets already in flight still arrive);
//!   [`Simulator::restore_link`] splices it back.
//!
//! Discards are counted in
//! [`SimStats::packets_failstopped`](crate::sim::SimStats), separate
//! from link loss, so recovery benches can tell "the fabric re-routed"
//! from "the fabric is still blackholing".
//!
//! [`Simulator::kill_node`]: crate::sim::Simulator::kill_node
//! [`Simulator::revive_node`]: crate::sim::Simulator::revive_node
//! [`Simulator::cut_link`]: crate::sim::Simulator::cut_link
//! [`Simulator::restore_link`]: crate::sim::Simulator::restore_link

use crate::rng::DetRng;
use crate::time::SimDuration;

/// Packet-loss process applied on a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No loss.
    None,
    /// Independent loss with probability `p` per packet.
    Bernoulli {
        /// Per-packet drop probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst-loss model. The channel alternates
    /// between a Good and a Bad state; each state has its own loss rate.
    GilbertElliott {
        /// P(Good -> Bad) per packet.
        p_g2b: f64,
        /// P(Bad -> Good) per packet.
        p_b2g: f64,
        /// Loss probability while in Good state.
        loss_good: f64,
        /// Loss probability while in Bad state.
        loss_bad: f64,
    },
}

/// Additional random per-packet delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JitterModel {
    /// No added delay.
    None,
    /// Uniform delay in `[0, max]`.
    Uniform {
        /// Upper bound of the added delay.
        max: SimDuration,
    },
    /// Exponential delay with the given mean (heavy-ish tail, models OS
    /// scheduling noise on software paths).
    Exponential {
        /// Mean of the added delay.
        mean: SimDuration,
    },
    /// Rare uniform delay spikes: with probability `prob` add
    /// `U[min, max]`, else nothing (models switch-fabric/NIC microbursts
    /// whose median contribution is zero but whose tail is long).
    Spike {
        /// Per-packet spike probability.
        prob: f64,
        /// Minimum spike size.
        min: SimDuration,
        /// Maximum spike size.
        max: SimDuration,
    },
}

/// Complete fault configuration for one link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Loss process.
    pub loss: LossModel,
    /// Probability a delivered packet is delivered twice.
    pub duplicate_prob: f64,
    /// Probability a packet is held back by `reorder_delay`, letting later
    /// packets overtake it.
    pub reorder_prob: f64,
    /// Extra delay applied to reordered packets.
    pub reorder_delay: SimDuration,
    /// Random per-packet delay (applied to every packet).
    pub jitter: JitterModel,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            loss: LossModel::None,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay: SimDuration::from_millis(5),
            jitter: JitterModel::None,
        }
    }
}

impl FaultConfig {
    /// A clean link (no impairments).
    pub fn clean() -> Self {
        Self::default()
    }

    /// Bernoulli loss with probability `p`.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss = LossModel::Bernoulli { p };
        self
    }

    /// Enable reordering: with probability `p`, delay a packet by `delay`.
    pub fn with_reorder(mut self, p: f64, delay: SimDuration) -> Self {
        self.reorder_prob = p;
        self.reorder_delay = delay;
        self
    }

    /// Enable duplication with probability `p`.
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.duplicate_prob = p;
        self
    }
}

/// The per-packet decision produced by a [`FaultInjector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultVerdict {
    /// `true` if the packet is dropped.
    pub dropped: bool,
    /// Extra delay (jitter and/or reordering hold-back).
    pub extra_delay: SimDuration,
    /// `true` if a duplicate copy should also be delivered.
    pub duplicate: bool,
}

/// Stateful fault injector (owns the Gilbert–Elliott channel state).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    /// Gilbert–Elliott channel state: `true` = Bad.
    in_bad_state: bool,
    /// Counters for reporting.
    pub packets_seen: u64,
    /// Number of packets dropped by the loss process.
    pub packets_dropped: u64,
}

impl FaultInjector {
    /// Create an injector from a config.
    pub fn new(config: FaultConfig) -> Self {
        FaultInjector {
            config,
            in_bad_state: false,
            packets_seen: 0,
            packets_dropped: 0,
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Replace the configuration at runtime (used by experiments that
    /// degrade a participant's downlink mid-meeting, e.g. Fig. 14).
    pub(crate) fn set_config(&mut self, config: FaultConfig) {
        self.config = config;
    }

    /// Judge one packet.
    pub fn judge(&mut self, rng: &mut DetRng) -> FaultVerdict {
        self.packets_seen += 1;
        let dropped = match self.config.loss {
            LossModel::None => false,
            LossModel::Bernoulli { p } => rng.chance(p),
            LossModel::GilbertElliott {
                p_g2b,
                p_b2g,
                loss_good,
                loss_bad,
            } => {
                // Advance channel state, then sample loss in the new state.
                if self.in_bad_state {
                    if rng.chance(p_b2g) {
                        self.in_bad_state = false;
                    }
                } else if rng.chance(p_g2b) {
                    self.in_bad_state = true;
                }
                rng.chance(if self.in_bad_state {
                    loss_bad
                } else {
                    loss_good
                })
            }
        };
        if dropped {
            self.packets_dropped += 1;
            return FaultVerdict {
                dropped: true,
                extra_delay: SimDuration::ZERO,
                duplicate: false,
            };
        }

        let mut extra = match self.config.jitter {
            JitterModel::None => SimDuration::ZERO,
            JitterModel::Uniform { max } => {
                SimDuration::from_nanos(rng.range_u64(0, max.as_nanos().max(1)))
            }
            JitterModel::Exponential { mean } => {
                SimDuration::from_secs_f64(rng.exp(mean.as_secs_f64()))
            }
            JitterModel::Spike { prob, min, max } => {
                if rng.chance(prob) {
                    SimDuration::from_nanos(
                        rng.range_u64(min.as_nanos(), max.as_nanos().max(min.as_nanos() + 1)),
                    )
                } else {
                    SimDuration::ZERO
                }
            }
        };
        if self.config.reorder_prob > 0.0 && rng.chance(self.config.reorder_prob) {
            extra += self.config.reorder_delay;
        }
        FaultVerdict {
            dropped: false,
            extra_delay: extra,
            duplicate: self.config.duplicate_prob > 0.0 && rng.chance(self.config.duplicate_prob),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dropped_share(inj: &FaultInjector) -> f64 {
        inj.packets_dropped as f64 / inj.packets_seen as f64
    }

    /// Loss rate of a Gilbert–Elliott chain in its stationary state.
    fn stationary_loss(p_g2b: f64, p_b2g: f64, loss_good: f64, loss_bad: f64) -> f64 {
        let pi_bad = p_g2b / (p_g2b + p_b2g);
        (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
    }

    #[test]
    fn clean_link_never_drops() {
        let mut inj = FaultInjector::new(FaultConfig::clean());
        let mut rng = DetRng::new(1);
        for _ in 0..1000 {
            let v = inj.judge(&mut rng);
            assert!(!v.dropped);
            assert!(!v.duplicate);
            assert_eq!(v.extra_delay, SimDuration::ZERO);
        }
    }

    #[test]
    fn bernoulli_loss_rate_converges() {
        let mut inj = FaultInjector::new(FaultConfig::clean().with_loss(0.2));
        let mut rng = DetRng::new(2);
        for _ in 0..50_000 {
            inj.judge(&mut rng);
        }
        assert!((dropped_share(&inj) - 0.2).abs() < 0.01);
    }

    #[test]
    fn gilbert_elliott_matches_stationary_rate() {
        let model = LossModel::GilbertElliott {
            p_g2b: 0.05,
            p_b2g: 0.25,
            loss_good: 0.01,
            loss_bad: 0.5,
        };
        let mut inj = FaultInjector::new(FaultConfig {
            loss: model,
            ..FaultConfig::default()
        });
        let mut rng = DetRng::new(3);
        for _ in 0..200_000 {
            inj.judge(&mut rng);
        }
        let expected = stationary_loss(0.05, 0.25, 0.01, 0.5);
        assert!(
            (dropped_share(&inj) - expected).abs() < 0.01,
            "observed {} expected {}",
            dropped_share(&inj),
            expected
        );
    }

    #[test]
    fn gilbert_elliott_is_bursty() {
        // Compare the distribution of loss-run lengths against Bernoulli at
        // the same mean rate: GE should produce longer runs.
        let ge = LossModel::GilbertElliott {
            p_g2b: 0.01,
            p_b2g: 0.2,
            loss_good: 0.0,
            loss_bad: 0.9,
        };
        let mean = stationary_loss(0.01, 0.2, 0.0, 0.9);
        let run_len = |model: LossModel, seed: u64| {
            let mut inj = FaultInjector::new(FaultConfig {
                loss: model,
                ..FaultConfig::default()
            });
            let mut rng = DetRng::new(seed);
            let (mut runs, mut total, mut cur) = (0u64, 0u64, 0u64);
            for _ in 0..200_000 {
                if inj.judge(&mut rng).dropped {
                    cur += 1;
                } else if cur > 0 {
                    runs += 1;
                    total += cur;
                    cur = 0;
                }
            }
            if runs == 0 {
                0.0
            } else {
                total as f64 / runs as f64
            }
        };
        let ge_run = run_len(ge, 5);
        let be_run = run_len(LossModel::Bernoulli { p: mean }, 5);
        assert!(ge_run > 2.0 * be_run, "ge {ge_run} vs bernoulli {be_run}");
    }

    #[test]
    fn duplication_and_reorder_fire() {
        let cfg = FaultConfig::clean()
            .with_duplication(0.5)
            .with_reorder(0.5, SimDuration::from_millis(7));
        let mut inj = FaultInjector::new(cfg);
        let mut rng = DetRng::new(4);
        let mut dups = 0;
        let mut reorders = 0;
        for _ in 0..1000 {
            let v = inj.judge(&mut rng);
            if v.duplicate {
                dups += 1;
            }
            if v.extra_delay >= SimDuration::from_millis(7) {
                reorders += 1;
            }
        }
        assert!(dups > 400 && dups < 600, "dups {dups}");
        assert!(reorders > 400 && reorders < 600, "reorders {reorders}");
    }

    #[test]
    fn spike_jitter_is_rare_but_large() {
        let mut inj = FaultInjector::new(FaultConfig {
            jitter: JitterModel::Spike {
                prob: 0.05,
                min: SimDuration::from_micros(50),
                max: SimDuration::from_micros(150),
            },
            ..FaultConfig::clean()
        });
        let mut rng = DetRng::new(8);
        let mut spikes = 0;
        for _ in 0..10_000 {
            let v = inj.judge(&mut rng);
            if v.extra_delay > SimDuration::ZERO {
                spikes += 1;
                assert!(v.extra_delay >= SimDuration::from_micros(50));
                assert!(v.extra_delay <= SimDuration::from_micros(150));
            }
        }
        assert!((300..700).contains(&spikes), "spikes {spikes}");
    }
}
