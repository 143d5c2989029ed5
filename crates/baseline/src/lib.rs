//! # scallop-baseline — split-proxy software SFU (MediaSoup-like)
//!
//! The comparison system of §2.2 and §7: a selective forwarding unit that
//! runs on general-purpose server CPUs, terminates each participant's
//! connection (split-proxy, Fig. 5 left), re-originates per-receiver
//! streams with its own sequence spaces, runs per-connection feedback
//! loops in software, and pays operating-system costs on every packet.
//!
//! * [`cpumodel`] — the server cost model: per-packet service time on a
//!   bounded set of cores, pass-through latency for the syscall/wakeup
//!   path, load-scaled scheduling jitter, and buffer-overflow drops. The
//!   constants are calibrated so one core saturates at ≈1,200 concurrent
//!   SFU streams — which reproduces the paper's anchors: 192 ten-party
//!   all-sending meetings on 32 cores, 4.8 K two-party meetings, and the
//!   Fig. 3/4 quality collapse between 60 and 120 participants on one
//!   pinned core.
//! * [`sfu`] — the split-proxy SFU node: per-participant connections,
//!   exact software sequence rewriting (trivial in software, the very
//!   thing that is hard in hardware, §6.2), SVC layer selection from
//!   per-receiver REMB, NACK service from its own history, PLI relay,
//!   STUN handling — every step billed to the CPU model.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cpumodel;
pub mod sfu;

pub use cpumodel::{CpuConfig, CpuModel, CpuStats};
pub use sfu::{SoftwareSfu, SoftwareSfuConfig};
