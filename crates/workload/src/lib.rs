//! # scallop-workload — conferencing workload models
//!
//! The paper's evaluation is grounded in two campus datasets neither of
//! which can ship with a reproduction: the Zoom Account API dataset
//! (19,704 meetings over two weeks, Appendix B) and a 12-hour packet
//! trace of all campus Zoom traffic (1,846 M packets, Appendix C).
//! This crate provides *generative models fitted to every published
//! statistic of those datasets*, so experiments exercise the same load:
//!
//! * [`campus`] — the meeting-population model: meeting-size
//!   distribution (60 % two-party, §6.1), arrival process with the
//!   weekday diurnal shape of Figs. 20/21, duration and media-activity
//!   models reproducing the stream-count envelope of Fig. 2.
//! * [`zoomtrace`] — packet-level trace synthesis reproducing the
//!   Table 2 aggregates (packet rate, flow counts, stream counts, data
//!   volume) and the per-stream, per-layer adaptation timelines of
//!   Figs. 23/24.
//! * [`scenario`] — helpers turning workload draws into concrete
//!   experiment configurations (meeting lists for capacity sweeps, the
//!   per-second SFU load series behind Fig. 22).
//! * [`churn`] — membership-churn timelines (population drift between
//!   buildings) driving the fabric's re-homing and segment-GC paths.
//! * [`flashcrowd`] — flash-crowd and webinar join shapes (storms of
//!   joins into one meeting) driving the control plane's delta
//!   compiler and batched admission.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campus;
pub mod churn;
pub mod flashcrowd;
pub mod scenario;
pub mod zoomtrace;

pub use campus::{CampusModel, CampusParams, MeetingRecord};
pub use churn::{ChurnEvent, ChurnPlan};
pub use flashcrowd::{flash_crowd, hotspot_crowd, webinar, CrowdJoin};
pub use scenario::{sfu_load_series, LoadPoint};
pub use zoomtrace::{TraceSummary, ZoomTraceSynthesizer};
