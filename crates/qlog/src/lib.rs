//! qlog-style structured event logging.
//!
//! The paper's microscopic analysis is built on Qlog [draft-ietf-quic-qlog]
//! `recovery:metrics` events: smoothed RTT and RTT variation as exposed by
//! each implementation. Appendix E stresses that implementations differ in
//! how *often* and how *completely* they expose these metrics — some never
//! log the variance, some log only a fraction of updates. This crate
//! reproduces both the event stream and that exposure fidelity, plus the
//! PTO-reconstruction pipeline the paper uses to compare behaviours.

#![forbid(unsafe_code)]

pub mod events;
pub mod exposure;
pub mod json;
pub mod metrics;

pub use events::{EventData, EventLog, FrameSummary, QlogEvent, SpaceName};
pub use exposure::MetricsExposure;
pub use metrics::{first_pto_ms, packets_lost, pto_expirations};
