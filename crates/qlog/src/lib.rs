//! qlog-style structured event logging.
//!
//! The paper's microscopic analysis is built on Qlog [draft-ietf-quic-qlog]
//! `recovery:metrics` events: smoothed RTT and RTT variation as exposed by
//! each implementation. Implementations differ in how *often* they expose
//! these metrics: some log only a fraction of updates (Figure 11,
//! Appendix E). This crate reproduces the event stream, that exposure
//! share ([`MetricsExposure`]), and the PTO-reconstruction pipeline the
//! paper uses to compare behaviours.

#![forbid(unsafe_code)]

pub mod events;
pub mod exposure;
pub mod json;
pub mod metrics;

pub use events::{EventData, EventLog, FrameSummary, QlogEvent, SpaceName, Vantage};
pub use exposure::MetricsExposure;
pub use metrics::first_pto_ms;
