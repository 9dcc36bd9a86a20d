//! RFC 9002 loss recovery for the ReACKed-QUICer reproduction.
//!
//! Split into the RTT estimator ([`rtt`]), sent-packet tracking with
//! packet- and time-threshold loss detection ([`sent`]) over the ordered
//! table the connection layer shares ([`seqmap`]), probe-timeout
//! arithmetic with exponential backoff ([`pto`]), and the congestion
//! controller suite ([`congestion`]): a [`CongestionControl`] trait with
//! NewReno, CUBIC, and BBR-lite implementations selected via
//! [`CcAlgorithm`]. The QUIC connection layer composes these per packet
//! number space.

#![forbid(unsafe_code)]

pub mod congestion;
pub mod pto;
pub mod rtt;
pub mod sent;
pub mod seqmap;

pub use congestion::{
    persistent_congestion_duration, BbrLite, CcAlgorithm, CcState, CongestionControl, Cubic,
    NewReno,
};
pub use pto::{PtoState, RFC_DEFAULT_PTO};
pub use rtt::{RttEstimator, RttVariant, GRANULARITY};
pub use sent::{AckOutcome, SentPacket, SentTracker, FLIGHT, PACKET_THRESHOLD};
pub use seqmap::SeqMap;
