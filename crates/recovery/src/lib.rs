//! RFC 9002 loss recovery for the ReACKed-QUICer reproduction.
//!
//! Split into the RTT estimator ([`rtt`]), sent-packet tracking with
//! packet- and time-threshold loss detection ([`sent`]) over the ordered
//! table the connection layer shares ([`seqmap`], over the queue that
//! keeps its first entry inline, [`smalldeque`]), probe-timeout
//! arithmetic with exponential backoff ([`pto`]), and congestion control
//! ([`congestion`]): one [`CongestionController`] whose window rule —
//! NewReno, CUBIC or BBR-lite — is a value picked by [`CcAlgorithm`]. The
//! QUIC connection layer composes these per packet number space.

#![forbid(unsafe_code)]

pub mod congestion;
pub mod pto;
pub mod rtt;
pub mod sent;
pub mod seqmap;
pub mod smalldeque;

pub use congestion::{persistent_congestion_duration, CcAlgorithm, CcState, CongestionController};
pub use pto::{PtoState, RFC_DEFAULT_PTO};
pub use rtt::{RttEstimator, GRANULARITY};
pub use sent::{AckOutcome, Acked, SentPacket, SentTracker, FLIGHT};
pub use seqmap::SeqMap;
pub use smalldeque::SmallDeque;
