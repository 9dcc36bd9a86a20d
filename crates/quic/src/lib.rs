//! QUIC connection state machine for the ReACKed-QUICer reproduction.
//!
//! Implements RFC 9000/9001/9002 far enough to reproduce every microscopic
//! experiment in the paper: 1-RTT handshakes over simulated TLS, the two
//! server behaviours (wait-for-certificate vs instant ACK), the 3x
//! anti-amplification limit, per-implementation packet coalescing, PTO
//! probing policies, and the client quirks of §4.1, §4.2 and Appendix F
//! ([`ClientQuirks`]; each one moves a cell the paper-shape tests pin).

#![forbid(unsafe_code)]

pub mod bytestream;
pub mod config;
pub mod connection;
pub mod server;
pub mod space;
pub mod streams;

pub use config::{
    AckDelayReport, ClientQuirks, EndpointConfig, HandshakeAcks, ProbePolicy, ServerAckMode,
};
pub use connection::{
    derived_cid, server_busy_datagram, stateless_reset_datagram, stateless_retry_datagram,
    ConnEvent, ConnStats, Connection, Role, CID_KIND_RETRY, ERROR_GIVE_UP, ERROR_SERVER_BUSY,
    ERROR_STATELESS_RESET, MAX_DATAGRAM_SIZE, SERVER_BUSY_PREFIX, STATELESS_RESET_PREFIX,
};
pub use server::{AcceptOutcome, OverloadPolicy, ServerAccounting, ServerEngine};
pub use streams::id as stream_id;
