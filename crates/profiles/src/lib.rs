//! Implementation behaviour profiles.
//!
//! One [`ClientProfile`] per client stack the paper emulates (Table 4,
//! §4.1–4.2, Appendix F, Figure 11) and one [`ServerProfile`] per server
//! stack in the ACK-delay study (Table 3). A client profile compiles to
//! an `rq_quic::EndpointConfig` plus the share of metrics updates its
//! qlog exposes (`rq_qlog::MetricsExposure`), so the protocol core stays
//! implementation-agnostic.

#![forbid(unsafe_code)]

pub mod client;
pub mod server;

pub use client::{all_clients, client_by_name, ClientProfile};
pub use server::{all_servers, ServerProfile};
