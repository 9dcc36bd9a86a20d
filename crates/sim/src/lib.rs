//! Deterministic discrete-event network simulator.
//!
//! This crate replaces the paper's Docker/QUIC-Interop-Runner testbed with a
//! virtual-time simulation: nodes exchange UDP datagrams over links with a
//! configurable one-way delay, serialization bandwidth (10 Mbit/s in the
//! paper), *index-mapped* datagram drops, and seeded stochastic impairments
//! (i.i.d. or Gilbert–Elliott bursty loss, reordering, duplication, delay
//! jitter — see [`impair`]). All randomness comes from a seeded
//! [`rng::SimRng`], so every run is exactly reproducible.
//!
//! The design follows the sans-IO idiom: protocol endpoints implement
//! [`node::Node`] and are driven purely by `on_datagram` / `on_timer`
//! callbacks plus a [`node::Context`] for output. No wall-clock time, no
//! threads, no sockets.

#![forbid(unsafe_code)]

pub mod engine;
pub mod fault;
pub mod impair;
pub mod link;
pub mod loss;
pub mod node;
pub mod rng;
pub mod spares;
pub mod time;
pub mod trace;

pub use engine::{EngineStats, Network, RunOutcome};
pub use fault::{Blackout, FaultTimeline};
pub use impair::{ImpairedFate, Impairment, ImpairmentSpec, Jitter, LossModel};
pub use link::LinkConfig;
pub use loss::{Direction, DropIndices};
pub use node::{Context, Node, NodeId};
pub use rng::{NormalDraw, SimRng};
pub use spares::Spares;
pub use time::{SimDuration, SimTime};
pub use trace::{CaptureRecord, DatagramFate, Trace};
