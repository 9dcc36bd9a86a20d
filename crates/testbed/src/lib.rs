//! The emulation harness: our stand-in for the QUIC Interop Runner.
//!
//! Wires `rq-quic` endpoints into the `rq-sim` network, defines the
//! paper's scenarios (certificate sizes, Δt, RTT sweeps, content-matched
//! loss), runs repetitions, and extracts the metrics the paper reports
//! (TTFB, first PTO, RTT-sample counts, instant-ACK observations).
//!
//! Beyond the paper's one-pair-at-a-time runs, the `server_load` module
//! hosts N concurrent connections on one shared event loop behind a
//! single server engine — arrival processes, concurrency limits, load
//! shedding, ticket-key rotation — with the legacy single-pair runner
//! re-expressed as its N = 1 case.

#![forbid(unsafe_code)]

pub mod matrix;
pub mod nodes;
pub mod runner;
pub mod scenario;
pub mod server_load;
pub mod stats;

pub use matrix::{MatrixCell, ScenarioMatrix};
pub use nodes::{ClientNode, ClientStatus, PeerOutcome, ServerControl, ServerNode};
pub use rq_recovery::{CcAlgorithm, CcState, CongestionControl};
pub use runner::{
    rep_scenario, run_repetitions, run_scenario, run_scenario_with_trace, ProfileReport,
    ProfileSink, RunResult, SweepRunner, SweepScenarios,
};
pub use scenario::{FaultSpec, HandshakeClass, LossSpec, MigrationSpec, ReconnectPolicy, Scenario};
pub use server_load::{
    run_server_load, run_server_load_sharded, ArrivalProcess, ClassMix, ConnFate, ConnOutcome,
    ConnPlan, FateTally, ServerLoadReport, ServerLoadRun, ServerLoadSpec, DEFAULT_SHARD_ARRIVALS,
};
pub use stats::{median, percentile, LatencyHistogram};
