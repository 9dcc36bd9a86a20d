//! # reacked-quicer
//!
//! A from-scratch Rust reproduction of *"ReACKed QUICer: Measuring the
//! Performance of Instant Acknowledgments in QUIC Handshakes"*
//! (Mücke et al., IMC 2024).
//!
//! The crate bundles a deterministic discrete-event network simulator, a
//! QUIC protocol stack with both server behaviours the paper compares
//! (wait-for-certificate and instant ACK), eight emulated client
//! implementation profiles, a qlog-style analysis pipeline, a synthetic
//! CDN/Internet model for the macroscopic study, and the closed-form PTO
//! analysis — everything needed to regenerate every table and figure of
//! the paper (see the `rq-bench` crate's `exp` binary).
//!
//! ## Quick start
//!
//! ```
//! use reacked_quicer::prelude::*;
//!
//! // Compare WFC and IACK for a quic-go client: 10 KB transfer, 9 ms RTT,
//! // 25 ms certificate-store delay.
//! let quic_go = client_by_name("quic-go").unwrap();
//! let comparison = compare_modes(&Scenario {
//!     cert_delay: SimDuration::from_millis(25),
//!     ..Scenario::base(quic_go, ServerAckMode::WaitForCertificate, HttpVersion::H1)
//! });
//! // The instant ACK gives the client an uninflated first RTT sample, so
//! // its first PTO is ~3 x 25 ms lower.
//! assert!(comparison.wfc.first_pto_ms.unwrap()
//!         > comparison.iack.first_pto_ms.unwrap() + 60.0);
//! ```

#![forbid(unsafe_code)]

pub use rq_analysis as analysis;
pub use rq_http as http;
pub use rq_profiles as profiles;
pub use rq_qlog as qlog;
pub use rq_quic as quic;
pub use rq_recovery as recovery;
pub use rq_sim as sim;
pub use rq_testbed as testbed;
pub use rq_tls as tls;
pub use rq_wild as wild;
pub use rq_wire as wire;

use rq_quic::ServerAckMode;
use rq_testbed::{run_scenario, RunResult, Scenario};

/// Convenient re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::{compare_modes, ModeComparison};
    pub use rq_analysis::{first_pto_reduction_rtt, pto_evolution, recommend, spurious_retransmit};
    pub use rq_http::HttpVersion;
    pub use rq_profiles::{all_clients, all_servers, client_by_name, server_by_name};
    pub use rq_quic::{ProbePolicy, ServerAckMode};
    pub use rq_sim::{ImpairmentSpec, SimDuration};
    pub use rq_testbed::{
        run_repetitions, run_scenario, LossSpec, MatrixCell, Scenario, ScenarioMatrix, SweepRunner,
    };
    pub use rq_wild::{scan, Population, Vantage};
}

/// Results of one WFC-vs-IACK comparison.
#[derive(Debug)]
pub struct ModeComparison {
    /// The wait-for-certificate run.
    pub wfc: RunResult,
    /// The instant-ACK run.
    pub iack: RunResult,
}

impl ModeComparison {
    /// TTFB difference `iack - wfc` in ms (negative = IACK faster);
    /// `None` when either run failed.
    pub fn ttfb_delta_ms(&self) -> Option<f64> {
        Some(self.iack.ttfb_ms? - self.wfc.ttfb_ms?)
    }
}

/// Runs `scenario` under both server behaviours: its own `ack_mode` is
/// replaced by wait-for-certificate for one run and by an unpadded
/// instant ACK for the other.
pub fn compare_modes(scenario: &Scenario) -> ModeComparison {
    let run = |ack_mode| {
        run_scenario(&Scenario {
            ack_mode,
            ..scenario.clone()
        })
    };
    ModeComparison {
        wfc: run(ServerAckMode::WaitForCertificate),
        iack: run(ServerAckMode::InstantAck { pad_to_mtu: false }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_http::HttpVersion;
    use rq_profiles::client_by_name;
    use rq_sim::SimDuration;
    use rq_testbed::LossSpec;

    /// The paper's base scenario for a client named the way the examples
    /// and experiment tables name them.
    fn base(client: &str) -> Scenario {
        let profile = client_by_name(client)
            .unwrap_or_else(|| panic!("unknown client implementation {client:?}"));
        Scenario::base(profile, ServerAckMode::WaitForCertificate, HttpVersion::H1)
    }

    #[test]
    fn compare_modes_basic() {
        let c = compare_modes(&Scenario {
            cert_delay: SimDuration::from_millis(25),
            ..base("quic-go")
        });
        assert!(c.wfc.completed);
        assert!(c.iack.completed);
        let wfc_pto = c.wfc.first_pto_ms.unwrap();
        let iack_pto = c.iack.first_pto_ms.unwrap();
        assert!(wfc_pto > iack_pto + 60.0, "wfc {wfc_pto} iack {iack_pto}");
    }

    #[test]
    #[should_panic(expected = "unknown client")]
    fn unknown_client_panics() {
        let _ = compare_modes(&base("not-a-stack"));
    }

    #[test]
    fn ttfb_delta_sign() {
        let c = compare_modes(&Scenario {
            loss: LossSpec::SecondClientFlight,
            cert_delay: SimDuration::from_millis(4),
            ..base("quic-go")
        });
        assert!(
            c.ttfb_delta_ms().unwrap() < 0.0,
            "IACK wins under client-flight loss"
        );
    }
}
