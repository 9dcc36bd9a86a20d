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
//! let comparison = compare_modes("quic-go", CompareOptions {
//!     cert_delay_ms: 25,
//!     ..CompareOptions::default()
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

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_quic::ServerAckMode;
use rq_sim::SimDuration;
use rq_testbed::{run_scenario, LossSpec, RunResult, Scenario};

/// Convenient re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::{compare_modes, CompareOptions, ModeComparison};
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

/// Options for [`compare_modes`].
#[derive(Debug, Clone)]
pub struct CompareOptions {
    /// Path RTT in milliseconds.
    pub rtt_ms: u64,
    /// Frontend ↔ certificate store delay Δt in milliseconds.
    pub cert_delay_ms: u64,
    /// Certificate size in bytes.
    pub cert_len: usize,
    /// Response size in bytes.
    pub file_size: usize,
    /// HTTP flavour.
    pub http: HttpVersion,
    /// Loss pattern.
    pub loss: LossSpec,
    /// Repetition seed.
    pub seed: u64,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            rtt_ms: 9,
            cert_delay_ms: 0,
            cert_len: rq_tls::CERT_SMALL,
            file_size: 10 * 1024,
            http: HttpVersion::H1,
            loss: LossSpec::None,
            seed: 1,
        }
    }
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

/// Runs the same scenario under both server behaviours for the named
/// client implementation (`"quic-go"`, `"neqo"`, ... — see
/// [`rq_profiles::all_clients`]). Panics on unknown names.
pub fn compare_modes(client: &str, opts: CompareOptions) -> ModeComparison {
    let profile = client_by_name(client)
        .unwrap_or_else(|| panic!("unknown client implementation {client:?}"));
    let build = |mode: ServerAckMode| {
        let mut sc = Scenario::base(profile.clone(), mode, opts.http);
        sc.rtt = SimDuration::from_millis(opts.rtt_ms);
        sc.cert_delay = SimDuration::from_millis(opts.cert_delay_ms);
        sc.cert_len = opts.cert_len;
        sc.file_size = opts.file_size;
        sc.loss = opts.loss;
        sc.seed = opts.seed;
        sc
    };
    ModeComparison {
        wfc: run_scenario(&build(ServerAckMode::WaitForCertificate)),
        iack: run_scenario(&build(ServerAckMode::InstantAck { pad_to_mtu: false })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_modes_basic() {
        let c = compare_modes(
            "quic-go",
            CompareOptions {
                cert_delay_ms: 25,
                ..Default::default()
            },
        );
        assert!(c.wfc.completed);
        assert!(c.iack.completed);
        let wfc_pto = c.wfc.first_pto_ms.unwrap();
        let iack_pto = c.iack.first_pto_ms.unwrap();
        assert!(wfc_pto > iack_pto + 60.0, "wfc {wfc_pto} iack {iack_pto}");
    }

    #[test]
    #[should_panic(expected = "unknown client")]
    fn unknown_client_panics() {
        let _ = compare_modes("not-a-stack", CompareOptions::default());
    }

    #[test]
    fn scenario_base_matches_compare_defaults() {
        // `compare_modes` builds scenarios from `CompareOptions`; the two
        // sets of defaults must agree so `Scenario::base(..)` and
        // `compare_modes(.., CompareOptions::default())` describe the
        // same experiment.
        let opts = CompareOptions::default();
        let sc = Scenario::base(
            client_by_name("quic-go").unwrap(),
            ServerAckMode::WaitForCertificate,
            opts.http,
        );
        assert_eq!(sc.rtt, SimDuration::from_millis(opts.rtt_ms));
        assert_eq!(sc.cert_delay, SimDuration::from_millis(opts.cert_delay_ms));
        assert_eq!(sc.cert_len, opts.cert_len);
        assert_eq!(sc.file_size, opts.file_size);
        assert_eq!(sc.loss, opts.loss);
        assert_eq!(sc.seed, opts.seed);
    }

    #[test]
    fn ttfb_delta_sign() {
        let c = compare_modes(
            "quic-go",
            CompareOptions {
                loss: LossSpec::SecondClientFlight,
                cert_delay_ms: 4,
                ..Default::default()
            },
        );
        assert!(
            c.ttfb_delta_ms().unwrap() < 0.0,
            "IACK wins under client-flight loss"
        );
    }
}
