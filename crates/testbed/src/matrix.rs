//! Scenario matrices: a cross-product grammar over the testbed's
//! parameter axes.
//!
//! The paper sweeps a handful of hand-picked scenario combinations; the
//! ROADMAP's north star is "as many scenarios as you can imagine". A
//! [`ScenarioMatrix`] expands a base [`Scenario`] along any subset of
//! axes — client profile, server ACK mode, handshake class, RTT,
//! certificate size, certificate-store delay, and loss/impairment
//! spec — into the full
//! cross product, then fans all cells × repetitions out through one
//! [`SweepRunner`] sweep so every worker stays busy. Cell order (and
//! therefore output order) is the deterministic nested-loop order of the
//! axes, independent of the thread count.

use rq_profiles::ClientProfile;
use rq_quic::ServerAckMode;
use rq_recovery::CcAlgorithm;
use rq_sim::SimDuration;

use crate::runner::{rep_scenario, run_scenario, RunResult, SweepRunner};
use crate::scenario::{HandshakeClass, LossSpec, Scenario};

/// A cross product of scenario axes, expanded from a base scenario.
///
/// Every axis defaults to the single value of the base scenario; each
/// `with_*` call replaces that axis with an explicit list. Axis order in
/// the expansion (outermost first): clients, ack modes, handshake
/// classes, RTTs, cert sizes, cert delays, losses, congestion
/// controllers. Every cell keeps the base scenario's migration.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    base: Scenario,
    clients: Vec<ClientProfile>,
    ack_modes: Vec<ServerAckMode>,
    classes: Vec<HandshakeClass>,
    rtts: Vec<SimDuration>,
    cert_lens: Vec<usize>,
    cert_delays: Vec<SimDuration>,
    losses: Vec<LossSpec>,
    cc_algorithms: Vec<CcAlgorithm>,
}

/// One expanded matrix cell together with its repetition results.
#[derive(Debug)]
pub struct MatrixCell {
    /// The cell's full scenario.
    pub scenario: Scenario,
    /// One result per repetition (seeds derived via [`rep_scenario`]).
    pub results: Vec<RunResult>,
}

impl MatrixCell {
    /// TTFBs of the completed repetitions, in repetition order.
    pub fn ttfbs_ms(&self) -> Vec<f64> {
        self.results.iter().filter_map(|r| r.ttfb_ms).collect()
    }
}

impl ScenarioMatrix {
    /// A matrix whose every axis holds just the base scenario's value.
    pub fn new(base: Scenario) -> Self {
        ScenarioMatrix {
            clients: vec![base.client.clone()],
            ack_modes: vec![base.ack_mode],
            classes: vec![base.handshake_class],
            rtts: vec![base.rtt],
            cert_lens: vec![base.cert_len],
            cert_delays: vec![base.cert_delay],
            losses: vec![base.loss],
            cc_algorithms: vec![base.cc],
            base,
        }
    }

    /// Replaces the client axis.
    pub fn clients(mut self, clients: &[ClientProfile]) -> Self {
        assert!(!clients.is_empty(), "empty client axis");
        self.clients = clients.to_vec();
        self
    }

    /// Replaces the server ACK mode axis.
    pub fn ack_modes(mut self, modes: &[ServerAckMode]) -> Self {
        assert!(!modes.is_empty(), "empty ack-mode axis");
        self.ack_modes = modes.to_vec();
        self
    }

    /// Replaces the handshake-class axis.
    pub fn handshake_classes(mut self, classes: &[HandshakeClass]) -> Self {
        assert!(!classes.is_empty(), "empty handshake-class axis");
        self.classes = classes.to_vec();
        self
    }

    /// Replaces the RTT axis.
    pub fn rtts(mut self, rtts: &[SimDuration]) -> Self {
        assert!(!rtts.is_empty(), "empty rtt axis");
        self.rtts = rtts.to_vec();
        self
    }

    /// Replaces the certificate-size axis.
    pub fn cert_lens(mut self, lens: &[usize]) -> Self {
        assert!(!lens.is_empty(), "empty cert-size axis");
        self.cert_lens = lens.to_vec();
        self
    }

    /// Replaces the certificate-store delay (Δt) axis.
    pub fn cert_delays(mut self, delays: &[SimDuration]) -> Self {
        assert!(!delays.is_empty(), "empty cert-delay axis");
        self.cert_delays = delays.to_vec();
        self
    }

    /// Replaces the loss/impairment axis.
    pub fn losses(mut self, losses: &[LossSpec]) -> Self {
        assert!(!losses.is_empty(), "empty loss axis");
        self.losses = losses.to_vec();
        self
    }

    /// Replaces the congestion-controller axis.
    pub fn cc_algorithms(mut self, algorithms: &[CcAlgorithm]) -> Self {
        assert!(!algorithms.is_empty(), "empty cc axis");
        self.cc_algorithms = algorithms.to_vec();
        self
    }

    /// Number of cells in the cross product.
    pub fn len(&self) -> usize {
        self.clients.len()
            * self.ack_modes.len()
            * self.classes.len()
            * self.rtts.len()
            * self.cert_lens.len()
            * self.cert_delays.len()
            * self.losses.len()
            * self.cc_algorithms.len()
    }

    /// True when the matrix expands to no cells (never: axes are
    /// non-empty by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cross product into concrete scenarios, in deterministic
    /// nested-loop order.
    pub fn build(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.len());
        for client in &self.clients {
            for &ack_mode in &self.ack_modes {
                for &class in &self.classes {
                    for &rtt in &self.rtts {
                        for &cert_len in &self.cert_lens {
                            for &cert_delay in &self.cert_delays {
                                for &loss in &self.losses {
                                    for &cc in &self.cc_algorithms {
                                        let mut sc = self.base.clone();
                                        sc.client = client.clone();
                                        sc.ack_mode = ack_mode;
                                        sc.handshake_class = class;
                                        sc.rtt = rtt;
                                        sc.cert_len = cert_len;
                                        sc.cert_delay = cert_delay;
                                        sc.loss = loss;
                                        sc.cc = cc;
                                        out.push(sc);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Runs every cell `reps` times through `runner` and regroups the
    /// results per cell.
    ///
    /// All `len() × reps` runs go out as one flat sweep (cell-major
    /// order), so the pool stays saturated even when individual cells are
    /// smaller than the worker count; results are bit-identical for any
    /// thread count because each repetition is a pure function of its
    /// scenario (seeded via [`rep_scenario`]).
    pub fn run(&self, runner: &SweepRunner, reps: usize) -> Vec<MatrixCell> {
        assert!(reps > 0, "at least one repetition per cell");
        let cells = self.build();
        let jobs: Vec<Scenario> = cells
            .iter()
            .flat_map(|sc| (0..reps).map(move |i| rep_scenario(sc, i)))
            .collect();
        let mut results = runner.map(&jobs, run_scenario);
        let mut out = Vec::with_capacity(cells.len());
        // Drain back-to-front so each cell's chunk can be split off the
        // tail without re-allocating.
        for scenario in cells.into_iter().rev() {
            let rest = results.split_off(results.len() - reps);
            out.push(MatrixCell {
                scenario,
                results: rest,
            });
        }
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_http::HttpVersion;
    use rq_profiles::client_by_name;
    use rq_sim::ImpairmentSpec;

    const WFC: ServerAckMode = ServerAckMode::WaitForCertificate;
    const IACK: ServerAckMode = ServerAckMode::InstantAck { pad_to_mtu: false };

    fn base() -> Scenario {
        Scenario::base(client_by_name("quic-go").unwrap(), WFC, HttpVersion::H1)
    }

    #[test]
    fn singleton_matrix_is_the_base() {
        let m = ScenarioMatrix::new(base());
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
        let cells = m.build();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].label(), base().label());
    }

    #[test]
    fn cross_product_order_is_nested_loop() {
        let m = ScenarioMatrix::new(base())
            .ack_modes(&[WFC, IACK])
            .rtts(&[SimDuration::from_millis(1), SimDuration::from_millis(9)])
            .losses(&[LossSpec::None, LossSpec::ServerFlightTail]);
        assert_eq!(m.len(), 8);
        let cells = m.build();
        assert_eq!(cells.len(), 8);
        // Outer axis (ack mode) changes slowest, loss fastest.
        assert_eq!(cells[0].ack_mode, WFC);
        assert_eq!(cells[0].rtt, SimDuration::from_millis(1));
        assert_eq!(cells[0].loss, LossSpec::None);
        assert_eq!(cells[1].loss, LossSpec::ServerFlightTail);
        assert_eq!(cells[2].rtt, SimDuration::from_millis(9));
        assert_eq!(cells[4].ack_mode, IACK);
        // Untouched axes keep the base value.
        assert!(cells.iter().all(|c| c.cert_len == base().cert_len));
    }

    #[test]
    fn matrix_run_groups_by_cell_and_matches_direct_runs() {
        let m = ScenarioMatrix::new(base())
            .ack_modes(&[WFC, IACK])
            .losses(&[
                LossSpec::None,
                LossSpec::Random(ImpairmentSpec::none().with_iid_loss(0.05)),
            ]);
        let reps = 2;
        let cells = m.run(&SweepRunner::new(3), reps);
        assert_eq!(cells.len(), 4);
        for (cell, sc) in cells.iter().zip(m.build()) {
            assert_eq!(cell.scenario.label(), sc.label());
            assert_eq!(cell.results.len(), reps);
            for (i, r) in cell.results.iter().enumerate() {
                let direct = run_scenario(&rep_scenario(&sc, i));
                assert_eq!(r.ttfb_ms, direct.ttfb_ms, "{} rep {i}", sc.label());
                assert_eq!(r.client_datagrams, direct.client_datagrams);
            }
        }
    }

    #[test]
    fn cell_metric_helpers() {
        let m = ScenarioMatrix::new(base());
        let cells = m.run(&SweepRunner::new(1), 3);
        assert_eq!(cells[0].ttfbs_ms().len(), 3);
    }

    #[test]
    #[should_panic(expected = "empty rtt axis")]
    fn empty_axis_rejected() {
        let _ = ScenarioMatrix::new(base()).rtts(&[]);
    }

    #[test]
    fn cc_axis_is_innermost() {
        let m = ScenarioMatrix::new(base())
            .losses(&[LossSpec::None, LossSpec::ServerFlightTail])
            .cc_algorithms(&CcAlgorithm::ALL);
        assert_eq!(m.len(), 6);
        let cells = m.build();
        assert_eq!(cells[0].cc, CcAlgorithm::NewReno);
        assert_eq!(cells[1].cc, CcAlgorithm::Cubic);
        assert_eq!(cells[2].cc, CcAlgorithm::BbrLite);
        assert_eq!(cells[2].loss, LossSpec::None);
        assert_eq!(cells[3].loss, LossSpec::ServerFlightTail);
        assert_eq!(cells[3].cc, CcAlgorithm::NewReno);
    }

    #[test]
    fn handshake_class_axis_expands_between_ack_and_rtt() {
        let m = ScenarioMatrix::new(base())
            .ack_modes(&[WFC, IACK])
            .handshake_classes(&HandshakeClass::ALL)
            .rtts(&[SimDuration::from_millis(1), SimDuration::from_millis(9)]);
        assert_eq!(m.len(), 12);
        let cells = m.build();
        // ack mode slowest, then class, then rtt.
        assert_eq!(cells[0].handshake_class, HandshakeClass::Full);
        assert_eq!(cells[1].handshake_class, HandshakeClass::Full);
        assert_eq!(cells[2].handshake_class, HandshakeClass::Resumed);
        assert_eq!(cells[4].handshake_class, HandshakeClass::ZeroRtt);
        assert_eq!(cells[6].ack_mode, IACK);
        assert_eq!(cells[6].handshake_class, HandshakeClass::Full);
    }
}
