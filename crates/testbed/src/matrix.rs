//! Scenario matrices: a cross-product grammar over the testbed's
//! parameter axes.
//!
//! A [`ScenarioMatrix`] expands a base [`Scenario`] along any subset of
//! axes — client profile, server ACK mode, handshake class, RTT,
//! certificate size, certificate-store delay, and loss/impairment spec —
//! into its cells, in the deterministic nested-loop order of the axes. A
//! sweep runs them as any table does: one `SweepRunner::map` over
//! [`repetitions`](crate::repetitions) of the cells, read back per cell
//! with `chunks(reps)`.

use rq_profiles::ClientProfile;
use rq_quic::ServerAckMode;
use rq_sim::SimDuration;

use crate::scenario::{HandshakeClass, LossSpec, Scenario};

/// A cross product of scenario axes, expanded from a base scenario.
///
/// Every axis defaults to the single value of the base scenario; each
/// axis method (`clients`, `rtts`, …) replaces that axis with a list.
/// Axis order in the expansion (outermost first): clients, ack modes,
/// handshake classes, RTTs, cert sizes, cert delays, losses. Every cell
/// keeps the base scenario's congestion controller and migration.
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

    /// Number of cells in the cross product.
    pub fn len(&self) -> usize {
        self.clients.len()
            * self.ack_modes.len()
            * self.classes.len()
            * self.rtts.len()
            * self.cert_lens.len()
            * self.cert_delays.len()
            * self.losses.len()
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
                                    let mut sc = self.base.clone();
                                    sc.client = client.clone();
                                    sc.ack_mode = ack_mode;
                                    sc.handshake_class = class;
                                    sc.rtt = rtt;
                                    sc.cert_len = cert_len;
                                    sc.cert_delay = cert_delay;
                                    sc.loss = loss;
                                    out.push(sc);
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_http::HttpVersion;
    use rq_profiles::client_by_name;

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
        // Untouched axes, and the fields that are no axis, keep the base
        // value.
        assert!(cells.iter().all(|c| c.cert_len == base().cert_len));
        assert!(cells.iter().all(|c| c.cc == base().cc));
    }

    #[test]
    #[should_panic(expected = "empty rtt axis")]
    fn empty_axis_rejected() {
        let _ = ScenarioMatrix::new(base()).rtts(&[]);
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
