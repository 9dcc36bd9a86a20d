//! The sixteen server profiles from the ACK-delay study (paper Table 3),
//! each compiled to an [`AckDelayReport`] and a [`HandshakeAcks`], plus
//! the main testbed server (quic-go modified for IACK). A server's
//! resumption policy is `rq_tls::ServerResumption`, set per scenario.

use rq_quic::{AckDelayReport, EndpointConfig, HandshakeAcks, ServerAckMode};
use rq_sim::SimDuration;

/// A server implementation profile for the ACK-delay study.
#[derive(Debug, Clone)]
pub struct ServerProfile {
    /// Implementation name.
    pub name: &'static str,
    /// ACK Delay value reported in the first Initial-space ACK;
    /// `None` means the stack sends no Initial/Handshake ACKs (msquic).
    pub initial_ack_delay: Option<SimDuration>,
    /// ACK Delay reported in the first Handshake-space ACK; `None` means
    /// no Handshake-space acknowledgment is sent at all.
    pub handshake_ack_delay: Option<SimDuration>,
}

impl ServerProfile {
    /// Compiles to an endpoint configuration: an RFC-default (WFC)
    /// server reporting this profile's first-ACK delays.
    pub fn endpoint_config(&self) -> EndpointConfig {
        let mut cfg = EndpointConfig::rfc_default();
        cfg.name = self.name;
        if let Some(d) = self.handshake_ack_delay {
            cfg.handshake_acks = HandshakeAcks::Handshake(d);
        }
        match self.initial_ack_delay {
            None => cfg.handshake_acks = HandshakeAcks::Never,
            Some(d) => cfg.ack_delay_report = AckDelayReport::Fixed(d),
        }
        cfg
    }
}

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

/// All sixteen servers of Table 3 with their first-repetition delays.
pub fn all_servers() -> Vec<ServerProfile> {
    vec![
        ServerProfile {
            name: "aioquic",
            initial_ack_delay: Some(us(3300)),
            handshake_ack_delay: None,
        },
        ServerProfile {
            name: "go-x-net",
            initial_ack_delay: Some(us(0)),
            handshake_ack_delay: None,
        },
        ServerProfile {
            name: "haproxy",
            initial_ack_delay: Some(us(1000)),
            handshake_ack_delay: Some(us(0)),
        },
        ServerProfile {
            name: "kwik",
            initial_ack_delay: Some(us(0)),
            handshake_ack_delay: None,
        },
        ServerProfile {
            name: "lsquic",
            initial_ack_delay: Some(us(1200)),
            handshake_ack_delay: Some(us(200)),
        },
        ServerProfile {
            name: "msquic",
            initial_ack_delay: None,
            handshake_ack_delay: None,
        },
        ServerProfile {
            name: "mvfst",
            initial_ack_delay: Some(us(800)),
            handshake_ack_delay: Some(us(200)),
        },
        ServerProfile {
            name: "neqo",
            initial_ack_delay: Some(us(0)),
            handshake_ack_delay: Some(us(0)),
        },
        ServerProfile {
            name: "nginx",
            initial_ack_delay: Some(us(0)),
            handshake_ack_delay: None,
        },
        ServerProfile {
            name: "ngtcp2",
            initial_ack_delay: Some(us(0)),
            handshake_ack_delay: None,
        },
        ServerProfile {
            name: "picoquic",
            initial_ack_delay: Some(us(800)),
            handshake_ack_delay: None,
        },
        ServerProfile {
            name: "quic-go",
            initial_ack_delay: Some(us(0)),
            handshake_ack_delay: None,
        },
        ServerProfile {
            name: "quiche",
            initial_ack_delay: Some(us(1400)),
            handshake_ack_delay: None,
        },
        ServerProfile {
            name: "quinn",
            initial_ack_delay: Some(us(400)),
            handshake_ack_delay: None,
        },
        ServerProfile {
            name: "s2n-quic",
            initial_ack_delay: Some(us(14_000)),
            handshake_ack_delay: None,
        },
        ServerProfile {
            name: "xquic",
            initial_ack_delay: Some(us(1300)),
            handshake_ack_delay: Some(us(500)),
        },
    ]
}

/// The testbed server (paper §3): quic-go modified to support instant ACK,
/// with a configurable certificate size.
pub fn testbed_server(ack_mode: ServerAckMode, cert_len: usize) -> EndpointConfig {
    let mut cfg = EndpointConfig::rfc_default();
    cfg.name = match ack_mode {
        ServerAckMode::WaitForCertificate => "quic-go-wfc",
        ServerAckMode::InstantAck { .. } => "quic-go-iack",
    };
    cfg.ack_mode = ack_mode;
    cfg.cert_len = cert_len;
    // quic-go server: 200 ms default PTO (Table 4), zero-reported ack delay
    // (Table 3).
    cfg.default_pto = SimDuration::from_millis(200);
    cfg.ack_delay_report = AckDelayReport::Fixed(SimDuration::ZERO);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(name: &str) -> ServerProfile {
        all_servers().into_iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn sixteen_servers_present() {
        assert_eq!(all_servers().len(), 16);
    }

    #[test]
    fn msquic_sends_no_initial_acks() {
        let cfg = server("msquic").endpoint_config();
        assert_eq!(cfg.handshake_acks, HandshakeAcks::Never);
    }

    #[test]
    fn s2n_reports_inflated_delay() {
        // Table 3: s2n-quic's reported delay (14-15.2 ms) exceeds the RTT.
        let s = server("s2n-quic");
        assert!(s.initial_ack_delay.unwrap() > SimDuration::from_millis(10));
    }

    #[test]
    fn handshake_ack_support_matches_table3() {
        let with_hs: Vec<&str> = all_servers()
            .iter()
            .filter(|s| s.handshake_ack_delay.is_some())
            .map(|s| s.name)
            .collect();
        assert_eq!(with_hs, vec!["haproxy", "lsquic", "mvfst", "neqo", "xquic"]);
    }

    #[test]
    fn zero_delay_maps_to_zero_report() {
        let cfg = server("quic-go").endpoint_config();
        assert_eq!(
            cfg.ack_delay_report,
            AckDelayReport::Fixed(SimDuration::ZERO)
        );
        let cfg = server("quiche").endpoint_config();
        assert!(matches!(cfg.ack_delay_report, AckDelayReport::Fixed(_)));
    }

    #[test]
    fn testbed_server_modes() {
        let wfc = testbed_server(ServerAckMode::WaitForCertificate, rq_tls::CERT_SMALL);
        assert_eq!(wfc.name, "quic-go-wfc");
        let iack = testbed_server(
            ServerAckMode::InstantAck { pad_to_mtu: false },
            rq_tls::CERT_LARGE,
        );
        assert_eq!(iack.name, "quic-go-iack");
        assert_eq!(iack.cert_len, rq_tls::CERT_LARGE);
        assert_eq!(iack.default_pto, SimDuration::from_millis(200));
    }
}
