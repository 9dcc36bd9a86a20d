//! The eight client profiles (paper Table 4 + §4 + Appendix E/F).
//!
//! A profile holds Table 4's values, Figure 11's metrics-update share and
//! four quirk fields, the deviations §4.1, §4.2 and Appendix F use to
//! explain per-client outliers. Each quirk moves a cell that the quirk
//! table in `tests/paper_shapes.rs` pins. Appendix E's variance update
//! order, variance omission and timestamp resolution moved no output and
//! are not modelled.

use rq_http::HttpVersion;
use rq_qlog::MetricsExposure;
use rq_quic::{ClientQuirks, EndpointConfig, ProbePolicy};
use rq_sim::SimDuration;

/// A client implementation profile.
#[derive(Debug, Clone)]
pub struct ClientProfile {
    /// Implementation name as used in the paper's figures.
    pub name: &'static str,
    /// Default (pre-sample) PTO, Table 4.
    pub default_pto: SimDuration,
    /// Number of datagrams the second client flight spans, Table 4.
    pub flight2_datagrams: usize,
    /// Whether the stack implements HTTP/3 (go-x-net does not).
    pub supports_h3: bool,
    /// Smoothed-RTT mis-initialization value and per-run probability
    /// (go-x-net, §4.1: erroneous 90 ms initialization in part of runs).
    pub buggy_rtt_preinit: Option<(SimDuration, f64)>,
    /// Does not arm the deadlock PTO after an instant ACK
    /// (mvfst, picoquic; §4.1).
    pub no_probe_after_iack: bool,
    /// Ignores the RTT sample carried by an instant ACK (picoquic; §4.2).
    pub ignore_iack_rtt: bool,
    /// quiche HTTP/1.1 quirks (§4.1/§4.2/App. F): drops PING-reply
    /// datagrams and aborts on Initial-CRYPTO retransmission after IACK.
    pub quiche_h1_quirks: bool,
    /// Share of recovery:metrics updates exposed in qlog (Fig. 11).
    pub metrics_update_share: f64,
}

impl ClientProfile {
    /// Compiles the profile into an endpoint configuration for one run.
    ///
    /// `http` gates the quiche HTTP/1.1-only quirks ("In our HTTP/3
    /// measurements, we do not encounter this case", §4.2). Whether the
    /// probabilistic go-x-net mis-initialization applies is drawn per run
    /// by the testbed.
    pub fn endpoint_config(&self, http: HttpVersion) -> EndpointConfig {
        let mut cfg = EndpointConfig::rfc_default();
        cfg.name = self.name;
        cfg.default_pto = self.default_pto;
        cfg.flight2_datagrams = self.flight2_datagrams;
        cfg.probe_policy = ProbePolicy::Ping;
        cfg.quirks = ClientQuirks {
            buggy_rtt_preinit: self.buggy_rtt_preinit.map(|(d, _)| d),
            no_probe_after_iack: self.no_probe_after_iack,
            ignore_iack_rtt: self.ignore_iack_rtt,
            drop_ping_reply_coalesced: self.quiche_h1_quirks && http == HttpVersion::H1,
            abort_on_initial_retransmit_after_iack: self.quiche_h1_quirks
                && http == HttpVersion::H1,
        };
        cfg
    }

    /// The share of metrics updates this stack's qlog exposes.
    pub fn metrics_exposure(&self) -> MetricsExposure {
        MetricsExposure {
            update_share: self.metrics_update_share,
        }
    }
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// All eight clients in the paper's ordering.
pub fn all_clients() -> Vec<ClientProfile> {
    vec![
        ClientProfile {
            name: "aioquic",
            default_pto: ms(200),
            flight2_datagrams: 3,
            supports_h3: true,
            buggy_rtt_preinit: None,
            no_probe_after_iack: false,
            ignore_iack_rtt: false,
            quiche_h1_quirks: false,
            metrics_update_share: 1.0,
        },
        ClientProfile {
            name: "go-x-net",
            default_pto: ms(999),
            flight2_datagrams: 3,
            supports_h3: false,
            // §4.1: high variation, partly erroneous smoothed-RTT init at
            // 90 ms; applies to roughly a third of runs.
            buggy_rtt_preinit: Some((ms(90), 0.33)),
            no_probe_after_iack: false,
            ignore_iack_rtt: false,
            quiche_h1_quirks: false,
            metrics_update_share: 1.0,
        },
        ClientProfile {
            name: "mvfst",
            default_pto: ms(100),
            flight2_datagrams: 3,
            supports_h3: true,
            buggy_rtt_preinit: None,
            no_probe_after_iack: true,
            ignore_iack_rtt: false,
            quiche_h1_quirks: false,
            metrics_update_share: 1.0,
        },
        ClientProfile {
            name: "neqo",
            default_pto: ms(300),
            flight2_datagrams: 2,
            supports_h3: true,
            buggy_rtt_preinit: None,
            no_probe_after_iack: false,
            ignore_iack_rtt: false,
            quiche_h1_quirks: false,
            metrics_update_share: 0.4,
        },
        ClientProfile {
            name: "ngtcp2",
            default_pto: ms(300),
            flight2_datagrams: 3,
            supports_h3: true,
            buggy_rtt_preinit: None,
            no_probe_after_iack: false,
            ignore_iack_rtt: false,
            quiche_h1_quirks: false,
            metrics_update_share: 0.4,
        },
        ClientProfile {
            name: "picoquic",
            default_pto: ms(250),
            flight2_datagrams: 4,
            supports_h3: true,
            buggy_rtt_preinit: None,
            no_probe_after_iack: true,
            ignore_iack_rtt: true,
            quiche_h1_quirks: false,
            metrics_update_share: 0.35,
        },
        ClientProfile {
            name: "quic-go",
            default_pto: ms(200),
            flight2_datagrams: 3,
            supports_h3: true,
            buggy_rtt_preinit: None,
            no_probe_after_iack: false,
            ignore_iack_rtt: false,
            quiche_h1_quirks: false,
            metrics_update_share: 0.35,
        },
        ClientProfile {
            name: "quiche",
            default_pto: ms(999),
            flight2_datagrams: 1,
            supports_h3: true,
            buggy_rtt_preinit: None,
            no_probe_after_iack: false,
            ignore_iack_rtt: false,
            quiche_h1_quirks: true,
            metrics_update_share: 1.0,
        },
    ]
}

/// Looks a client up by name.
pub fn client_by_name(name: &str) -> Option<ClientProfile> {
    all_clients().into_iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_clients_present() {
        let clients = all_clients();
        assert_eq!(clients.len(), 8);
        let names: Vec<&str> = clients.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            vec!["aioquic", "go-x-net", "mvfst", "neqo", "ngtcp2", "picoquic", "quic-go", "quiche"]
        );
    }

    #[test]
    fn table4_default_ptos() {
        // Paper Table 4.
        let expect = [
            ("aioquic", 200),
            ("go-x-net", 999),
            ("mvfst", 100),
            ("neqo", 300),
            ("ngtcp2", 300),
            ("picoquic", 250),
            ("quic-go", 200),
            ("quiche", 999),
        ];
        for (name, pto_ms) in expect {
            let c = client_by_name(name).unwrap();
            assert_eq!(c.default_pto.as_millis(), pto_ms, "{name}");
        }
    }

    #[test]
    fn table4_flight2_datagrams() {
        // Table 4, datagram indices 2.. → counts 3,3,3,2,3,4,3,1.
        let expect = [
            ("aioquic", 3),
            ("go-x-net", 3),
            ("mvfst", 3),
            ("neqo", 2),
            ("ngtcp2", 3),
            ("picoquic", 4),
            ("quic-go", 3),
            ("quiche", 1),
        ];
        for (name, n) in expect {
            assert_eq!(client_by_name(name).unwrap().flight2_datagrams, n, "{name}");
        }
    }

    #[test]
    fn go_x_net_lacks_h3() {
        assert!(!client_by_name("go-x-net").unwrap().supports_h3);
        assert!(all_clients().iter().filter(|c| c.supports_h3).count() == 7);
    }

    #[test]
    fn quiche_quirks_gated_to_h1() {
        let q = client_by_name("quiche").unwrap();
        let h1 = q.endpoint_config(HttpVersion::H1);
        assert!(h1.quirks.drop_ping_reply_coalesced);
        assert!(h1.quirks.abort_on_initial_retransmit_after_iack);
        let h3 = q.endpoint_config(HttpVersion::H3);
        assert!(!h3.quirks.drop_ping_reply_coalesced);
        assert!(!h3.quirks.abort_on_initial_retransmit_after_iack);
    }

    #[test]
    fn picoquic_and_mvfst_do_not_probe_after_iack() {
        assert!(client_by_name("picoquic").unwrap().no_probe_after_iack);
        assert!(client_by_name("mvfst").unwrap().no_probe_after_iack);
        assert!(!client_by_name("quic-go").unwrap().no_probe_after_iack);
    }

    #[test]
    fn metrics_exposure_compiles() {
        let e = client_by_name("picoquic").unwrap().metrics_exposure();
        assert!(e.update_share < 1.0);
    }
}
