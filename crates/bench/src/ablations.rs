//! Ablations of the paper's §5 discussion: each varies one knob of a
//! figure's setup and reports the median TTFB per variant.

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_quic::{ProbePolicy, ServerAckMode};
use rq_sim::SimDuration;
use rq_testbed::{LossSpec, Scenario, SweepScenarios};

use crate::{cell, delta_cell, median_by, quic_go, RunConfig, IACK, WFC};

/// Median TTFB over the configured repetitions of `sc`.
fn median_ttfb(cfg: &RunConfig, sc: &Scenario) -> Option<f64> {
    median_by(&cfg.runner.run_repetitions(sc, cfg.reps), |r| r.ttfb_ms)
}

/// Ablation (paper §5): padded instant ACKs. Cloudflare pads the IACK to
/// probe the path MTU; the padding consumes anti-amplification budget,
/// which can delay the handshake when the certificate already exceeds the
/// limit ("this consumes additional amplification budget, which can lead
/// to an overall longer time until the handshake completes").
pub(crate) fn padded_iack(cfg: &RunConfig) {
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>14}",
        "client", "WFC", "IACK plain", "IACK padded", "padding cost"
    );
    for name in ["neqo", "ngtcp2", "quic-go", "aioquic"] {
        let client = client_by_name(name).unwrap();
        let run = |mode: ServerAckMode| {
            let mut sc = Scenario::base(client.clone(), mode, HttpVersion::H1);
            sc.cert_len = rq_tls::CERT_LARGE;
            sc.cert_delay = SimDuration::from_millis(200);
            median_ttfb(cfg, &sc)
        };
        let wfc = run(WFC);
        let plain = run(ServerAckMode::InstantAck { pad_to_mtu: false });
        let padded = run(ServerAckMode::InstantAck { pad_to_mtu: true });
        println!(
            "{:<10} {} {} {} {}",
            name,
            cell(wfc, 9, 1),
            cell(plain, 9, 1),
            cell(padded, 9, 1),
            delta_cell(plain, padded, 13)
        );
    }
    println!(
        "\nexpected: padding costs ≈1150 B of a 3600 B budget — up to one extra probe round trip."
    );
}

/// Ablation (paper §5 "How to improve instant ACK?"): PING probes versus
/// retransmitting the ClientHello when the client PTO expires during the
/// handshake, under first-server-flight tail loss with IACK.
///
/// A retransmitted ClientHello lets the server detect the loss of its
/// flight (duplicate Initial CRYPTO) and resend *before* its default PTO
/// expires; a PING gives it nothing to act on.
pub(crate) fn probe_policy(cfg: &RunConfig) {
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "client", "PING", "re-CH", "saving"
    );
    for name in ["quic-go", "neqo", "aioquic", "ngtcp2"] {
        let client = client_by_name(name).unwrap();
        let run = |policy: Option<ProbePolicy>| {
            let mut sc = Scenario::base(client.clone(), IACK, HttpVersion::H1);
            sc.loss = LossSpec::ServerFlightTail;
            sc.probe_policy_override = policy;
            median_ttfb(cfg, &sc)
        };
        let ping = run(None);
        let rech = run(Some(ProbePolicy::RetransmitOldest));
        println!(
            "{:<10} {} {} {}",
            name,
            cell(ping, 9, 1),
            cell(rech, 9, 1),
            delta_cell(rech, ping, 11)
        );
    }
    println!(
        "\nexpected: the re-CH policy recovers roughly a server default PTO (~150-200 ms) sooner."
    );
}

/// Ablation (paper §5): sweeping the server's default PTO under the
/// Figure 6 loss pattern. Lowering it speeds up recovery when the server
/// holds no RTT sample (the IACK case), at the price of spurious
/// retransmissions once it undercuts the path RTT. Appendix F notes the
/// ≈200 ms Figure 6 gap "originates from the default server PTO".
pub(crate) fn server_pto(cfg: &RunConfig) {
    println!(
        "{:<16} {:>12} {:>12} {:>12}",
        "server PTO [ms]", "WFC", "IACK", "IACK-WFC"
    );
    for pto_ms in [50u64, 100, 200, 400, 800] {
        let run = |mode| {
            let mut sc = quic_go(mode, HttpVersion::H1);
            sc.loss = LossSpec::ServerFlightTail;
            sc.server_default_pto = Some(SimDuration::from_millis(pto_ms));
            median_ttfb(cfg, &sc)
        };
        let wfc = run(WFC);
        let iack = run(IACK);
        println!(
            "{:<16} {} {} {}",
            pto_ms,
            cell(wfc, 9, 1),
            cell(iack, 9, 1),
            delta_cell(wfc, iack, 11)
        );
    }
    println!(
        "\nexpected: the IACK penalty scales with the server default PTO — \
         \"a higher default server PTO will lead to a different advantage of WFC over IACK\"."
    );
}
