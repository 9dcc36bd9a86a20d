//! Ablations of the paper's §5 discussion: each varies one knob of a
//! figure's setup and reports the median TTFB per variant, each variant
//! a cell of the ablation's one sweep.

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_quic::{ProbePolicy, ServerAckMode};
use rq_sim::SimDuration;
use rq_testbed::{repetitions, run_scenario, LossSpec, Scenario};

use crate::{cell, delta_cell, median_by, quic_go, RunConfig, IACK, WFC};

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
    let names = ["neqo", "ngtcp2", "quic-go", "aioquic"];
    let modes = [
        WFC,
        ServerAckMode::InstantAck { pad_to_mtu: false },
        ServerAckMode::InstantAck { pad_to_mtu: true },
    ];
    let mut cells = Vec::new();
    for name in names {
        for mode in modes {
            let mut sc = Scenario::base(client_by_name(name).unwrap(), mode, HttpVersion::H1);
            sc.cert_len = rq_tls::CERT_LARGE;
            sc.cert_delay = SimDuration::from_millis(200);
            cells.push(sc);
        }
    }
    let jobs = repetitions(&cells, cfg.reps);
    let ttfbs = cfg.runner.map(&jobs, |sc| run_scenario(sc).ttfb_ms);
    for (name, row) in names.iter().zip(ttfbs.chunks(modes.len() * cfg.reps)) {
        let median = |k: usize| median_by(&row[k * cfg.reps..][..cfg.reps], |t| *t);
        let (wfc, plain, padded) = (median(0), median(1), median(2));
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
    let names = ["quic-go", "neqo", "aioquic", "ngtcp2"];
    let policies = [None, Some(ProbePolicy::RetransmitOldest)];
    let mut cells = Vec::new();
    for name in names {
        for policy in policies {
            let mut sc = Scenario::base(client_by_name(name).unwrap(), IACK, HttpVersion::H1);
            sc.loss = LossSpec::ServerFlightTail;
            sc.probe_policy_override = policy;
            cells.push(sc);
        }
    }
    let jobs = repetitions(&cells, cfg.reps);
    let ttfbs = cfg.runner.map(&jobs, |sc| run_scenario(sc).ttfb_ms);
    for (name, row) in names.iter().zip(ttfbs.chunks(policies.len() * cfg.reps)) {
        let median = |k: usize| median_by(&row[k * cfg.reps..][..cfg.reps], |t| *t);
        let (ping, rech) = (median(0), median(1));
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
    let ptos_ms = [50u64, 100, 200, 400, 800];
    let mut cells = Vec::new();
    for pto_ms in ptos_ms {
        for mode in [WFC, IACK] {
            let mut sc = quic_go(mode, HttpVersion::H1);
            sc.loss = LossSpec::ServerFlightTail;
            sc.server_default_pto = Some(SimDuration::from_millis(pto_ms));
            cells.push(sc);
        }
    }
    let jobs = repetitions(&cells, cfg.reps);
    let ttfbs = cfg.runner.map(&jobs, |sc| run_scenario(sc).ttfb_ms);
    for (pto_ms, row) in ptos_ms.iter().zip(ttfbs.chunks(2 * cfg.reps)) {
        let median = |k: usize| median_by(&row[k * cfg.reps..][..cfg.reps], |t| *t);
        let (wfc, iack) = (median(0), median(1));
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
