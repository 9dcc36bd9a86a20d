//! Experiments read off single captured connections rather than medians
//! over repetitions: the wire image (Figure 3), exposed metric updates
//! (Figure 11), first ACK delays (Table 3) and flight layouts (Table 4).

use rq_http::HttpVersion;
use rq_profiles::{all_clients, all_servers};
use rq_quic::{Connection, ServerAckMode};
use rq_sim::{SimDuration, SimTime};
use rq_testbed::{run_scenario, run_scenario_with_trace, Scenario};
use rq_wire::classify_datagram;

use crate::tab3::measure_first_ack_delays;
use crate::{cell, clients_for, quic_go, RunConfig, IACK, WFC};

/// Figure 3: the 1-RTT connection setup wire image — packet-by-packet
/// capture of one WFC and one IACK handshake, validating the flight
/// structure and coalescence differences the figure illustrates.
pub(crate) fn fig03(_: &RunConfig) {
    for mode in [WFC, IACK] {
        println!("\n--- {} ---", mode.label());
        print_capture(mode);
    }
    println!(
        "\npaper Fig. 3: first server flight starts with Initial[ACK] (IACK) or \
         Initial[ACK,CRYPTO(SH)] (WFC); second client flight = Initial ACK + Handshake \
         FIN(+ACK) + 1-RTT request."
    );
}

fn print_capture(mode: ServerAckMode) {
    let mut sc = quic_go(mode, HttpVersion::H1);
    sc.cert_delay = SimDuration::from_millis(4);
    sc.capture_payloads = true;
    let (res, trace) = run_scenario_with_trace(&sc);
    assert!(res.completed);
    for d in trace.datagrams.iter().take(9) {
        let dir = if d.from.index() == 1 {
            "C→S"
        } else {
            "S→C"
        };
        let Some(payload) = &d.payload else { continue };
        let Ok(info) = classify_datagram(payload, 8) else {
            continue;
        };
        let desc: Vec<String> = info
            .packets
            .iter()
            .map(|p| {
                let mut parts: Vec<String> = [
                    (p.has_ack, "ACK".to_string()),
                    (p.crypto_bytes > 0, format!("CRYPTO({}B)", p.crypto_bytes)),
                    (p.stream_bytes > 0, format!("STREAM({}B)", p.stream_bytes)),
                    (p.has_ping, "PING".to_string()),
                    (p.has_handshake_done, "HANDSHAKE_DONE".to_string()),
                ]
                .into_iter()
                .filter_map(|(present, part)| present.then_some(part))
                .collect();
                if parts.is_empty() {
                    parts.push("PADDING".to_string());
                }
                format!("{}[{}]: {}", p.ty.name(), p.pn, parts.join("+"))
            })
            .collect();
        println!(
            "  t={:8.3}ms {} ({:>4} B)  {}",
            d.sent.as_millis_f64(),
            dir,
            d.size,
            desc.join(" | ")
        );
    }
}

/// Figure 11: number of exposed recovery:metric updates versus packets
/// with new ACKs, per client, for a 10 MB transfer at 100 ms RTT (WFC).
pub(crate) fn fig11(cfg: &RunConfig) {
    println!(
        "{:<10} {:>22} {:>22} {:>10}",
        "client", "recovery:metric upd.", "packets w/ new ACKs", "share"
    );
    // One 10 MB transfer per client: the costliest figure — fan the
    // eight clients out over the sweep pool, print rows in order.
    let clients = clients_for(HttpVersion::H1);
    let results = cfg.runner.map(&clients, |client| {
        let mut sc = Scenario::base(client.clone(), WFC, HttpVersion::H1);
        sc.rtt = SimDuration::from_millis(100);
        sc.file_size = 10 * 1024 * 1024;
        run_scenario(&sc)
    });
    for (client, res) in clients.iter().zip(results) {
        let share = if res.client_new_ack_packets > 0 {
            res.exposed_metric_updates as f64 / res.client_new_ack_packets as f64
        } else {
            0.0
        };
        println!(
            "{:<10} {:>22} {:>22} {:>9.0}%",
            client.name,
            res.exposed_metric_updates,
            res.client_new_ack_packets,
            share * 100.0
        );
        assert!(res.completed, "{} failed: {res:?}", client.name);
    }
    println!(
        "\npaper: aioquic/go-x-net/mvfst/quiche expose (nearly) all updates; \
         neqo/ngtcp2/picoquic/quic-go expose a smaller fraction."
    );
}

/// Table 3: the ACK Delay reported in the first Initial- and
/// Handshake-space acknowledgment of each server implementation, measured
/// with a quic-go client over three repetitions.
pub(crate) fn tab03(cfg: &RunConfig) {
    println!(
        "{:<10} {:>8} {:>8} {:>8}   {:>8} {:>8} {:>8}",
        "server", "init#1", "init#2", "init#3", "hs#1", "hs#2", "hs#3"
    );
    let servers = all_servers();
    let rows = cfg.runner.map(&servers, |server| {
        let delays = [100, 101, 102].map(|seed| measure_first_ack_delays(server, seed));
        (
            delays.map(|d| cell(d.initial_ms, 8, 1)).join(" "),
            delays.map(|d| cell(d.handshake_ms, 8, 1)).join(" "),
        )
    });
    for (server, (initial, handshake)) in servers.iter().zip(rows) {
        println!("{:<10} {initial}   {handshake}", server.name);
    }
    println!(
        "\npaper: six stacks report 0 ms; aioquic 3.3, quiche 1.4, s2n-quic 14–15.2 (exceeding \
         the RTT); msquic sends no Initial/Handshake ACKs; 11 stacks send no Handshake-space ACK."
    );
}

/// Table 4: initial (default) PTO and the UDP datagrams comprising the
/// second client flight, per implementation — both *measured*, not quoted:
/// the PTO from the probe timer of an unanswered ClientHello, the flight
/// layout from a captured clean handshake.
pub(crate) fn tab04(cfg: &RunConfig) {
    println!(
        "{:<10} {:>14} {:>22}",
        "client", "default PTO", "2nd flight datagrams"
    );
    // One capture run per client, fanned out over the sweep pool; rows
    // come back (and print) in client order.
    let clients = all_clients();
    let rows = cfg.runner.map(&clients, |client| {
        // Default PTO: arm a client against a black-hole server and read
        // the first probe deadline.
        let endpoint = client.endpoint_config(HttpVersion::H1);
        let mut conn = Connection::client(endpoint, 1, false);
        let _ = conn.poll_transmit(SimTime::ZERO);
        let pto_ms = conn
            .poll_timeout()
            .map(|t| t.as_millis_f64())
            .unwrap_or(f64::NAN);

        // Flight layout from a captured clean handshake: the second client
        // flight is the burst of client datagrams sent at one instant in
        // response to the server's first flight.
        let mut sc = Scenario::base(client.clone(), WFC, HttpVersion::H1);
        sc.capture_payloads = true;
        let (result, trace) = run_scenario_with_trace(&sc);
        assert!(result.completed, "{}: {result:?}", client.name);
        let client_sends: Vec<_> = trace
            .datagrams
            .iter()
            .filter(|d| d.from.index() == 1) // node 1 = client in the runner
            .collect();
        let flight_len = if client_sends.len() < 2 {
            0
        } else {
            let t = client_sends[1].sent;
            client_sends
                .iter()
                .skip(1)
                .take_while(|d| d.sent == t)
                .count()
        };
        let indices: Vec<String> = (2..2 + flight_len).map(|i| i.to_string()).collect();
        (pto_ms, indices.join(","))
    });
    for (client, (pto_ms, indices)) in clients.iter().zip(rows) {
        println!("{:<10} {:>14.0} {:>22}", client.name, pto_ms, indices);
    }
    println!(
        "\npaper Table 4: aioquic 200/2-4, go-x-net 999/2-4, mvfst 100/2-4, neqo 300/2-3, \
         ngtcp2 300/2-4, picoquic 250/2-5, quic-go 200/2-4, quiche 999/2."
    );
}
