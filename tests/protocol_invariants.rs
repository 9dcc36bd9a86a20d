//! Property-based and invariant tests across the protocol stack: whatever
//! the scenario parameters, certain protocol rules must always hold.

use reacked_quicer::prelude::*;
use reacked_quicer::qlog::{EventData, SpaceName};
use reacked_quicer::testbed::run_scenario_with_trace;
use rq_testkit::prop::cases;

fn scenario(
    client_idx: usize,
    iack: bool,
    rtt_ms: u64,
    cert_delay_ms: u64,
    big_cert: bool,
    loss_kind: u8,
    seed: u64,
) -> Scenario {
    let clients = all_clients();
    let client = clients[client_idx % clients.len()].clone();
    let mode = if iack {
        ServerAckMode::InstantAck { pad_to_mtu: false }
    } else {
        ServerAckMode::WaitForCertificate
    };
    let mut sc = Scenario::base(client, mode, HttpVersion::H1);
    sc.rtt = SimDuration::from_millis(rtt_ms);
    sc.cert_delay = SimDuration::from_millis(cert_delay_ms);
    if big_cert {
        sc.cert_len = reacked_quicer::tls::CERT_LARGE;
    }
    sc.loss = match loss_kind % 3 {
        0 => LossSpec::None,
        1 => LossSpec::ServerFlightTail,
        _ => LossSpec::SecondClientFlight,
    };
    sc.seed = seed;
    sc.capture_payloads = true;
    sc
}

/// Every scenario either completes or aborts via the modeled quiche
/// quirk — the state machines never wedge silently.
#[test]
fn every_scenario_terminates() {
    cases(24, |rng| {
        let client_idx = rng.gen_range(8) as usize;
        let iack = rng.gen_bool(0.5);
        let rtt_ms = [1, 9, 20, 100][rng.gen_range(4) as usize];
        let cert_delay_ms = [0, 4, 25, 200][rng.gen_range(4) as usize];
        let big_cert = rng.gen_bool(0.5);
        let loss_kind = rng.gen_range(3) as u8;
        let seed = rng.gen_range(1000);
        let sc = scenario(
            client_idx,
            iack,
            rtt_ms,
            cert_delay_ms,
            big_cert,
            loss_kind,
            seed,
        );
        let (res, trace) = run_scenario_with_trace(&sc);
        assert!(
            res.completed || res.aborted,
            "{}: neither completed nor aborted",
            res.label
        );

        // Anti-amplification: before the client's second flight arrives,
        // the server never sends more than 3x what it received. Checked
        // globally per-datagram through the trace: cumulative server bytes
        // at any instant <= 3x cumulative client bytes delivered by then.
        let mut sent_by_client: u64 = 0;
        let mut sent_by_server: u64 = 0;
        let mut validated = false;
        for d in &trace.datagrams {
            if d.from.index() == 1 {
                sent_by_client += d.size as u64;
                // A client datagram carrying a Handshake packet validates
                // the address (stop checking afterwards).
                if let Some(p) = &d.payload {
                    if let Ok(info) = reacked_quicer::wire::classify_datagram(p, 8) {
                        if info.has_space(reacked_quicer::wire::PacketNumberSpace::Handshake) {
                            validated = true;
                        }
                    }
                }
            } else {
                sent_by_server += d.size as u64;
                if !validated {
                    assert!(
                        sent_by_server <= 3 * sent_by_client,
                        "{}: server sent {sent_by_server} > 3x{sent_by_client}",
                        res.label
                    );
                }
            }
        }

        // All client datagrams containing Initial packets are >= 1200 B.
        for d in trace.datagrams.iter().filter(|d| d.from.index() == 1) {
            if let Some(p) = &d.payload {
                if let Ok(info) = reacked_quicer::wire::classify_datagram(p, 8) {
                    if info.has_space(reacked_quicer::wire::PacketNumberSpace::Initial) {
                        assert!(
                            d.size >= 1200,
                            "{}: client Initial datagram only {} B",
                            res.label,
                            d.size
                        );
                    }
                }
            }
        }
    });
}

/// Packet numbers are strictly monotonic per space in each endpoint's
/// qlog, and the first PTO never undercuts 3x the true minimum RTT
/// minus granularity slack.
#[test]
fn qlog_consistency() {
    cases(24, |rng| {
        let client_idx = rng.gen_range(8) as usize;
        let iack = rng.gen_bool(0.5);
        let cert_delay_ms = [0, 25][rng.gen_range(2) as usize];
        let seed = rng.gen_range(500);
        let sc = scenario(client_idx, iack, 9, cert_delay_ms, false, 0, seed);
        let (res, _) = run_scenario_with_trace(&sc);
        assert!(res.completed);
        for log in [&res.client_log, &res.server_log] {
            let mut last_pn: std::collections::BTreeMap<SpaceName, u64> = Default::default();
            for ev in &log.events {
                if let EventData::PacketSent { space, pn, .. } = &ev.data {
                    if let Some(prev) = last_pn.get(space) {
                        assert!(pn > prev, "{}: pn regression in {space:?}", log.vantage);
                    }
                    last_pn.insert(*space, *pn);
                }
            }
        }
        if let Some(pto) = res.first_pto_ms {
            // 3 x RTT is the sample-based floor; the go-x-net quirk can
            // only inflate it.
            assert!(pto >= 3.0 * 9.0 - 1.0, "first PTO {pto:.2} below 3xRTT");
        }
    });
}

/// Determinism: identical scenarios produce identical outcomes.
#[test]
fn scenario_determinism() {
    cases(24, |rng| {
        let client_idx = rng.gen_range(8) as usize;
        let iack = rng.gen_bool(0.5);
        let loss_kind = rng.gen_range(3) as u8;
        let seed = rng.gen_range(100);
        let sc = scenario(client_idx, iack, 9, 4, false, loss_kind, seed);
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        assert_eq!(a.ttfb_ms, b.ttfb_ms);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.client_rtt_samples, b.client_rtt_samples);
    });
}

/// The Retry handshake extension (paper §5 generalization): a server
/// demanding address validation still completes, with one extra RTT.
#[test]
fn retry_handshake_completes_with_extra_round_trip() {
    use reacked_quicer::quic::{Connection, EndpointConfig};
    use reacked_quicer::sim::SimTime;
    use reacked_quicer::wire::{ConnectionId, PlainPacket};

    let mut client = Connection::client(EndpointConfig::rfc_default(), 7, false);
    client.send_stream_data(0, b"GET / HTTP/1.1\r\n\r\n", true);
    let mut server: Option<Connection> = None;
    let mut now = SimTime::ZERO;
    let mut retries_seen = 0;
    for _ in 0..100 {
        while let Some(d) = client.poll_transmit(now) {
            let srv = server.get_or_insert_with(|| {
                let dcid = PlainPacket::decode(&d, 8)
                    .map(|(p, _, _)| p.header.dcid)
                    .unwrap();
                let mut s = Connection::server(EndpointConfig::rfc_default(), 8, dcid);
                s.use_retry = true;
                s
            });
            srv.handle_datagram(now, &d);
        }
        if let Some(srv) = server.as_mut() {
            while let Some(ev) = srv.poll_event() {
                if matches!(ev, reacked_quicer::quic::ConnEvent::CertificateNeeded) {
                    srv.certificate_ready(now);
                }
            }
            while let Some(d) = srv.poll_transmit(now) {
                if let Ok((pkt, _, _)) = PlainPacket::decode(&d, 8) {
                    if pkt.header.ty == reacked_quicer::wire::PacketType::Retry {
                        retries_seen += 1;
                    }
                }
                client.handle_datagram(now, &d);
            }
        }
        while client.poll_event().is_some() {}
        if client.is_confirmed() {
            break;
        }
        now = now + SimDuration::from_millis(1);
        if client.poll_timeout().map(|t| t <= now).unwrap_or(false) {
            client.handle_timeout(now);
        }
        if let Some(srv) = server.as_mut() {
            if srv.poll_timeout().map(|t| t <= now).unwrap_or(false) {
                srv.handle_timeout(now);
            }
        }
    }
    assert_eq!(retries_seen, 1, "exactly one Retry round trip");
    assert!(client.is_established(), "handshake completes after Retry");
    let srv = server.unwrap();
    assert!(srv.is_established());
    // The token validated the address: no amplification blocking occurred.
    assert_eq!(srv.amplification_budget(), usize::MAX);
    let _ = ConnectionId::EMPTY;
}
