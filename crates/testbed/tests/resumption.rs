//! End-to-end shapes of the session-resumption subsystem: the
//! two-connection priming flow, the three handshake classes, fallback on
//! ticketless servers, and the 0-RTT reject/retransmit path.

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_quic::ServerAckMode;
use rq_sim::SimDuration;
use rq_testbed::{run_scenario, HandshakeClass, Scenario};
use rq_testkit::prop::cases;
use rq_tls::ServerResumption;

const WFC: ServerAckMode = ServerAckMode::WaitForCertificate;
const IACK: ServerAckMode = ServerAckMode::InstantAck { pad_to_mtu: false };

fn base(mode: ServerAckMode) -> Scenario {
    let mut sc = Scenario::base(client_by_name("quic-go").unwrap(), mode, HttpVersion::H1);
    // A visible store delay: full handshakes pay it, resumed ones must not.
    sc.cert_delay = SimDuration::from_millis(50);
    sc
}

fn with_class(mode: ServerAckMode, class: HandshakeClass, prof: ServerResumption) -> Scenario {
    let mut sc = base(mode);
    sc.handshake_class = class;
    sc.resumption = prof;
    sc
}

#[test]
fn class_ladder_zero_rtt_below_resumed_below_full() {
    let full = run_scenario(&with_class(
        WFC,
        HandshakeClass::Full,
        ServerResumption::accepting(7200),
    ));
    let resumed = run_scenario(&with_class(
        WFC,
        HandshakeClass::Resumed,
        ServerResumption::accepting(7200),
    ));
    let zero = run_scenario(&with_class(
        WFC,
        HandshakeClass::ZeroRtt,
        ServerResumption::accepting(7200),
    ));
    assert!(full.completed && resumed.completed && zero.completed);
    assert!(!full.resumed && resumed.resumed && zero.resumed);
    assert_eq!(zero.early_data_accepted, Some(true));
    let (f, r, z) = (
        full.ttfb_ms.unwrap(),
        resumed.ttfb_ms.unwrap(),
        zero.ttfb_ms.unwrap(),
    );
    assert!(z < r, "0-RTT ({z}) must beat resumed ({r})");
    assert!(r < f, "resumed ({r}) must beat full ({f}): no cert, no Δt");
    // The abbreviated handshake skips the certificate store entirely.
    assert!(
        resumed.handshake_ms.unwrap() + 40.0 < full.handshake_ms.unwrap(),
        "resumed handshake must not pay the 50 ms Δt"
    );
}

#[test]
fn resumption_collapses_the_wfc_iack_gap() {
    // The paper's dichotomy lives on the certificate wait; with the
    // certificate flight gone there is nothing for WFC to wait for, so
    // the two ACK policies converge on resumed handshakes.
    let full_gap = {
        let w = run_scenario(&base(WFC)).ttfb_ms.unwrap();
        let i = run_scenario(&base(IACK)).ttfb_ms.unwrap();
        (w - i).abs()
    };
    let resumed_gap = {
        let w = run_scenario(&with_class(
            WFC,
            HandshakeClass::Resumed,
            ServerResumption::accepting(7200),
        ))
        .ttfb_ms
        .unwrap();
        let i = run_scenario(&with_class(
            IACK,
            HandshakeClass::Resumed,
            ServerResumption::accepting(7200),
        ))
        .ttfb_ms
        .unwrap();
        (w - i).abs()
    };
    assert!(
        resumed_gap < 1.0 && resumed_gap < full_gap,
        "resumed WFC/IACK gap ({resumed_gap}) must collapse vs full ({full_gap})"
    );
}

#[test]
fn ticketless_server_falls_back_to_full_handshake() {
    for class in [HandshakeClass::Resumed, HandshakeClass::ZeroRtt] {
        let res = run_scenario(&with_class(WFC, class, ServerResumption::disabled()));
        let full = run_scenario(&with_class(
            WFC,
            HandshakeClass::Full,
            ServerResumption::disabled(),
        ));
        assert!(res.completed);
        assert!(!res.resumed, "{}: no ticket, no resumption", class.label());
        assert_eq!(res.early_data_accepted, None, "{}", class.label());
        assert_eq!(res.ttfb_ms, full.ttfb_ms, "{}", class.label());
    }
}

#[test]
fn zero_rtt_labels_and_reissue() {
    let sc = with_class(
        WFC,
        HandshakeClass::ZeroRtt,
        ServerResumption::accepting(7200),
    );
    assert!(sc.label().ends_with("/0rtt"));
    let res = run_scenario(&sc);
    // TTFB ≈ handshake time: the response races the handshake flight.
    let (ttfb, hs) = (res.ttfb_ms.unwrap(), res.handshake_ms.unwrap());
    assert!(
        (ttfb - hs).abs() < 5.0,
        "0-RTT response arrives with the handshake flight (ttfb {ttfb}, hs {hs})"
    );
}

/// Retry composes with resumption: a 0-RTT offer against a Retry-ing,
/// early-data-rejecting server still completes.  The first Initial is
/// tokenless, the post-Retry Initial echoes the server's token, and the
/// rejected early data is unwound and redelivered under 1-RTT keys.
#[test]
fn retry_composes_with_zero_rtt_resumption() {
    use rq_quic::{stream_id, ConnEvent, Connection, EndpointConfig};
    use rq_sim::SimTime;

    const REQUEST: &[u8] = b"GET /retry HTTP/1.1\r\n\r\n";

    fn server_cfg() -> EndpointConfig {
        let mut cfg = EndpointConfig::rfc_default();
        cfg.ack_mode = WFC;
        cfg.resumption = ServerResumption::rejecting_early_data(7200);
        cfg
    }

    /// Zero-delay exchange loop that records every client→server
    /// datagram, answers certificate requests instantly, and fires due
    /// timers until both sides are quiescent and established.
    fn drive(c: &mut Connection, s: &mut Connection, to_server: &mut Vec<Vec<u8>>) -> usize {
        let mut now = SimTime::ZERO;
        let mut delivered = 0usize;
        for _ in 0..400 {
            loop {
                let mut progress = false;
                while let Some(d) = c.poll_transmit(now) {
                    to_server.push(d.to_vec());
                    s.handle_datagram(now, &d);
                    progress = true;
                }
                while let Some(ev) = s.poll_event() {
                    match ev {
                        ConnEvent::CertificateNeeded => s.certificate_ready(now),
                        ConnEvent::StreamData { id, data, .. }
                            if id == stream_id::CLIENT_BIDI_0 =>
                        {
                            delivered += data.len();
                        }
                        _ => {}
                    }
                    progress = true;
                }
                while let Some(d) = s.poll_transmit(now) {
                    c.handle_datagram(now, &d);
                    progress = true;
                }
                while c.poll_event().is_some() {
                    progress = true;
                }
                if !progress {
                    break;
                }
            }
            if c.is_established() && s.is_established() && c.poll_timeout().is_none() {
                break;
            }
            let next = [c.poll_timeout(), s.poll_timeout()]
                .into_iter()
                .flatten()
                .min();
            now = match next {
                Some(t) => t.max(now + SimDuration::from_micros(10)),
                None => break,
            };
            if c.poll_timeout().map(|t| t <= now).unwrap_or(false) {
                c.handle_timeout(now);
            }
            if s.poll_timeout().map(|t| t <= now).unwrap_or(false) {
                s.handle_timeout(now);
            }
        }
        delivered
    }

    // Prime a ticket through a plain full handshake (no Retry needed).
    let ticket = {
        let mut c = Connection::client(EndpointConfig::rfc_default(), 1, false);
        let mut s = Connection::server(server_cfg(), 2, c.original_dcid());
        let mut now = SimTime::ZERO;
        let mut ticket = None;
        for _ in 0..400 {
            let mut progress = false;
            while let Some(d) = c.poll_transmit(now) {
                s.handle_datagram(now, &d);
                progress = true;
            }
            while let Some(ev) = s.poll_event() {
                if matches!(ev, ConnEvent::CertificateNeeded) {
                    s.certificate_ready(now);
                }
                progress = true;
            }
            while let Some(d) = s.poll_transmit(now) {
                c.handle_datagram(now, &d);
                progress = true;
            }
            while let Some(ev) = c.poll_event() {
                if let ConnEvent::TicketReceived(t) = ev {
                    ticket = Some(t);
                }
                progress = true;
            }
            if !progress {
                if ticket.is_some() {
                    break;
                }
                match [c.poll_timeout(), s.poll_timeout()]
                    .into_iter()
                    .flatten()
                    .min()
                {
                    Some(t) => {
                        now = t.max(now + SimDuration::from_micros(10));
                        if c.poll_timeout().map(|t| t <= now).unwrap_or(false) {
                            c.handle_timeout(now);
                        }
                        if s.poll_timeout().map(|t| t <= now).unwrap_or(false) {
                            s.handle_timeout(now);
                        }
                    }
                    None => break,
                }
            }
        }
        ticket.expect("priming handshake must yield a ticket")
    };

    // Measured connection: 0-RTT offer against a Retry-ing server that
    // rejects early data.
    let mut cfg = EndpointConfig::rfc_default();
    cfg.resume = rq_tls::ClientConfig {
        ticket: Some(ticket),
        early_data: true,
    };
    let mut c = Connection::client(cfg, 1, false);
    c.send_stream_data(stream_id::CLIENT_BIDI_0, REQUEST, true);
    let mut s = Connection::server(server_cfg(), 3, c.original_dcid());
    s.use_retry = true;

    let mut to_server = Vec::new();
    let delivered = drive(&mut c, &mut s, &mut to_server);

    // Token echo: the pre-Retry Initial carries an empty token; the
    // re-sent Initial after the Retry echoes the server's token.
    let initial_tokens: Vec<Vec<u8>> = to_server
        .iter()
        .filter_map(|d| {
            let info = rq_wire::classify_datagram(d, 8).ok()?;
            info.packets
                .iter()
                .find(|p| p.ty == rq_wire::PacketType::Initial)
                .map(|_| {
                    let (pkt, _, _) = rq_wire::PlainPacket::decode(d, 8).unwrap();
                    pkt.header.token.clone()
                })
        })
        .collect();
    assert!(
        initial_tokens.len() >= 2,
        "expected a tokenless and a tokened Initial, saw {}",
        initial_tokens.len()
    );
    assert!(
        initial_tokens[0].is_empty(),
        "first Initial must be tokenless"
    );
    assert!(
        initial_tokens.iter().any(|t| !t.is_empty()),
        "post-Retry Initial must echo the server token"
    );
    // The pre-Retry first flight still carried the 0-RTT offer.
    let first = rq_wire::classify_datagram(&to_server[0], 8).unwrap();
    assert!(
        first
            .packets
            .iter()
            .any(|p| p.ty == rq_wire::PacketType::ZeroRtt),
        "first flight coalesces a 0-RTT packet"
    );

    // EarlyDataRejected unwind: the handshake still completes resumed,
    // the reject is visible, and the request arrives in full under
    // 1-RTT keys.
    assert!(c.is_established() && s.is_established());
    assert!(c.is_resumed() && s.is_resumed(), "PSK survives the Retry");
    assert_eq!(c.early_data_accepted(), Some(false));
    assert_eq!(s.early_data_accepted(), Some(false));
    assert_eq!(
        delivered,
        REQUEST.len(),
        "rejected early data must be redelivered as 1-RTT"
    );
}

// Each case runs a priming + measured simulation pair; keep the case
// count modest so the suite stays fast in debug CI runs.

/// For any seed, a 0-RTT offer against an early-data-rejecting server
/// still completes the response — retransmitted as 1-RTT — and
/// reports `early_data_accepted == Some(false)`.
#[test]
fn rejected_early_data_always_completes() {
    cases(8, |rng| {
        let mut sc = with_class(
            WFC,
            HandshakeClass::ZeroRtt,
            ServerResumption::rejecting_early_data(7200),
        );
        sc.seed = 1 + rng.gen_range(9_999);
        let res = run_scenario(&sc);
        assert!(res.completed, "seed {}: {res:?}", sc.seed);
        assert!(res.resumed, "PSK accepted even though 0-RTT is not");
        assert_eq!(res.early_data_accepted, Some(false));
    });
}

/// Same seed ⇒ byte-identical two-connection composite, for every
/// handshake class.
#[test]
fn classes_are_pure_functions_of_the_seed() {
    cases(8, |rng| {
        let seed = 1 + rng.gen_range(9_999);
        for class in HandshakeClass::ALL {
            let mut sc = with_class(WFC, class, ServerResumption::accepting(7200));
            sc.seed = seed;
            let a = run_scenario(&sc);
            let b = run_scenario(&sc);
            assert_eq!(a.ttfb_ms, b.ttfb_ms, "{} seed {}", class.label(), seed);
            assert_eq!(a.resumed, b.resumed);
            assert_eq!(a.early_data_accepted, b.early_data_accepted);
            assert_eq!(a.client_log.events.len(), b.client_log.events.len());
        }
    });
}
