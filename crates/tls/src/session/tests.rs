use super::*;
use crate::messages::{CERT_LARGE, CERT_SMALL, NEW_SESSION_TICKET_LEN};

/// Feeds `data` to `server` and, when the server asks for its
/// certificate, provides it at once (a store with Δt = 0).
fn serve(server: &mut TlsSession, level: Level, data: &[u8]) -> Vec<TlsEvent> {
    let mut events = server.read_crypto(level, data).unwrap();
    if events.contains(&TlsEvent::NeedCertificate) {
        events.extend(server.provide_certificate());
    }
    events
}

/// Shuttles crypto bytes between two sessions until quiescent,
/// collecting both sides' events.
fn pump(client: &mut TlsSession, server: &mut TlsSession) -> (Vec<TlsEvent>, Vec<TlsEvent>) {
    let mut cev = Vec::new();
    let mut sev = Vec::new();
    loop {
        let mut progress = false;
        for lvl in [Level::Initial, Level::Handshake, Level::Application] {
            if let Some(out) = client.take_output(lvl) {
                sev.extend(serve(server, lvl, &out));
                progress = true;
            }
            if let Some(out) = server.take_output(lvl) {
                cev.extend(client.read_crypto(lvl, &out).unwrap());
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    (cev, sev)
}

/// Runs a full in-memory handshake, shuttling crypto bytes directly.
fn run_handshake(cert_len: usize) -> (TlsSession, TlsSession) {
    let mut client = TlsSession::client(ClientConfig::full());
    let mut server = TlsSession::server(ServerConfig {
        cert_len,
        ..ServerConfig::default()
    });
    client.start();
    let ch = client.take_output(Level::Initial).unwrap();
    let ev = server.read_crypto(Level::Initial, &ch).unwrap();
    assert_eq!(ev, vec![TlsEvent::NeedCertificate]);
    let ev2 = server.provide_certificate();
    assert!(ev2.contains(&TlsEvent::KeysReady(Level::Handshake)));
    assert!(ev2.contains(&TlsEvent::KeysReady(Level::Application)));
    let sh = server.take_output(Level::Initial).unwrap();
    let flight = server.take_output(Level::Handshake).unwrap();
    let ev = client.read_crypto(Level::Initial, &sh).unwrap();
    assert_eq!(ev, vec![TlsEvent::KeysReady(Level::Handshake)]);
    let ev = client.read_crypto(Level::Handshake, &flight).unwrap();
    assert!(ev.contains(&TlsEvent::KeysReady(Level::Application)));
    assert!(ev.contains(&TlsEvent::HandshakeComplete));
    let client_fin = client.take_output(Level::Handshake).unwrap();
    let ev = server.read_crypto(Level::Handshake, &client_fin).unwrap();
    assert!(ev.contains(&TlsEvent::HandshakeComplete));
    (client, server)
}

/// Runs a ticket-issuing full handshake and returns the minted
/// ticket plus the server config that issued it.
fn prime_ticket(resumption: ServerResumption) -> (SessionTicket, ServerConfig) {
    let server_cfg = ServerConfig {
        resumption,
        ..ServerConfig::default()
    };
    let mut client = TlsSession::client(ClientConfig::full());
    let mut server = TlsSession::server(server_cfg.clone());
    client.start();
    let (cev, _) = pump(&mut client, &mut server);
    let ticket = cev
        .into_iter()
        .find_map(|e| match e {
            TlsEvent::TicketIssued(t) => Some(t),
            _ => None,
        })
        .expect("ticket issued");
    (ticket, server_cfg)
}

#[test]
fn full_handshake_small_cert() {
    let (client, server) = run_handshake(CERT_SMALL);
    assert!(client.is_complete());
    assert!(server.is_complete());
    assert!(!client.is_resumed() && !server.is_resumed());
}

#[test]
fn full_handshake_large_cert() {
    let (client, server) = run_handshake(CERT_LARGE);
    assert!(client.is_complete());
    assert!(server.is_complete());
}

#[test]
fn both_sides_derive_identical_keys() {
    let (client, server) = run_handshake(CERT_SMALL);
    assert_eq!(client.keys(Level::Handshake), server.keys(Level::Handshake));
    assert_eq!(
        client.keys(Level::Application),
        server.keys(Level::Application)
    );
}

#[test]
fn server_flight_size_scales_with_cert() {
    let mut client = TlsSession::client(ClientConfig::full());
    client.start();
    let ch = client.take_output(Level::Initial).unwrap();

    let mut small = TlsSession::server(ServerConfig {
        cert_len: CERT_SMALL,
        ..ServerConfig::default()
    });
    serve(&mut small, Level::Initial, &ch);
    let small_len = small.pending_output(Level::Handshake);

    let mut large = TlsSession::server(ServerConfig {
        cert_len: CERT_LARGE,
        ..ServerConfig::default()
    });
    serve(&mut large, Level::Initial, &ch);
    let large_len = large.pending_output(Level::Handshake);

    assert_eq!(large_len - small_len, CERT_LARGE - CERT_SMALL);
}

#[test]
fn fragmented_delivery_still_completes() {
    let mut client = TlsSession::client(ClientConfig::full());
    let mut server = TlsSession::server(ServerConfig::default());
    client.start();
    let ch = client.take_output(Level::Initial).unwrap();
    // Deliver CH one byte at a time.
    for b in ch.iter() {
        serve(&mut server, Level::Initial, &[*b]);
    }
    let sh = server.take_output(Level::Initial).unwrap();
    let flight = server.take_output(Level::Handshake).unwrap();
    client.read_crypto(Level::Initial, &sh).unwrap();
    // Deliver the handshake flight in 100-byte chunks.
    for chunk in flight.chunks(100) {
        client.read_crypto(Level::Handshake, chunk).unwrap();
    }
    assert!(client.is_complete());
}

#[test]
fn out_of_order_message_rejected() {
    let mut client = TlsSession::client(ClientConfig::full());
    client.start();
    // Server Finished before ServerHello is a protocol violation.
    let fin = HandshakeMessage::finished([0; 32]);
    let mut enc = Vec::new();
    fin.encode(&mut enc);
    assert!(client.read_crypto(Level::Initial, &enc).is_err());
}

#[test]
fn retry_resets_and_requeues_client_hello() {
    let mut client = TlsSession::client(ClientConfig::full());
    client.start();
    let ch1 = client.take_output(Level::Initial).unwrap();
    client.reset_for_retry();
    let ch2 = client.take_output(Level::Initial).unwrap();
    assert_eq!(ch1, ch2);
}

#[test]
fn provide_certificate_is_noop_before_client_hello() {
    let mut server = TlsSession::server(ServerConfig::default());
    assert!(server.provide_certificate().is_empty());
    assert_eq!(server.pending_output(Level::Initial), 0);
}

// ------------------------------------------------------------------
// Resumption
// ------------------------------------------------------------------

#[test]
fn ticket_issued_after_full_handshake() {
    let (ticket, _) = prime_ticket(ServerResumption::accepting(7200));
    assert_eq!(ticket.lifetime_secs, 7200);
    assert!(ticket.early_data_allowed);
    // The NST rides at the Application level, sized per the constant.
    let nst = HandshakeMessage::new_session_ticket(7200, true, &ticket.ticket);
    assert_eq!(nst.wire_len(), NEW_SESSION_TICKET_LEN);
}

#[test]
fn no_ticket_when_issuance_disabled() {
    let mut client = TlsSession::client(ClientConfig::full());
    let mut server = TlsSession::server(ServerConfig::default());
    client.start();
    let (cev, _) = pump(&mut client, &mut server);
    assert!(client.is_complete());
    assert!(!cev.iter().any(|e| matches!(e, TlsEvent::TicketIssued(_))));
    assert_eq!(server.pending_output(Level::Application), 0);
}

#[test]
fn resumed_handshake_skips_certificate_and_need_certificate() {
    let (ticket, server_cfg) = prime_ticket(ServerResumption::accepting(7200));
    // A full handshake would raise NeedCertificate; the resumed one
    // must not.
    let mut client = TlsSession::client(ClientConfig {
        ticket: Some(ticket),
        ..ClientConfig::full()
    });
    let mut server = TlsSession::server(server_cfg);
    client.start();
    let (cev, sev) = pump(&mut client, &mut server);
    assert!(client.is_complete() && server.is_complete());
    assert!(client.is_resumed() && server.is_resumed());
    assert!(!sev.iter().any(|e| matches!(e, TlsEvent::NeedCertificate)));
    assert!(cev.contains(&TlsEvent::ResumptionAccepted));
    assert_eq!(
        client.keys(Level::Application),
        server.keys(Level::Application)
    );
}

#[test]
fn overlap_key_resumes_retired_key_falls_back() {
    // A ticket minted under the *previous* epoch's key: accepted while
    // that key sits in the overlap window, full handshake once the
    // window drops it (the rotating-server behaviour the testbed's
    // key schedule drives).
    let (ticket, server_cfg) = prime_ticket(ServerResumption::accepting(7200));
    let old_key = server_cfg.ticket_keys.mint();
    // Epoch 0 of a schedule is its base key; `now_secs` 150 is epoch 1.
    let run = |base_key: u64, overlap_epochs: u32, now_secs: u64| {
        let mut client = TlsSession::client(ClientConfig {
            ticket: Some(ticket.clone()),
            ..ClientConfig::full()
        });
        let ticket_keys = TicketKeySchedule::rotating(base_key, 100, overlap_epochs).at(now_secs);
        assert_ne!(ticket_keys.mint(), old_key, "the server has rotated");
        let mut server = TlsSession::server(ServerConfig {
            ticket_keys,
            ..server_cfg.clone()
        });
        client.start();
        pump(&mut client, &mut server);
        server.is_resumed()
    };
    assert!(run(old_key, 1, 150), "overlap window resumes");
    assert!(!run(old_key, 1, 250), "retired key falls back");
    assert!(!run(old_key, 0, 150), "empty window falls back");
}

#[test]
fn resumed_flight_is_much_smaller_than_full() {
    let (ticket, server_cfg) = prime_ticket(ServerResumption::accepting(7200));
    let flight_len = |ticket: Option<SessionTicket>| {
        let mut client = TlsSession::client(ClientConfig {
            ticket,
            ..ClientConfig::full()
        });
        let mut server = TlsSession::server(server_cfg.clone());
        client.start();
        let ch = client.take_output(Level::Initial).unwrap();
        serve(&mut server, Level::Initial, &ch);
        server.pending_output(Level::Handshake)
    };
    let full = flight_len(None);
    let resumed = flight_len(Some(ticket));
    // The certificate + CertificateVerify flight disappears.
    assert_eq!(full - resumed, CERT_SMALL + 268);
}

#[test]
fn early_data_keys_agree_when_accepted() {
    let (ticket, server_cfg) = prime_ticket(ServerResumption::accepting(7200));
    let mut client = TlsSession::client(ClientConfig {
        ticket: Some(ticket),
        early_data: true,
    });
    let mut server = TlsSession::server(server_cfg);
    client.start();
    // Client early keys exist before any server byte.
    let client_early = client.early_keys().cloned().expect("client early keys");
    let (cev, sev) = pump(&mut client, &mut server);
    assert!(cev.contains(&TlsEvent::EarlyDataAccepted));
    assert!(sev.contains(&TlsEvent::EarlyDataAccepted));
    assert_eq!(client.early_data_accepted(), Some(true));
    assert_eq!(server.early_data_accepted(), Some(true));
    assert_eq!(server.early_keys(), Some(&client_early));
}

#[test]
fn early_data_rejected_by_policy() {
    let (ticket, mut server_cfg) = prime_ticket(ServerResumption::accepting(7200));
    server_cfg.resumption = ServerResumption::rejecting_early_data(7200);
    let mut client = TlsSession::client(ClientConfig {
        ticket: Some(ticket),
        early_data: true,
    });
    let mut server = TlsSession::server(server_cfg);
    client.start();
    let (cev, sev) = pump(&mut client, &mut server);
    assert!(client.is_complete() && client.is_resumed());
    assert!(cev.contains(&TlsEvent::EarlyDataRejected));
    assert!(sev.contains(&TlsEvent::EarlyDataRejected));
    assert_eq!(client.early_data_accepted(), Some(false));
    assert!(server.early_keys().is_none());
}

#[test]
fn no_early_offer_under_a_ticket_without_early_support() {
    // RFC 8446 §4.2.10: the client must not offer early data under a
    // ticket whose issuer did not advertise it.
    let (mut ticket, server_cfg) = prime_ticket(ServerResumption::accepting(7200));
    // The ticket as a client parses it from a NewSessionTicket whose
    // early-data flag is clear.
    assert!(ticket.early_data_allowed);
    ticket.early_data_allowed = false;
    let mut client = TlsSession::client(ClientConfig {
        ticket: Some(ticket),
        early_data: true,
    });
    client.start();
    assert!(client.early_keys().is_none(), "no offer ⇒ no early keys");
    let mut server = TlsSession::server(server_cfg);
    let (cev, sev) = pump(&mut client, &mut server);
    assert!(client.is_resumed() && server.is_resumed());
    assert_eq!(client.early_data_accepted(), None, "never offered");
    assert_eq!(server.early_data_accepted(), None);
    assert!(!cev
        .iter()
        .any(|e| matches!(e, TlsEvent::EarlyDataAccepted | TlsEvent::EarlyDataRejected)));
    let _ = sev;
}

#[test]
fn server_records_early_reject_on_psk_fallback() {
    // A corrupt ticket kills the PSK *and* its early-data offer; the
    // server must record the rejection symmetrically with the client.
    let (mut ticket, server_cfg) = prime_ticket(ServerResumption::accepting(7200));
    ticket.ticket[5] ^= 0x80;
    let mut client = TlsSession::client(ClientConfig {
        ticket: Some(ticket),
        early_data: true,
    });
    let mut server = TlsSession::server(server_cfg);
    client.start();
    let (_, sev) = pump(&mut client, &mut server);
    assert!(!server.is_resumed());
    assert_eq!(server.early_data_accepted(), Some(false));
    assert!(sev.contains(&TlsEvent::EarlyDataRejected));
}

#[test]
fn invalid_ticket_falls_back_to_full_handshake() {
    let (mut ticket, server_cfg) = prime_ticket(ServerResumption::accepting(7200));
    ticket.ticket[0] ^= 0xFF; // corrupt: fails the authenticity tag
    let mut client = TlsSession::client(ClientConfig {
        ticket: Some(ticket),
        early_data: true,
    });
    let mut server = TlsSession::server(server_cfg);
    client.start();
    let (cev, _) = pump(&mut client, &mut server);
    assert!(client.is_complete() && server.is_complete());
    assert!(!client.is_resumed() && !server.is_resumed());
    assert!(cev.contains(&TlsEvent::EarlyDataRejected));
    assert_eq!(client.early_data_accepted(), Some(false));
}

#[test]
fn ticket_minting_is_a_pure_function_of_the_handshake() {
    let (a, _) = prime_ticket(ServerResumption::accepting(3600));
    let (b, _) = prime_ticket(ServerResumption::accepting(3600));
    assert_eq!(a, b, "same handshake bytes ⇒ same ticket");
}

#[test]
fn resumed_handshake_reissues_tickets() {
    let (ticket, server_cfg) = prime_ticket(ServerResumption::accepting(7200));
    let mut client = TlsSession::client(ClientConfig {
        ticket: Some(ticket),
        ..ClientConfig::full()
    });
    let mut server = TlsSession::server(server_cfg);
    client.start();
    let (cev, _) = pump(&mut client, &mut server);
    let fresh: Vec<_> = cev
        .iter()
        .filter(|e| matches!(e, TlsEvent::TicketIssued(_)))
        .collect();
    assert_eq!(fresh.len(), 1, "resumed handshakes mint fresh tickets");
}
