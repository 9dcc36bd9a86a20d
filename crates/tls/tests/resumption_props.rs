//! Property-based tests for the session-resumption subsystem.
//!
//! The resumed-scenario determinism guarantee rests on two facts checked
//! here for arbitrary inputs: ticket minting is a pure function of
//! `(ticket_key, resumption secret)` with a lossless open/mint roundtrip
//! under the right key, and a ticket never opens under the wrong key or
//! after corruption (so cross-server replay falls back to a full
//! handshake instead of desynchronizing keys).

use rq_testkit::prop::cases;
use rq_tls::{
    early_keys, mint_ticket, open_ticket, resumption_secret, ClientConfig, Level, ServerConfig,
    ServerResumption, SessionTicket, TlsEvent, TlsSession, TICKET_KEY,
};

fn secret_from(seed: u64) -> [u8; 32] {
    // Spread the seed over 32 bytes; the exact map is irrelevant, it only
    // needs to be deterministic and injective enough for the properties.
    let mut s = [0u8; 32];
    for (i, b) in s.iter_mut().enumerate() {
        *b = (seed.rotate_left((i % 64) as u32) ^ (i as u64).wrapping_mul(0x9E37)) as u8;
    }
    s
}

/// Same seed ⇒ same ticket bytes, and the issuing key recovers the
/// exact secret (the resumed connection derives identical keys).
#[test]
fn mint_is_deterministic_and_open_roundtrips() {
    cases(128, |rng| {
        let (key, secret) = (rng.next_u64(), secret_from(rng.next_u64()));
        let a = mint_ticket(key, &secret);
        let b = mint_ticket(key, &secret);
        assert_eq!(a, b, "same inputs must mint identical ticket bytes");
        assert_eq!(open_ticket(key, &a), Some(secret));
    });
}

/// A different ticket key neither mints the same bytes nor opens the
/// other key's tickets.
#[test]
fn wrong_key_is_rejected() {
    cases(128, |rng| {
        let (key, other, seed) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
        if key == other {
            return; // vacuous case
        }
        let secret = secret_from(seed);
        let ticket = mint_ticket(key, &secret);
        assert_ne!(mint_ticket(other, &secret), ticket);
        assert_eq!(open_ticket(other, &ticket), None);
    });
}

/// Any single-byte corruption, and every single-bit flip in the masked
/// secret or in the tag, invalidates the ticket.
#[test]
fn corruption_is_rejected() {
    cases(128, |rng| {
        let (key, secret) = (rng.next_u64(), secret_from(rng.next_u64()));
        let (pos, flip) = (rng.gen_range(48) as usize, 1 + rng.gen_range(255) as u8);
        let ticket = mint_ticket(key, &secret);
        let mut corrupt = ticket;
        corrupt[pos] ^= flip;
        assert_eq!(open_ticket(key, &corrupt), None);
        for bit in 0..ticket.len() * 8 {
            let mut flipped = ticket;
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(open_ticket(key, &flipped), None, "bit {bit}");
        }
    });
}

/// Distinct transcripts yield distinct resumption secrets and early
/// keys (no cross-connection key reuse).
#[test]
fn secrets_and_early_keys_separate_by_transcript() {
    cases(128, |rng| {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        if a == b {
            return; // vacuous case
        }
        let (ta, tb) = (secret_from(a), secret_from(b));
        let (ra, rb) = (resumption_secret(&ta), resumption_secret(&tb));
        assert_ne!(ra, rb);
        assert_ne!(early_keys(&ra), early_keys(&rb));
    });
}

/// Runs a 0-RTT resumption offer of `ticket` against a server accepting
/// resumption; returns whether it resumed and the client's events.
fn offer(ticket: SessionTicket) -> (bool, Vec<TlsEvent>) {
    let mut client = TlsSession::client(ClientConfig {
        ticket: Some(ticket),
        early_data: true,
    });
    let mut server = TlsSession::server(ServerConfig {
        resumption: ServerResumption::accepting(7200),
        ..ServerConfig::default()
    });
    client.start();
    let mut client_events = Vec::new();
    let mut progress = true;
    while progress {
        progress = false;
        for level in [Level::Initial, Level::Handshake, Level::Application] {
            if let Some(out) = client.take_output(level) {
                let events = server.read_crypto(level, &out).unwrap();
                if events.contains(&TlsEvent::NeedCertificate) {
                    server.provide_certificate();
                }
                progress = true;
            }
            if let Some(out) = server.take_output(level) {
                client_events.extend(client.read_crypto(level, &out).unwrap());
                progress = true;
            }
        }
    }
    assert!(client.is_complete() && server.is_complete());
    assert_eq!(client.is_resumed(), server.is_resumed());
    (server.is_resumed(), client_events)
}

/// One server, one key: a ticket resumes, and its 0-RTT offer is
/// accepted, iff it was minted under the server's key. Under any other
/// key the handshake completes in full and its 0-RTT offer is rejected.
#[test]
fn a_ticket_resumes_iff_minted_under_the_server_key() {
    cases(96, |rng| {
        let key = if rng.gen_bool(0.5) {
            TICKET_KEY
        } else {
            rng.next_u64()
        };
        let secret = secret_from(rng.next_u64());
        let ticket = SessionTicket {
            ticket: mint_ticket(key, &secret),
            secret,
            lifetime_secs: 7200,
            early_data_allowed: true,
        };
        let expected = key == TICKET_KEY;
        let (resumed, events) = offer(ticket);
        assert_eq!(resumed, expected, "key {key:#x}");
        let early = if expected {
            TlsEvent::EarlyDataAccepted
        } else {
            TlsEvent::EarlyDataRejected
        };
        assert!(events.contains(&early), "key {key:#x}: {events:?}");
    });
}
