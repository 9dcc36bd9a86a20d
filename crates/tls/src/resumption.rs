//! Session resumption: tickets and the stateless ticket codec.
//!
//! Mirrors the *shape* of TLS 1.3 resumption (RFC 8446 §4.6.1 / §2.2):
//! after a completed handshake both endpoints derive the same resumption
//! secret from the transcript; the server wraps it into an opaque,
//! self-authenticating ticket (stateless, keyed by the server's ticket
//! key) and sends it in a NewSessionTicket; the client stores
//! `(ticket, secret)` and offers the ticket in a later ClientHello to run
//! an abbreviated PSK handshake — the certificate flight disappears, and
//! with it the Δt the paper's WFC servers wait out. 0-RTT early-data keys
//! derive from the same secret on both sides.
//!
//! Everything here is a pure function of its inputs: the same transcript
//! and ticket key always produce the same ticket bytes, which is what
//! keeps resumption scenarios byte-reproducible from the scenario seed.
//!
//! A server's whole resumption policy is one [`ServerResumption`]: the
//! testbed's scenarios and sweeps name its presets directly.

use crate::mac::{mac, DIGEST_LEN};

/// Wire size of an opaque session ticket: the masked 32-byte resumption
/// secret plus a 16-byte authenticity tag.
pub const TICKET_LEN: usize = 48;

/// A resumption ticket as stored by the client: the opaque wire bytes the
/// server minted plus the resumption secret the client derived from its
/// own transcript (the client never learns the server's ticket key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionTicket {
    /// Opaque ticket bytes (echoed verbatim in the resumption CH).
    pub ticket: [u8; TICKET_LEN],
    /// The resumption secret both sides derived from the priming
    /// handshake's transcript.
    pub secret: [u8; 32],
    /// Advertised ticket lifetime in seconds.
    pub lifetime_secs: u32,
    /// The issuing server advertised 0-RTT early data support.
    pub early_data_allowed: bool,
}

/// Server-side resumption policy: whether tickets are offered at all,
/// whether 0-RTT early data is accepted, and the advertised ticket
/// lifetime. Deployments differ on all three (some CDNs serve 0-RTT
/// broadly, others disable it, some origins never issue tickets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerResumption {
    /// Issue a NewSessionTicket after every completed handshake,
    /// advertising 0-RTT support in it, and accept valid tickets back for
    /// abbreviated (PSK) handshakes. A client only offers early data
    /// under a ticket that advertised it (RFC 8446 §4.2.10).
    pub tickets: bool,
    /// Accept 0-RTT early data on resumed handshakes. Deployments can
    /// advertise support and still reject a given attempt (key rotation,
    /// load shedding) — that mismatch is the reject/retransmit path.
    pub accept_early_data: bool,
    /// Lifetime advertised in issued tickets, seconds.
    pub ticket_lifetime_secs: u32,
}

impl ServerResumption {
    /// Resumption fully disabled (the pre-resumption default: no ticket
    /// bytes on the wire, so legacy traces stay byte-identical).
    pub fn disabled() -> Self {
        ServerResumption {
            tickets: false,
            accept_early_data: false,
            ticket_lifetime_secs: 0,
        }
    }

    /// Tickets offered, resumption and 0-RTT accepted.
    pub fn accepting(ticket_lifetime_secs: u32) -> Self {
        ServerResumption {
            tickets: true,
            accept_early_data: true,
            ticket_lifetime_secs,
        }
    }

    /// Tickets offered and resumption accepted; 0-RTT is advertised but
    /// every attempt is rejected (early data must be retransmitted as
    /// 1-RTT).
    pub fn rejecting_early_data(ticket_lifetime_secs: u32) -> Self {
        ServerResumption {
            accept_early_data: false,
            ..ServerResumption::accepting(ticket_lifetime_secs)
        }
    }
}

impl Default for ServerResumption {
    fn default() -> Self {
        ServerResumption::disabled()
    }
}

/// The key every server mints and opens its session tickets under. One
/// server is one key: a ticket opens at the server that minted it (or a
/// restart of it) and at no other, where it degrades to a full handshake.
pub const TICKET_KEY: u64 = 0x7E11_C3E7;

/// The hash key a ticket key stands for.
fn hash_key(ticket_key: u64) -> [u8; DIGEST_LEN] {
    let mut key = [0; DIGEST_LEN];
    key[..8].copy_from_slice(&ticket_key.to_be_bytes());
    key
}

/// Keystream masking the resumption secret inside a ticket.
fn ticket_mask(key: &[u8; DIGEST_LEN]) -> [u8; 32] {
    mac(key, &[b"reacked ticket mask"])
}

/// Mints the opaque ticket for `secret` under `ticket_key`: the masked
/// secret followed by a truncated keyed-hash authenticity tag. Stateless
/// on the server — the same key recovers the secret from the bytes alone.
pub fn mint_ticket(ticket_key: u64, secret: &[u8; 32]) -> [u8; TICKET_LEN] {
    let key = hash_key(ticket_key);
    let mask = ticket_mask(&key);
    let mut out = [0u8; TICKET_LEN];
    for i in 0..32 {
        out[i] = secret[i] ^ mask[i];
    }
    let tag = mac(&key, &[&out[..32]]);
    out[32..].copy_from_slice(&tag[..16]);
    out
}

/// Validates a ticket under `ticket_key` and recovers the resumption
/// secret; `None` for tickets minted under a different key (the server
/// falls back to a full handshake).
pub fn open_ticket(ticket_key: u64, ticket: &[u8; TICKET_LEN]) -> Option<[u8; 32]> {
    let key = hash_key(ticket_key);
    let tag = mac(&key, &[&ticket[..32]]);
    if ticket[32..] != tag[..16] {
        return None;
    }
    let mask = ticket_mask(&key);
    let mut secret = [0u8; 32];
    for i in 0..32 {
        secret[i] = ticket[i] ^ mask[i];
    }
    Some(secret)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_open_roundtrip() {
        let secret = [0x5A; 32];
        let t = mint_ticket(7, &secret);
        assert_eq!(open_ticket(7, &t), Some(secret));
    }

    #[test]
    fn tickets_are_deterministic() {
        let secret = [0x11; 32];
        assert_eq!(mint_ticket(99, &secret), mint_ticket(99, &secret));
        assert_ne!(mint_ticket(99, &secret), mint_ticket(100, &secret));
    }

    #[test]
    fn wrong_key_rejects_ticket() {
        let t = mint_ticket(1, &[0x22; 32]);
        assert_eq!(open_ticket(2, &t), None);
    }

    #[test]
    fn corrupt_ticket_rejected() {
        let mut t = mint_ticket(1, &[0x22; 32]);
        t[0] ^= 0x01;
        assert_eq!(open_ticket(1, &t), None);
    }

    #[test]
    fn resumption_presets() {
        let acc = ServerResumption::accepting(7200);
        assert!(acc.tickets && acc.accept_early_data);
        assert_eq!(acc.ticket_lifetime_secs, 7200);
        // Advertise-then-reject: the mismatch that exercises the 0-RTT
        // reject/retransmit path with an RFC-legal client offer.
        let rej = ServerResumption::rejecting_early_data(7200);
        assert!(rej.tickets && !rej.accept_early_data);
        assert_eq!(rej.ticket_lifetime_secs, 7200);
        let off = ServerResumption::default();
        assert!(!off.tickets && !off.accept_early_data);
    }
}
