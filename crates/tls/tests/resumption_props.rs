//! Property-based tests for the session-resumption subsystem.
//!
//! The resumed-scenario determinism guarantee rests on two facts checked
//! here for arbitrary inputs: ticket minting is a pure function of
//! `(ticket_key, resumption secret)` with a lossless open/mint roundtrip
//! under the right key, and a ticket never opens under the wrong key or
//! after corruption (so cross-server replay falls back to a full
//! handshake instead of desynchronizing keys).

use rq_testkit::prop::cases;
use rq_tls::{early_keys, mint_ticket, open_ticket, resumption_secret};

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
