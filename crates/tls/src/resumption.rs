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

/// Server-side resumption policy (the per-deployment behaviour
/// `rq-profiles` models: tickets not offered, 0-RTT accepted or
/// rejected, ticket lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerResumption {
    /// Issue a NewSessionTicket after every completed handshake.
    pub issue_tickets: bool,
    /// Accept valid tickets for abbreviated (PSK) handshakes.
    pub accept_resumption: bool,
    /// Advertise 0-RTT support in issued tickets. A client only offers
    /// early data when its ticket advertised it (RFC 8446 §4.2.10).
    pub advertise_early_data: bool,
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
            issue_tickets: false,
            accept_resumption: false,
            advertise_early_data: false,
            accept_early_data: false,
            ticket_lifetime_secs: 0,
        }
    }

    /// Tickets offered, resumption and 0-RTT accepted.
    pub fn accepting(ticket_lifetime_secs: u32) -> Self {
        ServerResumption {
            issue_tickets: true,
            accept_resumption: true,
            advertise_early_data: true,
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

/// A server's rotating ticket-key schedule.
///
/// Real deployments rotate the session-ticket encryption key on a fixed
/// period and keep a small window of previous keys valid, so tickets
/// minted shortly before a rotation still resume (RFC 8446 §4.6.1 leaves
/// the policy to the server; production stacks typically run 2–3
/// overlapping keys). The schedule is a pure function of
/// `(base_key, period, epoch)`: every epoch's key is derived by a
/// SplitMix64-style avalanche of the base key, so a server replica — or a
/// simulation shard — reconstructs the exact same keys from the seed
/// alone, with no shared mutable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TicketKeySchedule {
    /// Seed all epoch keys derive from.
    pub base_key: u64,
    /// Rotation period in seconds; `0` disables rotation (the schedule
    /// pins `base_key` forever — the legacy single-key behaviour).
    pub period_secs: u64,
    /// How many *previous* epoch keys stay acceptable after a rotation.
    /// `0` means a rotation instantly invalidates outstanding tickets.
    pub overlap_epochs: u32,
}

impl TicketKeySchedule {
    /// A schedule that never rotates: `key` mints and validates every
    /// ticket, exactly like the pre-schedule single-key servers.
    pub fn fixed(key: u64) -> Self {
        TicketKeySchedule {
            base_key: key,
            period_secs: 0,
            overlap_epochs: 0,
        }
    }

    /// A rotating schedule: a fresh key every `period_secs`, with the
    /// `overlap_epochs` most recent predecessors still accepted.
    pub fn rotating(base_key: u64, period_secs: u64, overlap_epochs: u32) -> Self {
        TicketKeySchedule {
            base_key,
            period_secs,
            overlap_epochs,
        }
    }

    /// Whether this schedule ever rotates.
    fn rotates(&self) -> bool {
        self.period_secs > 0
    }

    /// The schedule after a crash that lost the previous-epoch keys: only
    /// the current epoch's key validates, so tickets minted before the
    /// last rotation degrade to full handshakes (the measured
    /// invalid-ticket fallback) instead of resuming.
    pub fn forget_old_epochs(self) -> Self {
        TicketKeySchedule {
            overlap_epochs: 0,
            ..self
        }
    }

    /// The rotation epoch containing time `now_secs`.
    fn epoch_at(&self, now_secs: u64) -> u64 {
        now_secs.checked_div(self.period_secs).unwrap_or(0)
    }

    /// The ticket key of `epoch` (epoch 0 of a non-rotating schedule is
    /// `base_key` itself, keeping legacy wire images byte-identical).
    fn key_for_epoch(&self, epoch: u64) -> u64 {
        if !self.rotates() || epoch == 0 {
            return self.base_key;
        }
        // SplitMix64 finalizer over (base_key, epoch): full avalanche, so
        // adjacent epochs share no key structure.
        let mut z = self
            .base_key
            .wrapping_add(epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The keys in force at `now_secs`: the one a ticket minted then is
    /// sealed under, and the window a ticket offered then opens in.
    pub fn at(&self, now_secs: u64) -> TicketKeys {
        TicketKeys {
            schedule: *self,
            epoch: self.epoch_at(now_secs),
        }
    }
}

/// A server's ticket keys at one instant, resolved from its
/// [`TicketKeySchedule`]: a ticket opens only under a key of the window
/// it is offered in, and otherwise forces a full handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TicketKeys {
    schedule: TicketKeySchedule,
    epoch: u64,
}

impl TicketKeys {
    /// The key new tickets are sealed under: the current epoch's.
    pub fn mint(self) -> u64 {
        self.schedule.key_for_epoch(self.epoch)
    }

    /// Keys an offered ticket may open under, newest first: the current
    /// epoch's key (the minting key) followed by up to `overlap_epochs`
    /// predecessors.
    pub fn accepted(self) -> impl Iterator<Item = u64> {
        let oldest = self
            .epoch
            .saturating_sub(self.schedule.overlap_epochs.into());
        (oldest..=self.epoch)
            .rev()
            .map(move |e| self.schedule.key_for_epoch(e))
    }
}

impl Default for TicketKeySchedule {
    fn default() -> Self {
        TicketKeySchedule::fixed(0x7E11_C3E7)
    }
}

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

    fn accepted(s: TicketKeySchedule, now_secs: u64) -> Vec<u64> {
        s.at(now_secs).accepted().collect()
    }

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
    fn fixed_schedule_never_rotates() {
        let s = TicketKeySchedule::fixed(42);
        assert!(!s.rotates());
        for now in [0u64, 1, 3600, u64::MAX / 2] {
            assert_eq!(s.at(now).mint(), 42);
            assert_eq!(accepted(s, now), vec![42]);
        }
    }

    #[test]
    fn rotating_schedule_changes_key_per_epoch() {
        let s = TicketKeySchedule::rotating(7, 3600, 1);
        let k0 = s.at(10).mint();
        let k1 = s.at(3600).mint();
        let k2 = s.at(7200).mint();
        assert_eq!(k0, 7, "epoch 0 pins the base key");
        assert_ne!(k0, k1);
        assert_ne!(k1, k2);
        assert_ne!(k0, k2);
        // Within an epoch the key is stable.
        assert_eq!(s.at(3600).mint(), s.at(7199).mint());
    }

    #[test]
    fn overlap_window_bounds_accepted_keys() {
        let s = TicketKeySchedule::rotating(9, 100, 2);
        // Epoch 5: keys for epochs 5, 4, 3 accepted — newest first.
        let keys = accepted(s, 510);
        assert_eq!(
            keys,
            vec![s.key_for_epoch(5), s.key_for_epoch(4), s.key_for_epoch(3)]
        );
        // A ticket minted in epoch 2 no longer opens in epoch 5…
        let old = mint_ticket(s.key_for_epoch(2), &[0x33; 32]);
        assert!(keys.iter().all(|k| open_ticket(*k, &old).is_none()));
        // …but one from epoch 3 (inside the overlap) still does.
        let ok = mint_ticket(s.key_for_epoch(3), &[0x33; 32]);
        assert!(keys.iter().any(|k| open_ticket(*k, &ok).is_some()));
        // Near t=0 the window clips at epoch 0 without underflow.
        assert_eq!(accepted(s, 50), vec![s.key_for_epoch(0)]);
    }

    #[test]
    fn schedule_is_a_pure_function_of_base_key() {
        let a = TicketKeySchedule::rotating(1234, 60, 3);
        let b = TicketKeySchedule::rotating(1234, 60, 3);
        assert_eq!(accepted(a, 100_000), accepted(b, 100_000));
        let c = TicketKeySchedule::rotating(1235, 60, 3);
        assert_ne!(a.at(100_000).mint(), c.at(100_000).mint());
    }

    #[test]
    fn resumption_presets() {
        let acc = ServerResumption::accepting(7200);
        assert!(acc.issue_tickets && acc.accept_resumption && acc.accept_early_data);
        assert!(acc.advertise_early_data);
        let rej = ServerResumption::rejecting_early_data(7200);
        assert!(rej.issue_tickets && rej.accept_resumption && !rej.accept_early_data);
        // Advertise-then-reject: the mismatch that exercises the 0-RTT
        // reject/retransmit path with an RFC-legal client offer.
        assert!(rej.advertise_early_data);
        let off = ServerResumption::default();
        assert!(!off.issue_tickets && !off.accept_resumption && !off.advertise_early_data);
    }
}
