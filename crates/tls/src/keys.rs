//! Toy QUIC-TLS key schedule and packet protection.
//!
//! Mirrors the *structure* of RFC 9001: per-space secrets derived from a
//! running transcript, separate client/server keys, and Initial secrets
//! derived from the client's destination connection ID so both sides can
//! protect Initial packets before any TLS exchange. Strength is not a goal
//! (see "Substitutions" in the root `README.md`); timing and availability
//! are.

use crate::mac::{mac, DIGEST_LEN};

/// Fixed salt for Initial secrets (stands in for RFC 9001's version salt).
const INITIAL_SALT: &[u8] = b"reacked-quicer-v1-initial-salt";

/// HKDF-Extract's place (RFC 5869): a secret from a salt and input keying
/// material.
fn extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    mac(&[0; DIGEST_LEN], &[salt, ikm])
}

/// HKDF-Expand-Label's place: one labelled 32-byte key from a secret.
fn expand(secret: &[u8; DIGEST_LEN], label: &str) -> [u8; DIGEST_LEN] {
    mac(secret, &[label.as_bytes()])
}

/// Encryption level / packet number space from TLS's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Initial keys (derived from the client DCID).
    Initial,
    /// Handshake keys (after ServerHello).
    Handshake,
    /// Application (1-RTT) keys (after server Finished is sent/received).
    Application,
}

/// The two key directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySide {
    /// Keys used to protect client-to-server packets.
    Client,
    /// Keys used to protect server-to-client packets.
    Server,
}

/// Key material for one level: one key per direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelKeys {
    /// Protects client→server packets.
    pub client: [u8; DIGEST_LEN],
    /// Protects server→client packets.
    pub server: [u8; DIGEST_LEN],
}

impl LevelKeys {
    /// Key for packets sent by `side`.
    pub fn for_side(&self, side: KeySide) -> &[u8; DIGEST_LEN] {
        match side {
            KeySide::Client => &self.client,
            KeySide::Server => &self.server,
        }
    }
}

/// Derives Initial keys from the client's first destination connection ID
/// (RFC 9001 §5.2 analog). Both endpoints compute identical values.
pub fn initial_keys(client_dcid: &[u8]) -> LevelKeys {
    let secret = extract(INITIAL_SALT, client_dcid);
    LevelKeys {
        client: expand(&secret, "client in"),
        server: expand(&secret, "server in"),
    }
}

/// Derives Handshake keys from the CH..SH transcript hash.
pub fn handshake_keys(transcript_hash: &[u8; DIGEST_LEN]) -> LevelKeys {
    let secret = extract(b"hs derived", transcript_hash);
    LevelKeys {
        client: expand(&secret, "c hs traffic"),
        server: expand(&secret, "s hs traffic"),
    }
}

/// Derives Application keys from the CH..server-Finished transcript hash.
pub fn application_keys(transcript_hash: &[u8; DIGEST_LEN]) -> LevelKeys {
    let secret = extract(b"ap derived", transcript_hash);
    LevelKeys {
        client: expand(&secret, "c ap traffic"),
        server: expand(&secret, "s ap traffic"),
    }
}

/// Derives the resumption secret from the full-handshake transcript hash
/// including the client Finished (RFC 8446's `resumption_master_secret`
/// analog). Both endpoints compute the same value, which is what lets a
/// later abbreviated handshake share keys without a certificate flight.
pub fn resumption_secret(transcript_hash: &[u8; DIGEST_LEN]) -> [u8; DIGEST_LEN] {
    let secret = extract(b"res derived", transcript_hash);
    expand(&secret, "res master")
}

/// Derives 0-RTT (early data) keys from a resumption secret. The client
/// computes them from its cached ticket before the first flight; the
/// server after validating the ticket in the ClientHello — so 0-RTT
/// packets are protected before any handshake byte returns.
pub fn early_keys(resumption_secret: &[u8; DIGEST_LEN]) -> LevelKeys {
    let secret = extract(b"early derived", resumption_secret);
    LevelKeys {
        client: expand(&secret, "c e traffic"),
        server: expand(&secret, "s e traffic"),
    }
}

/// AEAD-like tag length (matches the wire crate's `AEAD_TAG_LEN`).
const TAG_LEN: usize = 16;

/// Computes the 16-byte authentication tag for a packet: the keyed hash
/// of packet number and payload under the direction key, truncated.
pub fn seal_tag(key: &[u8; DIGEST_LEN], pn: u64, payload: &[u8]) -> [u8; TAG_LEN] {
    let full = mac(key, &[&pn.to_be_bytes(), payload]);
    let mut tag = [0u8; TAG_LEN];
    tag.copy_from_slice(&full[..TAG_LEN]);
    tag
}

/// Verifies a packet tag. Constant-time comparison is unnecessary in a
/// simulation but costs nothing.
pub fn verify_tag(key: &[u8; DIGEST_LEN], pn: u64, payload: &[u8], tag: &[u8; TAG_LEN]) -> bool {
    let expect = seal_tag(key, pn, payload);
    expect
        .iter()
        .zip(tag.iter())
        .fold(0u8, |acc, (a, b)| acc | (a ^ b))
        == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    use rq_testkit::prop::cases;

    #[test]
    fn initial_keys_agree_between_endpoints() {
        let dcid = [7u8; 8];
        assert_eq!(initial_keys(&dcid), initial_keys(&dcid));
    }

    #[test]
    fn initial_keys_depend_on_dcid() {
        assert_ne!(initial_keys(&[1u8; 8]), initial_keys(&[2u8; 8]));
    }

    #[test]
    fn client_and_server_directions_differ() {
        let k = initial_keys(&[3u8; 8]);
        assert_ne!(k.client, k.server);
        assert_eq!(k.for_side(KeySide::Client), &k.client);
        assert_eq!(k.for_side(KeySide::Server), &k.server);
    }

    #[test]
    fn levels_differ_for_same_transcript() {
        let th = [9u8; 32];
        assert_ne!(handshake_keys(&th), application_keys(&th));
    }

    #[test]
    fn resumption_and_early_keys_are_deterministic_and_distinct() {
        let th = [7u8; 32];
        let res = resumption_secret(&th);
        assert_eq!(res, resumption_secret(&th));
        assert_ne!(res, resumption_secret(&[8u8; 32]));
        let early = early_keys(&res);
        assert_eq!(early, early_keys(&res));
        assert_ne!(early, handshake_keys(&th));
        assert_ne!(early, application_keys(&th));
        assert_ne!(early.client, early.server);
    }

    /// A tag verifies under the key, packet number and payload it was
    /// sealed with, and under nothing else: not after any single-bit flip
    /// or any truncation of the payload, not under the other direction's
    /// key or another level's, and not at pn ± 1.
    #[test]
    fn seal_and_verify_roundtrip() {
        cases(32, |rng| {
            let th = extract(b"test", &rng.next_u64().to_be_bytes());
            let dcid = rng.next_u64().to_be_bytes();
            let levels = [
                initial_keys(&dcid),
                handshake_keys(&th),
                application_keys(&th),
                early_keys(&th),
            ];
            let level = rng.gen_range(levels.len() as u64) as usize;
            let (side, other) = if rng.gen_bool(0.5) {
                (KeySide::Client, KeySide::Server)
            } else {
                (KeySide::Server, KeySide::Client)
            };
            let key = levels[level].for_side(side);
            let pn = rng.gen_range(1 << 62);
            let mut payload: Vec<u8> = (0..rng.gen_range(1201))
                .map(|_| rng.next_u64() as u8)
                .collect();
            let tag = seal_tag(key, pn, &payload);
            assert!(!verify_tag(
                levels[level].for_side(other),
                pn,
                &payload,
                &tag
            ));
            for (l, keys) in levels.iter().enumerate() {
                let verifies = verify_tag(keys.for_side(side), pn, &payload, &tag);
                assert_eq!(verifies, l == level, "level {l}");
            }
            for wrong_pn in [pn.wrapping_sub(1), pn + 1] {
                assert!(!verify_tag(key, wrong_pn, &payload, &tag));
            }
            for len in 0..payload.len() {
                assert!(!verify_tag(key, pn, &payload[..len], &tag), "{len} bytes");
            }
            for bit in 0..payload.len() * 8 {
                payload[bit / 8] ^= 1 << (bit % 8);
                assert!(!verify_tag(key, pn, &payload, &tag), "bit {bit}");
                payload[bit / 8] ^= 1 << (bit % 8);
            }
        });
    }
}
