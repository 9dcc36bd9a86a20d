//! Toy QUIC-TLS key schedule and packet protection.
//!
//! Mirrors the *structure* of RFC 9001: per-space secrets derived from a
//! running transcript, separate client/server keys, and Initial secrets
//! derived from the client's destination connection ID so both sides can
//! protect Initial packets before any TLS exchange. Strength is not a goal
//! (see "Substitutions" in the root `README.md`); timing and availability
//! are.

use crate::sha256::{hkdf_expand_label, hkdf_extract, hmac_sha256_parts, DIGEST_LEN};

/// Fixed salt for Initial secrets (stands in for RFC 9001's version salt).
const INITIAL_SALT: &[u8] = b"reacked-quicer-v1-initial-salt";

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
    let secret = hkdf_extract(INITIAL_SALT, client_dcid);
    LevelKeys {
        client: hkdf_expand_label(&secret, "client in"),
        server: hkdf_expand_label(&secret, "server in"),
    }
}

/// Derives Handshake keys from the CH..SH transcript hash.
pub fn handshake_keys(transcript_hash: &[u8; DIGEST_LEN]) -> LevelKeys {
    let secret = hkdf_extract(b"hs derived", transcript_hash);
    LevelKeys {
        client: hkdf_expand_label(&secret, "c hs traffic"),
        server: hkdf_expand_label(&secret, "s hs traffic"),
    }
}

/// Derives Application keys from the CH..server-Finished transcript hash.
pub fn application_keys(transcript_hash: &[u8; DIGEST_LEN]) -> LevelKeys {
    let secret = hkdf_extract(b"ap derived", transcript_hash);
    LevelKeys {
        client: hkdf_expand_label(&secret, "c ap traffic"),
        server: hkdf_expand_label(&secret, "s ap traffic"),
    }
}

/// Derives the resumption secret from the full-handshake transcript hash
/// including the client Finished (RFC 8446's `resumption_master_secret`
/// analog). Both endpoints compute the same value, which is what lets a
/// later abbreviated handshake share keys without a certificate flight.
pub fn resumption_secret(transcript_hash: &[u8; DIGEST_LEN]) -> [u8; DIGEST_LEN] {
    let secret = hkdf_extract(b"res derived", transcript_hash);
    hkdf_expand_label(&secret, "res master")
}

/// Derives 0-RTT (early data) keys from a resumption secret. The client
/// computes them from its cached ticket before the first flight; the
/// server after validating the ticket in the ClientHello — so 0-RTT
/// packets are protected before any handshake byte returns.
pub fn early_keys(resumption_secret: &[u8; DIGEST_LEN]) -> LevelKeys {
    let secret = hkdf_extract(b"early derived", resumption_secret);
    LevelKeys {
        client: hkdf_expand_label(&secret, "c e traffic"),
        server: hkdf_expand_label(&secret, "s e traffic"),
    }
}

/// AEAD-like tag length (matches the wire crate's `AEAD_TAG_LEN`).
const TAG_LEN: usize = 16;

/// Computes the 16-byte authentication tag for a packet: truncated
/// HMAC over packet number and payload under the direction key.
pub fn seal_tag(key: &[u8; DIGEST_LEN], pn: u64, payload: &[u8]) -> [u8; TAG_LEN] {
    let full = hmac_sha256_parts(key, &[&pn.to_be_bytes(), payload]);
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

    #[test]
    fn seal_and_verify_roundtrip() {
        let k = initial_keys(&[4u8; 8]);
        let tag = seal_tag(&k.client, 5, b"payload");
        assert!(verify_tag(&k.client, 5, b"payload", &tag));
        assert!(!verify_tag(&k.client, 6, b"payload", &tag));
        assert!(!verify_tag(&k.client, 5, b"payloae", &tag));
        assert!(!verify_tag(&k.server, 5, b"payload", &tag));
    }
}
