//! Simulated TLS 1.3 for the ReACKed-QUICer reproduction.
//!
//! Implements the *shape* of the QUIC-TLS handshake — message framing and
//! byte-accurate sizes, per-level key availability, a server-side pause
//! while the certificate is fetched from the store — without cryptographic
//! strength (see "Substitutions" in the root `README.md` for the
//! rationale). The paper's effects under study are timing effects of
//! message sizes and key availability, both of which this crate preserves
//! exactly.

#![forbid(unsafe_code)]

pub mod keys;
pub mod mac;
pub mod messages;
pub mod resumption;
pub mod session;
pub mod sha256;

pub use keys::{
    application_keys, early_keys, handshake_keys, initial_keys, resumption_secret, seal_tag,
    verify_tag, KeySide, Level, LevelKeys,
};
pub use messages::{HandshakeMessage, HandshakeType, CERT_LARGE, CERT_SMALL};
pub use resumption::{
    mint_ticket, open_ticket, ServerResumption, SessionTicket, TICKET_KEY, TICKET_LEN,
};
pub use session::{ClientConfig, Role, ServerConfig, TlsEvent, TlsEvents, TlsSession};

/// Errors raised by the TLS layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsError {
    /// A handshake message with an unknown type code.
    UnknownMessage(u8),
    /// A message arrived that the state machine cannot accept.
    UnexpectedMessage(&'static str),
}

impl std::fmt::Display for TlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlsError::UnknownMessage(c) => write!(f, "unknown handshake message type {c}"),
            TlsError::UnexpectedMessage(m) => write!(f, "unexpected handshake message: {m}"),
        }
    }
}

impl std::error::Error for TlsError {}
