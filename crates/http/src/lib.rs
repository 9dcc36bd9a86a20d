//! Minimal HTTP/1.1 and HTTP/3 layers over QUIC streams.
//!
//! The paper measures both HTTP/1.1-over-QUIC and HTTP/3 (Figure 5 caption:
//! HTTP/3's TTFB is one RTT lower because the first STREAM frame a client
//! receives is the server's control-stream SETTINGS, sent right after the
//! handshake completes, whereas HTTP/1.1's first stream byte is the
//! response itself). This crate implements exactly enough of both:
//!
//! * HTTP/1.1: textual request/response with `Content-Length` framing on
//!   the client's first bidirectional stream.
//! * HTTP/3 (RFC 9114 subset): unidirectional control streams carrying
//!   SETTINGS, and HEADERS/DATA frames on request streams. Header blocks
//!   are literal text rather than QPACK — the paper's metrics depend on
//!   frame timing and sizes, not on header compression (see
//!   "Substitutions" in the root `README.md`).

#![forbid(unsafe_code)]

pub mod h1;
pub mod h3;

pub use h1::{H1Request, H1Response};
pub use h3::{H3Frame, StreamType, SETTINGS_PAYLOAD};

/// Which HTTP flavour a testbed run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HttpVersion {
    /// HTTP/1.1 over a QUIC bidirectional stream.
    H1,
    /// HTTP/3.
    H3,
}

impl HttpVersion {
    /// Display label ("http/1.1" / "http/3").
    pub fn label(&self) -> &'static str {
        match self {
            HttpVersion::H1 => "http/1.1",
            HttpVersion::H3 => "http/3",
        }
    }
}
