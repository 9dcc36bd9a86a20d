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
pub use h3::{H3Frame, StreamType};

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

    /// Length of what a response of `body_len` body bytes carries before
    /// its body: the HTTP/1.1 header block, or the HTTP/3 HEADERS frame
    /// and the DATA frame's header. It never shrinks as `body_len` grows.
    pub fn response_header_len(self, body_len: usize) -> usize {
        match self {
            HttpVersion::H1 => H1Response::ok(body_len).header_len(),
            HttpVersion::H3 => h3::response_header_len(body_len),
        }
    }

    /// Writes what a response of `body_len` body bytes carries before its
    /// body over `out`, which is [`HttpVersion::response_header_len`]
    /// bytes long. The body that follows is [`h1::fill_body`]'s bytes:
    /// [`H1Response::to_bytes`] and [`h3::response_bytes`] are the two
    /// written one after the other.
    pub fn write_response_header(self, body_len: usize, out: &mut [u8]) {
        match self {
            HttpVersion::H1 => H1Response::ok(body_len).write_header(out),
            HttpVersion::H3 => h3::write_response_header(out, body_len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_response_is_its_header_then_the_body() {
        // Decimal-digit and varint-length boundaries on either side.
        let lens = [
            0,
            1,
            9,
            10,
            63,
            64,
            99,
            100,
            16_383,
            16_384,
            70_000,
            1 << 20,
        ];
        for http in [HttpVersion::H1, HttpVersion::H3] {
            let mut shortest = 0;
            for len in lens {
                let header_len = http.response_header_len(len);
                assert!(header_len >= shortest, "{http:?} {len}: the header shrank");
                shortest = header_len;
                let mut written = vec![0; header_len];
                http.write_response_header(len, &mut written);
                written.extend(h1::body_bytes(len));
                let whole = match http {
                    HttpVersion::H1 => H1Response::ok(len).to_bytes(),
                    HttpVersion::H3 => h3::response_bytes(len),
                };
                assert_eq!(whole, written, "{http:?} {len}");
            }
        }
    }
}
