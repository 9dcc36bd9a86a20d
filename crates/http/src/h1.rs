//! HTTP/1.1 over QUIC streams.

use bytes::{BufMut, Bytes};

/// A parsed (or to-be-serialized) HTTP/1.1 GET request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct H1Request {
    /// Request path, e.g. `/10240`.
    pub path: String,
    /// Host header value.
    pub host: String,
}

impl H1Request {
    /// Builds a GET request.
    pub fn get(path: &str, host: &str) -> Self {
        H1Request {
            path: path.into(),
            host: host.into(),
        }
    }

    /// The pieces the serialized request is made of, in order.
    fn parts(&self) -> [&str; 5] {
        [
            "GET ",
            &self.path,
            " HTTP/1.1\r\nHost: ",
            &self.host,
            "\r\nUser-Agent: reacked-quicer/0.1\r\n\r\n",
        ]
    }

    /// Serializes the request.
    pub fn encode(&self) -> Vec<u8> {
        self.parts().concat().into_bytes()
    }

    /// Serializes the request in place in shared storage of its size —
    /// ready to be handed to a stream.
    pub fn to_bytes(&self) -> Bytes {
        let parts = self.parts();
        Bytes::build(parts.iter().map(|p| p.len()).sum(), |mut out| {
            parts.iter().for_each(|p| out.put_slice(p.as_bytes()));
        })
    }

    /// Parses a request from bytes; `None` until the blank line arrives.
    pub fn decode(data: &[u8]) -> Option<H1Request> {
        let text = std::str::from_utf8(data).ok()?;
        if !text.contains("\r\n\r\n") {
            return None;
        }
        let mut lines = text.split("\r\n");
        let request_line = lines.next()?;
        let mut parts = request_line.split(' ');
        let method = parts.next()?;
        if method != "GET" {
            return None;
        }
        let path = parts.next()?.to_string();
        let mut host = String::new();
        for line in lines {
            if let Some(h) = line.strip_prefix("Host: ") {
                host = h.to_string();
            }
        }
        Some(H1Request { path, host })
    }
}

/// An HTTP/1.1 response with an opaque body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct H1Response {
    /// Status code.
    pub status: u16,
    /// Body length.
    pub body_len: usize,
}

impl H1Response {
    /// Builds a 200 response carrying `body_len` bytes.
    pub fn ok(body_len: usize) -> Self {
        H1Response {
            status: 200,
            body_len,
        }
    }

    /// Serialized header block (before the body).
    pub fn header_bytes(&self) -> Vec<u8> {
        format!(
            "HTTP/1.1 {} OK\r\nServer: reacked-quicer/0.1\r\nContent-Length: {}\r\n\r\n",
            self.status, self.body_len
        )
        .into_bytes()
    }

    /// Full response: headers followed by a deterministic body, built
    /// in place in shared storage of the response's size — ready to be
    /// handed to a stream, and to the next one as a clone.
    pub fn to_bytes(&self) -> Bytes {
        let header = self.header_bytes();
        Bytes::build(header.len() + self.body_len, |mut out| {
            out.put_slice(&header);
            fill_body(out);
        })
    }

    /// [`H1Response::to_bytes`] for a caller that wants a `Vec`: copies
    /// the response once.
    pub fn encode(&self) -> Vec<u8> {
        self.to_bytes().to_vec()
    }

    /// Parses the status line and Content-Length from a response prefix.
    /// Returns `(response, header_len)` once the header block is complete.
    pub fn decode_header(data: &[u8]) -> Option<(H1Response, usize)> {
        // Locate the header/body boundary on raw bytes first — the body is
        // binary and need not be valid UTF-8.
        let window = &data[..data.len().min(1024)];
        let header_end = window.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
        let text = std::str::from_utf8(&window[..header_end]).ok()?;
        let mut status = 0u16;
        let mut body_len = 0usize;
        for (i, line) in text[..header_end].split("\r\n").enumerate() {
            if i == 0 {
                status = line.split(' ').nth(1)?.parse().ok()?;
            } else if let Some(v) = line.strip_prefix("Content-Length: ") {
                body_len = v.parse().ok()?;
            }
        }
        Some((H1Response { status, body_len }, header_end))
    }
}

/// Deterministic pseudo-random body content of `len` bytes (stands in for
/// the paper's "randomly generated files").
pub fn body_bytes(len: usize) -> Vec<u8> {
    let mut out = vec![0; len];
    fill_body(&mut out);
    out
}

/// Writes the `out.len()` bytes of [`body_bytes`] over `out`, so an
/// encoder generates the body where the response is being built.
pub fn fill_body(out: &mut [u8]) {
    let mut x: u32 = 0x9E37_79B9;
    for byte in out {
        x = x.wrapping_mul(1664525).wrapping_add(1013904223);
        *byte = (x >> 24) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = H1Request::get("/10240", "example.org");
        let bytes = req.encode();
        assert_eq!(
            bytes,
            b"GET /10240 HTTP/1.1\r\nHost: example.org\r\nUser-Agent: reacked-quicer/0.1\r\n\r\n"
        );
        assert_eq!(req.to_bytes(), bytes[..]);
        let parsed = H1Request::decode(&bytes).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn request_incomplete_returns_none() {
        let req = H1Request::get("/x", "h");
        let bytes = req.encode();
        assert_eq!(H1Request::decode(&bytes[..bytes.len() - 2]), None);
    }

    #[test]
    fn response_roundtrip() {
        let resp = H1Response::ok(10_240);
        let bytes = resp.encode();
        let (parsed, header_len) = H1Response::decode_header(&bytes).unwrap();
        assert_eq!(parsed, resp);
        assert_eq!(bytes.len() - header_len, 10_240);
    }

    #[test]
    fn response_is_its_header_block_then_the_body() {
        for len in [0, 1, 100, 10_240, 70_000] {
            let resp = H1Response::ok(len);
            let mut expected = resp.header_bytes();
            expected.extend(body_bytes(len));
            assert_eq!(resp.encode(), expected, "{len}");
            assert_eq!(resp.to_bytes(), expected, "{len}");
        }
    }

    #[test]
    fn body_deterministic() {
        assert_eq!(body_bytes(100), body_bytes(100));
        assert_ne!(body_bytes(100)[..50], body_bytes(100)[50..]);
    }

    #[test]
    fn non_get_rejected() {
        assert_eq!(H1Request::decode(b"POST / HTTP/1.1\r\n\r\n"), None);
    }
}
