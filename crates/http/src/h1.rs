//! HTTP/1.1 over QUIC streams.

use std::io::Write;

use bytes::{BufMut, Bytes};

/// A parsed (or to-be-serialized) HTTP/1.1 GET request: views of the
/// strings it is made from, or of the bytes it was parsed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct H1Request<'a> {
    /// Request path, e.g. `/10240`.
    pub path: &'a str,
    /// Host header value.
    pub host: &'a str,
}

impl<'a> H1Request<'a> {
    /// Builds a GET request.
    pub fn get(path: &'a str, host: &'a str) -> Self {
        H1Request { path, host }
    }

    /// The pieces the serialized request is made of, in order.
    fn parts(&self) -> [&str; 5] {
        [
            "GET ",
            self.path,
            " HTTP/1.1\r\nHost: ",
            self.host,
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

    /// Parses a request from bytes, without copying them; `None` until
    /// the blank line arrives.
    pub fn decode(data: &'a [u8]) -> Option<H1Request<'a>> {
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
        let path = parts.next()?;
        let mut host = "";
        for line in lines {
            if let Some(h) = line.strip_prefix("Host: ") {
                host = h;
            }
        }
        Some(H1Request { path, host })
    }
}

/// A response header block's fixed text, around the status code and the
/// body length.
const HEADER_TEXT: [&str; 3] = [
    "HTTP/1.1 ",
    " OK\r\nServer: reacked-quicer/0.1\r\nContent-Length: ",
    "\r\n\r\n",
];

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

    /// Length of the header block: its fixed text and the digits of the
    /// two numbers in it.
    pub(crate) fn header_len(&self) -> usize {
        let text: usize = HEADER_TEXT.iter().map(|t| t.len()).sum();
        text + decimal_len(self.status.into()) + decimal_len(self.body_len)
    }

    /// Writes the header block over `out`, which is
    /// [`H1Response::header_len`] bytes long.
    pub(crate) fn write_header(&self, mut out: &mut [u8]) {
        let [status_line, length_header, end] = HEADER_TEXT;
        write!(
            out,
            "{status_line}{}{length_header}{}{end}",
            self.status, self.body_len
        )
        .expect("the header fits the length counted for it");
        debug_assert!(out.is_empty(), "the header fills the length counted for it");
    }

    /// Full response: headers followed by a deterministic body, both
    /// written in place in shared storage of the response's size — ready
    /// to be handed to a stream, and to the next one as a clone.
    pub fn to_bytes(&self) -> Bytes {
        let header_len = self.header_len();
        Bytes::build(header_len + self.body_len, |out| {
            let (header, body) = out.split_at_mut(header_len);
            self.write_header(header);
            fill_body(body);
        })
    }

    /// [`H1Response::to_bytes`] for a caller that wants a `Vec`: copies
    /// the response once.
    pub fn encode(&self) -> Vec<u8> {
        self.to_bytes().to_vec()
    }
}

/// Digits in `n` written in decimal.
pub(crate) fn decimal_len(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// The body generator: byte `n` is the top byte of the `n + 1`-th state
/// of the LCG `x ← A·x + C (mod 2³²)` from `BODY_SEED`.
const BODY_SEED: u32 = 0x9E37_79B9;
const A: u32 = 1_664_525;
const C: u32 = 1_013_904_223;
/// Bytes generated side by side: lane `i` produces bytes `i`, `i + 4`,
/// `i + 8`, …, so four multiply chains overlap where the serial LCG
/// waits on each product. (Four chains keep the multiplier busy; sixteen
/// do not fit the registers on baseline x86-64, which has no vector
/// 32-bit multiply, and ran slower than the serial loop.)
const LANES: usize = 4;
/// `LANES` steps of the LCG as one: `x ← A⁴·x + C₄`.
const JUMP: (u32, u32) = {
    let (mut a, mut c, mut i) = (1u32, 0u32, 0);
    while i < LANES {
        a = a.wrapping_mul(A);
        c = c.wrapping_mul(A).wrapping_add(C);
        i += 1;
    }
    (a, c)
};

/// Writes the first `out.len()` bytes of the deterministic pseudo-random
/// body (it stands in for the paper's "randomly generated files") over
/// `out`, so an encoder generates the body where the response is being
/// built: the serial LCG's bytes, `LANES` at a time.
pub fn fill_body(out: &mut [u8]) {
    let mut lanes = [0u32; LANES];
    let mut x = BODY_SEED;
    for lane in &mut lanes {
        x = x.wrapping_mul(A).wrapping_add(C);
        *lane = x;
    }
    let mut chunks = out.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        chunk.copy_from_slice(&lanes.map(|x| (x >> 24) as u8));
        lanes = lanes.map(|x| x.wrapping_mul(JUMP.0).wrapping_add(JUMP.1));
    }
    for (byte, lane) in chunks.into_remainder().iter_mut().zip(&lanes) {
        *byte = (*lane >> 24) as u8;
    }
}

/// The first `len` bytes of the body, for tests to compare against.
#[cfg(test)]
pub(crate) fn body_bytes(len: usize) -> Vec<u8> {
    let mut out = vec![0; len];
    fill_body(&mut out);
    out
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
        let bytes = H1Response::ok(10_240).encode();
        let header_len = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        let header = std::str::from_utf8(&bytes[..header_len]).unwrap();
        assert!(header.starts_with("HTTP/1.1 200 OK\r\n"), "{header}");
        assert!(header.contains("\r\nContent-Length: 10240\r\n"), "{header}");
        assert_eq!(bytes.len() - header_len, 10_240);
    }

    #[test]
    fn response_is_its_header_block_then_the_body() {
        for len in [0, 1, 9, 10, 99, 100, 10_240, 70_000, 1 << 20] {
            let resp = H1Response::ok(len);
            let mut expected = format!(
                "HTTP/1.1 200 OK\r\nServer: reacked-quicer/0.1\r\nContent-Length: {len}\r\n\r\n"
            )
            .into_bytes();
            expected.extend(body_bytes(len));
            assert_eq!(resp.encode(), expected, "{len}");
            assert_eq!(resp.to_bytes(), expected, "{len}");
        }
    }

    /// The generator one byte at a time, as the body was first defined.
    fn serial_body(len: usize) -> Vec<u8> {
        let mut x: u32 = 0x9E37_79B9;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn body_is_the_serial_generators_bytes() {
        for len in (0..=300).chain([10_240, 5 << 20]) {
            assert_eq!(body_bytes(len), serial_body(len), "{len}");
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
