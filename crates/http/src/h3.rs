//! HTTP/3 subset (RFC 9114): control streams, SETTINGS, HEADERS, DATA.
//!
//! Header blocks are literal `name: value` text instead of QPACK; the
//! paper's HTTP/3 observable is the *timing* of the first SETTINGS STREAM
//! frame and the response DATA frames, which this preserves.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rq_wire::VarInt;

/// Unidirectional stream types (RFC 9114 §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamType {
    /// Control stream (0x00).
    Control,
    /// QPACK encoder (0x02) — opened but unused here.
    QpackEncoder,
    /// QPACK decoder (0x03) — opened but unused here.
    QpackDecoder,
}

impl StreamType {
    /// Wire code.
    pub fn code(self) -> u64 {
        match self {
            StreamType::Control => 0x00,
            StreamType::QpackEncoder => 0x02,
            StreamType::QpackDecoder => 0x03,
        }
    }

    /// Parses a wire code.
    pub fn from_code(v: u64) -> Option<Self> {
        Some(match v {
            0x00 => StreamType::Control,
            0x02 => StreamType::QpackEncoder,
            0x03 => StreamType::QpackDecoder,
            _ => return None,
        })
    }
}

/// The fixed SETTINGS payload our server advertises (three standard
/// identifiers, mirroring quic-go's defaults).
const SETTINGS_PAYLOAD: &[u8] = &[
    0x01, 0x40, 0x64, // QPACK_MAX_TABLE_CAPACITY = 100
    0x07, 0x40, 0x64, // QPACK_BLOCKED_STREAMS = 100
    0x33, 0x01, // H3_DATAGRAM-ish filler = 1
];

/// HTTP/3 frames (RFC 9114 §7.2 subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum H3Frame {
    /// DATA (0x00).
    Data {
        /// Payload bytes.
        payload: Bytes,
    },
    /// HEADERS (0x01), literal text block.
    Headers {
        /// `name: value` lines joined by `\n`.
        block: String,
    },
    /// SETTINGS (0x04), opaque payload.
    Settings {
        /// Raw settings bytes.
        payload: Bytes,
    },
}

impl H3Frame {
    fn type_id(&self) -> u64 {
        match self {
            H3Frame::Data { .. } => DATA_TYPE,
            H3Frame::Headers { .. } => 0x01,
            H3Frame::Settings { .. } => 0x04,
        }
    }

    fn payload(&self) -> &[u8] {
        match self {
            H3Frame::Data { payload } | H3Frame::Settings { payload } => payload,
            H3Frame::Headers { block } => block.as_bytes(),
        }
    }

    /// Serializes type + length + payload.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        let payload = self.payload();
        put_frame_header(buf, self.type_id(), payload.len());
        buf.put_slice(payload);
    }

    /// Serialized length.
    pub fn encoded_len(&self) -> usize {
        let payload_len = self.payload().len();
        frame_header_len(self.type_id(), payload_len) + payload_len
    }

    /// Decodes one frame if complete; consumes nothing otherwise.
    pub fn decode(buf: &mut Bytes) -> Option<H3Frame> {
        let mut peek = buf.clone();
        let ty = VarInt::decode(&mut peek).ok()?.value();
        let len = VarInt::decode(&mut peek).ok()?.value() as usize;
        if peek.remaining() < len {
            return None;
        }
        let payload = peek.copy_to_bytes(len);
        *buf = peek;
        Some(match ty {
            0x00 => H3Frame::Data { payload },
            0x01 => H3Frame::Headers {
                block: String::from_utf8_lossy(&payload).into_owned(),
            },
            0x04 => H3Frame::Settings { payload },
            // Unknown frame types are skipped per RFC 9114 §9.
            _ => return H3Frame::decode(buf),
        })
    }
}

/// Type of a DATA frame (RFC 9114 §7.2.1).
const DATA_TYPE: u64 = 0x00;

/// Writes a frame's type and the length of the payload that follows.
fn put_frame_header<B: BufMut>(buf: &mut B, type_id: u64, payload_len: usize) {
    VarInt::new(type_id).unwrap().encode(buf);
    VarInt::new(payload_len as u64).unwrap().encode(buf);
}

fn frame_header_len(type_id: u64, payload_len: usize) -> usize {
    VarInt::new(type_id).unwrap().encoded_len()
        + VarInt::new(payload_len as u64).unwrap().encoded_len()
}

/// Builds the bytes a server writes at the head of its control stream:
/// the stream type then SETTINGS.
pub fn control_stream_prelude() -> Vec<u8> {
    let mut out = BytesMut::new();
    VarInt::new(StreamType::Control.code())
        .unwrap()
        .encode(&mut out);
    H3Frame::Settings {
        payload: Bytes::from_static(SETTINGS_PAYLOAD),
    }
    .encode(&mut out);
    out.to_vec()
}

/// Builds an HTTP/3 GET request (HEADERS frame) for `path`, written in
/// place in shared storage of its size — ready to be handed to a stream.
pub fn request_bytes(path: &str, host: &str) -> Bytes {
    let block = format!(
        ":method: GET\n:scheme: https\n:authority: {host}\n:path: {path}\nuser-agent: reacked-quicer/0.1"
    );
    let headers = H3Frame::Headers { block };
    Bytes::build(headers.encoded_len(), |mut out| headers.encode(&mut out))
}

/// Builds an HTTP/3 response: HEADERS then one DATA frame of `body_len`
/// deterministic bytes, headers, frame header and body written in place
/// in the shared storage that is returned — ready to be handed to a
/// stream, and to the next one as a clone.
pub fn response_bytes(body_len: usize) -> Bytes {
    let headers = H3Frame::Headers {
        block: format!(":status: 200\ncontent-length: {body_len}"),
    };
    let len = headers.encoded_len() + frame_header_len(DATA_TYPE, body_len) + body_len;
    Bytes::build(len, |mut out| {
        headers.encode(&mut out);
        put_frame_header(&mut out, DATA_TYPE, body_len);
        crate::h1::fill_body(out);
    })
}

/// Extracts the `:path` pseudo-header from a request stream's bytes.
pub fn parse_request_path(data: &[u8]) -> Option<String> {
    let mut buf = Bytes::copy_from_slice(data);
    while let Some(frame) = H3Frame::decode(&mut buf) {
        if let H3Frame::Headers { block } = frame {
            for line in block.lines() {
                if let Some(p) = line.strip_prefix(":path: ") {
                    return Some(p.to_string());
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        for frame in [
            H3Frame::Data {
                payload: Bytes::from_static(b"hello"),
            },
            H3Frame::Headers {
                block: ":status: 200".into(),
            },
            H3Frame::Settings {
                payload: Bytes::from_static(SETTINGS_PAYLOAD),
            },
        ] {
            let mut buf = BytesMut::new();
            frame.encode(&mut buf);
            assert_eq!(buf.len(), frame.encoded_len());
            let mut bytes = buf.freeze();
            assert_eq!(H3Frame::decode(&mut bytes), Some(frame));
            assert!(bytes.is_empty());
        }
    }

    #[test]
    fn partial_frame_not_consumed() {
        let frame = H3Frame::Data {
            payload: Bytes::from(vec![1u8; 100]),
        };
        let mut buf = BytesMut::new();
        frame.encode(&mut buf);
        let mut partial = Bytes::copy_from_slice(&buf[..50]);
        assert_eq!(H3Frame::decode(&mut partial), None);
        assert_eq!(partial.len(), 50);
    }

    #[test]
    fn control_prelude_starts_with_stream_type() {
        let p = control_stream_prelude();
        assert_eq!(p[0], 0x00);
        let mut rest = Bytes::copy_from_slice(&p[1..]);
        match H3Frame::decode(&mut rest).unwrap() {
            H3Frame::Settings { payload } => assert_eq!(&payload[..], SETTINGS_PAYLOAD),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn request_path_extraction() {
        let req = request_bytes("/10240", "example.org");
        assert_eq!(parse_request_path(&req).unwrap(), "/10240");
    }

    #[test]
    fn response_is_a_headers_frame_then_one_data_frame() {
        for len in [0, 1, 63, 64, 10_240, 16_383, 16_384, 70_000] {
            let mut expected = BytesMut::new();
            H3Frame::Headers {
                block: format!(":status: 200\ncontent-length: {len}"),
            }
            .encode(&mut expected);
            H3Frame::Data {
                payload: Bytes::from(crate::h1::body_bytes(len)),
            }
            .encode(&mut expected);
            assert_eq!(response_bytes(len), expected.to_vec(), "{len}");
        }
    }

    #[test]
    fn response_carries_body() {
        let mut buf = response_bytes(64);
        let headers = H3Frame::decode(&mut buf).unwrap();
        assert!(matches!(headers, H3Frame::Headers { .. }));
        match H3Frame::decode(&mut buf).unwrap() {
            H3Frame::Data { payload } => assert_eq!(payload.len(), 64),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_frame_types_skipped() {
        let mut buf = BytesMut::new();
        // GOAWAY (0x07) with 1-byte payload, then DATA.
        VarInt::new(0x07).unwrap().encode(&mut buf);
        VarInt::new(1).unwrap().encode(&mut buf);
        buf.put_u8(0);
        H3Frame::Data {
            payload: Bytes::from_static(b"x"),
        }
        .encode(&mut buf);
        let mut bytes = buf.freeze();
        match H3Frame::decode(&mut bytes).unwrap() {
            H3Frame::Data { payload } => assert_eq!(&payload[..], b"x"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stream_type_codes() {
        assert_eq!(StreamType::from_code(0x00), Some(StreamType::Control));
        assert_eq!(StreamType::from_code(0x99), None);
    }
}
