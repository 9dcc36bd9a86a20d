//! The wire decoders run over two cursors: `&[u8]`, which copies payloads
//! out, and `Bytes`, which hands out views of the datagram (the path every
//! received datagram takes). [`assert_decode_parity`] holds the two equal
//! on any input.

use rq_wire::{Bytes, Frame, Header, PlainPacket};

/// Decodes `data` over `&[u8]` and over `Bytes` and holds the two equal
/// at every step: the header, then the frames behind it; the whole input
/// as a run of frames; and the input as a datagram, packet by packet,
/// where each packet's payload view must be the wire bytes between its
/// packet number and its tag.
pub fn assert_decode_parity(data: &[u8]) {
    let shared = Bytes::copy_from_slice(data);

    let (mut slice, mut bytes) = (data, shared.clone());
    assert_eq!(Header::decode(&mut slice, 8), Header::decode(&mut bytes, 8));
    assert_eq!(slice, &bytes[..]);
    assert_frame_run_parity(slice, bytes);
    assert_frame_run_parity(data, shared.clone());

    let (mut slice, mut bytes) = (data, shared);
    while !slice.is_empty() {
        let a = PlainPacket::decode(slice, 8);
        let b = PlainPacket::decode_with_payload(&bytes, 8);
        assert_eq!(a, b.clone().map(|(pkt, _, tag, used)| (pkt, tag, used)));
        let Ok((_, payload, _, used)) = b else {
            break;
        };
        if !payload.is_empty() {
            assert_eq!(payload, slice[used - 16 - payload.len()..used - 16]);
        }
        slice = &slice[used..];
        bytes = bytes.slice(used..);
    }
}

/// Frames until one fails or the bytes run out, both cursors in step.
fn assert_frame_run_parity(mut slice: &[u8], mut bytes: Bytes) {
    loop {
        let (a, b) = (Frame::decode(&mut slice), Frame::decode(&mut bytes));
        assert_eq!(a, b);
        assert_eq!(slice, &bytes[..]);
        if a.is_err() || slice.is_empty() {
            break;
        }
    }
}
