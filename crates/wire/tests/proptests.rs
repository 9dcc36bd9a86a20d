//! Property-based tests for the QUIC wire format.

use bytes::{Buf, Bytes, BytesMut};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rq_wire::{
    classify_datagram, coalesce::coalesce, AckFrame, ConnectionId, Frame, Header, PlainPacket,
    VarInt, WireError,
};

proptest! {
    /// Every 62-bit value round-trips through the varint codec and uses the
    /// shortest valid encoding length.
    #[test]
    fn varint_roundtrip(v in 0u64..(1 << 62)) {
        let vi = VarInt::new(v).unwrap();
        let mut buf = BytesMut::new();
        vi.encode(&mut buf);
        prop_assert_eq!(buf.len(), vi.encoded_len());
        let mut slice = &buf[..];
        let out = VarInt::decode(&mut slice).unwrap();
        prop_assert_eq!(out.value(), v);
        prop_assert!(slice.is_empty());
    }

    /// ACK frames built from arbitrary packet-number sets reproduce exactly
    /// that set through encode/decode/iterate.
    #[test]
    fn ack_frame_reconstructs_pn_set(pns in pvec(0u64..10_000, 1..50)) {
        let mut sorted: Vec<u64> = pns;
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.dedup();
        let ack = AckFrame::from_sorted_desc(&sorted, 0);
        let frame = Frame::Ack(ack);
        let mut buf = BytesMut::new();
        frame.encode(&mut buf);
        let mut slice = &buf[..];
        let out = Frame::decode(&mut slice).unwrap();
        let decoded = match out {
            Frame::Ack(a) => a.iter_acked().collect::<Vec<u64>>(),
            other => return Err(TestCaseError::fail(format!("decoded {other:?}"))),
        };
        prop_assert_eq!(decoded, sorted);
    }

    /// CRYPTO frames round-trip for arbitrary offsets and payloads.
    #[test]
    fn crypto_frame_roundtrip(offset in 0u64..1_000_000, data in pvec(any::<u8>(), 0..2000)) {
        let f = Frame::Crypto { offset, data: Bytes::from(data) };
        let mut buf = BytesMut::new();
        f.encode(&mut buf);
        prop_assert_eq!(buf.len(), f.encoded_len());
        let mut slice = &buf[..];
        prop_assert_eq!(Frame::decode(&mut slice).unwrap(), f);
    }

    /// STREAM frames round-trip across id/offset/fin combinations.
    #[test]
    fn stream_frame_roundtrip(
        id in 0u64..1000,
        offset in 0u64..1_000_000,
        data in pvec(any::<u8>(), 0..1500),
        fin in any::<bool>(),
    ) {
        let f = Frame::Stream { id, offset, data: Bytes::from(data), fin };
        let mut buf = BytesMut::new();
        f.encode(&mut buf);
        prop_assert_eq!(buf.len(), f.encoded_len());
        let mut slice = &buf[..];
        prop_assert_eq!(Frame::decode(&mut slice).unwrap(), f);
    }

    /// Coalesced datagrams decode to exactly the packets that were encoded,
    /// in order, with sizes summing to the datagram size.
    #[test]
    fn coalesced_datagram_classification(
        crypto_len in 1usize..800,
        hs_len in 1usize..800,
        pn in 0u64..100,
    ) {
        let dcid = ConnectionId::from_u64(0xAA);
        let scid = ConnectionId::from_u64(0xBB);
        let initial = PlainPacket::new(
            Header::initial(dcid, scid, vec![], pn),
            vec![Frame::Crypto { offset: 0, data: Bytes::from(vec![1u8; crypto_len]) }],
        ).unwrap();
        let hs = PlainPacket::new(
            Header::handshake(dcid, scid, pn),
            vec![Frame::Crypto { offset: 0, data: Bytes::from(vec![2u8; hs_len]) }],
        ).unwrap();
        let tag = [0u8; 16];
        let dgram = coalesce(&[(initial, tag), (hs, tag)]);
        let info = classify_datagram(&dgram, 8).unwrap();
        prop_assert_eq!(info.packets.len(), 2);
        prop_assert_eq!(info.packets[0].crypto_bytes, crypto_len);
        prop_assert_eq!(info.packets[1].crypto_bytes, hs_len);
        prop_assert_eq!(info.size, dgram.len());
    }

    /// Arbitrary byte soup never panics the decoder (errors are fine).
    #[test]
    fn decoder_never_panics(data in pvec(any::<u8>(), 0..1500)) {
        let _ = classify_datagram(&data, 8);
        let mut slice = &data[..];
        let _ = Frame::decode(&mut slice);
    }

    /// Byte soup decodes to the same `Result` over a slice cursor (which
    /// copies payloads out) and over a `Bytes` cursor (which hands out
    /// views): same frames, same errors, same bytes left behind.
    #[test]
    fn slice_and_bytes_cursors_decode_alike(data in pvec(any::<u8>(), 0..300)) {
        assert_decode_parity(&data);
    }

    /// The same for input that is almost a packet: a well-formed datagram
    /// cut at every length, so every length field points past the end at
    /// some cut and has to fail closed on both cursors.
    #[test]
    fn truncated_packets_decode_alike(
        crypto_len in 1usize..400,
        stream_len in 1usize..400,
        pn in 0u64..1_000_000,
    ) {
        let (dcid, scid) = (ConnectionId::from_u64(1), ConnectionId::from_u64(2));
        let hs = PlainPacket::new(
            Header::handshake(dcid, scid, pn),
            vec![
                Frame::Ack(AckFrame::from_sorted_desc(&[9, 8, 3], 80)),
                Frame::Crypto { offset: 7, data: Bytes::from(vec![1u8; crypto_len]) },
            ],
        ).unwrap();
        let app = PlainPacket::new(
            Header::one_rtt(dcid, pn),
            vec![
                Frame::NewToken { token: Bytes::from(vec![4u8; 20]) },
                Frame::Stream { id: 4, offset: 1 << 20, data: Bytes::from(vec![2u8; stream_len]), fin: true },
            ],
        ).unwrap();
        let tag = [5u8; 16];
        let dgram = coalesce(&[(hs, tag), (app, tag)]);
        for cut in 0..=dgram.len() {
            assert_decode_parity(&dgram[..cut]);
        }
    }

    /// Packet encoded_len always equals the serialized size.
    #[test]
    fn packet_encoded_len_exact(
        n_pad in 0usize..500,
        crypto_len in 0usize..900,
        pn in 0u64..1_000_000,
    ) {
        let mut frames = vec![Frame::Ack(AckFrame::single(pn, 0))];
        if crypto_len > 0 {
            frames.push(Frame::Crypto { offset: 0, data: Bytes::from(vec![3u8; crypto_len]) });
        }
        if n_pad > 0 {
            frames.push(Frame::Padding { len: n_pad });
        }
        let pkt = PlainPacket::new(
            Header::initial(ConnectionId::from_u64(1), ConnectionId::from_u64(2), vec![], pn),
            frames,
        ).unwrap();
        let bytes = pkt.to_bytes(&[9u8; 16]);
        prop_assert_eq!(bytes.len(), pkt.encoded_len());
        let (decoded, _, used) = PlainPacket::decode(&bytes, 8).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, pkt);
        // Sealing in place: `seal` sees the payload as it sits in the
        // output buffer, and the decoder hands back exactly that slice.
        let tag_of = |payload: &[u8]| {
            let mut tag = [payload.len() as u8; 16];
            for (i, b) in payload.iter().enumerate() {
                tag[i % 16] ^= *b;
            }
            tag
        };
        let mut macced = Vec::new();
        let mut sealed = vec![0xEE; 3 + pkt.encoded_len() + 2]; // writes where it is pointed
        let written = pkt.encode_sealed(&mut sealed[3..], |payload| {
            macced = payload.to_vec();
            tag_of(payload)
        }).unwrap();
        prop_assert_eq!(written, pkt.encoded_len());
        prop_assert_eq!((&sealed[..3], &sealed[3 + written..]), (&[0xEE; 3][..], &[0xEE; 2][..]));
        let wire = Bytes::copy_from_slice(&sealed[3..3 + written]);
        let (_, payload, tag, _) = PlainPacket::decode_with_payload(&wire, 8).unwrap();
        prop_assert_eq!(&payload, &macced);
        prop_assert_eq!(tag, tag_of(&payload));
        prop_assert_eq!(&wire, &pkt.to_bytes(&tag_of(&payload)));
    }
}

/// Decodes `data` as a header, as a run of frames and as a datagram of
/// packets, once over `&[u8]` and once over `Bytes`, and holds the two
/// equal at every step.
fn assert_decode_parity(data: &[u8]) {
    let shared = Bytes::copy_from_slice(data);

    let (mut slice, mut bytes) = (data, shared.clone());
    assert_eq!(Header::decode(&mut slice, 8), Header::decode(&mut bytes, 8));
    assert_eq!(slice, &bytes[..]);

    let (mut slice, mut bytes) = (data, shared.clone());
    loop {
        let (a, b) = (Frame::decode(&mut slice), Frame::decode(&mut bytes));
        assert_eq!(a, b);
        assert_eq!(slice, &bytes[..]);
        if a.is_err() || slice.is_empty() {
            break;
        }
    }

    let (mut slice, mut bytes) = (data, shared);
    while !slice.is_empty() {
        let a = PlainPacket::decode(slice, 8);
        let b = PlainPacket::decode_with_payload(&bytes, 8);
        assert_eq!(a, b.clone().map(|(pkt, _, tag, used)| (pkt, tag, used)));
        let Ok((_, payload, _, used)) = b else {
            break;
        };
        // The payload view is the wire bytes between packet number and tag.
        if !payload.is_empty() {
            assert_eq!(payload, slice[used - 16 - payload.len()..used - 16]);
        }
        slice = &slice[used..];
        bytes.advance(used);
    }
}

/// Hostile ACK frames found by reading, fixed beside the fuzz property:
/// none may panic, over-reserve, or take time in the packet numbers it
/// claims to cover.
#[test]
fn decoder_survives_hostile_ack_frames() {
    // A 62-bit range count in a 12-byte frame: the reservation is bounded
    // by the buffer, and the missing ranges are an ordinary short read.
    let huge_count: &[u8] = &[
        0x02, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00,
    ];
    assert_eq!(
        Frame::decode(&mut &huge_count[..]),
        Err(WireError::UnexpectedEnd)
    );
    let _ = classify_datagram(huge_count, 8);

    // largest = first_range = 2^62 - 1 is well-formed: one range over the
    // whole packet-number space, walked as a range and never expanded.
    let max = [0xffu8; 8];
    let whole_space = [&[0x02][..], &max, &[0x00, 0x00], &max].concat();
    let Ok(Frame::Ack(ack)) = Frame::decode(&mut &whole_space[..]) else {
        panic!("a single full-width range is a valid ACK frame");
    };
    assert_eq!(ack.acked_ranges().collect::<Vec<_>>(), [0..=(1 << 62) - 1]);
    assert!(ack.acks(0) && ack.acks((1 << 62) - 1));
    assert_eq!(ack.iter_acked().next(), Some((1 << 62) - 1));

    // Ranges that descend below packet number 0 are malformed, whether it
    // is the first range, a gap, or a later range's length that does it.
    for below_zero in [
        &[0x02, 0x05, 0x00, 0x00, 0x06][..],
        &[0x02, 0x05, 0x00, 0x01, 0x00, 0x04, 0x00],
        &[0x02, 0x05, 0x00, 0x01, 0x00, 0x02, 0x02],
    ] {
        assert_eq!(
            Frame::decode(&mut &below_zero[..]),
            Err(WireError::MalformedAck),
            "{below_zero:02x?}"
        );
    }
    // ...and the tightest frame that does not is accepted: 5, then 1..=0.
    let tight: &[u8] = &[0x02, 0x05, 0x00, 0x01, 0x00, 0x02, 0x01];
    let Ok(Frame::Ack(ack)) = Frame::decode(&mut &tight[..]) else {
        panic!("ranges reaching exactly packet number 0 are valid");
    };
    assert_eq!(ack.acked_ranges().collect::<Vec<_>>(), [5..=5, 0..=1]);
}
