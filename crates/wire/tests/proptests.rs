//! Property-based tests for the QUIC wire format.

use bytes::Bytes;
use rq_testkit::prop::{cases, SimRng};
use rq_testkit::wire::assert_decode_parity;
use rq_wire::{
    classify_datagram, coalesce::coalesce, AckFrame, ConnectionId, Frame, Header, PlainPacket,
    VarInt, WireError,
};

/// Fewer than `max_len` arbitrary bytes.
fn byte_soup(rng: &mut SimRng, max_len: u64) -> Vec<u8> {
    let len = rng.gen_range(max_len);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Every 62-bit value round-trips through the varint codec and uses the
/// shortest valid encoding length.
#[test]
fn varint_roundtrip() {
    cases(256, |rng| {
        let v = rng.gen_range(1 << 62);
        let vi = VarInt::new(v).unwrap();
        let mut buf = Vec::new();
        vi.encode(&mut buf);
        assert_eq!(buf.len(), vi.encoded_len());
        let mut slice = &buf[..];
        let out = VarInt::decode(&mut slice).unwrap();
        assert_eq!(out.value(), v);
        assert!(slice.is_empty());
    });
}

/// ACK frames built from arbitrary packet-number sets reproduce exactly
/// that set through encode/decode/iterate.
#[test]
fn ack_frame_reconstructs_pn_set() {
    cases(256, |rng| {
        let n = 1 + rng.gen_range(49);
        let mut sorted: Vec<u64> = (0..n).map(|_| rng.gen_range(10_000)).collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.dedup();
        let ack = AckFrame::from_sorted_desc(&sorted, 0);
        let frame = Frame::Ack(ack);
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let mut slice = &buf[..];
        let Frame::Ack(decoded) = Frame::decode(&mut slice).unwrap() else {
            panic!("an ACK frame decodes as one");
        };
        assert_eq!(
            decoded
                .acked_ranges()
                .flat_map(Iterator::rev)
                .collect::<Vec<u64>>(),
            sorted
        );
    });
}

/// CRYPTO frames round-trip for arbitrary offsets and payloads.
#[test]
fn crypto_frame_roundtrip() {
    cases(256, |rng| {
        let offset = rng.gen_range(1_000_000);
        let data = byte_soup(rng, 2000);
        let f = Frame::Crypto {
            offset,
            data: Bytes::from(data),
        };
        let mut buf = Vec::new();
        f.encode(&mut buf);
        assert_eq!(buf.len(), f.encoded_len());
        let mut slice = &buf[..];
        assert_eq!(Frame::decode(&mut slice).unwrap(), f);
    });
}

/// STREAM frames round-trip across id/offset/fin combinations.
#[test]
fn stream_frame_roundtrip() {
    cases(256, |rng| {
        let id = rng.gen_range(1000);
        let offset = rng.gen_range(1_000_000);
        let data = byte_soup(rng, 1500);
        let fin = rng.gen_bool(0.5);
        let f = Frame::Stream {
            id,
            offset,
            data: Bytes::from(data),
            fin,
        };
        let mut buf = Vec::new();
        f.encode(&mut buf);
        assert_eq!(buf.len(), f.encoded_len());
        let mut slice = &buf[..];
        assert_eq!(Frame::decode(&mut slice).unwrap(), f);
    });
}

/// Coalesced datagrams decode to exactly the packets that were encoded,
/// in order, with sizes summing to the datagram size.
#[test]
fn coalesced_datagram_classification() {
    cases(256, |rng| {
        let crypto_len = 1 + rng.gen_range(799) as usize;
        let hs_len = 1 + rng.gen_range(799) as usize;
        let pn = rng.gen_range(100);
        let dcid = ConnectionId::from_u64(0xAA);
        let scid = ConnectionId::from_u64(0xBB);
        let initial = PlainPacket::new(
            Header::initial(dcid, scid, vec![], pn),
            vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from(vec![1u8; crypto_len]),
            }],
        )
        .unwrap();
        let hs = PlainPacket::new(
            Header::handshake(dcid, scid, pn),
            vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from(vec![2u8; hs_len]),
            }],
        )
        .unwrap();
        let tag = [0u8; 16];
        let dgram = coalesce(&[(initial, tag), (hs, tag)]);
        let info = classify_datagram(&dgram, 8).unwrap();
        assert_eq!(info.packets.len(), 2);
        assert_eq!(info.packets[0].crypto_bytes, crypto_len);
        assert_eq!(info.packets[1].crypto_bytes, hs_len);
        assert_eq!(info.size, dgram.len());
    });
}

/// Arbitrary byte soup never panics the decoder (errors are fine).
#[test]
fn decoder_never_panics() {
    cases(256, |rng| {
        let data = byte_soup(rng, 1500);
        let _ = classify_datagram(&data, 8);
        let mut slice = &data[..];
        let _ = Frame::decode(&mut slice);
    });
}

/// Byte soup decodes to the same `Result` over a slice cursor (which
/// copies payloads out) and over a `Bytes` cursor (which hands out
/// views): same frames, same errors, same bytes left behind.
#[test]
fn slice_and_bytes_cursors_decode_alike() {
    cases(256, |rng| assert_decode_parity(&byte_soup(rng, 300)));
}

/// The same for input that is almost a packet: a well-formed datagram
/// cut at every length, so every length field points past the end at
/// some cut and has to fail closed on both cursors.
#[test]
fn truncated_packets_decode_alike() {
    cases(256, |rng| {
        let crypto_len = 1 + rng.gen_range(399) as usize;
        let stream_len = 1 + rng.gen_range(399) as usize;
        let pn = rng.gen_range(1_000_000);
        let (dcid, scid) = (ConnectionId::from_u64(1), ConnectionId::from_u64(2));
        let hs = PlainPacket::new(
            Header::handshake(dcid, scid, pn),
            vec![
                Frame::Ack(AckFrame::from_sorted_desc(&[9, 8, 3], 80)),
                Frame::Crypto {
                    offset: 7,
                    data: Bytes::from(vec![1u8; crypto_len]),
                },
            ],
        )
        .unwrap();
        let app = PlainPacket::new(
            Header::one_rtt(dcid, pn),
            vec![
                Frame::NewToken {
                    token: Bytes::from(vec![4u8; 20]),
                },
                Frame::Stream {
                    id: 4,
                    offset: 1 << 20,
                    data: Bytes::from(vec![2u8; stream_len]),
                    fin: true,
                },
            ],
        )
        .unwrap();
        let tag = [5u8; 16];
        let dgram = coalesce(&[(hs, tag), (app, tag)]);
        for cut in 0..=dgram.len() {
            assert_decode_parity(&dgram[..cut]);
        }
    });
}

/// Packet encoded_len always equals the serialized size.
#[test]
fn packet_encoded_len_exact() {
    cases(256, |rng| {
        let n_pad = rng.gen_range(500) as usize;
        let crypto_len = rng.gen_range(900) as usize;
        let pn = rng.gen_range(1_000_000);
        let mut frames = vec![Frame::Ack(AckFrame::from_sorted_desc(&[pn], 0))];
        if crypto_len > 0 {
            frames.push(Frame::Crypto {
                offset: 0,
                data: Bytes::from(vec![3u8; crypto_len]),
            });
        }
        if n_pad > 0 {
            frames.push(Frame::Padding { len: n_pad });
        }
        let pkt = PlainPacket::new(
            Header::initial(
                ConnectionId::from_u64(1),
                ConnectionId::from_u64(2),
                vec![],
                pn,
            ),
            frames,
        )
        .unwrap();
        let bytes = pkt.to_bytes(&[9u8; 16]);
        assert_eq!(bytes.len(), pkt.encoded_len());
        let (decoded, _, used) = PlainPacket::decode(&bytes, 8).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, pkt);
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
        let written = pkt
            .encode_sealed(&mut sealed[3..], |payload| {
                macced = payload.to_vec();
                tag_of(payload)
            })
            .unwrap();
        assert_eq!(written, pkt.encoded_len());
        assert_eq!(
            (&sealed[..3], &sealed[3 + written..]),
            (&[0xEE; 3][..], &[0xEE; 2][..])
        );
        let wire = Bytes::copy_from_slice(&sealed[3..3 + written]);
        let (_, payload, tag, _) = PlainPacket::decode_with_payload(&wire, 8).unwrap();
        assert_eq!(&payload, &macced);
        assert_eq!(tag, tag_of(&payload));
        assert_eq!(&wire, &pkt.to_bytes(&tag_of(&payload)));
    });
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
    assert_eq!(
        ack.acked_ranges().flat_map(Iterator::rev).next(),
        Some((1 << 62) - 1)
    );

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
