use super::*;

fn roundtrip(frame: Frame) -> Frame {
    let mut buf = Vec::new();
    frame.encode(&mut buf);
    assert_eq!(
        buf.len(),
        frame.encoded_len(),
        "encoded_len mismatch for {frame:?}"
    );
    let mut slice = &buf[..];
    let out = Frame::decode(&mut slice).unwrap();
    assert!(
        slice.is_empty(),
        "decode left {} bytes for {frame:?}",
        slice.len()
    );
    out
}

#[test]
fn ping_roundtrip() {
    assert_eq!(roundtrip(Frame::Ping), Frame::Ping);
}

#[test]
fn padding_merges() {
    let f = Frame::Padding { len: 37 };
    assert_eq!(roundtrip(f.clone()), f);
}

#[test]
fn a_zero_run_decodes_as_one_padding_frame() {
    for n in [1, 2, 37, 1200] {
        let mut bytes = vec![0u8; n];
        bytes.push(0x01);
        let mut buf = &bytes[..];
        assert_eq!(Frame::decode(&mut buf).unwrap(), Frame::Padding { len: n });
        assert_eq!(Frame::decode(&mut buf).unwrap(), Frame::Ping);
        assert!(buf.is_empty());
        // A run to the end of the buffer is one frame too.
        let mut tail = &bytes[..n];
        assert_eq!(Frame::decode(&mut tail).unwrap(), Frame::Padding { len: n });
        assert!(tail.is_empty());
    }
}

#[test]
fn crypto_roundtrip() {
    let f = Frame::Crypto {
        offset: 1200,
        data: Bytes::from(vec![7u8; 333]),
    };
    assert_eq!(roundtrip(f.clone()), f);
}

#[test]
fn stream_roundtrip_with_offset_and_fin() {
    let f = Frame::Stream {
        id: 4,
        offset: 65536,
        data: Bytes::copy_from_slice(b"hello"),
        fin: true,
    };
    assert_eq!(roundtrip(f.clone()), f);
}

#[test]
fn stream_roundtrip_zero_offset() {
    let f = Frame::Stream {
        id: 0,
        offset: 0,
        data: Bytes::copy_from_slice(b"GET /"),
        fin: false,
    };
    assert_eq!(roundtrip(f.clone()), f);
}

#[test]
fn ack_single_roundtrip() {
    let f = Frame::Ack(AckFrame::from_sorted_desc(&[9], 1600));
    assert_eq!(roundtrip(f.clone()), f);
}

#[test]
fn ack_delay_quantized_to_8us() {
    // 1601 µs is not a multiple of 8; the wire carries floor(1601/8)*8.
    let f = Frame::Ack(AckFrame::from_sorted_desc(&[9], 1601));
    let out = roundtrip(f);
    match out {
        Frame::Ack(a) => assert_eq!(a.ack_delay_us, 1600),
        _ => panic!(),
    }
}

#[test]
fn ack_multi_range_roundtrip() {
    let ack = AckFrame::from_sorted_desc(&[20, 19, 18, 10, 9, 3], 0);
    assert_eq!(ack.largest, 20);
    assert_eq!(ack.first_range, 2);
    assert!(ack
        .ranges
        .iter()
        .eq([AckRange { gap: 6, len: 1 }, AckRange { gap: 4, len: 0 }]));
    assert_eq!(
        AckFrame::from_ranges_desc([18..=20, 9..=10, 3..=3], 0).as_ref(),
        Some(&ack)
    );
    assert_eq!(AckFrame::from_ranges_desc([], 0), None);
    let acked: Vec<u64> = ack.acked_ranges().flat_map(Iterator::rev).collect();
    assert_eq!(acked, vec![20, 19, 18, 10, 9, 3]);
    let f = Frame::Ack(ack);
    assert_eq!(roundtrip(f.clone()), f);
}

#[test]
fn ack_acks_predicate() {
    let ack = AckFrame::from_sorted_desc(&[7, 5, 4], 0);
    assert!(ack.acks(7));
    assert!(!ack.acks(6));
    assert!(ack.acks(5));
    assert!(ack.acks(4));
    assert!(!ack.acks(3));
}

#[test]
fn malformed_ack_rejected() {
    // first_range > largest.
    let mut buf = Vec::new();
    buf.put_u8(0x02);
    VarInt::new(2).unwrap().encode(&mut buf);
    VarInt::new(0).unwrap().encode(&mut buf);
    VarInt::new(0).unwrap().encode(&mut buf);
    VarInt::new(5).unwrap().encode(&mut buf);
    let mut slice = &buf[..];
    assert_eq!(Frame::decode(&mut slice), Err(WireError::MalformedAck));
}

#[test]
fn connection_close_roundtrip() {
    let f = Frame::ConnectionClose {
        error_code: 0x0a,
        reason: "retired CID twice".into(),
        app: false,
    };
    assert_eq!(roundtrip(f.clone()), f);
    let g = Frame::ConnectionClose {
        error_code: 0x100,
        reason: String::new(),
        app: true,
    };
    assert_eq!(roundtrip(g.clone()), g);
}

#[test]
fn new_connection_id_roundtrip() {
    let f = Frame::NewConnectionId {
        seq: 3,
        retire_prior_to: 1,
        cid: vec![1, 2, 3, 4, 5, 6, 7, 8],
    };
    assert_eq!(roundtrip(f.clone()), f);
}

#[test]
fn retire_connection_id_roundtrip() {
    let f = Frame::RetireConnectionId { seq: 2 };
    assert_eq!(roundtrip(f.clone()), f);
}

#[test]
fn path_challenge_response_roundtrip() {
    for f in [
        Frame::PathChallenge {
            data: 0xDEAD_BEEF_CAFE_F00D,
        },
        Frame::PathResponse { data: 0 },
        Frame::PathResponse { data: u64::MAX },
    ] {
        assert_eq!(roundtrip(f.clone()), f);
    }
}

#[test]
fn path_frames_classification() {
    use crate::header::PacketType::*;
    let ch = Frame::PathChallenge { data: 1 };
    let re = Frame::PathResponse { data: 1 };
    assert!(ch.is_ack_eliciting());
    assert!(re.is_ack_eliciting());
    // RFC 9000 Table 3: PATH_CHALLENGE in 0-RTT and 1-RTT; PATH_RESPONSE
    // only in 1-RTT; neither in Initial or Handshake packets.
    assert!(!ch.permitted_in(Initial));
    assert!(!ch.permitted_in(Handshake));
    assert!(ch.permitted_in(ZeroRtt));
    assert!(ch.permitted_in(OneRtt));
    assert!(!re.permitted_in(ZeroRtt));
    assert!(re.permitted_in(OneRtt));
}

#[test]
fn handshake_done_and_flow_control() {
    for f in [
        Frame::HandshakeDone,
        Frame::MaxData { max: 1 << 20 },
        Frame::MaxStreamData { id: 4, max: 99999 },
        Frame::MaxStreams {
            bidi: true,
            max: 16,
        },
        Frame::MaxStreams {
            bidi: false,
            max: 3,
        },
        Frame::DataBlocked { limit: 4096 },
        Frame::NewToken {
            token: Bytes::copy_from_slice(&[9; 32]),
        },
    ] {
        assert_eq!(roundtrip(f.clone()), f);
    }
}

#[test]
fn ack_eliciting_classification() {
    assert!(!Frame::Ack(AckFrame::from_sorted_desc(&[0], 0)).is_ack_eliciting());
    assert!(!Frame::Padding { len: 4 }.is_ack_eliciting());
    assert!(!Frame::ConnectionClose {
        error_code: 0,
        reason: String::new(),
        app: false
    }
    .is_ack_eliciting());
    assert!(Frame::Ping.is_ack_eliciting());
    assert!(Frame::Crypto {
        offset: 0,
        data: Bytes::new()
    }
    .is_ack_eliciting());
    assert!(Frame::HandshakeDone.is_ack_eliciting());
}

#[test]
fn frame_permissions_initial() {
    use crate::header::PacketType::*;
    assert!(Frame::Ping.permitted_in(Initial));
    assert!(Frame::Crypto {
        offset: 0,
        data: Bytes::new()
    }
    .permitted_in(Initial));
    assert!(!Frame::Stream {
        id: 0,
        offset: 0,
        data: Bytes::new(),
        fin: false
    }
    .permitted_in(Initial));
    assert!(!Frame::HandshakeDone.permitted_in(Handshake));
    assert!(Frame::HandshakeDone.permitted_in(OneRtt));
    assert!(!Frame::ConnectionClose {
        error_code: 0,
        reason: String::new(),
        app: true
    }
    .permitted_in(Initial));
}

#[test]
fn frames_keep_their_size() {
    // A frame list holds three frames inline: a wider `Frame` widens
    // every packet's list.
    assert_eq!(std::mem::size_of::<AckFrame>(), 48);
    assert_eq!(std::mem::size_of::<Frame>(), 56);
}

/// An ACK frame as it was first kept, its lower ranges a `Vec`: the
/// oracle for the ranges held as their wire encoding.
struct VecAck {
    largest: u64,
    ack_delay_us: u64,
    first_range: u64,
    ranges: Vec<AckRange>,
}

impl VecAck {
    fn from_ranges_desc(ranges: &[RangeInclusive<u64>], ack_delay_us: u64) -> Self {
        let first = &ranges[0];
        let mut smallest = *first.start();
        let lower = ranges[1..].iter().map(|r| {
            let gap = smallest - (r.end() + 2);
            smallest = *r.start();
            AckRange {
                gap,
                len: r.end() - r.start(),
            }
        });
        VecAck {
            largest: *first.end(),
            ack_delay_us,
            first_range: first.end() - first.start(),
            ranges: lower.collect(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0x02];
        for v in [
            self.largest,
            self.ack_delay_us / ACK_DELAY_UNIT_US,
            self.ranges.len() as u64,
            self.first_range,
        ] {
            VarInt::new(v).unwrap().encode(&mut buf);
        }
        for r in &self.ranges {
            VarInt::new(r.gap).unwrap().encode(&mut buf);
            VarInt::new(r.len).unwrap().encode(&mut buf);
        }
        buf
    }

    fn acked_ranges(&self) -> Vec<RangeInclusive<u64>> {
        let mut out = vec![self.largest - self.first_range..=self.largest];
        let mut smallest = self.largest - self.first_range;
        for r in &self.ranges {
            let hi = smallest - r.gap - 2;
            smallest = hi - r.len;
            out.push(smallest..=hi);
        }
        out
    }
}

/// A gap or length field of a random varint width: below 64, 16,384,
/// 2^30, or 2^40 (eight bytes, and 65 of them still fit below 2^62).
fn field(rng: &mut rq_testkit::prop::SimRng) -> u64 {
    match rng.gen_range(4) {
        0 => rng.gen_range(64),
        1 => 64 + rng.gen_range(16_384 - 64),
        2 => 16_384 + rng.gen_range((1 << 30) - 16_384),
        _ => (1 << 30) + rng.gen_range((1 << 40) - (1 << 30)),
    }
}

/// Descending sets of 0–64 lower ranges, their gaps and lengths of
/// every varint width: the encoded ranges give the wire bytes,
/// length, acknowledged ranges, round trip and equality the `Vec`
/// gave.
#[test]
fn ack_ranges_agree_with_the_vec_list() {
    rq_testkit::prop::cases(300, |rng| {
        let count = rng.gen_range(65) as usize;
        // Mostly small fields, the sizes a real frame carries.
        let small = rng.gen_bool(0.5);
        let draw = |rng: &mut rq_testkit::prop::SimRng| {
            if small {
                rng.gen_range(8)
            } else {
                field(rng)
            }
        };
        let fields: Vec<(u64, u64)> = (0..=count).map(|_| (draw(rng), draw(rng))).collect();
        let span: u64 = fields.iter().map(|(gap, len)| gap + 2 + len).sum();
        let mut hi = span + rng.gen_range(1 << 20);
        let ranges: Vec<RangeInclusive<u64>> = fields
            .iter()
            .enumerate()
            .map(|(i, (gap, len))| {
                if i > 0 {
                    hi -= gap + 2;
                }
                let r = hi - len..=hi;
                hi -= len;
                r
            })
            .collect();
        let delay = 8 * rng.gen_range(10_000);
        let ack = AckFrame::from_ranges_desc(ranges.iter().cloned(), delay).unwrap();
        let oracle = VecAck::from_ranges_desc(&ranges, delay);
        assert!(ack.ranges.iter().eq(oracle.ranges.iter().copied()));
        assert_eq!(ack.ranges.count(), count as u64);
        let spilled = matches!(ack.ranges.0, RangesRepr::Heap(_));
        assert_eq!(spilled, ack.ranges.as_bytes().len() > INLINE_RANGES);
        assert_eq!(ack.acked_ranges().collect::<Vec<_>>(), ranges);
        assert_eq!(oracle.acked_ranges(), ranges);
        let frame = Frame::Ack(ack.clone());
        let mut wire = Vec::new();
        frame.encode(&mut wire);
        assert_eq!(wire, oracle.encode());
        assert_eq!(frame.encoded_len(), wire.len());
        assert_eq!(roundtrip(frame.clone()), frame);
        // Equal ranges are equal frames; one field moved is not.
        let again = AckFrame::from_ranges_desc(ranges.iter().cloned(), delay);
        assert_eq!(again.as_ref(), Some(&ack));
        let mut moved = ranges.clone();
        let lowest = moved.pop().unwrap();
        if *lowest.start() > 0 {
            let longer = lowest.start() - 1..=*lowest.end();
            let other = moved.iter().cloned().chain([longer]);
            assert_ne!(
                AckFrame::from_ranges_desc(other, delay).as_ref(),
                Some(&ack)
            );
        }
        assert_ne!(
            AckFrame::from_ranges_desc(moved, delay).as_ref(),
            Some(&ack)
        );
    });
}

/// Writes `v` as a varint of `width` bytes, wider than it needs.
fn wide(buf: &mut Vec<u8>, v: u64, width: usize) {
    match width {
        2 => buf.put_u16(0b01 << 14 | v as u16),
        4 => buf.put_u32(0b10 << 30 | v as u32),
        _ => buf.put_u64(0b11 << 62 | v),
    }
}

#[test]
fn wide_varints_decode_to_the_shortest_frame() {
    // Largest 100, first range 3 (97..=100), then a gap of 5 and a
    // length of 2 (88..=90), every field wider than it needs.
    let mut buf = vec![0x02];
    wide(&mut buf, 100, 8);
    wide(&mut buf, 0, 2);
    wide(&mut buf, 1, 4);
    wide(&mut buf, 3, 2);
    wide(&mut buf, 5, 8);
    wide(&mut buf, 2, 4);
    let mut slice = &buf[..];
    let decoded = Frame::decode(&mut slice).unwrap();
    assert!(slice.is_empty());
    let shortest = AckFrame::from_ranges_desc([97..=100, 88..=90], 0).unwrap();
    assert_eq!(decoded, Frame::Ack(shortest.clone()));
    assert_eq!(decoded.encoded_len(), Frame::Ack(shortest).encoded_len());
    assert!(decoded.encoded_len() < buf.len());
}

#[test]
fn a_count_past_the_ranges_fails_closed() {
    // A two-byte range count of 1,000 and no ranges behind it.
    let mut slice: &[u8] = &[0x02, 0x00, 0x00, 0x43, 0xe8, 0x00];
    assert_eq!(Frame::decode(&mut slice), Err(WireError::UnexpectedEnd));
    // 1,000 ranges that are there take the heap and come back whole.
    let pns: Vec<u64> = (0..1_001).rev().map(|i| 2 * i).collect();
    let ack = AckFrame::from_sorted_desc(&pns, 0);
    assert!(matches!(ack.ranges.0, RangesRepr::Heap(_)));
    assert_eq!(ack.ranges.count(), 1_000);
    let f = Frame::Ack(ack);
    assert_eq!(roundtrip(f.clone()), f);
}

#[test]
fn unknown_frame_type_rejected() {
    let mut slice: &[u8] = &[0x21];
    assert_eq!(
        Frame::decode(&mut slice),
        Err(WireError::InvalidFrameType(0x21))
    );
}
