// The tests of `send.rs`: client Initial padding, and a flow-control
// grant a full packet leaves for the next. `connection/tests.rs`
// includes this file, so the tests share its helpers and are named
// `connection::tests::*`.

#[test]
fn client_initial_datagram_padded() {
    let mut c = client();
    let d = c.poll_transmit(SimTime::ZERO).expect("client hello");
    assert!(
        d.len() >= MIN_INITIAL_DATAGRAM,
        "client Initial padded to 1200, got {}",
        d.len()
    );
}

#[test]
fn pad_routine_sizes() {
    let cid = ConnectionId::from_u64(7);
    let total = |pkts: &[PlainPacket]| -> usize {
        pkts.iter().map(PlainPacket::encoded_len).sum::<usize>()
    };
    let ack = || Frame::Ack(AckFrame::from_sorted_desc(&[0], 0));
    // A lone ClientHello-sized Initial lands on exactly 1200 bytes.
    let hello = Frame::Crypto {
        offset: 0,
        data: Bytes::from(vec![1u8; 300]),
    };
    let mut lone =
        vec![PlainPacket::new(Header::initial(cid, cid, Vec::new(), 0), vec![hello]).unwrap()];
    pad_client_initial(&mut lone);
    assert_eq!(total(&lone), MIN_INITIAL_DATAGRAM);
    // Known deviation (see `pad_client_initial`): padding a short last
    // packet grows its length varint by one byte, so this shape leaves
    // at 1201 bytes, one over MAX_DATAGRAM_SIZE. Goldens and benchmark
    // fingerprints pin it; changing it is a behaviour change.
    let mut flight2 = vec![
        PlainPacket::new(Header::initial(cid, cid, Vec::new(), 1), vec![ack()]).unwrap(),
        PlainPacket::new(Header::handshake(cid, cid, 0), vec![ack()]).unwrap(),
    ];
    pad_client_initial(&mut flight2);
    assert_eq!(total(&flight2), MAX_DATAGRAM_SIZE + 1);
    assert!(matches!(
        flight2[1].frames.last(),
        Some(Frame::Padding { .. })
    ));
    // No Initial inside: untouched.
    let mut hs_only = vec![PlainPacket::new(Header::handshake(cid, cid, 1), vec![ack()]).unwrap()];
    pad_client_initial(&mut hs_only);
    assert_eq!(hs_only[0].frames.len(), 1);
}

/// A MAX_STREAM_DATA grant that falls due while a retransmission fills
/// the packet goes out in a later packet: recording it as sent when it
/// was not would leave the peer at the old limit for good.
#[test]
fn a_stream_credit_grant_a_full_packet_leaves_out_still_goes() {
    let mut c = client();
    let mut s = server(ServerAckMode::WaitForCertificate);
    c.send_stream_data(stream_id::CLIENT_BIDI_0, b"GET /", true);
    run_handshake(&mut c, &mut s, SimDuration::ZERO);
    // Past half the stream's credit: one grant falls due on the way.
    let body = vec![7; INITIAL_MAX_STREAM_DATA as usize / 2 + 20_000];
    s.send_stream_data(stream_id::CLIENT_BIDI_0, &body, false);
    let mut now = at(1);
    for _ in 0..500 {
        let mut received = false;
        while let Some(d) = s.poll_transmit(now) {
            c.handle_datagram(now, &d);
            received = true;
        }
        while c.poll_event().is_some() {}
        if received {
            // The client's next packet starts full of retransmitted data.
            c.app.requeue(vec![Frame::Stream {
                id: stream_id::CLIENT_BIDI_0 + 4,
                offset: 0,
                data: Bytes::from(vec![1; 2_000]),
                fin: false,
            }]);
        }
        while let Some(d) = c.poll_transmit(now) {
            s.handle_datagram(now, &d);
        }
        while s.poll_event().is_some() {}
        now = now + ms(5);
        c.handle_timeout(now);
        s.handle_timeout(now);
    }
    let delivered = c
        .streams
        .recv
        .get(stream_id::CLIENT_BIDI_0)
        .map(|r| r.delivered);
    assert_eq!(delivered, Some(body.len() as u64), "the body arrived");
    let stream = s.streams.send_stream(stream_id::CLIENT_BIDI_0);
    assert!(
        stream.max_stream_data > INITIAL_MAX_STREAM_DATA,
        "the grant never arrived: the limit is still {}",
        stream.max_stream_data
    );
}
