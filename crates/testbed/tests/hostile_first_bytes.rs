//! What a server node does with bytes that are not a QUIC packet: it
//! reads the first header of every datagram a peer sends (to admit
//! strangers and to recognise reconnects), so whatever fails to parse
//! must fail closed — no panic, no arrival counted, no session opened,
//! and the peer's real handshake unharmed.

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_profiles::server::testbed_server;
use rq_quic::{ServerAccounting, ServerAckMode};
use rq_sim::{Context, LinkConfig, Network, Node, NodeId, SimDuration, SimRng, SimTime};
use rq_testbed::{ClientNode, ClientStatus, ServerNode};
use rq_wire::Bytes;

const IACK: ServerAckMode = ServerAckMode::InstantAck { pad_to_mtu: false };

/// A client that also puts `noise` on the wire to the server when it
/// starts: `before` its own first Initial, or right behind it (by which
/// time the server has admitted it — the link keeps order).
struct Noisy {
    client: ClientNode,
    server: NodeId,
    noise: Vec<Vec<u8>>,
    before: bool,
}

impl Noisy {
    fn send_noise(&self, ctx: &mut Context<'_>) {
        for datagram in &self.noise {
            ctx.send(self.server, datagram.clone());
        }
    }
}

/// The two nodes of a run: the server and the noisy client.
enum Bed {
    Server(ServerNode),
    Noisy(Box<Noisy>),
}

impl Node for Bed {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        match self {
            Bed::Server(server) => server.on_start(ctx),
            Bed::Noisy(noisy) => noisy.on_start(ctx),
        }
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &[u8]) {
        self.on_datagram_owned(ctx, from, Bytes::copy_from_slice(payload));
    }

    fn on_datagram_owned(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        match self {
            Bed::Server(server) => server.on_datagram_owned(ctx, from, payload),
            Bed::Noisy(noisy) => noisy.on_datagram_owned(ctx, from, payload),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        match self {
            Bed::Server(server) => server.on_timer(ctx, token),
            Bed::Noisy(noisy) => noisy.on_timer(ctx, token),
        }
    }
}

impl Node for Noisy {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.before {
            self.send_noise(ctx);
        }
        self.client.on_start(ctx);
        if !self.before {
            self.send_noise(ctx);
        }
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &[u8]) {
        self.client.on_datagram(ctx, from, payload);
    }

    fn on_datagram_owned(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        self.client.on_datagram_owned(ctx, from, payload);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.client.on_timer(ctx, token);
    }
}

/// One quic-go GET of 10 KB from the IACK testbed server, with `noise`
/// sent as described on [`Noisy`]: the server's accounting and the
/// client's progress once the run is over.
fn run(noise: Vec<Vec<u8>>, before: bool) -> (ServerAccounting, ClientStatus) {
    let http = HttpVersion::H1;
    let mut net = Network::new(false);
    let server = ServerNode::new(
        testbed_server(IACK, rq_tls::CERT_SMALL),
        http,
        SimDuration::ZERO,
        1,
    );
    let server = net.add_node(Bed::Server(server));
    net.prime();
    let cfg = client_by_name("quic-go").unwrap().endpoint_config(http);
    let client = ClientNode::new(cfg, server, http, 10_000, 7, false);
    let noisy = Noisy {
        client,
        server,
        noise,
        before,
    };
    let id = net.add_node(Bed::Noisy(Box::new(noisy)));
    net.connect(
        id,
        server,
        LinkConfig::paper_default(SimDuration::from_millis(10)),
    );
    net.schedule_start(id, SimTime::ZERO);
    net.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    let (Some(Bed::Server(server)), Some(Bed::Noisy(noisy))) = (net.node(server), net.node(id))
    else {
        unreachable!("neither node is retired");
    };
    let accounting = server.engine.borrow().accounting;
    (accounting, noisy.client.status)
}

/// The start of a long-header Initial (QUIC v1) with 8-byte CIDs, up to
/// and including the source CID.
fn initial_prefix() -> Vec<u8> {
    let mut d = vec![0xC3, 0x00, 0x00, 0x00, 0x01, 8];
    d.extend_from_slice(&[0xAB; 8]);
    d.push(8);
    d.extend_from_slice(&[0xCD; 8]);
    d
}

#[test]
fn garbage_before_the_initial_is_dropped_without_an_arrival() {
    // No fixed bit: no header parses out of this.
    let garbage = vec![0u8; 64];
    let (accounting, status) = run(vec![garbage], true);
    assert_eq!(accounting.arrivals, 1, "{accounting:?}");
    assert_eq!(accounting.accepted, 1);
    assert!(status.handshake_at.is_some(), "{status:?}");
    assert!(status.complete_at.is_some(), "{status:?}");
}

#[test]
fn hostile_datagrams_from_an_admitted_peer_change_nothing() {
    let mut rng = SimRng::new(0x0BAD_F00D);
    let random: Vec<u8> = (0..300).map(|_| rng.next_u64() as u8).collect();
    // A token length (varint 0x4064 = 100) that runs past the end.
    let mut long_token = initial_prefix();
    long_token.extend_from_slice(&[0x40, 0x64]);
    long_token.extend_from_slice(&[0xEE; 10]);
    let hostile = [
        // Truncated: the first byte alone, mid-version, mid-CID.
        vec![0xC3],
        initial_prefix()[..3].to_vec(),
        initial_prefix()[..10].to_vec(),
        random,
        long_token,
    ];
    let clean = run(Vec::new(), false);
    for datagram in hostile {
        let (accounting, status) = run(vec![datagram.clone()], false);
        assert_eq!(accounting.arrivals, 1, "{datagram:02x?}: {accounting:?}");
        assert!(status.complete_at.is_some(), "{datagram:02x?}: {status:?}");
        assert_eq!(accounting, clean.0, "{datagram:02x?}");
    }
}
