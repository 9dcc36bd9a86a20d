//! Sim-node adapters wrapping QUIC connections with HTTP application logic.
//!
//! The client node issues one GET and records milestones
//! (`client_hello_sent`, `ttfb`, `response_complete`, `handshake_complete`,
//! `closed`); the server node hosts **many** connection state machines
//! behind one [`rq_quic::ServerEngine`] — each peer node is demuxed to its
//! own connection by sim `NodeId`, the collapsed stand-in for QUIC's
//! connection-ID routing. The single-pair scenarios of the paper are the
//! N = 1 case of the same code path. Both drive their connections
//! through the one [`ConnDriver`]. The network owns both by value, as a
//! [`TestbedNode`]: the runner reads a node through
//! [`rq_sim::Network::node`] while the run goes on and takes it back
//! from [`rq_sim::Network::retire_node`] when it is over. The driver
//! keeps the server node and the client retired last, and builds the
//! next of each in its storage (`ServerNode::with_engine_in`,
//! `ClientNode::new_in`): the constructor sets every field, and only
//! storage carries over.
//!
//! The client node is in `client`, the server node in `server`. This file
//! holds the node enum, the milestone labels, the one driver both pump
//! their connections through, and the response storage a server node
//! owns and answers requests from.

use std::sync::Arc;

use rq_http::{h1, h3, HttpVersion};
use rq_quic::Connection;
use rq_sim::{Context, Node, NodeId, SimTime};
use rq_wire::Bytes;

mod client;
mod server;

pub use client::{ClientNode, ClientStatus};
pub use server::{PeerOutcome, ServerControl, ServerNode};

/// A node of the testbed's network: the client or the server. Events
/// reach a node through a `match`, not a vtable; boxing keeps a node
/// slot at two words whichever kind it holds.
pub enum TestbedNode {
    /// One client and its connection.
    Client(Box<ClientNode>),
    /// The server and every connection it hosts.
    Server(Box<ServerNode>),
}

const _: () = assert!(std::mem::size_of::<Option<TestbedNode>>() == 16);

impl TestbedNode {
    /// The client this node is, if it is one.
    pub fn client(&self) -> Option<&ClientNode> {
        match self {
            TestbedNode::Client(client) => Some(client),
            TestbedNode::Server(_) => None,
        }
    }

    /// The server this node is, if it is one.
    pub fn server(&self) -> Option<&ServerNode> {
        match self {
            TestbedNode::Server(server) => Some(server),
            TestbedNode::Client(_) => None,
        }
    }
}

impl From<ClientNode> for TestbedNode {
    fn from(client: ClientNode) -> Self {
        TestbedNode::Client(Box::new(client))
    }
}

impl From<ServerNode> for TestbedNode {
    fn from(server: ServerNode) -> Self {
        TestbedNode::Server(Box::new(server))
    }
}

/// Hands the event to whichever node this is.
macro_rules! dispatch {
    ($node:expr, $n:ident => $call:expr) => {
        match $node {
            TestbedNode::Client($n) => $call,
            TestbedNode::Server($n) => $call,
        }
    };
}

impl Node for TestbedNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        dispatch!(self, n => n.on_start(ctx))
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &[u8]) {
        dispatch!(self, n => n.on_datagram(ctx, from, payload))
    }

    fn on_datagram_owned(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        dispatch!(self, n => n.on_datagram_owned(ctx, from, payload))
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        dispatch!(self, n => n.on_timer(ctx, token))
    }

    fn on_path_change(&mut self, ctx: &mut Context<'_>, path: u64) {
        dispatch!(self, n => n.on_path_change(ctx, path))
    }

    fn name(&self) -> &str {
        dispatch!(self, n => n.name())
    }
}

/// Milestone labels recorded into the trace.
pub mod milestones {
    /// Client sent its first datagram.
    pub const CLIENT_HELLO_SENT: &str = "client_hello_sent";
    /// First application-stream byte arrived at the client (TTFB).
    pub const TTFB: &str = "ttfb";
    /// The full response body arrived.
    pub const RESPONSE_COMPLETE: &str = "response_complete";
    /// Handshake completed at the client.
    pub const HANDSHAKE_COMPLETE: &str = "handshake_complete";
    /// Handshake confirmed at the client.
    pub(crate) const HANDSHAKE_CONFIRMED: &str = "handshake_confirmed";
    /// The connection died (quirk abort or close).
    pub const CLOSED: &str = "closed";
    /// Server asked the certificate store.
    pub(crate) const CERT_REQUESTED: &str = "cert_requested";
    /// Certificate arrived at the frontend.
    pub(crate) const CERT_READY: &str = "cert_ready";
}

/// The one place a [`Connection`] is pumped and its timers are run:
/// whoever owns a connection (the client node its one, the server node
/// one per admitted peer) drives it through these functions, and keeps
/// beside it the slot the driver writes the armed deadline to.
///
/// The slot holds [`Connection::poll_timeout`] as of the connection's
/// last pump, and that is still its value at the next callback: every
/// `&mut` use of a driven connection happens inside a callback that ends
/// in a pump. So a wake-up reads one slot instead of asking the
/// connection, and only [`ConnDriver::pump`], where the next timer is
/// decided, computes the deadline.
struct ConnDriver;

impl ConnDriver {
    /// Sends every datagram `conn` has ready to `peer`, each built in
    /// the network's spare storage where it can be, then arms its next
    /// deadline under `token` (one already past fires "now") and stores
    /// it in `armed`.
    fn pump(
        conn: &mut Connection,
        armed: &mut Option<SimTime>,
        ctx: &mut Context<'_>,
        peer: NodeId,
        token: u64,
    ) {
        let now = ctx.now();
        while let Some(datagram) = conn.poll_transmit_with(now, ctx.spares()) {
            ctx.send(peer, datagram);
        }
        *armed = conn.poll_timeout();
        if let Some(deadline) = *armed {
            ctx.set_timer(deadline.max(now), token);
        }
    }

    /// A wake-up of `conn`'s timer `token`, whose last pump armed
    /// `armed`. If the deadline has come, runs its timers and returns
    /// `true`: the caller drains the events that produced and pumps. A
    /// wake-up armed for a deadline that has since moved later re-arms
    /// that deadline and returns `false`, with nothing to pump: every
    /// callback ends in a pump that leaves `conn` with nothing to send,
    /// and before its deadline time alone gives it nothing new.
    fn wake(
        conn: &mut Connection,
        armed: Option<SimTime>,
        ctx: &mut Context<'_>,
        token: u64,
    ) -> bool {
        debug_assert_eq!(armed, conn.poll_timeout(), "stale armed deadline");
        let now = ctx.now();
        match armed {
            Some(deadline) if deadline <= now => {
                conn.handle_timeout(now);
                true
            }
            Some(deadline) => {
                ctx.set_timer(deadline, token);
                false
            }
            None => false,
        }
    }
}

/// The responses a server node hands out, all views of one storage:
/// header room, then the longest body asked for so far. Byte `n` of a
/// body is the same whatever its length ([`h1::fill_body`]), so a shorter
/// body is a prefix of a longer one, and a response is the view from its
/// header, written right-aligned before the body, to the end of its
/// body. The sessions asking for the same response share one view's
/// storage (what a CDN edge sees); one asking for another length or
/// flavour has the header rewritten in place if no view of the storage
/// is left, and its response built on its own if one is: a storage a
/// live view shares is never rewritten. The storage is replaced only for
/// a longer body than any before. A server node built in the storage of
/// a retired one takes over its responses, so a worker's drives share
/// one.
#[derive(Default)]
pub(crate) struct ResponseCache {
    /// The storage: `room` bytes, then the body. `None` before the
    /// first response.
    storage: Option<Arc<[u8]>>,
    /// Room for the longest header of either flavour at the body's
    /// length, which fits every shorter body's too.
    room: usize,
    /// The response whose header is written before the body.
    written: Option<(HttpVersion, usize)>,
}

impl ResponseCache {
    /// The encoded `http` response carrying `body_len` body bytes.
    fn get(&mut self, http: HttpVersion, body_len: usize) -> Bytes {
        let header_len = http.response_header_len(body_len);
        if self.written != Some((http, body_len)) {
            let room = self.room;
            if self
                .storage
                .as_ref()
                .is_none_or(|s| s.len() - room < body_len)
            {
                self.grow(body_len);
            }
            let storage = self.storage.as_mut().expect("grown to fit");
            let Some(bytes) = Arc::get_mut(storage) else {
                return built_alone(http, body_len);
            };
            let header = &mut bytes[self.room - header_len..self.room];
            http.write_response_header(body_len, header);
            self.written = Some((http, body_len));
        }
        let storage = Arc::clone(self.storage.as_ref().expect("written"));
        Bytes::from(storage).slice(self.room - header_len..self.room + body_len)
    }

    /// Replaces the storage with one whose body is `body_len` bytes long
    /// and whose header room fits either flavour's header at that length.
    /// Views of the old storage keep it for as long as they live.
    fn grow(&mut self, body_len: usize) {
        let header_len = |http: HttpVersion| http.response_header_len(body_len);
        let room = header_len(HttpVersion::H1).max(header_len(HttpVersion::H3));
        let storage = Bytes::build(room + body_len, |out| h1::fill_body(&mut out[room..]));
        (self.storage, self.room, self.written) = (Some(storage.into()), room, None);
    }
}

/// The encoded `http` response carrying `body_len` body bytes, in
/// storage of its own.
fn built_alone(http: HttpVersion, body_len: usize) -> Bytes {
    match http {
        HttpVersion::H1 => h1::H1Response::ok(body_len).to_bytes(),
        HttpVersion::H3 => h3::response_bytes(body_len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_views_of_one_storage_never_rewritten_while_held() {
        use HttpVersion::{H1, H3};
        let mut cache = ResponseCache::default();
        let in_storage = |cache: &ResponseCache, response: &Bytes| {
            let storage = cache.storage.as_ref().expect("a response was asked for");
            storage.as_ptr_range().contains(&response.as_ptr())
        };
        // Held once: the sessions asking for one response share it.
        let first = cache.get(H1, 1000);
        assert_eq!(first, built_alone(H1, 1000));
        assert_eq!(cache.get(H1, 1000).as_ptr(), first.as_ptr());
        assert!(in_storage(&cache, &first));
        // Lengths that go up, down and back, the flavours interleaved,
        // while every earlier response is still held: each is the
        // response built on its own, and none rewrites one held.
        let mut held = vec![(H1, 1000, first)];
        for (http, len) in [
            (H3, 5000),
            (H1, 200),
            (H3, 200),
            (H1, 5000),
            (H1, 1000),
            (H3, 70_000),
            (H1, 0),
            (H3, 1000),
        ] {
            let response = cache.get(http, len);
            held.push((http, len, response));
            for (http, len, response) in &held {
                assert_eq!(*response, built_alone(*http, *len), "{http:?} {len}");
            }
        }
        // A longer body replaced the storage; the responses asked for
        // after that, while it was shared, were built on their own.
        let [.., (_, _, longest), (_, _, empty), (_, _, last)] = &held[..] else {
            unreachable!("nine responses");
        };
        assert!(in_storage(&cache, longest));
        assert!(!in_storage(&cache, empty) && !in_storage(&cache, last));
        // Once no view is held, every length up to the longest and either
        // flavour is written in place, one after the other.
        held.clear();
        let before = cache.storage.as_ref().map(|s| s.len());
        for (http, len) in [(H3, 200), (H1, 70_000), (H1, 5000), (H3, 0)] {
            let response = cache.get(http, len);
            assert_eq!(response, built_alone(http, len), "{http:?} {len}");
            assert!(in_storage(&cache, &response), "{http:?} {len}");
        }
        assert_eq!(cache.storage.as_ref().map(|s| s.len()), before);
    }
}
