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
//! from [`rq_sim::Network::retire_node`] when it is over.
//!
//! The client node is in `client`, the server node in `server`. This file
//! holds the node enum, the milestone labels, the one driver both pump
//! their connections through, and the one-slot cache the server builds
//! responses in.

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

/// The last response a server built. One slot, keyed by the body
/// length the request named (all a response depends on besides the
/// server's one HTTP flavour): a server asked for the same object again
/// — what a CDN edge sees — hands out a clone of the same storage, one
/// asked for alternating sizes rebuilds each time. It never holds more
/// than one response, however many sizes are asked for.
#[derive(Debug, Default)]
struct ResponseCache {
    last: Option<(usize, Bytes)>,
}

impl ResponseCache {
    /// The encoded `http` response carrying `body_len` body bytes.
    fn get(&mut self, http: HttpVersion, body_len: usize) -> Bytes {
        match &self.last {
            Some((len, response)) if *len == body_len => response.clone(),
            _ => {
                let response = match http {
                    HttpVersion::H1 => h1::H1Response::ok(body_len).to_bytes(),
                    HttpVersion::H3 => h3::response_bytes(body_len),
                };
                self.last = Some((body_len, response.clone()));
                response
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_cache_is_one_slot_keyed_by_body_length() {
        for http in [HttpVersion::H1, HttpVersion::H3] {
            let mut cache = ResponseCache::default();
            let first = cache.get(http, 1000);
            let other = cache.get(http, 2000);
            let again = cache.get(http, 1000);
            assert!(first.ends_with(&h1::body_bytes(1000)) && first.len() < 1100);
            assert!(other.ends_with(&h1::body_bytes(2000)) && other.len() > 2000);
            // A different size took the slot: the same bytes, built anew.
            assert_eq!(again, first);
            assert_ne!(again.as_ptr(), first.as_ptr());
            // The next session asking for the same size shares storage.
            assert_eq!(cache.get(http, 1000).as_ptr(), again.as_ptr());
        }
    }
}
