//! Sim-node adapters wrapping QUIC connections with HTTP application logic.
//!
//! The client node issues one GET and records milestones
//! (`client_hello_sent`, `ttfb`, `response_complete`, `handshake_complete`,
//! `closed`); the server node hosts **many** connection state machines
//! behind one [`rq_quic::ServerEngine`] — each peer node is demuxed to its
//! own connection by sim `NodeId`, the collapsed stand-in for QUIC's
//! connection-ID routing. The single-pair scenarios of the paper are the
//! N = 1 case of the same code path. Both node types expose shared state
//! via `Rc<RefCell<..>>` so the runner can read qlog/status after (or
//! during) the simulation, and both drive their connections through the
//! one [`ConnDriver`].
//!
//! The client node is in `client`, the server node in `server`. This file
//! holds the milestone labels, the one driver both pump their connections
//! through, and the one-slot cache the server builds responses in.

use rq_http::{h1, h3, HttpVersion};
use rq_quic::Connection;
use rq_sim::{Context, NodeId, SimTime};
use rq_wire::Bytes;

mod client;
mod server;

pub use client::{ClientNode, ClientStatus};
pub use server::{PeerOutcome, ServerControl, ServerNode};

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
    /// Sends every datagram `conn` has ready to `peer`, then arms its
    /// next deadline under `token` (one already past fires "now") and
    /// stores it in `armed`.
    fn pump(
        conn: &mut Connection,
        armed: &mut Option<SimTime>,
        ctx: &mut Context<'_>,
        peer: NodeId,
        token: u64,
    ) {
        let now = ctx.now();
        while let Some(datagram) = conn.poll_transmit(now) {
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
        let fired = Self::fire_due(conn, armed, ctx.now());
        if let (false, Some(deadline)) = (fired, armed) {
            ctx.set_timer(deadline, token);
        }
        fired
    }

    /// Runs `conn`'s timers if `armed`, the deadline its last pump armed,
    /// has come, and says whether it had. [`ConnDriver::wake`] for a
    /// timer wake-up; the server's thaw calls it directly, since its
    /// drive pumps and re-arms every connection anyway.
    fn fire_due(conn: &mut Connection, armed: Option<SimTime>, now: SimTime) -> bool {
        debug_assert_eq!(armed, conn.poll_timeout(), "stale armed deadline");
        let due = armed.is_some_and(|deadline| deadline <= now);
        if due {
            conn.handle_timeout(now);
        }
        due
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
