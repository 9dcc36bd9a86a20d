//! The server node: one listener hosting every peer's connection behind
//! the shared [`ServerEngine`], with its admission records, sessions and
//! fault timeline.

use std::cell::RefCell;
use std::collections::HashMap;
use std::mem::take;
use std::rc::Rc;

use rq_http::{h1, h3, HttpVersion};
use rq_quic::{
    derived_cid, server_busy_datagram, stateless_reset_datagram, stateless_retry_datagram,
    stream_id, AcceptOutcome, ConnEvent, Connection, EndpointConfig, ServerEngine, CID_KIND_RETRY,
};
use rq_recovery::SeqMap;
use rq_sim::{Context, FaultTimeline, Node, NodeId, SimDuration, SimTime};
use rq_wire::{Bytes, ConnectionId, Header, PacketType};

use super::{milestones, ConnDriver, ResponseCache};

/// Timer token kind bit: the certificate store answered.
const TIMER_KIND_CERT: u64 = 1;

/// Timer token of the server's fault timeline: the process crashes.
/// The high bit keeps it clear of the per-connection tokens (peer keys
/// are sim node indices and never come near it).
const FAULT_CRASH: u64 = 1 << 63;

/// Encodes a per-connection timer token: the peer key in the high bits,
/// the timer kind in the low bit. Token values never influence event
/// ordering (the engine orders by time and push sequence), they only
/// route the wakeup back to the right connection.
fn conn_token(key: usize) -> u64 {
    (key as u64) << 1
}

fn cert_token(key: usize) -> u64 {
    ((key as u64) << 1) | TIMER_KIND_CERT
}

/// The server's word on how one peer's connection went. Latched: a flag
/// once set stays set through server crashes and client reconnects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerOutcome {
    /// An Initial of the peer's was load-shed (admission refused),
    /// explicit busy refusals under `CloseWithBackoff` included.
    pub shed: bool,
    /// The peer's connection closed at the server.
    pub closed: bool,
    /// The peer was Retry-deferred under overload and later admitted
    /// with a valid token.
    pub retried: bool,
    /// A server crash dropped the peer's connection state mid-flight.
    pub reset: bool,
}

/// Peer records a renewed server keeps room for: a single pair's, with
/// room to spare. A loaded server's records are kilobytes per hundred
/// peers, and the next server may be small.
const PEER_ROOM: usize = 4;

/// Driver-facing control surface of a [`ServerNode`]: what whoever
/// orchestrates the simulation tells the server and reads back from it.
#[derive(Debug, Default)]
pub struct ServerControl {
    /// Per-peer server connection seed (keyed by the peer's `NodeId`
    /// index). Peers without an entry use the node's own seed XOR
    /// `0x5EED`, which is exactly the legacy single-pair derivation.
    /// Only ever looked up by key, so its order never shows, and a cleared
    /// map keeps its storage.
    pub conn_seeds: HashMap<usize, u64>,
    /// Everything the server node keeps per peer that ever knocked,
    /// indexed by `NodeId` index (dense, so a plain table: the driver
    /// reads an outcome per live connection per sweep). The node writes
    /// it, the driver reads the outcome.
    peers: Vec<Option<PeerRecord>>,
}

impl ServerControl {
    /// How the connection of the peer with `NodeId` index `key` went
    /// (all clear for a peer that never knocked).
    pub fn outcome(&self, key: usize) -> PeerOutcome {
        let peer = self.peers.get(key).and_then(Option::as_ref);
        peer.map(|p| p.outcome).unwrap_or_default()
    }

    fn peer_mut(&mut self, key: usize) -> Option<&mut PeerRecord> {
        self.peers.get_mut(key)?.as_mut()
    }
}

/// One peer's record at the server.
#[derive(Debug)]
struct PeerRecord {
    /// Seed of the peer's server-side connections (looked up in
    /// `conn_seeds` on the first knock).
    conn_seed: u64,
    outcome: PeerOutcome,
    /// The server process's memory of the peer's current connection
    /// attempt. A crash wipes it and a reconnect replaces it; a peer
    /// without one is a stranger to admission.
    session: Option<Session>,
}

/// Where admission left a peer's current attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Standing {
    /// A connection was created (the driver may have retired it since).
    Admitted,
    /// Refused: the server stays stateless for this attempt.
    Shed,
    /// Retry-deferred under overload: admission is retried on tokened
    /// re-knocks.
    Deferred,
}

/// One request stream's server-side state.
#[derive(Debug, Default)]
struct StreamReq {
    buf: Vec<u8>,
    responded: bool,
}

/// Per-attempt application state (one HTTP exchange per request stream).
#[derive(Debug)]
struct Session {
    node: NodeId,
    standing: Standing,
    /// DCID of the Initial that led to this admission decision; a
    /// *different* DCID from the same node is a fresh connection attempt
    /// (reconnect), not a retransmit.
    dcid: ConnectionId,
    /// Request reassembly + response latch, keyed by client bidi stream
    /// ID (0, 4, 8, …).
    requests: SeqMap<StreamReq>,
    settings_sent: bool,
    cert_timer_at: Option<SimTime>,
    /// The deadline the connection's last pump armed ([`ConnDriver`]);
    /// `None` until the admitted connection's first pump.
    armed: Option<SimTime>,
}

impl Session {
    /// Opens the H3 control stream once the 1-RTT keys exist.
    fn maybe_send_settings(&mut self, conn: &mut Connection, http: HttpVersion) {
        if !self.settings_sent && http == HttpVersion::H3 && conn.app_keys_available() {
            self.settings_sent = true;
            let prelude = h3::control_stream_prelude();
            conn.send_stream_data_owned(stream_id::SERVER_UNI_0, prelude, false);
        }
    }

    /// The certificate store answered: hand the connection its
    /// certificate (the one place that happens, Δt = 0 included).
    fn deliver_certificate(
        &mut self,
        conn: &mut Connection,
        ctx: &mut Context<'_>,
        http: HttpVersion,
    ) {
        let (me, now) = (ctx.me(), ctx.now());
        self.cert_timer_at = None;
        ctx.trace().milestone(me, now, milestones::CERT_READY);
        conn.certificate_ready(now);
        self.maybe_send_settings(conn, http);
    }

    /// Request bytes arrived on stream `id`: the body length its path
    /// names, the first time the request parses, for the node to answer.
    fn on_request_data(&mut self, http: HttpVersion, id: u64, data: &[u8]) -> Option<usize> {
        let req = self.requests.get_or_insert_with(id, StreamReq::default);
        if req.responded {
            return None;
        }
        // The body length the request's path names, once it parses.
        let body_len = |request: &[u8]| {
            let len = |path: &str| path.trim_start_matches('/').parse().ok();
            match http {
                HttpVersion::H1 => h1::H1Request::decode(request).and_then(|r| len(r.path)),
                HttpVersion::H3 => h3::parse_request_path(request).and_then(len),
            }
        };
        // A request that arrives whole is read where it arrived.
        let whole = if req.buf.is_empty() {
            body_len(data)
        } else {
            None
        };
        let body_len = whole.or_else(|| {
            req.buf.extend_from_slice(data);
            body_len(&req.buf)
        })?;
        // Answered: the request bytes have said all they had to.
        *req = StreamReq {
            buf: Vec::new(),
            responded: true,
        };
        Some(body_len)
    }
}

/// Server endpoint node: one shared listener hosting any number of
/// connections, each serving `GET /<n>`. Incoming datagrams are demuxed
/// by sender `NodeId`; admission and cost accounting live in the
/// [`ServerEngine`], everything else the node knows about a
/// peer in that peer's record in the [`ServerControl`].
/// A callback borrows both once and works on the connection and the
/// record it resolved.
pub struct ServerNode {
    /// The server engine (connection table + accounting), exposed so
    /// the runner can read connections and aggregates. A shared cell
    /// only because `rq-layers` keeps a clone of it.
    pub engine: Rc<RefCell<ServerEngine>>,
    /// Driver control surface (per-peer seeds and outcomes), a shared
    /// cell for the same reason.
    pub control: Rc<RefCell<ServerControl>>,
    http: HttpVersion,
    /// Frontend ↔ certificate store delay Δt.
    cert_delay: SimDuration,
    seed: u64,
    /// Scheduled crashes (empty in fault-free runs).
    faults: FaultTimeline,
    /// The storage every response is a view of (a server built in a
    /// retired one's storage keeps its).
    responses: ResponseCache,
}

impl ServerNode {
    /// Creates a single-pair server with the given endpoint config and
    /// Δt and no concurrency limit. This is the legacy constructor — its
    /// wire behaviour is identical to the one-connection server it
    /// replaces.
    pub fn new(cfg: EndpointConfig, http: HttpVersion, cert_delay: SimDuration, seed: u64) -> Self {
        let engine = ServerEngine::new(cfg, usize::MAX);
        ServerNode::with_engine_in(None, engine, http, cert_delay, seed)
    }

    /// Creates a server around `engine`, configured by the caller (the
    /// many-connection driver's entry point), with an empty control
    /// block, in the storage of the retired server `spare` if there is
    /// one: its engine and control cells, unless something else shares
    /// them, the control's tables, cleared, and its response storage.
    /// Nothing else of `spare` carries over. `spare`'s engine is expected
    /// to have lent its storage to `engine` already
    /// ([`ServerEngine::new_in`]).
    pub(crate) fn with_engine_in(
        spare: Option<&mut ServerNode>,
        engine: ServerEngine,
        http: HttpVersion,
        cert_delay: SimDuration,
        seed: u64,
    ) -> Self {
        let (engine, control, responses) = match spare {
            Some(old) => {
                let engine = match Rc::get_mut(&mut old.engine) {
                    Some(cell) => {
                        *cell.get_mut() = engine;
                        Rc::clone(&old.engine)
                    }
                    None => Rc::new(RefCell::new(engine)),
                };
                let control = match Rc::get_mut(&mut old.control) {
                    Some(cell) => {
                        // Named field by field, so a new field needs a
                        // decision here.
                        let ServerControl { conn_seeds, peers } = cell.get_mut();
                        conn_seeds.clear();
                        peers.clear();
                        peers.shrink_to(PEER_ROOM);
                        Rc::clone(&old.control)
                    }
                    None => Rc::default(),
                };
                (engine, control, take(&mut old.responses))
            }
            None => (
                Rc::new(RefCell::new(engine)),
                Rc::default(),
                ResponseCache::default(),
            ),
        };
        ServerNode {
            engine,
            control,
            http,
            cert_delay,
            seed,
            faults: FaultTimeline::none(),
            responses,
        }
    }

    /// Arms the server with a fault timeline (its crashes).
    pub fn with_faults(mut self, faults: FaultTimeline) -> Self {
        self.faults = faults;
        self
    }

    /// Decides whether a datagram from the peer node `from`, recorded in
    /// `peer`, whose first packet header is `header` (`None` if it does
    /// not parse), is for a connection of ours — running the engine's
    /// admission path for strangers and reconnecting peers (the engine
    /// keys a peer by its `NodeId` index), and answering refusals that
    /// deserve an answer.
    fn admits(
        &self,
        engine: &mut ServerEngine,
        peer: &mut PeerRecord,
        from: NodeId,
        header: Option<&Header>,
        ctx: &mut Context<'_>,
    ) -> bool {
        let key = from.index() as u64;
        let Some(session) = peer.session.as_mut() else {
            // A datagram without a parseable header fails closed: it is
            // dropped before admission, leaving no session and no arrival
            // behind, so the peer's real Initial still finds the door open.
            return header.is_some_and(|h| self.admit_new(engine, peer, from, h, ctx));
        };
        // An Initial under a *different* DCID than the one admission saw
        // is a fresh connection attempt (a reconnect), not a retransmit.
        let reconnect = header.filter(|h| h.ty == PacketType::Initial && h.dcid != session.dcid);
        match session.standing {
            Standing::Admitted => {
                // A tokenless reconnect whose DCID the live connection
                // does not know either: the old attempt gave up
                // client-side. Retire the stale state and re-run
                // admission as a fresh arrival.
                let stale = reconnect.filter(|h| {
                    h.token.is_empty()
                        && engine.conn_mut(key).is_some_and(|conn| {
                            h.dcid != conn.original_dcid() && h.dcid != conn.local_cid()
                        })
                });
                if let Some(h) = stale {
                    engine.retire(key, false);
                    return self.admit_new(engine, peer, from, h, ctx);
                }
                // Late datagrams for a connection the driver has retired
                // since go nowhere: they must not re-enter admission and
                // be double-counted as fresh arrivals.
                true
            }
            Standing::Deferred => {
                // Only a tokened Initial re-enters admission; everything
                // else (late retransmits of the tokenless one) stays
                // stateless. Initial keys derive from the *first*
                // Initial's DCID (which the session remembers) — the
                // post-Retry Initial addresses the Retry's SCID instead.
                // While the server stays over capacity the client's PTO
                // loop re-sends the tokened Initial until a slot frees.
                let tokened =
                    header.is_some_and(|h| h.ty == PacketType::Initial && !h.token.is_empty());
                let seed = peer.conn_seed;
                let admitted = tokened
                    && engine.accept(key, seed, session.dcid, true, true)
                        == AcceptOutcome::Accepted;
                if admitted {
                    session.standing = Standing::Admitted;
                    peer.outcome.retried = true;
                }
                admitted
            }
            // A *reconnect* goes back into admission; retransmits of the
            // shed Initial stay dropped, preserving once-shed-always-shed
            // for them.
            Standing::Shed => reconnect.is_some_and(|h| self.admit_new(engine, peer, from, h, ctx)),
        }
    }

    /// Runs a previously unseen Initial, whose first header is `header`,
    /// through the engine's admission valve and opens the peer's session
    /// with the outcome.
    fn admit_new(
        &self,
        engine: &mut ServerEngine,
        peer: &mut PeerRecord,
        from: NodeId,
        header: &Header,
        ctx: &mut Context<'_>,
    ) -> bool {
        let key = from.index() as u64;
        // Derive the Initial keys from the client's DCID.
        let (dcid, has_token) = (header.dcid, !header.token.is_empty());
        let seed = peer.conn_seed;
        let standing = match engine.accept(key, seed, dcid, has_token, false) {
            AcceptOutcome::Accepted => Standing::Admitted,
            // Once shed, always shed: the server stays stateless for
            // this attempt, so retransmitted Initials cannot sneak in
            // after capacity frees up.
            AcceptOutcome::Shed => Standing::Shed,
            // Stateless Retry: cheap admission valve. The client burns
            // an RTT echoing the token; by then capacity may have freed
            // up.
            AcceptOutcome::RetryDefer => {
                let server_cid = derived_cid(self.seed, CID_KIND_RETRY, key);
                ctx.send(from, stateless_retry_datagram(header.scid, server_cid));
                Standing::Deferred
            }
            AcceptOutcome::Busy => {
                ctx.send(from, server_busy_datagram());
                Standing::Shed
            }
        };
        peer.outcome.shed |= standing == Standing::Shed;
        peer.session = Some(Session {
            node: from,
            standing,
            dcid,
            requests: SeqMap::new(),
            settings_sent: false,
            cert_timer_at: None,
            armed: None,
        });
        standing == Standing::Admitted
    }

    /// One callback's worth of work on the connection behind `key`, the
    /// peer recorded in `peer`: `act` on it, handle the events that
    /// produced if it says there may be any, and pump. Nothing happens
    /// without a live connection (retired, or lost to a crash).
    fn drive(
        &mut self,
        engine: &mut ServerEngine,
        peer: &mut PeerRecord,
        ctx: &mut Context<'_>,
        key: usize,
        act: impl FnOnce(&mut Connection, &mut Session, &mut Context<'_>) -> bool,
    ) {
        let (Some(conn), Some(session)) = (engine.conn_mut(key as u64), peer.session.as_mut())
        else {
            return;
        };
        let handshaking = !conn.is_established();
        if act(conn, session, ctx) {
            self.drain_events(conn, session, &mut peer.outcome, ctx, key);
        }
        session.maybe_send_settings(conn, self.http);
        ConnDriver::pump(conn, &mut session.armed, ctx, session.node, conn_token(key));
        // The handshake's cost is billed in the callback that completes it.
        if handshaking && conn.is_established() {
            engine.note_handshake_outcome(key as u64);
        }
    }

    fn drain_events(
        &mut self,
        conn: &mut Connection,
        session: &mut Session,
        outcome: &mut PeerOutcome,
        ctx: &mut Context<'_>,
        key: usize,
    ) {
        let me = ctx.me();
        let now = ctx.now();
        while let Some(ev) = conn.poll_event() {
            match ev {
                ConnEvent::CertificateNeeded => {
                    ctx.trace().milestone(me, now, milestones::CERT_REQUESTED);
                    if self.cert_delay == SimDuration::ZERO {
                        session.deliver_certificate(conn, ctx, self.http);
                    } else {
                        let at = now + self.cert_delay;
                        session.cert_timer_at = Some(at);
                        ctx.set_timer(at, cert_token(key));
                    }
                }
                // Any client-initiated bidi stream (0, 4, 8, …) carries
                // a request, answered from the node's responses.
                ConnEvent::StreamData { id, data, .. } if id % 4 == 0 => {
                    if let Some(len) = session.on_request_data(self.http, id, &data) {
                        let response = self.responses.get(self.http, len);
                        conn.send_stream_data_owned(id, response, true);
                    }
                }
                ConnEvent::Closed { .. } => {
                    ctx.trace().milestone(me, now, milestones::CLOSED);
                    outcome.closed = true;
                }
                _ => {}
            }
        }
    }
}

impl Node for ServerNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for at in &self.faults.crashes {
            ctx.set_timer(*at, FAULT_CRASH);
        }
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &[u8]) {
        self.on_datagram_owned(ctx, from, Bytes::copy_from_slice(payload));
    }

    fn on_datagram_owned(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        let now = ctx.now();
        let (engine, control) = (Rc::clone(&self.engine), Rc::clone(&self.control));
        let (engine, control) = (&mut *engine.borrow_mut(), &mut *control.borrow_mut());
        // Admission reads only the first packet's header. A datagram is
        // demuxed by its sender's NodeId: a migrated client changes its
        // path and CID, never its node, so no CID index is needed.
        let header = Header::decode(&mut &payload[..], 8).ok().map(|(h, _)| h);
        let key = from.index();
        if control.peers.len() <= key {
            control.peers.resize_with(key + 1, || None);
        }
        let seeds = &control.conn_seeds;
        let peer = control.peers[key].get_or_insert_with(|| PeerRecord {
            conn_seed: seeds.get(&key).copied().unwrap_or(self.seed ^ 0x5EED),
            outcome: PeerOutcome::default(),
            session: None,
        });
        if self.admits(engine, peer, from, header.as_ref(), ctx) {
            let path = ctx.path();
            self.drive(engine, peer, ctx, key, |conn, _, ctx| {
                conn.handle_datagram_on_path(now, payload, path, ctx.spares());
                true
            });
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let (engine, control) = (Rc::clone(&self.engine), Rc::clone(&self.control));
        let (engine, control) = (&mut *engine.borrow_mut(), &mut *control.borrow_mut());
        match token {
            FAULT_CRASH => {
                let orphans = engine.crash_and_restart();
                for k in orphans {
                    let Some(peer) = control.peer_mut(k as usize) else {
                        continue;
                    };
                    peer.outcome.reset = true;
                    if let Some(session) = &peer.session {
                        // Stateless-reset stand-in: the restarted process
                        // no longer recognises the CID, so it answers the
                        // orphan's next-arriving packets out-of-band.
                        let reset = stateless_reset_datagram(ConnectionId::from_u64(k));
                        ctx.send(session.node, reset);
                    }
                }
                // A restarted process forgets shed/deferred bookkeeping
                // too — every session is gone with the rest of it.
                for peer in control.peers.iter_mut().flatten() {
                    peer.session = None;
                }
            }
            _ => {
                let key = (token >> 1) as usize;
                let Some(peer) = control.peer_mut(key) else {
                    return;
                };
                if token & TIMER_KIND_CERT != 0 {
                    // The certificate store answered, unless a crash or a
                    // reconnect has replaced the attempt that asked.
                    let (now, http) = (ctx.now(), self.http);
                    self.drive(engine, peer, ctx, key, |conn, session, ctx| {
                        if session.cert_timer_at.is_some_and(|at| at <= now) {
                            session.deliver_certificate(conn, ctx, http);
                        }
                        false
                    });
                    return;
                }
                // A peer whose connection is gone (retired, or lost to a
                // crash) has nothing to wake.
                let (Some(session), Some(conn)) = (&peer.session, engine.conn_mut(key as u64))
                else {
                    return;
                };
                if ConnDriver::wake(conn, session.armed, ctx, token) {
                    self.drive(engine, peer, ctx, key, |_, _, _| true);
                }
            }
        }
    }

    fn name(&self) -> &str {
        "server"
    }
}
