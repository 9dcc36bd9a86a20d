//! The server node: one listener hosting every peer's connection behind
//! the shared [`ServerEngine`], with its admission records, sessions and
//! fault timeline.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rq_http::{h1, h3, HttpVersion};
use rq_quic::{
    derived_cid, server_busy_datagram, stateless_reset_datagram, stateless_retry_datagram,
    stream_id, AcceptOutcome, ConnEvent, Connection, EndpointConfig, ServerEngine, CID_KIND_RETRY,
};
use rq_recovery::SeqMap;
use rq_sim::{Context, FaultTimeline, Node, NodeId, SimDuration, SimTime};
use rq_tls::TicketKeySchedule;
use rq_wire::{Bytes, ConnectionId, Header, PacketType};

use super::{milestones, ConnDriver, ResponseCache};

/// Timer token kind bit: the certificate store answered.
const TIMER_KIND_CERT: u64 = 1;

/// Timer tokens of the server's fault timeline: the process crashes,
/// freezes, thaws. The high bit keeps them clear of the per-connection
/// tokens (peer keys are sim node indices and never come near it).
const FAULT_CRASH: u64 = 1 << 63;
const FAULT_FREEZE: u64 = FAULT_CRASH | 1;
const FAULT_THAW: u64 = FAULT_CRASH | 2;

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

/// Driver-facing control surface of a [`ServerNode`], shared via
/// `Rc<RefCell<..>>` with whoever orchestrates the simulation.
#[derive(Debug, Default)]
pub struct ServerControl {
    /// Per-peer server connection seed (keyed by the peer's `NodeId`
    /// index). Peers without an entry use the node's own seed XOR
    /// `0x5EED`, which is exactly the legacy single-pair derivation.
    pub conn_seeds: BTreeMap<usize, u64>,
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
}

impl Session {
    /// Opens the H3 control stream once the 1-RTT keys exist.
    fn maybe_send_settings(&mut self, conn: &mut Connection, http: HttpVersion) {
        if !self.settings_sent && http == HttpVersion::H3 && conn.app_keys_available() {
            self.settings_sent = true;
            let prelude = h3::control_stream_prelude();
            conn.send_stream_data(stream_id::SERVER_UNI_0, &prelude, false);
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

    /// Request bytes arrived on stream `id`: once the request parses,
    /// answer it with a body of as many bytes as its path names, taken
    /// from `responses`.
    fn on_request_data(
        &mut self,
        conn: &mut Connection,
        http: HttpVersion,
        responses: &mut ResponseCache,
        id: u64,
        data: &[u8],
    ) {
        let req = self.requests.get_or_insert_with(id, StreamReq::default);
        if req.responded {
            return;
        }
        req.buf.extend_from_slice(data);
        let path = match http {
            HttpVersion::H1 => h1::H1Request::decode(&req.buf).map(|r| r.path),
            HttpVersion::H3 => h3::parse_request_path(&req.buf),
        };
        let Some(body_len) = path.and_then(|p| p.trim_start_matches('/').parse().ok()) else {
            return;
        };
        // Answered: the request bytes have said all they had to.
        *req = StreamReq {
            buf: Vec::new(),
            responded: true,
        };
        conn.send_stream_data_owned(id, responses.get(http, body_len), true);
    }
}

/// Server endpoint node: one shared listener hosting any number of
/// connections, each serving `GET /<n>`. Incoming datagrams are demuxed
/// by sender `NodeId`; admission, ticket-key epochs, and cost accounting
/// live in the shared [`ServerEngine`], everything else the node knows
/// about a peer in that peer's record in the shared [`ServerControl`].
/// A callback borrows both once and works on the connection and the
/// record it resolved.
pub struct ServerNode {
    /// The shared server engine (connection table + accounting), exposed
    /// so the runner can read connections and aggregates after the run.
    pub engine: Rc<RefCell<ServerEngine>>,
    /// Driver control surface (per-peer seeds and outcomes).
    pub control: Rc<RefCell<ServerControl>>,
    http: HttpVersion,
    /// Frontend ↔ certificate store delay Δt.
    cert_delay: SimDuration,
    seed: u64,
    /// Scheduled crash/freeze events (empty in fault-free runs).
    faults: FaultTimeline,
    /// Crashes also rotate away old ticket-key epochs, so resumption
    /// tickets from before the crash degrade to full handshakes.
    forget_epochs: bool,
    /// The server process is frozen: datagrams are dropped and timers
    /// are swallowed until the thaw event. (A freeze's thaw timer is
    /// armed at start-up, so it fires ahead of anything else due at the
    /// instant the freeze ends.)
    frozen: bool,
    /// The response every session asking for the same size is handed.
    responses: ResponseCache,
}

/// One datagram's sender, as admission sees it.
#[derive(Clone, Copy)]
struct Knock {
    /// The engine's key for the sender: its `NodeId` index.
    key: u64,
    from: NodeId,
    /// Arrival time in whole virtual seconds (selects the ticket key).
    now_secs: u64,
}

impl ServerNode {
    /// Creates a single-pair server with the given endpoint config and
    /// Δt: a fixed ticket key (the config's own), no concurrency limit.
    /// This is the legacy constructor — its wire behaviour is identical
    /// to the one-connection server it replaces.
    pub fn new(cfg: EndpointConfig, http: HttpVersion, cert_delay: SimDuration, seed: u64) -> Self {
        let schedule = TicketKeySchedule::fixed(cfg.ticket_key);
        let engine = ServerEngine::new(cfg, schedule, usize::MAX);
        ServerNode::with_engine(
            Rc::new(RefCell::new(engine)),
            Rc::new(RefCell::new(ServerControl::default())),
            http,
            cert_delay,
            seed,
        )
    }

    /// Creates a server around an externally owned engine and control
    /// block (the many-connection driver's entry point).
    pub fn with_engine(
        engine: Rc<RefCell<ServerEngine>>,
        control: Rc<RefCell<ServerControl>>,
        http: HttpVersion,
        cert_delay: SimDuration,
        seed: u64,
    ) -> Self {
        ServerNode {
            engine,
            control,
            http,
            cert_delay,
            seed,
            faults: FaultTimeline::none(),
            forget_epochs: false,
            frozen: false,
            responses: ResponseCache::default(),
        }
    }

    /// Arms the server with a fault timeline (crashes and freezes);
    /// crashes also forget old ticket-key epochs if `forget_epochs`.
    pub fn with_faults(mut self, faults: FaultTimeline, forget_epochs: bool) -> Self {
        self.faults = faults;
        self.forget_epochs = forget_epochs;
        self
    }

    /// Decides whether a datagram from the peer recorded in `peer`, whose
    /// first packet header is `header` (`None` if it does not parse), is
    /// for a connection of ours — running the engine's admission path
    /// for strangers and reconnecting peers, and answering refusals that
    /// deserve an answer.
    fn admits(
        &self,
        engine: &mut ServerEngine,
        peer: &mut PeerRecord,
        knock: Knock,
        header: Option<&Header>,
        ctx: &mut Context<'_>,
    ) -> bool {
        let Some(session) = peer.session.as_mut() else {
            // A datagram without a parseable header fails closed: it is
            // dropped before admission, leaving no session and no arrival
            // behind, so the peer's real Initial still finds the door open.
            return header.is_some_and(|h| self.admit_new(engine, peer, knock, h, ctx));
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
                        && engine.conn_mut(knock.key).is_some_and(|conn| {
                            h.dcid != conn.original_dcid() && h.dcid != conn.local_cid()
                        })
                });
                if let Some(h) = stale {
                    engine.retire(knock.key, false);
                    return self.admit_new(engine, peer, knock, h, ctx);
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
                    && engine.accept(knock.key, seed, session.dcid, knock.now_secs, true, true)
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
            Standing::Shed => {
                reconnect.is_some_and(|h| self.admit_new(engine, peer, knock, h, ctx))
            }
        }
    }

    /// Runs a previously unseen Initial, whose first header is `header`,
    /// through the engine's admission valve and opens the peer's session
    /// with the outcome.
    fn admit_new(
        &self,
        engine: &mut ServerEngine,
        peer: &mut PeerRecord,
        knock: Knock,
        header: &Header,
        ctx: &mut Context<'_>,
    ) -> bool {
        // Derive the Initial keys from the client's DCID.
        let (dcid, has_token) = (header.dcid, !header.token.is_empty());
        let seed = peer.conn_seed;
        let standing = match engine.accept(knock.key, seed, dcid, knock.now_secs, has_token, false)
        {
            AcceptOutcome::Accepted => Standing::Admitted,
            // Once shed, always shed: the server stays stateless for
            // this attempt, so retransmitted Initials cannot sneak in
            // after capacity frees up.
            AcceptOutcome::Shed => Standing::Shed,
            // Stateless Retry: cheap admission valve. The client burns
            // an RTT echoing the token; by then capacity may have freed
            // up.
            AcceptOutcome::RetryDefer => {
                let server_cid = derived_cid(self.seed, CID_KIND_RETRY, knock.key);
                ctx.send(
                    knock.from,
                    stateless_retry_datagram(header.scid, server_cid),
                );
                Standing::Deferred
            }
            AcceptOutcome::Busy => {
                ctx.send(knock.from, server_busy_datagram());
                Standing::Shed
            }
        };
        peer.outcome.shed |= standing == Standing::Shed;
        peer.session = Some(Session {
            node: knock.from,
            standing,
            dcid,
            requests: SeqMap::new(),
            settings_sent: false,
            cert_timer_at: None,
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
        ConnDriver::pump(conn, ctx, session.node, conn_token(key));
        // The handshake's cost is billed in the callback that completes it.
        if handshaking && conn.is_established() {
            engine.note_handshake_outcome(key as u64);
        }
    }

    /// Runs what has gone due on the connection behind `key`: its
    /// certificate-store timer, and its own timers if `timers` (the
    /// thaw, which drives every connection).
    fn catch_up(
        &mut self,
        engine: &mut ServerEngine,
        peer: &mut PeerRecord,
        ctx: &mut Context<'_>,
        key: usize,
        timers: bool,
    ) {
        let (now, http) = (ctx.now(), self.http);
        self.drive(engine, peer, ctx, key, |conn, session, ctx| {
            if session.cert_timer_at.is_some_and(|at| at <= now) {
                session.deliver_certificate(conn, ctx, http);
            }
            timers && ConnDriver::fire_if_due(conn, now).is_ok()
        });
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
                // a request.
                ConnEvent::StreamData { id, data, .. } if id % 4 == 0 => {
                    session.on_request_data(conn, self.http, &mut self.responses, id, &data);
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
        for f in &self.faults.freezes {
            ctx.set_timer(f.start, FAULT_FREEZE);
            ctx.set_timer(f.end, FAULT_THAW);
        }
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &[u8]) {
        self.on_datagram_owned(ctx, from, Bytes::copy_from_slice(payload));
    }

    fn on_datagram_owned(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        let now = ctx.now();
        if self.frozen {
            // Frozen process: the kernel buffer overflows, packets die.
            return;
        }
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
        let knock = Knock {
            key: key as u64,
            from,
            now_secs: now.as_nanos() / 1_000_000_000,
        };
        if self.admits(engine, peer, knock, header.as_ref(), ctx) {
            let path = ctx.path();
            self.drive(engine, peer, ctx, key, |conn, _, _| {
                conn.handle_datagram_on_path(now, payload, path);
                true
            });
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let (engine, control) = (Rc::clone(&self.engine), Rc::clone(&self.control));
        let (engine, control) = (&mut *engine.borrow_mut(), &mut *control.borrow_mut());
        match token {
            FAULT_CRASH => {
                let orphans = engine.crash_and_restart(self.forget_epochs);
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
            FAULT_FREEZE => self.frozen = true,
            FAULT_THAW => {
                self.frozen = false;
                // Catch up on everything that went due while frozen, in
                // key order.
                for k in engine.active_keys() {
                    if let Some(peer) = control.peer_mut(k as usize) {
                        self.catch_up(engine, peer, ctx, k as usize, true);
                    }
                }
            }
            // Timers are swallowed while frozen; the thaw re-drives
            // every overdue connection.
            _ if self.frozen => {}
            _ => {
                let key = (token >> 1) as usize;
                if let Some(peer) = control.peer_mut(key) {
                    if token & TIMER_KIND_CERT != 0 {
                        self.catch_up(engine, peer, ctx, key, false);
                    } else if peer.session.is_some()
                        && engine
                            .conn_mut(key as u64)
                            .is_some_and(|conn| ConnDriver::wake(conn, ctx, token))
                    {
                        self.drive(engine, peer, ctx, key, |_, _, _| true);
                    }
                }
            }
        }
    }

    fn name(&self) -> &str {
        "server"
    }
}
