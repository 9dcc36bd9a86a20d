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

use std::cell::{LazyCell, RefCell};
use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;

use rq_http::{h1, h3, HttpVersion};
use rq_quic::{
    derived_cid, server_busy_datagram, stateless_reset_datagram, stateless_retry_datagram,
    stream_id, AcceptOutcome, ConnEvent, Connection, EndpointConfig, ServerEngine, CID_KIND_RETRY,
};
use rq_recovery::SeqMap;
use rq_sim::{Context, FaultTimeline, Node, NodeId, SimDuration, SimRng, SimTime};
use rq_tls::TicketKeySchedule;
use rq_wire::{Bytes, ConnectionId, Header, PacketType};

use crate::scenario::ReconnectPolicy;

/// Timer token: the connection's own timers.
const TOKEN_CONN: u64 = 1;
/// Timer token (client): a scheduled reconnect attempt fires.
const TOKEN_RECONNECT: u64 = 2;
/// Timer token kind bit: the certificate store answered.
const TIMER_KIND_CERT: u64 = 1;
/// Stream tag: client reconnect-backoff jitter draws.
const RECONNECT_STREAM: u64 = 0x2ECC_0;

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

/// Progress of one client connection, updated live by [`ClientNode`].
///
/// The many-connection driver reads these instead of trace milestones:
/// bulk runs switch trace recording off entirely, and a shared status
/// cell is how a retired connection's outcome survives node teardown.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientStatus {
    /// First datagram sent (the connection's t = 0).
    pub hello_at: Option<SimTime>,
    /// Handshake completed at the client.
    pub handshake_at: Option<SimTime>,
    /// First application-stream byte arrived.
    pub ttfb_at: Option<SimTime>,
    /// Full response received.
    pub complete_at: Option<SimTime>,
    /// The connection died (abort or close).
    pub closed_at: Option<SimTime>,
    /// Error code of the *first* death (reconnects don't overwrite it).
    pub close_code: Option<u64>,
    /// Completed reconnect attempts (0 = the first attempt served).
    pub attempts: u32,
    /// A reconnect is scheduled: the client is dead but not done.
    pub reconnect_pending: bool,
}

impl ClientStatus {
    /// The connection reached a terminal state (response, or death with
    /// no reconnect on the way).
    pub fn done(&self) -> bool {
        self.complete_at.is_some() || (self.closed_at.is_some() && !self.reconnect_pending)
    }
}

/// The one place a [`Connection`] is pumped and its timers are run:
/// whoever owns a connection (the client node its one, the server node
/// one per admitted peer) drives it through these two functions.
struct ConnDriver;

impl ConnDriver {
    /// Sends every datagram `conn` has ready to `peer`, then arms its
    /// next deadline under `token` (one already past fires "now").
    fn pump(conn: &mut Connection, ctx: &mut Context<'_>, peer: NodeId, token: u64) {
        let now = ctx.now();
        while let Some(datagram) = conn.poll_transmit(now) {
            ctx.send(peer, datagram);
        }
        if let Some(deadline) = conn.poll_timeout() {
            ctx.set_timer(deadline.max(now), token);
        }
    }

    /// Runs `conn`'s timers if its deadline has come. A wake-up armed
    /// for a deadline that has since moved is not due and does nothing.
    fn fire_if_due(conn: &mut Connection, now: SimTime) -> bool {
        let due = conn.poll_timeout().is_some_and(|deadline| deadline <= now);
        if due {
            conn.handle_timeout(now);
        }
        due
    }
}

/// Progress of one request stream at the client.
#[derive(Debug, Clone, Copy, Default)]
struct Response {
    /// Body bytes received so far.
    bytes: usize,
    /// The response completed.
    done: bool,
}

/// Client endpoint node: performs one HTTP GET over QUIC.
pub struct ClientNode {
    /// The QUIC connection (shared with the runner for post-run reads).
    pub conn: Rc<RefCell<Connection>>,
    /// The freshest NewSessionTicket the server issued on this
    /// connection (shared with the runner: the priming connection of a
    /// resumed scenario hands its ticket to the measured one).
    pub ticket: Rc<RefCell<Option<rq_tls::SessionTicket>>>,
    /// Live progress, shared with the many-connection driver.
    pub status: Rc<RefCell<ClientStatus>>,
    server: NodeId,
    http: HttpVersion,
    /// One entry per parallel request stream (client bidi IDs 0, 4, 8,
    /// …; stream ID / 4 is the index).
    responses: Vec<Response>,
    expected_body: usize,
    got_first_byte: bool,
    done: bool,
    /// Stop the whole simulation once this client finishes. True for the
    /// legacy single-pair runs (the sim *is* this connection); false when
    /// the client is one of many on a shared event loop.
    stop_when_done: bool,
    /// Endpoint config kept around to rebuild the connection on
    /// reconnect attempts.
    cfg: EndpointConfig,
    seed: u64,
    rtt_quirk_applies: bool,
    /// Reconnect policy; `None` (default) dies on the first close.
    reconnect: Option<ReconnectPolicy>,
    /// Seeded jitter stream, created lazily on the first reconnect so
    /// reconnect-free runs draw nothing.
    backoff_rng: Option<SimRng>,
}

/// Queues a GET for `/<file_size>` on each of the request streams
/// `streams` (indices into client bidi IDs 0, 4, 8, …); they ride in the
/// second client flight (or as 0-RTT early data).
fn queue_requests(
    conn: &mut Connection,
    http: HttpVersion,
    file_size: usize,
    streams: Range<usize>,
) {
    for i in streams {
        let path = format!("/{file_size}");
        let request = match http {
            HttpVersion::H1 => h1::H1Request::get(&path, "testbed.local").to_bytes(),
            HttpVersion::H3 => h3::request_bytes(&path, "testbed.local"),
        };
        conn.send_stream_data_owned(stream_id::CLIENT_BIDI_0 + 4 * i as u64, request, true);
    }
}

impl ClientNode {
    /// Creates a client that GETs `/<file_size>` using `http`.
    pub fn new(
        cfg: EndpointConfig,
        server: NodeId,
        http: HttpVersion,
        file_size: usize,
        seed: u64,
        rtt_quirk_applies: bool,
    ) -> Self {
        let mut conn = Connection::client(cfg.clone(), seed, rtt_quirk_applies);
        queue_requests(&mut conn, http, file_size, 0..1);
        ClientNode {
            conn: Rc::new(RefCell::new(conn)),
            ticket: Rc::new(RefCell::new(None)),
            status: Rc::new(RefCell::new(ClientStatus::default())),
            server,
            http,
            responses: vec![Response::default()],
            expected_body: file_size,
            got_first_byte: false,
            done: false,
            stop_when_done: true,
            cfg,
            seed,
            rtt_quirk_applies,
            reconnect: None,
            backoff_rng: None,
        }
    }

    /// Marks this client as one of many on a shared event loop: finishing
    /// (or dying) no longer stops the simulation.
    pub fn detached(mut self) -> Self {
        self.stop_when_done = false;
        self
    }

    /// Issues the request over `streams` parallel bidi streams (IDs 0, 4,
    /// 8, …), each fetching the full body. The response completes — and
    /// the milestone fires — only when every stream finished.
    pub fn with_streams(mut self, streams: usize) -> Self {
        assert!(streams >= 1, "at least one request stream");
        // Stream 0's request was queued by `new`; add the others.
        let (http, file_size) = (self.http, self.expected_body);
        queue_requests(&mut self.conn.borrow_mut(), http, file_size, 1..streams);
        self.responses.resize(streams, Response::default());
        self
    }

    /// Attaches a reconnect policy: when the connection dies short of a
    /// response, the client rebuilds it after a jittered exponential
    /// backoff, up to the policy's attempt cap.
    pub fn with_reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = Some(policy);
        self
    }

    /// Schedules the next reconnect attempt, if the policy allows one.
    fn try_schedule_reconnect(&mut self, ctx: &mut Context<'_>) -> bool {
        let attempts = self.status.borrow().attempts;
        let Some(policy) = self.reconnect.filter(|p| attempts < p.max_attempts) else {
            return false;
        };
        let seed = self.seed;
        let rng = self
            .backoff_rng
            .get_or_insert_with(|| SimRng::derive(seed, &[RECONNECT_STREAM]));
        let exp = attempts.min(20);
        let base = policy
            .base_backoff
            .as_nanos()
            .saturating_mul(1u64 << exp)
            .min(policy.max_backoff.as_nanos());
        let scaled = (base as f64 * (1.0 + policy.jitter * rng.gen_f64())) as u64;
        ctx.set_timer_after(SimDuration::from_nanos(scaled), TOKEN_RECONNECT);
        self.status.borrow_mut().reconnect_pending = true;
        true
    }

    /// Rebuilds the connection and re-issues the request (a reconnect
    /// timer fired). The new connection gets a fresh CID seed, so the
    /// server sees a brand-new arrival, not a retransmit.
    fn reconnect_now(&mut self, ctx: &mut Context<'_>) {
        let attempt = {
            let mut st = self.status.borrow_mut();
            st.reconnect_pending = false;
            st.closed_at = None;
            st.attempts += 1;
            st.attempts
        };
        let attempt_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt as u64);
        let mut conn = Connection::client(self.cfg.clone(), attempt_seed, self.rtt_quirk_applies);
        let streams = 0..self.responses.len();
        queue_requests(&mut conn, self.http, self.expected_body, streams);
        *self.conn.borrow_mut() = conn;
        self.responses.fill(Response::default());
        self.got_first_byte = false;
        self.drive(ctx, |_| false);
    }

    /// Records that the milestone `label` was reached now, in both of the
    /// client's records: its field of the status cell (the first time
    /// only) and the trace.
    fn mark(
        &self,
        ctx: &mut Context<'_>,
        label: &'static str,
        field: impl FnOnce(&mut ClientStatus) -> &mut Option<SimTime>,
    ) {
        let (me, now) = (ctx.me(), ctx.now());
        field(&mut self.status.borrow_mut()).get_or_insert(now);
        ctx.trace().milestone(me, now, label);
    }

    /// One callback's worth of work on the connection: `act` on it,
    /// handle the events that produced if it says there may be any, and
    /// pump.
    fn drive(&mut self, ctx: &mut Context<'_>, act: impl FnOnce(&mut Connection) -> bool) {
        let cell = Rc::clone(&self.conn);
        let conn = &mut *cell.borrow_mut();
        if act(conn) {
            self.drain_events(conn, ctx);
        }
        ConnDriver::pump(conn, ctx, self.server, TOKEN_CONN);
    }

    fn drain_events(&mut self, conn: &mut Connection, ctx: &mut Context<'_>) {
        while let Some(ev) = conn.poll_event() {
            match ev {
                ConnEvent::HandshakeComplete => {
                    self.mark(ctx, milestones::HANDSHAKE_COMPLETE, |st| {
                        &mut st.handshake_at
                    });
                }
                ConnEvent::HandshakeConfirmed => {
                    let (me, now) = (ctx.me(), ctx.now());
                    ctx.trace()
                        .milestone(me, now, milestones::HANDSHAKE_CONFIRMED);
                }
                ConnEvent::StreamData { data, fin, id } => {
                    if !data.is_empty() && !self.got_first_byte {
                        self.got_first_byte = true;
                        self.mark(ctx, milestones::TTFB, |st| &mut st.ttfb_at);
                    }
                    let request_stream = (id % 4 == 0)
                        .then(|| self.responses.get_mut((id / 4) as usize))
                        .flatten();
                    if let Some(response) = request_stream {
                        response.bytes += data.len();
                        response.done |= match self.http {
                            HttpVersion::H1 => fin && response.bytes >= self.expected_body,
                            HttpVersion::H3 => fin,
                        };
                        if !self.done && self.responses.iter().all(|r| r.done) {
                            self.done = true;
                            self.mark(ctx, milestones::RESPONSE_COMPLETE, |st| &mut st.complete_at);
                            if self.stop_when_done {
                                ctx.stop();
                            }
                        }
                    }
                }
                ConnEvent::Closed { error_code, .. } => {
                    self.mark(ctx, milestones::CLOSED, |st| {
                        st.close_code.get_or_insert(error_code);
                        &mut st.closed_at
                    });
                    if !self.done && self.try_schedule_reconnect(ctx) {
                        // A reconnect is on the way: not done yet.
                    } else if self.stop_when_done {
                        ctx.stop();
                    }
                }
                ConnEvent::TicketReceived(t) => {
                    *self.ticket.borrow_mut() = Some(t);
                }
                ConnEvent::CertificateNeeded => {}
            }
        }
    }
}

impl Node for ClientNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.mark(ctx, milestones::CLIENT_HELLO_SENT, |st| &mut st.hello_at);
        self.drive(ctx, |_| false);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &[u8]) {
        self.on_datagram_owned(ctx, from, Bytes::copy_from_slice(payload));
    }

    fn on_datagram_owned(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
        let (now, path) = (ctx.now(), ctx.path());
        self.drive(ctx, |conn| {
            conn.handle_datagram_on_path(now, payload, path);
            true
        });
    }

    fn on_path_change(&mut self, ctx: &mut Context<'_>, path: u64) {
        // The OS told us the route moved (deliberate migration): rotate
        // the DCID and start validating the new path.
        let now = ctx.now();
        self.drive(ctx, |conn| {
            conn.migrate(now, path);
            true
        });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let now = ctx.now();
        match token {
            TOKEN_RECONNECT if !self.done => self.reconnect_now(ctx),
            TOKEN_CONN => self.drive(ctx, |conn| ConnDriver::fire_if_due(conn, now)),
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "client"
    }
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

/// The first packet header of a datagram (`None` if it does not parse),
/// decoded when first looked at.
type FirstHeader<F> = LazyCell<Option<Header>, F>;

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
    /// Fault-aware servers additionally recognise reconnects (a fresh
    /// DCID from a known peer re-enters admission). Off by default so
    /// legacy scenarios keep their exact wire behaviour.
    fault_aware: bool,
    /// The server process is frozen: datagrams are dropped and timers
    /// are swallowed until the thaw event. (A freeze's thaw timer is
    /// armed at start-up, so it fires ahead of anything else due at the
    /// instant the freeze ends.)
    frozen: bool,
    /// Migration-aware servers additionally demux arriving datagrams by
    /// connection ID (the engine's CID index) before falling back to the
    /// sender's `NodeId`, so a client knocking from a new path under a
    /// rotated CID still lands on its connection. Off by default so
    /// legacy scenarios keep their exact behaviour.
    migration_aware: bool,
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
            fault_aware: false,
            frozen: false,
            migration_aware: false,
            responses: ResponseCache::default(),
        }
    }

    /// Turns on CID-based demux for migrated clients (scenarios with a
    /// [`crate::scenario::MigrationSpec`]).
    pub fn with_migration(mut self) -> Self {
        self.migration_aware = true;
        self
    }

    /// Arms the server with a fault timeline (crashes and freezes) and
    /// turns on fault-aware admission: reconnecting peers (fresh DCID)
    /// re-enter admission instead of being treated as retransmits. A
    /// timeline may be empty — give-up-only scenarios still want the
    /// reconnect handling.
    pub fn with_faults(mut self, faults: FaultTimeline, forget_epochs: bool) -> Self {
        self.faults = faults;
        self.forget_epochs = forget_epochs;
        self.fault_aware = true;
        self
    }

    /// Decides whether a datagram from the peer recorded in `peer`, whose
    /// first packet header is `header` (`None` if it does not parse), is
    /// for a connection of ours — running the engine's admission path
    /// for strangers (and, on fault-aware servers, for reconnecting
    /// peers) and answering refusals that deserve an answer.
    fn admits(
        &self,
        engine: &mut ServerEngine,
        peer: &mut PeerRecord,
        knock: Knock,
        header: &FirstHeader<impl FnOnce() -> Option<Header>>,
        ctx: &mut Context<'_>,
    ) -> bool {
        let Some(session) = peer.session.as_mut() else {
            return self.admit_new(engine, peer, knock, header.as_ref(), ctx);
        };
        // Fault-aware servers take an Initial under a *different* DCID
        // than the one admission saw for a fresh connection attempt
        // (the header stays unparsed on every other server).
        let reconnect = || {
            let h = self.fault_aware.then(|| header.as_ref()).flatten()?;
            (h.ty == PacketType::Initial && h.dcid != session.dcid).then_some(h)
        };
        match session.standing {
            Standing::Admitted => {
                // A tokenless reconnect whose DCID the live connection
                // does not know either: the old attempt gave up
                // client-side. Retire the stale state and re-run
                // admission as a fresh arrival.
                let stale = reconnect().filter(|h| h.token.is_empty()).is_some_and(|h| {
                    engine.conn_mut(knock.key).is_some_and(|conn| {
                        h.dcid != conn.original_dcid() && h.dcid != conn.local_cid()
                    })
                });
                if stale {
                    engine.retire(knock.key, false);
                    return self.admit_new(engine, peer, knock, header.as_ref(), ctx);
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
                let tokened = header
                    .as_ref()
                    .is_some_and(|h| h.ty == PacketType::Initial && !h.token.is_empty());
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
            // Fault-aware servers let a *reconnect* back into admission;
            // retransmits of the shed Initial stay dropped, preserving
            // once-shed-always-shed for them.
            Standing::Shed => {
                reconnect().is_some() && self.admit_new(engine, peer, knock, header.as_ref(), ctx)
            }
        }
    }

    /// Runs a previously unseen Initial through the engine's admission
    /// valve and opens the peer's session with the outcome.
    fn admit_new(
        &self,
        engine: &mut ServerEngine,
        peer: &mut PeerRecord,
        knock: Knock,
        header: Option<&Header>,
        ctx: &mut Context<'_>,
    ) -> bool {
        // Derive the Initial keys from the client's DCID (first header).
        let (dcid, scid, has_token) = header
            .map(|h| (h.dcid, h.scid, !h.token.is_empty()))
            .unwrap_or((ConnectionId::EMPTY, ConnectionId::EMPTY, false));
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
                ctx.send(knock.from, stateless_retry_datagram(scid, server_cid));
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
    /// certificate-store timer if `cert`, its own timers if `timers`.
    fn catch_up(
        &mut self,
        engine: &mut ServerEngine,
        peer: &mut PeerRecord,
        ctx: &mut Context<'_>,
        key: usize,
        cert: bool,
        timers: bool,
    ) {
        let (now, http) = (ctx.now(), self.http);
        self.drive(engine, peer, ctx, key, |conn, session, ctx| {
            if cert && session.cert_timer_at.is_some_and(|at| at <= now) {
                session.deliver_certificate(conn, ctx, http);
            }
            timers && ConnDriver::fire_if_due(conn, now)
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
        // Routing and admission read only the first packet's header:
        // parsed once, and not at all for a live connection's datagrams
        // on a server that follows neither migrations nor faults.
        let header = FirstHeader::new(|| Header::decode(&mut &payload[..], 8).ok().map(|(h, _)| h));
        // Migration-aware servers route by connection ID first — a
        // migrated client may arrive under a rotated CID — and fall back
        // to the sender's NodeId for pre-handshake packets (whose DCID
        // is the client's choice, not one of ours).
        let routed = (self.migration_aware.then(|| header.as_ref()).flatten())
            .and_then(|h| engine.key_for_cid(&h.dcid));
        let key = routed.map_or(from.index(), |k| k as usize);
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
        if self.admits(engine, peer, knock, &header, ctx) {
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
                let orphans = engine.crash_and_restart(ctx.now(), self.forget_epochs);
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
                        self.catch_up(engine, peer, ctx, k as usize, true, true);
                    }
                }
            }
            // Timers are swallowed while frozen; the thaw re-drives
            // every overdue connection.
            _ if self.frozen => {}
            _ => {
                let key = (token >> 1) as usize;
                if let Some(peer) = control.peer_mut(key) {
                    let cert = token & TIMER_KIND_CERT != 0;
                    self.catch_up(engine, peer, ctx, key, cert, !cert);
                }
            }
        }
    }

    fn name(&self) -> &str {
        "server"
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
