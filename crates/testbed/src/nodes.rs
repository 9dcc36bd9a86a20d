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
//! during) the simulation.

use std::cell::{LazyCell, RefCell};
use std::collections::HashMap;
use std::collections::HashSet;
use std::rc::Rc;

use rq_http::{h1, h3, HttpVersion};
use rq_quic::{
    derived_cid, server_busy_datagram, stateless_reset_datagram, stateless_retry_datagram,
    stream_id, AcceptOutcome, ConnEvent, Connection, EndpointConfig, ServerEngine, CID_KIND_RETRY,
};
use rq_sim::{Context, FaultTimeline, Node, NodeId, SimDuration, SimRng, SimTime};
use rq_tls::TicketKeySchedule;
use rq_wire::{ConnectionId, Header, PacketType};

use crate::scenario::ReconnectPolicy;

/// Timer token: the connection's own timers.
const TOKEN_CONN: u64 = 1;
/// Timer token (client): a scheduled reconnect attempt fires.
const TOKEN_RECONNECT: u64 = 2;
/// Timer token kind bit: the certificate store answered.
const TIMER_KIND_CERT: u64 = 1;
/// Stream tag: client reconnect-backoff jitter draws.
const RECONNECT_STREAM: u64 = 0x2ECC_0;

/// High bit marking server fault-timeline timers (crash/freeze/thaw);
/// peer keys are sim node indices and never come near it.
const FAULT_BIT: u64 = 1 << 63;
/// Fault timer kinds (low two bits under [`FAULT_BIT`]).
const FAULT_CRASH: u64 = 0;
const FAULT_FREEZE: u64 = 1;
const FAULT_THAW: u64 = 2;

fn fault_token(index: usize, kind: u64) -> u64 {
    FAULT_BIT | ((index as u64) << 2) | kind
}

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
    pub const HANDSHAKE_CONFIRMED: &str = "handshake_confirmed";
    /// The connection died (quirk abort or close).
    pub const CLOSED: &str = "closed";
    /// Server asked the certificate store.
    pub const CERT_REQUESTED: &str = "cert_requested";
    /// Certificate arrived at the frontend.
    pub const CERT_READY: &str = "cert_ready";
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
    /// Number of parallel request streams (client bidi IDs 0, 4, 8, …).
    streams: usize,
    /// Per-stream received body byte counts.
    stream_bytes: HashMap<u64, usize>,
    /// Streams whose response completed.
    streams_done: HashSet<u64>,
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
    attempts: u32,
}

/// Queues one GET per stream onto the connection (client bidi IDs 0, 4,
/// 8, …); they ride in the second client flight (or as 0-RTT early data).
fn queue_requests(conn: &mut Connection, http: HttpVersion, file_size: usize, streams: usize) {
    let path = format!("/{file_size}");
    for i in 0..streams {
        let id = stream_id::CLIENT_BIDI_0 + 4 * i as u64;
        match http {
            HttpVersion::H1 => {
                let req = h1::H1Request::get(&path, "testbed.local").encode();
                conn.send_stream_data(id, &req, true);
            }
            HttpVersion::H3 => {
                let req = h3::request_bytes(&path, "testbed.local");
                conn.send_stream_data(id, &req, true);
            }
        }
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
        queue_requests(&mut conn, http, file_size, 1);
        ClientNode {
            conn: Rc::new(RefCell::new(conn)),
            ticket: Rc::new(RefCell::new(None)),
            status: Rc::new(RefCell::new(ClientStatus::default())),
            server,
            http,
            streams: 1,
            stream_bytes: HashMap::new(),
            streams_done: HashSet::new(),
            expected_body: file_size,
            got_first_byte: false,
            done: false,
            stop_when_done: true,
            cfg,
            seed,
            rtt_quirk_applies,
            reconnect: None,
            backoff_rng: None,
            attempts: 0,
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
        for i in 1..streams {
            let id = stream_id::CLIENT_BIDI_0 + 4 * i as u64;
            let path = format!("/{}", self.expected_body);
            let req = match self.http {
                HttpVersion::H1 => h1::H1Request::get(&path, "testbed.local").encode(),
                HttpVersion::H3 => h3::request_bytes(&path, "testbed.local"),
            };
            self.conn.borrow_mut().send_stream_data(id, &req, true);
        }
        self.streams = streams;
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
        let Some(policy) = self.reconnect else {
            return false;
        };
        if self.attempts >= policy.max_attempts {
            return false;
        }
        let seed = self.seed;
        let rng = self
            .backoff_rng
            .get_or_insert_with(|| SimRng::derive(seed, &[RECONNECT_STREAM]));
        let exp = self.attempts.min(20);
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
        self.attempts += 1;
        let attempt_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.attempts as u64);
        let mut conn = Connection::client(self.cfg.clone(), attempt_seed, self.rtt_quirk_applies);
        queue_requests(&mut conn, self.http, self.expected_body, self.streams);
        *self.conn.borrow_mut() = conn;
        self.stream_bytes.clear();
        self.streams_done.clear();
        self.got_first_byte = false;
        {
            let mut st = self.status.borrow_mut();
            st.reconnect_pending = false;
            st.closed_at = None;
            st.attempts = self.attempts;
        }
        self.flush(ctx);
    }

    fn flush(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        loop {
            let out = self.conn.borrow_mut().poll_transmit(now);
            match out {
                Some(d) => ctx.send(self.server, d),
                None => break,
            }
        }
        if let Some(t) = self.conn.borrow().poll_timeout() {
            ctx.set_timer(t.max(now), TOKEN_CONN);
        }
    }

    fn drain_events(&mut self, ctx: &mut Context<'_>) {
        let me = ctx.me();
        let now = ctx.now();
        loop {
            let ev = self.conn.borrow_mut().poll_event();
            let Some(ev) = ev else { break };
            match ev {
                ConnEvent::HandshakeComplete => {
                    let mut st = self.status.borrow_mut();
                    st.handshake_at.get_or_insert(now);
                    drop(st);
                    ctx.trace()
                        .milestone(me, now, milestones::HANDSHAKE_COMPLETE);
                }
                ConnEvent::HandshakeConfirmed => {
                    ctx.trace()
                        .milestone(me, now, milestones::HANDSHAKE_CONFIRMED);
                }
                ConnEvent::StreamData { data, fin, id } => {
                    if !data.is_empty() && !self.got_first_byte {
                        self.got_first_byte = true;
                        self.status.borrow_mut().ttfb_at.get_or_insert(now);
                        ctx.trace().milestone(me, now, milestones::TTFB);
                    }
                    let is_request_stream = id % 4 == 0 && id < 4 * self.streams as u64;
                    if is_request_stream {
                        let bytes = self.stream_bytes.entry(id).or_insert(0);
                        *bytes += data.len();
                        let complete = match self.http {
                            HttpVersion::H1 => fin && *bytes >= self.expected_body,
                            HttpVersion::H3 => fin,
                        };
                        if complete {
                            self.streams_done.insert(id);
                        }
                        if self.streams_done.len() == self.streams && !self.done {
                            self.done = true;
                            self.status.borrow_mut().complete_at.get_or_insert(now);
                            ctx.trace()
                                .milestone(me, now, milestones::RESPONSE_COMPLETE);
                            if self.stop_when_done {
                                ctx.stop();
                            }
                        }
                    }
                }
                ConnEvent::Closed { error_code, .. } => {
                    {
                        let mut st = self.status.borrow_mut();
                        st.closed_at.get_or_insert(now);
                        st.close_code.get_or_insert(error_code);
                    }
                    ctx.trace().milestone(me, now, milestones::CLOSED);
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
        let me = ctx.me();
        let now = ctx.now();
        self.status.borrow_mut().hello_at.get_or_insert(now);
        ctx.trace()
            .milestone(me, now, milestones::CLIENT_HELLO_SENT);
        self.flush(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: &[u8]) {
        let path = ctx.path();
        self.conn
            .borrow_mut()
            .handle_datagram_on_path(ctx.now(), payload, path);
        self.drain_events(ctx);
        self.flush(ctx);
    }

    fn on_path_change(&mut self, ctx: &mut Context<'_>, path: u64) {
        // The OS told us the route moved (deliberate migration): rotate
        // the DCID and start validating the new path.
        let now = ctx.now();
        self.conn.borrow_mut().migrate(now, path);
        self.drain_events(ctx);
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token == TOKEN_RECONNECT {
            if !self.done {
                self.reconnect_now(ctx);
            }
            return;
        }
        if token != TOKEN_CONN {
            return;
        }
        let due = {
            let conn = self.conn.borrow();
            conn.poll_timeout().map(|t| t <= ctx.now()).unwrap_or(false)
        };
        if due {
            self.conn.borrow_mut().handle_timeout(ctx.now());
            self.drain_events(ctx);
        }
        self.flush(ctx);
    }

    fn name(&self) -> &str {
        "client"
    }
}

/// Driver-facing control surface of a [`ServerNode`], shared via
/// `Rc<RefCell<..>>` with whoever orchestrates the simulation.
#[derive(Debug, Default)]
pub struct ServerControl {
    /// Per-peer server connection seed (keyed by the peer's `NodeId`
    /// index). Peers without an entry use the node's own seed XOR
    /// `0x5EED`, which is exactly the legacy single-pair derivation.
    pub conn_seeds: HashMap<usize, u64>,
    /// Peers whose Initial was load-shed (admission refused), including
    /// explicit busy refusals under `CloseWithBackoff`.
    pub shed: HashSet<usize>,
    /// Peers whose connection closed at the server.
    pub closed: HashSet<usize>,
    /// Peers that were Retry-deferred under overload and later admitted
    /// with a valid token.
    pub retried: HashSet<usize>,
    /// Peers whose connection state a server crash dropped mid-flight.
    pub reset: HashSet<usize>,
}

/// One request stream's server-side state.
#[derive(Debug, Default)]
struct StreamReq {
    buf: Vec<u8>,
    responded: bool,
}

/// Per-peer application state (one HTTP exchange per request stream).
#[derive(Debug)]
struct PeerState {
    node: NodeId,
    /// Request reassembly + response latch, keyed by client bidi stream
    /// ID (0, 4, 8, …).
    requests: HashMap<u64, StreamReq>,
    settings_sent: bool,
    cert_timer_at: Option<SimTime>,
    shed: bool,
    /// Retry-deferred under overload: admission retried on tokened
    /// re-knocks.
    deferred: bool,
    /// DCID of the Initial that led to this admission decision; a
    /// *different* DCID from the same node is a fresh connection attempt
    /// (reconnect), not a retransmit.
    dcid: ConnectionId,
}

impl PeerState {
    fn new(node: NodeId) -> Self {
        PeerState {
            node,
            requests: HashMap::new(),
            settings_sent: false,
            cert_timer_at: None,
            shed: false,
            deferred: false,
            dcid: ConnectionId::EMPTY,
        }
    }
}

/// The first packet header of a datagram (`None` if it does not parse),
/// decoded when first looked at.
type FirstHeader<F> = LazyCell<Option<Header>, F>;

/// What the server does with an incoming datagram, as decided by the
/// admission layer (which cannot send by itself — `on_datagram` owns the
/// [`Context`]).
enum Admission {
    /// A connection exists for this peer: feed it the datagram.
    Process,
    /// Shed/stale/frozen: drop on the floor.
    Drop,
    /// Answer with a pre-built stateless datagram (Retry or busy close)
    /// without committing any state.
    Respond(Vec<u8>),
}

/// Server endpoint node: one shared listener hosting any number of
/// connections, each serving `GET /<n>`. Incoming datagrams are demuxed
/// by sender `NodeId`; admission, ticket-key epochs, and cost accounting
/// live in the shared [`ServerEngine`].
pub struct ServerNode {
    /// The shared server engine (connection table + accounting), exposed
    /// so the runner can read connections and aggregates after the run.
    pub engine: Rc<RefCell<ServerEngine>>,
    /// Driver control surface (per-peer seeds, shed/closed sets).
    pub control: Rc<RefCell<ServerControl>>,
    http: HttpVersion,
    /// Frontend ↔ certificate store delay Δt.
    cert_delay: SimDuration,
    peers: HashMap<usize, PeerState>,
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
    /// While set, the server process is frozen: datagrams are dropped
    /// and timers are swallowed until the thaw event at this time.
    frozen_until: Option<SimTime>,
    /// Migration-aware servers additionally demux arriving datagrams by
    /// connection ID (the engine's CID index) before falling back to the
    /// sender's `NodeId`, so a client knocking from a new path under a
    /// rotated CID still lands on its connection. Off by default so
    /// legacy scenarios keep their exact behaviour.
    migration_aware: bool,
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
            peers: HashMap::new(),
            seed,
            faults: FaultTimeline::none(),
            forget_epochs: false,
            fault_aware: false,
            frozen_until: None,
            migration_aware: false,
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

    fn frozen(&self, now: SimTime) -> bool {
        self.frozen_until.map(|t| now < t).unwrap_or(false)
    }

    /// Decides what to do with a datagram from `key` whose first packet
    /// header is `header` (`None` if it does not parse), running the
    /// engine's admission path for unknown peers (and, on fault-aware
    /// servers, for reconnecting ones).
    fn admission(
        &mut self,
        key: usize,
        from: NodeId,
        header: &FirstHeader<impl FnOnce() -> Option<Header>>,
        now: SimTime,
    ) -> Admission {
        let has_conn = self.engine.borrow().has_conn(key as u64);
        if let Some(peer) = self.peers.get(&key) {
            if has_conn {
                if self.fault_aware {
                    // A tokenless Initial under a *different* DCID than
                    // the live connection's is a reconnect attempt (the
                    // old one gave up client-side): retire the stale
                    // state and re-run admission as a fresh arrival.
                    if let Some(h) = header.as_ref() {
                        if h.ty == PacketType::Initial && h.token.is_empty() && h.dcid != peer.dcid
                        {
                            let stale =
                                self.engine.borrow_mut().conn_mut(key as u64).map(|c| {
                                    h.dcid != c.original_dcid() && h.dcid != c.local_cid()
                                });
                            if stale == Some(true) {
                                self.engine.borrow_mut().retire(key as u64, false);
                                self.peers.remove(&key);
                                return self.admit_new(key, from, header.as_ref(), now);
                            }
                        }
                    }
                }
                return Admission::Process;
            }
            if peer.deferred {
                // Retry-deferred peer knocking again: only a tokened
                // Initial re-enters admission; everything else (late
                // retransmits of the tokenless one) stays stateless.
                let Some(h) = header.as_ref() else {
                    return Admission::Drop;
                };
                if h.ty != PacketType::Initial || h.token.is_empty() {
                    return Admission::Drop;
                }
                let conn_seed = self.conn_seed(key);
                let now_secs = now.as_nanos() / 1_000_000_000;
                // Initial keys derive from the *first* Initial's DCID
                // (which the peer entry remembers) — the post-Retry
                // Initial addresses the Retry's SCID instead.
                let original_dcid = peer.dcid;
                let outcome = self.engine.borrow_mut().accept(
                    key as u64,
                    conn_seed,
                    original_dcid,
                    now_secs,
                    true,
                    true,
                );
                if outcome == AcceptOutcome::Accepted {
                    if let Some(peer) = self.peers.get_mut(&key) {
                        peer.deferred = false;
                    }
                    self.control.borrow_mut().retried.insert(key);
                    return Admission::Process;
                }
                // Still over capacity: keep deferring — the client's PTO
                // loop re-sends the tokened Initial until a slot frees.
                return Admission::Drop;
            }
            if peer.shed && self.fault_aware {
                // Fault-aware servers let a *reconnect* (fresh DCID) back
                // into admission; retransmits of the shed Initial stay
                // dropped, preserving once-shed-always-shed for them.
                if let Some(h) = header.as_ref() {
                    if h.ty == PacketType::Initial && h.dcid != peer.dcid {
                        self.peers.remove(&key);
                        return self.admit_new(key, from, header.as_ref(), now);
                    }
                }
            }
            // A known peer with no engine entry was either shed or
            // already retired; late datagrams (still in flight when the
            // connection ended) must not re-enter admission and be
            // double-counted as fresh arrivals.
            return Admission::Drop;
        }
        self.admit_new(key, from, header.as_ref(), now)
    }

    /// Runs a previously unseen Initial through the engine's admission
    /// valve and records the outcome in the peer table.
    fn admit_new(
        &mut self,
        key: usize,
        from: NodeId,
        header: Option<&Header>,
        now: SimTime,
    ) -> Admission {
        // Derive the Initial keys from the client's DCID (first header).
        let (dcid, scid, has_token) = header
            .map(|h| (h.dcid, h.scid, !h.token.is_empty()))
            .unwrap_or((ConnectionId::EMPTY, ConnectionId::EMPTY, false));
        let conn_seed = self.conn_seed(key);
        let now_secs = now.as_nanos() / 1_000_000_000;
        let outcome = self
            .engine
            .borrow_mut()
            .accept(key as u64, conn_seed, dcid, now_secs, has_token, false);
        let peer = self
            .peers
            .entry(key)
            .or_insert_with(|| PeerState::new(from));
        peer.dcid = dcid;
        match outcome {
            AcceptOutcome::Accepted => Admission::Process,
            AcceptOutcome::Shed => {
                // Once shed, always shed: the server stays stateless for
                // this peer, so retransmitted Initials cannot sneak in
                // after capacity frees up.
                peer.shed = true;
                self.control.borrow_mut().shed.insert(key);
                Admission::Drop
            }
            AcceptOutcome::RetryDefer => {
                // Stateless Retry: cheap admission valve. The client
                // burns an RTT echoing the token; by then capacity may
                // have freed up.
                peer.deferred = true;
                let server_cid = derived_cid(self.seed, CID_KIND_RETRY, key as u64);
                Admission::Respond(stateless_retry_datagram(scid, server_cid))
            }
            AcceptOutcome::Busy => {
                peer.shed = true;
                self.control.borrow_mut().shed.insert(key);
                Admission::Respond(server_busy_datagram())
            }
        }
    }

    fn conn_seed(&self, key: usize) -> u64 {
        self.control
            .borrow()
            .conn_seeds
            .get(&key)
            .copied()
            .unwrap_or(self.seed ^ 0x5EED)
    }

    fn with_conn<R>(&self, key: usize, f: impl FnOnce(&mut Connection) -> R) -> Option<R> {
        self.engine.borrow_mut().conn_mut(key as u64).map(f)
    }

    fn flush(&mut self, ctx: &mut Context<'_>, key: usize) {
        let Some(client) = self.peers.get(&key).map(|p| p.node) else {
            return;
        };
        let now = ctx.now();
        loop {
            let out = self.with_conn(key, |c| c.poll_transmit(now)).flatten();
            match out {
                Some(d) => ctx.send(client, d),
                None => break,
            }
        }
        if let Some(t) = self.with_conn(key, |c| c.poll_timeout()).flatten() {
            ctx.set_timer(t.max(now), conn_token(key));
        }
    }

    fn maybe_send_settings(&mut self, key: usize) {
        let sent = self
            .peers
            .get(&key)
            .map(|p| p.settings_sent)
            .unwrap_or(true);
        if sent || self.http != HttpVersion::H3 {
            return;
        }
        let ready = self
            .with_conn(key, |c| c.app_keys_available())
            .unwrap_or(false);
        if ready {
            if let Some(peer) = self.peers.get_mut(&key) {
                peer.settings_sent = true;
            }
            self.with_conn(key, |c| {
                c.send_stream_data(
                    stream_id::SERVER_UNI_0,
                    &h3::control_stream_prelude(),
                    false,
                );
            });
        }
    }

    fn drain_events(&mut self, ctx: &mut Context<'_>, key: usize) {
        let me = ctx.me();
        let now = ctx.now();
        loop {
            let ev = self.with_conn(key, |c| c.poll_event()).flatten();
            let Some(ev) = ev else { break };
            match ev {
                ConnEvent::CertificateNeeded => {
                    ctx.trace().milestone(me, now, milestones::CERT_REQUESTED);
                    if self.cert_delay == SimDuration::ZERO {
                        self.with_conn(key, |c| c.certificate_ready(now));
                        ctx.trace().milestone(me, now, milestones::CERT_READY);
                        self.maybe_send_settings(key);
                    } else {
                        let at = now + self.cert_delay;
                        if let Some(peer) = self.peers.get_mut(&key) {
                            peer.cert_timer_at = Some(at);
                        }
                        ctx.set_timer(at, cert_token(key));
                    }
                }
                ConnEvent::StreamData { id, data, .. } => {
                    // Any client-initiated bidi stream (0, 4, 8, …)
                    // carries a request.
                    if id % 4 == 0 {
                        let responded = self
                            .peers
                            .get(&key)
                            .and_then(|p| p.requests.get(&id))
                            .map(|r| r.responded)
                            .unwrap_or(false);
                        if !responded {
                            if let Some(peer) = self.peers.get_mut(&key) {
                                peer.requests
                                    .entry(id)
                                    .or_default()
                                    .buf
                                    .extend_from_slice(&data);
                            }
                            self.try_respond(key, id);
                        }
                    }
                }
                ConnEvent::Closed { .. } => {
                    ctx.trace().milestone(me, now, milestones::CLOSED);
                    self.control.borrow_mut().closed.insert(key);
                }
                _ => {}
            }
        }
    }

    fn try_respond(&mut self, key: usize, id: u64) {
        let Some(req) = self
            .peers
            .get_mut(&key)
            .and_then(|p| p.requests.get_mut(&id))
        else {
            return;
        };
        let body_len = match self.http {
            HttpVersion::H1 => match h1::H1Request::decode(&req.buf) {
                Some(r) => r.path.trim_start_matches('/').parse::<usize>().ok(),
                None => None,
            },
            HttpVersion::H3 => match h3::parse_request_path(&req.buf) {
                Some(path) => path.trim_start_matches('/').parse::<usize>().ok(),
                None => None,
            },
        };
        let Some(body_len) = body_len else { return };
        req.responded = true;
        let response = match self.http {
            HttpVersion::H1 => h1::H1Response::ok(body_len).encode(),
            HttpVersion::H3 => h3::response_bytes(body_len),
        };
        self.with_conn(key, |c| c.send_stream_data(id, &response, true));
    }
}

impl ServerNode {
    /// Handles a fault-timeline timer: crash, freeze, or thaw.
    fn on_fault_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let now = ctx.now();
        let index = ((token & !FAULT_BIT) >> 2) as usize;
        match token & 0b11 {
            FAULT_CRASH => {
                let orphans = self
                    .engine
                    .borrow_mut()
                    .crash_and_restart(now, self.forget_epochs);
                let mut control = self.control.borrow_mut();
                for k in &orphans {
                    let key = *k as usize;
                    control.reset.insert(key);
                    if let Some(peer) = self.peers.remove(&key) {
                        // Stateless-reset stand-in: the restarted process
                        // no longer recognises the CID, so it answers the
                        // orphan's next-arriving packets out-of-band.
                        ctx.send(
                            peer.node,
                            stateless_reset_datagram(ConnectionId::from_u64(*k)),
                        );
                    }
                }
                drop(control);
                // A restarted process forgets shed/deferred bookkeeping
                // too — its peer table is gone with the rest of it.
                self.peers.clear();
            }
            FAULT_FREEZE => {
                if let Some(f) = self.faults.freezes.get(index) {
                    self.frozen_until = Some(f.end);
                }
            }
            FAULT_THAW => {
                self.frozen_until = None;
                // Catch up on everything that went due while frozen, in
                // sorted key order for determinism.
                let keys = self.engine.borrow().active_keys();
                for k in keys {
                    let key = k as usize;
                    let cert_due = self
                        .peers
                        .get(&key)
                        .and_then(|p| p.cert_timer_at)
                        .map(|at| at <= now)
                        .unwrap_or(false);
                    if cert_due {
                        if let Some(peer) = self.peers.get_mut(&key) {
                            peer.cert_timer_at = None;
                        }
                        let me = ctx.me();
                        ctx.trace().milestone(me, now, milestones::CERT_READY);
                        self.with_conn(key, |c| c.certificate_ready(now));
                        self.maybe_send_settings(key);
                    }
                    let due = self
                        .with_conn(key, |c| c.poll_timeout().map(|t| t <= now).unwrap_or(false))
                        .unwrap_or(false);
                    if due {
                        self.with_conn(key, |c| c.handle_timeout(now));
                        self.drain_events(ctx, key);
                        self.engine.borrow_mut().note_handshake_outcome(key as u64);
                    }
                    self.flush(ctx, key);
                }
            }
            _ => {}
        }
    }
}

impl Node for ServerNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.faults.crashes.is_empty() && self.faults.freezes.is_empty() {
            return;
        }
        for (i, at) in self.faults.crashes.clone().iter().enumerate() {
            ctx.set_timer(*at, fault_token(i, FAULT_CRASH));
        }
        for (i, f) in self.faults.freezes.clone().iter().enumerate() {
            ctx.set_timer(f.start, fault_token(i, FAULT_FREEZE));
            ctx.set_timer(f.end, fault_token(i, FAULT_THAW));
        }
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &[u8]) {
        if self.frozen(ctx.now()) {
            // Frozen process: the kernel buffer overflows, packets die.
            return;
        }
        // Routing and admission read only the first packet's header:
        // parsed once, and not at all for a live connection's datagrams
        // on a server that follows neither migrations nor faults.
        let header = FirstHeader::new(|| Header::decode(&mut &payload[..], 8).ok().map(|(h, _)| h));
        // Migration-aware servers route by connection ID first — a
        // migrated client may arrive under a rotated CID — and fall back
        // to the sender's NodeId for pre-handshake packets (whose DCID
        // is the client's choice, not one of ours).
        let key = if self.migration_aware {
            header
                .as_ref()
                .and_then(|h| self.engine.borrow().key_for_cid(&h.dcid))
                .map(|k| k as usize)
                .unwrap_or_else(|| from.index())
        } else {
            from.index()
        };
        match self.admission(key, from, &header, ctx.now()) {
            Admission::Process => {}
            Admission::Drop => return,
            Admission::Respond(datagram) => {
                ctx.send(from, datagram);
                return;
            }
        }
        let path = ctx.path();
        self.with_conn(key, |c| c.handle_datagram_on_path(ctx.now(), payload, path));
        self.drain_events(ctx, key);
        self.engine.borrow_mut().note_handshake_outcome(key as u64);
        self.maybe_send_settings(key);
        self.flush(ctx, key);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token & FAULT_BIT != 0 {
            self.on_fault_timer(ctx, token);
            return;
        }
        let now = ctx.now();
        if self.frozen(now) {
            // Timers are swallowed while frozen; the thaw handler
            // re-drives every overdue connection.
            return;
        }
        let key = (token >> 1) as usize;
        if token & TIMER_KIND_CERT != 0 {
            let due = self
                .peers
                .get(&key)
                .and_then(|p| p.cert_timer_at)
                .map(|at| now >= at)
                .unwrap_or(false);
            if due {
                if let Some(peer) = self.peers.get_mut(&key) {
                    peer.cert_timer_at = None;
                }
                let me = ctx.me();
                ctx.trace().milestone(me, now, milestones::CERT_READY);
                self.with_conn(key, |c| c.certificate_ready(now));
                self.maybe_send_settings(key);
            }
        } else {
            let due = self
                .with_conn(key, |c| c.poll_timeout().map(|t| t <= now).unwrap_or(false))
                .unwrap_or(false);
            if due {
                self.with_conn(key, |c| c.handle_timeout(now));
                self.drain_events(ctx, key);
                self.engine.borrow_mut().note_handshake_outcome(key as u64);
            }
        }
        self.flush(ctx, key);
    }

    fn name(&self) -> &str {
        "server"
    }
}
