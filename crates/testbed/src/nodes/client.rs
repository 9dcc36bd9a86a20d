//! The client node: one HTTP GET over QUIC, its milestones, and the
//! reconnects a fault scenario asks for.

use std::cell::RefCell;
use std::io::Write;
use std::mem::take;
use std::ops::Range;
use std::rc::Rc;

use rq_http::{h1, h3, HttpVersion};
use rq_quic::{stream_id, ConnEvent, Connection, EndpointConfig};
use rq_sim::{Context, Node, NodeId, SimDuration, SimRng, SimTime};
use rq_wire::Bytes;

use super::{milestones, ConnDriver};

/// Timer token: the connection's own timers.
const TOKEN_CONN: u64 = 1;
/// Timer token (client): a scheduled reconnect attempt fires.
const TOKEN_RECONNECT: u64 = 2;
/// Stream tag: client reconnect-backoff jitter draws.
const RECONNECT_STREAM: u64 = 0x2ECC_0;
/// Most *re*-connect attempts a client makes.
const RECONNECT_ATTEMPTS: u32 = 3;
/// Backoff before the first reconnect; it doubles per attempt.
const RECONNECT_BACKOFF: SimDuration = SimDuration::from_millis(200);
/// Ceiling on the (pre-jitter) backoff.
const RECONNECT_MAX_BACKOFF: SimDuration = SimDuration::from_secs(5);
/// Multiplicative jitter amplitude: the backoff is scaled by a seeded
/// uniform draw from `[1, 1 + RECONNECT_JITTER]`.
const RECONNECT_JITTER: f64 = 0.2;

/// Progress of one client connection, updated live by [`ClientNode`].
///
/// The many-connection driver reads these instead of trace milestones:
/// bulk runs switch trace recording off entirely. It reads them through
/// the network while the client runs, and off the client the network
/// hands back when it retires it.
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
    /// The QUIC connection. A shared cell only because `rq-layers`
    /// keeps a clone of it; the runner reads it off the node.
    pub conn: Rc<RefCell<Connection>>,
    /// The deadline the connection's last pump armed ([`ConnDriver`]).
    armed: Option<SimTime>,
    /// The freshest NewSessionTicket the server issued on this
    /// connection (the priming connection of a resumed scenario hands
    /// its ticket to the measured one).
    pub ticket: Option<rq_tls::SessionTicket>,
    /// Live progress.
    pub status: ClientStatus,
    server: NodeId,
    http: HttpVersion,
    /// One entry per parallel request stream (client bidi IDs 0, 4, 8,
    /// …; stream ID / 4 is the index).
    responses: Vec<Response>,
    expected_body: usize,
    got_first_byte: bool,
    /// Stop the whole simulation once this client finishes. True for the
    /// legacy single-pair runs (the sim *is* this connection); false when
    /// the client is one of many on a shared event loop.
    stop_when_done: bool,
    seed: u64,
    rtt_quirk_applies: bool,
    /// Reconnect after a dead connection; `false` (default) dies on the
    /// first close.
    reconnect: bool,
    /// Seeded jitter stream, created lazily on the first reconnect so
    /// reconnect-free runs draw nothing.
    backoff_rng: Option<SimRng>,
}

/// Room for `/` and any `usize` in decimal.
const PATH_ROOM: usize = 21;

/// Queues a GET for `/<file_size>` on each of the request streams
/// `streams` (indices into client bidi IDs 0, 4, 8, …); they ride in the
/// second client flight (or as 0-RTT early data). The path is written on
/// the stack.
fn queue_requests(
    conn: &mut Connection,
    http: HttpVersion,
    file_size: usize,
    streams: Range<usize>,
) {
    if streams.is_empty() {
        return;
    }
    let mut room = [0u8; PATH_ROOM];
    let mut out = &mut room[..];
    write!(out, "/{file_size}").expect("the room fits any usize");
    let len = PATH_ROOM - out.len();
    let path = std::str::from_utf8(&room[..len]).expect("ASCII digits");
    for i in streams {
        let request = match http {
            HttpVersion::H1 => h1::H1Request::get(path, "testbed.local").to_bytes(),
            HttpVersion::H3 => h3::request_bytes(path, "testbed.local"),
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
        ClientNode::new_in(None, cfg, server, http, file_size, seed, rtt_quirk_applies)
    }

    /// [`ClientNode::new`], in the storage of the retired client `spare`
    /// if there is one: its connection's cell and that connection's
    /// configuration, unless something else shares them, and its
    /// response table. Nothing else of `spare` carries over.
    pub(crate) fn new_in(
        spare: Option<&mut ClientNode>,
        cfg: EndpointConfig,
        server: NodeId,
        http: HttpVersion,
        file_size: usize,
        seed: u64,
        rtt_quirk_applies: bool,
    ) -> Self {
        let fresh = |cfg| {
            Rc::new(RefCell::new(Connection::client(
                cfg,
                seed,
                rtt_quirk_applies,
            )))
        };
        let (conn, mut responses) = match spare {
            Some(old) => {
                let conn = match Rc::get_mut(&mut old.conn) {
                    Some(cell) => {
                        cell.get_mut()
                            .replace_with_client(cfg, seed, rtt_quirk_applies);
                        Rc::clone(&old.conn)
                    }
                    None => fresh(cfg),
                };
                (conn, take(&mut old.responses))
            }
            None => (fresh(cfg), Vec::with_capacity(1)),
        };
        queue_requests(&mut conn.borrow_mut(), http, file_size, 0..1);
        responses.clear();
        responses.push(Response::default());
        ClientNode {
            conn,
            armed: None,
            ticket: None,
            status: ClientStatus::default(),
            server,
            http,
            responses,
            expected_body: file_size,
            got_first_byte: false,
            stop_when_done: true,
            seed,
            rtt_quirk_applies,
            reconnect: false,
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

    /// Reconnects: when the connection dies short of a response, the
    /// client rebuilds it after a jittered exponential backoff, up to
    /// three times.
    pub fn with_reconnect(mut self) -> Self {
        self.reconnect = true;
        self
    }

    /// Schedules the next reconnect attempt, if the policy allows one.
    fn try_schedule_reconnect(&mut self, ctx: &mut Context<'_>) -> bool {
        let attempts = self.status.attempts;
        if !self.reconnect || attempts >= RECONNECT_ATTEMPTS {
            return false;
        }
        let seed = self.seed;
        let rng = self
            .backoff_rng
            .get_or_insert_with(|| SimRng::derive(seed, &[RECONNECT_STREAM]));
        let exp = attempts.min(20);
        let base = RECONNECT_BACKOFF
            .as_nanos()
            .saturating_mul(1u64 << exp)
            .min(RECONNECT_MAX_BACKOFF.as_nanos());
        let scaled = (base as f64 * (1.0 + RECONNECT_JITTER * rng.gen_f64())) as u64;
        ctx.set_timer_after(SimDuration::from_nanos(scaled), TOKEN_RECONNECT);
        self.status.reconnect_pending = true;
        true
    }

    /// Rebuilds the connection and re-issues the request (a reconnect
    /// timer fired). The new connection gets a fresh CID seed, so the
    /// server sees a brand-new arrival, not a retransmit.
    fn reconnect_now(&mut self, ctx: &mut Context<'_>) {
        let st = &mut self.status;
        st.reconnect_pending = false;
        st.closed_at = None;
        st.attempts += 1;
        let attempt = st.attempts;
        let attempt_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt as u64);
        // The dead connection's configuration, shared with its successor.
        let cfg = Rc::clone(self.conn.borrow().config());
        let mut conn = Connection::client(cfg, attempt_seed, self.rtt_quirk_applies);
        let streams = 0..self.responses.len();
        queue_requests(&mut conn, self.http, self.expected_body, streams);
        *self.conn.borrow_mut() = conn;
        self.responses.fill(Response::default());
        self.got_first_byte = false;
        self.drive(ctx, |_, _| false);
    }

    /// Records that the milestone `label` was reached now, in both of the
    /// client's records: its field of the status (the first time only)
    /// and the trace.
    fn mark(
        &mut self,
        ctx: &mut Context<'_>,
        label: &'static str,
        field: impl FnOnce(&mut ClientStatus) -> &mut Option<SimTime>,
    ) {
        let (me, now) = (ctx.me(), ctx.now());
        field(&mut self.status).get_or_insert(now);
        ctx.trace().milestone(me, now, label);
    }

    /// One callback's worth of work on the connection: `act` on it,
    /// handle the events that produced if it says there may be any, and
    /// pump.
    fn drive(
        &mut self,
        ctx: &mut Context<'_>,
        act: impl FnOnce(&mut Connection, &mut Context<'_>) -> bool,
    ) {
        let cell = Rc::clone(&self.conn);
        let conn = &mut *cell.borrow_mut();
        if act(conn, ctx) {
            self.drain_events(conn, ctx);
        }
        ConnDriver::pump(conn, &mut self.armed, ctx, self.server, TOKEN_CONN);
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
                        let complete = self.status.complete_at.is_some();
                        if !complete && self.responses.iter().all(|r| r.done) {
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
                    if self.status.complete_at.is_none() && self.try_schedule_reconnect(ctx) {
                        // A reconnect is on the way: not done yet.
                    } else if self.stop_when_done {
                        ctx.stop();
                    }
                }
                ConnEvent::TicketReceived(t) => {
                    self.ticket = Some(t);
                }
                ConnEvent::CertificateNeeded => {}
            }
        }
    }
}

impl Node for ClientNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.mark(ctx, milestones::CLIENT_HELLO_SENT, |st| &mut st.hello_at);
        self.drive(ctx, |_, _| false);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &[u8]) {
        self.on_datagram_owned(ctx, from, Bytes::copy_from_slice(payload));
    }

    fn on_datagram_owned(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
        let (now, path) = (ctx.now(), ctx.path());
        self.drive(ctx, |conn, ctx| {
            conn.handle_datagram_on_path(now, payload, path, ctx.spares());
            true
        });
    }

    fn on_path_change(&mut self, ctx: &mut Context<'_>, path: u64) {
        // The OS told us the route moved (deliberate migration): rotate
        // the DCID and start validating the new path.
        let now = ctx.now();
        self.drive(ctx, |conn, _| {
            conn.migrate(now, path);
            true
        });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        match token {
            TOKEN_RECONNECT if self.status.complete_at.is_none() => self.reconnect_now(ctx),
            TOKEN_CONN => {
                if ConnDriver::wake(&mut self.conn.borrow_mut(), self.armed, ctx, TOKEN_CONN) {
                    self.drive(ctx, |_, _| true);
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "client"
    }
}
