//! The QUIC connection state machine (sans-IO).
//!
//! Drives a full RFC 9000/9001/9002 1-RTT handshake and data transfer over
//! the simulated TLS stack, with the two server behaviours the paper
//! compares — wait-for-certificate and instant ACK — plus every client
//! quirk the paper traces performance differences to.
//!
//! The API is poll-based:
//! * [`Connection::handle_datagram_on_path`] — feed a received UDP
//!   payload, owned: the `Bytes` is the only buffer, the decoded CRYPTO
//!   and STREAM payloads and what [`ConnEvent::StreamData`] delivers are
//!   views of it. A datagram queued while it is received (the instant
//!   ACK) is built in the caller's spares. [`Connection::handle_datagram`]
//!   is the same for a caller that holds a `&[u8]` and no spares: it
//!   copies the slice once into a `Bytes` and runs the same code;
//! * [`Connection::send_stream_data_owned`] — queue application bytes,
//!   owned: the stream adopts the `Bytes` and its STREAM frames are views
//!   of it. [`Connection::send_stream_data`] is the same for a caller
//!   that holds a `&[u8]`, copied once;
//! * [`Connection::poll_transmit_with`] — drain outgoing UDP payloads,
//!   each the one buffer its packets were encoded and sealed into: a
//!   spare of its length from the caller's [`rq_sim::Spares`] when one
//!   waits, else one allocation. [`Connection::poll_transmit`] is the
//!   same with no spares;
//! * [`Connection::poll_timeout`] / [`Connection::handle_timeout`] — timer
//!   management (loss detection, PTO, delayed ACKs);
//! * [`Connection::poll_event`] — application-facing events.
//!
//! This file holds the state, the constructors and accessors, handshake
//! driving (TLS events, key installation and discard) and closing; the
//! receive path, the transmit path and the timers are further
//! `impl Connection` blocks in `recv`, `send`, `timers`. Everything about
//! the connection's paths — the amplification budget, connection IDs,
//! migration and path validation — is owned by `path::Paths`; everything
//! read only before confirmation, the Initial and Handshake spaces
//! included, by `handshake::Handshake`, which confirmation drops.

use std::collections::VecDeque;
use std::rc::Rc;

use bytes::{BufMut, Bytes};
use rq_qlog::{EventData, EventLog, SpaceName, Vantage};
use rq_recovery::{CcState, CongestionController, PtoState, RttEstimator};
use rq_sim::{SimRng, SimTime, Spares};
use rq_tls::{Level, ServerConfig as TlsServerConfig, TlsEvent, TlsSession};
use rq_wire::{ConnectionId, Header, PacketNumberSpace, PlainPacket};

use crate::config::{
    EndpointConfig, ServerAckMode, INITIAL_MAX_DATA, INITIAL_MAX_STREAM_DATA, MAX_ACK_DELAY,
};
use crate::space::Space;
use crate::streams::StreamSet;
use handshake::{space_in, Handshake};
use path::Paths;

mod handshake;
mod path;
mod recv;
mod send;
mod timers;

/// Maximum UDP payload we produce (QUIC minimum-MTU safe value).
pub const MAX_DATAGRAM_SIZE: usize = 1200;

/// Close code: the client abandoned a handshake past its give-up budget.
pub const ERROR_GIVE_UP: u64 = 0x6109_E0;
/// Close code: the peer signalled it lost this connection's state
/// (stateless-reset-style, e.g. after a server crash).
pub const ERROR_STATELESS_RESET: u64 = 0x57A7_E1;
/// Close code: the server refused the connection because it was
/// overloaded (the `CloseWithBackoff` admission policy).
pub const ERROR_SERVER_BUSY: u64 = 0xB0_5E;

/// Endpoint role: the TLS session's, which holds that role's
/// configuration only.
pub use rq_tls::Role;

/// Stream tag of the CID-derivation coordinate space: every connection ID
/// is `derive(seed, [CID_STREAM, kind, seq])`, a pure function of its
/// coordinates, so rotated CIDs from one seed can never collide the way
/// the old XOR-of-constants scheme could.
const CID_STREAM: u64 = 0xC1D_0;

/// CID kind: a client's locally chosen CIDs (seq 0 = handshake CID).
const CID_KIND_CLIENT: u64 = 0;
/// CID kind: the client's original destination CID (Initial keys).
const CID_KIND_ORIGINAL_DCID: u64 = 1;
/// CID kind: a server's locally chosen CIDs (seq 0 = handshake CID).
const CID_KIND_SERVER: u64 = 2;
/// CID kind: the CID a stateless Retry hands the client.
pub const CID_KIND_RETRY: u64 = 3;

/// Derives the 8-byte connection ID at `(kind, seq)` for `seed`: every
/// CID a connection announces is predictable from its seed (drivers use
/// it for the CID a stateless Retry hands out).
pub fn derived_cid(seed: u64, kind: u64, seq: u64) -> ConnectionId {
    let mut rng = SimRng::derive(seed, &[CID_STREAM, kind, seq]);
    ConnectionId::from_u64(rng.next_u64())
}

/// How far a connection has closed (RFC 9000 §10).
#[derive(PartialEq, Eq)]
enum CloseState {
    /// Open.
    Open,
    /// Closed here: the CONNECTION_CLOSE with this code and reason is the
    /// next datagram.
    Owed(u64, String),
    /// Closed, and nothing more leaves.
    Closed,
}

/// Application-visible connection events.
#[derive(Debug, Clone, PartialEq)]
pub enum ConnEvent {
    /// Handshake completed at this endpoint.
    HandshakeComplete,
    /// Handshake confirmed (client: HANDSHAKE_DONE received).
    HandshakeConfirmed,
    /// Server: certificate required — call
    /// [`Connection::certificate_ready`] after the store round trip (Δt).
    CertificateNeeded,
    /// Stream data delivered in order.
    StreamData {
        /// Stream ID.
        id: u64,
        /// Newly contiguous bytes: a view of the datagram that completed
        /// them when they arrived in order, so drop it (or copy what is
        /// to be kept) before long.
        data: Bytes,
        /// Stream finished.
        fin: bool,
    },
    /// Client: a NewSessionTicket arrived — cache it to resume later.
    TicketReceived(rq_tls::SessionTicket),
    /// Connection closed (peer close, local error, or quirk abort).
    Closed {
        /// Error code.
        error_code: u64,
        /// Reason phrase.
        reason: String,
    },
}

/// Per-connection protocol counters. Plain integers on the hot path
/// (the `ScanShard` pattern — a map lookup per packet would not be
/// zero-cost), exported into an [`rq_obs::Registry`] under the
/// endpoint's role at snapshot time. Field-wise summable, so
/// merged snapshots are independent of worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Packets protected and handed to the send path, per packet number
    /// space (Initial, Handshake, Application — 0-RTT counts as App).
    pub packets_sealed: [u64; 3],
    /// Packets accepted after unprotection and dedup, per space.
    pub packets_opened: [u64; 3],
    /// Packets declared lost by the loss detector.
    pub packets_lost: u64,
    /// Congestion-controller phase transitions, including
    /// persistent-congestion collapses.
    pub cc_transitions: u64,
    /// PTO timer expirations.
    pub pto_expirations: u64,
    /// Connection ID rotations (migration adopting a spare peer CID).
    pub cid_rotations: u64,
    /// Times the send path stalled on the anti-amplification limit
    /// while holding data it wanted to send.
    pub amp_stalls: u64,
}

impl ConnStats {
    /// Field-wise sum; [`ConnStats::default`] is the identity.
    pub fn merge(&mut self, other: &ConnStats) {
        for i in 0..3 {
            self.packets_sealed[i] += other.packets_sealed[i];
            self.packets_opened[i] += other.packets_opened[i];
        }
        self.packets_lost += other.packets_lost;
        self.cc_transitions += other.cc_transitions;
        self.pto_expirations += other.pto_expirations;
        self.cid_rotations += other.cid_rotations;
        self.amp_stalls += other.amp_stalls;
    }

    /// Exports every counter into `reg` under the names of the endpoint
    /// that counted them: `quic/client/…` or `quic/server/…`.
    pub fn export(&self, role: Role, reg: &mut rq_obs::Registry) {
        macro_rules! add {
            ($name:literal, $value:expr) => {
                let name = match role {
                    Role::Client => concat!("quic/client/", $name),
                    Role::Server => concat!("quic/server/", $name),
                };
                reg.add(name, $value);
            };
        }
        add!("packets_sealed/initial", self.packets_sealed[0]);
        add!("packets_sealed/handshake", self.packets_sealed[1]);
        add!("packets_sealed/app", self.packets_sealed[2]);
        add!("packets_opened/initial", self.packets_opened[0]);
        add!("packets_opened/handshake", self.packets_opened[1]);
        add!("packets_opened/app", self.packets_opened[2]);
        add!("packets_lost", self.packets_lost);
        add!("cc_transitions", self.cc_transitions);
        add!("pto_expirations", self.pto_expirations);
        add!("cid_rotations", self.cid_rotations);
        add!("amp_stalls", self.amp_stalls);
    }
}

/// A fully sans-IO QUIC connection.
pub struct Connection {
    role: Role,
    /// Shared with every connection of the endpoint.
    cfg: Rc<EndpointConfig>,
    tls: TlsSession,
    /// What only the handshake reads, its two spaces included: `None`
    /// once confirmed.
    handshake: Option<Box<Handshake>>,
    /// The Application packet number space (0-RTT and 1-RTT).
    app: Space,
    rtt: RttEstimator,
    pto: PtoState,
    cc: CongestionController,
    /// Last controller phase reported to qlog (transitions only).
    last_cc_state: CcState,
    /// Send time of the latest acked ack-eliciting packet: losses of
    /// packets sent before it cannot establish persistent congestion
    /// (RFC 9002 §7.6.2 — the span must contain no acked packet).
    largest_acked_sent_time: Option<SimTime>,
    /// Our connection ID (the peer's DCID for short headers to us).
    local_cid: ConnectionId,
    /// The peer's current connection ID (our DCID).
    peer_cid: ConnectionId,
    /// The client's original DCID (Initial key derivation).
    original_dcid: ConnectionId,
    /// Datagrams fully assembled and ready to go.
    ready_datagrams: VecDeque<Bytes>,
    events: VecDeque<ConnEvent>,
    /// qlog event log for this endpoint.
    pub log: EventLog,
    handshake_complete: bool,
    /// HANDSHAKE_DONE owed to the peer (server).
    handshake_done_pending: bool,
    /// Streams.
    pub streams: StreamSet,
    /// Time of last sent or received datagram (deadlock-PTO basis).
    last_activity: Option<SimTime>,
    /// Time of the last ack-eliciting *send* (base for the quirky
    /// "default PTO only" deadlock probe of mvfst/picoquic).
    last_eliciting_send: Option<SimTime>,
    /// Open, or closed with or without a CONNECTION_CLOSE still to send.
    closing: CloseState,
    /// Server: require a Retry round trip before accepting.
    pub use_retry: bool,
    /// Received packets that newly acknowledged at least one of our
    /// packets ("packets with new ACKs", paper Figure 11).
    new_ack_packets: usize,
    /// Every path, its amplification accounting, the CIDs and the path
    /// validation probe.
    paths: Paths,
    /// Aggregated protocol counters (see [`ConnStats`]).
    stats: ConnStats,
    /// Time of the last periodic `metrics_sampled` emission.
    last_metrics_sample: Option<SimTime>,
}

impl Connection {
    /// Creates a client connection. `seed` individualizes connection IDs;
    /// `rtt_quirk_applies` resolves the probabilistic go-x-net quirk for
    /// this run (decided by the testbed's seeded RNG).
    pub fn client(cfg: impl Into<Rc<EndpointConfig>>, seed: u64, rtt_quirk_applies: bool) -> Self {
        let cfg = cfg.into();
        let local_cid = derived_cid(seed, CID_KIND_CLIENT, 0);
        let original_dcid = derived_cid(seed, CID_KIND_ORIGINAL_DCID, 0);
        let mut rtt = RttEstimator::new(MAX_ACK_DELAY);
        if let Some(pre) = cfg.quirks.buggy_rtt_preinit.filter(|_| rtt_quirk_applies) {
            rtt = rtt.with_buggy_preinit(pre);
        }
        let mut tls = TlsSession::client(cfg.resume.clone());
        tls.start();
        Connection::new(cfg, seed, tls, rtt, local_cid, original_dcid)
    }

    /// Creates a server connection for a new 4-tuple whose first datagram
    /// carried `dcid` (Initial key derivation input).
    pub fn server(cfg: impl Into<Rc<EndpointConfig>>, seed: u64, dcid: ConnectionId) -> Self {
        let cfg = cfg.into();
        let local_cid = derived_cid(seed, CID_KIND_SERVER, 0);
        let tls = TlsSession::server(TlsServerConfig {
            cert_len: cfg.cert_len,
            resumption: cfg.resumption,
        });
        let rtt = RttEstimator::new(MAX_ACK_DELAY);
        Connection::new(cfg, seed, tls, rtt, local_cid, dcid)
    }

    /// The state both roles start from; `client`/`server` supply what
    /// differs (TLS session, RTT quirks, CIDs).
    fn new(
        cfg: Rc<EndpointConfig>,
        seed: u64,
        mut tls: TlsSession,
        rtt: RttEstimator,
        local_cid: ConnectionId,
        original_dcid: ConnectionId,
    ) -> Self {
        let role = tls.role();
        let (vantage, peer_cid) = match role {
            Role::Client => (Vantage::Client(cfg.name), original_dcid),
            // The server learns the peer's CID from the client's SCID.
            Role::Server => (Vantage::Server(cfg.name), ConnectionId::EMPTY),
        };
        let handshake = Handshake::new(role, &cfg, original_dcid, &mut tls);
        let mut app = Space::default();
        app.early_keys = tls.early_keys().cloned();
        Connection {
            role,
            pto: PtoState::new(cfg.default_pto),
            cc: cfg.cc_algorithm.build(),
            last_cc_state: CcState::SlowStart,
            largest_acked_sent_time: None,
            tls,
            handshake: Some(Box::new(handshake)),
            app,
            rtt,
            local_cid,
            peer_cid,
            original_dcid,
            ready_datagrams: VecDeque::new(),
            events: VecDeque::new(),
            log: EventLog::new(vantage).capturing(cfg.capture_qlog),
            handshake_complete: false,
            handshake_done_pending: false,
            streams: StreamSet::new(INITIAL_MAX_DATA, INITIAL_MAX_STREAM_DATA),
            last_activity: None,
            last_eliciting_send: None,
            closing: CloseState::Open,
            use_retry: false,
            new_ack_packets: 0,
            paths: Paths::new(role, seed),
            stats: ConnStats::default(),
            last_metrics_sample: None,
            cfg,
        }
    }

    /// The endpoint configuration this connection shares.
    pub fn config(&self) -> &Rc<EndpointConfig> {
        &self.cfg
    }

    /// Snapshot of this connection's protocol counters.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }

    /// Endpoint role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Our connection ID (needed by drivers to route datagrams).
    pub fn local_cid(&self) -> ConnectionId {
        self.local_cid
    }

    /// The client's original destination connection ID (Initial keys).
    pub fn original_dcid(&self) -> ConnectionId {
        self.original_dcid
    }

    /// Whether 1-RTT (application) keys are installed — the server can
    /// send 1-RTT data (e.g. the HTTP/3 SETTINGS control stream) as soon
    /// as this is true, before the handshake completes (Figure 3).
    pub fn app_keys_available(&self) -> bool {
        self.app.keys.is_some()
    }

    /// Whether the handshake is confirmed here (its state is gone).
    pub fn is_confirmed(&self) -> bool {
        self.handshake.is_none()
    }

    /// Number of received packets that newly acknowledged at least one
    /// sent packet (the "packets with new ACKs" of Figure 11).
    pub fn new_ack_packets(&self) -> usize {
        self.new_ack_packets
    }

    /// Whether the handshake completed at this endpoint.
    pub fn is_established(&self) -> bool {
        self.handshake_complete
    }

    /// Whether this connection ran the abbreviated (session-resumption)
    /// handshake.
    pub fn is_resumed(&self) -> bool {
        self.tls.is_resumed()
    }

    /// Outcome of a 0-RTT early-data offer (`None`: never offered or
    /// not yet decided).
    pub fn early_data_accepted(&self) -> Option<bool> {
        self.tls.early_data_accepted()
    }

    /// RTT estimator (read-only view for tests and analyses).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Next application event, if any.
    pub fn poll_event(&mut self) -> Option<ConnEvent> {
        self.events.pop_front()
    }

    fn on_tls_event(&mut self, now: SimTime, ev: TlsEvent, spares: &mut Spares) {
        match ev {
            TlsEvent::KeysReady(level) => {
                let (idx, keys) = (level as usize, self.tls.keys(level).cloned());
                if let Some(sp) = self.space_mut(idx) {
                    sp.keys = keys;
                }
                let space = space_name(PacketNumberSpace::ALL[idx]);
                self.log.push(now, EventData::KeyInstalled { space });
                // Newly decryptable packets may be buffered.
                self.flush_pending(now, spares);
            }
            TlsEvent::NeedCertificate => {
                self.log.push(now, EventData::CertificateRequested);
                self.events.push_back(ConnEvent::CertificateNeeded);
                match self.cfg.ack_mode {
                    ServerAckMode::InstantAck { pad_to_mtu } => {
                        if self.queue_ack(now, PacketNumberSpace::Initial, pad_to_mtu, spares) {
                            self.log.push(now, EventData::InstantAck { sent: true });
                        }
                    }
                    ServerAckMode::WaitForCertificate => {
                        // The whole response path blocks on the store: no
                        // ACK leaves until the certificate is available
                        // (Figure 1a -- the sleep covers the response path).
                        if let Some(hs) = self.handshake.as_deref_mut() {
                            hs.waiting_for_cert = true;
                        }
                    }
                }
            }
            TlsEvent::ResumptionAccepted => {
                self.log.push(now, EventData::ResumptionUsed);
            }
            TlsEvent::EarlyDataAccepted => {
                self.log.push(now, EventData::EarlyData { accepted: true });
                if self.role == Role::Server {
                    // Install the 0-RTT read keys; the CH datagram may
                    // carry (or be followed by) 0-RTT packets.
                    self.app.early_keys = self.tls.early_keys().cloned();
                    self.flush_pending(now, spares);
                }
            }
            TlsEvent::EarlyDataRejected => {
                self.log.push(now, EventData::EarlyData { accepted: false });
                if let Some(hs) = self.handshake.as_deref_mut() {
                    hs.early_rejected = true;
                }
                if self.role == Role::Client {
                    // No `packet_lost` events: the reject removes the early
                    // packets from tracking (RFC 9001 §4.6.2), loss recovery
                    // did not declare them lost; `early_data {accepted:
                    // false}` above marks the unwind.
                    let freed = self.app.unwind();
                    self.cc.on_discarded(freed);
                }
                self.app.early_keys = None;
            }
            TlsEvent::TicketIssued(ticket) => {
                self.log.push(now, EventData::SessionTicket { sent: false });
                self.events.push_back(ConnEvent::TicketReceived(ticket));
            }
            TlsEvent::HandshakeComplete => {
                self.handshake_complete = true;
                self.log.push(now, EventData::HandshakeComplete);
                self.events.push_back(ConnEvent::HandshakeComplete);
                self.paths.announce_cids(self.cfg.cid_pool);
                match self.role {
                    Role::Server => {
                        self.handshake_done_pending = true;
                        self.log.push(now, EventData::HandshakeConfirmed);
                        // A ticket-issuing server queued its NST at the
                        // Application level when the handshake completed.
                        if self.tls.pending_output(Level::Application) > 0 {
                            self.log.push(now, EventData::SessionTicket { sent: true });
                        }
                        // Some stacks ACK the client Finished in the
                        // Handshake space before discarding it (Table 3).
                        if let crate::HandshakeAcks::Handshake(_) = self.cfg.handshake_acks {
                            self.queue_ack(now, PacketNumberSpace::Handshake, false, spares);
                        }
                        self.confirm();
                    }
                    Role::Client => {
                        // Client Finished (and any 1-RTT request already
                        // queued by the application) forms flight 2.
                    }
                }
            }
        }
        // Move any TLS output into the per-space crypto streams.
        self.pump_tls_output();
    }

    fn pump_tls_output(&mut self) {
        for (idx, level) in LEVELS.into_iter().enumerate() {
            let out = self.tls.take_output(level);
            if let (Some(out), Some(sp)) = (out, self.space_mut(idx)) {
                sp.crypto.queue_tx(out);
            }
        }
    }

    /// Server driver callback: the certificate arrived from the store.
    /// The flight it releases leaves with the next `poll_transmit_with`.
    /// Nothing is built here at once (only a packet kept until its keys
    /// came could ask for an ACK, and none that does is kept at this
    /// point), so it takes no spares.
    pub fn certificate_ready(&mut self, now: SimTime) {
        assert_eq!(self.role, Role::Server);
        if let Some(hs) = self.handshake.as_deref_mut() {
            hs.waiting_for_cert = false;
        }
        self.log.push(now, EventData::CertificateReady);
        let events = self.tls.provide_certificate();
        for ev in events {
            self.on_tls_event(now, ev, &mut Spares::default());
        }
        self.pump_tls_output();
    }

    /// Space `idx` (Initial, Handshake, Application), while it exists.
    fn space(&self, idx: usize) -> Option<&Space> {
        match &self.handshake {
            _ if idx == 2 => Some(&self.app),
            hs => hs.as_ref().map(|hs| &hs.spaces[idx]),
        }
    }

    /// Space `idx`, mutably, while it exists.
    fn space_mut(&mut self, idx: usize) -> Option<&mut Space> {
        space_in(&mut self.handshake, &mut self.app, idx)
    }

    /// Every space that exists, in space order.
    fn spaces(&self) -> impl Iterator<Item = &Space> {
        let handshake_spaces = self.handshake.iter().flat_map(|hs| &hs.spaces);
        handshake_spaces.chain([&self.app])
    }

    fn discard_space(&mut self, space: PacketNumberSpace) {
        let sp = self.space_mut(space.index());
        let Some(sp) = sp.filter(|sp| !sp.is_discarded()) else {
            return;
        };
        let freed = sp.discard();
        self.cc.on_discarded(freed);
        // Key discard resets the PTO backoff and timer (RFC 9002 §6.2.2).
        self.pto.on_progress();
    }

    /// Confirms the handshake: what is left of the handshake spaces is
    /// discarded, and the handshake state goes with them.
    fn confirm(&mut self) {
        self.discard_space(PacketNumberSpace::Initial);
        self.discard_space(PacketNumberSpace::Handshake);
        self.handshake = None;
    }

    /// Closes the connection: the one way a connection closes, for the
    /// application and the stack alike. With `send_close`, the next
    /// datagram is a CONNECTION_CLOSE carrying `error_code` and `reason`;
    /// without, the connection falls silent, because the peer closed
    /// first, forgot us, refused us, or is presumed gone. A no-op once
    /// closed.
    pub fn close(&mut self, now: SimTime, error_code: u64, reason: &str, send_close: bool) {
        if self.is_closed() {
            return;
        }
        self.closing = if send_close {
            CloseState::Owed(error_code, reason.to_string())
        } else {
            CloseState::Closed
        };
        self.log.push(
            now,
            EventData::ConnectionClosed {
                error_code,
                reason: reason.to_string(),
            },
        );
        self.events.push_back(ConnEvent::Closed {
            error_code,
            reason: reason.to_string(),
        });
    }

    fn is_closed(&self) -> bool {
        self.closing != CloseState::Open
    }

    fn log_metrics(&mut self, now: SimTime) {
        if let Some(s) = self.rtt.smoothed() {
            self.log.push(
                now,
                EventData::MetricsUpdated {
                    smoothed_rtt_ms: s.as_millis_f64(),
                    rtt_variance_ms: Some(self.rtt.rttvar().as_millis_f64()),
                    latest_rtt_ms: self.rtt.latest().as_millis_f64(),
                    pto_count: self.pto.pto_count,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Application data API
    // ------------------------------------------------------------------

    /// [`Connection::send_stream_data_owned`] for a caller that holds a
    /// slice: copies `data` once.
    pub fn send_stream_data(&mut self, stream_id: u64, data: &[u8], fin: bool) {
        self.send_stream_data_owned(stream_id, Bytes::copy_from_slice(data), fin);
    }

    /// Opens/extends a send stream with `data` (+FIN), owned: the stream
    /// queues the `Bytes` itself and every STREAM frame it sends is a
    /// view of it, so a caller that keeps a clone serves the same
    /// storage to any number of streams and connections.
    pub fn send_stream_data_owned(&mut self, stream_id: u64, data: Bytes, fin: bool) {
        self.streams.send_stream(stream_id).write_owned(data, fin);
    }
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

/// Deterministic retry token bound to the client's source CID.
fn retry_token_for(scid: &ConnectionId) -> Vec<u8> {
    let mut t = b"retry-token:".to_vec();
    t.extend_from_slice(scid.as_slice());
    t
}

/// Wire prefix of the simulator's stateless-reset-style datagram. A real
/// stack hides the reset token in an unpredictable short-header tail
/// (RFC 9000 §10.3); the simulator only needs the *semantics* — an
/// unforgeable-in-context "I lost your state" signal — so it uses a
/// distinguished prefix no packet codec ever emits (packets start with a
/// form/type byte, never 0x00).
pub const STATELESS_RESET_PREFIX: &[u8] = b"\x00reacked:stateless-reset";
/// Wire prefix of the "server busy, go away" refusal datagram the
/// `CloseWithBackoff` overload policy answers with.
pub const SERVER_BUSY_PREFIX: &[u8] = b"\x00reacked:server-busy";

/// Builds the stateless-reset-style datagram a restarted server sends to
/// a connection it no longer remembers.
pub fn stateless_reset_datagram(orphan_cid: ConnectionId) -> Bytes {
    let cid = orphan_cid.as_slice();
    Bytes::build(STATELESS_RESET_PREFIX.len() + cid.len(), |mut d| {
        d.put_slice(STATELESS_RESET_PREFIX);
        d.put_slice(cid);
    })
}

/// Builds the busy-refusal datagram of the `CloseWithBackoff` policy.
pub fn server_busy_datagram() -> Bytes {
    Bytes::copy_from_slice(SERVER_BUSY_PREFIX)
}

/// Builds a *stateless* Retry datagram for a tokenless client Initial —
/// the `RetryDefer` overload policy answers from outside any connection,
/// exactly like a production server validating addresses before
/// committing state. `client_scid` is the Initial's SCID (the token is
/// bound to it); `server_cid` becomes the Retry's SCID.
pub fn stateless_retry_datagram(client_scid: ConnectionId, server_cid: ConnectionId) -> Bytes {
    let token = retry_token_for(&client_scid);
    let hdr = Header::retry(client_scid, server_cid, token);
    let pkt = PlainPacket::new(hdr, Vec::new()).expect("retry has no frames");
    pkt.to_bytes(&[0u8; 16])
}

fn space_name(space: PacketNumberSpace) -> SpaceName {
    match space {
        PacketNumberSpace::Initial => SpaceName::Initial,
        PacketNumberSpace::Handshake => SpaceName::Handshake,
        PacketNumberSpace::Application => SpaceName::ApplicationData,
    }
}

/// The TLS level of each packet number space, by space index.
const LEVELS: [Level; 3] = [Level::Initial, Level::Handshake, Level::Application];

#[cfg(test)]
mod tests;
