//! The QUIC connection state machine (sans-IO).
//!
//! Drives a full RFC 9000/9001/9002 1-RTT handshake and data transfer over
//! the simulated TLS stack, with the two server behaviours the paper
//! compares — wait-for-certificate and instant ACK — plus every client
//! quirk the paper traces performance differences to.
//!
//! The API is poll-based:
//! * [`Connection::handle_datagram`] — feed a received UDP payload;
//! * [`Connection::poll_transmit`] — drain outgoing UDP payloads;
//! * [`Connection::poll_timeout`] / [`Connection::handle_timeout`] — timer
//!   management (loss detection, PTO, delayed ACKs);
//! * [`Connection::poll_event`] — application-facing events.

use std::collections::VecDeque;

use bytes::Bytes;
use rq_qlog::{EventData, EventLog, FrameSummary, SpaceName};
use rq_recovery::{
    persistent_congestion_duration, CcState, CongestionControl, PtoState, RttEstimator, RttVariant,
    SentPacket, SentTracker,
};
use rq_sim::{SimDuration, SimRng, SimTime};
use rq_tls::{
    initial_keys, seal_tag, verify_tag, ClientConfig as TlsClientConfig, KeySide, Level, LevelKeys,
    ServerConfig as TlsServerConfig, TlsEvent, TlsSession,
};
use rq_wire::{
    AckFrame, ConnectionId, Frame, Header, PacketNumberSpace, PacketType, PlainPacket,
    MIN_INITIAL_DATAGRAM,
};

use crate::bytestream::Run;
use crate::config::{AckDelayReport, EndpointConfig, ProbePolicy, ServerAckMode};
use crate::space::{retx_content_of, RetxContent, SpaceState};
use crate::streams::StreamSet;

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

/// Endpoint role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Client endpoint.
    Client,
    /// Server endpoint.
    Server,
}

/// Stream tag of the CID-derivation coordinate space: every connection ID
/// is `derive(cid_seed, [CID_STREAM, kind, seq])`, a pure function of its
/// coordinates, so rotated CIDs from one seed can never collide the way
/// the old XOR-of-constants scheme could.
const CID_STREAM: u64 = 0xC1D_0;
/// Stream tag for PATH_CHALLENGE probe data.
const CHALLENGE_STREAM: u64 = 0xCA_11E;

/// CID kind: a client's locally chosen CIDs (seq 0 = handshake CID).
pub const CID_KIND_CLIENT: u64 = 0;
/// CID kind: the client's original destination CID (Initial keys).
pub const CID_KIND_ORIGINAL_DCID: u64 = 1;
/// CID kind: a server's locally chosen CIDs (seq 0 = handshake CID).
pub const CID_KIND_SERVER: u64 = 2;
/// CID kind: the CID a stateless Retry hands the client.
pub const CID_KIND_RETRY: u64 = 3;

/// Derives the 8-byte connection ID at `(kind, seq)` for `cid_seed`.
/// Drivers use this to predict every CID a connection will announce
/// (e.g. to index migrated clients by rotated CID without extra state).
pub fn derived_cid(cid_seed: u64, kind: u64, seq: u64) -> ConnectionId {
    let mut rng = SimRng::derive(cid_seed, &[CID_STREAM, kind, seq]);
    ConnectionId::from_u64(rng.next_u64())
}

/// Path validation gives up after this many challenge retransmissions.
const PATH_CHALLENGE_MAX_RETRIES: u32 = 3;

/// Per-path accounting and validation state (RFC 9000 §9). The implicit
/// handshake path (id 0) is validated by the handshake itself and never
/// appears here; entries exist only for paths seen after a migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathState {
    /// Path id (the simulator's link path).
    pub id: u64,
    /// Bytes sent while this path was active.
    pub bytes_sent: usize,
    /// Bytes received on this path.
    pub bytes_received: usize,
    /// PATH_RESPONSE received: the peer is reachable on this path.
    pub validated: bool,
    /// Validation abandoned after exhausting challenge retries.
    pub abandoned: bool,
}

/// An in-flight PATH_CHALLENGE (one at a time; a new migration replaces
/// any outstanding probe).
#[derive(Debug, Clone)]
struct PathChallengeState {
    /// Random probe data the response must echo (RFC 9000 §8.2.1).
    data: u64,
    /// Path being validated.
    path: u64,
    /// When the current attempt times out.
    deadline: SimTime,
    /// Retransmissions so far.
    retries: u32,
    /// The frame for the current attempt has not left yet.
    needs_send: bool,
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
        /// Newly contiguous bytes.
        data: Vec<u8>,
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
/// zero-cost), exported into an [`rq_obs::Registry`] under a
/// caller-chosen prefix at snapshot time. Field-wise summable, so
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

    /// Exports every counter into `reg` under `prefix` (no separator is
    /// added — pass e.g. `"quic/client/"`).
    pub fn export(&self, prefix: &str, reg: &mut rq_obs::Registry) {
        const SPACES: [&str; 3] = ["initial", "handshake", "app"];
        for (i, space) in SPACES.iter().enumerate() {
            reg.add(
                &format!("{prefix}packets_sealed/{space}"),
                self.packets_sealed[i],
            );
            reg.add(
                &format!("{prefix}packets_opened/{space}"),
                self.packets_opened[i],
            );
        }
        reg.add(&format!("{prefix}packets_lost"), self.packets_lost);
        reg.add(&format!("{prefix}cc_transitions"), self.cc_transitions);
        reg.add(&format!("{prefix}pto_expirations"), self.pto_expirations);
        reg.add(&format!("{prefix}cid_rotations"), self.cid_rotations);
        reg.add(&format!("{prefix}amp_stalls"), self.amp_stalls);
    }
}

/// A fully sans-IO QUIC connection.
pub struct Connection {
    role: Role,
    cfg: EndpointConfig,
    tls: TlsSession,
    /// Per-space protocol state (Initial, Handshake, Application).
    spaces: [SpaceState; 3],
    /// Per-space sent-packet trackers.
    trackers: [SentTracker; 3],
    rtt: RttEstimator,
    pto: PtoState,
    cc: Box<dyn CongestionControl>,
    /// Last controller phase reported to qlog (transitions only).
    last_cc_state: CcState,
    /// Send time of the latest acked ack-eliciting packet: losses of
    /// packets sent before it cannot establish persistent congestion
    /// (RFC 9002 §7.6.2 — the span must contain no acked packet).
    largest_acked_sent_time: Option<SimTime>,
    keys: [Option<LevelKeys>; 3],
    /// Our connection ID (the peer's DCID for short headers to us).
    local_cid: ConnectionId,
    /// The peer's current connection ID (our DCID).
    peer_cid: ConnectionId,
    /// The client's original DCID (Initial key derivation).
    original_dcid: ConnectionId,
    /// Anti-amplification accounting (server).
    bytes_received: usize,
    bytes_sent: usize,
    address_validated: bool,
    /// Datagrams fully assembled and ready to go.
    ready_datagrams: VecDeque<Vec<u8>>,
    /// Buffered packets for which keys are not yet available: the decoded
    /// packet, its payload wire bytes (what the tag authenticates), the
    /// tag, and the packet's wire size.
    pending_packets: Vec<(PlainPacket, Vec<u8>, [u8; 16], usize)>,
    events: VecDeque<ConnEvent>,
    /// qlog event log for this endpoint.
    pub log: EventLog,
    handshake_complete: bool,
    handshake_confirmed: bool,
    /// HANDSHAKE_DONE owed to the peer (server).
    handshake_done_pending: bool,
    /// Client: an instant ACK (pure-ACK Initial) was received.
    iack_received: bool,
    /// PNs of PING probes we sent in the Initial space (quiche quirk).
    initial_ping_pns: Vec<u64>,
    /// Number of datagrams we dropped ourselves (quiche quirk bookkeeping).
    self_dropped: usize,
    /// Ping-reply drop budget remaining (quiche quirk).
    ping_reply_drop_budget: usize,
    /// Copy of the ClientHello crypto bytes for probe retransmission.
    initial_crypto_copy: Vec<u8>,
    /// Whether the client's second flight was already emitted.
    flight2_sent: bool,
    /// Streams.
    pub streams: StreamSet,
    /// Time of last sent or received datagram (deadlock-PTO basis).
    last_activity: Option<SimTime>,
    /// Time of the last ack-eliciting *send* (base for the quirky
    /// "default PTO only" deadlock probe of mvfst/picoquic).
    last_eliciting_send: Option<SimTime>,
    /// Client: when the first datagram left (base of the `give_up_after`
    /// handshake deadline).
    first_send_at: Option<SimTime>,
    /// Close state.
    closed: bool,
    close_frame_pending: Option<(u64, String)>,
    /// Amplification-blocked diagnostic latch (one event per stall).
    amp_blocked_logged: bool,
    /// Retry support: token we must echo in Initials (client).
    token: Vec<u8>,
    /// Server: require a Retry round trip before accepting.
    pub use_retry: bool,
    retry_sent: bool,
    /// Server in WFC mode: the request handler is blocked on the
    /// certificate store; nothing is sent until `certificate_ready`
    /// (Figure 1a — the sleep covers the whole response path).
    waiting_for_cert: bool,
    /// Received packets that newly acknowledged at least one of our
    /// packets ("packets with new ACKs", paper Figure 11).
    new_ack_packets: usize,
    /// A Handshake packet arrived before its keys existed (the ServerHello
    /// was lost): the out-of-order first flight that trips quiche's
    /// duplicate-CID-retirement bug under IACK (§4.2 / App. F).
    buffered_hs_before_keys: bool,
    /// 0-RTT packet protection: the client derives these from its ticket
    /// before the first flight, the server after validating the ticket.
    early_keys: Option<LevelKeys>,
    /// Early data was rejected (or the PSK offer failed): the client
    /// requeues 0-RTT content as 1-RTT, the server drops 0-RTT packets.
    early_rejected: bool,
    /// Seed all locally derived CIDs and challenge data come from.
    cid_seed: u64,
    /// Spare CIDs the peer announced via NEW_CONNECTION_ID: (seq, cid),
    /// not yet rotated to.
    peer_cid_pool: Vec<(u64, ConnectionId)>,
    /// Sequence number of the peer CID currently in `peer_cid`.
    peer_cid_seq: u64,
    /// NEW_CONNECTION_ID announcements owed to the peer
    /// (seq, retire_prior_to, cid bytes).
    pending_new_cids: Vec<(u64, u64, Vec<u8>)>,
    /// RETIRE_CONNECTION_ID frames owed to the peer.
    pending_retire_cids: Vec<u64>,
    /// PATH_RESPONSE data owed (echo of a received PATH_CHALLENGE).
    pending_path_response: Option<u64>,
    /// Outstanding path validation, if any.
    path_challenge: Option<PathChallengeState>,
    /// Per-path accounting; empty until a non-default path appears.
    paths: Vec<PathState>,
    /// Path id of the currently active path (0 = handshake path).
    active_path: u64,
    /// Aggregated protocol counters (see [`ConnStats`]).
    stats: ConnStats,
    /// Time of the last periodic `metrics_sampled` emission.
    last_metrics_sample: Option<SimTime>,
}

impl Connection {
    /// Creates a client connection. `cid_seed` individualizes connection
    /// IDs; `rtt_quirk_applies` resolves the probabilistic go-x-net quirk
    /// for this run (decided by the testbed's seeded RNG).
    pub fn client(cfg: EndpointConfig, cid_seed: u64, rtt_quirk_applies: bool) -> Self {
        let local_cid = derived_cid(cid_seed, CID_KIND_CLIENT, 0);
        let original_dcid = derived_cid(cid_seed, CID_KIND_ORIGINAL_DCID, 0);
        let mut rtt = RttEstimator::new(cfg.max_ack_delay);
        if cfg.quirks.aioquic_rttvar {
            rtt = rtt.with_variant(RttVariant::AioquicOrder);
        }
        if rtt_quirk_applies {
            if let Some(pre) = cfg.quirks.buggy_rtt_preinit {
                rtt = rtt.with_buggy_preinit(pre);
            }
        }
        let mut tls = TlsSession::client(TlsClientConfig {
            ticket: cfg.session_ticket.clone(),
            early_data: cfg.enable_early_data && cfg.session_ticket.is_some(),
            ..TlsClientConfig::full()
        });
        tls.start();
        let mut conn = Connection::new(
            Role::Client,
            cfg,
            cid_seed,
            tls,
            rtt,
            local_cid,
            original_dcid,
        );
        conn.early_keys = conn.tls.early_keys().cloned();
        if conn.cfg.quirks.drop_ping_reply_coalesced {
            conn.ping_reply_drop_budget = 1;
        }
        // Queue the ClientHello into the Initial crypto stream.
        if let Some(ch) = conn.tls.take_output(Level::Initial) {
            conn.initial_crypto_copy = ch.to_vec();
            conn.spaces[0].crypto.queue_tx(&ch);
        }
        conn
    }

    /// Creates a server connection for a new 4-tuple whose first datagram
    /// carried `original_dcid` (Initial key derivation input).
    pub fn server(cfg: EndpointConfig, cid_seed: u64, original_dcid: ConnectionId) -> Self {
        let local_cid = derived_cid(cid_seed, CID_KIND_SERVER, 0);
        let tls = TlsSession::server(TlsServerConfig {
            cert_len: cfg.cert_len,
            random: [0x22; 32],
            cert_preprovisioned: false,
            resumption: cfg.resumption,
            ticket_key: cfg.ticket_key,
            accept_ticket_keys: cfg.accept_ticket_keys.clone(),
        });
        let rtt = RttEstimator::new(cfg.max_ack_delay);
        Connection::new(
            Role::Server,
            cfg,
            cid_seed,
            tls,
            rtt,
            local_cid,
            original_dcid,
        )
    }

    /// The state both roles start from; `client`/`server` supply what
    /// differs (TLS session, RTT quirks, CIDs).
    fn new(
        role: Role,
        cfg: EndpointConfig,
        cid_seed: u64,
        tls: TlsSession,
        rtt: RttEstimator,
        local_cid: ConnectionId,
        original_dcid: ConnectionId,
    ) -> Self {
        let (role_name, peer_cid) = match role {
            Role::Client => ("client", original_dcid),
            Role::Server => ("server", ConnectionId::EMPTY), // learned from the client's SCID
        };
        Connection {
            role,
            pto: PtoState::new(cfg.default_pto),
            cc: cfg.cc_algorithm.build(),
            last_cc_state: CcState::SlowStart,
            largest_acked_sent_time: None,
            tls,
            spaces: Default::default(),
            trackers: Default::default(),
            rtt,
            keys: [Some(initial_keys(original_dcid.as_slice())), None, None],
            local_cid,
            peer_cid,
            original_dcid,
            bytes_received: 0,
            bytes_sent: 0,
            // Clients are never amplification-limited.
            address_validated: role == Role::Client,
            ready_datagrams: VecDeque::new(),
            pending_packets: Vec::new(),
            events: VecDeque::new(),
            log: EventLog::new(format!("{role_name}:{}", cfg.name)),
            handshake_complete: false,
            handshake_confirmed: false,
            handshake_done_pending: false,
            iack_received: false,
            initial_ping_pns: Vec::new(),
            self_dropped: 0,
            ping_reply_drop_budget: 0,
            initial_crypto_copy: Vec::new(),
            // A server has no client flight 2.
            flight2_sent: role == Role::Server,
            streams: StreamSet::new(cfg.initial_max_data, cfg.initial_max_stream_data),
            last_activity: None,
            last_eliciting_send: None,
            first_send_at: None,
            closed: false,
            close_frame_pending: None,
            amp_blocked_logged: false,
            token: Vec::new(),
            use_retry: false,
            retry_sent: false,
            waiting_for_cert: false,
            new_ack_packets: 0,
            buffered_hs_before_keys: false,
            early_keys: None,
            early_rejected: false,
            cid_seed,
            peer_cid_pool: Vec::new(),
            peer_cid_seq: 0,
            pending_new_cids: Vec::new(),
            pending_retire_cids: Vec::new(),
            pending_path_response: None,
            path_challenge: None,
            paths: Vec::new(),
            active_path: 0,
            stats: ConnStats::default(),
            last_metrics_sample: None,
            cfg,
        }
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
        self.keys[2].is_some()
    }

    /// Whether the handshake is confirmed at this endpoint.
    pub fn is_confirmed(&self) -> bool {
        self.handshake_confirmed
    }

    /// Number of received packets that newly acknowledged at least one
    /// sent packet (the "packets with new ACKs" of Figure 11).
    pub fn new_ack_packets(&self) -> usize {
        self.new_ack_packets
    }

    /// Whether the connection is closed.
    pub fn is_closed(&self) -> bool {
        self.closed
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

    /// Whether 0-RTT keys are installed (client: before the handshake;
    /// server: after accepting the offered early data).
    pub fn early_keys_available(&self) -> bool {
        self.early_keys.is_some()
    }

    /// RTT estimator (read-only view for tests and analyses).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// PTO backoff state (read-only view).
    pub fn pto_state(&self) -> &PtoState {
        &self.pto
    }

    /// Bytes of amplification budget remaining (servers before address
    /// validation); `usize::MAX` once validated. After a migration the
    /// limit applies *per path*: an unvalidated new path is capped at 3×
    /// the bytes received on it, exactly like a fresh Initial
    /// (RFC 9000 §9.3.1), regardless of the old path's validation.
    pub fn amplification_budget(&self) -> usize {
        if self.role == Role::Server && self.active_path != 0 {
            if let Some(p) = self.paths.iter().find(|p| p.id == self.active_path) {
                if !p.validated {
                    return (3 * p.bytes_received).saturating_sub(p.bytes_sent);
                }
            }
        }
        if self.address_validated {
            usize::MAX
        } else {
            (3 * self.bytes_received).saturating_sub(self.bytes_sent)
        }
    }

    /// Path id of the currently active path (0 = handshake path).
    pub fn active_path(&self) -> u64 {
        self.active_path
    }

    /// Per-path accounting entries (non-default paths only).
    pub fn paths(&self) -> &[PathState] {
        &self.paths
    }

    /// Accounting entry for one path, if it ever carried traffic.
    pub fn path_state(&self, id: u64) -> Option<&PathState> {
        self.paths.iter().find(|p| p.id == id)
    }

    /// Whether a PATH_CHALLENGE is still awaiting its response.
    pub fn path_validation_pending(&self) -> bool {
        self.path_challenge.is_some()
    }

    /// Spare CIDs the peer has announced and we have not rotated to yet.
    pub fn spare_peer_cids(&self) -> usize {
        self.peer_cid_pool.len()
    }

    fn ensure_path(&mut self, id: u64) -> &mut PathState {
        if let Some(i) = self.paths.iter().position(|p| p.id == id) {
            return &mut self.paths[i];
        }
        self.paths.push(PathState {
            id,
            bytes_sent: 0,
            bytes_received: 0,
            validated: false,
            abandoned: false,
        });
        self.paths.last_mut().unwrap()
    }

    // ------------------------------------------------------------------
    // Connection migration (RFC 9000 §9)
    // ------------------------------------------------------------------

    /// Client API: deliberately migrate to `path`. Rotates the DCID to a
    /// spare CID from the peer's pool (retiring the old one so packets on
    /// the two paths are not linkable), resets RTT and congestion state
    /// for the new path (§9.4), and starts PATH_CHALLENGE validation.
    /// No-ops before the handshake completes or when already on `path`.
    pub fn migrate(&mut self, now: SimTime, path: u64) {
        if self.closed || !self.handshake_complete || path == self.active_path {
            return;
        }
        self.active_path = path;
        let already_validated = self.ensure_path(path).validated;
        self.log.push(
            now,
            EventData::MigrationStarted {
                path,
                deliberate: true,
            },
        );
        // Rotate to an unused peer-issued CID (RFC 9000 §9.5).
        if let Some(pos) = self
            .peer_cid_pool
            .iter()
            .position(|(s, _)| *s > self.peer_cid_seq)
        {
            let (seq, cid) = self.peer_cid_pool.remove(pos);
            self.pending_retire_cids.push(self.peer_cid_seq);
            self.peer_cid = cid;
            self.peer_cid_seq = seq;
            self.stats.cid_rotations += 1;
        }
        if !already_validated {
            self.reset_path_metrics();
            self.start_path_challenge(now, path);
        }
    }

    /// Server side: the peer's packets started arriving on a new path —
    /// a NAT rebind or a migration we were not told about. Adopt the
    /// path, cap it at 3× until validated, and probe it (§9.3).
    fn on_peer_path_switch(&mut self, now: SimTime, path: u64) {
        self.active_path = path;
        let already_validated = path == 0 || self.ensure_path(path).validated;
        self.log.push(
            now,
            EventData::MigrationStarted {
                path,
                deliberate: false,
            },
        );
        if !already_validated {
            self.reset_path_metrics();
            self.start_path_challenge(now, path);
        }
    }

    /// RFC 9000 §9.4: RTT and congestion state do not carry over to a new
    /// path; both restart from initial values.
    fn reset_path_metrics(&mut self) {
        let mut rtt = RttEstimator::new(self.cfg.max_ack_delay);
        if self.cfg.quirks.aioquic_rttvar {
            rtt = rtt.with_variant(RttVariant::AioquicOrder);
        }
        self.rtt = rtt;
        self.cc = self.cfg.cc_algorithm.build();
        self.last_cc_state = CcState::SlowStart;
    }

    fn start_path_challenge(&mut self, now: SimTime, path: u64) {
        let mut rng = SimRng::derive(self.cid_seed, &[CHALLENGE_STREAM, path, 0]);
        self.path_challenge = Some(PathChallengeState {
            data: rng.next_u64(),
            path,
            deadline: now + self.challenge_timeout(0),
            retries: 0,
            needs_send: true,
        });
    }

    /// Challenge timeout: default PTO with exponential backoff (the path
    /// has no RTT samples yet, so the pre-sample PTO is the right scale).
    fn challenge_timeout(&self, retries: u32) -> SimDuration {
        self.cfg.default_pto.mul(1u64 << retries.min(6))
    }

    /// An outstanding PATH_CHALLENGE timed out: retransmit with fresh
    /// probe data, or abandon the path after exhausting retries (§8.2.4).
    fn on_path_challenge_timeout(&mut self, now: SimTime) {
        let Some(mut ch) = self.path_challenge.take() else {
            return;
        };
        if ch.retries >= PATH_CHALLENGE_MAX_RETRIES {
            let path = ch.path;
            self.ensure_path(path).abandoned = true;
            self.log.push(now, EventData::PathAbandoned { path });
            return;
        }
        ch.retries += 1;
        let mut rng = SimRng::derive(
            self.cid_seed,
            &[CHALLENGE_STREAM, ch.path, ch.retries as u64],
        );
        ch.data = rng.next_u64();
        ch.deadline = now + self.challenge_timeout(ch.retries);
        ch.needs_send = true;
        self.path_challenge = Some(ch);
    }

    /// Next application event, if any.
    pub fn poll_event(&mut self) -> Option<ConnEvent> {
        self.events.pop_front()
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Processes one received UDP datagram (on the active path).
    pub fn handle_datagram(&mut self, now: SimTime, data: &[u8]) {
        let path = self.active_path;
        self.handle_datagram_on_path(now, data, path);
    }

    /// Processes one received UDP datagram that arrived on `path`.
    /// Migration-aware drivers pass the simulator's per-event path id so
    /// the connection can notice the peer moving (RFC 9000 §9.5: a packet
    /// from a new address is an implicit migration/NAT rebind).
    pub fn handle_datagram_on_path(&mut self, now: SimTime, data: &[u8], path: u64) {
        if self.closed {
            return;
        }
        if path != self.active_path {
            if self.role == Role::Server && self.cfg.cid_pool > 0 && self.handshake_complete {
                self.on_peer_path_switch(now, path);
            } else {
                // Clients (and pre-migration-era endpoints) simply follow
                // the route: their sends already ride the rebound link.
                self.active_path = path;
                if path != 0 {
                    self.ensure_path(path).validated = true;
                }
            }
        }
        // Fault-injection signals travel outside the packet codec (their
        // leading 0x00 byte fails the fixed-bit check of every real
        // packet). The connection dies silently: there is no point
        // closing back at a peer that already forgot us or refused us.
        if data.starts_with(STATELESS_RESET_PREFIX) {
            self.log.push(now, EventData::StatelessReset);
            self.abort(now, ERROR_STATELESS_RESET, "stateless reset");
            self.close_frame_pending = None;
            return;
        }
        if data.starts_with(SERVER_BUSY_PREFIX) {
            self.abort(now, ERROR_SERVER_BUSY, "server busy");
            self.close_frame_pending = None;
            return;
        }
        self.last_activity = Some(now);
        self.bytes_received += data.len();
        if path != 0 {
            self.ensure_path(path).bytes_received += data.len();
        }
        self.amp_blocked_logged = false;

        // quiche quirk: drop a datagram whose leading Initial packet is a
        // reply to one of our PING probes, together with all coalesced
        // packets (paper §4.1).
        if self.ping_reply_drop_budget > 0 {
            if let Ok((pkt, _, used)) = PlainPacket::decode(data, 8) {
                // "together with coalesced packets": the bug only hits
                // datagrams where the ping-acking Initial is followed by
                // further coalesced packets.
                if pkt.header.ty == PacketType::Initial && used < data.len() {
                    let acks_ping = pkt.frames.iter().any(|f| match f {
                        Frame::Ack(a) => self.initial_ping_pns.iter().any(|pn| a.acks(*pn)),
                        _ => false,
                    });
                    if acks_ping {
                        self.ping_reply_drop_budget -= 1;
                        self.self_dropped += 1;
                        return;
                    }
                }
            }
        }

        let mut rest = data;
        while !rest.is_empty() {
            let Ok((pkt, payload, tag, consumed)) = PlainPacket::decode_with_payload(rest, 8)
            else {
                return; // undecodable remainder: drop silently
            };
            rest = &rest[consumed..];
            self.accept_packet(now, pkt, payload, tag, consumed);
        }
        // Server address validation: a Handshake packet proves the client
        // owns the address (RFC 9000 §8.1).
        self.flush_pending(now);
    }

    /// Key-gates and authenticates one decoded packet. `payload` is the
    /// packet's frame bytes as they arrived: the tag is verified over the
    /// wire bytes, never over a re-encoding.
    fn accept_packet(
        &mut self,
        now: SimTime,
        pkt: PlainPacket,
        payload: &[u8],
        tag: [u8; 16],
        size: usize,
    ) {
        let space = pkt.space();
        let idx = space.index();
        if self.spaces[idx].discarded {
            return;
        }
        if pkt.header.ty == PacketType::Retry {
            self.on_retry(pkt);
            return;
        }
        // Server-side Retry (RFC 9000 §8.1.2): demand an address-validation
        // token before processing the first Initial.
        if self.role == Role::Server && self.use_retry && pkt.header.ty == PacketType::Initial {
            if pkt.header.token.is_empty() {
                if !self.retry_sent {
                    self.retry_sent = true;
                    self.peer_cid = pkt.header.scid;
                    self.ready_datagrams
                        .push_back(stateless_retry_datagram(self.peer_cid, self.local_cid));
                }
                return; // drop the tokenless Initial
            }
            if pkt.header.token == retry_token_for(&pkt.header.scid) {
                // A valid token proves the client address (no 3x limit).
                self.address_validated = true;
            }
        }
        // 0-RTT packets are protected under the early keys, not the
        // (not-yet-existing) 1-RTT keys of their shared number space.
        let keys = if pkt.header.ty == PacketType::ZeroRtt {
            if self.role != Role::Server {
                return; // only servers receive 0-RTT
            }
            match &self.early_keys {
                Some(k) => k,
                None => {
                    // Keys exist once the CH's ticket is validated with
                    // early data accepted. If the handshake already
                    // progressed without them, the offer was rejected
                    // (or absent): drop per RFC 9001 §5.7. Otherwise the
                    // 0-RTT packet raced ahead of the CH — buffer it.
                    if self.early_rejected || self.keys[1].is_some() {
                        return;
                    }
                    self.pending_packets
                        .push((pkt, payload.to_vec(), tag, size));
                    return;
                }
            }
        } else {
            match &self.keys[idx] {
                Some(k) => k,
                None => {
                    // Keys not yet available (e.g. Handshake packets
                    // arriving while the ServerHello is lost): buffer.
                    if space == PacketNumberSpace::Handshake {
                        self.buffered_hs_before_keys = true;
                    }
                    self.pending_packets
                        .push((pkt, payload.to_vec(), tag, size));
                    return;
                }
            }
        };
        let peer_side = match self.role {
            Role::Client => KeySide::Server,
            Role::Server => KeySide::Client,
        };
        let key = keys.for_side(peer_side);
        if !verify_tag(key, pkt.header.pn, payload, &tag) {
            return; // forged/corrupt packet: drop
        }
        self.process_packet(now, pkt, size);
    }

    /// Re-processes buffered packets once keys become available.
    fn flush_pending(&mut self, now: SimTime) {
        if self.pending_packets.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending_packets);
        for (pkt, payload, tag, size) in pending {
            self.accept_packet(now, pkt, &payload, tag, size);
        }
    }

    fn process_packet(&mut self, now: SimTime, pkt: PlainPacket, size: usize) {
        let space = pkt.space();
        let idx = space.index();
        let ack_eliciting = pkt.is_ack_eliciting();
        let is_ack_only = pkt.is_ack_only();
        if !self.spaces[idx]
            .recv
            .on_packet(pkt.header.pn, ack_eliciting, now)
        {
            return; // duplicate
        }
        self.stats.packets_opened[idx] += 1;
        self.log.push(
            now,
            EventData::PacketReceived {
                space: space_name(space),
                pn: pkt.header.pn,
                size,
                ack_eliciting,
                frames: frame_summaries(&pkt.frames),
            },
        );
        // Arm the delayed-ACK deadline. Application space: max_ack_delay.
        // Handshake spaces at the *client*: a short batching window so the
        // first server flight is acknowledged as part of the second client
        // flight (Figure 3's wire image / Table 4's datagram mapping)
        // rather than with one standalone ACK per arriving datagram.
        let batching = if space == PacketNumberSpace::Application {
            Some(self.cfg.max_ack_delay)
        } else if self.role == Role::Client && !self.handshake_complete {
            Some(SimDuration::from_millis(2))
        } else {
            None
        };
        if ack_eliciting {
            if let Some(window) = batching {
                let deadline = now + window;
                let recv = &mut self.spaces[idx].recv;
                recv.ack_deadline = Some(recv.ack_deadline.map_or(deadline, |d| d.min(deadline)));
            }
        }

        // Server: learn the client's SCID; client: learn the server's SCID.
        if pkt.header.ty == PacketType::Initial || pkt.header.ty == PacketType::Handshake {
            if self.peer_cid.is_empty() || self.role == Role::Client {
                if !pkt.header.scid.is_empty() {
                    self.peer_cid = pkt.header.scid;
                }
            }
        }

        // Client: detect an instant ACK (pure-ACK Initial packet).
        if self.role == Role::Client && space == PacketNumberSpace::Initial && is_ack_only {
            if !self.iack_received {
                self.iack_received = true;
                self.log.push(now, EventData::InstantAck { sent: false });
            }
        }

        // Server: Handshake packet validates the client address.
        if self.role == Role::Server && pkt.header.ty == PacketType::Handshake {
            self.address_validated = true;
            // Receiving Handshake also means Initial keys can be discarded.
            self.discard_space(PacketNumberSpace::Initial);
        }

        for frame in &pkt.frames {
            self.process_frame(now, space, &pkt, frame);
            if self.closed {
                return;
            }
        }
    }

    fn process_frame(
        &mut self,
        now: SimTime,
        space: PacketNumberSpace,
        pkt: &PlainPacket,
        frame: &Frame,
    ) {
        let idx = space.index();
        match frame {
            Frame::Padding { .. } | Frame::Ping => {}
            Frame::Ack(ack) => self.on_ack_frame(now, space, pkt, ack),
            Frame::Crypto { offset, data } => {
                let (contiguous, dup) = self.spaces[idx].crypto.on_rx(*offset, data);
                // A server receiving a retransmitted ClientHello treats it
                // as a probe that its first flight was lost and resends the
                // oldest unacked flight data (the mechanism behind the
                // paper's §5 client-side improvement).
                if self.role == Role::Server && dup && space == PacketNumberSpace::Initial {
                    for sp in [PacketNumberSpace::Initial, PacketNumberSpace::Handshake] {
                        let i = sp.index();
                        if let Some(oldest) = self.trackers[i].oldest_ack_eliciting() {
                            if let Some(content) =
                                self.spaces[i].retx.get(&oldest.retx_token).cloned()
                            {
                                self.spaces[i].queue_retx(content);
                            }
                        }
                    }
                }
                // quiche quirk (§4.2/App. F): under IACK, receiving the
                // ServerHello as a *retransmission* — visible on the wire
                // as a gap in the server's Initial packet numbers — makes
                // quiche retire the same connection ID twice and drop the
                // connection. Triggers exactly in the Figure 6/12 loss
                // pattern (original SH lost, resent after the server PTO)
                // and never in the in-order Figures 5/7 flows.
                if self.role == Role::Client
                    && self.cfg.quirks.abort_on_initial_retransmit_after_iack
                    && self.iack_received
                    && space == PacketNumberSpace::Initial
                    && !self.spaces[idx].recv.is_contiguous_from_zero()
                {
                    self.abort(now, 0x0a, "duplicate connection id retirement");
                    return;
                }
                if !contiguous.is_empty() {
                    let level = level_of(space);
                    match self.tls.read_crypto(level, &contiguous) {
                        Ok(events) => {
                            for ev in events {
                                self.on_tls_event(now, ev);
                            }
                        }
                        Err(_) => self.abort(now, 0x0d, "tls protocol violation"),
                    }
                }
            }
            Frame::Stream {
                id,
                offset,
                data,
                fin,
            } => {
                let rs = self.streams.recv_stream(*id);
                let newly = rs.on_frame(*offset, data, *fin);
                let complete = rs.is_complete();
                if !newly.is_empty() || (*fin && complete) {
                    self.streams.data_recvd += newly.len() as u64;
                    self.events.push_back(ConnEvent::StreamData {
                        id: *id,
                        data: newly,
                        fin: complete,
                    });
                }
            }
            Frame::MaxData { max } => {
                if *max > self.streams.peer_max_data {
                    self.streams.peer_max_data = *max;
                }
            }
            Frame::MaxStreamData { id, max } => {
                let ss = self.streams.send_stream(*id);
                if *max > ss.max_stream_data {
                    ss.max_stream_data = *max;
                }
            }
            Frame::MaxStreams { .. } | Frame::DataBlocked { .. } => {}
            Frame::NewConnectionId { seq, cid, .. } => {
                // Bank the spare CID for rotation on migration. Endpoints
                // that never migrate (cid_pool = 0) keep ignoring these.
                if self.cfg.cid_pool > 0 && !self.peer_cid_pool.iter().any(|(s, _)| s == seq) {
                    if let Ok(c) = ConnectionId::new(cid) {
                        self.peer_cid_pool.push((*seq, c));
                    }
                }
            }
            Frame::RetireConnectionId { seq } => {
                if self.cfg.cid_pool > 0 {
                    self.log.push(now, EventData::CidRetired { seq: *seq });
                }
            }
            Frame::PathChallenge { data } => {
                // Echo back on our next send (RFC 9000 §8.2.2).
                self.pending_path_response = Some(*data);
            }
            Frame::PathResponse { data } => {
                if let Some(ch) = self.path_challenge.take() {
                    if ch.data == *data {
                        let path = ch.path;
                        self.ensure_path(path).validated = true;
                        self.log.push(now, EventData::PathValidated { path });
                        self.amp_blocked_logged = false;
                    } else {
                        // Stale echo of an older probe: keep waiting.
                        self.path_challenge = Some(ch);
                    }
                }
            }
            Frame::NewToken { token } => {
                self.token = token.to_vec();
            }
            Frame::HandshakeDone => {
                if self.role == Role::Client && !self.handshake_confirmed {
                    self.handshake_confirmed = true;
                    self.log.push(now, EventData::HandshakeConfirmed);
                    self.events.push_back(ConnEvent::HandshakeConfirmed);
                    self.discard_space(PacketNumberSpace::Handshake);
                }
            }
            Frame::ConnectionClose {
                error_code, reason, ..
            } => {
                self.closed = true;
                self.log.push(
                    now,
                    EventData::ConnectionClosed {
                        error_code: *error_code,
                        reason: reason.clone(),
                    },
                );
                self.events.push_back(ConnEvent::Closed {
                    error_code: *error_code,
                    reason: reason.clone(),
                });
            }
        }
    }

    fn on_ack_frame(
        &mut self,
        now: SimTime,
        space: PacketNumberSpace,
        pkt: &PlainPacket,
        ack: &AckFrame,
    ) {
        let idx = space.index();
        if ack.largest >= self.spaces[idx].next_pn {
            return; // acknowledges a packet never sent: forged or corrupt
        }
        let outcome =
            self.trackers[idx].on_ack_ranges(ack.acked_ranges(), ack.largest, now, &self.rtt);
        if outcome.newly_acked.is_empty() {
            return;
        }
        self.new_ack_packets += 1;
        // RFC 9002 §6.2.1: a client does not reset the PTO backoff on
        // Initial-space acknowledgments until the server is known to have
        // validated its address (Handshake ACK or HANDSHAKE_DONE).
        let suppress_reset = self.role == Role::Client
            && space == PacketNumberSpace::Initial
            && !self.handshake_complete;
        if !suppress_reset {
            self.pto.on_progress();
        }
        // Persistent congestion is judged against the acks that existed
        // *before* this frame: the probe whose ack finally gets through
        // after an outage is sent later than the whole lost span and must
        // not veto it (§7.6.2 only bars acked sends *inside* the span).
        let prev_largest_acked = self.largest_acked_sent_time;
        let mut acked_in_frame: Vec<SimTime> = Vec::new();
        for p in &outcome.newly_acked {
            if p.in_flight {
                self.cc.on_ack(p.size, p.time_sent, now, &self.rtt);
            }
            if p.ack_eliciting {
                acked_in_frame.push(p.time_sent);
                self.largest_acked_sent_time = Some(
                    self.largest_acked_sent_time
                        .map_or(p.time_sent, |t| t.max(p.time_sent)),
                );
            }
            self.spaces[idx].retx.remove(&p.retx_token);
        }
        self.on_packets_lost(
            now,
            space,
            &outcome.lost,
            &acked_in_frame,
            prev_largest_acked,
        );
        self.log_cc_state(now);
        if let Some(sample) = outcome.rtt_sample {
            // picoquic quirk: ignore the RTT sample carried by a pure-ACK
            // Initial packet (i.e. the instant ACK itself).
            let from_iack = space == PacketNumberSpace::Initial && pkt.is_ack_only();
            let skip = self.cfg.quirks.ignore_iack_rtt && from_iack && self.role == Role::Client;
            if !skip {
                let delay = SimDuration::from_micros(ack.ack_delay_us);
                self.rtt.update(sample, delay, self.handshake_confirmed);
                self.log_metrics(now);
            }
        }
        if space == PacketNumberSpace::Application {
            self.maybe_sample_metrics(now);
        }
    }

    /// Periodic data-phase `metrics_sampled` emission — cwnd, bytes in
    /// flight and srtt sampled while processing Application-space ACKs,
    /// at most once per `metrics_sample_every`. Off by default (`None`),
    /// so legacy traces carry no extra events.
    fn maybe_sample_metrics(&mut self, now: SimTime) {
        let Some(every) = self.cfg.metrics_sample_every else {
            return;
        };
        if !self.handshake_complete {
            return;
        }
        let due = self
            .last_metrics_sample
            .is_none_or(|t| now.saturating_since(t) >= every);
        if !due {
            return;
        }
        self.last_metrics_sample = Some(now);
        self.log.push(
            now,
            EventData::MetricsSampled {
                cwnd: self.cc.cwnd(),
                bytes_in_flight: self.cc.bytes_in_flight(),
                smoothed_rtt_ms: self.rtt.smoothed().map_or(0.0, |s| s.as_millis_f64()),
            },
        );
    }

    /// Processes one detected loss burst: logs each packet, requeues its
    /// retransmittable content, and reports the whole burst to the
    /// congestion controller in a single `on_loss` call so a multi-packet
    /// burst cannot be mis-split across recovery-episode boundaries.
    ///
    /// `acked_in_frame` / `prev_largest_acked` carry the acknowledgment
    /// context persistent-congestion detection needs: the send times
    /// newly acked by the frame that declared these losses, and the
    /// largest acked ack-eliciting send time from *before* that frame.
    fn on_packets_lost(
        &mut self,
        now: SimTime,
        space: PacketNumberSpace,
        lost: &[SentPacket],
        acked_in_frame: &[SimTime],
        prev_largest_acked: Option<SimTime>,
    ) {
        if lost.is_empty() {
            return;
        }
        self.stats.packets_lost += lost.len() as u64;
        let idx = space.index();
        let mut sizes = Vec::with_capacity(lost.len());
        let mut latest_sent: Option<SimTime> = None;
        for p in lost {
            self.log.push(
                now,
                EventData::PacketLost {
                    space: space_name(space),
                    pn: p.pn,
                },
            );
            if p.in_flight {
                sizes.push(p.size);
                latest_sent = Some(latest_sent.map_or(p.time_sent, |t| t.max(p.time_sent)));
            }
            if let Some(content) = self.spaces[idx].retx.remove(&p.retx_token) {
                self.spaces[idx].queue_retx(content);
            }
        }
        if let Some(latest) = latest_sent {
            self.cc.on_loss(&sizes, latest, now);
            self.detect_persistent_congestion(now, lost, acked_in_frame, prev_largest_acked);
        }
    }

    /// RFC 9002 §7.6: if a span of lost ack-eliciting packets — all sent
    /// after the previously largest acked one, with no acknowledged send
    /// *inside* the span — exceeds `3 × PTO` (sample-based, without
    /// backoff), the network was down for the whole period and the window
    /// collapses to minimum.
    fn detect_persistent_congestion(
        &mut self,
        now: SimTime,
        lost: &[SentPacket],
        acked_in_frame: &[SimTime],
        prev_largest_acked: Option<SimTime>,
    ) {
        // §7.6.2: requires an RTT sample; the pre-sample period is exempt.
        let Some(pto) = self.rtt.pto_for_space(true) else {
            return;
        };
        let threshold = persistent_congestion_duration(pto);
        let mut times: Vec<SimTime> = lost
            .iter()
            .filter(|p| p.ack_eliciting)
            .map(|p| p.time_sent)
            .filter(|t| prev_largest_acked.map_or(true, |a| *t > a))
            .collect();
        if times.len() < 2 {
            return;
        }
        times.sort_unstable();
        // Walk the lost sends in order, restarting the candidate span
        // whenever an ack from the declaring frame falls inside it.
        let mut start = times[0];
        let mut prev = times[0];
        let mut established = false;
        for &t in &times[1..] {
            if acked_in_frame.iter().any(|&a| prev < a && a < t) {
                start = t;
            }
            prev = t;
            if t.since(start) > threshold {
                established = true;
                break;
            }
        }
        if established {
            self.cc.on_persistent_congestion();
            self.stats.cc_transitions += 1;
            self.log.push(
                now,
                EventData::CongestionStateUpdated {
                    new_state: "persistent_congestion",
                    cwnd: self.cc.cwnd(),
                    bytes_in_flight: self.cc.bytes_in_flight(),
                },
            );
        }
    }

    /// Emits `congestion_state_updated` when the controller changed phase
    /// since the last report.
    fn log_cc_state(&mut self, now: SimTime) {
        let state = self.cc.state();
        if state != self.last_cc_state {
            self.last_cc_state = state;
            self.stats.cc_transitions += 1;
            self.log.push(
                now,
                EventData::CongestionStateUpdated {
                    new_state: state.as_str(),
                    cwnd: self.cc.cwnd(),
                    bytes_in_flight: self.cc.bytes_in_flight(),
                },
            );
        }
    }

    fn on_tls_event(&mut self, now: SimTime, ev: TlsEvent) {
        match ev {
            TlsEvent::KeysReady(level) => {
                let space = space_of(level);
                let idx = space.index();
                self.keys[idx] = self.tls.keys(level).cloned();
                self.log.push(
                    now,
                    EventData::KeyInstalled {
                        space: space_name(space),
                    },
                );
                // Newly decryptable packets may be buffered.
                self.flush_pending(now);
            }
            TlsEvent::NeedCertificate => {
                self.log.push(now, EventData::CertificateRequested);
                self.events.push_back(ConnEvent::CertificateNeeded);
                match self.cfg.ack_mode {
                    ServerAckMode::InstantAck { pad_to_mtu } => {
                        self.queue_instant_ack(now, pad_to_mtu);
                    }
                    ServerAckMode::WaitForCertificate => {
                        // The whole response path blocks on the store: no
                        // ACK leaves until the certificate is available
                        // (Figure 1a -- the sleep covers the response path).
                        self.waiting_for_cert = true;
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
                    self.early_keys = self.tls.early_keys().cloned();
                    self.flush_pending(now);
                }
            }
            TlsEvent::EarlyDataRejected => {
                self.log.push(now, EventData::EarlyData { accepted: false });
                self.early_rejected = true;
                if self.role == Role::Client {
                    self.requeue_zero_rtt();
                }
                self.early_keys = None;
            }
            TlsEvent::TicketIssued(ticket) => {
                self.log.push(now, EventData::SessionTicket { sent: false });
                self.events.push_back(ConnEvent::TicketReceived(ticket));
            }
            TlsEvent::HandshakeComplete => {
                self.handshake_complete = true;
                self.log.push(now, EventData::HandshakeComplete);
                self.events.push_back(ConnEvent::HandshakeComplete);
                // Announce the spare-CID pool the peer rotates through on
                // migration (RFC 9000 §5.1.1). Seq 0 is the handshake CID.
                if self.cfg.cid_pool > 0 {
                    let kind = match self.role {
                        Role::Client => CID_KIND_CLIENT,
                        Role::Server => CID_KIND_SERVER,
                    };
                    for seq in 1..=self.cfg.cid_pool as u64 {
                        let cid = derived_cid(self.cid_seed, kind, seq);
                        self.pending_new_cids
                            .push((seq, 0, cid.as_slice().to_vec()));
                    }
                }
                match self.role {
                    Role::Server => {
                        self.handshake_done_pending = true;
                        self.handshake_confirmed = true;
                        self.log.push(now, EventData::HandshakeConfirmed);
                        // A ticket-issuing server queued its NST at the
                        // Application level when the handshake completed.
                        if self.tls.pending_output(Level::Application) > 0 {
                            self.log.push(now, EventData::SessionTicket { sent: true });
                        }
                        // Some stacks ACK the client Finished in the
                        // Handshake space before discarding it (Table 3).
                        if self.cfg.send_handshake_space_acks && !self.cfg.no_initial_acks {
                            self.queue_handshake_ack(now);
                        }
                        self.discard_space(PacketNumberSpace::Handshake);
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
        for (level, idx) in [
            (Level::Initial, 0usize),
            (Level::Handshake, 1),
            (Level::Application, 2),
        ] {
            if let Some(out) = self.tls.take_output(level) {
                self.spaces[idx].crypto.queue_tx(&out);
            }
        }
    }

    /// 0-RTT was rejected: remove the early packets from tracking and
    /// requeue their content for 1-RTT transmission (RFC 9001 §4.6.2).
    fn requeue_zero_rtt(&mut self) {
        let idx = PacketNumberSpace::Application.index();
        if self.spaces[idx].zero_rtt_pns.is_empty() {
            return;
        }
        let drained = self.trackers[idx].drain();
        let mut freed = 0usize;
        for p in drained {
            debug_assert!(
                self.spaces[idx].is_zero_rtt(p.pn),
                "only 0-RTT packets live in the app space before 1-RTT keys"
            );
            if p.in_flight {
                freed += p.size;
            }
            if let Some(content) = self.spaces[idx].retx.remove(&p.retx_token) {
                self.spaces[idx].queue_retx(content);
            }
            // Deliberately no `packet_lost` qlog event: these packets are
            // removed from tracking by the reject (RFC 9001 §4.6.2), not
            // declared lost by loss recovery — `client_packets_lost`
            // keeps meaning what its doc says. The `early_data
            // {accepted: false}` event already marks the unwind.
        }
        self.cc.on_discarded(freed);
    }

    /// Server driver callback: the certificate arrived from the store.
    pub fn certificate_ready(&mut self, now: SimTime) {
        assert_eq!(self.role, Role::Server);
        self.waiting_for_cert = false;
        self.log.push(now, EventData::CertificateReady);
        let events = self.tls.provide_certificate();
        for ev in events {
            self.on_tls_event(now, ev);
        }
        self.pump_tls_output();
    }

    /// Builds a pure-ACK Initial datagram right now, ahead of the flight.
    fn queue_instant_ack(&mut self, now: SimTime, pad_to_mtu: bool) {
        let Some(ack) = self.take_ack_frame(now, 0) else {
            return;
        };
        let mut frames = vec![ack];
        if pad_to_mtu {
            // The ablation's frame-level policy (not §14.1 datagram
            // padding): a closed form landing on exactly 1200 bytes.
            let base = 1 + 4 + 1 + 8 + 1 + 8 + 1 + 2 + 4 + frames[0].encoded_len() + 16;
            frames.push(Frame::Padding {
                len: MIN_INITIAL_DATAGRAM.saturating_sub(base),
            });
        }
        if let Some(dgram) = self.emit_datagram(now, vec![(PacketNumberSpace::Initial, frames)]) {
            self.ready_datagrams.push_back(dgram);
            self.log.push(now, EventData::InstantAck { sent: true });
        }
    }

    /// Emits a standalone Handshake-space ACK (used by server stacks that
    /// acknowledge the client Finished before discarding the space).
    fn queue_handshake_ack(&mut self, now: SimTime) {
        if self.keys[1].is_none() || self.spaces[1].discarded {
            return;
        }
        let Some(ack) = self.take_ack_frame(now, 1) else {
            return;
        };
        if let Some(dgram) =
            self.emit_datagram(now, vec![(PacketNumberSpace::Handshake, vec![ack])])
        {
            self.ready_datagrams.push_back(dgram);
        }
    }

    /// The ACK frame for everything received so far in space `idx`
    /// (`None` before the first packet), marking the owed ACK as sent.
    fn take_ack_frame(&mut self, now: SimTime, idx: usize) -> Option<Frame> {
        let ack = self.spaces[idx]
            .recv
            .ack_frame(self.report_ack_delay(now, idx))?;
        self.spaces[idx].recv.on_ack_sent();
        Some(Frame::Ack(ack))
    }

    fn report_ack_delay(&self, now: SimTime, space_idx: usize) -> u64 {
        let policy = if space_idx == 1 {
            self.cfg
                .handshake_ack_delay_report
                .unwrap_or(self.cfg.ack_delay_report)
        } else {
            self.cfg.ack_delay_report
        };
        match policy {
            AckDelayReport::Zero => 0,
            AckDelayReport::Fixed(d) => d.as_micros(),
            AckDelayReport::Actual => self.spaces[space_idx]
                .recv
                .largest_recv_time
                .map(|t| now.saturating_since(t).as_micros())
                .unwrap_or(0),
        }
    }

    fn on_retry(&mut self, pkt: PlainPacket) {
        if self.role != Role::Client || self.iack_received || !self.token.is_empty() {
            return; // only one Retry per connection, clients only
        }
        self.token = pkt.header.token.clone();
        self.peer_cid = pkt.header.scid;
        // Restart TLS and the Initial crypto stream with the token attached.
        self.tls.reset_for_retry();
        self.spaces[0] = SpaceState::default();
        self.trackers[0] = SentTracker::new();
        if let Some(ch) = self.tls.take_output(Level::Initial) {
            self.initial_crypto_copy = ch.to_vec();
            self.spaces[0].crypto.queue_tx(&ch);
        }
    }

    fn discard_space(&mut self, space: PacketNumberSpace) {
        let idx = space.index();
        if self.spaces[idx].discarded {
            return;
        }
        self.spaces[idx].discarded = true;
        // Nothing is retransmitted in a discarded space; what was kept for
        // that holds views into the crypto flight, which would stay
        // allocated with them.
        self.spaces[idx].retx.clear();
        self.spaces[idx].retx_queue.clear();
        let freed = self.trackers[idx].discard();
        self.cc.on_discarded(freed);
        self.keys[idx] = None;
        // Key discard resets the PTO backoff and timer (RFC 9002 §6.2.2).
        self.pto.on_progress();
    }

    fn abort(&mut self, now: SimTime, error_code: u64, reason: &str) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.close_frame_pending = Some((error_code, reason.to_string()));
        rq_obs::obs_log!(
            "quic/conn",
            rq_obs::Level::Warn,
            "{} closing: code={:#x} reason={}",
            self.cfg.name,
            error_code,
            reason
        );
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

    /// Application API: closes the connection with an application error.
    pub fn close(&mut self, now: SimTime, error_code: u64, reason: &str) {
        self.abort(now, error_code, reason);
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

    /// Opens/extends a send stream with `data` (+FIN).
    pub fn send_stream_data(&mut self, stream_id: u64, data: &[u8], fin: bool) {
        self.streams.send_stream(stream_id).write(data, fin);
    }

    // ------------------------------------------------------------------
    // Transmit path
    // ------------------------------------------------------------------

    /// Produces the next outgoing UDP datagram, or `None` when idle.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<Vec<u8>> {
        // WFC server blocked on the certificate store: fully silent.
        if self.waiting_for_cert {
            return None;
        }
        if self.ready_datagrams.is_empty() {
            if self.closed {
                let (code, reason) = self.close_frame_pending.take()?;
                return self.build_close_datagram(now, code, &reason);
            }
            // Client flight 2: emitted as an explicit datagram plan honoring
            // the per-implementation coalescing layout (Table 4).
            if self.role == Role::Client && self.handshake_complete && !self.flight2_sent {
                self.build_client_flight2(now);
            }
        }
        let d = match self.ready_datagrams.pop_front() {
            Some(d) => d,
            None => self.build_datagram(now)?,
        };
        self.note_datagram_sent(now, d.len());
        Some(d)
    }

    /// Books an outgoing datagram against global and per-path
    /// anti-amplification accounting.
    fn note_datagram_sent(&mut self, now: SimTime, len: usize) {
        self.bytes_sent += len;
        if self.active_path != 0 {
            self.ensure_path(self.active_path).bytes_sent += len;
        }
        self.last_activity = Some(now);
        self.first_send_at.get_or_insert(now);
    }

    /// Plans one generic datagram by greedily coalescing per-space packets.
    fn build_datagram(&mut self, now: SimTime) -> Option<Vec<u8>> {
        // Amplification gate (whole-datagram granularity).
        let amp = self.amplification_budget();
        if amp == 0 {
            return None;
        }
        let mut budget = MAX_DATAGRAM_SIZE.min(amp);
        let mut plan = Vec::new();

        for space in PacketNumberSpace::ALL {
            let idx = space.index();
            let early = idx == 2 && self.keys[idx].is_none() && self.can_send_early();
            if (self.keys[idx].is_none() && !early) || self.spaces[idx].discarded {
                continue;
            }
            let overhead = self.packet_overhead(space);
            if budget <= overhead + 8 {
                break;
            }
            let max_payload = budget - overhead;
            let frames = self.build_frames_for_space(now, space, max_payload);
            if frames.is_empty() {
                continue;
            }
            // The next space fills what this packet's exact encoding leaves.
            let payload = frames.iter().map(Frame::encoded_len).sum();
            let size = PlainPacket::wire_len(&self.header_for(space, 0), payload);
            budget = budget.saturating_sub(size);
            plan.push((space, frames));
        }
        if plan.is_empty() {
            if !self.amp_blocked_logged
                && self.amplification_budget() < MAX_DATAGRAM_SIZE
                && self.wants_to_send()
            {
                self.amp_blocked_logged = true;
                self.stats.amp_stalls += 1;
                self.log.push(
                    now,
                    EventData::AmplificationBlocked {
                        budget: self.amplification_budget(),
                        wanted: MAX_DATAGRAM_SIZE,
                    },
                );
            }
            return None;
        }
        self.emit_datagram(now, plan)
    }

    /// True if any space has content waiting (used for the
    /// amplification-blocked diagnostic).
    fn wants_to_send(&self) -> bool {
        self.spaces.iter().any(SpaceState::has_data_to_send)
            || self.streams.want_send()
            || self.handshake_done_pending
            || self.pending_path_response.is_some()
            || self.path_challenge.as_ref().is_some_and(|c| c.needs_send)
            || !self.pending_retire_cids.is_empty()
            || !self.pending_new_cids.is_empty()
    }

    /// Whether this endpoint may emit 0-RTT packets right now: a client
    /// holding early keys, before the handshake completes, whose offer
    /// has not been rejected.
    fn can_send_early(&self) -> bool {
        self.role == Role::Client
            && self.early_keys.is_some()
            && !self.handshake_complete
            && !self.early_rejected
    }

    fn packet_overhead(&self, space: PacketNumberSpace) -> usize {
        // Header + length varint + pn + tag, conservatively. 0-RTT
        // packets (application space before 1-RTT keys) carry a long
        // header, not the 1-RTT short header.
        match space {
            PacketNumberSpace::Application if self.keys[2].is_some() => 1 + 8 + 4 + 16,
            _ => 1 + 4 + 1 + 8 + 1 + 8 + 1 + 2 + 4 + 16 + 2,
        }
    }

    /// Assembles the frame list for one packet in `space`, consuming
    /// pending state.
    fn build_frames_for_space(
        &mut self,
        now: SimTime,
        space: PacketNumberSpace,
        max_payload: usize,
    ) -> Vec<Frame> {
        let idx = space.index();
        let mut frames = Vec::new();
        let mut used = 0usize;
        // Building a 0-RTT packet: ACK and HANDSHAKE_DONE frames are not
        // permitted there (RFC 9000 §12.4), and neither arises before the
        // handshake anyway.
        let early = space == PacketNumberSpace::Application && self.keys[idx].is_none();

        // 1. ACK: attach whenever owed; in handshake spaces attach
        //    opportunistically with any other content too. Clients batch
        //    handshake-space ACKs for a short window (see handshake-space
        //    deadline arming above).
        let deadline_passed = self.spaces[idx].recv.ack_overdue
            || self.spaces[idx]
                .recv
                .ack_deadline
                .map(|d| now >= d)
                .unwrap_or(false);
        let ack_due = self.spaces[idx].recv.ack_pending
            && if space == PacketNumberSpace::Application {
                self.spaces[idx].recv.unacked_eliciting >= self.cfg.ack_eliciting_threshold
                    || deadline_passed
            } else if self.role == Role::Client && !self.handshake_complete {
                deadline_passed
            } else {
                true
            };
        let mut attach_ack =
            ack_due || (self.spaces[idx].recv.ack_pending && self.spaces[idx].has_data_to_send());
        // msquic (Table 3): no ACK frames in Initial/Handshake spaces.
        if self.cfg.no_initial_acks
            && self.role == Role::Server
            && space != PacketNumberSpace::Application
        {
            attach_ack = false;
        }
        if early {
            attach_ack = false;
        }
        if attach_ack {
            if let Some(f) = self.take_ack_frame(now, idx) {
                used += f.encoded_len();
                frames.push(f);
            }
        }

        // 2. PING probes.
        while self.spaces[idx].pending_pings > 0 && used + 1 <= max_payload {
            self.spaces[idx].pending_pings -= 1;
            frames.push(Frame::Ping);
            used += 1;
        }

        // 3. Retransmission queue.
        let retx_items = std::mem::take(&mut self.spaces[idx].retx_queue);
        for item in retx_items {
            let mut leftover = RetxContent::default();
            for (off, data) in item.crypto {
                let (head, tail) = fit(off, data, max_payload.saturating_sub(used + 10));
                if let Some((offset, data)) = head {
                    used += 10 + data.len();
                    frames.push(Frame::Crypto { offset, data });
                }
                leftover.crypto.extend(tail);
            }
            for (id, off, data, fin) in item.stream {
                let (head, tail) = fit(off, data, max_payload.saturating_sub(used + 12));
                if let Some((offset, data)) = head {
                    used += 12 + data.len();
                    // FIN rides on the frame that carries the last byte.
                    let fin = fin && tail.is_none();
                    frames.push(Frame::Stream {
                        id,
                        offset,
                        data,
                        fin,
                    });
                }
                leftover
                    .stream
                    .extend(tail.map(|(off, data)| (id, off, data, fin)));
            }
            if item.handshake_done {
                if used + 1 <= max_payload {
                    frames.push(Frame::HandshakeDone);
                    used += 1;
                } else {
                    leftover.handshake_done = true;
                }
            }
            if let Some(md) = item.max_data {
                frames.push(Frame::MaxData { max: md });
                used += 9;
            }
            for (sid, v) in item.max_stream_data {
                frames.push(Frame::MaxStreamData { id: sid, max: v });
                used += 12;
            }
            for (seq, rpt, cid) in item.new_cids {
                frames.push(Frame::NewConnectionId {
                    seq,
                    retire_prior_to: rpt,
                    cid,
                });
                used += 30;
            }
            self.spaces[idx].queue_retx(leftover);
        }

        // 4. Fresh crypto data.
        let room = max_payload.saturating_sub(used + 10);
        if let Some((offset, data)) = self.spaces[idx].crypto.take_tx(room) {
            used += 10 + data.len();
            frames.push(Frame::Crypto { offset, data });
        }

        // 5. Application-space extras.
        if space == PacketNumberSpace::Application {
            if self.handshake_done_pending && !early && used + 1 <= max_payload {
                self.handshake_done_pending = false;
                frames.push(Frame::HandshakeDone);
                used += 1;
            }
            // Migration plumbing: challenge/response first (time-critical),
            // then CID bookkeeping. All empty when cid_pool is 0.
            if !early {
                if used + 9 <= max_payload {
                    if let Some(data) = self.pending_path_response.take() {
                        frames.push(Frame::PathResponse { data });
                        used += 9;
                    }
                }
                let challenge = self.path_challenge.as_ref().and_then(|ch| {
                    (ch.needs_send && used + 9 <= max_payload).then_some((ch.data, ch.path))
                });
                if let Some((data, path)) = challenge {
                    self.path_challenge.as_mut().unwrap().needs_send = false;
                    frames.push(Frame::PathChallenge { data });
                    used += 9;
                    self.log.push(now, EventData::PathChallengeSent { path });
                }
                while !self.pending_retire_cids.is_empty() && used + 2 <= max_payload {
                    let seq = self.pending_retire_cids.remove(0);
                    frames.push(Frame::RetireConnectionId { seq });
                    used += 2;
                }
                while !self.pending_new_cids.is_empty() && used + 30 <= max_payload {
                    let (seq, retire_prior_to, cid) = self.pending_new_cids.remove(0);
                    frames.push(Frame::NewConnectionId {
                        seq,
                        retire_prior_to,
                        cid,
                    });
                    used += 30;
                }
            }
            if self.streams.should_send_max_data() && used + 9 <= max_payload {
                let v = self.streams.next_max_data();
                frames.push(Frame::MaxData { max: v });
                used += 9;
            }
            for (sid, grant) in self.streams.stream_credit_updates() {
                if used + 12 > max_payload {
                    break;
                }
                frames.push(Frame::MaxStreamData {
                    id: sid,
                    max: grant,
                });
                used += 12;
            }
            // Stream data, congestion-controlled.
            let cc_room = self.cc.available();
            let conn_fc = self.streams.conn_send_budget() as usize;
            self.push_stream_frames(&mut frames, |spent| {
                let used = used + spent;
                max_payload
                    .saturating_sub(used + 12)
                    .min(cc_room.saturating_sub(used))
                    .min(conn_fc)
            });
        }

        frames
    }

    /// Appends one STREAM frame of fresh data from every stream that
    /// wants to send, in stream-id order. `room(spent)` is the data
    /// budget of the next frame once `spent` payload bytes (frame
    /// overheads included) have gone to the frames before it; the first
    /// stream left without room ends the round.
    fn push_stream_frames(&mut self, frames: &mut Vec<Frame>, room: impl Fn(usize) -> usize) {
        if !self.streams.want_send() {
            return;
        }
        let mut spent = 0;
        for (&id, ss) in self.streams.send.iter_mut().filter(|(_, s)| s.want_send()) {
            let room = room(spent);
            if room == 0 {
                break;
            }
            if let Some((offset, data, fin)) = ss.take(room) {
                self.streams.data_sent += data.len() as u64;
                spent += 12 + data.len();
                frames.push(Frame::Stream {
                    id,
                    offset,
                    data,
                    fin,
                });
            }
        }
    }

    /// The one place a UDP payload is produced. Every packet of the plan
    /// gets its packet number and header first, a client datagram carrying
    /// an Initial is padded (RFC 9000 §14.1), and then each packet is
    /// encoded once straight into the datagram, sealed over the bytes just
    /// written and registered — in wire order, because sealing the
    /// client's first Handshake packet discards its Initial keys.
    fn emit_datagram(
        &mut self,
        now: SimTime,
        plan: Vec<(PacketNumberSpace, Vec<Frame>)>,
    ) -> Option<Vec<u8>> {
        let mut pkts: Vec<PlainPacket> = plan
            .into_iter()
            .filter(|(_, frames)| !frames.is_empty())
            .map(|(space, frames)| self.make_packet(space, frames))
            .collect();
        if self.role == Role::Client {
            pad_client_initial(&mut pkts);
        }
        let mut datagram = Vec::with_capacity(pkts.iter().map(PlainPacket::encoded_len).sum());
        for pkt in pkts {
            self.seal_into(now, pkt, &mut datagram);
        }
        (!datagram.is_empty()).then_some(datagram)
    }

    fn make_packet(&mut self, space: PacketNumberSpace, frames: Vec<Frame>) -> PlainPacket {
        let pn = self.spaces[space.index()].alloc_pn();
        PlainPacket::new(self.header_for(space, pn), frames)
            .expect("frame permissions checked by construction")
    }

    fn header_for(&self, space: PacketNumberSpace, pn: u64) -> Header {
        match space {
            PacketNumberSpace::Initial => {
                Header::initial(self.peer_cid, self.local_cid, self.token.clone(), pn)
            }
            PacketNumberSpace::Handshake => Header::handshake(self.peer_cid, self.local_cid, pn),
            // Before the 1-RTT keys exist, application-space packets are
            // 0-RTT long-header packets under the early keys; afterwards
            // they are short-header 1-RTT packets. Both share the space's
            // packet number sequence (RFC 9000 §12.3).
            PacketNumberSpace::Application => {
                if self.keys[2].is_some() {
                    Header::one_rtt(self.peer_cid, pn)
                } else {
                    Header::zero_rtt(self.peer_cid, self.local_cid, pn)
                }
            }
        }
    }

    /// Encodes `pkt` once onto the end of `datagram`, tags the payload
    /// bytes just written, and registers the packet with recovery,
    /// congestion control, retransmission state and qlog. Appends nothing
    /// when the packet's keys are missing.
    fn seal_into(&mut self, now: SimTime, pkt: PlainPacket, datagram: &mut Vec<u8>) {
        let space = pkt.space();
        let idx = space.index();
        let keys = if pkt.header.ty == PacketType::ZeroRtt {
            self.early_keys.as_ref()
        } else {
            self.keys[idx].as_ref()
        };
        let Some(keys) = keys else {
            return;
        };
        let side = match self.role {
            Role::Client => KeySide::Client,
            Role::Server => KeySide::Server,
        };
        let key = keys.for_side(side);
        let start = datagram.len();
        pkt.encode_sealed(datagram, |payload| seal_tag(key, pkt.header.pn, payload))
            .expect("encode cannot fail after construction");
        let size = datagram.len() - start;
        let ack_eliciting = pkt.is_ack_eliciting();
        let in_flight = ack_eliciting
            || pkt
                .frames
                .iter()
                .any(|f| matches!(f, Frame::Padding { .. }));
        // Track PING probes for the quiche quirk.
        if space == PacketNumberSpace::Initial
            && pkt.frames.iter().any(|f| matches!(f, Frame::Ping))
        {
            self.initial_ping_pns.push(pkt.header.pn);
        }
        // Track 0-RTT sends so a server reject can unwind exactly them.
        if pkt.header.ty == PacketType::ZeroRtt {
            self.spaces[idx].mark_zero_rtt(pkt.header.pn);
        }
        let retx = retx_content_of(&pkt.frames);
        let token = pkt.header.pn;
        if !retx.is_empty() {
            self.spaces[idx].retx.insert(token, retx);
        }
        self.trackers[idx].on_sent(SentPacket {
            pn: pkt.header.pn,
            time_sent: now,
            ack_eliciting,
            in_flight,
            size,
            retx_token: token,
        });
        if in_flight {
            self.cc.on_sent(size);
        }
        if ack_eliciting {
            self.last_eliciting_send = Some(now);
        }
        self.stats.packets_sealed[idx] += 1;
        self.log.push(
            now,
            EventData::PacketSent {
                space: space_name(space),
                pn: pkt.header.pn,
                size,
                ack_eliciting,
                frames: frame_summaries(&pkt.frames),
            },
        );
        // Client: sending the first Handshake packet discards Initial keys.
        if self.role == Role::Client && space == PacketNumberSpace::Handshake {
            self.discard_space(PacketNumberSpace::Initial);
        }
    }

    /// Builds the client's second flight according to the coalescing
    /// layout (Table 4): Initial ACK, Handshake FIN (+HS ACK), and the
    /// first 1-RTT packet, spread over `flight2_datagrams` datagrams.
    fn build_client_flight2(&mut self, now: SimTime) {
        self.flight2_sent = true;
        // Packet A: Initial ACK (if Initial space still alive).
        let mut a_frames = Vec::new();
        if !self.spaces[0].discarded && self.keys[0].is_some() {
            a_frames.extend(self.take_ack_frame(now, 0));
        }
        let pkt_a = (PacketNumberSpace::Initial, a_frames);
        // Packet B: Handshake ACK + client Finished.
        let mut b_frames = Vec::from_iter(self.take_ack_frame(now, 1));
        let finished = self.spaces[1].crypto.take_tx(usize::MAX);
        b_frames.extend(finished.map(|(offset, data)| Frame::Crypto { offset, data }));
        let pkt_b = (PacketNumberSpace::Handshake, b_frames);
        // Packet C: first 1-RTT packet (request or ACK of early server data).
        let mut c_frames = Vec::new();
        self.push_stream_frames(&mut c_frames, |_| 1000);
        let pkt_c = (PacketNumberSpace::Application, c_frames);

        // Distribute packets over datagrams per the layout; the emitter
        // skips a packet left without frames.
        let groups = match self.cfg.flight2_datagrams {
            1 => vec![vec![pkt_a, pkt_b, pkt_c]],
            2 => vec![vec![pkt_a, pkt_b], vec![pkt_c]],
            4 => {
                // picoquic sends a separate HS ACK datagram before the FIN.
                let (hs, mut fin_frames) = pkt_b;
                let ack_frame: Vec<Frame> = fin_frames
                    .iter()
                    .position(|f| matches!(f, Frame::Ack(_)))
                    .map(|i| vec![fin_frames.remove(i)])
                    .unwrap_or_default();
                vec![
                    vec![pkt_a],
                    vec![(hs, ack_frame)],
                    vec![(hs, fin_frames)],
                    vec![pkt_c],
                ]
            }
            // 3 (default): [Initial ACK], [HS FIN], [1-RTT].
            _ => vec![vec![pkt_a], vec![pkt_b], vec![pkt_c]],
        };
        for group in groups {
            if let Some(dgram) = self.emit_datagram(now, group) {
                self.ready_datagrams.push_back(dgram);
            }
        }
    }

    /// Sends CONNECTION_CLOSE in the highest available space.
    fn build_close_datagram(&mut self, now: SimTime, code: u64, reason: &str) -> Option<Vec<u8>> {
        let space = [
            PacketNumberSpace::Application,
            PacketNumberSpace::Handshake,
            PacketNumberSpace::Initial,
        ]
        .into_iter()
        .find(|s| self.keys[s.index()].is_some() && !self.spaces[s.index()].discarded)?;
        let frame = Frame::ConnectionClose {
            error_code: code,
            reason: reason.to_string(),
            app: false,
        };
        self.emit_datagram(now, vec![(space, vec![frame])])
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// The next timer deadline, if any.
    pub fn poll_timeout(&self) -> Option<SimTime> {
        if self.closed {
            return None;
        }
        let mut next: Option<SimTime> = None;
        let mut consider = |t: Option<SimTime>| {
            if let Some(t) = t {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        consider(self.loss_time());
        consider(self.pto_deadline());
        consider(self.ack_deadline());
        consider(self.give_up_deadline());
        consider(self.path_challenge.as_ref().map(|c| c.deadline));
        next
    }

    /// Absolute instant the client abandons an unfinished handshake
    /// (`give_up_after` on the config); `None` when the knob is off, the
    /// handshake already completed, or nothing was sent yet.
    fn give_up_deadline(&self) -> Option<SimTime> {
        if self.role != Role::Client || self.handshake_complete {
            return None;
        }
        let after = self.cfg.give_up_after?;
        Some(self.first_send_at? + after)
    }

    /// Abandons the handshake: silent close, nothing sent to a peer that
    /// is presumed dead or unreachable.
    fn give_up(&mut self, now: SimTime) {
        self.log.push(
            now,
            EventData::HandshakeAbandoned {
                pto_count: self.pto.count(),
            },
        );
        self.abort(now, ERROR_GIVE_UP, "handshake give-up");
        self.close_frame_pending = None;
    }

    fn loss_time(&self) -> Option<SimTime> {
        self.trackers.iter().filter_map(|t| t.loss_time).min()
    }

    fn ack_deadline(&self) -> Option<SimTime> {
        self.spaces
            .iter()
            .filter(|sp| sp.recv.ack_pending)
            .filter_map(|sp| sp.recv.ack_deadline)
            .min()
    }

    /// PTO duration honoring the picoquic default-PTO quirk.
    fn pto_duration_for(&self, is_app: bool) -> SimDuration {
        if self.cfg.quirks.ignore_iack_rtt && !self.handshake_confirmed {
            self.pto.default_pto.mul(self.pto.backoff())
        } else {
            self.pto.pto_duration(&self.rtt, is_app)
        }
    }

    /// The armed space whose PTO expires first, with that deadline
    /// (RFC 9002 A.8); the lower space wins a tie.
    fn earliest_pto_space(&self) -> Option<(SimTime, PacketNumberSpace)> {
        let mut best: Option<(SimTime, PacketNumberSpace)> = None;
        for space in PacketNumberSpace::ALL {
            let idx = space.index();
            if self.spaces[idx].discarded || self.keys[idx].is_none() {
                continue;
            }
            if !self.trackers[idx].has_ack_eliciting_in_flight() {
                continue;
            }
            let is_app = space == PacketNumberSpace::Application;
            if is_app && !self.handshake_complete {
                continue; // app PTO only after handshake completes
            }
            if let Some(base) = self.trackers[idx].last_ack_eliciting_sent {
                let d = base + self.pto_duration_for(is_app);
                if best.is_none_or(|(b, _)| d < b) {
                    best = Some((d, space));
                }
            }
        }
        best
    }

    /// The PTO deadline (RFC 9002 A.8 + the handshake-deadlock rule).
    fn pto_deadline(&self) -> Option<SimTime> {
        let mut earliest = self.earliest_pto_space().map(|(d, _)| d);
        // Deadlock prevention: a client with nothing in flight but an
        // unconfirmed handshake must keep probing (RFC 9002 §6.2.2.1).
        // mvfst/picoquic quirk: "receiving an instant ACK does not cause
        // the client to send probe packets" — the IACK neither re-arms the
        // timer nor shrinks it; the *default* PTO armed at the last
        // ack-eliciting send still runs (paper §4.1: their default client
        // PTO still expires in both WFC and IACK).
        if earliest.is_none() && self.role == Role::Client && !self.handshake_confirmed {
            let quirky = self.cfg.quirks.no_probe_after_iack && self.iack_received;
            if quirky {
                if let Some(base) = self.last_eliciting_send {
                    earliest = Some(base + self.pto.default_pto.mul(self.pto.backoff()));
                }
            } else if let Some(base) = self.last_activity {
                earliest = Some(base + self.pto_duration_for(false));
            }
        }
        earliest
    }

    /// Handles an expired timer at `now`.
    pub fn handle_timeout(&mut self, now: SimTime) {
        if self.closed {
            return;
        }
        // 0. Handshake give-up deadline (checked first: an expired
        // deadline makes every other timer moot).
        if let Some(gd) = self.give_up_deadline() {
            if now >= gd {
                self.give_up(now);
                return;
            }
        }
        // 1. Time-threshold loss detection.
        if let Some(lt) = self.loss_time() {
            if now >= lt {
                for space in PacketNumberSpace::ALL {
                    let idx = space.index();
                    let lost = self.trackers[idx].detect_time_lost(now, &self.rtt);
                    let largest_acked = self.largest_acked_sent_time;
                    self.on_packets_lost(now, space, &lost, &[], largest_acked);
                }
                self.log_cc_state(now);
                return;
            }
        }
        // 2. Delayed ACK flush: mark every due ACK as overdue (sent at the
        // next transmit opportunity) and clear the deadline so a blocked
        // endpoint — e.g. an amplification-limited server — does not spin
        // re-arming a timer in the past.
        if let Some(ad) = self.ack_deadline() {
            if now >= ad {
                for sp in &mut self.spaces {
                    if sp.recv.ack_pending {
                        if let Some(d) = sp.recv.ack_deadline {
                            if now >= d {
                                sp.recv.ack_deadline = None;
                                sp.recv.ack_overdue = true;
                            }
                        }
                    }
                }
                return;
            }
        }
        // 3. Path-validation retry/abandon.
        if let Some(cd) = self.path_challenge.as_ref().map(|c| c.deadline) {
            if now >= cd {
                self.on_path_challenge_timeout(now);
                return;
            }
        }
        // 4. PTO.
        if let Some(pd) = self.pto_deadline() {
            if now >= pd {
                self.on_pto(now);
                // Consecutive-PTO give-up: N expirations without forward
                // progress and the client stops probing a black hole.
                if self.role == Role::Client && !self.handshake_complete {
                    if let Some(limit) = self.cfg.give_up_pto_count {
                        if self.pto.count() >= limit {
                            self.give_up(now);
                        }
                    }
                }
            }
        }
    }

    fn on_pto(&mut self, now: SimTime) {
        // Which space does this PTO belong to? Earliest armed space wins.
        let space = self.earliest_pto_space().map_or_else(
            || {
                // Deadlock-prevention probe: Initial until handshake keys exist.
                if self.keys[1].is_some() && !self.spaces[1].discarded {
                    PacketNumberSpace::Handshake
                } else {
                    PacketNumberSpace::Initial
                }
            },
            |(_, space)| space,
        );
        let idx = space.index();
        self.pto.on_pto_expired();
        self.stats.pto_expirations += 1;
        rq_obs::obs_log!(
            "quic/pto",
            rq_obs::Level::Debug,
            "{} pto expired space={:?} count={}",
            self.cfg.name,
            space_name(space),
            self.pto.pto_count
        );
        self.log.push(
            now,
            EventData::PtoExpired {
                space: space_name(space),
                pto_count: self.pto.pto_count,
            },
        );
        // Queue probe content (RFC 9002 §6.2.4): retransmit oldest unacked
        // data when available, else PING.
        let mut queued_data = false;
        if let Some(oldest) = self.trackers[idx].oldest_ack_eliciting() {
            let token = oldest.retx_token;
            if let Some(content) = self.spaces[idx].retx.get(&token).cloned() {
                if !content.is_empty() {
                    self.spaces[idx].queue_retx(content);
                    queued_data = true;
                }
            }
        }
        if !queued_data {
            match self.cfg.probe_policy {
                ProbePolicy::Ping => {
                    self.spaces[idx].pending_pings += 1;
                }
                ProbePolicy::RetransmitOldest => {
                    if self.role == Role::Client
                        && space == PacketNumberSpace::Initial
                        && !self.initial_crypto_copy.is_empty()
                    {
                        // The paper's §5 improvement: resend the ClientHello
                        // instead of a PING so the server can recover.
                        let ch = Bytes::copy_from_slice(&self.initial_crypto_copy);
                        self.spaces[idx].queue_retx(RetxContent {
                            crypto: vec![(0, ch)],
                            ..RetxContent::default()
                        });
                    } else {
                        self.spaces[idx].pending_pings += 1;
                    }
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

/// Fits the run `(offset, data)` of a CRYPTO or STREAM retransmission
/// into `room` data bytes: what goes into the frame now — the whole run
/// if it fits, else its head — and what goes back on the queue.
fn fit(offset: u64, mut data: Bytes, room: usize) -> (Option<Run>, Option<Run>) {
    if room == 0 {
        (None, Some((offset, data)))
    } else if data.len() <= room {
        (Some((offset, data)), None)
    } else {
        let head = data.split_to(room);
        (Some((offset, head)), Some((offset + room as u64, data)))
    }
}

/// RFC 9000 §14.1: a client datagram carrying an Initial packet is padded
/// to [`MIN_INITIAL_DATAGRAM`] with a PADDING frame on its last packet.
///
/// Known deviation: the padding can grow the last packet's length varint
/// from one byte to two, so `Initial[ACK] + short Handshake` comes out at
/// 1201 bytes — one over [`MAX_DATAGRAM_SIZE`]. Every byte sent moves the
/// amplification budget and the simulated link time, so the goldens and
/// the benchmark fingerprints pin this size (ROADMAP item 4b).
fn pad_client_initial(pkts: &mut [PlainPacket]) {
    let has_initial = pkts.iter().any(|p| p.header.ty == PacketType::Initial);
    let used: usize = pkts.iter().map(PlainPacket::encoded_len).sum();
    if has_initial && used < MIN_INITIAL_DATAGRAM {
        let last = pkts.last_mut().expect("the Initial packet is in the list");
        last.frames.push(Frame::Padding {
            len: MIN_INITIAL_DATAGRAM - used,
        });
    }
}

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
pub fn stateless_reset_datagram(orphan_cid: ConnectionId) -> Vec<u8> {
    let mut d = STATELESS_RESET_PREFIX.to_vec();
    d.extend_from_slice(orphan_cid.as_slice());
    d
}

/// Builds the busy-refusal datagram of the `CloseWithBackoff` policy.
pub fn server_busy_datagram() -> Vec<u8> {
    SERVER_BUSY_PREFIX.to_vec()
}

/// Builds a *stateless* Retry datagram for a tokenless client Initial —
/// the `RetryDefer` overload policy answers from outside any connection,
/// exactly like a production server validating addresses before
/// committing state. `client_scid` is the Initial's SCID (the token is
/// bound to it); `server_cid` becomes the Retry's SCID.
pub fn stateless_retry_datagram(client_scid: ConnectionId, server_cid: ConnectionId) -> Vec<u8> {
    let token = retry_token_for(&client_scid);
    let hdr = Header::retry(client_scid, server_cid, token);
    let pkt = PlainPacket::new(hdr, Vec::new()).expect("retry has no frames");
    pkt.to_bytes(&[0u8; 16]).to_vec()
}

fn space_name(space: PacketNumberSpace) -> SpaceName {
    match space {
        PacketNumberSpace::Initial => SpaceName::Initial,
        PacketNumberSpace::Handshake => SpaceName::Handshake,
        PacketNumberSpace::Application => SpaceName::ApplicationData,
    }
}

fn level_of(space: PacketNumberSpace) -> Level {
    match space {
        PacketNumberSpace::Initial => Level::Initial,
        PacketNumberSpace::Handshake => Level::Handshake,
        PacketNumberSpace::Application => Level::Application,
    }
}

fn space_of(level: Level) -> PacketNumberSpace {
    match level {
        Level::Initial => PacketNumberSpace::Initial,
        Level::Handshake => PacketNumberSpace::Handshake,
        Level::Application => PacketNumberSpace::Application,
    }
}

fn frame_summaries(frames: &[Frame]) -> Vec<FrameSummary> {
    frames
        .iter()
        .map(|f| match f {
            Frame::Padding { len } => FrameSummary {
                name: "padding",
                len: *len,
            },
            Frame::Ping => FrameSummary {
                name: "ping",
                len: 0,
            },
            Frame::Ack(_) => FrameSummary {
                name: "ack",
                len: 0,
            },
            Frame::Crypto { data, .. } => FrameSummary {
                name: "crypto",
                len: data.len(),
            },
            Frame::NewToken { token } => FrameSummary {
                name: "new_token",
                len: token.len(),
            },
            Frame::Stream { data, .. } => FrameSummary {
                name: "stream",
                len: data.len(),
            },
            Frame::MaxData { .. } => FrameSummary {
                name: "max_data",
                len: 0,
            },
            Frame::MaxStreamData { .. } => FrameSummary {
                name: "max_stream_data",
                len: 0,
            },
            Frame::MaxStreams { .. } => FrameSummary {
                name: "max_streams",
                len: 0,
            },
            Frame::DataBlocked { .. } => FrameSummary {
                name: "data_blocked",
                len: 0,
            },
            Frame::NewConnectionId { .. } => FrameSummary {
                name: "new_connection_id",
                len: 0,
            },
            Frame::RetireConnectionId { .. } => FrameSummary {
                name: "retire_connection_id",
                len: 0,
            },
            Frame::PathChallenge { .. } => FrameSummary {
                name: "path_challenge",
                len: 0,
            },
            Frame::PathResponse { .. } => FrameSummary {
                name: "path_response",
                len: 0,
            },
            Frame::ConnectionClose { .. } => FrameSummary {
                name: "connection_close",
                len: 0,
            },
            Frame::HandshakeDone => FrameSummary {
                name: "handshake_done",
                len: 0,
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::id as stream_id;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    fn client() -> Connection {
        Connection::client(EndpointConfig::rfc_default(), 1, false)
    }

    fn server(ack_mode: ServerAckMode) -> Connection {
        let mut cfg = EndpointConfig::rfc_default();
        cfg.ack_mode = ack_mode;
        Connection::server(cfg, 2, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0))
    }

    /// Drives both connections through a full handshake with zero network
    /// delay and `cert_delay` between CertificateNeeded and readiness.
    fn run_handshake(
        client: &mut Connection,
        server: &mut Connection,
        cert_delay: SimDuration,
    ) -> Vec<(SimTime, &'static str)> {
        let mut timeline = Vec::new();
        let mut now = SimTime::ZERO;
        let mut cert_at: Option<SimTime> = None;
        for _step in 0..400 {
            // Exchange until quiescent at this instant (zero-delay network).
            loop {
                let mut progress = false;
                while let Some(d) = client.poll_transmit(now) {
                    server.handle_datagram(now, &d);
                    progress = true;
                }
                while let Some(ev) = server.poll_event() {
                    if matches!(ev, ConnEvent::CertificateNeeded) {
                        cert_at = Some(now + cert_delay);
                        timeline.push((now, "cert_requested"));
                    }
                    progress = true;
                }
                if let Some(t) = cert_at {
                    if now >= t {
                        server.certificate_ready(now);
                        cert_at = None;
                        timeline.push((now, "cert_ready"));
                        progress = true;
                    }
                }
                while let Some(d) = server.poll_transmit(now) {
                    client.handle_datagram(now, &d);
                    progress = true;
                }
                while let Some(ev) = client.poll_event() {
                    match ev {
                        ConnEvent::HandshakeComplete => timeline.push((now, "client_complete")),
                        ConnEvent::HandshakeConfirmed => timeline.push((now, "client_confirmed")),
                        _ => {}
                    }
                    progress = true;
                }
                if !progress {
                    break;
                }
            }
            if client.is_established()
                && server.is_established()
                && cert_at.is_none()
                && client.handshake_confirmed
            {
                break;
            }
            // Advance virtual time to the earliest pending timer and fire
            // any due timeouts.
            let next = [client.poll_timeout(), server.poll_timeout(), cert_at]
                .into_iter()
                .flatten()
                .min();
            now = next.map_or(now + ms(1), |t| t.max(now + SimDuration::from_micros(10)));
            if client.poll_timeout().map(|t| t <= now).unwrap_or(false) {
                client.handle_timeout(now);
            }
            if server.poll_timeout().map(|t| t <= now).unwrap_or(false) {
                server.handle_timeout(now);
            }
        }
        timeline
    }

    #[test]
    fn full_handshake_wfc() {
        let mut c = client();
        let mut s = server(ServerAckMode::WaitForCertificate);
        run_handshake(&mut c, &mut s, SimDuration::ZERO);
        assert!(c.is_established());
        assert!(s.is_established());
        assert!(c.handshake_confirmed);
        // WFC: no instant ACK anywhere.
        assert_eq!(
            s.log
                .count(|d| matches!(d, EventData::InstantAck { sent: true })),
            0
        );
        assert!(!c.iack_received);
    }

    #[test]
    fn full_handshake_iack() {
        let mut c = client();
        let mut s = server(ServerAckMode::InstantAck { pad_to_mtu: false });
        run_handshake(&mut c, &mut s, ms(50));
        assert!(c.is_established());
        assert!(s.is_established());
        assert_eq!(
            s.log
                .count(|d| matches!(d, EventData::InstantAck { sent: true })),
            1
        );
        assert!(c.iack_received, "client must see the instant ACK");
    }

    #[test]
    fn iack_gives_client_early_rtt_sample() {
        // With Δt = 50 ms and zero network delay, WFC's first client RTT
        // sample is ~50 ms while IACK's is ~0 ms.
        let mut c1 = client();
        let mut s1 = server(ServerAckMode::WaitForCertificate);
        run_handshake(&mut c1, &mut s1, ms(50));
        let mut c2 = client();
        let mut s2 = server(ServerAckMode::InstantAck { pad_to_mtu: false });
        run_handshake(&mut c2, &mut s2, ms(50));
        let wfc_first = c1
            .log
            .metrics_updates()
            .next()
            .map(|(_, s, _)| s)
            .expect("wfc client has a sample");
        let iack_first = c2
            .log
            .metrics_updates()
            .next()
            .map(|(_, s, _)| s)
            .expect("iack client has a sample");
        assert!(
            wfc_first >= 50.0,
            "WFC first sample inflated by Δt, got {wfc_first}"
        );
        assert!(
            iack_first < 10.0,
            "IACK first sample near true RTT, got {iack_first}"
        );
    }

    #[test]
    fn client_initial_datagram_padded() {
        let mut c = client();
        let d = c.poll_transmit(SimTime::ZERO).expect("client hello");
        assert!(
            d.len() >= MIN_INITIAL_DATAGRAM,
            "client Initial padded to 1200, got {}",
            d.len()
        );
    }

    #[test]
    fn pad_routine_sizes() {
        let cid = ConnectionId::from_u64(7);
        let total = |pkts: &[PlainPacket]| -> usize {
            pkts.iter().map(PlainPacket::encoded_len).sum::<usize>()
        };
        let ack = || Frame::Ack(AckFrame::single(0, 0));
        // A lone ClientHello-sized Initial lands on exactly 1200 bytes.
        let hello = Frame::Crypto {
            offset: 0,
            data: Bytes::from(vec![1u8; 300]),
        };
        let mut lone =
            vec![PlainPacket::new(Header::initial(cid, cid, Vec::new(), 0), vec![hello]).unwrap()];
        pad_client_initial(&mut lone);
        assert_eq!(total(&lone), MIN_INITIAL_DATAGRAM);
        // Known deviation (see `pad_client_initial`): padding a short last
        // packet grows its length varint by one byte, so this shape leaves
        // at 1201 bytes, one over MAX_DATAGRAM_SIZE. Goldens and benchmark
        // fingerprints pin it; changing it is a behaviour change.
        let mut flight2 = vec![
            PlainPacket::new(Header::initial(cid, cid, Vec::new(), 1), vec![ack()]).unwrap(),
            PlainPacket::new(Header::handshake(cid, cid, 0), vec![ack()]).unwrap(),
        ];
        pad_client_initial(&mut flight2);
        assert_eq!(total(&flight2), MAX_DATAGRAM_SIZE + 1);
        assert!(matches!(
            flight2[1].frames.last(),
            Some(Frame::Padding { .. })
        ));
        // No Initial inside: untouched.
        let mut hs_only =
            vec![PlainPacket::new(Header::handshake(cid, cid, 1), vec![ack()]).unwrap()];
        pad_client_initial(&mut hs_only);
        assert_eq!(hs_only[0].frames.len(), 1);
    }

    #[test]
    fn tampered_handshake_datagram_is_dropped_and_original_still_accepted() {
        let mut c = client();
        let mut s = server(ServerAckMode::WaitForCertificate);
        let now = SimTime::ZERO;
        let hello = c.poll_transmit(now).expect("client hello");
        s.handle_datagram(now, &hello);
        s.certificate_ready(now);
        while s.poll_event().is_some() {}
        // First datagram: ServerHello + start of the Handshake flight; it
        // gives the client its Handshake keys.
        let first = s.poll_transmit(now).expect("server flight");
        c.handle_datagram(now, &first);
        while c.poll_event().is_some() {}
        let sealed = std::iter::from_fn(|| s.poll_transmit(now))
            .find(|d| {
                let info = rq_wire::classify_datagram(d, 8).unwrap();
                info.packets.iter().all(|p| p.ty == PacketType::Handshake)
            })
            .expect("a Handshake-only datagram");
        let (_, payload, _, used) = PlainPacket::decode_with_payload(&sealed, 8).unwrap();
        let payload_mid = used - rq_wire::AEAD_TAG_LEN - payload.len() / 2;
        let before = c.stats().packets_opened;
        for flip_at in [payload_mid, used - 1] {
            let mut bad = sealed.clone();
            bad[flip_at] ^= 0x01;
            // Still well-formed: only the tag check can reject it.
            assert!(PlainPacket::decode(&bad, 8).is_ok(), "byte {flip_at}");
            c.handle_datagram(now, &bad);
            assert_eq!(c.stats().packets_opened, before, "byte {flip_at}");
            assert!(c.poll_event().is_none(), "byte {flip_at}");
        }
        c.handle_datagram(now, &sealed);
        assert!(c.stats().packets_opened[1] > before[1]);
    }

    /// An Initial packet from the client's address with `payload` as its
    /// frame bytes, correctly tagged: Initial keys derive from the DCID on
    /// the wire, so anyone who saw the first datagram can mint one.
    fn forged_initial(original_dcid: ConnectionId, pn: u64, payload: &[u8]) -> Vec<u8> {
        let keys = initial_keys(original_dcid.as_slice());
        let header = Header::initial(
            original_dcid,
            derived_cid(1, CID_KIND_CLIENT, 0),
            vec![],
            pn,
        );
        let shell = PlainPacket::new(header, vec![Frame::Padding { len: payload.len() }]).unwrap();
        let mut datagram = Vec::new();
        shell
            .encode_sealed(&mut datagram, |_| {
                seal_tag(keys.for_side(KeySide::Client), pn, payload)
            })
            .unwrap();
        let payload_at = datagram.len() - rq_wire::AEAD_TAG_LEN - payload.len();
        datagram[payload_at..payload_at + payload.len()].copy_from_slice(payload);
        datagram
    }

    #[test]
    fn forged_initial_with_hostile_ack_changes_nothing() {
        let max = [0xffu8; 8];
        // A 62-bit range count, and one range over every packet number.
        let huge_count = [&[0x02, 0x00, 0x00][..], &max, &[0x00]].concat();
        let whole_space = [&[0x02][..], &max, &[0x00, 0x00], &max].concat();
        for (pn, payload) in [(7, huge_count), (8, whole_space)] {
            let mut c = client();
            let mut s = server(ServerAckMode::WaitForCertificate);
            let now = SimTime::ZERO;
            let hello = c.poll_transmit(now).expect("client hello");
            s.handle_datagram(now, &hello);
            s.certificate_ready(now);
            while s.poll_event().is_some() {}
            while s.poll_transmit(now).is_some() {}
            let recovery_state = |s: &Connection| {
                (
                    s.trackers.each_ref().map(SentTracker::tracked),
                    s.trackers.each_ref().map(SentTracker::bytes_in_flight),
                    s.trackers[0].largest_acked,
                    s.cc.bytes_in_flight(),
                    s.rtt.sample_count(),
                    s.new_ack_packets,
                    s.poll_timeout(),
                )
            };
            let before = recovery_state(&s);
            assert!(before.0[0] > 0, "the ServerHello is in flight");
            let forged = forged_initial(s.original_dcid(), pn, &payload);
            // The tag is good: only what the frame says can stop it.
            let tag = forged[forged.len() - rq_wire::AEAD_TAG_LEN..]
                .try_into()
                .unwrap();
            let keys = initial_keys(s.original_dcid().as_slice());
            assert!(verify_tag(
                keys.for_side(KeySide::Client),
                pn,
                &payload,
                &tag
            ));
            s.handle_datagram(at(1), &forged);
            assert_eq!(recovery_state(&s), before, "pn {pn}");
            assert!(!s.is_closed() && s.poll_event().is_none(), "pn {pn}");
        }
    }

    #[test]
    fn server_amplification_limit_enforced_with_large_cert() {
        let mut c = client();
        let mut cfg = EndpointConfig::rfc_default().with_cert_len(rq_tls::CERT_LARGE);
        cfg.ack_mode = ServerAckMode::WaitForCertificate;
        let mut s = Connection::server(cfg, 2, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0));
        let ch = c.poll_transmit(at(0)).unwrap();
        let ch_len = ch.len();
        s.handle_datagram(at(0), &ch);
        while let Some(ev) = s.poll_event() {
            if matches!(ev, ConnEvent::CertificateNeeded) {
                s.certificate_ready(at(0));
            }
        }
        let mut sent = 0;
        while let Some(d) = s.poll_transmit(at(1)) {
            sent += d.len();
        }
        assert!(sent <= 3 * ch_len, "server sent {sent} > 3x{ch_len}");
        // The server must be blocked with data still pending.
        assert!(
            s.wants_to_send(),
            "large cert cannot fit the amplification budget"
        );
        assert!(
            s.log
                .count(|d| matches!(d, EventData::AmplificationBlocked { .. }))
                > 0
        );
    }

    #[test]
    fn client_pto_fires_and_probes() {
        let mut c = client();
        let d = c.poll_transmit(at(0)).unwrap();
        let _ = d;
        // No response: the client's (default 1000 ms) PTO must be armed.
        let deadline = c.poll_timeout().expect("pto armed");
        assert_eq!(deadline.as_millis_f64(), 1000.0);
        c.handle_timeout(deadline);
        // Probe datagram (PING, padded Initial).
        let probe = c.poll_transmit(deadline).expect("probe after pto");
        assert!(probe.len() >= MIN_INITIAL_DATAGRAM);
        // Backoff doubled.
        let second = c.poll_timeout().expect("pto rearmed");
        assert!(second.since(deadline).as_millis_f64() >= 2000.0);
    }

    #[test]
    fn pto_probe_policy_retransmit_client_hello() {
        let mut cfg = EndpointConfig::rfc_default();
        cfg.probe_policy = ProbePolicy::RetransmitOldest;
        let mut c = Connection::client(cfg, 1, false);
        let first = c.poll_transmit(at(0)).unwrap();
        let deadline = c.poll_timeout().unwrap();
        c.handle_timeout(deadline);
        let probe = c.poll_transmit(deadline).unwrap();
        // The probe datagram must carry CRYPTO (the ClientHello), like the
        // first flight, not merely a PING.
        let info = rq_wire::classify_datagram(&probe, 8).unwrap();
        assert!(info.crypto_bytes_in(PacketNumberSpace::Initial) > 0);
        let _ = first;
    }

    #[test]
    fn quirk_no_probe_after_iack_suppresses_deadlock_pto() {
        let mut cfg = EndpointConfig::rfc_default();
        cfg.quirks.no_probe_after_iack = true;
        let mut c = Connection::client(cfg, 1, false);
        let mut s = server(ServerAckMode::InstantAck { pad_to_mtu: false });
        let ch = c.poll_transmit(at(0)).unwrap();
        s.handle_datagram(at(0), &ch);
        while let Some(ev) = s.poll_event() {
            let _ = ev; // CertificateNeeded — deliberately never fulfilled
        }
        let iack = s.poll_transmit(at(1)).expect("instant ack");
        c.handle_datagram(at(1), &iack);
        // CH is acked, handshake unconfirmed: a normal client re-arms a
        // sample-based (tiny) deadlock PTO; the quirky client keeps its
        // *default* PTO from the ClientHello send instead — the IACK does
        // not cause (earlier) probe packets.
        let deadline = c.poll_timeout().expect("default PTO still armed");
        assert_eq!(
            deadline.as_millis_f64(),
            1000.0,
            "quirky client keeps the default PTO armed at the CH send"
        );
    }

    #[test]
    fn normal_client_arms_deadlock_pto_after_iack() {
        let mut c = client();
        let mut s = server(ServerAckMode::InstantAck { pad_to_mtu: false });
        let ch = c.poll_transmit(at(0)).unwrap();
        s.handle_datagram(at(0), &ch);
        while s.poll_event().is_some() {}
        let iack = s.poll_transmit(at(1)).expect("instant ack");
        c.handle_datagram(at(1), &iack);
        let deadline = c.poll_timeout().expect("deadlock PTO armed");
        // PTO from the IACK RTT sample (~1 ms) is far below the 1 s default.
        assert!(deadline.as_millis_f64() < 50.0, "deadline {deadline}");
    }

    #[test]
    fn padded_iack_consumes_more_budget() {
        let mut c = client();
        let ch = c.poll_transmit(at(0)).unwrap();
        let mut s1 = server(ServerAckMode::InstantAck { pad_to_mtu: false });
        s1.handle_datagram(at(0), &ch);
        while s1.poll_event().is_some() {}
        let small = s1.poll_transmit(at(0)).unwrap();
        let mut c2 = Connection::client(EndpointConfig::rfc_default(), 1, false);
        let ch2 = c2.poll_transmit(at(0)).unwrap();
        let mut s2 = server(ServerAckMode::InstantAck { pad_to_mtu: true });
        s2.handle_datagram(at(0), &ch2);
        while s2.poll_event().is_some() {}
        let padded = s2.poll_transmit(at(0)).unwrap();
        assert!(
            small.len() < 100,
            "unpadded IACK is tiny, got {}",
            small.len()
        );
        assert_eq!(padded.len(), MIN_INITIAL_DATAGRAM);
    }

    #[test]
    fn stream_data_flows_after_handshake() {
        let mut c = client();
        let mut s = server(ServerAckMode::WaitForCertificate);
        c.send_stream_data(
            stream_id::CLIENT_BIDI_0,
            b"GET /index.html HTTP/1.1\r\n\r\n",
            true,
        );
        run_handshake(&mut c, &mut s, SimDuration::ZERO);
        // Server must have received the request (events were drained by the
        // helper, so inspect the stream state directly).
        let delivered = s
            .streams
            .recv
            .get(&stream_id::CLIENT_BIDI_0)
            .map(|r| r.delivered)
            .unwrap_or(0);
        assert!(
            delivered > 0,
            "server received the HTTP request in flight 2"
        );
    }

    #[test]
    fn conn_stats_count_handshake_traffic() {
        let mut c = client();
        let mut s = server(ServerAckMode::WaitForCertificate);
        run_handshake(&mut c, &mut s, SimDuration::ZERO);
        let (cs, ss) = (c.stats(), s.stats());
        // Zero-loss handshake: every sealed packet is opened by the peer.
        assert_eq!(cs.packets_sealed, ss.packets_opened);
        assert_eq!(ss.packets_sealed, cs.packets_opened);
        assert!(cs.packets_sealed.iter().sum::<u64>() > 0);
        assert_eq!(cs.packets_lost, 0);
        assert_eq!(cs.pto_expirations, 0);
        // The stats snapshot exports and merges like a monoid.
        let mut merged = ConnStats::default();
        merged.merge(&cs);
        merged.merge(&ss);
        let mut reg = rq_obs::Registry::default();
        merged.export("quic/", &mut reg);
        assert_eq!(
            reg.counter("quic/packets_sealed/initial"),
            cs.packets_sealed[0] + ss.packets_sealed[0]
        );
    }

    #[test]
    fn metrics_sampled_gated_off_by_default_and_throttled_when_on() {
        // Default config: no metrics_sampled events anywhere.
        let mut c = client();
        let mut s = server(ServerAckMode::WaitForCertificate);
        c.send_stream_data(stream_id::CLIENT_BIDI_0, &[0x5A; 4096], true);
        run_handshake(&mut c, &mut s, SimDuration::ZERO);
        let sampled = |conn: &Connection| {
            conn.log
                .count(|d| matches!(d, EventData::MetricsSampled { .. }))
        };
        assert_eq!(sampled(&c) + sampled(&s), 0);

        // Enabled: samples appear in the data phase, at most one per
        // cadence window.
        let mut cfg = EndpointConfig::rfc_default();
        cfg.metrics_sample_every = Some(ms(10));
        let mut c = Connection::client(cfg, 1, false);
        let mut s = server(ServerAckMode::WaitForCertificate);
        c.send_stream_data(stream_id::CLIENT_BIDI_0, &[0x5A; 4096], true);
        run_handshake(&mut c, &mut s, SimDuration::ZERO);
        assert!(sampled(&c) > 0, "client samples metrics while enabled");
        let times: Vec<f64> = c
            .log
            .events
            .iter()
            .filter(|e| matches!(e.data, EventData::MetricsSampled { .. }))
            .map(|e| e.time_ms)
            .collect();
        for w in times.windows(2) {
            assert!(w[1] - w[0] >= 10.0, "samples respect the cadence");
        }
    }

    #[test]
    fn flight2_layouts_produce_expected_datagram_counts() {
        for (layout, expected) in [(1usize, 1usize), (2, 2), (3, 3), (4, 4)] {
            let mut cfg = EndpointConfig::rfc_default();
            cfg.flight2_datagrams = layout;
            let mut c = Connection::client(cfg, 1, false);
            let mut s = server(ServerAckMode::WaitForCertificate);
            c.send_stream_data(stream_id::CLIENT_BIDI_0, b"GET / HTTP/1.1\r\n\r\n", true);
            // First flight out, server flight back, all at t=0.
            let ch = c.poll_transmit(at(0)).unwrap();
            s.handle_datagram(at(0), &ch);
            while let Some(ev) = s.poll_event() {
                if matches!(ev, ConnEvent::CertificateNeeded) {
                    s.certificate_ready(at(0));
                }
            }
            while let Some(d) = s.poll_transmit(at(0)) {
                c.handle_datagram(at(0), &d);
            }
            assert!(c.is_established());
            let mut flight2 = Vec::new();
            while let Some(d) = c.poll_transmit(at(1)) {
                flight2.push(d);
            }
            assert_eq!(
                flight2.len(),
                expected,
                "layout {layout} produced {} datagrams",
                flight2.len()
            );
        }
    }

    #[test]
    fn connection_close_propagates() {
        let mut c = client();
        let mut s = server(ServerAckMode::WaitForCertificate);
        run_handshake(&mut c, &mut s, SimDuration::ZERO);
        c.close(at(500), 0x42, "done");
        let d = c.poll_transmit(at(500)).expect("close datagram");
        s.handle_datagram(at(500), &d);
        let mut closed = false;
        while let Some(ev) = s.poll_event() {
            if let ConnEvent::Closed { error_code, .. } = ev {
                assert_eq!(error_code, 0x42);
                closed = true;
            }
        }
        assert!(closed);
        assert!(s.is_closed());
    }

    #[test]
    fn quiche_drops_coalesced_ping_reply_datagram() {
        // Build a quiche-like client, make it send a PING probe, then hand
        // it a datagram whose leading Initial packet acks that PING *and*
        // coalesces further packets: the whole datagram must be discarded
        // ("drops replies to PING frames as invalid together with
        // coalesced packets", §4.1).
        let mut cfg = EndpointConfig::rfc_default();
        cfg.quirks.drop_ping_reply_coalesced = true;
        let mut c = Connection::client(cfg, 1, false);
        let mut s = server(ServerAckMode::InstantAck { pad_to_mtu: false });
        let ch = c.poll_transmit(at(0)).unwrap();
        s.handle_datagram(at(0), &ch);
        while s.poll_event().is_some() {}
        let iack = s.poll_transmit(at(0)).unwrap();
        c.handle_datagram(at(1), &iack);
        // Client probes (PING) after its tiny IACK-derived PTO.
        let pto = c.poll_timeout().unwrap();
        c.handle_timeout(pto);
        let probe = c.poll_transmit(pto).unwrap();
        s.handle_datagram(pto, &probe);
        // Release the certificate now: the server's next datagram coalesces
        // Initial ACK(ping)+SH with handshake packets.
        s.certificate_ready(pto);
        let flight = s.poll_transmit(pto).expect("coalesced flight");
        let info = rq_wire::classify_datagram(&flight, 8).unwrap();
        assert!(info.packets.len() > 1, "flight must be coalesced");
        assert!(info.packets[0].has_ack, "leading Initial acks the ping");
        let received_before = c
            .log
            .count(|d| matches!(d, EventData::PacketReceived { .. }));
        c.handle_datagram(pto + ms(5), &flight);
        let received_after = c
            .log
            .count(|d| matches!(d, EventData::PacketReceived { .. }));
        assert_eq!(
            received_before, received_after,
            "quiche must drop the entire coalesced ping-reply datagram"
        );
        // A well-behaved client processes the same datagram fine.
        let mut ok = Connection::client(EndpointConfig::rfc_default(), 1, false);
        let mut s2 = server(ServerAckMode::InstantAck { pad_to_mtu: false });
        let ch2 = ok.poll_transmit(at(0)).unwrap();
        s2.handle_datagram(at(0), &ch2);
        while s2.poll_event().is_some() {}
        let iack2 = s2.poll_transmit(at(0)).unwrap();
        ok.handle_datagram(at(1), &iack2);
        let pto2 = ok.poll_timeout().unwrap();
        ok.handle_timeout(pto2);
        let probe2 = ok.poll_transmit(pto2).unwrap();
        s2.handle_datagram(pto2, &probe2);
        s2.certificate_ready(pto2);
        let flight2 = s2.poll_transmit(pto2).unwrap();
        let before = ok
            .log
            .count(|d| matches!(d, EventData::PacketReceived { .. }));
        ok.handle_datagram(pto2 + ms(5), &flight2);
        let after = ok
            .log
            .count(|d| matches!(d, EventData::PacketReceived { .. }));
        assert!(after > before, "well-behaved client processes the flight");
    }

    /// Zero-delay exchange loop capturing any ticket the client receives.
    fn exchange_until_quiet(
        c: &mut Connection,
        s: &mut Connection,
        now: SimTime,
    ) -> Option<rq_tls::SessionTicket> {
        let mut ticket = None;
        loop {
            let mut progress = false;
            while let Some(d) = c.poll_transmit(now) {
                s.handle_datagram(now, &d);
                progress = true;
            }
            while let Some(ev) = s.poll_event() {
                if matches!(ev, ConnEvent::CertificateNeeded) {
                    s.certificate_ready(now);
                }
                progress = true;
            }
            while let Some(d) = s.poll_transmit(now) {
                c.handle_datagram(now, &d);
                progress = true;
            }
            while let Some(ev) = c.poll_event() {
                if let ConnEvent::TicketReceived(t) = ev {
                    ticket = Some(t);
                }
                progress = true;
            }
            if !progress {
                break;
            }
        }
        ticket
    }

    /// Mints a ticket through a full priming handshake against a
    /// ticket-issuing server sharing `server_cfg`.
    fn mint_ticket_via_priming(server_cfg: &EndpointConfig) -> rq_tls::SessionTicket {
        let mut c = client();
        let mut s = Connection::server(
            server_cfg.clone(),
            2,
            derived_cid(1, CID_KIND_ORIGINAL_DCID, 0),
        );
        let ticket = exchange_until_quiet(&mut c, &mut s, at(0));
        assert!(c.is_established() && !c.is_resumed());
        ticket.expect("priming connection must yield a ticket")
    }

    fn resuming_server_cfg(accept_early: bool) -> EndpointConfig {
        let mut cfg = EndpointConfig::rfc_default();
        cfg.ack_mode = ServerAckMode::WaitForCertificate;
        cfg.resumption = if accept_early {
            rq_tls::ServerResumption::accepting(7200)
        } else {
            rq_tls::ServerResumption::rejecting_early_data(7200)
        };
        cfg
    }

    #[test]
    fn zero_rtt_request_delivered_before_handshake_completes() {
        let server_cfg = resuming_server_cfg(true);
        let ticket = mint_ticket_via_priming(&server_cfg);

        let mut cfg = EndpointConfig::rfc_default();
        cfg.session_ticket = Some(ticket);
        cfg.enable_early_data = true;
        let mut c = Connection::client(cfg, 1, false);
        c.send_stream_data(stream_id::CLIENT_BIDI_0, b"GET / HTTP/1.1\r\n\r\n", true);
        let mut s = Connection::server(server_cfg, 3, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0));

        // The first flight carries Initial(CH) coalesced with a 0-RTT
        // packet carrying the request.
        let first = c.poll_transmit(at(0)).expect("first flight");
        let info = rq_wire::classify_datagram(&first, 8).unwrap();
        assert!(info
            .packets
            .iter()
            .any(|p| p.ty == rq_wire::PacketType::ZeroRtt));
        assert!(first.len() >= MIN_INITIAL_DATAGRAM);
        s.handle_datagram(at(0), &first);
        // The server delivers the early request before any return flight
        // and without ever asking for the certificate.
        let mut got_request = false;
        let mut cert_needed = false;
        while let Some(ev) = s.poll_event() {
            match ev {
                ConnEvent::StreamData { id, data, .. } => {
                    got_request |= id == stream_id::CLIENT_BIDI_0 && !data.is_empty();
                }
                ConnEvent::CertificateNeeded => cert_needed = true,
                _ => {}
            }
        }
        assert!(got_request, "0-RTT request delivered from the first flight");
        assert!(!cert_needed, "resumed handshakes skip the cert store");
        assert_eq!(s.early_data_accepted(), Some(true));

        // Finish the handshake: both sides resumed, early data accepted.
        exchange_until_quiet(&mut c, &mut s, at(1));
        assert!(c.is_established() && s.is_established());
        assert!(c.is_resumed() && s.is_resumed());
        assert_eq!(c.early_data_accepted(), Some(true));
    }

    #[test]
    fn rejected_early_data_is_retransmitted_as_one_rtt() {
        let server_cfg = resuming_server_cfg(false);
        let ticket = mint_ticket_via_priming(&server_cfg);

        let mut cfg = EndpointConfig::rfc_default();
        cfg.session_ticket = Some(ticket);
        cfg.enable_early_data = true;
        let mut c = Connection::client(cfg, 1, false);
        c.send_stream_data(stream_id::CLIENT_BIDI_0, b"GET / HTTP/1.1\r\n\r\n", true);
        let mut s = Connection::server(server_cfg, 3, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0));

        exchange_until_quiet(&mut c, &mut s, at(0));
        assert!(c.is_established() && c.is_resumed());
        assert_eq!(c.early_data_accepted(), Some(false));
        assert_eq!(s.early_data_accepted(), Some(false));
        // The server still received the whole request — resent under
        // 1-RTT keys after the reject.
        let delivered = s
            .streams
            .recv
            .get(&stream_id::CLIENT_BIDI_0)
            .map(|r| r.delivered)
            .unwrap_or(0);
        assert_eq!(delivered as usize, b"GET / HTTP/1.1\r\n\r\n".len());
    }

    #[test]
    fn resumed_handshake_without_early_data_still_abbreviated() {
        let server_cfg = resuming_server_cfg(true);
        let ticket = mint_ticket_via_priming(&server_cfg);
        let mut cfg = EndpointConfig::rfc_default();
        cfg.session_ticket = Some(ticket);
        cfg.enable_early_data = false;
        let mut c = Connection::client(cfg, 1, false);
        let mut s = Connection::server(server_cfg, 3, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0));
        let fresh = exchange_until_quiet(&mut c, &mut s, at(0));
        assert!(c.is_resumed() && s.is_resumed());
        assert_eq!(c.early_data_accepted(), None, "early data never offered");
        assert!(fresh.is_some(), "resumed handshakes re-issue tickets");
    }

    #[test]
    fn ticket_from_wrong_server_key_falls_back_to_full_handshake() {
        let server_cfg = resuming_server_cfg(true);
        let ticket = mint_ticket_via_priming(&server_cfg);
        let mut cfg = EndpointConfig::rfc_default();
        cfg.session_ticket = Some(ticket);
        cfg.enable_early_data = true;
        let mut c = Connection::client(cfg, 1, false);
        let mut other = server_cfg;
        other.ticket_key ^= 0xDEAD;
        let mut s = Connection::server(other, 3, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0));
        exchange_until_quiet(&mut c, &mut s, at(0));
        assert!(c.is_established() && s.is_established());
        assert!(!c.is_resumed() && !s.is_resumed());
        assert_eq!(c.early_data_accepted(), Some(false));
    }

    #[test]
    fn server_rtt_sample_absent_under_iack_before_handshake_ack() {
        // The Figure 6 mechanic: the IACK is not ack-eliciting, so the
        // server holds no RTT sample until the client acks a CRYPTO packet.
        let mut c = client();
        let mut s = server(ServerAckMode::InstantAck { pad_to_mtu: false });
        let ch = c.poll_transmit(at(0)).unwrap();
        s.handle_datagram(at(5), &ch);
        while let Some(ev) = s.poll_event() {
            let _ = ev;
        }
        let iack = s.poll_transmit(at(5)).unwrap();
        c.handle_datagram(at(10), &iack);
        // Client probes after its (now tiny) PTO; server receives the PING
        // and still has no RTT sample: pure ACKs acked give none.
        let pto = c.poll_timeout().unwrap();
        c.handle_timeout(pto);
        let probe = c.poll_transmit(pto).unwrap();
        s.handle_datagram(pto + ms(5), &probe);
        assert_eq!(
            s.rtt().sample_count(),
            0,
            "server must have no RTT sample under IACK"
        );
    }

    // ------------------------------------------------------------------
    // Connection migration
    // ------------------------------------------------------------------

    fn migration_pair() -> (Connection, Connection) {
        let mut ccfg = EndpointConfig::rfc_default();
        ccfg.cid_pool = 2;
        let mut scfg = EndpointConfig::rfc_default();
        scfg.cid_pool = 2;
        let c = Connection::client(ccfg, 1, false);
        let s = Connection::server(scfg, 2, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0));
        (c, s)
    }

    /// Zero-delay exchange where every datagram is delivered on `path`,
    /// until quiescent.
    fn pump_on_path(c: &mut Connection, s: &mut Connection, now: SimTime, path: u64) {
        loop {
            let mut progress = false;
            while let Some(d) = c.poll_transmit(now) {
                s.handle_datagram_on_path(now, &d, path);
                progress = true;
            }
            while let Some(d) = s.poll_transmit(now) {
                c.handle_datagram_on_path(now, &d, path);
                progress = true;
            }
            if !progress {
                break;
            }
        }
    }

    #[test]
    fn cid_derivation_is_collision_free() {
        // The old XOR scheme could collide across kinds/seeds; coordinate
        // hashing must keep every (seed, kind, seq) CID distinct.
        let mut seen = std::collections::HashSet::new();
        for seed in [0u64, 1, 2, 0xC11E_57, 0x5E11_E5] {
            for kind in [
                CID_KIND_CLIENT,
                CID_KIND_ORIGINAL_DCID,
                CID_KIND_SERVER,
                CID_KIND_RETRY,
            ] {
                for seq in 0..8u64 {
                    assert!(
                        seen.insert(derived_cid(seed, kind, seq)),
                        "collision at seed={seed:#x} kind={kind} seq={seq}"
                    );
                }
            }
        }
    }

    #[test]
    fn cid_pool_announced_after_handshake() {
        let (mut c, mut s) = migration_pair();
        run_handshake(&mut c, &mut s, SimDuration::ZERO);
        assert_eq!(c.spare_peer_cids(), 2, "server pool not banked at client");
        assert_eq!(s.spare_peer_cids(), 2, "client pool not banked at server");
        // The spares are exactly the derivable pool CIDs.
        assert_eq!(c.peer_cid_pool[0].1, derived_cid(2, CID_KIND_SERVER, 1));
        assert_eq!(s.peer_cid_pool[1].1, derived_cid(1, CID_KIND_CLIENT, 2));
    }

    #[test]
    fn cid_pool_disabled_changes_nothing() {
        let mut c = client();
        let mut s = server(ServerAckMode::WaitForCertificate);
        run_handshake(&mut c, &mut s, SimDuration::ZERO);
        assert_eq!(c.spare_peer_cids(), 0);
        assert_eq!(s.spare_peer_cids(), 0);
        assert_eq!(
            c.log
                .count(|d| matches!(d, EventData::MigrationStarted { .. })),
            0
        );
    }

    #[test]
    fn deliberate_migration_rotates_cid_and_validates_path() {
        let (mut c, mut s) = migration_pair();
        run_handshake(&mut c, &mut s, SimDuration::ZERO);
        let old_dcid = c.peer_cid;
        let now = at(500);
        c.migrate(now, 7);
        assert_ne!(c.peer_cid, old_dcid, "DCID must rotate on migration");
        assert_eq!(c.peer_cid, derived_cid(2, CID_KIND_SERVER, 1));
        assert!(c.path_validation_pending());
        pump_on_path(&mut c, &mut s, now, 7);
        // Both directions validated: client probed, server counter-probed.
        assert!(
            c.path_state(7).unwrap().validated,
            "client path unvalidated"
        );
        assert!(
            s.path_state(7).unwrap().validated,
            "server path unvalidated"
        );
        assert_eq!(s.active_path(), 7);
        assert!(!c.path_validation_pending());
        assert_eq!(
            c.log.count(|d| matches!(
                d,
                EventData::MigrationStarted {
                    deliberate: true,
                    ..
                }
            )),
            1
        );
        assert_eq!(
            s.log.count(|d| matches!(
                d,
                EventData::MigrationStarted {
                    deliberate: false,
                    ..
                }
            )),
            1
        );
        // The old client DCID was retired at the server.
        assert_eq!(
            s.log
                .count(|d| matches!(d, EventData::CidRetired { seq: 0 })),
            1
        );
    }

    #[test]
    fn unvalidated_path_is_amplification_limited() {
        let (mut c, mut s) = migration_pair();
        run_handshake(&mut c, &mut s, SimDuration::ZERO);
        let now = at(500);
        c.migrate(now, 3);
        // Deliver exactly one client datagram on the new path, then stop.
        let d = c.poll_transmit(now).expect("challenge datagram");
        s.handle_datagram_on_path(now, &d, 3);
        let p = s.path_state(3).expect("server must track the new path");
        assert!(!p.validated);
        assert_eq!(
            s.amplification_budget(),
            3 * d.len(),
            "unvalidated new path must be 3x-limited like a fresh Initial"
        );
        // Server sends never exceed the per-path budget while unvalidated.
        let mut sent = 0usize;
        while let Some(out) = s.poll_transmit(now) {
            sent += out.len();
        }
        assert!(
            sent <= 3 * d.len(),
            "server overshot: {sent} > {}",
            3 * d.len()
        );
    }

    #[test]
    fn path_validation_abandons_after_retries() {
        let (mut c, mut s) = migration_pair();
        run_handshake(&mut c, &mut s, SimDuration::ZERO);
        let mut now = at(500);
        c.migrate(now, 9);
        // Black-hole every datagram: drain transmits, fire each deadline.
        for _ in 0..16 {
            while c.poll_transmit(now).is_some() {}
            if !c.path_validation_pending() {
                break;
            }
            let deadline = c.poll_timeout().expect("challenge deadline armed");
            now = now.max(deadline);
            c.handle_timeout(now);
        }
        assert!(!c.path_validation_pending(), "validation must terminate");
        assert!(c.path_state(9).unwrap().abandoned);
        assert_eq!(
            c.log
                .count(|d| matches!(d, EventData::PathAbandoned { path: 9 })),
            1
        );
        assert_eq!(
            c.log
                .count(|d| matches!(d, EventData::PathChallengeSent { .. })),
            1 + PATH_CHALLENGE_MAX_RETRIES as usize
        );
    }

    #[test]
    fn nat_rebind_without_notification_revalidates() {
        // NAT rebind: the client keeps sending, oblivious; the simulator
        // just delivers its packets on a new path id. The server must
        // notice, probe, and carry on.
        let (mut c, mut s) = migration_pair();
        run_handshake(&mut c, &mut s, SimDuration::ZERO);
        let now = at(500);
        c.send_stream_data(stream_id::CLIENT_BIDI_0, b"hello after rebind", true);
        pump_on_path(&mut c, &mut s, now, 4);
        assert_eq!(s.active_path(), 4);
        assert!(s.path_state(4).unwrap().validated);
        assert_eq!(
            s.log.count(|d| matches!(
                d,
                EventData::MigrationStarted {
                    deliberate: false,
                    ..
                }
            )),
            1
        );
    }
}
