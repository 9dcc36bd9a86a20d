//! The TLS handshake state machine (sans-IO).
//!
//! The QUIC connection feeds contiguous crypto-stream bytes per encryption
//! level into [`TlsSession::read_crypto`] and drains flight bytes with
//! [`TlsSession::take_output`]. The server pauses after the ClientHello
//! until [`TlsSession::provide_certificate`] is called — this is the hook
//! the paper's Δt (frontend ↔ certificate store delay) attaches to, and
//! what makes WFC vs IACK observable.
//!
//! Three handshake classes run through this machine:
//! * **Full** — the original CH → SH/EE/CERT/CV/FIN → FIN exchange;
//! * **Resumed** — the CH offers a session ticket and the server answers
//!   with an abbreviated SH/EE/FIN flight: no certificate, no store
//!   round trip, so the WFC/IACK dichotomy collapses;
//! * **0-RTT** — a resumed handshake whose client additionally derives
//!   early-data keys from the ticket secret before the first flight.
//!
//! After any completed handshake a ticket-issuing server queues a
//! NewSessionTicket at the Application level (a 1-RTT CRYPTO frame).

use bytes::{BufMut, Bytes};

use crate::keys::{
    application_keys, early_keys, handshake_keys, resumption_secret, Level, LevelKeys,
};
use crate::messages::{HandshakeMessage, HandshakeType, DEFAULT_CLIENT_HELLO_LEN, FINISHED_LEN};
use crate::resumption::{mint_ticket, open_ticket, ServerResumption, SessionTicket};
use crate::sha256::Sha256;
use crate::TlsError;

/// Endpoint role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Connection initiator.
    Client,
    /// Connection responder.
    Server,
}

/// Client-side handshake parameters.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Total ClientHello size in bytes.
    pub client_hello_len: usize,
    /// 32-byte client random (drawn from the simulation RNG upstream).
    pub random: [u8; 32],
    /// Session ticket to offer for an abbreviated handshake, if any.
    pub ticket: Option<SessionTicket>,
    /// Offer 0-RTT early data along with the ticket (requires `ticket`).
    pub early_data: bool,
}

impl ClientConfig {
    /// The full-handshake configuration (no ticket, no early data).
    pub fn full() -> Self {
        ClientConfig {
            client_hello_len: DEFAULT_CLIENT_HELLO_LEN,
            random: [0x11; 32],
            ticket: None,
            early_data: false,
        }
    }
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig::full()
    }
}

/// Server-side handshake parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Total Certificate message size in bytes (the paper's 1,212 B small
    /// and 5,113 B large chains are in `messages::CERT_SMALL/_LARGE`).
    pub cert_len: usize,
    /// 32-byte server random.
    pub random: [u8; 32],
    /// If true the certificate is already on the frontend (cache hit):
    /// the ServerHello flight is produced immediately on ClientHello.
    pub cert_preprovisioned: bool,
    /// Resumption policy: ticket issuance, PSK acceptance, 0-RTT.
    pub resumption: ServerResumption,
    /// Key minting/validating stateless session tickets.
    pub ticket_key: u64,
    /// Additional keys accepted when validating offered tickets (a
    /// rotating server's overlap window, newest first). `ticket_key` is
    /// always tried first; an empty list is the legacy single-key server.
    pub accept_ticket_keys: Vec<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cert_len: crate::messages::CERT_SMALL,
            random: [0x22; 32],
            cert_preprovisioned: false,
            resumption: ServerResumption::disabled(),
            ticket_key: 0x7E11_C3E7,
            accept_ticket_keys: Vec::new(),
        }
    }
}

/// Events surfaced to the QUIC layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsEvent {
    /// Keys for a level are now available; install them before processing
    /// further packets at that level.
    KeysReady(Level),
    /// Server only: the ClientHello was parsed but no certificate is
    /// provisioned. Fetch it (after Δt) and call `provide_certificate`.
    NeedCertificate,
    /// The handshake is complete at this endpoint.
    HandshakeComplete,
    /// The offered session ticket was accepted: this handshake is
    /// abbreviated (no certificate flight).
    ResumptionAccepted,
    /// Offered 0-RTT early data was accepted; early keys are live end to
    /// end (server: install them to decrypt 0-RTT packets).
    EarlyDataAccepted,
    /// Offered 0-RTT early data was rejected (or the PSK itself was):
    /// anything sent in 0-RTT packets must be retransmitted as 1-RTT.
    EarlyDataRejected,
    /// Client only: a NewSessionTicket arrived; cache it for resumption.
    TicketIssued(SessionTicket),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    Start,
    WaitServerHello,
    WaitEncryptedExtensions,
    WaitCertificate,
    WaitCertificateVerify,
    WaitFinished,
    Complete,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServerState {
    WaitClientHello,
    WaitCertProvision,
    WaitClientFinished,
    Complete,
}

#[derive(Debug, Clone, Copy)]
enum StateMachine {
    Client(ClientState),
    Server(ServerState),
}

/// A sans-IO TLS 1.3 handshake session.
pub struct TlsSession {
    role: Role,
    state: StateMachine,
    client_cfg: ClientConfig,
    server_cfg: ServerConfig,
    transcript: Sha256,
    /// Pending output bytes per level: Initial, Handshake, Application.
    out_initial: Vec<u8>,
    out_handshake: Vec<u8>,
    out_app: Vec<u8>,
    /// Reassembled-but-unparsed input per level.
    in_initial: Bytes,
    in_handshake: Bytes,
    in_app: Bytes,
    handshake_keys: Option<LevelKeys>,
    application_keys: Option<LevelKeys>,
    /// 0-RTT early-data keys (client: from the offered ticket; server:
    /// from the validated ticket when early data is accepted).
    early: Option<LevelKeys>,
    complete: bool,
    /// This handshake runs (client: was accepted as) the abbreviated
    /// PSK path.
    resumed: bool,
    /// Whether this side offered early data with its ticket (client).
    offered_early: bool,
    /// Outcome of an early-data offer, once known.
    early_data_accepted: Option<bool>,
    /// Resumption secret derived at handshake completion (pairs an
    /// incoming NewSessionTicket with the client's own transcript).
    res_secret: Option<[u8; 32]>,
}

/// Encodes `msg` onto the end of `out` — reserving its size, unless the
/// caller already reserved a whole flight's — and hashes the bytes just
/// written into the transcript.
fn queue(out: &mut Vec<u8>, transcript: &mut Sha256, msg: &HandshakeMessage) {
    let start = out.len();
    out.reserve(msg.wire_len());
    msg.encode(out);
    transcript.update(&out[start..]);
}

impl TlsSession {
    /// Creates a client session. Call [`TlsSession::start`] to queue the
    /// ClientHello.
    pub fn client(cfg: ClientConfig) -> Self {
        TlsSession {
            role: Role::Client,
            state: StateMachine::Client(ClientState::Start),
            client_cfg: cfg,
            server_cfg: ServerConfig::default(),
            ..Self::blank(Role::Client)
        }
    }

    /// Creates a server session.
    pub fn server(cfg: ServerConfig) -> Self {
        TlsSession {
            role: Role::Server,
            state: StateMachine::Server(ServerState::WaitClientHello),
            client_cfg: ClientConfig::full(),
            server_cfg: cfg,
            ..Self::blank(Role::Server)
        }
    }

    fn blank(role: Role) -> Self {
        TlsSession {
            role,
            state: StateMachine::Server(ServerState::WaitClientHello),
            client_cfg: ClientConfig::full(),
            server_cfg: ServerConfig::default(),
            transcript: Sha256::new(),
            out_initial: Vec::new(),
            out_handshake: Vec::new(),
            out_app: Vec::new(),
            in_initial: Bytes::new(),
            in_handshake: Bytes::new(),
            in_app: Bytes::new(),
            handshake_keys: None,
            application_keys: None,
            early: None,
            complete: false,
            resumed: false,
            offered_early: false,
            early_data_accepted: None,
            res_secret: None,
        }
    }

    /// Endpoint role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Queues the ClientHello (client only). Idempotent. A configured
    /// session ticket turns the CH into a resumption offer; with
    /// `early_data` the 0-RTT keys become available immediately.
    pub fn start(&mut self) {
        if let StateMachine::Client(state @ ClientState::Start) = &mut self.state {
            let ch = match &self.client_cfg.ticket {
                Some(ticket) => {
                    // RFC 8446 §4.2.10: early data may only be offered
                    // under a ticket whose issuer advertised support.
                    let offer_early = self.client_cfg.early_data && ticket.early_data_allowed;
                    if offer_early {
                        self.offered_early = true;
                        self.early = Some(early_keys(&ticket.secret));
                    }
                    HandshakeMessage::client_hello_resumption(
                        self.client_cfg.random,
                        self.client_cfg.client_hello_len,
                        &ticket.ticket,
                        offer_early,
                    )
                }
                None => HandshakeMessage::client_hello(
                    self.client_cfg.random,
                    self.client_cfg.client_hello_len,
                ),
            };
            queue(&mut self.out_initial, &mut self.transcript, &ch);
            *state = ClientState::WaitServerHello;
        }
    }

    /// Re-queues the ClientHello after a Retry packet (RFC 9000 §17.2.5):
    /// the transcript restarts and the CH is resent with the server token
    /// carried at the QUIC layer.
    pub fn reset_for_retry(&mut self) {
        assert_eq!(self.role, Role::Client, "only clients process Retry");
        self.state = StateMachine::Client(ClientState::Start);
        self.transcript = Sha256::new();
        self.out_initial.clear();
        self.out_handshake.clear();
        self.out_app.clear();
        self.in_initial = Bytes::new();
        self.in_handshake = Bytes::new();
        self.in_app = Bytes::new();
        self.offered_early = false;
        self.early = None;
        self.start();
    }

    /// Feeds contiguous crypto bytes received at `level`. They are copied
    /// into the level's own buffer: the message bodies cut from it never
    /// keep the caller's datagram alive.
    pub fn read_crypto(&mut self, level: Level, data: &[u8]) -> Result<Vec<TlsEvent>, TlsError> {
        // Post-handshake messages (NewSessionTicket) flow server → client
        // only.
        if level == Level::Application && self.role == Role::Server {
            return Err(TlsError::UnexpectedMessage("crypto at 1-RTT to server"));
        }
        let buf = self.in_buf(level);
        *buf = if buf.is_empty() {
            Bytes::copy_from_slice(data)
        } else {
            // Behind the partial message still waiting for these bytes.
            Bytes::build(buf.len() + data.len(), |mut joined| {
                joined.put_slice(buf);
                joined.put_slice(data);
            })
        };
        let mut events = Vec::new();
        while self.advance(level, &mut events)? {}
        // Read to the end: let go of the storage instead of an empty view.
        let buf = self.in_buf(level);
        if buf.is_empty() {
            *buf = Bytes::new();
        }
        Ok(events)
    }

    fn in_buf(&mut self, level: Level) -> &mut Bytes {
        match level {
            Level::Initial => &mut self.in_initial,
            Level::Handshake => &mut self.in_handshake,
            Level::Application => &mut self.in_app,
        }
    }

    /// Handles the next message buffered at `level`; `false` when no
    /// complete one is.
    fn advance(&mut self, level: Level, events: &mut Vec<TlsEvent>) -> Result<bool, TlsError> {
        let buf = self.in_buf(level);
        let arrived = buf.clone();
        let Some(msg) = HandshakeMessage::decode(buf)? else {
            return Ok(false);
        };
        // The message as it sat on the wire, which is what the
        // transcript hashes.
        let wire = arrived.slice(..arrived.len() - buf.len());
        match self.state {
            StateMachine::Client(state) => {
                let next = self.client_handle(state, &msg, &wire, level, events)?;
                self.state = StateMachine::Client(next);
            }
            StateMachine::Server(state) => {
                let next = self.server_handle(state, &msg, &wire, level, events)?;
                self.state = StateMachine::Server(next);
            }
        }
        Ok(true)
    }

    fn client_handle(
        &mut self,
        state: ClientState,
        msg: &HandshakeMessage,
        wire: &[u8],
        level: Level,
        events: &mut Vec<TlsEvent>,
    ) -> Result<ClientState, TlsError> {
        Ok(match (state, msg.ty, level) {
            (ClientState::WaitServerHello, HandshakeType::ServerHello, Level::Initial) => {
                self.transcript.update(wire);
                let th = self.transcript.clone().finalize();
                self.handshake_keys = Some(handshake_keys(&th));
                events.push(TlsEvent::KeysReady(Level::Handshake));
                if self.client_cfg.ticket.is_some() {
                    match msg.resumption_outcome() {
                        Some((true, early_accepted)) => {
                            self.resumed = true;
                            events.push(TlsEvent::ResumptionAccepted);
                            if self.offered_early {
                                self.early_data_accepted = Some(early_accepted);
                                if early_accepted {
                                    events.push(TlsEvent::EarlyDataAccepted);
                                } else {
                                    self.early = None;
                                    events.push(TlsEvent::EarlyDataRejected);
                                }
                            }
                        }
                        _ => {
                            // PSK rejected (or a legacy SH): full handshake
                            // fallback; early data dies with the PSK.
                            if self.offered_early {
                                self.early_data_accepted = Some(false);
                                self.early = None;
                                events.push(TlsEvent::EarlyDataRejected);
                            }
                        }
                    }
                }
                ClientState::WaitEncryptedExtensions
            }
            (
                ClientState::WaitEncryptedExtensions,
                HandshakeType::EncryptedExtensions,
                Level::Handshake,
            ) => {
                self.transcript.update(wire);
                if self.resumed {
                    // Abbreviated flight: the server Finished comes next.
                    ClientState::WaitFinished
                } else {
                    ClientState::WaitCertificate
                }
            }
            (ClientState::WaitCertificate, HandshakeType::Certificate, Level::Handshake) => {
                self.transcript.update(wire);
                ClientState::WaitCertificateVerify
            }
            (
                ClientState::WaitCertificateVerify,
                HandshakeType::CertificateVerify,
                Level::Handshake,
            ) => {
                self.transcript.update(wire);
                ClientState::WaitFinished
            }
            (ClientState::WaitFinished, HandshakeType::Finished, Level::Handshake) => {
                self.transcript.update(wire);
                let th = self.transcript.clone().finalize();
                self.application_keys = Some(application_keys(&th));
                events.push(TlsEvent::KeysReady(Level::Application));
                // Client Finished: verify-data = transcript hash.
                let fin = HandshakeMessage::finished(th);
                queue(&mut self.out_handshake, &mut self.transcript, &fin);
                // The resumption secret covers the client Finished too.
                let th_res = self.transcript.clone().finalize();
                self.res_secret = Some(resumption_secret(&th_res));
                self.complete = true;
                events.push(TlsEvent::HandshakeComplete);
                ClientState::Complete
            }
            (ClientState::Complete, HandshakeType::NewSessionTicket, Level::Application) => {
                let (lifetime, early_allowed, ticket) = msg
                    .parse_new_session_ticket()
                    .ok_or(TlsError::UnexpectedMessage("malformed NewSessionTicket"))?;
                let secret = self
                    .res_secret
                    .expect("complete handshake has a resumption secret");
                events.push(TlsEvent::TicketIssued(SessionTicket {
                    ticket,
                    secret,
                    lifetime_secs: lifetime,
                    early_data_allowed: early_allowed,
                }));
                ClientState::Complete
            }
            (_, got, _) => {
                return Err(TlsError::UnexpectedMessage(match got {
                    HandshakeType::ClientHello => "ClientHello at client",
                    _ => "out-of-order handshake message",
                }))
            }
        })
    }

    fn server_handle(
        &mut self,
        state: ServerState,
        msg: &HandshakeMessage,
        wire: &[u8],
        level: Level,
        events: &mut Vec<TlsEvent>,
    ) -> Result<ServerState, TlsError> {
        Ok(match (state, msg.ty, level) {
            (ServerState::WaitClientHello, HandshakeType::ClientHello, Level::Initial) => {
                self.transcript.update(wire);
                let offer = msg.resumption_offer();
                let secret = offer.as_ref().and_then(|(ticket, _)| {
                    self.server_cfg
                        .resumption
                        .accept_resumption
                        .then(|| {
                            // The minting key first, then the rotation
                            // overlap window; a ticket sealed under a
                            // retired key opens nowhere and falls back to
                            // the full handshake below.
                            open_ticket(self.server_cfg.ticket_key, ticket).or_else(|| {
                                self.server_cfg
                                    .accept_ticket_keys
                                    .iter()
                                    .find_map(|key| open_ticket(*key, ticket))
                            })
                        })
                        .flatten()
                });
                if let Some(secret) = secret {
                    // Abbreviated handshake: no certificate, no Δt.
                    self.resumed = true;
                    events.push(TlsEvent::ResumptionAccepted);
                    let early_offered = offer.map(|(_, e)| e).unwrap_or(false);
                    let mut early_accepted = false;
                    if early_offered {
                        early_accepted = self.server_cfg.resumption.accept_early_data;
                        self.early_data_accepted = Some(early_accepted);
                        if early_accepted {
                            self.early = Some(early_keys(&secret));
                            events.push(TlsEvent::EarlyDataAccepted);
                        } else {
                            events.push(TlsEvent::EarlyDataRejected);
                        }
                    }
                    self.emit_resumed_flight(early_accepted, events);
                    ServerState::WaitClientFinished
                } else {
                    // Full handshake (offer absent or rejected). A
                    // rejected PSK kills its early-data offer with it —
                    // record that symmetrically with the client side.
                    if let Some((_, true)) = offer {
                        self.early_data_accepted = Some(false);
                        events.push(TlsEvent::EarlyDataRejected);
                    }
                    if self.server_cfg.cert_preprovisioned {
                        self.emit_server_flight(events);
                        ServerState::WaitClientFinished
                    } else {
                        events.push(TlsEvent::NeedCertificate);
                        ServerState::WaitCertProvision
                    }
                }
            }
            (ServerState::WaitClientFinished, HandshakeType::Finished, Level::Handshake) => {
                // Verify-data check: must equal our transcript hash at the
                // point the client computed it (before its own Finished).
                self.transcript.update(wire);
                let th_res = self.transcript.clone().finalize();
                let secret = resumption_secret(&th_res);
                self.res_secret = Some(secret);
                if self.server_cfg.resumption.issue_tickets {
                    let ticket = mint_ticket(self.server_cfg.ticket_key, &secret);
                    let nst = HandshakeMessage::new_session_ticket(
                        self.server_cfg.resumption.ticket_lifetime_secs,
                        self.server_cfg.resumption.advertise_early_data,
                        &ticket,
                    );
                    self.out_app.reserve(nst.wire_len());
                    nst.encode(&mut self.out_app);
                }
                self.complete = true;
                events.push(TlsEvent::HandshakeComplete);
                ServerState::Complete
            }
            (_, _, _) => return Err(TlsError::UnexpectedMessage("out-of-order at server")),
        })
    }

    /// Emits SH + EE + (CERT + CV for full handshakes) + FIN, deriving
    /// handshake and application keys along the way.
    fn flight_core(&mut self, sh: HandshakeMessage, with_cert: bool, events: &mut Vec<TlsEvent>) {
        // ServerHello at Initial level.
        queue(&mut self.out_initial, &mut self.transcript, &sh);
        let th = self.transcript.clone().finalize();
        self.handshake_keys = Some(handshake_keys(&th));
        events.push(TlsEvent::KeysReady(Level::Handshake));

        // EE (+ CERT, CV) and FIN at Handshake level, under one
        // reservation for the level's whole flight.
        let ee = HandshakeMessage::encrypted_extensions();
        let cert = with_cert.then(|| {
            let cert = HandshakeMessage::certificate(self.server_cfg.cert_len);
            [cert, HandshakeMessage::certificate_verify()]
        });
        let middle = || std::iter::once(&ee).chain(cert.iter().flatten());
        let flight: usize = middle().map(HandshakeMessage::wire_len).sum();
        self.out_handshake.reserve(flight + FINISHED_LEN);
        for m in middle() {
            queue(&mut self.out_handshake, &mut self.transcript, m);
        }
        let th_fin = self.transcript.clone().finalize();
        let fin = HandshakeMessage::finished(th_fin);
        queue(&mut self.out_handshake, &mut self.transcript, &fin);
        // Server can send 1-RTT data once its Finished is queued.
        let th_app = self.transcript.clone().finalize();
        self.application_keys = Some(application_keys(&th_app));
        events.push(TlsEvent::KeysReady(Level::Application));
    }

    fn emit_server_flight(&mut self, events: &mut Vec<TlsEvent>) {
        let sh = HandshakeMessage::server_hello(self.server_cfg.random);
        self.flight_core(sh, true, events);
    }

    fn emit_resumed_flight(&mut self, early_accepted: bool, events: &mut Vec<TlsEvent>) {
        let sh = HandshakeMessage::server_hello_resumed(self.server_cfg.random, early_accepted);
        self.flight_core(sh, false, events);
    }

    /// Server only: the certificate arrived from the store. Produces the
    /// ServerHello flight. Returns the resulting events.
    pub fn provide_certificate(&mut self) -> Vec<TlsEvent> {
        let mut events = Vec::new();
        if let StateMachine::Server(ServerState::WaitCertProvision) = self.state {
            self.emit_server_flight(&mut events);
            self.state = StateMachine::Server(ServerState::WaitClientFinished);
        }
        events
    }

    /// Drains pending outgoing crypto bytes for `level`.
    pub fn take_output(&mut self, level: Level) -> Option<Bytes> {
        let buf = match level {
            Level::Initial => &mut self.out_initial,
            Level::Handshake => &mut self.out_handshake,
            Level::Application => &mut self.out_app,
        };
        if buf.is_empty() {
            None
        } else {
            Some(Bytes::from(std::mem::take(buf)))
        }
    }

    /// Peeks at the number of pending output bytes for `level`.
    pub fn pending_output(&self, level: Level) -> usize {
        match level {
            Level::Initial => self.out_initial.len(),
            Level::Handshake => self.out_handshake.len(),
            Level::Application => self.out_app.len(),
        }
    }

    /// Keys for a level once available.
    pub fn keys(&self, level: Level) -> Option<&LevelKeys> {
        match level {
            Level::Initial => None, // derived from DCID by the QUIC layer
            Level::Handshake => self.handshake_keys.as_ref(),
            Level::Application => self.application_keys.as_ref(),
        }
    }

    /// 0-RTT early-data keys, when available (client: ticket offered
    /// with early data; server: valid ticket + early data accepted).
    pub fn early_keys(&self) -> Option<&LevelKeys> {
        self.early.as_ref()
    }

    /// Whether this handshake ran the abbreviated (PSK) path.
    pub fn is_resumed(&self) -> bool {
        self.resumed
    }

    /// Outcome of the 0-RTT offer: `None` until decided (or when early
    /// data was never offered).
    pub fn early_data_accepted(&self) -> Option<bool> {
        self.early_data_accepted
    }

    /// Whether the handshake is complete at this endpoint.
    pub fn is_complete(&self) -> bool {
        self.complete
    }
}

#[cfg(test)]
mod tests;
