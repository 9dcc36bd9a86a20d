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
mod tests {
    use super::*;
    use crate::messages::{CERT_LARGE, CERT_SMALL, NEW_SESSION_TICKET_LEN};

    /// Shuttles crypto bytes between two sessions until quiescent,
    /// collecting both sides' events.
    fn pump(client: &mut TlsSession, server: &mut TlsSession) -> (Vec<TlsEvent>, Vec<TlsEvent>) {
        let mut cev = Vec::new();
        let mut sev = Vec::new();
        loop {
            let mut progress = false;
            for lvl in [Level::Initial, Level::Handshake, Level::Application] {
                if let Some(out) = client.take_output(lvl) {
                    sev.extend(server.read_crypto(lvl, &out).unwrap());
                    progress = true;
                }
                if let Some(out) = server.take_output(lvl) {
                    cev.extend(client.read_crypto(lvl, &out).unwrap());
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        (cev, sev)
    }

    /// Runs a full in-memory handshake, shuttling crypto bytes directly.
    fn run_handshake(cert_len: usize, preprovisioned: bool) -> (TlsSession, TlsSession) {
        let mut client = TlsSession::client(ClientConfig::full());
        let mut server = TlsSession::server(ServerConfig {
            cert_len,
            cert_preprovisioned: preprovisioned,
            ..ServerConfig::default()
        });
        client.start();
        let ch = client.take_output(Level::Initial).unwrap();
        let ev = server.read_crypto(Level::Initial, &ch).unwrap();
        if !preprovisioned {
            assert_eq!(ev, vec![TlsEvent::NeedCertificate]);
            let ev2 = server.provide_certificate();
            assert!(ev2.contains(&TlsEvent::KeysReady(Level::Handshake)));
            assert!(ev2.contains(&TlsEvent::KeysReady(Level::Application)));
        } else {
            assert!(ev.contains(&TlsEvent::KeysReady(Level::Handshake)));
        }
        let sh = server.take_output(Level::Initial).unwrap();
        let flight = server.take_output(Level::Handshake).unwrap();
        let ev = client.read_crypto(Level::Initial, &sh).unwrap();
        assert_eq!(ev, vec![TlsEvent::KeysReady(Level::Handshake)]);
        let ev = client.read_crypto(Level::Handshake, &flight).unwrap();
        assert!(ev.contains(&TlsEvent::KeysReady(Level::Application)));
        assert!(ev.contains(&TlsEvent::HandshakeComplete));
        let client_fin = client.take_output(Level::Handshake).unwrap();
        let ev = server.read_crypto(Level::Handshake, &client_fin).unwrap();
        assert!(ev.contains(&TlsEvent::HandshakeComplete));
        (client, server)
    }

    /// Runs a ticket-issuing full handshake and returns the minted
    /// ticket plus the server config that issued it.
    fn prime_ticket(resumption: ServerResumption) -> (SessionTicket, ServerConfig) {
        let server_cfg = ServerConfig {
            cert_preprovisioned: true,
            resumption,
            ..ServerConfig::default()
        };
        let mut client = TlsSession::client(ClientConfig::full());
        let mut server = TlsSession::server(server_cfg.clone());
        client.start();
        let (cev, _) = pump(&mut client, &mut server);
        let ticket = cev
            .into_iter()
            .find_map(|e| match e {
                TlsEvent::TicketIssued(t) => Some(t),
                _ => None,
            })
            .expect("ticket issued");
        (ticket, server_cfg)
    }

    #[test]
    fn full_handshake_small_cert() {
        let (client, server) = run_handshake(CERT_SMALL, false);
        assert!(client.is_complete());
        assert!(server.is_complete());
        assert!(!client.is_resumed() && !server.is_resumed());
    }

    #[test]
    fn full_handshake_large_cert() {
        let (client, server) = run_handshake(CERT_LARGE, false);
        assert!(client.is_complete());
        assert!(server.is_complete());
    }

    #[test]
    fn preprovisioned_cert_skips_need_certificate() {
        let (client, server) = run_handshake(CERT_SMALL, true);
        assert!(client.is_complete());
        assert!(server.is_complete());
    }

    #[test]
    fn both_sides_derive_identical_keys() {
        let (client, server) = run_handshake(CERT_SMALL, false);
        assert_eq!(client.keys(Level::Handshake), server.keys(Level::Handshake));
        assert_eq!(
            client.keys(Level::Application),
            server.keys(Level::Application)
        );
    }

    #[test]
    fn server_flight_size_scales_with_cert() {
        let mut client = TlsSession::client(ClientConfig::full());
        client.start();
        let ch = client.take_output(Level::Initial).unwrap();

        let mut small = TlsSession::server(ServerConfig {
            cert_len: CERT_SMALL,
            cert_preprovisioned: true,
            ..ServerConfig::default()
        });
        small.read_crypto(Level::Initial, &ch).unwrap();
        let small_len = small.pending_output(Level::Handshake);

        let mut large = TlsSession::server(ServerConfig {
            cert_len: CERT_LARGE,
            cert_preprovisioned: true,
            ..ServerConfig::default()
        });
        large.read_crypto(Level::Initial, &ch).unwrap();
        let large_len = large.pending_output(Level::Handshake);

        assert_eq!(large_len - small_len, CERT_LARGE - CERT_SMALL);
    }

    #[test]
    fn fragmented_delivery_still_completes() {
        let mut client = TlsSession::client(ClientConfig::full());
        let mut server = TlsSession::server(ServerConfig {
            cert_preprovisioned: true,
            ..ServerConfig::default()
        });
        client.start();
        let ch = client.take_output(Level::Initial).unwrap();
        // Deliver CH one byte at a time.
        for b in ch.iter() {
            server.read_crypto(Level::Initial, &[*b]).unwrap();
        }
        let sh = server.take_output(Level::Initial).unwrap();
        let flight = server.take_output(Level::Handshake).unwrap();
        client.read_crypto(Level::Initial, &sh).unwrap();
        // Deliver the handshake flight in 100-byte chunks.
        for chunk in flight.chunks(100) {
            client.read_crypto(Level::Handshake, chunk).unwrap();
        }
        assert!(client.is_complete());
    }

    #[test]
    fn out_of_order_message_rejected() {
        let mut client = TlsSession::client(ClientConfig::full());
        client.start();
        // Server Finished before ServerHello is a protocol violation.
        let fin = HandshakeMessage::finished([0; 32]);
        let mut enc = Vec::new();
        fin.encode(&mut enc);
        assert!(client.read_crypto(Level::Initial, &enc).is_err());
    }

    #[test]
    fn retry_resets_and_requeues_client_hello() {
        let mut client = TlsSession::client(ClientConfig::full());
        client.start();
        let ch1 = client.take_output(Level::Initial).unwrap();
        client.reset_for_retry();
        let ch2 = client.take_output(Level::Initial).unwrap();
        assert_eq!(ch1, ch2);
    }

    #[test]
    fn provide_certificate_is_noop_before_client_hello() {
        let mut server = TlsSession::server(ServerConfig::default());
        assert!(server.provide_certificate().is_empty());
        assert_eq!(server.pending_output(Level::Initial), 0);
    }

    // ------------------------------------------------------------------
    // Resumption
    // ------------------------------------------------------------------

    #[test]
    fn ticket_issued_after_full_handshake() {
        let (ticket, _) = prime_ticket(ServerResumption::accepting(7200));
        assert_eq!(ticket.lifetime_secs, 7200);
        assert!(ticket.early_data_allowed);
        // The NST rides at the Application level, sized per the constant.
        let nst = HandshakeMessage::new_session_ticket(7200, true, &ticket.ticket);
        assert_eq!(nst.wire_len(), NEW_SESSION_TICKET_LEN);
    }

    #[test]
    fn no_ticket_when_issuance_disabled() {
        let mut client = TlsSession::client(ClientConfig::full());
        let mut server = TlsSession::server(ServerConfig {
            cert_preprovisioned: true,
            ..ServerConfig::default()
        });
        client.start();
        let (cev, _) = pump(&mut client, &mut server);
        assert!(client.is_complete());
        assert!(!cev.iter().any(|e| matches!(e, TlsEvent::TicketIssued(_))));
        assert_eq!(server.pending_output(Level::Application), 0);
    }

    #[test]
    fn resumed_handshake_skips_certificate_and_need_certificate() {
        let (ticket, server_cfg) = prime_ticket(ServerResumption::accepting(7200));
        // Resumed connection against a *non-preprovisioned* server: a full
        // handshake would raise NeedCertificate; the resumed one must not.
        let mut client = TlsSession::client(ClientConfig {
            ticket: Some(ticket),
            ..ClientConfig::full()
        });
        let mut server = TlsSession::server(ServerConfig {
            cert_preprovisioned: false,
            ..server_cfg
        });
        client.start();
        let (cev, sev) = pump(&mut client, &mut server);
        assert!(client.is_complete() && server.is_complete());
        assert!(client.is_resumed() && server.is_resumed());
        assert!(!sev.iter().any(|e| matches!(e, TlsEvent::NeedCertificate)));
        assert!(cev.contains(&TlsEvent::ResumptionAccepted));
        assert_eq!(
            client.keys(Level::Application),
            server.keys(Level::Application)
        );
    }

    #[test]
    fn overlap_key_resumes_retired_key_falls_back() {
        // A ticket minted under the *previous* epoch's key: accepted while
        // that key sits in the overlap window, full handshake once the
        // window drops it (the rotating-server behaviour the testbed's
        // key schedule drives).
        let (ticket, server_cfg) = prime_ticket(ServerResumption::accepting(7200));
        let old_key = server_cfg.ticket_key;
        let rotated = |accept: Vec<u64>| ServerConfig {
            cert_preprovisioned: true,
            ticket_key: old_key ^ 0xD00D,
            accept_ticket_keys: accept,
            ..server_cfg.clone()
        };
        let run = |cfg: ServerConfig| {
            let mut client = TlsSession::client(ClientConfig {
                ticket: Some(ticket.clone()),
                ..ClientConfig::full()
            });
            let mut server = TlsSession::server(cfg);
            client.start();
            pump(&mut client, &mut server);
            server.is_resumed()
        };
        assert!(run(rotated(vec![old_key])), "overlap window resumes");
        assert!(!run(rotated(vec![old_key ^ 1])), "retired key falls back");
        assert!(!run(rotated(Vec::new())), "empty window falls back");
    }

    #[test]
    fn resumed_flight_is_much_smaller_than_full() {
        let (ticket, server_cfg) = prime_ticket(ServerResumption::accepting(7200));
        let flight_len = |ticket: Option<SessionTicket>| {
            let mut client = TlsSession::client(ClientConfig {
                ticket,
                ..ClientConfig::full()
            });
            let mut server = TlsSession::server(ServerConfig {
                cert_preprovisioned: true,
                ..server_cfg.clone()
            });
            client.start();
            let ch = client.take_output(Level::Initial).unwrap();
            server.read_crypto(Level::Initial, &ch).unwrap();
            server.pending_output(Level::Handshake)
        };
        let full = flight_len(None);
        let resumed = flight_len(Some(ticket));
        // The certificate + CertificateVerify flight disappears.
        assert_eq!(full - resumed, CERT_SMALL + 268);
    }

    #[test]
    fn early_data_keys_agree_when_accepted() {
        let (ticket, server_cfg) = prime_ticket(ServerResumption::accepting(7200));
        let mut client = TlsSession::client(ClientConfig {
            ticket: Some(ticket),
            early_data: true,
            ..ClientConfig::full()
        });
        let mut server = TlsSession::server(server_cfg);
        client.start();
        // Client early keys exist before any server byte.
        let client_early = client.early_keys().cloned().expect("client early keys");
        let (cev, sev) = pump(&mut client, &mut server);
        assert!(cev.contains(&TlsEvent::EarlyDataAccepted));
        assert!(sev.contains(&TlsEvent::EarlyDataAccepted));
        assert_eq!(client.early_data_accepted(), Some(true));
        assert_eq!(server.early_data_accepted(), Some(true));
        assert_eq!(server.early_keys(), Some(&client_early));
    }

    #[test]
    fn early_data_rejected_by_policy() {
        let (ticket, mut server_cfg) = prime_ticket(ServerResumption::accepting(7200));
        server_cfg.resumption = ServerResumption::rejecting_early_data(7200);
        let mut client = TlsSession::client(ClientConfig {
            ticket: Some(ticket),
            early_data: true,
            ..ClientConfig::full()
        });
        let mut server = TlsSession::server(server_cfg);
        client.start();
        let (cev, sev) = pump(&mut client, &mut server);
        assert!(client.is_complete() && client.is_resumed());
        assert!(cev.contains(&TlsEvent::EarlyDataRejected));
        assert!(sev.contains(&TlsEvent::EarlyDataRejected));
        assert_eq!(client.early_data_accepted(), Some(false));
        assert!(server.early_keys().is_none());
    }

    #[test]
    fn no_early_offer_under_a_ticket_without_early_support() {
        // RFC 8446 §4.2.10: the client must not offer early data under a
        // ticket whose issuer did not advertise it.
        let (ticket, server_cfg) = prime_ticket(ServerResumption {
            advertise_early_data: false,
            ..ServerResumption::accepting(7200)
        });
        assert!(!ticket.early_data_allowed);
        let mut client = TlsSession::client(ClientConfig {
            ticket: Some(ticket),
            early_data: true,
            ..ClientConfig::full()
        });
        client.start();
        assert!(client.early_keys().is_none(), "no offer ⇒ no early keys");
        let mut server = TlsSession::server(server_cfg);
        let (cev, sev) = pump(&mut client, &mut server);
        assert!(client.is_resumed() && server.is_resumed());
        assert_eq!(client.early_data_accepted(), None, "never offered");
        assert_eq!(server.early_data_accepted(), None);
        assert!(!cev
            .iter()
            .any(|e| matches!(e, TlsEvent::EarlyDataAccepted | TlsEvent::EarlyDataRejected)));
        let _ = sev;
    }

    #[test]
    fn server_records_early_reject_on_psk_fallback() {
        // A corrupt ticket kills the PSK *and* its early-data offer; the
        // server must record the rejection symmetrically with the client.
        let (mut ticket, server_cfg) = prime_ticket(ServerResumption::accepting(7200));
        ticket.ticket[5] ^= 0x80;
        let mut client = TlsSession::client(ClientConfig {
            ticket: Some(ticket),
            early_data: true,
            ..ClientConfig::full()
        });
        let mut server = TlsSession::server(ServerConfig {
            cert_preprovisioned: true,
            ..server_cfg
        });
        client.start();
        let (_, sev) = pump(&mut client, &mut server);
        assert!(!server.is_resumed());
        assert_eq!(server.early_data_accepted(), Some(false));
        assert!(sev.contains(&TlsEvent::EarlyDataRejected));
    }

    #[test]
    fn invalid_ticket_falls_back_to_full_handshake() {
        let (mut ticket, server_cfg) = prime_ticket(ServerResumption::accepting(7200));
        ticket.ticket[0] ^= 0xFF; // corrupt: fails the authenticity tag
        let mut client = TlsSession::client(ClientConfig {
            ticket: Some(ticket),
            early_data: true,
            ..ClientConfig::full()
        });
        let mut server = TlsSession::server(ServerConfig {
            cert_preprovisioned: true,
            ..server_cfg
        });
        client.start();
        let (cev, _) = pump(&mut client, &mut server);
        assert!(client.is_complete() && server.is_complete());
        assert!(!client.is_resumed() && !server.is_resumed());
        assert!(cev.contains(&TlsEvent::EarlyDataRejected));
        assert_eq!(client.early_data_accepted(), Some(false));
    }

    #[test]
    fn ticket_minting_is_a_pure_function_of_the_handshake() {
        let (a, _) = prime_ticket(ServerResumption::accepting(3600));
        let (b, _) = prime_ticket(ServerResumption::accepting(3600));
        assert_eq!(a, b, "same handshake bytes ⇒ same ticket");
    }

    #[test]
    fn resumed_handshake_reissues_tickets() {
        let (ticket, server_cfg) = prime_ticket(ServerResumption::accepting(7200));
        let mut client = TlsSession::client(ClientConfig {
            ticket: Some(ticket),
            ..ClientConfig::full()
        });
        let mut server = TlsSession::server(server_cfg);
        client.start();
        let (cev, _) = pump(&mut client, &mut server);
        let fresh: Vec<_> = cev
            .iter()
            .filter(|e| matches!(e, TlsEvent::TicketIssued(_)))
            .collect();
        assert_eq!(fresh.len(), 1, "resumed handshakes mint fresh tickets");
    }
}
