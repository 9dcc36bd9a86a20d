//! The TLS handshake state machine (sans-IO).
//!
//! The QUIC connection feeds contiguous crypto-stream bytes per encryption
//! level into [`TlsSession::read_crypto`] and drains flight bytes with
//! [`TlsSession::take_output`]. Each flight is built once, at its final
//! length, with every message written in place and hashed into the
//! transcript as it is; received bytes are read where they arrived. The
//! server pauses after the ClientHello until
//! [`TlsSession::provide_certificate`] is called — this is the hook
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

use std::sync::Arc;

use bytes::{BufMut, Bytes};

use crate::keys::{
    application_keys, early_keys, handshake_keys, resumption_secret, Level, LevelKeys,
};
use crate::mac::{Mac, DIGEST_LEN};
use crate::messages::{
    HandshakeMessage, HandshakeType, Outgoing, DEFAULT_CLIENT_HELLO_LEN, FINISHED_LEN,
    NEW_SESSION_TICKET_LEN,
};
use crate::resumption::{mint_ticket, open_ticket, ServerResumption, SessionTicket, TICKET_KEY};
use crate::TlsError;

/// Endpoint role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Connection initiator.
    Client,
    /// Connection responder.
    Server,
}

/// The 32-byte client random every ClientHello carries.
const CLIENT_RANDOM: [u8; 32] = [0x11; 32];
/// The 32-byte server random every ServerHello carries.
const SERVER_RANDOM: [u8; 32] = [0x22; 32];

/// Client-side handshake parameters.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Session ticket to offer for an abbreviated handshake, if any.
    pub ticket: Option<SessionTicket>,
    /// Offer 0-RTT early data along with the ticket (requires `ticket`).
    pub early_data: bool,
}

impl ClientConfig {
    /// The full-handshake configuration (no ticket, no early data).
    pub fn full() -> Self {
        ClientConfig {
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
    /// Resumption policy: ticket issuance, PSK acceptance, 0-RTT.
    pub resumption: ServerResumption,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cert_len: crate::messages::CERT_SMALL,
            resumption: ServerResumption::disabled(),
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

/// The events one call surfaces, in order, as a list that derefs to
/// `[TlsEvent]`. Inline up to four, the most one handshake message
/// yields (a server accepting a ticket with early data); past that —
/// only a peer's burst of NewSessionTickets read in one call — the
/// list moves to the heap.
pub struct TlsEvents {
    /// `inline[..len]` are the events while `heap` is empty.
    len: usize,
    inline: [TlsEvent; TlsEvents::INLINE],
    heap: Vec<TlsEvent>,
}

impl TlsEvents {
    const INLINE: usize = 4;
    /// What an unused inline slot holds.
    const VACANT: TlsEvent = TlsEvent::HandshakeComplete;

    fn new() -> Self {
        TlsEvents {
            len: 0,
            inline: [Self::VACANT; Self::INLINE],
            heap: Vec::new(),
        }
    }

    fn push(&mut self, ev: TlsEvent) {
        if self.heap.is_empty() && self.len < Self::INLINE {
            self.inline[self.len] = ev;
            self.len += 1;
            return;
        }
        if self.heap.is_empty() {
            let inline = self.inline[..self.len].iter_mut();
            self.heap = inline.map(|e| std::mem::replace(e, Self::VACANT)).collect();
            self.len = 0;
        }
        self.heap.push(ev);
    }
}

impl std::ops::Deref for TlsEvents {
    type Target = [TlsEvent];
    fn deref(&self) -> &[TlsEvent] {
        if self.heap.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }
}

impl std::fmt::Debug for TlsEvents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl IntoIterator for TlsEvents {
    type Item = TlsEvent;
    type IntoIter = std::iter::Chain<
        std::iter::Take<std::array::IntoIter<TlsEvent, { TlsEvents::INLINE }>>,
        std::vec::IntoIter<TlsEvent>,
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.inline.into_iter().take(self.len).chain(self.heap)
    }
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

/// The role a session plays: that role's configuration and where its
/// handshake stands, and nothing of the other role's.
enum Side {
    Client(ClientConfig, ClientState),
    Server(ServerConfig, ServerState),
}

/// A sans-IO TLS 1.3 handshake session.
pub struct TlsSession {
    side: Side,
    /// The running transcript hash, under the all-zero key.
    transcript: Mac,
    /// Pending output per level (Initial, Handshake, Application): a
    /// flight's whole storage, which `take_output` hands over as it is.
    out: [Option<Arc<[u8]>>; 3],
    /// Received-but-unparsed input per level: at most one partial
    /// message, empty (and holding no storage) between messages.
    input: [Bytes; 3],
    handshake_keys: Option<LevelKeys>,
    application_keys: Option<LevelKeys>,
    /// 0-RTT early-data keys (client: from the offered ticket; server:
    /// from the validated ticket when early data is accepted).
    early: Option<LevelKeys>,
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

/// Indices of the per-level buffers.
const INITIAL: usize = Level::Initial as usize;
const HANDSHAKE: usize = Level::Handshake as usize;
const APPLICATION: usize = Level::Application as usize;

/// Queues the flight of `len` bytes that `write` fills in place: one
/// allocation, at the flight's final length. A level sends one flight
/// per handshake step, and the connection takes each before the next.
fn send_flight(out: &mut Option<Arc<[u8]>>, len: usize, write: impl FnOnce(&mut [u8])) {
    assert!(out.is_none(), "a flight is taken before the next is queued");
    *out = Some(Bytes::build(len, write).into());
}

/// Writes `msg` at the front of `buf`, advancing it, and hashes the bytes
/// just written into the transcript.
fn put(buf: &mut &mut [u8], transcript: &mut Mac, msg: Outgoing) {
    let (written, rest) = std::mem::take(buf).split_at_mut(msg.wire_len());
    msg.encode(&mut &mut *written);
    transcript.update(written);
    *buf = rest;
}

/// Queues `msg` as a one-message flight, hashing it.
fn queue(out: &mut Option<Arc<[u8]>>, transcript: &mut Mac, msg: Outgoing) {
    send_flight(out, msg.wire_len(), |mut buf| {
        put(&mut buf, transcript, msg)
    });
}

impl TlsSession {
    /// Creates a client session. Call [`TlsSession::start`] to queue the
    /// ClientHello.
    pub fn client(cfg: ClientConfig) -> Self {
        Self::new(Side::Client(cfg, ClientState::Start))
    }

    /// Creates a server session.
    pub fn server(cfg: ServerConfig) -> Self {
        Self::new(Side::Server(cfg, ServerState::WaitClientHello))
    }

    fn new(side: Side) -> Self {
        TlsSession {
            side,
            transcript: Mac::new(&[0; DIGEST_LEN]),
            out: Default::default(),
            input: Default::default(),
            handshake_keys: None,
            application_keys: None,
            early: None,
            resumed: false,
            offered_early: false,
            early_data_accepted: None,
            res_secret: None,
        }
    }

    /// Endpoint role.
    pub fn role(&self) -> Role {
        match self.side {
            Side::Client(..) => Role::Client,
            Side::Server(..) => Role::Server,
        }
    }

    /// Queues the ClientHello (client only). Idempotent. A configured
    /// session ticket turns the CH into a resumption offer; with
    /// `early_data` the 0-RTT keys become available immediately.
    pub fn start(&mut self) {
        if let Side::Client(cfg, state @ ClientState::Start) = &mut self.side {
            let ticket = cfg.ticket.as_ref().map(|ticket| {
                // RFC 8446 §4.2.10: early data may only be offered
                // under a ticket whose issuer advertised support.
                let offer_early = cfg.early_data && ticket.early_data_allowed;
                if offer_early {
                    self.offered_early = true;
                    self.early = Some(early_keys(&ticket.secret));
                }
                (&ticket.ticket, offer_early)
            });
            let ch = Outgoing::ClientHello {
                random: CLIENT_RANDOM,
                total_len: DEFAULT_CLIENT_HELLO_LEN,
                ticket,
            };
            queue(&mut self.out[INITIAL], &mut self.transcript, ch);
            *state = ClientState::WaitServerHello;
        }
    }

    /// Re-queues the ClientHello after a Retry packet (RFC 9000 §17.2.5):
    /// the transcript restarts and the CH is resent with the server token
    /// carried at the QUIC layer.
    pub fn reset_for_retry(&mut self) {
        let Side::Client(_, state) = &mut self.side else {
            panic!("only clients process Retry");
        };
        *state = ClientState::Start;
        self.transcript = Mac::new(&[0; DIGEST_LEN]);
        self.out = Default::default();
        self.input = Default::default();
        self.offered_early = false;
        self.early = None;
        self.start();
    }

    /// Feeds contiguous crypto bytes received at `level`. They are read
    /// where they are — a view of the caller's storage, kept only while a
    /// message split across calls waits for its rest, which is joined
    /// with it into storage of its own — and no parsed message outlives
    /// the call.
    pub fn read_crypto(&mut self, level: Level, data: &Bytes) -> Result<TlsEvents, TlsError> {
        // Post-handshake messages (NewSessionTicket) flow server → client
        // only.
        if level == Level::Application && self.role() == Role::Server {
            return Err(TlsError::UnexpectedMessage("crypto at 1-RTT to server"));
        }
        let buf = &mut self.input[level as usize];
        *buf = if buf.is_empty() {
            data.clone()
        } else {
            // Behind the partial message still waiting for these bytes.
            Bytes::build(buf.len() + data.len(), |mut joined| {
                joined.put_slice(buf);
                joined.put_slice(data);
            })
        };
        let mut events = TlsEvents::new();
        while self.advance(level, &mut events)? {}
        // Read to the end: let go of the storage instead of an empty view.
        let buf = &mut self.input[level as usize];
        if buf.is_empty() {
            *buf = Bytes::new();
        }
        Ok(events)
    }

    /// Handles the next message buffered at `level`; `false` when no
    /// complete one is.
    fn advance(&mut self, level: Level, events: &mut TlsEvents) -> Result<bool, TlsError> {
        let buf = &mut self.input[level as usize];
        let arrived = buf.clone();
        let Some(msg) = HandshakeMessage::decode(buf)? else {
            return Ok(false);
        };
        // The transcript hashes every handshake message as it sat on the
        // wire; the post-handshake NewSessionTicket is none.
        let wire = arrived.slice(..arrived.len() - buf.len());
        if msg.ty != HandshakeType::NewSessionTicket {
            self.transcript.update(&wire);
        }
        match self.side {
            Side::Client(_, state) => {
                let next = self.client_handle(state, &msg, level, events)?;
                if let Side::Client(_, state) = &mut self.side {
                    *state = next;
                }
            }
            Side::Server(_, state) => {
                let next = self.server_handle(state, &msg, level, events)?;
                if let Side::Server(_, state) = &mut self.side {
                    *state = next;
                }
            }
        }
        Ok(true)
    }

    fn client_handle(
        &mut self,
        state: ClientState,
        msg: &HandshakeMessage,
        level: Level,
        events: &mut TlsEvents,
    ) -> Result<ClientState, TlsError> {
        use ClientState::*;
        use HandshakeType::*;
        Ok(match (state, msg.ty, level) {
            (WaitServerHello, ServerHello, Level::Initial) => {
                let th = self.transcript.finish();
                self.handshake_keys = Some(handshake_keys(&th));
                events.push(TlsEvent::KeysReady(Level::Handshake));
                if matches!(&self.side, Side::Client(cfg, _) if cfg.ticket.is_some()) {
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
                WaitEncryptedExtensions
            }
            // Abbreviated flight: the server Finished comes next.
            (WaitEncryptedExtensions, EncryptedExtensions, Level::Handshake) if self.resumed => {
                WaitFinished
            }
            (WaitEncryptedExtensions, EncryptedExtensions, Level::Handshake) => WaitCertificate,
            (WaitCertificate, Certificate, Level::Handshake) => WaitCertificateVerify,
            (WaitCertificateVerify, CertificateVerify, Level::Handshake) => WaitFinished,
            (WaitFinished, Finished, Level::Handshake) => {
                let th = self.transcript.finish();
                self.application_keys = Some(application_keys(&th));
                events.push(TlsEvent::KeysReady(Level::Application));
                // Client Finished: verify-data = transcript hash.
                let fin = Outgoing::Finished(th);
                queue(&mut self.out[HANDSHAKE], &mut self.transcript, fin);
                // The resumption secret covers the client Finished too.
                let th_res = self.transcript.finish();
                self.res_secret = Some(resumption_secret(&th_res));
                events.push(TlsEvent::HandshakeComplete);
                Complete
            }
            (Complete, NewSessionTicket, Level::Application) => {
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
                Complete
            }
            (_, got, _) => {
                return Err(TlsError::UnexpectedMessage(match got {
                    ClientHello => "ClientHello at client",
                    _ => "out-of-order handshake message",
                }))
            }
        })
    }

    fn server_handle(
        &mut self,
        state: ServerState,
        msg: &HandshakeMessage,
        level: Level,
        events: &mut TlsEvents,
    ) -> Result<ServerState, TlsError> {
        Ok(match (state, msg.ty, level) {
            (ServerState::WaitClientHello, HandshakeType::ClientHello, Level::Initial) => {
                let offer = msg.resumption_offer();
                // A ticket sealed under another key opens nowhere and
                // falls back to the full handshake below.
                let secret = offer
                    .as_ref()
                    .filter(|_| self.server_cfg().resumption.tickets)
                    .and_then(|(ticket, _)| open_ticket(TICKET_KEY, ticket));
                if let Some(secret) = secret {
                    // Abbreviated handshake: no certificate, no Δt.
                    self.resumed = true;
                    events.push(TlsEvent::ResumptionAccepted);
                    let early_offered = offer.map(|(_, e)| e).unwrap_or(false);
                    let mut early_accepted = false;
                    if early_offered {
                        early_accepted = self.server_cfg().resumption.accept_early_data;
                        self.early_data_accepted = Some(early_accepted);
                        if early_accepted {
                            self.early = Some(early_keys(&secret));
                            events.push(TlsEvent::EarlyDataAccepted);
                        } else {
                            events.push(TlsEvent::EarlyDataRejected);
                        }
                    }
                    self.emit_flight(Some(early_accepted), events);
                    ServerState::WaitClientFinished
                } else {
                    // Full handshake (offer absent or rejected). A
                    // rejected PSK kills its early-data offer with it —
                    // record that symmetrically with the client side.
                    if let Some((_, true)) = offer {
                        self.early_data_accepted = Some(false);
                        events.push(TlsEvent::EarlyDataRejected);
                    }
                    events.push(TlsEvent::NeedCertificate);
                    ServerState::WaitCertProvision
                }
            }
            (ServerState::WaitClientFinished, HandshakeType::Finished, Level::Handshake) => {
                // The resumption secret covers the client Finished too.
                let secret = resumption_secret(&self.transcript.finish());
                let cfg = self.server_cfg();
                if cfg.resumption.tickets {
                    // Every ticket advertises 0-RTT, accepted or not.
                    let ticket = mint_ticket(TICKET_KEY, &secret);
                    let nst = Outgoing::NewSessionTicket {
                        lifetime_secs: cfg.resumption.ticket_lifetime_secs,
                        early_data_allowed: true,
                        ticket: &ticket,
                    };
                    // Post-handshake: outside the transcript.
                    send_flight(
                        &mut self.out[APPLICATION],
                        NEW_SESSION_TICKET_LEN,
                        |mut buf| nst.encode(&mut buf),
                    );
                }
                events.push(TlsEvent::HandshakeComplete);
                ServerState::Complete
            }
            (_, _, _) => return Err(TlsError::UnexpectedMessage("out-of-order at server")),
        })
    }

    /// Emits SH + EE + (CERT + CV for a full handshake) + FIN, deriving
    /// handshake and application keys along the way. `resumed` carries
    /// the 0-RTT outcome of an abbreviated handshake.
    fn emit_flight(&mut self, resumed: Option<bool>, events: &mut TlsEvents) {
        // ServerHello at Initial level.
        let sh = Outgoing::ServerHello {
            random: SERVER_RANDOM,
            resumed,
        };
        queue(&mut self.out[INITIAL], &mut self.transcript, sh);
        let th = self.transcript.finish();
        self.handshake_keys = Some(handshake_keys(&th));
        events.push(TlsEvent::KeysReady(Level::Handshake));

        // EE (+ CERT, CV) and FIN at Handshake level, one buffer for the
        // level's whole flight. The Finished covers what precedes it.
        let full = [
            Outgoing::EncryptedExtensions,
            Outgoing::Certificate(self.server_cfg().cert_len),
            Outgoing::CertificateVerify,
        ];
        let middle = if resumed.is_some() { &full[..1] } else { &full };
        let flight: usize = middle.iter().map(Outgoing::wire_len).sum();
        let transcript = &mut self.transcript;
        send_flight(
            &mut self.out[HANDSHAKE],
            flight + FINISHED_LEN,
            |mut buf| {
                for &m in middle {
                    put(&mut buf, transcript, m);
                }
                let fin = Outgoing::Finished(transcript.finish());
                put(&mut buf, transcript, fin);
            },
        );
        // Server can send 1-RTT data once its Finished is queued.
        let th_app = self.transcript.finish();
        self.application_keys = Some(application_keys(&th_app));
        events.push(TlsEvent::KeysReady(Level::Application));
    }

    /// Server only: the certificate arrived from the store. Produces the
    /// ServerHello flight. Returns the resulting events.
    pub fn provide_certificate(&mut self) -> TlsEvents {
        let mut events = TlsEvents::new();
        if let Side::Server(_, state @ ServerState::WaitCertProvision) = &mut self.side {
            *state = ServerState::WaitClientFinished;
            self.emit_flight(None, &mut events);
        }
        events
    }

    /// A server session's configuration: the server steps run on server
    /// sessions only.
    fn server_cfg(&self) -> &ServerConfig {
        match &self.side {
            Side::Server(cfg, _) => cfg,
            Side::Client(..) => unreachable!("a server step on a client session"),
        }
    }

    /// Drains pending outgoing crypto bytes for `level`: the flight's own
    /// storage, handed over.
    pub fn take_output(&mut self, level: Level) -> Option<Bytes> {
        self.out[level as usize].take().map(Bytes::from)
    }

    /// Peeks at the number of pending output bytes for `level`.
    pub fn pending_output(&self, level: Level) -> usize {
        self.out[level as usize].as_ref().map_or(0, |out| out.len())
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
        matches!(
            self.side,
            Side::Client(_, ClientState::Complete) | Side::Server(_, ServerState::Complete)
        )
    }
}

#[cfg(test)]
mod tests;
