//! What a connection holds only until the handshake is confirmed: the
//! Initial and Handshake spaces and the state the handshake quirks read.
//! `Connection` boxes it and drops it at confirmation (RFC 9001 §4.9); a
//! packet for a space that is gone is dropped, as for a discarded space.

use bytes::Bytes;
use rq_sim::SimTime;
use rq_tls::{initial_keys, Level, TlsSession};
use rq_wire::{ConnectionId, Frame, PacketType, PlainPacket};

use super::Role;
use crate::config::EndpointConfig;
use crate::space::Space;

/// The handshake-only state of one connection.
#[derive(Default)]
pub(super) struct Handshake {
    /// The Initial and Handshake packet number spaces, by space index.
    pub spaces: [Space; 2],
    /// Client: an instant ACK (pure-ACK Initial) was received.
    pub iack_received: bool,
    /// PNs of PING probes we sent in the Initial space (quiche quirk).
    pub initial_ping_pns: Vec<u64>,
    /// Ping-reply drop budget remaining (quiche quirk).
    pub ping_reply_drop_budget: usize,
    /// The ClientHello crypto bytes, kept for probe retransmission.
    pub initial_crypto_copy: Bytes,
    /// Whether the client's second flight was already emitted.
    pub flight2_sent: bool,
    /// Retry support: token we must echo in Initials (client).
    pub token: Vec<u8>,
    /// Server: the Retry was sent.
    pub retry_sent: bool,
    /// Server in WFC mode: blocked on the certificate store, nothing is
    /// sent until `certificate_ready` (Figure 1a).
    pub waiting_for_cert: bool,
    /// Early data was rejected (or the PSK offer failed): the client
    /// requeues 0-RTT content as 1-RTT, the server drops 0-RTT packets.
    pub early_rejected: bool,
    /// Packets whose keys are not there yet: the decoded packet, its
    /// payload wire bytes (what the tag authenticates), tag and size.
    pub pending_packets: Vec<(PlainPacket, Bytes, [u8; 16], usize)>,
    /// When the first datagram left (base of `give_up_after`).
    pub first_send_at: Option<SimTime>,
}

impl Handshake {
    /// The state a connection starts with: Initial keys from the client's
    /// original DCID and, for a client, the ClientHello `tls` has queued.
    pub fn new(role: Role, cfg: &EndpointConfig, dcid: ConnectionId, tls: &mut TlsSession) -> Self {
        let drops_ping_replies = role == Role::Client && cfg.quirks.drop_ping_reply_coalesced;
        let mut hs = Handshake {
            // A server has no client flight 2.
            flight2_sent: role == Role::Server,
            ping_reply_drop_budget: usize::from(drops_ping_replies),
            ..Handshake::default()
        };
        hs.spaces[0].keys = Some(initial_keys(dcid.as_slice()));
        hs.queue_client_hello(tls);
        hs
    }

    /// Moves the ClientHello `tls` has ready into the Initial crypto
    /// stream, keeping a copy for probe retransmission.
    pub fn queue_client_hello(&mut self, tls: &mut TlsSession) {
        if let Some(ch) = tls.take_output(Level::Initial) {
            self.initial_crypto_copy = ch.clone();
            self.spaces[0].crypto.queue_tx(ch);
        }
    }

    /// quiche quirk (paper §4.1), spending its budget: whether `datagram`
    /// is dropped whole, its leading Initial acking one of our PINGs.
    pub fn drops_ping_reply(&mut self, datagram: &Bytes) -> bool {
        if self.ping_reply_drop_budget == 0 {
            return false;
        }
        let Ok((pkt, _, _, used)) = PlainPacket::decode_with_payload(datagram, 8) else {
            return false;
        };
        let pings = &self.initial_ping_pns;
        let acks_ping =
            |f: &Frame| matches!(f, Frame::Ack(a) if pings.iter().any(|pn| a.acks(*pn)));
        // "together with coalesced packets": the bug only hits datagrams
        // where the ping-acking Initial is followed by further packets.
        let drop = pkt.header.ty == PacketType::Initial
            && used < datagram.len()
            && pkt.frames.iter().any(acks_ping);
        self.ping_reply_drop_budget -= usize::from(drop);
        drop
    }
}

/// Space `idx` (Initial, Handshake, Application) while it exists: a
/// function of two fields, so the rest of the connection stays free.
pub(super) fn space_in<'a>(
    hs: &'a mut Option<Box<Handshake>>,
    app: &'a mut Space,
    idx: usize,
) -> Option<&'a mut Space> {
    match hs {
        _ if idx == 2 => Some(app),
        Some(hs) => Some(&mut hs.spaces[idx]),
        None => None,
    }
}
