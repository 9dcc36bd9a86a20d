//! Endpoint configuration: every behaviour knob the paper varies.
//!
//! `rq-profiles` builds one [`EndpointConfig`] per emulated implementation;
//! the connection state machine reads these knobs and nothing else, so the
//! protocol core stays implementation-agnostic.

use rq_sim::SimDuration;

/// `max_ack_delay` transport parameter every endpoint advertises (the RFC
/// 9000 default).
pub(crate) const MAX_ACK_DELAY: SimDuration = SimDuration::from_millis(25);

/// Application-space ACK threshold: an ACK goes out after this many
/// ack-eliciting packets (the RFC-recommended 2).
pub(crate) const ACK_ELICITING_THRESHOLD: usize = 2;

/// Initial connection-level flow control credit offered to the peer.
/// Receive windows are sized like real stacks (hundreds of KiB): large
/// transfers then require a steady stream of MAX_DATA / MAX_STREAM_DATA
/// grants — the ack-eliciting client packets behind Figure 11's
/// RTT-sample counts.
pub(crate) const INITIAL_MAX_DATA: u64 = 512 * 1024;

/// Initial per-stream flow control credit (see [`INITIAL_MAX_DATA`]).
pub(crate) const INITIAL_MAX_STREAM_DATA: u64 = 256 * 1024;

/// How the server acknowledges the client Initial while the certificate is
/// being fetched (the paper's central dichotomy, Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerAckMode {
    /// Wait for certificate: the first server datagram is the coalesced
    /// ACK + ServerHello after Δt.
    WaitForCertificate,
    /// Instant ACK: a pure-ACK Initial datagram is sent immediately on
    /// ClientHello receipt; the ServerHello follows after Δt.
    InstantAck {
        /// Pad the instant ACK to a full 1200-byte datagram (Cloudflare
        /// uses padded IACKs to probe the path MTU; paper §5 discusses the
        /// amplification cost).
        pad_to_mtu: bool,
    },
}

impl ServerAckMode {
    /// Short label used in experiment tables ("WFC" / "IACK").
    pub fn label(&self) -> &'static str {
        match self {
            ServerAckMode::WaitForCertificate => "WFC",
            ServerAckMode::InstantAck { .. } => "IACK",
        }
    }
}

/// What a client sends when its PTO fires during the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbePolicy {
    /// Send a PING frame (what the measured stacks do; paper §5 notes this
    /// gives the server no retransmitted information).
    #[default]
    Ping,
    /// Retransmit the oldest unacked data (ClientHello during the
    /// handshake) — the RFC-recommended and paper-suggested improvement.
    RetransmitOldest,
}

/// How a server reports the `ACK Delay` field (paper Table 3: six stacks
/// report 0, others report real or even inflated values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AckDelayReport {
    /// Report the actual host delay.
    #[default]
    Actual,
    /// Always report zero.
    Zero,
    /// Report a fixed value regardless of the actual delay.
    Fixed(SimDuration),
}

/// Client-side behavioural quirks observed in the paper (§4, App. E/F).
/// All default to "well-behaved".
#[derive(Debug, Clone, Default)]
pub struct ClientQuirks {
    /// go-x-net: with this set, the RTT estimator pretends `Some(d)` was
    /// already installed as smoothed RTT, so the first sample blends
    /// instead of initializing ("smoothed RTT is initialized at 90 ms").
    /// Whether it applies to a given run is the driver's draw.
    pub buggy_rtt_preinit: Option<SimDuration>,
    /// aioquic: non-standard rttvar update order.
    pub aioquic_rttvar: bool,
    /// mvfst / picoquic: receiving an instant ACK does not cause the client
    /// to arm the deadlock-prevention PTO, so no probe packets are sent in
    /// response to an IACK (paper §4.1).
    pub no_probe_after_iack: bool,
    /// picoquic: the handshake-time PTO "relies solely on its default
    /// PTO" — early RTT samples (including the one carried by an instant
    /// ACK) do not shorten it, so picoquic shows no IACK benefit and no
    /// IACK penalty in the loss scenarios (paper §4.2 / App. F).
    pub ignore_iack_rtt: bool,
    /// quiche (HTTP/1.1): drop the first datagram whose Initial packet
    /// acknowledges one of our PING probes, together with everything
    /// coalesced behind it ("drops replies to PING frames as invalid
    /// together with coalesced packets", §4.1).
    pub drop_ping_reply_coalesced: bool,
    /// quiche (HTTP/1.1): abort the connection (duplicate connection-ID
    /// retirement) when, after having received an instant ACK, a
    /// *network-retransmitted* server Initial CRYPTO packet arrives
    /// (pn ≥ 2 with fresh offset-0 crypto and no self-inflicted drop).
    /// Emulates the duplicate-CID-retirement abort of §4.2/App. F.
    pub abort_on_initial_retransmit_after_iack: bool,
}

/// Endpoint configuration.
#[derive(Debug, Clone)]
pub struct EndpointConfig {
    /// Default (pre-RTT-sample) PTO. Paper Table 4; RFC recommends 1 s.
    pub default_pto: SimDuration,
    /// Number of UDP datagrams the client's second flight is spread over
    /// (paper Table 4: 1 for quiche, 2 for neqo, 3 for most, 4 for
    /// picoquic).
    pub flight2_datagrams: usize,
    /// Client probe-content policy on PTO.
    pub probe_policy: ProbePolicy,
    /// Server ACK mode (ignored by clients).
    pub ack_mode: ServerAckMode,
    /// How ACK Delay is reported in Initial-space ACKs (Table 3).
    pub ack_delay_report: AckDelayReport,
    /// Override for Handshake-space ACK delay reporting (Table 3 servers
    /// report different values per space); falls back to
    /// `ack_delay_report` when `None`.
    pub handshake_ack_delay_report: Option<AckDelayReport>,
    /// Server sends a Handshake-space ACK for the client Finished before
    /// discarding the space (haproxy, lsquic, mvfst, neqo, xquic in
    /// Table 3; most stacks discard first and never ACK there).
    pub send_handshake_space_acks: bool,
    /// Never attach ACK frames in the Initial/Handshake spaces (msquic in
    /// Table 3 "does not send Initial and Handshake ACKs").
    pub no_initial_acks: bool,
    /// Total certificate-message size (server; paper: 1,212 or 5,113 B).
    pub cert_len: usize,
    /// Client quirks.
    pub quirks: ClientQuirks,
    /// Client: session ticket to offer for an abbreviated handshake.
    pub session_ticket: Option<rq_tls::SessionTicket>,
    /// Client: send queued stream data as 0-RTT early data with the
    /// ticket (ignored without `session_ticket`).
    pub enable_early_data: bool,
    /// Server: resumption policy (ticket issuance, PSK and 0-RTT
    /// acceptance; disabled by default so full-handshake traces keep
    /// their exact wire image).
    pub resumption: rq_tls::ServerResumption,
    /// Server: key minting/validating stateless session tickets — the
    /// same key must serve the priming and the resumed connection.
    pub ticket_key: u64,
    /// Server: additional ticket keys accepted for validation (the
    /// overlap window of a rotating [`rq_tls::TicketKeySchedule`]); empty
    /// for the legacy single-key server.
    pub accept_ticket_keys: Vec<u64>,
    /// Client: abandon the handshake this long after the first Initial
    /// leaves, closing with [`crate::connection::ERROR_GIVE_UP`]. `None`
    /// (the default) waits forever, like every stack in the paper's
    /// testbed — existing traces are untouched.
    pub give_up_after: Option<SimDuration>,
    /// Client: abandon the handshake after this many *consecutive* PTO
    /// expirations (reset on forward progress). `None` disables the
    /// PTO-count give-up.
    pub give_up_pto_count: Option<u32>,
    /// Congestion controller for the data phase (NewReno keeps the
    /// handshake-era traces byte-identical; CUBIC/BBR-lite are the
    /// transfer-sweep alternatives).
    pub cc_algorithm: rq_recovery::CcAlgorithm,
    /// Number of spare connection IDs announced via NEW_CONNECTION_ID
    /// once the handshake completes — the pool the peer rotates through
    /// on migration (RFC 9000 §5.1.1). 0 (the default) disables the
    /// whole migration machinery and keeps legacy traces byte-identical.
    pub cid_pool: usize,
    /// Emit a qlog `metrics_sampled` event (cwnd / bytes-in-flight /
    /// srtt) at most this often while processing Application-space ACKs
    /// after the handshake completes. `None` (the default) emits
    /// nothing, keeping every legacy trace byte-identical.
    pub metrics_sample_every: Option<SimDuration>,
    /// Capture the connection's qlog. `true` (the default) everywhere a
    /// log is read; a driver that drops its connections' logs unread
    /// switches it off, and nothing but the log differs.
    pub capture_qlog: bool,
    /// Label for logs/plots ("quic-go", "neqo", ...).
    pub name: &'static str,
}

impl EndpointConfig {
    /// A well-behaved RFC-default endpoint.
    pub fn rfc_default() -> Self {
        EndpointConfig {
            default_pto: rq_recovery::RFC_DEFAULT_PTO,
            flight2_datagrams: 3,
            probe_policy: ProbePolicy::Ping,
            ack_mode: ServerAckMode::WaitForCertificate,
            ack_delay_report: AckDelayReport::Actual,
            handshake_ack_delay_report: None,
            send_handshake_space_acks: false,
            no_initial_acks: false,
            cert_len: rq_tls::CERT_SMALL,
            quirks: ClientQuirks::default(),
            session_ticket: None,
            enable_early_data: false,
            resumption: rq_tls::ServerResumption::disabled(),
            ticket_key: 0x7E11_C3E7,
            accept_ticket_keys: Vec::new(),
            give_up_after: None,
            give_up_pto_count: None,
            cc_algorithm: rq_recovery::CcAlgorithm::NewReno,
            cid_pool: 0,
            metrics_sample_every: None,
            capture_qlog: true,
            name: "rfc-default",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(ServerAckMode::WaitForCertificate.label(), "WFC");
        assert_eq!(
            ServerAckMode::InstantAck { pad_to_mtu: false }.label(),
            "IACK"
        );
    }
}
