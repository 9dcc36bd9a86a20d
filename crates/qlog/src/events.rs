//! Event model: a simplified qlog main-schema event stream.

use crate::json::Json;
use rq_sim::SimTime;

/// Packet number space names, matching qlog's packet types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpaceName {
    /// Initial packets.
    Initial,
    /// Handshake packets.
    Handshake,
    /// 0-RTT/1-RTT packets.
    ApplicationData,
}

impl SpaceName {
    /// qlog's snake_case name for the space.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpaceName::Initial => "initial",
            SpaceName::Handshake => "handshake",
            SpaceName::ApplicationData => "application_data",
        }
    }
}

/// Compact per-frame summary recorded with packet events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSummary {
    /// Frame name ("ack", "crypto", "stream", "ping", ...).
    pub name: &'static str,
    /// Payload byte count for data-bearing frames.
    pub len: usize,
}

/// Event payloads (subset of qlog's transport and recovery categories).
/// JSON form is internally tagged: `{"name": "<snake_case variant>", ...fields}`.
#[derive(Debug, Clone, PartialEq)]
pub enum EventData {
    /// transport:packet_sent
    PacketSent {
        /// Space.
        space: SpaceName,
        /// Packet number.
        pn: u64,
        /// Wire size.
        size: usize,
        /// Whether the packet elicits an ACK.
        ack_eliciting: bool,
        /// Frames carried.
        frames: Vec<FrameSummary>,
    },
    /// transport:packet_received
    PacketReceived {
        /// Space.
        space: SpaceName,
        /// Packet number.
        pn: u64,
        /// Wire size.
        size: usize,
        /// Whether the packet elicits an ACK.
        ack_eliciting: bool,
        /// Frames carried.
        frames: Vec<FrameSummary>,
    },
    /// recovery:packet_lost
    PacketLost {
        /// Space.
        space: SpaceName,
        /// Packet number.
        pn: u64,
    },
    /// recovery:metrics_updated — the paper's core signal.
    MetricsUpdated {
        /// Smoothed RTT in ms.
        smoothed_rtt_ms: f64,
        /// RTT variation in ms; `None` when the implementation does not
        /// expose it (neqo, mvfst, picoquic per Appendix E).
        rtt_variance_ms: Option<f64>,
        /// Latest raw sample in ms.
        latest_rtt_ms: f64,
        /// Current PTO backoff count.
        pto_count: u32,
    },
    /// recovery:metrics_updated, periodic data-phase flavour: cwnd,
    /// bytes in flight and smoothed RTT sampled on ACK processing at a
    /// configured cadence (`EndpointConfig::metrics_sample_every`).
    /// Kept as its own variant so [`EventLog::metrics_updates`]
    /// consumers (Figure 11 counts, PTO reconstruction) never see the
    /// extra samples.
    MetricsSampled {
        /// Congestion window, bytes.
        cwnd: usize,
        /// Bytes in flight.
        bytes_in_flight: usize,
        /// Smoothed RTT in ms.
        smoothed_rtt_ms: f64,
    },
    /// recovery:congestion_state_updated — the controller changed phase
    /// (slow start / congestion avoidance / recovery / persistent
    /// congestion). Emitted on transitions only, not per ack.
    CongestionStateUpdated {
        /// New controller state, snake_case ("slow_start", ...).
        new_state: &'static str,
        /// Congestion window at the transition, bytes.
        cwnd: usize,
        /// Bytes in flight at the transition.
        bytes_in_flight: usize,
    },
    /// recovery:loss_timer_updated (PTO armed/fired diagnostics)
    PtoExpired {
        /// Space whose PTO fired.
        space: SpaceName,
        /// Backoff count after expiry.
        pto_count: u32,
    },
    /// Server stalled by the 3x anti-amplification limit.
    AmplificationBlocked {
        /// Remaining budget in bytes.
        budget: usize,
        /// Bytes the server wanted to send.
        wanted: usize,
    },
    /// security:key_updated (keys became available).
    KeyInstalled {
        /// Space.
        space: SpaceName,
    },
    /// Server asked the certificate store for a certificate.
    CertificateRequested,
    /// The certificate arrived at the frontend.
    CertificateReady,
    /// An instant ACK was emitted (server) or detected (client).
    InstantAck {
        /// True at the sender, false at the observer.
        sent: bool,
    },
    /// transport:connection_closed
    ConnectionClosed {
        /// Error code.
        error_code: u64,
        /// Reason phrase.
        reason: String,
    },
    /// Handshake completed at this endpoint.
    HandshakeComplete,
    /// Handshake confirmed at this endpoint.
    HandshakeConfirmed,
    /// The handshake ran the abbreviated (session-resumption) path.
    ResumptionUsed,
    /// Outcome of a 0-RTT early-data offer at this endpoint.
    EarlyData {
        /// Whether the early data was accepted.
        accepted: bool,
    },
    /// A NewSessionTicket was issued (server) or received (client).
    SessionTicket {
        /// True at the issuer, false at the receiver.
        sent: bool,
    },
    /// The client abandoned a handshake that exceeded its give-up
    /// deadline or consecutive-PTO budget.
    HandshakeAbandoned {
        /// Consecutive PTO expirations at the moment of abandonment.
        pto_count: u32,
    },
    /// A stateless-reset-style signal: the peer lost this connection's
    /// state (observed at the endpoint that received the reset).
    StatelessReset,
    /// A connection started using a new network path (deliberate client
    /// migration or a NAT rebind observed by the server, RFC 9000 §9).
    MigrationStarted {
        /// Path id of the new path.
        path: u64,
        /// True for a deliberate local migration, false when the move was
        /// discovered from the peer's packets arriving on a new path.
        deliberate: bool,
    },
    /// A PATH_CHALLENGE left for an unvalidated path (RFC 9000 §8.2).
    PathChallengeSent {
        /// Path id being probed.
        path: u64,
    },
    /// The matching PATH_RESPONSE arrived: the path is validated.
    PathValidated {
        /// Path id that validated.
        path: u64,
    },
    /// Path validation gave up after exhausting challenge retries.
    PathAbandoned {
        /// Path id that failed validation.
        path: u64,
    },
    /// A connection ID was retired (RETIRE_CONNECTION_ID processed).
    CidRetired {
        /// Sequence number of the retired CID.
        seq: u64,
    },
}

/// One timestamped event. JSON form flattens the payload next to
/// `time_ms`.
#[derive(Debug, Clone, PartialEq)]
pub struct QlogEvent {
    /// Virtual time in milliseconds (qlog uses relative ms).
    pub time_ms: f64,
    /// Payload.
    pub data: EventData,
}

/// Room a log starts with, made at its first event: one endpoint's side
/// of a handshake and a 10 KB response is 24 to 63 events in 98.9 % of
/// the matrix's 1,536 logs, which doubling from empty reached in five
/// steps and twice the bytes.
const HANDSHAKE_EVENTS: usize = 64;

/// An endpoint's event log for one connection.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Vantage point label ("client:quic-go", "server:quic-go-iack", ...).
    pub vantage: String,
    /// Events in record order.
    pub events: Vec<QlogEvent>,
    /// Nobody will read this log: `push` records nothing.
    off: bool,
}

impl EventLog {
    /// Creates a log for the given vantage label.
    pub fn new(vantage: impl Into<String>) -> Self {
        EventLog {
            vantage: vantage.into(),
            events: Vec::new(),
            off: false,
        }
    }

    /// The log with capture switched on or off; an off log stays empty
    /// whatever is pushed.
    pub fn capturing(mut self, on: bool) -> Self {
        self.off = !on;
        self
    }

    /// Records an event at `at`.
    pub fn push(&mut self, at: SimTime, data: EventData) {
        self.push_with(at, || data);
    }

    /// Records the event `data` builds at `at`, and does not build it
    /// when capture is off — for payloads that cost an allocation.
    pub fn push_with(&mut self, at: SimTime, data: impl FnOnce() -> EventData) {
        if !self.off {
            if self.events.capacity() == 0 {
                self.events.reserve_exact(HANDSHAKE_EVENTS);
            }
            self.events.push(QlogEvent {
                time_ms: at.as_millis_f64(),
                data: data(),
            });
        }
    }

    /// All metrics updates in time order.
    pub fn metrics_updates(&self) -> impl Iterator<Item = (&QlogEvent, f64, Option<f64>)> {
        self.events.iter().filter_map(|e| match &e.data {
            EventData::MetricsUpdated {
                smoothed_rtt_ms,
                rtt_variance_ms,
                ..
            } => Some((e, *smoothed_rtt_ms, *rtt_variance_ms)),
            _ => None,
        })
    }

    /// Count of events matching a predicate.
    pub fn count(&self, pred: impl Fn(&EventData) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.data)).count()
    }

    /// First event matching a predicate.
    pub fn first(&self, pred: impl Fn(&EventData) -> bool) -> Option<&QlogEvent> {
        self.events.iter().find(|e| pred(&e.data))
    }

    /// Serializes to qlog-flavoured JSON (one trace).
    pub fn to_json(&self) -> String {
        Json::Object(vec![
            ("vantage".into(), Json::str(&self.vantage)),
            (
                "events".into(),
                Json::Array(self.events.iter().map(QlogEvent::to_json_value).collect()),
            ),
        ])
        .to_string_pretty()
    }
}

impl QlogEvent {
    /// The event as a JSON object: `time_ms` plus the flattened payload.
    fn to_json_value(&self) -> Json {
        let mut fields = vec![("time_ms".into(), Json::float(self.time_ms))];
        fields.extend(self.data.to_json_fields());
        Json::Object(fields)
    }
}

impl FrameSummary {
    fn to_json_value(&self) -> Json {
        Json::Object(vec![
            ("name".into(), Json::str(self.name)),
            ("len".into(), Json::size(self.len)),
        ])
    }
}

impl EventData {
    /// qlog's snake_case event name.
    pub fn name(&self) -> &'static str {
        match self {
            EventData::PacketSent { .. } => "packet_sent",
            EventData::PacketReceived { .. } => "packet_received",
            EventData::PacketLost { .. } => "packet_lost",
            EventData::MetricsUpdated { .. } => "metrics_updated",
            EventData::MetricsSampled { .. } => "metrics_sampled",
            EventData::CongestionStateUpdated { .. } => "congestion_state_updated",
            EventData::PtoExpired { .. } => "pto_expired",
            EventData::AmplificationBlocked { .. } => "amplification_blocked",
            EventData::KeyInstalled { .. } => "key_installed",
            EventData::CertificateRequested => "certificate_requested",
            EventData::CertificateReady => "certificate_ready",
            EventData::InstantAck { .. } => "instant_ack",
            EventData::ConnectionClosed { .. } => "connection_closed",
            EventData::HandshakeComplete => "handshake_complete",
            EventData::HandshakeConfirmed => "handshake_confirmed",
            EventData::ResumptionUsed => "resumption_used",
            EventData::EarlyData { .. } => "early_data",
            EventData::SessionTicket { .. } => "session_ticket",
            EventData::HandshakeAbandoned { .. } => "handshake_abandoned",
            EventData::StatelessReset => "stateless_reset",
            EventData::MigrationStarted { .. } => "migration_started",
            EventData::PathChallengeSent { .. } => "path_challenge_sent",
            EventData::PathValidated { .. } => "path_validated",
            EventData::PathAbandoned { .. } => "path_abandoned",
            EventData::CidRetired { .. } => "cid_retired",
        }
    }

    /// Internally tagged representation: `name` first, then the
    /// variant's fields in declaration order.
    fn to_json_fields(&self) -> Vec<(String, Json)> {
        let mut fields = vec![("name".into(), Json::str(self.name()))];
        match self {
            EventData::PacketSent {
                space,
                pn,
                size,
                ack_eliciting,
                frames,
            }
            | EventData::PacketReceived {
                space,
                pn,
                size,
                ack_eliciting,
                frames,
            } => {
                fields.push(("space".into(), Json::str(space.as_str())));
                fields.push(("pn".into(), Json::uint(*pn)));
                fields.push(("size".into(), Json::size(*size)));
                fields.push(("ack_eliciting".into(), Json::Bool(*ack_eliciting)));
                fields.push((
                    "frames".into(),
                    Json::Array(frames.iter().map(FrameSummary::to_json_value).collect()),
                ));
            }
            EventData::PacketLost { space, pn } => {
                fields.push(("space".into(), Json::str(space.as_str())));
                fields.push(("pn".into(), Json::uint(*pn)));
            }
            EventData::MetricsUpdated {
                smoothed_rtt_ms,
                rtt_variance_ms,
                latest_rtt_ms,
                pto_count,
            } => {
                fields.push(("smoothed_rtt_ms".into(), Json::float(*smoothed_rtt_ms)));
                fields.push((
                    "rtt_variance_ms".into(),
                    rtt_variance_ms.map_or(Json::Null, Json::float),
                ));
                fields.push(("latest_rtt_ms".into(), Json::float(*latest_rtt_ms)));
                fields.push(("pto_count".into(), Json::uint(*pto_count)));
            }
            EventData::MetricsSampled {
                cwnd,
                bytes_in_flight,
                smoothed_rtt_ms,
            } => {
                fields.push(("cwnd".into(), Json::size(*cwnd)));
                fields.push(("bytes_in_flight".into(), Json::size(*bytes_in_flight)));
                fields.push(("smoothed_rtt_ms".into(), Json::float(*smoothed_rtt_ms)));
            }
            EventData::CongestionStateUpdated {
                new_state,
                cwnd,
                bytes_in_flight,
            } => {
                fields.push(("new_state".into(), Json::str(*new_state)));
                fields.push(("cwnd".into(), Json::size(*cwnd)));
                fields.push(("bytes_in_flight".into(), Json::size(*bytes_in_flight)));
            }
            EventData::PtoExpired { space, pto_count } => {
                fields.push(("space".into(), Json::str(space.as_str())));
                fields.push(("pto_count".into(), Json::uint(*pto_count)));
            }
            EventData::AmplificationBlocked { budget, wanted } => {
                fields.push(("budget".into(), Json::size(*budget)));
                fields.push(("wanted".into(), Json::size(*wanted)));
            }
            EventData::KeyInstalled { space } => {
                fields.push(("space".into(), Json::str(space.as_str())));
            }
            EventData::InstantAck { sent } => {
                fields.push(("sent".into(), Json::Bool(*sent)));
            }
            EventData::ConnectionClosed { error_code, reason } => {
                fields.push(("error_code".into(), Json::uint(*error_code)));
                fields.push(("reason".into(), Json::str(reason)));
            }
            EventData::EarlyData { accepted } => {
                fields.push(("accepted".into(), Json::Bool(*accepted)));
            }
            EventData::SessionTicket { sent } => {
                fields.push(("sent".into(), Json::Bool(*sent)));
            }
            EventData::HandshakeAbandoned { pto_count } => {
                fields.push(("pto_count".into(), Json::uint(*pto_count)));
            }
            EventData::MigrationStarted { path, deliberate } => {
                fields.push(("path".into(), Json::uint(*path)));
                fields.push(("deliberate".into(), Json::Bool(*deliberate)));
            }
            EventData::PathChallengeSent { path }
            | EventData::PathValidated { path }
            | EventData::PathAbandoned { path } => {
                fields.push(("path".into(), Json::uint(*path)));
            }
            EventData::CidRetired { seq } => {
                fields.push(("seq".into(), Json::uint(*seq)));
            }
            EventData::CertificateRequested
            | EventData::CertificateReady
            | EventData::HandshakeComplete
            | EventData::HandshakeConfirmed
            | EventData::ResumptionUsed
            | EventData::StatelessReset => {}
        }
        fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_sim::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn push_and_query() {
        let mut log = EventLog::new("client:test");
        log.push(t(1), EventData::HandshakeComplete);
        log.push(
            t(2),
            EventData::MetricsUpdated {
                smoothed_rtt_ms: 9.0,
                rtt_variance_ms: Some(4.5),
                latest_rtt_ms: 9.0,
                pto_count: 0,
            },
        );
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.metrics_updates().count(), 1);
        assert!(log
            .first(|d| matches!(d, EventData::HandshakeComplete))
            .is_some());
        assert_eq!(log.count(|d| matches!(d, EventData::PacketLost { .. })), 0);
    }

    #[test]
    fn an_off_log_stays_empty_and_builds_nothing() {
        let mut log = EventLog::new("server:test").capturing(false);
        log.push(t(1), EventData::HandshakeComplete);
        log.push_with(t(2), || unreachable!("an off log asks for no payload"));
        assert!(log.events.is_empty());
        assert_eq!(log.events.capacity(), 0, "an off log owns nothing");
        assert_eq!(log.vantage, "server:test");
        // Default and `new` capture, and make room for a handshake at
        // the first event, not before.
        let mut log = EventLog::default().capturing(true);
        assert_eq!(log.events.capacity(), 0);
        log.push_with(t(3), || EventData::HandshakeConfirmed);
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events.capacity(), HANDSHAKE_EVENTS);
    }

    #[test]
    fn json_export_contains_fields() {
        let mut log = EventLog::new("server:quic-go");
        log.push(
            t(3),
            EventData::PacketSent {
                space: SpaceName::Initial,
                pn: 0,
                size: 1200,
                ack_eliciting: true,
                frames: vec![FrameSummary {
                    name: "crypto",
                    len: 320,
                }],
            },
        );
        let json = log.to_json();
        assert!(json.contains("packet_sent"));
        assert!(json.contains("\"pn\": 0"));
        assert!(json.contains("server:quic-go"));
        assert!(json.contains("initial"));
    }

    #[test]
    fn variance_can_be_absent() {
        let mut log = EventLog::new("client:neqo");
        log.push(
            t(5),
            EventData::MetricsUpdated {
                smoothed_rtt_ms: 20.0,
                rtt_variance_ms: None,
                latest_rtt_ms: 20.0,
                pto_count: 0,
            },
        );
        let json = log.to_json();
        assert!(json.contains("null"));
    }
}
