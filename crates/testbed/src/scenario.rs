//! Scenario definitions: the parameter space of the paper's §3, extended
//! with the handshake-class axis (full / resumed / 0-RTT).

use rq_http::HttpVersion;
use rq_profiles::{ClientProfile, ResumptionProfile};
use rq_quic::ServerAckMode;
use rq_recovery::CcAlgorithm;
use rq_sim::{
    Direction, DropIndices, FaultProfile, FaultTimeline, ImpairmentSpec, LossRule, NoLoss,
    SimDuration,
};

/// Which handshake class the *measured* connection runs. Resumed and
/// 0-RTT scenarios are two-connection runs: an unmeasured priming
/// connection against the same server mints the session ticket, then the
/// measured connection offers it (see `runner::prime_session_cache`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeClass {
    /// Full 1-RTT handshake (the paper's only class).
    Full,
    /// Abbreviated PSK handshake; the request still waits for completion.
    Resumed,
    /// Abbreviated handshake with the request sent as 0-RTT early data.
    ZeroRtt,
}

impl HandshakeClass {
    /// All classes in sweep order.
    pub const ALL: [HandshakeClass; 3] = [
        HandshakeClass::Full,
        HandshakeClass::Resumed,
        HandshakeClass::ZeroRtt,
    ];

    /// Short label used in tables and scenario labels.
    pub fn label(&self) -> &'static str {
        match self {
            HandshakeClass::Full => "full",
            HandshakeClass::Resumed => "resumed",
            HandshakeClass::ZeroRtt => "0rtt",
        }
    }
}

/// Which datagrams are dropped (paper §4.2 / Appendix E/F), or which
/// stochastic channel the path emulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossSpec {
    /// No loss.
    None,
    /// Loss of the first server flight except its first datagram:
    /// datagrams 2 and 3 under IACK, datagram 2 under WFC (1-based;
    /// Figure 6 / Figure 12).
    ServerFlightTail,
    /// Loss of the entire second client flight, using the static
    /// per-implementation datagram mapping of Table 4 (Figure 7 /
    /// Figure 13).
    SecondClientFlight,
    /// Seeded stochastic impairments (random/bursty loss, reordering,
    /// duplication, jitter) instead of a hand-picked pattern. The channel
    /// seed is derived from [`Scenario::seed`] alone, so impaired runs
    /// stay exactly reproducible.
    Random(ImpairmentSpec),
}

/// Client reconnect policy after a dead connection: jittered exponential
/// backoff with an attempt cap, the standard client-library shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconnectPolicy {
    /// Maximum *re*-connect attempts (0 = never reconnect).
    pub max_attempts: u32,
    /// Backoff before the first reconnect; doubles per attempt.
    pub base_backoff: SimDuration,
    /// Ceiling on the (pre-jitter) backoff.
    pub max_backoff: SimDuration,
    /// Multiplicative jitter amplitude: the delay is scaled by a seeded
    /// uniform draw from `[1, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 3,
            base_backoff: SimDuration::from_millis(200),
            max_backoff: SimDuration::from_secs(5),
            jitter: 0.2,
        }
    }
}

/// Fault-injection axis of a scenario: what breaks (link blackouts,
/// server crashes and freezes) and how clients cope (give-up budgets,
/// reconnect policy). [`FaultSpec::none`] is the default everywhere and
/// is guaranteed free: no timers, no random draws, no wire changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Link blackouts as `(mean_gap, duration)` of seeded outage windows
    /// (both directions).
    pub blackout: Option<(SimDuration, SimDuration)>,
    /// Mean gap between server crash/restart events.
    pub crash_every: Option<SimDuration>,
    /// Server freezes as `(mean_gap, duration)`: state kept, processing
    /// stalled.
    pub freeze: Option<(SimDuration, SimDuration)>,
    /// A crash also forgets previous ticket-key epochs, so outstanding
    /// tickets degrade to full handshakes on reconnect.
    pub forget_ticket_epochs: bool,
    /// Client handshake deadline ([`rq_quic::EndpointConfig::give_up_after`]).
    pub give_up_after: Option<SimDuration>,
    /// Client consecutive-PTO give-up budget.
    pub give_up_pto_count: Option<u32>,
    /// Client reconnect policy once a connection dies.
    pub reconnect: Option<ReconnectPolicy>,
}

impl FaultSpec {
    /// No faults, no give-up, no reconnects — the status quo.
    pub fn none() -> Self {
        FaultSpec {
            blackout: None,
            crash_every: None,
            freeze: None,
            forget_ticket_epochs: false,
            give_up_after: None,
            give_up_pto_count: None,
            reconnect: None,
        }
    }

    /// Whether this spec changes anything at all.
    pub fn is_none(&self) -> bool {
        *self == FaultSpec::none()
    }

    /// The sim-layer fault profile (blackout/crash/freeze rates).
    pub fn profile(&self) -> FaultProfile {
        FaultProfile {
            blackout_every: self.blackout.map(|(gap, _)| gap),
            blackout_duration: self
                .blackout
                .map(|(_, dur)| dur)
                .unwrap_or(SimDuration::ZERO),
            crash_every: self.crash_every,
            freeze_every: self.freeze.map(|(gap, _)| gap),
            freeze_duration: self.freeze.map(|(_, dur)| dur).unwrap_or(SimDuration::ZERO),
        }
    }

    /// Generates the concrete seeded fault timeline over `[0, horizon)`.
    pub fn timeline(&self, fault_seed: u64, horizon: SimDuration) -> FaultTimeline {
        FaultTimeline::generate(fault_seed, horizon, &self.profile())
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

/// Mid-run path change of the client population (RFC 9000 §9): at a
/// seeded, per-connection-jittered flip time each client's traffic
/// starts riding a second link with its own delay/impairment profile —
/// a phone walking off Wi-Fi onto cellular. [`MigrationSpec::none`] is
/// the default and is guaranteed free: no extra links, no CID pools, no
/// extra random draws, so legacy traces stay byte-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationSpec {
    /// Nominal flip time from connection start; `None` disables the
    /// whole axis.
    pub at: Option<SimDuration>,
    /// RTT of the new path (the old path keeps [`Scenario::rtt`]).
    pub new_rtt: SimDuration,
    /// Stochastic impairment of the new path (`None` = clean).
    pub impairment: Option<ImpairmentSpec>,
    /// `true`: deliberate migration — the client is told (OS route
    /// change signal), rotates its DCID and probes the path. `false`:
    /// NAT rebind — nobody is told; endpoints discover the move from
    /// the path id on arriving datagrams.
    pub deliberate: bool,
    /// Spare connection IDs each endpoint announces after the handshake
    /// ([`rq_quic::EndpointConfig::cid_pool`]).
    pub cid_pool: usize,
}

impl MigrationSpec {
    /// No migration — the status quo, byte-for-byte.
    pub fn none() -> Self {
        MigrationSpec {
            at: None,
            new_rtt: SimDuration::ZERO,
            impairment: None,
            deliberate: false,
            cid_pool: 0,
        }
    }

    /// A deliberate migration at `at` onto a clean path with `new_rtt`.
    pub fn deliberate_at(at: SimDuration, new_rtt: SimDuration) -> Self {
        MigrationSpec {
            at: Some(at),
            new_rtt,
            impairment: None,
            deliberate: true,
            cid_pool: 2,
        }
    }

    /// A NAT rebind at `at` onto a clean path with `new_rtt`.
    pub fn rebind_at(at: SimDuration, new_rtt: SimDuration) -> Self {
        MigrationSpec {
            at: Some(at),
            new_rtt,
            impairment: None,
            deliberate: false,
            cid_pool: 2,
        }
    }

    /// Replaces the new path's impairment.
    pub fn with_impairment(mut self, spec: ImpairmentSpec) -> Self {
        self.impairment = Some(spec);
        self
    }

    /// Whether this spec changes anything at all.
    pub fn is_none(&self) -> bool {
        self.at.is_none()
    }
}

impl Default for MigrationSpec {
    fn default() -> Self {
        MigrationSpec::none()
    }
}

/// One testbed run configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Client implementation profile.
    pub client: ClientProfile,
    /// Server ACK behaviour (WFC or IACK).
    pub ack_mode: ServerAckMode,
    /// HTTP flavour.
    pub http: HttpVersion,
    /// Path round-trip time (composed of two symmetric one-way delays).
    pub rtt: SimDuration,
    /// TLS certificate size in bytes.
    pub cert_len: usize,
    /// Frontend ↔ certificate store delay Δt.
    pub cert_delay: SimDuration,
    /// Response body size in bytes (paper: 10 KB and 10 MB).
    pub file_size: usize,
    /// Loss specification.
    pub loss: LossSpec,
    /// Seed for per-run randomness (go-x-net quirk resolution etc.).
    pub seed: u64,
    /// Store full datagram payloads in the trace (needed by analyses that
    /// classify datagram contents, e.g. the Table 4 regenerator).
    pub capture_payloads: bool,
    /// Override for the server's default PTO (the `exp_ablation_server_pto`
    /// sweep); `None` keeps the quic-go 200 ms default.
    pub server_default_pto: Option<SimDuration>,
    /// Override for the client's PTO probe content (the
    /// `exp_ablation_probe_policy` study); `None` keeps the stock PING.
    pub probe_policy_override: Option<rq_quic::ProbePolicy>,
    /// Handshake class of the measured connection.
    pub handshake_class: HandshakeClass,
    /// Server resumption behaviour, applied (together with ticket
    /// issuance on the priming connection) whenever `handshake_class`
    /// is not [`HandshakeClass::Full`].
    pub resumption: ResumptionProfile,
    /// Fault-injection axis (blackouts, crashes, give-up, reconnects).
    /// [`FaultSpec::none`] — the default — is byte-for-byte free.
    pub faults: FaultSpec,
    /// Congestion controller on both endpoints (the transfer-sweep axis).
    /// NewReno — the default — keeps legacy traces byte-identical.
    pub cc: CcAlgorithm,
    /// Number of concurrent request streams; each fetches the full
    /// `file_size` body, so the response phase moves `streams × file_size`
    /// bytes. 1 — the default — is the paper's single-request shape.
    pub streams: usize,
    /// Mid-run path change (connection migration / NAT rebind).
    /// [`MigrationSpec::none`] — the default — is byte-for-byte free.
    pub migration: MigrationSpec,
    /// Cadence of periodic data-phase `metrics_sampled` qlog events on
    /// both endpoints. `None` — the default — emits nothing, keeping
    /// every legacy trace and golden byte-identical.
    pub metrics_sample_every: Option<SimDuration>,
}

impl Scenario {
    /// The paper's base configuration: 10 KB transfer, small certificate,
    /// no extra Δt, no loss.
    pub fn base(client: ClientProfile, ack_mode: ServerAckMode, http: HttpVersion) -> Self {
        Scenario {
            client,
            ack_mode,
            http,
            rtt: SimDuration::from_millis(9),
            cert_len: rq_tls::CERT_SMALL,
            cert_delay: SimDuration::ZERO,
            file_size: 10 * 1024,
            loss: LossSpec::None,
            seed: 1,
            capture_payloads: false,
            server_default_pto: None,
            probe_policy_override: None,
            handshake_class: HandshakeClass::Full,
            resumption: ResumptionProfile::accepting(),
            faults: FaultSpec::none(),
            cc: CcAlgorithm::NewReno,
            streams: 1,
            migration: MigrationSpec::none(),
            metrics_sample_every: None,
        }
    }

    /// Builds the loss rule for this scenario.
    ///
    /// Direction `AtoB` is client→server in the runner's topology.
    /// Index mappings follow the paper exactly:
    /// * `ServerFlightTail`: server→client datagram indices 1,2 (IACK) or
    ///   1 (WFC), 0-based — "loss of the second and third UDP datagram
    ///   (IACK) and loss of the second UDP datagram (WFC)".
    /// * `SecondClientFlight`: client→server datagram indices 1..=N where
    ///   N is the client's Table 4 second-flight datagram count; the
    ///   static mapping is intentional (Appendix E).
    pub fn loss_rule(&self) -> Box<dyn LossRule> {
        match self.loss {
            LossSpec::None => Box::new(NoLoss),
            LossSpec::ServerFlightTail => {
                let indices: &[usize] = match self.ack_mode {
                    ServerAckMode::InstantAck { .. } => &[1, 2],
                    ServerAckMode::WaitForCertificate => &[1],
                };
                Box::new(DropIndices::new(Direction::BtoA, indices))
            }
            LossSpec::SecondClientFlight => {
                let n = self.client.flight2_datagrams;
                let indices: Vec<usize> = (1..=n).collect();
                Box::new(DropIndices::new(Direction::AtoB, &indices))
            }
            // Random impairments are not a per-datagram rule; the runner
            // attaches them to the link via `impairment()`.
            LossSpec::Random(_) => Box::new(NoLoss),
        }
    }

    /// The stochastic channel spec for `LossSpec::Random` scenarios.
    pub fn impairment(&self) -> Option<ImpairmentSpec> {
        match self.loss {
            LossSpec::Random(spec) => Some(spec),
            _ => None,
        }
    }

    /// Seed for the link's impairment channel, derived from the scenario
    /// seed alone — an impaired run is a pure function of `self.seed`.
    pub fn impairment_seed(&self) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            ^ 0x1A1D_0F_1A1D_u64
    }

    /// One-way link delay (half the RTT).
    pub fn one_way_delay(&self) -> SimDuration {
        SimDuration::from_nanos(self.rtt.as_nanos() / 2)
    }

    /// Human-readable scenario id for tables. The handshake class is
    /// appended only when it deviates from the paper's full handshake,
    /// so legacy labels stay byte-identical.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/{}/{}/rtt{}ms/{:?}",
            self.client.name,
            self.ack_mode.label(),
            self.http.label(),
            self.rtt.as_millis(),
            self.loss
        );
        if self.handshake_class != HandshakeClass::Full {
            label.push('/');
            label.push_str(self.handshake_class.label());
        }
        if self.cc != CcAlgorithm::NewReno {
            label.push('/');
            label.push_str(self.cc.label());
        }
        if self.streams != 1 {
            label.push_str(&format!("/x{}", self.streams));
        }
        if let Some(at) = self.migration.at {
            label.push_str(&format!(
                "/mig{}ms-{}ms{}",
                at.as_millis(),
                self.migration.new_rtt.as_millis(),
                if self.migration.deliberate {
                    ""
                } else {
                    "-rebind"
                }
            ));
        }
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_profiles::client_by_name;
    use rq_sim::loss::DatagramMeta;
    use rq_sim::SimTime;

    fn meta(direction: Direction, index: usize) -> DatagramMeta<'static> {
        DatagramMeta {
            direction,
            index,
            payload: b"",
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn server_flight_tail_differs_by_mode() {
        let mut iack = Scenario::base(
            client_by_name("quic-go").unwrap(),
            ServerAckMode::InstantAck { pad_to_mtu: false },
            HttpVersion::H1,
        );
        iack.loss = LossSpec::ServerFlightTail;
        let mut rule = iack.loss_rule();
        assert!(!rule.should_drop(&meta(Direction::BtoA, 0)));
        assert!(rule.should_drop(&meta(Direction::BtoA, 1)));
        assert!(rule.should_drop(&meta(Direction::BtoA, 2)));
        assert!(!rule.should_drop(&meta(Direction::BtoA, 3)));

        let mut wfc = iack.clone();
        wfc.ack_mode = ServerAckMode::WaitForCertificate;
        let mut rule = wfc.loss_rule();
        assert!(rule.should_drop(&meta(Direction::BtoA, 1)));
        assert!(!rule.should_drop(&meta(Direction::BtoA, 2)));
    }

    #[test]
    fn second_client_flight_respects_table4() {
        for (name, n) in [
            ("quiche", 1usize),
            ("neqo", 2),
            ("quic-go", 3),
            ("picoquic", 4),
        ] {
            let mut sc = Scenario::base(
                client_by_name(name).unwrap(),
                ServerAckMode::WaitForCertificate,
                HttpVersion::H1,
            );
            sc.loss = LossSpec::SecondClientFlight;
            let mut rule = sc.loss_rule();
            assert!(
                !rule.should_drop(&meta(Direction::AtoB, 0)),
                "{name}: CH survives"
            );
            for i in 1..=n {
                assert!(
                    rule.should_drop(&meta(Direction::AtoB, i)),
                    "{name} idx {i}"
                );
            }
            assert!(!rule.should_drop(&meta(Direction::AtoB, n + 1)), "{name}");
        }
    }

    #[test]
    fn random_loss_spec_uses_link_impairment_not_rule() {
        let spec = ImpairmentSpec::none().with_iid_loss(0.1);
        let mut sc = Scenario::base(
            client_by_name("quic-go").unwrap(),
            ServerAckMode::WaitForCertificate,
            HttpVersion::H1,
        );
        assert!(sc.impairment().is_none());
        sc.loss = LossSpec::Random(spec);
        assert_eq!(sc.impairment(), Some(spec));
        // The rule side is transparent; the channel handles the drops.
        let mut rule = sc.loss_rule();
        for i in 0..50 {
            assert!(!rule.should_drop(&meta(Direction::BtoA, i)));
        }
    }

    #[test]
    fn impairment_seed_is_a_pure_function_of_scenario_seed() {
        let mut a = Scenario::base(
            client_by_name("quic-go").unwrap(),
            ServerAckMode::WaitForCertificate,
            HttpVersion::H1,
        );
        let mut b = Scenario::base(
            client_by_name("neqo").unwrap(),
            ServerAckMode::InstantAck { pad_to_mtu: false },
            HttpVersion::H3,
        );
        a.seed = 77;
        b.seed = 77;
        assert_eq!(a.impairment_seed(), b.impairment_seed());
        b.seed = 78;
        assert_ne!(a.impairment_seed(), b.impairment_seed());
    }

    #[test]
    fn labels_append_non_full_handshake_classes_only() {
        let mut sc = Scenario::base(
            client_by_name("quic-go").unwrap(),
            ServerAckMode::WaitForCertificate,
            HttpVersion::H1,
        );
        let full = sc.label();
        assert!(!full.contains("full"), "legacy labels unchanged: {full}");
        sc.handshake_class = HandshakeClass::Resumed;
        assert!(sc.label().ends_with("/resumed"));
        sc.handshake_class = HandshakeClass::ZeroRtt;
        assert!(sc.label().ends_with("/0rtt"));
    }

    #[test]
    fn labels_append_non_default_cc_and_streams_only() {
        let mut sc = Scenario::base(
            client_by_name("quic-go").unwrap(),
            ServerAckMode::WaitForCertificate,
            HttpVersion::H1,
        );
        let legacy = sc.label();
        assert!(!legacy.contains("newreno"), "legacy labels unchanged");
        sc.cc = CcAlgorithm::Cubic;
        assert!(sc.label().ends_with("/cubic"));
        sc.streams = 4;
        assert!(sc.label().ends_with("/cubic/x4"));
        sc.cc = CcAlgorithm::NewReno;
        assert!(sc.label().ends_with("/x4"));
    }

    #[test]
    fn one_way_delay_is_half_rtt() {
        let sc = Scenario::base(
            client_by_name("quic-go").unwrap(),
            ServerAckMode::WaitForCertificate,
            HttpVersion::H1,
        );
        assert_eq!(sc.one_way_delay().as_millis_f64(), 4.5);
    }
}
