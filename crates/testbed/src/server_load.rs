//! The many-connection server-load engine.
//!
//! One shared event loop hosts a single [`ServerNode`] (backed by an
//! [`rq_quic::ServerEngine`]) and N client nodes arriving over virtual
//! time according to a seeded arrival process. Every connection is a
//! full [`Scenario`]-derived handshake + HTTP exchange — the legacy
//! single-pair `run_scenario` is literally the N = 1 case of
//! [`drive_conn_plans`], not a separate code path.
//!
//! Determinism contract: a [`ServerLoadSpec`] is a pure function of
//! `base.seed`. Arrival times, per-connection handshake classes,
//! impairment draws, and synthetic resumption tickets are all drawn from
//! [`SimRng::derive`] streams keyed on the seed and the connection index,
//! so the same spec always produces byte-identical per-connection
//! outcomes and aggregates — at any `REACKED_THREADS` value, because the
//! sharded runner splits on a fixed shard size and folds shard reports
//! in shard order.

use std::cell::RefCell;
use std::rc::Rc;

use rq_par::SweepRunner;
use rq_quic::{
    ConnStats, Connection, OverloadPolicy, Role, ServerAccounting, ServerEngine, ERROR_GIVE_UP,
};
use rq_sim::{FaultTimeline, LinkConfig, Network, NodeId, SimDuration, SimRng, SimTime};
use rq_tls::{mint_ticket, SessionTicket, TicketKeySchedule};

use crate::nodes::{ClientNode, ClientStatus, PeerOutcome, ServerControl, ServerNode};
use crate::runner::{full_result, rep_scenario, RunResult};
use crate::scenario::{HandshakeClass, LossSpec, Scenario};
use crate::stats::LatencyHistogram;

/// Stream tag: arrival-time schedule.
const ARRIVAL_STREAM: u64 = 0x4C4F_4144; // "LOAD"
/// Stream tag: per-connection class/impairment draw.
const CLASS_STREAM: u64 = 0xC1A5_5;
/// Stream tag: per-connection synthetic ticket secret.
const TICKET_STREAM: u64 = 0x71C_E7;
/// Stream tag: per-shard base seed.
const SHARD_STREAM: u64 = 0x5AA2_D;
/// Stream tag: fault-timeline seed (blackouts/crashes/freezes).
const FAULT_STREAM: u64 = 0xFA_17;
/// Stream tag: per-connection migration jitter + new-path impairment.
const MIGRATION_STREAM: u64 = 0x4D1_6;
/// Path id the migration link registers under (0 is the original path).
const MIGRATION_PATH: u64 = 1;

/// How new connections arrive at the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival gaps with the
    /// given mean (the first connection arrives at t = 0).
    Poisson {
        /// Mean gap between consecutive arrivals.
        mean_gap: SimDuration,
    },
    /// A flash crowd: all arrivals land uniformly inside one window
    /// (the first still pinned to t = 0), sorted into arrival order.
    FlashCrowd {
        /// Width of the arrival window.
        window: SimDuration,
    },
}

/// Handshake-class mixture for a connection population. Weights are
/// probabilities; whatever `resumed + zero_rtt` leaves over is the full
/// handshake share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMix {
    /// Share of abbreviated (PSK) handshakes.
    pub resumed: f64,
    /// Share of 0-RTT attempts.
    pub zero_rtt: f64,
}

impl ClassMix {
    /// Draws one class (consumes exactly one uniform variate).
    fn draw(&self, rng: &mut SimRng) -> HandshakeClass {
        let u = rng.gen_f64();
        if u < self.zero_rtt {
            HandshakeClass::ZeroRtt
        } else if u < self.zero_rtt + self.resumed {
            HandshakeClass::Resumed
        } else {
            HandshakeClass::Full
        }
    }
}

/// A server-load experiment: N connections against one server.
#[derive(Debug, Clone)]
pub struct ServerLoadSpec {
    /// Template scenario: client profile, server ACK mode, path, file
    /// size, and the seed every derived stream hangs off.
    pub base: Scenario,
    /// Number of arriving connections.
    pub arrivals: usize,
    /// Arrival process over virtual time.
    pub process: ArrivalProcess,
    /// Server concurrency ceiling; arrivals beyond it are load-shed.
    pub concurrency_limit: usize,
    /// Per-connection handshake-class draw; `None` keeps every
    /// connection on `base.handshake_class` (which is what makes the
    /// N = 1 spec reproduce the legacy single-pair run exactly).
    pub mix: Option<ClassMix>,
    /// Stochastic impairment applied to a seeded share of connections:
    /// `(share, spec)`.
    pub impaired: Option<(f64, rq_sim::ImpairmentSpec)>,
    /// Ticket-key rotation period in virtual seconds (0 = fixed key).
    pub rotation_period_secs: u64,
    /// How many retired key epochs the server still accepts.
    pub overlap_epochs: u32,
    /// How long before its arrival a resuming connection's synthetic
    /// ticket was minted — old enough and the minting epoch rotates out
    /// of the accept window.
    pub ticket_age: SimDuration,
    /// Per-connection virtual-time budget after arrival.
    pub conn_deadline: SimDuration,
    /// What the server does with arrivals beyond the concurrency limit:
    /// silent shed (default), stateless Retry deferral, or an explicit
    /// busy close.
    pub overload: OverloadPolicy,
}

impl ServerLoadSpec {
    /// A load spec with no shedding, no mixture, no rotation.
    pub fn new(base: Scenario, arrivals: usize, process: ArrivalProcess) -> Self {
        ServerLoadSpec {
            base,
            arrivals,
            process,
            concurrency_limit: usize::MAX,
            mix: None,
            impaired: None,
            rotation_period_secs: 0,
            overlap_epochs: 0,
            ticket_age: SimDuration::from_secs(60),
            conn_deadline: SimDuration::from_secs(120),
            overload: OverloadPolicy::Shed,
        }
    }

    /// The N = 1 spec: one connection, arriving at t = 0, running
    /// `base` unchanged.
    pub fn single(base: Scenario) -> Self {
        ServerLoadSpec::new(
            base,
            1,
            ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_millis(1),
            },
        )
    }

    /// The server's ticket-key schedule: the testbed server's own key,
    /// rotating per [`Self::rotation_period_secs`].
    pub fn schedule(&self) -> TicketKeySchedule {
        let base_key =
            rq_profiles::server::testbed_server(self.base.ack_mode, self.base.cert_len).ticket_key;
        if self.rotation_period_secs == 0 {
            TicketKeySchedule::fixed(base_key)
        } else {
            TicketKeySchedule::rotating(base_key, self.rotation_period_secs, self.overlap_epochs)
        }
    }

    /// Arrival times in virtual time: a pure function of `base.seed`
    /// (first arrival pinned to t = 0; non-decreasing).
    pub fn arrival_times(&self) -> Vec<SimTime> {
        let mut rng = SimRng::derive(self.base.seed, &[ARRIVAL_STREAM]);
        let mut times = Vec::with_capacity(self.arrivals);
        match self.process {
            ArrivalProcess::Poisson { mean_gap } => {
                let mut t = 0u64;
                for i in 0..self.arrivals {
                    if i > 0 {
                        t = t.saturating_add(rng.gen_exp(mean_gap.as_nanos() as f64) as u64);
                    }
                    times.push(SimTime::from_nanos(t));
                }
            }
            ArrivalProcess::FlashCrowd { window } => {
                let span = window.as_nanos().max(1);
                for i in 0..self.arrivals {
                    if i == 0 {
                        times.push(SimTime::ZERO);
                    } else {
                        times.push(SimTime::from_nanos(rng.gen_range(span)));
                    }
                }
                times.sort();
            }
        }
        times
    }

    /// Expands the spec into per-connection plans: repetition-seeded
    /// scenarios with class/impairment draws and synthetic resumption
    /// tickets minted under the epoch key of their (aged) minting time.
    pub fn plans(&self) -> Vec<ConnPlan> {
        let schedule = self.schedule();
        let policy = self.base.resumption.server_resumption();
        self.arrival_times()
            .into_iter()
            .enumerate()
            .map(|(i, arrival)| {
                let mut sc = rep_scenario(&self.base, i);
                sc.capture_payloads = false;
                let mut rng = SimRng::derive(self.base.seed, &[CLASS_STREAM, i as u64]);
                if let Some(mix) = self.mix {
                    sc.handshake_class = mix.draw(&mut rng);
                }
                if let Some((share, spec)) = self.impaired {
                    if rng.gen_bool(share) {
                        sc.loss = LossSpec::Random(spec);
                    }
                }
                let ticket = if sc.handshake_class != HandshakeClass::Full
                    && self.base.resumption.offers_tickets
                {
                    Some(self.synthetic_ticket(i, arrival, &schedule, &policy))
                } else {
                    None
                };
                ConnPlan {
                    scenario: sc,
                    arrival,
                    ticket,
                }
            })
            .collect()
    }

    /// A ticket "minted" `ticket_age` before `arrival` under the key of
    /// that epoch — which is exactly how key rotation bites: age a
    /// ticket past `overlap_epochs` rotation periods and the server no
    /// longer holds its key, forcing a full handshake.
    fn synthetic_ticket(
        &self,
        i: usize,
        arrival: SimTime,
        schedule: &TicketKeySchedule,
        policy: &rq_tls::ServerResumption,
    ) -> SessionTicket {
        let minted_ns = arrival
            .as_nanos()
            .saturating_sub(self.ticket_age.as_nanos());
        let key = schedule.mint_key(minted_ns / 1_000_000_000);
        let mut rng = SimRng::derive(self.base.seed, &[TICKET_STREAM, i as u64]);
        let mut secret = [0u8; 32];
        for chunk in secret.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        SessionTicket {
            ticket: mint_ticket(key, &secret),
            secret,
            lifetime_secs: policy.ticket_lifetime_secs,
            early_data_allowed: policy.advertise_early_data,
        }
    }
}

/// One planned connection: its scenario, arrival time, and the session
/// ticket it offers (resuming classes only).
#[derive(Debug, Clone)]
pub struct ConnPlan {
    /// Fully resolved per-connection scenario.
    pub scenario: Scenario,
    /// Arrival (client start) time.
    pub arrival: SimTime,
    /// Ticket the client offers, if any.
    pub ticket: Option<SessionTicket>,
}

/// Terminal state of one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFate {
    /// Response fully received.
    Completed,
    /// Retry-deferred under overload, then admitted on the tokened
    /// Initial and served to completion.
    RetriedThenAccepted,
    /// Refused admission by the server's concurrency limit.
    Shed,
    /// The client hit its give-up budget and abandoned the handshake.
    GaveUp,
    /// A server crash dropped the connection mid-flight (stateless
    /// reset) and it never recovered.
    Reset,
    /// Admitted but never completed (abort, starvation, deadline).
    Failed,
}

/// Compact per-connection result of a server-load run: everything the
/// aggregates need, nothing that grows with the transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnOutcome {
    /// Connection index (plan order == arrival order).
    pub index: usize,
    /// Arrival time.
    pub arrival: SimTime,
    /// Planned handshake class.
    pub class: HandshakeClass,
    /// Terminal state.
    pub fate: ConnFate,
    /// Time to first byte, ms from this connection's start.
    pub ttfb_ms: Option<f64>,
    /// Handshake completion, ms from start.
    pub handshake_ms: Option<f64>,
    /// Full response, ms from start.
    pub response_ms: Option<f64>,
    /// Data phase alone: first response byte to the last one, ms.
    pub download_complete_ms: Option<f64>,
    /// Application goodput over the whole exchange, Mbit/s of response
    /// body across every request stream.
    pub goodput_mbps: Option<f64>,
    /// The abbreviated handshake actually ran (ticket accepted).
    pub resumed: bool,
    /// 0-RTT offer outcome.
    pub early_data_accepted: Option<bool>,
    /// Completed reconnect attempts (0 = the first attempt served, or no
    /// reconnect policy at all).
    pub reconnects: u32,
    /// Wall time from *arrival* to the full response, reconnect attempts
    /// included — the availability-weighted latency the paper's
    /// degradation story needs.
    pub time_to_success_ms: Option<f64>,
    /// The connection ended on a non-initial network path (a scheduled
    /// migration or NAT rebind actually took effect).
    pub migrated: bool,
    /// Client PTO timer expirations over the connection's lifetime.
    pub pto_expirations: u64,
    /// Packets the client's loss recovery declared lost.
    pub client_packets_lost: u64,
    /// Packets the server's loss recovery declared lost for this
    /// connection (0 when the server never admitted it).
    pub server_packets_lost: u64,
}

/// Server-side aggregate report: admission/cost accounting plus
/// completed-connection latency tails. A monoid under [`merge`]
/// (`ServerLoadReport::merge`), which is what the sharded runner folds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerLoadReport {
    /// The engine's admission, handshake-class, and CPU-cost tallies.
    pub accounting: ServerAccounting,
    /// TTFB across completed connections.
    pub ttfb: LatencyHistogram,
    /// Handshake-completion latency across completed connections.
    pub handshake: LatencyHistogram,
    /// Arrival-to-response latency across served connections, reconnect
    /// time included.
    pub time_to_success: LatencyHistogram,
    /// Data-phase (TTFB → last byte) latency across completed
    /// connections.
    pub download: LatencyHistogram,
    /// Goodput across completed connections, in Mbit/s (the histogram's
    /// "ms" buckets hold Mbps values).
    pub goodput: LatencyHistogram,
    /// Per-fate tallies (the failure taxonomy; sums to the plan count).
    pub fates: FateTally,
    /// Total completed reconnect attempts across the population.
    pub reconnects: u64,
    /// Connections that ended on a migrated path.
    pub migrated: u64,
    /// Deterministic metrics snapshot: sim-engine event/drop tallies and
    /// per-space QUIC counters under `sim/`, `server/`, `quic/`,
    /// plus the `load/lost_per_conn` histogram. Merges as a monoid, so
    /// the snapshot is identical at any `REACKED_THREADS`.
    pub metrics: rq_obs::Registry,
}

/// Counts of connections per terminal fate. A monoid under `merge`, so
/// availability survives sharding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FateTally {
    /// Served on the first admission.
    pub completed: u64,
    /// Retry-deferred, then admitted and served.
    pub retried_then_accepted: u64,
    /// Refused admission (silent shed or busy close).
    pub shed: u64,
    /// Client abandoned the handshake (give-up budget).
    pub gave_up: u64,
    /// Dropped by a server crash and never recovered.
    pub reset: u64,
    /// Admitted but never completed.
    pub failed: u64,
}

impl FateTally {
    /// Tallies one fate.
    pub fn record(&mut self, fate: ConnFate) {
        match fate {
            ConnFate::Completed => self.completed += 1,
            ConnFate::RetriedThenAccepted => self.retried_then_accepted += 1,
            ConnFate::Shed => self.shed += 1,
            ConnFate::GaveUp => self.gave_up += 1,
            ConnFate::Reset => self.reset += 1,
            ConnFate::Failed => self.failed += 1,
        }
    }

    /// Total connections tallied.
    pub fn total(&self) -> u64 {
        self.completed
            + self.retried_then_accepted
            + self.shed
            + self.gave_up
            + self.reset
            + self.failed
    }

    /// Served fraction: connections that got their response, however
    /// many Retries or reconnects it took.
    pub fn availability(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.completed + self.retried_then_accepted) as f64 / total as f64
    }

    /// Elementwise sum (shard merge).
    pub fn merge(&mut self, other: &FateTally) {
        self.completed += other.completed;
        self.retried_then_accepted += other.retried_then_accepted;
        self.shed += other.shed;
        self.gave_up += other.gave_up;
        self.reset += other.reset;
        self.failed += other.failed;
    }
}

impl ServerLoadReport {
    /// Folds one connection outcome into the tallies and histograms.
    pub fn record(&mut self, o: &ConnOutcome) {
        self.fates.record(o.fate);
        self.reconnects += o.reconnects as u64;
        if o.migrated {
            self.migrated += 1;
        }
        if matches!(o.fate, ConnFate::Completed | ConnFate::RetriedThenAccepted) {
            if let Some(ms) = o.ttfb_ms {
                self.ttfb.record(ms);
            }
            if let Some(ms) = o.handshake_ms {
                self.handshake.record(ms);
            }
            if let Some(ms) = o.time_to_success_ms {
                self.time_to_success.record(ms);
            }
            if let Some(ms) = o.download_complete_ms {
                self.download.record(ms);
            }
            if let Some(mbps) = o.goodput_mbps {
                self.goodput.record(mbps);
            }
        }
        self.metrics
            .add("load/client_pto_expirations", o.pto_expirations);
        self.metrics
            .add("load/client_packets_lost", o.client_packets_lost);
        self.metrics
            .add("load/server_packets_lost", o.server_packets_lost);
        self.metrics
            .observe("load/lost_per_conn", o.client_packets_lost);
    }

    /// Folds another report into this one (shard merge).
    pub fn merge(&mut self, other: &ServerLoadReport) {
        self.accounting.merge(&other.accounting);
        self.ttfb.merge(&other.ttfb);
        self.handshake.merge(&other.handshake);
        self.time_to_success.merge(&other.time_to_success);
        self.download.merge(&other.download);
        self.goodput.merge(&other.goodput);
        self.fates.merge(&other.fates);
        self.reconnects += other.reconnects;
        self.migrated += other.migrated;
        self.metrics.merge(&other.metrics);
    }
}

/// Result of one (unsharded) server-load run.
#[derive(Debug)]
pub struct ServerLoadRun {
    /// Per-connection outcomes in plan order.
    pub outcomes: Vec<ConnOutcome>,
    /// Folded server-side report.
    pub report: ServerLoadReport,
}

/// How much detail [`drive_conn_plans`] keeps per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Detail {
    /// The one connection's [`RunResult`] on top of its outcome: the
    /// same path plus qlogs, trace counts and the issued ticket — the
    /// single-pair mode.
    Full,
    /// Compact outcomes only; trace recording and both endpoints' qlog
    /// capture off (nothing here would read either), finished
    /// connections retired as the run goes so memory stays bounded by
    /// the active set.
    Aggregate,
}

/// Everything a drive produces.
pub(crate) struct DriveOutput {
    /// One outcome per plan, in plan order.
    pub outcomes: Vec<ConnOutcome>,
    pub accounting: ServerAccounting,
    /// Snapshot of every instrument the drive touched: sim-engine
    /// tallies (`sim/`), server admission + active-conn gauge
    /// (`server/`), and the retired connections' aggregated QUIC
    /// counters (`quic/client/`, `quic/server/`).
    pub metrics: rq_obs::Registry,
    /// [`Detail::Full`] only: the connection's full result, the
    /// simulation trace, and the ticket the server issued it.
    pub full: Option<(RunResult, rq_sim::Trace, Option<SessionTicket>)>,
}

/// A spawned, not-yet-retired client connection.
pub(crate) struct Spawned {
    plan_idx: usize,
    pub id: NodeId,
    arrival: SimTime,
    /// What retirement reads of the plan's scenario: its handshake class
    /// and the response body bytes across its streams.
    class: HandshakeClass,
    body_bytes: usize,
    pub conn: Rc<RefCell<Connection>>,
    status: Rc<RefCell<ClientStatus>>,
    ticket_rc: Rc<RefCell<Option<SessionTicket>>>,
}

/// One drive's state: the event loop, the server's shared cells, and
/// the connections still on the loop.
struct Drive {
    net: Network,
    engine: Rc<RefCell<ServerEngine>>,
    control: Rc<RefCell<ServerControl>>,
    spawned: Vec<Spawned>,
    outcomes: Vec<Option<ConnOutcome>>,
    /// (client, server) QUIC counter totals, folded in retirement order.
    conn_totals: (ConnStats, ConnStats),
    conn_deadline: SimDuration,
}

/// THE simulation driver: hosts every plan's client against one shared
/// server (configured by `spec`) on a single event loop. `run_scenario`
/// routes through here with one plan; `run_server_load` with many.
pub(crate) fn drive_conn_plans(
    spec: &ServerLoadSpec,
    mut plans: Vec<ConnPlan>,
    resumption_active: bool,
    detail: Detail,
) -> DriveOutput {
    let base = &spec.base;
    let full = detail == Detail::Full;
    let n = plans.len();
    assert!(!full || n == 1, "full detail is the single-pair mode");
    let mut net = Network::new(base.capture_payloads && full);
    if !full {
        net.trace.recording = false;
    }
    // The default event ceiling is sized for one connection; scale it
    // with the population (it stays a runaway backstop, not a budget).
    net.event_limit = net.event_limit.max(n as u64 * 20_000);

    // 10 MB at 10 Mbit/s takes ~8.4 s; loss + 300 ms RTT backoffs can add
    // several more. 120 s of virtual time per connection bounds every
    // paper scenario.
    let last_arrival = plans.last().map_or(SimTime::ZERO, |p| p.arrival);
    let end = last_arrival + spec.conn_deadline;
    // The fault timeline is a pure function of the base seed and the
    // run's horizon, fixed before any client spawns. `FaultSpec::none()`
    // yields an empty timeline and draws nothing, keeping fault-free
    // runs byte-identical.
    let timeline = if base.faults.is_none() {
        FaultTimeline::none()
    } else {
        let fault_seed = SimRng::derive(base.seed, &[FAULT_STREAM]).next_u64();
        base.faults
            .timeline(fault_seed, SimDuration::from_nanos(end.as_nanos()))
    };

    let mut server_cfg = rq_profiles::server::testbed_server(base.ack_mode, base.cert_len);
    server_cfg.cc_algorithm = base.cc;
    server_cfg.cid_pool = base.migration.cid_pool;
    server_cfg.metrics_sample_every = base.metrics_sample_every;
    server_cfg.capture_qlog = full;
    if let Some(pto) = base.server_default_pto {
        server_cfg.default_pto = pto;
    }
    if resumption_active {
        server_cfg.resumption = base.resumption.server_resumption();
    }
    let engine = ServerEngine::new(server_cfg, spec.schedule(), spec.concurrency_limit)
        .with_overload_policy(spec.overload);
    let engine = Rc::new(RefCell::new(engine));
    let control = Rc::new(RefCell::new(ServerControl::default()));
    let server_node = ServerNode::with_engine(
        Rc::clone(&engine),
        Rc::clone(&control),
        base.http,
        base.cert_delay,
        base.seed,
    )
    .with_faults(timeline.clone(), base.faults.forget_ticket_epochs);
    let server_id = net.add_node(Box::new(server_node));
    net.prime();

    let mut drive = Drive {
        net,
        engine,
        control,
        spawned: Vec::new(),
        outcomes: vec![None; n],
        conn_totals: Default::default(),
        conn_deadline: spec.conn_deadline,
    };

    for (i, plan) in plans.iter_mut().enumerate() {
        let (arrival, sc) = (plan.arrival, &plan.scenario);
        drive.net.run_until(arrival);
        if !full {
            drive.sweep(false);
        }

        let mut rng = SimRng::new(sc.seed ^ 0xBEEF_CAFE);
        let rtt_quirk_applies = sc
            .client
            .buggy_rtt_preinit
            .map(|(_, p)| rng.gen_bool(p))
            .unwrap_or(false);
        let mut client_cfg = sc.client.endpoint_config(sc.http);
        client_cfg.cc_algorithm = sc.cc;
        if let Some(policy) = sc.probe_policy_override {
            client_cfg.probe_policy = policy;
        }
        client_cfg.session_ticket = plan.ticket.take();
        client_cfg.enable_early_data = sc.handshake_class == HandshakeClass::ZeroRtt;
        client_cfg.give_up_after = sc.faults.give_up_after;
        client_cfg.give_up_pto_count = sc.faults.give_up_pto_count;
        client_cfg.cid_pool = sc.migration.cid_pool;
        client_cfg.metrics_sample_every = sc.metrics_sample_every;
        client_cfg.capture_qlog = full;
        let mut client_node = ClientNode::new(
            client_cfg,
            server_id,
            sc.http,
            sc.file_size,
            sc.seed.wrapping_mul(2654435761).wrapping_add(1),
            rtt_quirk_applies,
        )
        .with_streams(sc.streams);
        if !full {
            client_node = client_node.detached();
        }
        if let Some(policy) = sc.faults.reconnect {
            client_node = client_node.with_reconnect(policy);
        }
        let conn = Rc::clone(&client_node.conn);
        let status = Rc::clone(&client_node.status);
        let ticket_rc = Rc::clone(&client_node.ticket);
        let net = &mut drive.net;
        let client_id = net.add_node(Box::new(client_node));
        drive
            .control
            .borrow_mut()
            .conn_seeds
            .insert(client_id.index(), sc.seed ^ 0x5EED);

        // Direction AtoB = client → server (connect order below).
        let mut link = LinkConfig::paper_default(sc.one_way_delay());
        link.loss = sc.loss_rule();
        if let Some(spec) = sc.impairment() {
            link = link.with_impairment(spec, sc.impairment_seed());
        }
        link = link.with_blackouts(timeline.blackouts.clone());
        net.connect(client_id, server_id, link);
        if let Some(at) = sc.migration.at {
            // Register the new path's link and schedule the route flip.
            // The jitter draw is per connection, so a load population
            // doesn't move in lockstep; migration-free runs create no
            // rng and schedule nothing, keeping them byte-identical.
            let mut rng = SimRng::derive(base.seed, &[MIGRATION_STREAM, i as u64]);
            let half = SimDuration::from_nanos(sc.migration.new_rtt.as_nanos() / 2);
            let mut mig_link = LinkConfig::paper_default(half);
            if let Some(spec) = sc.migration.impairment {
                mig_link = mig_link.with_impairment(spec, rng.next_u64());
            }
            mig_link = mig_link.with_blackouts(timeline.blackouts.clone());
            net.connect_path(client_id, server_id, MIGRATION_PATH, mig_link);
            let jitter =
                SimDuration::from_nanos(rng.gen_range(SimDuration::from_millis(1).as_nanos()));
            net.schedule_path_change(
                arrival + at + jitter,
                client_id,
                server_id,
                MIGRATION_PATH,
                sc.migration.deliberate,
            );
        }
        net.schedule_start(client_id, arrival);
        drive.spawned.push(Spawned {
            plan_idx: i,
            id: client_id,
            arrival,
            class: sc.handshake_class,
            body_bytes: sc.streams * sc.file_size,
            conn,
            status,
            ticket_rc,
        });
    }

    // A connection on the loop carries what it needs of its plan, and the
    // rest of the run is where the heap peaks: the plans go now (all but
    // the one whose scenario the full result describes).
    if !full {
        plans = Vec::new();
    }

    if full || (spec.overload == OverloadPolicy::Shed && base.faults.is_none()) {
        let _outcome = drive.net.run_until(end);
    } else {
        // Deferred admission and fault recovery both need the tail of
        // the run to keep making progress after the last arrival:
        // finished connections must leave the engine so Retry-deferred
        // clients (and reconnects) find a slot. Sweep on a fixed cadence
        // instead of once at the end. Fault-free `Shed` runs never take
        // this branch, keeping the legacy event stream byte-identical.
        let step = SimDuration::from_millis(250);
        while drive.net.now() < end {
            let next = (drive.net.now() + step).min(end);
            let outcome = drive.net.run_until(next);
            drive.sweep(false);
            if outcome == rq_sim::RunOutcome::QueueEmpty {
                // Nothing left to happen: no pending datagrams or
                // timers, so later sweeps could not observe anything new.
                break;
            }
        }
    }

    // Full detail is the aggregate path plus what only a kept trace and
    // kept logs can say: the connection retires like any other and hands
    // over its halves on the way out.
    let full = full.then(|| {
        let s = drive.spawned.pop().expect("the one plan was spawned");
        let st = *s.status.borrow();
        let peer = drive.control.borrow().outcome(s.id.index());
        let server = drive.retire(&s, st, peer);
        let outcome = drive.outcomes[s.plan_idx].as_ref().expect("just retired");
        let aborted = (st.close_code.is_some() || peer.closed) && st.complete_at.is_none();
        let server_log = server.map(|c| c.log).unwrap_or_default();
        let (sc, trace) = (&plans[s.plan_idx].scenario, &drive.net.trace);
        let result = full_result(&s, sc, outcome, aborted, trace, server_id, server_log);
        let ticket = s.ticket_rc.borrow_mut().take();
        (result, std::mem::take(&mut drive.net.trace), ticket)
    });
    drive.sweep(true);

    let mut metrics = rq_obs::Registry::default();
    drive.net.stats.export(&mut metrics);
    drive.engine.borrow().export_metrics(&mut metrics);
    drive.conn_totals.0.export(Role::Client, &mut metrics);
    drive.conn_totals.1.export(Role::Server, &mut metrics);

    let accounting = drive.engine.borrow().accounting;
    DriveOutput {
        outcomes: drive
            .outcomes
            .into_iter()
            .map(|o| o.expect("every plan produced an outcome"))
            .collect(),
        accounting,
        metrics,
        full,
    }
}

impl Drive {
    /// Retires finished (or expired) connections — all that are left on
    /// the `final_pass` — so memory tracks the *active* set.
    fn sweep(&mut self, final_pass: bool) {
        let now = self.net.now();
        let mut spawned = std::mem::take(&mut self.spawned);
        spawned.retain(|s| {
            let st = *s.status.borrow();
            let peer = self.control.borrow().outcome(s.id.index());
            let expired = now >= s.arrival + self.conn_deadline;
            let pending_reconnect = st.reconnect_pending && !expired && !final_pass;
            let over = final_pass || st.done() || peer.shed || peer.closed || expired;
            if pending_reconnect || !over {
                return true;
            }
            self.retire(s, st, peer);
            false
        });
        self.spawned = spawned;
    }

    /// Takes one connection off the loop: turns its status cell `st` and
    /// the server's word `peer` into its [`ConnOutcome`] (the one place
    /// the timing fields are derived), folds both halves' counters into
    /// the totals, tallies the engine, and removes the client node and
    /// the server-side connection — which it returns.
    fn retire(&mut self, s: &Spawned, st: ClientStatus, peer: PeerOutcome) -> Option<Connection> {
        let completed = st.complete_at.is_some();
        // Fate precedence: a served response trumps everything (however
        // bumpy the road); otherwise the *first* death wins — a give-up
        // after a crash-reset is still a Reset.
        let fate = if completed && peer.retried {
            ConnFate::RetriedThenAccepted
        } else if completed {
            ConnFate::Completed
        } else if st.close_code == Some(ERROR_GIVE_UP) {
            ConnFate::GaveUp
        } else if peer.reset {
            ConnFate::Reset
        } else if peer.shed {
            ConnFate::Shed
        } else {
            ConnFate::Failed
        };
        let start = st.hello_at.unwrap_or(s.arrival);
        let rel = |t: Option<SimTime>| t.map(|t| t.since(start).as_millis_f64());
        let (ttfb_ms, response_ms) = (rel(st.ttfb_at), rel(st.complete_at));
        let bits = s.body_bytes as f64 * 8.0;
        let key = s.id.index() as u64;
        let conn = s.conn.borrow();
        let client_stats = conn.stats();
        let server = self.engine.borrow_mut().retire(key, completed);
        let server_stats = server.as_ref().map(|c| c.stats()).unwrap_or_default();
        self.conn_totals.0.merge(&client_stats);
        self.conn_totals.1.merge(&server_stats);
        self.outcomes[s.plan_idx] = Some(ConnOutcome {
            index: s.plan_idx,
            arrival: s.arrival,
            class: s.class,
            fate,
            ttfb_ms,
            handshake_ms: rel(st.handshake_at),
            response_ms,
            download_complete_ms: ttfb_ms.zip(response_ms).map(|(first, last)| last - first),
            goodput_mbps: response_ms
                .filter(|ms| *ms > 0.0)
                .map(|ms| bits / (ms / 1000.0) / 1e6),
            resumed: conn.is_resumed(),
            early_data_accepted: conn.early_data_accepted(),
            reconnects: st.attempts,
            time_to_success_ms: st.complete_at.map(|t| t.since(s.arrival).as_millis_f64()),
            migrated: conn.active_path() != 0,
            pto_expirations: client_stats.pto_expirations,
            client_packets_lost: client_stats.packets_lost,
            server_packets_lost: server_stats.packets_lost,
        });
        self.net.retire_node(s.id);
        server
    }
}

/// Runs one server-load spec on a single shared event loop, returning
/// per-connection outcomes and the folded report.
pub fn run_server_load(spec: &ServerLoadSpec) -> ServerLoadRun {
    let plans = spec.plans();
    let resumption_active = plans
        .iter()
        .any(|p| p.scenario.handshake_class != HandshakeClass::Full);
    let out = drive_conn_plans(spec, plans, resumption_active, Detail::Aggregate);
    let mut report = ServerLoadReport {
        accounting: out.accounting,
        metrics: out.metrics,
        ..ServerLoadReport::default()
    };
    for o in &out.outcomes {
        report.record(o);
    }
    ServerLoadRun {
        outcomes: out.outcomes,
        report,
    }
}

/// Default arrivals per shard for [`run_server_load_sharded`].
pub const DEFAULT_SHARD_ARRIVALS: usize = 2048;

/// Shards a large arrival population into fixed-size independent server
/// replicas (seeded per shard), fans them over the runner, and merges
/// the shard reports **in shard order**. The shard size — not the
/// thread count — determines the work split, so the merged report is
/// byte-identical at every `REACKED_THREADS` value, and each shard's
/// memory is bounded by its own active connection set.
pub fn run_server_load_sharded(
    spec: &ServerLoadSpec,
    runner: &SweepRunner,
    shard_arrivals: usize,
) -> ServerLoadReport {
    let per = shard_arrivals.max(1);
    if spec.arrivals <= per {
        return run_server_load(spec).report;
    }
    let shards = spec.arrivals.div_ceil(per);
    let reports = runner.run(shards, |s| {
        let mut shard = spec.clone();
        shard.arrivals = per.min(spec.arrivals - s * per);
        shard.base.seed = SimRng::derive(spec.base.seed, &[SHARD_STREAM, s as u64]).next_u64();
        run_server_load(&shard).report
    });
    let mut total = ServerLoadReport::default();
    for r in &reports {
        total.merge(r);
    }
    total
}
