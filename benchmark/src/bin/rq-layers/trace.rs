//! The outside-in trace: spans around calls into each layer's public
//! functions, recorded from the benchmark's own files.
//!
//! For `handshake_matrix` and `bulk_transfer` each op's single-pair
//! topology is rebuilt from public pieces — exactly the steps
//! `run_scenario` takes for a full-handshake scenario — with each node
//! boxed in a [`TimedNode`]. Spans form the tree
//! `op ⊃ {testbed.build, sim.run ⊃ {client.*, server.*}, testbed.extract}`;
//! a span's self time is its duration minus its children's, so
//! `sim.run`'s self time is the engine itself (queue, links, impairment,
//! trace). Spans aggregate in memory by name, raw spans are kept for the
//! first [`RAW_CALLBACKS`] node callbacks, and everything is written out
//! when the run ends. Spans *inside* the program are a later issue.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use rq_benchmark::json::Json;
use rq_profiles::server::testbed_server;
use rq_quic::ConnStats;
use rq_sim::{
    Context, EngineStats, LinkConfig, Network, Node, NodeId, SimDuration, SimRng, SimTime,
};
use rq_testbed::nodes::milestones;
use rq_testbed::{ClientNode, Scenario, ServerNode};

/// Raw spans are kept until this many node callbacks have been seen.
pub const RAW_CALLBACKS: usize = 10_000;

/// Span names. The discriminant indexes the aggregate table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    Op,
    Build,
    Run,
    Extract,
    ClientStart,
    ClientDatagram,
    ClientTimer,
    ServerStart,
    ServerDatagram,
    ServerTimer,
    // Public calls of the workloads that cannot be opened from outside.
    Plans,
    RunServerLoad,
    ReportMerge,
    Synthesize,
    ScanWith,
    ExportMetrics,
    SweepMap,
}

impl SpanName {
    pub const ALL: [SpanName; 17] = [
        SpanName::Op,
        SpanName::Build,
        SpanName::Run,
        SpanName::Extract,
        SpanName::ClientStart,
        SpanName::ClientDatagram,
        SpanName::ClientTimer,
        SpanName::ServerStart,
        SpanName::ServerDatagram,
        SpanName::ServerTimer,
        SpanName::Plans,
        SpanName::RunServerLoad,
        SpanName::ReportMerge,
        SpanName::Synthesize,
        SpanName::ScanWith,
        SpanName::ExportMetrics,
        SpanName::SweepMap,
    ];

    pub fn label(self) -> &'static str {
        match self {
            SpanName::Op => "op",
            SpanName::Build => "testbed.build",
            SpanName::Run => "sim.run",
            SpanName::Extract => "testbed.extract",
            SpanName::ClientStart => "client.on_start",
            SpanName::ClientDatagram => "client.on_datagram",
            SpanName::ClientTimer => "client.on_timer",
            SpanName::ServerStart => "server.on_start",
            SpanName::ServerDatagram => "server.on_datagram",
            SpanName::ServerTimer => "server.on_timer",
            SpanName::Plans => "testbed.plans",
            SpanName::RunServerLoad => "testbed.run_server_load",
            SpanName::ReportMerge => "testbed.report_merge",
            SpanName::Synthesize => "wild.synthesize",
            SpanName::ScanWith => "wild.scan_with",
            SpanName::ExportMetrics => "wild.export_metrics",
            SpanName::SweepMap => "par.sweep_map",
        }
    }

    fn is_callback(self) -> bool {
        (SpanName::ClientStart as u8..=SpanName::ServerTimer as u8).contains(&(self as u8))
    }
}

/// One recorded span. `parent` indexes the raw span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u32,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: SpanName,
    start_ns: u64,
    child_ns: u64,
    raw: Option<u32>,
}

/// Collects spans. All storage is sized up front, so recording never
/// allocates inside a measured op.
pub struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    callbacks: usize,
    op_id: u32,
    pub raw: Vec<Span>,
    pub aggregates: [Aggregate; SpanName::ALL.len()],
    /// Duration of every `op` span, in op order.
    pub op_ns: Vec<u64>,
    /// Duration of every `sim.run` span, in op order.
    pub run_ns: Vec<u64>,
}

impl Tracer {
    pub fn new(ops: usize) -> Rc<RefCell<Tracer>> {
        Rc::new(RefCell::new(Tracer {
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            callbacks: 0,
            op_id: 0,
            // Callbacks plus their ops' structural spans.
            raw: Vec::with_capacity(RAW_CALLBACKS + 4 * ops.min(RAW_CALLBACKS) + 8),
            aggregates: Default::default(),
            op_ns: Vec::with_capacity(ops),
            run_ns: Vec::with_capacity(ops),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: SpanName) {
        let recording = self.callbacks < RAW_CALLBACKS && self.raw.len() < self.raw.capacity();
        if name.is_callback() {
            self.callbacks += 1;
        }
        let raw = recording.then(|| {
            self.raw.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().and_then(|p| p.raw),
                op_id: self.op_id,
            });
            (self.raw.len() - 1) as u32
        });
        // Read the clock last, so bookkeeping lands in the parent.
        let start_ns = self.now_ns();
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            raw,
        });
    }

    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without enter");
        let dur = end_ns - open.start_ns;
        let agg = &mut self.aggregates[open.name as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.raw {
            let span = &mut self.raw[i as usize];
            span.start_ns = open.start_ns;
            span.end_ns = end_ns;
        }
        match open.name {
            SpanName::Op => {
                self.op_ns.push(dur);
                self.op_id += 1;
            }
            SpanName::Run => self.run_ns.push(dur),
            _ => {}
        }
    }

    pub fn get(&self, name: SpanName) -> Aggregate {
        self.aggregates[name as usize]
    }

    /// Share of `op` time covered by named spans other than `op`
    /// itself, in percent.
    pub fn attributed_pct(&self) -> f64 {
        let op = self.get(SpanName::Op);
        if op.total_ns == 0 {
            return 0.0;
        }
        100.0 * (op.total_ns - op.self_ns) as f64 / op.total_ns as f64
    }

    /// Aggregates and raw spans, for `out/trace-<workload>.json`.
    pub fn to_json(&self) -> Json {
        let used = SpanName::ALL
            .iter()
            .filter(|&&name| self.get(name).count > 0);
        let aggregates = used.map(|&name| {
            let a = self.get(name);
            (
                name.label(),
                Json::obj([
                    ("count", Json::Num(a.count as f64)),
                    ("total_ns", Json::Num(a.total_ns as f64)),
                    ("self_ns", Json::Num(a.self_ns as f64)),
                ]),
            )
        });
        let raw = self.raw.iter().map(|s| {
            Json::obj([
                ("name", Json::str(s.name.label())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("op_id", Json::Num(s.op_id as f64)),
            ])
        });
        Json::obj([
            ("spans", Json::obj(aggregates)),
            ("raw_spans", Json::Arr(raw.collect())),
        ])
    }
}

/// A node whose callbacks are timed from outside.
pub struct TimedNode<N: Node> {
    inner: N,
    tracer: Rc<RefCell<Tracer>>,
    /// Span names for `on_start`, `on_datagram`, `on_timer`.
    names: [SpanName; 3],
}

/// Callback span names of the client and the server node.
pub const CLIENT_SPANS: [SpanName; 3] = [
    SpanName::ClientStart,
    SpanName::ClientDatagram,
    SpanName::ClientTimer,
];
pub const SERVER_SPANS: [SpanName; 3] = [
    SpanName::ServerStart,
    SpanName::ServerDatagram,
    SpanName::ServerTimer,
];

impl<N: Node> Node for TimedNode<N> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.tracer.borrow_mut().enter(self.names[0]);
        self.inner.on_start(ctx);
        self.tracer.borrow_mut().exit();
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &[u8]) {
        self.tracer.borrow_mut().enter(self.names[1]);
        self.inner.on_datagram(ctx, from, payload);
        self.tracer.borrow_mut().exit();
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.tracer.borrow_mut().enter(self.names[2]);
        self.inner.on_timer(ctx, token);
        self.tracer.borrow_mut().exit();
    }

    // No traced workload schedules a path change.
    fn on_path_change(&mut self, ctx: &mut Context<'_>, path: u64) {
        self.inner.on_path_change(ctx, path);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// What a traced op observed — the simulated statistics the fidelity
/// test compares with `run_scenario`, plus the layer counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TracedOutcome {
    pub ttfb_ms: Option<f64>,
    pub response_ms: Option<f64>,
    pub client_datagrams: usize,
    pub server_datagrams: usize,
    pub engine: EngineStats,
    pub client: ConnStats,
    pub server: ConnStats,
    pub qlog_events: usize,
}

/// Boxes `node`, inside a [`TimedNode`] when there is a tracer.
fn boxed<N: Node + 'static>(
    node: N,
    tracer: Option<&Rc<RefCell<Tracer>>>,
    names: [SpanName; 3],
) -> Box<dyn Node> {
    match tracer {
        Some(tracer) => Box::new(TimedNode {
            inner: node,
            tracer: Rc::clone(tracer),
            names,
        }),
        None => Box::new(node),
    }
}

/// Runs one full-handshake scenario on the rebuilt topology, recording
/// spans into `tracer`. Mirrors `run_scenario`'s single-pair path step
/// by step (server config, seed derivations, link, start order and the
/// 120 s horizon); `tests::rebuilt_topology_matches_run_scenario` holds
/// it to that. With no tracer the same topology runs bare — the
/// like-for-like baseline the tracing overhead is taken against.
pub fn traced_op(sc: &Scenario, tracer: Option<&Rc<RefCell<Tracer>>>) -> TracedOutcome {
    let enter = |name| {
        if let Some(t) = tracer {
            t.borrow_mut().enter(name);
        }
    };
    let exit = || {
        if let Some(t) = tracer {
            t.borrow_mut().exit();
        }
    };
    enter(SpanName::Op);

    enter(SpanName::Build);
    let mut net = Network::new(sc.capture_payloads);
    let mut server_cfg = testbed_server(sc.ack_mode, sc.cert_len);
    server_cfg.cc_algorithm = sc.cc;
    server_cfg.cid_pool = sc.migration.cid_pool;
    server_cfg.metrics_sample_every = sc.metrics_sample_every;
    if let Some(pto) = sc.server_default_pto {
        server_cfg.default_pto = pto;
    }
    let server = ServerNode::new(server_cfg, sc.http, sc.cert_delay, sc.seed);
    let engine = Rc::clone(&server.engine);
    let control = Rc::clone(&server.control);
    let server_id = net.add_node(boxed(server, tracer, SERVER_SPANS));
    net.prime();

    // The client-seed, RTT-quirk and per-connection server-seed
    // derivations of the many-connection driver's N = 1 case.
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
    client_cfg.give_up_after = sc.faults.give_up_after;
    client_cfg.give_up_pto_count = sc.faults.give_up_pto_count;
    client_cfg.cid_pool = sc.migration.cid_pool;
    client_cfg.metrics_sample_every = sc.metrics_sample_every;
    let client = ClientNode::new(
        client_cfg,
        server_id,
        sc.http,
        sc.file_size,
        sc.seed.wrapping_mul(2654435761).wrapping_add(1),
        rtt_quirk_applies,
    )
    .with_streams(sc.streams);
    let conn = Rc::clone(&client.conn);
    let client_id = net.add_node(boxed(client, tracer, CLIENT_SPANS));
    control
        .borrow_mut()
        .conn_seeds
        .insert(client_id.index(), sc.seed ^ 0x5EED);
    let mut link = LinkConfig::paper_default(sc.one_way_delay());
    link.loss = sc.loss_rule();
    if let Some(spec) = sc.impairment() {
        link = link.with_impairment(spec, sc.impairment_seed());
    }
    net.connect(client_id, server_id, link);
    net.schedule_start(client_id, SimTime::ZERO);
    exit();

    enter(SpanName::Run);
    net.run_until(SimTime::ZERO + SimDuration::from_secs(120));
    exit();

    enter(SpanName::Extract);
    let started = net.trace.first_by(client_id, milestones::CLIENT_HELLO_SENT);
    let rel = |label: &str| {
        let at = net.trace.first_by(client_id, label)?;
        Some(at.since(started?).as_millis_f64())
    };
    let key = client_id.index() as u64;
    let (server_stats, server_events) = engine
        .borrow_mut()
        .conn_mut(key)
        .map(|c| (c.stats(), c.log.events.len()))
        .unwrap_or_default();
    let client_conn = conn.borrow();
    let outcome = TracedOutcome {
        ttfb_ms: rel(milestones::TTFB),
        response_ms: rel(milestones::RESPONSE_COMPLETE),
        client_datagrams: net.trace.sent_count(client_id, server_id),
        server_datagrams: net.trace.sent_count(server_id, client_id),
        engine: net.stats,
        client: client_conn.stats(),
        server: server_stats,
        qlog_events: client_conn.log.events.len() + server_events,
    };
    drop(client_conn);
    drop(net);
    exit();

    exit();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_benchmark::workloads::{build, Inputs, Workload};
    use rq_testbed::run_scenario;

    fn assert_same_program(sc: &Scenario) {
        let tracer = Tracer::new(1);
        let traced = traced_op(sc, Some(&tracer));
        assert_eq!(
            traced_op(sc, None),
            traced,
            "tracing observes, never alters"
        );
        let reference = run_scenario(sc);
        let label = sc.label();
        assert_eq!(traced.ttfb_ms, reference.ttfb_ms, "{label}");
        assert_eq!(traced.response_ms, reference.response_ms, "{label}");
        assert_eq!(
            traced.client_datagrams, reference.client_datagrams,
            "{label}"
        );
        assert_eq!(
            traced.server_datagrams, reference.server_datagrams,
            "{label}"
        );
        assert_eq!(
            traced.engine.events_processed,
            reference.metrics.counter("sim/events/processed"),
            "{label}"
        );
        assert_eq!(
            traced.qlog_events,
            reference.client_log.events.len() + reference.server_log.events.len(),
            "{label}"
        );
    }

    /// Otherwise the trace measures a different program.
    #[test]
    fn rebuilt_topology_matches_run_scenario() {
        let Inputs::Scenarios(jobs) = build(Workload::HandshakeMatrix, 1, false) else {
            panic!("scenario workload");
        };
        // One repetition of every cell (reps differ only in seed).
        for sc in jobs.iter().step_by(2) {
            assert_same_program(sc);
        }
        let Inputs::Scenarios(bulk) = build(Workload::BulkTransfer, 1, false) else {
            panic!("scenario workload");
        };
        for mut sc in bulk {
            sc.file_size = sc.file_size.min(128 * 1024);
            assert_same_program(&sc);
        }
    }

    #[test]
    fn self_times_partition_the_op() {
        let Inputs::Scenarios(jobs) = build(Workload::HandshakeMatrix, 1, true) else {
            panic!("scenario workload");
        };
        let tracer = Tracer::new(jobs.len());
        for sc in &jobs {
            traced_op(sc, Some(&tracer));
        }
        let t = tracer.borrow();
        assert_eq!(t.op_ns.len(), jobs.len());
        assert_eq!(t.run_ns.len(), jobs.len());
        let self_sum: u64 = t.aggregates.iter().map(|a| a.self_ns).sum();
        assert_eq!(
            self_sum,
            t.get(SpanName::Op).total_ns,
            "self times sum to 100 %"
        );
        assert!(t.attributed_pct() > 90.0, "{}", t.attributed_pct());
        // Raw spans nest: a callback's parent is its op's sim.run.
        let cb = t
            .raw
            .iter()
            .find(|s| s.name == SpanName::ClientDatagram)
            .unwrap();
        let parent = t.raw[cb.parent.unwrap() as usize];
        assert_eq!(parent.name, SpanName::Run);
        assert_eq!(parent.op_id, cb.op_id);
        assert!(parent.start_ns <= cb.start_ns && cb.end_ns <= parent.end_ns);
    }
}
