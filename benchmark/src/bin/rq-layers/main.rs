//! Traced runs and per-layer kernels: every layer measured from outside,
//! by timing calls into its public functions.
//!
//! ```text
//! rq-layers --workload <name> --seed <n>     # traced run + kernels
//! rq-layers --describe                       # the per-layer metric list
//! ```
//!
//! A run has two parts, kept apart from the end-to-end runs so tracing
//! cost never lands in them. The *traced section* runs the workload's
//! own inputs: untraced passes first (the baseline the tracing overhead
//! is taken against, and the source of the layer counters the runs
//! export), then traced passes. `handshake_matrix` and `bulk_transfer`
//! are opened up with `TimedNode` (see `trace.rs`); `server_load`,
//! `wild_scan` and `matrix_par2` cannot be (`drive_conn_plans` is
//! crate-private), so their traced passes time the public calls and read
//! the counts the reports already export. The *kernels* (`kernels.rs`,
//! `pump.rs`) use fixed inputs and are the same on every workload.
//!
//! Every metric in [`PER_LAYER`] is printed on every workload. A
//! workload-specific metric reads 0 where the workload never runs that
//! layer (`sim.*` on `wild_scan`) or cannot be opened from outside
//! (callback times on `server_load` and `matrix_par2`).

mod kernels;
mod pump;
mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use rq_benchmark::alloc::CountingAlloc;
use rq_benchmark::harness::{self, quartiles, Metric};
use rq_benchmark::json::Json;
use rq_benchmark::workloads::{self, Inputs, Workload};
use rq_benchmark::Args;
use rq_obs::Registry;
use rq_qlog::{EventData, EventLog};
use rq_sim::SimRng;
use rq_testbed::{
    percentile, run_scenario, run_server_load, ConnFate, ProfileSink, Scenario, ServerLoadReport,
    ServerLoadSpec, SweepRunner,
};
use rq_wild::{scan_with, Population, VANTAGES};

use trace::{traced_op, SpanName, Tracer, CLIENT_SPANS, SERVER_SPANS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Every per-layer metric: `(name, unit, higher is better)`. The prefix
/// is the layer (crate) it belongs to. `BENCHMARK.json` lists exactly
/// these; README.md says which end-to-end metric each should move.
const PER_LAYER: &[(&str, &str, bool)] = &[
    ("harness.passes", "count", true),
    ("harness.pass_s_p50", "s", false),
    ("harness.pass_s_spread", "ratio", false),
    ("harness.trace_overhead_pct", "%", false),
    ("harness.attributed_pct", "%", true),
    ("testbed.us_per_handshake", "us", false),
    ("testbed.op_us_p50", "us", false),
    ("testbed.op_us_p99", "us", false),
    ("testbed.overhead_us", "us", false),
    ("testbed.us_per_kib.256k", "us", false),
    ("testbed.us_per_kib.2m", "us", false),
    ("testbed.us_per_kib.10m", "us", false),
    ("testbed.kib_scaling", "ratio", false),
    ("testbed.us_per_conn.shallow", "us", false),
    ("testbed.us_per_conn.deep", "us", false),
    ("testbed.conn_scaling", "ratio", false),
    ("testbed.plans_us_per_conn", "us", false),
    ("sim.events_per_op", "count", false),
    ("sim.self_us_per_event", "us", false),
    ("sim.self_pct", "%", false),
    ("sim.events_per_datagram", "count", false),
    ("sim.timer_events_per_op", "count", false),
    ("sim.stale_events_per_op", "count", false),
    ("sim.queue_depth_peak", "count", false),
    ("sim.engine_ns_per_event.d2", "ns", false),
    ("sim.engine_ns_per_event.d10k", "ns", false),
    ("sim.rng_derive_ns", "ns", false),
    ("quic.client_us_per_op", "us", false),
    ("quic.server_us_per_op", "us", false),
    ("quic.client_us_per_kib", "us", false),
    ("quic.server_us_per_kib", "us", false),
    ("quic.datagram_cb_us", "us", false),
    ("quic.timer_cb_us", "us", false),
    ("quic.streams.take_us.256k", "us", false),
    ("quic.streams.take_us.5m", "us", false),
    ("quic.streams.take_scaling", "ratio", false),
    ("quic.streams.on_frame_us.inorder", "us", false),
    ("quic.streams.on_frame_us.reverse", "us", false),
    ("quic.space.on_packet_ns.1k", "ns", false),
    ("quic.space.on_packet_ns.10k", "ns", false),
    ("quic.packets_sealed_per_op", "count", false),
    ("quic.packets_opened_per_op", "count", false),
    ("quic.lost_per_sealed", "ratio", false),
    ("quic.pto_per_op", "count", false),
    ("quic.amp_stalls_per_op", "count", false),
    ("quic.retry_deferred_per_op", "count", false),
    ("quic.pump.poll_transmit_us.hs", "us", false),
    ("quic.pump.handle_datagram_us.hs", "us", false),
    ("quic.pump.poll_transmit_us.1m", "us", false),
    ("quic.pump.handle_datagram_us.1m", "us", false),
    ("quic.pump.us_per_kib.1m", "us", false),
    ("tls.seal_tag_us.1200", "us", false),
    ("tls.seal_tag_us.40", "us", false),
    ("tls.verify_tag_us.1200", "us", false),
    ("tls.sha256_mib_per_s", "MiB/s", true),
    ("tls.handshake_us.small", "us", false),
    ("tls.handshake_us.large", "us", false),
    ("tls.mint_ticket_us", "us", false),
    ("tls.open_ticket_us", "us", false),
    ("tls.tag_share_pct", "%", false),
    ("wire.encode_us.short1200", "us", false),
    ("wire.decode_us.short1200", "us", false),
    ("wire.encode_us.initial", "us", false),
    ("wire.decode_us.initial", "us", false),
    ("wire.classify_us", "us", false),
    ("wire.coalesce_us", "us", false),
    ("recovery.sent_cycle_ns.w10", "ns", false),
    ("recovery.sent_cycle_ns.w1000", "ns", false),
    ("recovery.detect_lost_us.w1000", "us", false),
    ("recovery.cc_on_ack_ns.newreno", "ns", false),
    ("recovery.cc_on_ack_ns.cubic", "ns", false),
    ("recovery.cc_on_ack_ns.bbr", "ns", false),
    ("qlog.events_per_op", "count", false),
    ("qlog.push_ns", "ns", false),
    ("qlog.clone_us.18k", "us", false),
    ("qlog.to_json_mib_per_s", "MiB/s", true),
    ("par.speedup_t2", "ratio", true),
    ("par.dispatch_ns_per_task", "ns", false),
    ("par.busy_pct", "%", true),
    ("par.idle_pct", "%", false),
    ("par.claim_pct", "%", false),
    ("par.merge_pct", "%", false),
    ("wild.ns_per_probe", "ns", false),
    ("wild.probe_kernel_ns", "ns", false),
    ("wild.synthesize_s", "s", false),
    ("wild.allocs_per_shard", "count", false),
    ("obs.registry_merge_us", "us", false),
    ("obs.registry_render_us", "us", false),
    ("http.request_encode_ns", "ns", false),
];

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// What the traced section of one workload measured.
#[derive(Default)]
struct Section {
    /// Workload-specific metric values by name; absent means 0.
    values: BTreeMap<&'static str, f64>,
    /// Host seconds of each untraced pass.
    untraced_s: Vec<f64>,
    /// Host seconds of each traced pass, and of the same calls made
    /// without tracing (the untraced passes, unless set otherwise).
    traced_s: Vec<f64>,
    bare_s: Vec<f64>,
    ops: u64,
    failed: u64,
    /// Packets one pass tagged and their bytes, as its qlogs record them
    /// (none where the workload keeps no qlog).
    tagged: (u64, u64),
    /// Host seconds inside the ops of each untraced pass (none where
    /// ops cannot be told apart from outside).
    op_busy_s: Vec<f64>,
    /// The traced pass observed other simulated counts than the
    /// untraced one: the trace measured a different program.
    diverged: bool,
    /// Goes into `out/trace-<workload>.json` beside the spans.
    extra: Vec<(&'static str, Json)>,
}

impl Section {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Per-op host time, p50 and p99 over `op_us` (n = its length).
    fn set_op_times(&mut self, op_us: &[f64]) {
        self.set("testbed.op_us_p50", percentile(op_us, 50.0).unwrap_or(0.0));
        self.set("testbed.op_us_p99", percentile(op_us, 99.0).unwrap_or(0.0));
    }

    /// The layer counters a run's `metrics` registry exports, per op.
    fn set_counts(&mut self, reg: &Registry, ops: f64) {
        let c = |name: &str| reg.counter(name) as f64;
        let both =
            |what: &str| c(&format!("quic/client/{what}")) + c(&format!("quic/server/{what}"));
        let spaces = |what: &str| {
            ["initial", "handshake", "app"]
                .iter()
                .map(|space| both(&format!("{what}/{space}")))
                .sum::<f64>()
        };
        let events = c("sim/events/processed");
        let sealed = spaces("packets_sealed");
        let depth = match reg.get("sim/queue_depth") {
            Some(rq_obs::Metric::Gauge { peak, .. }) => *peak as f64,
            _ => 0.0,
        };
        self.set("sim.events_per_op", events / ops);
        self.set(
            "sim.events_per_datagram",
            ratio(
                events,
                c("sim/datagrams/forwarded") + c("sim/datagrams/dropped"),
            ),
        );
        self.set("sim.timer_events_per_op", c("sim/events/timer") / ops);
        self.set("sim.stale_events_per_op", c("sim/events/stale") / ops);
        self.set("sim.queue_depth_peak", depth);
        self.set("quic.packets_sealed_per_op", sealed / ops);
        self.set("quic.packets_opened_per_op", spaces("packets_opened") / ops);
        self.set("quic.lost_per_sealed", ratio(both("packets_lost"), sealed));
        self.set("quic.pto_per_op", both("pto_expirations") / ops);
        self.set("quic.amp_stalls_per_op", both("amp_stalls") / ops);
        self.set(
            "quic.retry_deferred_per_op",
            c("server/retry_deferred") / ops,
        );
    }
}

/// Counters and gauge peaks of a registry, for the trace file.
fn registry_json(reg: &Registry) -> Json {
    Json::obj(reg.iter().filter_map(|(name, metric)| match metric {
        rq_obs::Metric::Counter(v) => Some((name, Json::Num(*v as f64))),
        rq_obs::Metric::Gauge { peak, .. } => Some((name, Json::Num(*peak as f64))),
        rq_obs::Metric::Histogram(_) => None,
    }))
}

/// What one untraced `run_scenario` op hands back to the section.
struct Observed {
    secs: f64,
    metrics: Registry,
    qlog_events: usize,
    /// Packets sealed or opened, and their wire bytes, per both qlogs.
    tagged: (u64, u64),
    failed: bool,
}

fn tagged_packets(log: &EventLog) -> (u64, u64) {
    let sizes = log.events.iter().filter_map(|e| match &e.data {
        EventData::PacketSent { size, .. } | EventData::PacketReceived { size, .. } => Some(*size),
        _ => None,
    });
    sizes.fold((0, 0), |(n, bytes), size| (n + 1, bytes + size as u64))
}

fn observe(sc: &Scenario) -> Observed {
    let t = Instant::now();
    let r = run_scenario(sc);
    let secs = t.elapsed().as_secs_f64();
    let (client, server) = (tagged_packets(&r.client_log), tagged_packets(&r.server_log));
    Observed {
        secs,
        qlog_events: r.client_log.events.len() + r.server_log.events.len(),
        tagged: (client.0 + server.0, client.1 + server.1),
        failed: !r.completed && !r.aborted,
        metrics: r.metrics,
    }
}

/// Folds one untraced pass's observations into the section (counts come
/// from the first pass; they repeat exactly). Returns per-op seconds.
fn absorb(section: &mut Section, pass: Vec<Observed>, first: bool) -> Vec<f64> {
    if first {
        let mut total = Registry::new();
        for o in &pass {
            total.merge(&o.metrics);
        }
        let ops = pass.len() as f64;
        section.ops = pass.len() as u64;
        section.failed = pass.iter().filter(|o| o.failed).count() as u64;
        section.set_counts(&total, ops);
        let events: usize = pass.iter().map(|o| o.qlog_events).sum();
        section.set("qlog.events_per_op", events as f64 / ops);
        section.tagged = pass
            .iter()
            .fold((0, 0), |(n, bytes), o| (n + o.tagged.0, bytes + o.tagged.1));
        section.extra.push(("counts", registry_json(&total)));
    }
    let secs: Vec<f64> = pass.into_iter().map(|o| o.secs).collect();
    section.op_busy_s.push(secs.iter().sum());
    secs
}

fn per_op_min(passes: &[Vec<f64>]) -> Vec<f64> {
    (0..passes[0].len())
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::MAX, f64::min))
        .collect()
}

/// `handshake_matrix` / `bulk_transfer`: each op re-run on the rebuilt
/// `TimedNode` topology.
fn traced_scenarios(jobs: &[Scenario], passes: usize) -> (Section, Rc<RefCell<Tracer>>) {
    let mut section = Section::default();
    let mut untraced: Vec<Vec<f64>> = Vec::new();
    for p in 0..passes {
        let pass: Vec<Observed> = jobs.iter().map(observe).collect();
        untraced.push(absorb(&mut section, pass, p == 0));
    }
    section.untraced_s = untraced.iter().map(|p| p.iter().sum()).collect();

    // The rebuilt topology, bare: what the traced passes are held against.
    let bare_s: Vec<f64> = (0..passes)
        .map(|_| {
            let t = Instant::now();
            for sc in jobs {
                std::hint::black_box(traced_op(sc, None));
            }
            t.elapsed().as_secs_f64()
        })
        .collect();

    let n = jobs.len();
    let tracer = Tracer::new(n * passes);
    let mut traced_events = 0;
    for p in 0..passes {
        for sc in jobs {
            let outcome = traced_op(sc, Some(&tracer));
            if p == 0 {
                traced_events += outcome.engine.events_processed;
            }
        }
    }
    let t = tracer.borrow();
    section.diverged =
        traced_events as f64 != (section.values["sim.events_per_op"] * n as f64).round();
    let secs = |ns: &[u64]| -> Vec<Vec<f64>> {
        ns.chunks(n)
            .map(|pass| pass.iter().map(|&ns| ns as f64 / 1e9).collect())
            .collect()
    };
    let (traced_op_s, traced_run_s) = (secs(&t.op_ns), secs(&t.run_ns));
    section.traced_s = traced_op_s.iter().map(|p| p.iter().sum()).collect();
    section.bare_s = bare_s;
    section.set("harness.attributed_pct", t.attributed_pct());

    let best = per_op_min(&untraced);
    // run_scenario minus the traced sim.run span of the same op: set-up,
    // result extraction and registry export.
    let overhead: f64 = best
        .iter()
        .zip(per_op_min(&traced_run_s))
        .map(|(whole, run)| whole - run)
        .sum();
    section.set("testbed.overhead_us", overhead * 1e6 / n as f64);
    section.set_op_times(&best.iter().map(|s| s * 1e6).collect::<Vec<_>>());

    let traced_ops = (n * passes) as f64;
    let kib: f64 = jobs
        .iter()
        .map(|sc| (sc.streams * sc.file_size) as f64 / 1024.0)
        .sum::<f64>()
        * passes as f64;
    let total_us =
        |names: &[SpanName]| names.iter().map(|&s| t.get(s).total_ns).sum::<u64>() as f64 / 1e3;
    let calls = |names: &[SpanName]| names.iter().map(|&s| t.get(s).count).sum::<u64>() as f64;
    let (client, server) = (CLIENT_SPANS, SERVER_SPANS);
    let datagram = [SpanName::ClientDatagram, SpanName::ServerDatagram];
    let timer = [SpanName::ClientTimer, SpanName::ServerTimer];
    let run = t.get(SpanName::Run);
    let events = section.values["sim.events_per_op"] * traced_ops;
    section.set(
        "sim.self_us_per_event",
        ratio(run.self_ns as f64 / 1e3, events),
    );
    section.set(
        "sim.self_pct",
        100.0 * ratio(run.self_ns as f64, t.get(SpanName::Op).total_ns as f64),
    );
    section.set("quic.client_us_per_op", total_us(&client) / traced_ops);
    section.set("quic.server_us_per_op", total_us(&server) / traced_ops);
    section.set("quic.client_us_per_kib", total_us(&client) / kib);
    section.set("quic.server_us_per_kib", total_us(&server) / kib);
    section.set(
        "quic.datagram_cb_us",
        ratio(total_us(&datagram), calls(&datagram)),
    );
    section.set("quic.timer_cb_us", ratio(total_us(&timer), calls(&timer)));
    drop(t);
    (section, tracer)
}

/// `matrix_par2`: the pool cannot be opened, so the traced passes run
/// under the sweep profiler and time `SweepRunner::map` itself.
fn profiled_matrix(
    jobs: &[Scenario],
    workers: usize,
    passes: usize,
) -> (Section, Rc<RefCell<Tracer>>) {
    let mut section = Section::default();
    let runner = SweepRunner::new(workers);
    let mut per_op: Vec<Vec<f64>> = Vec::new();
    for p in 0..passes {
        let t = Instant::now();
        let pass = runner.map(jobs, observe);
        section.untraced_s.push(t.elapsed().as_secs_f64());
        per_op.push(absorb(&mut section, pass, p == 0));
    }
    section.set_op_times(
        &per_op_min(&per_op)
            .iter()
            .map(|s| s * 1e6)
            .collect::<Vec<_>>(),
    );

    let sink = Arc::new(ProfileSink::new());
    let profiled = runner.clone().with_profile(Arc::clone(&sink));
    let tracer = Tracer::new(passes);
    for _ in 0..passes {
        tracer.borrow_mut().enter(SpanName::Op);
        tracer.borrow_mut().enter(SpanName::SweepMap);
        std::hint::black_box(profiled.map(jobs, workloads::scenario_op));
        tracer.borrow_mut().exit();
        tracer.borrow_mut().exit();
    }
    let t = tracer.borrow();
    section.traced_s = t.op_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
    let report = sink.report();
    section.set("harness.attributed_pct", 100.0 * report.attributed_share());
    let ns = |v: u64| Json::Num(v as f64);
    section.extra.push((
        "sweep_profile",
        Json::obj([
            ("workers", Json::Num(workers as f64)),
            ("worker_wall_ns", ns(report.worker_wall_ns)),
            ("busy_ns", ns(report.busy_ns)),
            ("claim_ns", ns(report.claim_ns)),
            ("merge_ns", ns(report.merge_ns)),
            ("idle_ns", ns(report.idle_ns)),
            ("claims", ns(report.claims)),
        ]),
    ));
    drop(t);
    (section, tracer)
}

/// `server_load`: times `plans`, `run_server_load` and `report.merge`.
fn timed_load(specs: &[ServerLoadSpec]) -> (Section, Rc<RefCell<Tracer>>) {
    let mut section = Section::default();
    let t = Instant::now();
    for spec in specs {
        std::hint::black_box(run_server_load(spec));
    }
    section.untraced_s.push(t.elapsed().as_secs_f64());

    let tracer = Tracer::new(1);
    let enter = |name| tracer.borrow_mut().enter(name);
    let exit = || tracer.borrow_mut().exit();
    let mut total = ServerLoadReport::default();
    enter(SpanName::Op);
    for spec in specs {
        enter(SpanName::Plans);
        std::hint::black_box(spec.plans());
        exit();
        enter(SpanName::RunServerLoad);
        let run = run_server_load(spec);
        exit();
        section.failed += run
            .outcomes
            .iter()
            .filter(|o| o.fate == ConnFate::Failed)
            .count() as u64;
        enter(SpanName::ReportMerge);
        total.merge(&run.report);
        exit();
    }
    exit();
    let t = tracer.borrow();
    section.ops = specs.iter().map(|s| s.arrivals as u64).sum();
    section.diverged = total.fates.total() != section.ops;
    section
        .traced_s
        .push(t.get(SpanName::RunServerLoad).total_ns as f64 / 1e9);
    section.set("harness.attributed_pct", t.attributed_pct());
    section.set_counts(&total.metrics, section.ops as f64);
    // Connections interleave on one event loop: only the mean is
    // observable from outside.
    let mean_us = section.untraced_s[0] * 1e6 / section.ops as f64;
    section.set_op_times(&[mean_us]);
    section
        .extra
        .push(("counts", registry_json(&total.metrics)));
    drop(t);
    (section, tracer)
}

/// `wild_scan`: times `synthesize`, `scan_with` and the report's export.
fn timed_scan(
    population: &Population,
    scan_seed: u64,
    passes: usize,
) -> (Section, Rc<RefCell<Tracer>>) {
    let mut section = Section::default();
    let runner = SweepRunner::new(1);
    let reps = workloads::SCAN_REPS;
    for _ in 0..passes {
        let t = Instant::now();
        std::hint::black_box(scan_with(population, reps, scan_seed, &runner));
        section.untraced_s.push(t.elapsed().as_secs_f64());
    }

    let tracer = Tracer::new(1);
    let enter = |name| tracer.borrow_mut().enter(name);
    let exit = || tracer.borrow_mut().exit();
    let mut exported = Registry::new();
    enter(SpanName::Op);
    enter(SpanName::Synthesize);
    std::hint::black_box(Population::synthesize(
        population.len(),
        &mut SimRng::new(scan_seed),
    ));
    exit();
    enter(SpanName::ScanWith);
    let report = scan_with(population, reps, scan_seed, &runner);
    exit();
    enter(SpanName::ExportMetrics);
    report.export_metrics("wild/", &mut exported);
    exit();
    exit();

    let t = tracer.borrow();
    section.ops = (population.len() * VANTAGES.len() * reps) as u64;
    section
        .traced_s
        .push(t.get(SpanName::ScanWith).total_ns as f64 / 1e9);
    section.set("harness.attributed_pct", t.attributed_pct());
    let best = section.untraced_s.iter().copied().fold(f64::MAX, f64::min);
    section.set_op_times(&[best * 1e6 / section.ops as f64]);
    section.extra.push(("counts", registry_json(&exported)));
    drop(t);
    (section, tracer)
}

fn describe() {
    for (name, unit, higher) in PER_LAYER {
        let better = if *higher { "higher" } else { "lower" };
        println!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}},");
    }
}

fn real_main() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1), &["describe"], &[])?;
    if args.has("describe") {
        describe();
        return Ok(true);
    }
    let workload = args.workload()?;
    let seed: u64 = args.get("seed", 1)?;
    let nproc = harness::nproc();
    let workers = workload.workers().min(nproc);
    let started = Instant::now();

    let inputs = workloads::build(workload, seed, false);
    let (mut section, tracer) = match (&inputs, workload) {
        (Inputs::Scenarios(jobs), Workload::MatrixPar2) => profiled_matrix(jobs, workers, 3),
        (Inputs::Scenarios(jobs), Workload::HandshakeMatrix) => traced_scenarios(jobs, 3),
        (Inputs::Scenarios(jobs), _) => traced_scenarios(jobs, 1),
        (Inputs::Load(specs), _) => timed_load(specs),
        (
            Inputs::Scan {
                population,
                scan_seed,
            },
            _,
        ) => timed_scan(population, *scan_seed, 2),
    };
    drop(inputs);
    let section_s = started.elapsed().as_secs_f64();
    let kernels = kernels::run_all(nproc);

    let [q1, q2, q3] = quartiles(&section.untraced_s);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let untraced_min = min(&section.untraced_s);
    section.set("harness.passes", section.untraced_s.len() as f64);
    section.set("harness.pass_s_p50", q2);
    section.set("harness.pass_s_spread", (q3 - q1) / q2);
    let bare_min = if section.bare_s.is_empty() {
        untraced_min
    } else {
        min(&section.bare_s)
    };
    section.set(
        "harness.trace_overhead_pct",
        100.0 * (min(&section.traced_s) - bare_min) / bare_min,
    );
    // Every packet a qlog shows sealed or opened, priced by size on the
    // line through the two tag kernels, as a share of the time spent
    // inside the ops: the next target once the data path is linear.
    let (small, big) = (
        kernels.value("tls.seal_tag_us.40"),
        kernels.value("tls.seal_tag_us.1200"),
    );
    let per_byte = (big - small) / 1160.0;
    let (packets, bytes) = section.tagged;
    let tag_us = packets as f64 * (small - 40.0 * per_byte) + bytes as f64 * per_byte;
    section.set(
        "tls.tag_share_pct",
        100.0 * ratio(tag_us, min(&section.op_busy_s) * 1e6),
    );

    // Every listed metric, in list order: kernel value, else the
    // section's, else 0.
    let listed: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let kernel = kernels.results.iter().find(|k| k.metric.name == *name);
            let value = match kernel {
                Some(k) => k.metric.value,
                None => section.values.get(name).copied().unwrap_or(0.0),
            };
            Metric::new(*name, value, unit)
        })
        .collect();
    harness::all_finite(&listed)?;
    for m in &listed {
        println!("{}", m.line());
    }
    let helpers = kernels
        .results
        .iter()
        .filter(|k| !PER_LAYER.iter().any(|(name, _, _)| *name == k.metric.name));
    for k in helpers {
        println!("{}", k.metric.line());
    }
    println!("harness.section_s {section_s} s");
    println!("harness.total_s {} s", started.elapsed().as_secs_f64());
    println!("harness.workers {workers} count");
    println!("harness.nproc {nproc} count");

    let mut doc = vec![
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(seed as f64)),
        ("workers", Json::Num(workers as f64)),
        ("ops_per_pass", Json::Num(section.ops as f64)),
    ];
    doc.extend(harness::machine_meta());
    doc.push(("metrics", harness::metrics_json(&listed)));
    doc.push((
        "kernels",
        Json::obj(kernels.results.iter().map(|k| {
            (
                k.metric.name.clone(),
                Json::obj([
                    ("value", Json::Num(k.metric.value)),
                    ("unit", Json::str(k.metric.unit.clone())),
                    ("calls", Json::Num(k.calls as f64)),
                    ("batches", Json::Num(k.batches as f64)),
                ]),
            )
        })),
    ));
    doc.append(&mut section.extra);
    doc.push(("trace", tracer.borrow().to_json()));
    let path = harness::bench_dir()
        .join("out")
        .join(format!("trace-{}.json", workload.name()));
    std::fs::create_dir_all(path.parent().expect("has a parent"))
        .and_then(|()| std::fs::write(&path, Json::obj(doc).render() + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    if section.diverged {
        eprintln!("rq-layers: the traced pass saw other simulated counts than the untraced one");
    }
    let correct = section.failed == 0 && !section.diverged;
    println!(
        "{}",
        harness::result_line(
            correct,
            section.ops,
            section.failed,
            harness::metrics_json(&listed)
        )
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rq-layers: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let decl = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed: Vec<(&str, &str, bool)> = decl
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap();
                (field("name"), field("unit"), field("better") == "higher")
            })
            .collect();
        assert_eq!(listed, PER_LAYER);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert!(names.len() <= 128);
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
