//! Fixed-input kernels: one public function of one layer, timed from
//! outside. Inputs never depend on `--seed` or the workload, so a
//! kernel's number moves only when its layer (or the host) does. Each
//! kernel reports the fastest of its batches (≥ 7 except where one call
//! already takes seconds) and the call count behind it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rq_benchmark::alloc;
use rq_benchmark::harness::Metric;
use rq_benchmark::workloads::{build, scenario_op, steady_load, Inputs, Workload};
use rq_http::{h1, HttpVersion};
use rq_profiles::client_by_name;
use rq_qlog::{EventData, EventLog, FrameSummary, SpaceName};
use rq_quic::space::RecvState;
use rq_quic::streams::{RecvStream, SendStream};
use rq_quic::ServerAckMode;
use rq_recovery::{CcAlgorithm, RttEstimator, SentPacket, SentTracker};
use rq_sim::{Context, LinkConfig, Network, Node, NodeId, SimDuration, SimRng, SimTime};
use rq_testbed::{run_scenario, run_server_load, ProfileSink, Scenario, SweepRunner};
use rq_tls::keys::{seal_tag, verify_tag};
use rq_tls::{mint_ticket, open_ticket, ClientConfig, Level, ServerConfig, TlsSession};
use rq_wild::{probe, probe_rng, scan_with, Population, VANTAGES};
use rq_wire::coalesce::coalesce;
use rq_wire::{classify_datagram, AckFrame, ConnectionId, Frame, Header, PlainPacket};

use crate::pump::pump;

const KIB: usize = 1024;
const BATCHES: usize = 7;

/// A kernel's result: the metric, and how it was taken.
pub struct Kernel {
    pub metric: Metric,
    pub calls: u64,
    pub batches: usize,
}

/// Collects kernel results under their metric names.
#[derive(Default)]
pub struct Kernels {
    pub results: Vec<Kernel>,
}

impl Kernels {
    fn push(&mut self, name: &str, value: f64, unit: &str, calls: u64, batches: usize) {
        self.results.push(Kernel {
            metric: Metric::new(name, value, unit),
            calls,
            batches,
        });
    }

    pub fn value(&self, name: &str) -> f64 {
        self.results
            .iter()
            .find(|k| k.metric.name == name)
            .map_or(f64::NAN, |k| k.metric.value)
    }

    /// Times `batches` batches; each call of `batch` does its own
    /// untimed set-up and returns (time, calls). Records the fastest
    /// per-call time, scaled to `unit` ("ns", "us" or "s").
    fn time(
        &mut self,
        name: &str,
        unit: &str,
        batches: usize,
        mut batch: impl FnMut() -> (Duration, u64),
    ) {
        let mut best = f64::MAX;
        let mut calls = 0;
        for _ in 0..batches {
            let (took, n) = batch();
            calls = n;
            best = best.min(took.as_secs_f64() / n.max(1) as f64);
        }
        let scale = match unit {
            "ns" => 1e9,
            "us" => 1e6,
            _ => 1.0,
        };
        self.push(name, best * scale, unit, calls, batches);
    }

    /// [`Self::time`] for a call that needs no per-batch set-up.
    fn call<R>(&mut self, name: &str, unit: &str, calls: u64, mut f: impl FnMut() -> R) {
        self.time(name, unit, BATCHES, || {
            let t = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            (t.elapsed(), calls)
        });
    }

    /// [`Self::call`] reported as a rate: `mib` MiB handled per call.
    fn mib_per_s<R>(&mut self, name: &str, mib: f64, calls: u64, f: impl FnMut() -> R) {
        self.call(name, "s", calls, f);
        let timed = self.results.last_mut().expect("just pushed");
        timed.metric = Metric::new(name, mib / timed.metric.value, "MiB/s");
    }

    /// `numerator ÷ denominator` of two kernels already taken.
    fn ratio(&mut self, name: &str, numerator: &str, denominator: &str) {
        let v = self.value(numerator) / self.value(denominator);
        self.push(name, v, "ratio", 0, 0);
    }
}

fn quic_go() -> rq_profiles::ClientProfile {
    client_by_name("quic-go").expect("quic-go profile")
}

const IACK: ServerAckMode = ServerAckMode::InstantAck { pad_to_mtu: false };

/// The clean CUBIC two-stream H3 download of `bulk_transfer`, at `total`
/// response bytes.
fn clean_transfer(total: usize) -> Scenario {
    let mut sc = Scenario::base(quic_go(), IACK, HttpVersion::H3);
    sc.streams = 2;
    sc.file_size = total / 2;
    sc.cc = CcAlgorithm::Cubic;
    sc
}

fn testbed(k: &mut Kernels) {
    let clean = Scenario::base(
        quic_go(),
        ServerAckMode::WaitForCertificate,
        HttpVersion::H1,
    );
    k.call("testbed.us_per_handshake", "us", 40, || {
        run_scenario(&clean)
    });

    // The scaling series: µs per delivered KiB at three sizes. A flat
    // data path gives kib_scaling = 1.
    for (label, total, batches) in [
        ("256k", 256 * KIB, BATCHES),
        ("2m", 2048 * KIB, 3),
        ("10m", 10_240 * KIB, 1),
    ] {
        let sc = clean_transfer(total);
        k.time(
            &format!("testbed.us_per_kib.{label}"),
            "us",
            batches,
            || {
                let t = Instant::now();
                let r = run_scenario(&sc);
                let took = t.elapsed();
                assert!(r.completed, "scaling transfer completes");
                (took, (total / KIB) as u64)
            },
        );
    }
    k.ratio(
        "testbed.kib_scaling",
        "testbed.us_per_kib.10m",
        "testbed.us_per_kib.256k",
    );

    // The same steady arrival mix, shallow (tens of concurrent
    // connections) and deep (over a thousand).
    let ms = SimDuration::from_millis;
    let shallow = steady_load(11, 1500, ms(9), SimDuration::from_micros(500));
    let deep = steady_load(11, 3000, ms(100), SimDuration::from_micros(200));
    for (label, spec) in [("shallow", &shallow), ("deep", &deep)] {
        k.time(&format!("testbed.us_per_conn.{label}"), "us", 1, || {
            let t = Instant::now();
            let run = run_server_load(spec);
            let took = t.elapsed();
            assert_eq!(run.report.fates.total(), spec.arrivals as u64);
            (took, spec.arrivals as u64)
        });
    }
    k.ratio(
        "testbed.conn_scaling",
        "testbed.us_per_conn.deep",
        "testbed.us_per_conn.shallow",
    );
    k.time("testbed.plans_us_per_conn", "us", BATCHES, || {
        let t = Instant::now();
        black_box(deep.plans());
        (t.elapsed(), deep.arrivals as u64)
    });
}

/// Bounces every datagram straight back until `remaining` runs out.
struct Echo {
    peer: Option<NodeId>,
    remaining: u64,
    /// Far-future timers armed at start, to deepen the event queue.
    ballast: u64,
}

impl Node for Echo {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..self.ballast {
            ctx.set_timer(SimTime::ZERO + SimDuration::from_secs(3600 + i), i);
        }
        if let Some(peer) = self.peer {
            ctx.send(peer, vec![0x5A; 64]);
        }
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &[u8]) {
        if self.remaining == 0 {
            ctx.stop();
            return;
        }
        self.remaining -= 1;
        ctx.send(from, payload.to_vec());
    }
}

fn sim(k: &mut Kernels) {
    const BOUNCES: u64 = 20_000;
    for (label, ballast) in [("d2", 0), ("d10k", 10_000)] {
        k.time(
            &format!("sim.engine_ns_per_event.{label}"),
            "ns",
            BATCHES,
            || {
                let mut net = Network::new(false);
                net.trace.recording = false;
                let echo = |peer, ballast| Echo {
                    peer,
                    remaining: BOUNCES / 2,
                    ballast,
                };
                let a = net.add_node(Box::new(echo(None, ballast)));
                let b = net.add_node(Box::new(echo(Some(a), 0)));
                net.connect(a, b, LinkConfig::paper_default(SimDuration::from_millis(1)));
                // Process the start events (arming the ballast timers and
                // sending the first datagram) before the clock starts.
                net.prime();
                net.run_until(SimTime::ZERO);
                let before = net.stats.events_processed;
                let t = Instant::now();
                net.run_until(SimTime::ZERO + SimDuration::from_secs(600));
                (t.elapsed(), net.stats.events_processed - before)
            },
        );
    }
    let mut i = 0u64;
    k.call("sim.rng_derive_ns", "ns", 100_000, || {
        i += 1;
        SimRng::derive(7, &[2, 1, i]).next_u64()
    });
}

fn quic(k: &mut Kernels) {
    // `take` with this much still pending: 100 calls barely dent it.
    for (label, pending) in [("256k", 256 * KIB), ("5m", 5 * 1024 * KIB)] {
        let body = vec![0xA5u8; pending];
        k.time(
            &format!("quic.streams.take_us.{label}"),
            "us",
            BATCHES,
            || {
                let mut s = SendStream {
                    max_stream_data: u64::MAX,
                    ..SendStream::default()
                };
                s.write(&body, true);
                let t = Instant::now();
                for _ in 0..100 {
                    black_box(s.take(1150));
                }
                (t.elapsed(), 100)
            },
        );
    }
    k.ratio(
        "quic.streams.take_scaling",
        "quic.streams.take_us.5m",
        "quic.streams.take_us.256k",
    );

    const FRAMES: u64 = 1000;
    let chunk = [0x3Cu8; 1150];
    for (label, reverse) in [("inorder", false), ("reverse", true)] {
        k.time(
            &format!("quic.streams.on_frame_us.{label}"),
            "us",
            BATCHES,
            || {
                let mut r = RecvStream::default();
                let t = Instant::now();
                for i in 0..FRAMES {
                    let at = if reverse { FRAMES - 1 - i } else { i };
                    black_box(r.on_frame(at * 1150, &chunk, false));
                }
                let took = t.elapsed();
                assert_eq!(r.delivered, FRAMES * 1150);
                (took, FRAMES)
            },
        );
    }

    for (label, n) in [("1k", 1_000u64), ("10k", 10_000)] {
        k.time(
            &format!("quic.space.on_packet_ns.{label}"),
            "ns",
            BATCHES,
            || {
                let mut s = RecvState::default();
                let t = Instant::now();
                for pn in 0..n {
                    black_box(s.on_packet(pn, true, SimTime::ZERO));
                }
                (t.elapsed(), n)
            },
        );
    }

    for (label, body) in [("hs", 10 * KIB), ("1m", 1024 * KIB)] {
        let mut best = pump(body);
        for _ in 1..BATCHES {
            let p = pump(body);
            if p.wall < best.wall {
                best = p;
            }
        }
        let (tx, rx) = (best.poll_transmit, best.handle_datagram);
        k.push(
            &format!("quic.pump.poll_transmit_us.{label}"),
            tx.us_per_call(),
            "us",
            tx.calls,
            BATCHES,
        );
        k.push(
            &format!("quic.pump.handle_datagram_us.{label}"),
            rx.us_per_call(),
            "us",
            rx.calls,
            BATCHES,
        );
        if label == "1m" {
            let per_kib = best.wall.as_secs_f64() * 1e6 / (best.delivered / KIB) as f64;
            k.push(
                "quic.pump.us_per_kib.1m",
                per_kib,
                "us",
                (best.delivered / KIB) as u64,
                BATCHES,
            );
        }
    }
}

/// An in-memory TLS handshake through the session's public calls.
fn tls_handshake(cert_len: usize) {
    let mut client = TlsSession::client(ClientConfig::full());
    let mut server = TlsSession::server(ServerConfig {
        cert_len,
        ..ServerConfig::default()
    });
    client.start();
    loop {
        let mut progress = false;
        for level in [Level::Initial, Level::Handshake, Level::Application] {
            if let Some(out) = client.take_output(level) {
                let events = server.read_crypto(level, &out).expect("server reads");
                if events.contains(&rq_tls::TlsEvent::NeedCertificate) {
                    black_box(server.provide_certificate());
                }
                progress = true;
            }
            if let Some(out) = server.take_output(level) {
                black_box(client.read_crypto(level, &out).expect("client reads"));
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    assert!(client.is_complete() && server.is_complete());
}

fn tls(k: &mut Kernels) {
    let key = [0x42u8; 32];
    let (big, small) = ([0x17u8; 1200], [0x17u8; 40]);
    k.call("tls.seal_tag_us.1200", "us", 2000, || {
        seal_tag(&key, 9, &big)
    });
    k.call("tls.seal_tag_us.40", "us", 5000, || {
        seal_tag(&key, 9, &small)
    });
    let tag = seal_tag(&key, 9, &big);
    k.call("tls.verify_tag_us.1200", "us", 2000, || {
        verify_tag(&key, 9, &big, &tag)
    });

    let block = vec![0xABu8; 64 * KIB];
    k.mib_per_s("tls.sha256_mib_per_s", 1.0 / 16.0, 16, || {
        rq_tls::sha256::sha256(&block)
    });

    k.call("tls.handshake_us.small", "us", 50, || {
        tls_handshake(rq_tls::CERT_SMALL)
    });
    k.call("tls.handshake_us.large", "us", 50, || {
        tls_handshake(rq_tls::CERT_LARGE)
    });
    let secret = [0x22u8; 32];
    k.call("tls.mint_ticket_us", "us", 2000, || {
        mint_ticket(99, &secret)
    });
    let ticket = mint_ticket(99, &secret);
    k.call("tls.open_ticket_us", "us", 2000, || {
        open_ticket(99, &ticket)
    });
}

fn wire(k: &mut Kernels) {
    let cid = ConnectionId::from_u64;
    let tag = [0u8; 16];
    let short = PlainPacket::new(
        Header::one_rtt(cid(1), 77),
        vec![Frame::Stream {
            id: 0,
            offset: 1 << 20,
            data: Bytes::from(vec![0x5Au8; 1150]),
            fin: false,
        }],
    )
    .expect("short packet");
    let initial = PlainPacket::new(
        Header::initial(cid(1), cid(2), vec![], 0),
        vec![
            Frame::Ack(AckFrame::from_sorted_desc(&[9, 8, 7, 3, 1], 800)),
            Frame::Crypto {
                offset: 0,
                data: Bytes::from(vec![0x16; 700]),
            },
            Frame::Padding { len: 400 },
        ],
    )
    .expect("initial packet");
    let handshake = PlainPacket::new(
        Header::handshake(cid(1), cid(2), 0),
        vec![Frame::Crypto {
            offset: 0,
            data: Bytes::from(vec![0x16; 500]),
        }],
    )
    .expect("handshake packet");
    for (label, pkt) in [("short1200", &short), ("initial", &initial)] {
        let bytes = pkt.to_bytes(&tag);
        k.call(&format!("wire.encode_us.{label}"), "us", 5000, || {
            pkt.to_bytes(&tag)
        });
        k.call(&format!("wire.decode_us.{label}"), "us", 5000, || {
            PlainPacket::decode(&bytes, 8).expect("decodes")
        });
    }
    let datagram = initial.to_bytes(&tag);
    k.call("wire.classify_us", "us", 5000, || {
        classify_datagram(&datagram, 8).expect("classifies")
    });
    let pair = [(initial, tag), (handshake, tag)];
    k.call("wire.coalesce_us", "us", 5000, || coalesce(&pair));
}

fn recovery(k: &mut Kernels) {
    let rtt = RttEstimator::new(SimDuration::from_millis(25));
    let at = |pn: u64| SimTime::ZERO + SimDuration::from_micros(pn * 100);
    let sent = |pn: u64| SentPacket {
        pn,
        time_sent: at(pn),
        ack_eliciting: true,
        in_flight: true,
        size: 1200,
        retx_token: pn,
    };

    // Steady state at `window` outstanding: send one, ack the oldest.
    for (label, window) in [("w10", 10u64), ("w1000", 1000)] {
        k.time(
            &format!("recovery.sent_cycle_ns.{label}"),
            "ns",
            BATCHES,
            || {
                let mut tracker = SentTracker::new();
                (0..window).for_each(|pn| tracker.on_sent(sent(pn)));
                const CYCLES: u64 = 20_000;
                let t = Instant::now();
                for pn in 0..CYCLES {
                    tracker.on_sent(sent(pn + window));
                    black_box(tracker.on_ack(&[pn], pn, at(pn + window), &rtt));
                }
                (t.elapsed(), CYCLES)
            },
        );
    }
    // A full loss-detection sweep: only the newest of 1000 is acked.
    k.time("recovery.detect_lost_us.w1000", "us", BATCHES, || {
        let mut tracker = SentTracker::new();
        (0..1000).for_each(|pn| tracker.on_sent(sent(pn)));
        let t = Instant::now();
        let outcome = tracker.on_ack(&[999], 999, at(1000), &rtt);
        let took = t.elapsed();
        assert_eq!(outcome.lost.len(), 997);
        (took, 1)
    });

    for (label, algorithm) in [
        ("newreno", CcAlgorithm::NewReno),
        ("cubic", CcAlgorithm::Cubic),
        ("bbr", CcAlgorithm::BbrLite),
    ] {
        let mut rtt = RttEstimator::new(SimDuration::from_millis(25));
        rtt.update(SimDuration::from_millis(9), SimDuration::ZERO, true);
        k.time(
            &format!("recovery.cc_on_ack_ns.{label}"),
            "ns",
            BATCHES,
            || {
                let mut cc = algorithm.build();
                const ACKS: u64 = 50_000;
                let t = Instant::now();
                for pn in 0..ACKS {
                    cc.on_sent(1200);
                    cc.on_ack(1200, at(pn), at(pn + 90), &rtt);
                }
                (t.elapsed(), ACKS)
            },
        );
    }
}

fn packet_sent(pn: u64) -> EventData {
    EventData::PacketSent {
        space: SpaceName::ApplicationData,
        pn,
        size: 1200,
        ack_eliciting: true,
        frames: vec![FrameSummary {
            name: "stream",
            len: 1150,
        }],
    }
}

fn qlog(k: &mut Kernels) {
    // A 10 MiB transfer's server log holds about 18k events.
    const EVENTS: u64 = 18_000;
    let mut log = EventLog::new("server:kernel");
    k.time("qlog.push_ns", "ns", BATCHES, || {
        log = EventLog::new("server:kernel");
        let t = Instant::now();
        for pn in 0..EVENTS {
            log.push(
                SimTime::ZERO + SimDuration::from_micros(pn),
                packet_sent(pn),
            );
        }
        (t.elapsed(), EVENTS)
    });
    k.call("qlog.clone_us.18k", "us", 3, || log.clone());
    log.events.truncate(2_000);
    let mib = log.to_json().len() as f64 / (1024.0 * 1024.0);
    k.mib_per_s("qlog.to_json_mib_per_s", mib, 3, || log.to_json());
}

fn par(k: &mut Kernels, nproc: usize) {
    let workers = 2.min(nproc);
    let runner = SweepRunner::new(workers);
    const TASKS: u64 = 200_000;
    k.time("par.dispatch_ns_per_task", "ns", BATCHES, || {
        let t = Instant::now();
        black_box(runner.run(TASKS as usize, |i| i));
        (t.elapsed(), TASKS)
    });

    // A quarter of the handshake matrix (fixed seed), sequentially and
    // through the pool; then once more under the sweep profiler.
    let Inputs::Scenarios(all) = build(Workload::HandshakeMatrix, 1, false) else {
        unreachable!("handshake_matrix is a scenario workload");
    };

    let jobs: Vec<Scenario> = all.into_iter().step_by(4).collect();
    let n = jobs.len() as u64;
    k.time("par.matrix_s.t1", "s", 3, || {
        let t = Instant::now();
        jobs.iter().for_each(|sc| {
            black_box(scenario_op(sc));
        });
        (t.elapsed(), 1)
    });
    k.time("par.matrix_s.t2", "s", 3, || {
        let t = Instant::now();
        black_box(runner.map(&jobs, scenario_op));
        (t.elapsed(), 1)
    });
    k.ratio("par.speedup_t2", "par.matrix_s.t1", "par.matrix_s.t2");
    k.push("par.workers", workers as f64, "count", n, 0);

    let sink = Arc::new(ProfileSink::new());
    let profiled = runner.clone().with_profile(Arc::clone(&sink));
    black_box(profiled.map(&jobs, scenario_op));
    let report = sink.report();
    let share = |ns: u64| 100.0 * ns as f64 / report.worker_wall_ns.max(1) as f64;
    for (name, ns) in [
        ("par.busy_pct", report.busy_ns),
        ("par.idle_pct", report.idle_ns),
        ("par.claim_pct", report.claim_ns),
        ("par.merge_pct", report.merge_ns),
    ] {
        k.push(name, share(ns), "%", n, 1);
    }
}

fn wild(k: &mut Kernels) {
    k.time("wild.synthesize_s", "s", 3, || {
        let t = Instant::now();
        black_box(Population::synthesize(1_000_000, &mut SimRng::new(42)));
        (t.elapsed(), 1)
    });
    let population = Population::synthesize(100_000, &mut SimRng::new(42));
    let runner = SweepRunner::new(1);
    let probes = (population.len() * VANTAGES.len()) as u64;
    let mut allocs = 0;
    k.time("wild.ns_per_probe", "ns", BATCHES, || {
        let before = alloc::snapshot().calls;
        let t = Instant::now();
        black_box(scan_with(&population, 1, 7, &runner));
        let took = t.elapsed();
        allocs = alloc::snapshot().calls - before;
        (took, probes)
    });
    // scan.rs cuts each (vantage, repetition) into 8192-domain shards.
    let shards = (population.len().div_ceil(8192) * VANTAGES.len()) as u64;
    k.push(
        "wild.allocs_per_shard",
        allocs as f64 / shards as f64,
        "count",
        shards,
        BATCHES,
    );

    let hosted: Vec<_> = population
        .domains
        .iter()
        .filter(|d| d.cdn.is_some())
        .take(20_000)
        .collect();
    k.time("wild.probe_kernel_ns", "ns", BATCHES, || {
        let t = Instant::now();
        for (i, d) in hosted.iter().enumerate() {
            black_box(probe(d, VANTAGES[0], probe_rng(7, VANTAGES[0], 0, i)));
        }
        (t.elapsed(), hosted.len() as u64)
    });
}

fn obs_http(k: &mut Kernels) {
    let clean = Scenario::base(quic_go(), IACK, HttpVersion::H1);
    let one = run_scenario(&clean).metrics;
    let mut total = rq_obs::Registry::new();
    k.call("obs.registry_merge_us", "us", 2000, || total.merge(&one));
    k.call("obs.registry_render_us", "us", 500, || total.render());
    k.call("http.request_encode_ns", "ns", 20_000, || {
        h1::H1Request::get("/10240", "testbed.local").encode()
    });
}

/// Runs every kernel.
pub fn run_all(nproc: usize) -> Kernels {
    let mut k = Kernels::default();
    testbed(&mut k);
    sim(&mut k);
    quic(&mut k);
    tls(&mut k);
    wire(&mut k);
    recovery(&mut k);
    qlog(&mut k);
    par(&mut k, nproc);
    wild(&mut k);
    obs_http(&mut k);
    k
}
