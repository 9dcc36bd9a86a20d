//! Two records of one connection must tell one story: the client node
//! writes every milestone both into the simulation trace (a label per
//! event) and into its shared [`ClientStatus`] cell, and the server node
//! writes its half into the [`ServerControl`] block. The runner's timing
//! fields may be derived from either; this file holds the two to
//! equality over the `tests/protocol_invariants.rs` scenario space, a
//! crash-then-reconnect connection and a Retry-deferred one, on a
//! topology built from the node types directly so both records of the
//! same run are in hand.

use std::cell::RefCell;
use std::rc::Rc;

use rq_http::HttpVersion;
use rq_profiles::{all_clients, server::testbed_server};
use rq_quic::{OverloadPolicy, ServerAckMode, ServerEngine};
use rq_sim::{FaultTimeline, LinkConfig, Network, NodeId, SimDuration, SimRng, SimTime};
use rq_testbed::nodes::milestones;
use rq_testbed::{
    run_scenario_with_trace, ClientNode, ClientStatus, FaultSpec, LossSpec, ReconnectPolicy,
    RunResult, Scenario, ServerControl, ServerNode,
};
use rq_tls::TicketKeySchedule;

/// The timing fields of a run, from whichever record.
#[derive(Debug, PartialEq)]
struct View {
    started: SimTime,
    ttfb_ms: Option<f64>,
    response_ms: Option<f64>,
    handshake_ms: Option<f64>,
    completed: bool,
    aborted: bool,
}

/// Read off the trace's milestone labels (first occurrence per label).
fn milestone_view(trace: &rq_sim::Trace, client: NodeId, server: NodeId) -> View {
    let started = trace
        .first_by(client, milestones::CLIENT_HELLO_SENT)
        .expect("client start");
    let rel = |label: &str| {
        trace
            .first_by(client, label)
            .map(|t| t.since(started).as_millis_f64())
    };
    let completed = rel(milestones::RESPONSE_COMPLETE).is_some();
    let closed = trace.first_by(client, milestones::CLOSED).is_some()
        || trace.first_by(server, milestones::CLOSED).is_some();
    View {
        started,
        ttfb_ms: rel(milestones::TTFB),
        response_ms: rel(milestones::RESPONSE_COMPLETE),
        handshake_ms: rel(milestones::HANDSHAKE_COMPLETE),
        completed,
        aborted: closed && !completed,
    }
}

/// Read off the status cell plus the server's word on whether it closed
/// the connection. `close_code` — never overwritten — stands for "a
/// `CLOSED` milestone exists": a reconnect clears `closed_at`, the trace
/// keeps its first `CLOSED`.
fn status_view(st: &ClientStatus, server_closed: bool) -> View {
    let started = st.hello_at.expect("client start");
    let rel = |t: Option<SimTime>| t.map(|t| t.since(started).as_millis_f64());
    let completed = st.complete_at.is_some();
    View {
        started,
        ttfb_ms: rel(st.ttfb_at),
        response_ms: rel(st.complete_at),
        handshake_ms: rel(st.handshake_at),
        completed,
        aborted: (st.close_code.is_some() || server_closed) && !completed,
    }
}

/// The runner's view of its own single pair, read off its trace (the
/// first datagram is the client's Initial).
fn runner_view(trace: &rq_sim::Trace) -> View {
    let hello = &trace.datagrams[0];
    milestone_view(trace, hello.from, hello.to)
}

fn server_closed(control: &ServerControl, key: usize) -> bool {
    control.outcome(key).closed
}

/// One server and its clients, wired the way the run driver wires them.
struct Bed {
    net: Network,
    server: NodeId,
    engine: Rc<RefCell<ServerEngine>>,
    control: Rc<RefCell<ServerControl>>,
}

struct Peer {
    id: NodeId,
    status: Rc<RefCell<ClientStatus>>,
}

impl Bed {
    fn new(base: &Scenario, limit: usize, overload: OverloadPolicy, crashes: Vec<SimTime>) -> Bed {
        let mut net = Network::new(false);
        let mut cfg = testbed_server(base.ack_mode, base.cert_len);
        cfg.cc_algorithm = base.cc;
        let schedule = TicketKeySchedule::fixed(cfg.ticket_key);
        let engine = Rc::new(RefCell::new(
            ServerEngine::new(cfg, schedule, limit).with_overload_policy(overload),
        ));
        let control = Rc::new(RefCell::new(ServerControl::default()));
        let mut server = ServerNode::with_engine(
            Rc::clone(&engine),
            Rc::clone(&control),
            base.http,
            base.cert_delay,
            base.seed,
        );
        if !base.faults.is_none() {
            let timeline = FaultTimeline {
                crashes,
                ..FaultTimeline::none()
            };
            server = server.with_faults(timeline, false);
        }
        let server = net.add_node(Box::new(server));
        net.prime();
        Bed {
            net,
            server,
            engine,
            control,
        }
    }

    fn spawn(&mut self, sc: &Scenario, arrival: SimTime) -> Peer {
        let mut rng = SimRng::new(sc.seed ^ 0xBEEF_CAFE);
        let rtt_quirk_applies = sc
            .client
            .buggy_rtt_preinit
            .map(|(_, p)| rng.gen_bool(p))
            .unwrap_or(false);
        let mut cfg = sc.client.endpoint_config(sc.http);
        cfg.cc_algorithm = sc.cc;
        cfg.give_up_after = sc.faults.give_up_after;
        cfg.give_up_pto_count = sc.faults.give_up_pto_count;
        let mut client = ClientNode::new(
            cfg,
            self.server,
            sc.http,
            sc.file_size,
            sc.seed.wrapping_mul(2654435761).wrapping_add(1),
            rtt_quirk_applies,
        )
        .with_streams(sc.streams)
        .detached();
        if let Some(policy) = sc.faults.reconnect {
            client = client.with_reconnect(policy);
        }
        let status = Rc::clone(&client.status);
        let id = self.net.add_node(Box::new(client));
        self.control
            .borrow_mut()
            .conn_seeds
            .insert(id.index(), sc.seed ^ 0x5EED);
        let mut link = LinkConfig::paper_default(sc.one_way_delay());
        link.loss = sc.loss_rule();
        self.net.connect(id, self.server, link);
        self.net.schedule_start(id, arrival);
        Peer { id, status }
    }

    /// Runs to `end` in 250 ms slices, freeing the engine slot of every
    /// peer whose client is done (what lets a Retry-deferred peer in).
    fn run(&mut self, peers: &[Peer], end: SimTime) {
        let mut freed = vec![false; peers.len()];
        while self.net.now() < end {
            let next = (self.net.now() + SimDuration::from_millis(250)).min(end);
            let outcome = self.net.run_until(next);
            for (p, freed) in peers.iter().zip(&mut freed) {
                let st = *p.status.borrow();
                if st.done() && !*freed {
                    *freed = true;
                    self.engine
                        .borrow_mut()
                        .retire(p.id.index() as u64, st.complete_at.is_some());
                }
            }
            if outcome == rq_sim::RunOutcome::QueueEmpty {
                break;
            }
        }
    }

    /// Both records of `peer`, which must agree.
    fn views(&self, peer: &Peer) -> (View, View) {
        let from_trace = milestone_view(&self.net.trace, peer.id, self.server);
        let closed = server_closed(&self.control.borrow(), peer.id.index());
        (from_trace, status_view(&peer.status.borrow(), closed))
    }
}

fn assert_result_is(res: &RunResult, view: &View, label: &str) {
    assert_eq!(res.ttfb_ms, view.ttfb_ms, "{label}");
    assert_eq!(res.response_ms, view.response_ms, "{label}");
    assert_eq!(res.handshake_ms, view.handshake_ms, "{label}");
    assert_eq!(res.completed, view.completed, "{label}");
    assert_eq!(res.aborted, view.aborted, "{label}");
}

/// The generator of `tests/protocol_invariants.rs`, walked on a fixed
/// grid instead of drawn: every client × ACK mode × loss pattern, with
/// RTT, Δt and certificate size rotating through their values.
fn sample() -> Vec<Scenario> {
    let clients = all_clients();
    let mut out = Vec::new();
    for (c, client) in clients.iter().enumerate() {
        for (m, mode) in [
            ServerAckMode::WaitForCertificate,
            ServerAckMode::InstantAck { pad_to_mtu: false },
        ]
        .into_iter()
        .enumerate()
        {
            for (l, loss) in [
                LossSpec::None,
                LossSpec::ServerFlightTail,
                LossSpec::SecondClientFlight,
            ]
            .into_iter()
            .enumerate()
            {
                let i = (c * 2 + m) * 3 + l;
                let mut sc = Scenario::base(client.clone(), mode, HttpVersion::H1);
                sc.rtt = SimDuration::from_millis([1, 9, 20, 100][i % 4]);
                sc.cert_delay = SimDuration::from_millis([0, 4, 25, 200][(i / 4) % 4]);
                if i % 3 == 1 {
                    sc.cert_len = rq_tls::CERT_LARGE;
                }
                sc.loss = loss;
                sc.seed = 17 + i as u64;
                out.push(sc);
            }
        }
    }
    out
}

#[test]
fn status_and_milestones_agree_over_the_invariant_sample() {
    let mut aborted = 0;
    for sc in sample() {
        let label = sc.label();
        let mut bed = Bed::new(&sc, usize::MAX, OverloadPolicy::Shed, Vec::new());
        let peer = bed.spawn(&sc, SimTime::ZERO);
        bed.run(
            std::slice::from_ref(&peer),
            SimTime::ZERO + SimDuration::from_secs(120),
        );
        let (from_trace, from_status) = bed.views(&peer);
        assert_eq!(from_trace, from_status, "{label}");
        assert!(
            from_status.completed || from_status.aborted,
            "{label}: {from_status:?}"
        );
        aborted += from_status.aborted as usize;

        // The runner reports the same connection the same way, from its
        // own trace and from whichever record it reads.
        let (res, trace) = run_scenario_with_trace(&sc);
        assert_result_is(&res, &from_status, &label);
        assert_result_is(&res, &runner_view(&trace), &label);
    }
    assert!(aborted > 0, "the sample must include a quirk abort");
}

fn crashy(reconnect: bool) -> Scenario {
    let client = rq_profiles::client_by_name("quic-go").unwrap();
    let mut sc = Scenario::base(client, ServerAckMode::WaitForCertificate, HttpVersion::H1);
    sc.rtt = SimDuration::from_millis(40);
    sc.file_size = 512 * 1024;
    sc.faults = FaultSpec {
        crash_every: Some(SimDuration::from_millis(400)),
        reconnect: reconnect.then(ReconnectPolicy::default),
        ..FaultSpec::none()
    };
    sc.seed = 1;
    sc
}

#[test]
fn status_and_milestones_agree_across_a_reconnect() {
    let sc = crashy(true);
    let mut bed = Bed::new(
        &sc,
        usize::MAX,
        OverloadPolicy::Shed,
        vec![SimTime::from_nanos(150_000_000)],
    );
    let peer = bed.spawn(&sc, SimTime::ZERO);
    bed.run(
        std::slice::from_ref(&peer),
        SimTime::ZERO + SimDuration::from_secs(120),
    );
    let st = *peer.status.borrow();
    assert!(st.attempts > 0 && st.closed_at.is_none(), "{st:?}");
    assert!(
        st.close_code.is_some() && st.complete_at.is_some(),
        "{st:?}"
    );
    assert!(
        bed.net
            .trace
            .first_by(peer.id, milestones::CLOSED)
            .is_some(),
        "the trace keeps the first death the status cell cleared"
    );
    let (from_trace, from_status) = bed.views(&peer);
    assert_eq!(from_trace, from_status);
    assert!(from_status.completed && !from_status.aborted);

    // The same axis through the runner, with and without the policy: a
    // crash mid-transfer is survived in one and fatal in the other.
    for reconnect in [true, false] {
        let sc = crashy(reconnect);
        let (res, trace) = run_scenario_with_trace(&sc);
        let view = runner_view(&trace);
        assert!(
            trace.first(milestones::CLOSED).is_some(),
            "{reconnect}: a crash must hit the transfer"
        );
        assert_eq!(view.completed, reconnect);
        assert_eq!(view.aborted, !reconnect);
        assert_result_is(&res, &view, &format!("reconnect={reconnect}"));
    }
}

#[test]
fn status_and_milestones_agree_for_a_retry_deferred_peer() {
    let client = rq_profiles::client_by_name("quic-go").unwrap();
    let mut sc = Scenario::base(client, ServerAckMode::WaitForCertificate, HttpVersion::H1);
    sc.cert_delay = SimDuration::from_millis(20);
    let mut bed = Bed::new(&sc, 1, OverloadPolicy::RetryDefer, Vec::new());
    let first = bed.spawn(&sc, SimTime::ZERO);
    sc.seed = 2;
    let second = bed.spawn(&sc, SimTime::from_nanos(2_000_000));
    let peers = [first, second];
    bed.run(&peers, SimTime::ZERO + SimDuration::from_secs(120));
    let accounting = bed.engine.borrow().accounting;
    assert_eq!(
        (accounting.retry_deferred, accounting.retry_admitted),
        (1, 1)
    );
    assert!(bed.control.borrow().outcome(peers[1].id.index()).retried);
    for peer in &peers {
        let (from_trace, from_status) = bed.views(peer);
        assert_eq!(from_trace, from_status);
        assert!(from_status.completed, "{from_status:?}");
    }
    let waited = |p: &Peer| {
        let st = *p.status.borrow();
        st.handshake_at.unwrap().since(st.hello_at.unwrap())
    };
    assert!(waited(&peers[1]) > waited(&peers[0]), "deferral costs time");
}
