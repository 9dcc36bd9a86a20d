use super::*;
use crate::loss::DropIndices;

/// Whether a live link carries `a → b` traffic.
fn link_exists<N: Node>(net: &Network<N>, a: NodeId, b: NodeId) -> bool {
    net.active_slot(a, b)
        .is_some_and(|slot| net.links[slot].is_some())
}

/// Every time a milestone labelled `label` was recorded, by any node.
fn all(trace: &Trace, label: &str) -> Vec<SimTime> {
    let at_label = trace.milestones.iter().filter(|m| m.label == label);
    at_label.map(|m| m.at).collect()
}

/// The first time a milestone labelled `label` was recorded, by any node.
fn first(trace: &Trace, label: &str) -> Option<SimTime> {
    all(trace, label).first().copied()
}

/// Test node: replies to every datagram with "pong" until a count is
/// reached, records milestones on receipt.
struct Ponger {
    peer: Option<NodeId>,
    remaining: usize,
    initiate: bool,
}

impl Node for Ponger {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.initiate {
            let peer = self.peer.unwrap();
            ctx.send(peer, b"ping".to_vec());
        }
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &[u8]) {
        let me = ctx.me();
        let now = ctx.now();
        ctx.trace()
            .milestone(me, now, String::from_utf8_lossy(payload).into_owned());
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(from, b"pong".to_vec());
        } else {
            ctx.stop();
        }
    }
}

#[test]
fn ping_pong_round_trips() {
    let mut net = Network::new(false);
    let a = net.add_node(Box::new(Ponger {
        peer: None,
        remaining: 3,
        initiate: false,
    }));
    let b = net.add_node(Box::new(Ponger {
        peer: Some(a),
        remaining: 3,
        initiate: true,
    }));
    net.connect(
        a,
        b,
        LinkConfig {
            one_way_delay: SimDuration::from_millis(10),
            bandwidth_bps: None,
            loss: DropIndices::NONE,
            impairment: None,
            mtu: 1500,
            blackouts: Vec::new(),
        },
    );
    let outcome = net.run(SimDuration::from_secs(5));
    assert_eq!(outcome, RunOutcome::Stopped);
    // b sends ping at t=0; arrival at a t=10ms; pong arrives back t=20ms...
    let times: Vec<u64> = net
        .trace
        .milestones
        .iter()
        .map(|m| m.at.as_millis_f64() as u64)
        .collect();
    assert_eq!(times, vec![10, 20, 30, 40, 50, 60, 70]);
}

#[test]
fn timers_fire_in_order() {
    struct TimerNode {
        fired: Vec<u64>,
    }
    impl Node for TimerNode {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimTime::ZERO + SimDuration::from_millis(30), 3);
            ctx.set_timer(SimTime::ZERO + SimDuration::from_millis(10), 1);
            ctx.set_timer(SimTime::ZERO + SimDuration::from_millis(20), 2);
        }
        fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
            self.fired.push(token);
            let me = ctx.me();
            let now = ctx.now();
            ctx.trace().milestone(me, now, format!("t{token}"));
        }
    }
    let mut net = Network::new(false);
    let _ = net.add_node(Box::new(TimerNode { fired: Vec::new() }));
    assert_eq!(net.run(SimDuration::from_secs(1)), RunOutcome::QueueEmpty);
    assert_eq!(first(&net.trace, "t1").unwrap().as_millis_f64(), 10.0);
    assert_eq!(first(&net.trace, "t2").unwrap().as_millis_f64(), 20.0);
    assert_eq!(first(&net.trace, "t3").unwrap().as_millis_f64(), 30.0);
}

#[test]
fn drops_are_recorded_not_delivered() {
    let mut net = Network::new(false);
    let a = net.add_node(Box::new(Ponger {
        peer: None,
        remaining: 9,
        initiate: false,
    }));
    let b = net.add_node(Box::new(Ponger {
        peer: Some(a),
        remaining: 9,
        initiate: true,
    }));
    net.connect(
        a,
        b,
        LinkConfig::paper_default(SimDuration::from_millis(1)).with_loss(DropIndices::new(0, 0b1)),
    );
    // b's first ping (BtoA index 0) is dropped; nothing else happens.
    let outcome = net.run(SimDuration::from_secs(1));
    assert_eq!(outcome, RunOutcome::QueueEmpty);
    let dropped = net.trace.datagrams.iter().map(|d| (d.from, d.fate));
    assert_eq!(dropped.collect::<Vec<_>>(), [(b, DatagramFate::Dropped)]);
    assert_eq!(net.stats.datagrams_dropped, 1);
    assert!(net.trace.milestones.is_empty());
    // The link counted the dropped send as a send.
    assert_eq!((net.sent_count(b, a), net.sent_count(a, b)), (1, 0));
}

#[test]
fn duplicating_channel_delivers_both_copies() {
    use crate::impair::ImpairmentSpec;
    // A always-duplicate channel: the sink sees b's ping twice, the
    // trace attributes one send and one fabricated copy. The sink
    // takes the owned form, which is the one the engine calls, and
    // notes where the bytes live.
    struct Sink;
    impl Node for Sink {
        fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {
            unreachable!("the engine delivers through on_datagram_owned");
        }
        fn on_datagram_owned(&mut self, ctx: &mut Context<'_>, _: NodeId, payload: Bytes) {
            let me = ctx.me();
            let now = ctx.now();
            ctx.trace().milestone(me, now, "rx");
            ctx.trace()
                .milestone(me, now, format!("{:p}", payload.as_ptr()));
        }
    }
    struct OneShot {
        peer: NodeId,
    }
    impl Node for OneShot {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(self.peer, b"ping".to_vec());
        }
        fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
    }
    let mut net = <Network>::new(false);
    let a = net.add_node(Box::new(Sink));
    let b = net.add_node(Box::new(OneShot { peer: a }));
    net.connect(
        a,
        b,
        LinkConfig::paper_default(SimDuration::from_millis(2))
            .with_impairment(ImpairmentSpec::none().with_duplication(1.0), 1),
    );
    assert_eq!(net.run(SimDuration::from_secs(1)), RunOutcome::QueueEmpty);
    assert_eq!(all(&net.trace, "rx").len(), 2);
    // The fabricated copy is a second handle on the one buffer.
    let at: Vec<_> = (net.trace.milestones.iter().map(|m| &m.label))
        .filter(|label| *label != "rx")
        .collect();
    assert_eq!(at.len(), 2);
    assert_eq!(at[0], at[1]);
    assert_eq!(net.trace.sent_count(b, a), 1);
    assert_eq!(net.sent_count(b, a), 1, "the copy is not a send");
    let copies = net.trace.datagrams.iter().filter(|d| d.duplicate);
    assert_eq!(copies.count(), 1);
    assert_eq!(net.stats.datagrams_duplicated, 1);
}

#[test]
fn time_limit_respected() {
    struct Forever;
    impl Node for Forever {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer_after(SimDuration::from_millis(1), 0);
        }
        fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _: u64) {
            ctx.set_timer_after(SimDuration::from_millis(1), 0);
        }
    }
    let mut net = Network::new(false);
    net.add_node(Box::new(Forever));
    assert_eq!(
        net.run(SimDuration::from_millis(100)),
        RunOutcome::TimeLimit
    );
    assert_eq!(net.now().as_millis_f64(), 100.0);
}

#[test]
fn deterministic_event_ordering_at_same_time() {
    // Two timers at identical times fire in insertion order (seq tiebreak).
    struct TwoTimers {
        order: Vec<u64>,
    }
    impl Node for TwoTimers {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimTime::ZERO + SimDuration::from_millis(5), 101);
            ctx.set_timer(SimTime::ZERO + SimDuration::from_millis(5), 102);
        }
        fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
            self.order.push(token);
            let me = ctx.me();
            let now = ctx.now();
            ctx.trace().milestone(me, now, format!("tok{token}"));
        }
    }
    let mut net = <Network>::new(false);
    net.add_node(Box::new(TwoTimers { order: Vec::new() }));
    net.run(SimDuration::from_secs(1));
    let labels: Vec<&str> = net.trace.milestones.iter().map(|m| &*m.label).collect();
    assert_eq!(labels, vec!["tok101", "tok102"]);
}

/// A node that sends one datagram to its peer every 5 ms, forever.
struct Chatter {
    peer: NodeId,
}
impl Node for Chatter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send(self.peer, b"hi".to_vec());
        ctx.set_timer_after(SimDuration::from_millis(5), 0);
    }
    fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _: u64) {
        ctx.send(self.peer, b"hi".to_vec());
        ctx.set_timer_after(SimDuration::from_millis(5), 0);
    }
}

/// A node that counts received datagrams into the milestone log.
struct Counter;
impl Node for Counter {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, _: NodeId, _: &[u8]) {
        let me = ctx.me();
        let now = ctx.now();
        ctx.trace().milestone(me, now, "rx");
    }
}

#[test]
fn run_until_steps_and_resumes() {
    let mut net = <Network>::new(false);
    let a = net.add_node(Box::new(Counter));
    let b = net.add_node(Box::new(Chatter { peer: a }));
    net.connect(a, b, LinkConfig::paper_default(SimDuration::from_millis(1)));
    net.prime();
    let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    assert_eq!(net.run_until(t(12)), RunOutcome::TimeLimit);
    // Sends at 0,5,10 arrive at 1,6,11.
    assert_eq!(all(&net.trace, "rx").len(), 3);
    assert_eq!(net.now(), t(12));
    // Resuming processes the already-queued later events.
    assert_eq!(net.run_until(t(22)), RunOutcome::TimeLimit);
    assert_eq!(all(&net.trace, "rx").len(), 5);
}

#[test]
fn schedule_start_spawns_mid_run() {
    let mut net = <Network>::new(false);
    let sink = net.add_node(Box::new(Counter));
    net.prime();
    let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    assert_eq!(net.run_until(t(10)), RunOutcome::QueueEmpty);
    // A node arriving at t=10, started at t=20: its first send leaves
    // at 20 and lands at 21.
    let late = net.add_node(Box::new(Chatter { peer: sink }));
    net.connect(
        late,
        sink,
        LinkConfig::paper_default(SimDuration::from_millis(1)),
    );
    net.schedule_start(late, t(20));
    assert_eq!(net.run_until(t(22)), RunOutcome::TimeLimit);
    let rx = all(&net.trace, "rx");
    assert_eq!(rx.len(), 1);
    assert!(rx[0] >= t(21) && rx[0] < t(22), "delivery ≈ start + delay");
}

#[test]
fn retired_nodes_absorb_events_and_drop_links() {
    let mut net = <Network>::new(false);
    let a = net.add_node(Box::new(Counter));
    let b = net.add_node(Box::new(Chatter { peer: a }));
    net.connect(a, b, LinkConfig::paper_default(SimDuration::from_millis(1)));
    net.prime();
    let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    net.run_until(t(7));
    assert_eq!(net.nodes.iter().flatten().count(), 2);
    // Retire the receiver: b keeps chattering into the void — queued
    // timer events for b still fire, its sends vanish (no link), and
    // stale datagrams addressed to a are skipped.
    let retired = net.retire_node(a);
    assert!(retired.is_some());
    assert_eq!(net.nodes.iter().flatten().count(), 1);
    assert!(!link_exists(&net, a, b));
    assert_eq!(net.run_until(t(30)), RunOutcome::TimeLimit);
    // Only the pre-retirement deliveries (t=1, t=6) were counted.
    assert_eq!(all(&net.trace, "rx").len(), 2);
    // Retiring twice is a no-op.
    assert!(net.retire_node(a).is_none());
}

#[test]
fn path_change_switches_delivery_profile() {
    /// Counter that tags each receipt with the arrival path id.
    struct PathCounter;
    impl Node for PathCounter {
        fn on_datagram(&mut self, ctx: &mut Context<'_>, _: NodeId, _: &[u8]) {
            let me = ctx.me();
            let now = ctx.now();
            let p = ctx.path();
            ctx.trace().milestone(me, now, format!("rx/p{p}"));
        }
    }
    let mut net = <Network>::new(false);
    let a = net.add_node(Box::new(PathCounter));
    let b = net.add_node(Box::new(Chatter { peer: a }));
    net.connect(a, b, LinkConfig::paper_default(SimDuration::from_millis(1)));
    net.connect_path(
        a,
        b,
        1,
        LinkConfig::paper_default(SimDuration::from_millis(20)),
    );
    let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    net.schedule_path_change(t(12), a, b, 1, false);
    net.prime();
    net.run_until(t(37));
    // Sends at 0, 5, 10 ride path 0 (≈1 ms); the send at 15 is the
    // first over path 1 and lands ≈20 ms later.
    assert_eq!(all(&net.trace, "rx/p0").len(), 3);
    let p1 = all(&net.trace, "rx/p1");
    assert_eq!(p1.len(), 1);
    assert!(p1[0] >= t(35) && p1[0] < t(36), "delivery ≈ send + 20 ms");
    // The pair's count is the two links' together, as the trace's is.
    assert_eq!(net.sent_count(b, a), net.trace.sent_count(b, a));
    // Sends at 0, 5, …, 35 ms: three over path 0, five over path 1.
    assert_eq!((net.sent_count(b, a), net.sent_count(a, b)), (8, 0));
    net.retire_node(a);
    assert_eq!(net.sent_count(b, a), 0, "the links went with the node");
}

#[test]
fn path_change_notifies_initiator() {
    struct Migrator {
        peer: NodeId,
    }
    impl Node for Migrator {
        fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
        fn on_path_change(&mut self, ctx: &mut Context<'_>, path: u64) {
            let me = ctx.me();
            let now = ctx.now();
            assert_eq!(ctx.path(), path);
            ctx.trace().milestone(me, now, format!("migrate/p{path}"));
            ctx.send(self.peer, b"probe".to_vec());
        }
    }
    let mut net = <Network>::new(false);
    let sink = net.add_node(Box::new(Counter));
    let m = net.add_node(Box::new(Migrator { peer: sink }));
    net.connect(
        m,
        sink,
        LinkConfig::paper_default(SimDuration::from_millis(1)),
    );
    net.connect_path(
        m,
        sink,
        7,
        LinkConfig::paper_default(SimDuration::from_millis(3)),
    );
    let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    net.schedule_path_change(t(10), m, sink, 7, true);
    net.prime();
    net.run_until(t(20));
    // The callback fires at the flip time and its probe already rides
    // the new path.
    assert_eq!(first(&net.trace, "migrate/p7"), Some(t(10)));
    let rx = all(&net.trace, "rx");
    assert_eq!(rx.len(), 1);
    assert!(rx[0] >= t(13) && rx[0] < t(14), "probe took the 3 ms path");
}

#[test]
fn path_change_after_retirement_is_noop() {
    let mut net = <Network>::new(false);
    let a = net.add_node(Box::new(Counter));
    let b = net.add_node(Box::new(Chatter { peer: a }));
    net.connect(a, b, LinkConfig::paper_default(SimDuration::from_millis(1)));
    net.connect_path(
        a,
        b,
        1,
        LinkConfig::paper_default(SimDuration::from_millis(5)),
    );
    let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    net.schedule_path_change(t(15), a, b, 1, false);
    net.prime();
    net.run_until(t(7));
    net.retire_node(a);
    // The queued flip targets a retired pair: it must neither panic
    // nor resurrect the route.
    assert_eq!(net.run_until(t(30)), RunOutcome::TimeLimit);
    assert_eq!(all(&net.trace, "rx").len(), 2);
}

#[test]
fn retirement_takes_every_path_and_leaves_neighbours_alone() {
    // A hub with three peers, the middle one multi-path and moved
    // onto its second path: retiring it drops both of its links (and
    // the reroute), its slots go to the next connects, and the other
    // pairs keep exchanging on theirs.
    let mut net = <Network>::new(false);
    let hub = net.add_node(Box::new(Counter));
    let peers: Vec<NodeId> = (0..3)
        .map(|_| net.add_node(Box::new(Chatter { peer: hub })))
        .collect();
    let ms = SimDuration::from_millis;
    let t = |n| SimTime::ZERO + ms(n);
    for p in &peers {
        net.connect(*p, hub, LinkConfig::paper_default(ms(1)));
    }
    net.connect_path(peers[1], hub, 1, LinkConfig::paper_default(ms(2)));
    net.schedule_path_change(t(3), peers[1], hub, 1, false);
    net.prime();
    net.run_until(t(7));
    assert_eq!(net.links.iter().flatten().count(), 4);
    let routes = |a, b| {
        net.ends_between(a, b)
            .map(|(_, end)| end.route)
            .collect::<Vec<_>>()
    };
    assert_eq!(routes(peers[1], hub), [1, 1]);
    assert_eq!(routes(hub, peers[0]), [0]);

    net.retire_node(peers[1]);
    assert_eq!(net.links.iter().flatten().count(), 2);
    assert_eq!(net.free_links.len(), 2);
    assert_eq!((net.lists[peers[1].0].len, net.lists[hub.0].len), (0, 2));
    assert!(!link_exists(&net, peers[1], hub));
    for p in [peers[0], peers[2]] {
        assert!(link_exists(&net, p, hub));
        assert!(link_exists(&net, hub, p));
    }
    // Let what the retired peer had in flight land, then: two
    // chatterers left, one send each per 5 ms.
    net.run_until(t(9));
    let before = all(&net.trace, "rx").len();
    net.run_until(t(14));
    assert_eq!(all(&net.trace, "rx").len(), before + 2);

    // A newcomer takes over a freed slot; the table does not grow.
    let late = net.add_node(Box::new(Chatter { peer: hub }));
    net.connect(late, hub, LinkConfig::paper_default(ms(1)));
    assert_eq!(net.links.len(), 4);
    assert_eq!(net.free_links.len(), 1);
    assert!(link_exists(&net, late, hub));
    // A fresh link: the newcomer's first datagram takes index 0.
    net.schedule_start(late, t(14));
    net.run_until(t(20));
    let first = net.trace.datagrams.iter().find(|d| d.from == late);
    assert_eq!(first.map(|d| d.index), Some(0));
}

#[test]
fn a_node_is_readable_until_it_is_retired() {
    let mut net = Network::new(false);
    let a = net.add_node(Counter);
    let b = net.add_node(Counter);
    assert!(net.node(a).is_some() && net.node(b).is_some());
    assert!(net.retire_node(a).is_some());
    assert!(net.node(a).is_none());
    assert!(net.node(b).is_some());
    assert!(net.node(NodeId(2)).is_none(), "never added");
}

#[test]
fn engine_stats_count_events_and_drops() {
    let mut net = Network::new(false);
    let a = net.add_node(Box::new(Ponger {
        peer: None,
        remaining: 9,
        initiate: false,
    }));
    let b = net.add_node(Box::new(Ponger {
        peer: Some(a),
        remaining: 9,
        initiate: true,
    }));
    net.connect(
        a,
        b,
        LinkConfig::paper_default(SimDuration::from_millis(1)).with_loss(DropIndices::new(0, 0b10)),
    );
    net.run(SimDuration::from_secs(1));
    let s = net.stats;
    assert_eq!(s.datagrams_dropped, 1);
    assert!(s.datagram_events > 0);
    assert_eq!(s.start_events, 2);
    assert_eq!(
        s.events_processed,
        s.datagram_events + s.timer_events + s.start_events + s.path_change_events
    );
    assert!(s.queue_depth_peak >= 1);
    // Export lands under sim/ and round-trips the counter values.
    let mut reg = rq_obs::Registry::new();
    s.export(&mut reg);
    assert_eq!(reg.counter("sim/datagrams/dropped"), 1);
    assert_eq!(reg.counter("sim/events/processed"), s.events_processed);

    // Identical run, identical stats: the counters are a pure
    // function of the event stream.
    let mut net2 = Network::new(false);
    let a2 = net2.add_node(Box::new(Ponger {
        peer: None,
        remaining: 9,
        initiate: false,
    }));
    let b2 = net2.add_node(Box::new(Ponger {
        peer: Some(a2),
        remaining: 9,
        initiate: true,
    }));
    net2.connect(
        a2,
        b2,
        LinkConfig::paper_default(SimDuration::from_millis(1)).with_loss(DropIndices::new(0, 0b10)),
    );
    net2.run(SimDuration::from_secs(1));
    assert_eq!(net2.stats, s);
}

#[test]
fn lean_trace_records_nothing() {
    let mut net = <Network>::new(false);
    net.trace.recording = false;
    let a = net.add_node(Box::new(Counter));
    let b = net.add_node(Box::new(Chatter { peer: a }));
    net.connect(a, b, LinkConfig::paper_default(SimDuration::from_millis(1)));
    net.prime();
    net.run_until(SimTime::ZERO + SimDuration::from_millis(50));
    assert!(net.trace.datagrams.is_empty());
    assert!(net.trace.milestones.is_empty());
}

#[test]
#[should_panic(expected = "no link")]
fn send_without_link_panics() {
    struct Sender {
        to: NodeId,
    }
    impl Node for Sender {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(self.to, vec![1]);
        }
        fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
    }
    let mut net = Network::new(false);
    let a = net.add_node(Box::new(Sender { to: NodeId(1) }));
    let _ = a;
    let _b = net.add_node(Box::new(Sender { to: NodeId(0) }));
    // No connect() call.
    net.run(SimDuration::from_secs(1));
}

#[test]
fn event_ceiling_stops_before_the_pop() {
    let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    let build = || {
        let mut net = <Network>::new(false);
        let a = net.add_node(Box::new(Counter));
        let b = net.add_node(Box::new(Chatter { peer: a }));
        net.connect(a, b, LinkConfig::paper_default(SimDuration::from_millis(1)));
        net.prime();
        net
    };
    let mut whole = build();
    assert_eq!(whole.run_until(t(50)), RunOutcome::TimeLimit);

    let mut limited = build();
    limited.event_limit = 5;
    assert_eq!(limited.run_until(t(50)), RunOutcome::EventLimit);
    assert_eq!(limited.stats.events_processed, 5);
    // A slice that starts at the ceiling stops before its first event.
    assert_eq!(limited.run_until(t(50)), RunOutcome::EventLimit);
    assert_eq!(limited.stats.events_processed, 5);
    // Raised, the ceiling lets the run finish as if it had never bound.
    limited.event_limit = 1_000;
    assert_eq!(limited.run_until(t(50)), RunOutcome::TimeLimit);
    assert_eq!(limited.stats, whole.stats);
    assert_eq!(all(&limited.trace, "rx"), all(&whole.trace, "rx"));
}

/// The run queue against the plain `(at, seq)` heap it replaced, as an
/// oracle: random schedules of pushes and pops must pop the same
/// `(at, seq)` sequence and keep the same length. Instants come from a
/// window of four just after the last popped one, so runs are broken
/// and reopened all the time.
#[test]
fn queue_pops_in_heap_order() {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
    // How often each shape the schedules must include was drawn.
    let (mut bursts, mut at_drained, mut reopened_drained, mut interleaved) = (0, 0, 0, 0);
    rq_testkit::prop::cases(256, |rng| {
        let mut queue = Queue::with_capacity(rng.gen_range(3) as usize);
        let mut oracle = BinaryHeap::new();
        let mut next_seq = 0u64;
        // The instant being drained, and the instants of the last two
        // pushes and of a pop that took the newest event.
        let mut now = 0;
        let mut pushed: [Option<u64>; 2] = [None, None];
        let mut newest_popped_at = None;
        for _ in 0..1 + rng.gen_range(300) {
            let op = rng.gen_range(10);
            if op < 4 && !oracle.is_empty() {
                let Reverse(want) = oracle.pop().unwrap();
                let (at, seq, ()) = queue.pop().expect("the oracle has an event");
                assert_eq!((at, seq), want);
                now = at.as_nanos() / 1_000_000;
                newest_popped_at = (seq + 1 == next_seq).then_some(now);
            } else {
                let at = if rng.gen_bool(0.3) {
                    now
                } else {
                    now + rng.gen_range(4)
                };
                let n = if op == 9 { 20 + rng.gen_range(40) } else { 1 };
                bursts += u32::from(n > 1);
                at_drained += u32::from(at == now && !oracle.is_empty());
                reopened_drained += u32::from(newest_popped_at == Some(at));
                interleaved += u32::from(pushed[0] != Some(at) && pushed[1] == Some(at));
                for _ in 0..n {
                    queue.push(ms(at), ());
                    oracle.push(Reverse((ms(at), next_seq)));
                    next_seq += 1;
                }
                pushed = [Some(at), pushed[0]];
                newest_popped_at = None;
            }
            assert_eq!(queue.len(), oracle.len());
        }
        while let Some(Reverse(want)) = oracle.pop() {
            let (at, seq, ()) = queue.pop().expect("the oracle has an event");
            assert_eq!((at, seq), want);
        }
        assert!(queue.pop().is_none());
        assert_eq!(queue.len(), 0);
    });
    for (shape, drawn) in [
        ("long bursts at one instant", bursts),
        ("pushes at the instant being drained", at_drained),
        ("a push where a pop emptied the open run", reopened_drained),
        ("pushes that reopen an interleaved instant", interleaved),
    ] {
        assert!(drawn >= 50, "{shape}: drawn {drawn} times");
    }
}

/// One callback as a [`Program`] node saw it.
#[derive(Debug, PartialEq)]
enum Seen {
    Start(SimTime),
    Datagram(SimTime, NodeId, u64, Vec<u8>),
    Timer(SimTime, u64),
    PathChange(SimTime, u64),
}

/// A node that answers every callback with sends and timers drawn from
/// its own stream, building in the network's spares and now and then
/// keeping a view of what it received, and logs what it saw.
struct Program {
    rng: crate::rng::SimRng,
    peers: Vec<NodeId>,
    budget: u32,
    seen: Vec<Seen>,
    kept: Vec<Bytes>,
}

impl Program {
    fn act(&mut self, ctx: &mut Context<'_>) {
        for _ in 0..self.rng.gen_range(3) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            if self.rng.gen_bool(0.6) {
                let to = self.peers[self.rng.gen_range(self.peers.len() as u64) as usize];
                let len = 1 + self.rng.gen_range(1_300) as usize;
                let byte = self.rng.next_u64() as u8;
                let datagram = ctx.spares().build(len, |buf| buf[len / 2] = byte);
                ctx.send(to, datagram);
            } else {
                let after = SimDuration::from_micros(self.rng.gen_range(3_000));
                ctx.set_timer_after(after, self.rng.gen_range(4));
            }
        }
    }
}

impl Node for Program {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.seen.push(Seen::Start(ctx.now()));
        self.act(ctx);
    }

    fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {
        unreachable!("the engine delivers datagrams owned");
    }

    fn on_datagram_owned(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        let seen = Seen::Datagram(ctx.now(), from, ctx.path(), payload.to_vec());
        self.seen.push(seen);
        if self.rng.gen_bool(0.1) {
            self.kept.push(payload.slice(payload.len() / 2..));
        }
        self.act(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.seen.push(Seen::Timer(ctx.now(), token));
        self.act(ctx);
    }

    fn on_path_change(&mut self, ctx: &mut Context<'_>, path: u64) {
        self.seen.push(Seen::PathChange(ctx.now(), path));
        self.act(ctx);
    }
}

/// Runs the program `seed` draws on `net` — two to five nodes, random
/// links with drops, impairments and second paths, route flips, a node
/// retired halfway — and returns everything observable: each node's
/// callbacks, the trace, the counters and the queue's and clock's final
/// state. With `dirty`, it also leaves behind what a reset must undo:
/// no trace recording, a low event limit.
fn run_program(net: &mut Network<Program>, seed: u64, dirty: bool) -> String {
    let mut rng = crate::rng::SimRng::new(seed);
    let n = 2 + rng.gen_range(4) as usize;
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            net.add_node(Program {
                rng: crate::rng::SimRng::derive(seed, &[i as u64]),
                peers: Vec::new(),
                budget: 40,
                seen: Vec::new(),
                kept: Vec::new(),
            })
        })
        .collect();
    let mut peers = vec![Vec::new(); n];
    for a in 0..n {
        for b in a + 1..n {
            if b != a + 1 && rng.gen_bool(0.5) {
                continue;
            }
            let delay = 100 + rng.gen_range(5_000);
            let mut link = LinkConfig::paper_default(SimDuration::from_micros(delay));
            link.loss = DropIndices::new(rng.next_u64() & rng.next_u64(), rng.next_u64() & 0xF0);
            if rng.gen_bool(0.5) {
                let spec = crate::ImpairmentSpec::none()
                    .with_iid_loss(0.1)
                    .with_duplication(0.2)
                    .with_uniform_jitter(SimDuration::from_millis(2));
                link = link.with_impairment(spec, rng.next_u64());
            }
            net.connect(ids[a], ids[b], link);
            if rng.gen_bool(0.3) {
                let other = LinkConfig::paper_default(SimDuration::from_micros(2 * delay));
                net.connect_path(ids[a], ids[b], 1, other);
                let at = SimTime::ZERO + SimDuration::from_micros(rng.gen_range(20_000));
                net.schedule_path_change(at, ids[a], ids[b], 1, rng.gen_bool(0.5));
            }
            peers[a].push(ids[b]);
            peers[b].push(ids[a]);
        }
    }
    for (id, peers) in ids.iter().zip(peers) {
        net.nodes[id.0].as_mut().unwrap().peers = peers;
    }
    if dirty {
        net.trace.recording = rng.gen_bool(0.5);
        net.event_limit = 10 + rng.gen_range(40);
    }
    let half = SimTime::ZERO + SimDuration::from_micros(rng.gen_range(30_000));
    net.prime();
    let first = net.run_until(half);
    let retired = net.retire_node(ids[rng.gen_range(n as u64) as usize]);
    let last = net.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let seen: Vec<&Vec<Seen>> = net.nodes.iter().flatten().map(|p| &p.seen).collect();
    format!(
        "{first:?} {last:?} {:?} {seen:?} {:?} {:?} now {:?} started {} seq {} queued {} links {} {:?} {:?}",
        retired.map(|p| p.seen),
        net.trace,
        net.stats,
        net.now,
        net.started,
        net.queue.next_seq(),
        net.queue.len(),
        net.links.iter().flatten().count(),
        net.ends,
        net.lists,
    )
}

#[test]
fn a_reset_network_runs_a_program_as_a_new_one_does() {
    let mut stopped_early = 0;
    rq_testkit::prop::cases(64, |rng| {
        let (seed, other) = (rng.next_u64(), rng.next_u64());
        let capture = rng.gen_bool(0.5);
        let new = run_program(&mut Network::new(capture), seed, false);
        let mut net = Network::new(!capture);
        let before = run_program(&mut net, other, true);
        stopped_early += u32::from(before.starts_with("EventLimit"));
        net.reset(capture);
        assert_eq!(run_program(&mut net, seed, false), new);
        // Once more, from the state a clean run leaves.
        net.reset(capture);
        assert_eq!(run_program(&mut net, seed, false), new);
    });
    assert!(
        stopped_early >= 10,
        "{stopped_early} dirty runs hit the limit"
    );
}
