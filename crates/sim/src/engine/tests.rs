use super::*;
use crate::link::LinkStats;
use crate::loss::{Direction, DropIndices};

/// Counters of the live link from `a` to `b`, if one exists.
fn link_stats(net: &Network, a: NodeId, b: NodeId) -> Option<LinkStats> {
    let link = net.links[net.active_slot(a, b)?].as_ref();
    Some(link.expect("indexed link is live").stats)
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
            loss: Box::new(crate::loss::NoLoss),
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
    assert_eq!(net.trace.first("t1").unwrap().as_millis_f64(), 10.0);
    assert_eq!(net.trace.first("t2").unwrap().as_millis_f64(), 20.0);
    assert_eq!(net.trace.first("t3").unwrap().as_millis_f64(), 30.0);
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
        LinkConfig::paper_default(SimDuration::from_millis(1))
            .with_loss(DropIndices::new(Direction::BtoA, &[0])),
    );
    // b's first ping (BtoA index 0) is dropped; nothing else happens.
    let outcome = net.run(SimDuration::from_secs(1));
    assert_eq!(outcome, RunOutcome::QueueEmpty);
    assert_eq!(net.trace.dropped_count(b, a), 1);
    assert!(net.trace.milestones.is_empty());
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
    let mut net = Network::new(false);
    let a = net.add_node(Box::new(Sink));
    let b = net.add_node(Box::new(OneShot { peer: a }));
    net.connect(
        a,
        b,
        LinkConfig::paper_default(SimDuration::from_millis(2))
            .with_impairment(ImpairmentSpec::none().with_duplication(1.0), 1),
    );
    assert_eq!(net.run(SimDuration::from_secs(1)), RunOutcome::QueueEmpty);
    assert_eq!(net.trace.all("rx").len(), 2);
    // The fabricated copy is a second handle on the one buffer.
    let at: Vec<_> = (net.trace.milestones.iter().map(|m| &m.label))
        .filter(|label| *label != "rx")
        .collect();
    assert_eq!(at.len(), 2);
    assert_eq!(at[0], at[1]);
    assert_eq!(net.trace.sent_count(b, a), 1);
    assert_eq!(net.trace.duplicated_count(b, a), 1);
    assert_eq!(link_stats(&net, a, b).unwrap().duplicated, 1);
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
    let mut net = Network::new(false);
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
    let mut net = Network::new(false);
    let a = net.add_node(Box::new(Counter));
    let b = net.add_node(Box::new(Chatter { peer: a }));
    net.connect(a, b, LinkConfig::paper_default(SimDuration::from_millis(1)));
    net.prime();
    let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    assert_eq!(net.run_until(t(12)), RunOutcome::TimeLimit);
    // Sends at 0,5,10 arrive at 1,6,11.
    assert_eq!(net.trace.all("rx").len(), 3);
    assert_eq!(net.now(), t(12));
    // Resuming processes the already-queued later events.
    assert_eq!(net.run_until(t(22)), RunOutcome::TimeLimit);
    assert_eq!(net.trace.all("rx").len(), 5);
}

#[test]
fn schedule_start_spawns_mid_run() {
    let mut net = Network::new(false);
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
    let rx = net.trace.all("rx");
    assert_eq!(rx.len(), 1);
    assert!(rx[0] >= t(21) && rx[0] < t(22), "delivery ≈ start + delay");
}

#[test]
fn retired_nodes_absorb_events_and_drop_links() {
    let mut net = Network::new(false);
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
    assert!(link_stats(&net, a, b).is_none());
    assert_eq!(net.run_until(t(30)), RunOutcome::TimeLimit);
    // Only the pre-retirement deliveries (t=1, t=6) were counted.
    assert_eq!(net.trace.all("rx").len(), 2);
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
    let mut net = Network::new(false);
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
    assert_eq!(net.trace.all("rx/p0").len(), 3);
    let p1 = net.trace.all("rx/p1");
    assert_eq!(p1.len(), 1);
    assert!(p1[0] >= t(35) && p1[0] < t(36), "delivery ≈ send + 20 ms");
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
    let mut net = Network::new(false);
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
    assert_eq!(net.trace.first("migrate/p7"), Some(t(10)));
    let rx = net.trace.all("rx");
    assert_eq!(rx.len(), 1);
    assert!(rx[0] >= t(13) && rx[0] < t(14), "probe took the 3 ms path");
}

#[test]
fn path_change_after_retirement_is_noop() {
    let mut net = Network::new(false);
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
    assert_eq!(net.trace.all("rx").len(), 2);
}

#[test]
fn retirement_takes_every_path_and_leaves_neighbours_alone() {
    // A hub with three peers, the middle one multi-path and moved
    // onto its second path: retiring it drops both of its links (and
    // the reroute), its slots go to the next connects, and the other
    // pairs keep exchanging on theirs.
    let mut net = Network::new(false);
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
    assert_eq!(net.rerouted.len(), 2);

    net.retire_node(peers[1]);
    assert_eq!(net.links.iter().flatten().count(), 2);
    assert_eq!(net.free_links.len(), 2);
    assert!(net.rerouted.is_empty());
    assert!(link_stats(&net, peers[1], hub).is_none());
    for p in [peers[0], peers[2]] {
        assert!(link_stats(&net, p, hub).is_some());
        assert!(link_stats(&net, hub, p).is_some());
    }
    // Let what the retired peer had in flight land, then: two
    // chatterers left, one send each per 5 ms.
    net.run_until(t(9));
    let before = net.trace.all("rx").len();
    net.run_until(t(14));
    assert_eq!(net.trace.all("rx").len(), before + 2);

    // A newcomer takes over a freed slot; the table does not grow.
    let late = net.add_node(Box::new(Chatter { peer: hub }));
    net.connect(late, hub, LinkConfig::paper_default(ms(1)));
    assert_eq!(net.links.len(), 4);
    assert_eq!(net.free_links.len(), 1);
    assert_eq!(link_stats(&net, late, hub), Some(LinkStats::default()));
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
        LinkConfig::paper_default(SimDuration::from_millis(1))
            .with_loss(DropIndices::new(Direction::BtoA, &[1])),
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
        LinkConfig::paper_default(SimDuration::from_millis(1))
            .with_loss(DropIndices::new(Direction::BtoA, &[1])),
    );
    net2.run(SimDuration::from_secs(1));
    assert_eq!(net2.stats, s);
}

#[test]
fn lean_trace_records_nothing() {
    let mut net = Network::new(false);
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
