//! The network's spare datagram storage is safe to build in: storage a
//! receiver still holds a view of is never handed out again, a
//! duplicated datagram's storage comes back only after its last copy
//! is delivered, and a ping-pong of same-size datagrams allocates
//! storage only for what is in flight, however long it runs.

use std::collections::BTreeSet;

use rq_sim::{
    Context, ImpairmentSpec, LinkConfig, Network, Node, NodeId, RunOutcome, SimDuration, SimTime,
};
use rq_testkit::alloc::{requested_by, Counting};
use rq_wire::Bytes;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Datagram length of every test.
const LEN: usize = 1200;

/// One end of a ping-pong: answers every datagram with one of [`LEN`]
/// bytes, each filled with the number of the datagram it is, until it
/// has sent `left`. The initiator sends the first on start.
#[derive(Default)]
struct Peer {
    initiate: Option<NodeId>,
    left: u32,
    /// Builds with `Bytes::build` instead of in the network's spares.
    fresh: bool,
    /// Keep a view of every `keep_every`-th datagram received (0: none),
    /// with the number it was filled with.
    keep_every: u32,
    kept: Vec<(u8, Bytes)>,
    /// Storage addresses of what was received, when any is kept.
    storage: BTreeSet<usize>,
    received: u32,
}

impl Peer {
    fn send(&self, ctx: &mut Context<'_>, to: NodeId, number: u8) {
        let fill = |buf: &mut [u8]| buf.fill(number);
        let datagram = match self.fresh {
            true => Bytes::build(LEN, fill),
            false => ctx.spares().build(LEN, fill),
        };
        ctx.send(to, datagram);
    }
}

impl Node for Peer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if let Some(to) = self.initiate {
            self.send(ctx, to, 0);
        }
    }

    fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {
        unreachable!("the engine delivers datagrams owned");
    }

    fn on_datagram_owned(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        self.received += 1;
        let number = payload[0];
        if self.keep_every > 0 {
            self.storage.insert(payload.as_ptr() as usize);
            if self.received.is_multiple_of(self.keep_every) {
                // A view of part of it, as a connection keeps a packet
                // it cannot open yet.
                self.kept.push((number, payload.slice(LEN / 2..)));
            }
        }
        if self.left > 0 {
            self.left -= 1;
            self.send(ctx, from, number.wrapping_add(1));
        }
    }
}

/// A ping-pong of `n` datagrams each way after the first, `b` keeping
/// views as `keep_every` says; returns the network and `b`.
fn ping_pong(n: u32, fresh: bool, keep_every: u32) -> (Network<Peer>, NodeId) {
    let mut net = Network::new(false);
    // Nothing per datagram is recorded, so what the run asks of the
    // allocator does not grow with it but for datagram storage.
    net.trace.recording = false;
    let b = net.add_node(Peer {
        left: n,
        fresh,
        keep_every,
        ..Peer::default()
    });
    let a = net.add_node(Peer {
        initiate: Some(b),
        left: n,
        fresh,
        ..Peer::default()
    });
    net.connect(a, b, LinkConfig::paper_default(SimDuration::from_millis(1)));
    assert_eq!(
        net.run(SimDuration::from_secs(3_600)),
        RunOutcome::QueueEmpty
    );
    (net, b)
}

#[test]
fn a_kept_view_reads_its_bytes_while_the_storage_around_it_is_reused() {
    let (net, b) = ping_pong(300, false, 3);
    let b = net.node(b).unwrap();
    assert_eq!((b.received, b.kept.len()), (301, 100));
    for (number, view) in &b.kept {
        assert!(view.iter().all(|byte| byte == number), "datagram {number}");
    }
    // What was not kept was built in again: 301 datagrams arrived in
    // far fewer storages, one for each kept and a few in circulation.
    assert!(b.storage.len() <= 100 + 3, "{} storages", b.storage.len());
}

#[test]
fn ping_pong_allocates_storage_only_for_what_is_in_flight() {
    let short = requested_by(|| ping_pong(10, false, 0));
    let long = requested_by(|| ping_pong(1_000, false, 0));
    assert_eq!(long, short, "(calls, bytes) for 2,001 datagrams and for 21");
    // Without the spares, each datagram is an allocation of its own.
    let fresh = requested_by(|| ping_pong(1_000, true, 0));
    assert!(fresh.0 >= short.0 + 1_980, "{fresh:?} against {short:?}");
    assert!(
        fresh.1 >= short.1 + 1_980 * LEN as u64,
        "{fresh:?} against {short:?}"
    );
}

/// Receives one duplicated datagram and, right after each copy,
/// builds one of its length in the spares: whether that reused the
/// delivered storage, by copy.
#[derive(Default)]
struct Prober {
    to: Option<NodeId>,
    delivered: Vec<(SimTime, usize)>,
    reused: Vec<bool>,
}

impl Node for Prober {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if let Some(to) = self.to {
            let datagram = ctx.spares().build(LEN, |buf| buf.fill(7));
            ctx.send(to, datagram);
        }
    }

    fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {
        unreachable!("the engine delivers datagrams owned");
    }

    fn on_datagram_owned(&mut self, ctx: &mut Context<'_>, _: NodeId, payload: Bytes) {
        self.delivered.push((ctx.now(), payload.as_ptr() as usize));
        // The probe runs once this callback has returned and the engine
        // has taken back what it could.
        ctx.set_timer(ctx.now(), 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _: u64) {
        let probe = ctx.spares().build(LEN, |_| {});
        let storage = self.delivered.last().unwrap().1;
        self.reused.push(probe.as_ptr() as usize == storage);
    }
}

#[test]
fn a_duplicated_datagram_comes_back_after_its_last_copy() {
    let mut net = Network::new(false);
    let b = net.add_node(Prober::default());
    let a = net.add_node(Prober {
        to: Some(b),
        ..Prober::default()
    });
    let spec = ImpairmentSpec::none()
        .with_duplication(1.0)
        .with_uniform_jitter(SimDuration::from_millis(10));
    net.connect(
        a,
        b,
        LinkConfig::paper_default(SimDuration::from_millis(1)).with_impairment(spec, 3),
    );
    assert_eq!(net.run(SimDuration::from_secs(1)), RunOutcome::QueueEmpty);
    let b = net.node(b).unwrap();
    let [(first, one), (second, other)] = b.delivered[..] else {
        panic!("{:?}", b.delivered);
    };
    assert!(
        first < second,
        "the copies arrive apart: {first:?}, {second:?}"
    );
    assert_eq!(one, other, "both copies share one storage");
    assert_eq!(b.reused, [false, true]);
}
