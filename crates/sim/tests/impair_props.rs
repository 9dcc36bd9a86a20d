//! Property-based tests for the stochastic impairment engine.
//!
//! For *any* seeded [`ImpairmentSpec`], an impaired link must uphold three
//! invariants the rest of the stack (and the testbed's determinism
//! guarantee) builds on:
//!
//! 1. **Subsequence-with-duplicates**: every delivered datagram is a copy
//!    of one that was sent — at most the original plus one fabricated
//!    duplicate per send, and nothing the sender never offered.
//! 2. **Delay floor**: every delivered copy arrives no earlier than one
//!    serialization + one-way propagation delay after its send.
//! 3. **Schedule determinism**: identical seeds reproduce the identical
//!    delivery schedule (fates, times, duplicates), and the schedule is a
//!    pure function of the scenario seed alone.

use rq_sim::trace::CaptureRecord;
use rq_sim::{
    Context, DatagramFate, ImpairmentSpec, LinkConfig, Network, Node, NodeId, RunOutcome,
    SimDuration, SimRng, SimTime,
};
use rq_testkit::prop::cases;

/// Sends `count` distinct-payload datagrams, one every `gap`.
struct Flooder {
    peer: NodeId,
    count: u64,
    gap: SimDuration,
    sent: u64,
}

impl Node for Flooder {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimTime::ZERO, 0);
    }
    fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _: u64) {
        if self.sent < self.count {
            // Distinct, recognisable payload: the datagram's sequence
            // number in little-endian plus padding.
            let mut payload = self.sent.to_le_bytes().to_vec();
            payload.resize(64, 0xAB);
            ctx.send(self.peer, payload);
            self.sent += 1;
            ctx.set_timer_after(self.gap, 0);
        }
    }
}

/// Records every arrival (time + payload) for post-run inspection.
struct Recorder;

impl Node for Recorder {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, _: NodeId, payload: &[u8]) {
        let me = ctx.me();
        let now = ctx.now();
        let seq = u64::from_le_bytes(payload[..8].try_into().unwrap());
        ctx.trace().milestone(me, now, format!("rx:{seq}"));
    }
}

/// One impaired flood: returns (capture records a→b, rx milestones).
fn run_flood(
    spec: ImpairmentSpec,
    seed: u64,
    count: u64,
) -> (Vec<CaptureRecord>, Vec<(u64, SimTime)>) {
    let mut net = <Network>::new(true);
    let b = net.add_node(Box::new(Recorder));
    let a = net.add_node(Box::new(Flooder {
        peer: b,
        count,
        gap: SimDuration::from_micros(200),
        sent: 0,
    }));
    net.connect(
        a,
        b,
        LinkConfig::paper_default(SimDuration::from_millis(2)).with_impairment(spec, seed),
    );
    let outcome = net.run(SimDuration::from_secs(10));
    assert_eq!(outcome, RunOutcome::QueueEmpty);
    let records: Vec<CaptureRecord> = net
        .trace
        .datagrams
        .iter()
        .filter(|d| d.from == a && d.to == b)
        .cloned()
        .collect();
    let arrivals: Vec<(u64, SimTime)> = net
        .trace
        .milestones
        .iter()
        .map(|m| {
            let seq: u64 = m.label.strip_prefix("rx:").unwrap().parse().unwrap();
            (seq, m.at)
        })
        .collect();
    (records, arrivals)
}

/// Draws an arbitrary impairment spec: reordering and duplication up to
/// 99.9 %, no loss, i.i.d. or Gilbert-Elliott loss at
/// `min_loss_pm..400` per mille, with or without up to 7 ms of jitter.
fn spec_from(rng: &mut SimRng, min_loss_pm: u64) -> ImpairmentSpec {
    let mut per_mille = |lo: u64, hi: u64| (lo + rng.gen_range(hi - lo)) as f64 / 1000.0;
    let (reorder, dup) = (per_mille(0, 1000), per_mille(0, 1000));
    let loss = per_mille(min_loss_pm, 400);
    let mut spec = ImpairmentSpec::none()
        .with_reordering(reorder, SimDuration::from_millis(4))
        .with_duplication(dup);
    spec = match rng.gen_range(3) {
        0 => spec,
        1 => spec.with_iid_loss(loss),
        _ => spec.with_gilbert_elliott(loss, 0.3, 0.0, 0.9),
    };
    match rng.gen_range(2) {
        0 => spec,
        _ => spec.with_uniform_jitter(SimDuration::from_millis(rng.gen_range(8))),
    }
}

/// Serialization delay of the 64-byte flood payload on the 10 Mbit/s
/// paper link: 64 * 8 / 10^7 s = 51.2 µs.
const SERIALIZATION: SimDuration = SimDuration::from_nanos(51_200);
const ONE_WAY: SimDuration = SimDuration::from_millis(2);
const COUNT: u64 = 40;

/// Invariant 1: delivered datagrams are a subsequence-with-duplicates
/// of the sent ones — same payload per index, at most one fabricated
/// copy, nothing invented.
#[test]
fn delivered_is_subsequence_with_duplicates() {
    cases(64, |rng| {
        let spec = spec_from(rng, 0);
        let (records, arrivals) = run_flood(spec, rng.next_u64(), COUNT);

        // The sender offered exactly COUNT originals, in sequence order.
        let originals: Vec<&CaptureRecord> = records.iter().filter(|r| !r.duplicate).collect();
        assert_eq!(originals.len() as u64, COUNT);
        for (i, rec) in originals.iter().enumerate() {
            assert_eq!(rec.index, i);
        }
        // Each duplicate shadows a *delivered* original of the same index
        // with identical payload bytes; at most one copy per original.
        for dup in records.iter().filter(|r| r.duplicate) {
            let orig = originals[dup.index];
            assert!(matches!(orig.fate, DatagramFate::Delivered(_)));
            assert_eq!(&orig.payload, &dup.payload);
        }
        for idx in 0..COUNT as usize {
            let copies = records
                .iter()
                .filter(|r| r.duplicate && r.index == idx)
                .count();
            assert!(copies <= 1, "index {idx} duplicated {copies} times");
        }
        // Every arrival at the receiver corresponds to a delivered record
        // of that sequence number — delivery count per seq matches.
        for seq in 0..COUNT {
            let delivered = records
                .iter()
                .filter(|r| r.index == seq as usize && matches!(r.fate, DatagramFate::Delivered(_)))
                .count();
            let arrived = arrivals.iter().filter(|(s, _)| *s == seq).count();
            assert_eq!(delivered, arrived, "seq {seq}");
        }
    });
}

/// Invariant 2: per-datagram delay ≥ serialization + one-way delay,
/// for originals and fabricated copies alike.
#[test]
fn delivery_delay_at_least_one_way() {
    cases(64, |rng| {
        let spec = spec_from(rng, 0);
        let (records, _) = run_flood(spec, rng.next_u64(), COUNT);
        for rec in &records {
            if let DatagramFate::Delivered(at) = rec.fate {
                let delay = at.since(rec.sent);
                assert!(
                    delay >= ONE_WAY + SERIALIZATION,
                    "index {} delay {delay} below floor",
                    rec.index
                );
            }
        }
    });
}

/// Invariant 3: identical seeds reproduce identical delivery
/// schedules; a different seed perturbs the schedule whenever the
/// spec actually randomises anything.
#[test]
fn identical_seeds_identical_schedules() {
    cases(64, |rng| {
        let spec = spec_from(rng, 50);
        let schedule = |seed: u64| {
            let (records, arrivals) = run_flood(spec, seed, COUNT);
            let fates: Vec<(usize, bool, DatagramFate)> = records
                .iter()
                .map(|r| (r.index, r.duplicate, r.fate))
                .collect();
            (fates, arrivals)
        };
        let seed = rng.next_u64();
        assert_eq!(schedule(seed), schedule(seed));
    });
}

/// Non-property sanity check: a lossless, jitter-free spec preserves FIFO
/// arrival order exactly.
#[test]
fn clean_channel_preserves_fifo_order() {
    let (records, arrivals) = run_flood(ImpairmentSpec::none(), 1, 40);
    assert!(records.iter().all(|r| !r.duplicate));
    let seqs: Vec<u64> = arrivals.iter().map(|(s, _)| *s).collect();
    assert_eq!(seqs, (0..40).collect::<Vec<u64>>());
}

/// Reordering with a window wider than the send gap actually produces
/// out-of-order arrivals for at least one seed.
#[test]
fn reordering_channel_reorders_arrivals() {
    let spec = ImpairmentSpec::none().with_reordering(0.3, SimDuration::from_millis(4));
    let reordered = (0..10u64).any(|seed| {
        let (_, arrivals) = run_flood(spec, seed, 40);
        arrivals.windows(2).any(|w| w[0].0 > w[1].0)
    });
    assert!(reordered, "no seed in 0..10 produced a reordered arrival");
}
