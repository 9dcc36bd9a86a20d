//! Property tests pinning the `Registry` merge monoid laws: the whole
//! parallel==sequential guarantee for metrics snapshots reduces to
//! merge being associative and commutative with `Registry::default()`
//! as identity, so shard order and thread count cannot matter.

use rq_obs::Registry;
use rq_testkit::prop::{cases, SimRng};

/// Fold raw draws into a registry. The metric kind is a pure function
/// of the name slot, so arbitrarily interleaved op streams can never
/// produce a kind mismatch — mismatches are a naming bug, not a state
/// the merge algebra has to absorb.
fn registry_from(ops: &[u64]) -> Registry {
    let mut r = Registry::new();
    for &op in ops {
        let slot = (op >> 32) % 9;
        let v = op & 0xFFFF_FFFF;
        match slot % 3 {
            0 => r.add(format!("c/counter{}", slot / 3), v % 1_000),
            1 => r.gauge(
                format!("g/gauge{}", slot / 3),
                (v % 100) as i64,
                (v % 257) as i64,
            ),
            _ => r.observe(format!("h/hist{}", slot / 3), v % 100_000),
        }
    }
    r
}

fn merged(a: &Registry, b: &Registry) -> Registry {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// Fewer than `max_len` raw draws.
fn ops(rng: &mut SimRng, max_len: u64) -> Vec<u64> {
    (0..rng.gen_range(max_len))
        .map(|_| rng.next_u64())
        .collect()
}

#[test]
fn merge_is_associative() {
    cases(128, |rng| {
        let (a, b, c) = (ops(rng, 24), ops(rng, 24), ops(rng, 24));
        let (ra, rb, rc) = (registry_from(&a), registry_from(&b), registry_from(&c));
        let left = merged(&merged(&ra, &rb), &rc);
        let right = merged(&ra, &merged(&rb, &rc));
        assert_eq!(left, right);
    });
}

#[test]
fn merge_is_commutative() {
    cases(128, |rng| {
        let (ra, rb) = (registry_from(&ops(rng, 24)), registry_from(&ops(rng, 24)));
        assert_eq!(merged(&ra, &rb), merged(&rb, &ra));
    });
}

#[test]
fn default_is_identity() {
    cases(128, |rng| {
        let ra = registry_from(&ops(rng, 24));
        assert_eq!(merged(&ra, &Registry::default()), ra.clone());
        assert_eq!(merged(&Registry::default(), &ra), ra);
    });
}

#[test]
fn sharded_fold_equals_sequential_fold() {
    cases(128, |rng| {
        let stream = ops(rng, 64);
        let shard = 1 + rng.gen_range(7) as usize;
        // The exact shape the sweep engine relies on: folding per-shard
        // registries in shard order equals folding everything into one.
        let sequential = registry_from(&stream);
        let mut sharded = Registry::default();
        for chunk in stream.chunks(shard) {
            sharded.merge(&registry_from(chunk));
        }
        assert_eq!(sharded, sequential);
    });
}
