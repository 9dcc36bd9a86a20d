//! Property tests pinning the `Registry` merge monoid laws: the whole
//! parallel==sequential guarantee for metrics snapshots reduces to
//! merge being associative and commutative with `Registry::default()`
//! as identity, so shard order and thread count cannot matter.

use proptest::collection;
use proptest::prelude::*;
use rq_obs::Registry;

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn merge_is_associative(
        a in collection::vec(any::<u64>(), 0..24),
        b in collection::vec(any::<u64>(), 0..24),
        c in collection::vec(any::<u64>(), 0..24),
    ) {
        let (ra, rb, rc) = (registry_from(&a), registry_from(&b), registry_from(&c));
        let left = merged(&merged(&ra, &rb), &rc);
        let right = merged(&ra, &merged(&rb, &rc));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_is_commutative(
        a in collection::vec(any::<u64>(), 0..24),
        b in collection::vec(any::<u64>(), 0..24),
    ) {
        let (ra, rb) = (registry_from(&a), registry_from(&b));
        prop_assert_eq!(merged(&ra, &rb), merged(&rb, &ra));
    }

    #[test]
    fn default_is_identity(a in collection::vec(any::<u64>(), 0..24)) {
        let ra = registry_from(&a);
        prop_assert_eq!(merged(&ra, &Registry::default()), ra.clone());
        prop_assert_eq!(merged(&Registry::default(), &ra), ra);
    }

    #[test]
    fn sharded_fold_equals_sequential_fold(
        ops in collection::vec(any::<u64>(), 0..64),
        shard in 1usize..8,
    ) {
        // The exact shape the sweep engine relies on: folding per-shard
        // registries in shard order equals folding everything into one.
        let sequential = registry_from(&ops);
        let mut sharded = Registry::default();
        for chunk in ops.chunks(shard) {
            sharded.merge(&registry_from(chunk));
        }
        prop_assert_eq!(sharded, sequential);
    }
}
