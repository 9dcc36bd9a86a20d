//! The test kit's own guarantees: a case's draws are a function of its
//! index alone, a failing case names itself, and the counting allocator
//! counts what it is asked for.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rq_testkit::alloc::{requested_by, Counting};
use rq_testkit::prop::{case_rng, cases};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_case_draws_the_same_values_every_run_and_other_cases_other_values() {
    let draws = |i: u64| -> Vec<u64> {
        let mut rng = case_rng(i);
        (0..8).map(|_| rng.next_u64()).collect()
    };
    let mut seen: Vec<Vec<u64>> = Vec::new();
    cases(16, |rng| {
        seen.push((0..8).map(|_| rng.next_u64()).collect())
    });
    for (i, run) in seen.iter().enumerate() {
        assert_eq!(*run, draws(i as u64), "case {i}");
    }
    for i in 1..seen.len() {
        assert!(!seen[..i].contains(&seen[i]), "case {i} repeats another");
    }
}

#[test]
fn a_failing_case_names_its_index_and_seed() {
    let mut ran = 0;
    let failure = catch_unwind(AssertUnwindSafe(|| {
        cases(10, |rng| {
            ran += 1;
            let v = rng.next_u64();
            assert!(ran != 4, "drew {v}");
        })
    }))
    .expect_err("case 3 fails");
    let message = failure
        .downcast_ref::<String>()
        .expect("a formatted message");
    let v = case_rng(3).next_u64();
    assert_eq!(
        *message,
        format!("case 3 of 10 (SimRng::derive(0x7e57ca5e, &[3])) failed: drew {v}")
    );
    assert_eq!(ran, 4, "the run stops at the first failure");
}

#[test]
fn a_reading_counts_calls_and_bytes_requested() {
    assert_eq!(requested_by(|| Vec::<u8>::with_capacity(100)), (1, 100));
    assert_eq!(requested_by(|| 7u64), (0, 0));
}
