//! Property cases over [`SimRng`].
//!
//! [`cases`] runs a body once per case index, case `i` on the stream
//! [`case_rng`]`(i)`, so every case is a pure function of its index. A
//! body draws its inputs from the RNG it is handed and checks them with
//! the plain `assert!` family. The first case that panics stops the run
//! with a panic naming its index and the stream it drew from;
//! `body(&mut case_rng(i))` reruns that case alone.

use std::panic::{catch_unwind, AssertUnwindSafe};

pub use rq_sim::SimRng;

/// The seed every case stream is derived from.
const STREAM: u64 = 0x7E57_CA5E;

/// The RNG case `i` draws from.
pub fn case_rng(i: u64) -> SimRng {
    SimRng::derive(STREAM, &[i])
}

/// Runs `body` on cases `0..n` in order.
///
/// # Panics
///
/// When a case panics: with its index, its stream, and the case's own
/// panic message.
pub fn cases(n: u64, mut body: impl FnMut(&mut SimRng)) {
    for i in 0..n {
        let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(&mut case_rng(i)))) else {
            continue;
        };
        let message = (payload.downcast_ref::<String>().map(String::as_str))
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("(no message)");
        panic!("case {i} of {n} (SimRng::derive({STREAM:#x}, &[{i}])) failed: {message}");
    }
}
