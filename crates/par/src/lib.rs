//! A minimal scoped thread pool for deterministic parallel sweeps.
//!
//! The experiment harness runs thousands of independent scenario
//! repetitions; each is a pure function of its index (the per-repetition
//! seed is derived from it). This crate fans such index spaces out over a
//! hand-rolled pool of `std::thread::scope` workers pulling chunks off a
//! shared atomic counter, and returns the results **in index order** — so
//! a parallel sweep is bit-identical to its sequential counterpart, just
//! faster. No work stealing, no channels, no external dependencies.

#![forbid(unsafe_code)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

mod profile;

use profile::WorkerSpans;
pub use profile::{ProfileReport, ProfileSink};

/// Start a span clock if profiling is on.
#[inline]
fn span_start(enabled: bool) -> Option<Instant> {
    enabled.then(Instant::now)
}

/// Close a span clock into an accumulator.
#[inline]
fn span_lap(t: Option<Instant>, acc: &mut u64) {
    if let Some(t0) = t {
        *acc += t0.elapsed().as_nanos() as u64;
    }
}

/// Environment variable controlling the sweep thread count.
pub const THREADS_ENV: &str = "REACKED_THREADS";

/// Number of hardware threads available, with a safe fallback of 1.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses a raw `REACKED_THREADS` value; `None`, empty, non-numeric or
/// zero all fall back to [`available_parallelism`].
pub fn parse_threads(raw: Option<&str>) -> usize {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(available_parallelism)
}

/// Thread count from the `REACKED_THREADS` environment variable
/// (default: available parallelism).
pub fn threads_from_env() -> usize {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref())
}

/// A chunked index queue: workers claim contiguous ranges of `0..len`
/// off a shared counter. Chunking keeps counter contention negligible
/// while still balancing uneven per-item cost across workers.
struct IndexQueue {
    next: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl IndexQueue {
    fn new(len: usize, threads: usize) -> Self {
        // ~4 chunks per worker balances skewed item costs without
        // hammering the counter.
        let chunk = (len / (threads * 4)).max(1);
        IndexQueue {
            next: AtomicUsize::new(0),
            len,
            chunk,
        }
    }

    fn claim(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.len {
            return None;
        }
        Some(start..(start + self.chunk).min(self.len))
    }
}

/// Runs `f(0), f(1), …, f(n-1)` on up to `threads` scoped workers and
/// returns the results in index order.
///
/// * Output order is always `0..n` regardless of scheduling, so results
///   are bit-identical to the sequential `(0..n).map(f).collect()`.
/// * `threads <= 1` (or `n <= 1`) runs inline without spawning.
/// * A panic in any worker is propagated to the caller after the
///   remaining workers finish.
/// * An attached [`ProfileSink`] records per-worker busy/claim/merge
///   spans and chunk sizes; `sink: None` is the exact unprofiled path.
fn sweep_with<T, F>(n: usize, threads: usize, sink: Option<&ProfileSink>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    let enabled = sink.is_some();
    if threads <= 1 {
        let t_wall = span_start(enabled);
        let out: Vec<T> = (0..n).map(f).collect();
        if let (Some(s), Some(t0)) = (sink, t_wall) {
            let wall = t0.elapsed();
            let mut spans = WorkerSpans {
                busy_ns: wall.as_nanos() as u64,
                ..WorkerSpans::default()
            };
            if n > 0 {
                spans.chunks.push(n);
            }
            s.record_worker(spans);
            s.record_sweep(wall, 1);
        }
        return out;
    }

    let queue = IndexQueue::new(n, threads);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let filled = Mutex::new(&mut slots);
    let mut panic_payload = None;

    let t_wall = span_start(enabled);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut spans = WorkerSpans::default();
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let t_claim = span_start(enabled);
                        let claimed = queue.claim();
                        span_lap(t_claim, &mut spans.claim_ns);
                        let Some(range) = claimed else { break };
                        if enabled {
                            spans.chunks.push(range.len());
                        }
                        let t_busy = span_start(enabled);
                        for i in range {
                            local.push((i, f(i)));
                        }
                        span_lap(t_busy, &mut spans.busy_ns);
                    }
                    // One lock per worker (not per item): merge results
                    // into their index-ordered slots.
                    let t_merge = span_start(enabled);
                    {
                        let mut slots = filled.lock().unwrap();
                        for (i, value) in local {
                            slots[i] = Some(value);
                        }
                    }
                    span_lap(t_merge, &mut spans.merge_ns);
                    if let Some(s) = sink {
                        s.record_worker(spans);
                    }
                })
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic_payload.get_or_insert(payload);
            }
        }
    });
    if let (Some(s), Some(t0)) = (sink, t_wall) {
        s.record_sweep(t0.elapsed(), threads);
    }
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }

    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// A reusable parallel sweep configuration for experiment drivers.
///
/// Thread count comes from `REACKED_THREADS` (default: available
/// parallelism); `REACKED_THREADS=1` forces the sequential path. The
/// runner is just a thread count plus the pool's index-order guarantee,
/// so any index-keyed pure computation fanned through it is
/// bit-identical at every worker count.
///
/// Attach a [`ProfileSink`] with [`SweepRunner::with_profile`] to
/// record where the wall-clock goes; profiling observes timing only
/// and cannot change any result.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
    profile: Option<Arc<ProfileSink>>,
}

impl SweepRunner {
    /// A runner with an explicit worker count (`0` is treated as `1`).
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
            profile: None,
        }
    }

    /// A runner sized by `REACKED_THREADS` / available parallelism.
    pub fn from_env() -> Self {
        SweepRunner::new(threads_from_env())
    }

    /// Attach a profile sink; every subsequent sweep through this
    /// runner records its spans there.
    pub fn with_profile(mut self, sink: Arc<ProfileSink>) -> Self {
        self.profile = Some(sink);
        self
    }

    /// The attached profile sink, if any (used by sweep closures to
    /// tag per-task setup spans).
    pub fn profile(&self) -> Option<&ProfileSink> {
        self.profile.as_deref()
    }

    /// Worker count this runner fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Fans `f(0..n)` out over the pool, results in index order.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        sweep_with(n, self.threads, self.profile(), f)
    }

    /// Fans an arbitrary per-item job out over the pool, preserving
    /// input order (e.g. one scenario per client profile).
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        sweep_with(items.len(), self.threads, self.profile(), |i| f(&items[i]))
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unprofiled sweep at an explicit worker count.
    fn sweep<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        SweepRunner::new(threads).run(n, f)
    }

    #[test]
    fn results_are_in_index_order() {
        for threads in [1, 2, 3, 7, 16] {
            let got = sweep(100, threads, |i| i * 3);
            let want: Vec<usize> = (0..100).map(|i| i * 3).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn zero_item_sweep_is_empty() {
        let got: Vec<usize> = sweep(0, 8, |i| i);
        assert!(got.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(sweep(1, 8, |i| i + 41), vec![41]);
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(sweep(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn parallel_matches_sequential_for_uneven_work() {
        // Skewed per-item cost exercises chunk rebalancing.
        let cost = |i: usize| {
            let mut acc = i as u64;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let seq: Vec<u64> = (0..200).map(cost).collect();
        assert_eq!(sweep(200, 5, cost), seq);
    }

    #[test]
    fn panic_in_worker_propagates() {
        let result = std::panic::catch_unwind(|| {
            sweep(16, 4, |i| {
                if i == 9 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        let payload = result.expect_err("sweep must propagate the worker panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 9"), "payload: {msg:?}");
    }

    #[test]
    fn index_queue_covers_every_index_once() {
        let q = IndexQueue::new(10, 3);
        let mut seen = Vec::new();
        while let Some(r) = q.claim() {
            seen.extend(r);
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn runner_run_and_map_preserve_order() {
        let runner = SweepRunner::new(3);
        assert_eq!(runner.threads(), 3);
        assert_eq!(runner.run(5, |i| i * 2), vec![0, 2, 4, 6, 8]);
        let items = [10, 20, 30];
        assert_eq!(runner.map(&items, |x| x + 1), vec![11, 21, 31]);
        let words = ["a", "bb", "ccc", "dddd"];
        assert_eq!(runner.map(&words, |s| s.len()), vec![1, 2, 3, 4]);
        // 0 workers degrades to 1, never panics.
        assert_eq!(SweepRunner::new(0).threads(), 1);
    }

    #[test]
    fn chunked_sweep_matches_sequential_at_any_geometry() {
        // The queue's chunk size follows from (items, workers): cover
        // chunk = 1, ragged last chunks and more workers than items.
        for n in [0, 1, 5, 16, 97, 200] {
            let want: Vec<usize> = (0..n).map(|i| i * 5 + 1).collect();
            for threads in [1, 2, 4, 7] {
                let got = sweep(n, threads, |i| i * 5 + 1);
                assert_eq!(got, want, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn profiled_sweep_matches_unprofiled_and_accounts_time() {
        let sink = Arc::new(ProfileSink::new());
        let runner = SweepRunner::new(4).with_profile(sink.clone());
        let work = |i: usize| {
            let mut acc = i as u64;
            for _ in 0..2000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let got = runner.run(64, work);
        assert_eq!(got, (0..64).map(work).collect::<Vec<_>>());
        runner
            .profile()
            .unwrap()
            .record_setup(std::time::Duration::from_nanos(10));

        let report = sink.report();
        assert_eq!(report.sweeps, 1);
        assert!(report.busy_ns > 0);
        assert_eq!(report.chunk_items, 64);
        assert!(report.claims >= 4, "claims: {}", report.claims);
        assert!(report.chunk_min >= 1 && report.chunk_max <= 64);
        // busy + claim + merge + idle == workers x wall exactly.
        assert!((report.attributed_share() - 1.0).abs() < 1e-9);
        assert!(report.measured_share() <= 1.0 + 1e-9);
        assert_eq!(report.setup_ns, 10);
    }

    #[test]
    fn sequential_profile_records_busy_equal_to_wall() {
        let sink = Arc::new(ProfileSink::new());
        let runner = SweepRunner::new(1).with_profile(sink.clone());
        let out = runner.run(10, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        let report = sink.report();
        assert_eq!(report.sweeps, 1);
        assert_eq!(report.worker_wall_ns, report.wall_ns);
        assert_eq!(report.busy_ns, report.wall_ns);
        assert_eq!(report.idle_ns, 0);
    }

    #[test]
    fn unattached_runner_has_no_sink() {
        assert!(SweepRunner::new(2).profile().is_none());
    }

    #[test]
    fn thread_count_parsing() {
        assert_eq!(parse_threads(Some("4")), 4);
        assert_eq!(parse_threads(Some(" 2 ")), 2);
        let auto = available_parallelism();
        assert_eq!(parse_threads(None), auto);
        assert_eq!(parse_threads(Some("0")), auto);
        assert_eq!(parse_threads(Some("lots")), auto);
        assert!(auto >= 1);
    }
}
