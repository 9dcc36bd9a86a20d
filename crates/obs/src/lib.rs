//! Observability layer shared by every crate in the workspace: the
//! [`Registry`], a deterministic, monoid-mergeable metrics registry, and
//! the workspace's one [`median`] and [`percentile`]. Hot paths keep
//! plain integer fields (the `ScanShard` pattern) and export them into a
//! registry at snapshot time; registries merge in shard/index order, so
//! a merged snapshot is byte-identical at any `REACKED_THREADS`. The
//! crate holds no global state.

#![forbid(unsafe_code)]

mod registry;
mod stats;

pub use registry::{Histogram, Metric, Registry};
pub use stats::{median, percentile};
