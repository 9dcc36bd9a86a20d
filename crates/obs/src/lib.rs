//! Observability layer shared by every crate in the workspace.
//!
//! Two instruments, both off by default and invisible to golden output:
//!
//! * [`Registry`] — a deterministic, monoid-mergeable metrics registry.
//!   Hot paths keep plain integer fields (the `ScanShard` pattern) and
//!   export them into a registry at snapshot time; registries merge in
//!   shard/index order, so a merged snapshot is byte-identical at any
//!   `REACKED_THREADS`.
//! * [`logger`] — the `REACKED_LOG` env-gated structured stderr logger
//!   (levels plus per-subsystem targets, e.g. `REACKED_LOG=quic=debug`).
//!   When the variable is unset every call site reduces to one relaxed
//!   atomic load and a branch.

#![forbid(unsafe_code)]

mod logger;
mod registry;

pub use logger::{log_emit, log_enabled, Level};
pub use registry::{Histogram, Metric, Registry};

/// Log through the `REACKED_LOG` gate. Arguments are not formatted
/// unless the (target, level) pair is enabled.
///
/// ```
/// rq_obs::obs_log!("quic", rq_obs::Level::Debug, "pto expired seq={}", 3);
/// ```
#[macro_export]
macro_rules! obs_log {
    ($target:expr, $level:expr, $($arg:tt)*) => {
        if $crate::log_enabled($target, $level) {
            $crate::log_emit($target, $level, &format!($($arg)*));
        }
    };
}
