//! Macroscopic measurement simulation.
//!
//! The paper's macroscopic study probes the Tranco Top-1M from four vantage
//! points with QScanner and runs a one-week longitudinal study against
//! Cloudflare. Neither the Internet nor those CDNs are available here, so
//! this crate builds a *synthetic Internet model*: a domain population with
//! per-CDN deployment behaviour calibrated to the paper's observations,
//! probed through the same classification pipeline (first-ACK versus
//! ServerHello timing, ack-delay fields, IACK detection). The tables and
//! CDFs are then *re-derived* through measurement, not hard-coded — e.g.
//! deployment shares emerge from per-domain Bernoulli draws plus probe
//! failures, and the Cloudflare coalescing rates emerge from a frontend
//! certificate-cache model, not from the target numbers themselves.

//!
//! The scan itself is sharded: per-probe randomness derives from
//! `(seed, vantage, repetition, domain index)` alone, shards fold into
//! streaming, mergeable aggregates (see [`aggregate`]), and results are
//! byte-identical at every `REACKED_THREADS` setting.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod cdn;
pub mod longitudinal;
pub mod population;
pub mod prober;
pub mod scan;
pub mod vantage;

pub use aggregate::{FixedHistogram, MeasCounts, Reservoir, ScanAggregates, VantageCdnAgg};
pub use cdn::{Cdn, CdnProfile};
pub use longitudinal::{LongitudinalStudy, MinuteObservation};
pub use population::{Domain, Population};
pub use prober::{classify, probe, probe_rng, ProbeClass, ProbeObservation};
pub use scan::{scan, scan_with, CdnScanRow, ScanReport};
pub use vantage::{Vantage, VANTAGES};
