//! The five fixed-work workloads: input generation from `--seed` and
//! one pass over those inputs.
//!
//! This module (and everything else the end-to-end binary links) calls
//! only the stack's top-level entry points — `run_scenario`,
//! `rep_scenario`, `ScenarioMatrix::build`, `run_server_load`,
//! `ServerLoadSpec`, `scan_with`, `Population::synthesize`,
//! `SweepRunner::{new, map}`, `all_clients`/`client_by_name` — plus the
//! plain value types those take and return, so a refactor of leaf types
//! cannot break the gate. Sizes are constants, never auto-scaled; the
//! program under test receives only the generated `Scenario`,
//! `ServerLoadSpec` and `Population` values.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rq_http::HttpVersion;
use rq_profiles::{all_clients, client_by_name};
use rq_quic::{OverloadPolicy, ServerAckMode};
use rq_sim::{ImpairmentSpec, SimDuration, SimRng};
use rq_testbed::{
    rep_scenario, run_scenario, run_server_load, ArrivalProcess, CcAlgorithm, ClassMix, ConnFate,
    ConnOutcome, FaultSpec, LossSpec, ReconnectPolicy, RunResult, Scenario, ScenarioMatrix,
    ServerLoadRun, ServerLoadSpec, SweepRunner,
};
use rq_wild::{scan_with, Population, ScanReport, VANTAGES};

use crate::fingerprint::{Fp, PANICKED};

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;
const IACK: ServerAckMode = ServerAckMode::InstantAck { pad_to_mtu: false };
const WFC: ServerAckMode = ServerAckMode::WaitForCertificate;

/// `--smoke` divides every size by this.
const SMOKE_DIVISOR: usize = 16;
/// Repetitions per `handshake_matrix` cell.
const MATRIX_REPS: usize = 2;
/// Scan repetitions per vantage (`wild_scan`).
pub const SCAN_REPS: usize = 2;

/// A benchmark workload. Later issues refer to these by [`Self::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HandshakeMatrix,
    BulkTransfer,
    ServerLoad,
    WildScan,
    MatrixPar2,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::HandshakeMatrix,
        Workload::BulkTransfer,
        Workload::ServerLoad,
        Workload::WildScan,
        Workload::MatrixPar2,
    ];

    /// The name used on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HandshakeMatrix => "handshake_matrix",
            Workload::BulkTransfer => "bulk_transfer",
            Workload::ServerLoad => "server_load",
            Workload::WildScan => "wild_scan",
            Workload::MatrixPar2 => "matrix_par2",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Name of the pin file family. `matrix_par2` must hit the same pin
    /// as `handshake_matrix`: parallel == sequential.
    pub fn pin_name(self) -> &'static str {
        match self {
            Workload::MatrixPar2 => Workload::HandshakeMatrix.name(),
            other => other.name(),
        }
    }

    /// Pass-to-pass wobble `--check-exact` allows in the allocation
    /// counters, as a share of the count. Simulated counts (events,
    /// fingerprints) get none anywhere. `server_load` retires thousands
    /// of connections from `std` `HashMap`s (`ServerEngine`, the sim's
    /// link index, `ServerNode`'s peer table). Each map instance draws
    /// fresh SipHash keys, and whether a table full of tombstones is
    /// rehashed in place or grown depends on where the keys land — so
    /// identical passes differ by about one allocation in 3.8 million
    /// and 0.05 % of the bytes. No other workload wobbles (the sizing
    /// runs' ±1 on `wild_scan` did not reproduce in 27 passes).
    pub fn alloc_wobble(self) -> f64 {
        match self {
            Workload::ServerLoad => 2e-3,
            _ => 0.0,
        }
    }

    /// Worker threads this workload asks for (before clamping to `nproc`).
    pub fn workers(self) -> usize {
        match self {
            Workload::MatrixPar2 => 2,
            _ => 1,
        }
    }
}

/// Generated inputs of one workload.
pub enum Inputs {
    /// One `run_scenario` op per entry.
    Scenarios(Vec<Scenario>),
    /// One `run_server_load` call per spec; op = one arriving connection.
    Load(Vec<ServerLoadSpec>),
    /// One `scan_with` call; op = one probe.
    Scan {
        population: Population,
        scan_seed: u64,
    },
}

/// An independent 64-bit stream per (seed, purpose).
fn mix(seed: u64, purpose: u64) -> u64 {
    SimRng::derive(seed, &[0xBE7C, purpose]).next_u64()
}

/// The `handshake_matrix` / `matrix_par2` task list: 8 clients × {H1,
/// H3} × {WFC, IACK} × RTT {9, 100 ms} × cert {small, large} × Δt {0,
/// 20 ms} × loss {none, server-flight tail, second client flight} = 768
/// cells × 2 reps.
fn matrix_jobs(seed: u64, smoke: bool) -> Vec<Scenario> {
    let base_seed = mix(seed, 1);
    let clients = all_clients();
    let mut cells = Vec::new();
    for http in [HttpVersion::H1, HttpVersion::H3] {
        let base = Scenario::base(clients[0].clone(), WFC, http);
        cells.extend(
            ScenarioMatrix::new(base)
                .clients(&clients)
                .ack_modes(&[WFC, IACK])
                .rtts(&[SimDuration::from_millis(9), SimDuration::from_millis(100)])
                .cert_lens(&[rq_tls::CERT_SMALL, rq_tls::CERT_LARGE])
                .cert_delays(&[SimDuration::ZERO, SimDuration::from_millis(20)])
                .losses(&[
                    LossSpec::None,
                    LossSpec::ServerFlightTail,
                    LossSpec::SecondClientFlight,
                ])
                .build(),
        );
    }
    let jobs = cells.iter().enumerate().flat_map(|(i, cell)| {
        let mut cell = cell.clone();
        cell.seed = base_seed.wrapping_add(i as u64 * 104_729);
        (0..MATRIX_REPS).map(move |rep| rep_scenario(&cell, rep))
    });
    if smoke {
        jobs.step_by(SMOKE_DIVISOR).collect()
    } else {
        jobs.collect()
    }
}

/// `bulk_transfer`: a clean 10 MiB CUBIC download and a 2 MiB BBR-lite
/// download under Gilbert–Elliott loss, two H3 streams each.
fn bulk_jobs(seed: u64, smoke: bool) -> Vec<Scenario> {
    let div = if smoke { SMOKE_DIVISOR } else { 1 };
    let quic_go = client_by_name("quic-go").expect("quic-go profile");
    let mut clean = Scenario::base(quic_go, IACK, HttpVersion::H3);
    clean.streams = 2;
    clean.file_size = 5 * MIB / div;
    clean.cc = CcAlgorithm::Cubic;
    clean.seed = mix(seed, 2);
    let mut lossy = clean.clone();
    lossy.file_size = MIB / div;
    lossy.cc = CcAlgorithm::BbrLite;
    lossy.loss = LossSpec::Random(ImpairmentSpec::none().with_gilbert_elliott(0.02, 0.3, 0.0, 0.5));
    lossy.seed = mix(seed, 3);
    vec![clean, lossy]
}

/// The *steady* server-load spec: Poisson arrivals of IACK/H1/10 KB
/// connections with a 30 % resumed / 20 % 0-RTT mix, a quarter of them
/// under 2 % i.i.d. loss. `rq-layers` reuses it for the shallow/deep
/// scaling pair.
pub fn steady_load(
    seed: u64,
    arrivals: usize,
    rtt: SimDuration,
    gap: SimDuration,
) -> ServerLoadSpec {
    let quic_go = client_by_name("quic-go").expect("quic-go profile");
    let mut base = Scenario::base(quic_go, IACK, HttpVersion::H1);
    base.rtt = rtt;
    base.seed = seed;
    let mut spec = ServerLoadSpec::new(base, arrivals, ArrivalProcess::Poisson { mean_gap: gap });
    spec.mix = Some(ClassMix {
        resumed: 0.3,
        zero_rtt: 0.2,
    });
    spec.impaired = Some((0.25, ImpairmentSpec::none().with_iid_loss(0.02)));
    spec
}

/// Seed of the flash-overload spec, whatever `--seed` says. Where the
/// first blackouts and crashes fall relative to the crowd decides
/// everything after: across ten `--seed`-derived timelines the served
/// share ran from 36 % to 91 % and allocations per connection from 664
/// to 1,043. A benchmark compares code, not fault timelines, so this
/// one is fixed (743 + 310 served, 383 gave up, 64 reset, 0 failed);
/// `--seed` still draws the steady spec's arrivals, classes and loss.
const FLASH_SEED: u64 = 0x9BFB_167C_B324_5D13;

/// `server_load`: (a) *steady-deep* — 3,000 arrivals 200 µs apart on a
/// 100 ms path, so over a thousand connections interleave on one event
/// loop; (b) *flash-overload* — 1,500 arrivals inside 250 ms against a
/// 64-connection limit with Retry deferral, link blackouts, a server
/// crash every 700 ms, and clients that give up after 3 s and reconnect.
fn load_specs(seed: u64, smoke: bool) -> Vec<ServerLoadSpec> {
    let div = if smoke { SMOKE_DIVISOR } else { 1 };
    let steady = steady_load(
        mix(seed, 4),
        3000 / div,
        SimDuration::from_millis(100),
        SimDuration::from_micros(200),
    );

    let quic_go = client_by_name("quic-go").expect("quic-go profile");
    let mut base = Scenario::base(quic_go, IACK, HttpVersion::H1);
    base.seed = FLASH_SEED;
    base.faults = FaultSpec {
        blackout: Some((SimDuration::from_millis(400), SimDuration::from_millis(250))),
        crash_every: Some(SimDuration::from_millis(700)),
        give_up_after: Some(SimDuration::from_secs(3)),
        reconnect: Some(ReconnectPolicy::default()),
        ..FaultSpec::none()
    };
    let mut flash = ServerLoadSpec::new(
        base,
        1500 / div,
        ArrivalProcess::FlashCrowd {
            window: SimDuration::from_millis(250),
        },
    );
    flash.concurrency_limit = 64;
    flash.overload = OverloadPolicy::RetryDefer;
    flash.conn_deadline = SimDuration::from_secs(10);
    vec![steady, flash]
}

/// Builds a workload's inputs from the seed.
pub fn build(workload: Workload, seed: u64, smoke: bool) -> Inputs {
    match workload {
        Workload::HandshakeMatrix | Workload::MatrixPar2 => {
            Inputs::Scenarios(matrix_jobs(seed, smoke))
        }
        Workload::BulkTransfer => Inputs::Scenarios(bulk_jobs(seed, smoke)),
        Workload::ServerLoad => Inputs::Load(load_specs(seed, smoke)),
        Workload::WildScan => {
            let domains = 1_000_000 / if smoke { SMOKE_DIVISOR } else { 1 };
            Inputs::Scan {
                population: Population::synthesize(domains, &mut SimRng::new(mix(seed, 5))),
                scan_seed: mix(seed, 6),
            }
        }
    }
}

/// What one pass did, as far as the cost metrics care.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassCounts {
    /// Ops attempted.
    pub ops: u64,
    /// Ops that panicked or reached no terminal state.
    pub failed: u64,
    /// `sim/events/processed` summed over the pass.
    pub events: u64,
}

/// Whole-run reports a pass hands back so they can be fingerprinted
/// (via their `Debug` rendering, which allocates) after the allocator's
/// counting window has closed.
pub enum Held {
    Nothing,
    Load(Vec<ServerLoadRun>),
    Scan(Box<ScanReport>),
}

impl Held {
    /// Appends one fingerprint line per held report. Report equality is
    /// full structural equality: every field appears in `Debug`.
    pub fn fingerprint(self, fp: &mut Vec<u64>) {
        let whole =
            |v: &dyn std::fmt::Debug| Fp::default().bytes(format!("{v:?}").as_bytes()).finish();
        match self {
            Held::Nothing => {}
            Held::Load(runs) => fp.extend(runs.iter().map(|r| whole(&r.report))),
            Held::Scan(report) => {
                fp.extend(report.rows.iter().map(|row| whole(row)));
                fp.push(whole(&report.aggregates));
            }
        }
    }
}

/// One `run_scenario` op's outcome, small enough to cross threads.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    pub failed: bool,
    pub events: u64,
    pub fp: u64,
}

/// The simulated fingerprint of one run: every statistic a user reads
/// off a `RunResult`, nothing that depends on host time.
pub fn run_fingerprint(r: &RunResult) -> u64 {
    Fp::default()
        .opt_f64(r.ttfb_ms)
        .opt_f64(r.response_ms)
        .opt_f64(r.goodput_mbps)
        .u64(r.completed as u64)
        .u64(r.aborted as u64)
        .u64(r.resumed as u64)
        .u64(r.client_datagrams as u64)
        .u64(r.server_datagrams as u64)
        .u64(r.dropped_datagrams as u64)
        .u64(r.client_log.events.len() as u64)
        .u64(r.server_log.events.len() as u64)
        .finish()
}

fn outcome_fingerprint(o: &ConnOutcome) -> u64 {
    Fp::default()
        .u64(o.index as u64)
        .u64(o.arrival.as_nanos())
        .u64(o.class as u64)
        .u64(o.fate as u64)
        .opt_f64(o.ttfb_ms)
        .opt_f64(o.handshake_ms)
        .opt_f64(o.response_ms)
        .opt_f64(o.download_complete_ms)
        .opt_f64(o.goodput_mbps)
        .u64(o.resumed as u64)
        .u64(o.early_data_accepted.map_or(2, |b| b as u64))
        .u64(o.reconnects as u64)
        .opt_f64(o.time_to_success_ms)
        .u64(o.migrated as u64)
        .u64(o.pto_expirations)
        .u64(o.client_packets_lost)
        .u64(o.server_packets_lost)
        .finish()
}

/// Runs one scenario op. A panic fails the op; the pass continues.
pub fn scenario_op(sc: &Scenario) -> OpOutcome {
    match catch_unwind(AssertUnwindSafe(|| run_scenario(sc))) {
        Ok(r) => OpOutcome {
            // An abort (e.g. the quiche duplicate-CID quirk) is a
            // terminal state the paper reports, not a failure.
            failed: !r.completed && !r.aborted,
            events: r.metrics.counter("sim/events/processed"),
            fp: run_fingerprint(&r),
        },
        Err(_) => OpOutcome {
            failed: true,
            events: 0,
            fp: PANICKED,
        },
    }
}

/// Runs one pass over `inputs` with `workers` threads, appending one
/// fingerprint per op to `fp` (which the caller pre-sizes, so a pass
/// allocates nothing on the harness's behalf).
pub fn run_pass(inputs: &Inputs, workers: usize, fp: &mut Vec<u64>) -> (PassCounts, Held) {
    let mut counts = PassCounts::default();
    let mut tally = |o: OpOutcome, fp: &mut Vec<u64>| {
        counts.ops += 1;
        counts.failed += o.failed as u64;
        counts.events += o.events;
        fp.push(o.fp);
    };
    let held = match inputs {
        Inputs::Scenarios(jobs) if workers <= 1 => {
            for sc in jobs {
                tally(scenario_op(sc), fp);
            }
            Held::Nothing
        }
        Inputs::Scenarios(jobs) => {
            for o in SweepRunner::new(workers).map(jobs, scenario_op) {
                tally(o, fp);
            }
            Held::Nothing
        }
        Inputs::Load(specs) => {
            let mut runs = Vec::with_capacity(specs.len());
            for spec in specs {
                let arrivals = spec.arrivals as u64;
                counts.ops += arrivals;
                match catch_unwind(AssertUnwindSafe(|| run_server_load(spec))) {
                    Ok(run) => {
                        let unfinished = run
                            .outcomes
                            .iter()
                            .filter(|o| o.fate == ConnFate::Failed)
                            .count() as u64;
                        counts.failed += unfinished + run.report.fates.total().abs_diff(arrivals);
                        counts.events += run.report.metrics.counter("sim/events/processed");
                        fp.extend(run.outcomes.iter().map(outcome_fingerprint));
                        runs.push(run);
                    }
                    Err(_) => {
                        counts.failed += arrivals;
                        fp.push(PANICKED);
                    }
                }
            }
            Held::Load(runs)
        }
        Inputs::Scan {
            population,
            scan_seed,
        } => {
            let probes = (population.len() * VANTAGES.len() * SCAN_REPS) as u64;
            counts.ops += probes;
            let runner = SweepRunner::new(workers);
            match catch_unwind(AssertUnwindSafe(|| {
                scan_with(population, SCAN_REPS, *scan_seed, &runner)
            })) {
                Ok(report) => Held::Scan(Box::new(report)),
                Err(_) => {
                    counts.failed += probes;
                    fp.push(PANICKED);
                    Held::Nothing
                }
            }
        }
    };
    (counts, held)
}

/// Fingerprint lines one pass yields (to pre-size the vectors).
pub fn fingerprint_lines(inputs: &Inputs) -> usize {
    match inputs {
        Inputs::Scenarios(jobs) => jobs.len(),
        Inputs::Load(specs) => specs.iter().map(|s| s.arrivals + 1).sum(),
        Inputs::Scan { .. } => rq_wild::Cdn::ALL.len() + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::drift;

    #[test]
    fn sizes_are_the_documented_constants() {
        let Inputs::Scenarios(jobs) = build(Workload::HandshakeMatrix, 1, false) else {
            panic!("scenario workload");
        };
        assert_eq!(jobs.len(), 768 * MATRIX_REPS);
        let Inputs::Scenarios(bulk) = build(Workload::BulkTransfer, 1, false) else {
            panic!("scenario workload");
        };
        let total: Vec<usize> = bulk.iter().map(|s| s.streams * s.file_size).collect();
        assert_eq!(total, vec![10 * MIB, 2 * MIB]);
        let Inputs::Load(specs) = build(Workload::ServerLoad, 1, false) else {
            panic!("load workload");
        };
        assert_eq!(specs.iter().map(|s| s.arrivals).sum::<usize>(), 4500);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let seeds = |seed| match build(Workload::HandshakeMatrix, seed, true) {
            Inputs::Scenarios(jobs) => jobs.iter().map(|s| s.seed).collect::<Vec<_>>(),
            _ => unreachable!(),
        };
        assert_eq!(seeds(3), seeds(3));
        assert_ne!(seeds(3), seeds(4));
    }

    #[test]
    fn smoke_pass_has_no_failures_and_repeats_exactly() {
        for workload in [Workload::HandshakeMatrix, Workload::ServerLoad] {
            let inputs = build(workload, 1, true);
            let mut first = Vec::new();
            let (counts, held) = run_pass(&inputs, 1, &mut first);
            held.fingerprint(&mut first);
            assert_eq!(counts.failed, 0, "{}", workload.name());
            assert!(counts.ops > 0 && counts.events > 0);
            assert_eq!(first.len(), fingerprint_lines(&inputs));
            let mut second = Vec::new();
            let (again, held) = run_pass(&inputs, 1, &mut second);
            held.fingerprint(&mut second);
            assert_eq!(again, counts);
            assert_eq!(drift(&first, &second), 0);
        }
    }

    #[test]
    fn parallel_pass_matches_sequential() {
        let inputs = build(Workload::MatrixPar2, 1, true);
        let (mut seq, mut par) = (Vec::new(), Vec::new());
        let (a, _) = run_pass(&inputs, 1, &mut seq);
        let (b, _) = run_pass(&inputs, 2, &mut par);
        assert_eq!(a, b);
        assert_eq!(drift(&seq, &par), 0);
    }
}
