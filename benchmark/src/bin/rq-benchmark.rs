//! End-to-end benchmark: one workload per invocation, tracing off.
//!
//! ```text
//! rq-benchmark --workload <name> --seed <n> [--seconds <s>] [--smoke]
//!              [--bless] [--check-exact] [--append <runs.json>]
//! rq-benchmark --compare <a.json> <b.json>
//! ```
//!
//! (`--setup-only` is the harness calling itself: set up in a fresh
//! process and print the seconds it took.)
//!
//! Prints every metric as `name value unit`, writes
//! `benchmark/out/<workload>.json`, ends stdout with the driver's result
//! object, and exits non-zero when an op failed, a simulated fingerprint
//! drifted, or `--check-exact` saw a counter that did not repeat.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rq_benchmark::alloc::CountingAlloc;
use rq_benchmark::harness::{self, RunConfig, END_TO_END};
use rq_benchmark::{compare, Args};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn real_main() -> Result<bool, String> {
    let args = Args::parse(
        std::env::args().skip(1),
        &["smoke", "bless", "check-exact", "setup-only"],
        &[("compare", 2)],
    )?;
    if let [a, b] = args.values("compare") {
        return compare::compare(Path::new(a), Path::new(b)).map(|regressed| !regressed);
    }
    if args.get("trace", 0u8)? != 0 {
        return Err("traced runs are `rq-layers --workload <name>`".into());
    }
    let cfg = RunConfig {
        workload: args.workload()?,
        seed: args.get("seed", 1)?,
        seconds: args.get("seconds", 10.0)?,
        smoke: args.has("smoke"),
        bless: args.has("bless"),
        check_exact: args.has("check-exact"),
        append: args.values("append").first().map(PathBuf::from),
        setup_only: args.has("setup-only"),
    };
    let Some(report) = harness::run(&cfg)? else {
        return Ok(true);
    };
    for m in &report.metrics {
        if m.name == "failed_ops" {
            println!(
                "{} {}/{} {}",
                m.name, report.failed, report.attempted, m.unit
            );
        } else {
            println!("{}", m.line());
        }
    }
    if let Some(why) = &report.inexact {
        eprintln!("--check-exact: counters did not repeat: {why}");
    }
    let bounded = report
        .metrics
        .iter()
        .filter(|m| END_TO_END.iter().any(|(name, _, _)| *name == m.name));
    println!(
        "{}",
        harness::result_line(
            report.correct(),
            report.attempted,
            report.failed,
            harness::metrics_json(bounded),
        )
    );
    Ok(report.correct())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rq-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
