//! `exp <name>` regenerates one paper table, figure or sweep from
//! `rq_bench::EXPERIMENTS`; `exp --list` prints the names.
//!
//! Knobs (validated once, here; a malformed value exits 2):
//! `REACKED_REPS`, `REACKED_SCAN_DOMAINS`, `REACKED_LOAD_ARRIVALS`,
//! `REACKED_THREADS` — see `rq_bench::RunConfig`.

use std::process::ExitCode;

use rq_bench::{Experiment, RunConfig, EXPERIMENTS};

fn usage() -> ExitCode {
    eprintln!("usage: exp <name> | exp --list\nexperiments:");
    for e in EXPERIMENTS {
        eprintln!("  {}", e.name);
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [arg] = args.as_slice() else {
        return usage();
    };
    if arg == "--list" {
        for e in EXPERIMENTS {
            println!("{}", e.name);
        }
        return ExitCode::SUCCESS;
    }
    let Some(experiment) = Experiment::by_name(arg) else {
        return usage();
    };
    match RunConfig::from_env() {
        Ok(cfg) => {
            experiment.print(&cfg);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("exp: {e}");
            ExitCode::from(2)
        }
    }
}
