//! Golden-output and command-line tests for the `exp` binary.
//!
//! Every row of `rq_bench::EXPERIMENTS` is run as `exp <name>` under
//! pinned knobs and its stdout compared byte-for-byte against
//! `tests/golden/<name>.txt`, so a refactor cannot silently shift the
//! paper numbers. Each is run at two thread counts (or the one
//! `REACKED_THREADS` the environment pins): matching the same golden
//! bytes at both counts proves the sweep engine's parallel == sequential
//! guarantee end to end.
//!
//! libtest needs one `#[test]` function per reported name, so the names
//! are listed once below; `table_goldens_and_tests_are_one_set` fails
//! until a new table row has both its golden file and its test.
//!
//! Each run's wall time is printed as `exp <name> threads=<n>: <s> s`;
//! `cargo test --test golden -- --nocapture` shows the rows.
//!
//! Regenerate after an intentional output change with:
//! `REACKED_REPS=3 REACKED_SCAN_DOMAINS=20000 REACKED_LOAD_ARRIVALS=2000 REACKED_THREADS=1 \
//!  cargo run --release --bin exp -- <name> > crates/bench/tests/golden/<name>.txt`

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;

use rq_bench::{Experiment, EXPERIMENTS};

/// Rows checked under `cargo test --release` only (CI runs it): eight
/// 10 MB transfers take ~96 s across both thread counts in a debug build.
const RELEASE_ONLY: &[&str] = &["exp_fig11"];

/// `exp` with the knobs the goldens were captured at. The wild-scan and
/// server-load defaults (100k each) are too slow for a debug test run.
fn exp() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp"));
    cmd.env("REACKED_REPS", "3")
        .env("REACKED_SCAN_DOMAINS", "20000")
        .env("REACKED_LOAD_ARRIVALS", "2000");
    cmd
}

fn stdout(out: &Output) -> &str {
    std::str::from_utf8(&out.stdout).expect("exp wrote non-UTF8 output")
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Thread counts to exercise: the pinned `REACKED_THREADS` when the
/// environment sets one, else both 1 and 4.
fn thread_counts() -> Vec<String> {
    match std::env::var("REACKED_THREADS") {
        Ok(v) if !v.trim().is_empty() => vec![v],
        _ => vec!["1".into(), "4".into()],
    }
}

/// Checks the table row a `<name>_matches_golden` test is named after.
fn assert_matches_golden(test: &str) {
    let name = test.strip_suffix("_matches_golden").unwrap();
    let row = Experiment::by_name(name).unwrap_or_else(|| panic!("{name} is not in EXPERIMENTS"));
    if cfg!(debug_assertions) && RELEASE_ONLY.contains(&row.name) {
        return;
    }
    let golden = std::fs::read_to_string(golden_dir().join(format!("{name}.txt")))
        .unwrap_or_else(|e| panic!("tests/golden/{name}.txt: {e}"));
    for threads in thread_counts() {
        let started = Instant::now();
        let out = exp()
            .arg(name)
            .env("REACKED_THREADS", &threads)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn exp {name}: {e}"));
        let secs = started.elapsed().as_secs_f64();
        println!("exp {name} threads={threads}: {secs:.1} s");
        assert!(
            out.status.success(),
            "exp {name} (threads={threads}) exited with {:?}\nstderr:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let actual = stdout(&out);
        assert!(
            actual == golden,
            "exp {name} (threads={threads}) diverged from tests/golden/{name}.txt\n\
             --- golden ---\n{golden}\n--- actual ---\n{actual}"
        );
    }
}

/// One test per listed name, plus [`TESTED`], the list itself.
macro_rules! golden_tests {
    ($($test:ident,)*) => {
        $(
            #[test]
            fn $test() {
                assert_matches_golden(stringify!($test));
            }
        )*
        const TESTED: &[&str] = &[$(stringify!($test)),*];
    };
}

golden_tests! {
    exp_fig02_matches_golden,
    exp_fig03_matches_golden,
    exp_fig04_matches_golden,
    exp_fig05_matches_golden,
    exp_fig06_matches_golden,
    exp_fig07_matches_golden,
    exp_fig08_matches_golden,
    exp_fig09_matches_golden,
    exp_fig10_matches_golden,
    exp_fig11_matches_golden,
    exp_fig12_matches_golden,
    exp_fig13_matches_golden,
    exp_fig14_matches_golden,
    exp_fig15_matches_golden,
    exp_fig16_matches_golden,
    exp_tab01_matches_golden,
    exp_tab02_matches_golden,
    exp_tab03_matches_golden,
    exp_tab04_matches_golden,
    exp_appendix_d_matches_golden,
    exp_ablation_padded_iack_matches_golden,
    exp_ablation_probe_policy_matches_golden,
    exp_ablation_server_pto_matches_golden,
    exp_impairment_sweep_matches_golden,
    exp_resumption_sweep_matches_golden,
    exp_transfer_sweep_matches_golden,
    exp_migration_sweep_matches_golden,
    exp_server_load_matches_golden,
    exp_fault_sweep_matches_golden,
    exp_metrics_report_matches_golden,
}

#[test]
fn table_goldens_and_tests_are_one_set() {
    let table: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.name.to_string()).collect();
    let files: BTreeSet<String> = std::fs::read_dir(golden_dir())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .map(|file| file.strip_suffix(".txt").unwrap_or(&file).to_string())
        .collect();
    let tested: BTreeSet<String> = TESTED
        .iter()
        .map(|t| t.strip_suffix("_matches_golden").unwrap().to_string())
        .collect();
    assert_eq!(table, files, "EXPERIMENTS vs tests/golden/*.txt");
    assert_eq!(table, tested, "EXPERIMENTS vs golden_tests!");
}

#[test]
fn list_prints_the_table_names_in_table_order() {
    let out = exp().arg("--list").output().unwrap();
    assert!(out.status.success());
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(stdout(&out).lines().collect::<Vec<_>>(), names);
}

#[test]
fn unknown_or_missing_name_exits_2_and_lists_the_names() {
    for args in [&["exp_fig99"][..], &[], &["exp_fig02", "exp_fig04"]] {
        let out = exp().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "args {args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for e in EXPERIMENTS {
            assert!(stderr.contains(e.name), "args {args:?}: {} missing", e.name);
        }
    }
}

#[test]
fn malformed_knob_exits_2_without_running_anything() {
    for (var, value) in [
        ("REACKED_REPS", "x1"),
        ("REACKED_REPS", "0"),
        ("REACKED_SCAN_DOMAINS", "20k"),
        ("REACKED_LOAD_ARRIVALS", "-5"),
    ] {
        let out = exp().arg("exp_fig02").env(var, value).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{var}={value}");
        assert!(out.stdout.is_empty(), "{var}={value} printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(var) && stderr.contains(value),
            "{var}={value}: stderr {stderr:?}"
        );
        assert_eq!(stderr.lines().count(), 1, "one line: {stderr:?}");
    }
}
