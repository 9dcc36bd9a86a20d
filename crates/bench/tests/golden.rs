//! Golden-output tests for the experiment regenerator binaries.
//!
//! Each binary's stdout is captured under pinned knobs (`REACKED_REPS=3`)
//! and compared byte-for-byte against `tests/golden/*.txt`, so a refactor
//! cannot silently shift the paper numbers. Every binary is additionally
//! run at two thread counts (or the one `REACKED_THREADS` the environment
//! pins): matching the same golden
//! bytes at both counts proves the sweep engine's parallel == sequential
//! guarantee end to end.
//!
//! Regenerate after an intentional output change with:
//! `REACKED_REPS=3 REACKED_THREADS=1 cargo run --release --bin <exp> \
//!  > crates/bench/tests/golden/<exp>.txt`
//! (for the wild-scan binaries additionally pin
//! `REACKED_SCAN_DOMAINS=20000`, for `exp_server_load` pin
//! `REACKED_LOAD_ARRIVALS=2000` and `REACKED_LOAD_DETAIL=1`, and for
//! `exp_metrics_report` pin both populations — the knobs the goldens
//! use).

use std::process::Command;

/// Scan population the wild-pipeline goldens are pinned at (the
/// binaries default to 100k, too slow for a debug-profile test run).
const GOLDEN_SCAN_DOMAINS: &str = "20000";

/// Arrival population the server-load golden is pinned at (the binary
/// defaults to 100k arrivals per section).
const GOLDEN_LOAD_ARRIVALS: &str = "2000";

/// Thread counts to exercise: the pinned `REACKED_THREADS` when the
/// environment sets one, else both 1 and 4.
fn thread_counts() -> Vec<String> {
    match std::env::var("REACKED_THREADS") {
        Ok(v) if !v.trim().is_empty() => vec![v],
        _ => vec!["1".into(), "4".into()],
    }
}

fn assert_matches_golden(bin_path: &str, name: &str, golden: &str) {
    for threads in thread_counts() {
        let out = Command::new(bin_path)
            .env("REACKED_REPS", "3")
            .env("REACKED_SCAN_DOMAINS", GOLDEN_SCAN_DOMAINS)
            .env("REACKED_LOAD_ARRIVALS", GOLDEN_LOAD_ARRIVALS)
            .env("REACKED_LOAD_DETAIL", "1")
            .env("REACKED_THREADS", &threads)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert!(
            out.status.success(),
            "{name} (threads={threads}) exited with {:?}\nstderr:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout)
            .unwrap_or_else(|e| panic!("{name} wrote non-UTF8 output: {e}"));
        assert!(
            stdout == golden,
            "{name} (threads={threads}) diverged from tests/golden/{name}.txt\n\
             --- golden ---\n{golden}\n--- actual ---\n{stdout}"
        );
    }
}

/// One `<binary>_matches_golden` test per listed `exp_*` binary.
macro_rules! golden_tests {
    ($($test:ident => $bin:literal,)*) => {$(
        #[test]
        fn $test() {
            assert_matches_golden(
                env!(concat!("CARGO_BIN_EXE_", $bin)),
                $bin,
                include_str!(concat!("golden/", $bin, ".txt")),
            );
        }
    )*};
}

golden_tests! {
    exp_fig02_matches_golden => "exp_fig02",
    exp_fig06_matches_golden => "exp_fig06",
    exp_tab03_matches_golden => "exp_tab03",
    exp_impairment_sweep_matches_golden => "exp_impairment_sweep",
    exp_resumption_sweep_matches_golden => "exp_resumption_sweep",
    exp_server_load_matches_golden => "exp_server_load",
    exp_metrics_report_matches_golden => "exp_metrics_report",
    exp_transfer_sweep_matches_golden => "exp_transfer_sweep",
    exp_fault_sweep_matches_golden => "exp_fault_sweep",
    exp_migration_sweep_matches_golden => "exp_migration_sweep",
    // The wild pipeline: the sharded scan and the longitudinal study must
    // print the same bytes at every thread count.
    exp_tab01_matches_golden => "exp_tab01",
    exp_fig08_matches_golden => "exp_fig08",
    exp_fig09_matches_golden => "exp_fig09",
    exp_fig10_matches_golden => "exp_fig10",
    exp_fig14_matches_golden => "exp_fig14",
    exp_fig15_matches_golden => "exp_fig15",
    exp_fig03_matches_golden => "exp_fig03",
    exp_fig04_matches_golden => "exp_fig04",
    exp_fig05_matches_golden => "exp_fig05",
    exp_fig07_matches_golden => "exp_fig07",
    exp_fig12_matches_golden => "exp_fig12",
    exp_fig13_matches_golden => "exp_fig13",
    exp_fig16_matches_golden => "exp_fig16",
    exp_tab02_matches_golden => "exp_tab02",
    exp_tab04_matches_golden => "exp_tab04",
    exp_appendix_d_matches_golden => "exp_appendix_d",
    exp_ablation_padded_iack_matches_golden => "exp_ablation_padded_iack",
    exp_ablation_probe_policy_matches_golden => "exp_ablation_probe_policy",
    exp_ablation_server_pto_matches_golden => "exp_ablation_server_pto",
}

/// Eight 10 MB transfers: over a minute per thread count in a debug
/// build, so this golden is checked under `cargo test --release` only
/// (CI runs it).
#[test]
fn exp_fig11_matches_golden() {
    if cfg!(debug_assertions) {
        return;
    }
    assert_matches_golden(
        env!("CARGO_BIN_EXE_exp_fig11"),
        "exp_fig11",
        include_str!("golden/exp_fig11.txt"),
    );
}
