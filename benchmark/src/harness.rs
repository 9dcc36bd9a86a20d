//! The end-to-end run: `set-up → 1 cold pass → timed passes`, closed
//! loop, one caller, fixed work per pass.
//!
//! Work is never time-boxed: every pass runs the identical op list, and
//! `--seconds` only decides how many whole passes are timed. Wall-clock
//! is reported as the *fastest* pass — host noise only ever adds time,
//! so the minimum is the statistic closest to the code's own cost —
//! with the median, spread and pass count beside it as `harness.*`. The
//! allocator window covers exactly one pass; per-pass counts are kept so
//! `--check-exact` can demand they repeat.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::alloc;
use crate::fingerprint::{self, drift, PINNED_SEEDS};
use crate::json::Json;
use crate::workloads::{self, PassCounts, Workload};

/// `setup_s` is the median of this many cold set-ups, each in a process
/// of its own (this one, and copies of it run with `--setup-only`).
const SETUP_REPS: usize = 3;
/// Fewest timed passes whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// The bounded end-to-end metrics, as `BENCHMARK.json` lists them (a
/// unit test keeps the two in step): `(name, unit, bound)`, where the
/// bound is how far, as a share of the baseline median, the metric may
/// worsen before it counts as a regression. Lower is better for all.
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("setup_s", "s", 0.25),
    ("pass_s_min", "s", 0.25),
    ("allocs_per_op", "count", 0.05),
    ("alloc_kib_per_op", "KiB", 0.02),
    ("peak_heap_mib", "MiB", 0.15),
];

/// End-to-end metrics that must repeat exactly (bound 0). They are
/// often 0 (`events_per_op` on `wild_scan`, the two failure counts
/// everywhere), which `BENCHMARK.json` cannot bound, so the driver sees
/// them as `sim.events_per_op` (per-layer) and `failed`/`correct`.
pub const EXACT: [&str; 3] = ["events_per_op", "failed_ops", "drift_ops"];

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }

    /// The `name value unit` line.
    pub fn line(&self) -> String {
        format!("{} {} {}", self.name, self.value, self.unit)
    }
}

/// Fails on a value JSON cannot carry, naming the metric.
pub fn all_finite(metrics: &[Metric]) -> Result<(), String> {
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric `{}` is not a finite number", m.name)),
        None => Ok(()),
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` — the shape the driver reads.
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> Json {
    Json::obj(metrics.into_iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::str(m.unit.clone())),
            ]),
        )
    }))
}

/// The last stdout line of every driver-facing run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

/// Quartiles by the exclusive method (Python's
/// `statistics.quantiles(values, n=4)`); all three equal the single
/// value when there is only one.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    [1usize, 2, 3].map(|k| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Where the benchmark's own files live: `./benchmark` when run from the
/// repository root (how the driver and the README run it), otherwise the
/// package directory the binary was built from.
pub fn bench_dir() -> PathBuf {
    let local = Path::new("benchmark");
    if local.join("Cargo.toml").is_file() {
        local.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The machine and build a result was taken on.
pub fn machine_meta() -> Vec<(&'static str, Json)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_string();
    vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu", Json::str(cpu)),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
    ]
}

/// Hardware threads available (1 if unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Appends `run` to the `{"runs": [...]}` file at `path` (created, or
/// replaced when `fresh`).
pub fn store_run(path: &Path, run: Json, fresh: bool) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) if !fresh => Json::parse(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .get("runs")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| format!("{}: no `runs` array", path.display()))?,
        _ => Vec::new(),
    };
    runs.push(run);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = Json::obj([("runs", Json::Arr(runs))]).render() + "\n";
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// What to run.
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Timed passes continue until this much pass time has accumulated.
    pub seconds: f64,
    /// One timed pass over 1/16-size inputs (same checks; for CI).
    pub smoke: bool,
    /// Rewrite this seed's pin from the cold pass instead of checking it.
    pub bless: bool,
    /// Fail unless the exact counters repeat across passes.
    pub check_exact: bool,
    /// Also append the run record to this file (for `--compare`).
    pub append: Option<PathBuf>,
    /// Set up, print the seconds it took, and stop (see [`SETUP_REPS`]).
    pub setup_only: bool,
}

/// The outcome of [`run`].
pub struct RunReport {
    /// Every metric of the run, end-to-end first.
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub drift: u64,
    /// `--check-exact` found a counter that did not repeat.
    pub inexact: Option<String>,
}

impl RunReport {
    /// Outputs were correct: nothing failed, drifted, or wobbled.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.drift == 0 && self.inexact.is_none()
    }
}

struct Pass {
    secs: f64,
    allocs: u64,
    alloc_bytes: u64,
    counts: PassCounts,
}

/// Runs this executable's set-up for `cfg` in a fresh process and
/// returns the seconds it reports.
fn cold_setup_elsewhere(cfg: &RunConfig) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = std::process::Command::new(&exe);
    child.args(["--setup-only", "--workload", cfg.workload.name()]);
    child.args(["--seed", &cfg.seed.to_string()]);
    if cfg.smoke {
        child.arg("--smoke");
    }
    let out = child
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| format!("{} --setup-only: {}", exe.display(), out.status))
}

/// Runs one workload end to end and writes `out/<workload>.json`.
/// `None` for a `setup_only` run, which just prints its set-up seconds.
pub fn run(cfg: &RunConfig) -> Result<Option<RunReport>, String> {
    let workload = cfg.workload;
    let workers = workload.workers().min(nproc());
    let dir = bench_dir();

    // Set-up: input construction + the cold first pass.
    let t = Instant::now();
    let inputs = workloads::build(workload, cfg.seed, cfg.smoke);
    let build_secs = t.elapsed().as_secs_f64();
    let lines = workloads::fingerprint_lines(&inputs);
    let mut cold_fp = Vec::with_capacity(lines);
    let t = Instant::now();
    let (cold_counts, held) = workloads::run_pass(&inputs, workers, &mut cold_fp);
    let cold_secs = t.elapsed().as_secs_f64();
    held.fingerprint(&mut cold_fp);
    if cfg.setup_only {
        println!("{}", build_secs + cold_secs);
        return Ok(None);
    }
    // A pass is cold once per process, so the other samples come from
    // fresh processes, one after another, before anything here is timed.
    let mut setups = vec![build_secs + cold_secs];
    for _ in 1..SETUP_REPS {
        setups.push(cold_setup_elsewhere(cfg)?);
    }
    let setup_s = median(&setups);

    // The reference fingerprint: the pin for a pinned seed at full size,
    // otherwise the cold pass (first pass == last pass).
    let pinned = !cfg.smoke && PINNED_SEEDS.contains(&cfg.seed);
    let pin = fingerprint::pin_path(&dir, workload.pin_name(), cfg.seed);
    let reference = if pinned && cfg.bless {
        std::fs::write(&pin, fingerprint::render_pin(&cold_fp))
            .map_err(|e| format!("{}: {e}", pin.display()))?;
        eprintln!("blessed {}", pin.display());
        cold_fp.clone()
    } else if pinned {
        let text = std::fs::read_to_string(&pin)
            .map_err(|e| format!("{}: {e} (run with --bless to create it)", pin.display()))?;
        fingerprint::parse_pin(&text).map_err(|e| format!("{}: {e}", pin.display()))?
    } else {
        cold_fp.clone()
    };
    let mut drift_ops = drift(&reference, &cold_fp);

    // Timed passes.
    let mut passes: Vec<Pass> = Vec::new();
    let mut fp = Vec::with_capacity(lines);
    let mut timed = 0.0;
    let enough = |n: usize, timed: f64| {
        if cfg.smoke {
            n >= 1
        } else {
            n >= MIN_PASSES && timed >= cfg.seconds
        }
    };
    alloc::reset_peak();
    while !enough(passes.len(), timed) {
        fp.clear();
        let before = alloc::snapshot();
        let t = Instant::now();
        let (counts, held) = workloads::run_pass(&inputs, workers, &mut fp);
        let secs = t.elapsed().as_secs_f64();
        let after = alloc::snapshot();
        held.fingerprint(&mut fp);
        drift_ops = drift_ops.max(drift(&reference, &fp));
        timed += secs;
        passes.push(Pass {
            secs,
            allocs: after.calls - before.calls,
            alloc_bytes: after.bytes - before.bytes,
            counts,
        });
    }
    let peak_heap = alloc::peak();

    let ops = cold_counts.ops.max(1) as f64;
    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let secs = per_pass(&|p| p.secs);
    let [q1, q2, q3] = quartiles(&secs);
    let failed: u64 = cold_counts.failed + passes.iter().map(|p| p.counts.failed).sum::<u64>();
    let attempted = cold_counts.ops * (1 + passes.len() as u64);

    let wobble = workload.alloc_wobble();
    let close = |a: u64, b: u64| a.abs_diff(b) as f64 <= wobble * a.max(b) as f64;
    let inexact = (cfg.check_exact && workers == 1)
        .then(|| {
            let first = &passes[0];
            passes.iter().position(|p| {
                p.counts != first.counts
                    || !close(p.allocs, first.allocs)
                    || !close(p.alloc_bytes, first.alloc_bytes)
            })
        })
        .flatten()
        .map(|i| {
            let (a, b) = (&passes[0], &passes[i]);
            format!(
                "pass 1 vs pass {}: events {} vs {}, allocs {} vs {}, bytes {} vs {}",
                i + 1,
                a.counts.events,
                b.counts.events,
                a.allocs,
                b.allocs,
                a.alloc_bytes,
                b.alloc_bytes
            )
        });

    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new(
            "pass_s_min",
            secs.iter().copied().fold(f64::MAX, f64::min),
            "s",
        ),
        Metric::new(
            "allocs_per_op",
            median(&per_pass(&|p| p.allocs as f64)) / ops,
            "count",
        ),
        Metric::new(
            "alloc_kib_per_op",
            median(&per_pass(&|p| p.alloc_bytes as f64)) / ops / 1024.0,
            "KiB",
        ),
        Metric::new("peak_heap_mib", peak_heap as f64 / (1024.0 * 1024.0), "MiB"),
        Metric::new(
            "events_per_op",
            median(&per_pass(&|p| p.counts.events as f64)) / ops,
            "count",
        ),
        Metric::new("failed_ops", failed as f64, "count"),
        Metric::new("drift_ops", drift_ops as f64, "count"),
        Metric::new("harness.passes", passes.len() as f64, "count"),
        Metric::new("harness.pass_s_p50", q2, "s"),
        Metric::new("harness.pass_s_spread", (q3 - q1) / q2, "ratio"),
        Metric::new("harness.ops_per_pass", ops, "count"),
        Metric::new("harness.workers", workers as f64, "count"),
        Metric::new("harness.setup_build_s", build_secs, "s"),
        Metric::new("harness.setup_cold_pass_s", cold_secs, "s"),
    ];

    all_finite(&metrics)?;

    let mut record = vec![
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("workers", Json::Num(workers as f64)),
        ("passes", Json::Num(passes.len() as f64)),
        (
            "pass_s",
            Json::Arr(secs.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("attempted", Json::Num(attempted as f64)),
    ];
    record.extend(machine_meta());
    record.push(("metrics", metrics_json(&metrics)));
    let record = Json::obj(record);
    let latest = dir.join("out").join(format!("{}.json", workload.name()));
    store_run(&latest, record.clone(), true)?;
    if let Some(path) = &cfg.append {
        store_run(path, record, false)?;
    }

    Ok(Some(RunReport {
        metrics,
        attempted,
        failed,
        drift: drift_ops,
        inexact,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert_eq!(median(&[1.0, 9.0]), 5.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(
            true,
            10,
            0,
            metrics_json(&[Metric::new("setup_s", 0.8127, "s")]),
        );
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn benchmark_json_declares_these_bounds() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let decl = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = decl.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for ((name, unit, bound), got) in END_TO_END.into_iter().zip(listed) {
            assert_eq!(got.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(got.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(got.get("better").and_then(Json::as_str), Some("lower"));
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(bound));
        }
        let workloads: Vec<&str> = decl
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
