//! `--compare a.json b.json`: applies each end-to-end metric's bound to
//! two sets of runs and prints one verdict per metric × workload.
//!
//! Each file is a `{"runs": [...]}` log written with `--append`. Every
//! metric is lower-is-better. `regressed`: B's median is worse than A's
//! by more than the bound. `unresolved`: it is not, but the run-to-run
//! spread (distance between the quartiles, as a share of the median, in
//! either set) is wider than the bound, so "unchanged" cannot be told
//! from "worse" — unless every run of B reads no worse than every run
//! of A. `ok` otherwise. Exact metrics regress on any increase.

use std::collections::BTreeMap;
use std::path::Path;

use crate::harness::{quartiles, END_TO_END, EXACT};
use crate::json::Json;
use crate::workloads::Workload;

/// Verdict for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges set `b` against baseline `a` under `bound`.
pub fn judge(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let [a1, a2, a3] = quartiles(a);
    let [b1, b2, b3] = quartiles(b);
    if b2 > a2 + bound * a2.abs() {
        return Verdict::Regressed;
    }
    let spread = |q1: f64, q2: f64, q3: f64| if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() };
    let noisy = spread(a1, a2, a3).max(spread(b1, b2, b3)) > bound;
    let max_b = b.iter().copied().fold(f64::MIN, f64::max);
    let min_a = a.iter().copied().fold(f64::MAX, f64::min);
    if noisy && max_b > min_a {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// workload → metric → values, one per run.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no `runs` array", path.display()))?;
    let mut set = RunSet::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without `workload`")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("run without `metrics`")?;
        let by_metric = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                by_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// Compares two run logs, printing one line per metric × workload.
/// Returns whether anything regressed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (load(a)?, load(b)?);
    let specs = END_TO_END
        .iter()
        .map(|(name, _, bound)| (*name, *bound))
        .chain(EXACT.iter().map(|name| (*name, 0.0)));
    let mut regressed = false;
    println!(
        "{:<17} {:<17} {:<10} {:>14} {:>14} {:>8} {:>5}",
        "workload", "metric", "verdict", "median_a", "median_b", "change", "runs"
    );
    for (name, bound) in specs {
        for workload in Workload::ALL.map(Workload::name) {
            let values = |set: &RunSet| set.get(workload).and_then(|m| m.get(name)).cloned();
            let (Some(va), Some(vb)) = (values(&set_a), values(&set_b)) else {
                continue;
            };
            let verdict = judge(&va, &vb, bound);
            regressed |= verdict == Verdict::Regressed;
            let (ma, mb) = (quartiles(&va)[1], quartiles(&vb)[1]);
            let change = if ma == 0.0 {
                0.0
            } else {
                100.0 * (mb - ma) / ma
            };
            println!(
                "{workload:<17} {name:<17} {:<10} {ma:>14.6} {mb:>14.6} {change:>+7.2}% {:>2}/{:<2}",
                verdict.label(),
                va.len(),
                vb.len()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(judge(&steady, &[1.02, 1.01, 1.03, 1.02], 0.10), Verdict::Ok);
        assert_eq!(
            judge(&steady, &[1.20, 1.21, 1.19, 1.2], 0.10),
            Verdict::Regressed
        );
        // Same medians, but runs scatter by more than the bound.
        let noisy = [0.8, 1.0, 1.2, 1.0];
        assert_eq!(
            judge(&noisy, &[0.85, 1.0, 1.25, 1.0], 0.10),
            Verdict::Unresolved
        );
        // Noisy, yet every run of B beats every run of A: resolved.
        assert_eq!(judge(&noisy, &[0.5, 0.6, 0.7, 0.6], 0.10), Verdict::Ok);
    }

    #[test]
    fn exact_metrics_regress_on_any_increase() {
        let a = [1512227.0; 3];
        assert_eq!(judge(&a, &a, 0.0), Verdict::Ok);
        assert_eq!(judge(&a, &[1512228.0; 3], 0.0), Verdict::Regressed);
        assert_eq!(judge(&a, &[1400000.0; 3], 0.0), Verdict::Ok);
        assert_eq!(judge(&[0.0; 3], &[0.0; 3], 0.0), Verdict::Ok);
        assert_eq!(judge(&[0.0; 3], &[1.0; 3], 0.0), Verdict::Regressed);
    }
}
