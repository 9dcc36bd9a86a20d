//! Order statistics over a sample of `f64`s: the workspace's one median
//! and one percentile.

/// Median of a sample (averages the middle pair for even sizes).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

/// [`median`] over an already-sorted sample (no clone, no re-sort).
fn median_sorted(sorted: &[f64]) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The `p`-th percentile using linear interpolation between closest
/// ranks.
///
/// Edge cases are explicit: an empty sample yields `None`; a
/// single-element sample yields that element for every `p`; `p` outside
/// `0..=100` is clamped into the range, so `percentile(v, -5.0)` is the
/// minimum and `percentile(v, 250.0)` the maximum (NaN acts like 0).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

/// [`percentile`] over an already-sorted sample (no clone, no re-sort);
/// same explicit edge-case behavior.
fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    // f64::clamp propagates NaN, so it needs its own arm to keep the
    // rank arithmetic below NaN-free.
    let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
    let rank = (p / 100.0) * (sorted.len() as f64 - 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 50.0), Some(30.0));
        assert_eq!(percentile(&v, 100.0), Some(50.0));
        assert_eq!(percentile(&v, 25.0), Some(20.0));
    }

    #[test]
    fn sorted_variants_match_unsorted() {
        let v = [7.0, 1.0, 4.0, 9.0, 2.0, 6.0];
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        assert_eq!(median_sorted(&s), median(&v));
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            assert_eq!(percentile_sorted(&s, p), percentile(&v, p));
        }
        assert_eq!(median_sorted(&[]), None);
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn empty_inputs_yield_none_everywhere() {
        assert_eq!(median(&[]), None);
        assert_eq!(median_sorted(&[]), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile_sorted(&[], 0.0), None);
    }

    #[test]
    fn single_element_collapses_all_quantiles() {
        for p in [-10.0, 0.0, 25.0, 50.0, 99.9, 100.0, 400.0] {
            assert_eq!(percentile(&[7.5], p), Some(7.5));
        }
        assert_eq!(median(&[7.5]), Some(7.5));
    }

    #[test]
    fn out_of_range_p_clamps_to_extremes() {
        let v = [10.0, 20.0, 30.0];
        assert_eq!(percentile(&v, -5.0), Some(10.0));
        assert_eq!(percentile(&v, 250.0), Some(30.0));
        assert_eq!(percentile(&v, f64::NAN), Some(10.0));
    }
}
