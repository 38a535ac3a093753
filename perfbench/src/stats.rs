//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank rule: the `p`-th percentile of `N`
//! sorted samples is the sample at 1-based rank `ceil(p/100 · N)`. A
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a tail figure always rests on more than a handful of
//! outliers.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Equal parts of a served window. Rates, CPU per op and latency
/// percentiles are the median over the parts, so a burst of
/// interference in one part (a neighbour's disk flush, a descheduled
/// thread) does not move the figure.
pub const SERVED_WINDOWS: usize = 20;

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples lying beyond the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The `p`-th percentile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || beyond(sorted.len(), p) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The median of `sorted` (ascending): the mean of the two middle
/// samples for an even count. `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Sorts a sample in place and returns it, for chaining.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// First and third quartiles of `sorted` (ascending), with the same
/// "exclusive" interpolation as Python's `statistics.quantiles(v,
/// n=4)`. `None` for fewer than two samples.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    // CPython's algorithm verbatim: the cut point i·(n+1)/4 (1-based),
    // clamped to 1..n-1, linearly inter- or extrapolated.
    let at = |i: i64| -> f64 {
        let (ld, m) = (n as i64, n as i64 + 1);
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (sorted[j as usize - 1], sorted[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Arithmetic mean, 0 for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Splits timed values `(at, value)` into `k` equal windows over
/// `[0, span)`; values at or past `span` (a drain) join the last one.
/// Each window comes back sorted.
pub fn windows(timed: &[(f64, f64)], span: f64, k: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); k];
    for &(at, v) in timed {
        let w = ((at / span * k as f64) as usize).min(k - 1);
        out[w].push(v);
    }
    out.into_iter().map(sorted).collect()
}

/// Median over windows of a per-window statistic; `None` if any window
/// lacks it.
pub fn median_over(windows: &[Vec<f64>], stat: impl Fn(&[f64]) -> Option<f64>) -> Option<f64> {
    let per: Option<Vec<f64>> = windows.iter().map(|w| stat(w)).collect();
    median(&sorted(per?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(1000);
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 90.0), Some(900.0));
        assert_eq!(median(&v), Some(500.5));
        assert_eq!(median(&ramp(5)), Some(3.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(percentile(&ramp(1000), 99.0).is_some());
        assert_eq!(beyond(999, 99.0), 9);
        assert!(percentile(&ramp(999), 99.0).is_none());
        // p90 needs 100 samples.
        assert!(percentile(&ramp(100), 90.0).is_some());
        assert!(percentile(&ramp(99), 90.0).is_none());
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn windowed_medians_resist_one_bad_window() {
        // Five 1 s windows of ten values each; window 2 is ten times slower.
        let timed: Vec<(f64, f64)> = (0..50)
            .map(|i| (i as f64 / 10.0, if i / 10 == 2 { 100.0 } else { 10.0 + (i % 10) as f64 }))
            .collect();
        let w = windows(&timed, 5.0, 5);
        assert!(w.iter().all(|v| v.len() == 10));
        assert_eq!(median_over(&w, median), Some(14.5));
        assert_eq!(median_over(&w, |v| percentile(v, 99.0)), None);
        // Past-the-end values (a drain) land in the last window.
        assert_eq!(windows(&[(7.0, 1.0)], 5.0, 5)[4], vec![1.0]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 7, 8, 20, 21], n=4) == [5.0, 8.0, 20.5]
        assert_eq!(quartiles(&[3.0, 7.0, 8.0, 20.0, 21.0]), Some((5.0, 20.5)));
        assert_eq!(quartiles(&[4.0]), None);
    }
}
