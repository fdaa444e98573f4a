//! Order statistics used by every reported timing.

/// The nearest-rank `p`-th percentile of an ascending-sorted sample:
/// the value at rank `⌈p/100 · n⌉` (1-based). `NaN` on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (sorts it in place). `NaN` when empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// Fewest samples that must lie above a reported tail percentile.
pub const MIN_ABOVE_TAIL: usize = 10;

/// The nearest rank (1-based) of the tail value reported for `n`
/// samples: p99's rank `⌈0.99·n⌉`, or — when that would leave fewer than
/// [`MIN_ABOVE_TAIL`] samples above it — the highest rank that still
/// leaves that many above, `n − 10`. `None` when `n ≤ 10`.
pub fn tail_rank(n: usize) -> Option<usize> {
    if n <= MIN_ABOVE_TAIL {
        return None;
    }
    let p99_rank = (99 * n).div_ceil(100);
    Some(p99_rank.min(n - MIN_ABOVE_TAIL))
}

/// The tail of an ascending-sorted sample per [`tail_rank`]: the value
/// and the percentile it sits at (`100·rank/n`).
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let rank = tail_rank(sorted.len())?;
    Some((sorted[rank - 1], 100.0 * rank as f64 / sorted.len() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
        let mut odd = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut odd), 2.0);
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_above_it() {
        assert_eq!(tail_rank(1000), Some(990));
        assert_eq!(tail_rank(100_000), Some(99_000));
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((990.0, 99.0)));
    }

    #[test]
    fn tail_backs_off_below_a_thousand_samples() {
        // 999 samples: p99 sits at rank 990, leaving 9 above — too few
        assert_eq!(tail_rank(999), Some(989));
        // 100 samples: the 90th percentile is the highest with 10 above
        assert_eq!(tail_rank(100), Some(90));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), Some((90.0, 90.0)));
        assert_eq!(tail_rank(20), Some(10));
        assert_eq!(tail_rank(11), Some(1));
    }

    #[test]
    fn tail_is_undefined_for_ten_or_fewer_samples() {
        assert_eq!(tail_rank(10), None);
        assert_eq!(tail_rank(0), None);
        assert_eq!(tail(&[1.0; 5]), None);
    }
}
