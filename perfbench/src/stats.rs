//! Summaries of timing samples: medians, quartiles and tail percentiles.
//!
//! A tail percentile is reported only when the sample can support it: at
//! least [`MIN_BEYOND`] samples must lie beyond its rank. A p99 over eight
//! samples is just the maximum, so [`percentile`] refuses it instead of
//! printing it under a name it has not earned.

/// Samples that must lie beyond a percentile's rank before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, by [`highest_supported`].
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// One reported percentile with the sample it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile, e.g. `99.0`.
    pub p: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Sample count.
    pub samples: usize,
}

/// Median and quartiles of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Sample count.
    pub samples: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` in `n` samples. The small
/// tolerance keeps decimal percentiles like 99.9 from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Percentile `p` of `samples` by nearest rank, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    let n = samples.len();
    if n == 0 || n - rank(n, p) < MIN_BEYOND {
        return None;
    }
    Some(Percentile { p, value: sorted(samples)[rank(n, p) - 1], samples: n })
}

/// The highest percentile of [`TAIL_LADDER`] the sample supports.
pub fn highest_supported(samples: &[f64]) -> Option<Percentile> {
    TAIL_LADDER.iter().find_map(|&p| percentile(samples, p))
}

/// Plain median (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Median and quartiles, the quartiles by the same "exclusive" method as
/// Python's `statistics.quantiles(data, n=4)`.
pub fn spread(samples: &[f64]) -> Option<Spread> {
    let v = sorted(samples);
    let n = v.len();
    let median = median(&v)?;
    if n < 2 {
        return Some(Spread { samples: n, q1: median, median, q3: median });
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Spread { samples: n, q1: quartile(1), median, q3: quartile(3) })
}

/// Median of `count / seconds` over `(seconds, count)` samples that took
/// any time. Unlike one total over the whole run, the median ignores a
/// stall that hits a minority of the samples.
pub fn median_rate(samples: &[(f64, f64)]) -> Option<f64> {
    let rates: Vec<f64> = samples.iter().filter(|s| s.0 > 0.0).map(|s| s.1 / s.0).collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn eight_samples_cannot_carry_a_p99() {
        assert_eq!(percentile(&ramp(8), 99.0), None);
        assert_eq!(percentile(&ramp(8), 90.0), None);
        assert_eq!(highest_supported(&ramp(8)), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let p99 = percentile(&ramp(1000), 99.0).expect("1000 samples support p99");
        assert_eq!((p99.value, p99.samples), (990.0, 1000));
        assert!(percentile(&ramp(999), 99.0).is_none());
        assert_eq!(percentile(&ramp(100), 90.0).map(|p| p.value), Some(90.0));
        assert!(percentile(&ramp(99), 90.0).is_none());
        assert_eq!(percentile(&ramp(20), 50.0).map(|p| p.value), Some(10.0));
        assert!(percentile(&ramp(19), 50.0).is_none());
    }

    #[test]
    fn highest_supported_walks_down_the_ladder() {
        assert_eq!(highest_supported(&ramp(10_000)).map(|p| p.p), Some(99.9));
        assert_eq!(highest_supported(&ramp(5_000)).map(|p| p.p), Some(99.0));
        assert_eq!(highest_supported(&ramp(150)).map(|p| p.p), Some(90.0));
        assert_eq!(highest_supported(&ramp(40)).map(|p| p.p), Some(50.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(percentile(&v, 90.0).map(|p| p.value), Some(180.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = spread(&ramp(10)).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = spread(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let s = spread(&ramp(7)).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
    }

    #[test]
    fn median_rate_ignores_a_stalled_minority() {
        // Four calls at 10/s and one stalled at 1/s; the whole-run total
        // would read 25 / 7 = 3.6/s.
        let calls = [(0.5, 5.0), (0.5, 5.0), (5.0, 5.0), (0.5, 5.0), (0.5, 5.0)];
        assert_eq!(median_rate(&calls), Some(10.0));
        assert_eq!(median_rate(&[(0.0, 3.0), (2.0, 4.0)]), Some(2.0));
        assert_eq!(median_rate(&[]), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }
}
