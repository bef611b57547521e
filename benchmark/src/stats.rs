//! Order statistics for pass timings: medians, quartiles, percentiles.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), so a spread computed here matches what an external
//! driver computes from the same values.

use serde::{Deserialize, Serialize};

/// A sample reduced to the numbers a comparison needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample count.
    pub n: u64,
    /// Second quartile.
    pub median: f64,
    /// First quartile (equals the median for a single sample).
    pub q1: f64,
    /// Third quartile (equals the median for a single sample).
    pub q3: f64,
}

impl Summary {
    /// Summarise a non-empty sample.
    pub fn of(values: &[f64]) -> Summary {
        let [q1, median, q3] = quartiles(values);
        Summary {
            n: values.len() as u64,
            median,
            q1,
            q3,
        }
    }

    /// A single exact or once-measured value: no spread.
    pub fn single(value: f64) -> Summary {
        Summary {
            n: 1,
            median: value,
            q1: value,
            q3: value,
        }
    }

    /// `f` applied to every statistic. For a decreasing `f` (pass time →
    /// throughput) the quartiles swap so that `q1 <= q3` still holds.
    pub fn map(self, f: impl Fn(f64) -> f64) -> Summary {
        let (a, b) = (f(self.q1), f(self.q3));
        Summary {
            n: self.n,
            median: f(self.median),
            q1: a.min(b),
            q3: a.max(b),
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// `[q1, median, q3]` of a non-empty sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        // The weight is taken after `j` is clamped, so very small samples
        // extrapolate from their two end points, as Python does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The `p`-th percentile (0–100) by nearest rank on a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p50 / p90 / p99 / p99.9 that still has at least ten
/// samples beyond it in a sample of `n`; `None` below twenty samples. A
/// tail percentile resting on fewer samples is noise.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per-mille arithmetic: 100 * (1 - 0.9) is not 10 in floating point.
    [(99.9, 1), (99.0, 10), (90.0, 100), (50.0, 500)]
        .into_iter()
        .find(|&(_, beyond_per_mille)| n * beyond_per_mille >= 10_000)
        .map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn median_is_order_independent() {
        assert_eq!(Summary::of(&[5.0, 1.0, 3.0]).median, 3.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[2.0], 99.0), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn mapping_a_decreasing_function_keeps_quartiles_ordered() {
        let s = Summary {
            n: 5,
            median: 2.0,
            q1: 1.0,
            q3: 4.0,
        }
        .map(|x| 8.0 / x);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 8.0));
    }
}
