//! Time series of observations.
//!
//! Both telemetry (regularly polled node metrics) and per-API latency
//! observations (irregular, one point per completed request) are stored as
//! a [`TimeSeries`]: timestamp-ordered `(ts, value)` points with robust
//! statistics helpers (median / MAD), which the outlier detectors build on.

use gretel_sim::SimTime;
use std::cmp::Ordering;

/// A timestamp-ordered sequence of observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series with room for `n` points.
    pub(crate) fn with_capacity(n: usize) -> TimeSeries {
        TimeSeries {
            points: Vec::with_capacity(n),
        }
    }

    /// Append an observation. Timestamps must be non-decreasing.
    pub fn push(&mut self, ts: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(ts >= last, "time series timestamps must be non-decreasing");
        }
        self.points.push((ts, value));
    }

    /// Whether the series holds no points.
    pub(crate) fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Points with `from <= ts < until`; empty when `until <= from`.
    pub fn window(&self, from: SimTime, until: SimTime) -> &[(SimTime, f64)] {
        window_of(&self.points, from, until)
    }
}

/// The points of a timestamp-ordered slice with `from <= ts < until`. An
/// inverted range (`until < from`) is an empty window, not a panic: a
/// capture whose events are out of timestamp order hands root cause
/// analysis exactly such a range.
pub(crate) fn window_of<T>(
    points: &[(SimTime, T)],
    from: SimTime,
    until: SimTime,
) -> &[(SimTime, T)] {
    let lo = points.partition_point(|&(t, _)| t < from);
    let hi = points.partition_point(|&(t, _)| t < until);
    points.get(lo..hi).unwrap_or(&[])
}

fn by_value(a: &f64, b: &f64) -> Ordering {
    a.partial_cmp(b).expect("no NaN in series")
}

/// Median of a non-empty slice, by selection: the element at `mid` after
/// `select_nth_unstable_by`, and for an even length the mean of it and the
/// maximum of the partition below it — the values a full sort would put
/// at `mid` and `mid - 1`. Reorders `v`.
fn select_median(v: &mut [f64]) -> f64 {
    let mid = v.len() / 2;
    let even = v.len().is_multiple_of(2);
    let (below, &mut at, _) = v.select_nth_unstable_by(mid, by_value);
    if even {
        let lower = below.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lower + at) / 2.0
    } else {
        at
    }
}

/// Median of `values` (any order), with `scratch` as working space.
/// `None` when empty.
///
/// Selection gives the value a stable sort gives for every input but one:
/// `-0.0` and `0.0` compare equal, so when the median is a zero and the
/// input holds a `-0.0`, which zero lands in the middle is up to the
/// algorithm. That case alone re-runs the stable sort over the input
/// order, so the sign comes out as it always has.
pub(crate) fn median_of<I>(values: I, scratch: &mut Vec<f64>) -> Option<f64>
where
    I: IntoIterator<Item = f64>,
    I::IntoIter: Clone,
{
    let values = values.into_iter();
    scratch.clear();
    scratch.extend(values.clone());
    if scratch.is_empty() {
        return None;
    }
    let median = select_median(scratch);
    if median == 0.0 && values.clone().any(|v| v == 0.0 && v.is_sign_negative()) {
        scratch.clear();
        scratch.extend(values);
        scratch.sort_by(by_value);
        let mid = scratch.len() / 2;
        return Some(if scratch.len().is_multiple_of(2) {
            (scratch[mid - 1] + scratch[mid]) / 2.0
        } else {
            scratch[mid]
        });
    }
    Some(median)
}

/// MAD-based sigma estimate (1.4826 × median |x − median|) of non-empty
/// `values` whose median is `median`, with `scratch` as working space.
/// The deviations are absolute values and never `-0.0`, so selection is
/// exact here without the signed-zero fallback of [`median_of`].
pub(crate) fn mad_sigma_of(
    values: impl IntoIterator<Item = f64>,
    median: f64,
    scratch: &mut Vec<f64>,
) -> f64 {
    scratch.clear();
    scratch.extend(values.into_iter().map(|v| (v - median).abs()));
    1.4826 * select_median(scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn median(values: &[f64]) -> Option<f64> {
        median_of(values.iter().copied(), &mut Vec::new())
    }

    fn mad_sigma(values: &[f64]) -> Option<f64> {
        let mut scratch = Vec::new();
        let med = median_of(values.iter().copied(), &mut scratch)?;
        Some(mad_sigma_of(values.iter().copied(), med, &mut scratch))
    }

    /// The sort-based definitions selection replaced.
    fn sorted_median(values: &[f64]) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in series"));
        let mid = v.len() / 2;
        Some(if v.len().is_multiple_of(2) {
            (v[mid - 1] + v[mid]) / 2.0
        } else {
            v[mid]
        })
    }

    fn sorted_mad_sigma(values: &[f64]) -> Option<f64> {
        let med = sorted_median(values)?;
        let deviations: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
        sorted_median(&deviations).map(|mad| 1.4826 * mad)
    }

    /// Bit-for-bit equality, so `-0.0` and `0.0` count as different.
    fn same_bits(a: Option<f64>, b: Option<f64>) -> bool {
        a.map(f64::to_bits) == b.map(f64::to_bits)
    }

    #[test]
    fn push_and_query() {
        let mut s = TimeSeries::default();
        for i in 0..10u64 {
            s.push(i * 10, i as f64);
        }
        assert_eq!(s.window(20, 50).len(), 3);
        assert_eq!(s.window(0, 1000).len(), 10);
        assert_eq!(s.window(95, 1000).len(), 0);
    }

    #[test]
    fn inverted_and_empty_ranges_are_empty_windows() {
        let mut s = TimeSeries::default();
        for i in 0..10u64 {
            s.push(i * 10, i as f64);
        }
        // Inverted: both ends inside the series, `from` past `until`.
        assert!(s.window(60, 20).is_empty());
        // Inverted across the whole series.
        assert!(s.window(1000, 0).is_empty());
        // Empty: `from == until`, on and between points.
        assert!(s.window(30, 30).is_empty());
        assert!(s.window(35, 35).is_empty());
        // An empty series answers every range with an empty window.
        let empty = TimeSeries::default();
        assert!(empty.window(0, 100).is_empty());
        assert!(empty.window(100, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_push_panics() {
        let mut s = TimeSeries::default();
        s.push(10, 1.0);
        s.push(5, 2.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mad_sigma_estimates_spread() {
        // Tight cluster: tiny sigma. Wide cluster: bigger sigma.
        let tight = mad_sigma(&[10.0, 10.1, 9.9, 10.05, 9.95]).unwrap();
        let wide = mad_sigma(&[10.0, 14.0, 6.0, 12.0, 8.0]).unwrap();
        assert!(tight < 0.5);
        assert!(wide > 2.0);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        let clean = mad_sigma(&[10.0, 10.2, 9.8, 10.1, 9.9, 10.0]).unwrap();
        let with_outlier = mad_sigma(&[10.0, 10.2, 9.8, 10.1, 9.9, 1000.0]).unwrap();
        // Unlike stddev, MAD barely moves.
        assert!(with_outlier < clean * 5.0 + 1.0);
    }

    #[test]
    fn selection_equals_the_sort_on_seeded_vectors() {
        let mut rng = StdRng::seed_from_u64(0x6d65_6469_616e);
        // Draws from small pools (heavy ties, both zero signs) and from a
        // continuous range; lengths cover 1, 2 and both parities.
        let pools: [&[f64]; 4] = [
            &[0.0, -0.0],
            &[-0.0, 0.0, 1.0, -1.0],
            &[3.0, 3.0, 3.0, 7.5, -2.0, 0.0],
            &[1.0],
        ];
        let mut scratch = Vec::new();
        for round in 0..4000 {
            let len = match round % 8 {
                0 => 1,
                1 => 2,
                _ => rng.gen_range(1..40),
            };
            let values: Vec<f64> = (0..len)
                .map(|_| match round % 5 {
                    4 => rng.gen_range(-100.0..100.0),
                    k => pools[k.min(3)][rng.gen_range(0..pools[k.min(3)].len())],
                })
                .collect();
            let got = median_of(values.iter().copied(), &mut scratch);
            let want = sorted_median(&values);
            assert!(
                same_bits(got, want),
                "median {values:?}: {got:?} vs {want:?}"
            );
            assert!(
                same_bits(mad_sigma(&values), sorted_mad_sigma(&values)),
                "MAD {values:?}"
            );
        }
    }

    #[test]
    fn a_zero_median_keeps_the_sign_the_sort_gives() {
        for values in [
            vec![-0.0],
            vec![0.0, -0.0],
            vec![-0.0, 0.0],
            vec![-0.0, -0.0],
            vec![-0.0, 0.0, -0.0],
            vec![0.0, -0.0, 0.0, -0.0, 5.0],
            vec![-1.0, -0.0, 0.0, 1.0],
        ] {
            assert!(
                same_bits(median(&values), sorted_median(&values)),
                "{values:?}"
            );
        }
    }
}
