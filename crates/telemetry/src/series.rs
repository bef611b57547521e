//! Time series of observations.
//!
//! Both telemetry (regularly polled node metrics) and per-API latency
//! observations (irregular, one point per completed request) are stored as
//! a [`TimeSeries`]: timestamp-ordered `(ts, value)` points with robust
//! statistics helpers (median / MAD), which the outlier detectors build on.

use gretel_sim::SimTime;

/// A timestamp-ordered sequence of observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Append an observation. Timestamps must be non-decreasing.
    pub fn push(&mut self, ts: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(ts >= last, "time series timestamps must be non-decreasing");
        }
        self.points.push((ts, value));
    }

    /// Timestamp of the last point.
    pub(crate) fn last_ts(&self) -> Option<SimTime> {
        self.points.last().map(|&(t, _)| t)
    }

    /// Points with `from <= ts < until`.
    pub fn window(&self, from: SimTime, until: SimTime) -> &[(SimTime, f64)] {
        let lo = self.points.partition_point(|&(t, _)| t < from);
        let hi = self.points.partition_point(|&(t, _)| t < until);
        &self.points[lo..hi]
    }
}

/// Median of a slice (not required to be sorted). `None` when empty.
pub(crate) fn median_of(values: &[f64]) -> Option<f64> {
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

/// MAD-based sigma estimate (1.4826 × median |x − median|).
pub(crate) fn mad_sigma_of(values: &[f64]) -> Option<f64> {
    let med = median_of(values)?;
    let deviations: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
    median_of(&deviations).map(|mad| 1.4826 * mad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut s = TimeSeries::default();
        for i in 0..10u64 {
            s.push(i * 10, i as f64);
        }
        assert_eq!(s.last_ts(), Some(90));
        assert_eq!(s.window(20, 50).len(), 3);
        assert_eq!(s.window(0, 1000).len(), 10);
        assert_eq!(s.window(95, 1000).len(), 0);
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
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_of(&[]), None);
    }

    #[test]
    fn mad_sigma_estimates_spread() {
        // Tight cluster: tiny sigma. Wide cluster: bigger sigma.
        let tight = mad_sigma_of(&[10.0, 10.1, 9.9, 10.05, 9.95]).unwrap();
        let wide = mad_sigma_of(&[10.0, 14.0, 6.0, 12.0, 8.0]).unwrap();
        assert!(tight < 0.5);
        assert!(wide > 2.0);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        let clean = mad_sigma_of(&[10.0, 10.2, 9.8, 10.1, 9.9, 10.0]).unwrap();
        let with_outlier = mad_sigma_of(&[10.0, 10.2, 9.8, 10.1, 9.9, 1000.0]).unwrap();
        // Unlike stddev, MAD barely moves.
        assert!(with_outlier < clean * 5.0 + 1.0);
    }
}
