//! Online outlier detection.
//!
//! The paper plugs R's `tsoutliers` package (LS — Level Shift — mode) into
//! GRETEL to flag sustained shifts in API latency and resource series
//! (§6): "The LS mode ensures that GRETEL adapts to the underlying system
//! changes and does not report many false alarms", and "LS does not raise
//! alerts even if latency variations are smaller than the initial observed
//! spike" (§7.3). [`LevelShiftDetector`] reproduces that contract online:
//!
//! * maintain a robust baseline (median + MAD-sigma) over a trailing
//!   window;
//! * when the median of the most recent `test_window` points deviates from
//!   the baseline median by more than `k_sigma` sigmas, raise one
//!   [`Anomaly`] and **re-baseline to the new level** so a sustained shift
//!   does not alarm forever;
//! * a spike smaller than an already-confirmed shift does not re-alarm.
//!
//! Detection is pluggable (paper: "administrators can leverage any
//! sophisticated detection mechanism"): anything implementing
//! [`OutlierDetector`] can replace the default.

use crate::series::{mad_sigma_of, median_of};
use gretel_model::codec::{put_count, put_f64, put_u32, DecodeError, Reader};
use gretel_sim::SimTime;
use std::collections::VecDeque;

/// Kind of detected anomaly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Sustained upward level shift.
    LevelShiftUp,
    /// Sustained downward level shift.
    LevelShiftDown,
}

/// One detected anomaly.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// Time of the observation that confirmed the anomaly.
    pub ts: SimTime,
    /// The observed (test-window median) value.
    pub value: f64,
    /// The baseline median it deviated from.
    pub baseline: f64,
    /// Shift direction.
    pub kind: AnomalyKind,
}

/// Streaming outlier detection interface.
pub trait OutlierDetector {
    /// Feed one observation; returns an anomaly when one is confirmed at
    /// this point.
    fn update(&mut self, ts: SimTime, value: f64) -> Option<Anomaly>;

    /// Reset all internal state.
    fn reset(&mut self);

    /// Serialize the detector's *dynamic* state for checkpointing (the
    /// configuration is not included — a restored detector must be
    /// constructed with the same configuration first). Returns `None` when
    /// the detector does not support checkpointing; callers treat that as
    /// "this analyzer cannot be checkpointed" rather than silently losing
    /// state.
    fn export_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restore dynamic state previously produced by
    /// [`OutlierDetector::export_state`] on an identically configured
    /// detector. On error the detector is left untouched; a checkpoint
    /// restore treats that as a hard error.
    fn import_state(&mut self, _bytes: &[u8]) -> Result<(), DecodeError> {
        Err(DecodeError::Invalid(
            "detector does not support state import",
        ))
    }
}

fn put_f64_seq<'a>(out: &mut Vec<u8>, vals: impl ExactSizeIterator<Item = &'a f64>) {
    put_count(out, vals.len());
    for &v in vals {
        put_f64(out, v);
    }
}

fn read_f64_seq(r: &mut Reader<'_>) -> Result<VecDeque<f64>, DecodeError> {
    (0..r.count(8)?).map(|_| r.f64()).collect()
}

/// `u32` presence tag (0 = `None`, 1 = `Some`) ahead of an optional block.
fn read_some_tag(r: &mut Reader<'_>) -> Result<bool, DecodeError> {
    match r.u32()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(DecodeError::Invalid("detector option tag")),
    }
}

/// Configuration of the level-shift detector.
#[derive(Debug, Clone, Copy)]
pub struct LevelShiftConfig {
    /// Points forming the trailing baseline.
    pub baseline_window: usize,
    /// Consecutive recent points whose median is tested against the
    /// baseline.
    pub test_window: usize,
    /// Deviation threshold in MAD-sigmas.
    pub k_sigma: f64,
    /// Floor for the sigma estimate, as a fraction of the baseline median
    /// (guards against near-constant baselines making every blip a shift).
    pub min_sigma_frac: f64,
}

impl Default for LevelShiftConfig {
    fn default() -> Self {
        LevelShiftConfig {
            baseline_window: 40,
            test_window: 5,
            k_sigma: 5.0,
            min_sigma_frac: 0.05,
        }
    }
}

/// Online level-shift detector (the `tsoutliers` LS substitute).
///
/// ```
/// use gretel_telemetry::{LevelShiftDetector, OutlierDetector};
///
/// let mut det = LevelShiftDetector::default();
/// // Stationary latencies: no alarm.
/// for i in 0..100 {
///     assert!(det.update(i, 25.0).is_none());
/// }
/// // A sustained 4x level shift: exactly one alarm, then adaptation.
/// let alarms: usize =
///     (100..200).filter(|&i| det.update(i, 100.0).is_some()).count();
/// assert_eq!(alarms, 1);
/// ```
///
/// Baseline statistics (median, MAD) are cached and refreshed every
/// `test_window` points rather than per observation — the baseline is a
/// trailing window, so its robust statistics drift slowly and the cache
/// keeps the per-observation cost O(1) amortized (this detector sits on
/// the analyzer's per-message hot path).
#[derive(Debug, Clone)]
pub struct LevelShiftDetector {
    cfg: LevelShiftConfig,
    baseline: VecDeque<f64>,
    test: VecDeque<f64>,
    cached_stats: Option<(f64, f64)>,
    staleness: usize,
}

impl LevelShiftDetector {
    /// New detector with the given configuration.
    pub fn new(cfg: LevelShiftConfig) -> LevelShiftDetector {
        LevelShiftDetector {
            cfg,
            baseline: VecDeque::new(),
            test: VecDeque::new(),
            cached_stats: None,
            staleness: 0,
        }
    }

    fn baseline_stats(&mut self) -> (f64, f64) {
        if let Some(stats) = self.cached_stats {
            if self.staleness < self.cfg.test_window {
                self.staleness += 1;
                return stats;
            }
        }
        let base: Vec<f64> = self.baseline.iter().copied().collect();
        let med = median_of(&base).expect("baseline non-empty");
        let sigma = mad_sigma_of(&base)
            .unwrap_or(0.0)
            .max(self.cfg.min_sigma_frac * med.abs())
            .max(f64::EPSILON);
        self.cached_stats = Some((med, sigma));
        self.staleness = 0;
        (med, sigma)
    }

    /// Current baseline median, if enough data has been seen.
    pub fn baseline_median(&self) -> Option<f64> {
        if self.baseline.is_empty() {
            None
        } else {
            median_of(&self.baseline.iter().copied().collect::<Vec<_>>())
        }
    }
}

impl Default for LevelShiftDetector {
    fn default() -> Self {
        Self::new(LevelShiftConfig::default())
    }
}

impl OutlierDetector for LevelShiftDetector {
    fn update(&mut self, ts: SimTime, value: f64) -> Option<Anomaly> {
        // Warm-up: fill the baseline first.
        if self.baseline.len() < self.cfg.baseline_window {
            self.baseline.push_back(value);
            return None;
        }
        self.test.push_back(value);
        if self.test.len() > self.cfg.test_window {
            // The oldest test point graduates into the baseline.
            if let Some(v) = self.test.pop_front() {
                self.baseline.push_back(v);
                if self.baseline.len() > self.cfg.baseline_window {
                    self.baseline.pop_front();
                }
            }
        }
        if self.test.len() < self.cfg.test_window {
            return None;
        }

        let (base_med, sigma) = self.baseline_stats();
        let test: Vec<f64> = self.test.iter().copied().collect();
        let test_med = median_of(&test).expect("test non-empty");

        let deviation = (test_med - base_med) / sigma;
        if deviation.abs() >= self.cfg.k_sigma {
            // Confirmed level shift: adapt — the new level becomes the
            // baseline, so the sustained shift raises exactly one alarm
            // and later smaller variations are judged against it.
            self.baseline.clear();
            self.baseline.extend(self.test.iter().copied());
            // Re-fill baseline to a workable size by repeating the test
            // window (it will roll forward with real data).
            while self.baseline.len() < self.cfg.baseline_window {
                let copy: Vec<f64> = self.test.iter().copied().collect();
                for v in copy {
                    if self.baseline.len() >= self.cfg.baseline_window {
                        break;
                    }
                    self.baseline.push_back(v);
                }
            }
            self.test.clear();
            self.cached_stats = None;
            return Some(Anomaly {
                ts,
                value: test_med,
                baseline: base_med,
                kind: if deviation > 0.0 {
                    AnomalyKind::LevelShiftUp
                } else {
                    AnomalyKind::LevelShiftDown
                },
            });
        }
        None
    }

    fn reset(&mut self) {
        self.baseline.clear();
        self.test.clear();
        self.cached_stats = None;
        self.staleness = 0;
    }

    fn export_state(&self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        put_f64_seq(&mut out, self.baseline.iter());
        put_f64_seq(&mut out, self.test.iter());
        match self.cached_stats {
            Some((med, sigma)) => {
                put_u32(&mut out, 1);
                put_f64(&mut out, med);
                put_f64(&mut out, sigma);
            }
            None => put_u32(&mut out, 0),
        }
        put_u32(&mut out, self.staleness as u32);
        Some(out)
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        let mut r = Reader::new(bytes);
        let baseline = read_f64_seq(&mut r)?;
        let test = read_f64_seq(&mut r)?;
        let cached_stats = if read_some_tag(&mut r)? {
            Some((r.f64()?, r.f64()?))
        } else {
            None
        };
        let staleness = r.u32()? as usize;
        r.done()?;
        *self = LevelShiftDetector {
            cfg: self.cfg,
            baseline,
            test,
            cached_stats,
            staleness,
        };
        Ok(())
    }
}

/// Run a detector over a whole series, collecting all anomalies.
pub fn detect_all<D: OutlierDetector>(
    detector: &mut D,
    points: impl IntoIterator<Item = (SimTime, f64)>,
) -> Vec<Anomaly> {
    points
        .into_iter()
        .filter_map(|(t, v)| detector.update(t, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noisy(rng: &mut StdRng, level: f64, jitter: f64) -> f64 {
        level + rng.gen_range(-jitter..jitter)
    }

    #[test]
    fn stationary_series_never_alarms() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut det = LevelShiftDetector::default();
        let pts: Vec<(SimTime, f64)> = (0..500)
            .map(|i| (i as u64, noisy(&mut rng, 25.0, 2.0)))
            .collect();
        assert!(detect_all(&mut det, pts).is_empty());
    }

    #[test]
    fn sustained_shift_raises_exactly_one_alarm() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut det = LevelShiftDetector::default();
        let mut pts: Vec<(SimTime, f64)> = (0..100)
            .map(|i| (i as u64, noisy(&mut rng, 25.0, 2.0)))
            .collect();
        pts.extend((100..300).map(|i| (i as u64, noisy(&mut rng, 125.0, 2.0))));
        let alarms = detect_all(&mut det, pts);
        assert_eq!(
            alarms.len(),
            1,
            "adaptive LS: one alarm per shift, got {alarms:?}"
        );
        assert_eq!(alarms[0].kind, AnomalyKind::LevelShiftUp);
        assert!(alarms[0].ts >= 100 && alarms[0].ts <= 115);
    }

    #[test]
    fn shift_down_is_detected_when_level_recovers() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut det = LevelShiftDetector::default();
        let mut pts: Vec<(SimTime, f64)> = (0..100)
            .map(|i| (i as u64, noisy(&mut rng, 25.0, 2.0)))
            .collect();
        pts.extend((100..200).map(|i| (i as u64, noisy(&mut rng, 125.0, 2.0))));
        pts.extend((200..300).map(|i| (i as u64, noisy(&mut rng, 25.0, 2.0))));
        let alarms = detect_all(&mut det, pts);
        assert_eq!(alarms.len(), 2);
        assert_eq!(alarms[0].kind, AnomalyKind::LevelShiftUp);
        assert_eq!(alarms[1].kind, AnomalyKind::LevelShiftDown);
    }

    #[test]
    fn single_spike_does_not_alarm() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut det = LevelShiftDetector::default();
        let mut pts: Vec<(SimTime, f64)> = (0..200)
            .map(|i| (i as u64, noisy(&mut rng, 25.0, 2.0)))
            .collect();
        pts[120].1 = 500.0; // one isolated spike — LS is about shifts
        assert!(detect_all(&mut det, pts).is_empty());
    }

    #[test]
    fn variations_smaller_than_the_shift_do_not_realarm() {
        // Paper §7.3: "LS does not raise alerts even if latency variations
        // are smaller than the initial observed spike."
        let mut rng = StdRng::seed_from_u64(5);
        let mut det = LevelShiftDetector::default();
        let mut pts: Vec<(SimTime, f64)> = (0..100)
            .map(|i| (i as u64, noisy(&mut rng, 25.0, 2.0)))
            .collect();
        pts.extend((100..200).map(|i| (i as u64, noisy(&mut rng, 125.0, 2.0))));
        // After adaptation, ±10ms wiggle around the new 125ms level.
        pts.extend((200..400).map(|i| (i as u64, noisy(&mut rng, 125.0, 10.0))));
        let alarms = detect_all(&mut det, pts);
        assert_eq!(alarms.len(), 1);
    }

    #[test]
    fn gentle_drift_is_adapted_without_alarms() {
        // A slow ramp (+0.2% per point) rolls through the trailing
        // baseline without ever tripping the shift test.
        let mut det = LevelShiftDetector::default();
        let mut alarms = 0;
        let mut level = 100.0;
        for i in 0..600u64 {
            level *= 1.002;
            if det.update(i, level).is_some() {
                alarms += 1;
            }
        }
        assert_eq!(alarms, 0, "gentle drift must not alarm");
    }

    #[test]
    fn steep_ramp_does_alarm() {
        let mut det = LevelShiftDetector::default();
        let mut alarms = 0;
        for i in 0..100u64 {
            if det.update(i, 100.0).is_some() {
                alarms += 1;
            }
        }
        let mut level = 100.0;
        for i in 100..160u64 {
            level *= 1.2; // +20% per point
            if det.update(i, level).is_some() {
                alarms += 1;
            }
        }
        assert!(alarms >= 1, "steep ramp alarms");
    }

    #[test]
    fn reset_clears_state() {
        let mut det = LevelShiftDetector::default();
        for i in 0..100 {
            det.update(i, 25.0);
        }
        assert!(det.baseline_median().is_some());
        det.reset();
        assert!(det.baseline_median().is_none());
    }

    #[test]
    fn warmup_produces_no_alarms() {
        let mut det = LevelShiftDetector::default();
        // Fewer points than the baseline window.
        for i in 0..30 {
            assert!(det.update(i, (i as f64) * 100.0).is_none());
        }
    }
}

/// Exponentially-weighted moving-average detector: flags observations
/// deviating from the EWMA by more than `k` estimated sigmas. Cheaper and
/// twitchier than [`LevelShiftDetector`]; an alternative plug-in
/// (the paper: "administrators can leverage any sophisticated detection
/// mechanism").
#[derive(Debug, Clone)]
pub struct EwmaDetector {
    /// Smoothing factor for the mean (0 < λ ≤ 1).
    pub lambda: f64,
    /// Alarm threshold in estimated sigmas.
    pub k_sigma: f64,
    mean: Option<f64>,
    var: f64,
    warmup: usize,
    seen: usize,
}

impl EwmaDetector {
    /// New detector with smoothing `lambda` and threshold `k_sigma`.
    pub fn new(lambda: f64, k_sigma: f64) -> EwmaDetector {
        assert!(lambda > 0.0 && lambda <= 1.0);
        EwmaDetector {
            lambda,
            k_sigma,
            mean: None,
            var: 0.0,
            warmup: 20,
            seen: 0,
        }
    }
}

impl Default for EwmaDetector {
    fn default() -> Self {
        EwmaDetector::new(0.1, 6.0)
    }
}

impl OutlierDetector for EwmaDetector {
    fn update(&mut self, ts: SimTime, value: f64) -> Option<Anomaly> {
        let mean = match self.mean {
            None => {
                self.mean = Some(value);
                self.seen = 1;
                return None;
            }
            Some(m) => m,
        };
        let sigma = self.var.sqrt().max(0.05 * mean.abs()).max(f64::EPSILON);
        let deviation = (value - mean) / sigma;
        let out = if self.seen >= self.warmup && deviation.abs() >= self.k_sigma {
            Some(Anomaly {
                ts,
                value,
                baseline: mean,
                kind: if deviation > 0.0 {
                    AnomalyKind::LevelShiftUp
                } else {
                    AnomalyKind::LevelShiftDown
                },
            })
        } else {
            None
        };
        // Update the EWMA (the anomalous value is folded in, so a
        // sustained shift is adapted to rather than re-alarmed forever).
        let diff = value - mean;
        self.mean = Some(mean + self.lambda * diff);
        self.var = (1.0 - self.lambda) * (self.var + self.lambda * diff * diff);
        self.seen += 1;
        out
    }

    fn reset(&mut self) {
        self.mean = None;
        self.var = 0.0;
        self.seen = 0;
    }

    fn export_state(&self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        match self.mean {
            Some(m) => {
                put_u32(&mut out, 1);
                put_f64(&mut out, m);
            }
            None => put_u32(&mut out, 0),
        }
        put_f64(&mut out, self.var);
        put_u32(&mut out, self.seen as u32);
        Some(out)
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        let mut r = Reader::new(bytes);
        let mean = if read_some_tag(&mut r)? {
            Some(r.f64()?)
        } else {
            None
        };
        let var = r.f64()?;
        let seen = r.u32()? as usize;
        r.done()?;
        (self.mean, self.var, self.seen) = (mean, var, seen);
        Ok(())
    }
}

/// Additive-outlier (spike) detector: flags *isolated* points far from the
/// rolling median — the complement of the LS detector, which deliberately
/// ignores single spikes. Useful for watchdogs on metrics where any
/// excursion matters (e.g. disk I/O stalls).
#[derive(Debug, Clone)]
pub struct SpikeDetector {
    window: VecDeque<f64>,
    capacity: usize,
    k_sigma: f64,
}

impl SpikeDetector {
    /// New detector over a rolling window of `capacity` points.
    pub fn new(capacity: usize, k_sigma: f64) -> SpikeDetector {
        assert!(capacity >= 4);
        SpikeDetector {
            window: VecDeque::new(),
            capacity,
            k_sigma,
        }
    }
}

impl Default for SpikeDetector {
    fn default() -> Self {
        SpikeDetector::new(30, 8.0)
    }
}

impl OutlierDetector for SpikeDetector {
    fn update(&mut self, ts: SimTime, value: f64) -> Option<Anomaly> {
        let out = if self.window.len() >= self.capacity / 2 {
            let vals: Vec<f64> = self.window.iter().copied().collect();
            let med = median_of(&vals).expect("window non-empty");
            let sigma = mad_sigma_of(&vals)
                .unwrap_or(0.0)
                .max(0.05 * med.abs())
                .max(f64::EPSILON);
            let deviation = (value - med) / sigma;
            (deviation.abs() >= self.k_sigma).then_some(Anomaly {
                ts,
                value,
                baseline: med,
                kind: if deviation > 0.0 {
                    AnomalyKind::LevelShiftUp
                } else {
                    AnomalyKind::LevelShiftDown
                },
            })
        } else {
            None
        };
        // Spikes are NOT folded into the window: the baseline stays clean
        // so consecutive spikes each alarm.
        if out.is_none() {
            self.window.push_back(value);
            if self.window.len() > self.capacity {
                self.window.pop_front();
            }
        }
        out
    }

    fn reset(&mut self) {
        self.window.clear();
    }

    fn export_state(&self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        put_f64_seq(&mut out, self.window.iter());
        Some(out)
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        let mut r = Reader::new(bytes);
        let window = read_f64_seq(&mut r)?;
        r.done()?;
        self.window = window;
        Ok(())
    }
}

#[cfg(test)]
mod more_detector_tests {
    use super::*;

    #[test]
    fn ewma_adapts_to_sustained_shift() {
        let mut det = EwmaDetector::default();
        let mut alarms = 0;
        for i in 0..100 {
            if det.update(i, 25.0 + (i % 3) as f64).is_some() {
                alarms += 1;
            }
        }
        assert_eq!(alarms, 0, "stationary: quiet");
        let mut first_alarm = None;
        for i in 100..400 {
            if det.update(i, 125.0 + (i % 3) as f64).is_some() && first_alarm.is_none() {
                first_alarm = Some(i);
            }
        }
        assert!(first_alarm.is_some(), "shift detected");
        // After adaptation the new level stops alarming.
        let mut tail_alarms = 0;
        for i in 400..500 {
            if det.update(i, 125.0 + (i % 3) as f64).is_some() {
                tail_alarms += 1;
            }
        }
        assert_eq!(tail_alarms, 0, "adapted to the new level");
    }

    #[test]
    fn spike_detector_fires_per_spike_and_ls_does_not() {
        let mut spike = SpikeDetector::default();
        let mut ls = LevelShiftDetector::default();
        let mut spike_alarms = 0;
        let mut ls_alarms = 0;
        for i in 0..300u64 {
            let v = if i % 50 == 49 {
                500.0
            } else {
                25.0 + (i % 3) as f64
            };
            if spike.update(i, v).is_some() {
                spike_alarms += 1;
            }
            if ls.update(i, v).is_some() {
                ls_alarms += 1;
            }
        }
        assert!(
            spike_alarms >= 4,
            "each isolated spike alarms: {spike_alarms}"
        );
        assert_eq!(ls_alarms, 0, "LS ignores isolated spikes (paper §7.3)");
    }

    #[test]
    fn spike_detector_keeps_baseline_clean() {
        let mut det = SpikeDetector::default();
        for i in 0..20 {
            det.update(i, 10.0);
        }
        // Two consecutive spikes both alarm because neither pollutes the
        // baseline.
        assert!(det.update(20, 400.0).is_some());
        assert!(det.update(21, 400.0).is_some());
    }

    #[test]
    fn detector_state_round_trips_mid_stream() {
        // Export mid-stream, import into a fresh identically-configured
        // detector, and verify both halves produce identical verdicts on
        // the remaining observations.
        fn check<D: OutlierDetector>(mut det: D, fresh: &mut D) {
            for i in 0..137u64 {
                det.update(i, 25.0 + (i % 7) as f64);
            }
            let state = det.export_state().expect("checkpointable");
            fresh.import_state(&state).expect("state imports");
            for i in 137..400u64 {
                let v = if i < 200 {
                    25.0 + (i % 7) as f64
                } else {
                    180.0
                };
                assert_eq!(det.update(i, v), fresh.update(i, v), "diverged at {i}");
            }
        }
        check(
            LevelShiftDetector::default(),
            &mut LevelShiftDetector::default(),
        );
        check(EwmaDetector::default(), &mut EwmaDetector::default());
        check(SpikeDetector::default(), &mut SpikeDetector::default());
    }

    #[test]
    fn detector_state_import_rejects_garbage() {
        let mut det = LevelShiftDetector::default();
        assert!(det.import_state(&[1, 2, 3]).is_err());
        assert!(det.import_state(&[0xFF; 64]).is_err());
        let mut ew = EwmaDetector::default();
        assert!(ew.import_state(&[9]).is_err());
        let mut sp = SpikeDetector::default();
        assert!(sp.import_state(&[1, 0, 0]).is_err());
        // A valid export with trailing junk is rejected too.
        let mut good = LevelShiftDetector::default();
        for i in 0..50 {
            good.update(i, 10.0);
        }
        let mut bytes = good.export_state().unwrap();
        bytes.push(0);
        assert_eq!(
            det.import_state(&bytes),
            Err(DecodeError::Invalid("trailing bytes"))
        );
    }

    #[test]
    fn ewma_reset() {
        let mut det = EwmaDetector::default();
        for i in 0..50 {
            det.update(i, 10.0);
        }
        det.reset();
        assert!(
            det.update(51, 500.0).is_none(),
            "fresh detector has no baseline"
        );
    }
}
