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
//!   the baseline median by more than `K_SIGMA` (5) sigmas, raise one
//!   [`Anomaly`] and **re-baseline to the new level** so a sustained shift
//!   does not alarm forever;
//! * a spike smaller than an already-confirmed shift does not re-alarm.
//!
//! Detection is pluggable (paper: "administrators can leverage any
//! sophisticated detection mechanism"): anything implementing
//! [`OutlierDetector`] can replace the default.

use crate::series::{mad_sigma_of, median_of};
use gretel_model::codec::{DecodeError, Reader, Wire};
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

gretel_model::wire_struct!(enum AnomalyKind {
    0 => LevelShiftUp,
    1 => LevelShiftDown,
});
gretel_model::wire_struct!(Anomaly {
    ts: SimTime,
    value: f64,
    baseline: f64,
    kind: AnomalyKind,
});

/// Streaming outlier detection interface.
pub trait OutlierDetector {
    /// Feed one observation; returns an anomaly when one is confirmed at
    /// this point.
    fn update(&mut self, ts: SimTime, value: f64) -> Option<Anomaly>;

    /// Append the detector's *dynamic* state to `out`, for a checkpoint.
    /// The configuration is not written: a detector restores into one
    /// built from its run's configuration.
    fn put_state(&self, out: &mut Vec<u8>);

    /// Replace the dynamic state with the one [`OutlierDetector::put_state`]
    /// wrote at `r`, keeping this detector's configuration. A state that
    /// does not fit it is an error. All-or-nothing: on error the detector
    /// is left untouched; a checkpoint restore treats that as a hard error.
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError>;
}

/// A level-shift detector's cached baseline statistics behind a `u32`
/// presence tag (0 = `None`, 1 = `Some`).
struct CachedStats(Option<(f64, f64)>);

impl Wire for CachedStats {
    const MIN_BYTES: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        match self.0 {
            Some(stats) => (1u32, stats).put(out),
            None => 0u32.put(out),
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<CachedStats, DecodeError> {
        match r.u32()? {
            0 => Ok(CachedStats(None)),
            1 => Ok(CachedStats(Some(Wire::read(r)?))),
            _ => Err(DecodeError::Invalid("detector option tag")),
        }
    }
}

/// Level-shift deviation threshold, in MAD-sigmas.
const K_SIGMA: f64 = 5.0;
/// Floor for a sigma estimate, as a fraction of the baseline median
/// (guards against near-constant baselines making every blip an outlier).
const MIN_SIGMA_FRAC: f64 = 0.05;

/// Configuration of the level-shift detector: its two window lengths.
#[derive(Debug, Clone, Copy)]
pub struct LevelShiftConfig {
    /// Points forming the trailing baseline.
    pub baseline_window: usize,
    /// Consecutive recent points whose median is tested against the
    /// baseline.
    pub test_window: usize,
}

impl Default for LevelShiftConfig {
    fn default() -> Self {
        LevelShiftConfig {
            baseline_window: 40,
            test_window: 5,
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
        let mut scratch = Vec::new();
        let base = self.baseline.iter().copied();
        let med = median_of(base.clone(), &mut scratch).expect("baseline non-empty");
        let sigma = mad_sigma_of(base, med, &mut scratch)
            .max(MIN_SIGMA_FRAC * med.abs())
            .max(f64::EPSILON);
        self.cached_stats = Some((med, sigma));
        self.staleness = 0;
        (med, sigma)
    }
}

impl Default for LevelShiftDetector {
    fn default() -> Self {
        Self::new(LevelShiftConfig::default())
    }
}

/// A level-shift detector's exported state, as it reads back.
type LevelShiftState = (VecDeque<f64>, VecDeque<f64>, CachedStats, u32);

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
        let test_med =
            median_of(self.test.iter().copied(), &mut Vec::new()).expect("test non-empty");

        let deviation = (test_med - base_med) / sigma;
        if deviation.abs() >= K_SIGMA {
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

    /// The baseline, the test window, the cached statistics and their
    /// staleness as a `u32`.
    fn put_state(&self, out: &mut Vec<u8>) {
        self.baseline.put(out);
        self.test.put(out);
        CachedStats(self.cached_stats).put(out);
        (self.staleness as u32).put(out);
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let (baseline, test, CachedStats(cached_stats), staleness): LevelShiftState =
            Wire::read(r)?;
        // A confirmed shift refills the baseline from the test window, so it
        // can briefly hold `test_window` points when that is the larger.
        let max_baseline = self.cfg.baseline_window.max(self.cfg.test_window);
        if baseline.len() > max_baseline || test.len() > self.cfg.test_window {
            return Err(DecodeError::Invalid("detector window length"));
        }
        self.baseline = baseline;
        self.test = test;
        self.cached_stats = cached_stats;
        self.staleness = staleness as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noisy(rng: &mut StdRng, level: f64, jitter: f64) -> f64 {
        level + rng.gen_range(-jitter..jitter)
    }

    /// Run a detector over a whole series, collecting all anomalies.
    fn detect_all<D: OutlierDetector>(
        detector: &mut D,
        points: impl IntoIterator<Item = (SimTime, f64)>,
    ) -> Vec<Anomaly> {
        points
            .into_iter()
            .filter_map(|(t, v)| detector.update(t, v))
            .collect()
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
    fn warmup_produces_no_alarms() {
        let mut det = LevelShiftDetector::default();
        // Fewer points than the baseline window.
        for i in 0..30 {
            assert!(det.update(i, (i as f64) * 100.0).is_none());
        }
    }
}

/// Additive-outlier (spike) detector: flags *isolated* points far from the
/// rolling median — the complement of the LS detector, which deliberately
/// ignores single spikes. Useful for watchdogs on metrics where any
/// excursion matters (e.g. disk I/O stalls). A point is a spike when it
/// lies `SPIKE_K_SIGMA` (8) MAD-sigmas from the median of the last
/// `SPIKE_WINDOW` (30) non-spike points.
#[derive(Debug, Clone, Default)]
pub struct SpikeDetector {
    window: VecDeque<f64>,
}

/// Points in a [`SpikeDetector`]'s rolling window.
const SPIKE_WINDOW: usize = 30;
/// A [`SpikeDetector`]'s deviation threshold, in MAD-sigmas.
const SPIKE_K_SIGMA: f64 = 8.0;

impl OutlierDetector for SpikeDetector {
    fn update(&mut self, ts: SimTime, value: f64) -> Option<Anomaly> {
        let out = if self.window.len() >= SPIKE_WINDOW / 2 {
            let mut scratch = Vec::new();
            let vals = self.window.iter().copied();
            let med = median_of(vals.clone(), &mut scratch).expect("window non-empty");
            let sigma = mad_sigma_of(vals, med, &mut scratch)
                .max(MIN_SIGMA_FRAC * med.abs())
                .max(f64::EPSILON);
            let deviation = (value - med) / sigma;
            (deviation.abs() >= SPIKE_K_SIGMA).then_some(Anomaly {
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
            if self.window.len() > SPIKE_WINDOW {
                self.window.pop_front();
            }
        }
        out
    }

    fn put_state(&self, out: &mut Vec<u8>) {
        self.window.put(out);
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let window = VecDeque::<f64>::read(r)?;
        if window.len() > SPIKE_WINDOW {
            return Err(DecodeError::Invalid("detector window length"));
        }
        self.window = window;
        Ok(())
    }
}

#[cfg(test)]
mod more_detector_tests {
    use super::*;
    use gretel_model::codec::{decode, encode};

    /// A detector's state, as a checkpoint holds it.
    fn state_of(d: &impl OutlierDetector) -> Vec<u8> {
        let mut out = Vec::new();
        d.put_state(&mut out);
        out
    }

    /// Restore `bytes`, which must be exactly one state.
    fn import(d: &mut impl OutlierDetector, bytes: &[u8]) -> Result<(), DecodeError> {
        let mut r = Reader::new(bytes);
        d.restore(&mut r)?;
        r.done()
    }

    #[test]
    fn the_smallest_detector_pieces_encode_to_their_min_bytes() {
        assert_eq!(encode(&CachedStats(None)).len(), CachedStats::MIN_BYTES);
        let anomaly = Anomaly {
            ts: 0,
            value: 0.0,
            baseline: 0.0,
            kind: AnomalyKind::LevelShiftUp,
        };
        assert_eq!(encode(&anomaly).len(), Anomaly::MIN_BYTES);
        assert_eq!(decode::<Anomaly>(&encode(&anomaly)), Ok(anomaly));
        let empty = state_of(&SpikeDetector::default());
        assert_eq!(empty.len(), VecDeque::<f64>::MIN_BYTES);
        let fresh = state_of(&LevelShiftDetector::default());
        assert_eq!(fresh.len(), LevelShiftState::MIN_BYTES);
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
            let state = state_of(&det);
            import(fresh, &state).expect("state imports");
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
        check(SpikeDetector::default(), &mut SpikeDetector::default());
    }

    #[test]
    fn detector_state_import_rejects_garbage() {
        let mut det = LevelShiftDetector::default();
        assert!(import(&mut det, &[1, 2, 3]).is_err());
        assert!(import(&mut det, &[0xFF; 64]).is_err());
        let mut sp = SpikeDetector::default();
        assert!(import(&mut sp, &[1, 0, 0]).is_err());
        // A valid export with trailing junk is rejected too.
        let mut good = LevelShiftDetector::default();
        for i in 0..50 {
            good.update(i, 10.0);
        }
        let mut bytes = state_of(&good);
        bytes.push(0);
        assert_eq!(
            import(&mut det, &bytes),
            Err(DecodeError::Invalid("trailing bytes"))
        );
    }

    /// A level-shift state with windows longer than the importing
    /// detector's is rejected whole: the detector keeps what it had.
    #[test]
    fn level_shift_import_rejects_windows_past_the_config() {
        let mut wide = LevelShiftDetector::default(); // 40 / 5
        for i in 0..60 {
            wide.update(i, 25.0 + (i % 7) as f64);
        }
        let state = state_of(&wide);
        let narrow = |baseline_window, test_window| {
            let mut d = LevelShiftDetector::new(LevelShiftConfig {
                baseline_window,
                test_window,
            });
            for i in 0..30 {
                d.update(i, 10.0);
            }
            d
        };
        // The baseline (40 points) is longer than 20; the test window
        // (5 points) is longer than 4.
        for (b, t) in [(20, 5), (40, 4)] {
            let mut d = narrow(b, t);
            let before = state_of(&d);
            assert_eq!(
                import(&mut d, &state),
                Err(DecodeError::Invalid("detector window length")),
                "{b}/{t}"
            );
            assert_eq!(state_of(&d), before, "{b}/{t}: unchanged");
        }
        import(&mut narrow(40, 5), &state).expect("same config imports");
    }

    /// A spike window longer than `SPIKE_WINDOW` is rejected whole.
    #[test]
    fn spike_import_rejects_a_window_past_its_length() {
        let mut det = SpikeDetector::default();
        for i in 0..10 {
            det.update(i, 10.0);
        }
        let before = state_of(&det);
        for (n, ok) in [(SPIKE_WINDOW, true), (SPIKE_WINDOW + 1, false)] {
            let state = encode(&vec![25.0; n]);
            let mut d = det.clone();
            assert_eq!(import(&mut d, &state).is_ok(), ok, "{n} points");
            if !ok {
                assert_eq!(state_of(&d), before, "{n} points: unchanged");
            }
        }
    }
}
