//! Performance-fault monitoring.
//!
//! Latency observations (from [`crate::anomaly::LatencyPairer`]) are
//! grouped per API and fed to an online level-shift detector each
//! (§5.3: "GRETEL leverages available online outlier detection tools to
//! detect performance faults"; §6 uses the LS mode of `tsoutliers`). A
//! confirmed shift becomes a [`PerfFault`], which the analyzer treats like
//! an anomaly: snapshot, operation detection with *untruncated*
//! fingerprints, then root cause analysis.

use crate::anomaly::LatencyObs;
use crate::fasthash::FastMap;
use gretel_model::codec::{
    put_bytes, put_count, put_f64, put_u16, put_u64, put_u8, DecodeError, Reader,
};
use gretel_model::ApiId;
use gretel_telemetry::{Anomaly, LevelShiftConfig, LevelShiftDetector, OutlierDetector};

/// Factory producing one detector per monitored API. Defaults to the
/// adaptive level-shift detector; any [`OutlierDetector`] can be plugged
/// in (paper §6: "outlier detection in GRETEL is pluggable").
pub type DetectorFactory = Box<dyn Fn() -> Box<dyn OutlierDetector + Send> + Send>;

/// A confirmed per-API latency anomaly.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfFault {
    /// The API whose latency shifted.
    pub api: ApiId,
    /// The underlying level-shift anomaly (times in µs).
    pub anomaly: Anomaly,
}

/// Per-API latency monitoring.
pub struct PerfMonitor {
    factory: DetectorFactory,
    detectors: FastMap<ApiId, Box<dyn OutlierDetector + Send>>,
    history: FastMap<ApiId, Vec<(u64, f64)>>,
    keep_history: bool,
}

impl PerfMonitor {
    /// New monitor with the default level-shift detector; `keep_history`
    /// retains the raw latency series per API (needed to plot Fig 6 /
    /// Fig 8b, off for throughput runs).
    pub fn new(cfg: LevelShiftConfig, keep_history: bool) -> PerfMonitor {
        Self::with_factory(
            Box::new(move || Box::new(LevelShiftDetector::new(cfg))),
            keep_history,
        )
    }

    /// New monitor with a custom detector factory.
    pub fn with_factory(factory: DetectorFactory, keep_history: bool) -> PerfMonitor {
        PerfMonitor {
            factory,
            detectors: FastMap::default(),
            history: FastMap::default(),
            keep_history,
        }
    }

    /// Feed one latency observation.
    pub fn observe(&mut self, obs: LatencyObs) -> Option<PerfFault> {
        if self.keep_history {
            self.history
                .entry(obs.api)
                .or_default()
                .push((obs.ts, obs.latency_us as f64));
        }
        let det = self.detectors.entry(obs.api).or_insert_with(&self.factory);
        det.update(obs.ts, obs.latency_us as f64)
            .map(|anomaly| PerfFault {
                api: obs.api,
                anomaly,
            })
    }

    /// Raw latency series collected for `api` (empty unless history is
    /// kept).
    pub fn history(&self, api: ApiId) -> &[(u64, f64)] {
        self.history.get(&api).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Serialize the monitor's state — per-API detector state and (when
    /// kept) latency history — for an analyzer checkpoint. Returns `false`
    /// (leaving `out` as it was) when any detector does not implement
    /// [`OutlierDetector::export_state`]: a monitor with an opaque plug-in
    /// detector cannot be checkpointed.
    pub(crate) fn export_state(&self, out: &mut Vec<u8>) -> bool {
        let start = out.len();
        let mut dets: Vec<(&ApiId, &Box<dyn OutlierDetector + Send>)> =
            self.detectors.iter().collect();
        dets.sort_by_key(|(a, _)| a.0);
        put_u8(out, self.keep_history as u8);
        put_count(out, dets.len());
        for (api, det) in dets {
            let Some(state) = det.export_state() else {
                out.truncate(start);
                return false;
            };
            put_u16(out, api.0);
            put_bytes(out, &state);
        }
        let mut hist: Vec<(&ApiId, &Vec<(u64, f64)>)> = self.history.iter().collect();
        hist.sort_by_key(|(a, _)| a.0);
        put_count(out, hist.len());
        for (api, series) in hist {
            put_u16(out, api.0);
            put_count(out, series.len());
            for &(ts, v) in series {
                put_u64(out, ts);
                put_f64(out, v);
            }
        }
        true
    }

    /// Decode [`PerfMonitor::export_state`] bytes into a [`PerfState`]
    /// without touching the monitor, so a caller restoring several blocks
    /// can validate them all before committing any. Detectors are
    /// re-created through the monitor's own factory and fed the serialized
    /// state, so the restoring monitor must be configured with the same
    /// factory as the one checkpointed.
    pub(crate) fn decode_state(&self, r: &mut Reader<'_>) -> Result<PerfState, DecodeError> {
        let keep_history = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(DecodeError::Invalid("perf keep_history flag")),
        };
        if keep_history != self.keep_history {
            return Err(DecodeError::Invalid("perf keep_history mismatch"));
        }
        let mut state = PerfState {
            detectors: FastMap::default(),
            history: FastMap::default(),
        };
        for _ in 0..r.count(2 + 4)? {
            let api = ApiId(r.u16()?);
            let mut det = (self.factory)();
            det.import_state(r.bytes()?)?;
            state.detectors.insert(api, det);
        }
        for _ in 0..r.count(2 + 4)? {
            let api = ApiId(r.u16()?);
            let n = r.count(8 + 8)?;
            let mut series = Vec::with_capacity(n);
            for _ in 0..n {
                series.push((r.u64()?, r.f64()?));
            }
            state.history.insert(api, series);
        }
        Ok(state)
    }

    /// Replace this monitor's state with a decoded [`PerfState`].
    pub(crate) fn install(&mut self, state: PerfState) {
        self.detectors = state.detectors;
        self.history = state.history;
    }
}

/// A monitor's dynamic state, decoded by [`PerfMonitor::decode_state`] and
/// not yet installed.
pub(crate) struct PerfState {
    detectors: FastMap<ApiId, Box<dyn OutlierDetector + Send>>,
    history: FastMap<ApiId, Vec<(u64, f64)>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(api: u16, ts: u64, latency_ms: f64) -> LatencyObs {
        LatencyObs {
            api: ApiId(api),
            ts,
            latency_us: (latency_ms * 1000.0) as u64,
        }
    }

    #[test]
    fn latency_shift_raises_perf_fault() {
        let mut mon = PerfMonitor::new(LevelShiftConfig::default(), false);
        let mut faults = Vec::new();
        for i in 0..100 {
            if let Some(f) = mon.observe(obs(1, i, 25.0 + (i % 3) as f64)) {
                faults.push(f);
            }
        }
        for i in 100..200 {
            if let Some(f) = mon.observe(obs(1, i, 125.0 + (i % 3) as f64)) {
                faults.push(f);
            }
        }
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].api, ApiId(1));
    }

    #[test]
    fn apis_are_tracked_independently() {
        let mut mon = PerfMonitor::new(LevelShiftConfig::default(), false);
        // API 1 shifts, API 2 stays flat.
        let mut faults = Vec::new();
        for i in 0..200 {
            let l1 = if i < 100 { 25.0 } else { 125.0 };
            if let Some(f) = mon.observe(obs(1, i, l1)) {
                faults.push(f);
            }
            if let Some(f) = mon.observe(obs(2, i, 10.0)) {
                faults.push(f);
            }
        }
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].api, ApiId(1));
    }

    #[test]
    fn custom_detector_factory_is_honored() {
        use gretel_telemetry::SpikeDetector;
        let mut mon =
            PerfMonitor::with_factory(Box::new(|| Box::new(SpikeDetector::default())), false);
        let mut alarms = 0;
        for i in 0..200 {
            let l = if i < 100 { 25.0 } else { 250.0 };
            if mon.observe(obs(1, i, l)).is_some() {
                alarms += 1;
            }
        }
        // The default level-shift detector alarms once and adapts; the
        // spike plug-in keeps its baseline clean, so every shifted point
        // alarms.
        assert_eq!(alarms, 100, "the spike plug-in judges every point");
    }

    #[test]
    fn inflated_history_series_length_is_rejected() {
        let mut mon = PerfMonitor::new(LevelShiftConfig::default(), true);
        mon.observe(obs(3, 0, 5.0));
        let mut state = Vec::new();
        assert!(mon.export_state(&mut state));
        let restored = mon
            .decode_state(&mut Reader::new(&state))
            .expect("round trip");
        assert_eq!(restored.history[&ApiId(3)], [(0, 5000.0)]);
        // The block ends with the one series: u32 length, then (ts, value).
        let n_at = state.len() - 16 - 4;
        state[n_at..n_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            mon.decode_state(&mut Reader::new(&state)).err(),
            Some(DecodeError::Truncated)
        );
    }

    #[test]
    fn history_is_kept_when_requested() {
        let mut mon = PerfMonitor::new(LevelShiftConfig::default(), true);
        for i in 0..10 {
            mon.observe(obs(3, i, 5.0));
        }
        assert_eq!(mon.history(ApiId(3)).len(), 10);
        assert!(mon.history(ApiId(4)).is_empty());

        let mut quiet = PerfMonitor::new(LevelShiftConfig::default(), false);
        quiet.observe(obs(3, 0, 5.0));
        assert!(quiet.history(ApiId(3)).is_empty());
    }
}
