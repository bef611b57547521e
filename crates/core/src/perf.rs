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
use gretel_model::codec::{put_count, DecodeError, Reader, Wire};
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

gretel_model::wire_struct!(PerfFault {
    api: ApiId,
    anomaly: Anomaly,
});

/// Per-API latency monitoring.
pub struct PerfMonitor {
    factory: DetectorFactory,
    detectors: Detectors,
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

    /// Append the per-API detector states for an analyzer checkpoint:
    /// their count, then each API and its detector's state, in API order.
    /// The latency history is a plotting aid for inline runs and is not
    /// checkpointed.
    pub(crate) fn put_state(&self, out: &mut Vec<u8>) {
        let mut detectors: Vec<_> = self.detectors.iter().collect();
        detectors.sort_unstable_by_key(|(api, _)| api.0);
        put_count(out, detectors.len());
        for (api, det) in detectors {
            api.put(out);
            det.put_state(out);
        }
    }

    /// Detectors built by this monitor's own factory, each restored from
    /// its state at `r`, so every detector keeps the run's configuration.
    /// The monitor is not touched, so a caller restoring several blocks can
    /// validate them all before committing any ([`PerfMonitor::install`]).
    pub(crate) fn read_detectors(&self, r: &mut Reader<'_>) -> Result<Detectors, DecodeError> {
        // Nothing is sized by the count, and each item consumes at least
        // its API id, so a hostile count runs out of bytes.
        let mut detectors = FastMap::default();
        for _ in 0..u32::read(r)? {
            let api = ApiId::read(r)?;
            let mut det = (self.factory)();
            det.restore(r)?;
            detectors.insert(api, det);
        }
        Ok(detectors)
    }

    /// Replace this monitor's detectors with restored ones. The latency
    /// history is not checkpointed, so it restarts empty.
    pub(crate) fn install(&mut self, detectors: Detectors) {
        self.detectors = detectors;
        self.history.clear();
    }
}

/// One level-shift (or plug-in) detector per monitored API.
pub(crate) type Detectors = FastMap<ApiId, Box<dyn OutlierDetector + Send>>;

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

    fn state(mon: &PerfMonitor) -> Vec<u8> {
        let mut out = Vec::new();
        mon.put_state(&mut out);
        out
    }

    #[test]
    fn history_is_not_checkpointed() {
        let mut kept = PerfMonitor::new(LevelShiftConfig::default(), true);
        let mut quiet = PerfMonitor::new(LevelShiftConfig::default(), false);
        for i in 0..10 {
            kept.observe(obs(3, i, 5.0));
            quiet.observe(obs(3, i, 5.0));
        }
        let (a, b) = (state(&kept), state(&quiet));
        assert_eq!(a, b, "the checkpoint carries detectors only");
        let detectors = kept
            .read_detectors(&mut Reader::new(&b))
            .expect("round trip");
        kept.install(detectors);
        assert!(kept.history(ApiId(3)).is_empty(), "history restarts");
        assert_eq!(state(&kept), b);
    }

    #[test]
    fn the_smallest_pending_perf_state_encodes_to_its_min_bytes() {
        use gretel_model::codec::{decode, encode, Wire};
        let fault = PerfFault {
            api: ApiId(3),
            anomaly: Anomaly {
                ts: 0,
                value: 0.0,
                baseline: 0.0,
                kind: gretel_telemetry::AnomalyKind::LevelShiftDown,
            },
        };
        assert_eq!(encode(&fault).len(), PerfFault::MIN_BYTES);
        assert_eq!(decode::<PerfFault>(&encode(&fault)), Ok(fault));
        let stats = crate::AnalyzerStats::default();
        assert_eq!(encode(&stats).len(), crate::AnalyzerStats::MIN_BYTES);
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
