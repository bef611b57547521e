//! GRETEL watching itself: pipeline stage latencies fed back into the
//! same level-shift machinery that watches OpenStack.
//!
//! The observability registry ([`gretel_obs::PipelineMetrics`]) records
//! how long each pipeline stage takes. [`SelfWatch`] polls those
//! histograms on an interval, turns each stage's interval-mean latency
//! into a [`LatencyObs`] under a synthetic per-stage [`ApiId`], and feeds
//! it to a [`PerfMonitor`] — so a stall in GRETEL's own detect or
//! checkpoint stage raises a `PerfFault` exactly the way a slow Nova
//! API would. The paper's pitch is that level-shift detection is cheap
//! and generic; pointing it at the tool's own pipeline costs one extra
//! observation per stage per poll.

use crate::anomaly::LatencyObs;
use crate::perf::{PerfFault, PerfMonitor};
use gretel_model::ApiId;
use gretel_obs::{PipelineMetrics, Stage};
use gretel_telemetry::LevelShiftConfig;

/// Base of the synthetic [`ApiId`] range self-watch reports under. Real
/// catalog ids index a definition table of a few hundred entries, so the
/// top of the `u16` range cannot collide with them.
pub(crate) const SELF_WATCH_API_BASE: u16 = 0xFF00;

/// The synthetic [`ApiId`] a pipeline stage's latency stream reports
/// under: `SELF_WATCH_API_BASE` + the stage's position in [`Stage::ALL`].
pub(crate) fn self_watch_api(stage: Stage) -> ApiId {
    let pos = Stage::ALL
        .iter()
        .position(|s| *s == stage)
        .expect("ALL covers every stage");
    ApiId(SELF_WATCH_API_BASE + pos as u16)
}

/// The stage a synthetic self-watch [`ApiId`] refers to, if it is one.
pub fn self_watch_stage(api: ApiId) -> Option<Stage> {
    let pos = api.0.checked_sub(SELF_WATCH_API_BASE)? as usize;
    Stage::ALL.get(pos).copied()
}

/// Feeds per-stage pipeline latencies into a [`PerfMonitor`], raising
/// `PerfFault`s when GRETEL's own pipeline stalls.
///
/// Call [`SelfWatch::poll`] on a fixed cadence (every N merged messages,
/// or on a timer). Each poll computes, per stage, the mean latency of the
/// samples recorded since the previous poll and feeds it as one
/// observation; stages with no new samples are skipped, so idle stages
/// neither train nor trip their detectors.
pub struct SelfWatch {
    monitor: PerfMonitor,
    /// Per stage: `(count, sum_us)` seen at the previous poll.
    seen: [(u64, u64); Stage::COUNT],
}

impl SelfWatch {
    /// New self-watcher with the default level-shift detector per stage.
    pub fn new(cfg: LevelShiftConfig) -> SelfWatch {
        SelfWatch {
            monitor: PerfMonitor::new(cfg, false),
            seen: [(0, 0); Stage::COUNT],
        }
    }

    /// Observe the interval since the last poll: for every stage with new
    /// latency samples, feed the interval's mean latency to the monitor at
    /// timestamp `ts` (caller-supplied, µs — the same clock the pipeline's
    /// message timestamps use). Returns every `PerfFault` this interval
    /// confirmed; its `api` maps back to a stage via [`self_watch_stage`].
    pub fn poll(&mut self, metrics: &PipelineMetrics, ts: u64) -> Vec<PerfFault> {
        let mut faults = Vec::new();
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            let s = metrics.stage_latency(stage);
            let (seen_count, seen_sum) = self.seen[i];
            let d_count = s.count.saturating_sub(seen_count);
            let d_sum = s.sum_us.saturating_sub(seen_sum);
            self.seen[i] = (s.count, s.sum_us);
            if d_count == 0 {
                continue;
            }
            let obs = LatencyObs {
                api: self_watch_api(stage),
                ts,
                latency_us: d_sum / d_count,
            };
            faults.extend(self.monitor.observe(obs));
        }
        faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_api_ids_round_trip_and_stay_clear_of_the_catalog() {
        for &stage in &Stage::ALL {
            let api = self_watch_api(stage);
            assert!(api.0 >= SELF_WATCH_API_BASE);
            assert_eq!(self_watch_stage(api), Some(stage));
        }
        assert_eq!(self_watch_stage(ApiId(3)), None);
        let n_catalog = gretel_model::Catalog::openstack().len();
        assert!(
            n_catalog < SELF_WATCH_API_BASE as usize,
            "synthetic range is disjoint"
        );
    }

    #[test]
    fn pipeline_stall_raises_a_perf_fault_on_the_right_stage() {
        let metrics = PipelineMetrics::enabled();
        let mut watch = SelfWatch::new(LevelShiftConfig::default());

        // Steady state: detect passes take ~2ms, commits ~50µs.
        let mut ts = 0u64;
        for i in 0..100u64 {
            metrics.observe(Stage::Detect, 2_000 + (i % 3));
            metrics.observe(Stage::Commit, 50);
            ts += 1_000;
            assert!(
                watch.poll(&metrics, ts).is_empty(),
                "baseline must not alarm"
            );
        }

        // The detect stage stalls: per-pass latency jumps 10×.
        let mut faults = Vec::new();
        for i in 0..100u64 {
            metrics.observe(Stage::Detect, 20_000 + (i % 3));
            metrics.observe(Stage::Commit, 50);
            ts += 1_000;
            faults.extend(watch.poll(&metrics, ts));
        }
        assert_eq!(faults.len(), 1, "exactly one level shift: {faults:?}");
        assert_eq!(self_watch_stage(faults[0].api), Some(Stage::Detect));
        assert!(faults[0].anomaly.value > faults[0].anomaly.baseline);
    }

    #[test]
    fn idle_stages_are_skipped_not_trained_on_zeros() {
        let metrics = PipelineMetrics::enabled();
        let mut watch = SelfWatch::new(LevelShiftConfig::default());
        for i in 0..50u64 {
            metrics.observe(Stage::Ingest, 10);
            assert!(watch.poll(&metrics, i * 1_000).is_empty());
        }
        // Silent stages trained nothing, so a later first sample is not
        // judged against a phantom zero baseline: a steady detect latency
        // warms its own detector up without alarming.
        for i in 50..150u64 {
            metrics.observe(Stage::Detect, 20_000);
            assert!(watch.poll(&metrics, i * 1_000).is_empty(), "poll {i}");
        }
    }
}
