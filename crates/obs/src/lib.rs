//! # gretel-obs — pipeline observability for GRETEL itself
//!
//! GRETEL's pitch is passive, lightweight observation of *other* systems;
//! this crate gives its own analyzer pipeline the same treatment, and keeps
//! only what something reads:
//!
//! * [`Stage`] — the pipeline stages (ingest → resequence → window →
//!   detect → match → rca → checkpoint → commit);
//! * [`PipelineMetrics`] — one fixed array of per-stage relaxed atomics:
//!   events, timing samples and busy nanoseconds;
//! * [`StageTimer`] — times one stage execution against an
//!   `Option<&PipelineMetrics>`. `None` is the one off switch: no clock is
//!   read and nothing is recorded;
//! * one export, [`PipelineMetrics::snapshot`]: a serde
//!   JSON-roundtrippable [`MetricsSnapshot`].
//!
//! Everything is `&self`: one registry is shared by reference (or `Arc`)
//! across the capture agents, the receiver/merge thread, the analysis pool
//! and, in a sharded run, every shard. All atomics use relaxed ordering —
//! the counters are statistics, not synchronization.
//!
//! Event and sample *counts* are deterministic for a fixed workload and
//! seed; busy time is wall-clock. [`MetricsSnapshot::deterministic_eq`]
//! compares exactly the reproducible part, which is what the observability
//! experiment asserts.

#![deny(missing_docs)]

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// One stage of the analyzer pipeline, in stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Per-message fast path on the receiver thread: latency pairing and
    /// window push, plus the byte scan on the inline path (the threaded
    /// pipeline scans at the capture agent).
    Ingest,
    /// Receiver-side per-record read and sequence restoration (dup
    /// discard, reorder parking, gap inference). With the batched transport
    /// this stage is *timed* once per batch of event records drained from
    /// the channel but *counted* per record — the canonical user of the
    /// [`count`](PipelineMetrics::count) /
    /// [`observe`](PipelineMetrics::observe) split: events stay per item
    /// while the samples reflect the real unit of work.
    Resequence,
    /// Snapshot freeze → job preparation (perf folding, error claiming).
    Window,
    /// Per-fault operation detection (Algorithm 2) over a frozen snapshot.
    Detect,
    /// Shared per-snapshot match preprocessing: the noise-filtered
    /// projection and occurrence index every detection matches against.
    Match,
    /// Root cause analysis (Algorithm 3) over the matched operations.
    Rca,
    /// Checkpoint encode + store append (durable service only).
    Checkpoint,
    /// Diagnosis release into the committed output stream.
    Commit,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 8] = [
        Stage::Ingest,
        Stage::Resequence,
        Stage::Window,
        Stage::Detect,
        Stage::Match,
        Stage::Rca,
        Stage::Checkpoint,
        Stage::Commit,
    ];

    /// Number of stages.
    pub const COUNT: usize = Stage::ALL.len();

    /// Stable lower-case name (the JSON snapshot key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Resequence => "resequence",
            Stage::Window => "window",
            Stage::Detect => "detect",
            Stage::Match => "match",
            Stage::Rca => "rca",
            Stage::Checkpoint => "checkpoint",
            Stage::Commit => "commit",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

/// One stage's timing: samples recorded and their total, in whole
/// microseconds. `count` is deterministic for a fixed workload; `sum_us`
/// is wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Busy time over all samples: the stage's total nanoseconds ÷ 1 000,
    /// rounded once (so sub-microsecond samples still add up).
    pub sum_us: u64,
}

/// One stage's atomics.
#[derive(Debug, Default)]
struct StageCell {
    events: AtomicU64,
    samples: AtomicU64,
    busy_ns: AtomicU64,
}

/// The shared registry: per stage, an event counter, a timing-sample
/// counter and a busy-nanosecond sum.
#[derive(Debug)]
pub struct PipelineMetrics {
    stages: [StageCell; Stage::COUNT],
}

impl PipelineMetrics {
    /// A zeroed registry.
    pub fn enabled() -> PipelineMetrics {
        PipelineMetrics {
            stages: std::array::from_fn(|_| StageCell::default()),
        }
    }

    /// Count `n` events at `stage` — one relaxed atomic add.
    #[inline]
    pub fn count(&self, stage: Stage, n: u64) {
        self.stages[stage.idx()].events.fetch_add(n, Relaxed);
    }

    /// Record one timing sample of `busy` at `stage`. Events move only
    /// through [`PipelineMetrics::count`], so a stage timed once per
    /// *batch* can still count one event per *item* without double-booking.
    #[inline]
    pub fn observe(&self, stage: Stage, busy: Duration) {
        let cell = &self.stages[stage.idx()];
        cell.samples.fetch_add(1, Relaxed);
        cell.busy_ns.fetch_add(busy.as_nanos() as u64, Relaxed);
    }

    /// Events counted at `stage` so far.
    pub fn stage_events(&self, stage: Stage) -> u64 {
        self.stages[stage.idx()].events.load(Relaxed)
    }

    /// Timing samples and busy time recorded at `stage` so far.
    pub fn stage_latency(&self, stage: Stage) -> LatencySummary {
        let cell = &self.stages[stage.idx()];
        LatencySummary {
            count: cell.samples.load(Relaxed),
            sum_us: cell.busy_ns.load(Relaxed).saturating_add(500) / 1_000,
        }
    }

    /// A point-in-time copy of every stage, ready for JSON export.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            stages: Stage::ALL
                .iter()
                .map(|&s| StageSnapshot {
                    stage: s.name().to_string(),
                    events: self.stage_events(s),
                    latency: self.stage_latency(s),
                })
                .collect(),
        }
    }
}

/// A timer for one stage execution. Started via [`StageTimer::start`]
/// against an optional registry: with `None` no clock is read and
/// [`StageTimer::finish`] is free.
#[must_use = "a StageTimer records nothing unless finished"]
pub struct StageTimer<'a> {
    target: Option<(&'a PipelineMetrics, Stage, Instant)>,
}

impl<'a> StageTimer<'a> {
    /// Start timing `stage` against `metrics` (no-op when `None`).
    #[inline]
    pub fn start(metrics: Option<&'a PipelineMetrics>, stage: Stage) -> StageTimer<'a> {
        StageTimer {
            target: metrics.map(|m| (m, stage, Instant::now())),
        }
    }

    /// Stop the clock and record one timing sample (events are counted
    /// separately via [`PipelineMetrics::count`]).
    #[inline]
    pub fn finish(self) {
        if let Some((m, stage, t0)) = self.target {
            m.observe(stage, t0.elapsed());
        }
    }
}

/// JSON-serializable snapshot of a [`PipelineMetrics`] registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Per-stage events and timing, in [`Stage::ALL`] order.
    pub stages: Vec<StageSnapshot>,
}

/// One stage's counters inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// [`Stage::name`].
    pub stage: String,
    /// Events counted.
    pub events: u64,
    /// Timing samples and busy time.
    pub latency: LatencySummary,
}

impl MetricsSnapshot {
    /// Compare only the fields that are deterministic for a fixed
    /// workload and seed: stage names, event counts and sample counts.
    /// Two runs of the same seeded pipeline agree under this comparison
    /// even though their busy times differ.
    pub fn deterministic_eq(&self, other: &MetricsSnapshot) -> bool {
        self.stages.len() == other.stages.len()
            && self.stages.iter().zip(&other.stages).all(|(a, b)| {
                a.stage == b.stage && a.events == b.events && a.latency.count == b.latency.count
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn stage_table_is_consistent() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.idx(), i, "{}", s.name());
        }
    }

    #[test]
    fn sub_microsecond_samples_add_up() {
        let m = PipelineMetrics::enabled();
        for _ in 0..10 {
            m.observe(Stage::Ingest, Duration::from_nanos(400));
        }
        // Truncating each sample to whole microseconds would give 0.
        assert_eq!(
            m.stage_latency(Stage::Ingest),
            LatencySummary {
                count: 10,
                sum_us: 4
            }
        );
    }

    #[test]
    fn events_and_samples_are_counted_apart() {
        let m = PipelineMetrics::enabled();
        m.count(Stage::Ingest, 3);
        m.observe(Stage::Ingest, us(10));
        m.observe(Stage::Detect, us(1000));
        assert_eq!(m.stage_events(Stage::Ingest), 3);
        assert_eq!(m.stage_latency(Stage::Ingest).count, 1);
        assert_eq!(m.stage_events(Stage::Detect), 0);
        assert_eq!(m.stage_latency(Stage::Detect).sum_us, 1000);
        StageTimer::start(Some(&m), Stage::Rca).finish();
        assert_eq!(m.stage_latency(Stage::Rca).count, 1);
        assert_eq!(m.stage_events(Stage::Rca), 0);
        StageTimer::start(None, Stage::Rca).finish();
        assert_eq!(m.stage_latency(Stage::Rca).count, 1);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let m = PipelineMetrics::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        m.count(Stage::Ingest, 1);
                        m.observe(Stage::Detect, us(7));
                    }
                });
            }
        });
        assert_eq!(m.stage_events(Stage::Ingest), 4000);
        assert_eq!(
            m.stage_latency(Stage::Detect),
            LatencySummary {
                count: 4000,
                sum_us: 28_000
            }
        );
    }

    #[test]
    fn snapshot_json_round_trips() {
        let m = PipelineMetrics::enabled();
        m.observe(Stage::Ingest, us(12));
        m.observe(Stage::Detect, us(345));
        m.count(Stage::Commit, 2);
        let snap = m.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snap);
    }

    #[test]
    fn deterministic_eq_ignores_wall_clock_fields() {
        let a = PipelineMetrics::enabled();
        let b = PipelineMetrics::enabled();
        for (fast, slow) in [(1u64, 1000u64), (2, 2000)] {
            a.observe(Stage::Detect, us(fast));
            b.observe(Stage::Detect, us(slow));
        }
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_ne!(sa, sb, "full snapshots differ on busy time");
        assert!(sa.deterministic_eq(&sb), "deterministic view agrees");
        b.observe(Stage::Detect, us(1));
        assert!(!sa.deterministic_eq(&b.snapshot()), "sample counts diverge");
        a.count(Stage::Commit, 1);
        assert!(!a.snapshot().deterministic_eq(&sa), "event counts diverge");
    }
}
