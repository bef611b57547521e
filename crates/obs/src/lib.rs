//! # gretel-obs — pipeline observability for GRETEL itself
//!
//! GRETEL's pitch is passive, lightweight observation of *other* systems;
//! this crate gives its own analyzer pipeline the same treatment. It
//! provides:
//!
//! * [`Stage`] — the pipeline stages (ingest → resequence → window →
//!   detect → match → rca → checkpoint → commit);
//! * [`Counter`] — a lock-free event counter (one relaxed atomic add);
//! * [`Histogram`] — a log2-bucketed latency histogram with
//!   p50/p95/p99/max summaries, three relaxed atomic ops per sample;
//! * [`PipelineMetrics`] — the registry the service threads share. A
//!   *disabled* registry turns every recording call into a branch on a
//!   plain bool (no atomics, no clock reads), so instrumentation can stay
//!   compiled-in everywhere;
//! * two exporters — [`PipelineMetrics::prometheus_text`] (text
//!   exposition, re-parseable with [`parse_prometheus_text`]) and
//!   [`PipelineMetrics::snapshot`] (a serde JSON-roundtrippable
//!   [`MetricsSnapshot`]).
//!
//! Everything is `&self`: one registry is shared by reference (or `Arc`)
//! across the capture agents, the receiver/merge thread and the analysis
//! pool. All atomics use relaxed ordering — the counters are statistics,
//! not synchronization.
//!
//! Event *counts* are deterministic for a fixed workload and seed;
//! latency summaries and queue-depth gauges are wall-clock/scheduling
//! artifacts. [`MetricsSnapshot::deterministic_eq`] compares exactly the
//! reproducible part, which is what the observability experiment asserts.

#![deny(missing_docs)]

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// One stage of the analyzer pipeline, in stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Per-message fast path on the receiver thread: byte scan, latency
    /// pairing, window push.
    Ingest,
    /// Receiver-side per-frame sequence restoration (dup discard, reorder
    /// parking, gap inference). With the batched transport this stage is
    /// *timed* once per [`FrameBatch`](../gretel_netcap/struct.FrameBatch.html)
    /// drained from the channel but *counted* per decoded frame — the
    /// canonical user of the [`count`](PipelineMetrics::count) /
    /// [`observe`](PipelineMetrics::observe) split: `stage_events` stays
    /// a per-item meter while the latency histogram reflects the real
    /// unit of work.
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
    /// Checkpoint encode + journal append (recoverable service only).
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

    /// Stable lower-case name (used as the Prometheus `stage` label and
    /// the JSON snapshot key).
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

/// Named scalar meters: capture-plane accounting, queue depth, checkpoint
/// cadence and store volume. Everything except the explicit gauges is
/// a monotone counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Meter {
    /// Frames the capture agents offered to the transport.
    CaptureFrames,
    /// Frames discarded by capture-plane drop impairment.
    CaptureDropped,
    /// Extra frame copies injected by duplication impairment.
    CaptureDuplicated,
    /// Frames delivered out of their original position.
    CaptureReordered,
    /// Frames discarded inside an agent stall window.
    CaptureStalled,
    /// Sequence gaps the receiver inferred.
    CaptureGaps,
    /// Frames inferred lost across those gaps.
    CaptureLost,
    /// Duplicate frames the receiver discarded on arrival.
    CaptureDupDiscarded,
    /// High-water mark of the snapshot-job queue (gauge: scheduling
    /// dependent, excluded from deterministic comparison).
    JobQueueDepthMax,
    /// Checkpoint records appended to the journal.
    CheckpointsWritten,
    /// Total checkpoint payload bytes journaled.
    CheckpointBytes,
    /// Total payload bytes appended to the durable state store (all
    /// record kinds: checkpoints, released diagnoses, library snapshots).
    StoreBytes,
    /// Fingerprint-library snapshots adopted by a live hot-reload.
    LibraryReloads,
}

impl Meter {
    /// Every meter.
    pub const ALL: [Meter; 13] = [
        Meter::CaptureFrames,
        Meter::CaptureDropped,
        Meter::CaptureDuplicated,
        Meter::CaptureReordered,
        Meter::CaptureStalled,
        Meter::CaptureGaps,
        Meter::CaptureLost,
        Meter::CaptureDupDiscarded,
        Meter::JobQueueDepthMax,
        Meter::CheckpointsWritten,
        Meter::CheckpointBytes,
        Meter::StoreBytes,
        Meter::LibraryReloads,
    ];

    /// Number of meters.
    pub const COUNT: usize = Meter::ALL.len();

    /// Stable snake_case name (Prometheus metric suffix / JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Meter::CaptureFrames => "capture_frames",
            Meter::CaptureDropped => "capture_dropped",
            Meter::CaptureDuplicated => "capture_duplicated",
            Meter::CaptureReordered => "capture_reordered",
            Meter::CaptureStalled => "capture_stalled",
            Meter::CaptureGaps => "capture_gaps",
            Meter::CaptureLost => "capture_lost",
            Meter::CaptureDupDiscarded => "capture_dup_discarded",
            Meter::JobQueueDepthMax => "job_queue_depth_max",
            Meter::CheckpointsWritten => "checkpoints_written",
            Meter::CheckpointBytes => "checkpoint_bytes",
            Meter::StoreBytes => "store_bytes",
            Meter::LibraryReloads => "library_reloads",
        }
    }

    /// Gauges record a high-water mark instead of accumulating; their
    /// value depends on thread scheduling and is excluded from
    /// [`MetricsSnapshot::deterministic_eq`].
    pub fn is_gauge(self) -> bool {
        matches!(self, Meter::JobQueueDepthMax)
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

/// A lock-free monotone counter (or high-water gauge via
/// [`Counter::record_max`]).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Raise the stored high-water mark to at least `v` (relaxed).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0; bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, so 64 value buckets cover all of
/// `u64` and every bucket's inclusive upper edge is `2^i − 1`.
const BUCKETS: usize = 65;

/// Lock-free log2-bucketed histogram for latency samples (microseconds by
/// convention in this crate). Recording is three relaxed atomic ops
/// (bucket, sum, max); summarizing scans 65 buckets.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Cumulative count of samples `≤ 2^i − 1` for each bucket index, as
    /// the Prometheus exposition needs it, plus the total.
    fn cumulative(&self) -> ([u64; BUCKETS], u64) {
        let mut cum = [0u64; BUCKETS];
        let mut total = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            total += b.load(Relaxed);
            cum[i] = total;
        }
        (cum, total)
    }

    /// The value at quantile `q` (0..=1), estimated as the inclusive
    /// upper edge of the bucket containing it, clamped to the recorded
    /// maximum. 0 for an empty histogram.
    fn quantile(&self, cum: &[u64; BUCKETS], count: u64, q: f64) -> u64 {
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let bucket = cum.iter().position(|&c| c >= rank).unwrap_or(BUCKETS - 1);
        let edge = if bucket == 0 {
            0
        } else {
            (1u64 << bucket.min(63)) - 1
        };
        edge.min(self.max.load(Relaxed))
    }

    /// Fold another histogram's samples into this one: buckets and sums
    /// add, the maximum is a max. Percentiles cannot be merged from
    /// *summaries*, which is why cross-shard aggregation merges at the
    /// bucket level and only then summarizes.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Relaxed), Relaxed);
        }
        self.sum.fetch_add(other.sum.load(Relaxed), Relaxed);
        self.max.fetch_max(other.max.load(Relaxed), Relaxed);
    }

    /// Summarize: count, sum, max and the p50/p95/p99 upper-edge
    /// estimates.
    pub fn summary(&self) -> LatencySummary {
        let (cum, count) = self.cumulative();
        LatencySummary {
            count,
            sum_us: self.sum.load(Relaxed),
            max_us: self.max.load(Relaxed),
            p50_us: self.quantile(&cum, count, 0.50),
            p95_us: self.quantile(&cum, count, 0.95),
            p99_us: self.quantile(&cum, count, 0.99),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.summary();
        write!(
            f,
            "Histogram {{ count: {}, p50: {}µs, p95: {}µs, p99: {}µs, max: {}µs }}",
            s.count, s.p50_us, s.p95_us, s.p99_us, s.max_us
        )
    }
}

/// Percentile summary of one [`Histogram`]. `count` is deterministic for
/// a fixed workload; the time-valued fields are wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (µs).
    pub sum_us: u64,
    /// Largest sample (µs).
    pub max_us: u64,
    /// Median, as the containing bucket's upper edge (µs).
    pub p50_us: u64,
    /// 95th percentile upper edge (µs).
    pub p95_us: u64,
    /// 99th percentile upper edge (µs).
    pub p99_us: u64,
}

/// The shared registry: per-stage event counters and latency histograms
/// plus the named [`Meter`]s. Construct with [`PipelineMetrics::enabled`]
/// or [`PipelineMetrics::disabled`]; a disabled registry makes every
/// recording call a no-op behind one branch, so the instrumented pipeline
/// with metrics off is byte-identical (and near-free) compared to an
/// uninstrumented one.
pub struct PipelineMetrics {
    enabled: bool,
    stage_events: [Counter; Stage::COUNT],
    stage_latency: [Histogram; Stage::COUNT],
    meters: [Counter; Meter::COUNT],
}

impl PipelineMetrics {
    fn with_enabled(enabled: bool) -> PipelineMetrics {
        PipelineMetrics {
            enabled,
            stage_events: std::array::from_fn(|_| Counter::new()),
            stage_latency: std::array::from_fn(|_| Histogram::new()),
            meters: std::array::from_fn(|_| Counter::new()),
        }
    }

    /// A live registry.
    pub fn enabled() -> PipelineMetrics {
        Self::with_enabled(true)
    }

    /// A no-op registry: recording calls return after a bool check.
    pub fn disabled() -> PipelineMetrics {
        Self::with_enabled(false)
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Count `n` events at `stage` — one relaxed atomic add when enabled.
    #[inline]
    pub fn count(&self, stage: Stage, n: u64) {
        if self.enabled {
            self.stage_events[stage.idx()].add(n);
        }
    }

    /// Record one latency sample at `stage`. Purely a histogram update:
    /// the event counter is fed only by [`PipelineMetrics::count`], so a
    /// stage timed once per *batch* can still count one event per *item*
    /// without double-booking.
    #[inline]
    pub fn observe(&self, stage: Stage, latency_us: u64) {
        if self.enabled {
            self.stage_latency[stage.idx()].record(latency_us);
        }
    }

    /// Add `n` to a meter.
    #[inline]
    pub fn add(&self, meter: Meter, n: u64) {
        if self.enabled && n > 0 {
            self.meters[meter.idx()].add(n);
        }
    }

    /// Raise a gauge meter's high-water mark to at least `v`.
    #[inline]
    pub fn record_max(&self, meter: Meter, v: u64) {
        if self.enabled {
            self.meters[meter.idx()].record_max(v);
        }
    }

    /// Events counted at `stage` so far.
    pub fn stage_events(&self, stage: Stage) -> u64 {
        self.stage_events[stage.idx()].get()
    }

    /// Latency summary for `stage` so far.
    pub fn stage_latency(&self, stage: Stage) -> LatencySummary {
        self.stage_latency[stage.idx()].summary()
    }

    /// Current value of a meter.
    pub fn meter(&self, meter: Meter) -> u64 {
        self.meters[meter.idx()].get()
    }

    /// Fold another registry's recordings into this one (the cross-shard
    /// aggregation of DESIGN.md §15: each pipeline shard owns a private
    /// registry, and the driver merges them into one fleet view).
    ///
    /// Counters and histogram buckets add; high-water gauges take the
    /// max across shards (the aggregate "deepest queue anywhere"). The
    /// merge is bucket-level, so aggregated percentile summaries are as
    /// faithful as if one registry had recorded every sample. Disabled
    /// registries hold only zeros, so merging one is a no-op; the
    /// *target's* enabled flag is left untouched.
    pub fn merge_from(&self, other: &PipelineMetrics) {
        for (mine, theirs) in self.stage_events.iter().zip(&other.stage_events) {
            mine.add(theirs.get());
        }
        for (mine, theirs) in self.stage_latency.iter().zip(&other.stage_latency) {
            mine.merge_from(theirs);
        }
        for (m, meter) in self.meters.iter().zip(Meter::ALL) {
            let v = other.meter(meter);
            if meter.is_gauge() {
                m.record_max(v);
            } else {
                m.add(v);
            }
        }
    }

    /// A point-in-time copy of every counter, histogram summary and
    /// meter, ready for JSON export.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            enabled: self.enabled,
            stages: Stage::ALL
                .iter()
                .map(|&s| StageSnapshot {
                    stage: s.name().to_string(),
                    events: self.stage_events(s),
                    latency: self.stage_latency(s),
                })
                .collect(),
            meters: Meter::ALL
                .iter()
                .map(|&m| MeterSnapshot {
                    name: m.name().to_string(),
                    value: self.meter(m),
                    gauge: m.is_gauge(),
                })
                .collect(),
        }
    }

    /// Prometheus-style text exposition of the whole registry:
    /// `gretel_stage_events_total` / `gretel_stage_latency_us` (a
    /// classic cumulative-`le` histogram per stage) and one
    /// `gretel_<meter>` sample per [`Meter`]. Parse it back with
    /// [`parse_prometheus_text`].
    pub fn prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        out.push_str("# HELP gretel_stage_events_total Events processed per pipeline stage\n");
        out.push_str("# TYPE gretel_stage_events_total counter\n");
        for &s in &Stage::ALL {
            let _ = writeln!(
                out,
                "gretel_stage_events_total{{stage=\"{}\"}} {}",
                s.name(),
                self.stage_events(s)
            );
        }
        out.push_str("# HELP gretel_stage_latency_us Per-stage latency in microseconds\n");
        out.push_str("# TYPE gretel_stage_latency_us histogram\n");
        for &s in &Stage::ALL {
            let h = &self.stage_latency[s.idx()];
            let (cum, total) = h.cumulative();
            // Emit cumulative buckets up to the highest non-empty one;
            // everything above it repeats the total, which `+Inf` covers.
            let top = h
                .buckets
                .iter()
                .rposition(|b| b.load(Relaxed) > 0)
                .unwrap_or(0);
            for (i, &c) in cum.iter().enumerate().take(top + 1) {
                let le = if i == 0 { 0 } else { (1u64 << i.min(63)) - 1 };
                let _ = writeln!(
                    out,
                    "gretel_stage_latency_us_bucket{{stage=\"{}\",le=\"{le}\"}} {c}",
                    s.name()
                );
            }
            let _ = writeln!(
                out,
                "gretel_stage_latency_us_bucket{{stage=\"{}\",le=\"+Inf\"}} {total}",
                s.name()
            );
            let _ = writeln!(
                out,
                "gretel_stage_latency_us_sum{{stage=\"{}\"}} {}",
                s.name(),
                h.sum.load(Relaxed)
            );
            let _ = writeln!(
                out,
                "gretel_stage_latency_us_count{{stage=\"{}\"}} {total}",
                s.name()
            );
        }
        for &m in &Meter::ALL {
            let kind = if m.is_gauge() { "gauge" } else { "counter" };
            let _ = writeln!(out, "# TYPE gretel_{} {kind}", m.name());
            let _ = writeln!(out, "gretel_{} {}", m.name(), self.meter(m));
        }
        out
    }
}

impl std::fmt::Debug for PipelineMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PipelineMetrics {{ enabled: {} }}", self.enabled)
    }
}

/// A timer for one stage execution. Started via [`StageTimer::start`]
/// against an optional registry: with `None` (or a disabled registry) no
/// clock is read and [`StageTimer::finish`] is free.
#[must_use = "a StageTimer records nothing unless finished"]
pub struct StageTimer<'a> {
    target: Option<(&'a PipelineMetrics, Stage)>,
    t0: Option<Instant>,
}

impl<'a> StageTimer<'a> {
    /// Start timing `stage` against `metrics` (no-op when `None` or
    /// disabled).
    #[inline]
    pub fn start(metrics: Option<&'a PipelineMetrics>, stage: Stage) -> StageTimer<'a> {
        match metrics {
            Some(m) if m.enabled => StageTimer {
                target: Some((m, stage)),
                t0: Some(Instant::now()),
            },
            _ => StageTimer {
                target: None,
                t0: None,
            },
        }
    }

    /// Stop the clock and record one latency sample (events are counted
    /// separately via [`PipelineMetrics::count`]).
    #[inline]
    pub fn finish(self) {
        if let (Some((m, stage)), Some(t0)) = (self.target, self.t0) {
            m.observe(stage, t0.elapsed().as_micros() as u64);
        }
    }
}

/// JSON-serializable snapshot of a [`PipelineMetrics`] registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Whether the registry was recording.
    pub enabled: bool,
    /// Per-stage events + latency summaries, in pipeline order.
    pub stages: Vec<StageSnapshot>,
    /// Every named meter.
    pub meters: Vec<MeterSnapshot>,
}

/// One stage's counters inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// [`Stage::name`].
    pub stage: String,
    /// Events counted.
    pub events: u64,
    /// Latency summary (wall-clock valued; `count` is deterministic).
    pub latency: LatencySummary,
}

/// One meter's value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeterSnapshot {
    /// [`Meter::name`].
    pub name: String,
    /// Recorded value.
    pub value: u64,
    /// Whether this is a high-water gauge (scheduling dependent).
    pub gauge: bool,
}

impl MetricsSnapshot {
    /// Compare only the fields that are deterministic for a fixed
    /// workload and seed: stage names and event counts, latency *sample
    /// counts* (but no time values) and every non-gauge meter. Two runs
    /// of the same seeded pipeline must agree under this comparison even
    /// though their latency summaries and queue-depth gauges differ.
    pub fn deterministic_eq(&self, other: &MetricsSnapshot) -> bool {
        self.enabled == other.enabled
            && self.stages.len() == other.stages.len()
            && self.stages.iter().zip(&other.stages).all(|(a, b)| {
                a.stage == b.stage && a.events == b.events && a.latency.count == b.latency.count
            })
            && self.meters.len() == other.meters.len()
            && self.meters.iter().zip(&other.meters).all(|(a, b)| {
                a.name == b.name && a.gauge == b.gauge && (a.gauge || a.value == b.value)
            })
    }
}

/// One parsed sample line of a Prometheus text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name.
    pub name: String,
    /// Label pairs, in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf`-aware).
    pub value: f64,
}

/// Parse a Prometheus text exposition (the subset
/// [`PipelineMetrics::prometheus_text`] emits: `# HELP`/`# TYPE` comments
/// and `name{labels} value` samples). Returns every sample, or a
/// description of the first malformed line.
pub fn parse_prometheus_text(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator: {line:?}", ln + 1))?;
        let value = match value_part {
            "+Inf" => f64::INFINITY,
            v => v
                .parse::<f64>()
                .map_err(|_| format!("line {}: bad value {v:?}", ln + 1))?,
        };
        let (name, labels) = match name_part.split_once('{') {
            None => (name_part.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated labels: {line:?}", ln + 1))?;
                let mut labels = Vec::new();
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("line {}: bad label {pair:?}", ln + 1))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| format!("line {}: unquoted label value {v:?}", ln + 1))?;
                    labels.push((k.to_string(), v.to_string()));
                }
                (name.to_string(), labels)
            }
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name {name:?}", ln + 1));
        }
        out.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_and_meter_tables_are_consistent() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.idx(), i, "{}", s.name());
        }
        for (i, m) in Meter::ALL.iter().enumerate() {
            assert_eq!(m.idx(), i, "{}", m.name());
        }
        let mut names: Vec<&str> = Meter::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Meter::COUNT, "meter names must be unique");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);

        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum_us, 5050);
        assert_eq!(s.max_us, 100);
        // Ranks 50/95/99 land in buckets [32,64) and [64,128): upper
        // edges 63 and 127, the latter clamped to the recorded max.
        assert_eq!(s.p50_us, 63);
        assert_eq!(s.p95_us, 100);
        assert_eq!(s.p99_us, 100);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().summary();
        assert_eq!(
            s,
            LatencySummary {
                count: 0,
                sum_us: 0,
                max_us: 0,
                p50_us: 0,
                p95_us: 0,
                p99_us: 0
            }
        );
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let m = PipelineMetrics::disabled();
        m.count(Stage::Ingest, 5);
        m.observe(Stage::Detect, 123);
        m.add(Meter::CaptureFrames, 9);
        m.record_max(Meter::JobQueueDepthMax, 7);
        StageTimer::start(Some(&m), Stage::Rca).finish();
        assert!(!m.is_enabled());
        let snap = m.snapshot();
        assert!(snap
            .stages
            .iter()
            .all(|s| s.events == 0 && s.latency.count == 0));
        assert!(snap.meters.iter().all(|s| s.value == 0));
    }

    #[test]
    fn enabled_registry_counts() {
        let m = PipelineMetrics::enabled();
        m.count(Stage::Ingest, 3);
        m.observe(Stage::Ingest, 10);
        m.observe(Stage::Detect, 1000);
        m.add(Meter::CaptureGaps, 2);
        m.record_max(Meter::JobQueueDepthMax, 4);
        m.record_max(Meter::JobQueueDepthMax, 2);
        // observe() is histogram-only: events move only through count().
        assert_eq!(m.stage_events(Stage::Ingest), 3);
        assert_eq!(m.stage_latency(Stage::Ingest).count, 1);
        assert_eq!(m.stage_events(Stage::Detect), 0);
        assert_eq!(m.stage_latency(Stage::Detect).count, 1);
        assert_eq!(m.meter(Meter::CaptureGaps), 2);
        assert_eq!(m.meter(Meter::JobQueueDepthMax), 4);
        let t = StageTimer::start(Some(&m), Stage::Rca);
        t.finish();
        assert_eq!(m.stage_latency(Stage::Rca).count, 1);
        assert_eq!(m.stage_events(Stage::Rca), 0);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let m = PipelineMetrics::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        m.count(Stage::Ingest, 1);
                        m.observe(Stage::Detect, 7);
                    }
                });
            }
        });
        assert_eq!(m.stage_events(Stage::Ingest), 4000);
        assert_eq!(m.stage_latency(Stage::Detect).count, 4000);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let m = PipelineMetrics::enabled();
        m.observe(Stage::Ingest, 12);
        m.observe(Stage::Detect, 345);
        m.add(Meter::CaptureFrames, 99);
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
            a.observe(Stage::Detect, fast);
            b.observe(Stage::Detect, slow);
        }
        a.record_max(Meter::JobQueueDepthMax, 1);
        b.record_max(Meter::JobQueueDepthMax, 9);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_ne!(sa, sb, "full snapshots differ on wall-clock fields");
        assert!(sa.deterministic_eq(&sb), "deterministic view agrees");
        b.add(Meter::CaptureLost, 1);
        assert!(
            !sa.deterministic_eq(&b.snapshot()),
            "counter divergence is detected"
        );
        b2_events_diverge();
    }

    fn b2_events_diverge() {
        let a = PipelineMetrics::enabled();
        let b = PipelineMetrics::enabled();
        a.count(Stage::Commit, 1);
        assert!(!a.snapshot().deterministic_eq(&b.snapshot()));
    }

    #[test]
    fn merged_registries_equal_one_registry_recording_everything() {
        // Record a workload split across two "shard" registries and the
        // same workload on one reference registry: bucket-level merging
        // must make the aggregate snapshot identical (modulo gauges, which
        // take the max).
        let whole = PipelineMetrics::enabled();
        let a = PipelineMetrics::enabled();
        let b = PipelineMetrics::enabled();
        for (i, shard) in [(0u64, &a), (1, &b), (2, &a), (3, &b), (4, &a)] {
            for m in [shard, &whole] {
                m.count(Stage::Ingest, 1);
                m.observe(Stage::Detect, 10 * i + 1);
                m.add(Meter::CaptureFrames, 2);
            }
        }
        whole.record_max(Meter::JobQueueDepthMax, 9);
        a.record_max(Meter::JobQueueDepthMax, 9);
        b.record_max(Meter::JobQueueDepthMax, 3);

        let agg = PipelineMetrics::enabled();
        agg.merge_from(&a);
        agg.merge_from(&b);
        assert_eq!(agg.snapshot(), whole.snapshot());
        // The percentile summary comes from merged buckets, not averaged
        // summaries.
        assert_eq!(
            agg.stage_latency(Stage::Detect),
            whole.stage_latency(Stage::Detect)
        );
    }

    #[test]
    fn merging_a_disabled_registry_adds_nothing() {
        let agg = PipelineMetrics::enabled();
        agg.count(Stage::Commit, 2);
        let silent = PipelineMetrics::disabled();
        silent.count(Stage::Commit, 50);
        agg.merge_from(&silent);
        assert_eq!(agg.stage_events(Stage::Commit), 2);
        assert!(agg.is_enabled());
    }

    #[test]
    fn prometheus_text_parses_and_matches_registry() {
        let m = PipelineMetrics::enabled();
        m.count(Stage::Ingest, 2);
        m.observe(Stage::Ingest, 3);
        m.observe(Stage::Ingest, 300);
        m.add(Meter::CaptureFrames, 7);
        m.record_max(Meter::JobQueueDepthMax, 2);
        let text = m.prometheus_text();
        let samples = parse_prometheus_text(&text).expect("exposition parses");

        let find = |name: &str, label: Option<(&str, &str)>| -> f64 {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && label
                            .is_none_or(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
                })
                .unwrap_or_else(|| panic!("sample {name} {label:?}"))
                .value
        };
        assert_eq!(
            find("gretel_stage_events_total", Some(("stage", "ingest"))),
            2.0
        );
        assert_eq!(
            find("gretel_stage_latency_us_count", Some(("stage", "ingest"))),
            2.0
        );
        assert_eq!(
            find("gretel_stage_latency_us_sum", Some(("stage", "ingest"))),
            303.0
        );
        assert_eq!(find("gretel_capture_frames", None), 7.0);
        assert_eq!(find("gretel_job_queue_depth_max", None), 2.0);

        // Histogram buckets are cumulative and end in +Inf == count.
        let inf = samples
            .iter()
            .find(|s| {
                s.name == "gretel_stage_latency_us_bucket"
                    && s.labels.contains(&("stage".into(), "ingest".into()))
                    && s.labels.contains(&("le".into(), "+Inf".into()))
            })
            .expect("+Inf bucket");
        assert_eq!(inf.value, 2.0);
        let mut last = 0.0;
        for s in samples.iter().filter(|s| {
            s.name == "gretel_stage_latency_us_bucket"
                && s.labels.contains(&("stage".into(), "ingest".into()))
        }) {
            assert!(s.value >= last, "buckets are cumulative");
            last = s.value;
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus_text("metric_without_value").is_err());
        assert!(parse_prometheus_text("name{unterminated 1").is_err());
        assert!(
            parse_prometheus_text("name{k=v} 1").is_err(),
            "unquoted label value"
        );
        assert!(parse_prometheus_text("bad name 1").is_err());
        assert!(parse_prometheus_text("ok_name 1.5\n# comment\n").is_ok());
    }
}
