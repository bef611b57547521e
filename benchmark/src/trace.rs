//! In-memory spans recorded from the benchmark's own code, around the calls
//! into each layer. Nothing inside the measured crates is instrumented.
//!
//! A span has a name, a start, an end, the span that was open when it
//! started (its parent) and the pass it belongs to. A layer's *self time* is
//! its span's duration minus the part its child spans cover.

use crate::stats;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the span that wraps one whole pass.
pub const PASS: &str = "pass";
/// How many raw spans a trace file keeps (aggregates cover all of them).
const RAW_SPANS_KEPT: usize = 10_000;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// Layer name, e.g. `core.analyzer.ingest`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Pass the span belongs to (0 before the first pass).
    pub pass: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Per-name aggregate over all spans of that name.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Aggregate {
    /// Span name.
    pub name: String,
    /// Spans recorded.
    pub count: u64,
    /// Total duration, ns.
    pub sum_ns: u64,
    /// Total self time, ns.
    pub self_ns: u64,
    /// Median duration, ns.
    pub p50_ns: f64,
    /// 99th-percentile duration, ns.
    pub p99_ns: f64,
}

/// What a trace file holds.
#[derive(Debug, Serialize)]
pub struct TraceFile {
    /// Workload traced.
    pub workload: String,
    /// Seed of the inputs.
    pub seed: u64,
    /// Every span name with its aggregate.
    pub aggregates: Vec<Aggregate>,
    /// The first spans recorded, raw.
    pub spans: Vec<Span>,
}

/// Records spans in memory; nothing is written until the run ends. A
/// tracer that is off records nothing and never reads the clock, so an
/// untraced pass runs the same code without the measurement.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
}

impl Tracer {
    /// An empty tracer whose clock starts now; `on` decides whether it
    /// records.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new pass: later spans carry the next pass id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Open a span under the currently open one (nothing when off).
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close `id`, and with it any span still open inside it (a panic
    /// unwound past their exits).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Total duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        total as f64
    }

    /// The trace file for this tracer's spans.
    pub fn to_file(&self, workload: &str, seed: u64) -> TraceFile {
        TraceFile {
            workload: workload.to_string(),
            seed,
            aggregates: aggregates(&self.spans),
            spans: self.spans.iter().take(RAW_SPANS_KEPT).cloned().collect(),
        }
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &mut own[parent as usize];
            *p = p.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Per-name aggregates, sorted by name.
pub fn aggregates(spans: &[Span]) -> Vec<Aggregate> {
    let own = self_times_ns(spans);
    let mut by_name: BTreeMap<&str, (Vec<f64>, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(&own) {
        let entry = by_name.entry(span.name).or_default();
        entry.0.push(span.duration_ns() as f64);
        entry.1 += self_ns;
    }
    by_name
        .into_iter()
        .map(|(name, (durations, self_ns))| Aggregate {
            name: name.to_string(),
            count: durations.len() as u64,
            sum_ns: durations.iter().sum::<f64>() as u64,
            self_ns,
            p50_ns: stats::percentile(&durations, 50.0),
            p99_ns: stats::percentile(&durations, 99.0),
        })
        .collect()
}

/// Share of the passes' wall time that lies inside some layer's span: one
/// minus the [`PASS`] spans' own self time over their duration. Whatever is
/// left is time no layer accounts for.
pub fn accounted_share(spans: &[Span]) -> f64 {
    let own = self_times_ns(spans);
    let (mut wall, mut unaccounted) = (0u64, 0u64);
    for (span, self_ns) in spans.iter().zip(&own) {
        if span.name == PASS {
            wall += span.duration_ns();
            unaccounted += self_ns;
        }
    }
    if wall == 0 {
        0.0
    } else {
        1.0 - unaccounted as f64 / wall as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(PASS, 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)), // grandchild of the pass
            span("a", 60, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 10, 30]);
        // 80 of the pass's 100 ns lie inside layer spans.
        assert!((accounted_share(&spans) - 0.8).abs() < 1e-12);
        let a = aggregates(&spans)
            .into_iter()
            .find(|a| a.name == "a")
            .expect("a");
        assert_eq!((a.count, a.sum_ns, a.self_ns), (2, 80, 70));
    }

    #[test]
    fn tracer_nests_spans_and_tags_passes() {
        let mut t = Tracer::new(true);
        t.next_pass();
        t.span(PASS, || ());
        let outer = t.enter(PASS);
        let inner = t.enter("inner");
        t.exit(inner);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (None, None, Some(1))
        );
        assert!(spans.iter().all(|s| s.pass == 1));
        assert!(spans[1].start_ns <= spans[2].start_ns && spans[2].end_ns <= spans[1].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("ignored", || 7), 7);
        assert!(off.spans().is_empty());
    }
}
