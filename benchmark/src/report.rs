//! What a run writes down: the per-workload record, the results file, the
//! one-line result an external driver reads, and `BENCHMARK.json` itself,
//! which fixes the metric names, units, directions and bounds.

use crate::host::Host;
use crate::stats::Summary;
use crate::trace::Tracer;
use serde::{Deserialize, Serialize, Value};

/// `BENCHMARK.json`, compiled in: the results a binary prints are checked
/// against the contract it was built beside.
const CONTRACT_JSON: &str = include_str!("../../BENCHMARK.json");

/// A workload as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Deserialize)]
pub struct ContractWorkload {
    /// Normative name.
    pub name: String,
    /// One line on why it exists.
    pub why: String,
}

/// A metric as `BENCHMARK.json` lists it. Per-layer metrics have no bound.
#[derive(Debug, Clone, Deserialize)]
pub struct ContractMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// Share of the baseline median the metric may worsen by.
    pub bound: Option<f64>,
}

/// The fields of `BENCHMARK.json` this program reads.
#[derive(Debug, Clone, Deserialize)]
pub struct Contract {
    /// Seconds one run measures for.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<ContractWorkload>,
    /// Metrics reported by the untraced binary.
    pub end_to_end: Vec<ContractMetric>,
    /// Metrics reported by the traced binary.
    pub per_layer: Vec<ContractMetric>,
}

impl Contract {
    /// The compiled-in contract.
    pub fn load() -> Contract {
        serde_json::from_str(CONTRACT_JSON).expect("BENCHMARK.json parses")
    }
}

/// End-to-end metrics a run reports beyond the contract's list. Both are
/// exact counts, lower is better. The contract cannot carry them: its
/// metrics must never read 0, and these read 0 on a healthy run
/// (`fail_share`) or on every workload without a store. `fail_share` reaches
/// an external driver as `failed` / `attempted`; `store_bytes_per_msg` is
/// listed among the per-layer metrics.
pub const UNLISTED_END_TO_END: [&str; 2] = ["store_bytes_per_msg", "fail_share"];

/// One measured metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
    /// The reported value (a median where there are several samples).
    pub value: f64,
    /// First quartile of the samples (the value itself for one sample).
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// Samples behind the value.
    pub n: u64,
}

impl Metric {
    /// A metric measured once, or exact.
    pub fn single(name: &str, unit: &str, value: f64) -> Metric {
        Metric::of(name, unit, Summary::single(value))
    }

    /// A timing metric named after its span: `<span>_ns_per_msg`,
    /// `<span>_us_per_mb`, `<span>_us` or `<span>_ms` is the total time of
    /// the spans called `<span>`, in that unit, over `divisor` (messages,
    /// megabytes or repetitions).
    pub fn timing(tracer: &Tracer, name: &str, divisor: f64) -> Metric {
        const SUFFIXES: [(&str, &str, f64); 4] = [
            ("_ns_per_msg", "ns", 1.0),
            ("_us_per_mb", "us/MB", 1e3),
            ("_us", "us", 1e3),
            ("_ms", "ms", 1e6),
        ];
        let (span, unit, ns_per_unit) = SUFFIXES
            .iter()
            .find_map(|(suffix, unit, scale)| Some((name.strip_suffix(suffix)?, *unit, *scale)))
            .expect("a timing metric's name ends in its unit");
        let value = tracer.total_ns(span) / ns_per_unit / divisor;
        Metric::single(name, unit, if value.is_finite() { value } else { 0.0 })
    }

    /// A metric with its spread.
    pub fn of(name: &str, unit: &str, s: Summary) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value: s.median,
            q1: s.q1,
            q3: s.q3,
            n: s.n,
        }
    }
}

/// Everything one child process measured for one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadRecord {
    /// Workload name.
    pub workload: String,
    /// Whether the traced binary produced it.
    pub traced: bool,
    /// Messages one pass processes.
    pub messages: u64,
    /// Untimed warm-up passes.
    pub warmup_passes: u64,
    /// Timed passes whose output passed the reference check.
    pub timed_passes: u64,
    /// Reference diagnoses × timed passes.
    pub attempted: u64,
    /// Diagnoses that failed the reference check.
    pub failed: u64,
    /// Diagnoses in the reference output.
    pub reference_diagnoses: u64,
    /// FNV-1a digest of the reference output (informational).
    pub diag_digest: String,
    /// Wall time of a timed pass, ms.
    pub pass_ms: Summary,
    /// Highest percentile of the pass times with ten samples beyond it
    /// (0 when there are too few passes for any).
    pub pass_tail_percentile: f64,
    /// Pass time at that percentile, ms.
    pub pass_tail_ms: f64,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl WorkloadRecord {
    /// Whether every timed pass reproduced the reference.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.timed_passes > 0
    }

    /// A one-pass untraced `steady` record holding `metrics`.
    #[cfg(test)]
    pub(crate) fn fixture(metrics: Vec<Metric>) -> WorkloadRecord {
        WorkloadRecord {
            workload: "steady".into(),
            traced: false,
            messages: 1,
            warmup_passes: 0,
            timed_passes: 1,
            attempted: 1,
            failed: 0,
            reference_diagnoses: 1,
            diag_digest: String::new(),
            pass_ms: Summary::single(1.0),
            pass_tail_percentile: 0.0,
            pass_tail_ms: 0.0,
            metrics,
        }
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The last line of a child's output, for an external driver: exactly
    /// `correct`, `attempted`, `failed` and the contract's `metrics`.
    pub fn driver_line(&self, contract: &Contract) -> String {
        let listed = if self.traced {
            &contract.per_layer
        } else {
            &contract.end_to_end
        };
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .filter(|m| listed.iter().any(|l| l.name == m.name))
            .map(|m| {
                let body = vec![
                    ("value".to_string(), Value::F64(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.clone())),
                ];
                (m.name.clone(), Value::Object(body))
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted.max(1))),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&Json(line)).expect("a value tree serialises")
    }
}

/// A raw JSON value as a serialisable type.
struct Json(Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// A results file: `run-<seed>.json` (end-to-end) or `layers-<seed>.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunFile {
    /// Format tag.
    pub schema: String,
    /// Whether the traced binary wrote it.
    pub traced: bool,
    /// Seed of the inputs.
    pub seed: u64,
    /// Seconds of timed passes per workload.
    pub seconds: f64,
    /// Where it was measured.
    pub host: Host,
    /// One record per workload.
    pub workloads: Vec<WorkloadRecord>,
}

/// Format tag of [`RunFile`].
pub const SCHEMA: &str = "gretel-benchmark/1";

/// Marks the output line of a child process that carries its
/// [`WorkloadRecord`] as JSON.
pub const RECORD_PREFIX: &str = "record ";

/// Problems with the metric names `records` emitted, against the contract:
/// a listed name not emitted, an emitted name not listed, a unit that
/// differs, a name outside `[A-Za-z0-9_.-]+`. Empty when they agree.
pub fn contract_violations(contract: &Contract, records: &[WorkloadRecord]) -> Vec<String> {
    let mut problems = Vec::new();
    let well_formed = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    for m in contract.end_to_end.iter().chain(&contract.per_layer) {
        if !well_formed(&m.name) {
            problems.push(format!(
                "BENCHMARK.json: malformed metric name {:?}",
                m.name
            ));
        }
    }
    for r in records {
        let listed = if r.traced {
            &contract.per_layer
        } else {
            &contract.end_to_end
        };
        for l in listed {
            match r.metric(&l.name) {
                None => problems.push(format!("{}: {} is not emitted", r.workload, l.name)),
                Some(m) if m.unit != l.unit => problems.push(format!(
                    "{}: {} has unit {:?}, BENCHMARK.json says {:?}",
                    r.workload, l.name, m.unit, l.unit
                )),
                Some(_) => {}
            }
        }
        for m in &r.metrics {
            let known = listed.iter().any(|l| l.name == m.name)
                || (!r.traced && UNLISTED_END_TO_END.contains(&m.name.as_str()));
            if !known {
                problems.push(format!(
                    "{}: {} is not in BENCHMARK.json",
                    r.workload, m.name
                ));
            }
            if !well_formed(&m.name) {
                problems.push(format!(
                    "{}: malformed metric name {:?}",
                    r.workload, m.name
                ));
            }
        }
    }
    for w in &contract.workloads {
        if !records.iter().any(|r| r.workload == w.name) {
            problems.push(format!("workload {} produced no record", w.name));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_metrics_are_named_after_their_span_and_unit() {
        let mut tracer = Tracer::new(true);
        tracer.span("layer.op", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = tracer.total_ns("layer.op");
        let per_msg = Metric::timing(&tracer, "layer.op_ns_per_msg", 4.0);
        assert_eq!((per_msg.unit.as_str(), per_msg.value), ("ns", total / 4.0));
        let us = Metric::timing(&tracer, "layer.op_us", 1.0);
        assert_eq!((us.unit.as_str(), us.value), ("us", total / 1e3));
        let per_mb = Metric::timing(&tracer, "layer.op_us_per_mb", 2.0);
        assert_eq!(
            (per_mb.unit.as_str(), per_mb.value),
            ("us/MB", total / 1e3 / 2.0)
        );
        // A span that never ran, or a zero divisor, reads 0 rather than NaN.
        assert_eq!(Metric::timing(&tracer, "absent_ms", 0.0).value, 0.0);
    }

    #[test]
    fn the_contract_lists_the_seven_workloads_and_setup_s() {
        let contract = Contract::load();
        let names: Vec<&str> = contract.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = crate::inputs::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
        assert!(contract
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn violations_name_missing_unlisted_and_mislabelled_metrics() {
        let contract = Contract::load();
        let mut metrics: Vec<Metric> = contract
            .end_to_end
            .iter()
            .map(|m| Metric::single(&m.name, &m.unit, 1.0))
            .collect();
        let record = WorkloadRecord::fixture;
        let about_steady = |problems: Vec<String>| -> Vec<String> {
            problems
                .into_iter()
                .filter(|p| p.starts_with("steady:"))
                .collect()
        };
        metrics.push(Metric::single("fail_share", "ratio", 0.0));
        assert!(
            about_steady(contract_violations(&contract, &[record(metrics.clone())])).is_empty()
        );

        metrics[0].unit = "fortnights".into();
        metrics.remove(1);
        metrics.push(Metric::single("made up", "x", 1.0));
        let problems = about_steady(contract_violations(&contract, &[record(metrics)]));
        assert_eq!(problems.len(), 4, "{problems:?}"); // unit, missing, unlisted, malformed
    }
}
