//! Self-observability (DESIGN.md §12): watching the pipeline must never
//! change what it reports. What watching *costs* is `benchmark/`'s
//! `trace.overhead_share`.

use crate::workload::{operational_runs, SuiteRun};
use crate::{Artifact, Ctx, Workbench};
use gretel_core::{self_watch_stage, Diagnosis, SelfWatch, ServiceConfig};
use gretel_netcap::CaptureImpairment;
use gretel_obs::{MetricsSnapshot, PipelineMetrics, Stage};
use gretel_telemetry::LevelShiftConfig;
use serde::Serialize;
use std::sync::Arc;

/// One pass of the sequenced service over a scenario's traffic; returns
/// the diagnoses and the messages merged.
fn run_arm(
    wb: &Workbench,
    run: &SuiteRun,
    metrics: Option<Arc<PipelineMetrics>>,
) -> (Vec<Diagnosis>, u64) {
    let cfg = ServiceConfig {
        impairment: Some(CaptureImpairment::none()),
        metrics,
        ..ServiceConfig::default()
    };
    let (diagnoses, _, astats) = wb.serve(run.gcfg, &run.nodes, &run.exec.messages, &cfg);
    (diagnoses, astats.messages)
}

/// Synthetic self-watch demo: train on steady detect-stage latencies, then
/// stall the stage 10× and report what the level-shift monitor raises.
fn self_watch_demo() -> (usize, Option<String>) {
    let metrics = PipelineMetrics::enabled();
    let mut watch = SelfWatch::new(LevelShiftConfig::default());
    let mut faults = Vec::new();
    for i in 0..200u64 {
        let stalled = i >= 100;
        metrics.observe(
            Stage::Detect,
            if stalled { 20_000 } else { 2_000 } + (i % 3),
        );
        metrics.observe(Stage::Commit, 50);
        faults.extend(watch.poll(&metrics, (i + 1) * 1_000));
        assert!(
            stalled || faults.is_empty(),
            "self-watch must not alarm on a steady baseline"
        );
    }
    let stage = faults
        .first()
        .and_then(|f| self_watch_stage(f.api))
        .map(|s| s.name().to_string());
    (faults.len(), stage)
}

#[derive(Serialize)]
struct Row {
    scenario: String,
    messages: u64,
    diagnoses: usize,
    disabled_identical: bool,
    enabled_identical: bool,
    snapshots_deterministic: bool,
    ingest_events: u64,
    detect_events: u64,
    commit_events: u64,
}

#[derive(Serialize)]
struct Output {
    seed: u64,
    rows: Vec<Row>,
    all_identical: bool,
    all_deterministic: bool,
    json_roundtrip: bool,
    self_watch_faults: usize,
    self_watch_stage: Option<String>,
}

/// Observability — each §7.2 operational case study through the sequenced
/// service with no registry at all (the pre-instrumentation path, the
/// oracle), a disabled registry (the feature-flag-off shape) and an
/// enabled one, twice. Gates: all arms emit identical diagnosis streams
/// (metrics are observation only, never control flow); a disabled registry
/// stays empty; every merged message is counted at the ingest stage; two
/// enabled runs agree under `MetricsSnapshot::deterministic_eq`; the
/// JSON snapshot survives a serde round trip; an injected 10× detect
/// stall fed through `SelfWatch` raises exactly one fault, on the detect
/// stage.
pub(crate) fn observability(ctx: &Ctx) -> Vec<Artifact> {
    let wb = &ctx.wb;
    let mut rows = Vec::new();
    let mut last_registry = None;
    for run in &operational_runs(wb, ctx.seed) {
        let (expected, messages) = run_arm(wb, run, None);

        let disabled = Arc::new(PipelineMetrics::disabled());
        let (diagnoses, _) = run_arm(wb, run, Some(disabled.clone()));
        let disabled_identical = diagnoses == expected;
        assert_eq!(
            disabled.stage_events(Stage::Ingest),
            0,
            "disabled registry must stay empty"
        );

        let enabled = [(); 2].map(|()| {
            let registry = Arc::new(PipelineMetrics::enabled());
            let (diagnoses, _) = run_arm(wb, run, Some(registry.clone()));
            (diagnoses == expected, registry)
        });
        let [(_, first), (_, registry)] = &enabled;
        assert_eq!(
            registry.stage_events(Stage::Ingest),
            messages,
            "every merged message must be counted at the ingest stage"
        );
        rows.push(Row {
            scenario: run.scenario.name.to_string(),
            messages,
            diagnoses: expected.len(),
            disabled_identical,
            enabled_identical: enabled.iter().all(|(identical, _)| *identical),
            snapshots_deterministic: first.snapshot().deterministic_eq(&registry.snapshot()),
            ingest_events: registry.stage_events(Stage::Ingest),
            detect_events: registry.stage_events(Stage::Detect),
            commit_events: registry.stage_events(Stage::Commit),
        });
        last_registry = Some(registry.clone());
    }

    // The export round trip, on the last scenario's enabled registry.
    let registry = last_registry.expect("suite is non-empty");
    let snap = registry.snapshot();
    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    let back: MetricsSnapshot = serde_json::from_str(&json).expect("snapshot deserializes");
    let (self_watch_faults, self_watch_stage) = self_watch_demo();

    let out = Output {
        seed: ctx.seed,
        all_identical: rows
            .iter()
            .all(|r| r.disabled_identical && r.enabled_identical),
        all_deterministic: rows.iter().all(|r| r.snapshots_deterministic),
        rows,
        json_roundtrip: back == snap,
        self_watch_faults,
        self_watch_stage,
    };
    assert!(
        out.all_identical,
        "metrics must never perturb the diagnosis stream"
    );
    assert!(
        out.all_deterministic,
        "enabled-run snapshots must agree modulo wall clock"
    );
    assert!(
        out.json_roundtrip,
        "JSON snapshot must survive a serde round trip"
    );
    assert_eq!(
        out.self_watch_faults, 1,
        "the injected stall must raise exactly one fault"
    );
    assert_eq!(
        out.self_watch_stage.as_deref(),
        Some("detect"),
        "the fault must map to detect"
    );
    vec![Artifact::new("observability", &out)]
}
