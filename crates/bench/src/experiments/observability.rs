//! Self-observability (DESIGN.md §12): watching the pipeline must never
//! change what it reports. What watching *costs* is `benchmark/`'s
//! `trace.overhead_share`.

use crate::workload::{operational_runs, SuiteRun};
use crate::{Artifact, Ctx, Workbench};
use gretel_core::{Diagnosis, ServiceConfig};
use gretel_obs::{MetricsSnapshot, PipelineMetrics, Stage};
use serde::Serialize;
use std::sync::Arc;

/// One pass of the service over a scenario's traffic; returns the
/// diagnoses and the messages merged.
fn run_arm(
    wb: &Workbench,
    run: &SuiteRun,
    metrics: Option<Arc<PipelineMetrics>>,
) -> (Vec<Diagnosis>, u64) {
    let cfg = ServiceConfig {
        metrics,
        ..ServiceConfig::default()
    };
    let (diagnoses, _, astats) = wb.serve(run.gcfg, &run.nodes, &run.exec.messages, &cfg);
    (diagnoses, astats.messages)
}

#[derive(Serialize)]
struct Row {
    scenario: String,
    messages: u64,
    diagnoses: usize,
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
}

/// Observability — each §7.2 operational case study through the sequenced
/// service with no registry at all (the pre-instrumentation path, the
/// oracle) and with one, twice. Gates: all arms emit identical diagnosis
/// streams (metrics are observation only, never control flow); every
/// merged message is counted at the ingest stage; the two registry runs
/// agree under `MetricsSnapshot::deterministic_eq`; the
/// JSON snapshot survives a serde round trip.
pub(crate) fn observability(ctx: &Ctx) -> Vec<Artifact> {
    let wb = &ctx.wb;
    let mut rows = Vec::new();
    let mut last_registry = None;
    for run in &operational_runs(wb, ctx.seed) {
        let (expected, messages) = run_arm(wb, run, None);
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

    let out = Output {
        seed: ctx.seed,
        all_identical: rows.iter().all(|r| r.enabled_identical),
        all_deterministic: rows.iter().all(|r| r.snapshots_deterministic),
        rows,
        json_roundtrip: back == snap,
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
    vec![Artifact::new("observability", &out)]
}
