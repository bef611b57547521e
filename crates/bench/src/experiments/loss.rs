//! Capture loss, two ways, over the same [`fault_workload`]: deleted from
//! the log before analysis (`loss_ablation`, paper Limitation 1
//! quantified) and injected into the capture plane itself (`robustness`,
//! DESIGN.md §10).

use crate::workload::{fault_workload, operational_runs, score_faults, summarize};
use crate::{p_rate, Artifact, Ctx};
use gretel_core::{analyze_stream, Analyzer, ServiceConfig};
use gretel_model::NodeId;
use gretel_netcap::{degrade, CaptureImpairment, Degradation};
use serde::Serialize;

#[derive(Serialize)]
struct LossRow {
    drop_prob: f64,
    theta: f64,
    matched: f64,
    recall: f64,
    diagnosed: f64,
}

/// Capture-loss ablation — the monitoring path drops a fraction of the
/// captured messages (errors kept, so the fault is still seen) before the
/// analyzer reads them: θ, matched-set size and recall as loss rises from
/// 0 to 50 %.
pub(crate) fn loss_ablation(ctx: &Ctx) -> Vec<Artifact> {
    let wb = &ctx.wb;
    let load = fault_workload(wb, ctx.seed);
    let rows: Vec<LossRow> = [0.0f64, 0.05, 0.1, 0.2, 0.35, 0.5]
        .into_iter()
        .map(|drop_prob| {
            let degradation = Degradation {
                drop_prob,
                seed: ctx.seed ^ 0xD207,
            };
            let observed = degrade(&load.exec.messages, degradation, true);
            let cfg = wb.config_at(p_rate(&load.exec) * (1.0 - drop_prob));
            let mut analyzer = Analyzer::new(&wb.library, cfg);
            let diagnoses = analyze_stream(&mut analyzer, observed.iter());
            let s = summarize(&score_faults(wb, &diagnoses, &observed, &load.truth));
            LossRow {
                drop_prob,
                theta: s.theta,
                matched: s.matched,
                recall: s.recall,
                diagnosed: s.diagnosed,
            }
        })
        .collect();
    vec![Artifact::new("loss_ablation", &rows)]
}

/// Drop at `rate`, duplicate at half of it, reorder at `rate` within 4.
fn impaired(rate: f64, seed: u64) -> ServiceConfig {
    ServiceConfig {
        impairment: Some(CaptureImpairment {
            drop_prob: rate,
            dup_prob: rate / 2.0,
            reorder_prob: rate,
            reorder_span: 4,
            stall: None,
            seed: seed ^ 0x0b57,
        }),
        ..ServiceConfig::default()
    }
}

#[derive(Serialize)]
struct SweepRow {
    drop_prob: f64,
    dup_prob: f64,
    reorder_prob: f64,
    theta: f64,
    matched: f64,
    recall: f64,
    diagnosed: f64,
    localization: f64,
    degraded_frac: f64,
    capture_gaps: u64,
    lost_frames: u64,
    frames: u64,
}

#[derive(Serialize)]
struct ScenarioRow {
    scenario: String,
    drop_prob: f64,
    diagnosed: bool,
    degraded_diagnoses: usize,
    total_diagnoses: usize,
}

#[derive(Serialize)]
struct RobustnessOut {
    seed: u64,
    resequence_depth: usize,
    sweep: Vec<SweepRow>,
    scenarios: Vec<ScenarioRow>,
}

/// Capture-plane robustness — agents stamp per-agent sequence numbers, a
/// seeded [`CaptureImpairment`] drops / duplicates / reorders frames in
/// flight, the receiver resequences and reports gaps, and the analyzer
/// matches in degraded mode across them. Two sweeps: the fault workload
/// over rising impairment (θ, recall, localization, and how much of the
/// output is honestly tagged `Degraded`), and the §7.2 operational suite
/// re-run under impairment (is the fault still diagnosed at all?).
pub(crate) fn robustness(ctx: &Ctx) -> Vec<Artifact> {
    let wb = &ctx.wb;
    let load = fault_workload(wb, ctx.seed);
    let nodes: Vec<NodeId> = wb.deployment.nodes().iter().map(|n| n.id).collect();
    let sweep: Vec<SweepRow> = [0.0, 0.01, 0.02, 0.05, 0.1, 0.2]
        .into_iter()
        .map(|rate| {
            let gcfg = wb.config_at(p_rate(&load.exec) * (1.0 - rate));
            let (diagnoses, svc, astats) =
                wb.serve(gcfg, &nodes, &load.exec.messages, &impaired(rate, ctx.seed));
            let s = summarize(&score_faults(
                wb,
                &diagnoses,
                &load.exec.messages,
                &load.truth,
            ));
            let degraded = diagnoses
                .iter()
                .filter(|d| !d.confidence.is_exact())
                .count();
            SweepRow {
                drop_prob: rate,
                dup_prob: rate / 2.0,
                reorder_prob: rate,
                theta: s.theta,
                matched: s.matched,
                recall: s.recall,
                diagnosed: s.diagnosed,
                localization: s.localization,
                degraded_frac: degraded as f64 / diagnoses.len().max(1) as f64,
                capture_gaps: astats.capture_gaps,
                lost_frames: astats.lost_frames,
                frames: svc.frames,
            }
        })
        .collect();

    let mut scenarios = Vec::new();
    for run in operational_runs(wb, ctx.seed) {
        for rate in [0.0, 0.01, 0.05] {
            let gcfg = wb.config_at(p_rate(&run.exec) * (1.0 - rate));
            let (diagnoses, _, _) = wb.serve(
                gcfg,
                &run.nodes,
                &run.exec.messages,
                &impaired(rate, ctx.seed),
            );
            scenarios.push(ScenarioRow {
                scenario: run.scenario.name.to_string(),
                drop_prob: rate,
                diagnosed: !diagnoses.is_empty(),
                degraded_diagnoses: diagnoses
                    .iter()
                    .filter(|d| !d.confidence.is_exact())
                    .count(),
                total_diagnoses: diagnoses.len(),
            });
        }
    }

    let out = RobustnessOut {
        seed: ctx.seed,
        resequence_depth: ServiceConfig::default().resequence_depth,
        sweep,
        scenarios,
    };
    vec![Artifact::new("robustness", &out)]
}
