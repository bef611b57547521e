//! Shared workload construction and scoring for the experiments.
//!
//! Several experiments need the same machinery: pick faulty operations
//! (the paper injects erroneous APIs "only from the Compute and Network
//! category", §7.3), choose a state-change REST step to fail, build the
//! fault plan, and afterwards score each injected fault against the
//! analyzer's diagnoses using ground truth. The workloads more than one
//! experiment runs live here too: the Fig 8c synthetic stream, the
//! 8-fault / 100-concurrent run the loss sweeps impair, and the simulated
//! §7.2 operational suite.

use crate::{p_rate, Workbench};
use gretel_core::{Diagnosis, FaultKind, GretelConfig};
use gretel_model::{ApiId, Category, Message, NodeId, OpInstanceId, OperationSpec};
use gretel_sim::scenario::{operational_suite, Scenario};
use gretel_sim::{
    secs, ApiFault, Execution, FaultPlan, FaultScope, InjectedError, RunConfig, Runner,
    StreamConfig, SyntheticStream,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Ground truth for one injected fault.
#[derive(Debug, Clone)]
pub struct InjectedFault {
    /// The faulty instance.
    pub inst: OpInstanceId,
    /// The spec it runs.
    pub spec: gretel_model::OpSpecId,
    /// The spec's name (for reports).
    pub name: String,
    /// The API the fault was injected into.
    pub api: ApiId,
}

/// Pick a state-change REST API (plus its occurrence index within the
/// spec) to inject a fault into.
pub fn pick_fault_step(
    wb: &Workbench,
    spec: &OperationSpec,
    rng: &mut StdRng,
) -> Option<(ApiId, u32)> {
    let rest_sc: Vec<usize> = spec
        .steps
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            let def = wb.catalog.get(s.api);
            !def.is_rpc() && def.is_state_change()
        })
        .map(|(i, _)| i)
        .collect();
    if rest_sc.is_empty() {
        return None;
    }
    let step_idx = rest_sc[rng.gen_range(0..rest_sc.len())];
    let api = spec.steps[step_idx].api;
    let occurrence = spec.steps[..step_idx]
        .iter()
        .filter(|s| s.api == api)
        .count() as u32;
    Some((api, occurrence))
}

/// The pool of specs eligible for fault injection (paper §7.3: Compute and
/// Network only).
pub fn faulty_pool(wb: &Workbench) -> Vec<&OperationSpec> {
    wb.suite
        .specs()
        .iter()
        .filter(|s| matches!(s.category, Category::Compute | Category::Network))
        .collect()
}

/// Inject one 500-status abort fault per faulty spec (instance ids
/// `0..faulty.len()`); returns the plan plus ground truth.
pub fn build_fault_plan(
    wb: &Workbench,
    faulty: &[&OperationSpec],
    rng: &mut StdRng,
    identical_pick: Option<(ApiId, u32)>,
) -> (FaultPlan, Vec<InjectedFault>) {
    let mut plan = FaultPlan::none();
    let mut truth = Vec::with_capacity(faulty.len());
    for (i, spec) in faulty.iter().enumerate() {
        let (api, occurrence) = identical_pick
            .or_else(|| pick_fault_step(wb, spec, rng))
            .expect("spec has state-change REST steps");
        let inst = OpInstanceId(i as u64);
        plan = plan.with_api_fault(ApiFault {
            api,
            scope: FaultScope::Instance(inst),
            occurrence,
            error: InjectedError::RestStatus {
                status: 500,
                reason: None,
            },
            abort_op: true,
        });
        truth.push(InjectedFault {
            inst,
            spec: spec.id,
            name: spec.name.clone(),
            api,
        });
    }
    (plan, truth)
}

/// Find the diagnosis for an injected fault: an operational diagnosis on
/// the right API whose fault message was emitted by the faulty instance.
/// (Ground-truth scoring only — GRETEL itself never reads `truth_op`.)
pub fn diagnosis_for<'d>(
    diagnoses: &'d [Diagnosis],
    messages: &[Message],
    fault: &InjectedFault,
) -> Option<&'d Diagnosis> {
    diagnoses
        .iter()
        .filter(|d| d.api == fault.api && matches!(d.kind, FaultKind::Operational { .. }))
        .find(|d| {
            messages
                .iter()
                .find(|m| m.ts_us == d.ts && m.api == d.api && m.is_rest_error())
                .and_then(|m| m.truth_op)
                == Some(fault.inst)
        })
}

/// Scoring for one injected fault.
#[derive(Debug, Clone, Serialize)]
pub struct FaultScore {
    /// Ground-truth spec name.
    pub truth: String,
    /// Whether a diagnosis was produced for this fault at all.
    pub diagnosed: bool,
    /// Whether the truth operation is among the matched set.
    pub hit: bool,
    /// Number of operations matched (`n`).
    pub matched: usize,
    /// θ over the full library.
    pub theta: f64,
    /// Operations matching on the API error alone (no snapshot) — the
    /// "With API error" baseline of Figs 7b/7c.
    pub candidates: usize,
}

/// Score every injected fault against the diagnoses of the `messages` the
/// analyzer saw.
pub fn score_faults(
    wb: &Workbench,
    diagnoses: &[Diagnosis],
    messages: &[Message],
    truth: &[InjectedFault],
) -> Vec<FaultScore> {
    truth
        .iter()
        .map(|fault| {
            let d = diagnosis_for(diagnoses, messages, fault);
            FaultScore {
                truth: fault.name.clone(),
                diagnosed: d.is_some(),
                hit: d.is_some_and(|d| d.matched.contains(&fault.spec)),
                matched: d.map_or(0, |d| d.matched.len()),
                theta: d.map_or(0.0, |d| {
                    gretel_core::theta(d.matched.len(), wb.library.len())
                }),
                candidates: d.map_or(0, |d| d.candidates),
            }
        })
        .collect()
}

/// Aggregates over one run's [`FaultScore`]s. Means are over the diagnosed
/// faults; `recall` and `diagnosed` are fractions of all injected faults.
#[derive(Debug, Clone, Copy)]
pub struct ScoreSummary {
    /// Mean θ.
    pub theta: f64,
    /// Mean matched operations.
    pub matched: f64,
    /// Mean candidates ("with API error" baseline).
    pub candidates: f64,
    /// Fraction of faults whose truth op was matched.
    pub recall: f64,
    /// Fraction of faults diagnosed at all.
    pub diagnosed: f64,
    /// Fraction of diagnosed faults whose truth op was matched.
    pub localization: f64,
}

/// Summarize a run's scores.
pub fn summarize(scores: &[FaultScore]) -> ScoreSummary {
    let diagnosed: Vec<&FaultScore> = scores.iter().filter(|s| s.diagnosed).collect();
    let hits = scores.iter().filter(|s| s.hit).count() as f64;
    let k = diagnosed.len().max(1) as f64;
    let n = scores.len().max(1) as f64;
    ScoreSummary {
        theta: diagnosed.iter().map(|s| s.theta).sum::<f64>() / k,
        matched: diagnosed.iter().map(|s| s.matched as f64).sum::<f64>() / k,
        candidates: diagnosed.iter().map(|s| s.candidates as f64).sum::<f64>() / k,
        recall: hits / n,
        diagnosed: diagnosed.len() as f64 / n,
        localization: hits / k,
    }
}

/// The workload `loss_ablation` and `robustness` both impair: 8 faulty
/// plus 100 healthy Compute/Network instances in one simulated run.
pub struct FaultWorkload {
    /// The lossless run.
    pub exec: Execution,
    /// Ground truth for the 8 injected faults.
    pub truth: Vec<InjectedFault>,
}

/// Build the [`FaultWorkload`] for `seed`.
pub fn fault_workload(wb: &Workbench, seed: u64) -> FaultWorkload {
    const FAULTS: usize = 8;
    const CONCURRENT: usize = 100;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10C0);
    let pool = faulty_pool(wb);
    let specs: Vec<&OperationSpec> = (0..FAULTS + CONCURRENT)
        .map(|_| pool[rng.gen_range(0..pool.len())])
        .collect();
    let (plan, truth) = build_fault_plan(wb, &specs[..FAULTS], &mut rng, None);
    let cfg = RunConfig {
        seed,
        start_window: secs(20),
        ..RunConfig::default()
    };
    let exec = Runner::new(wb.catalog.clone(), &wb.deployment, &plan, cfg).run(&specs);
    FaultWorkload { exec, truth }
}

/// The Fig 8c stream shape: 64-way interleaved at 50K pps.
pub fn stream_config(total_messages: usize, fault_every: usize) -> StreamConfig {
    StreamConfig {
        total_messages,
        fault_every,
        pps: 50_000,
        concurrent_ops: 64,
        ..StreamConfig::default()
    }
}

/// A synthetic stream over a representative subset of the suite (every
/// 13th spec) — the tcpreplay substitute of `fig8c` and `soak`.
pub fn synthetic_stream(wb: &Workbench, cfg: StreamConfig) -> Vec<Message> {
    let specs: Vec<_> = wb.suite.specs().iter().step_by(13).cloned().collect();
    SyntheticStream::new(wb.catalog.clone(), &specs, cfg).collect()
}

/// One §7.2 operational scenario, simulated once: what `robustness`,
/// `recovery`, `observability` and `propagation` all start from.
pub struct SuiteRun {
    /// The scenario.
    pub scenario: Scenario,
    /// Its simulated run.
    pub exec: Execution,
    /// Analyzer configuration at the run's observed rate.
    pub gcfg: GretelConfig,
    /// The nodes capture agents sit on.
    pub nodes: Vec<NodeId>,
}

/// Simulate the five-scenario operational suite.
pub fn operational_runs(wb: &Workbench, seed: u64) -> Vec<SuiteRun> {
    operational_suite(&wb.catalog, seed, 6)
        .into_iter()
        .map(|scenario| {
            let exec = scenario.run(wb.catalog.clone());
            let gcfg = wb.config_at(p_rate(&exec));
            let nodes = scenario.deployment.nodes().iter().map(|n| n.id).collect();
            SuiteRun {
                scenario,
                exec,
                gcfg,
                nodes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fault_pool_is_compute_and_network_only() {
        let wb = Workbench::small(1, 6);
        for spec in faulty_pool(&wb) {
            assert!(matches!(
                spec.category,
                Category::Compute | Category::Network
            ));
        }
    }

    #[test]
    fn fault_plan_covers_each_instance_once() {
        let wb = Workbench::small(2, 6);
        let pool = faulty_pool(&wb);
        let mut rng = StdRng::seed_from_u64(1);
        let faulty: Vec<&OperationSpec> = pool.iter().take(4).copied().collect();
        let (plan, truth) = build_fault_plan(&wb, &faulty, &mut rng, None);
        assert_eq!(plan.api_faults.len(), 4);
        assert_eq!(truth.len(), 4);
        for (i, f) in truth.iter().enumerate() {
            assert_eq!(f.inst, OpInstanceId(i as u64));
            assert!(wb.suite.spec(f.spec).contains(f.api));
        }
    }

    #[test]
    fn pick_fault_step_returns_state_change_rest() {
        let wb = Workbench::small(3, 6);
        let mut rng = StdRng::seed_from_u64(2);
        for spec in faulty_pool(&wb).iter().take(10) {
            let (api, occ) = pick_fault_step(&wb, spec, &mut rng).expect("pickable");
            let def = wb.catalog.get(api);
            assert!(!def.is_rpc() && def.is_state_change());
            let occurrences = spec.steps.iter().filter(|s| s.api == api).count() as u32;
            assert!(occ < occurrences);
        }
    }
}
