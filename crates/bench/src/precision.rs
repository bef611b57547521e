//! The §7.3 precision experiment machinery (Figs 7a–7c, 8a).
//!
//! Mirrors the paper's setup: sample non-faulty Tempest tests proportional
//! to their category distribution, run them concurrently with a given
//! number of faulty instances (erroneous APIs drawn from the Compute and
//! Network categories only), and measure GRETEL's precision
//! θ = (N − n)/(N − 1) over the full 1200-fingerprint library per injected
//! fault.

use crate::workload::{
    build_fault_plan, faulty_pool, pick_fault_step, score_faults, summarize, FaultScore,
};
use crate::{p_rate, Workbench};
use gretel_core::{analyze_stream, Analyzer, GretelConfig};
use gretel_model::{Category, OperationSpec};
use gretel_sim::{secs, Deployment, NoiseConfig, RunConfig, Runner};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Seeded runs averaged per cell by [`sweep`] in the paper's figures.
pub const SEEDS: u64 = 3;

/// Parameters of one precision run.
#[derive(Debug, Clone, Copy)]
pub struct PrecisionParams {
    /// Concurrent non-faulty tests.
    pub concurrent: usize,
    /// Number of injected faulty operations.
    pub faults: usize,
    /// Use the same faulty spec for all faults (the Fig 8a setup).
    pub identical_faults: bool,
    /// RNG seed.
    pub seed: u64,
    /// Override `prune_rpcs` (None → default true).
    pub prune_rpcs: Option<bool>,
    /// Window over which instance starts are spread.
    pub start_window_secs: u64,
    /// Propagate (and exploit) per-operation correlation ids — the
    /// §5.3.1 enhancement the paper leaves to OpenStack's rollout.
    pub correlation_ids: bool,
    /// Full analyzer-config override (applied after `auto`; `prune_rpcs`
    /// still wins). For ablations.
    pub config_override: Option<fn(&mut GretelConfig)>,
    /// Run on `Deployment::scaled(n)` instead of the workbench's testbed
    /// (the `scale` experiment; fingerprints stay the testbed's).
    pub compute_nodes: Option<usize>,
}

impl Default for PrecisionParams {
    fn default() -> Self {
        PrecisionParams {
            concurrent: 100,
            faults: 1,
            identical_faults: false,
            seed: 1,
            prune_rpcs: None,
            start_window_secs: 20,
            correlation_ids: false,
            config_override: None,
            compute_nodes: None,
        }
    }
}

/// Aggregate result of one precision run.
#[derive(Debug, Clone, Serialize)]
pub struct PrecisionResult {
    /// Concurrency level.
    pub concurrent: usize,
    /// Faults injected.
    pub faults: usize,
    /// Per-fault scores.
    pub scores: Vec<FaultScore>,
    /// Mean θ across diagnosed faults.
    pub mean_theta: f64,
    /// Mean matched operations across diagnosed faults.
    pub mean_matched: f64,
    /// Mean candidates ("with API error" baseline).
    pub mean_candidates: f64,
    /// Fraction of faults whose truth op was matched.
    pub recall: f64,
    /// Total messages the analyzer processed.
    pub messages: u64,
}

/// Run one precision experiment.
pub fn run(wb: &Workbench, params: PrecisionParams) -> PrecisionResult {
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0xBEEF);

    // Category-proportional sample of non-faulty tests.
    let mut background: Vec<&OperationSpec> = Vec::with_capacity(params.concurrent);
    let by_cat: Vec<Vec<&OperationSpec>> = Category::ALL
        .iter()
        .map(|&c| wb.suite.by_category(c).collect())
        .collect();
    let total_tests: usize = by_cat.iter().map(Vec::len).sum();
    for specs in &by_cat {
        let share = (params.concurrent * specs.len()).div_ceil(total_tests);
        for _ in 0..share {
            if background.len() >= params.concurrent {
                break;
            }
            background.push(specs[rng.gen_range(0..specs.len())]);
        }
    }
    background.shuffle(&mut rng);
    background.truncate(params.concurrent);

    // Faulty instances: Compute and Network specs only (paper §7.3).
    let pool = faulty_pool(wb);
    let mut faulty: Vec<&OperationSpec> = Vec::with_capacity(params.faults);
    if params.identical_faults {
        let spec = pool[rng.gen_range(0..pool.len())];
        faulty.extend(std::iter::repeat_n(spec, params.faults));
    } else {
        for _ in 0..params.faults {
            faulty.push(pool[rng.gen_range(0..pool.len())]);
        }
    }

    // Assemble the run: faulty instances get ids 0..faults.
    let mut all: Vec<&OperationSpec> = Vec::with_capacity(faulty.len() + background.len());
    all.extend(faulty.iter().copied());
    all.extend(background.iter().copied());

    let identical_pick = params
        .identical_faults
        .then(|| pick_fault_step(wb, faulty[0], &mut rng).expect("state-change REST step"));
    let (plan, truth) = build_fault_plan(wb, &faulty, &mut rng, identical_pick);

    let run_cfg = RunConfig {
        seed: params.seed,
        start_window: secs(params.start_window_secs),
        noise: NoiseConfig::default(),
        correlation_ids: params.correlation_ids,
        ..RunConfig::default()
    };
    let scaled = params.compute_nodes.map(Deployment::scaled);
    let deployment = scaled.as_ref().unwrap_or(&wb.deployment);
    let exec = Runner::new(wb.catalog.clone(), deployment, &plan, run_cfg).run(&all);

    // Analyzer with α derived from the observed rate (paper §5.3.1).
    let mut cfg = wb.config_at(p_rate(&exec));
    if let Some(f) = params.config_override {
        f(&mut cfg);
    }
    if let Some(p) = params.prune_rpcs {
        cfg.prune_rpcs = p;
    }
    let mut analyzer = Analyzer::new(&wb.library, cfg);
    let diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());

    // Score each injected fault: the diagnosis whose offending API matches
    // and whose fault message belongs to the faulty instance.
    let scores = score_faults(wb, &diagnoses, &exec.messages, &truth);
    let summary = summarize(&scores);
    PrecisionResult {
        concurrent: params.concurrent,
        faults: params.faults,
        mean_theta: summary.theta,
        mean_matched: summary.matched,
        mean_candidates: summary.candidates,
        recall: summary.recall,
        messages: analyzer.stats().messages,
        scores,
    }
}

/// [`run`] over `seeds` derived seeds (`params.seed ^ 1`, `^ 2`, …): the
/// seed-averaged cell every precision figure and ablation reports.
pub fn sweep(wb: &Workbench, params: PrecisionParams, seeds: u64) -> Vec<PrecisionResult> {
    (0..seeds)
        .map(|s| {
            run(
                wb,
                PrecisionParams {
                    seed: params.seed ^ (s + 1),
                    ..params
                },
            )
        })
        .collect()
}

/// Mean of one field over a [`sweep`].
pub fn mean(runs: &[PrecisionResult], field: impl Fn(&PrecisionResult) -> f64) -> f64 {
    runs.iter().map(field).sum::<f64>() / runs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_precision_run_hits_the_truth() {
        let wb = Workbench::small(5, 10);
        let res = run(
            &wb,
            PrecisionParams {
                concurrent: 10,
                faults: 2,
                seed: 5,
                start_window_secs: 6,
                ..Default::default()
            },
        );
        assert_eq!(res.scores.len(), 2);
        assert!(
            res.recall > 0.0,
            "at least one fault matched its truth op: {:?}",
            res.scores
        );
        assert!(res.mean_theta > 0.0);
        assert!(res.messages > 0);
    }

    #[test]
    fn identical_faults_share_the_api() {
        let wb = Workbench::small(6, 8);
        let res = run(
            &wb,
            PrecisionParams {
                concurrent: 8,
                faults: 4,
                identical_faults: true,
                seed: 9,
                start_window_secs: 6,
                ..Default::default()
            },
        );
        assert_eq!(res.scores.len(), 4);
        let names: std::collections::HashSet<_> =
            res.scores.iter().map(|s| s.truth.as_str()).collect();
        assert_eq!(names.len(), 1, "all faults target the same spec");
    }
}
