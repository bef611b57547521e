//! The §7.3 precision grids and the ablations cut from the same sweep:
//! Figs 7a–7c and 8a, the correlation-id and matching-policy ablations,
//! and the scaling study. Every cell is [`sweep`] averaged over
//! derived seeds.

use crate::precision::{mean, sweep, PrecisionParams, PrecisionResult, SEEDS};
use crate::{Artifact, Ctx};
use gretel_core::{Detector, Event, FaultMark, FingerprintLibrary, GretelConfig};
use gretel_model::{ApiId, Category, Direction, HttpMethod, MessageId, NodeId, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

const CONCURRENCY: [usize; 4] = [100, 200, 300, 400];

/// One seed-averaged cell at `concurrent` tests × `faults` faults.
fn cell(
    ctx: &Ctx,
    concurrent: usize,
    faults: usize,
    rest: PrecisionParams,
) -> Vec<PrecisionResult> {
    sweep(
        &ctx.wb,
        PrecisionParams {
            concurrent,
            faults,
            seed: ctx.seed,
            ..rest
        },
        SEEDS,
    )
}

#[derive(Serialize)]
struct Fig7aCell {
    concurrent: usize,
    faults: usize,
    theta: f64,
    matched: f64,
    recall: f64,
}

/// Fig 7a — precision θ over 100–400 concurrent tests × {1, 4, 8, 16}
/// injected faults (paper: >98 % everywhere).
pub fn fig7a(ctx: &Ctx) -> Vec<Artifact> {
    let mut cells = Vec::new();
    for concurrent in CONCURRENCY {
        for faults in [1usize, 4, 8, 16] {
            let runs = cell(ctx, concurrent, faults, PrecisionParams::default());
            cells.push(Fig7aCell {
                concurrent,
                faults,
                theta: mean(&runs, |r| r.mean_theta),
                matched: mean(&runs, |r| r.mean_matched),
                recall: mean(&runs, |r| r.recall),
            });
        }
    }
    let min_theta = cells.iter().map(|c| c.theta).fold(1.0f64, f64::min);
    let mean_recall = cells.iter().map(|c| c.recall).sum::<f64>() / cells.len() as f64;
    println!("minimum theta = {min_theta:.4} (paper: >98% in all scenarios)");
    println!(
        "mean recall (truth op in matched set) = {mean_recall:.2} — not reported by the paper"
    );
    vec![Artifact::new("fig7a", &cells)]
}

#[derive(Serialize)]
struct Fig7bRow {
    concurrent: usize,
    with_snapshot: f64,
    with_api_error: f64,
    theta: f64,
}

/// Fig 7b — operations matched with the context-buffer snapshot vs on the
/// REST error API alone, at 8 faults (paper: the snapshot cuts the matched
/// set dramatically).
pub fn fig7b(ctx: &Ctx) -> Vec<Artifact> {
    let rows: Vec<Fig7bRow> = CONCURRENCY
        .iter()
        .map(|&concurrent| {
            let runs = cell(ctx, concurrent, 8, PrecisionParams::default());
            Fig7bRow {
                concurrent,
                with_snapshot: mean(&runs, |r| r.mean_matched),
                with_api_error: mean(&runs, |r| r.mean_candidates),
                theta: mean(&runs, |r| r.mean_theta),
            }
        })
        .collect();
    println!(
        "snapshot matching reduces the candidate set by {:.0}x on average",
        rows.iter()
            .map(|r| r.with_api_error / r.with_snapshot.max(1.0))
            .sum::<f64>()
            / rows.len() as f64
    );
    vec![Artifact::new("fig7b", &rows)]
}

#[derive(Serialize)]
struct Fig7cRow {
    variant: String,
    matched: f64,
    theta: f64,
    recall: f64,
    with_api_error: f64,
}

/// Fig 7c — 100 tests, 8 faults, matched with the full fingerprints and
/// with RPC symbols pruned (the §6 optimization; paper: nearly free).
pub fn fig7c(ctx: &Ctx) -> Vec<Artifact> {
    let rows: Vec<Fig7cRow> = [("without RPCs (pruned)", true), ("with RPCs", false)]
        .into_iter()
        .map(|(variant, prune)| {
            let params = PrecisionParams {
                prune_rpcs: Some(prune),
                ..Default::default()
            };
            let runs = cell(ctx, 100, 8, params);
            Fig7cRow {
                variant: variant.to_string(),
                matched: mean(&runs, |r| r.mean_matched),
                theta: mean(&runs, |r| r.mean_theta),
                recall: mean(&runs, |r| r.recall),
                with_api_error: mean(&runs, |r| r.mean_candidates),
            }
        })
        .collect();
    println!(
        "delta(matched) = {:.1} ops — paper: RPCs only marginally improve precision",
        (rows[0].matched - rows[1].matched).abs()
    );
    vec![Artifact::new("fig7c", &rows)]
}

#[derive(Serialize)]
struct Fig8aRow {
    concurrent: usize,
    matched: f64,
    theta: f64,
    recall: f64,
}

/// Fig 8a — 16 instances of the *same* faulty operation alongside 100–400
/// tests (paper: matched operations per fault fall as concurrency grows).
pub fn fig8a(ctx: &Ctx) -> Vec<Artifact> {
    let rows: Vec<Fig8aRow> = CONCURRENCY
        .iter()
        .map(|&concurrent| {
            let params = PrecisionParams {
                identical_faults: true,
                ..Default::default()
            };
            let runs = cell(ctx, concurrent, 16, params);
            Fig8aRow {
                concurrent,
                matched: mean(&runs, |r| r.mean_matched),
                theta: mean(&runs, |r| r.mean_theta),
                recall: mean(&runs, |r| r.recall),
            }
        })
        .collect();
    vec![Artifact::new("fig8a", &rows)]
}

#[derive(Serialize)]
struct CorrRow {
    concurrent: usize,
    correlation_ids: bool,
    theta: f64,
    matched: f64,
    median_matched: f64,
    recall: f64,
}

/// Correlation-id ablation (§5.3.1's future enhancement, implemented):
/// θ, matched-set size and recall with and without propagated ids, at 8
/// faults. With ids the truth operation is always matched and the median
/// fault narrows to one operation; the mean is skewed by faults striking
/// an operation's first steps, where any evidence is ambiguous.
pub fn corr_ablation(ctx: &Ctx) -> Vec<Artifact> {
    let mut rows = Vec::new();
    for concurrent in [100usize, 400] {
        for correlation_ids in [false, true] {
            let params = PrecisionParams {
                correlation_ids,
                ..Default::default()
            };
            let runs = cell(ctx, concurrent, 8, params);
            let mut all_matched: Vec<f64> = runs
                .iter()
                .flat_map(|r| {
                    r.scores
                        .iter()
                        .filter(|f| f.diagnosed)
                        .map(|f| f.matched as f64)
                })
                .collect();
            all_matched.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            rows.push(CorrRow {
                concurrent,
                correlation_ids,
                theta: mean(&runs, |r| r.mean_theta),
                matched: mean(&runs, |r| r.mean_matched),
                median_matched: all_matched
                    .get(all_matched.len() / 2)
                    .copied()
                    .unwrap_or(0.0),
                recall: mean(&runs, |r| r.recall),
            });
        }
    }
    vec![Artifact::new("corr_ablation", &rows)]
}

#[derive(Serialize)]
struct PolicyRow {
    policy: String,
    concurrent: usize,
    theta: f64,
    matched: f64,
    recall: f64,
}

/// A named configuration patch.
type Policy = (&'static str, fn(&mut GretelConfig));

/// Matching-policy ablation — the data behind DESIGN.md §7: θ, matched-set
/// size and recall per policy at 8 faults.
pub fn policy_ablation(ctx: &Ctx) -> Vec<Artifact> {
    let policies: [Policy; 5] = [
        // Earliest-complete, bounded literals, grace.
        ("default", |_| {}),
        // Presence matching, stop at the first θ drop.
        ("paper-theta-drop", |c| c.scored_slack = None),
        // Presence matching over the whole window.
        ("presence-full", |c| {
            c.scored_slack = None;
            c.grow_full = true;
        }),
        // Every atom (starred included) required in order.
        ("strict", |c| {
            c.scored_slack = None;
            c.relaxed = false;
            c.grow_full = true;
        }),
        // Fingerprints not truncated at the fault.
        ("no-truncation", |c| c.truncate = false),
    ];
    let mut rows = Vec::new();
    for (policy, patch) in policies {
        for concurrent in [100usize, 400] {
            let params = PrecisionParams {
                config_override: Some(patch),
                ..Default::default()
            };
            let runs = cell(ctx, concurrent, 8, params);
            rows.push(PolicyRow {
                policy: policy.to_string(),
                concurrent,
                theta: mean(&runs, |r| r.mean_theta),
                matched: mean(&runs, |r| r.mean_matched),
                recall: mean(&runs, |r| r.recall),
            });
        }
    }
    vec![Artifact::new("policy_ablation", &rows)]
}

#[derive(Serialize)]
struct LibraryRow {
    fingerprints: usize,
    matched: usize,
}

#[derive(Serialize)]
struct DeployRow {
    compute_nodes: usize,
    theta: f64,
    recall: f64,
}

/// An `n`-event snapshot of random Compute REST requests with one REST
/// error on `offending` at its centre.
fn synth_events(ctx: &Ctx, n: usize, offending: ApiId) -> (Vec<Event>, usize) {
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x5CA1);
    let pool = &ctx.wb.suite.pools(Category::Compute).rest;
    let mut events: Vec<Event> = (0..n)
        .map(|i| {
            let api = pool[rng.gen_range(0..pool.len())];
            let def = ctx.wb.catalog.get(api);
            Event {
                id: MessageId(i as u64),
                ts: i as u64 * 20,
                api,
                direction: Direction::Request,
                is_rpc: def.is_rpc(),
                state_change: def.is_state_change(),
                noise_api: false,
                src_node: NodeId(0),
                dst_node: NodeId(1),
                corr: None,
                fault: FaultMark::None,
                gap_before: 0,
            }
        })
        .collect();
    let center = n / 2;
    events[center].api = offending;
    events[center].fault = FaultMark::RestError(500);
    (events, center)
}

/// Scaling: the matched set of one detection on an 8192-event snapshot as
/// the library grows 100 → 1200 fingerprints (its cost is `benchmark/`'s
/// `core.analyzer.analyze_us_*`), and precision on 3 → 100 compute nodes
/// with fingerprints learned on the 7-node testbed (paper §7.1: they are
/// independent of deployment scale).
pub fn scale(ctx: &Ctx) -> Vec<Artifact> {
    let wb = &ctx.wb;
    let offending = wb
        .catalog
        .rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
    let all: Vec<gretel_core::Fingerprint> =
        serde_json::from_str(&wb.library.to_json()).expect("json");
    let (events, center) = synth_events(ctx, 8192, offending);
    let lib_rows: Vec<LibraryRow> = [100usize, 300, 600, 900, 1200]
        .into_iter()
        .map(|n| {
            // A prefix library (ids stay dense).
            let subset = serde_json::to_string(&all[..n]).expect("json");
            let lib = FingerprintLibrary::from_json(wb.catalog.clone(), &subset).expect("load");
            let cfg = GretelConfig {
                alpha: events.len(),
                ..GretelConfig::default()
            };
            let outcome = Detector::new(&lib, cfg).detect_operational(&events, center, offending);
            LibraryRow {
                fingerprints: n,
                matched: outcome.matched.len(),
            }
        })
        .collect();

    let dep_rows: Vec<DeployRow> = [3usize, 10, 50, 100]
        .into_iter()
        .map(|compute_nodes| {
            let params = PrecisionParams {
                concurrent: 100,
                faults: 8,
                seed: ctx.seed,
                compute_nodes: Some(compute_nodes),
                ..Default::default()
            };
            let runs = sweep(wb, params, 2);
            DeployRow {
                compute_nodes,
                theta: mean(&runs, |r| r.mean_theta),
                recall: mean(&runs, |r| r.recall),
            }
        })
        .collect();
    vec![
        Artifact::new("scale_library", &lib_rows),
        Artifact::new("scale_deployment", &dep_rows),
    ]
}
