//! The learned library itself: Table 1 and Fig 5.

use crate::{Artifact, Ctx, Workbench};
use gretel_model::{ApiId, Category, OpSpecId};
use serde::Serialize;
use std::collections::HashSet;

#[derive(Serialize)]
struct Table1Row {
    category: String,
    tests: usize,
    unique_rpc: usize,
    unique_rest: usize,
    rpc_events: usize,
    rest_events: usize,
    avg_fp_with_rpc: f64,
    avg_fp_without_rpc: f64,
}

/// Table 1 — characterization of the Tempest suite: per category, the
/// number of tests, unique REST/RPC APIs, REST/RPC events captured during
/// characterization, and the average fingerprint size with and without
/// RPCs.
pub(crate) fn table1(ctx: &Ctx) -> Vec<Artifact> {
    let wb = &ctx.wb;
    let cat = &wb.catalog;
    let rows: Vec<Table1Row> = Category::ALL
        .iter()
        .map(|&category| {
            let specs: Vec<_> = wb.suite.by_category(category).collect();
            let mut unique_rest = HashSet::new();
            let mut unique_rpc = HashSet::new();
            let (mut fp_with, mut fp_without) = (0usize, 0usize);
            let (mut rest_events, mut rpc_events) = (0usize, 0usize);
            for spec in &specs {
                let fp = wb.library.get(spec.id);
                for atom in &fp.atoms {
                    if cat.get(atom.api).is_rpc() {
                        unique_rpc.insert(atom.api);
                    } else {
                        unique_rest.insert(atom.api);
                    }
                }
                fp_with += fp.len();
                fp_without += fp.len_without_rpcs(cat);
                let st = &wb.char_stats[spec.id.index()];
                rest_events += st.rest_events;
                rpc_events += st.rpc_events;
            }
            Table1Row {
                category: category.name().to_string(),
                tests: specs.len(),
                unique_rpc: unique_rpc.len(),
                unique_rest: unique_rest.len(),
                rpc_events,
                rest_events,
                avg_fp_with_rpc: fp_with as f64 / specs.len() as f64,
                avg_fp_without_rpc: fp_without as f64 / specs.len() as f64,
            }
        })
        .collect();

    let total = |f: fn(&Table1Row) -> usize| rows.iter().map(f).sum::<usize>() as f64 / 1000.0;
    println!(
        "total: {} tests, {:.1}K RPC events, {:.1}K REST events",
        wb.suite.len(),
        total(|r| r.rpc_events),
        total(|r| r.rest_events)
    );
    let largest = (0..wb.suite.len())
        .map(|i| wb.library.get(OpSpecId(i as u16)).len())
        .max()
        .unwrap_or(0);
    println!(
        "FPmax = {} (paper: 384); largest fingerprint {largest} atoms; catalog: {} public REST APIs",
        wb.library.fp_max(),
        wb.catalog.public_rest_count()
    );
    vec![Artifact::new("table1", &rows)]
}

#[derive(Serialize)]
struct CdfPoint {
    overlap_pct: f64,
    cdf: f64,
}

fn symbol_set(wb: &Workbench, op: OpSpecId) -> HashSet<ApiId> {
    wb.library.get(op).atoms.iter().map(|a| a.api).collect()
}

/// Fig 5 — CDF of fingerprint overlap for 70 representative Compute
/// operations against all other categories (paper: ~90 % have <15 %).
/// Overlap of op A vs category C is the largest |sym(A) ∩ sym(B)| / |sym(A)|
/// over ops B ∈ C.
pub(crate) fn fig5(ctx: &Ctx) -> Vec<Artifact> {
    const REPRESENTATIVES: usize = 70;
    let wb = &ctx.wb;
    // Representative Compute ops: spread evenly across the category.
    let compute: Vec<_> = wb.suite.by_category(Category::Compute).collect();
    let stride = (compute.len() / REPRESENTATIVES).max(1);
    let others: Vec<HashSet<ApiId>> = wb
        .suite
        .specs()
        .iter()
        .filter(|s| s.category != Category::Compute)
        .map(|s| symbol_set(wb, s.id))
        .collect();

    let mut overlaps: Vec<f64> = compute
        .iter()
        .step_by(stride)
        .take(REPRESENTATIVES)
        .map(|spec| {
            let set = symbol_set(wb, spec.id);
            let max_inter = others
                .iter()
                .map(|o| set.intersection(o).count())
                .max()
                .unwrap_or(0);
            100.0 * max_inter as f64 / set.len().max(1) as f64
        })
        .collect();
    overlaps.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));

    let cdf: Vec<CdfPoint> = overlaps
        .iter()
        .enumerate()
        .map(|(i, &o)| CdfPoint {
            overlap_pct: o,
            cdf: (i + 1) as f64 / overlaps.len() as f64,
        })
        .collect();
    let below15 = overlaps.iter().filter(|&&o| o < 15.0).count() as f64 / overlaps.len() as f64;
    println!(
        "{:.0}% of representative Compute operations have <15% overlap (paper: ~90%)",
        below15 * 100.0
    );
    vec![Artifact::new("fig5", &cdf)]
}
