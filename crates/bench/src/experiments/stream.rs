//! The synthetic-stream experiments: Fig 8c and the tenant-sharded soak.
//! Both replay [`synthetic_stream`]; neither times anything — msgs/s,
//! CPU and peak RSS of these loops are `benchmark/`'s `steady` / `storm` /
//! `tenants` / `durable` workloads.

use crate::workload::{stream_config, synthetic_stream};
use crate::{Artifact, Ctx};
use gretel_core::{
    analyze_stream, canonical_order, encode_diagnoses, run_sharded, run_sharded_durable, Analyzer,
    DurableConfig, GretelConfig, ShardedConfig,
};
use gretel_hansel::{Hansel, HanselConfig};
use gretel_model::NodeId;
use gretel_sim::StreamConfig;
use gretel_store::{FileStore, FileStoreConfig, Store};
use serde::Serialize;
use std::collections::HashMap;

#[derive(Serialize)]
struct Fig8cRow {
    fault_every: usize,
    gretel_diagnoses: usize,
    gretel_report_latency_s: f64,
    hansel_report_latency_s: f64,
}

/// Fig 8c — a 500K-message, 50K-pps-paced stream at one fault per
/// {100, 500, 1000, 1500, 2000} messages through GRETEL and HANSEL: how
/// many faults each stream carries and how long, in stream time, each
/// system takes to report one (paper: GRETEL <2 s, HANSEL's 30 s bucket).
/// The throughput axis of the figure is `BENCH_*.json`'s `storm` (1/100)
/// and `steady` (1/2000) rows.
pub fn fig8c(ctx: &Ctx) -> Vec<Artifact> {
    let wb = &ctx.wb;
    let rows: Vec<Fig8cRow> = [100usize, 500, 1000, 1500, 2000]
        .into_iter()
        .map(|fault_every| {
            let stream = synthetic_stream(wb, stream_config(500_000, fault_every));

            // Reporting latency: stream time between the fault and the
            // moment its diagnosis is emitted.
            let gcfg = GretelConfig::auto(wb.library.fp_max(), 50_000.0, 1.0);
            let mut analyzer = Analyzer::new(&wb.library, gcfg);
            let mut diagnoses = 0usize;
            let mut report_lat_us = 0u64;
            for m in &stream {
                for d in analyzer.process(m) {
                    report_lat_us += m.ts_us.saturating_sub(d.ts);
                    diagnoses += 1;
                }
            }
            diagnoses += analyzer.finish().len();

            let mut hansel = Hansel::new(HanselConfig::default());
            let mut reports: Vec<_> = stream.iter().flat_map(|m| hansel.process(m)).collect();
            reports.extend(hansel.finish());
            let hansel_lat_us: u64 = reports.iter().map(|r| r.latency_us()).sum();

            let mean_s = |total_us: u64, n: usize| {
                if n > 0 {
                    total_us as f64 / n as f64 / 1e6
                } else {
                    0.0
                }
            };
            Fig8cRow {
                fault_every,
                gretel_diagnoses: diagnoses,
                gretel_report_latency_s: mean_s(report_lat_us, diagnoses),
                hansel_report_latency_s: mean_s(hansel_lat_us, reports.len()),
            }
        })
        .collect();
    vec![Artifact::new("fig8c", &rows)]
}

#[derive(Serialize)]
struct ShardRow {
    shards: usize,
    messages: usize,
    diagnoses: usize,
    /// Smallest and largest per-shard routed message counts — how evenly
    /// the project hash spreads this workload.
    min_shard_messages: usize,
    max_shard_messages: usize,
    /// Byte-identical to the inline unsharded analyzer (asserted).
    identical: bool,
}

#[derive(Serialize)]
struct DurableRow {
    shards: usize,
    diagnoses: usize,
    identical: bool,
    /// Checkpoints written across all shard journals.
    checkpoints: u64,
}

#[derive(Serialize)]
struct SoakResults {
    seed: u64,
    messages: usize,
    projects: u32,
    /// Widest single-operation span in the generated stream (messages)
    /// and the window size derived from it (α = 4 × span, the 2× margin
    /// over the eviction bound byte-identity needs).
    max_op_span: usize,
    alpha: usize,
    rows: Vec<ShardRow>,
    durable: DurableRow,
}

/// Tenant-sharded soak (DESIGN.md §15) — 400K messages of multi-tenant
/// traffic (32 Keystone projects, correlation ids on, faulted operations
/// aborting: the mode under which sharding preserves the diagnosis
/// stream) through `run_sharded` at 1/2/4/8 shards, plus a durable arm at
/// 4 shards with one `FileStore` journal per shard. Gates: the merged
/// diagnoses of every arm are byte-identical (checkpoint-codec encoding)
/// to the inline unsharded analyzer's, the merged traffic graphs are
/// equal, and every message routes to exactly one shard with real spread.
pub fn soak(ctx: &Ctx) -> Vec<Artifact> {
    let wb = &ctx.wb;
    let projects = 32u32;
    let stream_cfg = StreamConfig {
        projects,
        correlation_ids: true,
        abort_on_fault: true,
        ..stream_config(400_000, 1_000)
    };
    let traffic = synthetic_stream(wb, stream_cfg);
    let nodes: Vec<NodeId> = (0..stream_cfg.node_spread).map(NodeId).collect();

    // Window sizing: byte-identity across shard layouts needs every
    // operation's events still in the window when its fault's snapshot
    // freezes (α/2 events after the fault), i.e. α ≥ 2 × the widest
    // operation span under the full load. The harness knows the workload,
    // so it measures that span and doubles the bound; a deployment gets
    // the same from GretelConfig::auto with an operation-duration horizon.
    let mut spans: HashMap<u64, (usize, usize)> = HashMap::new();
    for (i, m) in traffic.iter().enumerate() {
        if let Some(op) = m.truth_op {
            spans.entry(op.0).or_insert((i, i)).1 = i;
        }
    }
    let max_op_span = spans.values().map(|(a, b)| b - a + 1).max().unwrap_or(1);
    let alpha = (4 * max_op_span).max(2 * wb.library.fp_max());
    let gcfg = GretelConfig {
        alpha,
        ..GretelConfig::default()
    };

    // The oracle: the plain inline analyzer over the whole stream, in the
    // same canonical order the sharded merge produces.
    let mut inline = Analyzer::new(&wb.library, gcfg);
    let mut expected = analyze_stream(&mut inline, traffic.iter());
    canonical_order(&mut expected);
    let expected_bytes = encode_diagnoses(&expected);
    assert!(!expected.is_empty(), "soak workload must produce diagnoses");

    let rows: Vec<ShardRow> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|shards| {
            let cfg = ShardedConfig {
                shards,
                metrics: true,
                ..ShardedConfig::default()
            };
            let out =
                run_sharded(&wb.library, gcfg, &nodes, &traffic, &cfg).expect("sharded soak run");
            let identical = encode_diagnoses(&out.diagnoses) == expected_bytes;
            assert!(
                identical,
                "{shards} shard(s): merged diagnoses differ from the unsharded run"
            );
            assert_eq!(
                &out.graph,
                inline.traffic_graph(),
                "{shards} shard(s): merged traffic graph"
            );
            let per_shard = || out.shards.iter().map(|s| s.messages);
            assert_eq!(
                per_shard().sum::<usize>(),
                traffic.len(),
                "one shard per message"
            );
            ShardRow {
                shards,
                messages: traffic.len(),
                diagnoses: out.diagnoses.len(),
                min_shard_messages: per_shard().min().unwrap_or(0),
                max_shard_messages: per_shard().max().unwrap_or(0),
                identical,
            }
        })
        .collect();
    assert!(
        rows.last()
            .is_some_and(|r| r.max_shard_messages < traffic.len()),
        "8 shards: traffic must not all land on one shard"
    );

    let durable = {
        let shards = 4usize;
        let store_base = ctx.store_base("soak");
        let mut stores: Vec<FileStore> = (0..shards)
            .map(|i| {
                let dir = store_base.join(format!("shard-{i}"));
                std::fs::remove_dir_all(&dir).ok(); // a journal left by an earlier run would be resumed
                FileStore::open(&dir, FileStoreConfig::default()).expect("open shard journal")
            })
            .collect();
        let mut store_refs: Vec<&mut (dyn Store + Send)> = stores
            .iter_mut()
            .map(|s| s as &mut (dyn Store + Send))
            .collect();
        let out = run_sharded_durable(
            &wb.library,
            gcfg,
            &nodes,
            &traffic,
            &ShardedConfig {
                shards,
                ..ShardedConfig::default()
            },
            &DurableConfig::default(),
            &mut store_refs,
        )
        .expect("durable sharded soak run");
        ctx.release_store(&store_base);
        let identical = encode_diagnoses(&out.diagnoses) == expected_bytes;
        assert!(
            identical,
            "durable shards must reproduce the unsharded diagnosis stream"
        );
        DurableRow {
            shards,
            diagnoses: out.diagnoses.len(),
            identical,
            checkpoints: out
                .shards
                .iter()
                .filter_map(|s| s.recovery)
                .map(|r| r.checkpoints_written)
                .sum(),
        }
    };

    let results = SoakResults {
        seed: ctx.seed,
        messages: traffic.len(),
        projects,
        max_op_span,
        alpha,
        rows,
        durable,
    };
    vec![Artifact::new("soak", &results)]
}
