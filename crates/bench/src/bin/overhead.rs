//! §7.4.2 — System overhead of the analyzer and agents.
//!
//! Runs 100 concurrent tests through the threaded agents → receiver →
//! analyzer pipeline (paper Fig 3) and reports wall-clock processing time,
//! message/byte throughput, and the process's peak resident memory. The
//! paper reports ~4.26 % analyzer CPU and ~123 MB RSS on its testbed.
//!
//! Usage: `cargo run --release -p gretel-bench --bin overhead [--seed N] [--ops N]`

use gretel_bench::precision::PrecisionParams;
use gretel_bench::{arg, results, Workbench};
use gretel_core::{run_service_cfg, Analyzer, GretelConfig, ServiceConfig};
use gretel_model::{NodeId, OperationSpec};
use gretel_sim::{secs, FaultPlan, RunConfig, Runner};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Overhead {
    ops: usize,
    messages: u64,
    frames: u64,
    wire_bytes: u64,
    wall_ms: f64,
    events_per_sec: f64,
    mbps: f64,
    peak_rss_mb: Option<f64>,
    diagnoses: usize,
    snapshots: u64,
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let seed: u64 = arg("--seed", 42);
    let ops: usize = arg("--ops", 100);
    let wb = Workbench::new(seed);

    // 100 concurrent healthy tests (the paper's overhead run is
    // fault-free with watchers disabled).
    let params = PrecisionParams { concurrent: ops, faults: 0, ..Default::default() };
    let specs: Vec<&OperationSpec> =
        wb.suite.specs().iter().take(params.concurrent).collect();
    let plan = FaultPlan::none();
    let exec = Runner::new(
        wb.catalog.clone(),
        &wb.deployment,
        &plan,
        RunConfig { seed, start_window: secs(10), ..RunConfig::default() },
    )
    .run(&specs);

    let p_rate = exec.messages.len() as f64 / (exec.duration.max(1) as f64 / 1e6);
    let cfg = GretelConfig::auto(wb.library.fp_max(), p_rate, 2.0);
    let mut analyzer = Analyzer::new(&wb.library, cfg);
    let nodes: Vec<NodeId> = wb.deployment.nodes().iter().map(|n| n.id).collect();

    let scfg = ServiceConfig { channel_capacity: 1024, ..ServiceConfig::default() };
    let t0 = Instant::now();
    let (diagnoses, svc, stats) = run_service_cfg(&mut analyzer, &nodes, &exec.messages, &scfg);
    let wall = t0.elapsed();

    let out = Overhead {
        ops,
        messages: stats.messages,
        frames: svc.frames,
        wire_bytes: svc.bytes,
        wall_ms: wall.as_secs_f64() * 1e3,
        events_per_sec: stats.messages as f64 / wall.as_secs_f64(),
        mbps: svc.bytes as f64 * 8.0 / wall.as_secs_f64() / 1e6,
        peak_rss_mb: peak_rss_mb(),
        diagnoses: diagnoses.len(),
        snapshots: stats.snapshots,
    };

    results::print_table(
        "7.4.2 system overhead (threaded agents -> receiver -> analyzer)",
        &["metric", "value"],
        &[
            vec!["concurrent tests".into(), out.ops.to_string()],
            vec!["messages processed".into(), out.messages.to_string()],
            vec!["frames shipped".into(), out.frames.to_string()],
            vec!["wire MB".into(), format!("{:.1}", out.wire_bytes as f64 / 1e6)],
            vec!["wall time ms".into(), format!("{:.1}", out.wall_ms)],
            vec!["events/s".into(), format!("{:.0}", out.events_per_sec)],
            vec!["Mbps".into(), format!("{:.1}", out.mbps)],
            vec![
                "peak RSS MB".into(),
                out.peak_rss_mb.map(|v| format!("{v:.0}")).unwrap_or("n/a".into()),
            ],
            vec!["diagnoses".into(), out.diagnoses.to_string()],
            vec!["snapshots".into(), out.snapshots.to_string()],
        ],
    );
    println!("\npaper: analyzer ~4.26% CPU, ~123 MB; Bro agents <12.38% CPU, ~1 GB");
    results::write_json("overhead", &out);
}
