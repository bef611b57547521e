//! One pass of each workload: a fresh analyzer (and store) driven through
//! the public entry point the workload is about.
//!
//! With a [`Tracer`] that is on the same pass records spans around each call into a
//! layer and hands the pipeline an enabled `gretel-obs` registry; the
//! inline workloads are then driven block by block (`scan_message` →
//! `ingest_marked` → `SnapshotAnalyzer::analyze`), which the library
//! documents as equivalent to `analyze_stream`, and the reference check
//! holds it to that.

use crate::host::{POOL_WORKERS, SHARDS, SHARD_WORKERS};
use crate::inputs::{Inputs, Stream, Workload};
use crate::trace::Tracer;
use gretel_core::{
    analyze_stream, attribute_cascades, run_service_cfg, run_service_durable, run_sharded,
    scan_message, Analyzer, CascadeParams, Diagnosis, DurableConfig, DurableOutcome, GretelConfig,
    RcaContext, RecoveryStats, ServiceConfig, ServiceGraph, ServiceStats, ShardedConfig,
};
use gretel_model::Message;
use gretel_obs::{MetricsSnapshot, PipelineMetrics};
use gretel_store::{FileStore, FileStoreConfig, Store};
use gretel_telemetry::TelemetryStore;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A store directory removed when dropped, so a failed or panicking pass
/// leaves nothing behind.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh, not yet created, directory name under `base`.
    pub fn new(base: &Path, label: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        TempDir(base.join(format!(
            "gretel-benchmark-{}-{label}-{n}",
            std::process::id()
        )))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Exact counters of the path a pass drove (zero where it has no such
/// layer).
#[derive(Debug, Clone, Copy, Default)]
pub struct PathStats {
    /// Frames shipped agent → receiver.
    pub frames: u64,
    /// Channel operations the receiver performed.
    pub channel_ops: u64,
    /// Checkpoint records written.
    pub checkpoints: u64,
    /// Replayed frames discarded after restores.
    pub replayed_frames: u64,
}

impl PathStats {
    fn add_service(&mut self, s: &ServiceStats) {
        self.frames += s.frames;
        self.channel_ops += s.channel_ops;
    }

    fn add_recovery(&mut self, r: &RecoveryStats) {
        self.checkpoints += r.checkpoints_written;
        self.replayed_frames += r.replayed_frames;
    }
}

/// What one pass produced.
pub struct PassOutput {
    /// Diagnoses, one group per incident scenario (one group otherwise).
    pub groups: Vec<Vec<Diagnosis>>,
    /// Traffic graph of the (last) inline analyzer; empty for threaded paths.
    pub graph: ServiceGraph,
    /// Bytes the store held when the pass ended.
    pub store_bytes: u64,
    /// Exact path counters.
    pub path: PathStats,
    /// Stage registry of a traced pass.
    pub stages: Option<MetricsSnapshot>,
    /// The pass's store directory; dropping it deletes the files, which the
    /// caller does after stopping the clock.
    pub store: Option<TempDir>,
}

impl PassOutput {
    fn of(groups: Vec<Vec<Diagnosis>>) -> PassOutput {
        PassOutput {
            groups,
            graph: ServiceGraph::new(),
            store_bytes: 0,
            path: PathStats::default(),
            stages: None,
            store: None,
        }
    }
}

/// Drive `analyzer` over `messages` inline. Untraced this is
/// `analyze_stream`; traced it is the same work in steps of the threaded
/// service's `ingest_batch` messages, with a span around each layer call.
fn drive_inline(
    analyzer: &mut Analyzer<'_>,
    messages: &[Message],
    tracer: &mut Tracer,
    registry: Option<&PipelineMetrics>,
) -> Vec<Diagnosis> {
    if !tracer.is_on() {
        return analyze_stream(analyzer, messages);
    }
    let snapshots = analyzer.snapshot_analyzer().with_metrics(registry);
    let mut out = Vec::new();
    let block_len = ServiceConfig::default().ingest_batch;
    let mut marks = Vec::with_capacity(block_len);
    let mut jobs = Vec::new();
    for block in messages.chunks(block_len) {
        tracer.span("core.anomaly.scan", || {
            marks.clear();
            marks.extend(block.iter().map(scan_message));
        });
        tracer.span("core.analyzer.ingest", || {
            for (m, mark) in block.iter().zip(&marks) {
                jobs.extend(analyzer.ingest_marked(m, *mark, registry));
            }
        });
        for job in jobs.drain(..) {
            tracer.span("core.analyzer.analyze", || {
                out.extend(snapshots.analyze(&job))
            });
        }
    }
    jobs = tracer.span("core.analyzer.ingest", || {
        analyzer.finish_jobs_observed(registry)
    });
    for job in &jobs {
        tracer.span("core.analyzer.analyze", || {
            out.extend(snapshots.analyze(job))
        });
    }
    out
}

/// The inline path over the workload's stream: the reference of every
/// synthetic workload, and the pass itself for `steady`, `storm` and
/// `incident`.
pub fn run_inline(inputs: &Inputs, tracer: &mut Tracer) -> PassOutput {
    let registry = tracer.is_on().then(PipelineMetrics::enabled);
    let registry = registry.as_ref();
    let mut out = PassOutput::of(Vec::new());
    match &inputs.stream {
        Stream::Synthetic { traffic, gcfg } => {
            let mut analyzer = tracer.span("core.analyzer.new", || {
                Analyzer::new(&inputs.library, *gcfg)
            });
            out.groups
                .push(drive_inline(&mut analyzer, traffic, tracer, registry));
            out.graph = analyzer.traffic_graph().clone();
        }
        Stream::Incidents(list) => {
            for inc in list {
                let telemetry = tracer.span("telemetry.build", || {
                    TelemetryStore::from_execution(&inc.exec)
                });
                // RCA resolves matches against the specs the library was
                // trained on.
                let (library, specs) = match &inc.own {
                    Some((library, specs)) => (library, specs.as_slice()),
                    None => (&inputs.library, inputs.suite.specs()),
                };
                let mut analyzer = tracer.span("core.analyzer.new", || {
                    Analyzer::new(library, inc.gcfg).with_rca(RcaContext {
                        deployment: &inc.deployment,
                        telemetry: &telemetry,
                        specs,
                    })
                });
                let mut diagnoses =
                    drive_inline(&mut analyzer, &inc.exec.messages, tracer, registry);
                tracer.span("core.graph.attribute", || {
                    attribute_cascades(
                        &mut diagnoses,
                        analyzer.traffic_graph(),
                        &inputs.catalog,
                        CascadeParams::default(),
                    )
                });
                out.groups.push(diagnoses);
                out.graph = analyzer.traffic_graph().clone();
            }
        }
    }
    out.stages = registry.map(PipelineMetrics::snapshot);
    out
}

fn service_config(workers: usize, registry: &Option<Arc<PipelineMetrics>>) -> ServiceConfig {
    ServiceConfig {
        workers: Some(workers),
        metrics: registry.clone(),
        ..ServiceConfig::default()
    }
}

fn open_store(dir: &TempDir) -> Result<FileStore, String> {
    FileStore::open(dir.path(), FileStoreConfig::default()).map_err(|e| e.to_string())
}

/// `run_service_durable` over the store in `dir`, once per entry of
/// `kill_points`, reopening the directory each time as a restarted process
/// would. Every invocation but the last must die at its kill point.
fn durable_pass(
    inputs: &Inputs,
    traffic: &[Message],
    gcfg: GretelConfig,
    dir: TempDir,
    kill_points: &[Option<u64>],
    registry: &Option<Arc<PipelineMetrics>>,
) -> Result<PassOutput, String> {
    let mut dcfg = DurableConfig::default();
    dcfg.recovery.service = service_config(POOL_WORKERS, registry);
    let mut path = PathStats::default();
    for (i, &kill_point) in kill_points.iter().enumerate() {
        let mut store = open_store(&dir)?;
        dcfg.kill_point = kill_point;
        let outcome = run_service_durable(
            &inputs.library,
            gcfg,
            &inputs.nodes,
            traffic,
            &dcfg,
            &mut store,
        )
        .map_err(|e| e.to_string())?;
        let last = i + 1 == kill_points.len();
        match outcome {
            DurableOutcome::Killed { service, recovery } if !last => {
                path.add_service(&service);
                path.add_recovery(&recovery);
            }
            DurableOutcome::Completed {
                diagnoses,
                service,
                recovery,
                ..
            } if last => {
                path.add_service(&service);
                path.add_recovery(&recovery);
                let mut out = PassOutput::of(vec![diagnoses]);
                out.store_bytes = store.bytes().len() as u64;
                out.path = path;
                out.store = Some(dir);
                return Ok(out);
            }
            DurableOutcome::Killed { .. } => return Err("killed on the final invocation".into()),
            DurableOutcome::Completed { .. } => {
                return Err(format!("invocation {i} completed before its kill point"))
            }
        }
    }
    Err("no invocation configured".into())
}

/// One pass of `inputs.workload`. `Err` is a pass the pipeline itself
/// reported as failed; the caller counts every reference diagnosis of it as
/// failed.
pub fn run_pass(
    inputs: &Inputs,
    store_dir: &Path,
    tracer: &mut Tracer,
) -> Result<PassOutput, String> {
    let registry = tracer.is_on().then(|| Arc::new(PipelineMetrics::enabled()));
    let mut out = match (inputs.workload, &inputs.stream) {
        (Workload::Wire, Stream::Synthetic { traffic, gcfg }) => {
            let mut analyzer = Analyzer::new(&inputs.library, *gcfg);
            let cfg = service_config(POOL_WORKERS, &registry);
            let (diagnoses, service, _) =
                run_service_cfg(&mut analyzer, &inputs.nodes, traffic, &cfg);
            let mut out = PassOutput::of(vec![diagnoses]);
            out.path.add_service(&service);
            out
        }
        (Workload::Tenants, Stream::Synthetic { traffic, gcfg }) => {
            let cfg = ShardedConfig {
                shards: SHARDS,
                // Each shard gets a registry of its own; `run.metrics` is
                // their sum.
                service: service_config(SHARD_WORKERS, &None),
                cascades: None,
                metrics: tracer.is_on(),
            };
            let run = run_sharded(&inputs.library, *gcfg, &inputs.nodes, traffic, &cfg)
                .map_err(|e| e.to_string())?;
            let mut out = PassOutput::of(vec![run.diagnoses]);
            for shard in &run.shards {
                out.path.add_service(&shard.service);
            }
            out.stages = run.metrics;
            return Ok(out);
        }
        (Workload::Durable, Stream::Synthetic { traffic, gcfg }) => {
            let dir = TempDir::new(store_dir, "durable");
            durable_pass(inputs, traffic, *gcfg, dir, &[None], &registry)?
        }
        (Workload::Restart, Stream::Synthetic { traffic, gcfg }) => {
            let dir = TempDir::new(store_dir, "restart");
            let kill = Some(inputs.sizes.kill_point);
            durable_pass(
                inputs,
                traffic,
                *gcfg,
                dir,
                &[kill, kill, kill, None],
                &registry,
            )?
        }
        _ => return Ok(run_inline(inputs, tracer)),
    };
    out.stages = registry.map(|r| r.snapshot());
    Ok(out)
}
