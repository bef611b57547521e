//! The distributed monitoring service (paper Fig 3), threaded.
//!
//! One capture-agent thread per node filters its egress traffic out of the
//! stream, scans each message it forwards for failure patterns at the tap,
//! and ships one fixed-size event record per message — sequence number,
//! head and scan verdict, 60 bytes — in batches of
//! [`ServiceConfig::ingest_batch`] records per channel operation over a
//! bounded channel, as the paper's Bro scripts forward events rather than
//! packets. The event receiver reads each record at fixed offsets and
//! performs a k-way merge (each agent's stream is in timestamp order, like
//! a TCP stream from Bro preserves order, §5.2), driving the [`Analyzer`]
//! with the message heads. This is the deployment shape the §7.4.2
//! overhead experiment measures.
//!
//! Batching is a transport-granularity knob, never a semantic one: records
//! keep their per-agent order inside each batch, the k-way merge still
//! consumes one message at a time, and the fault scan is a pure function
//! of each message — so the diagnosis stream is byte-identical for every
//! `ingest_batch` value, including under impairment and crash replay
//! (`tests/batched_ingest.rs` holds that oracle).
//!
//! A full link blocks its agent until the receiver catches up, as the
//! paper's TCP links do: the transport never drops a record. Every record
//! is sequence-stamped and resequenced at the receiver. Loss enters only
//! through a seeded [`CaptureImpairment`], which the store-less entry point
//! [`run_service_cfg`] applies to every agent's capture; the resequencer
//! turns the losses it infers into window gap markers. The loop itself
//! lives once in the crate-private `engine` module, shared with the
//! store-backed [`run_service_durable`](crate::run_service_durable) and the
//! shard driver.

use crate::analyzer::{Analyzer, AnalyzerStats};
use crate::report::Diagnosis;
use gretel_model::codec::DecodeError;
use gretel_model::{Message, NodeId};
use gretel_netcap::{CaptureImpairment, CaptureStats, CodecError};

/// Why a service run could not complete (or start).
#[derive(Debug)]
pub enum ServiceError {
    /// An event record on an agent link failed to decode — the capture
    /// plane is shipping corrupt records.
    Codec(CodecError),
    /// The analysis pool disappeared while the receiver still had jobs to
    /// hand it (every worker exited or panicked unrecoverably).
    PoolDisconnected,
    /// A boundary or release record on the store failed to decode.
    Checkpoint(DecodeError),
    /// The durable state store failed (oversized record or file I/O).
    Store(gretel_store::StoreError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Codec(e) => write!(f, "agent record failed to decode: {e}"),
            ServiceError::PoolDisconnected => {
                write!(f, "analysis pool disconnected with jobs outstanding")
            }
            ServiceError::Checkpoint(e) => write!(f, "checkpoint restore failed: {e}"),
            ServiceError::Store(e) => write!(f, "durable state store failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Codec(e) => Some(e),
            ServiceError::Checkpoint(e) => Some(e),
            ServiceError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for ServiceError {
    fn from(e: CodecError) -> ServiceError {
        ServiceError::Codec(e)
    }
}

impl From<DecodeError> for ServiceError {
    fn from(e: DecodeError) -> ServiceError {
        ServiceError::Checkpoint(e)
    }
}

impl From<gretel_store::StoreError> for ServiceError {
    fn from(e: gretel_store::StoreError) -> ServiceError {
        ServiceError::Store(e)
    }
}

/// The analysis-pool width of one of `shards` (≥ 1) pipelines (see
/// [`crate::shard`]; an unsharded run is one) on a machine of `available`
/// parallelism: `workers` when [`ServiceConfig::workers`] sets it, else the
/// default budget — the parallelism capped at 4, a laptop-friendly default
/// — *divided* across the shards, since N shards must not multiply the
/// thread count N×. Never below one worker.
pub(crate) fn pool_width(workers: Option<usize>, shards: usize, available: usize) -> usize {
    workers.unwrap_or(available.min(4) / shards).max(1)
}

/// Bound of each agent→receiver link (batches; a full link blocks its
/// agent) and of the analysis pool's job queue.
pub(crate) const CHANNEL_CAPACITY: usize = 64;

/// Configuration for [`run_service_cfg`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Analysis-pool width; `None` uses the capped machine default,
    /// divided across the shards of a sharded run.
    pub workers: Option<usize>,
    /// Optional seeded capture-plane impairment applied to every agent's
    /// capture; the receiver sees what went missing from the sequence
    /// numbers every record carries. `None` ships every record, in order.
    pub impairment: Option<CaptureImpairment>,
    /// Receiver-side resequencer depth: how many out-of-order frames to
    /// park per agent before force-advancing past a hole.
    pub resequence_depth: usize,
    /// Event records per channel operation on each agent link (≥ 1). `1`
    /// is the per-message shape — one record per send; larger values
    /// amortize channel synchronization and allocation across the batch.
    /// Purely a transport-granularity knob: the diagnosis stream is
    /// byte-identical for every value.
    pub ingest_batch: usize,
    /// Optional pipeline metrics registry: per-stage event counts and busy
    /// time flow into it from every thread of the pipeline. `None` (the
    /// default) leaves the hot path untouched; metrics never influence the
    /// diagnoses.
    pub metrics: Option<std::sync::Arc<gretel_obs::PipelineMetrics>>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: None,
            impairment: None,
            resequence_depth: 32,
            ingest_batch: 64,
            metrics: None,
        }
    }
}

/// Transport-level statistics from one service run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Event records shipped agent → analyzer, one per forwarded message.
    pub frames: u64,
    /// Link bytes shipped: 60 per event record.
    pub bytes: u64,
    /// Agent→receiver channel operations (batch receives) the receiver
    /// performed. Equal to `frames` when [`ServiceConfig::ingest_batch`]
    /// is 1; divided by up to the batch size otherwise — the dispatch
    /// overhead the batched fast path amortizes.
    pub channel_ops: u64,
    /// Merged capture-plane picture: injector-side counters (dropped,
    /// duplicated, reordered, stalled) plus receiver-side inference (gaps,
    /// lost, dup_discarded).
    pub capture: CaptureStats,
}

/// The configurable pipeline: agents (optionally impaired, then
/// sequence-stamping) → bounded blocking links → resequencing receiver →
/// k-way merge → analyzer, with snapshot analysis on a worker pool.
///
/// With `cfg.impairment == None` this is exactly the lossless pipeline:
/// every record arrives in order, the resequencer passes it straight
/// through, and the diagnoses are byte-identical to inline analysis. With
/// impairment, receivers infer losses from per-agent sequence numbers,
/// feed them to [`Analyzer::note_capture_gap`], and every diagnosis whose
/// window spans a gap comes back tagged
/// [`crate::CaptureConfidence::Degraded`].
///
/// The per-message fast path (byte scan, latency pairing, window push)
/// stays on the receiver thread — it is stateful and cheap. Completed
/// snapshots are the expensive, stateless part (Algorithm 2 over every
/// claimed error, plus RCA); they ship as `SnapshotJob`s to the
/// worker pool. Each job carries a sequence number and the collected
/// diagnoses are released in that order at end of stream, so the output is
/// identical to inline analysis regardless of worker scheduling. The pool
/// is supervised: a job whose analysis panics is retried on a fresh worker
/// and, past [`crate::MAX_ATTEMPTS`] attempts, surfaced
/// as [`crate::CaptureConfidence::Cancelled`] diagnoses rather than
/// aborting the run.
pub fn run_service_cfg(
    analyzer: &mut Analyzer<'_>,
    nodes: &[NodeId],
    traffic: &[Message],
    cfg: &ServiceConfig,
) -> (Vec<Diagnosis>, ServiceStats, AnalyzerStats) {
    // In-process agents encode with the same codec the receiver decodes
    // with, the pool holds its own job channel open, and there is no store
    // to fail: no error source can fire in this shape.
    crate::engine::run_plain(analyzer, nodes, traffic, cfg, crate::engine::UNSHARDED)
        .expect("in-process pipeline cannot hit transport errors")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GretelConfig;
    use crate::fingerprint::FingerprintLibrary;
    use gretel_model::{Catalog, HttpMethod, OpSpecId, OperationSpec, Service, Workflows};
    use gretel_sim::{
        ApiFault, Deployment, FaultPlan, FaultScope, InjectedError, RunConfig, Runner,
    };

    #[test]
    fn threaded_pipeline_matches_inline_analysis() {
        let cat = Catalog::openstack();
        let dep = Deployment::standard();
        let wf = Workflows::new(cat.clone());
        let specs = vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.image_upload_spec(OpSpecId(1)),
        ];
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 2, 21);

        let ports_post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        let plan = FaultPlan::none().with_api_fault(ApiFault {
            api: ports_post,
            scope: FaultScope::AllInstances,
            occurrence: 0,
            error: InjectedError::RestStatus {
                status: 500,
                reason: None,
            },
            abort_op: true,
        });
        let refs: Vec<&OperationSpec> = specs.iter().collect();
        let exec = Runner::new(
            cat.clone(),
            &dep,
            &plan,
            RunConfig {
                seed: 2,
                ..Default::default()
            },
        )
        .run(&refs);

        let gcfg = GretelConfig {
            alpha: 64,
            ..GretelConfig::default()
        };

        // Inline reference.
        let mut inline = Analyzer::new(&lib, gcfg);
        let expected = crate::analyzer::analyze_stream(&mut inline, exec.messages.iter());

        // Threaded pipeline.
        let nodes: Vec<NodeId> = dep.nodes().iter().map(|n| n.id).collect();
        let mut threaded = Analyzer::new(&lib, gcfg);
        let (got, svc, astats) = run_service_cfg(
            &mut threaded,
            &nodes,
            &exec.messages,
            &ServiceConfig::default(),
        );

        assert_eq!(
            got, expected,
            "threaded pipeline must be semantically identical"
        );
        assert!(svc.frames > 0);
        // One fixed-size event record per message on the link.
        assert_eq!(svc.bytes, 60 * svc.frames);
        assert!(svc.capture.is_clean());
        // Relevance filter may drop MySQL/NTP traffic; everything relevant
        // is processed exactly once.
        assert!(astats.messages as usize <= exec.messages.len());
        assert_eq!(astats.messages, svc.frames);
    }

    #[test]
    fn sharded_pool_widths_all_match_inline_analysis() {
        // Multiple faults → multiple snapshot jobs in flight; every pool
        // width must reproduce the inline diagnosis sequence exactly.
        let cat = Catalog::openstack();
        let dep = Deployment::standard();
        let wf = Workflows::new(cat.clone());
        let specs = vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.image_upload_spec(OpSpecId(1)),
        ];
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 2, 21);

        let ports_post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        let put_file = cat.rest_expect(Service::Glance, HttpMethod::Put, "/v2/images/{id}/file");
        let plan = FaultPlan::none()
            .with_api_fault(ApiFault {
                api: ports_post,
                scope: FaultScope::AllInstances,
                occurrence: 0,
                error: InjectedError::RestStatus {
                    status: 500,
                    reason: None,
                },
                abort_op: true,
            })
            .with_api_fault(ApiFault {
                api: put_file,
                scope: FaultScope::AllInstances,
                occurrence: 0,
                error: InjectedError::RestStatus {
                    status: 503,
                    reason: None,
                },
                abort_op: true,
            });
        let refs: Vec<&OperationSpec> = specs.iter().collect();
        let exec = Runner::new(
            cat.clone(),
            &dep,
            &plan,
            RunConfig {
                seed: 6,
                ..Default::default()
            },
        )
        .run(&refs);

        let gcfg = GretelConfig {
            alpha: 48,
            ..GretelConfig::default()
        };
        let mut inline = Analyzer::new(&lib, gcfg);
        let expected = crate::analyzer::analyze_stream(&mut inline, exec.messages.iter());
        assert!(
            expected.len() >= 2,
            "want several diagnoses, got {}",
            expected.len()
        );

        let nodes: Vec<NodeId> = dep.nodes().iter().map(|n| n.id).collect();
        for workers in [1, 2, 4, 8] {
            let mut threaded = Analyzer::new(&lib, gcfg);
            let cfg = ServiceConfig {
                workers: Some(workers),
                ..ServiceConfig::default()
            };
            let (got, _, astats) = run_service_cfg(&mut threaded, &nodes, &exec.messages, &cfg);
            assert_eq!(got, expected, "pool width {workers}");
            assert_eq!(astats, inline.stats(), "pool width {workers}");
        }
    }

    #[test]
    fn empty_traffic_is_fine() {
        let cat = Catalog::openstack();
        let dep = Deployment::standard();
        let wf = Workflows::new(cat.clone());
        let specs = vec![wf.vm_create_spec(OpSpecId(0))];
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 1, 1);
        let mut analyzer = Analyzer::new(
            &lib,
            GretelConfig {
                alpha: 8,
                ..Default::default()
            },
        );
        let nodes: Vec<NodeId> = dep.nodes().iter().map(|n| n.id).collect();
        let cfg = ServiceConfig::default();
        let (diags, svc, _) = run_service_cfg(&mut analyzer, &nodes, &[], &cfg);
        assert!(diags.is_empty());
        assert_eq!(svc.frames, 0);
    }

    fn faulted_execution(seed: u64) -> (FingerprintLibrary, Deployment, Vec<Message>) {
        let cat = Catalog::openstack();
        let dep = Deployment::standard();
        let wf = Workflows::new(cat.clone());
        let specs = vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.image_upload_spec(OpSpecId(1)),
        ];
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 2, 21);
        let ports_post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        let plan = FaultPlan::none().with_api_fault(ApiFault {
            api: ports_post,
            scope: FaultScope::AllInstances,
            occurrence: 0,
            error: InjectedError::RestStatus {
                status: 500,
                reason: None,
            },
            abort_op: true,
        });
        let refs: Vec<&OperationSpec> = specs.iter().collect();
        let exec = Runner::new(
            cat,
            &dep,
            &plan,
            RunConfig {
                seed,
                ..Default::default()
            },
        )
        .run(&refs);
        (lib, dep, exec.messages)
    }

    #[test]
    fn metrics_observe_the_pipeline_without_perturbing_it() {
        use gretel_obs::{PipelineMetrics, Stage};
        let (lib, dep, messages) = faulted_execution(2);
        let gcfg = GretelConfig {
            alpha: 64,
            ..GretelConfig::default()
        };
        let nodes: Vec<NodeId> = dep.nodes().iter().map(|n| n.id).collect();

        let mut plain = Analyzer::new(&lib, gcfg);
        let (expected, _, _) =
            run_service_cfg(&mut plain, &nodes, &messages, &ServiceConfig::default());

        let metrics = std::sync::Arc::new(PipelineMetrics::enabled());
        let cfg = ServiceConfig {
            metrics: Some(metrics.clone()),
            ..ServiceConfig::default()
        };
        let mut observed = Analyzer::new(&lib, gcfg);
        let (got, svc, astats) = run_service_cfg(&mut observed, &nodes, &messages, &cfg);
        assert_eq!(got, expected, "metrics must not change diagnoses");
        // Stage events line up with the run's own accounting.
        assert_eq!(metrics.stage_events(Stage::Ingest), astats.messages);
        assert_eq!(metrics.stage_events(Stage::Resequence), svc.frames);
        assert_eq!(metrics.stage_events(Stage::Window), astats.snapshots);
        assert_eq!(metrics.stage_events(Stage::Commit), got.len() as u64);
        assert!(
            metrics.stage_events(Stage::Detect) > 0,
            "faulted run detects"
        );
        // One timing sample per merged message.
        assert_eq!(metrics.stage_latency(Stage::Ingest).count, astats.messages);

        // The store-backed path runs the same receiver: every frame it took
        // went through the (timed, counted) resequencer.
        let metrics = std::sync::Arc::new(PipelineMetrics::enabled());
        let mut dcfg = crate::DurableConfig::default();
        dcfg.recovery.service.metrics = Some(metrics.clone());
        let mut store = gretel_store::MemStore::new();
        match crate::run_service_durable(&lib, gcfg, &nodes, &messages, &dcfg, &mut store).unwrap()
        {
            crate::DurableOutcome::Completed {
                diagnoses, service, ..
            } => {
                assert_eq!(diagnoses, expected, "durable run, metrics enabled");
                assert!(service.frames > 0);
                assert_eq!(metrics.stage_events(Stage::Resequence), service.frames);
            }
            crate::DurableOutcome::Killed { .. } => panic!("no kill point configured"),
        }
    }

    #[test]
    fn noop_impairment_reproduces_the_lossless_diagnoses() {
        let (lib, dep, messages) = faulted_execution(2);
        let gcfg = GretelConfig {
            alpha: 64,
            ..GretelConfig::default()
        };
        let nodes: Vec<NodeId> = dep.nodes().iter().map(|n| n.id).collect();

        let mut plain = Analyzer::new(&lib, gcfg);
        let (expected, _, _) =
            run_service_cfg(&mut plain, &nodes, &messages, &ServiceConfig::default());

        // An impairment whose rates are all zero draws its coins but never
        // acts on them, whatever its seed: it must be invisible in the
        // output.
        let cfg = ServiceConfig {
            impairment: Some(CaptureImpairment {
                seed: 5,
                ..CaptureImpairment::none()
            }),
            ..ServiceConfig::default()
        };
        let mut seq = Analyzer::new(&lib, gcfg);
        let (got, svc, astats) = run_service_cfg(&mut seq, &nodes, &messages, &cfg);
        assert_eq!(got, expected);
        assert!(svc.capture.is_clean());
        assert_eq!(astats.capture_gaps, 0);
        assert!(got.iter().all(|d| d.confidence.is_exact()));
    }

    #[test]
    fn impaired_capture_degrades_but_does_not_lie() {
        let (lib, dep, messages) = faulted_execution(2);
        let gcfg = GretelConfig {
            alpha: 64,
            ..GretelConfig::default()
        };
        let nodes: Vec<NodeId> = dep.nodes().iter().map(|n| n.id).collect();
        let cfg = ServiceConfig {
            impairment: Some(CaptureImpairment {
                drop_prob: 0.05,
                dup_prob: 0.02,
                reorder_prob: 0.05,
                reorder_span: 3,
                stall: None,
                seed: 11,
            }),
            ..ServiceConfig::default()
        };
        let mut analyzer = Analyzer::new(&lib, gcfg);
        let (diags, svc, astats) = run_service_cfg(&mut analyzer, &nodes, &messages, &cfg);
        assert!(
            svc.capture.dropped > 0,
            "5% drop over {} frames",
            svc.frames
        );
        assert_eq!(astats.lost_frames, svc.capture.lost);
        // Every diagnosis is either exact or admits its window's gaps.
        for d in &diags {
            if let crate::report::CaptureConfidence::Degraded { gaps, lost } = d.confidence {
                assert!(gaps > 0 && lost >= gaps, "gaps={gaps} lost={lost}");
            }
        }
    }

    #[test]
    fn the_pool_width_resolves_the_knob_and_divides_the_default_budget() {
        // (workers, shards, available) -> width
        let cases = [
            // A set width is taken as given, on any machine.
            (Some(7), 1, 2, 7),
            (Some(7), 1, 1, 7),
            // The default budget on an 8-core box is min(8, 4) = 4, split
            // across the shards ...
            (None, 2, 8, 2),
            (None, 1, 8, 4),
            // ... and on a 2-core box the budget is 2.
            (None, 2, 2, 1),
            (None, 1, 1, 1),
        ];
        for (workers, shards, available, width) in cases {
            assert_eq!(
                pool_width(workers, shards, available),
                width,
                "workers={workers:?} shards={shards} available={available}"
            );
        }
        // More shards than budget: every shard still gets one worker.
        for shards in 1..40 {
            assert!(pool_width(None, shards, 4) >= 1, "shards={shards}");
        }
    }
}
