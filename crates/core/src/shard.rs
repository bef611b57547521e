//! Tenant-sharded pipeline: N independent partitions, one merged report.
//!
//! The single-pipeline entry points ([`run_service_cfg`](crate::run_service_cfg),
//! [`run_service_durable`](crate::run_service_durable)) run one
//! ingest→resequence→window→detect pipeline no matter how much traffic
//! arrives. This module scales that shape out by *Keystone project*
//! (DESIGN.md §15): each of N partitions owns the full pipeline privately —
//! its own capture agents and resequencers, its own [`Analyzer`] with
//! windows and detection state and its own checkpoint store (durable
//! variant) — and all of them read the one traffic slice and, with
//! [`ShardedConfig::metrics`] on, write the one shared [`PipelineMetrics`]
//! registry of relaxed atomics. **Shards are
//! filters, not copies:** partition `i`'s agents forward a message iff
//! [`gretel_netcap::shard::shard_of`] routes its project to `i`, so each
//! tenant's operations land on exactly one partition and the stream is
//! never split, cloned or re-encoded per shard. Shards share nothing
//! they read back and never synchronize while running.
//!
//! After the shards drain, the driver merges:
//!
//! * **diagnoses** — the per-shard streams are unioned and put in
//!   canonical order (timestamp, API, then the exact checkpoint-codec
//!   bytes as the total-order tiebreak), so the merged report is a pure
//!   function of the diagnosis *set*, independent of shard count;
//! * **traffic graphs** — [`ServiceGraph::merge`] folds the per-shard
//!   dependency graphs — each one what that shard's analyzer actually
//!   observed, durable or not — into the graph an unsharded pass would have
//!   mined (observation is additive per message, and every message belongs
//!   to exactly one shard);
//! * **cascades** — when [`ShardedConfig::cascades`] is set,
//!   [`attribute_cascades`] re-runs over the merged diagnoses and merged
//!   graph, so a cascade whose root is tenant-A traffic on shard 0 and
//!   whose symptoms are tenant-B traffic on shard 3 still names the single
//!   root service — the cross-shard RCA merge.
//!
//! Metrics need no merge: every shard already wrote the one registry.
//!
//! **Determinism.** Within a shard the pipeline inherits the byte-identity
//! guarantees of [`run_service_cfg`](crate::run_service_cfg). Across shard
//! counts the merged
//! diagnosis stream is byte-identical to the unsharded one whenever each
//! diagnosis is a pure function of its own operation's events — which the
//! deployment guarantees by propagating correlation ids (the detector
//! restricts a fault's buffer to its own operation whenever the fault
//! message carries one) with operations that stop
//! emitting after their fault (prefix-complete histories), and by sizing
//! the window to the traffic rate ([`GretelConfig::auto`]) so an
//! operation's events are never evicted before its fault arrives — an
//! undersized α evicts under full load but not under a shard's 1/N load,
//! skewing the context-buffer accounting between regimes. The soak
//! experiment (`gretel-bench`) gates on exactly this equality for shard
//! counts 1/2/4/8.

use crate::analyzer::{Analyzer, AnalyzerStats};
use crate::config::GretelConfig;
use crate::engine::{run_plain, Route};
use crate::fingerprint::FingerprintLibrary;
use crate::graph::{attribute_cascades, CascadeParams, ServiceGraph};
use crate::recover::{
    run_durable_routed, DurableConfig, DurableOutcome, RecoveryConfig, RecoveryStats,
};
use crate::report::Diagnosis;
use crate::service::{ServiceConfig, ServiceError, ServiceStats};
use gretel_model::codec::{encode, Wire};
use gretel_model::{Message, NodeId};
use gretel_netcap::shard_of;
use gretel_obs::{MetricsSnapshot, PipelineMetrics};
use gretel_store::Store;
use std::sync::Arc;

/// Configuration for [`run_sharded`] / [`run_sharded_durable`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of independent pipeline partitions (≥ 1).
    pub shards: usize,
    /// Per-shard pipeline template. With `workers: None` the default
    /// worker budget is divided across shards instead of multiplied by
    /// them; `metrics` must be `None` — set [`ShardedConfig::metrics`]
    /// instead.
    pub service: ServiceConfig,
    /// Re-run cascade attribution over the merged diagnoses and merged
    /// traffic graph after the shards drain. `None` leaves diagnoses
    /// unattributed — required when comparing encoded bytes against an
    /// unattributed unsharded run.
    pub cascades: Option<CascadeParams>,
    /// Hand every shard one shared [`PipelineMetrics`] registry and
    /// snapshot it into `ShardedOutcome::metrics`.
    pub metrics: bool,
}

impl Default for ShardedConfig {
    fn default() -> ShardedConfig {
        ShardedConfig {
            shards: 1,
            service: ServiceConfig::default(),
            cascades: None,
            metrics: false,
        }
    }
}

/// What one pipeline partition did during a sharded run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Partition index (0-based).
    pub shard: usize,
    /// Messages routed to this partition.
    pub messages: usize,
    /// Diagnoses this partition released.
    pub diagnoses: usize,
    /// Transport statistics for this partition's agents and channels.
    pub service: ServiceStats,
    /// This partition's analyzer counters.
    pub analyzer: AnalyzerStats,
    /// Supervision counters (durable runs only).
    pub recovery: Option<RecoveryStats>,
}

/// Merged result of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// Union of all shards' diagnoses in canonical order, cascade
    /// attributions applied when configured.
    pub diagnoses: Vec<Diagnosis>,
    /// The merged cross-service traffic graph.
    pub graph: ServiceGraph,
    /// Per-shard accounting, indexed by shard.
    pub shards: Vec<ShardReport>,
    /// Snapshot of the registry every shard wrote (when
    /// [`ShardedConfig::metrics`] is on).
    pub metrics: Option<MetricsSnapshot>,
}

/// Serialize diagnoses with the checkpoint codec — the byte encoding the
/// durable store journals, reused here as the *canonical* form for
/// byte-identity comparison across pipeline layouts. Attributions are a
/// presentation-layer post-pass and are not part of the encoding.
pub fn encode_diagnoses(diagnoses: &[Diagnosis]) -> Vec<u8> {
    let mut out = Vec::with_capacity(diagnoses.len() * 64);
    for d in diagnoses {
        d.put(&mut out);
    }
    out
}

/// Put a diagnosis union into canonical order: timestamp, then API, then
/// the full checkpoint-codec bytes as a deterministic total-order
/// tiebreak. The result depends only on the *set* of diagnoses, never on
/// which shard produced which — the property the cross-shard merge and
/// the byte-identity oracles stand on.
pub fn canonical_order(diagnoses: &mut Vec<Diagnosis>) {
    let mut keyed: Vec<(u64, u16, Vec<u8>, Diagnosis)> = std::mem::take(diagnoses)
        .into_iter()
        .map(|d| (d.ts, d.api.0, encode(&d), d))
        .collect();
    keyed.sort_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
    *diagnoses = keyed.into_iter().map(|(_, _, _, d)| d).collect();
}

struct ShardRun {
    diagnoses: Vec<Diagnosis>,
    graph: ServiceGraph,
    service: ServiceStats,
    analyzer: AnalyzerStats,
    recovery: Option<RecoveryStats>,
}

/// One partition's pipeline over the whole of `traffic`, of which its
/// agents forward what routes to `route`: the engine without a store, or —
/// given this shard's private store — the durable one, at the default
/// recovery shape.
fn run_shard(
    lib: &FingerprintLibrary,
    gcfg: GretelConfig,
    nodes: &[NodeId],
    traffic: &[Message],
    service: ServiceConfig,
    route: Route,
    store: Option<&mut &mut (dyn Store + Send)>,
) -> Result<ShardRun, ServiceError> {
    let Some(store) = store else {
        let mut analyzer = Analyzer::new(lib, gcfg);
        let (diagnoses, service, astats) =
            run_plain(&mut analyzer, nodes, traffic, &service, route)?;
        let graph = analyzer.traffic_graph().clone();
        return Ok(ShardRun {
            diagnoses,
            graph,
            service,
            analyzer: astats,
            recovery: None,
        });
    };
    let dcfg = DurableConfig {
        recovery: RecoveryConfig {
            service,
            ..RecoveryConfig::default()
        },
        kill_point: None,
    };
    match run_durable_routed(lib, gcfg, nodes, traffic, &dcfg, *store, route)? {
        DurableOutcome::Completed {
            diagnoses,
            service,
            analyzer,
            recovery,
            graph,
        } => Ok(ShardRun {
            diagnoses,
            graph,
            service,
            analyzer,
            recovery: Some(recovery),
        }),
        DurableOutcome::Killed { .. } => unreachable!("shards run without a kill point"),
    }
}

/// The shard driver: run [`ShardedConfig::shards`] pipelines over the one
/// `traffic` slice, each on its own thread (over `stores[i]` when
/// `durable`) with agents that forward only their partition's tenants, then
/// merge diagnoses and graphs.
fn drive_shards(
    lib: &FingerprintLibrary,
    gcfg: GretelConfig,
    nodes: &[NodeId],
    traffic: &[Message],
    cfg: &ShardedConfig,
    stores: Option<&mut [&mut (dyn Store + Send)]>,
) -> Result<ShardedOutcome, ServiceError> {
    assert!(cfg.shards > 0, "need at least one shard");
    assert!(
        cfg.service.metrics.is_none(),
        "ShardedConfig::service.metrics must be None: set ShardedConfig::metrics instead"
    );
    let mut routed = vec![0usize; cfg.shards];
    for m in traffic {
        routed[shard_of(m.project, cfg.shards)] += 1;
    }

    let mut base = cfg.service.clone();
    base.metrics = cfg.metrics.then(|| Arc::new(PipelineMetrics::enabled()));
    let mut stores = stores.into_iter().flatten();
    let mut results: Vec<Option<Result<ShardRun, ServiceError>>> =
        (0..cfg.shards).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (i, slot) in results.iter_mut().enumerate() {
            let sc = base.clone();
            let route = (i, cfg.shards);
            let store = stores.next();
            scope.spawn(move || {
                *slot = Some(run_shard(lib, gcfg, nodes, traffic, sc, route, store))
            });
        }
    });

    let mut graph = ServiceGraph::new();
    let mut diagnoses = Vec::new();
    let mut shards = Vec::with_capacity(cfg.shards);
    for (i, run) in results.into_iter().enumerate() {
        let run = run.expect("every shard thread reports")?;
        graph.merge(&run.graph);
        shards.push(ShardReport {
            shard: i,
            messages: routed[i],
            diagnoses: run.diagnoses.len(),
            service: run.service,
            analyzer: run.analyzer,
            recovery: run.recovery,
        });
        diagnoses.extend(run.diagnoses);
    }
    canonical_order(&mut diagnoses);
    if let Some(params) = cfg.cascades {
        attribute_cascades(&mut diagnoses, &graph, lib.catalog(), params);
    }
    Ok(ShardedOutcome {
        diagnoses,
        graph,
        shards,
        metrics: base.metrics.map(|r| r.snapshot()),
    })
}

/// Run the pipeline sharded by tenant: route `traffic` onto
/// [`ShardedConfig::shards`] partitions, run each partition's full
/// agents→receiver→analyzer pipeline on its own threads, then merge
/// diagnoses and graphs (see the module docs).
///
/// Every shard sees the complete `nodes` list and the complete `traffic`
/// slice: a node's capture agent exists on every shard and applies the
/// project hash at capture time, forwarding only the frames of that shard's
/// tenants — per-shard agents are filters, not copies.
pub fn run_sharded(
    lib: &FingerprintLibrary,
    gcfg: GretelConfig,
    nodes: &[NodeId],
    traffic: &[Message],
    cfg: &ShardedConfig,
) -> Result<ShardedOutcome, ServiceError> {
    drive_shards(lib, gcfg, nodes, traffic, cfg, None)
}

/// [`run_sharded`] with a durable checkpoint store per shard: partition
/// `i` runs [`run_service_durable`] against `stores[i]`, so each shard
/// owns a private `gretel-store` backend it can crash-recover from
/// independently.
///
/// Every shard runs the default recovery shape ([`RecoveryConfig`]'s
/// checkpoint cadence, no chaos) over its [`ShardedConfig::service`]
/// template, and no kill point: whole-process kills are a single-pipeline
/// concern, modelled by driving one store through [`run_service_durable`]
/// directly.
///
/// # Panics
///
/// Panics if `stores.len() != cfg.shards`.
///
/// [`run_service_durable`]: crate::run_service_durable
pub fn run_sharded_durable(
    lib: &FingerprintLibrary,
    gcfg: GretelConfig,
    nodes: &[NodeId],
    traffic: &[Message],
    cfg: &ShardedConfig,
    stores: &mut [&mut (dyn Store + Send)],
) -> Result<ShardedOutcome, ServiceError> {
    assert_eq!(stores.len(), cfg.shards, "one store per shard");
    drive_shards(lib, gcfg, nodes, traffic, cfg, Some(stores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze_stream;
    use gretel_model::{Catalog, HttpMethod, OpSpecId, OperationSpec, Service, Workflows};
    use gretel_sim::{
        ApiFault, Deployment, FaultPlan, FaultScope, InjectedError, RunConfig, Runner,
    };
    use gretel_store::MemStore;

    /// A multi-tenant run in the deployment mode under which sharded
    /// output is byte-identical to unsharded: correlation ids propagated
    /// and faulted operations aborting (`abort_op`), so every operation's
    /// correlated event set is prefix-complete regardless of how windows
    /// close around it. 36 instances over 5 Keystone projects, with the
    /// Neutron ports POST inside every VM create failing.
    fn multi_tenant_run() -> (FingerprintLibrary, GretelConfig, Vec<NodeId>, Vec<Message>) {
        let cat = Catalog::openstack();
        let dep = Deployment::standard();
        let wf = Workflows::new(cat.clone());
        let specs = vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.image_upload_spec(OpSpecId(1)),
            wf.cinder_list_spec(OpSpecId(2)),
        ];
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 2, 11);
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
        let refs: Vec<&OperationSpec> = (0..12).flat_map(|_| specs.iter()).collect();
        let cfg = RunConfig {
            seed: 29,
            correlation_ids: true,
            projects: 5,
            ..RunConfig::default()
        };
        let exec = Runner::new(cat, &dep, &plan, cfg).run(&refs);
        let nodes: Vec<NodeId> = dep.nodes().iter().map(|n| n.id).collect();
        // α must cover each faulted operation's span (the [`GretelConfig::auto`]
        // rate-based sizing rule): an undersized window evicts early
        // operation events under full load but not under a shard's 1/N
        // load, skewing `beta_used` between the two regimes.
        let alpha = (2 * exec.messages.len()).max(64);
        let gcfg = GretelConfig {
            alpha,
            ..GretelConfig::default()
        };
        (lib, gcfg, nodes, exec.messages)
    }

    #[test]
    fn sharded_output_is_byte_identical_across_shard_counts() {
        let (lib, gcfg, nodes, traffic) = multi_tenant_run();
        let mut inline = Analyzer::new(&lib, gcfg);
        let mut expected = analyze_stream(&mut inline, traffic.iter());
        assert!(!expected.is_empty(), "the scenario must produce diagnoses");
        canonical_order(&mut expected);
        let expected_bytes = encode_diagnoses(&expected);
        let expected_graph = inline.traffic_graph().clone();

        for shards in [1usize, 2, 4, 8] {
            let cfg = ShardedConfig {
                shards,
                ..ShardedConfig::default()
            };
            let out = run_sharded(&lib, gcfg, &nodes, &traffic, &cfg).expect("sharded run");
            assert_eq!(
                encode_diagnoses(&out.diagnoses),
                expected_bytes,
                "{shards} shard(s): merged diagnoses must be byte-identical"
            );
            assert_eq!(out.graph, expected_graph, "{shards} shard(s): merged graph");
            assert_eq!(out.shards.len(), shards);
            let routed: usize = out.shards.iter().map(|s| s.messages).sum();
            assert_eq!(routed, traffic.len(), "every message routed exactly once");
            if shards > 1 {
                assert!(
                    out.shards.iter().filter(|s| s.messages > 0).count() > 1,
                    "multi-tenant traffic must actually spread across shards"
                );
            }
        }
    }

    /// The shard agents are filters over the whole stream;
    /// `partition_messages` — the materialised split they replaced — is the
    /// routing reference: shard `i` of `n` must count, ship and diagnose
    /// exactly what a single pipeline over `partition_messages(..)[i]` does.
    #[test]
    fn shard_filters_route_like_partition_messages() {
        use crate::service::run_service_cfg;
        use gretel_netcap::{partition_messages, CaptureImpairment};

        let (lib, gcfg, nodes, traffic) = multi_tenant_run();
        // Drop / dup / reorder coins key on the per-shard frame index, so an
        // impaired shard only matches its partition if the filter numbers
        // frames the way the partition's own agents would.
        let impaired = ServiceConfig {
            ingest_batch: 1,
            workers: Some(1),
            impairment: Some(CaptureImpairment {
                drop_prob: 0.05,
                dup_prob: 0.05,
                reorder_prob: 0.1,
                reorder_span: 4,
                seed: 17,
                ..CaptureImpairment::none()
            }),
            ..ServiceConfig::default()
        };
        let single = |part: &[Message], cfg: &ServiceConfig| {
            let (diagnoses, service, _) =
                run_service_cfg(&mut Analyzer::new(&lib, gcfg), &nodes, part, cfg);
            (encode_diagnoses(&diagnoses), service)
        };
        let mut dropped = 0;
        for n in [1usize, 2, 4, 8] {
            let parts = partition_messages(&traffic, n);
            let cfg = ShardedConfig {
                shards: n,
                ..ShardedConfig::default()
            };
            let out = run_sharded(&lib, gcfg, &nodes, &traffic, &cfg).expect("sharded run");
            for (i, part) in parts.iter().enumerate() {
                let (_, shipped) = single(part, &cfg.service);
                assert_eq!(
                    out.shards[i].messages,
                    part.len(),
                    "shard {i}/{n}: messages"
                );
                assert_eq!(
                    out.shards[i].service.frames, shipped.frames,
                    "shard {i}/{n}: frames"
                );

                let got = run_shard(&lib, gcfg, &nodes, &traffic, impaired.clone(), (i, n), None)
                    .expect("impaired shard");
                let (want, want_service) = single(part, &impaired);
                assert_eq!(
                    encode_diagnoses(&got.diagnoses),
                    want,
                    "shard {i}/{n}: diagnoses"
                );
                assert_eq!(
                    got.service, want_service,
                    "shard {i}/{n}: transport and capture"
                );
                dropped += got.service.capture.dropped;
            }
        }
        assert!(dropped > 0, "the impairment must actually bite");
    }

    #[test]
    fn durable_shards_match_the_in_memory_path() {
        let (lib, gcfg, nodes, traffic) = multi_tenant_run();
        // Lossless, then a lossy capture plane: the durable shards must
        // report the graph their analyzers observed (dropped frames
        // missing), exactly as the in-memory shards do.
        let lossy = gretel_netcap::CaptureImpairment {
            drop_prob: 0.2,
            seed: 5,
            ..gretel_netcap::CaptureImpairment::none()
        };
        for impairment in [None, Some(lossy)] {
            let cfg = ShardedConfig {
                shards: 4,
                service: ServiceConfig {
                    impairment,
                    ..ServiceConfig::default()
                },
                metrics: true,
                ..ShardedConfig::default()
            };
            let plain = run_sharded(&lib, gcfg, &nodes, &traffic, &cfg).expect("in-memory");
            if impairment.is_some() {
                assert!(plain.shards.iter().any(|s| s.service.capture.dropped > 0));
            }

            let mut stores: Vec<MemStore> = (0..4).map(|_| MemStore::new()).collect();
            let mut store_refs: Vec<&mut (dyn Store + Send)> = stores
                .iter_mut()
                .map(|s| s as &mut (dyn Store + Send))
                .collect();
            let out = run_sharded_durable(&lib, gcfg, &nodes, &traffic, &cfg, &mut store_refs)
                .expect("durable");
            assert_eq!(
                encode_diagnoses(&out.diagnoses),
                encode_diagnoses(&plain.diagnoses)
            );
            assert_eq!(
                out.graph, plain.graph,
                "durable shards report the observed graph"
            );
            for s in &out.shards {
                assert!(s.recovery.is_some(), "durable shards report recovery stats");
            }
            let snap = out.metrics.expect("metrics requested");
            let events: u64 = snap.stages.iter().map(|st| st.events).sum();
            assert!(events > 0, "the shared registry saw traffic");
        }
    }

    /// Every shard writes the one registry: its stage events are the sums
    /// of what the shards report through their own typed stats.
    #[test]
    fn shards_share_one_registry() {
        use gretel_obs::Stage;
        let (lib, gcfg, nodes, traffic) = multi_tenant_run();
        for shards in [1usize, 2, 4] {
            let cfg = ShardedConfig {
                shards,
                metrics: true,
                ..ShardedConfig::default()
            };
            let out = run_sharded(&lib, gcfg, &nodes, &traffic, &cfg).expect("sharded run");
            let snap = out.metrics.expect("metrics requested");
            let events = |stage: Stage| snap.stages[stage as usize].events;
            let sum = |f: fn(&AnalyzerStats) -> u64| -> u64 {
                out.shards.iter().map(|s| f(&s.analyzer)).sum()
            };
            assert_eq!(
                events(Stage::Ingest),
                sum(|a| a.messages),
                "{shards}: ingest"
            );
            assert_eq!(
                events(Stage::Window),
                sum(|a| a.snapshots),
                "{shards}: window"
            );
            assert_eq!(
                events(Stage::Commit),
                out.diagnoses.len() as u64,
                "{shards}: commit"
            );
        }
    }

    #[test]
    fn cross_shard_cascades_survive_partitioning() {
        // Covered end to end (proptest over shard counts × seeds) in
        // tests/sharded_cascade.rs; here: the merge plumbing applies
        // attributions at all.
        let (lib, gcfg, nodes, traffic) = multi_tenant_run();
        let cfg = ShardedConfig {
            shards: 4,
            cascades: Some(CascadeParams::default()),
            ..ShardedConfig::default()
        };
        let out = run_sharded(&lib, gcfg, &nodes, &traffic, &cfg).expect("sharded run");
        // This scenario is a single-service incident: the conservative
        // pass must leave it unattributed rather than invent a cascade.
        assert!(out.diagnoses.iter().all(|d| d.attribution.is_none()));
    }
}
