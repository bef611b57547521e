//! The fault-tolerant analyzer service: supervision, checkpoint/replay
//! recovery, durable state, and honest degradation under analysis
//! overload.
//!
//! [`run_service_cfg`](crate::service::run_service_cfg) drives the pipeline
//! engine without a store; [`run_service_durable`] drives the same engine
//! with one. Three mechanisms make it fault-tolerant; the first runs on
//! both paths:
//!
//! * **Supervision** — each
//!   [`SnapshotAnalyzer`](crate::SnapshotAnalyzer) worker runs jobs inside
//!   a panic boundary. A crashed worker reports its in-flight job and dies;
//!   the supervisor (the receiver thread) restarts it after a capped
//!   exponential backoff and requeues the job. A job that keeps crashing
//!   past [`RecoveryConfig::max_attempts`] is abandoned *visibly*: every
//!   fault it covered surfaces as a
//!   [`CaptureConfidence::Cancelled`](crate::CaptureConfidence::Cancelled)
//!   diagnosis.
//! * **Checkpoint/replay** — every [`RecoveryConfig::checkpoint_every`]
//!   merged messages the service quiesces the pool and appends the full
//!   ingest state (analyzer window, pairer, perf detectors, traffic graph,
//!   per-agent resequencer positions and ready queues, next job sequence
//!   number) to a checksummed [`Store`]. After a crash the
//!   service restores the latest valid record and the agents re-ship
//!   their deterministic streams; the restored resequencers discard the
//!   already-consumed prefix as duplicates, so replay resumes exactly
//!   where the checkpoint left off. Released diagnoses travel as their
//!   own store records ([`KIND_DIAGNOSES`]), written immediately *before*
//!   the checkpoint that makes them unrepeatable — so a crash can neither
//!   lose nor duplicate a diagnosis.
//! * **Durability** — [`run_service_durable`] takes any [`Store`] and one
//!   invocation is one process lifetime. There is one crash arm,
//!   [`DurableConfig::kill_point`]: the invocation dies with nothing
//!   committed since the last boundary, and the driver re-invokes over the
//!   same store — the same [`MemStore`](gretel_store::MemStore) value, or a
//!   reopened [`FileStore`](gretel_store::FileStore) directory. The new
//!   lifetime restores the newest valid checkpoint, re-derives the
//!   released-diagnosis watermark from the [`KIND_DIAGNOSES`] records, and
//!   replays to byte-identical output. Store corruption is not an engine
//!   arm at all: a driver flips or tears bytes between two lifetimes, as a
//!   bad disk would. The durable store also carries the fingerprint library
//!   ([`KIND_LIBRARY`] snapshots), enabling live hot-reload: a grown
//!   library adopted mid-run takes effect at the next checkpoint boundary
//!   without dropping in-flight windows.
//!
//! [`AnalyzerChaos`] is the analysis-plane twin of
//! [`CaptureImpairment`](gretel_netcap::CaptureImpairment): a seeded
//! injector that kills workers and stalls jobs, each decision a pure
//! function of `(seed, job, attempt)` so every run is reproducible. A
//! stalled job that claimed a fault is cancelled through
//! [`SnapshotAnalyzer::cancel`](crate::SnapshotAnalyzer::cancel) and
//! reported, never allowed to wedge its worker.

use crate::analyzer::{Analyzer, AnalyzerStats};
use crate::config::GretelConfig;
use crate::engine::{run_cycle, Route, RunEnd, RunState, UNSHARDED};
use crate::fingerprint::FingerprintLibrary;
use crate::graph::ServiceGraph;
use crate::report::Diagnosis;
use crate::service::{ServiceConfig, ServiceError, ServiceStats};
use gretel_model::{Message, NodeId};
use gretel_netcap::coin;
use gretel_store::Store;

/// Seeded fault injection for the *analysis* plane — the counterpart of
/// the capture-plane [`gretel_netcap::CaptureImpairment`], drawing the same
/// [`gretel_netcap::coin`]. Every decision is a pure function of the seed
/// and the job's identity, so runs are reproducible regardless of thread
/// scheduling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzerChaos {
    /// Probability that a worker is killed (panics) when it picks up a
    /// job, per `(job, attempt)` — only while `attempt <
    /// kill_attempts`, so a job survives its retry budget and the run
    /// still produces its full output.
    pub kill_prob: f64,
    /// Number of leading attempts the kill coin may fire on. With the
    /// default 2, a job can crash its worker at attempts 0 and 1 and then
    /// completes normally at attempt 2.
    pub kill_attempts: u32,
    /// Probability that a job stalls and is cancelled (a job without
    /// faults has nothing to cancel and completes as usual).
    pub stall_prob: f64,
    /// Seed for all coins.
    pub seed: u64,
}

const SALT_KILL: u64 = 21;
const SALT_STALL: u64 = 22;

impl AnalyzerChaos {
    /// No chaos at all.
    pub fn none() -> AnalyzerChaos {
        AnalyzerChaos {
            kill_prob: 0.0,
            kill_attempts: 2,
            stall_prob: 0.0,
            seed: 0,
        }
    }

    /// Whether this injector can never fire.
    pub fn is_noop(&self) -> bool {
        self.kill_prob <= 0.0 && self.stall_prob <= 0.0
    }

    pub(crate) fn kill(&self, seq: u64, attempt: u32) -> bool {
        attempt < self.kill_attempts
            && coin(self.seed, seq, attempt as u64, SALT_KILL) < self.kill_prob
    }

    pub(crate) fn stall(&self, seq: u64, attempt: u32) -> bool {
        coin(self.seed, seq, attempt as u64, SALT_STALL) < self.stall_prob
    }
}

impl Default for AnalyzerChaos {
    fn default() -> AnalyzerChaos {
        AnalyzerChaos::none()
    }
}

/// The supervision and checkpoint/replay shape of a [`run_service_durable`]
/// run ([`DurableConfig::recovery`]).
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// The underlying pipeline shape. With a store, frames are always
    /// sequence-stamped, impaired or not: replay dedups the re-shipped
    /// prefix by sequence number.
    pub service: ServiceConfig,
    /// Checkpoint the full ingest state every this many merged messages.
    pub checkpoint_every: u64,
    /// Seeded analysis-plane fault injection. Its coins are pure functions
    /// of `(job, attempt)`, so replay kills and cancels exactly the jobs
    /// the original run did.
    pub chaos: AnalyzerChaos,
    /// Give up on a job after this many attempts; the abandoned job's
    /// faults surface as `Cancelled` diagnoses. Must exceed
    /// [`AnalyzerChaos::kill_attempts`] for the chaos oracle (identical
    /// output) to hold.
    pub max_attempts: u32,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            service: ServiceConfig::default(),
            checkpoint_every: 256,
            chaos: AnalyzerChaos::none(),
            max_attempts: 5,
        }
    }
}

/// What the supervision and recovery machinery did during one
/// [`run_service_durable`] invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Workers killed (by chaos or a real panic) and restarted.
    pub worker_crashes: u64,
    /// In-flight jobs requeued after their worker crashed.
    pub jobs_requeued: u64,
    /// Jobs cancelled — stalled by chaos or out of retries — and surfaced
    /// as `Cancelled` diagnoses.
    pub jobs_cancelled: u64,
    /// Checkpoint records appended to the store.
    pub checkpoints_written: u64,
    /// Times this invocation resumed from a checkpoint record: at start,
    /// when the store held a usable one (a restart after a kill), and at
    /// each post-reload re-entry. A cold start is not a restore.
    pub restores: u64,
    /// Replayed frames discarded by restored resequencers as
    /// already-consumed duplicates.
    pub replayed_frames: u64,
    /// Diagnoses regenerated during replay that had already been released
    /// (possible only when a corrupt checkpoint forces an older restore
    /// point); suppressed so the output holds each diagnosis exactly once.
    pub duplicate_releases_suppressed: u64,
    /// Fingerprint-library snapshots adopted by a live hot-reload.
    pub library_reloads: u64,
}

impl RecoveryStats {
    /// Add another lifetime's counters: a kill driver sums them over the
    /// invocations of one run.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.worker_crashes += other.worker_crashes;
        self.jobs_requeued += other.jobs_requeued;
        self.jobs_cancelled += other.jobs_cancelled;
        self.checkpoints_written += other.checkpoints_written;
        self.restores += other.restores;
        self.replayed_frames += other.replayed_frames;
        self.duplicate_releases_suppressed += other.duplicate_releases_suppressed;
        self.library_reloads += other.library_reloads;
    }
}

/// Store record kind: one full ingest-state checkpoint.
pub const KIND_CHECKPOINT: u8 = 1;
/// Store record kind: a batch of released diagnoses plus the release
/// watermark, written immediately before the checkpoint that makes their
/// regeneration a suppressed duplicate.
pub const KIND_DIAGNOSES: u8 = 2;
/// Store record kind: a fingerprint-library snapshot
/// ([`FingerprintLibrary::to_snapshot`]); the newest valid one is the
/// library a durable restart runs with.
pub const KIND_LIBRARY: u8 = 3;

/// A fingerprint-library hot-reload scheduled into a durable run: once
/// this many messages have merged since the last restore, the service
/// checkpoints, appends the snapshot to the store ([`KIND_LIBRARY`]), and
/// re-enters with the new library — in-flight windows survive via the
/// checkpoint, and the matcher uses the new fingerprints from the next
/// snapshot freeze on. Snapshots should *extend* the running library
/// (append new operations); a shrinking snapshot forces restore to fall
/// back past every checkpoint written under the larger library.
#[derive(Debug, Clone)]
pub struct LibraryReload {
    /// Fire once the merged-message count since the last restore reaches
    /// this value.
    pub at_merged: u64,
    /// The full library snapshot ([`FingerprintLibrary::to_snapshot`]).
    pub snapshot: Vec<u8>,
}

/// Configuration for [`run_service_durable`]: the recovery shape plus the
/// kill and library hot-reload arms.
#[derive(Debug, Clone, Default)]
pub struct DurableConfig {
    /// Supervision, checkpoint cadence, chaos.
    pub recovery: RecoveryConfig,
    /// The crash arm — a simulated whole-process kill (SIGKILL model):
    /// once this many messages have merged since the restore, the function
    /// returns
    /// [`DurableOutcome::Killed`] *without* checkpointing or committing —
    /// everything since the last checkpoint boundary dies. The driver
    /// re-invokes with the same store to model the process restart. One
    /// kill per invocation.
    pub kill_point: Option<u64>,
    /// Scheduled library hot-reloads, consumed front to back.
    pub reloads: Vec<LibraryReload>,
}

/// How a [`run_service_durable`] invocation ended.
#[derive(Debug)]
pub enum DurableOutcome {
    /// The stream fully merged; all diagnoses are committed on the store.
    Completed {
        /// Released diagnoses, ordered by job sequence (read back from
        /// the store's [`KIND_DIAGNOSES`] records).
        diagnoses: Vec<Diagnosis>,
        /// Transport statistics. Replay-inflated: `frames` counts every
        /// shipped frame including those re-shipped after a crash (also
        /// visible as [`RecoveryStats::replayed_frames`] and the capture
        /// stats' `dup_discarded`); diagnoses and analyzer counters are not.
        service: ServiceStats,
        /// Analyzer counters from the final library epoch.
        analyzer: AnalyzerStats,
        /// Supervision/recovery counters for this invocation.
        recovery: RecoveryStats,
        /// The traffic graph the analyzer mined from what it actually
        /// observed. It rides in every checkpoint, so kills and
        /// library-reload epochs neither lose nor double-count an edge.
        graph: ServiceGraph,
    },
    /// The scheduled [`DurableConfig::kill_point`] fired; uncommitted
    /// state was discarded. Re-invoke with the same store to restart.
    Killed {
        /// Transport statistics up to the kill.
        service: ServiceStats,
        /// Supervision/recovery counters up to the kill.
        recovery: RecoveryStats,
    },
}

/// The pipeline engine over a caller-provided [`Store`]: supervised
/// workers, periodic checkpoints and deterministic replay after a kill,
/// with the committed diagnoses exactly-once (replay can neither lose nor
/// duplicate one). With no chaos and no kill the output is
/// byte-identical to [`run_service_cfg`](crate::service::run_service_cfg);
/// with worker-kill chaos and kills it *stays* identical — the oracle the
/// recovery experiment checks, over a [`MemStore`](gretel_store::MemStore)
/// and a [`FileStore`](gretel_store::FileStore) alike.
///
/// One invocation models one process lifetime:
///
/// * **Bootstrap** — the newest valid [`KIND_LIBRARY`] snapshot on the
///   store is adopted when it extends `lib` (a live run characterized new
///   operations and a restart must keep matching them); otherwise `lib`'s
///   own snapshot is appended as the base record. The analyzer is built
///   fresh per library epoch, *without* root cause analysis.
/// * **Restore** — the release watermark is re-derived from the store's
///   [`KIND_DIAGNOSES`] records and replay resumes from the newest valid
///   checkpoint written under a library we have (corrupt or torn records
///   simply fall back to an older checkpoint, or to cold replay).
/// * **Kill arm** — [`DurableConfig::kill_point`] returns
///   [`DurableOutcome::Killed`] mid-stream with nothing committed since
///   the last boundary; re-invoking with the same store restarts the
///   process and replays to the exact diagnoses an uninterrupted run
///   produces — zero lost, zero duplicated.
/// * **Reload arm** — each [`LibraryReload`] checkpoints, appends the
///   snapshot, and re-enters with the extended library; in-flight windows
///   survive in the checkpoint and the new fingerprints match from the
///   next snapshot freeze on. An *empty* delta (snapshot identical in
///   coverage) leaves the output byte-identical to no reload at all.
pub fn run_service_durable(
    lib: &FingerprintLibrary,
    gcfg: GretelConfig,
    nodes: &[NodeId],
    traffic: &[Message],
    cfg: &DurableConfig,
    store: &mut dyn Store,
) -> Result<DurableOutcome, ServiceError> {
    run_durable_routed(lib, gcfg, nodes, traffic, cfg, store, UNSHARDED)
}

/// [`run_service_durable`] for one partition of a sharded run: the agents
/// forward only what routes to `route`.
pub(crate) fn run_durable_routed(
    lib: &FingerprintLibrary,
    gcfg: GretelConfig,
    nodes: &[NodeId],
    traffic: &[Message],
    cfg: &DurableConfig,
    store: &mut dyn Store,
    route: Route,
) -> Result<DurableOutcome, ServiceError> {
    assert!(cfg.recovery.checkpoint_every > 0);
    assert!(cfg.recovery.max_attempts > 0);
    let metrics = cfg.recovery.service.metrics.as_deref();

    // ---- Library bootstrap ----------------------------------------------
    let latest_snapshot = store.latest_valid(KIND_LIBRARY).map(<[u8]>::to_vec);
    let base_snapshot = lib.to_snapshot();
    let mut cur: Option<FingerprintLibrary> = None;
    let mut need_base_record = true;
    if let Some(snap) = latest_snapshot {
        if snap == base_snapshot {
            need_base_record = false;
        } else {
            let stored = FingerprintLibrary::from_snapshot(lib.catalog().clone(), &snap)?;
            if stored.len() >= lib.len() {
                // A previous lifetime hot-reloaded past our base: its
                // library is the truth now.
                cur = Some(stored);
                need_base_record = false;
            }
            // A stored snapshot *smaller* than the base is stale (the
            // caller characterized more operations offline): the base
            // supersedes it below.
        }
    }
    if need_base_record {
        store.append(KIND_LIBRARY, &base_snapshot)?;
        store.sync()?;
        if let Some(m) = metrics {
            m.add(gretel_obs::Meter::StoreBytes, base_snapshot.len() as u64);
        }
    }

    let mut state = RunState::new(Some(store), cfg.kill_point, cfg.reloads.clone())?;

    // ---- Library epochs --------------------------------------------------
    loop {
        let mut analyzer = Analyzer::new(cur.as_ref().unwrap_or(lib), gcfg);
        state.initial_state = analyzer
            .export_state()
            .ok_or(ServiceError::NotCheckpointable)?;
        match run_cycle(
            &mut analyzer,
            nodes,
            traffic,
            &cfg.recovery,
            route,
            &mut state,
        )? {
            RunEnd::Completed => {
                return Ok(DurableOutcome::Completed {
                    diagnoses: state.diagnoses,
                    service: state.service_stats,
                    analyzer: analyzer.stats(),
                    recovery: state.stats,
                    graph: analyzer.traffic_graph().clone(),
                });
            }
            RunEnd::Killed => {
                return Ok(DurableOutcome::Killed {
                    service: state.service_stats,
                    recovery: state.stats,
                });
            }
            // Next epoch restores from the boundary checkpoint the reload
            // just wrote — in-flight windows survive.
            RunEnd::Reload(snapshot) => {
                cur = Some(FingerprintLibrary::from_snapshot(
                    lib.catalog().clone(),
                    &snapshot,
                )?);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_store::MemStore;

    #[test]
    fn chaos_coins_are_deterministic_and_gated() {
        let chaos = AnalyzerChaos {
            kill_prob: 1.0,
            ..AnalyzerChaos::none()
        };
        assert!(chaos.kill(7, 0));
        assert!(chaos.kill(7, 1));
        assert!(
            !chaos.kill(7, 2),
            "kill coin never fires past kill_attempts"
        );
        assert!(!AnalyzerChaos::none().kill(7, 0));
        assert!(AnalyzerChaos::none().is_noop());
        let a = AnalyzerChaos {
            stall_prob: 0.5,
            seed: 9,
            ..AnalyzerChaos::none()
        };
        for seq in 0..64 {
            assert_eq!(a.stall(seq, 0), a.stall(seq, 0));
        }
    }

    fn test_lib() -> FingerprintLibrary {
        let cat = gretel_model::Catalog::openstack();
        let dep = gretel_sim::Deployment::standard();
        let wf = gretel_model::Workflows::new(cat.clone());
        let specs = vec![wf.vm_create_spec(gretel_model::OpSpecId(0))];
        crate::fingerprint::FingerprintLibrary::characterize(cat, &specs, &dep, 1, 1).0
    }

    #[test]
    fn empty_traffic_completes_without_checkpoints() {
        let lib = test_lib();
        let gcfg = crate::config::GretelConfig {
            alpha: 8,
            ..Default::default()
        };
        let out = run_service_durable(
            &lib,
            gcfg,
            &[NodeId(0), NodeId(1)],
            &[],
            &DurableConfig::default(),
            &mut MemStore::new(),
        )
        .expect("empty run completes");
        let DurableOutcome::Completed {
            diagnoses,
            service,
            recovery,
            ..
        } = out
        else {
            panic!("no kill point configured")
        };
        assert!(diagnoses.is_empty());
        assert_eq!(service.frames, 0);
        assert_eq!(recovery, RecoveryStats::default());
    }

    #[test]
    fn durable_empty_run_bootstraps_the_library_record_once() {
        let lib = test_lib();
        let gcfg = crate::config::GretelConfig {
            alpha: 8,
            ..Default::default()
        };
        let mut store = MemStore::new();
        for _ in 0..2 {
            let out = run_service_durable(
                &lib,
                gcfg,
                &[NodeId(0)],
                &[],
                &DurableConfig::default(),
                &mut store,
            )
            .expect("empty durable run completes");
            match out {
                DurableOutcome::Completed {
                    diagnoses,
                    recovery,
                    ..
                } => {
                    assert!(diagnoses.is_empty());
                    assert_eq!(recovery.library_reloads, 0);
                }
                DurableOutcome::Killed { .. } => panic!("no kill point configured"),
            }
        }
        // Re-running over the same store adopts the existing base record
        // instead of appending a duplicate.
        assert_eq!(store.records_of(KIND_LIBRARY).len(), 1);
        assert_eq!(
            store.latest_valid(KIND_LIBRARY).unwrap(),
            lib.to_snapshot().as_slice()
        );
    }
}
