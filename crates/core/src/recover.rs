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
//!   past [`MAX_ATTEMPTS`] attempts is abandoned *visibly*: every
//!   fault it covered surfaces as a
//!   [`CaptureConfidence::Cancelled`](crate::CaptureConfidence::Cancelled)
//!   diagnosis.
//! * **Checkpoint/replay** — every [`RecoveryConfig::checkpoint_every`]
//!   merged messages the service quiesces the pool and appends one boundary
//!   record to a checksummed [`Store`]. The first boundary, and any boundary
//!   whose deltas since the last base outweigh that base, writes a base
//!   ([`KIND_CHECKPOINT`]: analyzer window, pairer, perf detectors, traffic
//!   graph); every other boundary writes a delta ([`KIND_DELTA`]): the
//!   messages merged since the previous boundary, about 56 bytes each. Both
//!   carry the per-agent resequencer positions and ready queues and the next
//!   job sequence number, and the jobs released at the boundary with their
//!   diagnoses: one record, under one checksum, holds both the output and
//!   the state that makes it unrepeatable. After a crash the service finds
//!   `g`, the first job of which no valid record holds a copy, restores the
//!   newest valid base at or before `g`, replays each later valid delta
//!   that continues where the analyzer stands through the same ingest, and
//!   the agents re-ship their deterministic streams; the restored
//!   resequencers discard the already-consumed prefix as duplicates, and
//!   the jobs below `g` are suppressed, so a crash or a damaged record can
//!   neither lose nor duplicate a diagnosis.
//! * **Durability** — [`run_service_durable`] takes any [`Store`] and one
//!   invocation is one process lifetime. There is one crash arm,
//!   [`DurableConfig::kill_point`]: the invocation dies with nothing
//!   committed since the last boundary, and the driver re-invokes over the
//!   same store — the same [`MemStore`](gretel_store::MemStore) value, or a
//!   reopened [`FileStore`](gretel_store::FileStore) directory. The new
//!   lifetime re-derives the released-diagnosis watermark `g` from the
//!   jobs every valid record holds, restores the newest valid base at or
//!   before it and that base's chain, and replays to byte-identical output. Store corruption is not an engine
//!   arm at all: a driver flips or tears bytes between two lifetimes, as a
//!   bad disk would.
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
    /// job, per `(job, attempt)` — only on its first [`KILL_ATTEMPTS`]
    /// attempts, so a job survives its retry budget and the run still
    /// produces its full output.
    pub kill_prob: f64,
    /// Probability that a job stalls and is cancelled (a job without
    /// faults has nothing to cancel and completes as usual).
    pub stall_prob: f64,
    /// Seed for all coins.
    pub seed: u64,
}

/// Leading attempts at a job the kill coin may fire on: a job can crash
/// its worker at attempts 0 and 1 and then completes at attempt 2.
pub const KILL_ATTEMPTS: u32 = 2;

/// Attempts at a job before it is abandoned and its faults surface as
/// `Cancelled` diagnoses.
pub const MAX_ATTEMPTS: u32 = 5;

// Chaos kills must leave a job an attempt to complete on, or the chaos
// oracle (identical output) cannot hold.
const _: () = assert!(KILL_ATTEMPTS < MAX_ATTEMPTS);

const SALT_KILL: u64 = 21;
const SALT_STALL: u64 = 22;

impl AnalyzerChaos {
    /// No chaos at all.
    pub fn none() -> AnalyzerChaos {
        AnalyzerChaos {
            kill_prob: 0.0,
            stall_prob: 0.0,
            seed: 0,
        }
    }

    pub(crate) fn kill(&self, seq: u64, attempt: u32) -> bool {
        attempt < KILL_ATTEMPTS && coin(self.seed, seq, attempt as u64, SALT_KILL) < self.kill_prob
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
    /// End a checkpoint interval — one boundary record holding the
    /// interval's release, and a sync request — every this many merged
    /// messages.
    pub checkpoint_every: u64,
    /// Seeded analysis-plane fault injection. Its coins are pure functions
    /// of `(job, attempt)`, so replay kills and cancels exactly the jobs
    /// the original run did.
    pub chaos: AnalyzerChaos,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            service: ServiceConfig::default(),
            checkpoint_every: 256,
            chaos: AnalyzerChaos::none(),
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
    /// Boundary records (bases and deltas) appended to the store.
    pub checkpoints_written: u64,
    /// Syncs the cycle's sync thread ran. Each covers every record
    /// appended before it started, so a lifetime runs at least one (its
    /// last record's) and at most one per boundary plus the final
    /// release's.
    pub syncs: u64,
    /// Times this invocation resumed from a base: 1 when the store held a
    /// valid one (a restart after a kill), else 0. A cold start is not a
    /// restore.
    pub restores: u64,
    /// Replayed frames discarded by restored resequencers as
    /// already-consumed duplicates.
    pub replayed_frames: u64,
    /// Jobs regenerated during replay that already had a copy on the store
    /// (the restore stood short of them: a damaged record forced an older
    /// restore point, or the store held a completed run); suppressed so
    /// the output holds each diagnosis exactly once.
    pub duplicate_releases_suppressed: u64,
}

impl RecoveryStats {
    /// Add another lifetime's counters: a kill driver sums them over the
    /// invocations of one run.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.worker_crashes += other.worker_crashes;
        self.jobs_requeued += other.jobs_requeued;
        self.jobs_cancelled += other.jobs_cancelled;
        self.checkpoints_written += other.checkpoints_written;
        self.syncs += other.syncs;
        self.restores += other.restores;
        self.replayed_frames += other.replayed_frames;
        self.duplicate_releases_suppressed += other.duplicate_releases_suppressed;
    }
}

/// Store record kind: a base, the full ingest state at one boundary.
pub const KIND_CHECKPOINT: u8 = 1;
/// Store record kind: the jobs released at end of stream, after the last
/// boundary, plus the release watermark. A boundary record carries its own
/// release.
pub const KIND_DIAGNOSES: u8 = 2;
/// Store record kind: a delta, the input merged since the previous
/// boundary.
pub const KIND_DELTA: u8 = 3;
/// Configuration for [`run_service_durable`]: the recovery shape plus the
/// kill arm.
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
}

/// How a [`run_service_durable`] invocation ended.
#[derive(Debug)]
pub enum DurableOutcome {
    /// The stream fully merged; all diagnoses are committed on the store.
    Completed {
        /// Released diagnoses, ordered by job sequence (read back from
        /// the releases of the store's valid records, the first copy of
        /// each job).
        diagnoses: Vec<Diagnosis>,
        /// Transport statistics. Replay-inflated: `frames` counts every
        /// shipped frame including those re-shipped after a crash (also
        /// visible as [`RecoveryStats::replayed_frames`] and the capture
        /// stats' `dup_discarded`); diagnoses and analyzer counters are not.
        service: ServiceStats,
        /// Analyzer counters.
        analyzer: AnalyzerStats,
        /// Supervision/recovery counters for this invocation.
        recovery: RecoveryStats,
        /// The traffic graph the analyzer mined from what it actually
        /// observed. It rides in every checkpoint, so kills neither lose
        /// nor double-count an edge.
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
/// * **Restore** — the release watermark `g` is re-derived as the first
///   job of which no valid record holds a copy, and replay resumes from
///   the newest valid base at or before `g` plus the deltas that chain
///   onto it (a damaged record ends the chain before its interval unless a
///   later lifetime re-wrote it; a damaged base falls back to an older
///   base and its chain, or to cold replay). The analyzer is built fresh,
///   *without* root cause analysis.
/// * **Kill arm** — [`DurableConfig::kill_point`] returns
///   [`DurableOutcome::Killed`] mid-stream with nothing committed since
///   the last boundary; re-invoking with the same store restarts the
///   process and replays to the exact diagnoses an uninterrupted run
///   produces — zero lost, zero duplicated.
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
    let mut analyzer = Analyzer::new(lib, gcfg);
    let mut state = RunState::new(Some(store), cfg.kill_point);
    let end = run_cycle(
        &mut analyzer,
        nodes,
        traffic,
        &cfg.recovery,
        route,
        &mut state,
    )?;
    Ok(match end {
        RunEnd::Completed => DurableOutcome::Completed {
            diagnoses: state.diagnoses,
            service: state.service_stats,
            analyzer: analyzer.stats(),
            recovery: state.stats,
            graph: analyzer.traffic_graph().clone(),
        },
        RunEnd::Killed => DurableOutcome::Killed {
            service: state.service_stats,
            recovery: state.stats,
        },
    })
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
            "kill coin never fires past KILL_ATTEMPTS"
        );
        assert!(!AnalyzerChaos::none().kill(7, 0));
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
        let mut store = MemStore::new();
        let out = run_service_durable(
            &lib,
            gcfg,
            &[NodeId(0), NodeId(1)],
            &[],
            &DurableConfig::default(),
            &mut store,
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
        // One sync, the final release's, and nothing else.
        let synced = RecoveryStats {
            syncs: 1,
            ..RecoveryStats::default()
        };
        assert_eq!(recovery, synced);
        // The log holds what a restart reads and nothing else: here the
        // one final release record, empty, with its watermark.
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.records_of(KIND_DIAGNOSES),
            [crate::checkpoint::encode_release(0, &[]).as_slice()]
        );
    }
}
