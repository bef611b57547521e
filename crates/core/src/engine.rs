//! The pipeline engine: the one capture → receive → resequence → k-way
//! merge → ingest → analysis-pool loop behind every `run_*` entry point
//! (paper Fig 3: agents that filter at the tap, one event receiver feeding
//! one analyzer).
//!
//! **Capture is one pass.** One capture-agent thread per node walks the
//! traffic slice once. It is a filter: it forwards a message iff it
//! observes it (egress capture, relevance) *and* the message routes to this
//! pipeline's partition ([`Route`]; [`UNSHARDED`] forwards everything), so a
//! sharded run hands every shard the same slice and copies nothing. Each
//! forwarded message is encoded exactly once, straight into the arena of the
//! [`FrameBatch`] it ships in, and the batch goes out over a bounded link
//! the moment it fills; a full link blocks the agent, as TCP does. There is
//! one such loop ([`ship_frames`]). A configured
//! [`CaptureImpairment`](gretel_netcap::CaptureImpairment) permutes the
//! agent's `(sequence number, message)` pairs before they reach it — its
//! coins key on whole-stream positions, never on bytes — so an impaired
//! agent encodes its survivors exactly as an unimpaired one encodes its
//! whole capture.
//!
//! The receiver thread decodes each batch zero-copy, resequences it when
//! frames are sequence-stamped, scans it for failure patterns in one
//! batch-wide pass, k-way merges the per-agent streams on `(ts, id)` and
//! drives the [`Analyzer`]. Completed snapshots ship as jobs to a supervised
//! worker [`Pool`]; results are released in job-sequence order, so the
//! output equals inline analysis whatever the scheduling.
//!
//! The engine runs with or without a [`Store`]:
//!
//! * **without** ([`run_plain`], i.e. `run_service_cfg` and the plain
//!   shards) it never checkpoints or restores and releases every diagnosis
//!   at end of stream;
//! * **with** one (`run_service_durable`, the durable shards) it restores
//!   the newest usable checkpoint, writes a checkpoint boundary every
//!   [`RecoveryConfig::checkpoint_every`] merged messages, and honours the
//!   kill arm. Released diagnoses travel as their
//!   own [`KIND_DIAGNOSES`] records, written immediately *before* the
//!   checkpoint that makes them unrepeatable — so a crash can neither lose
//!   nor duplicate a diagnosis.
//!
//! Whether frames are sequence-stamped is derived, never set: a store
//! (replay dedups the re-shipped prefix by sequence number) or an
//! impairment (the receiver must see what went missing) needs it. Stamping
//! is an argument to the encoder, not a second capture path.

use crate::analyzer::{Analyzer, AnalyzerStats, SnapshotAnalyzer, SnapshotJob};
use crate::anomaly::scan_message;
use crate::checkpoint::{
    decode_checkpoint, decode_release, encode_checkpoint, encode_release, AgentCheckpoint,
    EngineCheckpoint,
};
use crate::event::FaultMark;
use crate::recover::{
    AnalyzerChaos, RecoveryConfig, RecoveryStats, KIND_CHECKPOINT, KIND_DIAGNOSES,
};
use crate::report::Diagnosis;
use crate::service::{ServiceConfig, ServiceError, ServiceStats};
use crossbeam_channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use gretel_model::codec::DecodeError;
use gretel_model::{Message, NodeId};
use gretel_netcap::{
    decode_one, encode, shard_of, CaptureAgent, CaptureStats, FrameBatch, FrameBatchBuilder,
    Resequencer,
};
use gretel_obs::{PipelineMetrics, Stage, StageTimer};
use gretel_store::{records, Record, Store};
use std::collections::{BTreeMap, VecDeque};
use std::thread::Scope;
use std::time::Duration;

/// One agent's decoded stream at the receiver: batches are decoded
/// zero-copy out of their arena, resequenced (when sequenced) into
/// `(gap_before, message)` pairs, scanned for failure patterns in one
/// batch-wide pass, and buffered until the k-way merge consumes them.
struct AgentStream {
    reseq: Option<Resequencer>,
    ready: VecDeque<(u32, Message, FaultMark)>,
    done: bool,
}

impl AgentStream {
    fn new(reseq: Option<Resequencer>) -> AgentStream {
        AgentStream {
            reseq,
            ready: VecDeque::new(),
            done: false,
        }
    }

    /// Scan a run of released messages (one decoded batch's worth) and
    /// queue them for the merge. This is the batch-wide fault-scan pass:
    /// the SWAR scanners run back to back over the released messages
    /// while they are cache-hot, instead of interleaving with merge and
    /// window work per message. The scan is pure, so the marks are the
    /// ones inline ingest would have computed — and the ones a restore
    /// recomputes.
    fn admit(&mut self, released: impl IntoIterator<Item = (u32, Message)>) {
        for (gap, msg) in released {
            let mark = scan_message(&msg);
            self.ready.push_back((gap, msg, mark));
        }
    }

    /// Pull batches until at least one message is ready or the stream ends.
    fn refill(
        &mut self,
        rx: &Receiver<FrameBatch>,
        stats: &mut ServiceStats,
        metrics: Option<&PipelineMetrics>,
    ) -> Result<(), ServiceError> {
        while self.ready.is_empty() && !self.done {
            match rx.recv() {
                Ok(batch) => {
                    stats.channel_ops += 1;
                    stats.frames += batch.frames() as u64;
                    stats.bytes += batch.byte_len() as u64;
                    let decoded = batch.decode_all()?;
                    match &mut self.reseq {
                        Some(r) => {
                            // One timing sample per batch, one counted
                            // event per frame: stage latencies show the
                            // batch-level dispatch cost while event counts
                            // stay per-item (see gretel-obs).
                            let n = decoded.len() as u64;
                            let mut released = Vec::with_capacity(decoded.len());
                            let t = StageTimer::start(metrics, Stage::Resequence);
                            for (msg, seq) in decoded {
                                released.extend(r.try_push(seq, msg)?);
                            }
                            t.finish();
                            if let Some(m) = metrics {
                                m.count(Stage::Resequence, n);
                            }
                            self.admit(released);
                        }
                        None => self.admit(decoded.into_iter().map(|(msg, _)| (0, msg))),
                    }
                }
                Err(_) => {
                    self.done = true;
                    if let Some(r) = &mut self.reseq {
                        let released = r.flush();
                        self.admit(released);
                    }
                }
            }
        }
        Ok(())
    }
}

/// The stream whose head is next in `(ts, id)` order. Each stream is
/// already ordered (the resequencer restores per-agent order under
/// impairment), so the k-way merge only compares stream heads.
fn next_head(streams: &[AgentStream]) -> Option<usize> {
    let mut best = None;
    for (i, st) in streams.iter().enumerate() {
        if let Some((_, m, _)) = st.ready.front() {
            let key = (m.ts_us, m.id);
            if best.is_none_or(|(_, b)| key < b) {
                best = Some((i, key));
            }
        }
    }
    best.map(|(i, _)| i)
}

/// Which tenants a pipeline's agents forward: `(shard, of)` — the messages
/// [`shard_of`] routes to partition `shard` out of `of`.
pub(crate) type Route = (usize, usize);

/// The unsharded pipeline: one partition, which every message routes to.
pub(crate) const UNSHARDED: Route = (0, 1);

/// The one pack-and-ship loop: encode each `(seq, message)` straight into
/// the arena of the batch it ships in (stamped when `sequenced`) and send
/// every batch the moment it fills. A full link blocks the send; the loop
/// stops early only if the receiver went away.
fn ship_frames<'m>(
    frames: impl IntoIterator<Item = (u64, &'m Message)>,
    sequenced: bool,
    ingest_batch: usize,
    tx: &Sender<FrameBatch>,
) {
    let mut builder = FrameBatchBuilder::new(ingest_batch);
    for (seq, msg) in frames {
        if let Some(batch) = builder.encode(msg, sequenced.then_some(seq)) {
            if tx.send(batch).is_err() {
                return;
            }
        }
    }
    if let Some(batch) = builder.finish() {
        let _ = tx.send(batch);
    }
}

/// Spawn `node`'s capture agent and return the receiver end of its bounded
/// link (batches, not frames). The agent is a filter over the tap: it walks
/// `traffic` once and forwards a message iff it observes it *and* the
/// message routes to this pipeline's partition, so a sharded run hands every
/// shard the same slice and nothing is copied per shard. It ships its whole
/// deterministic stream, reports its capture stats on `stat_tx`, then
/// closes the link. The agent holds no receiver handle, so a receiver that
/// hangs up unblocks it.
fn spawn_agent<'sc, 'env>(
    scope: &'sc Scope<'sc, 'env>,
    node: NodeId,
    traffic: &'env [Message],
    cfg: &ServiceConfig,
    sequenced: bool,
    (shard, of): Route,
    stat_tx: Sender<CaptureStats>,
) -> Receiver<FrameBatch> {
    let (tx, rx) = bounded::<FrameBatch>(cfg.channel_capacity);
    let impairment = cfg.impairment;
    let ingest_batch = cfg.ingest_batch;
    scope.spawn(move || {
        let agent = CaptureAgent::new(node);
        let mut capture = CaptureStats::default();
        let mine = traffic
            .iter()
            .filter(|m| agent.observes(m) && shard_of(m.project, of) == shard)
            .enumerate()
            .map(|(i, m)| (i as u64, m));
        match impairment {
            // The impairment's coins key on whole-stream positions, so it
            // sees the agent's pairs at once; it never reads a byte.
            Some(imp) => {
                let survivors = imp.apply(node, mine.collect(), &mut capture);
                ship_frames(survivors, sequenced, ingest_batch, &tx);
            }
            None => {
                let counted = mine.inspect(|_| capture.frames += 1);
                ship_frames(counted, sequenced, ingest_batch, &tx);
            }
        }
        let _ = stat_tx.send(capture);
        // tx drops here, closing the stream.
    });
    rx
}

/// The receiver's half of a checkpoint: each agent's resequencer and the
/// messages it released that the merge has not consumed yet. Their fault
/// marks are not stored: the scan is a pure function of the message, so
/// restore recomputes identical marks.
fn agent_checkpoints(streams: &[AgentStream]) -> Vec<AgentCheckpoint> {
    streams
        .iter()
        .map(|st| AgentCheckpoint {
            resequencer: st
                .reseq
                .as_ref()
                .expect("store-backed runs are sequenced")
                .export_state(),
            parked: st
                .ready
                .iter()
                .map(|(gap, msg, _mark)| (*gap, encode(msg).to_vec()))
                .collect(),
        })
        .collect()
}

/// Rebuild the receiver streams a checkpoint describes. `done` is not
/// stored: replay closes every stream again.
fn restore_streams(
    agents: &[AgentCheckpoint],
    n_agents: usize,
) -> Result<Vec<AgentStream>, ServiceError> {
    if agents.len() != n_agents {
        return Err(DecodeError::Invalid("checkpoint agent count").into());
    }
    agents
        .iter()
        .map(|agent| {
            let mut st = AgentStream::new(Some(Resequencer::restore_state(&agent.resequencer)?));
            for (gap, frame) in &agent.parked {
                st.admit([(*gap, decode_one(frame)?)]);
            }
            Ok(st)
        })
        .collect()
}

/// The release watermark a restarted process must honor: the maximum
/// `up_to` over every valid [`KIND_DIAGNOSES`] record on the store.
fn store_watermark(store: &dyn Store) -> Result<u64, ServiceError> {
    let mut w = 0u64;
    for payload in store.records_of(KIND_DIAGNOSES) {
        let (up_to, _) = decode_release(payload)?;
        w = w.max(up_to);
    }
    Ok(w)
}

/// Collect the run's output from the store: every released diagnosis,
/// ordered by job sequence number. Jobs are deduplicated by sequence
/// (first record wins) as defense in depth; the watermark protocol means
/// duplicates never reach the store in the first place.
fn read_diagnoses(store: &dyn Store) -> Result<Vec<Diagnosis>, ServiceError> {
    let mut by_seq: BTreeMap<u64, Vec<Diagnosis>> = BTreeMap::new();
    for payload in store.records_of(KIND_DIAGNOSES) {
        let (_, jobs) = decode_release(payload)?;
        for (seq, ds) in jobs {
            by_seq.entry(seq).or_insert(ds);
        }
    }
    Ok(by_seq.into_values().flatten().collect())
}

type JobMsg = (u64, u32, SnapshotJob);

/// What a worker tells the supervisor about one job.
enum Report {
    /// `(seq, diagnoses, cancelled)`: the job resolved.
    Done(u64, Vec<Diagnosis>, bool),
    /// The worker died holding this job.
    Crashed(JobMsg),
}

/// Marker panic payload for a chaos-killed worker; raised with
/// `resume_unwind` so the panic hook (and its stderr backtrace) is
/// skipped — the supervisor handles the crash, nobody needs the noise.
struct ChaosKill;

/// The worker pool plus its supervisor state. The receiver thread owns
/// this and *is* the supervisor: it handles worker reports around job
/// submissions, restarts dead workers with capped exponential backoff, and
/// requeues their in-flight jobs. With [`AnalyzerChaos::none`] a worker is
/// plain [`SnapshotAnalyzer::analyze`] inside a panic boundary.
struct Pool<'sc, 'env> {
    scope: &'sc Scope<'sc, 'env>,
    job_tx: Sender<JobMsg>,
    /// Held only to hand clones to respawned workers (never received
    /// from), so the job channel cannot disconnect while jobs are queued.
    job_rx: Receiver<JobMsg>,
    /// Unbounded: the supervisor drains it only around submissions, so a
    /// bounded link could wedge the pool (workers blocked on full reports
    /// ⇒ jobs pile up ⇒ receiver blocked). The pool's own sender keeps it
    /// connected, and is what respawned workers clone.
    report_tx: Sender<Report>,
    report_rx: Receiver<Report>,
    sa: SnapshotAnalyzer<'env>,
    chaos: AnalyzerChaos,
    max_attempts: u32,
    metrics: Option<&'env PipelineMetrics>,
    /// Jobs submitted but not yet resolved into `pending`.
    outstanding: usize,
    /// Resolved results by job sequence number: `(diagnoses, cancelled)`.
    pending: BTreeMap<u64, (Vec<Diagnosis>, bool)>,
    worker_crashes: u64,
    jobs_requeued: u64,
}

impl<'sc, 'env> Pool<'sc, 'env> {
    /// Bring up `workers` supervised workers on `scope`.
    fn start(
        scope: &'sc Scope<'sc, 'env>,
        sa: SnapshotAnalyzer<'env>,
        cfg: &RecoveryConfig,
        workers: usize,
        metrics: Option<&'env PipelineMetrics>,
    ) -> Pool<'sc, 'env> {
        let (job_tx, job_rx) = bounded::<JobMsg>(cfg.service.channel_capacity);
        let (report_tx, report_rx) = unbounded::<Report>();
        let pool = Pool {
            scope,
            job_tx,
            job_rx,
            report_tx,
            report_rx,
            sa,
            chaos: cfg.chaos,
            max_attempts: cfg.max_attempts,
            metrics,
            outstanding: 0,
            pending: BTreeMap::new(),
            worker_crashes: 0,
            jobs_requeued: 0,
        };
        for _ in 0..workers {
            pool.spawn_worker();
        }
        pool
    }

    fn spawn_worker(&self) {
        let job_rx = self.job_rx.clone();
        let report_tx = self.report_tx.clone();
        let sa = self.sa;
        let chaos = self.chaos;
        self.scope.spawn(move || {
            while let Ok((seq, attempt, job)) = job_rx.recv() {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if chaos.kill(seq, attempt) {
                        std::panic::resume_unwind(Box::new(ChaosKill));
                    }
                    // A stalled job is cancelled. The stall coin is
                    // seeded, so the cancellation replays identically; a
                    // job without faults has nothing to cancel.
                    if chaos.stall(seq, attempt) && job.has_faults() {
                        (sa.cancel(&job), true)
                    } else {
                        (sa.analyze(&job), false)
                    }
                }));
                match outcome {
                    Ok((ds, cancelled)) => {
                        if report_tx.send(Report::Done(seq, ds, cancelled)).is_err() {
                            return; // collector gone (teardown)
                        }
                    }
                    Err(_) => {
                        // The worker is now considered crashed: report the
                        // in-flight job and die. The supervisor restarts us.
                        let _ = report_tx.send(Report::Crashed((seq, attempt, job)));
                        return;
                    }
                }
            }
        });
    }

    /// Handle one crash report: restart the worker (after backoff) and
    /// requeue or abandon the job.
    fn handle_crash(&mut self, (seq, attempt, job): JobMsg) -> Result<(), ServiceError> {
        self.worker_crashes += 1;
        // Capped exponential backoff before the replacement worker comes
        // up: 100µs · 2^attempt, at most 10ms — enough to not hot-loop on
        // a deterministic crasher, short enough for tests.
        let backoff = Duration::from_micros(100 << attempt.min(7)).min(Duration::from_millis(10));
        std::thread::sleep(backoff);
        self.spawn_worker();
        if attempt + 1 < self.max_attempts {
            self.jobs_requeued += 1;
            self.submit_raw(seq, attempt + 1, job)
        } else {
            // Retry budget exhausted: abandon visibly. The supervisor
            // produces the cancellation surface itself — no worker needed.
            self.pending.insert(seq, (self.sa.cancel(&job), true));
            self.outstanding -= 1;
            Ok(())
        }
    }

    fn handle(&mut self, report: Report) -> Result<(), ServiceError> {
        match report {
            Report::Done(seq, ds, cancelled) => {
                self.pending.insert(seq, (ds, cancelled));
                self.outstanding -= 1;
                Ok(())
            }
            Report::Crashed(job) => self.handle_crash(job),
        }
    }

    /// Handle whatever reports are immediately available. Runs after each
    /// submission and inside the full-queue retry — not per merged message:
    /// the report channel is unbounded, so deferring cannot wedge a worker.
    fn pump(&mut self) -> Result<(), ServiceError> {
        while let Ok(report) = self.report_rx.try_recv() {
            self.handle(report)?;
        }
        Ok(())
    }

    fn submit_raw(&mut self, seq: u64, attempt: u32, job: SnapshotJob) -> Result<(), ServiceError> {
        let mut msg = (seq, attempt, job);
        loop {
            match self.job_tx.try_send(msg) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(m)) => {
                    msg = m;
                    // Make room: resolve results / crashes while the pool
                    // catches up.
                    self.pump()?;
                    std::thread::yield_now();
                }
                Err(TrySendError::Disconnected(_)) => return Err(ServiceError::PoolDisconnected),
            }
        }
    }

    /// Submit a fresh job (attempt 0).
    fn submit(&mut self, seq: u64, job: SnapshotJob) -> Result<(), ServiceError> {
        self.outstanding += 1;
        self.submit_raw(seq, 0, job)?;
        self.pump()
    }

    /// Block until every submitted job has resolved into `pending`. Every
    /// outstanding job is held by a live worker or sits in a queue one will
    /// drain, and a worker always reports before it lets go of a job, so the
    /// blocking receive cannot wait forever.
    fn quiesce(&mut self) -> Result<(), ServiceError> {
        while self.outstanding > 0 {
            let report = self
                .report_rx
                .recv()
                .map_err(|_| ServiceError::PoolDisconnected)?;
            self.handle(report)?;
        }
        Ok(())
    }
}

/// Supervisor state threaded through [`run_cycle`]: the store, the kill
/// point, the counters and the run's output.
pub(crate) struct RunState<'a> {
    /// `None` on the store-less path: no checkpoint, no restore, and
    /// releases go straight to `diagnoses`.
    store: Option<&'a mut dyn Store>,
    pub(crate) stats: RecoveryStats,
    pub(crate) service_stats: ServiceStats,
    /// The run's output, complete once [`run_cycle`] returns
    /// [`RunEnd::Completed`]: every released diagnosis in job-sequence
    /// order (read back from the [`KIND_DIAGNOSES`] records when there is a
    /// store).
    pub(crate) diagnoses: Vec<Diagnosis>,
    /// Job seqs below this have been released; replay must not re-release.
    released_watermark: u64,
    kill_point: Option<u64>,
}

impl<'a> RunState<'a> {
    pub(crate) fn new(
        store: Option<&'a mut dyn Store>,
        kill_point: Option<u64>,
    ) -> Result<RunState<'a>, ServiceError> {
        let released_watermark = match &store {
            Some(s) => store_watermark(&**s)?,
            None => 0,
        };
        Ok(RunState {
            store,
            stats: RecoveryStats::default(),
            service_stats: ServiceStats::default(),
            diagnoses: Vec::new(),
            released_watermark,
            kill_point,
        })
    }
}

/// How [`run_cycle`] ended.
pub(crate) enum RunEnd {
    /// Stream fully merged, all jobs resolved and committed.
    Completed,
    /// The scheduled kill fired: uncommitted state was discarded, and the
    /// next lifetime restores from the store.
    Killed,
}

/// Release every pending result below `up_to`, suppressing
/// already-released duplicates: as one [`KIND_DIAGNOSES`] store record, or
/// straight into [`RunState::diagnoses`] without a store. The record is
/// written even when the batch is empty: the watermark it carries must
/// survive a process restart.
fn commit_release(
    pool: &mut Pool<'_, '_>,
    up_to: u64,
    st: &mut RunState<'_>,
) -> Result<(), ServiceError> {
    let metrics = pool.metrics;
    let t = StageTimer::start(metrics, Stage::Commit);
    let mut released = 0u64;
    let mut jobs: Vec<(u64, Vec<Diagnosis>)> = Vec::new();
    while pool
        .pending
        .first_key_value()
        .is_some_and(|(&seq, _)| seq < up_to)
    {
        let (seq, (ds, cancelled)) = pool.pending.pop_first().expect("checked non-empty");
        if seq < st.released_watermark {
            st.stats.duplicate_releases_suppressed += 1;
            continue;
        }
        if cancelled {
            st.stats.jobs_cancelled += 1;
        }
        released += ds.len() as u64;
        jobs.push((seq, ds));
    }
    match &mut st.store {
        Some(store) => {
            let payload = encode_release(up_to, &jobs);
            store.append(KIND_DIAGNOSES, &payload)?;
        }
        None => st.diagnoses.extend(jobs.into_iter().flat_map(|(_, ds)| ds)),
    }
    st.released_watermark = st.released_watermark.max(up_to);
    t.finish();
    if let Some(m) = metrics {
        m.count(Stage::Commit, released);
    }
    Ok(())
}

/// One checkpoint boundary on `store`: quiesce the pool, release pending
/// diagnoses ([`KIND_DIAGNOSES`] first — a torn tail then loses at most the
/// checkpoint, and replay regenerates nothing that was released), append
/// the checkpoint, and sync the store.
fn write_boundary(
    pool: &mut Pool<'_, '_>,
    analyzer: &Analyzer<'_>,
    streams: &[AgentStream],
    seq: u64,
    st: &mut RunState<'_>,
) -> Result<(), ServiceError> {
    pool.quiesce()?;
    commit_release(pool, seq, st)?;
    let metrics = pool.metrics;
    let store = st
        .store
        .as_mut()
        .expect("boundaries are only written to a store");
    let t = StageTimer::start(metrics, Stage::Checkpoint);
    let payload = encode_checkpoint(&EngineCheckpoint {
        analyzer: analyzer
            .export_state()
            .ok_or(ServiceError::NotCheckpointable)?,
        next_seq: seq,
        agents: agent_checkpoints(streams),
    });
    store.append(KIND_CHECKPOINT, &payload)?;
    t.finish();
    if let Some(m) = metrics {
        m.count(Stage::Checkpoint, 1);
    }
    st.stats.checkpoints_written += 1;
    store.sync()?;
    Ok(())
}

/// The engine. Restore from the newest usable checkpoint (store-backed
/// runs), then run one cycle — agents ship their deterministic streams,
/// restored resequencers dedup the already-consumed prefix — until the
/// stream completes or the kill arm ends it early.
///
/// With no chaos and no kill the output is byte-identical with or without a
/// store; with worker-kill chaos and kill-and-reinvoke it *stays*
/// identical — the oracle the recovery experiment checks. Note that
/// [`ServiceStats::frames`] counts every shipped frame including replays
/// (replayed frames also show up in [`RecoveryStats::replayed_frames`] and
/// the capture stats' `dup_discarded`), so transport stats inflate with
/// each restart while the diagnosis stream and [`AnalyzerStats`] do not.
pub(crate) fn run_cycle(
    analyzer: &mut Analyzer<'_>,
    nodes: &[NodeId],
    traffic: &[Message],
    cfg: &RecoveryConfig,
    route: Route,
    state: &mut RunState<'_>,
) -> Result<RunEnd, ServiceError> {
    assert!(cfg.service.channel_capacity > 0);
    assert!(
        cfg.service.ingest_batch >= 1,
        "a batch holds at least one frame"
    );
    let metrics = cfg.service.metrics.as_deref();
    let sequenced = state.store.is_some() || cfg.service.impairment.is_some();
    let workers = cfg.service.effective_workers();

    // ---- Restore --------------------------------------------------------
    // The newest checkpoint whose checksum verifies (corrupt or torn ones
    // fall back to an older one, or to cold replay). Find the checkpoints
    // by header, then checksum from the newest back: a restart pays for the
    // record it uses, not the log.
    let restored = match &state.store {
        Some(store) => {
            let checkpoints: Vec<Record<'_>> = records(store.bytes())
                .filter(|r| r.kind == KIND_CHECKPOINT)
                .collect();
            checkpoints
                .iter()
                .rev()
                .find(|r| r.valid())
                .map(|r| decode_checkpoint(r.payload))
                .transpose()?
        }
        None => None,
    };
    let (next_seq_start, mut streams) = match restored {
        Some(ck) => {
            let streams = restore_streams(&ck.agents, nodes.len())?;
            analyzer.restore_state(&ck.analyzer)?;
            state.stats.restores += 1;
            (ck.next_seq, streams)
        }
        None => {
            let fresh = || sequenced.then(|| Resequencer::new(cfg.service.resequence_depth));
            (0, nodes.iter().map(|_| AgentStream::new(fresh())).collect())
        }
    };
    let dup_discarded = |streams: &[AgentStream]| -> u64 {
        streams
            .iter()
            .filter_map(|s| s.reseq.as_ref())
            .map(|r| r.stats().dup_discarded)
            .sum()
    };
    let replay_base = dup_discarded(&streams);

    // ---- One cycle ------------------------------------------------------
    let snapshot_analyzer = analyzer.snapshot_analyzer().with_metrics(metrics);
    std::thread::scope(|scope| -> Result<RunEnd, ServiceError> {
        let mut pool = Pool::start(scope, snapshot_analyzer, cfg, workers, metrics);

        // Agents re-ship the whole deterministic stream every cycle and
        // report their capture-side stats at end of stream.
        let (stat_tx, stat_rx) = unbounded::<CaptureStats>();
        let rxs: Vec<Receiver<FrameBatch>> = nodes
            .iter()
            .map(|&n| {
                spawn_agent(
                    scope,
                    n,
                    traffic,
                    &cfg.service,
                    sequenced,
                    route,
                    stat_tx.clone(),
                )
            })
            .collect();
        drop(stat_tx);

        let mut seq = next_seq_start;
        let mut merged = 0u64;
        let mut ended = RunEnd::Completed;
        for (st, rx) in streams.iter_mut().zip(&rxs) {
            st.refill(rx, &mut state.service_stats, metrics)?;
        }
        loop {
            // A kill is a SIGKILL model: nothing gets checkpointed or
            // committed, the uncommitted tail dies.
            if state.kill_point.is_some_and(|p| merged >= p) {
                ended = RunEnd::Killed;
                break;
            }
            let Some(i) = next_head(&streams) else { break };
            let (gap, msg, mark) = streams[i]
                .ready
                .pop_front()
                .expect("chosen head is nonempty");
            streams[i].refill(&rxs[i], &mut state.service_stats, metrics)?;
            if gap > 0 {
                analyzer.note_capture_gap(gap);
            }
            let t = StageTimer::start(metrics, Stage::Ingest);
            let jobs = analyzer.ingest_marked(&msg, mark, metrics);
            t.finish();
            if let Some(m) = metrics {
                m.count(Stage::Ingest, 1);
            }
            for job in jobs {
                pool.submit(seq, job)?;
                seq += 1;
            }
            merged += 1;

            if state.store.is_some() && merged.is_multiple_of(cfg.checkpoint_every) {
                write_boundary(&mut pool, analyzer, &streams, seq, state)?;
            }
        }

        if matches!(ended, RunEnd::Completed) {
            for job in analyzer.finish_jobs_observed(metrics) {
                pool.submit(seq, job)?;
                seq += 1;
            }
            pool.quiesce()?;
            // Final release: the stream is exhausted, nothing can be
            // regenerated — no checkpoint needed to make it safe, but the
            // diagnoses themselves must reach the store durably.
            commit_release(&mut pool, seq, state)?;
            if let Some(store) = &mut state.store {
                store.sync()?;
                state.diagnoses = read_diagnoses(&**store)?;
            }
            for r in streams.iter().filter_map(|s| s.reseq.as_ref()) {
                state.service_stats.capture.merge(&r.stats());
            }
        }
        state.stats.worker_crashes += pool.worker_crashes;
        state.stats.jobs_requeued += pool.jobs_requeued;
        state.stats.replayed_frames += dup_discarded(&streams).saturating_sub(replay_base);

        // Teardown (on a kill this abandons in-flight work): dropping the
        // receiver ends of the agent links unblocks the agents; dropping
        // the pool's job channel ends the workers. Uncommitted pending
        // results die with `pool`. Every agent reports exactly once before
        // closing its link.
        drop(rxs);
        drop(pool);
        while let Ok(capture) = stat_rx.recv() {
            state.service_stats.capture.merge(&capture);
        }
        Ok(ended)
    })
}

/// The engine without a store: `analyzer` is driven as given (it may carry
/// RCA or an opaque perf detector — nothing is exported or restored),
/// workers run chaos-free, and the diagnoses are released in
/// job-sequence order at end of stream. A job whose analysis genuinely
/// panics is retried and, past the default
/// [`RecoveryConfig::max_attempts`], surfaced as `Cancelled` diagnoses.
pub(crate) fn run_plain(
    analyzer: &mut Analyzer<'_>,
    nodes: &[NodeId],
    traffic: &[Message],
    cfg: &ServiceConfig,
    route: Route,
) -> Result<(Vec<Diagnosis>, ServiceStats, AnalyzerStats), ServiceError> {
    let cfg = RecoveryConfig {
        service: cfg.clone(),
        ..RecoveryConfig::default()
    };
    let mut state = RunState::new(None, None)?;
    let end = run_cycle(analyzer, nodes, traffic, &cfg, route, &mut state)?;
    debug_assert!(
        matches!(end, RunEnd::Completed),
        "no kill arm without a store"
    );
    Ok((state.diagnoses, state.service_stats, analyzer.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_store::MemStore;

    #[test]
    fn release_records_carry_the_watermark_across_restarts() {
        let mut store = MemStore::new();
        assert_eq!(store_watermark(&store).unwrap(), 0);
        store
            .append(
                KIND_DIAGNOSES,
                &encode_release(3, &[(0, vec![]), (2, vec![])]),
            )
            .unwrap();
        store
            .append(KIND_DIAGNOSES, &encode_release(5, &[(4, vec![])]))
            .unwrap();
        // An empty release still advances the durable watermark.
        store
            .append(KIND_DIAGNOSES, &encode_release(9, &[]))
            .unwrap();
        assert_eq!(store_watermark(&store).unwrap(), 9);
        assert!(read_diagnoses(&store).unwrap().is_empty());
    }

    /// The fingerprint library and the last snapshot job of a faulted
    /// vm-create run.
    fn faulted_job() -> (crate::fingerprint::FingerprintLibrary, SnapshotJob) {
        use gretel_model::{Catalog, HttpMethod, OpSpecId, Service, Workflows};
        use gretel_sim::{ApiFault, Deployment, FaultPlan, FaultScope, InjectedError, Runner};

        let cat = Catalog::openstack();
        let dep = Deployment::standard();
        let spec = Workflows::new(cat.clone()).vm_create_spec(OpSpecId(0));
        let specs = std::slice::from_ref(&spec);
        let (lib, _) =
            crate::fingerprint::FingerprintLibrary::characterize(cat.clone(), specs, &dep, 2, 21);
        let plan = FaultPlan::none().with_api_fault(ApiFault {
            api: cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json"),
            scope: FaultScope::AllInstances,
            occurrence: 0,
            error: InjectedError::RestStatus {
                status: 500,
                reason: None,
            },
            abort_op: true,
        });
        let exec = Runner::new(cat, &dep, &plan, Default::default()).run(&[&spec]);
        let mut analyzer = Analyzer::new(&lib, gcfg());
        let mut jobs: Vec<SnapshotJob> = exec
            .messages
            .iter()
            .flat_map(|m| analyzer.ingest(m))
            .collect();
        jobs.extend(analyzer.finish_jobs_observed(None));
        let job = jobs.pop().expect("a faulted run freezes a snapshot");
        (lib, job)
    }

    fn gcfg() -> crate::config::GretelConfig {
        crate::config::GretelConfig {
            alpha: 32,
            ..Default::default()
        }
    }

    #[test]
    fn a_stall_cancels_a_faulted_job_and_spares_a_clean_one() {
        let (lib, job) = faulted_job();
        assert!(job.has_faults());
        let sa = Analyzer::new(&lib, gcfg()).snapshot_analyzer();
        let cfg = RecoveryConfig {
            chaos: AnalyzerChaos {
                stall_prob: 1.0,
                ..AnalyzerChaos::none()
            },
            ..RecoveryConfig::default()
        };
        std::thread::scope(|scope| {
            let mut pool = Pool::start(scope, sa, &cfg, 1, None);
            pool.submit(0, job.clone()).unwrap();
            pool.submit(1, job.clone().without_faults()).unwrap();
            pool.quiesce().unwrap();
            assert_eq!(pool.pending.get(&0), Some(&(sa.cancel(&job), true)));
            // Every job stalls, but one without faults has nothing to
            // cancel: it completes, and no cancellation is counted for it.
            assert_eq!(pool.pending.get(&1), Some(&(Vec::new(), false)));
            let mut state = RunState::new(None, None).unwrap();
            commit_release(&mut pool, 2, &mut state).unwrap();
            assert_eq!(state.stats.jobs_cancelled, 1);
            assert_eq!(state.diagnoses, sa.cancel(&job));
        });
    }

    #[test]
    fn quiesce_returns_after_kill_respawn_requeue_with_one_worker() {
        let (lib, job) = faulted_job();
        let sa = Analyzer::new(&lib, gcfg()).snapshot_analyzer();
        let expected = sa.analyze(&job);

        // The lone worker dies on attempts 0 and 1; each time the only way
        // forward is the supervisor's respawn + requeue, which now happens
        // inside quiesce's blocking receive.
        let cfg = RecoveryConfig {
            chaos: AnalyzerChaos {
                kill_prob: 1.0,
                kill_attempts: 2,
                ..AnalyzerChaos::none()
            },
            ..RecoveryConfig::default()
        };
        std::thread::scope(|scope| {
            let mut pool = Pool::start(scope, sa, &cfg, 1, None);
            pool.submit(0, job).unwrap();
            pool.quiesce().unwrap();
            assert_eq!(pool.outstanding, 0);
            assert_eq!((pool.worker_crashes, pool.jobs_requeued), (2, 2));
            assert_eq!(pool.pending.remove(&0), Some((expected, false)));
            // Dropping the pool closes the job channel: the worker exits and
            // the scope can join it.
        });
    }
}
