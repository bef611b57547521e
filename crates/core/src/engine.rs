//! The pipeline engine: the one capture → receive → resequence → k-way
//! merge → ingest → analysis-pool loop behind every `run_*` entry point
//! (paper Fig 3: agents that filter at the tap, one event receiver feeding
//! one analyzer).
//!
//! **Capture is one pass.** One capture-agent thread per node walks the
//! traffic slice once. It is a filter: it forwards a message iff it
//! observes it (egress capture, relevance) *and* the message routes to this
//! pipeline's partition ([`Route`]; [`UNSHARDED`] forwards everything), so a
//! sharded run hands every shard the same slice and copies nothing. The
//! agent is also where the byte scan runs: each forwarded message becomes
//! one fixed-size **event record** — its sequence number, its
//! [`MessageHead`](gretel_model::MessageHead) and the [`scan_message`]
//! verdict, 60 bytes ([`LinkRecord`]) — written straight into the batch it
//! ships in, and the batch goes out over a bounded link the moment it holds
//! [`ServiceConfig::ingest_batch`] records; a full link blocks the agent,
//! as TCP does. There is one such loop ([`ship_records`]). A configured
//! [`CaptureImpairment`](gretel_netcap::CaptureImpairment) permutes the
//! agent's `(sequence number, message)` pairs before they reach it — its
//! coins key on whole-stream positions, never on bytes — so an impaired
//! agent writes its survivors exactly as an unimpaired one writes its
//! whole capture.
//!
//! The receiver thread reads each record at fixed offsets, resequences it
//! and k-way merges the per-agent streams on `(ts, id)`, driving the
//! [`Analyzer`] with each message's head and mark: no string, no payload,
//! no frame parse. Completed snapshots ship as jobs to a supervised worker
//! [`Pool`]; results are released in job-sequence order, so the output
//! equals inline analysis whatever the scheduling.
//!
//! The engine runs with or without a [`Store`]:
//!
//! * **without** ([`run_plain`], i.e. `run_service_cfg` and the plain
//!   shards) it never checkpoints or restores and releases every diagnosis
//!   at end of stream;
//! * **with** one (`run_service_durable`, the durable shards) it restores
//!   the newest valid base and the deltas that chain onto it, writes a
//!   boundary record every [`RecoveryConfig::checkpoint_every`] merged
//!   messages, and honours the kill arm. A boundary record is a small
//!   [`KIND_DELTA`] — the `(gap, head, mark)` of each message merged since
//!   the previous boundary — unless the deltas since the last base
//!   outweigh it, when a full [`KIND_CHECKPOINT`] base is written instead.
//!   Released diagnoses travel as their own [`KIND_DIAGNOSES`] records,
//!   written immediately *before* the boundary record that makes them
//!   unrepeatable — so a crash can neither lose nor duplicate a diagnosis.
//!   Each boundary's sync, detached from the store ([`Store::flusher`]),
//!   runs on the cycle's sync thread while the next interval merges; the
//!   next boundary waits for it before it appends anything, so the log
//!   reaches the disk in the same order as a sync inline would write it.
//!
//! Every link is sequence-stamped: each agent numbers the messages it
//! captures and the receiver resequences each agent's records. A store
//! needs the numbers (replay dedups the re-shipped prefix by sequence
//! number), an impairment needs them (the receiver must see what went
//! missing), and a clean in-order link passes through the resequencer
//! unchanged.

use crate::analyzer::{Analyzer, AnalyzerStats, SnapshotAnalyzer, SnapshotJob};
use crate::anomaly::scan_message;
use crate::checkpoint::{
    decode_release, encode_checkpoint, encode_delta, encode_release, restore_checkpoint,
    restore_delta, AgentState, DeltaEntry, Marked,
};
use crate::recover::{
    AnalyzerChaos, RecoveryConfig, RecoveryStats, KIND_CHECKPOINT, KIND_DELTA, KIND_DIAGNOSES,
    MAX_ATTEMPTS,
};
use crate::report::Diagnosis;
use crate::service::{pool_width, ServiceConfig, ServiceError, ServiceStats, CHANNEL_CAPACITY};
use crossbeam_channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use gretel_model::codec::{DecodeError, Reader, Wire};
use gretel_model::{Message, NodeId};
use gretel_netcap::{shard_of, CaptureAgent, CaptureStats, CodecError};
use gretel_obs::{PipelineMetrics, Stage, StageTimer};
use gretel_store::{records, Flush, Record, Store, StoreError};
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;
use std::time::Duration;

/// One event record on an agent → receiver link: the agent's sequence
/// number, then what the receiver keeps of the message ([`Marked`]), 60
/// bytes fixed. A link batch is these records back to back.
type LinkRecord = (u64, Marked);

/// One agent's stream at the receiver: each batch's records are read in
/// place, resequenced into `(gap_before, marked head)` pairs, and buffered
/// in the agent's ready queue until the k-way merge consumes them.
struct AgentStream {
    agent: AgentState,
    done: bool,
}

impl AgentStream {
    fn new(depth: usize) -> AgentStream {
        AgentStream {
            agent: AgentState::new(depth),
            done: false,
        }
    }

    /// Read and queue one batch of records. A corrupt record fails the
    /// stream as a link error, and the records before it stay queued.
    fn admit(&mut self, batch: &[u8], metrics: Option<&PipelineMetrics>) -> Result<(), CodecError> {
        let AgentState { resequencer, ready } = &mut self.agent;
        // One timing sample per batch, one counted event per record: stage
        // latencies show the batch-level dispatch cost while event counts
        // stay per-item (see gretel-obs).
        let t = StageTimer::start(metrics, Stage::Resequence);
        let mut r = Reader::new(batch);
        let mut n = 0u64;
        let mut admit_all = || -> Result<(), CodecError> {
            while r.remaining() > 0 {
                let (seq, marked) = LinkRecord::read(&mut r)?;
                resequencer.try_push(Some(seq), marked, ready)?;
                n += 1;
            }
            Ok(())
        };
        let admitted = admit_all();
        t.finish();
        if let Some(m) = metrics {
            m.count(Stage::Resequence, n);
        }
        admitted
    }

    /// Pull batches until at least one message is ready or the stream ends.
    fn refill(
        &mut self,
        rx: &Receiver<Vec<u8>>,
        stats: &mut ServiceStats,
        metrics: Option<&PipelineMetrics>,
    ) -> Result<(), ServiceError> {
        while self.agent.ready.is_empty() && !self.done {
            match rx.recv() {
                Ok(batch) => {
                    stats.channel_ops += 1;
                    stats.frames += (batch.len() / LinkRecord::MIN_BYTES) as u64;
                    stats.bytes += batch.len() as u64;
                    self.admit(&batch, metrics)?;
                }
                Err(_) => {
                    self.done = true;
                    let flushed = self.agent.resequencer.flush();
                    self.agent.ready.extend(flushed);
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
        if let Some((_, (head, _))) = st.agent.ready.front() {
            let key = (head.ts_us, head.id);
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

/// The one pack-and-ship loop: write each `(seq, message)` as its event
/// record — the sequence number, the head and the tap's scan verdict —
/// straight into the batch it ships in, and send every batch the moment it
/// holds `ingest_batch` records. A full link blocks the send; the loop
/// stops early only if the receiver went away.
fn ship_records<'m>(
    records: impl IntoIterator<Item = (u64, &'m Message)>,
    ingest_batch: usize,
    tx: &Sender<Vec<u8>>,
) {
    let full_size = ingest_batch * LinkRecord::MIN_BYTES;
    let mut batch = Vec::with_capacity(full_size);
    let mut held = 0;
    for (seq, msg) in records {
        (seq, (msg.head(), scan_message(msg))).put(&mut batch);
        held += 1;
        if held == ingest_batch {
            let full = std::mem::replace(&mut batch, Vec::with_capacity(full_size));
            held = 0;
            if tx.send(full).is_err() {
                return;
            }
        }
    }
    if held > 0 {
        let _ = tx.send(batch);
    }
}

/// Spawn `node`'s capture agent and return the receiver end of its bounded
/// link (batches of event records). The agent is a filter over the tap: it
/// walks `traffic` once and forwards a message iff it observes it *and* the
/// message routes to this pipeline's partition, so a sharded run hands
/// every shard the same slice and nothing is copied per shard. It ships its
/// whole deterministic stream, reports its capture stats on `stat_tx`, then
/// closes the link. The agent holds no receiver handle, so a receiver that
/// hangs up unblocks it.
fn spawn_agent<'sc, 'env>(
    scope: &'sc Scope<'sc, 'env>,
    node: NodeId,
    traffic: &'env [Message],
    cfg: &ServiceConfig,
    (shard, of): Route,
    stat_tx: Sender<CaptureStats>,
) -> Receiver<Vec<u8>> {
    let (tx, rx) = bounded::<Vec<u8>>(CHANNEL_CAPACITY);
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
                ship_records(survivors, ingest_batch, &tx);
            }
            None => {
                let counted = mine.inspect(|_| capture.frames += 1);
                ship_records(counted, ingest_batch, &tx);
            }
        }
        let _ = stat_tx.send(capture);
        // tx drops here, closing the stream.
    });
    rx
}

/// Where the durable path's record chain stands: what the next boundary
/// writes, and what it writes it on top of.
#[derive(Debug, Default)]
struct Chain {
    /// Every message merged since the last boundary, as the next delta
    /// records it.
    entries: Vec<DeltaEntry>,
    /// Merged-message count at the last boundary: the next delta's
    /// continuity key.
    at: u64,
    /// Payload bytes of the base the chain hangs off; `None` until there is
    /// one, so the first boundary writes a base.
    base_bytes: Option<usize>,
    /// Payload bytes of the deltas after that base.
    delta_bytes: usize,
    /// The last boundary record's payload. Each boundary rewrites it in
    /// place, so a run holds one record buffer for its whole life instead
    /// of allocating and freeing a base-sized one at every base.
    record: Vec<u8>,
}

impl Chain {
    /// Write the boundary record for this point of the run into
    /// [`Chain::record`] and return its kind: a delta while the deltas
    /// since the last base weigh no more than that base, else a new base.
    /// Either way the chain then stands at `analyzer`'s count.
    fn boundary(&mut self, analyzer: &Analyzer<'_>, streams: &[AgentStream], next_seq: u64) -> u8 {
        let from = std::mem::replace(&mut self.at, analyzer.stats().messages);
        let agents = streams.iter().map(|st| &st.agent);
        let kind = match self.base_bytes {
            Some(base) if self.delta_bytes <= base => {
                encode_delta(&mut self.record, from, next_seq, &self.entries, agents);
                self.delta_bytes += self.record.len();
                KIND_DELTA
            }
            _ => {
                encode_checkpoint(&mut self.record, analyzer, next_seq, agents);
                self.base_bytes = Some(self.record.len());
                self.delta_bytes = 0;
                KIND_CHECKPOINT
            }
        };
        self.entries.clear();
        kind
    }
}

/// Restore `analyzer` and the receiver `streams`, both built from the run's
/// configuration, from the store: the newest valid base, then every later
/// valid delta, in log order, whose continuity key is the count the
/// analyzer has reached. A delta is replayed through the same ingest that
/// first ran it, so it rebuilds the whole analyzer state; the jobs it
/// regenerates were all released before the delta was written, so they are
/// only counted, and must land on its `next_seq`. A corrupt, torn or
/// non-continuing delta is skipped, so a delta that a later lifetime
/// re-wrote still chains. The streams end as the last applied record left
/// them. Returns the next job sequence number and the chain to continue,
/// or `None` (cold start) when no base verifies.
fn restore(
    store: &dyn Store,
    analyzer: &mut Analyzer<'_>,
    streams: &mut [AgentStream],
) -> Result<Option<(u64, Chain)>, ServiceError> {
    // Find the records by header, then checksum from the newest back: a
    // restart pays for the records it uses, not the log.
    let log: Vec<Record<'_>> = records(store.bytes()).collect();
    let Some(b) = log
        .iter()
        .rposition(|r| r.kind == KIND_CHECKPOINT && r.valid())
    else {
        return Ok(None);
    };
    let agents = streams.iter_mut().map(|st| &mut st.agent);
    let mut next_seq = restore_checkpoint(log[b].payload, analyzer, agents)?;
    let mut chain = Chain {
        at: analyzer.stats().messages,
        base_bytes: Some(log[b].payload.len()),
        ..Chain::default()
    };
    for r in log[b + 1..]
        .iter()
        .filter(|r| r.kind == KIND_DELTA && r.valid())
    {
        let agents = streams.iter_mut().map(|st| &mut st.agent);
        let Some((delta_next_seq, entries)) = restore_delta(r.payload, chain.at, agents)? else {
            continue;
        };
        let mut jobs = 0u64;
        for (gap, head, mark) in &entries {
            analyzer.note_capture_gap(*gap);
            jobs += analyzer.ingest_head(head, *mark, None).len() as u64;
        }
        if next_seq.checked_add(jobs) != Some(delta_next_seq) {
            return Err(DecodeError::Invalid("delta job count").into());
        }
        next_seq = delta_next_seq;
        chain.at = analyzer.stats().messages;
        chain.delta_bytes += r.payload.len();
    }
    Ok(Some((next_seq, chain)))
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
    /// Attempts before a job is abandoned: [`MAX_ATTEMPTS`] (a field so a
    /// test can exhaust it).
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
        let (job_tx, job_rx) = bounded::<JobMsg>(CHANNEL_CAPACITY);
        let (report_tx, report_rx) = unbounded::<Report>();
        let pool = Pool {
            scope,
            job_tx,
            job_rx,
            report_tx,
            report_rx,
            sa,
            chaos: cfg.chaos,
            max_attempts: MAX_ATTEMPTS,
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
    /// The record chain on the store (unused without one).
    chain: Chain,
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
            chain: Chain::default(),
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

/// Where the merge thread hands boundary syncs to the cycle's sync thread.
/// At most one sync is in flight, and the merge thread appends nothing
/// while it is. A mutex and a condition variable, not a channel: the sync
/// thread must not allocate (a blocking channel receive does, and a
/// thread's first allocation gives it an allocator arena of its own).
#[derive(Default)]
struct SyncSlot {
    state: Mutex<SyncState>,
    changed: Condvar,
}

#[derive(Default)]
struct SyncState {
    /// A sync was started and has not finished.
    in_flight: bool,
    /// The cycle is over: the sync thread exits once nothing is in flight.
    closed: bool,
    /// How the last sync failed, returned at the next wait.
    failed: Option<StoreError>,
}

impl SyncSlot {
    /// Every update under the lock is one field store, so a poisoned lock
    /// still guards valid state, and [`SyncThread`]'s `Drop` must not panic.
    fn lock(&self) -> MutexGuard<'_, SyncState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The sync thread: run each sync the merge thread starts, until the
    /// slot closes.
    fn serve(&self, flush: &dyn Flush) {
        loop {
            let s = self
                .changed
                .wait_while(self.lock(), |s| !s.in_flight && !s.closed)
                .unwrap_or_else(PoisonError::into_inner);
            if !s.in_flight {
                return;
            }
            drop(s);
            let synced = flush.sync();
            let mut s = self.lock();
            s.failed = synced.err();
            s.in_flight = false;
            drop(s);
            self.changed.notify_all();
        }
    }

    /// Start syncing everything appended so far. The previous sync must
    /// have been waited for.
    fn start(&self) {
        let mut s = self.lock();
        debug_assert!(!s.in_flight, "one sync in flight at a time");
        s.in_flight = true;
        drop(s);
        self.changed.notify_all();
    }

    /// Block until no sync is in flight: the log may grow again. A failed
    /// sync is returned here.
    fn wait(&self) -> Result<(), StoreError> {
        let mut s = self
            .changed
            .wait_while(self.lock(), |s| s.in_flight)
            .unwrap_or_else(PoisonError::into_inner);
        s.failed.take().map_or(Ok(()), Err)
    }
}

/// The merge thread's hold on the sync thread. Dropping it closes the slot,
/// so the thread ends on every way out of the cycle, an error or a panic
/// included, and the scope can join it.
struct SyncThread<'a>(&'a SyncSlot);

impl Drop for SyncThread<'_> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.changed.notify_all();
    }
}

/// One checkpoint boundary on `store`: quiesce the pool, encode the
/// boundary record ([`Chain::boundary`]) while the previous boundary's sync
/// may still run, wait for that sync, release pending diagnoses
/// ([`KIND_DIAGNOSES`] first — a torn tail then loses at most the boundary
/// record, and replay regenerates nothing that was released), append the
/// boundary record, and start its sync on the sync thread, so the sync
/// overlaps the next interval's merge.
fn write_boundary(
    pool: &mut Pool<'_, '_>,
    analyzer: &Analyzer<'_>,
    streams: &[AgentStream],
    seq: u64,
    st: &mut RunState<'_>,
    sync: &SyncSlot,
) -> Result<(), ServiceError> {
    pool.quiesce()?;
    let metrics = pool.metrics;
    let t = StageTimer::start(metrics, Stage::Checkpoint);
    let kind = st.chain.boundary(analyzer, streams, seq);
    let waited = sync.wait();
    t.finish();
    waited?;
    commit_release(pool, seq, st)?;
    let store = st
        .store
        .as_mut()
        .expect("boundaries are only written to a store");
    let t = StageTimer::start(metrics, Stage::Checkpoint);
    store.append(kind, &st.chain.record)?;
    t.finish();
    if let Some(m) = metrics {
        m.count(Stage::Checkpoint, 1);
    }
    st.stats.checkpoints_written += 1;
    sync.start();
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
    assert!(
        cfg.service.ingest_batch >= 1,
        "a batch holds at least one record"
    );
    let metrics = cfg.service.metrics.as_deref();
    let durable = state.store.is_some();
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = pool_width(cfg.service.workers, route.1, available);

    // ---- Restore --------------------------------------------------------
    let depth = cfg.service.resequence_depth;
    let mut streams: Vec<AgentStream> = nodes.iter().map(|_| AgentStream::new(depth)).collect();
    let restored = match &state.store {
        Some(store) => restore(&**store, analyzer, &mut streams)?,
        None => None,
    };
    let next_seq_start = match restored {
        Some((next_seq, chain)) => {
            state.chain = chain;
            state.stats.restores += 1;
            next_seq
        }
        None => 0,
    };
    let dup_discarded = |streams: &[AgentStream]| -> u64 {
        streams
            .iter()
            .map(|s| s.agent.resequencer.stats().dup_discarded)
            .sum()
    };
    let replay_base = dup_discarded(&streams);
    let flush = state.store.as_ref().map(|s| s.flusher()).transpose()?;
    let slot = SyncSlot::default();

    // ---- One cycle ------------------------------------------------------
    let snapshot_analyzer = analyzer.snapshot_analyzer().with_metrics(metrics);
    std::thread::scope(|scope| -> Result<RunEnd, ServiceError> {
        // A store's boundary syncs run on a thread of their own.
        let sync_thread = flush.map(|flush| {
            let slot = &slot;
            scope.spawn(move || slot.serve(&*flush));
            SyncThread(slot)
        });
        let sync = sync_thread.as_ref().map(|t| t.0);
        let mut pool = Pool::start(scope, snapshot_analyzer, cfg, workers, metrics);

        // Agents re-ship the whole deterministic stream every cycle and
        // report their capture-side stats at end of stream.
        let (stat_tx, stat_rx) = unbounded::<CaptureStats>();
        let rxs: Vec<Receiver<Vec<u8>>> = nodes
            .iter()
            .map(|&n| spawn_agent(scope, n, traffic, &cfg.service, route, stat_tx.clone()))
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
            let (gap, (head, mark)) = streams[i]
                .agent
                .ready
                .pop_front()
                .expect("chosen head is nonempty");
            streams[i].refill(&rxs[i], &mut state.service_stats, metrics)?;
            if gap > 0 {
                analyzer.note_capture_gap(gap);
            }
            if durable {
                state.chain.entries.push((gap, head, mark));
            }
            let t = StageTimer::start(metrics, Stage::Ingest);
            let jobs = analyzer.ingest_head(&head, mark, metrics);
            t.finish();
            if let Some(m) = metrics {
                m.count(Stage::Ingest, 1);
            }
            for job in jobs {
                pool.submit(seq, job)?;
                seq += 1;
            }
            merged += 1;

            if let Some(sync) = sync {
                if merged.is_multiple_of(cfg.checkpoint_every) {
                    write_boundary(&mut pool, analyzer, &streams, seq, state, sync)?;
                }
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
            // diagnoses themselves must reach the store durably, after the
            // last boundary's sync as at every boundary.
            sync.map_or(Ok(()), SyncSlot::wait)?;
            commit_release(&mut pool, seq, state)?;
            if let Some(store) = &mut state.store {
                store.sync()?;
                state.diagnoses = read_diagnoses(&**store)?;
            }
            for st in &streams {
                state
                    .service_stats
                    .capture
                    .merge(&st.agent.resequencer.stats());
            }
        }
        if matches!(ended, RunEnd::Killed) {
            // The last boundary's sync is the lifetime's last word on disk.
            sync.map_or(Ok(()), SyncSlot::wait)?;
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
/// RCA or a plug-in perf detector — nothing is exported or restored),
/// workers run chaos-free, and the diagnoses are released in
/// job-sequence order at end of stream. A job whose analysis genuinely
/// panics is retried and, past [`MAX_ATTEMPTS`] attempts, surfaced as
/// `Cancelled` diagnoses.
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
    use crate::event::FaultMark;
    use crate::recover::KILL_ATTEMPTS;
    use gretel_model::codec::encode;
    use gretel_store::MemStore;

    fn rest_message(id: u64) -> Message {
        use gretel_model::{ApiId, ConnKey, Direction, HttpMethod, MessageId, Service, WireKind};
        Message {
            id: MessageId(id),
            ts_us: id,
            src_node: NodeId(0),
            dst_node: NodeId(1),
            src_service: Service::Nova,
            dst_service: Service::Neutron,
            api: ApiId(1),
            direction: Direction::Request,
            wire: WireKind::Rest {
                method: HttpMethod::Get,
                uri: "/v2.1/servers".into(),
                status: None,
            },
            conn: ConnKey::default(),
            payload: b"GET /v2.1/servers".to_vec(),
            correlation_id: None,
            project: None,
            truth_op: None,
            truth_noise: false,
        }
    }

    /// The records one agent ships for `msgs`, stamped 0, 1, 2, …, as
    /// one batch.
    fn shipped(msgs: &[Message]) -> Vec<u8> {
        let (tx, rx) = bounded(1);
        ship_records((0..).zip(msgs), msgs.len(), &tx);
        rx.recv().expect("one full batch")
    }

    /// An event record is the sequence number and the 52-byte head+mark
    /// pair a parked message is, 60 bytes fixed, and the mark is the
    /// agent's scan of the payload.
    #[test]
    fn an_event_record_is_sixty_bytes_and_carries_the_tap_s_scan() {
        use gretel_model::codec::decode;
        let mut msg = rest_message(3);
        msg.payload = b"HTTP/1.1 503 Service Unavailable".to_vec();
        let batch = shipped(std::slice::from_ref(&msg));
        assert_eq!(Marked::MIN_BYTES, 52);
        assert_eq!((batch.len(), LinkRecord::MIN_BYTES), (60, 60));
        let want = (0, (msg.head(), FaultMark::RestError(503)));
        assert_eq!(decode::<LinkRecord>(&batch), Ok(want));
    }

    /// Hostile link bytes: a batch whose middle record is corrupt — a bad
    /// fault tag, bad head flags, a sequence number no delivery can follow
    /// — or whose last record is cut short fails the stream with that
    /// record's own link error, without a panic, and the records before it
    /// are already queued: the receiver reads record by record, it does not
    /// vet the batch first.
    #[test]
    fn a_corrupt_record_mid_batch_fails_with_its_own_error() {
        // Offsets inside a record: the sequence number, then the head
        // (id, timestamp, four node and service bytes, the API), whose flag
        // byte follows at 30; the fault mark's tag is at 57.
        const FLAGS: usize = 30;
        const FAULT_TAG: usize = 57;
        let clean = shipped(&[rest_message(0), rest_message(1), rest_message(2)]);
        let second = LinkRecord::MIN_BYTES;
        let mut cases: Vec<(Vec<u8>, DecodeError, &[u64])> = Vec::new();
        let mut bad = clean.clone();
        bad[second + FAULT_TAG] = 9;
        cases.push((bad, DecodeError::Invalid("fault tag"), &[0]));
        let mut bad = clean.clone();
        bad[second + FLAGS] = 0xFF;
        cases.push((bad, DecodeError::Invalid("head flags"), &[0]));
        let mut bad = clean.clone();
        bad[second..second + 8].copy_from_slice(&encode(&u64::MAX));
        let unfollowable = DecodeError::Invalid("sequence number cannot be followed");
        cases.push((bad, unfollowable, &[0]));
        let cut = clean[..clean.len() - 1].to_vec();
        cases.push((cut, DecodeError::Truncated, &[0, 1]));
        for (batch, want, queued) in cases {
            let (tx, rx) = bounded(1);
            tx.send(batch).unwrap();
            let mut st = AgentStream::new(4);
            let got = st.refill(&rx, &mut ServiceStats::default(), None);
            assert!(
                matches!(got, Err(ServiceError::Codec(CodecError::Decode(e))) if e == want),
                "{want:?}: {got:?}"
            );
            let ids: Vec<u64> = st.agent.ready.iter().map(|(_, (h, _))| h.id.0).collect();
            assert_eq!(ids, queued, "{want:?}");
        }
    }

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

    /// A library, the deployment's nodes and a few hundred messages of
    /// faulted vm-create and image-upload traffic.
    fn chain_fixture() -> ChainFixture {
        use gretel_model::{Catalog, HttpMethod, OpSpecId, OperationSpec, Service, Workflows};
        use gretel_sim::{ApiFault, Deployment, FaultPlan, FaultScope, InjectedError, Runner};

        let cat = Catalog::openstack();
        let dep = Deployment::standard();
        let wf = Workflows::new(cat.clone());
        let specs = [
            wf.vm_create_spec(OpSpecId(0)),
            wf.image_upload_spec(OpSpecId(1)),
        ];
        let (lib, _) =
            crate::fingerprint::FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 2, 21);
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
        let refs: Vec<&OperationSpec> = specs.iter().cycle().take(48).collect();
        let exec = Runner::new(cat, &dep, &plan, Default::default()).run(&refs);
        let nodes = dep.nodes().iter().map(|n| n.id).collect();
        (lib, nodes, exec.messages)
    }

    const CHAIN_ALPHA: usize = 256;
    const CHAIN_EVERY: u64 = 64;

    /// The live analyzer's state after every `CHAIN_EVERY` merged messages:
    /// an inline analyzer fed what the agents forward, in merge order.
    fn live_states(
        lib: &crate::fingerprint::FingerprintLibrary,
        nodes: &[NodeId],
        traffic: &[Message],
    ) -> BTreeMap<u64, Vec<u8>> {
        let mut merged: Vec<&Message> = traffic
            .iter()
            .filter(|m| nodes.iter().any(|&n| CaptureAgent::new(n).observes(m)))
            .collect();
        merged.sort_by_key(|m| (m.ts_us, m.id));
        let mut live = Analyzer::new(lib, chain_gcfg());
        let mut states = BTreeMap::new();
        for (i, m) in merged.into_iter().enumerate() {
            live.ingest(m);
            if (i as u64 + 1).is_multiple_of(CHAIN_EVERY) {
                states.insert(i as u64 + 1, live.export_state().unwrap());
            }
        }
        states
    }

    fn chain_gcfg() -> crate::config::GretelConfig {
        crate::config::GretelConfig {
            alpha: CHAIN_ALPHA,
            ..Default::default()
        }
    }

    type ChainFixture = (
        crate::fingerprint::FingerprintLibrary,
        Vec<NodeId>,
        Vec<Message>,
    );

    /// One durable lifetime over `store` with `checkpoint_every`
    /// `CHAIN_EVERY`.
    fn chain_run(
        fx: &ChainFixture,
        kill_point: Option<u64>,
        store: &mut dyn Store,
    ) -> Result<crate::recover::DurableOutcome, ServiceError> {
        let cfg = crate::recover::DurableConfig {
            recovery: RecoveryConfig {
                checkpoint_every: CHAIN_EVERY,
                ..RecoveryConfig::default()
            },
            kill_point,
        };
        crate::recover::run_service_durable(&fx.0, chain_gcfg(), &fx.1, &fx.2, &cfg, store)
    }

    fn chain_lifetime(fx: &ChainFixture, kill_point: Option<u64>, store: &mut MemStore) {
        chain_run(fx, kill_point, store).expect("a lifetime completes or is killed");
    }

    /// Restore a fresh analyzer from `log`: the count it reached and its
    /// exported state.
    fn restored(
        lib: &crate::fingerprint::FingerprintLibrary,
        n_agents: usize,
        log: &[u8],
    ) -> (u64, Vec<u8>) {
        let mut analyzer = Analyzer::new(lib, chain_gcfg());
        let depth = ServiceConfig::default().resequence_depth;
        let mut streams: Vec<_> = (0..n_agents).map(|_| AgentStream::new(depth)).collect();
        let log = MemStore::from_bytes(log.to_vec());
        let (_, chain) = restore(&log, &mut analyzer, &mut streams)
            .expect("the log restores")
            .expect("the log holds a base");
        (chain.at, analyzer.export_state().unwrap())
    }

    /// At every boundary of a run, the base plus the chain so far restores
    /// an analyzer whose state is the live analyzer's, byte for byte.
    #[test]
    fn every_boundary_restores_the_live_state() {
        let fx = chain_fixture();
        let live = live_states(&fx.0, &fx.1, &fx.2);
        let mut store = MemStore::new();
        chain_lifetime(&fx, None, &mut store);
        let log = store.bytes();
        let mut kinds = Vec::new();
        for r in records(log).filter(|r| r.kind != KIND_DIAGNOSES) {
            kinds.push(r.kind);
            let (at, state) = restored(&fx.0, fx.1.len(), &log[..r.end()]);
            assert_eq!(at, CHAIN_EVERY * kinds.len() as u64, "{kinds:?}");
            assert!(state == live[&at], "state at {at} ({kinds:?})");
        }
        let bases = kinds.iter().filter(|&&k| k == KIND_CHECKPOINT).count();
        let longest = kinds
            .split(|&k| k == KIND_CHECKPOINT)
            .map(<[u8]>::len)
            .max();
        assert!(bases >= 2 && longest >= Some(2), "{kinds:?}");
    }

    /// A delta corrupted mid-chain ends the chain early; once a later
    /// lifetime re-wrote its interval, the restore walks past the corrupt
    /// delta and the stale one after it, to the newest boundary.
    #[test]
    fn a_rewritten_delta_chains_past_the_corrupt_one() {
        let fx = chain_fixture();
        let live = live_states(&fx.0, &fx.1, &fx.2);
        let mut store = MemStore::new();
        chain_lifetime(&fx, Some(5 * CHAIN_EVERY + 7), &mut store);
        let bounds: Vec<(usize, u8)> = records(store.bytes())
            .enumerate()
            .filter(|(_, r)| r.kind != KIND_DIAGNOSES)
            .map(|(i, r)| (i, r.kind))
            .collect();
        let n = bounds.len();
        assert_eq!(n, 5);
        assert!(
            bounds[n - 2].1 == KIND_DELTA && bounds[n - 1].1 == KIND_DELTA,
            "{bounds:?}"
        );
        assert!(store.corrupt_record(bounds[n - 2].0, 17));
        let short = restored(&fx.0, fx.1.len(), store.bytes()).0;
        assert_eq!(
            short,
            3 * CHAIN_EVERY,
            "the chain ends before the corrupt delta"
        );

        chain_lifetime(&fx, Some(3 * CHAIN_EVERY + 7), &mut store);
        let (at, state) = restored(&fx.0, fx.1.len(), store.bytes());
        assert_eq!(at, 6 * CHAIN_EVERY, "the newest boundary");
        assert!(state == live[&at]);
    }

    /// A slow disk behind a [`MemStore`]: each detached sync holds the gate
    /// shut for a millisecond, every append asserts that it is open, and
    /// the sync or the append of a given boundary (1-based) can be made to
    /// fail. A millisecond is many times what the fixture's interval takes
    /// to merge, so an engine that appends without waiting for the sync
    /// trips the assertion.
    struct GateStore {
        mem: MemStore,
        gate: std::sync::Arc<Gate>,
        fail_append_at: Option<u64>,
        boundary_appends: u64,
    }

    #[derive(Default)]
    struct Gate {
        shut: std::sync::atomic::AtomicBool,
        syncs: std::sync::atomic::AtomicU64,
        fail_sync_at: Option<u64>,
    }

    impl GateStore {
        fn new(fail_sync_at: Option<u64>, fail_append_at: Option<u64>) -> GateStore {
            GateStore {
                mem: MemStore::new(),
                gate: std::sync::Arc::new(Gate {
                    fail_sync_at,
                    ..Gate::default()
                }),
                fail_append_at,
                boundary_appends: 0,
            }
        }
    }

    fn injected(op: &'static str) -> StoreError {
        StoreError::Io {
            op,
            detail: "injected".into(),
        }
    }

    struct GateFlush(std::sync::Arc<Gate>);

    impl Flush for GateFlush {
        fn sync(&self) -> Result<(), StoreError> {
            use std::sync::atomic::Ordering::SeqCst;
            let gate = &self.0;
            let n = gate.syncs.fetch_add(1, SeqCst) + 1;
            gate.shut.store(true, SeqCst);
            std::thread::sleep(Duration::from_millis(1));
            gate.shut.store(false, SeqCst);
            if gate.fail_sync_at == Some(n) {
                return Err(injected("sync"));
            }
            Ok(())
        }
    }

    impl Store for GateStore {
        fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
            assert!(
                !self.gate.shut.load(std::sync::atomic::Ordering::SeqCst),
                "an append while a sync is in flight"
            );
            if kind != KIND_DIAGNOSES {
                self.boundary_appends += 1;
                if self.fail_append_at == Some(self.boundary_appends) {
                    return Err(injected("append"));
                }
            }
            self.mem.append(kind, payload)
        }

        fn bytes(&self) -> &[u8] {
            self.mem.bytes()
        }

        fn sync(&mut self) -> Result<(), StoreError> {
            Ok(())
        }

        fn flusher(&self) -> Result<Box<dyn Flush + Send>, StoreError> {
            Ok(Box::new(GateFlush(self.gate.clone())))
        }
    }

    /// Boundary syncs on the sync thread: no append lands while one is in
    /// flight, a clean run writes the log a plain [`MemStore`] run writes, and
    /// a sync or an append that fails at boundary `K` ends the lifetime
    /// with [`ServiceError::Store`] — every thread joined, nothing appended
    /// after the failure, the log a prefix of the clean run's.
    #[test]
    fn store_failures_end_the_lifetime_and_syncs_never_overlap_an_append() {
        const K: u64 = 3;
        let fx = std::sync::Arc::new(chain_fixture());
        let mut clean = MemStore::new();
        chain_lifetime(&fx, None, &mut clean);
        let clean = clean.bytes().to_vec();
        let boundaries = |log: &[u8]| records(log).filter(|r| r.kind != KIND_DIAGNOSES).count();
        assert!(boundaries(&clean) > K as usize + 1);
        // (fail the sync at, fail the append at, boundary records kept)
        let arms = [
            (None, None, boundaries(&clean)),
            (Some(K), None, K as usize),
            (None, Some(K), K as usize - 1),
        ];
        for (fail_sync_at, fail_append_at, kept) in arms {
            let (tx, rx) = std::sync::mpsc::channel();
            let fx = fx.clone();
            std::thread::spawn(move || {
                let mut store = GateStore::new(fail_sync_at, fail_append_at);
                let got = chain_run(&fx, None, &mut store).map(|_| ());
                let _ = tx.send((got, store));
            });
            let (got, store) = rx
                .recv_timeout(Duration::from_secs(120))
                .expect("the lifetime returns");
            let arm = (fail_sync_at, fail_append_at);
            let log = store.bytes();
            match arm {
                (None, None) => {
                    assert!(got.is_ok(), "{got:?}");
                    let syncs = store.gate.syncs.load(std::sync::atomic::Ordering::SeqCst);
                    assert_eq!(syncs, kept as u64, "one detached sync per boundary");
                }
                (failed_sync, _) => {
                    let want = injected(if failed_sync.is_some() {
                        "sync"
                    } else {
                        "append"
                    });
                    assert!(
                        matches!(&got, Err(ServiceError::Store(e)) if *e == want),
                        "{arm:?}: {got:?}"
                    );
                }
            }
            assert_eq!(boundaries(log), kept, "{arm:?}");
            assert!(clean.starts_with(log), "{arm:?}: a prefix of the clean log");
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

    /// A job that crashes its worker on every attempt it is given is
    /// abandoned visibly: its faults come back as the cancellation surface.
    #[test]
    fn a_job_out_of_retries_is_cancelled() {
        let (lib, job) = faulted_job();
        let sa = Analyzer::new(&lib, gcfg()).snapshot_analyzer();
        let cfg = RecoveryConfig {
            chaos: AnalyzerChaos {
                kill_prob: 1.0,
                ..AnalyzerChaos::none()
            },
            ..RecoveryConfig::default()
        };
        std::thread::scope(|scope| {
            let mut pool = Pool::start(scope, sa, &cfg, 1, None);
            // Every attempt the budget allows is one the kill coin fires on.
            pool.max_attempts = KILL_ATTEMPTS;
            pool.submit(0, job.clone()).unwrap();
            pool.quiesce().unwrap();
            assert_eq!(pool.outstanding, 0);
            assert_eq!(pool.pending[&0], (sa.cancel(&job), true));
            assert_eq!((pool.worker_crashes, pool.jobs_requeued), (2, 1));
        });
    }
}
