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
//! * **with** one (`run_service_durable`, the durable shards) it writes
//!   one boundary record every [`RecoveryConfig::checkpoint_every`] merged
//!   messages and honours the kill arm. A boundary record is a small
//!   [`KIND_DELTA`] — the `(gap, head, mark)` of each message merged since
//!   the previous boundary — unless the deltas since the last base
//!   outweigh it, when a full [`KIND_CHECKPOINT`] base is written instead.
//!   Either carries the jobs released at the boundary, so the diagnoses
//!   and the state that makes them unrepeatable share one checksum. A
//!   restart reads every valid record's jobs, finds `g`, the first job
//!   that has no valid copy on the log, and restores the newest valid base
//!   at or before `g` and the deltas that chain onto it: a damaged record
//!   costs the replay of its interval and of every later one, and loses
//!   nothing. The merge thread appends each boundary record, requests its
//!   sync from the cycle's sync thread ([`Store::flusher`]) and goes on;
//!   each sync covers everything appended before it started. The merge
//!   thread waits for the disk only at end of stream and on a kill. The
//!   jobs released at end of stream go in one [`KIND_DIAGNOSES`] record.
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
    decode_release, encode_checkpoint, encode_delta, encode_release, open_boundary, AgentState,
    Boundary, DeltaEntry, Job, Marked,
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
    /// Write the boundary record for this point of the run, with the
    /// `jobs` released at it, into [`Chain::record`] and return its kind: a
    /// delta while the deltas since the last base weigh no more than that
    /// base, else a new base. Either way the chain then stands at
    /// `analyzer`'s count.
    fn boundary(
        &mut self,
        analyzer: &Analyzer<'_>,
        streams: &[AgentStream],
        next_seq: u64,
        jobs: &[Job],
    ) -> u8 {
        let from = std::mem::replace(&mut self.at, analyzer.stats().messages);
        let agents = streams.iter().map(|st| &st.agent);
        let kind = match self.base_bytes {
            Some(base) if self.delta_bytes <= base => {
                encode_delta(
                    &mut self.record,
                    from,
                    next_seq,
                    jobs,
                    &self.entries,
                    agents,
                );
                self.delta_bytes += self.record.len();
                KIND_DELTA
            }
            _ => {
                encode_checkpoint(&mut self.record, analyzer, next_seq, jobs, agents);
                self.base_bytes = Some(self.record.len());
                self.delta_bytes = 0;
                KIND_CHECKPOINT
            }
        };
        self.entries.clear();
        kind
    }
}

/// A log as a restart reads it: every record is checksummed once, and
/// every valid one is read up to its release.
struct LogScan<'a> {
    /// The valid boundary records in log order, each with its payload
    /// length.
    bounds: Vec<(usize, Boundary<'a>)>,
    /// The first valid copy of every released job, by job seq: a base's,
    /// a delta's or the end-of-stream release's.
    released: BTreeMap<u64, Vec<Diagnosis>>,
}

impl LogScan<'_> {
    fn new(log: &[u8]) -> Result<LogScan<'_>, ServiceError> {
        let mut scan = LogScan {
            bounds: Vec::new(),
            released: BTreeMap::new(),
        };
        for r in records(log).filter(Record::valid) {
            let jobs = match r.kind {
                KIND_CHECKPOINT | KIND_DELTA => {
                    let mut b = open_boundary(r.kind, r.payload)?;
                    let jobs = std::mem::take(&mut b.jobs);
                    scan.bounds.push((r.payload.len(), b));
                    jobs
                }
                KIND_DIAGNOSES => decode_release(r.payload)?.1,
                _ => continue,
            };
            for (seq, ds) in jobs {
                scan.released.entry(seq).or_insert(ds);
            }
        }
        Ok(scan)
    }

    /// `g`, the release watermark a restarted process honours: the first
    /// job seq of which no valid record holds a copy. Every job below it
    /// is on the log; a job at or past it is released again if replay
    /// regenerates it.
    fn watermark(&self) -> u64 {
        self.released
            .keys()
            .zip(0u64..)
            .take_while(|&(&seq, i)| seq == i)
            .count() as u64
    }

    /// Every released diagnosis, ordered by job sequence number.
    fn diagnoses(self) -> Vec<Diagnosis> {
        self.released.into_values().flatten().collect()
    }
}

/// Restore `analyzer` and the receiver `streams`, both built from the run's
/// configuration, from a scanned log whose release watermark is `g`. The
/// restore stands at the newest valid base whose next job seq is at most
/// `g`, so every job before it has a copy on the log, then applies every
/// later valid delta, in log order, whose continuity key is the count the
/// analyzer has reached and whose next job seq is at most `g`. A delta is
/// replayed through the same ingest that first ran it, so it rebuilds the
/// whole analyzer state; the jobs it regenerates were all released before
/// it, so they are only counted, and must land on its next job seq. A
/// corrupt, torn or non-continuing delta is skipped, so a delta that a
/// later lifetime re-wrote still chains. The streams end as the last
/// applied record left them. Returns the next job sequence number and the
/// chain to continue, or `None` (cold start) when no base qualifies.
fn restore(
    scan: LogScan<'_>,
    g: u64,
    analyzer: &mut Analyzer<'_>,
    streams: &mut [AgentStream],
) -> Result<Option<(u64, Chain)>, ServiceError> {
    let Some(b) = scan
        .bounds
        .iter()
        .rposition(|(_, r)| r.from.is_none() && r.next_seq <= g)
    else {
        return Ok(None);
    };
    let mut later = scan.bounds.into_iter().skip(b);
    let (base_bytes, base) = later.next().expect("the base found above");
    let mut next_seq = base.next_seq;
    base.restore_base(analyzer, streams.iter_mut().map(|st| &mut st.agent))?;
    let mut chain = Chain {
        at: analyzer.stats().messages,
        base_bytes: Some(base_bytes),
        ..Chain::default()
    };
    for (delta_bytes, delta) in later {
        if delta.from != Some(chain.at) || delta.next_seq > g {
            continue;
        }
        let delta_next_seq = delta.next_seq;
        let entries = delta.restore_delta(streams.iter_mut().map(|st| &mut st.agent))?;
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
        chain.delta_bytes += delta_bytes;
    }
    Ok(Some((next_seq, chain)))
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
    /// order (read back from the store's records when there is one).
    pub(crate) diagnoses: Vec<Diagnosis>,
    /// Job seqs below this have a copy on the store; replay must not
    /// release them again.
    released_watermark: u64,
    kill_point: Option<u64>,
    /// The record chain on the store (unused without one).
    chain: Chain,
    /// The jobs of the release being written, kept to reuse its buffer.
    release: Vec<Job>,
}

impl<'a> RunState<'a> {
    pub(crate) fn new(store: Option<&'a mut dyn Store>, kill_point: Option<u64>) -> RunState<'a> {
        RunState {
            store,
            stats: RecoveryStats::default(),
            service_stats: ServiceStats::default(),
            diagnoses: Vec::new(),
            released_watermark: 0,
            kill_point,
            chain: Chain::default(),
            release: Vec::new(),
        }
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

/// Take every pending result below `up_to` into [`RunState::release`], in
/// job-sequence order, suppressing the jobs below the release watermark:
/// their copies are on the store already.
fn take_release(pool: &mut Pool<'_, '_>, up_to: u64, st: &mut RunState<'_>) {
    let metrics = pool.metrics;
    let t = StageTimer::start(metrics, Stage::Commit);
    let mut released = 0u64;
    st.release.clear();
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
        st.release.push((seq, ds));
    }
    st.released_watermark = st.released_watermark.max(up_to);
    t.finish();
    if let Some(m) = metrics {
        m.count(Stage::Commit, released);
    }
}

/// The end-of-stream release of every pending result below `up_to`: one
/// [`KIND_DIAGNOSES`] store record, written even when it holds no job, or
/// straight into [`RunState::diagnoses`] without a store.
fn commit_release(
    pool: &mut Pool<'_, '_>,
    up_to: u64,
    st: &mut RunState<'_>,
) -> Result<(), ServiceError> {
    take_release(pool, up_to, st);
    match &mut st.store {
        Some(store) => store.append(KIND_DIAGNOSES, &encode_release(up_to, &st.release))?,
        None => st
            .diagnoses
            .extend(st.release.drain(..).flat_map(|(_, ds)| ds)),
    }
    Ok(())
}

/// Where the merge thread hands syncs to the cycle's sync thread. The merge
/// thread appends a record, requests a sync and goes on; the sync thread
/// syncs whenever one is requested, and each sync covers every record
/// appended before it started, so the requests that arrive while one runs
/// share the next: group commit, with no setting. A mutex and a condition
/// variable, not a channel: the sync thread must not allocate (a blocking
/// channel receive does, and a thread's first allocation gives it an
/// allocator arena of its own).
#[derive(Default)]
struct SyncSlot {
    state: Mutex<SyncState>,
    changed: Condvar,
}

#[derive(Default)]
struct SyncState {
    /// A sync was requested and has not started.
    requested: bool,
    /// A sync is running.
    running: bool,
    /// The cycle is over: the sync thread exits once no sync is requested.
    closed: bool,
    /// How a sync failed, returned at the next request or wait.
    failed: Option<StoreError>,
    /// Syncs completed ([`RecoveryStats::syncs`]).
    syncs: u64,
}

impl SyncSlot {
    /// Every update under the lock is a few field stores, so a poisoned
    /// lock still guards valid state, and [`SyncThread`]'s `Drop` must not
    /// panic.
    fn lock(&self) -> MutexGuard<'_, SyncState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The sync thread: run a sync whenever one is requested, until the
    /// slot closes.
    fn serve(&self, flush: &dyn Flush) {
        loop {
            let mut s = self
                .changed
                .wait_while(self.lock(), |s| !s.requested && !s.closed)
                .unwrap_or_else(PoisonError::into_inner);
            if !s.requested {
                return;
            }
            s.requested = false;
            s.running = true;
            drop(s);
            let synced = flush.sync();
            let mut s = self.lock();
            s.running = false;
            s.syncs += 1;
            if let Err(e) = synced {
                s.failed.get_or_insert(e);
            }
            drop(s);
            self.changed.notify_all();
        }
    }

    /// Request a sync of everything appended so far, and go on. A sync
    /// that failed since the last request is returned here.
    fn request(&self) -> Result<(), StoreError> {
        let mut s = self.lock();
        if let Some(e) = s.failed.take() {
            return Err(e);
        }
        s.requested = true;
        drop(s);
        self.changed.notify_all();
        Ok(())
    }

    /// Block until every requested sync has finished, and return how many
    /// ran. A failed sync is returned here.
    fn wait(&self) -> Result<u64, StoreError> {
        let mut s = self
            .changed
            .wait_while(self.lock(), |s| s.requested || s.running)
            .unwrap_or_else(PoisonError::into_inner);
        s.failed.take().map_or(Ok(s.syncs), Err)
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

/// One checkpoint boundary on `store`: quiesce the pool, take the release
/// of every job before `seq`, encode it into the boundary record
/// ([`Chain::boundary`]), append that one record, and request its sync,
/// which runs on the sync thread while the next interval merges.
fn write_boundary(
    pool: &mut Pool<'_, '_>,
    analyzer: &Analyzer<'_>,
    streams: &[AgentStream],
    seq: u64,
    st: &mut RunState<'_>,
    sync: &SyncSlot,
) -> Result<(), ServiceError> {
    pool.quiesce()?;
    take_release(pool, seq, st);
    let metrics = pool.metrics;
    let t = StageTimer::start(metrics, Stage::Checkpoint);
    let kind = st.chain.boundary(analyzer, streams, seq, &st.release);
    let store = st
        .store
        .as_mut()
        .expect("boundaries are only written to a store");
    let appended = store.append(kind, &st.chain.record);
    t.finish();
    appended?;
    if let Some(m) = metrics {
        m.count(Stage::Checkpoint, 1);
    }
    st.stats.checkpoints_written += 1;
    sync.request()?;
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
        Some(store) => {
            let scan = LogScan::new(store.bytes())?;
            let g = scan.watermark();
            state.released_watermark = g;
            restore(scan, g, analyzer, &mut streams)?
        }
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

        let completed = matches!(ended, RunEnd::Completed);
        if completed {
            for job in analyzer.finish_jobs_observed(metrics) {
                pool.submit(seq, job)?;
                seq += 1;
            }
            pool.quiesce()?;
            // Final release: the stream is exhausted, nothing can be
            // regenerated — no boundary needed to make it safe, but the
            // diagnoses themselves must reach the store durably.
            commit_release(&mut pool, seq, state)?;
            sync.map_or(Ok(()), SyncSlot::request)?;
        }
        // The merge thread's one wait for the disk: every sync requested,
        // the final release's or on a kill the last boundary's, ends
        // before the lifetime does.
        if let Some(sync) = sync {
            state.stats.syncs = sync.wait()?;
        }
        if completed {
            if let Some(store) = &state.store {
                state.diagnoses = LogScan::new(store.bytes())?.diagnoses();
            }
            for st in &streams {
                state
                    .service_stats
                    .capture
                    .merge(&st.agent.resequencer.stats());
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
    let mut state = RunState::new(None, None);
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
        let scan = LogScan::new(log).expect("the log reads");
        let g = scan.watermark();
        let (_, chain) = restore(scan, g, &mut analyzer, &mut streams)
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

    /// `g` is the first job without a valid copy: every job of a killed
    /// log, until a record that holds jobs is damaged between valid ones,
    /// then that record's first job, until a copy of its jobs lands
    /// elsewhere on the log.
    #[test]
    fn a_damaged_record_puts_the_watermark_at_its_first_job() {
        let fx = chain_fixture();
        let mut store = MemStore::new();
        let watermark = |store: &MemStore| LogScan::new(store.bytes()).unwrap().watermark();
        assert_eq!(watermark(&store), 0);
        chain_lifetime(&fx, Some(8 * CHAIN_EVERY + 7), &mut store);
        let log = store.bytes().to_vec();
        let opened: Vec<Boundary<'_>> = records(&log)
            .map(|r| open_boundary(r.kind, r.payload).expect("a boundary record"))
            .collect();
        let newest = opened.last().expect("boundaries").next_seq;
        assert_eq!(watermark(&store), newest);
        let n = opened.len();
        let (i, damaged) = opened[..n - 1]
            .iter()
            .enumerate()
            .skip(1)
            .find(|(_, b)| !b.jobs.is_empty())
            .expect("a middle record released jobs");
        assert!(store.corrupt_record(i, 17));
        assert_eq!(watermark(&store), damaged.jobs[0].0);
        let copy = encode_release(damaged.next_seq, &damaged.jobs);
        store.append(KIND_DIAGNOSES, &copy).unwrap();
        assert_eq!(watermark(&store), newest);
    }

    /// A slow disk behind a [`MemStore`] that keeps the order of what
    /// reaches it: each append once it is done, each detached sync as it
    /// starts. A sync takes a millisecond, many times what the fixture's
    /// interval takes to merge, and the sync or the boundary append of a
    /// given number (1-based) can be made to fail.
    struct SlowStore {
        mem: MemStore,
        disk: std::sync::Arc<SlowDisk>,
        fail_append_at: Option<u64>,
        boundary_appends: u64,
    }

    /// What reached a [`SlowStore`]'s disk, in order.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum DiskOp {
        Append,
        SyncStart,
    }

    #[derive(Default)]
    struct SlowDisk {
        ops: Mutex<Vec<DiskOp>>,
        fail_sync_at: Option<u64>,
    }

    impl SlowStore {
        fn new(fail_sync_at: Option<u64>, fail_append_at: Option<u64>) -> SlowStore {
            SlowStore {
                mem: MemStore::new(),
                disk: std::sync::Arc::new(SlowDisk {
                    fail_sync_at,
                    ..SlowDisk::default()
                }),
                fail_append_at,
                boundary_appends: 0,
            }
        }

        fn ops(&self) -> Vec<DiskOp> {
            self.disk.ops.lock().unwrap().clone()
        }
    }

    fn injected(op: &'static str) -> StoreError {
        StoreError::Io {
            op,
            detail: "injected".into(),
        }
    }

    struct SlowFlush(std::sync::Arc<SlowDisk>);

    impl Flush for SlowFlush {
        fn sync(&self) -> Result<(), StoreError> {
            let disk = &self.0;
            let n = {
                let mut ops = disk.ops.lock().unwrap();
                ops.push(DiskOp::SyncStart);
                ops.iter().filter(|&&op| op == DiskOp::SyncStart).count() as u64
            };
            std::thread::sleep(Duration::from_millis(1));
            if disk.fail_sync_at == Some(n) {
                return Err(injected("sync"));
            }
            Ok(())
        }
    }

    impl Store for SlowStore {
        fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
            if kind != KIND_DIAGNOSES {
                self.boundary_appends += 1;
                if self.fail_append_at == Some(self.boundary_appends) {
                    return Err(injected("append"));
                }
            }
            self.mem.append(kind, payload)?;
            self.disk.ops.lock().unwrap().push(DiskOp::Append);
            Ok(())
        }

        fn bytes(&self) -> &[u8] {
            self.mem.bytes()
        }

        fn sync(&mut self) -> Result<(), StoreError> {
            Ok(())
        }

        fn flusher(&self) -> Result<Box<dyn Flush + Send>, StoreError> {
            Ok(Box::new(SlowFlush(self.disk.clone())))
        }
    }

    /// Syncs on the sync thread: the merge thread appends and goes on, and
    /// every append is covered by a sync that started after it; a clean
    /// run writes the log a plain [`MemStore`] run writes, and runs at least
    /// one sync and at most one per boundary plus the final release's; a
    /// sync or an append that fails ends the lifetime with
    /// [`ServiceError::Store`] — every thread joined, the log a prefix of
    /// the clean run's.
    #[test]
    fn store_failures_end_the_lifetime_and_every_append_is_synced() {
        const K: u64 = 3;
        let fx = std::sync::Arc::new(chain_fixture());
        let mut clean = MemStore::new();
        chain_lifetime(&fx, None, &mut clean);
        let clean = clean.bytes().to_vec();
        let boundaries = |log: &[u8]| records(log).filter(|r| r.kind != KIND_DIAGNOSES).count();
        assert!(boundaries(&clean) > K as usize + 1);
        // (fail the sync at, fail the append at)
        for arm in [(None, None), (Some(1), None), (None, Some(K))] {
            let (tx, rx) = std::sync::mpsc::channel();
            let fx = fx.clone();
            std::thread::spawn(move || {
                let mut store = SlowStore::new(arm.0, arm.1);
                let got = chain_run(&fx, None, &mut store);
                let _ = tx.send((got, store));
            });
            let (got, store) = rx
                .recv_timeout(Duration::from_secs(120))
                .expect("the lifetime returns");
            let log = store.bytes();
            assert!(clean.starts_with(log), "{arm:?}: a prefix of the clean log");
            let ops = store.ops();
            let syncs = ops.iter().filter(|&&op| op == DiskOp::SyncStart).count() as u64;
            match (arm, got) {
                ((None, None), Ok(crate::recover::DurableOutcome::Completed { recovery, .. })) => {
                    assert_eq!(log, &clean[..]);
                    let newest_append = ops.iter().rposition(|&op| op == DiskOp::Append);
                    let newest_sync = ops.iter().rposition(|&op| op == DiskOp::SyncStart);
                    assert!(
                        newest_sync > newest_append,
                        "a sync started after every append: {ops:?}"
                    );
                    assert_eq!(recovery.syncs, syncs);
                    assert!(
                        (1..=recovery.checkpoints_written + 1).contains(&syncs),
                        "{syncs} syncs for {} boundaries",
                        recovery.checkpoints_written
                    );
                }
                ((Some(_), None), Err(ServiceError::Store(e))) => {
                    assert_eq!(e, injected("sync"));
                    assert!(boundaries(log) >= 1);
                }
                ((None, Some(at)), Err(ServiceError::Store(e))) => {
                    assert_eq!(e, injected("append"));
                    assert_eq!(boundaries(log), at as usize - 1);
                }
                (arm, got) => panic!("{arm:?}: {got:?}"),
            }
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
            let mut state = RunState::new(None, None);
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
