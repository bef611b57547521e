//! The end-to-end analyzer (Fig 3's central service).
//!
//! [`Analyzer::process`] is GRETEL's per-message hot path:
//!
//! 1. byte-scan the payload for error patterns (no JSON parsing, §5.3);
//! 2. pair requests/responses into per-API latency observations and run
//!    them through the level-shift detectors;
//! 3. push the event into the dual-buffer sliding window;
//! 4. on a REST error (or a confirmed latency anomaly), arm a snapshot;
//!    when the future half fills, run operation detection (Algorithm 2)
//!    over **every** unanalyzed error in the snapshot — RPC errors ride
//!    along with the REST error that armed it (§5.3.1 "Improving
//!    precision") — and hand the matched operations to root cause
//!    analysis (Algorithm 3).
//!
//! Root cause analysis is optional: without telemetry the analyzer still
//! detects faults and operations (that is the configuration the
//! throughput experiments run).

use crate::anomaly::{scan_message, LatencyPairer};
use crate::config::GretelConfig;
use crate::detect::{Detector, SnapshotIndex};
use crate::event::{Event, FaultMark};
use crate::fingerprint::FingerprintLibrary;
use crate::perf::{PerfFault, PerfMonitor};
use crate::rca::RcaEngine;
use crate::report::{CaptureConfidence, Diagnosis, FaultKind};
use crate::window::{SlidingWindow, Snapshot};
use gretel_model::codec::{DecodeError, Reader, Wire};
use gretel_model::{ApiKind, Message, MessageHead, MessageId, OperationSpec, RpcStyle};
use gretel_sim::Deployment;
use gretel_telemetry::{LevelShiftConfig, TelemetryStore};

/// Everything RCA needs; optional on the analyzer.
#[derive(Clone, Copy)]
pub struct RcaContext<'a> {
    /// The deployment topology (service → nodes).
    pub deployment: &'a Deployment,
    /// Collected telemetry.
    pub telemetry: &'a TelemetryStore,
    /// The operation specs the library was trained on (dense by id).
    pub specs: &'a [OperationSpec],
}

/// Counters exposed for the overhead experiments (§7.4.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalyzerStats {
    /// Messages processed.
    pub messages: u64,
    /// Payload bytes scanned.
    pub bytes: u64,
    /// REST errors detected by the byte scan.
    pub rest_errors: u64,
    /// RPC errors detected by the byte scan.
    pub rpc_errors: u64,
    /// Snapshots frozen.
    pub snapshots: u64,
    /// Performance faults confirmed.
    pub perf_faults: u64,
    /// Capture-gap markers ingested (distinct places the receiver knew
    /// frames went missing).
    pub capture_gaps: u64,
    /// Total frames the receiver inferred lost across those gaps.
    pub lost_frames: u64,
}

gretel_model::wire_struct!(AnalyzerStats {
    messages: u64,
    bytes: u64,
    rest_errors: u64,
    rpc_errors: u64,
    snapshots: u64,
    perf_faults: u64,
    capture_gaps: u64,
    lost_frames: u64,
});

/// The central analyzer service.
pub struct Analyzer<'a> {
    cfg: GretelConfig,
    lib: &'a FingerprintLibrary,
    rca: Option<RcaContext<'a>>,
    window: SlidingWindow,
    pairer: LatencyPairer,
    perf: PerfMonitor,
    /// The claim watermark: the message count when the last snapshot job
    /// was prepared. Every error at or below it is claimed already.
    claimed_through: u64,
    pending_perf: Vec<(MessageId, PerfFault)>,
    stats: AnalyzerStats,
    pending_gap: u32,
    graph: crate::graph::ServiceGraph,
}

impl<'a> Analyzer<'a> {
    /// Analyzer without RCA (fault + operation detection only).
    pub fn new(lib: &'a FingerprintLibrary, cfg: GretelConfig) -> Analyzer<'a> {
        Self::with_perf_config(lib, cfg, LevelShiftConfig::default(), false)
    }

    /// Analyzer with explicit perf-detector settings.
    pub fn with_perf_config(
        lib: &'a FingerprintLibrary,
        cfg: GretelConfig,
        perf_cfg: LevelShiftConfig,
        keep_latency_history: bool,
    ) -> Analyzer<'a> {
        Self::with_perf_monitor(lib, cfg, PerfMonitor::new(perf_cfg, keep_latency_history))
    }

    /// Analyzer with a fully custom performance monitor (any
    /// [`gretel_telemetry::OutlierDetector`] plug-in).
    pub fn with_perf_monitor(
        lib: &'a FingerprintLibrary,
        cfg: GretelConfig,
        perf: PerfMonitor,
    ) -> Analyzer<'a> {
        Analyzer {
            window: SlidingWindow::new(cfg.alpha),
            cfg,
            lib,
            rca: None,
            pairer: LatencyPairer::new(),
            perf,
            claimed_through: 0,
            pending_perf: Vec::new(),
            stats: AnalyzerStats::default(),
            pending_gap: 0,
            graph: crate::graph::ServiceGraph::new(),
        }
    }

    /// The currently configured window size α.
    pub fn alpha(&self) -> usize {
        self.window.alpha()
    }

    /// Attach root cause analysis.
    pub fn with_rca(mut self, rca: RcaContext<'a>) -> Analyzer<'a> {
        self.rca = Some(rca);
        self
    }

    /// Processing counters.
    pub fn stats(&self) -> AnalyzerStats {
        self.stats
    }

    /// The cross-service dependency graph mined from observed traffic so
    /// far. Feed it to [`crate::graph::attribute_cascades`] to label a
    /// run's diagnoses with root-vs-symptom cascade attribution.
    pub fn traffic_graph(&self) -> &crate::graph::ServiceGraph {
        &self.graph
    }

    /// Collected latency history for an API (when enabled; a plotting aid
    /// that checkpoints do not carry).
    pub fn latency_history(&self, api: gretel_model::ApiId) -> &[(u64, f64)] {
        self.perf.history(api)
    }

    /// Record a capture gap: the receiver inferred `lost` frames missing
    /// just before the *next* message it will ingest. The next event
    /// entering the window carries the marker (`Event::gap_before`), which
    /// makes every snapshot spanning it a degraded-confidence snapshot.
    /// Consecutive gap reports accumulate onto the same marker.
    pub fn note_capture_gap(&mut self, lost: u32) {
        if lost == 0 {
            return;
        }
        self.stats.capture_gaps += 1;
        self.stats.lost_frames += lost as u64;
        self.pending_gap = self.pending_gap.saturating_add(lost);
    }

    /// The per-message fast path: scan, pair, window-push — everything
    /// *stateful* — and return the snapshot jobs this message completed,
    /// without analyzing them. [`Self::process`] analyzes inline; the
    /// threaded service ships the jobs to a worker pool instead (see
    /// [`crate::service::run_service_cfg`]).
    pub fn ingest(&mut self, msg: &Message) -> Vec<SnapshotJob> {
        // 1. Byte-level fault scan (never the structured fields).
        self.ingest_marked(msg, scan_message(msg), None)
    }

    /// [`Self::ingest`] for a message whose byte scan already ran, with an
    /// optional metrics registry: snapshot freezes (window stage) are
    /// counted and timed into it. The analyzer cannot hold the registry
    /// itself — its lifetime parameter is pinned to the fingerprint
    /// library — so the caller threads it through each call. Passing `None`
    /// is the exact fast path of [`Self::ingest`].
    ///
    /// The scan is pure, so it can run anywhere before ingest: in the
    /// threaded pipeline each capture agent scans the payloads it forwards,
    /// and the receiver ingests each message's head with the mark its event
    /// record carries — the counters, window pushes and arming decisions all
    /// happen at ingest time in merge order, exactly as if the scan had run
    /// inline. `fault` **must** equal
    /// `scan_message(msg)`; anything else forks the diagnosis stream from
    /// the per-message path.
    pub fn ingest_marked(
        &mut self,
        msg: &Message,
        fault: FaultMark,
        metrics: Option<&gretel_obs::PipelineMetrics>,
    ) -> Vec<SnapshotJob> {
        self.ingest_head(&msg.head(), fault, metrics)
    }

    /// [`Self::ingest_marked`] on a message's head: everything ingest reads
    /// of a message, which the receiver reads out of an event record
    /// without building the message.
    #[inline]
    pub(crate) fn ingest_head(
        &mut self,
        msg: &MessageHead,
        fault: FaultMark,
        metrics: Option<&gretel_obs::PipelineMetrics>,
    ) -> Vec<SnapshotJob> {
        self.stats.messages += 1;
        self.stats.bytes += u64::from(msg.payload_len);
        match fault {
            FaultMark::RestError(_) => self.stats.rest_errors += 1,
            FaultMark::RpcError => self.stats.rpc_errors += 1,
            FaultMark::None => {}
        }

        let def = self.lib.catalog().get(msg.api);

        // Mine the cross-service dependency graph from the same observed
        // traffic: catalog noise classification, byte-scan error verdict —
        // never ground truth.
        self.graph
            .observe(msg, def.noise.is_some(), !matches!(fault, FaultMark::None));

        let mut ev = Event::new(
            msg,
            def.is_rpc(),
            def.is_state_change(),
            def.noise.is_some(),
            fault,
        );
        // Attach any gap reported since the previous ingest: this event is
        // the first to arrive after the hole.
        ev.gap_before = std::mem::take(&mut self.pending_gap);

        // 2. Latency pairing → perf detectors (noise APIs excluded: their
        // cadence is fixed and uninteresting; casts never get a reply, so
        // they would only sit in the pairer).
        let mut perf_hit: Option<PerfFault> = None;
        let cast = matches!(
            def.kind,
            ApiKind::Rpc {
                style: RpcStyle::Cast,
                ..
            }
        );
        if !ev.noise_api && !cast {
            if let Some(obs) = self.pairer.observe(msg) {
                if let Some(pf) = self.perf.observe(obs) {
                    self.stats.perf_faults += 1;
                    perf_hit = Some(pf);
                }
            }
        }

        // 3. Window push; completed snapshots become jobs (the stateful
        // part: stats, perf folding, error dedup), analyzed below. The
        // window stage counts snapshot freezes: how many windows froze and
        // how long turning each batch into jobs took.
        let snapshots = self.window.push(ev);
        let jobs = self.prepare_jobs(snapshots, metrics);

        // 4. Arm new snapshots. Operational: REST errors only (§5.3.1);
        // one pending freeze at a time — errors landing inside the pending
        // future-half are analyzed together with it.
        if ev.fault.is_rest_error() && !ev.noise_api && self.window.pending() == 0 {
            self.window.arm(ev);
        }
        if let Some(pf) = perf_hit {
            if self.window.pending() == 0 {
                self.window.arm(ev);
                self.pending_perf.push((ev.id, pf));
            } else {
                // Fold into the upcoming snapshot.
                self.pending_perf.push((ev.id, pf));
            }
        }
        jobs
    }

    /// Ingest one captured message; returns diagnoses completed by it.
    pub fn process(&mut self, msg: &Message) -> Vec<Diagnosis> {
        let jobs = self.ingest(msg);
        if jobs.is_empty() {
            return Vec::new(); // the common case: nothing froze
        }
        let sa = self.snapshot_analyzer();
        jobs.iter().flat_map(|job| sa.analyze(job)).collect()
    }

    /// Flush at stream end: complete pending snapshots with the context
    /// available.
    pub fn finish(&mut self) -> Vec<Diagnosis> {
        let jobs = self.finish_jobs_observed(None);
        let sa = self.snapshot_analyzer();
        jobs.iter().flat_map(|job| sa.analyze(job)).collect()
    }

    /// Stream-end counterpart of [`Self::ingest_marked`]: flush pending
    /// snapshots into jobs without analyzing them. The flushed snapshots
    /// count toward the window stage of `metrics` (when given) like
    /// mid-stream freezes do.
    pub fn finish_jobs_observed(
        &mut self,
        metrics: Option<&gretel_obs::PipelineMetrics>,
    ) -> Vec<SnapshotJob> {
        let snaps = self.window.flush();
        self.prepare_jobs(snaps, metrics)
    }

    /// A detached snapshot analyzer sharing this analyzer's library,
    /// configuration and RCA context. It borrows the *referenced* data
    /// (lifetime `'a`), not the analyzer itself, so jobs can be analyzed on
    /// other threads while the analyzer keeps ingesting.
    pub fn snapshot_analyzer(&self) -> SnapshotAnalyzer<'a> {
        SnapshotAnalyzer {
            cfg: self.cfg,
            lib: self.lib,
            rca: self.rca,
            metrics: None,
        }
    }

    /// Serialize the analyzer's full ingest state — window, pairer, perf
    /// detectors, claim watermark, pending perf faults, stats, pending gap
    /// marker, traffic graph — for a base checkpoint. Always `Some`: every
    /// [`gretel_telemetry::OutlierDetector`] writes its state.
    ///
    /// Configuration (library, [`crate::GretelConfig`], RCA context) is
    /// *not* serialized: restore targets an analyzer constructed the same
    /// way, and only replaces its dynamic state.
    pub fn export_state(&self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.put_state(&mut out);
        Some(out)
    }

    /// Append [`Analyzer::export_state`]'s bytes to `out`, each block
    /// written in place; a base record is encoded this way.
    pub(crate) fn put_state(&self, out: &mut Vec<u8>) {
        // The window is most of the state: reserve for it, so the buffer
        // grows at most a few times more.
        out.reserve((self.window.len() + 1024) * Event::MIN_BYTES);
        self.window.put_state(out);
        self.pairer.put(out);
        self.perf.put_state(out);
        self.claimed_through.put(out);
        self.pending_perf.put(out);
        (self.stats, self.pending_gap).put(out);
        self.graph.put(out);
    }

    /// Replace this analyzer's dynamic state with
    /// [`Analyzer::export_state`] bytes. The analyzer must be configured —
    /// library, config, perf factory, RCA — the same way as the one that
    /// exported; only the dynamic state transfers, into the window and
    /// detectors this analyzer's configuration built, and a window of
    /// another α than the configured one is `Invalid("window alpha")`; a
    /// claim watermark past the message count is
    /// `Invalid("claim watermark")`, and a window holding more events than
    /// that count `Invalid("window past message count")`. All-or-nothing:
    /// on any error the analyzer is left unchanged.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        self.restore_from(Reader::new(bytes))
    }

    /// [`Analyzer::restore_state`] from the state that fills the rest of
    /// `r`.
    pub(crate) fn restore_from(&mut self, mut r: Reader<'_>) -> Result<(), DecodeError> {
        let mut window = SlidingWindow::new(self.cfg.alpha);
        window.restore(&mut r)?;
        let pairer = LatencyPairer::read(&mut r)?;
        let detectors = self.perf.read_detectors(&mut r)?;
        let claimed_through = u64::read(&mut r)?;
        let pending_perf = Wire::read(&mut r)?;
        let (stats, pending_gap): (AnalyzerStats, u32) = Wire::read(&mut r)?;
        let graph = Wire::read(&mut r)?;
        r.done()?;
        if claimed_through > stats.messages {
            return Err(DecodeError::Invalid("claim watermark"));
        }
        // Every windowed event was ingested, which the claim arithmetic in
        // `prepare_job` relies on.
        if window.len() as u64 > stats.messages {
            return Err(DecodeError::Invalid("window past message count"));
        }

        // Everything decoded: commit.
        self.window = window;
        self.pairer = pairer;
        self.perf.install(detectors);
        self.claimed_through = claimed_through;
        self.pending_perf = pending_perf;
        self.stats = stats;
        self.pending_gap = pending_gap;
        self.graph = graph;
        Ok(())
    }

    /// Turn frozen snapshots into jobs, timed and counted at the window
    /// stage of `metrics` (when given).
    fn prepare_jobs(
        &mut self,
        snaps: Vec<Snapshot>,
        metrics: Option<&gretel_obs::PipelineMetrics>,
    ) -> Vec<SnapshotJob> {
        if snaps.is_empty() {
            return Vec::new();
        }
        let t = gretel_obs::StageTimer::start(metrics, gretel_obs::Stage::Window);
        let jobs: Vec<SnapshotJob> = snaps.into_iter().map(|s| self.prepare_job(s)).collect();
        if let Some(m) = metrics {
            m.count(gretel_obs::Stage::Window, jobs.len() as u64);
        }
        t.finish();
        jobs
    }

    fn prepare_job(&mut self, snap: Snapshot) -> SnapshotJob {
        self.stats.snapshots += 1;
        // Performance faults folded into this snapshot.
        let perf: Vec<(MessageId, PerfFault)> = std::mem::take(&mut self.pending_perf);
        // Claim every unclaimed error event (the REST error that armed the
        // snapshot plus any RPC/REST errors nearby). A snapshot holds the
        // last `len` ingested messages, so event `i` is message
        // `messages - len + 1 + i`; windows freeze in ingest order and each
        // claims every unclaimed error it holds, so an error is claimed
        // already exactly when it lies at or below the previous freeze's
        // count. That is the rule "claim each message id once" whenever ids
        // are unique in the ingested stream — true of the executor, of
        // `SyntheticStream`, and after resequencing, which drops duplicates
        // by sequence number. The watermark is read and moved exactly here
        // — single-threaded — so analysis itself needs no shared state.
        let first = self.stats.messages + 1 - snap.events.len() as u64;
        let claimed = (self.claimed_through + 1).saturating_sub(first);
        let errors: Vec<usize> = snap
            .events
            .iter()
            .enumerate()
            .skip(claimed as usize)
            .filter(|(_, ev)| ev.fault.is_error() && !ev.noise_api)
            .map(|(idx, _)| idx)
            .collect();
        self.claimed_through = self.stats.messages;
        SnapshotJob { snap, perf, errors }
    }
}

/// A frozen snapshot plus the receiver-side decisions that accompany it:
/// which perf faults folded into it and which error events it claimed
/// above the claim watermark. Prepared by [`Analyzer::ingest`] on the
/// capture thread; analyzed — statelessly, on any thread — by
/// [`SnapshotAnalyzer`].
#[derive(Debug, Clone)]
pub struct SnapshotJob {
    snap: Snapshot,
    perf: Vec<(MessageId, PerfFault)>,
    errors: Vec<usize>,
}

impl SnapshotJob {
    /// The frozen snapshot under analysis.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }

    /// Whether the job claimed any fault (performance or operational); a
    /// job without one has nothing to detect, and nothing to cancel.
    pub(crate) fn has_faults(&self) -> bool {
        !self.perf.is_empty() || !self.errors.is_empty()
    }

    /// This job with its claimed faults dropped: the clean job a freeze
    /// produces when every error in its window was already claimed.
    #[cfg(test)]
    pub(crate) fn without_faults(mut self) -> SnapshotJob {
        self.perf.clear();
        self.errors.clear();
        self
    }
}

/// The diagnosis kind of a claimed error event.
fn operational_kind(fault: FaultMark) -> FaultKind {
    match fault {
        FaultMark::RestError(s) => FaultKind::Operational {
            status: Some(s),
            rpc: false,
        },
        FaultMark::RpcError => FaultKind::Operational {
            status: None,
            rpc: true,
        },
        FaultMark::None => unreachable!("jobs only claim error events"),
    }
}

/// The diagnosis kind of a confirmed latency shift (µs to ms).
fn perf_kind(pf: &PerfFault) -> FaultKind {
    FaultKind::Performance {
        observed_ms: pf.anomaly.value / 1000.0,
        baseline_ms: pf.anomaly.baseline / 1000.0,
    }
}

/// The stateless half of the analyzer: runs Algorithm 2 + RCA over a
/// prepared [`SnapshotJob`]. `Copy`, and borrows only the library /
/// telemetry — hand one to each worker of an analysis pool.
#[derive(Clone, Copy)]
pub struct SnapshotAnalyzer<'a> {
    cfg: GretelConfig,
    lib: &'a FingerprintLibrary,
    rca: Option<RcaContext<'a>>,
    metrics: Option<&'a gretel_obs::PipelineMetrics>,
}

impl<'a> SnapshotAnalyzer<'a> {
    /// Attach a metrics registry: analysis runs then time their detect /
    /// match / RCA stages into it. Metrics never influence the diagnoses —
    /// event counts are pure functions of the jobs, and latency values are
    /// recorded, not consulted.
    pub fn with_metrics(
        mut self,
        metrics: Option<&'a gretel_obs::PipelineMetrics>,
    ) -> SnapshotAnalyzer<'a> {
        self.metrics = metrics;
        self
    }
    /// The cancellation surface: one [`CaptureConfidence::Cancelled`]
    /// diagnosis per fault in the job, with no matching or RCA evidence.
    /// Used when a job stalls or exhausts its crash-retry budget — the
    /// operator still learns the fault happened.
    pub(crate) fn cancel(&self, job: &SnapshotJob) -> Vec<Diagnosis> {
        let snap = &job.snap;
        let mut out = Vec::new();
        for (msg_id, pf) in &job.perf {
            let Some(idx) = snap.events.iter().position(|e| e.id == *msg_id) else {
                continue;
            };
            out.push(Diagnosis {
                kind: perf_kind(pf),
                api: pf.api,
                ts: snap.events[idx].ts,
                matched: Vec::new(),
                theta: 0.0,
                beta_used: 0,
                candidates: 0,
                root_causes: Vec::new(),
                confidence: CaptureConfidence::Cancelled,
                attribution: None,
            });
        }
        for &idx in &job.errors {
            let ev = &snap.events[idx];
            out.push(Diagnosis {
                kind: operational_kind(ev.fault),
                api: ev.api,
                ts: ev.ts,
                matched: Vec::new(),
                theta: 0.0,
                beta_used: 0,
                candidates: 0,
                root_causes: Vec::new(),
                confidence: CaptureConfidence::Cancelled,
                attribution: None,
            });
        }
        out
    }

    /// Analyze one prepared snapshot job; pure aside from the borrowed
    /// read-only context, so calls from different threads commute.
    pub fn analyze(&self, job: &SnapshotJob) -> Vec<Diagnosis> {
        if !job.has_faults() {
            return Vec::new(); // clean snapshot: nothing to detect
        }
        let detector = Detector::new(self.lib, self.cfg);
        let snap = &job.snap;
        // One shared O(α) pass; every detection below is sub-linear in the
        // snapshot after this. The index exists to serve subsequence
        // matching, so its build time is charged to the match stage; the
        // match event count (operations matched) accrues per fault below.
        let t_match = gretel_obs::StageTimer::start(self.metrics, gretel_obs::Stage::Match);
        let sidx = SnapshotIndex::new(&snap.events);
        t_match.finish();
        // Capture quality is a property of the frozen window: any gap
        // marker inside it degrades every diagnosis made from it.
        let confidence = match (snap.gap_markers(), snap.lost_frames()) {
            (0, _) => CaptureConfidence::Exact,
            (gaps, lost) => CaptureConfidence::Degraded { gaps, lost },
        };
        // Every diagnosis of the job asks RCA about the same window, so
        // one engine serves them all and reuses its per-node verdicts.
        let mut rca = self.rca.map(|ctx| {
            let from = snap.events.first().map(|e| e.ts).unwrap_or(0);
            let until = snap.events.last().map(|e| e.ts + 1).unwrap_or(1);
            RcaEngine::new(ctx.deployment, ctx.telemetry, ctx.specs, from, until)
        });
        let mut out = Vec::new();

        for (msg_id, pf) in &job.perf {
            let idx = snap.events.iter().position(|e| e.id == *msg_id);
            let Some(idx) = idx else {
                continue; // anomaly's event already slid out; skip
            };
            let t = gretel_obs::StageTimer::start(self.metrics, gretel_obs::Stage::Detect);
            let outcome = detector.detect_performance_indexed(&snap.events, &sidx, pf.api);
            t.finish();
            if let Some(m) = self.metrics {
                m.count(gretel_obs::Stage::Detect, 1);
                m.count(gretel_obs::Stage::Match, outcome.matched.len() as u64);
            }
            out.push(self.finalize(
                rca.as_mut(),
                perf_kind(pf),
                pf.api,
                snap.events[idx],
                outcome,
                confidence,
            ));
        }

        // Operational faults: one detector call per offending API, which
        // searches the snapshot once for all of that API's faults; the
        // diagnoses still come out in claim order.
        let mut by_api: Vec<(gretel_model::ApiId, usize)> = job
            .errors
            .iter()
            .enumerate()
            .map(|(k, &idx)| (snap.events[idx].api, k))
            .collect();
        by_api.sort_unstable();
        let mut outcomes: Vec<Option<crate::detect::DetectionOutcome>> =
            vec![None; job.errors.len()];
        let mut anchors = Vec::new();
        for group in by_api.chunk_by(|a, b| a.0 == b.0) {
            anchors.clear();
            anchors.extend(group.iter().map(|&(_, k)| job.errors[k]));
            let t = gretel_obs::StageTimer::start(self.metrics, gretel_obs::Stage::Detect);
            let api = group[0].0;
            let found = detector.detect_operational_group(&snap.events, &sidx, api, &anchors);
            t.finish();
            for (&(_, k), outcome) in group.iter().zip(found) {
                if let Some(m) = self.metrics {
                    m.count(gretel_obs::Stage::Detect, 1);
                    m.count(gretel_obs::Stage::Match, outcome.matched.len() as u64);
                }
                outcomes[k] = Some(outcome);
            }
        }
        for (&idx, outcome) in job.errors.iter().zip(outcomes) {
            let ev = &snap.events[idx];
            let outcome = outcome.expect("every claimed error detected");
            let kind = operational_kind(ev.fault);
            out.push(self.finalize(rca.as_mut(), kind, ev.api, *ev, outcome, confidence));
        }
        out
    }

    fn finalize(
        &self,
        rca: Option<&mut RcaEngine<'_>>,
        kind: FaultKind,
        api: gretel_model::ApiId,
        fault: Event,
        outcome: crate::detect::DetectionOutcome,
        confidence: CaptureConfidence,
    ) -> Diagnosis {
        let root_causes = match rca {
            Some(engine) => {
                let t = gretel_obs::StageTimer::start(self.metrics, gretel_obs::Stage::Rca);
                let causes = engine.analyze(&outcome.matched, &[fault.src_node, fault.dst_node]);
                t.finish();
                if let Some(m) = self.metrics {
                    m.count(gretel_obs::Stage::Rca, 1);
                }
                causes
            }
            None => Vec::new(),
        };
        Diagnosis {
            kind,
            api,
            ts: fault.ts,
            matched: outcome.matched,
            theta: outcome.theta,
            beta_used: outcome.beta_used,
            candidates: outcome.candidates,
            root_causes,
            confidence,
            attribution: None,
        }
    }
}

/// Convenience: run a full message stream through an analyzer and return
/// every diagnosis.
pub fn analyze_stream<'m>(
    analyzer: &mut Analyzer<'_>,
    messages: impl IntoIterator<Item = &'m Message>,
) -> Vec<Diagnosis> {
    let mut out = Vec::new();
    for m in messages {
        out.extend(analyzer.process(m));
    }
    out.extend(analyzer.finish());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FingerprintLibrary;
    use gretel_model::{Catalog, HttpMethod, NodeId, OpSpecId, Service, Workflows};
    use gretel_sim::{ApiFault, FaultPlan, FaultScope, InjectedError, RunConfig, Runner};
    use std::sync::Arc;

    fn setup() -> (
        Arc<Catalog>,
        Deployment,
        Vec<OperationSpec>,
        FingerprintLibrary,
    ) {
        let cat = Catalog::openstack();
        let dep = Deployment::standard();
        let wf = Workflows::new(cat.clone());
        let specs = vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.image_upload_spec(OpSpecId(1)),
            wf.cinder_list_spec(OpSpecId(2)),
        ];
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 2, 11);
        (cat, dep, specs, lib)
    }

    #[test]
    fn detects_injected_rest_error_and_matches_operation() {
        let (cat, dep, specs, lib) = setup();
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
        let cfg = RunConfig {
            seed: 3,
            noise: true,
            ..RunConfig::default()
        };
        let refs: Vec<&OperationSpec> = specs.iter().collect();
        let exec = Runner::new(cat.clone(), &dep, &plan, cfg).run(&refs);

        let gcfg = GretelConfig {
            alpha: 64,
            ..GretelConfig::default()
        };
        let mut analyzer = Analyzer::new(&lib, gcfg);
        let diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());

        // The ports fault happens inside the VM create; expect at least
        // one operational diagnosis naming op 0.
        let hit = diagnoses
            .iter()
            .find(|d| {
                matches!(
                    d.kind,
                    FaultKind::Operational {
                        status: Some(500),
                        ..
                    }
                )
            })
            .expect("operational diagnosis for the injected 500");
        assert!(
            hit.matched.contains(&OpSpecId(0)),
            "matched: {:?}",
            hit.matched
        );
        assert!(analyzer.stats().rest_errors >= 1);
    }

    #[test]
    fn clean_run_produces_no_diagnoses() {
        let (cat, dep, specs, lib) = setup();
        let plan = FaultPlan::none();
        let refs: Vec<&OperationSpec> = specs.iter().collect();
        let exec = Runner::new(
            cat,
            &dep,
            &plan,
            RunConfig {
                seed: 5,
                ..RunConfig::default()
            },
        )
        .run(&refs);
        let mut analyzer = Analyzer::new(
            &lib,
            GretelConfig {
                alpha: 64,
                ..Default::default()
            },
        );
        let diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());
        assert!(diagnoses.is_empty(), "got {diagnoses:?}");
        assert_eq!(analyzer.stats().rest_errors, 0);
    }

    #[test]
    fn rpc_error_rides_along_with_rest_relay() {
        let (cat, dep, specs, lib) = setup();
        // An RPC *call* so the exception appears in a reply on the wire
        // (cast failures surface only via the REST relay).
        let rpc = cat.rpc_expect(Service::Neutron, "get_devices_details_list");
        let plan = FaultPlan::none().with_api_fault(ApiFault {
            api: rpc,
            scope: FaultScope::Instance(gretel_model::OpInstanceId(0)),
            occurrence: 0,
            error: InjectedError::RpcException {
                class: "NoValidHost".into(),
            },
            abort_op: true,
        });
        let refs: Vec<&OperationSpec> = specs.iter().collect();
        let exec = Runner::new(
            cat,
            &dep,
            &plan,
            RunConfig {
                seed: 7,
                ..RunConfig::default()
            },
        )
        .run(&refs);
        let mut analyzer = Analyzer::new(
            &lib,
            GretelConfig {
                alpha: 64,
                ..Default::default()
            },
        );
        let diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());
        // Both the REST relay (500) and the RPC exception analyzed.
        assert!(diagnoses
            .iter()
            .any(|d| matches!(d.kind, FaultKind::Operational { rpc: true, .. })));
        assert!(diagnoses.iter().any(|d| matches!(
            d.kind,
            FaultKind::Operational {
                status: Some(500),
                ..
            }
        )));
    }

    #[test]
    fn rca_finds_disk_exhaustion_for_image_upload() {
        let (cat, _dep, specs, lib) = setup();
        let sc = gretel_sim::scenario::failed_image_upload(&cat, 13, 2);
        let exec = sc.run(cat.clone());
        let telemetry = TelemetryStore::from_execution(&exec);
        // NOTE: the scenario has its own specs (image upload first);
        // library trained on `specs` covers the same canonical op ids 0-2.
        let mut analyzer = Analyzer::new(
            &lib,
            GretelConfig {
                alpha: 64,
                ..Default::default()
            },
        )
        .with_rca(RcaContext {
            deployment: &sc.deployment,
            telemetry: &telemetry,
            specs: &specs,
        });
        let diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());
        let d = diagnoses
            .iter()
            .find(|d| {
                matches!(
                    d.kind,
                    FaultKind::Operational {
                        status: Some(413),
                        ..
                    }
                )
            })
            .expect("413 diagnosed");
        assert!(
            d.root_causes.iter().any(|rc| {
                rc.node == gretel_model::NodeId(2)
                    && matches!(
                        rc.cause,
                        crate::rca::CauseKind::Resource(gretel_sim::ResourceKind::DiskFreeGb)
                    )
            }),
            "causes: {:?}",
            d.root_causes
        );
    }

    #[test]
    fn empty_stream_is_a_noop() {
        let (_, _, _, lib) = setup();
        let mut analyzer = Analyzer::new(
            &lib,
            GretelConfig {
                alpha: 8,
                ..Default::default()
            },
        );
        assert!(analyzer.finish().is_empty());
        assert_eq!(analyzer.stats().messages, 0);
    }

    #[test]
    fn fault_on_the_first_message_is_handled() {
        let (cat, dep, specs, lib) = setup();
        // Abort the very first step of the very first instance; the error
        // is among the earliest messages on the wire.
        let first_api = specs[0].steps[0].api;
        let plan = FaultPlan::none().with_api_fault(ApiFault {
            api: first_api,
            scope: FaultScope::Instance(gretel_model::OpInstanceId(0)),
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
                seed: 1,
                start_window: 0,
                noise: false,
                ..Default::default()
            },
        )
        .run(&refs);
        let mut analyzer = Analyzer::new(
            &lib,
            GretelConfig {
                alpha: 64,
                ..Default::default()
            },
        );
        let diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());
        assert!(diagnoses.iter().any(|d| matches!(
            d.kind,
            FaultKind::Operational {
                status: Some(500),
                ..
            }
        )));
    }

    #[test]
    fn malformed_payloads_never_panic() {
        let (_, _, _, lib) = setup();
        let mut analyzer = Analyzer::new(
            &lib,
            GretelConfig {
                alpha: 8,
                ..Default::default()
            },
        );
        let payloads: Vec<Vec<u8>> = vec![
            vec![],
            vec![0xFF; 3],
            b"HTTP/1.1 ".to_vec(),          // truncated status line
            b"HTTP/1.1 99".to_vec(),        // two digits only
            b"HTTP/1.1 ABC hello".to_vec(), // non-numeric status
            vec![0u8; 65_536],              // large zero blob
        ];
        for (i, payload) in payloads.into_iter().enumerate() {
            let msg = gretel_model::Message {
                id: gretel_model::MessageId(i as u64),
                ts_us: i as u64,
                src_node: gretel_model::NodeId(0),
                dst_node: gretel_model::NodeId(1),
                src_service: Service::Horizon,
                dst_service: Service::Nova,
                api: gretel_model::ApiId(3),
                direction: gretel_model::Direction::Response,
                wire: gretel_model::WireKind::Rest {
                    method: HttpMethod::Get,
                    uri: "/x".into(),
                    status: Some(200),
                },
                conn: gretel_model::ConnKey::default(),
                payload,
                correlation_id: None,
                project: None,
                truth_op: None,
                truth_noise: false,
            };
            let _ = analyzer.process(&msg);
        }
        let _ = analyzer.finish();
    }

    #[test]
    fn duplicate_error_messages_are_analyzed_once() {
        let (cat, dep, specs, lib) = setup();
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
                seed: 3,
                ..Default::default()
            },
        )
        .run(&refs);
        let gcfg = GretelConfig {
            alpha: 32,
            ..Default::default()
        };
        let mut inline = Analyzer::new(&lib, gcfg);
        let expected = analyze_stream(&mut inline, exec.messages.iter());
        assert!(!expected.is_empty(), "faulted run diagnoses");
        // Every frame ships twice. The analyzer claims errors by ingest
        // position, so duplicates must not reach it: the receiver's
        // resequencer drops each copy by its sequence number, and every
        // error is analyzed once, as inline.
        let nodes: Vec<NodeId> = dep.nodes().iter().map(|n| n.id).collect();
        let cfg = crate::ServiceConfig {
            impairment: Some(gretel_netcap::CaptureImpairment {
                dup_prob: 1.0,
                ..gretel_netcap::CaptureImpairment::none()
            }),
            ..crate::ServiceConfig::default()
        };
        let mut threaded = Analyzer::new(&lib, gcfg);
        let (diagnoses, svc, _) =
            crate::run_service_cfg(&mut threaded, &nodes, &exec.messages, &cfg);
        assert_eq!(diagnoses, expected);
        assert_eq!(svc.capture.duplicated, svc.capture.frames);
        assert_eq!(svc.capture.dup_discarded, svc.capture.duplicated);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let (cat, dep, specs, lib) = setup();
        let refs: Vec<&OperationSpec> = specs.iter().collect();
        let exec = Runner::new(
            cat,
            &dep,
            &FaultPlan::none(),
            RunConfig {
                seed: 1,
                ..RunConfig::default()
            },
        )
        .run(&refs);
        let mut analyzer = Analyzer::new(
            &lib,
            GretelConfig {
                alpha: 64,
                ..Default::default()
            },
        );
        analyze_stream(&mut analyzer, exec.messages.iter());
        assert_eq!(analyzer.stats().messages as usize, exec.messages.len());
        assert_eq!(analyzer.stats().bytes as usize, exec.total_payload_bytes());
    }

    #[test]
    fn checkpoint_mid_stream_resumes_identically() {
        let (cat, dep, specs, lib) = setup();
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
                seed: 3,
                ..Default::default()
            },
        )
        .run(&refs);
        let cfg = GretelConfig {
            alpha: 32,
            ..GretelConfig::default()
        };

        // Uninterrupted reference run.
        let mut reference = Analyzer::new(&lib, cfg);
        let ref_diag = analyze_stream(&mut reference, exec.messages.iter());

        // Checkpoint halfway, restore into a FRESH analyzer, replay the rest.
        let split = exec.messages.len() / 2;
        let mut first = Analyzer::new(&lib, cfg);
        let mut live = Vec::new();
        for m in &exec.messages[..split] {
            live.extend(first.process(m));
        }
        let state = first.export_state().expect("default detector checkpoints");
        let mut resumed = Analyzer::new(&lib, cfg);
        resumed.restore_state(&state).expect("state restores");
        for m in &exec.messages[split..] {
            live.extend(resumed.process(m));
        }
        live.extend(resumed.finish());

        assert_eq!(live.len(), ref_diag.len());
        for (a, b) in live.iter().zip(&ref_diag) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.api, b.api);
            assert_eq!(a.ts, b.ts);
            assert_eq!(a.matched, b.matched);
            assert_eq!(a.confidence, b.confidence);
        }
        assert_eq!(resumed.stats().messages, reference.stats().messages);
        assert_eq!(resumed.stats().rest_errors, reference.stats().rest_errors);
        assert_eq!(resumed.stats().snapshots, reference.stats().snapshots);
    }

    #[test]
    fn restore_rejects_garbage_state() {
        let (_, _, _, lib) = setup();
        let mut analyzer = Analyzer::new(
            &lib,
            GretelConfig {
                alpha: 8,
                ..Default::default()
            },
        );
        assert!(analyzer.restore_state(&[0xFF; 16]).is_err());
        assert!(analyzer.restore_state(&[]).is_err());
        // A failed restore leaves the analyzer usable.
        assert!(analyzer.finish().is_empty());
    }

    #[test]
    fn restore_rejects_a_window_of_another_alpha() {
        let (cat, dep, specs, lib) = setup();
        let refs: Vec<&OperationSpec> = specs.iter().collect();
        let exec = Runner::new(cat, &dep, &FaultPlan::none(), RunConfig::default()).run(&refs);
        let analyzer = |alpha| {
            let mut a = Analyzer::new(
                &lib,
                GretelConfig {
                    alpha,
                    ..Default::default()
                },
            );
            analyze_stream(&mut a, exec.messages.iter().take(20));
            a
        };
        let state = analyzer(8).export_state().unwrap();
        let mut wide = analyzer(32);
        let before = wide.export_state().unwrap();
        assert_eq!(
            wide.restore_state(&state),
            Err(DecodeError::Invalid("window alpha"))
        );
        assert_eq!(wide.export_state().unwrap(), before);
        assert_eq!(wide.alpha(), 32);
    }

    #[test]
    fn inflated_pending_perf_count_is_rejected() {
        let (_, _, _, lib) = setup();
        let mut analyzer = Analyzer::new(
            &lib,
            GretelConfig {
                alpha: 8,
                ..Default::default()
            },
        );
        let state = analyzer.export_state().unwrap();
        // Empty state: window 8+4+4, pairer 4+4, perf 4, claim watermark
        // 8, then the pending-perf count.
        let n_perf_at = 16 + 8 + 4 + 8;
        assert_eq!(state[n_perf_at..n_perf_at + 4], [0; 4]);
        let mut bad = state.clone();
        bad[n_perf_at..n_perf_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(analyzer.restore_state(&bad), Err(DecodeError::Truncated));
        analyzer
            .restore_state(&state)
            .expect("the honest state still restores");
    }

    #[test]
    fn restore_rejects_a_state_past_its_message_count() {
        let (cat, dep, specs, lib) = setup();
        let refs: Vec<&OperationSpec> = specs.iter().collect();
        let exec = Runner::new(cat, &dep, &FaultPlan::none(), RunConfig::default()).run(&refs);
        let mut analyzer = Analyzer::new(
            &lib,
            GretelConfig {
                alpha: 8,
                ..Default::default()
            },
        );
        for m in exec.messages.iter().take(40) {
            analyzer.ingest(m);
        }
        let state = analyzer.export_state().unwrap();
        // The watermark follows the window, pairer and perf blocks.
        let mut head = Vec::new();
        analyzer.window.put_state(&mut head);
        analyzer.pairer.put(&mut head);
        analyzer.perf.put_state(&mut head);
        let at = head.len();
        // Then an empty pending-perf list, then the stats, messages first.
        assert_eq!(state[at + 8..at + 12], [0; 4]);
        let messages_at = at + 12;
        let with = |at: usize, v: u64| {
            let mut bytes = state.clone();
            bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
            bytes
        };
        assert_eq!(with(at, analyzer.claimed_through), state);
        assert_eq!(with(messages_at, 40), state);
        let hostile = [
            (with(at, 41), "claim watermark"),
            (with(at, u64::MAX), "claim watermark"),
            // The α = 8 window holds eight events.
            (with(messages_at, 7), "window past message count"),
        ];
        for (bytes, why) in hostile {
            assert_eq!(
                analyzer.restore_state(&bytes),
                Err(DecodeError::Invalid(why))
            );
            assert_eq!(analyzer.export_state().unwrap(), state, "left unchanged");
        }
        // A watermark at the message count claims everything ingested.
        analyzer.restore_state(&with(at, 40)).unwrap();
        assert_eq!(analyzer.claimed_through, 40);
    }

    /// The claim rule the watermark replaced, as a reference: each job
    /// claims the non-noise error events whose message id no earlier job
    /// claimed.
    fn set_rule_claims(jobs: &[SnapshotJob]) -> Vec<Vec<usize>> {
        let mut claimed = std::collections::HashSet::new();
        jobs.iter()
            .map(|job| {
                let events = job.snap.events.iter().enumerate();
                events
                    .filter(|(_, ev)| ev.fault.is_error() && !ev.noise_api)
                    .filter(|(_, ev)| claimed.insert(ev.id))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect()
    }

    /// Ingest `messages` at α `alpha`, stream end included, and check the
    /// watermark's claims against the set rule's, job by job. Returns the
    /// number of claimed errors.
    fn claims_agree_with_the_set_rule<'m>(
        lib: &FingerprintLibrary,
        alpha: usize,
        messages: impl IntoIterator<Item = &'m Message>,
    ) -> usize {
        let mut analyzer = Analyzer::new(
            lib,
            GretelConfig {
                alpha,
                ..Default::default()
            },
        );
        let mut jobs = Vec::new();
        for m in messages {
            jobs.extend(analyzer.ingest(m));
        }
        jobs.extend(analyzer.finish_jobs_observed(None));
        let reference = set_rule_claims(&jobs);
        for (k, (job, want)) in jobs.iter().zip(&reference).enumerate() {
            assert_eq!(&job.errors, want, "job {k} at alpha {alpha}");
        }
        reference.iter().map(Vec::len).sum()
    }

    #[test]
    fn the_claim_watermark_claims_what_the_id_set_claimed() {
        let (cat, _, _, lib) = setup();
        let mut claims = 0;
        for seed in 1..=20 {
            for scenario in gretel_sim::scenario::operational_suite(&cat, seed, 6) {
                let exec = scenario.run(cat.clone());
                for alpha in [8, 16, 64] {
                    claims += claims_agree_with_the_set_rule(&lib, alpha, &exec.messages);
                }
            }
        }
        assert!(claims >= 1_000, "suite traffic claims {claims} errors");

        // `storm`'s density: one fault per 100 messages.
        let specs: Vec<OperationSpec> = gretel_model::TempestSuite::generate(cat.clone(), 1)
            .specs()
            .iter()
            .step_by(13)
            .cloned()
            .collect();
        let cfg = gretel_sim::StreamConfig {
            total_messages: 40_000,
            fault_every: 100,
            ..Default::default()
        };
        let stream = gretel_sim::SyntheticStream::new(cat.clone(), &specs, cfg);
        let stream: Vec<Message> = stream.collect();
        let claims = claims_agree_with_the_set_rule(&lib, 256, &stream);
        assert!(claims >= 300, "storm prefix claims {claims} errors");
    }

    #[test]
    fn one_detect_call_per_api_still_counts_per_fault() {
        // Two aborted vm-creates (same offending API) and an aborted image
        // upload in one frozen window: detection runs once per offending
        // API, but the detect stage counts one event per fault, the match
        // stage one per matched operation, and each diagnosis equals a
        // one-fault detection.
        let (cat, _, _, lib) = setup();
        let ports_post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        let put_file = cat.rest_expect(Service::Glance, HttpMethod::Put, "/v2/images/{id}/file");
        let mut events: Vec<Event> = Vec::new();
        let mut errors = Vec::new();
        for (op, offending) in [(0, ports_post), (0, ports_post), (1, put_file)] {
            for atom in &lib.get(OpSpecId(op)).atoms {
                let def = cat.get(atom.api);
                let i = events.len();
                let hit = atom.api == offending;
                let fault = if hit {
                    FaultMark::RestError(500)
                } else {
                    FaultMark::None
                };
                events.push(Event {
                    id: MessageId(i as u64),
                    ts: i as u64,
                    api: atom.api,
                    direction: gretel_model::Direction::Request,
                    is_rpc: def.is_rpc(),
                    state_change: def.is_state_change(),
                    noise_api: false,
                    src_node: NodeId(0),
                    dst_node: NodeId(1),
                    corr: None,
                    fault,
                    gap_before: 0,
                });
                if hit {
                    errors.push(i);
                    break; // the operation aborts at its fault
                }
            }
        }
        let snap = Snapshot {
            fault: events[errors[0]],
            events,
            fault_index: errors[0],
        };
        let job = SnapshotJob {
            snap,
            perf: Vec::new(),
            errors,
        };
        let cfg = GretelConfig {
            alpha: 64,
            ..Default::default()
        };
        let metrics = gretel_obs::PipelineMetrics::enabled();
        let sa = Analyzer::new(&lib, cfg)
            .snapshot_analyzer()
            .with_metrics(Some(&metrics));
        let diagnoses = sa.analyze(&job);

        assert_eq!(diagnoses.len(), 3);
        assert_eq!(metrics.stage_events(gretel_obs::Stage::Detect), 3);
        let matched: usize = diagnoses.iter().map(|d| d.matched.len()).sum();
        assert!(matched > 0);
        assert_eq!(
            metrics.stage_events(gretel_obs::Stage::Match),
            matched as u64
        );
        let events = &job.snapshot().events;
        let sidx = SnapshotIndex::new(events);
        let detector = Detector::new(&lib, cfg);
        for (d, &idx) in diagnoses.iter().zip(&job.errors) {
            let one = detector.detect_operational_indexed(events, &sidx, idx, events[idx].api);
            assert_eq!(
                (d.api, d.ts),
                (events[idx].api, events[idx].ts),
                "claim order kept"
            );
            assert_eq!(d.matched, one.matched);
            assert_eq!(d.theta, one.theta);
            assert_eq!((d.beta_used, d.candidates), (one.beta_used, one.candidates));
        }
    }

    #[test]
    fn cancel_reports_every_claimed_fault_without_evidence() {
        let (cat, dep, specs, lib) = setup();
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
                seed: 3,
                ..Default::default()
            },
        )
        .run(&refs);
        let mut analyzer = Analyzer::new(
            &lib,
            GretelConfig {
                alpha: 32,
                ..Default::default()
            },
        );
        let mut jobs = Vec::new();
        for m in &exec.messages {
            jobs.extend(analyzer.ingest(m));
        }
        jobs.extend(analyzer.finish_jobs_observed(None));
        let job = jobs
            .iter()
            .find(|j| j.has_faults())
            .expect("faulted run claims a fault");
        let sa = analyzer.snapshot_analyzer();

        // One diagnosis per claimed fault, for the faults analysis reports,
        // in the same order — honestly marked, never as Exact, and backed by
        // no matching or root-cause evidence.
        let full = sa.analyze(job);
        let out = sa.cancel(job);
        assert!(!out.is_empty(), "cancelled job still reports its faults");
        assert_eq!(out.len(), full.len());
        for (c, d) in out.iter().zip(&full) {
            assert_eq!((&c.kind, c.api, c.ts), (&d.kind, d.api, d.ts));
            assert_eq!(c.confidence, CaptureConfidence::Cancelled);
            assert!(c.matched.is_empty() && c.root_causes.is_empty());
            assert_eq!((c.theta, c.beta_used, c.candidates), (0.0, 0, 0));
        }
        // A pure function of the job, so replay cancels identically; a job
        // without faults has nothing to cancel.
        assert_eq!(sa.cancel(job), out);
        assert!(sa.cancel(&job.clone().without_faults()).is_empty());
    }
}
