//! Operation detection (Algorithm 2 + the context buffer of §5.3.1).
//!
//! Given a frozen snapshot and the offending API, GRETEL:
//!
//! 1. pulls the candidate set — operations whose fingerprint contains the
//!    offending API (`GET_POSSIBLE_OFFENDING_OPERATIONS`);
//! 2. truncates each candidate fingerprint at the last occurrence of the
//!    offending API (`TRUNCATE_OPERATION_FINGERPRINTS`) — operational
//!    faults abort the operation, so nothing after the fault is on the
//!    wire;
//! 3. matches candidates against a **context buffer**: a slice of the
//!    snapshot centred on the fault that starts at β₀ = c1·α messages and
//!    grows by δ = c2·α per side. The default policy stops at the
//!    earliest growth step where a substantial pattern completes (see
//!    [`GretelConfig::scored_slack`] and DESIGN.md §7); the paper's
//!    literal stop-on-θ-drop rule is available as an ablation
//!    (`scored_slack: None`), where θ = (N−n)/(N−1);
//! 4. for performance faults the operation completes normally, so the
//!    whole buffer is used and fingerprints are *not* truncated.

use crate::config::{theta, GretelConfig};
use crate::event::Event;
use crate::fingerprint::{CandidatePattern, FingerprintLibrary};
use crate::matcher::PositionIndex;
use crate::window::Snapshot;
use gretel_model::{ApiId, OpSpecId};

/// Result of one operation-detection run.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionOutcome {
    /// Operations the snapshot matched.
    pub matched: Vec<OpSpecId>,
    /// Precision θ = (N − n)/(N − 1).
    pub theta: f64,
    /// Final context-buffer size (messages) used.
    pub beta_used: usize,
    /// Candidate count before snapshot matching — what matching "with API
    /// error" alone would report (the baseline bars of Fig 7b/7c).
    pub candidates: usize,
    /// Pattern literals bridged by degraded-mode matching in the winning
    /// match (maximum over the reported operations). 0 whenever the
    /// capture around the fault was complete — exact matching never
    /// consumes misses.
    pub misses: usize,
}

/// Per-snapshot preprocessing shared by every detection over one frozen
/// snapshot: the noise-filtered API projection, the per-API occurrence
/// index over it, a prefix-count mapping event index → projection
/// position, and the non-noise events grouped by correlation id.
///
/// A snapshot frequently claims *many* error events (every unanalyzed
/// error in the window rides along — §5.3.1). Rebuilding the O(α)
/// projection per error made detection O(errors · α); building this once
/// per snapshot makes each detection sub-linear in the snapshot size.
pub struct SnapshotIndex {
    /// Noise-filtered API projection of the whole snapshot.
    apis: Vec<ApiId>,
    /// Per-API occurrence index over `apis`.
    index: PositionIndex,
    /// `prefix[i]` = number of non-noise events before index `i` — the
    /// projection position an event at `i` maps to.
    prefix: Vec<u32>,
    /// Non-noise event indices grouped by correlation id, in order.
    by_corr: crate::fasthash::FastMap<u64, Vec<u32>>,
    /// Capture-gap spans, aligned with the projection: `gap_prefix[j]` is
    /// the total frames inferred lost before projection position `j`
    /// (including gaps attributed to filtered-out noise events);
    /// `gap_prefix[apis.len()]` is the window total. Empty-projection
    /// windows still get the single-element total.
    gap_prefix: Vec<u32>,
}

impl SnapshotIndex {
    /// One O(snapshot) pass building every shared structure.
    pub fn new(events: &[Event]) -> SnapshotIndex {
        let mut apis = Vec::with_capacity(events.len());
        let mut prefix = Vec::with_capacity(events.len());
        let mut by_corr: crate::fasthash::FastMap<u64, Vec<u32>> = Default::default();
        let mut gap_prefix = Vec::with_capacity(events.len() + 1);
        let mut gap_cum: u32 = 0;
        for (i, e) in events.iter().enumerate() {
            prefix.push(apis.len() as u32);
            gap_cum = gap_cum.saturating_add(e.gap_before);
            if e.noise_api {
                continue;
            }
            gap_prefix.push(gap_cum);
            apis.push(e.api);
            if let Some(c) = e.corr {
                by_corr.entry(c).or_default().push(i as u32);
            }
        }
        gap_prefix.push(gap_cum);
        let index = PositionIndex::new(&apis);
        SnapshotIndex {
            apis,
            index,
            prefix,
            by_corr,
            gap_prefix,
        }
    }

    /// The noise-filtered API projection.
    pub fn apis(&self) -> &[ApiId] {
        &self.apis
    }

    /// Non-noise event indices carrying correlation id `corr`, in order.
    pub fn corr_events(&self, corr: u64) -> &[u32] {
        self.by_corr.get(&corr).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total frames inferred lost inside the snapshot window.
    pub fn lost_total(&self) -> u32 {
        *self.gap_prefix.last().unwrap_or(&0)
    }

    /// Frames inferred lost up to projection position `upto` — the gaps
    /// preceding symbols `0..=upto`. Saturates at the window total for
    /// out-of-range positions. This bounds how many pattern literals a
    /// capture gap can possibly have swallowed inside the anchored
    /// evidence region, which is what degraded matching uses as its miss
    /// budget.
    pub fn lost_before(&self, upto: usize) -> u32 {
        let j = upto.min(self.gap_prefix.len() - 1);
        self.gap_prefix[j]
    }
}

/// Operation detector bound to a fingerprint library and a configuration.
pub struct Detector<'a> {
    lib: &'a FingerprintLibrary,
    cfg: GretelConfig,
}

impl<'a> Detector<'a> {
    /// New detector.
    pub fn new(lib: &'a FingerprintLibrary, cfg: GretelConfig) -> Detector<'a> {
        Detector { lib, cfg }
    }

    /// The library in use.
    pub fn library(&self) -> &FingerprintLibrary {
        self.lib
    }

    /// The configuration in use.
    pub fn config(&self) -> &GretelConfig {
        &self.cfg
    }

    /// Algorithm 2 for an operational fault: the offending API aborted its
    /// operation. `events` is the frozen snapshot; `fault_index` the
    /// offending message's position within it.
    pub fn detect_operational(
        &self,
        events: &[Event],
        fault_index: usize,
        offending: ApiId,
    ) -> DetectionOutcome {
        let sidx = SnapshotIndex::new(events);
        self.detect_operational_indexed(events, &sidx, fault_index, offending)
    }

    /// [`Self::detect_operational`] against a prebuilt [`SnapshotIndex`]:
    /// [`Self::detect_operational_group`] with one anchor.
    pub fn detect_operational_indexed(
        &self,
        events: &[Event],
        sidx: &SnapshotIndex,
        fault_index: usize,
        offending: ApiId,
    ) -> DetectionOutcome {
        let mut out = self.detect_operational_group(events, sidx, offending, &[fault_index]);
        out.pop().expect("one outcome per anchor")
    }

    /// Algorithm 2 for every operational fault of one snapshot that hit
    /// the same offending API; `anchors` are the faults' event indices and
    /// the outcomes come back in their order, each equal to a one-anchor
    /// call. The analyzer builds the [`SnapshotIndex`] once per snapshot
    /// and makes one such call per offending API.
    ///
    /// Faults whose buffer the policy restricts per fault (a correlation
    /// id, or the presence policy's growth loop) run one by one. The rest
    /// share one scored search: the API's candidate patterns are
    /// deduplicated and resolved against the index once, then walked from
    /// each anchor.
    pub fn detect_operational_group(
        &self,
        events: &[Event],
        sidx: &SnapshotIndex,
        offending: ApiId,
        anchors: &[usize],
    ) -> Vec<DetectionOutcome> {
        let mut out: Vec<Option<DetectionOutcome>> = vec![None; anchors.len()];
        // The shared search's anchors, as (center, miss budget), and where
        // their outcomes go in `out`.
        let (mut shared, mut slots) = (Vec::new(), Vec::new());
        let mut patterns = Vec::new();
        for (slot, &fault_index) in anchors.iter().enumerate() {
            if self.corr_filter(events, fault_index).is_none() && self.cfg.scored_slack.is_some() {
                let center = sidx.prefix.get(fault_index).map_or(0, |&p| p as usize);
                // Degraded-mode budget: only losses inside the anchored
                // evidence region (positions up to the fault) can have
                // swallowed pattern literals.
                shared.push((center, sidx.lost_before(center + 1) as usize));
                slots.push(slot);
                continue;
            }
            if patterns.is_empty() {
                patterns = self.lib.candidate_patterns(offending, self.cfg.truncate);
            }
            out[slot] =
                Some(self.match_with_context(events, sidx, fault_index, offending, &patterns));
        }
        if !shared.is_empty() {
            let scored = self.match_scored(&sidx.index, offending, &shared);
            for (slot, outcome) in slots.into_iter().zip(scored) {
                out[slot] = Some(outcome);
            }
        }
        let candidates = self.lib.candidates(offending).len();
        out.into_iter()
            .map(|o| DetectionOutcome {
                candidates,
                ..o.expect("every anchor detected")
            })
            .collect()
    }

    /// Convenience wrapper over a [`Snapshot`].
    pub fn detect_operational_snapshot(
        &self,
        snapshot: &Snapshot,
        offending: ApiId,
    ) -> DetectionOutcome {
        self.detect_operational(&snapshot.events, snapshot.fault_index, offending)
    }

    /// Detection for a performance fault: the operation proceeds to
    /// completion, so fingerprints are *not* truncated and the evidence
    /// extends on both sides of the anomalous API. The pattern is a
    /// bounded literal slice centred on the API (long operations exceed
    /// any finite window), matched over the whole context buffer (§5.3.1
    /// "Improving precision").
    pub fn detect_performance(&self, events: &[Event], offending: ApiId) -> DetectionOutcome {
        let sidx = SnapshotIndex::new(events);
        self.detect_performance_indexed(events, &sidx, offending)
    }

    /// [`Self::detect_performance`] against a prebuilt [`SnapshotIndex`].
    pub fn detect_performance_indexed(
        &self,
        events: &[Event],
        sidx: &SnapshotIndex,
        offending: ApiId,
    ) -> DetectionOutcome {
        let buffer = sidx.apis();
        let index = &sidx.index;
        // Tighter bound than the operational path: the anomaly sits
        // mid-operation and only nearby steps are reliably inside the
        // window. RPC symbols are kept — performance faults frequently
        // *are* RPC latencies (§3.1.2), so pruning would erase the anchor.
        let k = self
            .cfg
            .max_literals
            .map(|k| (k / 2).max(2))
            .unwrap_or(usize::MAX);
        let candidates = self.lib.candidates(offending);
        let mut matched: Vec<OpSpecId> = candidates
            .iter()
            .filter(|&&op| {
                self.lib
                    .centered_patterns(op, offending, k)
                    .iter()
                    .any(|pattern| index.contains_subsequence(pattern, 0, buffer.len()))
            })
            .copied()
            .collect();
        matched.sort();
        matched.dedup();
        DetectionOutcome {
            theta: theta(matched.len(), self.lib.len()),
            beta_used: events.len(),
            candidates: candidates.len(),
            matched,
            misses: 0,
        }
    }

    /// Apply the `max_literals` bound: keep the most recent `k` literals.
    fn bounded<'p>(&self, lits: &'p [ApiId]) -> &'p [ApiId] {
        match self.cfg.max_literals {
            Some(k) if lits.len() > k => &lits[lits.len() - k..],
            _ => lits,
        }
    }

    fn match_patterns(
        &self,
        patterns: &[CandidatePattern<'_>],
        index: &PositionIndex,
        lo: usize,
        hi: usize,
    ) -> Vec<OpSpecId> {
        let mut matched: Vec<OpSpecId> = if self.cfg.relaxed {
            patterns
                .iter()
                .filter(|p| {
                    index.contains_subsequence(
                        self.bounded(p.literals(self.cfg.prune_rpcs)),
                        lo,
                        hi,
                    )
                })
                .map(|p| p.op)
                .collect()
        } else {
            patterns
                .iter()
                .filter(|p| index.contains_subsequence(p.apis, lo, hi))
                .map(|p| p.op)
                .collect()
        };
        matched.sort();
        matched.dedup();
        matched
    }

    /// When the deployment propagates correlation ids and the fault
    /// message carries one, the buffer is restricted to the faulty
    /// operation's own messages — the §5.3.1 precision enhancement.
    fn corr_filter(&self, events: &[Event], fault_index: usize) -> Option<u64> {
        if self.cfg.use_correlation_ids {
            events.get(fault_index).and_then(|e| e.corr)
        } else {
            None
        }
    }

    /// The context-buffer growth loop for one fault.
    ///
    /// Two policies:
    ///
    /// * `scored_slack = Some(slack)` (default) — **earliest completion
    ///   with a length floor and a grace period**, computed analytically
    ///   by [`Self::match_scored`]. The snapshot-wide buffer is searched
    ///   for a whole group of faults at once
    ///   ([`Self::detect_operational_group`]); only the corr-restricted
    ///   buffer comes through here.
    /// * `scored_slack = None` — the plain presence predicate driven by
    ///   the paper's stop-on-θ-drop rule (§5.3.1), with `grow_full`
    ///   optionally disabling the early stop (ablation path).
    fn match_with_context(
        &self,
        events: &[Event],
        sidx: &SnapshotIndex,
        fault_index: usize,
        offending: ApiId,
        patterns: &[CandidatePattern<'_>],
    ) -> DetectionOutcome {
        let corr_filter = self.corr_filter(events, fault_index);
        let h0 = (self.cfg.beta0() / 2).max(1);
        let delta = self.cfg.delta();

        // With a correlation-restricted buffer the evidence is exactly the
        // faulty operation's own message sequence, so matching can demand
        // *equality* of literal sequences instead of subsequence presence:
        // only candidates whose truncated fingerprint literals equal the
        // observed literals survive. Far stronger than presence matching —
        // this is precisely the precision gain §5.3.1 predicts.
        if let Some(corr) = corr_filter {
            // The operation's own messages come straight from the
            // snapshot index's corr groups; the fault (non-noise, same
            // corr) is one of them, so its projection position is its rank
            // among them.
            let cps = sidx.corr_events(corr);
            let filtered: Vec<ApiId> = cps.iter().map(|&ei| events[ei as usize].api).collect();
            let center = cps.partition_point(|&ei| (ei as usize) < fault_index);

            let catalog = self.lib.catalog();
            // The operation's own message sequence: collapse request/
            // response pairs (consecutive after the corr restriction) and
            // apply the same idempotent-repeat filter Algorithm 1 applied
            // when the fingerprint was learned, so both sides are in the
            // same normal form. Every symbol is reliable here — there is
            // no interleaving — so starred atoms participate too.
            let raw: Vec<ApiId> = dedup_consecutive(filtered.iter().copied());
            let buf_seq = crate::noise_filter::filter_noise(catalog, &raw);
            let buf_literals: Vec<ApiId> = buf_seq
                .iter()
                .copied()
                .filter(|&a| catalog.get(a).is_state_change())
                .collect();
            // Two conditions, both exploiting that every buffered symbol
            // genuinely belongs to the faulty operation:
            // 1. the observed state-change sequence is a contiguous
            //    *suffix* of the candidate's truncated literal sequence
            //    (the window holds a contiguous tail of the operation);
            // 2. the observed full sequence — reads included — embeds in
            //    the candidate's truncated atom sequence in order (reads
            //    may shift position due to idempotent-repeat pruning, but
            //    can never be foreign symbols).
            let mut exact: Vec<OpSpecId> = patterns
                .iter()
                .filter(|p| {
                    !buf_literals.is_empty()
                        && p.lits_all.ends_with(&buf_literals)
                        && crate::lcs::is_subsequence(&buf_seq, p.apis)
                })
                .map(|p| p.op)
                .collect();
            exact.sort();
            exact.dedup();
            if !exact.is_empty() {
                return DetectionOutcome {
                    theta: theta(exact.len(), self.lib.len()),
                    beta_used: filtered.len(),
                    candidates: patterns.len(),
                    matched: exact,
                    misses: 0,
                };
            }
            // Normal-form mismatch (e.g. the window clipped mid-pair):
            // fall through to subsequence matching over the (already
            // corr-restricted, and therefore small) buffer, with a local
            // index. The scored walk is anchored at the fault, so it never
            // consults positions past it.
            let index = PositionIndex::new(&filtered);
            if self.cfg.scored_slack.is_some() {
                // Budget with the whole window's losses: the corr
                // restriction hides which positions the gaps fell between.
                let budget = sidx.lost_total() as usize;
                let mut out = self.match_scored(&index, offending, &[(center, budget)]);
                return out.pop().expect("one outcome per anchor");
            }
            return self.match_presence(&filtered, &index, center, patterns, h0, delta);
        }

        // No corr restriction: the snapshot-wide projection and occurrence
        // index are shared across every detection in the snapshot; the
        // presence query bounds its own range at each growth step.
        let center = sidx.prefix.get(fault_index).map_or(0, |&p| p as usize);
        self.match_presence(sidx.apis(), &sidx.index, center, patterns, h0, delta)
    }

    /// Presence policy with the paper's θ-drop stop rule (iterative).
    /// Deliberately not gap-widened: this is the ablation path pinned to
    /// the paper's literal semantics, so degraded-mode matching applies to
    /// the scored policy only.
    fn match_presence(
        &self,
        filtered: &[ApiId],
        index: &PositionIndex,
        center: usize,
        patterns: &[CandidatePattern<'_>],
        h0: usize,
        delta: usize,
    ) -> DetectionOutcome {
        let n_events = filtered.len();
        let mut half = h0;
        let mut prev: Option<(Vec<OpSpecId>, usize)> = None;
        loop {
            let lo = center.saturating_sub(half);
            let hi = (center + half + 1).min(n_events);
            let beta_used = hi - lo;
            let covered = lo == 0 && hi == n_events;
            let matched = self.match_patterns(patterns, index, lo, hi);
            if !self.cfg.grow_full {
                if let Some((prev_matched, prev_beta)) = &prev {
                    if !prev_matched.is_empty() && matched.len() > prev_matched.len() {
                        return DetectionOutcome {
                            theta: theta(prev_matched.len(), self.lib.len()),
                            beta_used: *prev_beta,
                            candidates: patterns.len(),
                            matched: prev_matched.clone(),
                            misses: 0,
                        };
                    }
                }
            }
            if covered {
                return DetectionOutcome {
                    theta: theta(matched.len(), self.lib.len()),
                    beta_used,
                    candidates: patterns.len(),
                    matched,
                    misses: 0,
                };
            }
            prev = Some((matched, beta_used));
            half += delta;
        }
    }

    /// Analytic earliest-complete scoring, for every `(center, miss
    /// budget)` anchor of one offending API over one indexed buffer. The
    /// outcomes come back in anchor order, `candidates` left for the
    /// caller.
    ///
    /// For every candidate pattern the minimal half-width `h*` at which its
    /// whole (bounded) literal sequence is present — in order, anchored at
    /// the fault: operational faults abort, so all evidence precedes the
    /// fault — is derived by greedy backward matching over the occurrence
    /// index. The search "stops" at the first growth step where a pattern
    /// of at least `min_pattern` literals completes, plus `grace_steps`
    /// further increments so longer patterns can assemble; the longest
    /// complete candidates (within `slack`) are reported. Equivalent to
    /// growing β by δ per side and re-matching, but O(patterns · len ·
    /// log) instead of O(patterns · β · steps).
    ///
    /// Many candidates share a bounded literal sequence, so each distinct
    /// sequence is resolved against the index once and walked once per
    /// anchor; its result stands for every operation that carries it.
    ///
    /// The miss budget is the degraded-mode widening: when the snapshot
    /// window spans capture gaps, a candidate whose literal sequence never
    /// completes exactly may still match by skipping up to that many
    /// literals (bounded per pattern at `len − 1` so at least one literal
    /// is real evidence). The greedy walk only spends a miss where exact
    /// matching fails, a pattern's effective length is discounted by its
    /// misses, and with budget 0 (complete capture) this is exactly the
    /// exact scorer.
    fn match_scored(
        &self,
        index: &PositionIndex,
        offending: ApiId,
        anchors: &[(usize, usize)],
    ) -> Vec<DetectionOutcome> {
        let slack = self.cfg.scored_slack.unwrap_or(0);
        let h0 = (self.cfg.beta0() / 2).max(1);
        let delta = self.cfg.delta();

        // The distinct bounded sequences: sequence `s` is the literals
        // resolved in `rows[seqs[s].0..seqs[s + 1].0]`, carried by the
        // operations `ops[seqs[s].1..seqs[s + 1].1]`.
        let patterns =
            self.lib
                .suffix_sorted_literals(offending, self.cfg.truncate, self.cfg.prune_rpcs);
        let mut rows = Vec::new();
        let mut ops = Vec::with_capacity(patterns.len());
        let mut seqs: Vec<(usize, usize)> = Vec::new();
        let mut last: Option<&[ApiId]> = None;
        for (op, lits) in patterns {
            let pattern = self.bounded(lits);
            if pattern.is_empty() {
                continue;
            }
            if last != Some(pattern) {
                seqs.push((rows.len(), ops.len()));
                rows.extend(pattern.iter().map(|&a| index.resolve(a)));
                last = Some(pattern);
            }
            ops.push(op);
        }
        seqs.push((rows.len(), ops.len()));

        // Per anchor: (h*, effective length, misses, sequence) of every
        // sequence that completes.
        let mut hits: Vec<(usize, usize, usize, usize)> = Vec::new();
        let mut selected = Selection::new(self.lib.len());
        let mut out = Vec::with_capacity(anchors.len());
        for &(center, miss_budget) in anchors {
            // Anchored at the fault: only positions <= center count.
            let upper = (center + 1).min(index.len());
            let long = |l: usize| l >= self.cfg.min_pattern;
            hits.clear();
            let walk = |hits: &mut Vec<_>, short: bool| {
                for (s, w) in seqs.windows(2).enumerate() {
                    let lits = &rows[w[0].0..w[1].0];
                    if long(lits.len()) == short {
                        continue;
                    }
                    let budget = miss_budget.min(lits.len() - 1);
                    if let Some((h, misses)) =
                        index.anchored_walk(lits.iter().copied(), center, upper, budget)
                    {
                        // A bridged literal is absent evidence: score the
                        // pattern by what was actually observed.
                        hits.push((h, lits.len() - misses, misses, s));
                    }
                }
            };
            // A sequence shorter than `min_pattern` can only matter in the
            // fallback below, so it is walked only when nothing long
            // completes.
            walk(&mut hits, false);
            if !hits.iter().any(|hit| long(hit.1)) {
                walk(&mut hits, true);
            }
            let carriers = |s: usize| &ops[seqs[s].1..seqs[s + 1].1];
            let beta_used = match hits.iter().filter(|hit| long(hit.1)).map(|hit| hit.0).min() {
                Some(h_min) => {
                    // First growth step reaching h_min, plus the grace
                    // period; the longest eligible patterns win.
                    let k_first = h_min.saturating_sub(h0).div_ceil(delta.max(1));
                    let h_stop =
                        (h0 + (k_first + self.cfg.grace_steps) * delta).min(center.max(h0));
                    let eligible =
                        |&(h, l, ..): &(usize, usize, usize, usize)| long(l) && h <= h_stop;
                    let max_len = hits
                        .iter()
                        .filter(|hit| eligible(hit))
                        .map(|hit| hit.1)
                        .max();
                    let max_len = max_len.unwrap_or(0);
                    for hit @ &(_, l, misses, s) in &hits {
                        if eligible(hit) && l + slack >= max_len {
                            selected.insert(carriers(s), misses);
                        }
                    }
                    (2 * h_stop + 1).min(index.len())
                }
                // Nothing substantial ever completed: fall back to the
                // trivially complete candidates (ops for which the
                // offending API is their opening state change).
                None => {
                    for &(_, _, misses, s) in &hits {
                        selected.insert(carriers(s), misses);
                    }
                    index.len()
                }
            };
            let (matched, misses) = selected.take();
            out.push(DetectionOutcome {
                theta: theta(matched.len(), self.lib.len()),
                beta_used,
                candidates: 0,
                matched,
                misses,
            });
        }
        out
    }
}

/// The operations one anchor selects, deduplicated: a bit per library
/// operation, plus each selected operation's fewest misses.
struct Selection {
    bits: Vec<u64>,
    fewest: Vec<usize>,
}

impl Selection {
    fn new(n_ops: usize) -> Selection {
        Selection {
            bits: vec![0; n_ops.div_ceil(64)],
            fewest: vec![usize::MAX; n_ops],
        }
    }

    /// Select `ops`, each matched with `misses` bridged literals.
    fn insert(&mut self, ops: &[OpSpecId], misses: usize) {
        for op in ops {
            let i = op.index();
            self.bits[i / 64] |= 1 << (i % 64);
            self.fewest[i] = self.fewest[i].min(misses);
        }
    }

    /// Empty the set into its operations, ascending, and the most misses
    /// any of them needed at best (how far degraded matching had to
    /// stretch).
    fn take(&mut self) -> (Vec<OpSpecId>, usize) {
        let mut matched = Vec::new();
        let mut worst = 0;
        for (w, word) in self.bits.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                matched.push(OpSpecId(i as u16));
                worst = worst.max(std::mem::replace(&mut self.fewest[i], usize::MAX));
            }
        }
        (matched, worst)
    }
}

/// Collapse consecutive duplicate symbols (a serial operation's REST
/// request/response pairs and RPC call/reply pairs are adjacent in its
/// correlation-restricted stream).
// Deliberately NOT pre-reserved: the input is the corr-restricted stream
// (typically dozens of symbols) but the filter's size hint is the whole
// window — reserving the upper bound would allocate α-sized buffers per
// fault.
fn dedup_consecutive(iter: impl Iterator<Item = ApiId>) -> Vec<ApiId> {
    let mut out: Vec<ApiId> = Vec::new();
    for api in iter {
        if out.last() != Some(&api) {
            out.push(api);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultMark;
    use crate::fingerprint::FingerprintLibrary;
    use gretel_model::{Catalog, Direction, HttpMethod, MessageId, NodeId, Service, Workflows};
    use gretel_sim::Deployment;
    use std::sync::Arc;

    fn event(id: u64, api: ApiId, state_change: bool, is_rpc: bool) -> Event {
        Event {
            id: MessageId(id),
            ts: id,
            api,
            direction: Direction::Request,
            is_rpc,
            state_change,
            noise_api: false,
            src_node: NodeId(0),
            dst_node: NodeId(1),
            corr: None,
            fault: FaultMark::None,
            gap_before: 0,
        }
    }

    fn library() -> (Arc<Catalog>, FingerprintLibrary) {
        let cat = Catalog::openstack();
        let wf = Workflows::new(cat.clone());
        let dep = Deployment::standard();
        let specs = vec![
            wf.vm_create_spec(gretel_model::OpSpecId(0)),
            wf.image_upload_spec(gretel_model::OpSpecId(1)),
            wf.cinder_list_spec(gretel_model::OpSpecId(2)),
        ];
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 2, 17);
        (cat, lib)
    }

    fn snapshot_from(events: Vec<Event>, fault_index: usize) -> Snapshot {
        Snapshot {
            fault: events[fault_index],
            events,
            fault_index,
        }
    }

    #[test]
    fn detects_vm_create_from_ports_fault() {
        let (cat, lib) = library();
        let detector = Detector::new(
            &lib,
            GretelConfig {
                alpha: 16,
                ..Default::default()
            },
        );
        let spec_events: Vec<Event> = lib
            .get(gretel_model::OpSpecId(0))
            .atoms
            .iter()
            .enumerate()
            .map(|(i, a)| {
                event(
                    i as u64,
                    a.api,
                    cat.get(a.api).is_state_change(),
                    cat.get(a.api).is_rpc(),
                )
            })
            .collect();
        let ports_post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        let fault_index = spec_events
            .iter()
            .position(|e| e.api == ports_post)
            .expect("ports step present");
        // Operation aborted at the fault: nothing after it on the wire.
        let events: Vec<Event> = spec_events[..=fault_index].to_vec();
        let snap = snapshot_from(events, fault_index);

        let out = detector.detect_operational_snapshot(&snap, ports_post);
        assert_eq!(out.matched, vec![gretel_model::OpSpecId(0)]);
        assert!((out.theta - 1.0).abs() < 1e-9);
        assert!(out.candidates >= 1);
    }

    #[test]
    fn unrelated_operation_does_not_match() {
        let (cat, lib) = library();
        let detector = Detector::new(
            &lib,
            GretelConfig {
                alpha: 16,
                ..Default::default()
            },
        );
        // Buffer holds only the image-upload sequence; fault on its PUT.
        let put_file = cat.rest_expect(Service::Glance, HttpMethod::Put, "/v2/images/{id}/file");
        let fp = lib.get(gretel_model::OpSpecId(1));
        let events: Vec<Event> = fp
            .atoms
            .iter()
            .enumerate()
            .map(|(i, a)| {
                event(
                    i as u64,
                    a.api,
                    cat.get(a.api).is_state_change(),
                    cat.get(a.api).is_rpc(),
                )
            })
            .collect();
        let fault_index = events.iter().position(|e| e.api == put_file).unwrap();
        let snap = snapshot_from(events[..=fault_index].to_vec(), fault_index);
        let out = detector.detect_operational_snapshot(&snap, put_file);
        assert_eq!(out.matched, vec![gretel_model::OpSpecId(1)]);
        // VM create is not even a candidate for the Glance PUT.
        assert!(!out.matched.contains(&gretel_model::OpSpecId(0)));
    }

    #[test]
    fn gap_marker_enables_degraded_matching_across_a_hole() {
        let (cat, lib) = library();
        // Keep RPC literals and drop the length floor: the vm-create
        // fingerprint's only unique mid-stream required literals are RPCs.
        let cfg = GretelConfig {
            alpha: 16,
            prune_rpcs: false,
            max_literals: None,
            min_pattern: 3,
            ..Default::default()
        };
        let detector = Detector::new(&lib, cfg);
        let fp = lib.get(gretel_model::OpSpecId(0));
        let spec_events: Vec<Event> = fp
            .atoms
            .iter()
            .enumerate()
            .map(|(i, a)| {
                event(
                    i as u64,
                    a.api,
                    cat.get(a.api).is_state_change(),
                    cat.get(a.api).is_rpc(),
                )
            })
            .collect();
        let ports_post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        let fault_index = spec_events
            .iter()
            .position(|e| e.api == ports_post)
            .unwrap();
        let mut events: Vec<Event> = spec_events[..=fault_index].to_vec();
        // Simulate a lost frame: remove a mid-stream *required* literal
        // (non-starred — starred atoms may be absent anyway) that occurs
        // exactly once in the fingerprint.
        let once = |api: gretel_model::ApiId| fp.atoms.iter().filter(|a| a.api == api).count() == 1;
        let hole = (1..fault_index)
            .rev()
            .find(|&i| !fp.atoms[i].starred && once(events[i].api))
            .expect("unique required literal");
        events.remove(hole);
        let fault_index = fault_index - 1;

        // Without a gap marker there is no miss budget: the truncated
        // fingerprint cannot be present and the match fails.
        let snap = snapshot_from(events.clone(), fault_index);
        let out = detector.detect_operational_snapshot(&snap, ports_post);
        assert!(
            out.matched.is_empty(),
            "no marker, no widening: {:?}",
            out.matched
        );
        assert_eq!(out.misses, 0);

        // The receiver noticed the loss: the event after the hole carries a
        // gap marker, funding one miss — degraded matching bridges it.
        events[hole].gap_before = 1;
        let snap = snapshot_from(events, fault_index);
        let out = detector.detect_operational_snapshot(&snap, ports_post);
        assert_eq!(out.matched, vec![gretel_model::OpSpecId(0)]);
        assert!(out.misses >= 1, "bridged the hole: misses={}", out.misses);
    }

    #[test]
    fn truncation_is_required_for_aborted_operations() {
        let (cat, lib) = library();
        // Without truncation, the full fingerprint (with steps after the
        // fault) cannot be present in an aborted trace.
        let cfg_no_trunc = GretelConfig {
            alpha: 16,
            truncate: false,
            ..Default::default()
        };
        let detector = Detector::new(&lib, cfg_no_trunc);
        let ports_post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        let fp = lib.get(gretel_model::OpSpecId(0));
        let events: Vec<Event> = fp
            .atoms
            .iter()
            .enumerate()
            .map(|(i, a)| {
                event(
                    i as u64,
                    a.api,
                    cat.get(a.api).is_state_change(),
                    cat.get(a.api).is_rpc(),
                )
            })
            .collect();
        let fault_index = events.iter().position(|e| e.api == ports_post).unwrap();
        let truncated_events = events[..=fault_index].to_vec();
        let snap = snapshot_from(truncated_events, fault_index);
        let out = detector.detect_operational_snapshot(&snap, ports_post);
        // The PUT attach after the fault never happened, so the
        // untruncated literal sequence is absent.
        assert!(
            out.matched.is_empty(),
            "ablation: no truncation → false negative"
        );
    }

    #[test]
    fn performance_detection_uses_full_fingerprints() {
        let (cat, lib) = library();
        let detector = Detector::new(
            &lib,
            GretelConfig {
                alpha: 32,
                ..Default::default()
            },
        );
        // Full successful vm-create trace; perf fault on the image GET.
        let fp = lib.get(gretel_model::OpSpecId(0));
        let events: Vec<Event> = fp
            .atoms
            .iter()
            .enumerate()
            .map(|(i, a)| {
                event(
                    i as u64,
                    a.api,
                    cat.get(a.api).is_state_change(),
                    cat.get(a.api).is_rpc(),
                )
            })
            .collect();
        let image_get = cat.rest_expect(Service::Glance, HttpMethod::Get, "/v2/images/{id}");
        let fault_index = events.iter().position(|e| e.api == image_get).unwrap();
        let snap = snapshot_from(events, fault_index);
        let out = detector.detect_performance(&snap.events, image_get);
        assert!(out.matched.contains(&gretel_model::OpSpecId(0)));
    }

    #[test]
    fn noise_events_are_excluded_from_buffers() {
        let (cat, lib) = library();
        let detector = Detector::new(
            &lib,
            GretelConfig {
                alpha: 16,
                ..Default::default()
            },
        );
        let ports_post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        let fp = lib.get(gretel_model::OpSpecId(0));
        let mut events: Vec<Event> = Vec::new();
        let noise_api = cat.noise_apis()[0];
        for (i, a) in fp.atoms.iter().enumerate() {
            // Interleave noise everywhere.
            let mut n = event(1000 + i as u64, noise_api, false, true);
            n.noise_api = true;
            events.push(n);
            events.push(event(
                i as u64,
                a.api,
                cat.get(a.api).is_state_change(),
                cat.get(a.api).is_rpc(),
            ));
        }
        let fault_index = events.iter().position(|e| e.api == ports_post).unwrap();
        let snap = snapshot_from(events[..=fault_index].to_vec(), fault_index);
        let out = detector.detect_operational_snapshot(&snap, ports_post);
        assert_eq!(out.matched, vec![gretel_model::OpSpecId(0)]);
    }

    #[test]
    fn candidates_counts_api_error_baseline() {
        let (cat, lib) = library();
        let detector = Detector::new(
            &lib,
            GretelConfig {
                alpha: 16,
                ..Default::default()
            },
        );
        let ports_post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        let fault = event(0, ports_post, true, false);
        let snap = snapshot_from(vec![fault], 0);
        let out = detector.detect_operational_snapshot(&snap, ports_post);
        assert_eq!(out.candidates, lib.candidates(ports_post).len());
    }
}
