//! Fingerprint-to-snapshot match predicates.
//!
//! GRETEL "relaxes the notion of a fingerprint match, such that a regular
//! expression matches the snapshot if the sequence of symbols
//! corresponding to the state change operations … is preserved" (§5.3.1).
//! Concretely (Fig 4): starred symbols (idempotent reads) may be missing
//! from the context buffer, but the state-change literals must appear in
//! the buffer *in fingerprint order* — i.e. the literal sequence must be a
//! subsequence of the buffer's symbol sequence. Strict matching (every
//! atom required, for ablation) uses the full atom sequence instead.

use crate::fingerprint::Fingerprint;
use crate::lcs::is_subsequence;
use gretel_model::{ApiId, Catalog};

/// Relaxed match: the literal (state-change) sequence of `fp` — already
/// truncated by the caller when applicable — must be a subsequence of the
/// buffer's API sequence. `prune_rpcs` applies the §6 optimization.
pub fn matches_relaxed(
    fp: &Fingerprint,
    catalog: &Catalog,
    prune_rpcs: bool,
    max_literals: Option<usize>,
    buffer: &[ApiId],
) -> bool {
    let literals = fp.literals(catalog, prune_rpcs);
    let pattern = match max_literals {
        Some(k) if literals.len() > k => &literals[literals.len() - k..],
        _ => &literals[..],
    };
    is_subsequence(pattern, buffer)
}

/// Strict match (ablation): every atom, starred or not, must appear in
/// order.
pub fn matches_strict(fp: &Fingerprint, buffer: &[ApiId]) -> bool {
    is_subsequence(&fp.api_seq(), buffer)
}

/// Scored relaxed match: the length of the longest *suffix* of the
/// (pruned, bounded) literal pattern that is a subsequence of the buffer.
/// Candidates sharing the fault API but whose recent history is absent
/// from the buffer score low; the detector keeps only the top scorers.
/// Returns `(score, pattern_len)`.
pub fn suffix_match_score(
    fp: &Fingerprint,
    catalog: &Catalog,
    prune_rpcs: bool,
    max_literals: Option<usize>,
    buffer: &[ApiId],
) -> (usize, usize) {
    let literals = fp.literals(catalog, prune_rpcs);
    let pattern: &[ApiId] = match max_literals {
        Some(k) if literals.len() > k => &literals[literals.len() - k..],
        _ => &literals[..],
    };
    // Greedy from the end: match pattern[-1] to the last occurrence in the
    // buffer, pattern[-2] before it, and so on.
    let mut score = 0usize;
    let mut pos = buffer.len();
    'outer: for &lit in pattern.iter().rev() {
        while pos > 0 {
            pos -= 1;
            if buffer[pos] == lit {
                score += 1;
                continue 'outer;
            }
        }
        break;
    }
    (score, pattern.len())
}

/// log2 of the positions per block of [`PositionIndex`]'s rank directory.
const BLOCK_SHIFT: usize = 7;

/// Per-API occurrence index over a frozen buffer.
///
/// A frozen snapshot is matched against *many* candidate patterns (one per
/// truncation point per candidate operation) and, in the presence-policy
/// path, over many context-buffer growth steps. Scanning the buffer once
/// per (pattern, step) pair is O(patterns · β · steps); indexing each API's
/// sorted positions once turns every subsequence query into a chain of
/// successor / predecessor searches, buffer bytes touched once.
///
/// The layout is dense: every API that occurs gets a row, and a row is its
/// `u32` positions (CSR, rows back to back) plus a block rank directory
/// that says where in the row each 128-position block of the buffer
/// starts. A greedy step therefore binary-searches the handful of
/// occurrences inside one block instead of the API's whole list, and a
/// literal resolved to its row once costs no lookup per step.
#[derive(Debug, Clone, Default)]
pub struct PositionIndex {
    /// `row_of[api]`: the API's row number, `u32::MAX` when it never occurs.
    row_of: Vec<u32>,
    /// Directory entries per row: blocks + 1.
    stride: usize,
    /// `dir[r * stride + b]`: index into `positions` of row `r`'s first
    /// occurrence at or after block `b`; `dir[r * stride + stride - 1]`
    /// ends the row.
    dir: Vec<u32>,
    /// Occurrence positions, grouped by row, ascending within a row.
    positions: Vec<u32>,
    len: usize,
}

/// A pattern literal resolved against one [`PositionIndex`]: the start of
/// its row in the directory, or `usize::MAX` when the API never occurs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Row(usize);

impl PositionIndex {
    /// Index `buffer`; position `i` is `buffer[i]`.
    pub fn new(buffer: &[ApiId]) -> PositionIndex {
        let len = buffer.len();
        assert!(u32::try_from(len).is_ok(), "positions are u32");
        let stride = len.div_ceil(1 << BLOCK_SHIFT).max(1) + 1;
        let n_api = buffer.iter().map(|a| a.index() + 1).max().unwrap_or(0);
        let mut row_of = vec![u32::MAX; n_api];
        let mut rows = 0u32;
        for &a in buffer {
            if row_of[a.index()] == u32::MAX {
                row_of[a.index()] = rows;
                rows += 1;
            }
        }
        // Count each row's occurrences per block one slot to the right,
        // then one running sum over the whole directory turns the counts
        // into absolute starts (a row's start is every earlier row's total).
        let mut dir = vec![0u32; rows as usize * stride];
        for (i, &a) in buffer.iter().enumerate() {
            dir[row_of[a.index()] as usize * stride + (i >> BLOCK_SHIFT) + 1] += 1;
        }
        let mut total = 0u32;
        for d in &mut dir {
            total += *d;
            *d = total;
        }
        let mut next: Vec<u32> = dir.iter().step_by(stride).copied().collect();
        let mut positions = vec![0u32; len];
        for (i, &a) in buffer.iter().enumerate() {
            let cursor = &mut next[row_of[a.index()] as usize];
            positions[*cursor as usize] = i as u32;
            *cursor += 1;
        }
        PositionIndex {
            row_of,
            stride,
            dir,
            positions,
            len,
        }
    }

    /// Number of indexed symbols.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `api`'s row, for queries that look the same literal up many times.
    pub(crate) fn resolve(&self, api: ApiId) -> Row {
        match self.row_of.get(api.index()) {
            Some(&r) if r != u32::MAX => Row(r as usize * self.stride),
            _ => Row(usize::MAX),
        }
    }

    /// The row's occurrences inside the block holding `pos` (which must be
    /// below `len`), as `(lo, hi)` indices into `positions`.
    fn block(&self, row: Row, pos: usize) -> (usize, usize) {
        let at = row.0 + (pos >> BLOCK_SHIFT);
        (self.dir[at] as usize, self.dir[at + 1] as usize)
    }

    /// The row's last occurrence before `bound`.
    fn last_before(&self, row: Row, bound: usize) -> Option<usize> {
        if row.0 == usize::MAX || bound == 0 {
            return None;
        }
        let (lo, hi) = self.block(row, bound - 1);
        let i = lo + self.positions[lo..hi].partition_point(|&p| (p as usize) < bound);
        // `i == lo` falls back to the last occurrence of an earlier block.
        (i > self.dir[row.0] as usize).then(|| self.positions[i - 1] as usize)
    }

    /// The row's first occurrence at or after `cursor`.
    fn first_from(&self, row: Row, cursor: usize) -> Option<usize> {
        if row.0 == usize::MAX || cursor >= self.len {
            return None;
        }
        let (lo, hi) = self.block(row, cursor);
        let i = lo + self.positions[lo..hi].partition_point(|&p| (p as usize) < cursor);
        // `i == hi` moves on to the first occurrence of a later block.
        (i < self.dir[row.0 + self.stride - 1] as usize).then(|| self.positions[i] as usize)
    }

    /// Is `pattern` a subsequence of the indexed buffer restricted to
    /// positions in `lo..hi`? Equivalent to
    /// `is_subsequence(pattern, &buffer[lo..hi])`, via greedy successor
    /// queries instead of a scan.
    pub fn contains_subsequence(&self, pattern: &[ApiId], lo: usize, hi: usize) -> bool {
        let hi = hi.min(self.len);
        let mut cursor = lo;
        for &api in pattern {
            match self.first_from(self.resolve(api), cursor) {
                Some(p) if p < hi => cursor = p + 1,
                _ => return false,
            }
        }
        true
    }

    /// Minimal anchored half-width: the smallest `h` such that `pattern`
    /// is a subsequence of positions `(center − h)..bound`, computed by
    /// greedy backward matching (the last literal as late as possible
    /// before `bound`, the one before it earlier still, …). The evidence
    /// is anchored at `center`, so `bound` is clamped to `center + 1`.
    /// `None` when the pattern never completes before `bound`. An empty
    /// pattern is trivially present: `Some(0)`.
    pub fn min_anchored_half(
        &self,
        pattern: &[ApiId],
        center: usize,
        bound: usize,
    ) -> Option<usize> {
        self.min_anchored_half_with_misses(pattern, center, bound, 0)
            .map(|(h, _)| h)
    }

    /// Degraded-mode variant of [`PositionIndex::min_anchored_half`]: up to
    /// `max_misses` pattern literals may be absent from the buffer — each
    /// skipped literal models a symbol swallowed by a capture gap. Greedy
    /// from the end, like the exact matcher: a literal with no occurrence
    /// before the current cursor consumes one miss and the cursor stays
    /// put. Returns `(half_width, misses_used)`; `None` when the budget is
    /// exceeded or no literal matched at all (a match built purely of
    /// misses carries no evidence). With `max_misses == 0` this is exactly
    /// `min_anchored_half`.
    pub fn min_anchored_half_with_misses(
        &self,
        pattern: &[ApiId],
        center: usize,
        bound: usize,
        max_misses: usize,
    ) -> Option<(usize, usize)> {
        let rows = pattern.iter().map(|&a| self.resolve(a));
        self.anchored_walk(rows, center, bound, max_misses)
    }

    /// [`PositionIndex::min_anchored_half_with_misses`] over literals
    /// already resolved to rows — the one greedy walk behind both anchored
    /// queries.
    pub(crate) fn anchored_walk(
        &self,
        rows: impl DoubleEndedIterator<Item = Row>,
        center: usize,
        bound: usize,
        max_misses: usize,
    ) -> Option<(usize, usize)> {
        let mut bound = bound.min(self.len).min(center + 1);
        let mut misses = 0usize;
        let mut matched = 0usize;
        for row in rows.rev() {
            match self.last_before(row, bound) {
                Some(p) => {
                    bound = p;
                    matched += 1;
                }
                None => {
                    misses += 1;
                    if misses > max_misses {
                        return None;
                    }
                }
            }
        }
        if matched == 0 {
            // Only the empty pattern completes without evidence.
            return (misses == 0).then_some((0, 0));
        }
        Some((center - bound, misses))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Atom;
    use gretel_model::{HttpMethod, OpSpecId, Service};
    use std::sync::Arc;

    struct Fixture {
        catalog: Arc<Catalog>,
        get_nets: ApiId,     // starred (GET)
        get_sg: ApiId,       // starred (GET)
        post_servers: ApiId, // literal E in the paper's Fig 4
        post_ports: ApiId,   // literal F
        rpc_boot: ApiId,     // RPC literal
    }

    fn fx() -> Fixture {
        let catalog = Catalog::openstack();
        Fixture {
            get_nets: catalog.rest_expect(Service::Neutron, HttpMethod::Get, "/v2.0/networks.json"),
            get_sg: catalog.rest_expect(
                Service::Neutron,
                HttpMethod::Get,
                "/v2.0/security-groups.json",
            ),
            post_servers: catalog.rest_expect(Service::Nova, HttpMethod::Post, "/v2.1/servers"),
            post_ports: catalog.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json"),
            rpc_boot: catalog.rpc_expect(Service::NovaCompute, "build_and_run_instance"),
            catalog,
        }
    }

    fn fp(fx: &Fixture) -> Fingerprint {
        // E G* B S* F  (E = POST servers, B = RPC boot, F = POST ports)
        Fingerprint {
            op: OpSpecId(0),
            atoms: vec![
                Atom {
                    api: fx.post_servers,
                    starred: false,
                },
                Atom {
                    api: fx.get_nets,
                    starred: true,
                },
                Atom {
                    api: fx.rpc_boot,
                    starred: false,
                },
                Atom {
                    api: fx.get_sg,
                    starred: true,
                },
                Atom {
                    api: fx.post_ports,
                    starred: false,
                },
            ],
        }
    }

    #[test]
    fn paper_fig4_missing_starred_symbol_still_matches() {
        let f = fx();
        let fp = fp(&f);
        // Buffer holds E and F (order preserved) but no GETs: matches with
        // RPC pruning (B removed from the pattern).
        let buffer = vec![f.post_servers, f.post_ports];
        assert!(matches_relaxed(&fp, &f.catalog, true, None, &buffer));
        // Without pruning, the RPC literal B is required too.
        assert!(!matches_relaxed(&fp, &f.catalog, false, None, &buffer));
        let with_rpc = vec![f.post_servers, f.rpc_boot, f.post_ports];
        assert!(matches_relaxed(&fp, &f.catalog, false, None, &with_rpc));
    }

    #[test]
    fn literal_order_violation_fails() {
        let f = fx();
        let fp = fp(&f);
        let buffer = vec![f.post_ports, f.post_servers]; // F before E
        assert!(!matches_relaxed(&fp, &f.catalog, true, None, &buffer));
    }

    #[test]
    fn interleaved_foreign_symbols_are_ignored() {
        let f = fx();
        let fp = fp(&f);
        let noise = f
            .catalog
            .rest_expect(Service::Glance, HttpMethod::Get, "/v2/images");
        let buffer = vec![noise, f.post_servers, noise, noise, f.post_ports, noise];
        assert!(matches_relaxed(&fp, &f.catalog, true, None, &buffer));
    }

    #[test]
    fn duplicate_literals_in_buffer_are_tolerated() {
        // Interleaved instances of the same operation repeat symbols —
        // subsequence matching skips the extras.
        let f = fx();
        let fp = fp(&f);
        let buffer = vec![f.post_servers, f.post_servers, f.post_ports, f.post_ports];
        assert!(matches_relaxed(&fp, &f.catalog, true, None, &buffer));
    }

    #[test]
    fn strict_requires_starred_atoms_too() {
        let f = fx();
        let fp = fp(&f);
        let without_gets = vec![f.post_servers, f.rpc_boot, f.post_ports];
        assert!(!matches_strict(&fp, &without_gets));
        let all = vec![
            f.post_servers,
            f.get_nets,
            f.rpc_boot,
            f.get_sg,
            f.post_ports,
        ];
        assert!(matches_strict(&fp, &all));
    }

    #[test]
    fn bounded_literal_context_matches_on_suffix() {
        let f = fx();
        let fp = fp(&f);
        // Only the most recent literal (F) is in the buffer; with a bound
        // of 1 the pattern reduces to [F] and matches; unbounded it needs
        // E too.
        let buffer = vec![f.post_ports];
        assert!(matches_relaxed(&fp, &f.catalog, true, Some(1), &buffer));
        assert!(!matches_relaxed(&fp, &f.catalog, true, None, &buffer));
        // A bound larger than the pattern is a no-op.
        assert!(!matches_relaxed(&fp, &f.catalog, true, Some(99), &buffer));
    }

    #[test]
    fn empty_pattern_matches_anything() {
        let f = fx();
        let empty = Fingerprint {
            op: OpSpecId(1),
            atoms: vec![],
        };
        assert!(matches_relaxed(&empty, &f.catalog, true, None, &[]));
        assert!(matches_strict(&empty, &[f.post_servers]));
        let (score, plen) = suffix_match_score(&empty, &f.catalog, true, None, &[]);
        assert_eq!((score, plen), (0, 0));
    }

    #[test]
    fn max_literals_zero_reduces_every_pattern_to_empty() {
        // `max_literals: Some(0)` truncates the literal pattern to its last
        // zero symbols — the empty pattern, which matches any buffer. A
        // degenerate but well-defined configuration (it turns relaxed
        // matching into "is a candidate").
        let f = fx();
        let fp = fp(&f);
        assert!(matches_relaxed(&fp, &f.catalog, true, Some(0), &[]));
        assert!(matches_relaxed(
            &fp,
            &f.catalog,
            false,
            Some(0),
            &[f.get_nets]
        ));
        let (score, plen) = suffix_match_score(&fp, &f.catalog, true, Some(0), &[f.post_ports]);
        assert_eq!((score, plen), (0, 0));
    }

    fn pool(f: &Fixture) -> [ApiId; 5] {
        [
            f.get_nets,
            f.get_sg,
            f.post_servers,
            f.post_ports,
            f.rpc_boot,
        ]
    }

    #[test]
    fn position_index_agrees_with_linear_subsequence_scan() {
        use rand::prelude::*;
        let f = fx();
        let pool = pool(&f);
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..50 {
            let buffer: Vec<ApiId> = (0..rng.gen_range(0usize..40))
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            let idx = PositionIndex::new(&buffer);
            assert_eq!(idx.len(), buffer.len());
            for _ in 0..20 {
                let pattern: Vec<ApiId> = (0..rng.gen_range(0usize..6))
                    .map(|_| pool[rng.gen_range(0..pool.len())])
                    .collect();
                let lo = rng.gen_range(0..=buffer.len());
                let hi = rng.gen_range(lo..=buffer.len());
                assert_eq!(
                    idx.contains_subsequence(&pattern, lo, hi),
                    is_subsequence(&pattern, &buffer[lo..hi]),
                    "pattern {pattern:?} window {lo}..{hi} of {buffer:?}"
                );
            }
        }
    }

    /// Greedy backward matching by linear scans of the buffer itself.
    fn scan_with_misses(
        pattern: &[ApiId],
        buffer: &[ApiId],
        center: usize,
        bound: usize,
        max_misses: usize,
    ) -> Option<(usize, usize)> {
        let mut bound = bound.min(buffer.len()).min(center + 1);
        let (mut matched, mut misses) = (0, 0);
        for lit in pattern.iter().rev() {
            match buffer[..bound].iter().rposition(|a| a == lit) {
                Some(p) => (bound, matched) = (p, matched + 1),
                None if misses < max_misses => misses += 1,
                None => return None,
            }
        }
        match matched {
            0 if !pattern.is_empty() => None,
            0 => Some((0, 0)),
            _ => Some((center - bound, misses)),
        }
    }

    #[test]
    fn dense_index_agrees_with_scans_across_block_edges() {
        use rand::prelude::*;
        let f = fx();
        let common = pool(&f);
        // Two rare APIs, so some rows have blocks with no occurrence and a
        // search must fall back to an earlier (or on to a later) block.
        let rare = [
            f.catalog
                .rest_expect(Service::Glance, HttpMethod::Get, "/v2/images"),
            f.catalog
                .rest_expect(Service::Nova, HttpMethod::Get, "/v2.1/flavors"),
        ];
        let mut rng = StdRng::seed_from_u64(0xB10C);
        for _ in 0..6 {
            let n = rng.gen_range(2_049usize..5_000);
            let buffer: Vec<ApiId> = (0..n)
                .map(|_| match rng.gen_range(0..1000) {
                    0..=2 => rare[rng.gen_range(0..2usize)],
                    _ => common[rng.gen_range(0..common.len())],
                })
                .collect();
            let idx = PositionIndex::new(&buffer);
            let any = |rng: &mut StdRng| match rng.gen_range(0..4) {
                0 => rare[rng.gen_range(0..2usize)],
                _ => common[rng.gen_range(0..common.len())],
            };
            for _ in 0..150 {
                let len = rng.gen_range(0usize..7);
                let pattern: Vec<ApiId> = (0..len).map(|_| any(&mut rng)).collect();
                let lo = rng.gen_range(0..=n);
                let hi = rng.gen_range(lo..=n);
                assert_eq!(
                    idx.contains_subsequence(&pattern, lo, hi),
                    is_subsequence(&pattern, &buffer[lo..hi]),
                    "pattern {pattern:?} window {lo}..{hi}"
                );
                // Bounds past the anchor are clamped to it.
                let center = rng.gen_range(0..n);
                let bound = rng.gen_range(0..=n);
                let upper = bound.min(center + 1);
                // The minimal half-width by bisection over plain
                // subsequence scans (presence only grows with h).
                let naive = if upper == 0 || !is_subsequence(&pattern, &buffer[..upper]) {
                    None
                } else {
                    let (mut lo_h, mut hi_h) = (center + 1 - upper, center);
                    while lo_h < hi_h {
                        let mid = (lo_h + hi_h) / 2;
                        if is_subsequence(&pattern, &buffer[center - mid..upper]) {
                            hi_h = mid;
                        } else {
                            lo_h = mid + 1;
                        }
                    }
                    Some(lo_h)
                };
                let naive = if pattern.is_empty() { Some(0) } else { naive };
                let half = idx.min_anchored_half(&pattern, center, bound);
                assert_eq!(half, naive, "{pattern:?} @ {center}");
                let m = rng.gen_range(0..3);
                assert_eq!(
                    idx.min_anchored_half_with_misses(&pattern, center, bound, m),
                    scan_with_misses(&pattern, &buffer, center, bound, m),
                    "{pattern:?} @ {center} bound {bound} misses {m}"
                );
            }
        }
    }

    #[test]
    fn a_bound_past_the_anchor_never_underflows() {
        // Regression: with `bound > center + 1` the greedy walk could land
        // on a literal after the anchor, and `center - bound` underflowed
        // (a debug panic, a huge half-width in release).
        let f = fx();
        let (a, b) = (f.post_ports, f.post_servers);
        let idx = PositionIndex::new(&[b, b, a]);
        assert_eq!(idx.min_anchored_half(&[a], 0, 3), None);
        assert_eq!(idx.min_anchored_half(&[b], 0, 3), Some(0));
        assert_eq!(idx.min_anchored_half(&[b, b], 1, 3), Some(1));
        assert_eq!(idx.min_anchored_half_with_misses(&[a], 0, 3, 1), None);
        assert_eq!(
            idx.min_anchored_half_with_misses(&[a, b], 0, 3, 1),
            Some((0, 1))
        );
        assert_eq!(
            idx.min_anchored_half_with_misses(&[b, a, b], 1, 3, 1),
            Some((1, 1))
        );
    }

    #[test]
    fn min_anchored_half_is_the_smallest_complete_window() {
        use rand::prelude::*;
        let f = fx();
        let pool = pool(&f);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..60 {
            let buffer: Vec<ApiId> = (0..rng.gen_range(1usize..48))
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            let idx = PositionIndex::new(&buffer);
            let center = rng.gen_range(0..buffer.len());
            let bound = center + 1; // anchored at the fault
            let pattern: Vec<ApiId> = (0..rng.gen_range(1usize..5))
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            // Reference: the smallest h with the pattern embedded in
            // buffer[center-h..bound].
            let naive =
                (0..=center).find(|&h| is_subsequence(&pattern, &buffer[center - h..bound]));
            assert_eq!(
                idx.min_anchored_half(&pattern, center, bound),
                naive,
                "pattern {pattern:?} center {center} of {buffer:?}"
            );
        }
        let idx = PositionIndex::new(&[f.post_servers]);
        assert_eq!(idx.min_anchored_half(&[], 0, 1), Some(0));
        assert_eq!(idx.min_anchored_half(&[f.post_ports], 0, 1), None);
    }

    #[test]
    fn zero_miss_budget_equals_exact_matching() {
        use rand::prelude::*;
        let f = fx();
        let pool = pool(&f);
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..80 {
            let buffer: Vec<ApiId> = (0..rng.gen_range(1usize..48))
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            let idx = PositionIndex::new(&buffer);
            let center = rng.gen_range(0..buffer.len());
            let bound = center + 1;
            let pattern: Vec<ApiId> = (0..rng.gen_range(1usize..5))
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            let exact = idx.min_anchored_half(&pattern, center, bound);
            let degraded = idx.min_anchored_half_with_misses(&pattern, center, bound, 0);
            assert_eq!(
                degraded,
                exact.map(|h| (h, 0)),
                "pattern {pattern:?} of {buffer:?}"
            );
        }
    }

    #[test]
    fn miss_budget_bridges_a_hole_in_the_buffer() {
        let f = fx();
        // Pattern E B F, but B (the RPC literal) never made it into the
        // capture: exact matching fails, one miss bridges it.
        let buffer = vec![f.post_servers, f.get_nets, f.post_ports];
        let idx = PositionIndex::new(&buffer);
        let pattern = [f.post_servers, f.rpc_boot, f.post_ports];
        assert_eq!(idx.min_anchored_half(&pattern, 2, 3), None);
        assert_eq!(idx.min_anchored_half_with_misses(&pattern, 2, 3, 0), None);
        assert_eq!(
            idx.min_anchored_half_with_misses(&pattern, 2, 3, 1),
            Some((2, 1))
        );
        // A bigger budget does not inflate the reported misses.
        assert_eq!(
            idx.min_anchored_half_with_misses(&pattern, 2, 3, 5),
            Some((2, 1))
        );
    }

    #[test]
    fn all_misses_is_not_a_match() {
        let f = fx();
        let idx = PositionIndex::new(&[f.get_nets, f.get_sg]);
        let pattern = [f.post_servers, f.post_ports];
        assert_eq!(idx.min_anchored_half_with_misses(&pattern, 1, 2, 2), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::fingerprint::{Atom, Fingerprint};
    use gretel_model::{Catalog, HttpMethod, OpSpecId, Service};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The greedy backward score equals the length of the longest
        // pattern *suffix* that embeds in the buffer (greedy backward
        // matching is optimal for suffix embedding).
        #[test]
        fn suffix_score_equals_longest_embedding_suffix(
            atom_picks in proptest::collection::vec(0usize..5, 0..10),
            stars in proptest::collection::vec(any::<bool>(), 10),
            buf_picks in proptest::collection::vec(0usize..5, 0..24),
            prune in any::<bool>(),
            bound_raw in 0usize..10,
        ) {
            let catalog = Catalog::openstack();
            let pool = [
                catalog.rest_expect(Service::Neutron, HttpMethod::Get, "/v2.0/networks.json"),
                catalog.rest_expect(Service::Neutron, HttpMethod::Get, "/v2.0/security-groups.json"),
                catalog.rest_expect(Service::Nova, HttpMethod::Post, "/v2.1/servers"),
                catalog.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json"),
                catalog.rpc_expect(Service::NovaCompute, "build_and_run_instance"),
            ];
            let fp = Fingerprint {
                op: OpSpecId(0),
                atoms: atom_picks
                    .iter()
                    .zip(&stars)
                    .map(|(&i, &starred)| Atom { api: pool[i], starred })
                    .collect(),
            };
            let buffer: Vec<_> = buf_picks.iter().map(|&i| pool[i]).collect();
            let max_literals = (bound_raw < 9).then_some(bound_raw);

            let (score, plen) =
                suffix_match_score(&fp, &catalog, prune, max_literals, &buffer);

            let literals = fp.literals(&catalog, prune);
            let pattern: &[_] = match max_literals {
                Some(k) if literals.len() > k => &literals[literals.len() - k..],
                _ => &literals[..],
            };
            prop_assert_eq!(plen, pattern.len());
            let naive = (0..=pattern.len())
                .rev()
                .find(|&s| is_subsequence(&pattern[pattern.len() - s..], &buffer))
                .unwrap_or(0);
            prop_assert_eq!(score, naive);
        }
    }
}
