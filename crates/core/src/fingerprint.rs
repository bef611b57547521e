//! Operational fingerprints (Algorithm 1) and the fingerprint library.
//!
//! A fingerprint is the precise API sequence identifying one high-level
//! administrative operation, learned offline by executing the operation
//! repeatedly in a controlled setting, filtering noise from each trace,
//! and intersecting the traces with the longest common subsequence. In the
//! regex representation, state-change APIs (POST/PUT/DELETE and RPCs)
//! become plain literals and everything else is starred (`X*`, optional):
//! GRETEL's matching prioritises state-change symbols (§5.3.1).

use crate::checkpoint::CheckpointError;
use crate::lcs::lcs;
use crate::noise_filter::filter_noise;
use gretel_model::codec::{put_count, put_u16, put_u8, DecodeError, Reader};
use gretel_model::{symbol, ApiId, Catalog, OpSpecId, OperationSpec};
use gretel_sim::{Deployment, Execution, FaultPlan, RunConfig, Runner};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One element of a fingerprint's regex representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Atom {
    /// The API.
    pub api: ApiId,
    /// Whether the atom is starred (`X*`): non-state-change APIs may be
    /// missing from a snapshot without invalidating a match.
    pub starred: bool,
}

/// The learned fingerprint of one operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// The operation this fingerprint identifies.
    pub op: OpSpecId,
    /// Ordered atoms.
    pub atoms: Vec<Atom>,
}

impl Fingerprint {
    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the fingerprint is empty.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Whether any atom references `api`.
    pub fn contains(&self, api: ApiId) -> bool {
        self.atoms.iter().any(|a| a.api == api)
    }

    /// The literal (state-change) sequence that must be present, in order,
    /// for a relaxed match. With `prune_rpcs` (the §6 optimization) RPC
    /// symbols are dropped from the pattern.
    pub fn literals(&self, catalog: &Catalog, prune_rpcs: bool) -> Vec<ApiId> {
        self.literals_iter(catalog, prune_rpcs).collect()
    }

    /// Iterator form of [`Self::literals`] for callers that only count or
    /// scan the literal sequence — no intermediate `Vec`.
    pub fn literals_iter<'a>(
        &'a self,
        catalog: &'a Catalog,
        prune_rpcs: bool,
    ) -> impl Iterator<Item = ApiId> + 'a {
        self.atoms
            .iter()
            .filter(|a| !a.starred)
            .filter(move |a| !(prune_rpcs && catalog.get(a.api).is_rpc()))
            .map(|a| a.api)
    }

    /// All atom APIs in order (for strict matching and set overlap).
    pub fn api_seq(&self) -> Vec<ApiId> {
        self.atoms.iter().map(|a| a.api).collect()
    }

    /// Number of atoms excluding RPCs (the "w/o RPC" fingerprint size of
    /// Table 1).
    pub fn len_without_rpcs(&self, catalog: &Catalog) -> usize {
        self.atoms
            .iter()
            .filter(|a| !catalog.get(a.api).is_rpc())
            .count()
    }

    /// Truncate at the **last** occurrence of `api` (inclusive) —
    /// Algorithm 2's `TRUNCATE_OPERATION_FINGERPRINTS`. Returns `None`
    /// when `api` is absent.
    pub fn truncate_at_last(&self, api: ApiId) -> Option<Fingerprint> {
        let idx = self.atoms.iter().rposition(|a| a.api == api)?;
        Some(Fingerprint {
            op: self.op,
            atoms: self.atoms[..=idx].to_vec(),
        })
    }

    /// Truncations at **every** occurrence of `api`. Algorithm 2 truncates
    /// at the last occurrence, implicitly assuming the fault hit it; when
    /// the same API appears several times in an operation the fault may
    /// have hit an earlier one, so the detector considers every candidate
    /// truncation point and keeps the best-matching.
    pub fn truncate_at_each(&self, api: ApiId) -> Vec<Fingerprint> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.api == api)
            .map(|(idx, _)| Fingerprint {
                op: self.op,
                atoms: self.atoms[..=idx].to_vec(),
            })
            .collect()
    }

    /// Bounded literal patterns centred on each occurrence of `api`:
    /// for every occurrence, up to `k/2` literals before and after it.
    /// Performance faults do not abort their operation, so the evidence
    /// around the anomalous API extends in both directions (§5.3.1:
    /// "GRETEL makes use of the entire context buffer"), but bounding the
    /// pattern keeps long operations matchable within a finite window.
    pub fn centered_literals(
        &self,
        catalog: &Catalog,
        prune_rpcs: bool,
        api: ApiId,
        k: usize,
    ) -> Vec<Vec<ApiId>> {
        // Work over atom positions so starred anomalous APIs (reads) can
        // anchor too; patterns keep only literal symbols.
        let keep = |a: &Atom| !(a.starred || prune_rpcs && catalog.get(a.api).is_rpc());
        let occurrences: Vec<usize> = self
            .atoms
            .iter()
            .enumerate()
            .filter(|&(_, a)| a.api == api)
            .map(|(i, _)| i)
            .collect();
        if occurrences.is_empty() {
            return Vec::new();
        }
        let half = (k / 2).max(1);
        occurrences
            .into_iter()
            .map(|pos| {
                // Collect up to `half` literals on each side of the
                // anchor atom (plus the anchor itself when literal).
                let mut before: Vec<ApiId> = self.atoms[..pos]
                    .iter()
                    .rev()
                    .filter(|a| keep(a))
                    .take(half)
                    .map(|a| a.api)
                    .collect();
                before.reverse();
                let mut pattern = before;
                if keep(&self.atoms[pos]) {
                    pattern.push(self.atoms[pos].api);
                }
                pattern.extend(
                    self.atoms[pos + 1..]
                        .iter()
                        .filter(|a| keep(a))
                        .take(half)
                        .map(|a| a.api),
                );
                pattern
            })
            .collect()
    }

    /// The Unicode regex string of the fingerprint (paper §6 encodes each
    /// API as one Unicode symbol; starred atoms get `*`).
    pub fn regex_string(&self) -> String {
        let mut out = String::with_capacity(self.atoms.len() * 2);
        for a in &self.atoms {
            out.push(symbol::encode(a.api));
            if a.starred {
                out.push('*');
            }
        }
        out
    }
}

/// Algorithm 1: build a fingerprint from repeated execution traces.
///
/// Traces are API-id sequences (one id per invocation). They are sorted by
/// length, noise-filtered, and intersected pairwise by LCS; the surviving
/// sequence becomes the atoms, starred according to state-change priority.
pub fn generate_fingerprint(catalog: &Catalog, op: OpSpecId, traces: &[Vec<ApiId>]) -> Fingerprint {
    assert!(!traces.is_empty(), "need at least one trace");
    let mut sorted: Vec<&Vec<ApiId>> = traces.iter().collect();
    sorted.sort_by_key(|t| t.len());

    let mut f = filter_noise(catalog, sorted[0]);
    for t in &sorted[1..] {
        let filtered = filter_noise(catalog, t);
        f = lcs(&f, &filtered);
    }
    let atoms = f
        .into_iter()
        .map(|api| Atom {
            api,
            starred: !catalog.get(api).is_state_change(),
        })
        .collect();
    Fingerprint { op, atoms }
}

/// Precomputed pattern data for one fingerprint: every slice a detector
/// can ask for — full or truncated atom sequences, literal sequences with
/// or without RPC pruning, bounded centred windows — is a borrow into
/// these vectors. Built once when the fingerprint is indexed; the fault
/// path never re-derives a pattern.
///
/// Key observation: `Fingerprint::literals` is an order-preserving
/// projection of the atoms, so the literal sequence of *any* truncated
/// prefix is itself a prefix of the full literal sequence, and a centred
/// literal window is a contiguous slice of it. A truncation point is
/// therefore just three prefix lengths ([`PatternEntry`]).
#[derive(Debug, Clone)]
struct FpPatterns {
    /// Full atom API sequence (strict / correlation matching).
    apis: Vec<ApiId>,
    /// Literal sequences: `[0]` with RPC symbols kept, `[1]` with RPCs
    /// pruned (§6).
    lits: [Vec<ApiId>; 2],
}

impl FpPatterns {
    fn build(catalog: &Catalog, fp: &Fingerprint) -> FpPatterns {
        let apis = fp.api_seq();
        let lits = [fp.literals(catalog, false), fp.literals(catalog, true)];
        FpPatterns { apis, lits }
    }
}

/// Literals a [`PatternTable`] orders its suffix-sorted lists by.
const SUFFIX_KEY: usize = 8;

/// The last [`SUFFIX_KEY`] literals of `lits`, newest first, one 16-bit
/// lane each (id + 1; 0 where the sequence is shorter): keys compare the
/// way those bounded suffixes do.
fn suffix_key(lits: &[ApiId]) -> u128 {
    let newest_first = lits.iter().rev().take(SUFFIX_KEY).enumerate();
    newest_first.fold(0, |key, (i, a)| {
        key | u128::from(a.0.saturating_add(1)) << (16 * (SUFFIX_KEY - 1 - i))
    })
}

/// One candidate pattern: an operation cut at one truncation point, as
/// prefix lengths of its cached sequences.
#[derive(Debug, Clone, Copy)]
struct PatternEntry {
    op: OpSpecId,
    /// Atoms kept.
    apis: u32,
    /// Literals kept, `[RPCs kept, RPCs pruned]`.
    lits: [u32; 2],
}

/// Every candidate pattern of every API, derived once per library (never
/// per fault or per job): one flat table, CSR-indexed by `ApiId`.
#[derive(Debug, Clone, Default)]
struct PatternTable {
    /// API `a`'s entries are `entries[start[a]..start[a + 1]]`.
    start: Vec<u32>,
    /// Candidate order: ascending operation, then the API's occurrences
    /// in atom order (the order `truncate_at_each` visits).
    entries: Vec<PatternEntry>,
    /// Per pruning mode, the same ranges as `(op, literals kept)`, sorted
    /// by their last [`SUFFIX_KEY`] literals, newest first. The patterns
    /// sharing their last `k ≤ SUFFIX_KEY` literals are then adjacent, so a
    /// detector deduplicates bounded patterns under the default
    /// `max_literals` in one linear pass (a longer bound only dedups less).
    by_suffix: [Vec<(OpSpecId, u32)>; 2],
}

impl PatternTable {
    /// The table over `fps`: with `truncate`, one entry per occurrence of
    /// each API; without, one untruncated entry per distinct API.
    fn build(
        catalog: &Catalog,
        fps: &[Fingerprint],
        cache: &[FpPatterns],
        truncate: bool,
    ) -> PatternTable {
        let n_api = fps
            .iter()
            .flat_map(|fp| &fp.atoms)
            .map(|a| a.api.index() + 1)
            .max();
        let mut per_api: Vec<Vec<PatternEntry>> = vec![Vec::new(); n_api.unwrap_or(0)];
        let mut distinct: Vec<ApiId> = Vec::new();
        for fp in fps {
            let mut cut = PatternEntry {
                op: fp.op,
                apis: 0,
                lits: [0, 0],
            };
            distinct.clear();
            for a in &fp.atoms {
                cut.apis += 1;
                if !a.starred {
                    cut.lits[0] += 1;
                    cut.lits[1] += !catalog.get(a.api).is_rpc() as u32;
                }
                let bucket = &mut per_api[a.api.index()];
                if truncate {
                    bucket.push(cut);
                } else if bucket.last().is_none_or(|e| e.op != fp.op) {
                    // Placeholder, completed below with the whole lengths.
                    bucket.push(cut);
                    distinct.push(a.api);
                }
            }
            for api in &distinct {
                *per_api[api.index()].last_mut().expect("pushed above") = cut;
            }
        }
        let mut table = PatternTable {
            start: vec![0],
            ..PatternTable::default()
        };
        let mut keyed: Vec<(u128, OpSpecId, u32)> = Vec::new();
        for bucket in per_api {
            for (m, sorted) in table.by_suffix.iter_mut().enumerate() {
                keyed.clear();
                keyed.extend(bucket.iter().map(|e| {
                    let lits = &cache[e.op.index()].lits[m][..e.lits[m] as usize];
                    (suffix_key(lits), e.op, e.lits[m])
                }));
                keyed.sort_unstable();
                sorted.extend(keyed.iter().map(|&(_, op, n)| (op, n)));
            }
            table.entries.extend(bucket);
            table
                .start
                .push(u32::try_from(table.entries.len()).expect("table fits u32 offsets"));
        }
        table
    }

    /// Where `api`'s entries sit in `entries` and each `by_suffix` list.
    fn range(&self, api: ApiId) -> std::ops::Range<usize> {
        match (self.start.get(api.index()), self.start.get(api.index() + 1)) {
            (Some(&lo), Some(&hi)) => lo as usize..hi as usize,
            _ => 0..0,
        }
    }
}

/// One candidate pattern for a fault, borrowed from the library's pattern
/// cache — the fast-path replacement for cloning truncated
/// [`Fingerprint`]s per fault.
#[derive(Debug, Clone, Copy)]
pub struct CandidatePattern<'a> {
    /// The candidate operation.
    pub op: OpSpecId,
    /// (Truncated) atom sequence — for strict and correlation matching.
    pub apis: &'a [ApiId],
    /// (Truncated) literal sequence with RPC symbols kept.
    pub lits_all: &'a [ApiId],
    /// (Truncated) literal sequence with RPC symbols pruned (§6).
    pub lits_pruned: &'a [ApiId],
}

impl<'a> CandidatePattern<'a> {
    /// The literal pattern under the detector's pruning flag.
    pub fn literals(&self, prune_rpcs: bool) -> &'a [ApiId] {
        if prune_rpcs {
            self.lits_pruned
        } else {
            self.lits_all
        }
    }
}

/// The library of all learned fingerprints, indexed for candidate lookup.
#[derive(Debug, Clone)]
pub struct FingerprintLibrary {
    catalog: Arc<Catalog>,
    fps: Vec<Fingerprint>,
    by_api: HashMap<ApiId, Vec<OpSpecId>>,
    fp_max: usize,
    /// Pattern cache, parallel to `fps`.
    cache: Vec<FpPatterns>,
    /// Candidate patterns per API, `[untruncated, truncated]`.
    tables: [PatternTable; 2],
}

impl FingerprintLibrary {
    /// Build from per-operation trace sets.
    pub fn from_traces(
        catalog: Arc<Catalog>,
        traces: Vec<(OpSpecId, Vec<Vec<ApiId>>)>,
    ) -> FingerprintLibrary {
        let mut fps = Vec::with_capacity(traces.len());
        for (i, (op, trace_set)) in traces.into_iter().enumerate() {
            assert_eq!(
                op.index(),
                i,
                "fingerprints must be supplied in dense id order"
            );
            fps.push(generate_fingerprint(&catalog, op, &trace_set));
        }
        Self::index(catalog, fps)
    }

    fn index(catalog: Arc<Catalog>, fps: Vec<Fingerprint>) -> FingerprintLibrary {
        let mut lib = FingerprintLibrary {
            catalog,
            fps: Vec::with_capacity(fps.len()),
            by_api: HashMap::new(),
            fp_max: 0,
            cache: Vec::with_capacity(fps.len()),
            tables: Default::default(),
        };
        for fp in fps {
            lib.index_one(fp);
        }
        lib.build_tables();
        lib
    }

    /// (Re)derive the per-API candidate tables from every fingerprint.
    fn build_tables(&mut self) {
        self.tables = [false, true]
            .map(|truncate| PatternTable::build(&self.catalog, &self.fps, &self.cache, truncate));
    }

    /// Register one fingerprint: candidate index, `FPmax`, pattern cache.
    /// Shared by the batch constructors and [`Self::extend_characterize`],
    /// which rebuild the candidate tables afterwards.
    fn index_one(&mut self, fp: Fingerprint) {
        self.fp_max = self.fp_max.max(fp.len());
        let mut seen = std::collections::HashSet::new();
        for a in &fp.atoms {
            if seen.insert(a.api) {
                self.by_api.entry(a.api).or_default().push(fp.op);
            }
        }
        self.cache.push(FpPatterns::build(&self.catalog, &fp));
        self.fps.push(fp);
    }

    /// Offline characterization (§7.1): execute every spec `runs` times in
    /// isolation on `deployment` (noise enabled — the filter must earn its
    /// keep) and learn its fingerprint. Returns the library plus the raw
    /// event counts per operation (for Table 1's Events columns).
    ///
    /// Specs are characterized on as many scoped workers as the machine
    /// has cores. Each spec's simulator seeds depend only on its index and
    /// fingerprint generation is a pure function of the traces, so the
    /// result is the same bytes at any width.
    pub fn characterize(
        catalog: Arc<Catalog>,
        specs: &[OperationSpec],
        deployment: &Deployment,
        runs: usize,
        seed: u64,
    ) -> (FingerprintLibrary, Vec<CharacterizationStats>) {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::characterize_on(threads, catalog, specs, deployment, runs, seed)
    }

    /// [`Self::characterize`] on at most `threads` workers.
    fn characterize_on(
        threads: usize,
        catalog: Arc<Catalog>,
        specs: &[OperationSpec],
        deployment: &Deployment,
        runs: usize,
        seed: u64,
    ) -> (FingerprintLibrary, Vec<CharacterizationStats>) {
        assert!(runs >= 1);
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(spec.id.index(), i, "specs must be in dense id order");
        }
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, Fingerprint, CharacterizationStats)>> =
            Mutex::new(Vec::with_capacity(specs.len()));
        let worker = || {
            let mut local = Vec::new();
            loop {
                // A work counter publishes nothing but itself.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let (traces, st) = Self::run_spec_traces(&catalog, deployment, spec, runs, |r| {
                    seed ^ ((i as u64) << 20) ^ r as u64
                });
                local.push((i, generate_fingerprint(&catalog, spec.id, &traces), st));
            }
            done.lock()
                .expect("no worker panics holding the lock")
                .extend(local);
        };
        // The caller is the first worker, so one thread spawns nothing.
        std::thread::scope(|scope| {
            for _ in 1..threads.min(specs.len()) {
                scope.spawn(worker);
            }
            worker();
        });
        let mut done = done.into_inner().expect("workers are joined");
        done.sort_by_key(|&(i, ..)| i);
        let mut fps = Vec::with_capacity(done.len());
        let mut stats = Vec::with_capacity(done.len());
        for (_, fp, st) in done {
            fps.push(fp);
            stats.push(st);
        }
        (Self::index(catalog, fps), stats)
    }

    /// Execute one spec `runs` times in isolation; the traces plus the
    /// raw event counts. `run_seed(r)` is the simulator seed of run `r`.
    fn run_spec_traces(
        catalog: &Arc<Catalog>,
        deployment: &Deployment,
        spec: &OperationSpec,
        runs: usize,
        run_seed: impl Fn(usize) -> u64,
    ) -> (Vec<Vec<ApiId>>, CharacterizationStats) {
        let plan = FaultPlan::none();
        let mut traces = Vec::with_capacity(runs);
        let mut rest_events = 0usize;
        let mut rpc_events = 0usize;
        for r in 0..runs {
            let cfg = RunConfig {
                seed: run_seed(r),
                start_window: 0,
                ..RunConfig::default()
            };
            let exec = Runner::new(catalog.clone(), deployment, &plan, cfg).run(&[spec]);
            traces.push(trace_of(&exec));
            for m in &exec.messages {
                if m.wire.is_rpc() {
                    rpc_events += 1;
                } else {
                    rest_events += 1;
                }
            }
        }
        (
            traces,
            CharacterizationStats {
                op: spec.id,
                rest_events,
                rpc_events,
            },
        )
    }

    /// Incrementally learn fingerprints for newly introduced operations
    /// (paper Limitation 7: "Enhancements to OpenStack or its APIs require
    /// building additional fingerprints for the newly introduced
    /// operations" — no full retraining needed). `specs` must continue the
    /// dense id space.
    pub fn extend_characterize(
        &mut self,
        specs: &[OperationSpec],
        deployment: &Deployment,
        runs: usize,
        seed: u64,
    ) -> Vec<CharacterizationStats> {
        assert!(runs >= 1);
        let mut stats = Vec::with_capacity(specs.len());
        for (j, spec) in specs.iter().enumerate() {
            assert_eq!(
                spec.id.index(),
                self.fps.len(),
                "new specs must continue the dense id space"
            );
            let (traces, st) = Self::run_spec_traces(&self.catalog, deployment, spec, runs, |r| {
                seed ^ ((j as u64) << 24) ^ r as u64
            });
            let fp = generate_fingerprint(&self.catalog, spec.id, &traces);
            self.index_one(fp);
            stats.push(st);
        }
        self.build_tables();
        stats
    }

    /// The fingerprint of `op`.
    pub fn get(&self, op: OpSpecId) -> &Fingerprint {
        &self.fps[op.index()]
    }

    /// All fingerprints.
    pub fn iter(&self) -> impl Iterator<Item = &Fingerprint> {
        self.fps.iter()
    }

    /// Number of fingerprints (the `N` in θ).
    pub fn len(&self) -> usize {
        self.fps.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.fps.is_empty()
    }

    /// Operations whose fingerprint contains `api`
    /// (`Get_Possible_Offending_Operations`).
    pub fn candidates(&self, api: ApiId) -> &[OpSpecId] {
        self.by_api.get(&api).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Candidate patterns for an offending API, borrowed from the pattern
    /// cache: one entry per candidate operation and truncation point (the
    /// occurrences of `offending` in its fingerprint, in atom order), or
    /// one untruncated entry per candidate when `truncate` is false. Same
    /// order and content as deriving `candidates()` × `truncate_at_each()`
    /// × `literals()`/`api_seq()` fresh, read from the library's per-API
    /// table.
    pub fn candidate_patterns(
        &self,
        offending: ApiId,
        truncate: bool,
    ) -> Vec<CandidatePattern<'_>> {
        let table = &self.tables[truncate as usize];
        table.entries[table.range(offending)]
            .iter()
            .map(|e| {
                let pats = &self.cache[e.op.index()];
                CandidatePattern {
                    op: e.op,
                    apis: &pats.apis[..e.apis as usize],
                    lits_all: &pats.lits[0][..e.lits[0] as usize],
                    lits_pruned: &pats.lits[1][..e.lits[1] as usize],
                }
            })
            .collect()
    }

    /// The same candidate patterns as [`Self::candidate_patterns`], reduced
    /// to `(operation, literal sequence)` under `prune_rpcs` and ordered by
    /// their last eight literals, newest first: for every `k ≤ 8` the
    /// patterns whose last `k` literals agree are adjacent, so bounded
    /// patterns deduplicate in one pass. Borrowed from the per-API table;
    /// nothing is allocated.
    pub fn suffix_sorted_literals(
        &self,
        offending: ApiId,
        truncate: bool,
        prune_rpcs: bool,
    ) -> impl ExactSizeIterator<Item = (OpSpecId, &[ApiId])> + '_ {
        let m = prune_rpcs as usize;
        let table = &self.tables[truncate as usize];
        table.by_suffix[m][table.range(offending)]
            .iter()
            .map(move |&(op, n)| (op, &self.cache[op.index()].lits[m][..n as usize]))
    }

    /// Cached full literal sequence of `op`
    /// (= `get(op).literals(catalog, prune_rpcs)`).
    pub fn literal_seq(&self, op: OpSpecId, prune_rpcs: bool) -> &[ApiId] {
        &self.cache[op.index()].lits[prune_rpcs as usize]
    }

    /// Cached bounded literal windows centred on each occurrence of `api`
    /// in `op`'s fingerprint — equal to
    /// `get(op).centered_literals(catalog, false, api, k)` (the
    /// performance-fault pattern; RPC symbols kept, §3.1.2). Each window
    /// is a contiguous slice of the cached literal sequence.
    pub fn centered_patterns(&self, op: OpSpecId, api: ApiId, k: usize) -> Vec<&[ApiId]> {
        // `api`'s truncation points, ascending by operation.
        let cuts = &self.tables[1].entries[self.tables[1].range(api)];
        let cuts = &cuts[cuts.partition_point(|e| e.op < op)..];
        let atoms = &self.fps[op.index()].atoms;
        let lits = &self.cache[op.index()].lits[0];
        let half = (k / 2).max(1);
        cuts.iter()
            .take_while(|e| e.op == op)
            .map(|e| {
                // Literals through the occurrence, itself included if literal.
                let through = e.lits[0] as usize;
                let before = through - !atoms[e.apis as usize - 1].starred as usize;
                &lits[before.saturating_sub(half)..through.saturating_add(half).min(lits.len())]
            })
            .collect()
    }

    /// Size of the largest fingerprint (the `FPmax` in α).
    pub fn fp_max(&self) -> usize {
        self.fp_max
    }

    /// The catalog fingerprints refer into.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Serialize the learned fingerprints to JSON. The catalog itself is
    /// not serialized — it is a deterministic build
    /// ([`Catalog::openstack`]) and the API ids in the fingerprints refer
    /// into it — so characterization can run once and ship its artifact to
    /// every analyzer instance (the paper: fingerprint generation "is an
    /// offline process … independent of the scale of the deployment").
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.fps).expect("fingerprints serialize")
    }

    /// Load fingerprints produced by [`FingerprintLibrary::to_json`]
    /// against a catalog. Fails on malformed JSON, non-dense operation
    /// ids, or API ids outside the catalog.
    pub fn from_json(catalog: Arc<Catalog>, json: &str) -> Result<FingerprintLibrary, String> {
        let fps: Vec<Fingerprint> =
            serde_json::from_str(json).map_err(|e| format!("bad fingerprint JSON: {e}"))?;
        for (i, fp) in fps.iter().enumerate() {
            if fp.op.index() != i {
                return Err(format!("fingerprint {i} has id {} (must be dense)", fp.op));
            }
            for atom in &fp.atoms {
                if atom.api.index() >= catalog.len() {
                    return Err(format!("fingerprint {i}: unknown API {}", atom.api));
                }
            }
        }
        Ok(Self::index(catalog, fps))
    }

    /// Serialize the fingerprints to the compact binary snapshot format
    /// the durable store persists (`u32 n | per fingerprint: u16 op,
    /// u32 n_atoms, per atom: u16 api, u8 starred`). Like
    /// [`FingerprintLibrary::to_json`] the catalog is not serialized;
    /// unlike JSON the encoding is byte-stable, so "library unchanged"
    /// is exactly "snapshot bytes equal" — which is what the hot-reload
    /// machinery compares.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_count(&mut out, self.fps.len());
        for fp in &self.fps {
            put_u16(&mut out, fp.op.0);
            put_count(&mut out, fp.atoms.len());
            for atom in &fp.atoms {
                put_u16(&mut out, atom.api.0);
                put_u8(&mut out, atom.starred as u8);
            }
        }
        out
    }

    /// Load a snapshot produced by [`FingerprintLibrary::to_snapshot`]
    /// against a catalog. Fails on truncated bytes, non-dense operation
    /// ids, API ids outside the catalog, or trailing garbage — the same
    /// contract as [`FingerprintLibrary::from_json`].
    pub fn from_snapshot(
        catalog: Arc<Catalog>,
        bytes: &[u8],
    ) -> Result<FingerprintLibrary, CheckpointError> {
        let mut r = Reader::new(bytes);
        let n = r.count(2 + 4)?;
        let mut fps = Vec::with_capacity(n);
        for i in 0..n {
            let op = OpSpecId(r.u16()?);
            if op.index() != i {
                return Err(DecodeError::Invalid("snapshot op ids must be dense").into());
            }
            let n_atoms = r.count(2 + 1)?;
            let mut atoms = Vec::with_capacity(n_atoms);
            for _ in 0..n_atoms {
                let api = ApiId(r.u16()?);
                if api.index() >= catalog.len() {
                    return Err(DecodeError::Invalid("snapshot API outside catalog").into());
                }
                let starred = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(DecodeError::Invalid("snapshot starred flag").into()),
                };
                atoms.push(Atom { api, starred });
            }
            fps.push(Fingerprint { op, atoms });
        }
        r.done()?;
        Ok(Self::index(catalog, fps))
    }
}

/// Raw event counts observed while characterizing one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CharacterizationStats {
    /// The operation.
    pub op: OpSpecId,
    /// REST messages captured across all characterization runs.
    pub rest_events: usize,
    /// RPC messages captured across all characterization runs.
    pub rpc_events: usize,
}

/// Extract the invocation trace (API id per request message, in order)
/// from an execution.
pub fn trace_of(exec: &Execution) -> Vec<ApiId> {
    exec.messages
        .iter()
        .filter(|m| m.direction == gretel_model::Direction::Request)
        .map(|m| m.api)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_model::{HttpMethod, Service, Workflows};

    fn setup() -> (Arc<Catalog>, Workflows, Deployment) {
        let cat = Catalog::openstack();
        let wf = Workflows::new(cat.clone());
        (cat.clone(), wf, Deployment::standard())
    }

    #[test]
    fn vm_create_fingerprint_matches_spec_and_stars_gets() {
        let (cat, wf, dep) = setup();
        let spec = wf.vm_create_spec(OpSpecId(0));
        let (lib, stats) =
            FingerprintLibrary::characterize(cat.clone(), std::slice::from_ref(&spec), &dep, 3, 7);
        let fp = lib.get(OpSpecId(0));
        // Noise filtered, all real steps survive (no repeated GETs in the
        // canonical flow).
        assert_eq!(fp.api_seq(), spec.api_seq());
        // GETs starred, POST/PUT/RPCs literal.
        for atom in &fp.atoms {
            assert_eq!(atom.starred, !cat.get(atom.api).is_state_change());
        }
        assert!(stats[0].rest_events > 0);
        assert!(stats[0].rpc_events > 0);
    }

    #[test]
    fn noise_never_survives_into_fingerprints() {
        let (cat, wf, dep) = setup();
        let specs = vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.image_upload_spec(OpSpecId(1)),
        ];
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 3, 9);
        for fp in lib.iter() {
            for atom in &fp.atoms {
                assert!(!cat.is_noise(atom.api));
            }
        }
    }

    #[test]
    fn truncation_keeps_prefix_through_last_occurrence() {
        let (cat, ..) = setup();
        let post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        let get = cat.rest_expect(Service::Neutron, HttpMethod::Get, "/v2.0/networks.json");
        let fp = Fingerprint {
            op: OpSpecId(0),
            atoms: vec![
                Atom {
                    api: get,
                    starred: true,
                },
                Atom {
                    api: post,
                    starred: false,
                },
                Atom {
                    api: get,
                    starred: true,
                },
                Atom {
                    api: post,
                    starred: false,
                },
                Atom {
                    api: get,
                    starred: true,
                },
            ],
        };
        let t = fp.truncate_at_last(post).unwrap();
        assert_eq!(t.len(), 4, "prefix through the LAST occurrence, inclusive");
        assert_eq!(t.atoms.last().unwrap().api, post);
        assert!(fp.truncate_at_last(ApiId(9999)).is_none());
    }

    #[test]
    fn literals_respect_rpc_pruning() {
        let (cat, wf, dep) = setup();
        let spec = wf.vm_create_spec(OpSpecId(0));
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &[spec], &dep, 2, 1);
        let fp = lib.get(OpSpecId(0));
        let with_rpc = fp.literals(&cat, false);
        let without = fp.literals(&cat, true);
        assert!(with_rpc.len() > without.len());
        assert!(without.iter().all(|&a| !cat.get(a).is_rpc()));
    }

    #[test]
    fn candidates_index_covers_every_atom() {
        let (cat, wf, dep) = setup();
        let specs = vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.cinder_list_spec(OpSpecId(1)),
        ];
        let (lib, _) = FingerprintLibrary::characterize(cat, &specs, &dep, 2, 3);
        for fp in lib.iter() {
            for atom in &fp.atoms {
                assert!(lib.candidates(atom.api).contains(&fp.op));
            }
        }
        assert!(lib.candidates(ApiId(9999)).is_empty());
    }

    /// A spec with repeated GETs so the noise filter has something to do.
    fn vm_snapshot_specish(wf: &Workflows) -> OperationSpec {
        OperationSpec {
            id: OpSpecId(0),
            name: "test.vm_snapshot_like".into(),
            category: gretel_model::Category::Compute,
            steps: {
                let mut steps = wf.vm_create();
                steps.extend(wf.vm_snapshot());
                steps
            },
        }
    }

    #[test]
    fn fingerprint_is_subsequence_of_every_filtered_trace() {
        let (cat, wf, dep) = setup();
        let spec = vm_snapshot_specish(&wf);
        let plan = FaultPlan::none();
        let mut traces = Vec::new();
        for r in 0..4 {
            let cfg = RunConfig {
                seed: r,
                start_window: 0,
                ..RunConfig::default()
            };
            let exec = Runner::new(cat.clone(), &dep, &plan, cfg).run(&[&spec]);
            traces.push(trace_of(&exec));
        }
        let fp = generate_fingerprint(&cat, OpSpecId(0), &traces);
        for t in &traces {
            let filtered = crate::noise_filter::filter_noise(&cat, t);
            assert!(
                crate::lcs::is_subsequence(&fp.api_seq(), &filtered),
                "fingerprint must embed in every filtered trace"
            );
        }
    }

    #[test]
    fn regex_string_has_stars_on_reads() {
        let (cat, wf, dep) = setup();
        let (lib, _) =
            FingerprintLibrary::characterize(cat, &[wf.vm_create_spec(OpSpecId(0))], &dep, 2, 5);
        let s = lib.get(OpSpecId(0)).regex_string();
        assert!(s.contains('*'));
        assert!(s.chars().count() > lib.get(OpSpecId(0)).len());
    }

    #[test]
    fn extend_characterize_adds_new_operations_incrementally() {
        let (cat, wf, dep) = setup();
        let initial = vec![wf.vm_create_spec(OpSpecId(0))];
        let (mut lib, _) = FingerprintLibrary::characterize(cat.clone(), &initial, &dep, 2, 3);
        assert_eq!(lib.len(), 1);

        // A new operation ships with the next OpenStack release.
        let new_spec = {
            let mut s = wf.image_upload_spec(OpSpecId(1));
            s.name = "image.upload.newly_added".into();
            s
        };
        let stats = lib.extend_characterize(std::slice::from_ref(&new_spec), &dep, 2, 9);
        assert_eq!(lib.len(), 2);
        assert_eq!(stats.len(), 1);
        // The new fingerprint is indexed: its APIs resolve candidates.
        let fp = lib.get(OpSpecId(1)).clone();
        assert!(!fp.is_empty());
        for atom in &fp.atoms {
            assert!(lib.candidates(atom.api).contains(&OpSpecId(1)));
        }
        // And the incremental result equals a from-scratch build.
        let both = vec![initial[0].clone(), new_spec];
        let (fresh, _) = FingerprintLibrary::characterize(cat, &both, &dep, 2, 9);
        assert_eq!(fresh.get(OpSpecId(1)).api_seq(), fp.api_seq());
    }

    #[test]
    #[should_panic(expected = "dense id space")]
    fn extend_rejects_id_gaps() {
        let (cat, wf, dep) = setup();
        let initial = vec![wf.vm_create_spec(OpSpecId(0))];
        let (mut lib, _) = FingerprintLibrary::characterize(cat, &initial, &dep, 1, 3);
        let bad = wf.cinder_list_spec(OpSpecId(5));
        lib.extend_characterize(&[bad], &dep, 1, 3);
    }

    #[test]
    fn library_round_trips_through_json() {
        let (cat, wf, dep) = setup();
        let specs = vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.cinder_list_spec(OpSpecId(1)),
        ];
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 2, 3);
        let json = lib.to_json();
        let restored = FingerprintLibrary::from_json(cat, &json).expect("round trip");
        assert_eq!(restored.len(), lib.len());
        assert_eq!(restored.fp_max(), lib.fp_max());
        for i in 0..lib.len() {
            let op = OpSpecId(i as u16);
            assert_eq!(restored.get(op), lib.get(op));
        }
    }

    #[test]
    fn from_json_rejects_garbage() {
        let (cat, ..) = setup();
        assert!(FingerprintLibrary::from_json(cat.clone(), "not json").is_err());
        // Non-dense ids.
        let fp = Fingerprint {
            op: OpSpecId(5),
            atoms: vec![],
        };
        let json = serde_json::to_string(&vec![fp]).unwrap();
        assert!(FingerprintLibrary::from_json(cat.clone(), &json)
            .unwrap_err()
            .contains("dense"));
        // Unknown API id.
        let fp = Fingerprint {
            op: OpSpecId(0),
            atoms: vec![Atom {
                api: ApiId(u16::MAX),
                starred: false,
            }],
        };
        let json = serde_json::to_string(&vec![fp]).unwrap();
        assert!(FingerprintLibrary::from_json(cat, &json)
            .unwrap_err()
            .contains("unknown API"));
    }

    #[test]
    fn fp_max_tracks_largest() {
        let (cat, wf, dep) = setup();
        let specs = vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.cinder_list_spec(OpSpecId(1)),
        ];
        let (lib, _) = FingerprintLibrary::characterize(cat, &specs, &dep, 2, 3);
        assert_eq!(lib.fp_max(), lib.iter().map(|f| f.len()).max().unwrap());
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn candidate_patterns_equal_fresh_derivation() {
        let (cat, wf, dep) = setup();
        let specs = vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.image_upload_spec(OpSpecId(1)),
            wf.cinder_list_spec(OpSpecId(2)),
        ];
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 2, 7);
        for api_idx in 0..cat.len() {
            let api = ApiId(api_idx as u16);
            for truncate in [true, false] {
                let cached = lib.candidate_patterns(api, truncate);
                // The seed derivation the cache replaces (the oracle).
                let mut fresh: Vec<(OpSpecId, Vec<ApiId>, Vec<ApiId>, Vec<ApiId>)> = Vec::new();
                for &op in lib.candidates(api) {
                    let fp = lib.get(op);
                    let truncs = if truncate {
                        fp.truncate_at_each(api)
                    } else {
                        vec![fp.clone()]
                    };
                    for t in truncs {
                        fresh.push((
                            op,
                            t.api_seq(),
                            t.literals(&cat, false),
                            t.literals(&cat, true),
                        ));
                    }
                }
                assert_eq!(cached.len(), fresh.len(), "api {api} truncate {truncate}");
                for (c, f) in cached.iter().zip(&fresh) {
                    assert_eq!(c.op, f.0);
                    assert_eq!(c.apis, &f.1[..]);
                    assert_eq!(c.lits_all, &f.2[..]);
                    assert_eq!(c.lits_pruned, &f.3[..]);
                }
            }
        }
    }

    #[test]
    fn suffix_sorted_literals_group_every_bounded_pattern() {
        let (cat, wf, dep) = setup();
        let specs = vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.image_upload_spec(OpSpecId(1)),
            wf.cinder_list_spec(OpSpecId(2)),
            OperationSpec {
                id: OpSpecId(3),
                ..vm_snapshot_specish(&wf)
            },
        ];
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 2, 7);
        for api in (0..cat.len() as u16).map(ApiId) {
            for (truncate, prune) in [(true, true), (true, false), (false, true), (false, false)] {
                let sorted: Vec<(OpSpecId, &[ApiId])> =
                    lib.suffix_sorted_literals(api, truncate, prune).collect();
                // The candidate patterns, reordered.
                let mut fresh: Vec<(OpSpecId, &[ApiId])> = lib
                    .candidate_patterns(api, truncate)
                    .iter()
                    .map(|p| (p.op, p.literals(prune)))
                    .collect();
                let mut again = sorted.clone();
                fresh.sort();
                again.sort();
                assert_eq!(again, fresh, "api {api} truncate {truncate} prune {prune}");
                // Under every bound up to eight literals, equal bounded
                // patterns are adjacent.
                for k in [1usize, 2, 3, 8] {
                    let bounded = |lits: &[ApiId]| lits[lits.len().saturating_sub(k)..].to_vec();
                    let mut runs: Vec<Vec<ApiId>> = Vec::new();
                    for (_, lits) in &sorted {
                        let b = bounded(lits);
                        if runs.last() != Some(&b) {
                            assert!(!runs.contains(&b), "api {api} k {k}: {b:?} split");
                            runs.push(b);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn centered_patterns_equal_fresh_derivation() {
        let (cat, wf, dep) = setup();
        let specs = vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.image_upload_spec(OpSpecId(1)),
        ];
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 2, 5);
        for op_i in 0..lib.len() {
            let op = OpSpecId(op_i as u16);
            let fp = lib.get(op).clone();
            let apis: std::collections::HashSet<ApiId> = fp.atoms.iter().map(|a| a.api).collect();
            for api in apis {
                for k in [1usize, 2, 4, 9, usize::MAX] {
                    let cached = lib.centered_patterns(op, api, k);
                    let fresh = fp.centered_literals(&cat, false, api, k);
                    assert_eq!(cached.len(), fresh.len());
                    for (c, f) in cached.iter().zip(&fresh) {
                        assert_eq!(*c, &f[..], "op {op} api {api} k {k}");
                    }
                }
            }
        }
        // An API absent from the fingerprint yields no patterns.
        assert!(lib
            .centered_patterns(OpSpecId(0), ApiId(9999), 4)
            .is_empty());
    }

    #[test]
    fn literal_seq_and_literals_iter_agree() {
        let (cat, wf, dep) = setup();
        let (lib, _) = FingerprintLibrary::characterize(
            cat.clone(),
            &[wf.vm_create_spec(OpSpecId(0))],
            &dep,
            2,
            3,
        );
        let fp = lib.get(OpSpecId(0));
        for prune in [false, true] {
            assert_eq!(
                lib.literal_seq(OpSpecId(0), prune),
                &fp.literals(&cat, prune)[..]
            );
            assert_eq!(
                fp.literals_iter(&cat, prune).collect::<Vec<_>>(),
                fp.literals(&cat, prune)
            );
        }
    }

    #[test]
    fn parallel_characterize_is_byte_identical() {
        let (cat, wf, dep) = setup();
        let specs = vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.image_upload_spec(OpSpecId(1)),
            wf.cinder_list_spec(OpSpecId(2)),
        ];
        let (seq, seq_stats) =
            FingerprintLibrary::characterize_on(1, cat.clone(), &specs, &dep, 2, 11);
        for threads in [2usize, 4, 8] {
            let (par, par_stats) =
                FingerprintLibrary::characterize_on(threads, cat.clone(), &specs, &dep, 2, 11);
            assert_eq!(par.to_json(), seq.to_json(), "threads={threads}");
            assert_eq!(par_stats, seq_stats);
            assert_eq!(par.fp_max(), seq.fp_max());
        }
    }

    #[test]
    fn pattern_cache_tracks_extend_characterize() {
        let (cat, wf, dep) = setup();
        let (mut lib, _) = FingerprintLibrary::characterize(
            cat.clone(),
            &[wf.vm_create_spec(OpSpecId(0))],
            &dep,
            2,
            3,
        );
        lib.extend_characterize(&[wf.image_upload_spec(OpSpecId(1))], &dep, 2, 9);
        let fp = lib.get(OpSpecId(1)).clone();
        let api = fp
            .atoms
            .iter()
            .find(|a| !a.starred)
            .map(|a| a.api)
            .expect("literal atom");
        let pats = lib.candidate_patterns(api, true);
        let hits: Vec<_> = pats.iter().filter(|p| p.op == OpSpecId(1)).collect();
        assert_eq!(hits.len(), fp.truncate_at_each(api).len());
        for p in &hits {
            assert!(fp.literals(&cat, true).starts_with(p.lits_pruned));
            assert!(fp.literals(&cat, false).starts_with(p.lits_all));
        }
    }
}
