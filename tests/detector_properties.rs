//! Property tests on the operation detector (Algorithm 2).

use gretel::core::{
    theta, DetectionOutcome, Detector, Event, FaultMark, FingerprintLibrary, GretelConfig,
    PositionIndex, SnapshotIndex,
};
use gretel::model::{
    ApiId, Catalog, Category, Direction, MessageId, NodeId, OpSpecId, TempestSuite,
};
use gretel::sim::Deployment;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// The test library, characterized once per test binary.
fn workbench() -> &'static (Arc<Catalog>, FingerprintLibrary, Vec<ApiId>) {
    static WORKBENCH: OnceLock<(Arc<Catalog>, FingerprintLibrary, Vec<ApiId>)> = OnceLock::new();
    WORKBENCH.get_or_init(|| {
        let catalog = Catalog::openstack();
        let counts: Vec<(Category, usize)> = Category::ALL.iter().map(|&c| (c, 10)).collect();
        let suite = TempestSuite::generate_with_counts(catalog.clone(), 3, &counts);
        let deployment = Deployment::standard();
        let (library, _) =
            FingerprintLibrary::characterize(catalog.clone(), suite.specs(), &deployment, 2, 5);
        let pool = suite.pools(Category::Compute).rest.clone();
        (catalog, library, pool)
    })
}

fn event(catalog: &Catalog, i: usize, api: ApiId) -> Event {
    let def = catalog.get(api);
    Event {
        id: MessageId(i as u64),
        ts: i as u64 * 10,
        api,
        direction: Direction::Request,
        is_rpc: def.is_rpc(),
        state_change: def.is_state_change(),
        noise_api: def.noise.is_some(),
        src_node: NodeId(0),
        dst_node: NodeId(1),
        corr: None,
        fault: FaultMark::None,
        gap_before: 0,
    }
}

fn build_events(
    catalog: &Catalog,
    apis: &[ApiId],
    fault_pos: usize,
    offending: ApiId,
) -> Vec<Event> {
    let mut events: Vec<Event> = apis
        .iter()
        .enumerate()
        .map(|(i, &api)| event(catalog, i, api))
        .collect();
    events[fault_pos] = Event {
        fault: FaultMark::RestError(500),
        noise_api: false,
        ..event(catalog, fault_pos, offending)
    };
    events
}

/// The per-pattern scored search the grouped one replaced, written against
/// the public API: every candidate pattern walked on its own from one
/// anchor, exact first, then with the miss budget.
fn per_pattern_scored(
    library: &FingerprintLibrary,
    cfg: &GretelConfig,
    events: &[Event],
    fault_index: usize,
    offending: ApiId,
) -> DetectionOutcome {
    let sidx = SnapshotIndex::new(events);
    let buffer = sidx.apis();
    let index = PositionIndex::new(buffer);
    let center = events[..fault_index]
        .iter()
        .filter(|e| !e.noise_api)
        .count();
    let upper = (center + 1).min(buffer.len());
    let miss_budget = sidx.lost_before(center + 1) as usize;
    let (h0, delta) = ((cfg.beta0() / 2).max(1), cfg.delta());
    let mut hits: Vec<(usize, usize, OpSpecId, usize)> = Vec::new();
    for p in library.candidate_patterns(offending, cfg.truncate) {
        let lits = p.literals(cfg.prune_rpcs);
        let pattern = match cfg.max_literals {
            Some(k) if lits.len() > k => &lits[lits.len() - k..],
            _ => lits,
        };
        if pattern.is_empty() {
            continue;
        }
        let hit = index
            .min_anchored_half(pattern, center, upper)
            .map(|h| (h, 0))
            .or_else(|| {
                let budget = miss_budget.min(pattern.len() - 1);
                (miss_budget > 0)
                    .then(|| index.min_anchored_half_with_misses(pattern, center, upper, budget))
                    .flatten()
            });
        if let Some((h, misses)) = hit {
            hits.push((h, pattern.len() - misses, p.op, misses));
        }
    }
    let long: Vec<_> = hits
        .iter()
        .filter(|h| h.1 >= cfg.min_pattern)
        .copied()
        .collect();
    let (mut selected, beta_used): (Vec<(OpSpecId, usize)>, usize) =
        match long.iter().map(|h| h.0).min() {
            Some(h_min) => {
                let k_first = h_min.saturating_sub(h0).div_ceil(delta.max(1));
                let h_stop = (h0 + (k_first + cfg.grace_steps) * delta).min(center.max(h0));
                let eligible: Vec<_> = long.into_iter().filter(|h| h.0 <= h_stop).collect();
                let max_len = eligible.iter().map(|h| h.1).max().unwrap_or(0);
                let slack = cfg.scored_slack.unwrap_or(0);
                let kept = eligible.into_iter().filter(|h| h.1 + slack >= max_len);
                (
                    kept.map(|h| (h.2, h.3)).collect(),
                    (2 * h_stop + 1).min(buffer.len()),
                )
            }
            None => (hits.iter().map(|h| (h.2, h.3)).collect(), buffer.len()),
        };
    selected.sort();
    let mut matched: Vec<OpSpecId> = Vec::new();
    let mut misses = 0;
    for (op, m) in selected {
        if matched.last() != Some(&op) {
            matched.push(op);
            misses = misses.max(m);
        }
    }
    DetectionOutcome {
        theta: theta(matched.len(), library.len()),
        beta_used,
        candidates: library.candidates(offending).len(),
        matched,
        misses,
    }
}

prop_compose! {
    /// Every policy switch the scored search reads, plus the two that route
    /// a fault around it (correlation ids, the presence policy).
    fn configs()(
        truncate in any::<bool>(),
        prune_rpcs in any::<bool>(),
        max_literals in prop_oneof![Just(None), Just(Some(1usize)), Just(Some(8usize))],
        min_pattern in 1usize..9,
        grace_steps in 0usize..6,
        scored_slack in prop_oneof![4 => (0usize..4).prop_map(Some), 1 => Just(None)],
        use_correlation_ids in any::<bool>(),
        c1 in 0.02f64..0.2,
        c2 in 0.01f64..0.1,
    ) -> GretelConfig {
        GretelConfig {
            alpha: 1024,
            c1,
            c2,
            truncate,
            prune_rpcs,
            max_literals,
            min_pattern,
            grace_steps,
            scored_slack,
            use_correlation_ids,
            ..GretelConfig::default()
        }
    }
}

prop_compose! {
    /// A position in the window and a second value drawn with it.
    fn at(values: usize)(pos in 0usize..600, value in 0..values) -> (usize, usize) {
        (pos, value)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matched_operations_always_contain_the_offending_api(
        picks in proptest::collection::vec(0usize..195, 32..256),
        fault_pick in 0usize..195,
        fault_pos_frac in 0.1f64..0.9,
    ) {
        let (catalog, library, pool) = workbench();
        let apis: Vec<ApiId> = picks.into_iter().map(|i| pool[i % pool.len()]).collect();
        let offending = pool[fault_pick % pool.len()];
        let fault_pos = ((apis.len() - 1) as f64 * fault_pos_frac) as usize;
        let events = build_events(catalog, &apis, fault_pos, offending);

        let cfg = GretelConfig { alpha: events.len().max(2), ..GretelConfig::default() };
        let detector = Detector::new(library, cfg);
        let out = detector.detect_operational(&events, fault_pos, offending);

        // Every matched operation must be a candidate (contain the API).
        for op in &out.matched {
            prop_assert!(
                library.get(*op).contains(offending),
                "{op} matched without containing the offending API"
            );
        }
        // Matched is deduplicated and bounded by the candidate count.
        let mut dedup = out.matched.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), out.matched.len());
        prop_assert!(out.matched.len() <= out.candidates);
        // θ is consistent with the matched count.
        prop_assert!(
            (out.theta - gretel::core::theta(out.matched.len(), library.len())).abs() < 1e-12
        );
    }

    #[test]
    fn detection_is_deterministic(
        picks in proptest::collection::vec(0usize..195, 32..128),
        fault_pick in 0usize..195,
    ) {
        let (catalog, library, pool) = workbench();
        let apis: Vec<ApiId> = picks.into_iter().map(|i| pool[i % pool.len()]).collect();
        let offending = pool[fault_pick % pool.len()];
        let fault_pos = apis.len() / 2;
        let events = build_events(catalog, &apis, fault_pos, offending);
        let cfg = GretelConfig { alpha: events.len().max(2), ..GretelConfig::default() };
        let detector = Detector::new(library, cfg);
        let a = detector.detect_operational(&events, fault_pos, offending);
        let b = detector.detect_operational(&events, fault_pos, offending);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn future_events_do_not_change_operational_detection(
        picks in proptest::collection::vec(0usize..195, 32..128),
        future in proptest::collection::vec(0usize..195, 0..64),
        fault_pick in 0usize..195,
    ) {
        // Operational faults abort their operation, so the default policy
        // anchors at the fault: appending arbitrary future traffic must
        // not change the matched set.
        let (catalog, library, pool) = workbench();
        let apis: Vec<ApiId> = picks.into_iter().map(|i| pool[i % pool.len()]).collect();
        let offending = pool[fault_pick % pool.len()];
        let fault_pos = apis.len() - 1;
        let base = build_events(catalog, &apis, fault_pos, offending);

        let mut extended_apis = apis.clone();
        extended_apis.extend(future.into_iter().map(|i| pool[i % pool.len()]));
        let extended = build_events(catalog, &extended_apis, fault_pos, offending);

        let cfg = GretelConfig { alpha: extended.len().max(2), ..GretelConfig::default() };
        let detector = Detector::new(library, cfg);
        let a = detector.detect_operational(&base, fault_pos, offending);
        let b = detector.detect_operational(&extended, fault_pos, offending);
        prop_assert_eq!(a.matched, b.matched);
    }

    #[test]
    fn one_search_per_api_equals_one_search_per_fault(
        picks in proptest::collection::vec(0usize..195, 64..600),
        faults in proptest::collection::vec(at(4), 2..12),
        offending_picks in proptest::collection::vec(0usize..195, 4),
        mixed in any::<bool>(),
        gaps in proptest::collection::vec(at(3), 0..4),
        corr_groups in 0u64..4,
        cfg in configs(),
    ) {
        // A window carrying several faults of one API (or of a few): the
        // grouped call per API must equal a one-anchor call per fault,
        // and — where the shared scored search applies — the per-pattern
        // search it replaced.
        let (catalog, library, pool) = workbench();
        let apis: Vec<ApiId> = picks.iter().map(|&i| pool[i % pool.len()]).collect();
        let mut events: Vec<Event> =
            apis.iter().enumerate().map(|(i, &api)| event(catalog, i, api)).collect();
        let n = events.len();
        let mut anchors: BTreeMap<usize, ApiId> = BTreeMap::new();
        for &(pos, which) in &faults {
            let api = pool[offending_picks[if mixed { which } else { 0 }] % pool.len()];
            anchors.insert(pos % n, api);
        }
        for (&pos, &api) in &anchors {
            events[pos] = Event { fault: FaultMark::RestError(500), ..event(catalog, pos, api) };
        }
        for &(pos, lost) in &gaps {
            events[pos % n].gap_before = lost as u32 + 1; // funds degraded matching
        }
        if corr_groups > 0 {
            // Every other message carries an id: faults with one take the
            // per-fault corr path inside the same group call.
            for (i, e) in events.iter_mut().enumerate().filter(|(i, _)| i % 2 == 0) {
                e.corr = Some(i as u64 / 16 % corr_groups);
            }
        }

        let detector = Detector::new(library, cfg);
        let sidx = SnapshotIndex::new(&events);
        let mut by_api: BTreeMap<ApiId, Vec<usize>> = BTreeMap::new();
        for (&pos, &api) in &anchors {
            by_api.entry(api).or_default().push(pos);
        }
        for (&api, group) in &by_api {
            let grouped = detector.detect_operational_group(&events, &sidx, api, group);
            prop_assert_eq!(grouped.len(), group.len());
            for (outcome, &pos) in grouped.iter().zip(group) {
                let single = detector.detect_operational_indexed(&events, &sidx, pos, api);
                prop_assert_eq!(outcome, &single, "fault at {} on {}", pos, api);
                let shared = cfg.scored_slack.is_some()
                    && !(cfg.use_correlation_ids && events[pos].corr.is_some());
                if shared {
                    let reference = per_pattern_scored(library, &cfg, &events, pos, api);
                    prop_assert_eq!(outcome, &reference, "fault at {} on {}", pos, api);
                }
            }
        }
    }
}
