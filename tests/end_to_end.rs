//! Cross-crate integration: the full offline → online pipeline.

use gretel::model::OpInstanceId;
use gretel::prelude::*;

fn small_suite(catalog: &std::sync::Arc<Catalog>, per_category: usize) -> TempestSuite {
    let counts: Vec<(Category, usize)> = Category::ALL.iter().map(|&c| (c, per_category)).collect();
    TempestSuite::generate_with_counts(catalog.clone(), 2, &counts)
}

#[test]
fn characterize_then_diagnose_injected_fault() {
    let catalog = Catalog::openstack();
    let deployment = Deployment::standard();
    let suite = small_suite(&catalog, 8);
    let (library, _) =
        FingerprintLibrary::characterize(catalog.clone(), suite.specs(), &deployment, 2, 11);
    assert_eq!(library.len(), suite.len());

    // Fault: a state-change REST step of the first Compute spec.
    let victim = suite
        .specs()
        .iter()
        .find(|s| s.category == Category::Compute)
        .expect("compute spec");
    let (api, occurrence) = victim
        .steps
        .iter()
        .enumerate()
        .find_map(|(i, st)| {
            let def = catalog.get(st.api);
            (!def.is_rpc() && def.is_state_change()).then(|| {
                let occ = victim.steps[..i].iter().filter(|s| s.api == st.api).count() as u32;
                (st.api, occ)
            })
        })
        .expect("state-change REST step");

    let victim_index = suite
        .specs()
        .iter()
        .position(|s| s.id == victim.id)
        .expect("victim in suite");
    let plan = FaultPlan::none().with_api_fault(ApiFault {
        api,
        scope: FaultScope::Instance(OpInstanceId(victim_index as u64)),
        occurrence,
        error: InjectedError::RestStatus {
            status: 500,
            reason: None,
        },
        abort_op: true,
    });

    let refs: Vec<&OperationSpec> = suite.specs().iter().collect();
    let exec = Runner::new(catalog.clone(), &deployment, &plan, RunConfig::default()).run(&refs);

    // The faulty instance aborted; everything else completed.
    assert!(exec.outcomes[victim_index].aborted);
    assert_eq!(exec.outcomes.iter().filter(|o| o.aborted).count(), 1);

    let telemetry = TelemetryStore::from_execution(&exec);
    let cfg = GretelConfig::default();
    let mut analyzer = Analyzer::new(&library, cfg).with_rca(RcaContext {
        deployment: &deployment,
        telemetry: &telemetry,
        specs: suite.specs(),
    });
    let diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());

    let diag = diagnoses
        .iter()
        .find(|d| {
            d.api == api
                && matches!(
                    d.kind,
                    FaultKind::Operational {
                        status: Some(500),
                        ..
                    }
                )
        })
        .expect("diagnosis for the injected fault");
    assert!(
        diag.matched.contains(&victim.id),
        "failed operation identified: matched {:?}, wanted {}",
        diag.matched,
        victim.id
    );
    // θ is workload-dependent: a fault on an API that opens many operations
    // truncates every candidate to a short shared prefix and legitimately
    // widens the match set. Instead of a hard-coded band, derive a sound
    // bound from this run's own workload: a candidate can only be reported
    // if its fingerprint contains the faulty API and the prefix before that
    // API's first occurrence embeds in the (noise-filtered) merged trace —
    // a superset of whatever window the analyzer actually matched against.
    // θ(n, N) is decreasing in n, so θ at that upper bound is a floor.
    let trace = gretel::core::trace_of(&exec);
    let filtered = gretel::core::noise_filter::filter_noise(&catalog, &trace);
    let candidate_bound = suite
        .specs()
        .iter()
        .filter(|s| {
            let seq = library.get(s.id).api_seq();
            seq.iter()
                .position(|&a| a == api)
                .is_some_and(|cut| gretel::core::lcs::is_subsequence(&seq[..cut], &filtered))
        })
        .count();
    assert!(
        candidate_bound >= 1,
        "the victim itself must be a candidate"
    );
    let floor = gretel::core::theta(candidate_bound, library.len());
    assert!(
        diag.theta >= floor,
        "theta {} below workload floor {} ({} candidate(s) of {})",
        diag.theta,
        floor,
        candidate_bound,
        library.len()
    );
    assert!(
        diag.theta > 0.0,
        "fault must be narrowed at all: theta {}",
        diag.theta
    );
}

#[test]
fn clean_concurrent_run_produces_no_operational_diagnoses() {
    let catalog = Catalog::openstack();
    let deployment = Deployment::standard();
    let suite = small_suite(&catalog, 4);
    let (library, _) =
        FingerprintLibrary::characterize(catalog.clone(), suite.specs(), &deployment, 2, 3);
    let refs: Vec<&OperationSpec> = suite.specs().iter().collect();
    let exec = Runner::new(
        catalog.clone(),
        &deployment,
        &FaultPlan::none(),
        RunConfig::default(),
    )
    .run(&refs);
    let mut analyzer = Analyzer::new(&library, GretelConfig::default());
    let diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());
    assert!(
        diagnoses
            .iter()
            .all(|d| !matches!(d.kind, FaultKind::Operational { .. })),
        "no operational faults in a clean run: {diagnoses:?}"
    );
}

#[test]
fn fingerprints_embed_in_their_own_execution_traces() {
    // Fundamental soundness: each learned fingerprint is a subsequence of
    // the noise-filtered trace of a fresh execution of its operation.
    let catalog = Catalog::openstack();
    let deployment = Deployment::standard();
    let suite = small_suite(&catalog, 3);
    let (library, _) =
        FingerprintLibrary::characterize(catalog.clone(), suite.specs(), &deployment, 2, 9);
    for spec in suite.specs().iter().take(10) {
        let exec = Runner::new(
            catalog.clone(),
            &deployment,
            &FaultPlan::none(),
            RunConfig {
                seed: 999,
                start_window: 0,
                ..RunConfig::default()
            },
        )
        .run(&[spec]);
        let trace = gretel::core::trace_of(&exec);
        let filtered = gretel::core::noise_filter::filter_noise(&catalog, &trace);
        let fp = library.get(spec.id);
        assert!(
            gretel::core::lcs::is_subsequence(&fp.api_seq(), &filtered),
            "{}: fingerprint must embed in a fresh run",
            spec.name
        );
    }
}

#[test]
fn threaded_service_agrees_with_inline_analysis_on_suite_traffic() {
    let catalog = Catalog::openstack();
    let deployment = Deployment::standard();
    let suite = small_suite(&catalog, 3);
    let (library, _) =
        FingerprintLibrary::characterize(catalog.clone(), suite.specs(), &deployment, 2, 13);

    // A couple of faults to make the comparison interesting.
    let api = suite.specs()[0]
        .steps
        .iter()
        .find(|s| {
            let d = catalog.get(s.api);
            !d.is_rpc() && d.is_state_change()
        })
        .map(|s| s.api)
        .expect("state-change step");
    let plan = FaultPlan::none().with_api_fault(ApiFault {
        api,
        scope: FaultScope::Instance(OpInstanceId(0)),
        occurrence: 0,
        error: InjectedError::RestStatus {
            status: 503,
            reason: None,
        },
        abort_op: true,
    });
    let refs: Vec<&OperationSpec> = suite.specs().iter().collect();
    let exec = Runner::new(catalog.clone(), &deployment, &plan, RunConfig::default()).run(&refs);

    let cfg = GretelConfig::default();
    let mut inline = Analyzer::new(&library, cfg);
    let expected = analyze_stream(&mut inline, exec.messages.iter());

    let nodes: Vec<_> = deployment.nodes().iter().map(|n| n.id).collect();
    let mut threaded = Analyzer::new(&library, cfg);
    let scfg = gretel::core::ServiceConfig::default();
    let (got, _, _) = gretel::core::run_service_cfg(&mut threaded, &nodes, &exec.messages, &scfg);
    assert_eq!(got, expected);
}

#[test]
fn modest_monitoring_clock_skew_does_not_break_detection() {
    use gretel::model::OpInstanceId;
    // The paper mandates NTP on all nodes; this quantifies why: detection
    // survives millisecond-scale monitoring-clock skew (which reorders
    // interleaved messages from different nodes) because fingerprint
    // matching only needs per-operation order, and an operation's
    // consecutive steps are separated by more than the skew.
    let catalog = Catalog::openstack();
    let deployment = Deployment::standard();
    let suite = small_suite(&catalog, 6);
    let (library, _) =
        FingerprintLibrary::characterize(catalog.clone(), suite.specs(), &deployment, 2, 21);

    let victim = suite
        .specs()
        .iter()
        .find(|s| s.category == Category::Compute)
        .unwrap();
    let victim_index = suite
        .specs()
        .iter()
        .position(|s| s.id == victim.id)
        .unwrap();
    let (api, occ) = victim
        .steps
        .iter()
        .enumerate()
        .find_map(|(i, st)| {
            let def = catalog.get(st.api);
            (!def.is_rpc() && def.is_state_change()).then(|| {
                (
                    st.api,
                    victim.steps[..i].iter().filter(|s| s.api == st.api).count() as u32,
                )
            })
        })
        .unwrap();
    let plan = FaultPlan::none().with_api_fault(ApiFault {
        api,
        scope: FaultScope::Instance(OpInstanceId(victim_index as u64)),
        occurrence: occ,
        error: InjectedError::RestStatus {
            status: 500,
            reason: None,
        },
        abort_op: true,
    });
    let refs: Vec<&OperationSpec> = suite.specs().iter().collect();
    let exec = Runner::new(catalog, &deployment, &plan, RunConfig::default()).run(&refs);

    // 2 ms of per-node monitoring clock skew.
    let skewed = gretel::netcap::skew_clocks(&exec.messages, 2_000, 5);
    let mut analyzer = Analyzer::new(&library, GretelConfig::default());
    let diagnoses = analyze_stream(&mut analyzer, skewed.iter());
    let d = diagnoses
        .iter()
        .find(|d| d.api == api && matches!(d.kind, FaultKind::Operational { .. }))
        .expect("fault still diagnosed under skew");
    assert!(d.matched.contains(&victim.id), "matched {:?}", d.matched);
}
