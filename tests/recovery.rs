//! Crash-recovery invariants (DESIGN.md §11).
//!
//! The fault-tolerant service must be *transparent*: whatever the
//! analysis plane suffers — killed workers, service crashes with
//! checkpoint/replay restarts, corrupted checkpoint records — the
//! committed diagnosis stream is byte-identical to the uninterrupted
//! run's, with zero diagnoses lost and zero duplicated. Budget
//! cancellation is the one visible degradation, and it must be honest:
//! a cancelled job's faults surface as `Cancelled`, never as `Exact` —
//! and, since budgets are deterministic, identically across replays.

use gretel::core::store::{FileStore, FileStoreConfig, MemStore, Store};
use gretel::core::{
    run_service_cfg, run_service_durable, Analyzer, AnalyzerChaos, AnalyzerStats,
    CaptureConfidence, Diagnosis, DurableConfig, DurableOutcome, GretelConfig, JobBudget,
    LibraryReload, RecoveryConfig, RecoveryStats, ServiceConfig, ServiceError, ServiceStats,
};
use gretel::model::{
    Catalog, HttpMethod, Message, NodeId, OpSpecId, OperationSpec, Service, Workflows,
};
use gretel::netcap::CaptureImpairment;
use gretel::sim::{
    ApiFault, CrashSchedule, Deployment, FaultPlan, FaultScope, InjectedError, RunConfig, Runner,
};
use gretel_core::FingerprintLibrary;
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

struct Fixture {
    lib: FingerprintLibrary,
    nodes: Vec<NodeId>,
    messages: Vec<Message>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let cat = Catalog::openstack();
        let dep = Deployment::standard();
        let wf = Workflows::new(cat.clone());
        let specs = vec![wf.vm_create_spec(OpSpecId(0)), wf.image_upload_spec(OpSpecId(1))];
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 2, 21);
        let ports_post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        let put_file = cat.rest_expect(Service::Glance, HttpMethod::Put, "/v2/images/{id}/file");
        let plan = FaultPlan::none()
            .with_api_fault(ApiFault {
                api: ports_post,
                scope: FaultScope::AllInstances,
                occurrence: 0,
                error: InjectedError::RestStatus { status: 500, reason: None },
                abort_op: true,
            })
            .with_api_fault(ApiFault {
                api: put_file,
                scope: FaultScope::AllInstances,
                occurrence: 0,
                error: InjectedError::RestStatus { status: 503, reason: None },
                abort_op: true,
            });
        // Several hundred messages: enough stream for multiple checkpoint
        // intervals and mid-stream crash points.
        let refs: Vec<&OperationSpec> = specs.iter().cycle().take(24).collect();
        let exec = Runner::new(cat, &dep, &plan, RunConfig { seed: 6, ..Default::default() })
            .run(&refs);
        let nodes = dep.nodes().iter().map(|n| n.id).collect();
        Fixture { lib, nodes, messages: exec.messages }
    })
}

fn gcfg() -> GretelConfig {
    GretelConfig { alpha: 48, ..GretelConfig::default() }
}

/// The plain (non-recoverable) pipeline's output for a given impairment —
/// the oracle every recovery run is compared against.
fn reference(impairment: Option<CaptureImpairment>) -> Vec<gretel::core::Diagnosis> {
    let fx = fixture();
    let cfg = ServiceConfig {
        impairment: Some(impairment.unwrap_or_else(CaptureImpairment::none)),
        ..ServiceConfig::default()
    };
    let mut analyzer = Analyzer::new(&fx.lib, gcfg());
    let (diags, _, _) = run_service_cfg(&mut analyzer, &fx.nodes, &fx.messages, &cfg);
    diags
}

/// The in-process recoverable service: `run_service_durable` over a fresh
/// `MemStore`, run to completion.
fn run_recoverable(
    recovery: RecoveryConfig,
) -> Result<(Vec<Diagnosis>, ServiceStats, AnalyzerStats, RecoveryStats), ServiceError> {
    let fx = fixture();
    let cfg = DurableConfig { recovery, ..DurableConfig::default() };
    let mut store = MemStore::new();
    match run_service_durable(&fx.lib, gcfg(), &fx.nodes, &fx.messages, &cfg, &mut store)? {
        DurableOutcome::Completed { diagnoses, service, analyzer, recovery, .. } => {
            Ok((diagnoses, service, analyzer, recovery))
        }
        DurableOutcome::Killed { .. } => panic!("no kill point configured"),
    }
}

#[test]
fn no_chaos_recoverable_equals_plain_pipeline() {
    let expected = reference(None);
    assert!(expected.len() >= 2, "fixture produces diagnoses");

    let cfg = RecoveryConfig { checkpoint_every: 64, ..RecoveryConfig::default() };
    let (diags, _, astats, rec) = run_recoverable(cfg).expect("clean run completes");
    assert_eq!(diags, expected);
    assert!(rec.checkpoints_written > 0);
    assert_eq!(rec.worker_crashes, 0);
    assert_eq!(rec.restores, 0);
    assert_eq!(rec.duplicate_releases_suppressed, 0);
    assert!(astats.messages > 0);
}

#[test]
fn worker_kills_and_service_crashes_preserve_the_output_exactly() {
    let expected = reference(None);

    // Every job crashes its worker twice (attempts 0 and 1) and then
    // completes; on top of that the service itself crashes twice and
    // replays from its checkpoints.
    let cfg = RecoveryConfig {
        checkpoint_every: 64,
        chaos: AnalyzerChaos { kill_prob: 1.0, kill_attempts: 2, seed: 17, ..AnalyzerChaos::none() },
        max_attempts: 5,
        crash_points: CrashSchedule::at(vec![150, 80]).points,
        ..RecoveryConfig::default()
    };
    let (diags, svc, _, rec) = run_recoverable(cfg).expect("chaotic run completes");

    assert_eq!(diags, expected, "zero diagnoses lost, zero duplicated");
    assert!(rec.worker_crashes > 0, "kill chaos fired: {rec:?}");
    assert_eq!(rec.jobs_requeued, rec.worker_crashes, "every crashed job was requeued");
    assert_eq!(rec.restores, 2, "one restore per scheduled crash");
    assert!(rec.replayed_frames > 0, "replay re-shipped the consumed prefix");
    assert_eq!(rec.jobs_cancelled, 0, "retry budget outlives the kill coin");
    // Replay inflates transport stats (documented) but never the analysis.
    assert!(svc.frames > 0);
}

#[test]
fn stalled_jobs_are_cancelled_never_exact() {
    let expected = reference(None);

    let cfg = RecoveryConfig {
        checkpoint_every: 64,
        budget: JobBudget::Passes(1 << 20),
        chaos: AnalyzerChaos { stall_prob: 1.0, seed: 23, ..AnalyzerChaos::none() },
        ..RecoveryConfig::default()
    };
    let (diags, _, _, rec) = run_recoverable(cfg).expect("stalled run completes");

    assert!(rec.jobs_cancelled > 0, "stall chaos fired: {rec:?}");
    // Honesty: every fault still surfaces, each marked Cancelled — a
    // budget-cancelled job must never report Exact (or Degraded) since
    // no matching evidence backs it.
    assert_eq!(diags.len(), expected.len(), "no fault silently swallowed");
    for d in &diags {
        assert_eq!(d.confidence, CaptureConfidence::Cancelled, "{d:?}");
        assert!(d.matched.is_empty() && d.root_causes.is_empty());
    }
}

#[test]
fn budget_cancellations_replay_identically_across_crashes() {
    // Regression: the per-job bound used to be a wall-clock deadline read
    // from `Instant::now()`, so a replayed run could cancel a different
    // set of jobs than the original — breaking the byte-identical
    // recovery oracle. A pass budget is a pure function of the job, so a
    // run that cancels everything must commit the *same* stream whether
    // or not the service crashed and replayed in the middle.

    let run = |crash_points: Vec<u64>| {
        let cfg = RecoveryConfig {
            checkpoint_every: 64,
            budget: JobBudget::Passes(0),
            crash_points,
            ..RecoveryConfig::default()
        };
        run_recoverable(cfg).expect("budget-starved run completes")
    };

    let (diags_plain, _, _, rec_plain) = run(Vec::new());
    let (diags_crashed, _, _, rec_crashed) = run(vec![150, 80]);

    assert!(rec_plain.jobs_cancelled > 0, "zero-pass budget cancels: {rec_plain:?}");
    assert!(rec_crashed.jobs_cancelled > 0);
    assert_eq!(rec_crashed.restores, 2, "one restore per scheduled crash");
    assert_eq!(
        diags_crashed, diags_plain,
        "cancellations must be a pure function of the jobs, not of crash timing"
    );
    assert!(diags_plain.iter().all(|d| d.confidence == CaptureConfidence::Cancelled));
}

#[test]
fn wall_clock_budgets_are_rejected_by_the_recoverable_service() {
    let cfg = RecoveryConfig {
        budget: JobBudget::WallClock(Duration::from_secs(5)),
        ..RecoveryConfig::default()
    };
    let err =
        run_recoverable(cfg).expect_err("wall-clock budgets cannot be replayed identically");
    assert!(matches!(err, ServiceError::NondeterministicBudget), "{err}");
}

#[test]
fn corrupt_checkpoints_fall_back_and_suppress_duplicate_releases() {
    let expected = reference(None);

    // Every checkpoint record is corrupted, so the post-crash restore
    // finds no valid record and replays from scratch. Already-released
    // diagnoses are regenerated — the watermark must suppress them.
    let cfg = RecoveryConfig {
        checkpoint_every: 64,
        chaos: AnalyzerChaos { corrupt_prob: 1.0, seed: 31, ..AnalyzerChaos::none() },
        crash_points: vec![200],
        ..RecoveryConfig::default()
    };
    let (diags, _, _, rec) = run_recoverable(cfg).expect("corrupted-journal run completes");

    assert_eq!(diags, expected, "cold replay still neither loses nor duplicates");
    assert!(rec.checkpoints_corrupt > 0, "corruption chaos fired: {rec:?}");
    assert_eq!(rec.checkpoints_corrupt, rec.checkpoints_written);
    assert_eq!(rec.restores, 1);
}

/// One complete durable run over `store`, panicking on a kill.
fn run_durable_to_completion(
    lib: &gretel_core::FingerprintLibrary,
    reloads: Vec<LibraryReload>,
    store: &mut dyn Store,
) -> (Vec<gretel::core::Diagnosis>, RecoveryStats) {
    let fx = fixture();
    let cfg = DurableConfig {
        recovery: RecoveryConfig { checkpoint_every: 64, ..RecoveryConfig::default() },
        kill_point: None,
        reloads,
    };
    match run_service_durable(lib, gcfg(), &fx.nodes, &fx.messages, &cfg, store)
        .expect("durable run completes")
    {
        DurableOutcome::Completed { diagnoses, recovery, .. } => (diagnoses, recovery),
        DurableOutcome::Killed { .. } => panic!("no kill point configured"),
    }
}

#[test]
fn durable_filestore_kill_restart_is_exactly_once() {
    // Whole-process SIGKILL model: each invocation is one process
    // lifetime over the same on-disk store. Two kills mid-stream, then a
    // clean third lifetime — the final diagnosis stream must be
    // byte-identical to the uninterrupted pipeline's.
    let fx = fixture();
    let expected = reference(None);
    let dir = std::env::temp_dir()
        .join(format!("gretel-test-durable-kill-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let kill_points = [150u64, 80];
    // Small segments so the restarts also read back through sealed files.
    let fcfg = FileStoreConfig { rotate_bytes: 4096, ..Default::default() };
    let mut invocations = 0usize;
    let last_recovery;
    let diags = loop {
        let mut store = FileStore::open(&dir, fcfg).expect("open durable store");
        let cfg = DurableConfig {
            recovery: RecoveryConfig { checkpoint_every: 64, ..RecoveryConfig::default() },
            kill_point: kill_points.get(invocations).copied(),
            reloads: Vec::new(),
        };
        let out = run_service_durable(&fx.lib, gcfg(), &fx.nodes, &fx.messages, &cfg, &mut store)
            .expect("durable run completes or is killed");
        invocations += 1;
        assert!(invocations <= kill_points.len() + 1, "kill schedule must converge");
        match out {
            DurableOutcome::Completed { diagnoses, recovery, .. } => {
                last_recovery = recovery;
                break diagnoses;
            }
            DurableOutcome::Killed { .. } => {} // next loop iteration restarts
        }
    };
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(invocations, 3, "both kills fired before completion");
    assert_eq!(diags, expected, "zero diagnoses lost, zero duplicated");
    assert!(
        last_recovery.replayed_frames > 0,
        "the restarted process replayed the consumed prefix: {last_recovery:?}"
    );
}

#[test]
fn empty_library_delta_reload_is_byte_identical() {
    // Hot-reload oracle: adopting a snapshot with no new operations must
    // leave the committed stream byte-identical to never reloading.
    let fx = fixture();
    let (no_reload, _) = run_durable_to_completion(&fx.lib, Vec::new(), &mut MemStore::new());
    assert_eq!(no_reload, reference(None), "durable == plain pipeline with no failures");

    let reloads = vec![LibraryReload { at_merged: 100, snapshot: fx.lib.to_snapshot() }];
    let (with_reload, rec) =
        run_durable_to_completion(&fx.lib, reloads, &mut MemStore::new());
    assert_eq!(rec.library_reloads, 1, "the reload fired: {rec:?}");
    assert!(rec.restores >= 1, "a reload re-enters from its boundary checkpoint");
    assert_eq!(with_reload, no_reload, "an empty delta must be invisible in the output");
}

#[test]
fn mid_run_library_addition_is_matched_at_next_freeze() {
    use gretel::model::OpSpecId;
    let fx = fixture();

    // A base library that has never seen image_upload (OpSpecId(1)).
    let cat = Catalog::openstack();
    let dep = Deployment::standard();
    let wf = Workflows::new(cat.clone());
    let base_specs = vec![wf.vm_create_spec(OpSpecId(0))];
    let (base_lib, _) =
        gretel_core::FingerprintLibrary::characterize(cat, &base_specs, &dep, 2, 21);

    let (full_diags, _) = run_durable_to_completion(&fx.lib, Vec::new(), &mut MemStore::new());
    let (control, _) = run_durable_to_completion(&base_lib, Vec::new(), &mut MemStore::new());
    let reloads = vec![LibraryReload { at_merged: 1, snapshot: fx.lib.to_snapshot() }];
    let (reloaded, rec) = run_durable_to_completion(&base_lib, reloads, &mut MemStore::new());

    assert_eq!(rec.library_reloads, 1, "the reload fired: {rec:?}");
    // Without the reload the matcher cannot name image_upload at all.
    assert!(control.iter().all(|d| !d.matched.contains(&OpSpecId(1))));
    // With it, the image-upload faults match the hot-loaded fingerprint
    // at their snapshot freeze — and the whole stream equals a run that
    // had the full library from the start: the in-flight window survived
    // the swap.
    assert!(
        reloaded.iter().any(|d| d.matched.contains(&OpSpecId(1))),
        "hot-loaded fingerprint must match: {reloaded:?}"
    );
    assert_eq!(reloaded, full_diags);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For ANY capture impairment composed with ANY schedule of service
    /// crashes and worker kills, checkpoint/replay is transparent: the
    /// committed diagnoses equal the uninterrupted impaired run's.
    #[test]
    fn recovery_is_transparent_under_capture_impairment(
        drop_prob in prop_oneof![Just(0.0), 0.0..0.2f64],
        dup_prob in 0.0..0.15f64,
        reorder_prob in 0.0..0.2f64,
        seed in any::<u64>(),
        crashes in 1usize..3,
        kill in any::<bool>(),
    ) {
        let imp = CaptureImpairment {
            drop_prob, dup_prob, reorder_prob, reorder_span: 3, stall: None, seed,
        };
        let expected = reference(Some(imp));

        let chaos = if kill {
            AnalyzerChaos { kill_prob: 0.5, kill_attempts: 2, seed, ..AnalyzerChaos::none() }
        } else {
            AnalyzerChaos::none()
        };
        let cfg = RecoveryConfig {
            service: ServiceConfig { impairment: Some(imp), ..ServiceConfig::default() },
            checkpoint_every: 48,
            chaos,
            max_attempts: 5,
            crash_points: CrashSchedule::seeded(seed, crashes, 300).points,
            ..RecoveryConfig::default()
        };
        let (diags, _, _, rec) = run_recoverable(cfg).expect("impaired chaotic run completes");
        prop_assert_eq!(diags, expected);
        prop_assert_eq!(rec.jobs_cancelled, 0);
    }
}
