//! Crash-recovery invariants (DESIGN.md §11).
//!
//! The fault-tolerant service must be *transparent*: whatever the
//! analysis plane suffers — killed workers, whole-service kills with
//! checkpoint/replay restarts, store records corrupted or torn between
//! two lifetimes — the committed diagnosis stream is byte-identical to the
//! uninterrupted run's, with zero diagnoses lost and zero duplicated.
//! Every crash is the one kill arm: a driver loop re-invokes
//! `run_service_durable` over the same store, a `MemStore` value or a
//! reopened `FileStore` directory alike. Cancellation is the one visible
//! degradation, and it must be honest: a cancelled job's faults surface as
//! `Cancelled`, never as `Exact` — and, since the stall coin is seeded,
//! identically across replays.

use gretel::core::store::{records, FileStore, FileStoreConfig, MemStore, Store};
use gretel::core::{
    run_service_cfg, run_service_durable, Analyzer, AnalyzerChaos, AnalyzerStats,
    CaptureConfidence, Diagnosis, DurableConfig, DurableOutcome, GretelConfig, LibraryReload,
    RecoveryConfig, RecoveryStats, ServiceConfig, ServiceStats, KIND_CHECKPOINT, KIND_DIAGNOSES,
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
        let specs = vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.image_upload_spec(OpSpecId(1)),
        ];
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 2, 21);
        let ports_post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        let put_file = cat.rest_expect(Service::Glance, HttpMethod::Put, "/v2/images/{id}/file");
        let plan = FaultPlan::none()
            .with_api_fault(ApiFault {
                api: ports_post,
                scope: FaultScope::AllInstances,
                occurrence: 0,
                error: InjectedError::RestStatus {
                    status: 500,
                    reason: None,
                },
                abort_op: true,
            })
            .with_api_fault(ApiFault {
                api: put_file,
                scope: FaultScope::AllInstances,
                occurrence: 0,
                error: InjectedError::RestStatus {
                    status: 503,
                    reason: None,
                },
                abort_op: true,
            });
        // Several hundred messages: enough stream for multiple checkpoint
        // intervals and mid-stream crash points.
        let refs: Vec<&OperationSpec> = specs.iter().cycle().take(24).collect();
        let exec = Runner::new(
            cat,
            &dep,
            &plan,
            RunConfig {
                seed: 6,
                ..Default::default()
            },
        )
        .run(&refs);
        let nodes = dep.nodes().iter().map(|n| n.id).collect();
        Fixture {
            lib,
            nodes,
            messages: exec.messages,
        }
    })
}

fn gcfg() -> GretelConfig {
    GretelConfig {
        alpha: 48,
        ..GretelConfig::default()
    }
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

/// One process lifetime of the durable service over `store`.
fn lifetime(
    recovery: &RecoveryConfig,
    kill_point: Option<u64>,
    store: &mut dyn Store,
) -> DurableOutcome {
    let fx = fixture();
    let cfg = DurableConfig {
        recovery: recovery.clone(),
        kill_point,
        reloads: Vec::new(),
    };
    run_service_durable(&fx.lib, gcfg(), &fx.nodes, &fx.messages, &cfg, store)
        .expect("a lifetime completes or is killed")
}

/// The kill driver over one `MemStore`: a lifetime per entry of `kills`,
/// then one with no kill point. A kill point past the end of a lifetime's
/// remaining stream lets it complete, which ends the run early. The
/// recovery counters are summed over the lifetimes.
fn run_recoverable(
    recovery: RecoveryConfig,
    kills: &[u64],
) -> (Vec<Diagnosis>, ServiceStats, AnalyzerStats, RecoveryStats) {
    let mut store = MemStore::new();
    let mut total = RecoveryStats::default();
    for kill in kills.iter().copied().map(Some).chain([None]) {
        match lifetime(&recovery, kill, &mut store) {
            DurableOutcome::Killed { recovery, .. } => total.merge(&recovery),
            DurableOutcome::Completed {
                diagnoses,
                service,
                analyzer,
                recovery,
                ..
            } => {
                total.merge(&recovery);
                return (diagnoses, service, analyzer, total);
            }
        }
    }
    unreachable!("the last lifetime has no kill point")
}

#[test]
fn no_chaos_recoverable_equals_plain_pipeline() {
    let expected = reference(None);
    assert!(expected.len() >= 2, "fixture produces diagnoses");

    let cfg = RecoveryConfig {
        checkpoint_every: 64,
        ..RecoveryConfig::default()
    };
    let (diags, _, astats, rec) = run_recoverable(cfg, &[]);
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
    // completes; on top of that the service itself is killed twice and
    // replays from its checkpoints.
    let cfg = RecoveryConfig {
        checkpoint_every: 64,
        chaos: AnalyzerChaos {
            kill_prob: 1.0,
            kill_attempts: 2,
            seed: 17,
            ..AnalyzerChaos::none()
        },
        max_attempts: 5,
        ..RecoveryConfig::default()
    };
    let (diags, svc, _, rec) = run_recoverable(cfg, &[150, 80]);

    assert_eq!(diags, expected, "zero diagnoses lost, zero duplicated");
    assert!(rec.worker_crashes > 0, "kill chaos fired: {rec:?}");
    assert_eq!(
        rec.jobs_requeued, rec.worker_crashes,
        "every crashed job was requeued"
    );
    assert_eq!(rec.restores, 2, "one restore per kill");
    assert!(
        rec.replayed_frames > 0,
        "replay re-shipped the consumed prefix"
    );
    assert_eq!(rec.jobs_cancelled, 0, "retry budget outlives the kill coin");
    // Replay inflates transport stats (documented) but never the analysis.
    assert!(svc.frames > 0);
}

#[test]
fn stalled_jobs_are_cancelled_never_exact() {
    let expected = reference(None);

    let cfg = RecoveryConfig {
        checkpoint_every: 64,
        chaos: AnalyzerChaos {
            stall_prob: 1.0,
            seed: 23,
            ..AnalyzerChaos::none()
        },
        ..RecoveryConfig::default()
    };
    let (diags, _, _, rec) = run_recoverable(cfg, &[]);

    assert!(rec.jobs_cancelled > 0, "stall chaos fired: {rec:?}");
    // Honesty: every fault still surfaces, each marked Cancelled — a
    // cancelled job must never report Exact (or Degraded) since
    // no matching evidence backs it.
    assert_eq!(diags.len(), expected.len(), "no fault silently swallowed");
    for d in &diags {
        assert_eq!(d.confidence, CaptureConfidence::Cancelled, "{d:?}");
        assert!(d.matched.is_empty() && d.root_causes.is_empty());
    }
}

#[test]
fn stall_cancellations_replay_identically_across_crashes() {
    // A cancellation read from the clock could fire before a kill and not
    // on replay, breaking the byte-identical recovery oracle. The stall
    // coin is a pure function of `(seed, job, attempt)`, so a run that
    // cancels some jobs and analyzes the rest must commit the *same*
    // stream whether or not the service was killed and replayed in the
    // middle.

    let run = |kills: &[u64]| {
        let cfg = RecoveryConfig {
            checkpoint_every: 64,
            chaos: AnalyzerChaos {
                stall_prob: 0.5,
                seed: 29,
                ..AnalyzerChaos::none()
            },
            ..RecoveryConfig::default()
        };
        run_recoverable(cfg, kills)
    };

    let (diags_plain, _, astats, rec_plain) = run(&[]);
    let (diags_crashed, _, _, rec_crashed) = run(&[150, 80]);

    assert!(
        0 < rec_plain.jobs_cancelled && rec_plain.jobs_cancelled < astats.snapshots,
        "a half-rate stall cancels some jobs, not all: {rec_plain:?} of {astats:?}"
    );
    assert_eq!(rec_crashed.restores, 2, "one restore per kill");
    assert_eq!(rec_crashed.jobs_cancelled, rec_plain.jobs_cancelled);
    assert_eq!(
        diags_crashed, diags_plain,
        "cancellations must be a pure function of the jobs, not of crash timing"
    );
    let cancelled = diags_plain
        .iter()
        .filter(|d| d.confidence == CaptureConfidence::Cancelled)
        .count();
    assert!(0 < cancelled && cancelled < diags_plain.len());
}

#[test]
fn corrupt_checkpoints_fall_back_and_suppress_duplicate_releases() {
    let expected = reference(None);
    let recovery = RecoveryConfig {
        checkpoint_every: 64,
        ..RecoveryConfig::default()
    };

    // A lifetime killed past three boundaries; then, before the restart,
    // every checkpoint record on the store is corrupted, so the restore
    // finds no valid one and replays from scratch. Already-released
    // diagnoses are regenerated — the watermark must suppress them.
    let mut store = MemStore::new();
    assert!(matches!(
        lifetime(&recovery, Some(200), &mut store),
        DurableOutcome::Killed { .. }
    ));
    let checkpoints: Vec<usize> = records(store.bytes())
        .enumerate()
        .filter_map(|(i, r)| (r.kind == KIND_CHECKPOINT).then_some(i))
        .collect();
    assert_eq!(checkpoints.len(), 3);
    for (n, &i) in checkpoints.iter().enumerate() {
        assert!(store.corrupt_record(i, 31 + n * 7919));
    }
    assert!(store.latest_valid(KIND_CHECKPOINT).is_none());

    let DurableOutcome::Completed {
        diagnoses,
        recovery: rec,
        ..
    } = lifetime(&recovery, None, &mut store)
    else {
        panic!("no kill point configured")
    };
    assert_eq!(
        diagnoses, expected,
        "cold replay still neither loses nor duplicates"
    );
    assert_eq!(rec.restores, 0, "no usable checkpoint: a cold start");
    assert_eq!(rec.replayed_frames, 0, "nothing restored, nothing to dedup");
    assert!(
        rec.duplicate_releases_suppressed > 0,
        "the watermark held: {rec:?}"
    );
}

/// A fresh per-test scratch directory for a `FileStore`.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gretel-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// One complete durable run over `store`, panicking on a kill.
fn run_durable_to_completion(
    lib: &gretel_core::FingerprintLibrary,
    reloads: Vec<LibraryReload>,
    store: &mut dyn Store,
) -> (Vec<gretel::core::Diagnosis>, RecoveryStats) {
    let fx = fixture();
    let cfg = DurableConfig {
        recovery: RecoveryConfig {
            checkpoint_every: 64,
            ..RecoveryConfig::default()
        },
        kill_point: None,
        reloads,
    };
    match run_service_durable(lib, gcfg(), &fx.nodes, &fx.messages, &cfg, store)
        .expect("durable run completes")
    {
        DurableOutcome::Completed {
            diagnoses,
            recovery,
            ..
        } => (diagnoses, recovery),
        DurableOutcome::Killed { .. } => panic!("no kill point configured"),
    }
}

#[test]
fn durable_filestore_kill_restart_is_exactly_once() {
    // Whole-process SIGKILL model: each lifetime reopens the same on-disk
    // store. Two kills mid-stream, then a clean third lifetime — the final
    // diagnosis stream must be byte-identical to the uninterrupted
    // pipeline's. The same schedule runs over a `MemStore` in lockstep as
    // the backend-equivalence oracle: identical log bytes after every
    // lifetime, identical outcome.
    let expected = reference(None);
    let dir = scratch("durable-kill");
    let recovery = RecoveryConfig {
        checkpoint_every: 64,
        ..RecoveryConfig::default()
    };
    let mut mem = MemStore::new();

    for kill in [Some(150u64), Some(80), None] {
        let mut file = FileStore::open(&dir, FileStoreConfig::default()).expect("open store");
        let on_file = lifetime(&recovery, kill, &mut file);
        let on_mem = lifetime(&recovery, kill, &mut mem);
        assert_eq!(
            file.bytes(),
            mem.bytes(),
            "log bytes diverged at kill {kill:?}"
        );
        assert_eq!(
            std::fs::read(FileStore::log_path(&dir)).unwrap(),
            mem.bytes(),
            "the file holds exactly the log"
        );
        match (kill, on_file, on_mem) {
            (Some(_), DurableOutcome::Killed { .. }, DurableOutcome::Killed { .. }) => {}
            (
                None,
                DurableOutcome::Completed {
                    diagnoses,
                    recovery: rec,
                    ..
                },
                DurableOutcome::Completed {
                    diagnoses: mem_diagnoses,
                    recovery: mem_rec,
                    ..
                },
            ) => {
                assert_eq!(diagnoses, expected, "zero diagnoses lost, zero duplicated");
                assert_eq!(diagnoses, mem_diagnoses);
                assert_eq!(rec, mem_rec);
                assert_eq!(rec.restores, 1);
                assert!(
                    rec.replayed_frames > 0,
                    "the restart replayed the prefix: {rec:?}"
                );
            }
            (kill, a, b) => panic!("kill {kill:?} ended as {a:?} / {b:?}"),
        }
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        1,
        "one log file, nothing else"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_between_release_and_checkpoint_survives_every_torn_tail() {
    // A boundary appends the released diagnoses, then the checkpoint that
    // makes them unrepeatable. Die between the two and the release record
    // is the log's tail, covered by no checkpoint; a crash mid-write then
    // tears that tail anywhere. Whatever survives, the process that reopens
    // the file commits the uninterrupted run's stream.
    let expected = reference(None);
    let recovery = RecoveryConfig {
        checkpoint_every: 64,
        ..RecoveryConfig::default()
    };
    let mut killed = MemStore::new();
    assert!(matches!(
        lifetime(&recovery, Some(200), &mut killed),
        DurableOutcome::Killed { .. }
    ));
    let log = killed.bytes();
    let release = records(log)
        .filter(|r| r.kind == KIND_DIAGNOSES && r.payload.len() > 16)
        .last()
        .expect("a boundary before the kill released diagnoses");
    assert_eq!(
        records(&log[release.end()..]).next().map(|r| r.kind),
        Some(KIND_CHECKPOINT)
    );

    let dir = scratch("torn-release");
    std::fs::create_dir_all(&dir).unwrap();
    let mut suppressed = 0;
    for cut in release.offset..=release.end() {
        std::fs::write(FileStore::log_path(&dir), &log[..cut]).unwrap();
        let mut store = FileStore::open(&dir, FileStoreConfig::default()).expect("open torn log");
        let torn = if cut < release.end() {
            cut - release.offset
        } else {
            0
        };
        assert_eq!(store.truncated_on_open(), torn);
        let DurableOutcome::Completed {
            diagnoses,
            recovery: rec,
            ..
        } = lifetime(&recovery, None, &mut store)
        else {
            panic!("no kill point configured")
        };
        assert_eq!(diagnoses, expected, "tail cut at {cut}");
        suppressed = rec.duplicate_releases_suppressed;
    }
    // The last cut kept the whole release record: its diagnoses were
    // regenerated from the older checkpoint and suppressed, not re-released.
    assert!(suppressed > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_library_delta_reload_is_byte_identical() {
    // Hot-reload oracle: adopting a snapshot with no new operations must
    // leave the committed stream byte-identical to never reloading.
    let fx = fixture();
    let (no_reload, _) = run_durable_to_completion(&fx.lib, Vec::new(), &mut MemStore::new());
    assert_eq!(
        no_reload,
        reference(None),
        "durable == plain pipeline with no failures"
    );

    let reloads = vec![LibraryReload {
        at_merged: 100,
        snapshot: fx.lib.to_snapshot(),
    }];
    let (with_reload, rec) = run_durable_to_completion(&fx.lib, reloads, &mut MemStore::new());
    assert_eq!(rec.library_reloads, 1, "the reload fired: {rec:?}");
    assert!(
        rec.restores >= 1,
        "a reload re-enters from its boundary checkpoint"
    );
    assert_eq!(
        with_reload, no_reload,
        "an empty delta must be invisible in the output"
    );
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
    let reloads = vec![LibraryReload {
        at_merged: 1,
        snapshot: fx.lib.to_snapshot(),
    }];
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
    /// kills and worker kills, checkpoint/replay is transparent: the
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
        };
        let kills = CrashSchedule::seeded(seed, crashes, 300).points;
        let (diags, _, _, rec) = run_recoverable(cfg, &kills);
        prop_assert_eq!(diags, expected);
        prop_assert_eq!(rec.jobs_cancelled, 0);
    }
}
