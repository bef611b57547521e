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

use gretel::core::checkpoint::{decode_release, open_boundary};
use gretel::core::store::{records, FileStore, FileStoreConfig, MemStore, Store, RECORD_HEADER};
use gretel::core::{
    run_service_cfg, run_service_durable, Analyzer, AnalyzerChaos, AnalyzerStats,
    CaptureConfidence, Diagnosis, DurableConfig, DurableOutcome, GretelConfig, RecoveryConfig,
    RecoveryStats, ServiceConfig, ServiceStats, KIND_CHECKPOINT, KIND_DELTA, KIND_DIAGNOSES,
};
use gretel::model::codec::Reader;
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
        impairment,
        ..ServiceConfig::default()
    };
    let mut analyzer = Analyzer::new(&fx.lib, gcfg());
    let (diags, _, _) = run_service_cfg(&mut analyzer, &fx.nodes, &fx.messages, &cfg);
    diags
}

/// One process lifetime of the durable service over `store`.
fn try_lifetime(
    recovery: &RecoveryConfig,
    kill_point: Option<u64>,
    store: &mut dyn Store,
) -> Result<DurableOutcome, String> {
    let fx = fixture();
    let cfg = DurableConfig {
        recovery: recovery.clone(),
        kill_point,
    };
    run_service_durable(&fx.lib, gcfg(), &fx.nodes, &fx.messages, &cfg, store)
        .map_err(|e| e.to_string())
}

fn lifetime(
    recovery: &RecoveryConfig,
    kill_point: Option<u64>,
    store: &mut dyn Store,
) -> DurableOutcome {
    try_lifetime(recovery, kill_point, store).expect("a lifetime completes or is killed")
}

/// `rec` without [`RecoveryStats::syncs`]: the counters a run's input
/// decides. How many syncs a lifetime's appends share depends on the
/// disk's pace.
fn exact(rec: RecoveryStats) -> RecoveryStats {
    RecoveryStats { syncs: 0, ..rec }
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
    let mut store = MemStore::new();
    let DurableOutcome::Completed {
        diagnoses,
        analyzer: astats,
        recovery: rec,
        ..
    } = lifetime(&cfg, None, &mut store)
    else {
        panic!("no kill point configured")
    };
    assert_eq!(
        diagnoses, expected,
        "durable == plain pipeline with no failures"
    );
    assert!(rec.checkpoints_written > 0);
    assert_eq!(rec.worker_crashes, 0);
    assert_eq!(rec.restores, 0);
    assert_eq!(rec.duplicate_releases_suppressed, 0);
    assert!(astats.messages > 0);
    // The log holds what a restart reads and nothing else.
    let kinds: std::collections::BTreeSet<u8> = records(store.bytes()).map(|r| r.kind).collect();
    assert_eq!(kinds, [KIND_CHECKPOINT, KIND_DIAGNOSES, KIND_DELTA].into());
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
            seed: 17,
            ..AnalyzerChaos::none()
        },
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
fn corrupt_boundaries_fall_back_to_a_cold_start_that_loses_nothing() {
    let expected = reference(None);
    let recovery = RecoveryConfig {
        checkpoint_every: 64,
        ..RecoveryConfig::default()
    };

    // A lifetime killed past three boundaries; then, before the restart,
    // every boundary record on the store (base or delta) is corrupted, so
    // no job released before the kill has a valid copy and the restore
    // finds no base to stand on: it replays from scratch, and releases
    // every job again.
    let mut store = MemStore::new();
    assert!(matches!(
        lifetime(&recovery, Some(200), &mut store),
        DurableOutcome::Killed { .. }
    ));
    let n = records(store.bytes()).count();
    assert_eq!(n, 3);
    for i in 0..n {
        assert!(store.corrupt_record(i, 31 + i * 7919));
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
    assert_eq!(
        rec.duplicate_releases_suppressed, 0,
        "no released job kept a copy: {rec:?}"
    );
}

/// A restart over the log of a completed run stands at its last boundary
/// and regenerates the jobs after it, every one of which the end-of-stream
/// release holds already: each is suppressed, and the output stays the
/// run's.
#[test]
fn rerunning_a_completed_log_suppresses_every_end_of_stream_job() {
    let expected = reference(None);
    let recovery = RecoveryConfig {
        checkpoint_every: 64,
        ..RecoveryConfig::default()
    };
    let mut store = MemStore::new();
    assert!(matches!(
        lifetime(&recovery, None, &mut store),
        DurableOutcome::Completed { .. }
    ));
    let last = records(store.bytes()).last().expect("a record");
    assert_eq!(last.kind, KIND_DIAGNOSES);
    let (_, tail_jobs) = decode_release(last.payload).expect("a release");
    assert!(!tail_jobs.is_empty(), "the end of stream released jobs");
    let before = store.len();

    let DurableOutcome::Completed {
        diagnoses,
        recovery: rec,
        ..
    } = lifetime(&recovery, None, &mut store)
    else {
        panic!("no kill point configured")
    };
    assert_eq!(diagnoses, expected, "the rerun's output is the run's");
    assert_eq!(rec.restores, 1);
    assert_eq!(
        rec.duplicate_releases_suppressed,
        tail_jobs.len() as u64,
        "every end-of-stream job suppressed"
    );
    // The rerun wrote no boundary (the tail is shorter than an interval)
    // and one empty release.
    assert_eq!(rec.checkpoints_written, 0);
    assert_eq!(store.len(), before + 1);
    let rerun = records(store.bytes()).last().expect("a record");
    assert_eq!(decode_release(rerun.payload).expect("a release").1, vec![]);
}

/// A fresh per-test scratch directory for a `FileStore`.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gretel-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
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
                assert_eq!(exact(rec), exact(mem_rec));
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
fn every_cut_of_the_newest_boundary_record_restores_exactly() {
    // A boundary appends one record that holds both the diagnoses it
    // releases and the state that makes them unrepeatable. A crash
    // mid-write tears that record anywhere; whatever survives, the process
    // that reopens the file commits the uninterrupted run's stream. A torn
    // record is cut on open, so its jobs have no copy and the restore
    // stands at the boundary before it and releases them again. Open cuts
    // every tear inside the record back to the same log, so the cuts are
    // each byte of its header and of its payload's first 32 bytes (tag,
    // next job seq, job count), its middle, and its last two.
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
    let newest = records(log).last().expect("a boundary before the kill");
    let opened = open_boundary(newest.kind, newest.payload).expect("a boundary record");
    assert!(!opened.jobs.is_empty(), "the newest boundary released jobs");

    let dir = scratch("torn-boundary");
    std::fs::create_dir_all(&dir).unwrap();
    let (start, end) = (newest.offset, newest.end());
    let header_and_release = start..start + RECORD_HEADER + 32;
    for cut in header_and_release.chain([(start + end) / 2, end - 1, end]) {
        std::fs::write(FileStore::log_path(&dir), &log[..cut]).unwrap();
        let mut store = FileStore::open(&dir, FileStoreConfig::default()).expect("open torn log");
        let torn = if cut < newest.end() {
            cut - newest.offset
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
        assert_eq!(rec.restores, 1, "tail cut at {cut}");
        assert_eq!(rec.duplicate_releases_suppressed, 0, "tail cut at {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One way to damage a record of a killed log before the restart.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Flip one payload byte: the record stays in the log and fails its
    /// checksum.
    Flip,
    /// Zero the whole record, header included, in place.
    Zero,
    /// Cut the log at the record's end: every later record is gone.
    CutAtEnd,
    /// Cut the log mid-record: it is a torn tail.
    CutMid,
}

/// `log` with its record `index` damaged.
fn damaged(log: &[u8], index: usize, damage: Damage) -> Vec<u8> {
    let r = records(log).nth(index).expect("the record");
    match damage {
        Damage::Flip => corrupted(log, index),
        Damage::Zero => {
            let mut image = log.to_vec();
            image[r.offset..r.end()].fill(0);
            image
        }
        Damage::CutAtEnd => log[..r.end()].to_vec(),
        Damage::CutMid => log[..(r.offset + r.end()) / 2].to_vec(),
    }
}

/// The damage sweep at `checkpoint_every`: lifetimes killed at 100, 200
/// and 300 merged messages, then every record of each killed log damaged
/// in turn, each [`Damage`] at a time, and the image restarted on a
/// `MemStore` and on a reopened `FileStore`. Every restart must commit the
/// uninterrupted run's stream: a damaged record costs the replay of its
/// interval and of every later one, and loses nothing.
fn damage_sweep(checkpoint_every: u64) {
    let expected = reference(None);
    let recovery = RecoveryConfig {
        checkpoint_every,
        ..RecoveryConfig::default()
    };
    let dir = scratch(&format!("damage-sweep-{checkpoint_every}"));
    std::fs::create_dir_all(&dir).unwrap();
    let mut images = 0;
    let mut failures = Vec::new();
    for kill in [100, 200, 300] {
        let mut killed = MemStore::new();
        assert!(matches!(
            lifetime(&recovery, Some(kill), &mut killed),
            DurableOutcome::Killed { .. }
        ));
        let log = killed.bytes();
        for index in 0..records(log).count() {
            for damage in [Damage::Flip, Damage::Zero, Damage::CutAtEnd, Damage::CutMid] {
                let image = damaged(log, index, damage);
                std::fs::write(FileStore::log_path(&dir), &image).unwrap();
                let mut file = FileStore::open(&dir, FileStoreConfig::default()).expect("open");
                let mut mem = MemStore::from_bytes(image);
                let backends: [(&str, &mut dyn Store); 2] =
                    [("MemStore", &mut mem), ("FileStore", &mut file)];
                for (backend, store) in backends {
                    images += 1;
                    let failure = match try_lifetime(&recovery, None, store) {
                        Ok(DurableOutcome::Completed { diagnoses, .. })
                            if diagnoses == expected =>
                        {
                            continue;
                        }
                        Ok(DurableOutcome::Completed { diagnoses, .. }) => format!(
                            "{} diagnoses, not the run's {}",
                            diagnoses.len(),
                            expected.len()
                        ),
                        other => format!("{other:?}"),
                    };
                    failures.push(format!(
                        "kill {kill}, record {index}, {damage:?}, {backend}: {failure}"
                    ));
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(images >= 64, "{images} images");
    assert!(
        failures.is_empty(),
        "{} of {images} images failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn every_damaged_record_restores_exactly_at_checkpoint_every_16() {
    damage_sweep(16);
}

#[test]
fn every_damaged_record_restores_exactly_at_checkpoint_every_64() {
    damage_sweep(64);
}

/// Checkpoint interval of the chain arms: short enough that several deltas
/// follow each base.
const CHAIN_EVERY: u64 = 16;

/// Record index and kind of every record of a killed `log` — bases and
/// deltas — oldest first.
fn boundaries(log: &[u8]) -> Vec<(usize, u8)> {
    records(log).map(|r| r.kind).enumerate().collect()
}

/// Position, within [`boundaries`], of the newest base.
fn newest_base(bounds: &[(usize, u8)]) -> usize {
    bounds
        .iter()
        .rposition(|&(_, kind)| kind == KIND_CHECKPOINT)
        .expect("the log holds a base")
}

/// A delta's continuity key: the `u64` after its 4-byte format tag.
fn delta_from(payload: &[u8]) -> u64 {
    Reader::new(&payload[4..]).u64().expect("a delta's key")
}

/// `log` with one payload byte of record `index` flipped.
fn corrupted(log: &[u8], index: usize) -> Vec<u8> {
    let mut store = MemStore::from_bytes(log.to_vec());
    assert!(store.corrupt_record(index, 17));
    store.bytes().to_vec()
}

/// A chain-recovery run on both backends in lockstep, with
/// `checkpoint_every` [`CHAIN_EVERY`]: one lifetime per kill point, then
/// one without, over a `MemStore` and a reopened `FileStore` directory.
/// After the `i`-th kill, `damage(i, log)` gives the log the next lifetime
/// opens, on both backends. Every lifetime must leave the two logs
/// byte-equal. Returns the committed diagnoses and the summed counters.
fn chain_run(
    tag: &str,
    kills: &[u64],
    damage: impl Fn(usize, &[u8]) -> Vec<u8>,
) -> (Vec<Diagnosis>, RecoveryStats) {
    let recovery = RecoveryConfig {
        checkpoint_every: CHAIN_EVERY,
        ..RecoveryConfig::default()
    };
    let dir = scratch(tag);
    let mut mem = MemStore::new();
    let mut total = RecoveryStats::default();
    for (i, kill) in kills.iter().copied().map(Some).chain([None]).enumerate() {
        let mut file = FileStore::open(&dir, FileStoreConfig::default()).expect("open store");
        let on_file = lifetime(&recovery, kill, &mut file);
        let on_mem = lifetime(&recovery, kill, &mut mem);
        assert_eq!(file.bytes(), mem.bytes(), "{tag}: lifetime {i}");
        drop(file);
        match (on_file, on_mem) {
            (
                DurableOutcome::Killed { recovery: rec, .. },
                DurableOutcome::Killed {
                    recovery: mem_rec, ..
                },
            ) if kill.is_some() => {
                assert_eq!(exact(rec), exact(mem_rec), "{tag}: lifetime {i}");
                total.merge(&rec);
                let log = damage(i, mem.bytes());
                std::fs::write(FileStore::log_path(&dir), &log).unwrap();
                mem = MemStore::from_bytes(log);
            }
            (
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
            ) if kill.is_none() => {
                assert_eq!(diagnoses, mem_diagnoses, "{tag}");
                assert_eq!(exact(rec), exact(mem_rec), "{tag}");
                total.merge(&rec);
                std::fs::remove_dir_all(&dir).ok();
                return (diagnoses, total);
            }
            (a, b) => panic!("{tag}: kill {kill:?} ended as {a:?} / {b:?}"),
        }
    }
    unreachable!("the last lifetime has no kill point")
}

#[test]
fn a_kill_mid_chain_restores_the_base_and_its_deltas() {
    let expected = reference(None);
    let (diagnoses, rec) = chain_run("mid-chain", &[150], |_, log| {
        let bounds = boundaries(log);
        assert!(
            bounds.len() - newest_base(&bounds) > 2,
            "the kill struck two deltas past the base: {bounds:?}"
        );
        log.to_vec()
    });
    assert_eq!(diagnoses, expected, "zero lost, zero duplicated");
    assert_eq!(rec.restores, 1);
    assert_eq!(rec.duplicate_releases_suppressed, 0, "nothing fell back");
}

#[test]
fn a_delta_torn_in_half_is_cut_and_its_interval_replayed() {
    let expected = reference(None);
    let (diagnoses, rec) = chain_run("torn-delta", &[150], |_, log| {
        let last = records(log).last().expect("a record");
        assert_eq!(last.kind, KIND_DELTA, "the kill left a delta newest");
        log[..(last.offset + last.end()) / 2].to_vec()
    });
    assert_eq!(diagnoses, expected, "zero lost, zero duplicated");
    assert_eq!(rec.restores, 1);
}

#[test]
fn a_corrupt_middle_delta_rewritten_by_a_later_lifetime_chains_again() {
    let expected = reference(None);
    // The first kill leaves a base and at least two deltas; the one
    // before the newest is corrupted, so the second lifetime restores short
    // of it and writes its interval again. The third lifetime's restore
    // must walk past the corrupt delta (and the stale one after it) to the
    // re-written ones.
    let corrupt_from = std::cell::Cell::new(None);
    let (diagnoses, rec) = chain_run("corrupt-delta", &[150, 120], |i, log| {
        let bounds = boundaries(log);
        let base = newest_base(&bounds);
        let deltas = &bounds[base + 1..];
        let records: Vec<_> = records(log).collect();
        if i == 0 {
            assert!(deltas.len() >= 2, "{bounds:?}");
            let (middle, _) = deltas[deltas.len() - 2];
            corrupt_from.set(Some((middle, delta_from(records[middle].payload))));
            return corrupted(log, middle);
        }
        let (middle, from) = corrupt_from.get().expect("set by the first kill");
        assert!(
            records[middle + 1..]
                .iter()
                .any(|r| r.kind == KIND_DELTA && r.valid() && delta_from(r.payload) == from),
            "the second lifetime re-wrote the corrupt delta's interval"
        );
        log.to_vec()
    });
    assert_eq!(diagnoses, expected, "zero lost, zero duplicated");
    assert_eq!(rec.restores, 2);
}

/// A record of a kind this build does not know — one a newer build might
/// write — sits between boundaries on both backends. Every reader filters
/// the log by kind, so restore and the release watermark step over it: the
/// output is the uninterrupted run's, byte for byte.
#[test]
fn a_record_of_an_unknown_kind_between_boundaries_is_skipped() {
    const UNKNOWN_KIND: u8 = 9;
    let expected = reference(None);
    let (diagnoses, rec) = chain_run("unknown-kind", &[150], |_, log| {
        let bounds = boundaries(log);
        let after = bounds[newest_base(&bounds) + 1].0;
        let mut store = MemStore::new();
        for (i, r) in records(log).enumerate() {
            store.append(r.kind, r.payload).expect("append");
            if i == after {
                store
                    .append(UNKNOWN_KIND, b"GCK\x09 a later layout")
                    .expect("append");
            }
        }
        store.append(UNKNOWN_KIND, &[0xFF; 40]).expect("append");
        assert_eq!(records(store.bytes()).count(), records(log).count() + 2);
        store.bytes().to_vec()
    });
    assert_eq!(diagnoses, expected, "zero lost, zero duplicated");
    assert_eq!(rec.restores, 1);
    assert_eq!(rec.duplicate_releases_suppressed, 0, "nothing fell back");
}

#[test]
fn a_corrupt_newest_base_falls_back_to_the_previous_base_and_its_chain() {
    let expected = reference(None);
    let (diagnoses, rec) = chain_run("corrupt-base", &[200], |_, log| {
        let bounds = boundaries(log);
        let bases = bounds
            .iter()
            .filter(|&&(_, k)| k == KIND_CHECKPOINT)
            .count();
        assert!(bases >= 2, "{bounds:?}");
        corrupted(log, bounds[newest_base(&bounds)].0)
    });
    assert_eq!(diagnoses, expected, "zero lost, zero duplicated");
    assert_eq!(
        rec.restores, 1,
        "the previous base restored, not a cold start"
    );
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
            AnalyzerChaos { kill_prob: 0.5, seed, ..AnalyzerChaos::none() }
        } else {
            AnalyzerChaos::none()
        };
        let cfg = RecoveryConfig {
            service: ServiceConfig { impairment: Some(imp), ..ServiceConfig::default() },
            checkpoint_every: 48,
            chaos,
        };
        let kills = CrashSchedule::seeded(seed, crashes, 300).points;
        let (diags, _, _, rec) = run_recoverable(cfg, &kills);
        prop_assert_eq!(diags, expected);
        prop_assert_eq!(rec.jobs_cancelled, 0);
    }
}
