//! Crash-recovery experiment: exactly-once diagnosis under analysis-plane
//! failure — in-process crashes and whole-process kills.
//!
//! Each §7.2 operational case study is first run through the plain
//! pipeline (the oracle), then repeatedly through the fault-tolerant
//! service under increasing failure pressure, in two modes:
//!
//! * **in-process** (`run_service_durable` over a `MemStore`): scheduled service
//!   crashes with checkpoint/replay restarts, chaos that kills every
//!   worker's first two attempts at a job, and an arm that corrupts every
//!   checkpoint record so restores fall back to older (or cold) state.
//! * **process-kill** (`run_service_durable` over a `FileStore`): the
//!   entire service is killed mid-stream (SIGKILL model — nothing since
//!   the last checkpoint boundary survives) and a fresh invocation
//!   restarts from the on-disk segments. Arms cover clean restarts, small
//!   segments (restart reads back through sealed files), a corrupted
//!   newest record, and a torn tail (the in-flight write is cut mid-
//!   record, as after power loss).
//!
//! For every run the committed diagnosis stream is compared against the
//! oracle as a multiset: the headline numbers are **diagnoses lost** and
//! **diagnoses duplicated**, and the acceptance target for both is zero
//! at every crash rate, in every mode.
//!
//! Usage: `cargo run --release -p gretel-bench --bin recovery [--seed N] [--smoke] [--store-dir PATH]`

use gretel_bench::{arg, flag, results, Workbench};
use gretel_core::{
    run_service_cfg, run_service_durable, Analyzer, AnalyzerChaos, Diagnosis, DurableConfig,
    DurableOutcome, GretelConfig, RecoveryConfig, RecoveryStats, ServiceConfig,
};
use gretel_model::NodeId;
use gretel_netcap::CaptureImpairment;
use gretel_sim::scenario::operational_suite;
use gretel_sim::CrashSchedule;
use gretel_store::{FileStore, FileStoreConfig, MemStore, Store};
use serde::Serialize;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Service crashes scheduled per in-process run.
const CRASH_COUNTS: [usize; 4] = [0, 1, 2, 4];

/// One whole-process kill-restart arm.
struct DurableArm {
    name: &'static str,
    /// Scheduled process kills (one per invocation, via `seeded_kills`).
    kills: usize,
    /// Segment rotation threshold; small values force restarts to read
    /// back through several sealed segment files.
    rotate_bytes: usize,
    /// Corrupt the newest on-disk record between invocations (restore
    /// must fall back to an older checkpoint, or cold replay).
    corrupt_between: bool,
    /// Tear the active segment's tail mid-record between invocations
    /// (power-loss model; open truncates the torn write away).
    tear_between: bool,
}

const DURABLE_ARMS: [DurableArm; 4] = [
    DurableArm {
        name: "kill-clean",
        kills: 1,
        rotate_bytes: 1 << 20,
        corrupt_between: false,
        tear_between: false,
    },
    DurableArm {
        name: "kill-segments",
        kills: 2,
        rotate_bytes: 4096,
        corrupt_between: false,
        tear_between: false,
    },
    DurableArm {
        name: "kill-corrupt",
        kills: 1,
        rotate_bytes: 8192,
        corrupt_between: true,
        tear_between: false,
    },
    DurableArm {
        name: "kill-torn",
        kills: 1,
        rotate_bytes: 1 << 20,
        corrupt_between: false,
        tear_between: true,
    },
];

/// Multiset difference between the oracle's diagnoses and a recovery
/// run's: `(lost, duplicated)`.
fn diff(expected: &[Diagnosis], got: &[Diagnosis]) -> (usize, usize) {
    let mut counts: HashMap<String, i64> = HashMap::new();
    for d in expected {
        *counts.entry(format!("{d:?}")).or_default() += 1;
    }
    for d in got {
        *counts.entry(format!("{d:?}")).or_default() -= 1;
    }
    let lost = counts.values().filter(|&&c| c > 0).sum::<i64>() as usize;
    let duplicated = counts.values().filter(|&&c| c < 0).map(|c| -c).sum::<i64>() as usize;
    (lost, duplicated)
}

fn add_stats(total: &mut RecoveryStats, r: &RecoveryStats) {
    total.worker_crashes += r.worker_crashes;
    total.jobs_requeued += r.jobs_requeued;
    total.jobs_cancelled += r.jobs_cancelled;
    total.checkpoints_written += r.checkpoints_written;
    total.checkpoints_corrupt += r.checkpoints_corrupt;
    total.restores += r.restores;
    total.replayed_frames += r.replayed_frames;
    total.duplicate_releases_suppressed += r.duplicate_releases_suppressed;
    total.library_reloads += r.library_reloads;
}

/// Cut the active segment mid-record: the newest record on disk is always
/// a checkpoint or library snapshot (never released diagnoses — those are
/// written *before* the checkpoint that covers them), so a torn tail can
/// delay recovery but never lose output.
fn tear_tail(dir: &Path) {
    let cur = dir.join("current.seg");
    let Ok(buf) = std::fs::read(&cur) else { return };
    let mut last: Option<(usize, usize)> = None;
    for r in gretel_store::records(&buf) {
        let end = r.offset + gretel_store::RECORD_HEADER + r.payload.len();
        last = Some((r.offset, end));
    }
    // An empty active segment (kill landed right after a rotation) has
    // nothing to tear this round.
    let Some((off, end)) = last else { return };
    let cut = off + (end - off) / 2;
    let f = std::fs::OpenOptions::new().write(true).open(&cur).expect("open active segment");
    f.set_len(cut as u64).expect("tear active segment tail");
}

#[derive(Serialize)]
struct Row {
    scenario: String,
    /// `in-process` or a whole-process kill arm name.
    mode: String,
    crashes_scheduled: usize,
    process_kills: usize,
    corrupt_store: bool,
    torn_tail: bool,
    diagnoses: usize,
    lost: usize,
    duplicated: usize,
    identical: bool,
    worker_crashes: u64,
    jobs_requeued: u64,
    restores: u64,
    checkpoints_written: u64,
    checkpoints_corrupt: u64,
    replayed_frames: u64,
    duplicate_releases_suppressed: u64,
}

#[derive(Serialize)]
struct Output {
    seed: u64,
    kill_prob: f64,
    kill_attempts: u32,
    max_attempts: u32,
    rows: Vec<Row>,
    total_lost: usize,
    total_duplicated: usize,
    total_process_kills: usize,
    all_identical: bool,
}

fn main() {
    let seed: u64 = arg("--seed", 42);
    let smoke = flag("--smoke");
    let store_dir: String = arg("--store-dir", String::new());
    let wb = Workbench::new(seed);

    let store_base: PathBuf = if store_dir.is_empty() {
        std::env::temp_dir().join(format!("gretel-recovery-{}-{seed}", std::process::id()))
    } else {
        PathBuf::from(store_dir)
    };

    let suite = operational_suite(&wb.catalog, seed, 6);
    let suite = if smoke { &suite[..1] } else { &suite[..] };
    let crash_counts: &[usize] = if smoke { &[2] } else { &CRASH_COUNTS };
    // Smoke keeps one clean kill and the torn-tail arm: together they
    // cover restart-from-disk and torn-write truncation, the two FileStore
    // paths the in-process arms cannot reach.
    let durable_arms: Vec<&DurableArm> = if smoke {
        DURABLE_ARMS.iter().filter(|a| a.name == "kill-clean" || a.name == "kill-torn").collect()
    } else {
        DURABLE_ARMS.iter().collect()
    };

    let mut rows = Vec::new();
    for (si, sc) in suite.iter().enumerate() {
        let exec = sc.run(wb.catalog.clone());
        let n_msgs = exec.messages.len() as u64;
        let p_rate = exec.messages.len() as f64 / (exec.duration.max(1) as f64 / 1e6).max(1e-6);
        let gcfg = GretelConfig::auto(wb.library.fp_max(), p_rate, 2.0);
        let nodes: Vec<NodeId> = sc.deployment.nodes().iter().map(|n| n.id).collect();

        // Oracle: the plain sequenced pipeline, no failures.
        let base = ServiceConfig {
            impairment: Some(CaptureImpairment::none()),
            ..ServiceConfig::default()
        };
        let mut oracle = Analyzer::new(&wb.library, gcfg);
        let (expected, _, _) = run_service_cfg(&mut oracle, &nodes, &exec.messages, &base);

        // ---- In-process crash/replay arms -------------------------------
        for &crashes in crash_counts {
            for corrupt in [false, true] {
                if corrupt && crashes == 0 {
                    continue; // corruption only matters when a restore happens
                }
                let chaos = AnalyzerChaos {
                    kill_prob: 1.0, // every job kills its worker twice, then completes
                    kill_attempts: 2,
                    stall_prob: 0.0,
                    corrupt_prob: if corrupt { 1.0 } else { 0.0 },
                    seed: seed ^ (si as u64) << 8,
                };
                let recovery = RecoveryConfig {
                    service: base.clone(),
                    checkpoint_every: (n_msgs / 8).max(32),
                    chaos,
                    max_attempts: 5,
                    crash_points: CrashSchedule::seeded(
                        seed ^ 0xC4A5 ^ (si as u64),
                        crashes,
                        n_msgs,
                    )
                    .points,
                    ..RecoveryConfig::default()
                };
                let cfg = DurableConfig { recovery, ..DurableConfig::default() };
                let mut store = MemStore::new();
                let out = run_service_durable(
                    &wb.library,
                    gcfg,
                    &nodes,
                    &exec.messages,
                    &cfg,
                    &mut store,
                )
                .expect("recovery run completes");
                let DurableOutcome::Completed { diagnoses: got, recovery: rec, .. } = out else {
                    unreachable!("no kill point configured")
                };
                let (lost, duplicated) = diff(&expected, &got);
                rows.push(Row {
                    scenario: sc.name.to_string(),
                    mode: "in-process".to_string(),
                    crashes_scheduled: crashes,
                    process_kills: 0,
                    corrupt_store: corrupt,
                    torn_tail: false,
                    diagnoses: got.len(),
                    lost,
                    duplicated,
                    identical: got == expected,
                    worker_crashes: rec.worker_crashes,
                    jobs_requeued: rec.jobs_requeued,
                    restores: rec.restores,
                    checkpoints_written: rec.checkpoints_written,
                    checkpoints_corrupt: rec.checkpoints_corrupt,
                    replayed_frames: rec.replayed_frames,
                    duplicate_releases_suppressed: rec.duplicate_releases_suppressed,
                });
            }
        }

        // ---- Whole-process kill-restart arms (durable FileStore) --------
        for (ai, armref) in durable_arms.iter().enumerate() {
            let arm = *armref;
            let dir = store_base.join(format!("s{si}-{}", arm.name));
            std::fs::remove_dir_all(&dir).ok();
            let fcfg = FileStoreConfig { rotate_bytes: arm.rotate_bytes, ..Default::default() };
            let kill_points = CrashSchedule::seeded_kills(
                seed ^ 0xD007 ^ ((si as u64) << 4) ^ ai as u64,
                arm.kills,
                n_msgs,
            )
            .points;

            let mut totals = RecoveryStats::default();
            let mut invocations = 0usize;
            let got = loop {
                // Each FileStore::open models one process start: inventory
                // the segments, truncate any torn tail, replay.
                let mut store = FileStore::open(&dir, fcfg).expect("open durable store");
                let dcfg = DurableConfig {
                    recovery: RecoveryConfig {
                        service: base.clone(),
                        checkpoint_every: (n_msgs / 8).max(32),
                        ..RecoveryConfig::default()
                    },
                    kill_point: kill_points.get(invocations).copied(),
                    reloads: Vec::new(),
                };
                let out = run_service_durable(
                    &wb.library,
                    gcfg,
                    &nodes,
                    &exec.messages,
                    &dcfg,
                    &mut store,
                )
                .expect("durable run completes or is killed");
                invocations += 1;
                assert!(
                    invocations <= arm.kills + 2,
                    "kill arm must converge once the schedule is exhausted"
                );
                match out {
                    DurableOutcome::Completed { diagnoses, recovery, .. } => {
                        add_stats(&mut totals, &recovery);
                        break diagnoses;
                    }
                    DurableOutcome::Killed { recovery, .. } => {
                        add_stats(&mut totals, &recovery);
                        drop(store);
                        if arm.corrupt_between {
                            // Flip a byte in the newest record — always a
                            // checkpoint or library snapshot, so recovery
                            // falls back without losing released output.
                            let mut s =
                                FileStore::open(&dir, fcfg).expect("reopen for corruption");
                            let n = s.len();
                            if n > 0 {
                                s.corrupt_record(
                                    n - 1,
                                    (seed as usize) ^ invocations.wrapping_mul(0x9E37),
                                );
                            }
                        }
                        if arm.tear_between {
                            tear_tail(&dir);
                        }
                    }
                }
            };
            std::fs::remove_dir_all(&dir).ok();

            let (lost, duplicated) = diff(&expected, &got);
            rows.push(Row {
                scenario: sc.name.to_string(),
                mode: arm.name.to_string(),
                crashes_scheduled: 0,
                process_kills: invocations - 1,
                corrupt_store: arm.corrupt_between,
                torn_tail: arm.tear_between,
                diagnoses: got.len(),
                lost,
                duplicated,
                identical: got == expected,
                worker_crashes: totals.worker_crashes,
                jobs_requeued: totals.jobs_requeued,
                restores: totals.restores,
                checkpoints_written: totals.checkpoints_written,
                checkpoints_corrupt: totals.checkpoints_corrupt,
                replayed_frames: totals.replayed_frames,
                duplicate_releases_suppressed: totals.duplicate_releases_suppressed,
            });
        }
    }
    std::fs::remove_dir_all(&store_base).ok();

    let total_lost: usize = rows.iter().map(|r| r.lost).sum();
    let total_duplicated: usize = rows.iter().map(|r| r.duplicated).sum();
    let total_process_kills: usize = rows.iter().map(|r| r.process_kills).sum();
    let all_identical = rows.iter().all(|r| r.identical);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.mode.clone(),
                format!("{}", r.crashes_scheduled),
                format!("{}", r.process_kills),
                format!("{}", r.corrupt_store),
                format!("{}", r.diagnoses),
                format!("{}/{}", r.lost, r.duplicated),
                format!("{}", r.worker_crashes),
                format!("{}", r.restores),
                format!("{}", r.replayed_frames),
            ]
        })
        .collect();
    results::print_table(
        "Crash recovery: diagnoses lost/duplicated under supervision + checkpoint/replay",
        &[
            "scenario", "mode", "crashes", "pkills", "corrupt", "diags", "lost/dup", "kills",
            "restores", "replayed",
        ],
        &table,
    );
    println!(
        "total lost: {total_lost}  total duplicated: {total_duplicated}  \
         process kills: {total_process_kills}  all identical: {all_identical}"
    );

    // Smoke runs cover a reduced arm matrix; writing them out would
    // clobber the committed full-sweep artifact (it happened: PR 5 had
    // to restore stale --smoke output).
    if !smoke {
        results::write_json(
            "recovery",
            &Output {
                seed,
                kill_prob: 1.0,
                kill_attempts: 2,
                max_attempts: 5,
                rows,
                total_lost,
                total_duplicated,
                total_process_kills,
                all_identical,
            },
        );
    }

    if smoke {
        assert_eq!(total_lost, 0, "smoke: no diagnosis may be lost");
        assert_eq!(total_duplicated, 0, "smoke: no diagnosis may be duplicated");
        assert!(all_identical, "smoke: recovered output must be byte-identical");
        assert!(total_process_kills > 0, "smoke: at least one process kill must fire");
    }
}
