//! Crash recovery (DESIGN.md §11 & §13): exactly-once diagnosis under
//! analysis-plane failure, from one kill driver over both store backends.

use crate::workload::operational_runs;
use crate::{Artifact, Ctx};
use gretel_core::{
    run_service_durable, AnalyzerChaos, Diagnosis, DurableConfig, DurableOutcome, RecoveryConfig,
    RecoveryStats, ServiceConfig, KILL_ATTEMPTS, KIND_CHECKPOINT, MAX_ATTEMPTS,
};
use gretel_sim::CrashSchedule;
use gretel_store::{records, FileStore, FileStoreConfig, MemStore, Store};
use serde::Serialize;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Service kills scheduled per run.
const KILL_COUNTS: [usize; 4] = [0, 1, 2, 4];

/// What the driver does to the log between two lifetimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
enum Damage {
    Clean,
    /// Cut the last record in half. The newest record after a kill is
    /// always a boundary record, a base or a delta, which holds the
    /// diagnoses released at it: the restart finds them without a copy,
    /// stands at the boundary before and releases them again, so a torn
    /// tail can delay recovery but never lose output.
    TornTail,
    /// Flip one payload byte of the newest record.
    CorruptNewest,
    /// Flip one payload byte of the newest base: the restore falls back to
    /// the base before it and that base's chain of deltas.
    CorruptBase,
}

const DAMAGES: [Damage; 4] = [
    Damage::Clean,
    Damage::TornTail,
    Damage::CorruptNewest,
    Damage::CorruptBase,
];

/// Where a run's log lives between lifetimes.
enum Backend {
    Mem(MemStore),
    File(PathBuf),
}

fn open(dir: &Path) -> FileStore {
    // One open models one process start: read the log, truncate a torn tail.
    FileStore::open(dir, FileStoreConfig::default()).expect("open durable store")
}

/// The byte offset that cuts the last record of `log` in half.
fn tear_at(log: &[u8]) -> usize {
    records(log).last().map_or(0, |r| (r.offset + r.end()) / 2)
}

/// The index of the record a corrupting `damage` flips a byte of: the
/// newest record, or the newest base.
fn corrupt_target(log: &[u8], damage: Damage) -> Option<usize> {
    records(log)
        .enumerate()
        .filter(|(_, r)| damage == Damage::CorruptNewest || r.kind == KIND_CHECKPOINT)
        .last()
        .map(|(i, _)| i)
}

impl Backend {
    fn name(&self) -> &'static str {
        match self {
            Backend::Mem(_) => "MemStore",
            Backend::File(_) => "FileStore",
        }
    }

    /// Whether the log holds no bytes: a kill before the first checkpoint
    /// boundary leaves it so.
    fn log_is_empty(&self) -> bool {
        match self {
            Backend::Mem(s) => s.bytes().is_empty(),
            Backend::File(dir) => {
                std::fs::metadata(FileStore::log_path(dir)).map_or(0, |m| m.len()) == 0
            }
        }
    }

    /// Apply `damage` to the log. An empty log has no record to damage, so
    /// every kind of damage leaves it as it is.
    fn damage(&mut self, damage: Damage, byte: usize) {
        if self.log_is_empty() {
            return;
        }
        match (self, damage) {
            (_, Damage::Clean) => {}
            (Backend::Mem(s), Damage::TornTail) => {
                *s = MemStore::from_bytes(s.bytes()[..tear_at(s.bytes())].to_vec());
            }
            (Backend::File(dir), Damage::TornTail) => {
                let path = FileStore::log_path(dir);
                let cut = tear_at(&std::fs::read(&path).expect("read log"));
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .expect("open log");
                f.set_len(cut as u64).expect("tear log tail");
            }
            (Backend::Mem(s), corrupt) => {
                if let Some(i) = corrupt_target(s.bytes(), corrupt) {
                    s.corrupt_record(i, byte);
                }
            }
            (Backend::File(dir), corrupt) => {
                let mut s = open(dir);
                if let Some(i) = corrupt_target(s.bytes(), corrupt) {
                    s.corrupt_record(i, byte);
                }
            }
        }
    }

    /// The kill driver: one lifetime per kill point, `damage` applied after
    /// each kill, until a lifetime completes (the last has no kill point; a
    /// point past the end of the remaining stream completes early). Returns
    /// the committed diagnoses, the counters summed over the lifetimes, the
    /// kills that fired and the final log length.
    fn drive(
        &mut self,
        damage: Damage,
        kill_points: &[u64],
        lifetime: impl Fn(&mut dyn Store, Option<u64>) -> DurableOutcome,
    ) -> (Vec<Diagnosis>, RecoveryStats, usize, usize) {
        let mut totals = RecoveryStats::default();
        for (fired, kill) in kill_points
            .iter()
            .copied()
            .map(Some)
            .chain([None])
            .enumerate()
        {
            let (out, log_bytes) = match self {
                Backend::Mem(s) => (lifetime(s, kill), s.bytes().len()),
                Backend::File(dir) => {
                    let mut s = open(dir);
                    (lifetime(&mut s, kill), s.bytes().len())
                }
            };
            match out {
                DurableOutcome::Completed {
                    diagnoses,
                    recovery,
                    ..
                } => {
                    totals.merge(&recovery);
                    return (diagnoses, totals, fired, log_bytes);
                }
                DurableOutcome::Killed { recovery, .. } => {
                    totals.merge(&recovery);
                    self.damage(damage, fired.wrapping_mul(0x9E37));
                }
            }
        }
        unreachable!("the last lifetime has no kill point")
    }
}

/// Merged messages between two checkpoint boundaries of an `n_msgs`-message
/// run: an eighth of the stream, so a run has at most 8 boundaries and one
/// base. The `CorruptBase` arm checkpoints eight times as often, so its
/// deltas outweigh a base and its logs hold several bases: corrupting the
/// newest makes the restore fall back to the base before it and that
/// base's chain of deltas.
fn checkpoint_every(n_msgs: u64, damage: Damage) -> u64 {
    let every = (n_msgs / 8).max(32);
    match damage {
        Damage::CorruptBase => every / 8,
        _ => every,
    }
}

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

#[derive(Serialize)]
struct Row {
    scenario: String,
    backend: &'static str,
    kills_scheduled: usize,
    kills_fired: usize,
    damage: Damage,
    diagnoses: usize,
    lost: usize,
    duplicated: usize,
    identical: bool,
    log_bytes: usize,
    worker_crashes: u64,
    jobs_requeued: u64,
    restores: u64,
    checkpoints_written: u64,
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
    total_kills: usize,
    all_identical: bool,
}

/// Crash recovery — each §7.2 operational case study runs through the
/// plain pipeline (the oracle), then through `run_service_durable` under
/// chaos that kills every worker's first two attempts at a job, with the
/// whole service killed 0/1/2/4 times mid-stream (SIGKILL model — nothing
/// since the last checkpoint boundary survives). One driver loop
/// re-invokes the service over the same log until it completes: the same
/// `MemStore` value, or a `FileStore` directory reopened cold. Between two
/// lifetimes the driver leaves the log alone, tears its last record
/// mid-payload, flips a byte of its newest record, or flips a byte of its
/// newest base.
///
/// Gates: zero diagnoses lost, zero duplicated, every committed stream
/// byte-identical to the oracle's, and a kill fired under each kind of
/// damage.
pub fn recovery(ctx: &Ctx) -> Vec<Artifact> {
    let (wb, seed) = (&ctx.wb, ctx.seed);
    let store_base = ctx.store_base("recovery");
    let chaos = AnalyzerChaos {
        kill_prob: 1.0, // every job kills its worker twice, then completes
        stall_prob: 0.0,
        seed,
    };

    let mut rows = Vec::new();
    for (si, run) in operational_runs(wb, seed).iter().enumerate() {
        let n_msgs = run.exec.messages.len() as u64;
        // Oracle: the plain pipeline, no failures.
        let service = ServiceConfig::default();
        let (expected, _, _) = wb.serve(run.gcfg, &run.nodes, &run.exec.messages, &service);

        for kills in KILL_COUNTS {
            let kill_points =
                CrashSchedule::seeded(seed ^ 0xC4A5 ^ (si as u64), kills, n_msgs).points;
            // Damage is applied after a kill.
            for damage in DAMAGES
                .into_iter()
                .filter(|&d| d == Damage::Clean || kills > 0)
            {
                let recovery = RecoveryConfig {
                    service: service.clone(),
                    checkpoint_every: checkpoint_every(n_msgs, damage),
                    chaos: AnalyzerChaos {
                        seed: seed ^ ((si as u64) << 8),
                        ..chaos
                    },
                };
                let lifetime = |store: &mut dyn Store, kill_point: Option<u64>| {
                    let cfg = DurableConfig {
                        recovery: recovery.clone(),
                        kill_point,
                    };
                    run_service_durable(
                        &wb.library,
                        run.gcfg,
                        &run.nodes,
                        &run.exec.messages,
                        &cfg,
                        store,
                    )
                    .expect("a lifetime completes or is killed")
                };
                let dir = store_base.join(format!("s{si}-k{kills}-{damage:?}"));
                std::fs::remove_dir_all(&dir).ok();
                for mut backend in [Backend::Mem(MemStore::new()), Backend::File(dir)] {
                    let (got, rec, kills_fired, log_bytes) =
                        backend.drive(damage, &kill_points, lifetime);
                    let (lost, duplicated) = diff(&expected, &got);
                    rows.push(Row {
                        scenario: run.scenario.name.to_string(),
                        backend: backend.name(),
                        kills_scheduled: kills,
                        kills_fired,
                        damage,
                        diagnoses: got.len(),
                        lost,
                        duplicated,
                        identical: got == expected,
                        log_bytes,
                        worker_crashes: rec.worker_crashes,
                        jobs_requeued: rec.jobs_requeued,
                        restores: rec.restores,
                        checkpoints_written: rec.checkpoints_written,
                        replayed_frames: rec.replayed_frames,
                        duplicate_releases_suppressed: rec.duplicate_releases_suppressed,
                    });
                }
            }
        }
    }
    ctx.release_store(&store_base);

    let out = Output {
        seed,
        kill_prob: chaos.kill_prob,
        kill_attempts: KILL_ATTEMPTS,
        max_attempts: MAX_ATTEMPTS,
        total_lost: rows.iter().map(|r| r.lost).sum(),
        total_duplicated: rows.iter().map(|r| r.duplicated).sum(),
        total_kills: rows.iter().map(|r| r.kills_fired).sum(),
        all_identical: rows.iter().all(|r| r.identical),
        rows,
    };
    assert_eq!(out.total_lost, 0, "no diagnosis may be lost");
    assert_eq!(out.total_duplicated, 0, "no diagnosis may be duplicated");
    assert!(out.all_identical, "recovered output must be byte-identical");
    for damage in DAMAGES {
        assert!(
            out.rows
                .iter()
                .any(|r| r.damage == damage && r.kills_fired > 0),
            "a kill must fire under {damage:?}"
        );
    }
    vec![Artifact::new("recovery", &out)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn damage_to_an_empty_log_is_a_no_op() {
        let dir = std::env::temp_dir().join(format!("gretel-empty-damage-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        drop(open(&dir));
        for mut backend in [Backend::Mem(MemStore::new()), Backend::File(dir.clone())] {
            for damage in DAMAGES {
                backend.damage(damage, 7);
                assert!(backend.log_is_empty(), "{} {damage:?}", backend.name());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
