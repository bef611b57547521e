//! Where a result was measured: host provenance, the calibration loop that
//! lets rows from different containers be normalised, and the process's own
//! CPU and memory accounting read from `/proc`.

use serde::{Deserialize, Serialize};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Analysis-pool width of the single-pipeline threaded workloads.
pub const POOL_WORKERS: usize = 2;
/// Shard count of the `tenants` workload.
pub const SHARDS: usize = 2;
/// Analysis-pool width of each `tenants` shard.
pub const SHARD_WORKERS: usize = 1;

/// Provenance block written into every results file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Host {
    /// `git rev-parse HEAD` of the measured tree (`unknown` outside git).
    pub git_sha: String,
    /// Hardware threads the process may use.
    pub nproc: u64,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// Filesystem type under the store directory (`durable`, `restart`).
    pub store_fs: String,
    /// Pinned pool sizes, see the constants of this module.
    pub pool_workers: u64,
    /// Pinned shard count.
    pub shards: u64,
    /// Pinned per-shard pool size.
    pub shard_workers: u64,
    /// Nanoseconds per step of a fixed splitmix64 loop on this host.
    pub calib_ns: f64,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// One splitmix64 step. A private copy on purpose: the calibration loop
/// must stay the same instruction sequence whatever the library does.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Best-of-three time per step of a dependent splitmix64 chain: pure
/// integer latency, no memory traffic, so it tracks the core's speed.
pub fn calib_ns() -> f64 {
    const STEPS: u64 = 20_000_000;
    (0..3)
        .map(|round| {
            let start = Instant::now();
            let mut x = round;
            for _ in 0..STEPS {
                x = splitmix64(std::hint::black_box(x));
            }
            std::hint::black_box(x);
            start.elapsed().as_nanos() as f64 / STEPS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/self/mounts`).
pub fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

impl Host {
    /// Describe this host; `store_dir` is where file stores will live.
    pub fn probe(store_dir: &Path) -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            git_sha: command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            ),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu_model,
            kernel: read_trimmed("/proc/sys/kernel/osrelease")
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: command_line("rustc", &["--version"]),
            store_fs: fs_type(store_dir),
            pool_workers: POOL_WORKERS as u64,
            shards: SHARDS as u64,
            shard_workers: SHARD_WORKERS as u64,
            calib_ns: calib_ns(),
        }
    }
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`) in MB.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process (all threads, exited ones
/// included) has consumed. Clock ticks are 10 ms on every Linux this runs
/// on (`USER_HZ` is fixed at 100 for the `/proc` ABI).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_comm
        .split_whitespace()
        .skip(11) // state is field 3; utime and stime are fields 14 and 15
        .take(2)
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}
