//! One workload, measured in this process: set-up, warm-up, timed passes on
//! fresh state, the reference check on every pass, and the metrics.
//!
//! The same code serves both binaries. Untraced, it reports the end-to-end
//! metrics; traced (the counting allocator installed, the [`Tracer`] on) it
//! reports the per-layer metrics and compares its own throughput with an
//! untraced sibling process to state what tracing cost.

use crate::alloc;
use crate::host;
use crate::inputs::{Inputs, Reference, Sizes, Workload};
use crate::layers;
use crate::passes::{self, PassOutput, PathStats};
use crate::report::{Metric, WorkloadRecord, RECORD_PREFIX};
use crate::score;
use crate::stats::{self, Summary};
use crate::trace::{self, Tracer, PASS};
use gretel_obs::{MetricsSnapshot, Stage};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The inputs are built this many times at least, and again until
/// [`SETUP_SECONDS`] have passed, so that `setup_s` is a median a moment's
/// interference cannot move. A quarter-second set-up gets nine samples.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_SECONDS: f64 = 3.0;
/// Fewest timed passes a measurement rests on.
const MIN_TIMED_PASSES: usize = 3;
/// Gate on `trace.accounted_share` for the inline workloads.
const ACCOUNTED_GATE: f64 = 0.90;

/// What to measure and how long.
#[derive(Debug, Clone)]
pub struct Job {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Timed passes run until this many seconds have passed.
    pub seconds: f64,
    /// Smoke mode: small inputs, one set-up, one timed pass.
    pub check: bool,
    /// Directory file stores are created under.
    pub store_dir: PathBuf,
}

impl Job {
    /// The arguments that make a child process run this job.
    pub fn child_args(&self) -> Vec<String> {
        let mut args = vec!["workload".to_string()];
        for (key, value) in [
            ("--workload", self.workload.name().to_string()),
            ("--seed", self.seed.to_string()),
            ("--seconds", self.seconds.to_string()),
            ("--store-dir", self.store_dir.display().to_string()),
        ] {
            args.extend([key.to_string(), value]);
        }
        if self.check {
            args.push("--check".to_string());
        }
        args
    }
}

/// Run `exe` on `job` as a child process and return the record it printed;
/// `echo` passes its other output lines through.
pub fn run_child(exe: &Path, job: &Job, echo: bool) -> Result<WorkloadRecord, String> {
    let mut child = Command::new(exe)
        .args(job.child_args())
        // Pool sizes are pinned by the workloads, never by the environment.
        .env_remove("GRETEL_WORKERS")
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut record = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading child output: {e}"))?;
        match line.strip_prefix(RECORD_PREFIX) {
            Some(json) => record = Some(serde_json::from_str(json).map_err(|e| e.to_string())?),
            None if echo => println!("{line}"),
            None => {}
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for child: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{} {} exited with {status}",
            exe.display(),
            job.workload.name()
        ));
    }
    record.ok_or_else(|| format!("{} printed no record", job.workload.name()))
}

/// The binary beside this one called `name`.
pub fn sibling_exe(name: &str) -> PathBuf {
    std::env::current_exe()
        .expect("own executable path")
        .with_file_name(name)
}

/// `benchmark/results/` of the tree this binary was built from.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Stage registries of several passes, added up.
#[derive(Default)]
struct StageTotals {
    sum_us: [u64; Stage::COUNT],
    events: [u64; Stage::COUNT],
}

impl StageTotals {
    fn add(&mut self, snapshot: &MetricsSnapshot) {
        // `MetricsSnapshot::stages` is in `Stage::ALL` order.
        for (i, stage) in snapshot.stages.iter().enumerate().take(Stage::COUNT) {
            self.sum_us[i] += stage.latency.sum_us;
            self.events[i] += stage.events;
        }
    }
}

/// What the timed passes add up to. Only passes that reproduced the
/// reference contribute to anything but `attempted` and `failed`.
#[derive(Default)]
struct Timed {
    pass_s: Vec<f64>,
    cpu_s: f64,
    attempted: u64,
    failed: u64,
    store_bytes: u64,
    path: PathStats,
    stages: StageTotals,
    allocs: u64,
    alloc_bytes: u64,
}

struct Measured {
    wall_s: f64,
    cpu_s: f64,
    allocs: u64,
    alloc_bytes: u64,
    /// The output and how many diagnoses failed the reference check, or why
    /// the pass produced no output.
    result: Result<(PassOutput, u64), String>,
}

/// One pass under the clock, with its output checked against the reference.
fn checked_pass(
    inputs: &Inputs,
    reference: &Reference,
    store_dir: &Path,
    tracer: &mut Tracer,
) -> Measured {
    tracer.next_pass();
    let (allocs, alloc_bytes) = alloc::counts();
    let cpu = host::cpu_seconds();
    let started = Instant::now();
    let span = tracer.enter(PASS);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        passes::run_pass(inputs, store_dir, tracer)
    }));
    tracer.exit(span);
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu;
    let after = alloc::counts();
    let result = match outcome {
        Ok(Ok(out)) => {
            let keys = score::diagnosis_keys(&out.groups, inputs.workload.checks_rpc_diagnoses());
            let bad = score::mismatches(&reference.keys, &keys);
            Ok((out, bad))
        }
        Ok(Err(why)) => Err(why),
        Err(_) => Err("the pass panicked".to_string()),
    };
    Measured {
        wall_s,
        cpu_s,
        allocs: after.0 - allocs,
        alloc_bytes: after.1 - alloc_bytes,
        result,
    }
}

fn timed_passes(job: &Job, inputs: &Inputs, reference: &Reference, tracer: &mut Tracer) -> Timed {
    let per_pass = reference.keys.len() as u64;
    let min_passes = if job.check { 1 } else { MIN_TIMED_PASSES };
    let mut t = Timed::default();
    let started = Instant::now();
    let mut passes = 0;
    while passes < min_passes || started.elapsed().as_secs_f64() < job.seconds {
        passes += 1;
        t.attempted += per_pass;
        let m = checked_pass(inputs, reference, &job.store_dir, tracer);
        match m.result {
            Ok((out, 0)) => {
                t.pass_s.push(m.wall_s);
                t.cpu_s += m.cpu_s;
                t.allocs += m.allocs;
                t.alloc_bytes += m.alloc_bytes;
                t.store_bytes = out.store_bytes;
                t.path = out.path;
                if let Some(stages) = &out.stages {
                    t.stages.add(stages);
                }
            }
            // A pass whose output fails the check is counted and kept out
            // of every timing.
            Ok((_, bad)) => t.failed += bad.min(per_pass),
            Err(why) => {
                eprintln!("{}: pass {passes} failed: {why}", job.workload.name());
                t.failed += per_pass;
            }
        }
    }
    t
}

/// The inline passes whose spans and registry describe the core layer: the
/// timed passes of an inline workload, the one extra pass of a threaded one.
struct CorePasses<'a> {
    stages: &'a StageTotals,
    passes: f64,
    wall_us: f64,
}

fn share(busy_us: u64, wall_us: f64) -> f64 {
    if wall_us > 0.0 {
        busy_us as f64 / wall_us
    } else {
        0.0
    }
}

/// The per-layer metrics that come out of passes (the stream-level ones are
/// [`layers::measure`]'s).
fn pass_layer_metrics(
    inputs: &Inputs,
    tracer: &Tracer,
    t: &Timed,
    core: &CorePasses<'_>,
) -> Vec<Metric> {
    let messages = inputs.messages as f64;
    let good = t.pass_s.len().max(1) as f64;
    let wall_us = t.pass_s.iter().sum::<f64>() * 1e6;
    let analyze_us: Vec<f64> = tracer
        .durations_ns("core.analyzer.analyze")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    let percentile = |p| {
        if analyze_us.is_empty() {
            0.0
        } else {
            stats::percentile(&analyze_us, p)
        }
    };
    let core_msgs = messages * core.passes;
    let mut out = vec![
        Metric::timing(tracer, "core.anomaly.scan_ns_per_msg", core_msgs),
        Metric::timing(tracer, "core.analyzer.ingest_ns_per_msg", core_msgs),
        Metric::single(
            "core.window.freezes",
            "count",
            analyze_us.len() as f64 / core.passes,
        ),
        Metric::single("core.analyzer.analyze_us_p50", "us", percentile(50.0)),
        Metric::single("core.analyzer.analyze_us_p99", "us", percentile(99.0)),
        Metric::single(
            "core.detect.busy_share",
            "ratio",
            share(core.stages.sum_us[Stage::Detect as usize], core.wall_us),
        ),
        Metric::single(
            "core.match.busy_share",
            "ratio",
            share(core.stages.sum_us[Stage::Match as usize], core.wall_us),
        ),
        Metric::single(
            "core.rca.busy_share",
            "ratio",
            share(core.stages.sum_us[Stage::Rca as usize], core.wall_us),
        ),
        Metric::single(
            "netcap.channel_ops_per_msg",
            "ratio",
            t.path.channel_ops as f64 / t.path.frames.max(1) as f64,
        ),
        Metric::single(
            "core.recover.checkpoints",
            "count",
            t.path.checkpoints as f64,
        ),
        Metric::single(
            "core.recover.replayed_frames",
            "count",
            t.path.replayed_frames as f64,
        ),
        Metric::timing(tracer, "core.graph.attribute_us", core.passes),
        Metric::timing(tracer, "telemetry.build_us", core.passes),
        Metric::single("store_bytes_per_msg", "B", t.store_bytes as f64 / messages),
    ];
    for stage in Stage::ALL {
        let i = stage as usize;
        let prefix = format!("obs.stage.{}", stage.name());
        out.push(Metric::single(
            &format!("{prefix}.busy_share"),
            "ratio",
            share(t.stages.sum_us[i], wall_us),
        ));
        out.push(Metric::single(
            &format!("{prefix}.events"),
            "count",
            t.stages.events[i] as f64 / good,
        ));
    }
    let accounted = if inputs.workload.is_inline() {
        trace::accounted_share(tracer.spans())
    } else {
        // Threaded paths are not driven layer by layer from here; their
        // stages' own busy time, summed over threads, stands in (reported,
        // not gated).
        share(t.stages.sum_us.iter().sum(), wall_us)
    };
    out.extend([
        Metric::single(
            "alloc.count_per_msg",
            "count",
            t.allocs as f64 / (messages * good),
        ),
        Metric::single(
            "alloc.bytes_per_msg",
            "B",
            t.alloc_bytes as f64 / (messages * good),
        ),
        Metric::single("trace.accounted_share", "ratio", accounted),
    ]);
    out
}

/// Measure `job` in this process and return its record. `traced` says which
/// binary this is.
pub fn measure(job: &Job, traced: bool) -> WorkloadRecord {
    let name = job.workload.name();
    let sizes = if job.check { Sizes::CHECK } else { Sizes::FULL };
    std::fs::create_dir_all(&job.store_dir).expect("create the store directory");

    // Set-up, several times over so that its time is a median. The traced
    // binary does not report it and sets up once.
    let setting_up = Instant::now();
    let mut setup_s = Vec::new();
    let mut built = None;
    loop {
        drop(built.take());
        let started = Instant::now();
        let inputs = Inputs::build(job.workload, job.seed, sizes);
        let reference = Reference::compute(&inputs);
        setup_s.push(started.elapsed().as_secs_f64());
        built = Some((inputs, reference));
        let enough =
            setup_s.len() >= MIN_SETUPS && setting_up.elapsed().as_secs_f64() >= SETUP_SECONDS;
        if job.check || traced || enough || setup_s.len() >= MAX_SETUPS {
            break;
        }
    }
    let (inputs, reference) = built.expect("at least one set-up");
    let messages = inputs.messages as f64;
    println!(
        "{name}: {} msgs/pass, {} reference diagnoses, digest {:016x}",
        inputs.messages,
        reference.keys.len(),
        reference.digest
    );

    let mut tracer = Tracer::new(traced);
    let mut metrics = Vec::new();
    let mut extra_stages = StageTotals::default();
    let mut extra_wall_us = 0.0;
    if traced {
        metrics = layers::measure(&mut tracer, &inputs, &reference, job.seed, &job.store_dir);
        if !job.workload.is_inline() {
            // The threaded workloads never call the core layer from here;
            // one inline pass over their stream records its spans.
            let started = Instant::now();
            let out = passes::run_inline(&inputs, &mut tracer);
            extra_wall_us = started.elapsed().as_secs_f64() * 1e6;
            extra_stages.add(out.stages.as_ref().expect("a traced pass has a registry"));
        }
    }

    for _ in 0..job.workload.warmup_passes() {
        let warm = checked_pass(
            &inputs,
            &reference,
            &job.store_dir,
            &mut Tracer::new(traced),
        );
        if let Err(why) = warm.result {
            eprintln!("{name}: warm-up pass failed: {why}");
        }
    }
    let t = timed_passes(job, &inputs, &reference, &mut tracer);
    let (pass_ms, rate) = if t.pass_s.is_empty() {
        (Summary::single(0.0), Summary::single(0.0))
    } else {
        let s = Summary::of(&t.pass_s);
        (s.map(|s| s * 1e3), s.map(|s| messages / s))
    };
    let good = t.pass_s.len().max(1) as f64;

    if traced {
        let core = if job.workload.is_inline() {
            CorePasses {
                stages: &t.stages,
                passes: good,
                wall_us: t.pass_s.iter().sum::<f64>() * 1e6,
            }
        } else {
            CorePasses {
                stages: &extra_stages,
                passes: 1.0,
                wall_us: extra_wall_us,
            }
        };
        metrics.extend(pass_layer_metrics(&inputs, &tracer, &t, &core));
        // What tracing cost: this binary's throughput against the untraced
        // binary's on the same workload, seed and duration.
        let untraced = run_child(&sibling_exe("gretel-benchmark"), job, false).and_then(|r| {
            r.metric("msgs_per_s")
                .map(|m| m.value)
                .ok_or("no msgs_per_s".into())
        });
        let overhead = match untraced {
            Ok(untraced) if untraced > 0.0 => 1.0 - rate.median / untraced,
            Ok(_) => 0.0,
            Err(why) => {
                eprintln!("{name}: no untraced run to compare with: {why}");
                0.0
            }
        };
        metrics.push(Metric::single("trace.overhead_share", "ratio", overhead));
    } else {
        metrics.extend([
            Metric::of("setup_s", "s", Summary::of(&setup_s)),
            Metric::of("msgs_per_s", "msgs/s", rate),
            Metric::single("cpu_us_per_msg", "us", t.cpu_s * 1e6 / (messages * good)),
            Metric::single("peak_rss_mb", "MB", host::status_mb("VmHWM")),
            Metric::single("store_bytes_per_msg", "B", t.store_bytes as f64 / messages),
            Metric::single("hit_share", "ratio", reference.hit_share),
            Metric::single("theta_mean", "ratio", reference.theta_mean),
            Metric::single(
                "fail_share",
                "ratio",
                t.failed as f64 / t.attempted.max(1) as f64,
            ),
        ]);
    }
    for m in &metrics {
        let spread = if m.n > 1 {
            format!("  (q1 {:.6}, q3 {:.6}, n {})", m.q1, m.q3, m.n)
        } else {
            String::new()
        };
        println!(
            "{name:<9} {:<40} {:>16.6} {}{spread}",
            m.name, m.value, m.unit
        );
    }

    let tail = stats::highest_supported_percentile(t.pass_s.len());
    let mut record = WorkloadRecord {
        workload: name.to_string(),
        traced,
        messages: inputs.messages as u64,
        warmup_passes: job.workload.warmup_passes() as u64,
        timed_passes: t.pass_s.len() as u64,
        attempted: t.attempted,
        failed: t.failed,
        reference_diagnoses: reference.keys.len() as u64,
        diag_digest: format!("{:016x}", reference.digest),
        pass_ms,
        pass_tail_percentile: tail.unwrap_or(0.0),
        pass_tail_ms: tail.map_or(0.0, |p| stats::percentile(&t.pass_s, p) * 1e3),
        metrics,
    };
    if traced {
        let accounted = record
            .metric("trace.accounted_share")
            .map_or(0.0, |m| m.value);
        if job.workload.is_inline() && accounted < ACCOUNTED_GATE {
            // Spans that lose track of the time are a failed measurement.
            eprintln!("{name}: trace.accounted_share {accounted:.3} is below {ACCOUNTED_GATE}");
            record.failed = record.failed.max(1);
        }
        write_trace(&tracer, name, job.seed);
    }
    record
}

/// `results/trace-<workload>.json`: per-name aggregates and the first raw
/// spans.
fn write_trace(tracer: &Tracer, workload: &str, seed: u64) {
    let dir = results_dir();
    let path = dir.join(format!("trace-{workload}.json"));
    let json = serde_json::to_string(&tracer.to_file(workload, seed)).expect("trace serialises");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!(
            "{name}: spans written to {}",
            path.display(),
            name = workload
        ),
        Err(e) => eprintln!("{workload}: cannot write {}: {e}", path.display()),
    }
}
