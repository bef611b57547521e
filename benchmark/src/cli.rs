//! Command line of both binaries.
//!
//! ```text
//! gretel-benchmark run      [--seed N] [--seconds S] [--check] [--store-dir DIR]
//! gretel-benchmark workload --workload NAME [--seed N] [--seconds S] [--check] [--store-dir DIR]
//! gretel-benchmark compare  A.json B.json
//! ```
//!
//! `run` measures every workload, each in a child process of its own (so
//! peak memory and CPU time are that workload's alone), and writes a results
//! file. `workload` is that child; it is also what an external driver runs,
//! and its last output line is the driver's result object.

use crate::compare::{self, Verdict};
use crate::host::Host;
use crate::inputs::Workload;
use crate::report::{self, Contract, RunFile, WorkloadRecord, RECORD_PREFIX, SCHEMA};
use crate::runner::{self, Job};
use std::path::PathBuf;
use std::process::exit;

struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    /// `--key value` parsed, `default` when absent; a value that does not
    /// parse is an error, never a silent default.
    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.value(key) {
            None => default,
            Some(raw) => raw
                .parse()
                .unwrap_or_else(|_| fail(&format!("bad value for {key}: {raw}"))),
        }
    }
}

fn fail(why: &str) -> ! {
    eprintln!("gretel-benchmark: {why}");
    exit(2)
}

fn job(args: &Args, contract: &Contract, workload: Workload) -> Job {
    let check = args.flag("--check");
    Job {
        workload,
        seed: args.parsed("--seed", 42),
        // A smoke run makes its one timed pass and stops.
        seconds: args.parsed(
            "--seconds",
            if check {
                0.0
            } else {
                contract.run_seconds as f64
            },
        ),
        check,
        store_dir: args
            .value("--store-dir")
            .map_or_else(std::env::temp_dir, PathBuf::from),
    }
}

fn workload(args: &Args, contract: &Contract, traced: bool) {
    let name = args
        .value("--workload")
        .unwrap_or_else(|| fail("workload needs --workload NAME"));
    let workload = Workload::parse(name).unwrap_or_else(|| fail(&format!("no workload {name}")));
    let record = runner::measure(&job(args, contract, workload), traced);
    println!(
        "{RECORD_PREFIX}{}",
        serde_json::to_string(&record).expect("a record serialises")
    );
    println!("{}", record.driver_line(contract));
}

fn run(args: &Args, contract: &Contract, traced: bool) {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("own path: {e}")));
    let template = job(args, contract, Workload::ALL[0]);
    let mut records: Vec<WorkloadRecord> = Vec::new();
    for workload in Workload::ALL {
        let job = Job {
            workload,
            ..template.clone()
        };
        records.push(runner::run_child(&exe, &job, true).unwrap_or_else(|why| fail(&why)));
        if job.check && !traced {
            // The smoke run covers both metric lists.
            let sibling = runner::sibling_exe("gretel-benchmark-trace");
            records.push(runner::run_child(&sibling, &job, false).unwrap_or_else(|why| fail(&why)));
        }
    }
    let mut ok = true;
    for r in records.iter().filter(|r| !r.correct()) {
        eprintln!(
            "{}: {} of {} diagnoses failed the reference check",
            r.workload, r.failed, r.attempted
        );
        ok = false;
    }
    if template.check {
        let problems = report::contract_violations(contract, &records);
        for p in &problems {
            eprintln!("{p}");
        }
        ok &= problems.is_empty();
        println!(
            "check {}: {} records against BENCHMARK.json",
            if ok { "ok" } else { "FAILED" },
            records.len()
        );
    } else {
        let file = RunFile {
            schema: SCHEMA.to_string(),
            traced,
            seed: template.seed,
            seconds: template.seconds,
            host: Host::probe(&template.store_dir),
            workloads: records,
        };
        let dir = runner::results_dir();
        let kind = if traced { "layers" } else { "run" };
        let path = dir.join(format!("{kind}-{}.json", template.seed));
        let json = serde_json::to_string_pretty(&file).expect("a results file serialises");
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, json + "\n"))
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
        println!("results written to {}", path.display());
    }
    if !ok {
        exit(1);
    }
}

fn read_run_file(path: &str) -> RunFile {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let file: RunFile = serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(&format!("{path} does not parse: {e}")));
    if file.schema != SCHEMA {
        fail(&format!(
            "{path} has schema {:?}, this binary reads {SCHEMA:?}",
            file.schema
        ));
    }
    file
}

fn compare_files(args: &Args, contract: &Contract) {
    let (Some(a), Some(b)) = (args.0.get(1), args.0.get(2)) else {
        fail("compare needs two results files")
    };
    let (a, b) = (read_run_file(a), read_run_file(b));
    let rows = compare::compare(contract, &a, &b);
    print!("{}", compare::render(&rows));
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} ok, {} unresolved, {} worse  (A {} seed {}, B {} seed {})",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Worse),
        a.host.git_sha,
        a.seed,
        b.host.git_sha,
        b.seed,
    );
    if count(Verdict::Worse) > 0 {
        exit(1);
    }
}

/// Entry point of both binaries; `traced` says which one this is.
pub fn main(traced: bool) {
    let args = Args(std::env::args().skip(1).collect());
    let contract = Contract::load();
    match args.0.first().map(String::as_str) {
        Some("run") => run(&args, &contract, traced),
        Some("workload") => workload(&args, &contract, traced),
        Some("compare") => compare_files(&args, &contract),
        _ => fail("usage: gretel-benchmark run|workload|compare (see benchmark/README.md)"),
    }
}
