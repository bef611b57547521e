//! `gretel` — command-line front end.
//!
//! ```text
//! gretel suite [--seed N]                 print suite characterization
//! gretel fingerprints [--seed N] [--op I] show learned fingerprints
//! gretel scenario <name> [--seed N]       run a canned fault scenario
//! gretel capture <out.pcap> [--seed N]    simulate traffic into a pcap
//! gretel analyze <in.pcap> [--seed N]     analyze a pcap capture
//! gretel define <ops.gretel> [--seed N]   characterize DSL-defined operations
//! gretel timeline <scenario> [--seed N]   print a scenario's message ladder
//! ```
//!
//! Scenario names: `image-upload`, `neutron-latency`, `linuxbridge`,
//! `ntp`, `no-compute`, `mysql`, `rabbitmq`.

use gretel::model::OpSpecId;
use gretel::netcap::pcap;
use gretel::prelude::*;
use gretel::sim::scenario::{self, Scenario};
use gretel::telemetry::LevelShiftConfig;
use std::process::ExitCode;
use std::sync::Arc;

fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn positional(idx: usize) -> Option<String> {
    std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .nth(idx)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: gretel <suite|fingerprints|scenario|capture|analyze|define|timeline> [args]\n\
         see `src/bin/gretel.rs` for details"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let Some(cmd) = positional(0) else {
        return usage();
    };
    let seed: u64 = arg("--seed", 42);
    match cmd.as_str() {
        "suite" => cmd_suite(seed),
        "fingerprints" => cmd_fingerprints(seed),
        "scenario" => match positional(1) {
            Some(name) => cmd_scenario(&name, seed),
            None => usage(),
        },
        "capture" => match positional(1) {
            Some(path) => cmd_capture(&path, seed),
            None => usage(),
        },
        "analyze" => match positional(1) {
            Some(path) => cmd_analyze(&path, seed),
            None => usage(),
        },
        "define" => match positional(1) {
            Some(path) => cmd_define(&path, seed),
            None => usage(),
        },
        "timeline" => match positional(1) {
            Some(name) => cmd_timeline(&name, seed),
            None => usage(),
        },
        _ => usage(),
    }
}

fn cmd_timeline(name: &str, seed: u64) -> ExitCode {
    let catalog = Catalog::openstack();
    let Some(sc) = build_scenario(name, seed, &catalog) else {
        eprintln!("unknown scenario '{name}'");
        return ExitCode::FAILURE;
    };
    let exec = sc.run(catalog.clone());
    println!("== {} ==\n", sc.name);
    println!("{}", gretel::sim::summary(&exec));
    println!("faulty instance ladder:");
    print!(
        "{}",
        gretel::sim::instance_timeline(&exec, &catalog, gretel::model::OpInstanceId(0))
    );
    ExitCode::SUCCESS
}

fn cmd_define(path: &str, seed: u64) -> ExitCode {
    let catalog = Catalog::openstack();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let specs = match gretel::model::parse_dsl(&catalog, &text, OpSpecId(0)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}:{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("parsed {} operation(s); characterizing...", specs.len());
    let deployment = Deployment::standard();
    let (library, _) = FingerprintLibrary::characterize(catalog, &specs, &deployment, 3, seed);
    for fp in library.iter() {
        println!(
            "{}: {} atoms, regex {}",
            specs[fp.op.index()].name,
            fp.len(),
            fp.regex_string()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_suite(seed: u64) -> ExitCode {
    let catalog = Catalog::openstack();
    let suite = TempestSuite::generate(catalog.clone(), seed);
    println!(
        "catalog: {} public REST APIs, {} RPCs; suite: {} tests",
        catalog.public_rest_count(),
        catalog.rpc_count(),
        suite.len()
    );
    for cat in Category::ALL {
        let n = suite.by_category(cat).count();
        let avg: f64 = suite.by_category(cat).map(|s| s.len() as f64).sum::<f64>() / n as f64;
        println!("  {:<8} {:>4} tests, avg {:>5.1} steps", cat.name(), n, avg);
    }
    ExitCode::SUCCESS
}

fn cmd_fingerprints(seed: u64) -> ExitCode {
    let catalog = Catalog::openstack();
    let deployment = Deployment::standard();
    let wf = Workflows::new(catalog.clone());
    let specs = vec![
        wf.vm_create_spec(OpSpecId(0)),
        wf.image_upload_spec(OpSpecId(1)),
        wf.cinder_list_spec(OpSpecId(2)),
    ];
    let (library, _) = FingerprintLibrary::characterize(catalog, &specs, &deployment, 3, seed);
    let op: i64 = arg("--op", -1);
    for fp in library.iter() {
        if op >= 0 && fp.op.index() != op as usize {
            continue;
        }
        println!("{} ({} atoms):", specs[fp.op.index()].name, fp.len());
        println!("  regex: {}", fp.regex_string());
        for atom in &fp.atoms {
            println!(
                "    {}{}",
                library.catalog().get(atom.api).label(),
                if atom.starred { "  [*]" } else { "" }
            );
        }
    }
    ExitCode::SUCCESS
}

fn build_scenario(name: &str, seed: u64, catalog: &Arc<Catalog>) -> Option<Scenario> {
    Some(match name {
        "image-upload" => scenario::failed_image_upload(catalog, seed, 6),
        "neutron-latency" => scenario::neutron_api_latency(catalog, seed, 60),
        "linuxbridge" => scenario::linuxbridge_crash(catalog, seed, 6),
        "ntp" => scenario::ntp_failure(catalog, seed, 6),
        "no-compute" => scenario::no_compute_available(catalog, seed, 6),
        "mysql" => scenario::mysql_outage(catalog, seed, 6),
        "rabbitmq" => scenario::rabbitmq_outage(catalog, seed, 6),
        _ => return None,
    })
}

fn cmd_scenario(name: &str, seed: u64) -> ExitCode {
    let catalog = Catalog::openstack();
    let Some(sc) = build_scenario(name, seed, &catalog) else {
        eprintln!("unknown scenario '{name}'");
        return ExitCode::FAILURE;
    };
    println!("== {} ==\n{}\n", sc.name, sc.description);
    let (library, _) =
        FingerprintLibrary::characterize(catalog.clone(), &sc.specs, &sc.deployment, 2, seed);
    let exec = sc.run(catalog);
    let telemetry = TelemetryStore::from_execution(&exec);
    let ls = LevelShiftConfig {
        baseline_window: 20,
        test_window: 4,
        ..Default::default()
    };
    let mut analyzer =
        gretel::core::Analyzer::with_perf_config(&library, GretelConfig::default(), ls, false)
            .with_rca(RcaContext {
                deployment: &sc.deployment,
                telemetry: &telemetry,
                specs: &sc.specs,
            });
    let diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());
    println!(
        "{} messages analyzed, {} diagnosis/es:\n",
        analyzer.stats().messages,
        diagnoses.len()
    );
    for d in diagnoses.iter().take(5) {
        print!("{}", d.render(&sc.specs));
    }
    ExitCode::SUCCESS
}

fn cmd_capture(path: &str, seed: u64) -> ExitCode {
    let catalog = Catalog::openstack();
    let deployment = Deployment::standard();
    let wf = Workflows::new(catalog.clone());
    let specs = [
        wf.vm_create_spec(OpSpecId(0)),
        wf.image_upload_spec(OpSpecId(1)),
        wf.cinder_list_spec(OpSpecId(2)),
    ];
    let refs: Vec<&OperationSpec> = specs.iter().collect();
    let exec = Runner::new(
        catalog,
        &deployment,
        &FaultPlan::none(),
        RunConfig {
            seed,
            ..RunConfig::default()
        },
    )
    .run(&refs);
    let mut file = match std::fs::File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = pcap::write_capture(&mut file, &exec.messages) {
        eprintln!("write failed: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {} messages to {path}", exec.messages.len());
    ExitCode::SUCCESS
}

fn cmd_analyze(path: &str, seed: u64) -> ExitCode {
    let catalog = Catalog::openstack();
    let deployment = Deployment::standard();
    let wf = Workflows::new(catalog.clone());
    let specs = vec![
        wf.vm_create_spec(OpSpecId(0)),
        wf.image_upload_spec(OpSpecId(1)),
        wf.cinder_list_spec(OpSpecId(2)),
    ];
    let (library, _) = FingerprintLibrary::characterize(catalog, &specs, &deployment, 3, seed);
    let mut file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let messages = match pcap::read_capture(&mut file) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot read capture: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut analyzer = Analyzer::new(&library, GretelConfig::default());
    let diagnoses = analyze_stream(&mut analyzer, messages.iter());
    println!(
        "{} messages, {} diagnosis/es",
        messages.len(),
        diagnoses.len()
    );
    for d in &diagnoses {
        print!("{}", d.render(&specs));
    }
    ExitCode::SUCCESS
}
