//! §3.1.2 / §7.2.2 — API bottleneck: a pure performance fault.
//!
//! ```sh
//! cargo run --release --example perf_bottleneck
//! ```
//!
//! Creating many VMs in parallel succeeds but slows down; log analysis
//! shows nothing (there is no error), and error-triggered tools are never
//! invoked. GRETEL's level-shift detector flags the latency anomaly on
//! the Neutron APIs, fingerprints identify the operation as VM creation,
//! and root cause analysis confirms the CPU surge on the Neutron server.

use gretel::prelude::*;
use gretel::sim::scenario::neutron_api_latency_with_window;
use gretel::sim::secs;
use gretel::telemetry::LevelShiftConfig;

fn main() {
    let catalog = Catalog::openstack();
    let scenario = neutron_api_latency_with_window(&catalog, 42, 120, secs(40), secs(90));
    println!("{}\n", scenario.description);

    // One spec kind (VM create) — learn its fingerprint once.
    let (library, _) = FingerprintLibrary::characterize(
        catalog.clone(),
        &scenario.specs[..1],
        &scenario.deployment,
        3,
        7,
    );

    let exec = scenario.run(catalog.clone());
    // No operation aborted: this is not an operational fault.
    assert!(exec.outcomes.iter().all(|o| !o.aborted));
    println!(
        "all {} operations completed (slowly) — no error anywhere",
        exec.outcomes.len()
    );

    let telemetry = TelemetryStore::from_execution(&exec);
    let p_rate = exec.messages.len() as f64 / (exec.duration.max(1) as f64 / 1e6);
    let cfg = GretelConfig::auto(library.fp_max(), p_rate, 2.0);
    let ls = LevelShiftConfig {
        baseline_window: 20,
        test_window: 4,
        ..Default::default()
    };
    let mut analyzer =
        gretel::core::Analyzer::with_perf_config(&library, cfg, ls, true).with_rca(RcaContext {
            deployment: &scenario.deployment,
            telemetry: &telemetry,
            specs: &scenario.specs,
        });
    let diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());

    let perf: Vec<_> = diagnoses
        .iter()
        .filter(|d| matches!(d.kind, FaultKind::Performance { .. }))
        .collect();
    println!("\n{} performance diagnoses; first:", perf.len());
    if let Some(d) = perf.first() {
        print!("{}", d.render(&scenario.specs));
    }

    let cpu_found = perf.iter().flat_map(|d| &d.root_causes).any(|rc| {
        matches!(
            rc.cause,
            CauseKind::Resource(gretel::sim::ResourceKind::CpuPercent)
        )
    });
    assert!(!perf.is_empty(), "latency anomaly detected");
    assert!(cpu_found, "CPU surge identified");
    println!("\nroot cause confirmed: CPU surge on the Neutron server (paper §7.2.2)");
}
