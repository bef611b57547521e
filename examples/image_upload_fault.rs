//! §7.2.1 — Failed image uploads, end to end.
//!
//! ```sh
//! cargo run --release --example image_upload_fault
//! ```
//!
//! Horizon shows "Unable to create new image"; the Glance logs are empty.
//! GRETEL sees the REST 413 on `PUT /v2/images/{id}/file`, narrows the
//! fault to the image-upload operation, and root cause analysis finds the
//! nearly-full disk on the Glance server.

use gretel::prelude::*;
use gretel::sim::scenario::failed_image_upload;

fn main() {
    let catalog = Catalog::openstack();
    let scenario = failed_image_upload(&catalog, 42, 6);
    println!("{}\n", scenario.description);

    // Learn fingerprints for the operations this deployment runs.
    let (library, _) = FingerprintLibrary::characterize(
        catalog.clone(),
        &scenario.specs,
        &scenario.deployment,
        3,
        7,
    );

    // Run the scenario and analyze the captured traffic + telemetry.
    let exec = scenario.run(catalog.clone());
    let telemetry = TelemetryStore::from_execution(&exec);
    let p_rate = exec.messages.len() as f64 / (exec.duration.max(1) as f64 / 1e6);
    let cfg = GretelConfig::auto(library.fp_max(), p_rate, 2.0);
    let mut analyzer = Analyzer::new(&library, cfg).with_rca(RcaContext {
        deployment: &scenario.deployment,
        telemetry: &telemetry,
        specs: &scenario.specs,
    });
    let diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());

    for d in &diagnoses {
        print!("{}", d.render(&scenario.specs));
    }

    let found_disk = diagnoses.iter().flat_map(|d| &d.root_causes).any(|rc| {
        matches!(
            rc.cause,
            CauseKind::Resource(gretel::sim::ResourceKind::DiskFreeGb)
        )
    });
    assert!(found_disk, "root cause analysis finds the full disk");
    println!("\nroot cause confirmed: low free disk on the Glance server (paper §7.2.1)");
}
