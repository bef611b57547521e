//! Quickstart: learn fingerprints, break something, let GRETEL find it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The flow mirrors the paper end to end:
//! 1. **Characterize** (offline, §7.1): run each operation in isolation on
//!    the simulated deployment and learn its operational fingerprint.
//! 2. **Break** something: inject an HTTP 500 into Neutron's port-create
//!    API for one VM-create instance among concurrent operations.
//! 3. **Analyze** (online, §5): stream the captured traffic through
//!    GRETEL; it detects the error, freezes a snapshot, identifies the
//!    failed high-level operation, and runs root cause analysis.

use gretel::prelude::*;
use gretel_model::OpInstanceId;

fn main() {
    // ---- 1. Offline characterization -----------------------------------
    let catalog = Catalog::openstack();
    let deployment = Deployment::standard();
    let wf = Workflows::new(catalog.clone());

    // A small operation library: three canonical administrative tasks.
    let specs = vec![
        wf.vm_create_spec(OpSpecId(0)),
        wf.image_upload_spec(OpSpecId(1)),
        wf.cinder_list_spec(OpSpecId(2)),
    ];
    let (library, _) = FingerprintLibrary::characterize(catalog.clone(), &specs, &deployment, 3, 7);
    println!(
        "learned {} fingerprints (largest: {} atoms)",
        library.len(),
        library.fp_max()
    );
    for fp in library.iter() {
        println!("  {} -> {}", specs[fp.op.index()].name, fp.regex_string());
    }

    // ---- 2. Break something --------------------------------------------
    // The paper's running example: POST /v2.0/ports.json fails while a VM
    // is being created (step 6 of §2.1).
    let ports_post = catalog.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
    let plan = FaultPlan::none().with_api_fault(ApiFault {
        api: ports_post,
        scope: FaultScope::Instance(OpInstanceId(0)),
        occurrence: 0,
        error: InjectedError::RestStatus {
            status: 500,
            reason: None,
        },
        abort_op: true,
    });
    let refs: Vec<&OperationSpec> = specs.iter().collect();
    let exec = Runner::new(catalog.clone(), &deployment, &plan, RunConfig::default()).run(&refs);
    println!(
        "\nsimulated {} messages across {} concurrent operations",
        exec.messages.len(),
        refs.len()
    );

    // ---- 3. Online analysis --------------------------------------------
    let telemetry = TelemetryStore::from_execution(&exec);
    // The paper's default window (α = 768) comfortably covers this small
    // run; `GretelConfig::auto` would derive α from the observed packet
    // rate instead (see the bench binaries).
    let cfg = GretelConfig::default();
    let mut analyzer = Analyzer::new(&library, cfg).with_rca(RcaContext {
        deployment: &deployment,
        telemetry: &telemetry,
        specs: &specs,
    });
    let diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());

    println!("\n{} diagnosis/es:", diagnoses.len());
    for d in &diagnoses {
        print!("{}", d.render(&specs));
    }
    assert!(
        diagnoses.iter().any(|d| d.matched.contains(&OpSpecId(0))),
        "GRETEL identifies the failed VM create"
    );
    println!(
        "\nGRETEL correctly identified the failed operation: {}",
        specs[0].name
    );
}
