//! Define a custom operation in the DSL, learn its fingerprint
//! incrementally, and let GRETEL diagnose a fault in it.
//!
//! ```sh
//! cargo run --release --example custom_operation
//! ```
//!
//! This exercises two of the paper's limitations head-on: Limitation 4
//! (coverage is predicated on the test suite — here we *add* an operation
//! Tempest does not cover) and Limitation 7 (new operations require new
//! fingerprints — learned incrementally, no retraining).

use gretel::model::{parse_dsl, OpInstanceId};
use gretel::prelude::*;

const CUSTOM_OPS: &str = r#"
# A composite workload our integration suite does not cover:
# boot a VM, tag it, then snapshot it to a new image.
operation compute.boot_tag_snapshot compute
  horizon -> nova: POST /v2.1/servers [medium, 1024b]
  nova -> nova-compute: rpc build_and_run_instance [boot]
  nova -> neutron: GET /v2.0/networks.json
  nova -> neutron: POST /v2.0/ports.json [medium]
  horizon -> nova: POST /v2.1/servers/{id}/metadata
  horizon -> nova: POST /v2.1/servers/{id}/action [medium]
  nova -> nova-compute: rpc snapshot_instance [boot]
  nova-compute -> glance: POST /v2/images [medium]
  nova-compute -> glance: PUT /v2/images/{id}/file [slow, 1048576b]
"#;

fn main() {
    let catalog = Catalog::openstack();
    let deployment = Deployment::standard();
    let wf = Workflows::new(catalog.clone());

    // Start from an existing library of canonical operations...
    let mut specs = vec![
        wf.vm_create_spec(OpSpecId(0)),
        wf.image_upload_spec(OpSpecId(1)),
    ];
    let (mut library, _) =
        FingerprintLibrary::characterize(catalog.clone(), &specs, &deployment, 3, 7);
    println!("baseline library: {} fingerprints", library.len());

    // ...then add the DSL-defined operation incrementally (Limitation 7).
    let custom = parse_dsl(&catalog, CUSTOM_OPS, OpSpecId(2)).expect("DSL parses");
    library.extend_characterize(&custom, &deployment, 3, 11);
    specs.extend(custom);
    println!(
        "extended library: {} fingerprints; new regex: {}",
        library.len(),
        library.get(OpSpecId(2)).regex_string()
    );

    // Break the custom operation: the snapshot upload to Glance fails.
    let put_file = catalog.rest_expect(Service::Glance, HttpMethod::Put, "/v2/images/{id}/file");
    let plan = FaultPlan::none().with_api_fault(ApiFault {
        api: put_file,
        scope: FaultScope::Instance(OpInstanceId(2)),
        occurrence: 0,
        error: InjectedError::RestStatus {
            status: 413,
            reason: None,
        },
        abort_op: true,
    });
    let refs: Vec<&OperationSpec> = specs.iter().collect();
    let exec = Runner::new(catalog, &deployment, &plan, RunConfig::default()).run(&refs);

    let mut analyzer = Analyzer::new(&library, GretelConfig::default());
    let diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());
    for d in &diagnoses {
        print!("{}", d.render(&specs));
    }
    let hit = diagnoses.iter().any(|d| d.matched.contains(&OpSpecId(2)));
    assert!(hit, "the custom operation is identified");
    println!("\nGRETEL identified the DSL-defined operation as the failed task.");
}
