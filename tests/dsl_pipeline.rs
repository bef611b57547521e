//! Integration: DSL-defined operations flow through the whole stack —
//! parse → validate → incremental characterization → execution → fault
//! detection — and are disambiguated from built-in operations that share
//! APIs.

use gretel::model::{parse_dsl, OpInstanceId};
use gretel::prelude::*;

const DOC: &str = r#"
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

#[test]
fn dsl_operation_is_learned_and_diagnosed() {
    let catalog = Catalog::openstack();
    let deployment = Deployment::standard();
    let wf = Workflows::new(catalog.clone());

    let mut specs = vec![
        wf.vm_create_spec(OpSpecId(0)),
        wf.image_upload_spec(OpSpecId(1)),
    ];
    let (mut library, _) =
        FingerprintLibrary::characterize(catalog.clone(), &specs, &deployment, 2, 7);

    let custom = parse_dsl(&catalog, DOC, OpSpecId(2)).expect("DSL parses");
    assert_eq!(custom.len(), 1);
    assert!(custom[0].validate(&catalog).is_empty());
    library.extend_characterize(&custom, &deployment, 2, 11);
    specs.extend(custom);
    assert_eq!(library.len(), 3);

    // Fault the custom op on an API that the image-upload op ALSO uses:
    // disambiguation must come from the preceding context.
    let put_file = catalog.rest_expect(Service::Glance, HttpMethod::Put, "/v2/images/{id}/file");
    assert!(library.candidates(put_file).contains(&OpSpecId(1)));
    assert!(library.candidates(put_file).contains(&OpSpecId(2)));

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
    let d = diagnoses
        .iter()
        .find(|d| {
            matches!(
                d.kind,
                FaultKind::Operational {
                    status: Some(413),
                    ..
                }
            )
        })
        .expect("413 diagnosed");
    assert!(d.matched.contains(&OpSpecId(2)), "matched {:?}", d.matched);
    assert!(
        !d.matched.contains(&OpSpecId(1)),
        "the image upload shares the API but not the context"
    );
}

#[test]
fn dsl_rejects_operations_with_unknown_apis() {
    let catalog = Catalog::openstack();
    let bad = "operation x compute\n  horizon -> nova: POST /v9/does-not-exist\n";
    let e = parse_dsl(&catalog, bad, OpSpecId(0)).unwrap_err();
    assert_eq!(e.line, 2);
}
