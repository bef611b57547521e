//! The distributed monitoring pipeline (paper Fig 3), threaded.
//!
//! ```sh
//! cargo run --release --example threaded_pipeline
//! ```
//!
//! One capture-agent thread per node encodes its egress traffic into
//! frames; the event receiver k-way-merges the agent streams back into
//! one ordered stream and drives the analyzer — the deployment shape the
//! paper's Bro + Broccoli + analyzer service has.

use gretel::core::{run_service_cfg, ServiceConfig};
use gretel::model::OpInstanceId;
use gretel::prelude::*;

fn main() {
    let catalog = Catalog::openstack();
    let deployment = Deployment::standard();
    let wf = Workflows::new(catalog.clone());

    // Twenty concurrent operations; one of them will fail.
    let mut specs: Vec<OperationSpec> = Vec::new();
    for i in 0..20u16 {
        let mut s = match i % 3 {
            0 => wf.vm_create_spec(OpSpecId(i)),
            1 => wf.image_upload_spec(OpSpecId(i)),
            _ => wf.cinder_list_spec(OpSpecId(i)),
        };
        s.id = OpSpecId(i);
        specs.push(s);
    }
    let kinds = vec![
        wf.vm_create_spec(OpSpecId(0)),
        wf.image_upload_spec(OpSpecId(1)),
        wf.cinder_list_spec(OpSpecId(2)),
    ];
    let (library, _) = FingerprintLibrary::characterize(catalog.clone(), &kinds, &deployment, 3, 7);

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
    let exec = Runner::new(catalog, &deployment, &plan, RunConfig::default()).run(&refs);

    // Run the Fig-3 pipeline: 7 agent threads -> merge -> analyzer.
    let nodes: Vec<_> = deployment.nodes().iter().map(|n| n.id).collect();
    let mut analyzer = Analyzer::new(&library, GretelConfig::default());
    let scfg = ServiceConfig {
        channel_capacity: 256,
        ..ServiceConfig::default()
    };
    let (diagnoses, svc, stats) = run_service_cfg(&mut analyzer, &nodes, &exec.messages, &scfg);

    println!(
        "{} agents shipped {} frames ({} KB) to the analyzer; {} messages processed",
        nodes.len(),
        svc.frames,
        svc.bytes / 1024,
        stats.messages
    );
    println!("{} diagnosis/es:", diagnoses.len());
    for d in &diagnoses {
        print!("{}", d.render(&kinds));
    }
    assert!(
        diagnoses.iter().any(|d| d.matched.contains(&OpSpecId(0))),
        "the failed VM create is identified through the threaded pipeline"
    );
    println!("\nthreaded pipeline reached the same diagnosis as inline analysis.");
}
