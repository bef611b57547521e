//! §3.1.3 — Multiple parallel operations: find the one that failed.
//!
//! ```sh
//! cargo run --release --example parallel_operations
//! ```
//!
//! Sixty concurrent operations (a realistic mix) run at once; exactly one
//! VM create fails. GRETEL pinpoints the faulty operation from its
//! snapshot in sub-second stream time; HANSEL, run on the same capture,
//! stitches a chain through shared identifiers and sits on the report for
//! its 30-second bucket window.

use gretel::hansel::{Hansel, HanselConfig};
use gretel::model::OpInstanceId;
use gretel::prelude::*;

fn main() {
    let catalog = Catalog::openstack();
    let deployment = Deployment::standard();
    let wf = Workflows::new(catalog.clone());

    // A mixed fleet: instance 0 is the one that will fail.
    let mut specs: Vec<OperationSpec> = Vec::new();
    for i in 0..60u16 {
        let mut s = match i % 4 {
            0 => wf.vm_create_spec(OpSpecId(i)),
            1 => wf.image_upload_spec(OpSpecId(i)),
            2 => wf.cinder_list_spec(OpSpecId(i)),
            _ => wf.vm_create_spec(OpSpecId(i)),
        };
        s.id = OpSpecId(i);
        s.name = format!("{}#{}", s.name, i);
        specs.push(s);
    }
    // Library over the distinct operation *kinds*.
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
    let exec = Runner::new(catalog.clone(), &deployment, &plan, RunConfig::default()).run(&refs);
    let failed = exec.outcomes.iter().filter(|o| o.aborted).count();
    println!(
        "{} concurrent operations, {} failed, {} messages captured",
        refs.len(),
        failed,
        exec.messages.len()
    );

    // GRETEL.
    let p_rate = exec.messages.len() as f64 / (exec.duration.max(1) as f64 / 1e6);
    let auto = GretelConfig::auto(library.fp_max(), p_rate, 2.0);
    // Never go below the paper's default window.
    let cfg = GretelConfig {
        alpha: auto.alpha.max(768),
        ..auto
    };
    let mut analyzer = Analyzer::new(&library, cfg);
    let mut gretel_latency_us: Option<u64> = None;
    let mut hit = false;
    for m in &exec.messages {
        for d in analyzer.process(m) {
            if matches!(d.kind, FaultKind::Operational { .. }) && gretel_latency_us.is_none() {
                gretel_latency_us = Some(m.ts_us.saturating_sub(d.ts));
                hit |= d.matched.contains(&OpSpecId(0));
                println!("\nGRETEL diagnosis:");
                print!("{}", d.render(&kinds));
            }
        }
    }
    for d in analyzer.finish() {
        if matches!(d.kind, FaultKind::Operational { .. }) && gretel_latency_us.is_none() {
            hit |= d.matched.contains(&OpSpecId(0));
            println!("\nGRETEL diagnosis (at stream end):");
            print!("{}", d.render(&kinds));
        }
    }
    assert!(
        hit,
        "GRETEL identified the failed VM create among 60 parallel ops"
    );

    // HANSEL on the same capture.
    let mut hansel = Hansel::new(HanselConfig::default());
    let mut reports = Vec::new();
    for m in &exec.messages {
        reports.extend(hansel.process(m));
    }
    reports.extend(hansel.finish());
    if let Some(r) = reports.first() {
        println!(
            "\nHANSEL: chain of {} messages, reported {:.1}s after the error \
             (bucket window)",
            r.chain.len(),
            r.latency_us() as f64 / 1e6
        );
    }
    if let Some(lat) = gretel_latency_us {
        println!(
            "GRETEL: named the operation {:.2}s after the error",
            lat as f64 / 1e6
        );
    }
}
