//! Integration: the §3.1 / §7.2 case studies reach the paper's root
//! causes through the full pipeline.

use gretel::prelude::*;
use gretel::sim::scenario::{
    failed_image_upload, linuxbridge_crash, mysql_outage, neutron_api_latency,
    no_compute_available, ntp_failure, rabbitmq_outage, Scenario,
};
use gretel::sim::ExpectedCause;
use gretel::telemetry::LevelShiftConfig;

fn root_cause_found(sc: &Scenario, catalog: &std::sync::Arc<Catalog>) -> bool {
    let (library, _) =
        FingerprintLibrary::characterize(catalog.clone(), &sc.specs, &sc.deployment, 2, 7);
    let exec = sc.run(catalog.clone());
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
    diagnoses
        .iter()
        .flat_map(|d| &d.root_causes)
        .any(|rc| match &sc.expected_cause {
            ExpectedCause::Resource(node, kind) => {
                rc.node == *node && matches!(&rc.cause, CauseKind::Resource(k) if k == kind)
            }
            ExpectedCause::Dependency(node, dep) => {
                rc.node == *node && matches!(&rc.cause, CauseKind::Dependency(d) if d == dep)
            }
        })
}

#[test]
fn failed_image_upload_finds_full_disk() {
    let catalog = Catalog::openstack();
    assert!(root_cause_found(
        &failed_image_upload(&catalog, 1, 4),
        &catalog
    ));
}

#[test]
fn neutron_latency_finds_cpu_surge() {
    let catalog = Catalog::openstack();
    assert!(root_cause_found(
        &neutron_api_latency(&catalog, 2, 60),
        &catalog
    ));
}

#[test]
fn linuxbridge_crash_finds_dead_agent() {
    let catalog = Catalog::openstack();
    assert!(root_cause_found(
        &linuxbridge_crash(&catalog, 3, 4),
        &catalog
    ));
}

#[test]
fn ntp_failure_found_upstream_of_the_error() {
    let catalog = Catalog::openstack();
    assert!(root_cause_found(&ntp_failure(&catalog, 4, 4), &catalog));
}

#[test]
fn no_compute_available_finds_dead_nova_compute() {
    let catalog = Catalog::openstack();
    assert!(root_cause_found(
        &no_compute_available(&catalog, 5, 4),
        &catalog
    ));
}

#[test]
fn mysql_outage_finds_unreachable_database() {
    let catalog = Catalog::openstack();
    assert!(root_cause_found(&mysql_outage(&catalog, 6, 4), &catalog));
}

#[test]
fn rabbitmq_outage_finds_unreachable_broker() {
    let catalog = Catalog::openstack();
    assert!(root_cause_found(&rabbitmq_outage(&catalog, 7, 4), &catalog));
}

#[test]
fn limitation5_interference_names_the_operation_but_finds_no_cause() {
    use gretel::sim::scenario::interfering_operations;
    // The honest negative: GRETEL identifies WHAT failed but — as the
    // paper's Limitation 5 states — cannot explain faults caused by
    // causally interfering operations, because no node state is anomalous.
    let catalog = Catalog::openstack();
    let sc = interfering_operations(&catalog, 9, 3);
    let (library, _) =
        FingerprintLibrary::characterize(catalog.clone(), &sc.specs, &sc.deployment, 2, 7);
    let exec = sc.run(catalog.clone());
    let telemetry = TelemetryStore::from_execution(&exec);
    let mut analyzer =
        gretel::core::Analyzer::new(&library, GretelConfig::default()).with_rca(RcaContext {
            deployment: &sc.deployment,
            telemetry: &telemetry,
            specs: &sc.specs,
        });
    let diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());
    let d = diagnoses
        .iter()
        .find(|d| {
            matches!(
                d.kind,
                FaultKind::Operational {
                    status: Some(404),
                    ..
                }
            )
        })
        .expect("the 404 is diagnosed");
    assert!(
        d.matched.contains(&OpSpecId(0)),
        "the failed operation is named"
    );
    assert!(
        d.root_causes.is_empty(),
        "but no node-state root cause exists: {:?}",
        d.root_causes
    );
}
