//! Integration: failure-propagation cascades through the full pipeline.
//!
//! The state-graph post-pass must (a) name the root service of a cascade
//! and mark downstream failures as symptoms, (b) never promote a service
//! to root when the only evidence from its fault window is stale
//! telemetry, and (c) leave non-cascade runs byte-identical to the flat
//! RCA path.

use std::sync::Arc;

use gretel::core::graph::{attribute_cascades, Attribution, CascadeParams};
use gretel::prelude::*;
use gretel::sim::cascade::{cinder_crash_cascade, partition_split_cascade, CascadeScenario};
use gretel::sim::scenario::{failed_image_upload, rabbitmq_outage};
use gretel::sim::secs;
use gretel::telemetry::TelemetryStore;

/// Run a cascade scenario through the full pipeline and return its
/// diagnoses *after* the graph post-pass, serialized alongside.
fn diagnose(
    sc: &CascadeScenario,
    catalog: &Arc<Catalog>,
    telemetry_cutoff: Option<(gretel::model::NodeId, u64)>,
) -> Vec<Diagnosis> {
    let (library, _) =
        FingerprintLibrary::characterize(catalog.clone(), &sc.specs, &sc.deployment, 2, 7);
    let exec = sc.run(catalog.clone());
    // Optionally silence one node's telemetry from a cutoff on: the node
    // keeps running (and failing) but its collectd stream goes dark.
    let telemetry = match telemetry_cutoff {
        Some((node, cutoff)) => {
            let resources: Vec<_> = exec
                .resources
                .iter()
                .filter(|s| s.node != node || s.ts < cutoff)
                .cloned()
                .collect();
            let watchers: Vec<_> = exec
                .watchers
                .iter()
                .filter(|w| w.node != node || w.ts < cutoff)
                .cloned()
                .collect();
            TelemetryStore::from_samples(&resources, &watchers)
        }
        None => TelemetryStore::from_execution(&exec),
    };
    let mut analyzer = Analyzer::new(&library, GretelConfig::default()).with_rca(RcaContext {
        deployment: &sc.deployment,
        telemetry: &telemetry,
        specs: &sc.specs,
    });
    let mut diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());
    attribute_cascades(
        &mut diagnoses,
        analyzer.traffic_graph(),
        catalog,
        CascadeParams::default(),
    );
    diagnoses
}

fn roots_of(diagnoses: &[Diagnosis]) -> Vec<Service> {
    let mut out: Vec<Service> = diagnoses
        .iter()
        .filter_map(|d| match &d.attribution {
            Some(Attribution::Root { service, .. }) => Some(*service),
            _ => None,
        })
        .collect();
    out.sort_by_key(|s| s.index());
    out.dedup();
    out
}

#[test]
fn cinder_crash_cascade_names_cinder_root_and_nova_symptom() {
    let catalog = Catalog::openstack();
    let sc = cinder_crash_cascade(&catalog, 42);
    let diagnoses = diagnose(&sc, &catalog, None);

    assert_eq!(
        roots_of(&diagnoses),
        vec![Service::Cinder],
        "the crashed service is the root"
    );
    let symptom = diagnoses
        .iter()
        .find_map(|d| match &d.attribution {
            Some(Attribution::Symptom {
                service: Service::Nova,
                of,
                evidence,
            }) => Some((*of, evidence.clone())),
            _ => None,
        })
        .expect("Nova's attach failures are marked as symptoms");
    assert_eq!(symptom.0, Service::Cinder);
    assert!(
        !symptom.1.is_empty(),
        "symptom carries an observed-traffic evidence chain"
    );
    assert!(
        symptom
            .1
            .iter()
            .any(|h| h.from == Service::Nova && h.to == Service::Cinder),
        "evidence walks the mined Nova->Cinder edge"
    );
    // No Nova diagnosis claims to be a root.
    assert!(diagnoses.iter().all(|d| {
        !matches!(
            &d.attribution,
            Some(Attribution::Root {
                service: Service::Nova,
                ..
            })
        )
    }));
}

#[test]
fn partition_cascade_attributes_root_with_all_nodes_healthy() {
    // A partial partition defeats flat RCA entirely (both processes up,
    // resources nominal, watchers green): the far side's diagnoses carry
    // no flat causes. The graph walk must still name it as root.
    let catalog = Catalog::openstack();
    let sc = partition_split_cascade(&catalog, 42);
    let diagnoses = diagnose(&sc, &catalog, None);

    assert_eq!(roots_of(&diagnoses), sc.truth.root_services());
    assert!(diagnoses.iter().any(|d| matches!(
        &d.attribution,
        Some(Attribution::Symptom {
            service: Service::Nova,
            of: Service::Cinder,
            ..
        })
    )));
}

#[test]
fn telemetry_silent_node_reports_stale_and_is_never_promoted_to_root() {
    // Satellite regression: the controller node (Nova's host) goes
    // telemetry-silent mid-run while the partition cascade unfolds. The
    // secondary (Nova) diagnoses must say "stale telemetry" rather than
    // "no cause", and *no* service may be promoted to cascade root on the
    // strength of missing data alone.
    let catalog = Catalog::openstack();
    let sc = partition_split_cascade(&catalog, 42);
    let controller = sc.deployment.node_of(Service::Nova, 0);
    let diagnoses = diagnose(&sc, &catalog, Some((controller, secs(15))));

    let nova_diags: Vec<&Diagnosis> = diagnoses
        .iter()
        .filter(|d| catalog.get(d.api).service == Service::Nova)
        .collect();
    assert!(!nova_diags.is_empty(), "secondary faults still diagnosed");
    assert!(
        nova_diags.iter().all(|d| !d.root_causes.is_empty()),
        "silent telemetry must not degrade to 'no cause identified'"
    );
    assert!(
        nova_diags.iter().any(|d| d
            .root_causes
            .iter()
            .any(|rc| matches!(rc.cause, CauseKind::StaleTelemetry { .. }))),
        "the silent node is reported as stale"
    );
    assert!(
        diagnoses
            .iter()
            .all(|d| !matches!(&d.attribution, Some(Attribution::Root { .. }))),
        "stale-only evidence never anchors a cascade root"
    );
}

#[test]
fn non_cascade_scenarios_serialize_byte_identically_to_the_flat_path() {
    // The graph post-pass must be invisible on single-fault runs: same
    // diagnoses, same bytes.
    let catalog = Catalog::openstack();
    for sc in [
        failed_image_upload(&catalog, 1, 4),
        rabbitmq_outage(&catalog, 9, 4),
    ] {
        let (library, _) =
            FingerprintLibrary::characterize(catalog.clone(), &sc.specs, &sc.deployment, 2, 7);
        let exec = sc.run(catalog.clone());
        let telemetry = TelemetryStore::from_execution(&exec);
        let mut analyzer = Analyzer::new(&library, GretelConfig::default()).with_rca(RcaContext {
            deployment: &sc.deployment,
            telemetry: &telemetry,
            specs: &sc.specs,
        });
        let mut diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());
        let flat = serde_json::to_string(&diagnoses).unwrap();
        attribute_cascades(
            &mut diagnoses,
            analyzer.traffic_graph(),
            &catalog,
            CascadeParams::default(),
        );
        let graphed = serde_json::to_string(&diagnoses).unwrap();
        assert_eq!(
            flat, graphed,
            "graph pass changed the report for {}",
            sc.name
        );
    }
}

#[test]
fn cascade_diagnosis_replay_is_deterministic() {
    let catalog = Catalog::openstack();
    let runs: Vec<String> = (0..2)
        .map(|_| {
            let sc = cinder_crash_cascade(&catalog, 7);
            serde_json::to_string(&diagnose(&sc, &catalog, None)).unwrap()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
}
