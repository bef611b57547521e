//! Canned fault scenarios reproducing the paper's case studies.
//!
//! Each constructor assembles the specs, fault plan and run configuration
//! for one of the §3.1 / §7.2 scenarios and records what a correct root
//! cause analysis should conclude, so integration tests and examples can
//! score GRETEL's diagnosis against ground truth.

use crate::deployment::Deployment;
use crate::engine::{ms, secs, SimTime};
use crate::executor::{Execution, RunConfig, Runner};
use crate::faults::{
    ApiFault, DepFault, FaultPlan, FaultScope, InjectedError, LatencyFault, ResourceFault,
};
use crate::resources::ResourceKind;
use gretel_model::{
    Catalog, Dependency, HttpMethod, NodeId, OpSpecId, OperationSpec, Service, Workflows,
};
use std::sync::Arc;

/// What a correct diagnosis of the scenario looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpectedCause {
    /// An anomalous resource metric on a node.
    Resource(NodeId, ResourceKind),
    /// A failed software dependency on a node.
    Dependency(NodeId, Dependency),
}

/// A fully assembled scenario.
pub struct Scenario {
    /// Short identifier (paper section).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The deployment it runs on.
    pub deployment: Deployment,
    /// The specs executed (faulty ones first).
    pub specs: Vec<OperationSpec>,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Executor configuration.
    pub config: RunConfig,
    /// Name of the spec(s) expected to be diagnosed as failed.
    pub expected_failed_spec: String,
    /// Ground-truth root cause.
    pub expected_cause: ExpectedCause,
}

impl Scenario {
    /// Run the scenario to completion.
    pub fn run(&self, catalog: Arc<Catalog>) -> Execution {
        let refs: Vec<&OperationSpec> = self.specs.iter().collect();
        Runner::new(catalog, &self.deployment, &self.plan, self.config).run(&refs)
    }
}

fn background_specs(wf: &Workflows, n: usize, first_id: u16) -> Vec<OperationSpec> {
    // A rotating mix of healthy operations to run alongside the faulty one.
    let motifs: [(&str, Vec<gretel_model::Step>); 4] = [
        ("compute.vm_create.bg", wf.vm_create()),
        ("network.router_create.bg", wf.router_create()),
        ("storage.volume_create.bg", wf.volume_create()),
        ("image.image_list.bg", wf.image_list()),
    ];
    (0..n)
        .map(|i| {
            let (name, steps) = &motifs[i % motifs.len()];
            OperationSpec {
                id: OpSpecId(first_id + i as u16),
                name: format!("{name}.{i}"),
                category: gretel_model::Category::Compute,
                steps: steps.clone(),
            }
        })
        .collect()
}

/// §7.2.1 — Failed image uploads: Glance returns 413 on `PUT
/// /v2/images/{id}/file` because the image node's disk is (nearly) full.
pub fn failed_image_upload(catalog: &Arc<Catalog>, seed: u64, background: usize) -> Scenario {
    let wf = Workflows::new(catalog.clone());
    let deployment = Deployment::standard();
    let image_node = deployment.node_of(Service::Glance, 0);

    let mut specs = vec![wf.image_upload_spec(OpSpecId(0))];
    specs.extend(background_specs(&wf, background, 1));

    let put_file = catalog.rest_expect(Service::Glance, HttpMethod::Put, "/v2/images/{id}/file");
    let plan = FaultPlan::none()
        .with_resource(ResourceFault {
            node: image_node,
            kind: ResourceKind::DiskFreeGb,
            value: 0.2,
            from: 0,
            until: SimTime::MAX,
        })
        .with_api_fault(ApiFault {
            api: put_file,
            scope: FaultScope::Instance(gretel_model::OpInstanceId(0)),
            occurrence: 0,
            error: InjectedError::RestStatus {
                status: 413,
                reason: Some("Request Entity Too Large".into()),
            },
            abort_op: true,
        });

    Scenario {
        name: "7.2.1-failed-image-upload",
        description:
            "Image upload fails with REST 413; root cause is low free disk on the Glance server",
        deployment,
        specs,
        plan,
        config: RunConfig {
            seed,
            ..RunConfig::default()
        },
        expected_failed_spec: "image.upload.canonical".into(),
        expected_cause: ExpectedCause::Resource(image_node, ResourceKind::DiskFreeGb),
    }
}

/// §7.2.2 / §3.1.2 — Neutron API latency increase: under heavy concurrent
/// VM creation the Neutron server's CPU surges and its APIs slow down.
/// The operations *succeed* — this is a pure performance fault.
pub fn neutron_api_latency(catalog: &Arc<Catalog>, seed: u64, concurrency: usize) -> Scenario {
    neutron_api_latency_with_window(catalog, seed, concurrency, secs(30), secs(75))
}

/// [`neutron_api_latency`] with an explicit surge window. Enough
/// operations must complete *before* the surge for the level-shift
/// detector to establish its baseline.
pub fn neutron_api_latency_with_window(
    catalog: &Arc<Catalog>,
    seed: u64,
    concurrency: usize,
    surge_from: SimTime,
    surge_until: SimTime,
) -> Scenario {
    let wf = Workflows::new(catalog.clone());
    let deployment = Deployment::standard();
    let neutron_node = deployment.node_of(Service::Neutron, 0);

    let mut specs = Vec::new();
    for i in 0..concurrency {
        let mut s = wf.vm_create_spec(OpSpecId(i as u16));
        s.name = format!("compute.vm_create.{i}");
        specs.push(s);
    }

    let plan = FaultPlan::none()
        .with_resource(ResourceFault {
            node: neutron_node,
            kind: ResourceKind::CpuPercent,
            value: 93.0,
            from: surge_from,
            until: surge_until,
        })
        .with_latency(LatencyFault {
            node: neutron_node,
            extra: ms(60),
            from: surge_from,
            until: surge_until,
        });

    Scenario {
        name: "7.2.2-neutron-api-latency",
        description: "Neutron port APIs slow down under concurrent VM creation; root cause is CPU surge on the Neutron server",
        deployment,
        specs,
        plan,
        config: RunConfig {
            seed,
            // Spread starts across the surge so plenty of operations run
            // both before and during it.
            start_window: surge_until.saturating_sub(secs(5)).max(secs(10)),
            ..RunConfig::default()
        },
        expected_failed_spec: "compute.vm_create".into(),
        expected_cause: ExpectedCause::Resource(neutron_node, ResourceKind::CpuPercent),
    }
}

/// §7.2.3 / §3.1.1 — Linux bridge agent failure: the Neutron L2 agent on
/// the compute hosts has crashed; VM creation fails with "No valid host
/// was found" even though nova-compute is up.
pub fn linuxbridge_crash(catalog: &Arc<Catalog>, seed: u64, background: usize) -> Scenario {
    let wf = Workflows::new(catalog.clone());
    let deployment = Deployment::standard();
    let computes = deployment.compute_nodes();
    let first_compute = computes[0];

    let mut specs = vec![wf.vm_create_spec(OpSpecId(0))];
    specs.extend(background_specs(&wf, background, 1));

    let mut plan = FaultPlan::none();
    for node in computes {
        plan = plan.with_dep(DepFault::ServiceCrash {
            node,
            service: Service::NeutronAgent,
            at: 0,
        });
    }
    // The agent being down surfaces as a scheduling failure on the boot
    // RPC, which the dashboard sees as a "No valid host" REST error.
    let boot_rpc = catalog.rpc_expect(Service::NovaCompute, "build_and_run_instance");
    plan = plan.with_api_fault(ApiFault {
        api: boot_rpc,
        scope: FaultScope::Instance(gretel_model::OpInstanceId(0)),
        occurrence: 0,
        error: InjectedError::RpcException {
            class: "NoValidHost: No valid host was found. There are not enough hosts available"
                .into(),
        },
        abort_op: true,
    });

    Scenario {
        name: "7.2.3-linuxbridge-agent-failure",
        description: "VM create fails with 'No valid host'; root cause is the crashed neutron-linuxbridge-agent on the compute hosts",
        deployment,
        specs,
        plan,
        config: RunConfig { seed, ..RunConfig::default() },
        expected_failed_spec: "compute.vm_create.canonical".into(),
        expected_cause: ExpectedCause::Dependency(
            first_compute,
            Dependency::ServiceProcess(Service::NeutronAgent),
        ),
    }
}

/// §7.2.4 — NTP failure: a stopped NTP agent on the Cinder host skews its
/// clock, Keystone rejects its tokens with 401, and `cinder list` fails
/// with a misleading "Unable to establish connection" error.
pub fn ntp_failure(catalog: &Arc<Catalog>, seed: u64, background: usize) -> Scenario {
    let wf = Workflows::new(catalog.clone());
    let deployment = Deployment::standard();
    let storage_node = deployment.node_of(Service::Cinder, 0);

    let mut specs = vec![wf.cinder_list_spec(OpSpecId(0))];
    specs.extend(background_specs(&wf, background, 1));

    let auth = catalog.rest_expect(Service::Keystone, HttpMethod::Post, "/v3/auth/tokens");
    let plan = FaultPlan::none()
        .with_dep(DepFault::NtpStop {
            node: storage_node,
            at: 0,
        })
        .with_api_fault(ApiFault {
            api: auth,
            scope: FaultScope::Instance(gretel_model::OpInstanceId(0)),
            occurrence: 0,
            error: InjectedError::RestStatus {
                status: 401,
                reason: Some("Unauthorized".into()),
            },
            abort_op: true,
        });

    Scenario {
        name: "7.2.4-ntp-failure",
        description:
            "Keystone relays 401 to Cinder; root cause is the stopped NTP agent on the Cinder host",
        deployment,
        specs,
        plan,
        config: RunConfig {
            seed,
            ..RunConfig::default()
        },
        expected_failed_spec: "storage.cinder_list.canonical".into(),
        expected_cause: ExpectedCause::Dependency(storage_node, Dependency::NtpAgent),
    }
}

/// §3.1.1 — VM create with no compute nodes available: every nova-compute
/// process is down, so the boot RPC times out and Horizon shows "No valid
/// host was found".
pub fn no_compute_available(catalog: &Arc<Catalog>, seed: u64, background: usize) -> Scenario {
    let wf = Workflows::new(catalog.clone());
    let deployment = Deployment::standard();
    let computes = deployment.compute_nodes();
    let first_compute = computes[0];

    let mut specs = vec![wf.vm_create_spec(OpSpecId(0))];
    specs.extend(background_specs(&wf, background, 1));

    let mut plan = FaultPlan::none();
    for node in computes {
        plan = plan.with_dep(DepFault::ServiceCrash {
            node,
            service: Service::NovaCompute,
            at: 0,
        });
    }

    Scenario {
        name: "3.1.1-no-compute-available",
        description: "VM create fails because nova-compute is down on every compute host",
        deployment,
        specs,
        plan,
        config: RunConfig {
            seed,
            ..RunConfig::default()
        },
        expected_failed_spec: "compute.vm_create.canonical".into(),
        expected_cause: ExpectedCause::Dependency(
            first_compute,
            Dependency::ServiceProcess(Service::NovaCompute),
        ),
    }
}

/// Fig 8b — `tc`-style 50 ms latency injection on all Glance traffic for a
/// 10-minute window in the middle of a long concurrent run.
pub fn glance_latency_injection(
    catalog: &Arc<Catalog>,
    seed: u64,
    concurrency: usize,
    inject_from: SimTime,
    inject_until: SimTime,
) -> Scenario {
    let wf = Workflows::new(catalog.clone());
    let deployment = Deployment::standard();
    let image_node = deployment.node_of(Service::Glance, 0);

    // Image-heavy mix so GET /v2/images/{id} is exercised continuously.
    let mut specs = Vec::new();
    for i in 0..concurrency {
        if i % 2 == 0 {
            let mut s = wf.vm_create_spec(OpSpecId(i as u16));
            s.name = format!("compute.vm_create.{i}");
            specs.push(s);
        } else {
            let mut s = wf.image_upload_spec(OpSpecId(i as u16));
            s.name = format!("image.upload.{i}");
            specs.push(s);
        }
    }

    let plan = FaultPlan::none().with_latency(LatencyFault {
        node: image_node,
        extra: ms(50),
        from: inject_from,
        until: inject_until,
    });

    Scenario {
        name: "fig8b-glance-latency",
        description: "50 ms injected on all Glance traffic for a window; level-shift alarms expected during it",
        deployment,
        specs,
        plan,
        config: RunConfig {
            seed,
            start_window: inject_until + inject_from, // spread ops across the run
            ..RunConfig::default()
        },
        expected_failed_spec: "image".into(),
        expected_cause: ExpectedCause::Resource(image_node, ResourceKind::NetMbps),
    }
}

/// Infrastructure outage — the shared MySQL database crashes mid-run.
/// Every API service starts failing with DBConnectionError 500s; the
/// watchers on every node report MySQL unreachable.
pub fn mysql_outage(catalog: &Arc<Catalog>, seed: u64, background: usize) -> Scenario {
    let wf = Workflows::new(catalog.clone());
    let deployment = Deployment::standard();
    let db_node = deployment.node_of(Service::MySql, 0);

    let mut specs = vec![wf.vm_create_spec(OpSpecId(0))];
    specs.extend(background_specs(&wf, background, 1));

    let plan = FaultPlan::none().with_dep(DepFault::ServiceCrash {
        node: db_node,
        service: Service::MySql,
        at: 0,
    });

    Scenario {
        name: "infra-mysql-outage",
        description:
            "The shared MySQL database is down; every API call fails with DBConnectionError",
        deployment,
        specs,
        plan,
        config: RunConfig {
            seed,
            ..RunConfig::default()
        },
        expected_failed_spec: "compute.vm_create.canonical".into(),
        expected_cause: ExpectedCause::Dependency(db_node, Dependency::MySqlReachable),
    }
}

/// Infrastructure outage — the RabbitMQ broker crashes mid-run. All RPCs
/// time out; REST-only operations still succeed.
pub fn rabbitmq_outage(catalog: &Arc<Catalog>, seed: u64, background: usize) -> Scenario {
    let wf = Workflows::new(catalog.clone());
    let deployment = Deployment::standard();
    let broker_node = deployment.broker();

    let mut specs = vec![wf.vm_create_spec(OpSpecId(0))];
    specs.extend(background_specs(&wf, background, 1));

    let plan = FaultPlan::none().with_dep(DepFault::ServiceCrash {
        node: broker_node,
        service: Service::RabbitMq,
        at: 0,
    });

    Scenario {
        name: "infra-rabbitmq-outage",
        description:
            "The RabbitMQ broker is down; every RPC times out and RPC-bearing operations abort",
        deployment,
        specs,
        plan,
        config: RunConfig {
            seed,
            ..RunConfig::default()
        },
        expected_failed_spec: "compute.vm_create.canonical".into(),
        expected_cause: ExpectedCause::Dependency(broker_node, Dependency::RabbitMqReachable),
    }
}

/// Limitation 5, demonstrated honestly: operation A deletes the port that
/// operation B is concurrently attaching, so B fails with a 404 — but no
/// node resource is anomalous and no dependency is down. GRETEL names the
/// failed operation yet root cause analysis finds nothing: causal
/// interference between operations is outside its model (as the paper
/// states for itself and most prior art).
pub fn interfering_operations(catalog: &Arc<Catalog>, seed: u64, background: usize) -> Scenario {
    let wf = Workflows::new(catalog.clone());
    let deployment = Deployment::standard();

    // Instance 0: the victim VM create. Instance 1: the interfering
    // deleter. The interference is modelled as a 404 on the victim's port
    // attach (the port is gone).
    let mut specs = vec![wf.vm_create_spec(OpSpecId(0))];
    let mut deleter = OperationSpec {
        id: OpSpecId(1),
        name: "compute.vm_delete.interferer".into(),
        category: gretel_model::Category::Compute,
        steps: wf.vm_delete(),
    };
    deleter.id = OpSpecId(1);
    specs.push(deleter);
    specs.extend(background_specs(&wf, background, 2));

    let put_attach = catalog.rest_expect(Service::Neutron, HttpMethod::Put, "/v2.0/ports/{id}");
    let plan = FaultPlan::none().with_api_fault(ApiFault {
        api: put_attach,
        scope: FaultScope::Instance(gretel_model::OpInstanceId(0)),
        occurrence: 0,
        error: InjectedError::RestStatus {
            status: 404,
            reason: Some("PortNotFound".into()),
        },
        abort_op: true,
    });

    Scenario {
        name: "limitation5-interfering-operations",
        description: "A concurrent delete removes the port a VM create is attaching; the 404 has no node-state root cause",
        deployment: deployment.clone(),
        specs,
        plan,
        config: RunConfig { seed, ..RunConfig::default() },
        expected_failed_spec: "compute.vm_create.canonical".into(),
        // There IS no node-state cause; encode the expectation as a
        // dependency that will never be reported so tests can assert the
        // *absence* of causes.
        expected_cause: ExpectedCause::Dependency(
            deployment.node_of(Service::Neutron, 0),
            Dependency::Libvirt,
        ),
    }
}

/// The operational (error-producing) case studies as one suite: the fault
/// population that sweep experiments iterate over (e.g. the capture-loss
/// robustness experiment, which re-runs each scenario under increasing
/// impairment). Latency-based scenarios are excluded — performance
/// detection under capture loss is a separate axis.
pub fn operational_suite(catalog: &Arc<Catalog>, seed: u64, background: usize) -> Vec<Scenario> {
    vec![
        failed_image_upload(catalog, seed, background),
        linuxbridge_crash(catalog, seed ^ 0x11, background),
        no_compute_available(catalog, seed ^ 0x22, background),
        mysql_outage(catalog, seed ^ 0x33, background),
        rabbitmq_outage(catalog, seed ^ 0x44, background),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_model::Catalog;

    #[test]
    fn image_upload_scenario_fails_with_413() {
        let cat = Catalog::openstack();
        let sc = failed_image_upload(&cat, 1, 4);
        let exec = sc.run(cat.clone());
        let failed = &exec.outcomes[0];
        assert!(failed.aborted);
        assert!(exec.messages.iter().any(|m| {
            matches!(
                m.wire,
                gretel_model::WireKind::Rest {
                    status: Some(413),
                    ..
                }
            )
        }));
        // Background ops succeed.
        assert!(exec.outcomes[1..].iter().all(|o| !o.aborted));
    }

    #[test]
    fn linuxbridge_scenario_shows_agent_down_and_rest_relay() {
        let cat = Catalog::openstack();
        let sc = linuxbridge_crash(&cat, 2, 2);
        let exec = sc.run(cat.clone());
        assert!(exec.outcomes[0].aborted);
        // Watchers report the agent down on every compute node.
        let down = exec
            .watchers
            .iter()
            .filter(|w| w.dep == Dependency::ServiceProcess(Service::NeutronAgent) && !w.healthy)
            .count();
        assert!(down > 0);
        // A REST error reached the dashboard.
        assert!(exec
            .messages
            .iter()
            .any(|m| m.is_rest_error() && m.dst_service == Service::Horizon));
    }

    #[test]
    fn ntp_scenario_produces_401_and_unhealthy_ntp_watcher() {
        let cat = Catalog::openstack();
        let sc = ntp_failure(&cat, 3, 2);
        let exec = sc.run(cat.clone());
        assert!(exec.messages.iter().any(|m| {
            matches!(
                m.wire,
                gretel_model::WireKind::Rest {
                    status: Some(401),
                    ..
                }
            )
        }));
        assert!(exec
            .watchers
            .iter()
            .any(|w| w.dep == Dependency::NtpAgent && !w.healthy && w.node == NodeId(3)));
    }

    #[test]
    fn no_compute_scenario_aborts_without_explicit_api_fault() {
        let cat = Catalog::openstack();
        let sc = no_compute_available(&cat, 4, 0);
        let exec = sc.run(cat.clone());
        assert!(exec.outcomes[0].aborted);
        assert!(exec.outcomes[0].failed_api.is_some());
    }

    #[test]
    fn mysql_outage_fails_every_api_call() {
        let cat = Catalog::openstack();
        let sc = mysql_outage(&cat, 6, 3);
        let exec = sc.run(cat.clone());
        // Everything that issues a REST call aborts.
        assert!(exec.outcomes.iter().all(|o| o.aborted));
        // Watchers on every node report MySQL unreachable.
        assert!(exec
            .watchers
            .iter()
            .filter(|w| w.dep == Dependency::MySqlReachable)
            .all(|w| !w.healthy));
    }

    #[test]
    fn rabbitmq_outage_fails_rpc_bearing_operations_only() {
        let cat = Catalog::openstack();
        let sc = rabbitmq_outage(&cat, 7, 4);
        let exec = sc.run(cat.clone());
        // The VM create (RPC-bearing) aborts on its first RPC.
        assert!(exec.outcomes[0].aborted);
        // image_list (pure REST background op) succeeds.
        let rest_only = exec
            .outcomes
            .iter()
            .find(|o| o.spec_name.contains("image_list"))
            .expect("image_list background op present");
        assert!(
            !rest_only.aborted,
            "REST-only operations ride out a broker outage"
        );
    }

    #[test]
    fn interfering_operations_fault_has_no_node_state_cause() {
        let cat = Catalog::openstack();
        let sc = interfering_operations(&cat, 8, 3);
        let exec = sc.run(cat.clone());
        assert!(exec.outcomes[0].aborted, "victim aborted");
        // No resource override, no dependency down: the watchers are all
        // healthy and resources nominal.
        assert!(exec.watchers.iter().all(|w| w.healthy));
    }

    #[test]
    fn operational_suite_scenarios_all_put_errors_on_the_wire() {
        let cat = Catalog::openstack();
        let suite = operational_suite(&cat, 3, 2);
        assert_eq!(suite.len(), 5);
        for sc in suite {
            let exec = sc.run(cat.clone());
            assert!(
                exec.messages
                    .iter()
                    .any(|m| m.is_rest_error() || m.is_rpc_error()),
                "{}: an error message on the wire",
                sc.name
            );
        }
    }

    #[test]
    fn neutron_latency_scenario_operations_succeed() {
        let cat = Catalog::openstack();
        let sc = neutron_api_latency_with_window(&cat, 5, 8, secs(5), secs(60));
        let exec = sc.run(cat.clone());
        // Performance fault: nothing aborts.
        assert!(exec.outcomes.iter().all(|o| !o.aborted));
        // CPU override visible on the Neutron node during the surge.
        let surge = exec
            .resources
            .iter()
            .filter(|r| {
                r.node == NodeId(1)
                    && r.kind == ResourceKind::CpuPercent
                    && r.ts >= secs(5)
                    && r.ts < secs(60)
            })
            .collect::<Vec<_>>();
        assert!(!surge.is_empty());
        assert!(surge.iter().all(|r| r.value > 90.0));
    }
}
