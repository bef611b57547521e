//! Root cause analysis (Algorithm 3).
//!
//! Given the operations matched for a fault and the endpoints of the
//! error messages, GRETEL correlates the distributed state collected by
//! the monitoring agents: first the **error nodes** (source and
//! destination of the error messages) are checked for anomalous resource
//! metadata and failed software dependencies; only if nothing is found
//! does the search expand to the **remaining nodes** participating in the
//! operation (the root cause "may manifest upstream from the actual node
//! where the fault arose", §5.4 — the NTP case study is exactly this).

use gretel_model::{Dependency, NodeId, OperationSpec};
use gretel_sim::{Deployment, ResourceKind, SimTime};
use gretel_telemetry::{ResourceEvidence, TelemetryStore};

/// One identified root cause.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct RootCause {
    /// Node the cause was found on.
    pub node: NodeId,
    /// What was wrong.
    pub cause: CauseKind,
    /// Human-readable evidence.
    pub why: String,
}

/// Category of root cause.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum CauseKind {
    /// Anomalous resource metric.
    Resource(ResourceKind),
    /// Failed software dependency.
    Dependency(Dependency),
    /// No cause found, but the telemetry needed to rule one out was stale:
    /// series on this node stopped reporting before the fault window.
    /// "Nothing anomalous" would be asserted from missing data, so the
    /// verdict is downgraded to "telemetry missing" instead.
    StaleTelemetry {
        /// Resource series that went silent before the window.
        stale_resources: Vec<ResourceKind>,
        /// Dependency watchers that went silent before the window.
        stale_watchers: Vec<Dependency>,
    },
}

/// Root cause analysis engine.
pub struct RcaEngine<'a> {
    deployment: &'a Deployment,
    telemetry: &'a TelemetryStore,
}

impl<'a> RcaEngine<'a> {
    /// New engine over a deployment and its collected telemetry.
    pub fn new(deployment: &'a Deployment, telemetry: &'a TelemetryStore) -> RcaEngine<'a> {
        RcaEngine {
            deployment,
            telemetry,
        }
    }

    /// Algorithm 3 (`GET_ROOT_CAUSE`): analyze the fault window.
    ///
    /// * `matched_ops` — the operations the detector matched;
    /// * `error_nodes` — source/destination nodes of the error messages;
    /// * `[from, until)` — the time span of the context buffer.
    pub fn analyze(
        &self,
        matched_ops: &[&OperationSpec],
        error_nodes: &[NodeId],
        from: SimTime,
        until: SimTime,
    ) -> Vec<RootCause> {
        let mut error_nodes: Vec<NodeId> = error_nodes.to_vec();
        error_nodes.sort();
        error_nodes.dedup();

        let mut causes = self.find_root_cause(&error_nodes, from, until);
        if causes.is_empty() {
            // Expand to the remaining nodes participating in the matched
            // operations.
            let mut remaining = self.operation_nodes(matched_ops);
            remaining.retain(|n| !error_nodes.contains(n));
            causes = self.find_root_cause(&remaining, from, until);
            if causes.is_empty() {
                // Nothing anomalous anywhere — but only trust that verdict
                // where the telemetry actually covered the window. Nodes
                // whose series went silent before the window are reported
                // as stale rather than silently counted healthy.
                let mut all = error_nodes.clone();
                all.extend(remaining);
                causes = self.staleness_report(&all, from, until);
            }
        }
        causes
    }

    /// [`CauseKind::StaleTelemetry`] entries for every listed node whose
    /// telemetry went silent before `[from, until)`. Empty when coverage
    /// was complete — i.e. when "no anomaly" is actually supported by data.
    pub fn staleness_report(
        &self,
        nodes: &[NodeId],
        from: SimTime,
        until: SimTime,
    ) -> Vec<RootCause> {
        let mut out = Vec::new();
        for &node in nodes {
            let stale_resources = self.telemetry.resource_staleness(node, from, until);
            let stale_watchers = self.telemetry.watcher_staleness(node, from, until);
            if stale_resources.is_empty() && stale_watchers.is_empty() {
                continue;
            }
            let why = format!(
                "telemetry on {node} stale over the fault window: {} resource series, {} watcher(s) silent — cannot rule out a root cause here",
                stale_resources.len(),
                stale_watchers.len()
            );
            out.push(RootCause {
                node,
                cause: CauseKind::StaleTelemetry {
                    stale_resources,
                    stale_watchers,
                },
                why,
            });
        }
        out
    }

    /// Algorithm 3 (`FIND_ROOT_CAUSE`): anomalies in resource metadata,
    /// then failed software dependencies, on the listed nodes.
    pub fn find_root_cause(
        &self,
        nodes: &[NodeId],
        from: SimTime,
        until: SimTime,
    ) -> Vec<RootCause> {
        let mut out = Vec::new();
        for &node in nodes {
            for ResourceEvidence { kind, why, .. } in
                self.telemetry.resource_anomalies(node, from, until)
            {
                out.push(RootCause {
                    node,
                    cause: CauseKind::Resource(kind),
                    why,
                });
            }
            for dep in self.telemetry.unhealthy_deps(node, from, until) {
                out.push(RootCause {
                    node,
                    cause: CauseKind::Dependency(dep),
                    why: format!("{dep} reported down by the watcher on {node}"),
                });
            }
        }
        out
    }

    /// Nodes hosting any service that participates in the operations.
    pub fn operation_nodes(&self, ops: &[&OperationSpec]) -> Vec<NodeId> {
        let mut nodes = Vec::new();
        for op in ops {
            for service in op.services() {
                for &n in self.deployment.nodes_of(service) {
                    if !nodes.contains(&n) {
                        nodes.push(n);
                    }
                }
            }
        }
        nodes.sort();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_model::{Catalog, OpSpecId, Service, Workflows};
    use gretel_sim::{secs, ResourceSample, WatcherSample};

    fn telemetry_with(
        resources: Vec<ResourceSample>,
        watchers: Vec<WatcherSample>,
    ) -> TelemetryStore {
        TelemetryStore::from_samples(&resources, &watchers)
    }

    fn baseline_cpu(node: NodeId, until_s: u64) -> Vec<ResourceSample> {
        (0..until_s)
            .map(|i| ResourceSample {
                ts: secs(i),
                node,
                kind: ResourceKind::CpuPercent,
                value: 10.0,
            })
            .collect()
    }

    #[test]
    fn error_nodes_are_checked_first() {
        let dep = Deployment::standard();
        // Disk exhausted on node 2 (image), CPU fine everywhere.
        let mut res = baseline_cpu(NodeId(2), 60);
        res.extend((0..60).map(|i| ResourceSample {
            ts: secs(i),
            node: NodeId(2),
            kind: ResourceKind::DiskFreeGb,
            value: 0.3,
        }));
        let t = telemetry_with(res, vec![]);
        let engine = RcaEngine::new(&dep, &t);
        let causes = engine.analyze(&[], &[NodeId(2), NodeId(0)], secs(10), secs(50));
        assert_eq!(causes.len(), 1);
        assert_eq!(causes[0].node, NodeId(2));
        assert_eq!(
            causes[0].cause,
            CauseKind::Resource(ResourceKind::DiskFreeGb)
        );
    }

    #[test]
    fn expands_to_operation_nodes_when_error_nodes_are_clean() {
        // NTP scenario: error between Keystone (node 0) and nothing found
        // there; the stopped NTP agent is on the Cinder node (3), which
        // participates in the operation.
        let cat = Catalog::openstack();
        let wf = Workflows::new(cat.clone());
        let dep = Deployment::standard();
        let spec = wf.cinder_list_spec(OpSpecId(0));

        let watchers: Vec<WatcherSample> = (0..60)
            .map(|i| WatcherSample {
                ts: secs(i),
                node: NodeId(3),
                dep: Dependency::NtpAgent,
                healthy: false,
            })
            .collect();
        let t = telemetry_with(vec![], watchers);
        let engine = RcaEngine::new(&dep, &t);

        // Error nodes: keystone/controller only — clean.
        let causes = engine.analyze(&[&spec], &[NodeId(0)], secs(10), secs(50));
        assert_eq!(causes.len(), 1);
        assert_eq!(causes[0].node, NodeId(3));
        assert_eq!(causes[0].cause, CauseKind::Dependency(Dependency::NtpAgent));
    }

    #[test]
    fn no_anomalies_yields_empty() {
        let dep = Deployment::standard();
        let t = telemetry_with(baseline_cpu(NodeId(1), 60), vec![]);
        let engine = RcaEngine::new(&dep, &t);
        assert!(engine
            .analyze(&[], &[NodeId(1)], secs(10), secs(50))
            .is_empty());
    }

    #[test]
    fn stale_telemetry_downgrades_no_cause_verdict() {
        let dep = Deployment::standard();
        // Node 1 reported CPU up to t=20s and then went silent; the fault
        // window starts at t=40s. Nothing anomalous is *observable*, but
        // claiming "no root cause" would rest on missing data.
        let t = telemetry_with(baseline_cpu(NodeId(1), 20), vec![]);
        let engine = RcaEngine::new(&dep, &t);
        let causes = engine.analyze(&[], &[NodeId(1)], secs(40), secs(50));
        assert_eq!(causes.len(), 1);
        assert_eq!(causes[0].node, NodeId(1));
        match &causes[0].cause {
            CauseKind::StaleTelemetry {
                stale_resources,
                stale_watchers,
            } => {
                assert_eq!(stale_resources, &vec![ResourceKind::CpuPercent]);
                assert!(stale_watchers.is_empty());
            }
            other => panic!("expected StaleTelemetry, got {other:?}"),
        }
        // With live coverage of the window the verdict stays a clean empty.
        let fresh = telemetry_with(baseline_cpu(NodeId(1), 60), vec![]);
        let engine = RcaEngine::new(&dep, &fresh);
        assert!(engine
            .analyze(&[], &[NodeId(1)], secs(10), secs(50))
            .is_empty());
    }

    #[test]
    fn operation_nodes_cover_all_participating_services() {
        let cat = Catalog::openstack();
        let wf = Workflows::new(cat.clone());
        let dep = Deployment::standard();
        let spec = wf.vm_create_spec(OpSpecId(0));
        let t = telemetry_with(vec![], vec![]);
        let engine = RcaEngine::new(&dep, &t);
        let nodes = engine.operation_nodes(&[&spec]);
        // VM create touches Horizon/Nova (0), Neutron (1), Glance (2), and
        // all compute nodes.
        assert!(nodes.contains(&NodeId(0)));
        assert!(nodes.contains(&NodeId(1)));
        assert!(nodes.contains(&NodeId(2)));
        assert!(nodes.contains(&NodeId(4)));
        // Cinder does not participate.
        assert!(!nodes.contains(&NodeId(3)));
        // Sanity: nodes_of agrees.
        assert_eq!(dep.nodes_of(Service::Cinder), &[NodeId(3)]);
    }

    #[test]
    fn multiple_causes_are_all_reported() {
        let dep = Deployment::standard();
        // CPU baseline with a surge inside the window (samples stay in
        // timestamp order).
        let res: Vec<ResourceSample> = (0..60)
            .map(|i| ResourceSample {
                ts: secs(i),
                node: NodeId(1),
                kind: ResourceKind::CpuPercent,
                value: if (40..50).contains(&i) { 96.0 } else { 10.0 },
            })
            .collect();
        let watchers: Vec<WatcherSample> = (0..60)
            .map(|i| WatcherSample {
                ts: secs(i),
                node: NodeId(1),
                dep: Dependency::ServiceProcess(Service::Neutron),
                healthy: i < 40,
            })
            .collect();
        let t = telemetry_with(res, watchers);
        let engine = RcaEngine::new(&dep, &t);
        let causes = engine.analyze(&[], &[NodeId(1)], secs(40), secs(50));
        assert_eq!(causes.len(), 2);
        assert!(causes
            .iter()
            .any(|c| matches!(c.cause, CauseKind::Resource(_))));
        assert!(causes
            .iter()
            .any(|c| matches!(c.cause, CauseKind::Dependency(_))));
    }
}
