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

use gretel_model::{Dependency, NodeId, OpSpecId, OperationSpec, Service};
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

/// What root cause analysis has learned about one node over the window.
#[derive(Default)]
struct NodeVerdicts {
    /// `FIND_ROOT_CAUSE` on this node alone.
    causes: Option<Vec<RootCause>>,
    /// The node's [`CauseKind::StaleTelemetry`] entry, `None` inside when
    /// its telemetry covered the window.
    stale: Option<Option<RootCause>>,
}

/// Root cause analysis engine over one fault window `[from, until)`.
///
/// Every diagnosis of a snapshot asks about the same window (the
/// snapshot's first and last event), and each per-node verdict is a pure
/// function of (node, window) over immutable telemetry. So the engine is
/// built once per snapshot and computes each node's verdicts at most once:
/// a later diagnosis that asks about the same node reads the memo. An
/// operation reaches nodes through its [`OperationSpec::service_mask`],
/// memoized by spec id.
pub(crate) struct RcaEngine<'a> {
    deployment: &'a Deployment,
    telemetry: &'a TelemetryStore,
    /// The operation specs matches resolve against, dense by id.
    specs: &'a [OperationSpec],
    from: SimTime,
    until: SimTime,
    /// Indexed by node id; grows to the highest node asked about.
    nodes: Vec<NodeVerdicts>,
    /// Service masks by spec id, filled as specs are expanded; empty until
    /// the first expansion.
    masks: Vec<Option<u32>>,
}

impl<'a> RcaEngine<'a> {
    /// New engine over a deployment, its collected telemetry and the specs
    /// matched operations are resolved against, for the window
    /// `[from, until)` — the time span of the context buffer.
    pub(crate) fn new(
        deployment: &'a Deployment,
        telemetry: &'a TelemetryStore,
        specs: &'a [OperationSpec],
        from: SimTime,
        until: SimTime,
    ) -> RcaEngine<'a> {
        RcaEngine {
            deployment,
            telemetry,
            specs,
            from,
            until,
            nodes: Vec::new(),
            masks: Vec::new(),
        }
    }

    /// Algorithm 3 (`GET_ROOT_CAUSE`): analyze the fault window.
    ///
    /// * `matched` — the operations the detector matched (ids without a
    ///   spec are skipped);
    /// * `error_nodes` — source/destination nodes of the error messages.
    pub(crate) fn analyze(
        &mut self,
        matched: &[OpSpecId],
        error_nodes: &[NodeId],
    ) -> Vec<RootCause> {
        let mut error_nodes: Vec<NodeId> = error_nodes.to_vec();
        error_nodes.sort();
        error_nodes.dedup();

        let mut causes = self.find_root_cause(&error_nodes);
        if causes.is_empty() {
            // Expand to the remaining nodes participating in the matched
            // operations.
            let mut remaining = self.operation_nodes(matched);
            remaining.retain(|n| !error_nodes.contains(n));
            causes = self.find_root_cause(&remaining);
            if causes.is_empty() {
                // Nothing anomalous anywhere — but only trust that verdict
                // where the telemetry actually covered the window. Nodes
                // whose series went silent before the window are reported
                // as stale rather than silently counted healthy.
                let mut all = error_nodes;
                all.extend(remaining);
                causes = self.staleness_report(&all);
            }
        }
        causes
    }

    fn verdicts(&mut self, node: NodeId) -> &mut NodeVerdicts {
        let i = usize::from(node.0);
        if self.nodes.len() <= i {
            self.nodes.resize_with(i + 1, NodeVerdicts::default);
        }
        &mut self.nodes[i]
    }

    /// [`CauseKind::StaleTelemetry`] entries for every listed node whose
    /// telemetry went silent before the window. Empty when coverage was
    /// complete — i.e. when "no anomaly" is actually supported by data.
    fn staleness_report(&mut self, nodes: &[NodeId]) -> Vec<RootCause> {
        let (telemetry, from, until) = (self.telemetry, self.from, self.until);
        let mut out = Vec::new();
        for &node in nodes {
            let stale = self
                .verdicts(node)
                .stale
                .get_or_insert_with(|| stale_on(telemetry, node, from, until));
            out.extend(stale.iter().cloned());
        }
        out
    }

    /// Algorithm 3 (`FIND_ROOT_CAUSE`): anomalies in resource metadata,
    /// then failed software dependencies, on the listed nodes.
    fn find_root_cause(&mut self, nodes: &[NodeId]) -> Vec<RootCause> {
        let (telemetry, from, until) = (self.telemetry, self.from, self.until);
        let mut out = Vec::new();
        for &node in nodes {
            let causes = self
                .verdicts(node)
                .causes
                .get_or_insert_with(|| causes_on(telemetry, node, from, until));
            out.extend_from_slice(causes);
        }
        out
    }

    /// Nodes hosting any service that participates in the operations,
    /// sorted and deduplicated.
    fn operation_nodes(&mut self, matched: &[OpSpecId]) -> Vec<NodeId> {
        if self.masks.is_empty() {
            self.masks = vec![None; self.specs.len()];
        }
        let mut mask = 0u32;
        for &id in matched {
            let Some(spec) = self.specs.get(id.index()) else {
                continue;
            };
            mask |= *self.masks[id.index()].get_or_insert_with(|| spec.service_mask());
        }
        let mut nodes = Vec::new();
        for service in Service::ALL {
            if mask & 1 << service as u32 != 0 {
                nodes.extend_from_slice(self.deployment.nodes_of(service));
            }
        }
        nodes.sort();
        nodes.dedup();
        nodes
    }
}

/// `FIND_ROOT_CAUSE` on one node: its resource anomalies, then its failed
/// software dependencies.
fn causes_on(
    telemetry: &TelemetryStore,
    node: NodeId,
    from: SimTime,
    until: SimTime,
) -> Vec<RootCause> {
    let resources = telemetry
        .resource_anomalies(node, from, until)
        .into_iter()
        .map(|ResourceEvidence { kind, why, .. }| RootCause {
            node,
            cause: CauseKind::Resource(kind),
            why,
        });
    let deps = telemetry
        .unhealthy_deps(node, from, until)
        .into_iter()
        .map(|dep| RootCause {
            node,
            cause: CauseKind::Dependency(dep),
            why: format!("{dep} reported down by the watcher on {node}"),
        });
    resources.chain(deps).collect()
}

/// The [`CauseKind::StaleTelemetry`] entry for one node, if any of its
/// telemetry went silent before `[from, until)`.
fn stale_on(
    telemetry: &TelemetryStore,
    node: NodeId,
    from: SimTime,
    until: SimTime,
) -> Option<RootCause> {
    let stale_resources = telemetry.resource_staleness(node, from, until);
    let stale_watchers = telemetry.watcher_staleness(node, from, until);
    if stale_resources.is_empty() && stale_watchers.is_empty() {
        return None;
    }
    let why = format!(
        "telemetry on {node} stale over the fault window: {} resource series, {} watcher(s) silent — cannot rule out a root cause here",
        stale_resources.len(),
        stale_watchers.len()
    );
    Some(RootCause {
        node,
        cause: CauseKind::StaleTelemetry {
            stale_resources,
            stale_watchers,
        },
        why,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_model::{Catalog, Workflows};
    use gretel_sim::{secs, ResourceSample, WatcherSample};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One diagnosis' analysis on an engine of its own.
    fn analyze_fresh(
        dep: &Deployment,
        t: &TelemetryStore,
        specs: &[OperationSpec],
        matched: &[OpSpecId],
        error_nodes: &[NodeId],
        from: SimTime,
        until: SimTime,
    ) -> Vec<RootCause> {
        RcaEngine::new(dep, t, specs, from, until).analyze(matched, error_nodes)
    }

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
        let causes = analyze_fresh(
            &dep,
            &t,
            &[],
            &[],
            &[NodeId(2), NodeId(0)],
            secs(10),
            secs(50),
        );
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
        let specs = [wf.cinder_list_spec(OpSpecId(0))];

        let watchers: Vec<WatcherSample> = (0..60)
            .map(|i| WatcherSample {
                ts: secs(i),
                node: NodeId(3),
                dep: Dependency::NtpAgent,
                healthy: false,
            })
            .collect();
        let t = telemetry_with(vec![], watchers);

        // Error nodes: keystone/controller only — clean.
        let causes = analyze_fresh(
            &dep,
            &t,
            &specs,
            &[OpSpecId(0)],
            &[NodeId(0)],
            secs(10),
            secs(50),
        );
        assert_eq!(causes.len(), 1);
        assert_eq!(causes[0].node, NodeId(3));
        assert_eq!(causes[0].cause, CauseKind::Dependency(Dependency::NtpAgent));
    }

    #[test]
    fn no_anomalies_yields_empty() {
        let dep = Deployment::standard();
        let t = telemetry_with(baseline_cpu(NodeId(1), 60), vec![]);
        assert!(analyze_fresh(&dep, &t, &[], &[], &[NodeId(1)], secs(10), secs(50)).is_empty());
    }

    #[test]
    fn stale_telemetry_downgrades_no_cause_verdict() {
        let dep = Deployment::standard();
        // Node 1 reported CPU up to t=20s and then went silent; the fault
        // window starts at t=40s. Nothing anomalous is *observable*, but
        // claiming "no root cause" would rest on missing data.
        let t = telemetry_with(baseline_cpu(NodeId(1), 20), vec![]);
        let causes = analyze_fresh(&dep, &t, &[], &[], &[NodeId(1)], secs(40), secs(50));
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
        assert!(analyze_fresh(&dep, &fresh, &[], &[], &[NodeId(1)], secs(10), secs(50)).is_empty());
    }

    #[test]
    fn operation_nodes_cover_all_participating_services() {
        let cat = Catalog::openstack();
        let wf = Workflows::new(cat.clone());
        let dep = Deployment::standard();
        let specs = [wf.vm_create_spec(OpSpecId(0))];
        let t = telemetry_with(vec![], vec![]);
        let mut engine = RcaEngine::new(&dep, &t, &specs, 0, 1);
        let nodes = engine.operation_nodes(&[OpSpecId(0)]);
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
        let causes = analyze_fresh(&dep, &t, &[], &[], &[NodeId(1)], secs(40), secs(50));
        assert_eq!(causes.len(), 2);
        assert!(causes
            .iter()
            .any(|c| matches!(c.cause, CauseKind::Resource(_))));
        assert!(causes
            .iter()
            .any(|c| matches!(c.cause, CauseKind::Dependency(_))));
    }

    #[test]
    fn a_memoized_engine_answers_every_query_like_a_fresh_one() {
        // One window, [40s, 50s), over telemetry that exercises all three
        // branches: a CPU surge on node 1 (found on the error nodes), a
        // dead NTP agent on the Cinder node 3 (found by expansion), and
        // node 5's series falling silent at 20s while everything else
        // reports through 60s (stale, when nothing else is found).
        let cat = Catalog::openstack();
        let wf = Workflows::new(cat);
        let dep = Deployment::standard();
        let specs = [
            wf.cinder_list_spec(OpSpecId(0)),
            wf.vm_create_spec(OpSpecId(1)),
            wf.image_upload_spec(OpSpecId(2)),
        ];
        let mut res = Vec::new();
        for node in 0..7u8 {
            let until_s = if node == 5 { 20 } else { 60 };
            res.extend((0..until_s).map(|i| ResourceSample {
                ts: secs(i),
                node: NodeId(node),
                kind: ResourceKind::CpuPercent,
                value: if node == 1 && (40..50).contains(&i) {
                    96.0
                } else {
                    10.0
                },
            }));
        }
        let watchers: Vec<WatcherSample> = (0..60)
            .map(|i| WatcherSample {
                ts: secs(i),
                node: NodeId(3),
                dep: Dependency::NtpAgent,
                healthy: i < 40,
            })
            .collect();
        let t = telemetry_with(res, watchers);
        let (from, until) = (secs(40), secs(50));

        let mut memo = RcaEngine::new(&dep, &t, &specs, from, until);
        let mut rng = StdRng::seed_from_u64(5);
        let mut branches = [false; 3];
        for round in 0..300 {
            let matched: Vec<OpSpecId> = (0..rng.gen_range(0..4))
                .map(|_| OpSpecId(rng.gen_range(0..4)))
                .collect();
            let error_nodes = [NodeId(rng.gen_range(0..8)), NodeId(rng.gen_range(0..8))];
            let want = analyze_fresh(&dep, &t, &specs, &matched, &error_nodes, from, until);
            let got = memo.analyze(&matched, &error_nodes);
            assert_eq!(got, want, "round {round}: {matched:?} {error_nodes:?}");
            match want.first().map(|c| (c.node, &c.cause)) {
                Some((_, CauseKind::StaleTelemetry { .. })) => branches[2] = true,
                Some((node, _)) if error_nodes.contains(&node) => branches[0] = true,
                Some(_) => branches[1] = true,
                None => {}
            }
        }
        assert_eq!(branches, [true; 3], "error nodes, expansion, stale");
    }
}
