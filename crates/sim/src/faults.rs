//! Fault injection plans.
//!
//! A [`FaultPlan`] is the simulated counterpart of everything the paper
//! does to its testbed to create faults: returning error statuses from
//! APIs, `tc`-style latency injection on a node's links, crashing service
//! processes (the §7.2.3 linuxbridge agent), stopping NTP (§7.2.4), and
//! exhausting node resources (the §7.2.1 full Glance disk, the §7.2.2 CPU
//! surge). The executor consults the plan while running operations; the
//! telemetry log reflects resource and dependency faults so root cause
//! analysis has something to find.

use crate::engine::{splitmix64, SimTime};
use crate::resources::ResourceKind;
use gretel_model::{ApiId, Dependency, NodeId, OpInstanceId, ProjectId, Service};
use serde::{Deserialize, Serialize};

/// Error injected into an API invocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectedError {
    /// REST response with this HTTP status. `reason` overrides the
    /// canonical reason phrase (e.g. the paper's "No valid host was
    /// found" body).
    RestStatus {
        /// HTTP status code (>= 400 for an error).
        status: u16,
        /// Optional custom reason phrase.
        reason: Option<String>,
    },
    /// RPC reply carrying a serialized exception of this class.
    RpcException {
        /// Exception class name embedded in the oslo payload.
        class: String,
    },
}

/// Which operation instances an [`ApiFault`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultScope {
    /// Every instance invoking the API.
    AllInstances,
    /// Only the given instance.
    Instance(OpInstanceId),
    /// Every instance belonging to one tenant (Keystone project). The
    /// executor assigns each instance a project (see
    /// `RunConfig::projects`); a project-scoped fault hits exactly that
    /// tenant's traffic — the primitive both tenant-targeted cascade
    /// scenarios and project-sharded deployments need.
    Project(ProjectId),
}

impl FaultScope {
    fn matches(self, inst: OpInstanceId, project: ProjectId) -> bool {
        match self {
            FaultScope::AllInstances => true,
            FaultScope::Instance(i) => i == inst,
            FaultScope::Project(p) => p == project,
        }
    }
}

/// Inject an error into invocations of one API.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApiFault {
    /// The API to fail.
    pub api: ApiId,
    /// Which instances are affected.
    pub scope: FaultScope,
    /// Which occurrence of the API within the operation fails (0 = first).
    pub occurrence: u32,
    /// The error to return.
    pub error: InjectedError,
    /// Whether the operation aborts after the failed step (operational
    /// faults abort; performance-degrading errors may not).
    pub abort_op: bool,
}

/// `tc netem`-style extra latency on all traffic to/from a node during a
/// window (the Fig 8b experiment injects 50 ms on the Glance server for
/// 10 minutes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyFault {
    /// Affected node.
    pub node: NodeId,
    /// Extra one-way latency added to each affected step.
    pub extra: SimTime,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

/// A software-dependency failure visible to the watchers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DepFault {
    /// A service process crashes on a node at `at` and stays down.
    ServiceCrash {
        /// Node the process runs on.
        node: NodeId,
        /// The crashed service.
        service: Service,
        /// Crash time.
        at: SimTime,
    },
    /// The NTP agent on a node stops at `at`.
    NtpStop {
        /// Affected node.
        node: NodeId,
        /// Stop time.
        at: SimTime,
    },
}

/// An [`ApiFault`] that is only active during a half-open `[from, until)`
/// window — the form cascade schedulers emit: a secondary fault switches
/// on some delay after its trigger, instead of existing for the whole run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedApiFault {
    /// The fault to apply while the window is active.
    pub fault: ApiFault,
    /// Activation time (inclusive).
    pub from: SimTime,
    /// Deactivation time (exclusive); `SimTime::MAX` for "until the end".
    pub until: SimTime,
}

/// A partial network partition between two services: invocations crossing
/// the pair (either direction) are dropped while the window is active.
/// `drop_prob < 1.0` models a flaky link rather than a clean cut; the
/// per-invocation drop coin comes from [`splitmix64`] over `(seed,
/// instance, invocation time)` — never from the executor's main RNG
/// stream, so adding a partition to a plan does not perturb the rest of a
/// seeded run.
///
/// A partition is invisible to every node-local watcher: both processes
/// stay up, resources stay nominal. Only the traffic itself shows it —
/// exactly the case that defeats flat per-node RCA and needs the
/// cross-service graph walk.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionFault {
    /// One side of the severed pair.
    pub a: Service,
    /// The other side.
    pub b: Service,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive); `SimTime::MAX` for "until the end".
    pub until: SimTime,
    /// Probability a crossing invocation is dropped; `1.0` = full cut.
    pub drop_prob: f64,
    /// Seed for the per-invocation drop coin (partial partitions).
    pub seed: u64,
}

impl PartitionFault {
    /// Whether this partition severs a `src → dst` invocation by `inst`
    /// at time `t`.
    fn severs(&self, src: Service, dst: Service, inst: OpInstanceId, t: SimTime) -> bool {
        let pair = (self.a == src && self.b == dst) || (self.a == dst && self.b == src);
        if !pair || t < self.from || t >= self.until {
            return false;
        }
        if self.drop_prob >= 1.0 {
            return true;
        }
        if self.drop_prob <= 0.0 {
            return false;
        }
        // 53-bit uniform in [0, 1) from the coin.
        let coin = splitmix64(self.seed, inst.0, t);
        ((coin >> 11) as f64 / (1u64 << 53) as f64) < self.drop_prob
    }
}

/// Override a node metric during a window (resource exhaustion / surge).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceFault {
    /// Affected node.
    pub node: NodeId,
    /// Metric to override.
    pub kind: ResourceKind,
    /// Absolute value the metric is pinned to during the window.
    pub value: f64,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive); `SimTime::MAX` for "until the end".
    pub until: SimTime,
}

/// A complete fault schedule for one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// API-level error injections.
    pub api_faults: Vec<ApiFault>,
    /// Time-windowed API error injections (cascade secondaries).
    pub timed_api_faults: Vec<TimedApiFault>,
    /// Link latency injections.
    pub latency: Vec<LatencyFault>,
    /// Dependency failures.
    pub deps: Vec<DepFault>,
    /// Resource overrides.
    pub resources: Vec<ResourceFault>,
    /// Partial network partitions between service pairs.
    pub partitions: Vec<PartitionFault>,
}

impl FaultPlan {
    /// An empty plan (fault-free run).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder-style: add an API fault.
    pub fn with_api_fault(mut self, f: ApiFault) -> FaultPlan {
        self.api_faults.push(f);
        self
    }

    /// Builder-style: add a time-windowed API fault.
    pub fn with_timed_api_fault(mut self, f: TimedApiFault) -> FaultPlan {
        self.timed_api_faults.push(f);
        self
    }

    /// Builder-style: add a partition fault.
    pub fn with_partition(mut self, f: PartitionFault) -> FaultPlan {
        self.partitions.push(f);
        self
    }

    /// Builder-style: add a latency fault.
    pub fn with_latency(mut self, f: LatencyFault) -> FaultPlan {
        self.latency.push(f);
        self
    }

    /// Builder-style: add a dependency fault.
    pub fn with_dep(mut self, f: DepFault) -> FaultPlan {
        self.deps.push(f);
        self
    }

    /// Builder-style: add a resource fault.
    pub fn with_resource(mut self, f: ResourceFault) -> FaultPlan {
        self.resources.push(f);
        self
    }

    /// The error (if any) to inject for the `occurrence`-th invocation of
    /// `api` by instance `inst` (running under `project`) at time `t`.
    /// Untimed faults match regardless of `t`; timed faults only inside
    /// their half-open window.
    pub fn api_error(
        &self,
        api: ApiId,
        inst: OpInstanceId,
        project: ProjectId,
        occurrence: u32,
        t: SimTime,
    ) -> Option<&ApiFault> {
        self.api_faults
            .iter()
            .find(|f| f.api == api && f.scope.matches(inst, project) && f.occurrence == occurrence)
            .or_else(|| {
                self.timed_api_faults
                    .iter()
                    .filter(|tf| t >= tf.from && t < tf.until)
                    .map(|tf| &tf.fault)
                    .find(|f| {
                        f.api == api && f.scope.matches(inst, project) && f.occurrence == occurrence
                    })
            })
    }

    /// Whether a `src → dst` service invocation by `inst` at time `t` is
    /// severed by an active partition.
    pub fn partition_cut(
        &self,
        src: Service,
        dst: Service,
        inst: OpInstanceId,
        t: SimTime,
    ) -> bool {
        self.partitions.iter().any(|p| p.severs(src, dst, inst, t))
    }

    /// Total extra latency injected on traffic touching `node` at time `t`.
    pub fn extra_latency(&self, node: NodeId, t: SimTime) -> SimTime {
        self.latency
            .iter()
            .filter(|f| f.node == node && t >= f.from && t < f.until)
            .map(|f| f.extra)
            .sum()
    }

    /// Whether `service` on `node` is down at time `t`.
    pub fn is_service_down(&self, node: NodeId, service: Service, t: SimTime) -> bool {
        self.deps.iter().any(|d| match d {
            DepFault::ServiceCrash {
                node: n,
                service: s,
                at,
            } => *n == node && *s == service && t >= *at,
            DepFault::NtpStop { node: n, at } => *n == node && service == Service::Ntp && t >= *at,
        })
    }

    /// Whether a dependency is healthy on `node` at time `t` (what the
    /// watchers report).
    pub fn dependency_healthy(&self, node: NodeId, dep: Dependency, t: SimTime) -> bool {
        match dep {
            Dependency::ServiceProcess(s) => !self.is_service_down(node, s, t),
            Dependency::NtpAgent => !self.is_service_down(node, Service::Ntp, t),
            // Reachability of the shared MySQL / RabbitMQ singletons
            // follows the remote process: if it crashed anywhere, every
            // node's TCP watcher sees it unreachable.
            Dependency::MySqlReachable => !self.is_singleton_down(Service::MySql, t),
            Dependency::RabbitMqReachable => !self.is_singleton_down(Service::RabbitMq, t),
            Dependency::Libvirt => true,
        }
    }

    /// Whether a singleton infrastructure service is down on any node.
    pub fn is_singleton_down(&self, service: Service, t: SimTime) -> bool {
        self.deps.iter().any(|d| {
            matches!(d, DepFault::ServiceCrash { service: s, at, .. } if *s == service && t >= *at)
        })
    }

    /// Resource override value for `(node, kind)` at time `t`, if any.
    pub fn resource_override(&self, node: NodeId, kind: ResourceKind, t: SimTime) -> Option<f64> {
        self.resources
            .iter()
            .find(|f| f.node == node && f.kind == kind && t >= f.from && t < f.until)
            .map(|f| f.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::secs;

    /// Any project — scope checks that don't involve projects.
    const P0: ProjectId = ProjectId(0);

    #[test]
    fn api_fault_matching_respects_scope_and_occurrence() {
        let plan = FaultPlan::none().with_api_fault(ApiFault {
            api: ApiId(5),
            scope: FaultScope::Instance(OpInstanceId(3)),
            occurrence: 1,
            error: InjectedError::RestStatus {
                status: 500,
                reason: None,
            },
            abort_op: true,
        });
        assert!(plan
            .api_error(ApiId(5), OpInstanceId(3), P0, 1, 0)
            .is_some());
        assert!(plan
            .api_error(ApiId(5), OpInstanceId(3), P0, 0, 0)
            .is_none());
        assert!(plan
            .api_error(ApiId(5), OpInstanceId(4), P0, 1, 0)
            .is_none());
        assert!(plan
            .api_error(ApiId(6), OpInstanceId(3), P0, 1, 0)
            .is_none());
    }

    #[test]
    fn all_instances_scope_matches_everyone() {
        let plan = FaultPlan::none().with_api_fault(ApiFault {
            api: ApiId(1),
            scope: FaultScope::AllInstances,
            occurrence: 0,
            error: InjectedError::RpcException {
                class: "Boom".into(),
            },
            abort_op: true,
        });
        assert!(plan
            .api_error(ApiId(1), OpInstanceId(0), P0, 0, 0)
            .is_some());
        assert!(plan
            .api_error(ApiId(1), OpInstanceId(77), P0, 0, 0)
            .is_some());
    }

    #[test]
    fn project_scope_matches_only_that_tenant() {
        let plan = FaultPlan::none().with_api_fault(ApiFault {
            api: ApiId(2),
            scope: FaultScope::Project(ProjectId(7)),
            occurrence: 0,
            error: InjectedError::RestStatus {
                status: 503,
                reason: None,
            },
            abort_op: true,
        });
        // Any instance of project 7 is hit, regardless of instance id.
        assert!(plan
            .api_error(ApiId(2), OpInstanceId(0), ProjectId(7), 0, 0)
            .is_some());
        assert!(plan
            .api_error(ApiId(2), OpInstanceId(99), ProjectId(7), 0, 0)
            .is_some());
        // Other tenants are untouched, even with the same instance ids.
        assert!(plan
            .api_error(ApiId(2), OpInstanceId(0), ProjectId(8), 0, 0)
            .is_none());
        assert!(plan
            .api_error(ApiId(2), OpInstanceId(99), ProjectId(0), 0, 0)
            .is_none());
    }

    #[test]
    fn scope_matches_directly() {
        let i3 = OpInstanceId(3);
        assert!(FaultScope::AllInstances.matches(i3, ProjectId(1)));
        assert!(FaultScope::Instance(i3).matches(i3, ProjectId(9)));
        assert!(!FaultScope::Instance(OpInstanceId(4)).matches(i3, ProjectId(9)));
        assert!(FaultScope::Project(ProjectId(2)).matches(i3, ProjectId(2)));
        assert!(!FaultScope::Project(ProjectId(2)).matches(i3, ProjectId(3)));
    }

    #[test]
    fn timed_api_fault_only_active_in_window() {
        let plan = FaultPlan::none().with_timed_api_fault(TimedApiFault {
            fault: ApiFault {
                api: ApiId(4),
                scope: FaultScope::AllInstances,
                occurrence: 0,
                error: InjectedError::RestStatus {
                    status: 500,
                    reason: None,
                },
                abort_op: true,
            },
            from: secs(10),
            until: secs(20),
        });
        let i = OpInstanceId(0);
        assert!(plan.api_error(ApiId(4), i, P0, 0, secs(9)).is_none());
        assert!(plan.api_error(ApiId(4), i, P0, 0, secs(10)).is_some());
        assert!(plan.api_error(ApiId(4), i, P0, 0, secs(19)).is_some());
        assert!(plan.api_error(ApiId(4), i, P0, 0, secs(20)).is_none());
    }

    #[test]
    fn full_partition_severs_both_directions_inside_window() {
        let plan = FaultPlan::none().with_partition(PartitionFault {
            a: Service::Nova,
            b: Service::Cinder,
            from: secs(5),
            until: secs(50),
            drop_prob: 1.0,
            seed: 1,
        });
        let i = OpInstanceId(0);
        assert!(plan.partition_cut(Service::Nova, Service::Cinder, i, secs(5)));
        assert!(plan.partition_cut(Service::Cinder, Service::Nova, i, secs(30)));
        assert!(!plan.partition_cut(Service::Nova, Service::Cinder, i, secs(4)));
        assert!(!plan.partition_cut(Service::Nova, Service::Cinder, i, secs(50)));
        // Other pairs are unaffected.
        assert!(!plan.partition_cut(Service::Nova, Service::Glance, i, secs(30)));
    }

    #[test]
    fn partial_partition_is_deterministic_and_roughly_calibrated() {
        let p = PartitionFault {
            a: Service::Nova,
            b: Service::Cinder,
            from: 0,
            until: SimTime::MAX,
            drop_prob: 0.5,
            seed: 42,
        };
        let drops = (0..1000u64)
            .filter(|&k| p.severs(Service::Nova, Service::Cinder, OpInstanceId(k), secs(k)))
            .count();
        // Deterministic replay: identical fault, identical outcome.
        let again = (0..1000u64)
            .filter(|&k| p.severs(Service::Nova, Service::Cinder, OpInstanceId(k), secs(k)))
            .count();
        assert_eq!(drops, again);
        assert!(
            (300..700).contains(&drops),
            "~half of 1000 coins drop, got {drops}"
        );
        // Degenerate probabilities short-circuit the coin entirely.
        let never = PartitionFault {
            drop_prob: 0.0,
            ..p
        };
        let always = PartitionFault {
            drop_prob: 1.0,
            ..p
        };
        assert!(!never.severs(Service::Nova, Service::Cinder, OpInstanceId(1), 0));
        assert!(always.severs(Service::Nova, Service::Cinder, OpInstanceId(1), 0));
    }

    #[test]
    fn latency_window_is_half_open() {
        let plan = FaultPlan::none().with_latency(LatencyFault {
            node: NodeId(2),
            extra: 50_000,
            from: secs(300),
            until: secs(900),
        });
        assert_eq!(plan.extra_latency(NodeId(2), secs(299)), 0);
        assert_eq!(plan.extra_latency(NodeId(2), secs(300)), 50_000);
        assert_eq!(plan.extra_latency(NodeId(2), secs(899)), 50_000);
        assert_eq!(plan.extra_latency(NodeId(2), secs(900)), 0);
        assert_eq!(plan.extra_latency(NodeId(3), secs(500)), 0);
    }

    #[test]
    fn overlapping_latency_faults_stack() {
        let plan = FaultPlan::none()
            .with_latency(LatencyFault {
                node: NodeId(1),
                extra: 10,
                from: 0,
                until: 100,
            })
            .with_latency(LatencyFault {
                node: NodeId(1),
                extra: 5,
                from: 50,
                until: 100,
            });
        assert_eq!(plan.extra_latency(NodeId(1), 60), 15);
        assert_eq!(plan.extra_latency(NodeId(1), 10), 10);
    }

    #[test]
    fn service_crash_is_permanent_from_at() {
        let plan = FaultPlan::none().with_dep(DepFault::ServiceCrash {
            node: NodeId(4),
            service: Service::NeutronAgent,
            at: secs(10),
        });
        assert!(!plan.is_service_down(NodeId(4), Service::NeutronAgent, secs(9)));
        assert!(plan.is_service_down(NodeId(4), Service::NeutronAgent, secs(10)));
        assert!(plan.is_service_down(NodeId(4), Service::NeutronAgent, secs(1000)));
        assert!(!plan.is_service_down(NodeId(5), Service::NeutronAgent, secs(1000)));
    }

    #[test]
    fn ntp_stop_reports_unhealthy_watcher() {
        let plan = FaultPlan::none().with_dep(DepFault::NtpStop {
            node: NodeId(3),
            at: secs(5),
        });
        assert!(plan.dependency_healthy(NodeId(3), Dependency::NtpAgent, secs(4)));
        assert!(!plan.dependency_healthy(NodeId(3), Dependency::NtpAgent, secs(6)));
        assert!(plan.dependency_healthy(
            NodeId(3),
            Dependency::ServiceProcess(Service::Cinder),
            secs(6)
        ));
    }

    #[test]
    fn resource_override_applies_in_window() {
        let plan = FaultPlan::none().with_resource(ResourceFault {
            node: NodeId(2),
            kind: ResourceKind::DiskFreeGb,
            value: 0.2,
            from: 0,
            until: SimTime::MAX,
        });
        assert_eq!(
            plan.resource_override(NodeId(2), ResourceKind::DiskFreeGb, secs(50)),
            Some(0.2)
        );
        assert_eq!(
            plan.resource_override(NodeId(2), ResourceKind::CpuPercent, secs(50)),
            None
        );
    }
}

#[cfg(test)]
mod properties {
    //! Property tests over random fault plans: the latency stacking model
    //! and crash permanence are load-bearing for every scenario, so their
    //! invariants are pinned across the whole input space, not just the
    //! handful of hand-picked windows above.
    use super::*;
    use proptest::prelude::*;

    prop_compose! {
        fn arb_latency_fault()(
            node in 0u8..6,
            extra in 1u64..100_000,
            from in 0u64..1_000_000u64,
            len in 1u64..1_000_000u64,
        ) -> LatencyFault {
            LatencyFault { node: NodeId(node), extra, from, until: from.saturating_add(len) }
        }
    }

    fn arb_plan() -> impl Strategy<Value = FaultPlan> {
        proptest::collection::vec(arb_latency_fault(), 0..8).prop_map(|latency| FaultPlan {
            latency,
            ..FaultPlan::default()
        })
    }

    proptest! {
        /// `extra_latency` at `t` equals the sum of exactly the faults
        /// whose half-open window contains `t` — stacking is additive and
        /// windows never leak.
        #[test]
        fn extra_latency_is_sum_of_active_windows(
            plan in arb_plan(),
            node in 0u8..6,
            t in 0u64..2_100_000u64,
        ) {
            let node = NodeId(node);
            let expected: SimTime = plan
                .latency
                .iter()
                .filter(|f| f.node == node && t >= f.from && t < f.until)
                .map(|f| f.extra)
                .sum();
            prop_assert_eq!(plan.extra_latency(node, t), expected);
        }

        /// Window edges are half-open for every fault in every plan: the
        /// fault contributes at `from` and has stopped at `until`.
        #[test]
        fn window_edges_are_half_open(plan in arb_plan()) {
            for f in &plan.latency {
                prop_assert!(plan.extra_latency(f.node, f.from) >= f.extra);
                let at_until = plan.extra_latency(f.node, f.until);
                let others: SimTime = plan
                    .latency
                    .iter()
                    .filter(|g| {
                        g.node == f.node
                            && !std::ptr::eq(*g, f)
                            && f.until >= g.from
                            && f.until < g.until
                    })
                    .map(|g| g.extra)
                    .sum();
                prop_assert_eq!(at_until, others, "no contribution at its own `until`");
            }
        }

        /// A crashed service never comes back: once `is_service_down`
        /// reports true at `t`, it reports true at every `t' >= t`.
        #[test]
        fn service_crash_is_permanent(
            node in 0u8..6,
            svc_idx in 0usize..Service::ALL.len(),
            at in 0u64..1_000_000u64,
            t1 in 0u64..2_000_000u64,
            dt in 0u64..2_000_000u64,
        ) {
            let svc = Service::ALL[svc_idx];
            let plan = FaultPlan::none()
                .with_dep(DepFault::ServiceCrash { node: NodeId(node), service: svc, at });
            let down1 = plan.is_service_down(NodeId(node), svc, t1);
            prop_assert_eq!(down1, t1 >= at);
            if down1 {
                prop_assert!(
                    plan.is_service_down(NodeId(node), svc, t1 + dt),
                    "crash must be permanent"
                );
            }
        }
    }
}
