//! Failure-propagation cascades.
//!
//! Real outages rarely stay put: a crashed Cinder volume service surfaces
//! minutes later as Nova attach failures; a skewed clock on the network
//! node invalidates tokens and knocks out every service that talks to
//! Neutron; a partition between two healthy services fails exactly the
//! calls that cross it. A [`Cascade`] models this: one **primary** fault
//! (service crash, resource exhaustion, dependency failure, or a partial
//! network partition between a service pair) plus **rules** that schedule
//! secondary faults on dependent services after a configurable delay.
//!
//! [`Cascade::compile`] lowers the whole schedule into an ordinary
//! [`FaultPlan`] before the run starts, so the executor needs no new
//! machinery and the run stays bit-reproducible: every probabilistic
//! choice (rule firing, delay jitter) draws a [`splitmix64`] coin keyed by
//! the cascade seed and the draw index — never the executor's main RNG
//! stream — and all times are [`SimTime`]. Compiling the same cascade
//! twice yields identical plans.
//!
//! Alongside the plan, compilation emits a [`CascadeTruth`]: the
//! ground-truth root service and the scheduled secondary (symptom)
//! activations, which the propagation experiment scores root-vs-symptom
//! attribution against.

use crate::deployment::Deployment;
use crate::engine::{secs, splitmix64, SimTime};
use crate::executor::RunConfig;
use crate::faults::{
    ApiFault, DepFault, FaultPlan, FaultScope, InjectedError, LatencyFault, PartitionFault,
    ResourceFault, TimedApiFault,
};
use gretel_model::{Catalog, HttpMethod, OpSpecId, OperationSpec, Service, Workflows};
use std::collections::VecDeque;
use std::sync::Arc;

/// The fault that starts a cascade.
#[derive(Debug, Clone, PartialEq)]
pub enum PrimaryFault {
    /// A dependency failure (service crash or NTP stop).
    Crash(DepFault),
    /// Resource exhaustion on a node.
    Exhaust(ResourceFault),
    /// A (possibly partial) network partition between two services.
    Partition(PartitionFault),
}

impl PrimaryFault {
    /// When the fault switches on.
    pub fn onset(&self) -> SimTime {
        match self {
            PrimaryFault::Crash(DepFault::ServiceCrash { at, .. }) => *at,
            PrimaryFault::Crash(DepFault::NtpStop { at, .. }) => *at,
            PrimaryFault::Exhaust(f) => f.from,
            PrimaryFault::Partition(f) => f.from,
        }
    }
}

/// A primary fault together with the service whose degradation it
/// represents — the service cascade rules trigger on, and the
/// ground-truth **root** of everything the cascade schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct Primary {
    /// The injected fault.
    pub fault: PrimaryFault,
    /// The degraded service (for a partition: the side that becomes
    /// unreachable from its callers).
    pub trigger: Service,
}

/// What a triggered rule injects.
#[derive(Debug, Clone, PartialEq)]
pub enum SecondaryEffect {
    /// Fail an API for `duration` starting at the (jittered) fire time.
    Api {
        /// The fault to activate; its own scope/error/abort are used as-is.
        fault: ApiFault,
        /// How long the fault stays active (`SimTime::MAX` = rest of run).
        duration: SimTime,
    },
    /// Correlated node-level fault group: crash `service` on *every* node
    /// hosting it, staggered `stagger` apart in deployment order — the
    /// "all three compute agents die within seconds of each other" shape.
    CrashGroup {
        /// Service to crash everywhere.
        service: Service,
        /// Delay between consecutive node crashes.
        stagger: SimTime,
    },
    /// Inject extra latency on the first node hosting `service`.
    Latency {
        /// Service whose node is slowed.
        service: Service,
        /// Extra one-way latency.
        extra: SimTime,
        /// How long the injection lasts.
        duration: SimTime,
    },
}

/// One propagation edge: when `upstream` degrades, `downstream` follows
/// after `delay` (plus coin-drawn jitter), with probability `prob`.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeRule {
    /// Service whose degradation triggers this rule.
    pub upstream: Service,
    /// Service the effect degrades. A rule with `downstream == upstream`
    /// models self-degradation (the primary's own API surface failing)
    /// and does not chain further.
    pub downstream: Service,
    /// Base delay from trigger to effect.
    pub delay: SimTime,
    /// Upper bound on coin-drawn extra delay (0 = none).
    pub jitter: SimTime,
    /// Probability the rule fires at all (1.0 = always).
    pub prob: f64,
    /// The secondary fault to inject.
    pub effect: SecondaryEffect,
}

/// A seeded cascade schedule: primaries, propagation rules, and a depth
/// cap on transitive triggering.
#[derive(Debug, Clone, PartialEq)]
pub struct Cascade {
    /// Seed for every firing/jitter coin.
    pub seed: u64,
    /// The fault(s) that start the cascade.
    pub primaries: Vec<Primary>,
    /// Propagation rules, matched transitively against degraded services.
    pub rules: Vec<CascadeRule>,
    /// Maximum propagation depth (primaries are depth 0; a rule triggered
    /// by a primary fires at depth 1).
    pub max_depth: u32,
}

/// One scheduled secondary activation, for scoring.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggeredFault {
    /// The degraded (symptom) service.
    pub service: Service,
    /// When the secondary fault switches on.
    pub at: SimTime,
    /// Index of the rule that fired.
    pub rule: usize,
    /// Propagation depth (1 = directly off a primary).
    pub depth: u32,
}

/// Ground truth emitted by [`Cascade::compile`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CascadeTruth {
    /// Root services with their fault onsets (one per primary).
    pub roots: Vec<(Service, SimTime)>,
    /// Every scheduled secondary activation, in firing order.
    pub cascade: Vec<TriggeredFault>,
}

impl CascadeTruth {
    /// Distinct root services.
    pub fn root_services(&self) -> Vec<Service> {
        let mut v: Vec<Service> = self.roots.iter().map(|&(s, _)| s).collect();
        v.sort_by_key(|s| s.index());
        v.dedup();
        v
    }

    /// Distinct symptom services: cascade downstreams that are not
    /// themselves roots (self-degradation rules re-fail the root, not a
    /// new victim).
    pub fn symptom_services(&self) -> Vec<Service> {
        let roots = self.root_services();
        let mut v: Vec<Service> = self
            .cascade
            .iter()
            .map(|t| t.service)
            .filter(|s| !roots.contains(s))
            .collect();
        v.sort_by_key(|s| s.index());
        v.dedup();
        v
    }
}

impl Cascade {
    /// Lower the cascade into a [`FaultPlan`] plus its ground truth.
    ///
    /// Deterministic: rule firing and jitter draw [`splitmix64`] coins
    /// keyed by `(seed, draw index, salt)`, and triggers are processed in
    /// FIFO order, so the same cascade always compiles to the same plan.
    pub fn compile(&self, deployment: &Deployment) -> (FaultPlan, CascadeTruth) {
        let mut plan = FaultPlan::none();
        let mut truth = CascadeTruth::default();
        // (degraded service, degradation time, depth)
        let mut work: VecDeque<(Service, SimTime, u32)> = VecDeque::new();

        for p in &self.primaries {
            match &p.fault {
                PrimaryFault::Crash(f) => plan.deps.push(f.clone()),
                PrimaryFault::Exhaust(f) => plan.resources.push(*f),
                PrimaryFault::Partition(f) => plan.partitions.push(*f),
            }
            truth.roots.push((p.trigger, p.fault.onset()));
            work.push_back((p.trigger, p.fault.onset(), 0));
        }

        let mut draw: u64 = 0;
        while let Some((svc, t0, depth)) = work.pop_front() {
            if depth >= self.max_depth {
                continue;
            }
            for (ri, rule) in self.rules.iter().enumerate() {
                if rule.upstream != svc {
                    continue;
                }
                draw += 1;
                if rule.prob < 1.0 {
                    let coin = splitmix64(self.seed, draw, 41);
                    let u = (coin >> 11) as f64 / (1u64 << 53) as f64;
                    if u >= rule.prob {
                        continue;
                    }
                }
                let jitter = if rule.jitter > 0 {
                    splitmix64(self.seed, draw, 43) % (rule.jitter + 1)
                } else {
                    0
                };
                let fire = t0.saturating_add(rule.delay).saturating_add(jitter);
                match &rule.effect {
                    SecondaryEffect::Api { fault, duration } => {
                        plan.timed_api_faults.push(TimedApiFault {
                            fault: fault.clone(),
                            from: fire,
                            until: fire.saturating_add(*duration),
                        });
                    }
                    SecondaryEffect::CrashGroup { service, stagger } => {
                        for (i, &node) in deployment.nodes_of(*service).iter().enumerate() {
                            plan.deps.push(DepFault::ServiceCrash {
                                node,
                                service: *service,
                                at: fire.saturating_add(stagger.saturating_mul(i as u64)),
                            });
                        }
                    }
                    SecondaryEffect::Latency {
                        service,
                        extra,
                        duration,
                    } => {
                        plan.latency.push(LatencyFault {
                            node: deployment.node_of(*service, 0),
                            extra: *extra,
                            from: fire,
                            until: fire.saturating_add(*duration),
                        });
                    }
                }
                truth.cascade.push(TriggeredFault {
                    service: rule.downstream,
                    at: fire,
                    rule: ri,
                    depth: depth + 1,
                });
                // Self-degradation rules do not chain; everything else
                // propagates until the depth cap.
                if rule.downstream != rule.upstream {
                    work.push_back((rule.downstream, fire, depth + 1));
                }
            }
        }
        (plan, truth)
    }
}

// ---------------------------------------------------------------------------
// Canned cascade scenarios for the propagation experiment.
// ---------------------------------------------------------------------------

/// A fully assembled cascade scenario: specs + compiled plan + ground
/// truth for root-vs-symptom scoring.
pub struct CascadeScenario {
    /// Short identifier.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Deployment it runs on.
    pub deployment: Deployment,
    /// The operation mix (staggered across the run window).
    pub specs: Vec<OperationSpec>,
    /// The compiled fault plan.
    pub plan: FaultPlan,
    /// Executor configuration.
    pub config: RunConfig,
    /// Ground truth from compilation.
    pub truth: CascadeTruth,
}

impl CascadeScenario {
    /// Run the scenario to completion.
    pub fn run(&self, catalog: Arc<Catalog>) -> crate::executor::Execution {
        let refs: Vec<&OperationSpec> = self.specs.iter().collect();
        crate::executor::Runner::new(catalog, &self.deployment, &self.plan, self.config).run(&refs)
    }
}

/// Rotating storage-heavy mix: volume_attach (exercises the Nova→Cinder
/// edge), volume_create (direct Cinder traffic), image_list (healthy
/// background). `n` instances staggered across the configured window.
fn storage_mix(wf: &Workflows, n: usize) -> Vec<OperationSpec> {
    (0..n)
        .map(|i| {
            let (name, steps, category) = match i % 3 {
                0 => (
                    "storage.volume_attach",
                    wf.volume_attach(),
                    gretel_model::Category::Storage,
                ),
                1 => (
                    "storage.volume_create",
                    wf.volume_create(),
                    gretel_model::Category::Storage,
                ),
                _ => (
                    "image.image_list",
                    wf.image_list(),
                    gretel_model::Category::Image,
                ),
            };
            OperationSpec {
                id: OpSpecId(i as u16),
                name: format!("{name}.{i}"),
                category,
                steps,
            }
        })
        .collect()
}

/// Cascade 1 — **Cinder crash → Nova attach failures.** The Cinder volume
/// service crashes at 10 s; ten seconds later Nova's volume-attachment API
/// starts failing for everyone. Direct Cinder traffic fails from the crash
/// on (root symptoms), attach operations fail at *Nova* (secondary
/// symptoms) — a correct analysis names Cinder as root and marks the Nova
/// failures as symptoms.
pub fn cinder_crash_cascade(catalog: &Arc<Catalog>, seed: u64) -> CascadeScenario {
    let wf = Workflows::new(catalog.clone());
    let deployment = Deployment::standard();
    let cinder_node = deployment.node_of(Service::Cinder, 0);
    let attach_api = catalog.rest_expect(
        Service::Nova,
        HttpMethod::Post,
        "/v2.1/servers/{id}/os-volume_attachments",
    );

    let cascade = Cascade {
        seed: seed ^ 0xCA5C_ADE1,
        primaries: vec![Primary {
            fault: PrimaryFault::Crash(DepFault::ServiceCrash {
                node: cinder_node,
                service: Service::Cinder,
                at: secs(10),
            }),
            trigger: Service::Cinder,
        }],
        rules: vec![CascadeRule {
            upstream: Service::Cinder,
            downstream: Service::Nova,
            delay: secs(10),
            jitter: secs(1),
            prob: 1.0,
            effect: SecondaryEffect::Api {
                fault: ApiFault {
                    api: attach_api,
                    scope: FaultScope::AllInstances,
                    occurrence: 0,
                    error: InjectedError::RestStatus {
                        status: 500,
                        reason: Some("VolumeServiceUnavailable".into()),
                    },
                    abort_op: true,
                },
                duration: SimTime::MAX,
            },
        }],
        max_depth: 2,
    };
    let (plan, truth) = cascade.compile(&deployment);

    CascadeScenario {
        name: "cascade-cinder-nova",
        description: "Cinder crash cascades into Nova volume-attach failures; root is Cinder, the Nova errors are symptoms",
        deployment,
        specs: storage_mix(&wf, 36),
        plan,
        config: RunConfig { seed, start_window: secs(40), ..RunConfig::default() },
        truth,
    }
}

/// Cascade 2 — **NTP skew on the network node → multi-service fallout.**
/// NTP stops on the Neutron host at 8 s; Neutron's own API surface starts
/// rejecting requests with token errors shortly after (self-degradation),
/// and twelve seconds later both Nova (boot API) and the L2 agents
/// (port-teardown RPC casts) follow. Root is Neutron (flat RCA sees the
/// dead NTP agent on its node). Both secondaries manifest as Nova
/// failures — casts produce no reply on the wire, so the agent-side
/// fault is only visible through the dashboard relay on Nova's APIs.
pub fn ntp_skew_cascade(catalog: &Arc<Catalog>, seed: u64) -> CascadeScenario {
    let wf = Workflows::new(catalog.clone());
    let deployment = Deployment::standard();
    let neutron_node = deployment.node_of(Service::Neutron, 0);
    let networks_api =
        catalog.rest_expect(Service::Neutron, HttpMethod::Get, "/v2.0/networks.json");
    let boot_api = catalog.rest_expect(Service::Nova, HttpMethod::Post, "/v2.1/servers");
    let port_delete_rpc = catalog.rpc_expect(Service::NeutronAgent, "port_delete");

    let timed_all = |api, error| SecondaryEffect::Api {
        fault: ApiFault {
            api,
            scope: FaultScope::AllInstances,
            occurrence: 0,
            error,
            abort_op: true,
        },
        duration: SimTime::MAX,
    };

    let cascade = Cascade {
        seed: seed ^ 0xCA5C_ADE2,
        primaries: vec![Primary {
            fault: PrimaryFault::Crash(DepFault::NtpStop {
                node: neutron_node,
                at: secs(8),
            }),
            trigger: Service::Neutron,
        }],
        rules: vec![
            CascadeRule {
                upstream: Service::Neutron,
                downstream: Service::Neutron,
                delay: secs(2),
                jitter: 0,
                prob: 1.0,
                effect: timed_all(
                    networks_api,
                    InjectedError::RestStatus {
                        status: 401,
                        reason: Some("TokenExpired: clock skew".into()),
                    },
                ),
            },
            CascadeRule {
                upstream: Service::Neutron,
                downstream: Service::Nova,
                delay: secs(12),
                jitter: secs(1),
                prob: 1.0,
                effect: timed_all(
                    boot_api,
                    InjectedError::RestStatus {
                        status: 500,
                        reason: Some("NetworkDegraded: cannot allocate".into()),
                    },
                ),
            },
            // The server's port_delete casts to the L2 agents start
            // failing too. Casts have no reply on the wire, so the
            // failure's only observable footprint is the §5.3.1 REST
            // relay on the vm_delete origin API — the *nameable* symptom
            // service is therefore Nova, not the agent itself.
            CascadeRule {
                upstream: Service::Neutron,
                downstream: Service::Nova,
                delay: secs(12),
                jitter: secs(1),
                prob: 1.0,
                effect: timed_all(
                    port_delete_rpc,
                    InjectedError::RpcException {
                        class: "AgentUnreachable".into(),
                    },
                ),
            },
        ],
        max_depth: 2,
    };
    let (plan, truth) = cascade.compile(&deployment);

    let specs = (0..36)
        .map(|i| {
            let (name, steps, category) = match i % 3 {
                0 => (
                    "compute.vm_create",
                    wf.vm_create(),
                    gretel_model::Category::Compute,
                ),
                1 => (
                    "compute.vm_delete",
                    wf.vm_delete(),
                    gretel_model::Category::Compute,
                ),
                _ => (
                    "image.image_list",
                    wf.image_list(),
                    gretel_model::Category::Image,
                ),
            };
            OperationSpec {
                id: OpSpecId(i as u16),
                name: format!("{name}.{i}"),
                category,
                steps,
            }
        })
        .collect();

    CascadeScenario {
        name: "cascade-ntp-multiservice",
        description: "NTP skew on the Neutron host degrades Neutron, then Nova and the L2 agents; root is Neutron via its dead NTP agent",
        deployment,
        specs,
        plan,
        config: RunConfig { seed, start_window: secs(45), ..RunConfig::default() },
        truth,
    }
}

/// Cascade 3 — **partition-induced split.** A full partition severs the
/// Nova↔Cinder pair at 10 s: both services stay up, every watcher stays
/// healthy, but the attach workflow's Nova→Cinder call times out (503 on a
/// *Cinder* API — with no node-local cause for flat RCA to find). Twelve
/// seconds later Nova starts failing attach requests outright. Only the
/// traffic graph can name Cinder as the root here.
pub fn partition_split_cascade(catalog: &Arc<Catalog>, seed: u64) -> CascadeScenario {
    let wf = Workflows::new(catalog.clone());
    let deployment = Deployment::standard();
    let attach_api = catalog.rest_expect(
        Service::Nova,
        HttpMethod::Post,
        "/v2.1/servers/{id}/os-volume_attachments",
    );

    let cascade = Cascade {
        seed: seed ^ 0xCA5C_ADE3,
        primaries: vec![Primary {
            fault: PrimaryFault::Partition(PartitionFault {
                a: Service::Nova,
                b: Service::Cinder,
                from: secs(10),
                until: SimTime::MAX,
                drop_prob: 1.0,
                seed: seed ^ 0x9A87,
            }),
            trigger: Service::Cinder,
        }],
        rules: vec![CascadeRule {
            upstream: Service::Cinder,
            downstream: Service::Nova,
            delay: secs(12),
            jitter: secs(1),
            prob: 1.0,
            effect: SecondaryEffect::Api {
                fault: ApiFault {
                    api: attach_api,
                    scope: FaultScope::AllInstances,
                    occurrence: 0,
                    error: InjectedError::RestStatus {
                        status: 500,
                        reason: Some("CinderUnreachable: attach rejected".into()),
                    },
                    abort_op: true,
                },
                duration: SimTime::MAX,
            },
        }],
        max_depth: 2,
    };
    let (plan, truth) = cascade.compile(&deployment);

    CascadeScenario {
        name: "cascade-partition-nova-cinder",
        description: "Nova↔Cinder partition: healthy processes, healthy watchers, failing cross-service calls; graph walk must name Cinder",
        deployment,
        specs: storage_mix(&wf, 36),
        plan,
        config: RunConfig { seed, start_window: secs(45), ..RunConfig::default() },
        truth,
    }
}

/// The propagation experiment's cascade suite.
pub fn cascade_suite(catalog: &Arc<Catalog>, seed: u64) -> Vec<CascadeScenario> {
    vec![
        cinder_crash_cascade(catalog, seed),
        ntp_skew_cascade(catalog, seed ^ 0x55),
        partition_split_cascade(catalog, seed ^ 0xAA),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_model::NodeId;

    #[test]
    fn compile_is_deterministic() {
        let cat = Catalog::openstack();
        let fns: [fn(&Arc<Catalog>, u64) -> CascadeScenario; 3] = [
            cinder_crash_cascade,
            ntp_skew_cascade,
            partition_split_cascade,
        ];
        for f in fns {
            let a: CascadeScenario = f(&cat, 42);
            let b: CascadeScenario = f(&cat, 42);
            assert_eq!(a.plan, b.plan, "{}: same seed, same plan", a.name);
            assert_eq!(a.truth, b.truth, "{}: same seed, same truth", a.name);
            let c: CascadeScenario = f(&cat, 43);
            assert_ne!(a.config.seed, c.config.seed);
        }
    }

    #[test]
    fn secondary_faults_fire_after_their_delay() {
        let cat = Catalog::openstack();
        let sc = cinder_crash_cascade(&cat, 7);
        assert_eq!(sc.truth.roots, vec![(Service::Cinder, secs(10))]);
        assert_eq!(sc.truth.cascade.len(), 1);
        let t = &sc.truth.cascade[0];
        assert_eq!(t.service, Service::Nova);
        assert_eq!(t.depth, 1);
        assert!(
            t.at >= secs(20) && t.at <= secs(21),
            "delay 10s + jitter <= 1s, got {}",
            t.at
        );
        assert_eq!(sc.plan.timed_api_faults.len(), 1);
        assert_eq!(sc.plan.timed_api_faults[0].from, t.at);
    }

    #[test]
    fn truth_separates_roots_from_symptoms() {
        let cat = Catalog::openstack();
        let sc = ntp_skew_cascade(&cat, 9);
        assert_eq!(sc.truth.root_services(), vec![Service::Neutron]);
        // The self-degradation rule re-fails Neutron; it must not appear
        // as a symptom of itself. Both downstream rules name Nova (the
        // L2-agent cast failures surface via the Nova dashboard relay),
        // and the duplicate collapses.
        assert_eq!(sc.truth.symptom_services(), vec![Service::Nova]);
        assert_eq!(sc.truth.cascade.len(), 3);
    }

    #[test]
    fn crash_group_staggers_across_hosting_nodes() {
        let dep = Deployment::standard();
        let cascade = Cascade {
            seed: 1,
            primaries: vec![Primary {
                fault: PrimaryFault::Crash(DepFault::ServiceCrash {
                    node: NodeId(1),
                    service: Service::Neutron,
                    at: secs(5),
                }),
                trigger: Service::Neutron,
            }],
            rules: vec![CascadeRule {
                upstream: Service::Neutron,
                downstream: Service::NeutronAgent,
                delay: secs(3),
                jitter: 0,
                prob: 1.0,
                effect: SecondaryEffect::CrashGroup {
                    service: Service::NeutronAgent,
                    stagger: secs(2),
                },
            }],
            max_depth: 2,
        };
        let (plan, truth) = cascade.compile(&dep);
        // One primary crash + one staggered crash per compute node.
        let agents: Vec<_> = plan
            .deps
            .iter()
            .filter_map(|d| match d {
                DepFault::ServiceCrash {
                    service: Service::NeutronAgent,
                    at,
                    node,
                } => Some((*node, *at)),
                _ => None,
            })
            .collect();
        assert_eq!(agents.len(), dep.compute_nodes().len());
        assert_eq!(agents[0].1, secs(8));
        assert_eq!(agents[1].1, secs(10));
        assert_eq!(agents[2].1, secs(12));
        assert_eq!(truth.cascade.len(), 1);
    }

    #[test]
    fn probabilistic_rules_draw_stable_coins() {
        let dep = Deployment::standard();
        let mk = |seed| Cascade {
            seed,
            primaries: vec![Primary {
                fault: PrimaryFault::Crash(DepFault::NtpStop {
                    node: NodeId(3),
                    at: 0,
                }),
                trigger: Service::Cinder,
            }],
            rules: (0..16)
                .map(|i| CascadeRule {
                    upstream: Service::Cinder,
                    downstream: Service::Nova,
                    delay: secs(i),
                    jitter: secs(4),
                    prob: 0.5,
                    effect: SecondaryEffect::Latency {
                        service: Service::Nova,
                        extra: 1000,
                        duration: secs(1),
                    },
                })
                .collect(),
            max_depth: 1,
        };
        let (p1, t1) = mk(11).compile(&dep);
        let (p2, t2) = mk(11).compile(&dep);
        assert_eq!(p1, p2);
        assert_eq!(t1, t2);
        // prob 0.5 over 16 draws: some fire, some don't.
        assert!(
            !t1.cascade.is_empty() && t1.cascade.len() < 16,
            "got {}",
            t1.cascade.len()
        );
        let (_, t3) = mk(12).compile(&dep);
        assert_ne!(t1.cascade, t3.cascade, "different seed, different firings");
    }

    #[test]
    fn depth_cap_stops_transitive_chains() {
        let dep = Deployment::standard();
        // Nova -> Glance -> Swift chain; with max_depth 1 only the first
        // hop fires.
        let chain = |max_depth| Cascade {
            seed: 3,
            primaries: vec![Primary {
                fault: PrimaryFault::Exhaust(ResourceFault {
                    node: NodeId(0),
                    kind: crate::resources::ResourceKind::CpuPercent,
                    value: 99.0,
                    from: secs(1),
                    until: SimTime::MAX,
                }),
                trigger: Service::Nova,
            }],
            rules: vec![
                CascadeRule {
                    upstream: Service::Nova,
                    downstream: Service::Glance,
                    delay: secs(2),
                    jitter: 0,
                    prob: 1.0,
                    effect: SecondaryEffect::Latency {
                        service: Service::Glance,
                        extra: 500,
                        duration: secs(5),
                    },
                },
                CascadeRule {
                    upstream: Service::Glance,
                    downstream: Service::Swift,
                    delay: secs(2),
                    jitter: 0,
                    prob: 1.0,
                    effect: SecondaryEffect::Latency {
                        service: Service::Swift,
                        extra: 500,
                        duration: secs(5),
                    },
                },
            ],
            max_depth,
        };
        let (_, shallow) = chain(1).compile(&dep);
        assert_eq!(shallow.cascade.len(), 1);
        let (_, deep) = chain(3).compile(&dep);
        assert_eq!(deep.cascade.len(), 2);
        assert_eq!(deep.cascade[1].service, Service::Swift);
        assert_eq!(deep.cascade[1].depth, 2);
        assert_eq!(deep.cascade[1].at, secs(5), "1s onset + 2s + 2s");
        assert_eq!(
            deep.symptom_services(),
            vec![Service::Glance, Service::Swift]
        );
    }
}
