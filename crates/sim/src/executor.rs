//! Concurrent operation executor.
//!
//! Runs a set of operation instances against a [`Deployment`] under a
//! [`FaultPlan`], producing the interleaved, timestamped message stream a
//! passive network monitor would capture, plus the resource and
//! dependency-watcher telemetry the collectd-style agents would report.
//!
//! The executor is a discrete-event simulation: each instance is a little
//! state machine stepping through its spec; steps take sampled service
//! times (inflated by node load and injected latency); instances start
//! staggered across a window, so concurrent operations interleave exactly
//! the way the paper's operation-detection problem requires (§4,
//! "Challenge").

use crate::deployment::Deployment;
use crate::engine::{ms, EventQueue, SimTime, SECOND};
use crate::faults::{FaultPlan, InjectedError};
use crate::resources::{sample_value, Baseline, ResourceKind, ResourceSample};
use gretel_model::message::{
    reason_phrase, render_rest_request_payload, render_rest_response_payload, render_rpc_payload,
};
use gretel_model::{
    ApiId, ApiKind, Catalog, ConnKey, Dependency, Direction, HttpMethod, Message, MessageId,
    NodeId, OpInstanceId, OperationSpec, ProjectId, RpcStyle, Service, WireKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// One dependency-watcher observation (paper §5.1 / §6: TCP reachability
/// and process liveness checks).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatcherSample {
    /// Sample time.
    pub ts: SimTime,
    /// Node being watched.
    pub node: NodeId,
    /// The dependency checked.
    pub dep: Dependency,
    /// Whether it was healthy.
    pub healthy: bool,
}

/// Uniform think-time range between an instance's steps, microseconds.
const THINK_TIME: (SimTime, SimTime) = (ms(1), ms(8));
/// Resource/watcher polling period (paper: collectd at 1 s).
const POLL_INTERVAL: SimTime = SECOND;
/// Node concurrency capacity before queueing delay kicks in.
const LOAD_CAPACITY: usize = 48;
/// Heartbeat RPC period per agent (`report_state`).
const HEARTBEAT_INTERVAL: SimTime = SECOND;
/// Status-update RPC period per compute node.
const STATUS_INTERVAL: SimTime = 10 * SECOND;
/// Probability that a successful GET is immediately repeated (idempotent
/// repeats the noise filter must prune).
const GET_REPEAT_PROB: f64 = 0.10;

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// RNG seed; every run with the same seed, specs, deployment and plan
    /// is bit-identical.
    pub seed: u64,
    /// Instance starts are sampled uniformly in `[0, start_window]`
    /// (closed-loop batch).
    pub start_window: SimTime,
    /// Background noise: agent heartbeats, compute status updates,
    /// Keystone chatter at each operation start and idempotent GET
    /// repeats. Off gives pure operation traffic for tests; the paper's
    /// "controlled setting" used for fingerprinting still captures noise.
    pub noise: bool,
    /// Propagate a correlation id on every operation message (the
    /// `correlation_id` OpenStack was introducing; paper §5.3.1 notes
    /// GRETEL can exploit it once deployed). Off by default — LIBERTY-era
    /// deployments did not have it.
    pub correlation_ids: bool,
    /// Number of tenant projects; instance `i` runs as project
    /// `i % projects`. Lets [`crate::faults::FaultScope::Project`] target
    /// one tenant's traffic. Values `0` and `1` both mean a single tenant.
    pub projects: u32,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0,
            start_window: 2 * SECOND,
            noise: true,
            correlation_ids: false,
            projects: 1,
        }
    }
}

/// Outcome of one operation instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceOutcome {
    /// Instance id (index into the spec list passed to [`Runner::run`]).
    pub inst: OpInstanceId,
    /// Name of the executed spec.
    pub spec_name: String,
    /// Start time.
    pub started_at: SimTime,
    /// Completion or abort time.
    pub finished_at: SimTime,
    /// Whether the operation aborted on a fault.
    pub aborted: bool,
    /// The API whose invocation failed, if any.
    pub failed_api: Option<ApiId>,
    /// Tenant project the instance ran as (`inst % RunConfig::projects`).
    pub project: ProjectId,
}

/// Everything one simulation run produced.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Captured messages, in timestamp order.
    pub messages: Vec<Message>,
    /// Resource telemetry.
    pub resources: Vec<ResourceSample>,
    /// Dependency-watcher telemetry.
    pub watchers: Vec<WatcherSample>,
    /// Per-instance outcomes.
    pub outcomes: Vec<InstanceOutcome>,
    /// Total simulated duration.
    pub duration: SimTime,
}

impl Execution {
    /// Wire bytes across all messages (payloads only).
    pub fn total_payload_bytes(&self) -> usize {
        self.messages.iter().map(|m| m.payload.len()).sum()
    }
}

#[derive(Debug)]
enum Ev {
    /// Instance enters the system (auth chatter + first step).
    Start { inst: usize },
    /// Fire the instance's current step.
    Fire { inst: usize },
    /// The in-flight step's service time elapsed.
    StepDone { inst: usize },
    /// Telemetry sampling tick.
    Poll,
    /// Agent heartbeat tick.
    Heartbeat { node: NodeId, service: Service },
    /// Compute-node status-update tick.
    StatusUpdate { node: NodeId },
}

struct Pending {
    api: ApiId,
    src_service: Service,
    dst_service: Service,
    src_node: NodeId,
    dst_node: NodeId,
    conn: ConnKey,
    uri: String,
    method: Option<HttpMethod>,
    rpc_method: Option<String>,
    rpc_msg_id: Option<u64>,
    rpc_style: Option<RpcStyle>,
    error: Option<InjectedError>,
    abort: bool,
}

struct InstState {
    spec_idx: usize,
    step: usize,
    occurrences: HashMap<ApiId, u32>,
    pending: Option<Pending>,
    started_at: SimTime,
    done: bool,
    aborted: bool,
    failed_api: Option<ApiId>,
}

struct RunState {
    out: Execution,
    active: HashMap<NodeId, usize>,
    next_msg_id: u64,
    next_rpc_id: u64,
    remaining: usize,
    correlation_ids: bool,
    projects: u32,
}

impl RunState {
    fn emit(&mut self, mut msg: Message) {
        msg.id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        if self.correlation_ids && !msg.truth_noise {
            // The deployment propagates one correlation id per operation.
            msg.correlation_id = msg.truth_op.map(|o| o.0);
        }
        // Every call an operation makes is scoped to its tenant's Keystone
        // token, so idempotent GET repeats of the op carry the project too;
        // pure background traffic (heartbeats, token issuance) has none.
        msg.project = msg
            .truth_op
            .map(|o| ProjectId(o.0 as u32 % self.projects.max(1)));
        debug_assert!(
            self.out
                .messages
                .last()
                .map(|m| m.ts_us <= msg.ts_us)
                .unwrap_or(true),
            "messages must be emitted in time order"
        );
        self.out.messages.push(msg);
    }
}

/// Runs operation instances to completion under a fault plan.
pub struct Runner<'a> {
    catalog: Arc<Catalog>,
    deployment: &'a Deployment,
    plan: &'a FaultPlan,
    config: RunConfig,
}

impl<'a> Runner<'a> {
    /// Create a runner.
    pub fn new(
        catalog: Arc<Catalog>,
        deployment: &'a Deployment,
        plan: &'a FaultPlan,
        config: RunConfig,
    ) -> Runner<'a> {
        Runner {
            catalog,
            deployment,
            plan,
            config,
        }
    }

    /// Tenant project of instance `inst` (round-robin over
    /// [`RunConfig::projects`]).
    fn project_of(&self, inst: usize) -> ProjectId {
        ProjectId(inst as u32 % self.config.projects.max(1))
    }

    /// Execute one instance of each spec in `specs`. Instance `i` gets
    /// [`OpInstanceId`]`(i)`; messages come back in timestamp order.
    pub fn run(&self, specs: &[&OperationSpec]) -> Execution {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xC0FF_EE00_D15E_A5E5);
        let mut q: EventQueue<Ev> = EventQueue::new();
        let mut st = RunState {
            out: Execution {
                messages: Vec::new(),
                resources: Vec::new(),
                watchers: Vec::new(),
                outcomes: Vec::new(),
                duration: 0,
            },
            active: HashMap::new(),
            next_msg_id: 0,
            next_rpc_id: 1,
            remaining: specs.len(),
            correlation_ids: self.config.correlation_ids,
            projects: self.config.projects,
        };
        let mut insts: Vec<InstState> = (0..specs.len())
            .map(|i| InstState {
                spec_idx: i,
                step: 0,
                occurrences: HashMap::new(),
                pending: None,
                started_at: 0,
                done: false,
                aborted: false,
                failed_api: None,
            })
            .collect();
        let baselines: HashMap<NodeId, Baseline> = self
            .deployment
            .nodes()
            .iter()
            .map(|n| (n.id, Baseline::for_role(n.role)))
            .collect();

        for i in 0..specs.len() {
            let at = if self.config.start_window == 0 {
                0
            } else {
                rng.gen_range(0..=self.config.start_window)
            };
            q.schedule(at, Ev::Start { inst: i });
        }
        q.schedule(0, Ev::Poll);
        if self.config.noise {
            for node in self.deployment.nodes() {
                for &svc in &node.services {
                    if matches!(
                        svc,
                        Service::NovaCompute | Service::NeutronAgent | Service::Cinder
                    ) {
                        let jitter = rng.gen_range(0..HEARTBEAT_INTERVAL);
                        q.schedule(
                            jitter,
                            Ev::Heartbeat {
                                node: node.id,
                                service: svc,
                            },
                        );
                    }
                }
                if node.is_compute {
                    let jitter = rng.gen_range(0..STATUS_INTERVAL);
                    q.schedule(jitter, Ev::StatusUpdate { node: node.id });
                }
            }
        }

        while let Some((t, ev)) = q.pop() {
            match ev {
                Ev::Start { inst } => {
                    insts[inst].started_at = t;
                    if self.config.noise {
                        self.emit_keystone_noise(&mut st, t, inst as u64);
                    }
                    self.fire_step(specs, &mut insts, inst, t, &mut st, &mut q, &mut rng);
                }
                Ev::Fire { inst } => {
                    self.fire_step(specs, &mut insts, inst, t, &mut st, &mut q, &mut rng);
                }
                Ev::StepDone { inst } => {
                    self.complete_step(specs, &mut insts, inst, t, &mut st, &mut rng);
                    let s = &mut insts[inst];
                    if s.done {
                        st.out.outcomes.push(InstanceOutcome {
                            inst: OpInstanceId(inst as u64),
                            spec_name: specs[s.spec_idx].name.clone(),
                            started_at: s.started_at,
                            finished_at: t,
                            aborted: s.aborted,
                            failed_api: s.failed_api,
                            project: self.project_of(inst),
                        });
                        st.remaining -= 1;
                    } else {
                        let think = rng.gen_range(THINK_TIME.0..=THINK_TIME.1);
                        q.schedule(t + think, Ev::Fire { inst });
                    }
                }
                Ev::Poll => {
                    self.poll(&mut st, t, &mut rng, &baselines);
                    if st.remaining > 0 {
                        q.schedule(t + POLL_INTERVAL, Ev::Poll);
                    }
                }
                Ev::Heartbeat { node, service } => {
                    self.emit_heartbeat(&mut st, t, node, service);
                    if st.remaining > 0 {
                        q.schedule(t + HEARTBEAT_INTERVAL, Ev::Heartbeat { node, service });
                    }
                }
                Ev::StatusUpdate { node } => {
                    self.emit_status_update(&mut st, t, node);
                    if st.remaining > 0 {
                        q.schedule(t + STATUS_INTERVAL, Ev::StatusUpdate { node });
                    }
                }
            }
        }

        let mut out = st.out;
        out.duration = out
            .messages
            .last()
            .map(|m| m.ts_us)
            .into_iter()
            .chain(out.resources.last().map(|r| r.ts))
            .max()
            .unwrap_or(0);
        out.outcomes.sort_by_key(|o| o.inst);
        out
    }

    /// Fire the current step of `inst`: emit the request message, decide
    /// success/failure, and schedule completion after the sampled service
    /// time.
    #[allow(clippy::too_many_arguments)]
    fn fire_step(
        &self,
        specs: &[&OperationSpec],
        insts: &mut [InstState],
        inst: usize,
        t: SimTime,
        st: &mut RunState,
        q: &mut EventQueue<Ev>,
        rng: &mut StdRng,
    ) {
        let spec = specs[insts[inst].spec_idx];
        let step_idx = insts[inst].step;
        if step_idx >= spec.steps.len() {
            insts[inst].done = true;
            // Degenerate empty spec: synthesize a StepDone so accounting
            // in the main loop stays uniform.
            q.schedule(t, Ev::StepDone { inst });
            insts[inst].step = usize::MAX;
            return;
        }
        let step = &spec.steps[step_idx];
        let def = self.catalog.get(step.api);
        let occ = *insts[inst]
            .occurrences
            .entry(step.api)
            .and_modify(|c| *c += 1)
            .or_insert(0);

        let hint = inst as u64;
        let src_node = self.deployment.node_of(step.src, hint);
        let dst_node = self.deployment.node_of(step.dst, hint);
        let inst_id = OpInstanceId(inst as u64);

        // Decide the step's fate. Infrastructure outages dominate: every
        // RPC transits RabbitMQ and every API service is backed by MySQL
        // (paper §2, Dependencies).
        let broker_down = def.is_rpc() && self.plan.is_singleton_down(Service::RabbitMq, t);
        let db_down = !def.is_rpc()
            && !step.dst.is_infrastructure()
            && self.plan.is_singleton_down(Service::MySql, t);
        let project = self.project_of(inst);
        let (error, abort) =
            if let Some(f) = self.plan.api_error(step.api, inst_id, project, occ, t) {
                (Some(f.error.clone()), f.abort_op)
            } else if self.plan.partition_cut(step.src, step.dst, inst_id, t) {
                // The link between the two services is (possibly partially)
                // severed: the caller's connection attempt or RPC cast times
                // out. Both processes stay up, so no watcher ever flags this —
                // the cascade RCA graph walk is what has to find it.
                let e = match &def.kind {
                    ApiKind::Rest { .. } => InjectedError::RestStatus {
                        status: 503,
                        reason: None,
                    },
                    ApiKind::Rpc { .. } => InjectedError::RpcException {
                        class: "MessagingTimeout".to_string(),
                    },
                };
                (Some(e), true)
            } else if broker_down {
                (
                    Some(InjectedError::RpcException {
                        class: "MessagingTimeout".to_string(),
                    }),
                    true,
                )
            } else if db_down {
                (
                    Some(InjectedError::RestStatus {
                        status: 500,
                        reason: Some("DBConnectionError".into()),
                    }),
                    true,
                )
            } else if self.plan.is_service_down(dst_node, step.dst, t) {
                let e = match &def.kind {
                    ApiKind::Rest { .. } => InjectedError::RestStatus {
                        status: 503,
                        reason: None,
                    },
                    ApiKind::Rpc { .. } => InjectedError::RpcException {
                        class: "MessagingTimeout".to_string(),
                    },
                };
                (Some(e), true)
            } else {
                (None, false)
            };

        // Sample service time: class base x lognormal jitter x load factor
        // + tc-style injected latency on both ends, both directions.
        let base = match step.latency {
            gretel_model::LatencyClass::Fast => ms(3),
            gretel_model::LatencyClass::Medium => ms(25),
            gretel_model::LatencyClass::Slow => ms(120),
            gretel_model::LatencyClass::Boot => ms(1200),
        };
        let jitter = lognormal(rng, 0.25);
        let load = *st.active.get(&dst_node).unwrap_or(&0);
        let load_factor = if load > LOAD_CAPACITY {
            1.0 + 0.8 * (load - LOAD_CAPACITY) as f64 / LOAD_CAPACITY as f64
        } else {
            1.0
        };
        let injected =
            2 * (self.plan.extra_latency(src_node, t) + self.plan.extra_latency(dst_node, t));
        let service_time = ((base as f64 * jitter * load_factor) as SimTime).max(100) + injected;

        *st.active.entry(dst_node).or_insert(0) += 1;

        match &def.kind {
            ApiKind::Rest { method, uri } => {
                let concrete = concretize(uri, inst as u64, occ);
                let sport = 10_000 + ((inst * 131 + step_idx * 7) % 50_000) as u16;
                let conn = ConnKey {
                    src: src_node,
                    src_port: sport,
                    dst: dst_node,
                    dst_port: Deployment::service_port(step.dst),
                };
                st.emit(Message {
                    id: MessageId(0),
                    ts_us: t,
                    src_node,
                    dst_node,
                    src_service: step.src,
                    dst_service: step.dst,
                    api: step.api,
                    direction: Direction::Request,
                    wire: WireKind::Rest {
                        method: *method,
                        uri: concrete.clone(),
                        status: None,
                    },
                    conn,
                    payload: render_rest_request_payload(
                        *method,
                        &concrete,
                        step.request_bytes as usize,
                    ),
                    correlation_id: None,
                    project: None,
                    truth_op: Some(inst_id),
                    truth_noise: false,
                });
                insts[inst].pending = Some(Pending {
                    api: step.api,
                    src_service: step.src,
                    dst_service: step.dst,
                    src_node,
                    dst_node,
                    conn,
                    uri: concrete,
                    method: Some(*method),
                    rpc_method: None,
                    rpc_msg_id: None,
                    rpc_style: None,
                    error,
                    abort,
                });
            }
            ApiKind::Rpc { method, style } => {
                let msg_id = st.next_rpc_id;
                st.next_rpc_id += 1;
                let broker = self.deployment.broker();
                let conn = ConnKey {
                    src: src_node,
                    src_port: 20_000 + (inst % 40_000) as u16,
                    dst: broker,
                    dst_port: Deployment::service_port(Service::RabbitMq),
                };
                st.emit(Message {
                    id: MessageId(0),
                    ts_us: t,
                    src_node,
                    dst_node: broker,
                    src_service: step.src,
                    dst_service: step.dst,
                    api: step.api,
                    direction: Direction::Request,
                    wire: WireKind::Rpc {
                        method: method.clone(),
                        msg_id,
                        error: None,
                    },
                    conn,
                    payload: render_rpc_payload(method, msg_id, None, step.request_bytes as usize),
                    correlation_id: None,
                    project: None,
                    truth_op: Some(inst_id),
                    truth_noise: false,
                });
                insts[inst].pending = Some(Pending {
                    api: step.api,
                    src_service: step.src,
                    dst_service: step.dst,
                    src_node,
                    dst_node,
                    conn,
                    uri: String::new(),
                    method: None,
                    rpc_method: Some(method.clone()),
                    rpc_msg_id: Some(msg_id),
                    rpc_style: Some(*style),
                    error,
                    abort,
                });
            }
        }
        q.schedule(t + service_time, Ev::StepDone { inst });
    }

    /// Complete the in-flight step of `inst`: emit the response (REST and
    /// RPC calls), relay RPC errors to the dashboard as REST errors
    /// (paper §5.3.1 "Improving precision"), maybe emit an idempotent GET
    /// repeat, and advance or abort the instance.
    fn complete_step(
        &self,
        specs: &[&OperationSpec],
        insts: &mut [InstState],
        inst: usize,
        t: SimTime,
        st: &mut RunState,
        rng: &mut StdRng,
    ) {
        let Some(p) = insts[inst].pending.take() else {
            // Empty-spec sentinel (fire_step marked done without pending).
            return;
        };
        if let Some(a) = st.active.get_mut(&p.dst_node) {
            *a = a.saturating_sub(1);
        }
        let inst_id = OpInstanceId(inst as u64);
        let spec = specs[insts[inst].spec_idx];

        match (&p.method, &p.rpc_style) {
            (Some(method), _) => {
                // REST response.
                let status = match &p.error {
                    Some(InjectedError::RestStatus { status, .. }) => *status,
                    Some(InjectedError::RpcException { .. }) => 500,
                    None => success_status(*method),
                };
                let reason = match &p.error {
                    Some(InjectedError::RestStatus {
                        reason: Some(r), ..
                    }) => r.clone(),
                    _ => reason_phrase(status).to_string(),
                };
                let body = if status >= 400 {
                    256
                } else {
                    response_body_len(*method)
                };
                st.emit(Message {
                    id: MessageId(0),
                    ts_us: t,
                    src_node: p.dst_node,
                    dst_node: p.src_node,
                    src_service: p.dst_service,
                    dst_service: p.src_service,
                    api: p.api,
                    direction: Direction::Response,
                    wire: WireKind::Rest {
                        method: *method,
                        uri: p.uri.clone(),
                        status: Some(status),
                    },
                    conn: p.conn.reversed(),
                    payload: render_rest_response_payload(status, &reason, body),
                    correlation_id: None,
                    project: None,
                    truth_op: Some(inst_id),
                    truth_noise: false,
                });
                // Idempotent repeat noise: the client re-GETs the same URI.
                if p.error.is_none()
                    && method.is_idempotent_read()
                    && self.config.noise
                    && rng.gen_bool(GET_REPEAT_PROB)
                {
                    self.emit_get_repeat(st, t, &p, inst_id);
                }
            }
            (None, Some(RpcStyle::Call)) => {
                let err_class = match &p.error {
                    Some(InjectedError::RpcException { class }) => Some(class.clone()),
                    Some(InjectedError::RestStatus { .. }) => Some("RemoteError".to_string()),
                    None => None,
                };
                let msg_id = p.rpc_msg_id.expect("rpc pending has msg id");
                let method = p.rpc_method.clone().expect("rpc pending has method");
                st.emit(Message {
                    id: MessageId(0),
                    ts_us: t,
                    src_node: p.dst_node,
                    dst_node: p.src_node,
                    src_service: p.dst_service,
                    dst_service: p.src_service,
                    api: p.api,
                    direction: Direction::Response,
                    wire: WireKind::Rpc {
                        method: method.clone(),
                        msg_id,
                        error: err_class.clone(),
                    },
                    conn: p.conn.reversed(),
                    payload: render_rpc_payload(&method, msg_id, err_class.as_deref(), 128),
                    correlation_id: None,
                    project: None,
                    truth_op: Some(inst_id),
                    truth_noise: false,
                });
            }
            (None, Some(RpcStyle::Cast)) => {
                // No reply on the wire; failures surface via the REST relay
                // below.
            }
            (None, None) => unreachable!("pending step is neither REST nor RPC"),
        }

        // RPC errors are "typically communicated back to the dashboard or
        // CLI via REST calls" — emit the status-poll REST error pair.
        let rpc_failed = p.method.is_none() && p.error.is_some();
        if rpc_failed {
            self.emit_error_relay(st, t, spec, inst_id, inst);
        }

        if p.error.is_some() {
            insts[inst].failed_api = Some(p.api);
        }
        if p.error.is_some() && p.abort {
            insts[inst].aborted = true;
            insts[inst].done = true;
            return;
        }
        insts[inst].step += 1;
        if insts[inst].step >= spec.steps.len() {
            insts[inst].done = true;
        }
    }

    /// The dashboard polls the operation's origin API and receives the
    /// relayed error.
    fn emit_error_relay(
        &self,
        st: &mut RunState,
        t: SimTime,
        spec: &OperationSpec,
        inst_id: OpInstanceId,
        inst: usize,
    ) {
        let Some(origin) = spec
            .steps
            .iter()
            .find(|s| matches!(self.catalog.get(s.api).kind, ApiKind::Rest { .. }))
        else {
            return;
        };
        let ApiKind::Rest { uri, .. } = &self.catalog.get(origin.api).kind else {
            return;
        };
        let src_node = self.deployment.node_of(Service::Horizon, inst as u64);
        let dst_node = self.deployment.node_of(origin.dst, inst as u64);
        let concrete = concretize(uri, inst as u64, 0);
        let conn = ConnKey {
            src: src_node,
            src_port: 30_000 + (inst % 30_000) as u16,
            dst: dst_node,
            dst_port: Deployment::service_port(origin.dst),
        };
        // The poll is a GET on the origin resource regardless of the origin
        // method — model it as the same API for fingerprint purposes.
        st.emit(Message {
            id: MessageId(0),
            ts_us: t,
            src_node,
            dst_node,
            src_service: Service::Horizon,
            dst_service: origin.dst,
            api: origin.api,
            direction: Direction::Request,
            wire: WireKind::Rest {
                method: HttpMethod::Get,
                uri: concrete.clone(),
                status: None,
            },
            conn,
            payload: render_rest_request_payload(HttpMethod::Get, &concrete, 0),
            correlation_id: None,
            project: None,
            truth_op: Some(inst_id),
            truth_noise: false,
        });
        st.emit(Message {
            id: MessageId(0),
            ts_us: t,
            src_node: dst_node,
            dst_node: src_node,
            src_service: origin.dst,
            dst_service: Service::Horizon,
            api: origin.api,
            direction: Direction::Response,
            wire: WireKind::Rest {
                method: HttpMethod::Get,
                uri: concrete.clone(),
                status: Some(500),
            },
            conn: conn.reversed(),
            payload: render_rest_response_payload(500, "Internal Server Error", 200),
            correlation_id: None,
            project: None,
            truth_op: Some(inst_id),
            truth_noise: false,
        });
    }

    fn emit_get_repeat(&self, st: &mut RunState, t: SimTime, p: &Pending, inst_id: OpInstanceId) {
        let method = p.method.expect("repeat only for REST");
        st.emit(Message {
            id: MessageId(0),
            ts_us: t,
            src_node: p.src_node,
            dst_node: p.dst_node,
            src_service: p.src_service,
            dst_service: p.dst_service,
            api: p.api,
            direction: Direction::Request,
            wire: WireKind::Rest {
                method,
                uri: p.uri.clone(),
                status: None,
            },
            conn: p.conn,
            payload: render_rest_request_payload(method, &p.uri, 0),
            correlation_id: None,
            project: None,
            truth_op: Some(inst_id),
            truth_noise: true,
        });
        st.emit(Message {
            id: MessageId(0),
            ts_us: t,
            src_node: p.dst_node,
            dst_node: p.src_node,
            src_service: p.dst_service,
            dst_service: p.src_service,
            api: p.api,
            direction: Direction::Response,
            wire: WireKind::Rest {
                method,
                uri: p.uri.clone(),
                status: Some(success_status(method)),
            },
            conn: p.conn.reversed(),
            payload: render_rest_response_payload(success_status(method), "OK", 256),
            correlation_id: None,
            project: None,
            truth_op: Some(inst_id),
            truth_noise: true,
        });
    }

    fn emit_keystone_noise(&self, st: &mut RunState, t: SimTime, hint: u64) {
        let Some(api) = self
            .catalog
            .iter()
            .find(|d| d.noise == Some(gretel_model::NoiseClass::KeystoneCommon))
            .map(|d| d.id)
        else {
            return;
        };
        let src_node = self.deployment.node_of(Service::Horizon, hint);
        let dst_node = self.deployment.node_of(Service::Keystone, hint);
        let conn = ConnKey {
            src: src_node,
            src_port: 40_000 + (hint % 20_000) as u16,
            dst: dst_node,
            dst_port: Deployment::service_port(Service::Keystone),
        };
        st.emit(Message {
            id: MessageId(0),
            ts_us: t,
            src_node,
            dst_node,
            src_service: Service::Horizon,
            dst_service: Service::Keystone,
            api,
            direction: Direction::Request,
            wire: WireKind::Rest {
                method: HttpMethod::Post,
                uri: "/v3/auth/tokens".to_string(),
                status: None,
            },
            conn,
            payload: render_rest_request_payload(HttpMethod::Post, "/v3/auth/tokens", 300),
            correlation_id: None,
            project: None,
            truth_op: None,
            truth_noise: true,
        });
        st.emit(Message {
            id: MessageId(0),
            ts_us: t,
            src_node: dst_node,
            dst_node: src_node,
            src_service: Service::Keystone,
            dst_service: Service::Horizon,
            api,
            direction: Direction::Response,
            wire: WireKind::Rest {
                method: HttpMethod::Post,
                uri: "/v3/auth/tokens".to_string(),
                status: Some(201),
            },
            conn: conn.reversed(),
            payload: render_rest_response_payload(201, "Created", 900),
            correlation_id: None,
            project: None,
            truth_op: None,
            truth_noise: true,
        });
    }

    fn emit_heartbeat(&self, st: &mut RunState, t: SimTime, node: NodeId, service: Service) {
        let Some(api) = self
            .catalog
            .iter()
            .find(|d| d.noise == Some(gretel_model::NoiseClass::Heartbeat) && d.service == service)
            .map(|d| d.id)
        else {
            return;
        };
        let msg_id = st.next_rpc_id;
        st.next_rpc_id += 1;
        let broker = self.deployment.broker();
        st.emit(Message {
            id: MessageId(0),
            ts_us: t,
            src_node: node,
            dst_node: broker,
            src_service: service,
            dst_service: service.controller(),
            api,
            direction: Direction::Request,
            wire: WireKind::Rpc {
                method: "report_state".to_string(),
                msg_id,
                error: None,
            },
            conn: ConnKey {
                src: node,
                src_port: 21_000,
                dst: broker,
                dst_port: Deployment::service_port(Service::RabbitMq),
            },
            payload: render_rpc_payload("report_state", msg_id, None, 200),
            correlation_id: None,
            project: None,
            truth_op: None,
            truth_noise: true,
        });
    }

    fn emit_status_update(&self, st: &mut RunState, t: SimTime, node: NodeId) {
        let Some(api) = self
            .catalog
            .iter()
            .find(|d| {
                d.noise == Some(gretel_model::NoiseClass::StatusUpdate)
                    && d.service == Service::NovaCompute
            })
            .map(|d| d.id)
        else {
            return;
        };
        let msg_id = st.next_rpc_id;
        st.next_rpc_id += 1;
        let broker = self.deployment.broker();
        st.emit(Message {
            id: MessageId(0),
            ts_us: t,
            src_node: node,
            dst_node: broker,
            src_service: Service::NovaCompute,
            dst_service: Service::Nova,
            api,
            direction: Direction::Request,
            wire: WireKind::Rpc {
                method: "update_available_resource".to_string(),
                msg_id,
                error: None,
            },
            conn: ConnKey {
                src: node,
                src_port: 21_001,
                dst: broker,
                dst_port: Deployment::service_port(Service::RabbitMq),
            },
            payload: render_rpc_payload("update_available_resource", msg_id, None, 600),
            correlation_id: None,
            project: None,
            truth_op: None,
            truth_noise: true,
        });
    }

    fn poll(
        &self,
        st: &mut RunState,
        t: SimTime,
        rng: &mut StdRng,
        baselines: &HashMap<NodeId, Baseline>,
    ) {
        for node in self.deployment.nodes() {
            let baseline = &baselines[&node.id];
            let active = *st.active.get(&node.id).unwrap_or(&0);
            for kind in ResourceKind::ALL {
                let value = match self.plan.resource_override(node.id, kind, t) {
                    Some(v) => v,
                    None => sample_value(rng, baseline, kind, active),
                };
                st.out.resources.push(ResourceSample {
                    ts: t,
                    node: node.id,
                    kind,
                    value,
                });
            }
            // Watchers: each hosted service process, NTP, and reachability
            // of the shared infrastructure.
            for &svc in &node.services {
                let dep = if svc == Service::Ntp {
                    Dependency::NtpAgent
                } else {
                    Dependency::ServiceProcess(svc)
                };
                let healthy = self.plan.dependency_healthy(node.id, dep, t)
                    && !self.plan.is_service_down(node.id, svc, t);
                st.out.watchers.push(WatcherSample {
                    ts: t,
                    node: node.id,
                    dep,
                    healthy,
                });
            }
            for dep in [Dependency::MySqlReachable, Dependency::RabbitMqReachable] {
                let healthy = self.plan.dependency_healthy(node.id, dep, t);
                st.out.watchers.push(WatcherSample {
                    ts: t,
                    node: node.id,
                    dep,
                    healthy,
                });
            }
        }
    }
}

/// Sample `exp(N(0, sigma))` with Box–Muller (keeps us off extra deps).
fn lognormal(rng: &mut StdRng, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z).exp()
}

/// Substitute `{placeholders}` in a URI template with an instance-scoped
/// pseudo-id. Using the same id for every placeholder of an instance
/// mirrors real traffic (all steps of one VM-create name the same server
/// UUID), which is exactly what identifier-stitching baselines like
/// HANSEL rely on.
fn concretize(template: &str, inst: u64, _occurrence: u32) -> String {
    let mut out = String::with_capacity(template.len() + 8);
    let mut chars = template.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '{' {
            for d in chars.by_ref() {
                if d == '}' {
                    break;
                }
            }
            out.push_str(&format!("i{inst:x}"));
        } else {
            out.push(c);
        }
    }
    out
}

fn success_status(method: HttpMethod) -> u16 {
    match method {
        HttpMethod::Get => 200,
        HttpMethod::Post => 202,
        HttpMethod::Put => 200,
        HttpMethod::Delete => 204,
        HttpMethod::Patch => 200,
        HttpMethod::Head => 204,
    }
}

fn response_body_len(method: HttpMethod) -> usize {
    match method {
        HttpMethod::Get => 1024,
        HttpMethod::Head => 0,
        _ => 384,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{ApiFault, FaultScope};
    use gretel_model::{Catalog, Workflows};

    fn setup() -> (Arc<Catalog>, Deployment, Workflows) {
        let cat = Catalog::openstack();
        let dep = Deployment::standard();
        let wf = Workflows::new(cat.clone());
        (cat, dep, wf)
    }

    fn quiet_config(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            noise: false,
            ..RunConfig::default()
        }
    }

    #[test]
    fn fault_free_vm_create_emits_all_steps_in_order() {
        let (cat, dep, wf) = setup();
        let spec = wf.vm_create_spec(gretel_model::OpSpecId(0));
        let plan = FaultPlan::none();
        let runner = Runner::new(cat.clone(), &dep, &plan, quiet_config(1));
        let exec = runner.run(&[&spec]);

        // Request order of APIs must equal the spec sequence.
        let fired: Vec<ApiId> = exec
            .messages
            .iter()
            .filter(|m| m.direction == Direction::Request && !m.truth_noise)
            .map(|m| m.api)
            .collect();
        assert_eq!(fired, spec.api_seq());
        assert!(!exec.outcomes[0].aborted);
        assert!(exec.outcomes[0].failed_api.is_none());
    }

    #[test]
    fn messages_are_time_ordered() {
        let (cat, dep, wf) = setup();
        let specs = [
            wf.vm_create_spec(gretel_model::OpSpecId(0)),
            wf.image_upload_spec(gretel_model::OpSpecId(1)),
            wf.cinder_list_spec(gretel_model::OpSpecId(2)),
        ];
        let refs: Vec<&OperationSpec> = specs.iter().collect();
        let plan = FaultPlan::none();
        let runner = Runner::new(cat, &dep, &plan, RunConfig::default());
        let exec = runner.run(&refs);
        for w in exec.messages.windows(2) {
            assert!(w[0].ts_us <= w[1].ts_us);
        }
        // Ids are dense and ascending.
        for (i, m) in exec.messages.iter().enumerate() {
            assert_eq!(m.id.0, i as u64);
        }
    }

    #[test]
    fn injected_rest_error_aborts_operation() {
        let (cat, dep, wf) = setup();
        let spec = wf.vm_create_spec(gretel_model::OpSpecId(0));
        let ports_post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        let plan = FaultPlan::none().with_api_fault(ApiFault {
            api: ports_post,
            scope: FaultScope::AllInstances,
            occurrence: 0,
            error: InjectedError::RestStatus {
                status: 500,
                reason: None,
            },
            abort_op: true,
        });
        let runner = Runner::new(cat.clone(), &dep, &plan, quiet_config(2));
        let exec = runner.run(&[&spec]);

        assert!(exec.outcomes[0].aborted);
        assert_eq!(exec.outcomes[0].failed_api, Some(ports_post));
        // An error response for the API is on the wire.
        assert!(exec
            .messages
            .iter()
            .any(|m| m.api == ports_post && m.is_rest_error()));
        // No step after the failed one fired: the PUT attach never appears.
        let put_attach = cat.rest_expect(Service::Neutron, HttpMethod::Put, "/v2.0/ports/{id}");
        assert!(!exec.messages.iter().any(|m| m.api == put_attach));
    }

    #[test]
    fn rpc_error_is_relayed_as_rest_error() {
        let (cat, dep, wf) = setup();
        let spec = wf.vm_create_spec(gretel_model::OpSpecId(0));
        let rpc = cat.rpc_expect(Service::NovaCompute, "build_and_run_instance");
        let plan = FaultPlan::none().with_api_fault(ApiFault {
            api: rpc,
            scope: FaultScope::AllInstances,
            occurrence: 0,
            error: InjectedError::RpcException {
                class: "NoValidHost".into(),
            },
            abort_op: true,
        });
        let runner = Runner::new(cat.clone(), &dep, &plan, quiet_config(3));
        let exec = runner.run(&[&spec]);

        // The relayed REST error is on the operation's origin API.
        let origin = cat.rest_expect(Service::Nova, HttpMethod::Post, "/v2.1/servers");
        let relay = exec
            .messages
            .iter()
            .find(|m| m.api == origin && m.is_rest_error())
            .expect("relayed REST error present");
        assert_eq!(relay.dst_service, Service::Horizon);
    }

    #[test]
    fn crashed_service_fails_operations_and_watchers_see_it() {
        let (cat, dep, wf) = setup();
        let spec = wf.vm_create_spec(gretel_model::OpSpecId(0));
        // Crash Neutron before the run starts.
        let plan = FaultPlan::none().with_dep(crate::faults::DepFault::ServiceCrash {
            node: NodeId(1),
            service: Service::Neutron,
            at: 0,
        });
        let runner = Runner::new(cat, &dep, &plan, quiet_config(4));
        let exec = runner.run(&[&spec]);
        assert!(exec.outcomes[0].aborted);
        assert!(exec.watchers.iter().any(|w| w.node == NodeId(1)
            && w.dep == Dependency::ServiceProcess(Service::Neutron)
            && !w.healthy));
    }

    #[test]
    fn runs_are_deterministic() {
        let (cat, dep, wf) = setup();
        let specs = [
            wf.vm_create_spec(gretel_model::OpSpecId(0)),
            wf.image_upload_spec(gretel_model::OpSpecId(1)),
        ];
        let refs: Vec<&OperationSpec> = specs.iter().collect();
        let plan = FaultPlan::none();
        let a = Runner::new(
            cat.clone(),
            &dep,
            &plan,
            RunConfig {
                seed: 9,
                ..RunConfig::default()
            },
        )
        .run(&refs);
        let b = Runner::new(
            cat,
            &dep,
            &plan,
            RunConfig {
                seed: 9,
                ..RunConfig::default()
            },
        )
        .run(&refs);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn noise_messages_are_marked_and_use_noise_apis() {
        let (cat, dep, wf) = setup();
        let spec = wf.vm_create_spec(gretel_model::OpSpecId(0));
        let plan = FaultPlan::none();
        let runner = Runner::new(
            cat.clone(),
            &dep,
            &plan,
            RunConfig {
                seed: 5,
                ..RunConfig::default()
            },
        );
        let exec = runner.run(&[&spec]);
        let noise: Vec<&Message> = exec.messages.iter().filter(|m| m.truth_noise).collect();
        assert!(!noise.is_empty(), "default config generates noise");
        for m in &noise {
            // Noise is either a noise-class API or an idempotent repeat of
            // an operation API.
            let def = cat.get(m.api);
            if def.noise.is_none() {
                assert!(m.truth_op.is_some(), "repeats belong to an op");
            }
        }
    }

    #[test]
    fn latency_fault_inflates_step_latency() {
        let (cat, dep, wf) = setup();
        let spec = wf.image_upload_spec(gretel_model::OpSpecId(0));
        let glance_node = dep.node_of(Service::Glance, 0);

        let measure = |plan: &FaultPlan, seed: u64| -> u64 {
            let runner = Runner::new(cat.clone(), &dep, plan, quiet_config(seed));
            let exec = runner.run(&[&spec]);
            // Latency of the PUT file step = response ts - request ts.
            let put = cat.rest_expect(Service::Glance, HttpMethod::Put, "/v2/images/{id}/file");
            let req = exec
                .messages
                .iter()
                .find(|m| m.api == put && m.direction == Direction::Request)
                .unwrap()
                .ts_us;
            let resp = exec
                .messages
                .iter()
                .find(|m| m.api == put && m.direction == Direction::Response)
                .unwrap()
                .ts_us;
            resp - req
        };

        let clean = measure(&FaultPlan::none(), 6);
        let plan = FaultPlan::none().with_latency(crate::faults::LatencyFault {
            node: glance_node,
            extra: ms(50),
            from: 0,
            until: SimTime::MAX,
        });
        let slow = measure(&plan, 6);
        assert!(slow >= clean + ms(90), "slow {slow} vs clean {clean}");
    }

    #[test]
    fn resource_override_shows_in_samples() {
        let (cat, dep, wf) = setup();
        let spec = wf.image_upload_spec(gretel_model::OpSpecId(0));
        let plan = FaultPlan::none().with_resource(crate::faults::ResourceFault {
            node: NodeId(2),
            kind: ResourceKind::DiskFreeGb,
            value: 0.1,
            from: 0,
            until: SimTime::MAX,
        });
        let runner = Runner::new(cat, &dep, &plan, quiet_config(7));
        let exec = runner.run(&[&spec]);
        let sample = exec
            .resources
            .iter()
            .find(|r| r.node == NodeId(2) && r.kind == ResourceKind::DiskFreeGb)
            .expect("disk sample");
        assert!((sample.value - 0.1).abs() < 1e-9);
    }

    #[test]
    fn concretize_substitutes_placeholders() {
        assert_eq!(concretize("/v2.1/servers/{id}", 3, 1), "/v2.1/servers/i3");
        assert_eq!(
            concretize("/v2/{tenant}/volumes/{id}", 10, 0),
            "/v2/ia/volumes/ia"
        );
        assert_eq!(concretize("/plain", 1, 0), "/plain");
    }

    #[test]
    fn rest_latency_pairing_via_conn_key() {
        let (cat, dep, wf) = setup();
        let spec = wf.vm_create_spec(gretel_model::OpSpecId(0));
        let plan = FaultPlan::none();
        let exec = Runner::new(cat, &dep, &plan, quiet_config(8)).run(&[&spec]);
        for m in exec
            .messages
            .iter()
            .filter(|m| m.direction == Direction::Response)
        {
            if let WireKind::Rest { .. } = m.wire {
                let req = exec
                    .messages
                    .iter()
                    .find(|r| {
                        r.direction == Direction::Request
                            && r.conn == m.conn.reversed()
                            && r.api == m.api
                    })
                    .expect("every REST response has a request on the reversed conn");
                assert!(req.ts_us <= m.ts_us);
            }
        }
    }
}
