//! Cross-service state graph and cascade attribution.
//!
//! Flat RCA (Algorithm 3) looks at the *nodes* around one failing
//! operation. That is the right scope for a local fault, but a cascading
//! failure produces a diagnosis per **symptom**: when Cinder dies and Nova
//! volume-attach calls start failing ten seconds later, the operator gets
//! a Cinder report *and* a Nova report, with nothing connecting them — and
//! for a network partition between two healthy services, flat RCA finds
//! nothing at all.
//!
//! This module adds the missing cross-service dimension:
//!
//! * [`ServiceGraph`] — a caller→callee dependency graph mined from the
//!   observed traffic itself (request/response messages, never ground
//!   truth), with per-edge request/error counts and error-onset times;
//! * [`attribute_cascades`] — a post-pass over a run's diagnoses that
//!   walks the graph from each symptomatic service toward upstream
//!   services that failed *earlier*, labels diagnoses [`Attribution::Root`]
//!   vs [`Attribution::Symptom`] and attaches the evidence chain.
//!
//! The pass is deliberately conservative: it only labels a diagnosis when
//! there is an observed call path from the symptom's service to a service
//! that was independently diagnosed at least [`CascadeParams::min_lead`]
//! earlier. Single-service incidents, simultaneous infrastructure outages
//! (MySQL/RabbitMQ are off-wire — no traffic edges lead to them) and
//! plain §7.2 scenarios get no attribution, so their reports are
//! byte-for-byte identical with and without the graph pass.

use crate::rca::CauseKind;
use crate::report::Diagnosis;
use gretel_model::codec::{put_count, put_u64, put_u8, DecodeError, Reader};
use gretel_model::{Catalog, Direction, Message, Service};
use gretel_sim::SimTime;

const N: usize = Service::ALL.len();

/// Traffic statistics for one caller→callee edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct EdgeStats {
    /// Requests observed on the edge.
    pub requests: u64,
    /// Error responses observed on the edge.
    pub errors: u64,
    /// Timestamp of the first error (`u64::MAX` = none yet).
    pub first_error_ts: SimTime,
    /// Timestamp of the last error.
    pub last_error_ts: SimTime,
}

impl Default for EdgeStats {
    fn default() -> Self {
        EdgeStats {
            requests: 0,
            errors: 0,
            first_error_ts: u64::MAX,
            last_error_ts: 0,
        }
    }
}

impl EdgeStats {
    /// Whether any traffic was observed on the edge.
    pub fn observed(&self) -> bool {
        self.requests > 0 || self.errors > 0
    }
}

/// Cross-service dependency graph mined from observed traffic.
///
/// A request `src → dst` records a caller→callee edge `src → dst`; an
/// error response records an error on the edge `dst → src` (responses
/// travel callee→caller, so the caller is the response's destination).
/// Noise APIs (heartbeats, status updates, per-op Keystone chatter) are
/// excluded — they would connect everything to everything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceGraph {
    edges: Vec<EdgeStats>, // N*N, row = caller, column = callee
}

impl Default for ServiceGraph {
    fn default() -> Self {
        ServiceGraph {
            edges: vec![EdgeStats::default(); N * N],
        }
    }
}

impl ServiceGraph {
    /// Empty graph.
    pub fn new() -> ServiceGraph {
        ServiceGraph::default()
    }

    #[inline]
    fn at(&self, caller: Service, callee: Service) -> &EdgeStats {
        &self.edges[caller.index() as usize * N + callee.index() as usize]
    }

    #[inline]
    fn at_mut(&mut self, caller: Service, callee: Service) -> &mut EdgeStats {
        &mut self.edges[caller.index() as usize * N + callee.index() as usize]
    }

    /// Record one observed message. `noise` is the catalog's noise
    /// classification for the message's API (never ground truth); `error`
    /// is the byte-scan verdict ([`crate::event::FaultMark`] is an error).
    pub fn observe(&mut self, msg: &Message, noise: bool, error: bool) {
        if noise || msg.src_service == msg.dst_service {
            return;
        }
        match msg.direction {
            Direction::Request => {
                self.at_mut(msg.src_service, msg.dst_service).requests += 1;
                if error {
                    // Errors scanned out of a request payload still belong
                    // to the caller→callee edge.
                    self.record_error(msg.src_service, msg.dst_service, msg.ts_us);
                }
            }
            Direction::Response => {
                if error {
                    self.record_error(msg.dst_service, msg.src_service, msg.ts_us);
                }
            }
        }
    }

    fn record_error(&mut self, caller: Service, callee: Service, ts: SimTime) {
        let e = self.at_mut(caller, callee);
        e.errors += 1;
        e.first_error_ts = e.first_error_ts.min(ts);
        e.last_error_ts = e.last_error_ts.max(ts);
    }

    /// Edge statistics for `caller → callee`.
    pub fn edge(&self, caller: Service, callee: Service) -> EdgeStats {
        *self.at(caller, callee)
    }

    /// Services `caller` was observed calling, in stable service order.
    pub fn callees(&self, caller: Service) -> Vec<Service> {
        Service::ALL
            .iter()
            .copied()
            .filter(|&s| self.at(caller, s).observed())
            .collect()
    }

    /// Number of observed (non-empty) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.observed()).count()
    }

    /// Shortest observed call path `from ⇝ to` (inclusive of both ends),
    /// bounded by `max_hops` edges. BFS in stable service order, so the
    /// result is deterministic.
    pub fn path(&self, from: Service, to: Service, max_hops: usize) -> Option<Vec<Service>> {
        if from == to {
            return Some(vec![from]);
        }
        let mut prev: [Option<Service>; N] = [None; N];
        let mut frontier = vec![from];
        for _ in 0..max_hops {
            let mut next = Vec::new();
            for &u in &frontier {
                for v in self.callees(u) {
                    if v != from && prev[v.index() as usize].is_none() {
                        prev[v.index() as usize] = Some(u);
                        if v == to {
                            let mut p = vec![to];
                            let mut cur = to;
                            while let Some(pu) = prev[cur.index() as usize] {
                                p.push(pu);
                                cur = pu;
                            }
                            p.reverse();
                            return Some(p);
                        }
                        next.push(v);
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        None
    }

    /// Append the graph to a checkpoint byte stream (sparse: only
    /// observed edges).
    pub(crate) fn export_state(&self, out: &mut Vec<u8>) {
        let observed: Vec<(usize, &EdgeStats)> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.observed())
            .collect();
        put_count(out, observed.len());
        for (i, e) in observed {
            put_u8(out, (i / N) as u8);
            put_u8(out, (i % N) as u8);
            put_u64(out, e.requests);
            put_u64(out, e.errors);
            put_u64(out, e.first_error_ts);
            put_u64(out, e.last_error_ts);
        }
    }

    /// Decode a graph previously written by [`ServiceGraph::export_state`].
    pub(crate) fn import_state(r: &mut Reader<'_>) -> Result<ServiceGraph, DecodeError> {
        let mut g = ServiceGraph::new();
        let n = r.count(1 + 1 + 4 * 8)?;
        if n > N * N {
            return Err(DecodeError::Invalid("service graph edge count"));
        }
        for _ in 0..n {
            let caller = r.u8()? as usize;
            let callee = r.u8()? as usize;
            if caller >= N || callee >= N {
                return Err(DecodeError::Invalid("service graph edge index"));
            }
            let e = &mut g.edges[caller * N + callee];
            e.requests = r.u64()?;
            e.errors = r.u64()?;
            e.first_error_ts = r.u64()?;
            e.last_error_ts = r.u64()?;
        }
        Ok(g)
    }

    /// Fold another graph's observations into this one.
    ///
    /// [`ServiceGraph::observe`] is additive per message — counts sum,
    /// `first_error_ts` is a min (with `u64::MAX` = "none yet"),
    /// `last_error_ts` a max — so when a message stream is partitioned
    /// across pipeline shards, with every message observed by exactly one
    /// shard, merging the per-shard graphs reproduces *exactly* the graph a
    /// single unsharded pass would have built. The cross-shard cascade
    /// post-pass (DESIGN.md §15) relies on this equality.
    pub fn merge(&mut self, other: &ServiceGraph) {
        for (mine, theirs) in self.edges.iter_mut().zip(&other.edges) {
            mine.requests += theirs.requests;
            mine.errors += theirs.errors;
            mine.first_error_ts = mine.first_error_ts.min(theirs.first_error_ts);
            mine.last_error_ts = mine.last_error_ts.max(theirs.last_error_ts);
        }
    }
}

/// One hop of an evidence chain, walking from the symptomatic service
/// toward the root.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct EvidenceHop {
    /// Calling service.
    pub from: Service,
    /// Called service.
    pub to: Service,
    /// Requests observed on the edge.
    pub requests: u64,
    /// Errors observed on the edge.
    pub errors: u64,
    /// Earliest diagnosis on `to` (its failure onset), when diagnosed.
    pub onset: Option<SimTime>,
}

/// Cascade attribution attached to a [`Diagnosis`] by
/// [`attribute_cascades`]. Absent (`None`) whenever no cascade structure
/// was detected — the overwhelmingly common case.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum Attribution {
    /// This diagnosis is on the root service of a detected cascade: fix
    /// here, the symptoms follow.
    Root {
        /// The root service.
        service: Service,
        /// Downstream services whose failures were attributed to it.
        symptoms: Vec<Service>,
    },
    /// This diagnosis is a downstream symptom of an earlier failure.
    Symptom {
        /// The symptomatic service (owner of the failing API).
        service: Service,
        /// The root service the failure was traced to.
        of: Service,
        /// Observed call path from the symptom to the root, one hop per
        /// edge, with traffic counts and failure onsets.
        evidence: Vec<EvidenceHop>,
    },
}

/// Tunables for [`attribute_cascades`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeParams {
    /// A root must have failed at least this much earlier than the
    /// symptom (onset-to-onset). Guards against labelling simultaneous
    /// failures — e.g. an infrastructure outage hitting everything at
    /// once — as a cascade.
    pub min_lead: SimTime,
    /// Maximum call-path length (edges) from symptom to root.
    pub max_hops: usize,
}

impl Default for CascadeParams {
    fn default() -> Self {
        CascadeParams {
            min_lead: 2_000_000,
            max_hops: 3,
        }
    }
}

/// Whether a diagnosis can anchor a cascade as its root.
///
/// An empty cause list is eligible — a partition leaves every node
/// healthy, so the far side's diagnoses carry no flat causes at all, yet
/// are exactly the root the graph walk needs to name. Two shapes are
/// not:
///
/// * **stale-only** — promoting a service to root *because data is
///   missing* would assert a conclusion from absence of evidence;
/// * **blame already redirected** — a diagnosis whose flat cause names
///   *another* service's process (e.g. Neutron API failures traced to a
///   dead `neutron-agent`) is itself downstream of that service. Flat
///   RCA has already unified the incident under one cause there; the
///   graph walk must not crown the intermediate service.
fn root_eligible(d: &Diagnosis, own: Service) -> bool {
    let substantive = d.root_causes.is_empty()
        || d.root_causes
            .iter()
            .any(|rc| !matches!(rc.cause, CauseKind::StaleTelemetry { .. }));
    let blames_other = d.root_causes.iter().any(|rc| {
        matches!(rc.cause,
            CauseKind::Dependency(gretel_model::Dependency::ServiceProcess(x)) if x != own)
    });
    substantive && !blames_other
}

/// Label a run's diagnoses with cascade attribution.
///
/// For every diagnosed service `s`, the pass finds the upstream service
/// `r` (reachable from `s` along observed call edges, diagnosed at least
/// `min_lead` earlier, and [root-eligible](CauseKind::StaleTelemetry))
/// with the **earliest** failure onset, following attribution chains so a
/// three-deep cascade collapses onto its ultimate root. Diagnoses on `s`
/// become [`Attribution::Symptom`]; root-eligible diagnoses on the chosen
/// roots become [`Attribution::Root`]. Everything else keeps
/// `attribution: None`, so runs without cascade structure serialize
/// byte-identically to the flat path.
pub fn attribute_cascades(
    diagnoses: &mut [Diagnosis],
    graph: &ServiceGraph,
    catalog: &Catalog,
    params: CascadeParams,
) {
    // Failure onset and root-eligibility per diagnosed service.
    let mut onset: [Option<SimTime>; N] = [None; N];
    let mut eligible: [bool; N] = [false; N];
    for d in diagnoses.iter() {
        let svc = catalog.get(d.api).service;
        let s = svc.index() as usize;
        onset[s] = Some(onset[s].map_or(d.ts, |t: SimTime| t.min(d.ts)));
        eligible[s] |= root_eligible(d, svc);
    }

    // For each diagnosed service, the best upstream root candidate.
    let mut root_of: [Option<Service>; N] = [None; N];
    for s in Service::ALL {
        let si = s.index() as usize;
        let Some(s_onset) = onset[si] else { continue };
        let mut best: Option<(SimTime, usize, Service)> = None; // (onset, hops, svc)
        for r in Service::ALL {
            let ri = r.index() as usize;
            if ri == si || !eligible[ri] {
                continue;
            }
            let Some(r_onset) = onset[ri] else { continue };
            if r_onset.saturating_add(params.min_lead) > s_onset {
                continue;
            }
            let Some(p) = graph.path(s, r, params.max_hops) else {
                continue;
            };
            let cand = (r_onset, p.len(), r);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        root_of[si] = best.map(|(_, _, r)| r);
    }

    // Collapse chains: if s → r and r → r2, s's ultimate root is r2.
    let resolve = |mut cur: Service| {
        for _ in 0..N {
            match root_of[cur.index() as usize] {
                Some(up) if up != cur => cur = up,
                _ => break,
            }
        }
        cur
    };

    // Which services ended up as roots, and of whom.
    let mut symptoms_of: [Vec<Service>; N] = std::array::from_fn(|_| Vec::new());
    for s in Service::ALL {
        if root_of[s.index() as usize].is_some() {
            let r = resolve(s);
            if r != s {
                symptoms_of[r.index() as usize].push(s);
            }
        }
    }

    for d in diagnoses.iter_mut() {
        let s = catalog.get(d.api).service;
        let si = s.index() as usize;
        if root_of[si].is_some() {
            let r = resolve(s);
            if r == s {
                continue;
            }
            // A chain-collapsed root can sit further away than one
            // candidate-search radius; allow the full collapsed depth.
            let path = graph
                .path(s, r, params.max_hops * N)
                .unwrap_or_else(|| vec![s, r]);
            let evidence = path
                .windows(2)
                .map(|w| {
                    let e = graph.edge(w[0], w[1]);
                    EvidenceHop {
                        from: w[0],
                        to: w[1],
                        requests: e.requests,
                        errors: e.errors,
                        onset: onset[w[1].index() as usize],
                    }
                })
                .collect();
            d.attribution = Some(Attribution::Symptom {
                service: s,
                of: r,
                evidence,
            });
        } else if !symptoms_of[si].is_empty() && root_eligible(d, s) {
            d.attribution = Some(Attribution::Root {
                service: s,
                symptoms: symptoms_of[si].clone(),
            });
        }
    }
}

impl Attribution {
    /// Render for the diagnosis report.
    pub fn render(&self) -> String {
        match self {
            Attribution::Root { service, symptoms } => {
                let names: Vec<&str> = symptoms.iter().map(|s| s.name()).collect();
                format!(
                    "  cascade ROOT: {} — downstream symptom(s) on {}\n",
                    service.name(),
                    names.join(", ")
                )
            }
            Attribution::Symptom {
                service,
                of,
                evidence,
            } => {
                let mut out = format!(
                    "  cascade SYMPTOM: {} failing downstream of {} — fix the root\n",
                    service.name(),
                    of.name()
                );
                for h in evidence {
                    let onset = match h.onset {
                        Some(t) => format!("failing since t={:.3}s", t as f64 / 1e6),
                        None => "no failures diagnosed".to_string(),
                    };
                    out.push_str(&format!(
                        "    {} -> {}: {} call(s), {} error(s), {}\n",
                        h.from.name(),
                        h.to.name(),
                        h.requests,
                        h.errors,
                        onset
                    ));
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{CaptureConfidence, FaultKind};
    use gretel_model::{ApiId, HttpMethod, MessageId, NodeId, WireKind};

    fn msg(
        src: Service,
        dst: Service,
        direction: Direction,
        ts: SimTime,
        status: Option<u16>,
    ) -> Message {
        Message {
            id: MessageId(ts),
            ts_us: ts,
            src_node: NodeId(0),
            dst_node: NodeId(1),
            src_service: src,
            dst_service: dst,
            api: ApiId(0),
            direction,
            wire: WireKind::Rest {
                method: HttpMethod::Get,
                uri: "/x".into(),
                status,
            },
            conn: Default::default(),
            payload: Vec::new(),
            correlation_id: None,
            project: None,
            truth_op: None,
            truth_noise: false,
        }
    }

    fn diag(
        catalog: &Catalog,
        service: Service,
        ts: SimTime,
        causes: Vec<crate::rca::RootCause>,
    ) -> Diagnosis {
        // Any API owned by the service will do.
        let api = (0..catalog.len() as u16)
            .map(ApiId)
            .find(|&a| catalog.get(a).service == service)
            .expect("service has APIs");
        Diagnosis {
            kind: FaultKind::Operational {
                status: Some(500),
                rpc: false,
            },
            api,
            ts,
            matched: vec![],
            theta: 1.0,
            beta_used: 8,
            candidates: 1,
            root_causes: causes,
            confidence: CaptureConfidence::Exact,
            attribution: None,
        }
    }

    fn crash_cause(service: Service) -> crate::rca::RootCause {
        crate::rca::RootCause {
            node: NodeId(3),
            cause: CauseKind::Dependency(gretel_model::Dependency::ServiceProcess(service)),
            why: format!("{} down", service.name()),
        }
    }

    fn stale_cause() -> crate::rca::RootCause {
        crate::rca::RootCause {
            node: NodeId(3),
            cause: CauseKind::StaleTelemetry {
                stale_resources: vec![],
                stale_watchers: vec![],
            },
            why: "telemetry went silent".into(),
        }
    }

    #[test]
    fn mining_requests_and_errors_follows_call_direction() {
        let mut g = ServiceGraph::new();
        g.observe(
            &msg(Service::Nova, Service::Cinder, Direction::Request, 10, None),
            false,
            false,
        );
        // Error response travels Cinder -> Nova; the edge is Nova -> Cinder.
        g.observe(
            &msg(
                Service::Cinder,
                Service::Nova,
                Direction::Response,
                20,
                Some(503),
            ),
            false,
            true,
        );
        let e = g.edge(Service::Nova, Service::Cinder);
        assert_eq!((e.requests, e.errors), (1, 1));
        assert_eq!((e.first_error_ts, e.last_error_ts), (20, 20));
        assert!(!g.edge(Service::Cinder, Service::Nova).observed());
        // Noise never lands in the graph.
        g.observe(
            &msg(Service::Nova, Service::Glance, Direction::Request, 30, None),
            true,
            false,
        );
        assert!(!g.edge(Service::Nova, Service::Glance).observed());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn path_walks_observed_edges_only() {
        let mut g = ServiceGraph::new();
        g.observe(
            &msg(Service::Nova, Service::Neutron, Direction::Request, 1, None),
            false,
            false,
        );
        g.observe(
            &msg(
                Service::Neutron,
                Service::Cinder,
                Direction::Request,
                2,
                None,
            ),
            false,
            false,
        );
        assert_eq!(
            g.path(Service::Nova, Service::Cinder, 3),
            Some(vec![Service::Nova, Service::Neutron, Service::Cinder])
        );
        assert_eq!(
            g.path(Service::Nova, Service::Cinder, 1),
            None,
            "hop cap respected"
        );
        assert_eq!(
            g.path(Service::Cinder, Service::Nova, 3),
            None,
            "edges are directed"
        );
    }

    #[test]
    fn attribution_labels_root_and_symptom_with_evidence() {
        let catalog = Catalog::openstack();
        let mut g = ServiceGraph::new();
        g.observe(
            &msg(Service::Nova, Service::Cinder, Direction::Request, 1, None),
            false,
            false,
        );
        g.observe(
            &msg(
                Service::Cinder,
                Service::Nova,
                Direction::Response,
                2,
                Some(503),
            ),
            false,
            true,
        );
        let mut ds = vec![
            diag(
                &catalog,
                Service::Cinder,
                10_000_000,
                vec![crash_cause(Service::Cinder)],
            ),
            diag(&catalog, Service::Nova, 20_000_000, vec![]),
        ];
        attribute_cascades(&mut ds, &g, &catalog, CascadeParams::default());
        match ds[0].attribution.as_ref().expect("root labelled") {
            Attribution::Root { service, symptoms } => {
                assert_eq!(*service, Service::Cinder);
                assert_eq!(symptoms, &vec![Service::Nova]);
            }
            other => panic!("expected Root, got {other:?}"),
        }
        match ds[1].attribution.as_ref().expect("symptom labelled") {
            Attribution::Symptom {
                service,
                of,
                evidence,
            } => {
                assert_eq!((*service, *of), (Service::Nova, Service::Cinder));
                assert_eq!(evidence.len(), 1);
                assert_eq!(evidence[0].errors, 1);
                assert_eq!(evidence[0].onset, Some(10_000_000));
                assert!(
                    ds[1].attribution.as_ref().unwrap()
                        == &Attribution::Symptom {
                            service: Service::Nova,
                            of: Service::Cinder,
                            evidence: evidence.clone(),
                        }
                );
            }
            other => panic!("expected Symptom, got {other:?}"),
        }
        let rendered = ds[0].attribution.as_ref().unwrap().render()
            + &ds[1].attribution.as_ref().unwrap().render();
        assert!(rendered.contains("cascade ROOT: cinder"));
        assert!(rendered.contains("cascade SYMPTOM: nova"));
    }

    #[test]
    fn simultaneous_failures_are_not_a_cascade() {
        let catalog = Catalog::openstack();
        let mut g = ServiceGraph::new();
        g.observe(
            &msg(Service::Nova, Service::Cinder, Direction::Request, 1, None),
            false,
            false,
        );
        let mut ds = vec![
            diag(
                &catalog,
                Service::Cinder,
                10_000_000,
                vec![crash_cause(Service::Cinder)],
            ),
            diag(&catalog, Service::Nova, 11_000_000, vec![]),
        ];
        attribute_cascades(&mut ds, &g, &catalog, CascadeParams::default());
        assert!(
            ds.iter().all(|d| d.attribution.is_none()),
            "1s apart < min_lead"
        );
    }

    #[test]
    fn unreachable_earlier_failure_is_not_a_root() {
        let catalog = Catalog::openstack();
        let g = ServiceGraph::new(); // no traffic observed at all
        let mut ds = vec![
            diag(
                &catalog,
                Service::Cinder,
                10_000_000,
                vec![crash_cause(Service::Cinder)],
            ),
            diag(&catalog, Service::Nova, 30_000_000, vec![]),
        ];
        attribute_cascades(&mut ds, &g, &catalog, CascadeParams::default());
        assert!(ds.iter().all(|d| d.attribution.is_none()));
    }

    #[test]
    fn stale_only_services_are_never_promoted_to_root() {
        let catalog = Catalog::openstack();
        let mut g = ServiceGraph::new();
        g.observe(
            &msg(Service::Nova, Service::Cinder, Direction::Request, 1, None),
            false,
            false,
        );
        let mut ds = vec![
            diag(&catalog, Service::Cinder, 10_000_000, vec![stale_cause()]),
            diag(&catalog, Service::Nova, 30_000_000, vec![]),
        ];
        attribute_cascades(&mut ds, &g, &catalog, CascadeParams::default());
        assert!(
            ds.iter().all(|d| d.attribution.is_none()),
            "stale-only upstream must not anchor a cascade"
        );
    }

    #[test]
    fn redirected_blame_is_never_promoted_to_root() {
        // The linuxbridge-agent shape: Neutron's own failures are already
        // traced by flat RCA to the dead neutron-agent process, so Neutron
        // is downstream itself and must not be crowned root of Nova's
        // later failures — the run keeps its flat-path report.
        let catalog = Catalog::openstack();
        let mut g = ServiceGraph::new();
        g.observe(
            &msg(Service::Nova, Service::Neutron, Direction::Request, 1, None),
            false,
            false,
        );
        let mut ds = vec![
            diag(
                &catalog,
                Service::Neutron,
                10_000_000,
                vec![crash_cause(Service::NeutronAgent)],
            ),
            diag(
                &catalog,
                Service::Nova,
                30_000_000,
                vec![crash_cause(Service::NeutronAgent)],
            ),
        ];
        attribute_cascades(&mut ds, &g, &catalog, CascadeParams::default());
        assert!(ds.iter().all(|d| d.attribution.is_none()));
    }

    #[test]
    fn chains_collapse_onto_the_ultimate_root() {
        let catalog = Catalog::openstack();
        let mut g = ServiceGraph::new();
        // NovaCompute -> Nova -> Neutron call chain observed.
        g.observe(
            &msg(
                Service::NovaCompute,
                Service::Nova,
                Direction::Request,
                1,
                None,
            ),
            false,
            false,
        );
        g.observe(
            &msg(Service::Nova, Service::Neutron, Direction::Request, 2, None),
            false,
            false,
        );
        let mut ds = vec![
            diag(
                &catalog,
                Service::Neutron,
                10_000_000,
                vec![crash_cause(Service::Neutron)],
            ),
            diag(&catalog, Service::Nova, 20_000_000, vec![]),
            diag(&catalog, Service::NovaCompute, 30_000_000, vec![]),
        ];
        attribute_cascades(&mut ds, &g, &catalog, CascadeParams::default());
        match ds[2]
            .attribution
            .as_ref()
            .expect("depth-2 symptom labelled")
        {
            Attribution::Symptom { of, .. } => assert_eq!(*of, Service::Neutron),
            other => panic!("expected Symptom, got {other:?}"),
        }
        match ds[0].attribution.as_ref().expect("root labelled") {
            Attribution::Root { symptoms, .. } => {
                assert_eq!(symptoms, &vec![Service::Nova, Service::NovaCompute]);
            }
            other => panic!("expected Root, got {other:?}"),
        }
    }

    #[test]
    fn graph_state_roundtrips_through_the_codec() {
        let mut g = ServiceGraph::new();
        g.observe(
            &msg(Service::Nova, Service::Cinder, Direction::Request, 5, None),
            false,
            false,
        );
        g.observe(
            &msg(
                Service::Cinder,
                Service::Nova,
                Direction::Response,
                9,
                Some(500),
            ),
            false,
            true,
        );
        let mut bytes = Vec::new();
        g.export_state(&mut bytes);
        let mut r = Reader::new(&bytes);
        let g2 = ServiceGraph::import_state(&mut r).expect("roundtrip");
        r.done().expect("fully consumed");
        assert_eq!(g, g2);
    }

    /// Regression: a corrupt or future-format snapshot whose edge index
    /// bytes exceed the N×N matrix must be rejected with a typed codec
    /// error, never used as a raw index (out-of-bounds panic pre-fix).
    #[test]
    fn corrupt_snapshot_edge_index_is_rejected() {
        let mut g = ServiceGraph::new();
        g.observe(
            &msg(Service::Nova, Service::Cinder, Direction::Request, 5, None),
            false,
            false,
        );
        let mut bytes = Vec::new();
        g.export_state(&mut bytes);
        // One observed edge: the caller index is the first byte after the
        // u32 edge count. 0xFF is far beyond Service::ALL.
        for idx_byte in [4usize, 5] {
            let mut bad = bytes.clone();
            bad[idx_byte] = 0xFF;
            let mut r = Reader::new(&bad);
            let err = ServiceGraph::import_state(&mut r).expect_err("corrupt index must fail");
            assert_eq!(err, DecodeError::Invalid("service graph edge index"));
        }
    }

    /// Regression: an edge *count* larger than the N×N matrix is rejected
    /// up front instead of driving a multi-gigabyte read loop.
    #[test]
    fn corrupt_snapshot_edge_count_is_rejected() {
        // Backed by enough bytes to pass the reader's own count bound, so
        // the matrix bound is what rejects it.
        let mut bytes = Vec::new();
        put_count(&mut bytes, N * N + 1);
        bytes.resize(4 + (N * N + 1) * 34, 0);
        let mut r = Reader::new(&bytes);
        let err = ServiceGraph::import_state(&mut r).expect_err("oversized count must fail");
        assert_eq!(err, DecodeError::Invalid("service graph edge count"));
        // Unbacked, the reader refuses it before the graph looks at it.
        let mut r = Reader::new(&bytes[..4]);
        assert_eq!(
            ServiceGraph::import_state(&mut r),
            Err(DecodeError::Truncated)
        );
    }

    /// Regression: a snapshot truncated mid-edge surfaces `Truncated`, not
    /// a partial graph.
    #[test]
    fn truncated_snapshot_is_rejected() {
        let mut g = ServiceGraph::new();
        g.observe(
            &msg(Service::Nova, Service::Cinder, Direction::Request, 5, None),
            false,
            false,
        );
        let mut bytes = Vec::new();
        g.export_state(&mut bytes);
        for cut in 1..bytes.len() {
            let mut r = Reader::new(&bytes[..bytes.len() - cut]);
            assert_eq!(
                ServiceGraph::import_state(&mut r),
                Err(DecodeError::Truncated),
                "cut {cut} bytes: truncation must be detected"
            );
        }
    }

    #[test]
    fn merging_partitioned_observations_reproduces_the_whole() {
        // Partition a small traffic pattern over three graphs and merge:
        // the result must equal one graph observing everything.
        let msgs = [
            msg(Service::Nova, Service::Cinder, Direction::Request, 5, None),
            msg(
                Service::Cinder,
                Service::Nova,
                Direction::Response,
                9,
                Some(500),
            ),
            msg(Service::Nova, Service::Glance, Direction::Request, 11, None),
            msg(
                Service::Glance,
                Service::Nova,
                Direction::Response,
                12,
                Some(200),
            ),
            msg(
                Service::Cinder,
                Service::Nova,
                Direction::Response,
                20,
                Some(500),
            ),
        ];
        let mut whole = ServiceGraph::new();
        for (i, m) in msgs.iter().enumerate() {
            whole.observe(m, false, i == 1 || i == 4);
        }
        let mut parts = [
            ServiceGraph::new(),
            ServiceGraph::new(),
            ServiceGraph::new(),
        ];
        for (i, m) in msgs.iter().enumerate() {
            parts[i % 3].observe(m, false, i == 1 || i == 4);
        }
        let mut merged = ServiceGraph::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(whole, merged);
        // min/max semantics: the first/last error stamps survive no matter
        // which partition saw them.
        assert_eq!(
            merged.edge(Service::Nova, Service::Cinder).first_error_ts,
            9
        );
        assert_eq!(
            merged.edge(Service::Nova, Service::Cinder).last_error_ts,
            20
        );
    }
}
