//! Match explanations: *why* did an operation match a snapshot?
//!
//! A diagnosis that names an operation is only actionable if the operator
//! can see the evidence. [`Detector::explain_operational`] reconstructs,
//! for one candidate operation, exactly which snapshot messages matched
//! which fingerprint literals (the greedy backward assignment the scored
//! matcher uses), the truncation point, and the evidence span.

use crate::detect::Detector;
use crate::event::Event;
use gretel_model::{symbol, ApiId, Catalog, OpSpecId};

/// One literal of the pattern and where (if anywhere) it matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiteralMatch {
    /// The literal API.
    pub api: ApiId,
    /// Index into the snapshot's event array, when matched.
    pub event_index: Option<usize>,
}

/// The full explanation for one candidate operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchExplanation {
    /// The candidate operation.
    pub op: OpSpecId,
    /// The bounded literal pattern that was matched (oldest first).
    pub literals: Vec<LiteralMatch>,
    /// Whether every literal found a home (a complete match).
    pub complete: bool,
    /// Events between the earliest matched literal and the fault,
    /// inclusive — the evidence span in messages.
    pub span: usize,
}

impl MatchExplanation {
    /// Render the explanation with API labels.
    pub fn render(&self, catalog: &Catalog) -> String {
        let mut out = format!(
            "candidate {}: {} ({} of {} literals matched, span {} events)\n",
            self.op,
            if self.complete { "COMPLETE" } else { "partial" },
            self.literals
                .iter()
                .filter(|l| l.event_index.is_some())
                .count(),
            self.literals.len(),
            self.span
        );
        for l in &self.literals {
            out.push_str(&format!(
                "  {} {} {}\n",
                match l.event_index {
                    Some(i) => format!("@{i:>6}"),
                    None => "missing".to_string(),
                },
                symbol::encode(l.api),
                catalog.get(l.api).label()
            ));
        }
        out
    }
}

impl Detector<'_> {
    /// Explain how (or how far) `op` matches the snapshot for an
    /// operational fault at `fault_index` on `offending`. Uses the same
    /// anchored greedy backward assignment as detection; among the
    /// possible truncation points the best-scoring one is explained.
    /// Returns `None` when `op`'s fingerprint does not contain the
    /// offending API at all.
    pub fn explain_operational(
        &self,
        events: &[Event],
        fault_index: usize,
        offending: ApiId,
        op: OpSpecId,
    ) -> Option<MatchExplanation> {
        let cfg = self.config();
        let catalog = self.library().catalog().clone();
        let fp = self.library().get(op);

        let truncations = if cfg.truncate {
            fp.truncate_at_each(offending)
        } else {
            vec![fp.clone()]
        };
        if truncations.is_empty() {
            return None;
        }

        // Anchored evidence: non-noise events up to and including the
        // fault, remembering original indices.
        let anchored: Vec<(usize, ApiId)> = events
            .iter()
            .enumerate()
            .take(fault_index + 1)
            .filter(|(_, e)| !e.noise_api)
            .map(|(i, e)| (i, e.api))
            .collect();

        let mut best: Option<MatchExplanation> = None;
        for t in truncations {
            let literals = t.literals(&catalog, cfg.prune_rpcs);
            let pattern: &[ApiId] = match cfg.max_literals {
                Some(k) if literals.len() > k => &literals[literals.len() - k..],
                _ => &literals[..],
            };
            if pattern.is_empty() {
                continue;
            }
            // Greedy backward assignment.
            let mut assignment: Vec<LiteralMatch> = Vec::with_capacity(pattern.len());
            let mut bound = anchored.len();
            let mut exhausted = false;
            for &lit in pattern.iter().rev() {
                let found = (!exhausted)
                    .then(|| anchored[..bound].iter().rposition(|&(_, api)| api == lit))
                    .flatten();
                match found {
                    Some(pos) => {
                        assignment.push(LiteralMatch {
                            api: lit,
                            event_index: Some(anchored[pos].0),
                        });
                        bound = pos;
                    }
                    None => {
                        exhausted = true;
                        assignment.push(LiteralMatch {
                            api: lit,
                            event_index: None,
                        });
                    }
                }
            }
            assignment.reverse();
            let matched = assignment
                .iter()
                .filter(|l| l.event_index.is_some())
                .count();
            let complete = matched == assignment.len();
            let span = assignment
                .iter()
                .filter_map(|l| l.event_index)
                .min()
                .map(|lo| fault_index - lo + 1)
                .unwrap_or(0);
            let candidate = MatchExplanation {
                op,
                literals: assignment,
                complete,
                span,
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    let bm = b
                        .literals
                        .iter()
                        .filter(|l| l.event_index.is_some())
                        .count();
                    matched > bm || (matched == bm && candidate.span < b.span)
                }
            };
            if better {
                best = Some(candidate);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GretelConfig;
    use crate::event::FaultMark;
    use crate::fingerprint::FingerprintLibrary;
    use gretel_model::{Catalog, Direction, HttpMethod, MessageId, NodeId, Service, Workflows};
    use gretel_sim::Deployment;

    fn event(id: u64, api: ApiId, cat: &Catalog) -> Event {
        let def = cat.get(api);
        Event {
            id: MessageId(id),
            ts: id,
            api,
            direction: Direction::Request,
            is_rpc: def.is_rpc(),
            state_change: def.is_state_change(),
            noise_api: def.noise.is_some(),
            src_node: NodeId(0),
            dst_node: NodeId(1),
            corr: None,
            fault: FaultMark::None,
            gap_before: 0,
        }
    }

    #[test]
    fn complete_match_is_explained_with_positions() {
        let cat = Catalog::openstack();
        let wf = Workflows::new(cat.clone());
        let dep = Deployment::standard();
        let spec = wf.vm_create_spec(gretel_model::OpSpecId(0));
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &[spec], &dep, 2, 3);
        let detector = Detector::new(
            &lib,
            GretelConfig {
                alpha: 32,
                ..Default::default()
            },
        );

        let fp = lib.get(gretel_model::OpSpecId(0)).clone();
        let ports_post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        let events: Vec<Event> = fp
            .atoms
            .iter()
            .enumerate()
            .map(|(i, a)| event(i as u64, a.api, &cat))
            .collect();
        let fault_index = events.iter().position(|e| e.api == ports_post).unwrap();
        let ex = detector
            .explain_operational(
                &events[..=fault_index],
                fault_index,
                ports_post,
                gretel_model::OpSpecId(0),
            )
            .expect("explanation");
        assert!(ex.complete, "{}", ex.render(&cat));
        assert!(ex.span >= ex.literals.len());
        // Positions are strictly increasing.
        let pos: Vec<usize> = ex.literals.iter().filter_map(|l| l.event_index).collect();
        assert!(pos.windows(2).all(|w| w[0] < w[1]));
        // The last literal is the offending API at the fault position.
        assert_eq!(ex.literals.last().unwrap().event_index, Some(fault_index));
        let rendered = ex.render(&cat);
        assert!(rendered.contains("COMPLETE"));
        assert!(rendered.contains("ports.json"));
    }

    #[test]
    fn partial_match_marks_missing_literals() {
        let cat = Catalog::openstack();
        let wf = Workflows::new(cat.clone());
        let dep = Deployment::standard();
        let spec = wf.vm_create_spec(gretel_model::OpSpecId(0));
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &[spec], &dep, 2, 5);
        let detector = Detector::new(
            &lib,
            GretelConfig {
                alpha: 32,
                ..Default::default()
            },
        );

        let ports_post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        // Snapshot holds ONLY the fault message: everything else missing.
        let events = vec![event(0, ports_post, &cat)];
        let ex = detector
            .explain_operational(&events, 0, ports_post, gretel_model::OpSpecId(0))
            .expect("explanation");
        assert!(!ex.complete);
        assert!(ex.literals.iter().any(|l| l.event_index.is_none()));
        assert!(ex.render(&cat).contains("missing"));
    }

    #[test]
    fn unrelated_operation_yields_none() {
        let cat = Catalog::openstack();
        let wf = Workflows::new(cat.clone());
        let dep = Deployment::standard();
        let specs = vec![
            wf.vm_create_spec(gretel_model::OpSpecId(0)),
            wf.cinder_list_spec(gretel_model::OpSpecId(1)),
        ];
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 2, 7);
        let detector = Detector::new(
            &lib,
            GretelConfig {
                alpha: 32,
                ..Default::default()
            },
        );
        let ports_post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        let events = vec![event(0, ports_post, &cat)];
        // cinder_list never touches ports.json.
        assert!(detector
            .explain_operational(&events, 0, ports_post, gretel_model::OpSpecId(1))
            .is_none());
    }
}
