//! Output checking and diagnosis quality: canonical per-diagnosis keys, the
//! reference comparison behind `fail_share`, and the ground-truth scoring
//! behind `hit_share` and `theta_mean`.
//!
//! Ground truth (`truth_op`, scenario expectations) is read here only, to
//! score outputs; the program under test never sees it.

use gretel_core::{encode_diagnoses, Attribution, CauseKind, Diagnosis, FaultKind};
use gretel_model::{ApiId, Direction, Message, OpSpecId, OperationSpec, Service};
use gretel_sim::ExpectedCause;
use std::collections::HashMap;

/// One byte string per diagnosis — the checkpoint-codec bytes plus the
/// cascade attribution, which that codec leaves out — sorted, so two runs
/// agree exactly when their key lists are equal. The group index keeps the
/// diagnoses of different `incident` scenarios apart.
///
/// `with_rpc_errors: false` leaves RPC-error diagnoses out, see
/// [`crate::inputs::Workload::checks_rpc_diagnoses`].
pub fn diagnosis_keys(groups: &[Vec<Diagnosis>], with_rpc_errors: bool) -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = groups
        .iter()
        .enumerate()
        .flat_map(|(group, diagnoses)| {
            diagnoses
                .iter()
                .filter(move |d| {
                    with_rpc_errors || !matches!(d.kind, FaultKind::Operational { rpc: true, .. })
                })
                .map(move |d| {
                    let mut key = vec![group as u8];
                    key.extend(encode_diagnoses(std::slice::from_ref(d)));
                    if let Some(attribution) = &d.attribution {
                        let json =
                            serde_json::to_string(attribution).expect("attribution serialises");
                        key.extend(json.into_bytes());
                    }
                    key
                })
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// How many diagnoses of a pass fail the reference check: reference keys
/// with no byte-identical counterpart in `got`, plus keys of `got` the
/// reference does not have. Both lists are sorted.
pub fn mismatches(reference: &[Vec<u8>], got: &[Vec<u8>]) -> u64 {
    let (mut i, mut j, mut bad) = (0, 0, 0u64);
    while i < reference.len() && j < got.len() {
        match reference[i].cmp(&got[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                bad += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                bad += 1;
                j += 1;
            }
        }
    }
    bad + (reference.len() - i) as u64 + (got.len() - j) as u64
}

/// FNV-1a over the sorted keys: one number that changes whenever any
/// diagnosis of the reference changes.
pub fn digest(keys: &[Vec<u8>]) -> u64 {
    let mut all = Vec::new();
    for key in keys {
        all.extend((key.len() as u32).to_le_bytes());
        all.extend(key);
    }
    gretel_store::fnv1a(&all)
}

/// Mean precision θ over every diagnosis (0 for none).
pub fn theta_mean(groups: &[Vec<Diagnosis>]) -> f64 {
    let thetas: Vec<f64> = groups.iter().flatten().map(|d| d.theta).collect();
    if thetas.is_empty() {
        0.0
    } else {
        thetas.iter().sum::<f64>() / thetas.len() as f64
    }
}

/// Every spec whose API sequence starts with `prefix`: the operations an
/// instance that has issued exactly these calls may be running. Several
/// suite tests share openings, so the answer is a set.
pub fn specs_with_prefix(specs: &[OperationSpec], prefix: &[ApiId]) -> Vec<OpSpecId> {
    specs
        .iter()
        .filter(|s| {
            s.steps.len() >= prefix.len()
                && s.steps
                    .iter()
                    .zip(prefix)
                    .all(|(step, api)| step.api == *api)
        })
        .map(|s| s.id)
        .collect()
}

/// An injected fault of a synthetic stream and what its instance had done.
struct InjectedFault {
    ts: u64,
    api: ApiId,
    /// APIs the faulty instance called, in order, the failing one last.
    prefix: Vec<ApiId>,
}

fn injected_faults(traffic: &[Message]) -> Vec<InjectedFault> {
    let mut calls: HashMap<u64, Vec<ApiId>> = HashMap::new();
    let mut faults = Vec::new();
    for m in traffic {
        let Some(inst) = m.truth_op else { continue };
        let seen = calls.entry(inst.0).or_default();
        // One entry per step: REST steps are a request/response pair, RPC
        // steps a single request-direction message.
        if m.direction == Direction::Request {
            seen.push(m.api);
        }
        if m.is_rest_error() || m.is_rpc_error() {
            faults.push(InjectedFault {
                ts: m.ts_us,
                api: m.api,
                prefix: seen.clone(),
            });
        }
    }
    faults
}

/// Share of a synthetic stream's injected faults that were diagnosed with
/// an operation the faulty instance could have been running.
pub fn synthetic_hit_share(
    traffic: &[Message],
    specs: &[OperationSpec],
    diagnoses: &[Diagnosis],
) -> f64 {
    let faults = injected_faults(traffic);
    if faults.is_empty() {
        return 0.0;
    }
    let by_fault: HashMap<(u64, ApiId), &Diagnosis> =
        diagnoses.iter().map(|d| ((d.ts, d.api), d)).collect();
    let hits = faults
        .iter()
        .filter(|f| {
            by_fault.get(&(f.ts, f.api)).is_some_and(|d| {
                let plausible = specs_with_prefix(specs, &f.prefix);
                d.matched.iter().any(|m| plausible.contains(m))
            })
        })
        .count();
    hits as f64 / faults.len() as f64
}

/// What a correct analysis of one `incident` scenario reports.
pub enum Expected {
    /// A §7.2 case study: this root cause appears on some diagnosis.
    Cause(ExpectedCause),
    /// A cascade: every true root service is attributed as a root.
    Roots(Vec<Service>),
}

impl Expected {
    /// Whether `diagnoses` contain what this scenario expects.
    pub fn is_met(&self, diagnoses: &[Diagnosis]) -> bool {
        match self {
            Expected::Cause(expected) => {
                diagnoses.iter().flat_map(|d| &d.root_causes).any(|rc| match expected {
                    ExpectedCause::Resource(node, kind) => {
                        rc.node == *node && matches!(&rc.cause, CauseKind::Resource(k) if k == kind)
                    }
                    ExpectedCause::Dependency(node, dep) => {
                        rc.node == *node
                            && matches!(&rc.cause, CauseKind::Dependency(d) if d == dep)
                    }
                })
            }
            Expected::Roots(roots) => roots.iter().all(|root| {
                diagnoses.iter().any(|d| {
                    matches!(&d.attribution, Some(Attribution::Root { service, .. }) if service == root)
                })
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_model::{Catalog, Workflows};

    fn specs() -> Vec<OperationSpec> {
        let wf = Workflows::new(Catalog::openstack());
        vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.image_upload_spec(OpSpecId(1)),
            wf.cinder_list_spec(OpSpecId(2)),
        ]
    }

    #[test]
    fn prefix_resolves_to_every_spec_that_opens_with_it() {
        let specs = specs();
        let vm = specs[0].api_seq();
        // The empty prefix is consistent with everything.
        assert_eq!(specs_with_prefix(&specs, &[]).len(), 3);
        // A full sequence resolves to (at least) its own spec.
        assert!(specs_with_prefix(&specs, &vm).contains(&OpSpecId(0)));
        // One call more than the spec has resolves to nothing of that spec.
        let mut longer = vm.clone();
        longer.push(vm[0]);
        assert!(!specs_with_prefix(&specs, &longer).contains(&OpSpecId(0)));
        // A spec that diverges at the first call is excluded.
        let first_differs: Vec<OpSpecId> = specs_with_prefix(&specs, &vm[..1]);
        for s in &specs {
            assert_eq!(first_differs.contains(&s.id), s.steps[0].api == vm[0]);
        }
    }

    #[test]
    fn mismatches_count_missing_changed_and_extra() {
        let key = |b: u8| vec![b];
        let reference = vec![key(1), key(2), key(3)];
        assert_eq!(mismatches(&reference, &reference), 0);
        assert_eq!(mismatches(&reference, &[key(1), key(3)]), 1); // missing
        assert_eq!(mismatches(&reference, &[key(1), key(2), key(3), key(4)]), 1); // extra
        assert_eq!(mismatches(&reference, &[key(1), key(2), key(9)]), 2); // changed
        assert_eq!(mismatches(&reference, &[]), 3);
    }

    #[test]
    fn digest_depends_on_key_boundaries() {
        assert_ne!(
            digest(&[vec![1, 2], vec![3]]),
            digest(&[vec![1], vec![2, 3]])
        );
    }
}
