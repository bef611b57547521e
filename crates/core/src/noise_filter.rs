//! Trace noise filtering (Algorithm 1's `FILTER_NOISE`).
//!
//! "Routine OpenStack operations typically involve several messages, both
//! REST and RPC, that do not contribute in any meaningful way to segregate
//! user-level operations at run time. These messages include heartbeat and
//! status update RPCs, common REST invocations involving Keystone, and
//! repeat occurrences of idempotent REST actions for a specific URI" (§5).
//!
//! The filter works on API-id sequences: drop APIs the catalog classifies
//! as noise, and collapse repeats of idempotent REST reads to their first
//! occurrence.

use gretel_model::{ApiId, ApiKind, Catalog};
use std::collections::HashSet;

/// Filter one trace. Order of retained invocations is preserved.
pub fn filter_noise(catalog: &Catalog, trace: &[ApiId]) -> Vec<ApiId> {
    let mut seen_idempotent: HashSet<ApiId> = HashSet::new();
    let mut out = Vec::with_capacity(trace.len());
    for &api in trace {
        let def = catalog.get(api);
        if def.noise.is_some() {
            continue;
        }
        let idempotent_read = matches!(
            &def.kind,
            ApiKind::Rest { method, .. } if method.is_idempotent_read()
        );
        if idempotent_read && !seen_idempotent.insert(api) {
            continue; // repeat of an idempotent read — prune
        }
        out.push(api);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_model::{HttpMethod, Service};

    fn setup() -> (std::sync::Arc<Catalog>, ApiId, ApiId, ApiId, ApiId) {
        let cat = Catalog::openstack();
        let get = cat.rest_expect(Service::Nova, HttpMethod::Get, "/v2.1/servers");
        let post = cat.rest_expect(Service::Nova, HttpMethod::Post, "/v2.1/servers");
        let rpc = cat.rpc_expect(Service::NovaCompute, "build_and_run_instance");
        let noise = cat.noise_apis()[0];
        (cat, get, post, rpc, noise)
    }

    #[test]
    fn drops_noise_class_apis() {
        let (cat, get, post, _, noise) = setup();
        assert_eq!(
            filter_noise(&cat, &[noise, get, noise, post, noise]),
            vec![get, post]
        );
    }

    #[test]
    fn collapses_idempotent_repeats() {
        let (cat, get, post, _, _) = setup();
        assert_eq!(filter_noise(&cat, &[get, get, post, get]), vec![get, post]);
    }

    #[test]
    fn keeps_state_change_repeats() {
        // Two POSTs are two distinct actions — never collapsed.
        let (cat, _, post, _, _) = setup();
        assert_eq!(
            filter_noise(&cat, &[post, post, post]),
            vec![post, post, post]
        );
    }

    #[test]
    fn keeps_rpc_repeats() {
        let (cat, _, _, rpc, _) = setup();
        assert_eq!(filter_noise(&cat, &[rpc, rpc]), vec![rpc, rpc]);
    }

    #[test]
    fn is_idempotent_filter_is_idempotent() {
        let (cat, get, post, rpc, noise) = setup();
        let trace = vec![get, noise, get, post, rpc, get, post, noise, rpc];
        let once = filter_noise(&cat, &trace);
        let twice = filter_noise(&cat, &once);
        assert_eq!(once, twice);
    }

    #[test]
    fn empty_trace() {
        let (cat, ..) = setup();
        assert!(filter_noise(&cat, &[]).is_empty());
    }
}
