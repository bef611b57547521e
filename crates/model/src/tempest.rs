//! Synthetic Tempest-like integration suite.
//!
//! The paper fingerprints OpenStack by running the 1200 applicable tests of
//! the Tempest integration suite (§7.1, Table 1). Tempest itself needs a
//! live OpenStack cluster, so this module generates a suite of 1200
//! operation specs with the *statistical shape* Table 1 reports:
//!
//! * the per-category test counts (Compute 517, Image 55, Network 251,
//!   Storage 84, Misc 293);
//! * per-category unique-API pools of exactly the Table 1 sizes
//!   (e.g. Compute: 195 REST + 61 RPC);
//! * average fingerprint sizes near the Table 1 values (Compute ≈ 100 with
//!   RPCs / 56 without, etc.);
//! * within-category overlap (shared prologues and motifs) but little
//!   cross-category overlap (Fig 5);
//! * a globally unique state-change subsequence per test, so precise
//!   operation detection is possible in principle.
//!
//! Generation is fully deterministic for a given seed.

use crate::api::{ApiDef, ApiId, ApiKind, RpcStyle};
use crate::catalog::Catalog;
use crate::operation::{Category, LatencyClass, OpSpecId, OperationSpec, Step};
use crate::service::Service;
use crate::workflows::Workflows;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// Per-category API pools (the "Unique APIs" columns of Table 1).
#[derive(Debug, Clone)]
pub struct CategoryPools {
    /// REST APIs this category's tests may invoke.
    pub rest: Vec<ApiId>,
    /// RPC methods this category's tests may invoke.
    pub rpc: Vec<ApiId>,
}

impl CategoryPools {
    /// State-change REST APIs in the pool (used for discriminators and for
    /// fault injection into state-change calls).
    pub(crate) fn state_change_rest(&self, cat: &Catalog) -> Vec<ApiId> {
        self.rest
            .iter()
            .copied()
            .filter(|&id| cat.get(id).is_state_change())
            .collect()
    }
}

/// Table 1 calibration targets for one category.
#[derive(Debug, Clone, Copy)]
pub struct CategoryTargets {
    /// Number of tests.
    pub tests: usize,
    /// Unique REST APIs across the category.
    pub unique_rest: usize,
    /// Unique RPCs across the category.
    pub unique_rpc: usize,
    /// Average fingerprint size including RPCs.
    pub avg_fp_with_rpc: usize,
    /// Average fingerprint size without RPCs.
    pub avg_fp_without_rpc: usize,
}

/// The Table 1 targets.
pub(crate) fn table1_targets(cat: Category) -> CategoryTargets {
    match cat {
        Category::Compute => CategoryTargets {
            tests: 517,
            unique_rest: 195,
            unique_rpc: 61,
            avg_fp_with_rpc: 100,
            avg_fp_without_rpc: 56,
        },
        Category::Image => CategoryTargets {
            tests: 55,
            unique_rest: 38,
            unique_rpc: 10,
            avg_fp_with_rpc: 18,
            avg_fp_without_rpc: 15,
        },
        Category::Network => CategoryTargets {
            tests: 251,
            unique_rest: 70,
            unique_rpc: 24,
            avg_fp_with_rpc: 31,
            avg_fp_without_rpc: 16,
        },
        Category::Storage => CategoryTargets {
            tests: 84,
            unique_rest: 40,
            unique_rpc: 11,
            avg_fp_with_rpc: 17,
            avg_fp_without_rpc: 15,
        },
        Category::Misc => CategoryTargets {
            tests: 293,
            unique_rest: 20,
            unique_rpc: 11,
            avg_fp_with_rpc: 16,
            avg_fp_without_rpc: 11,
        },
    }
}

/// The generated suite: 1200 operation specs plus the pools they draw from.
///
/// ```
/// use gretel_model::{Catalog, Category, TempestSuite};
///
/// let suite = TempestSuite::generate(Catalog::openstack(), 42);
/// assert_eq!(suite.len(), 1200);
/// assert_eq!(suite.by_category(Category::Compute).count(), 517);
/// ```
pub struct TempestSuite {
    catalog: Arc<Catalog>,
    specs: Vec<OperationSpec>,
    pools: Vec<(Category, CategoryPools)>,
}

impl TempestSuite {
    /// Generate the full 1200-test suite.
    pub fn generate(catalog: Arc<Catalog>, seed: u64) -> TempestSuite {
        let counts: Vec<(Category, usize)> = Category::ALL
            .iter()
            .map(|&c| (c, table1_targets(c).tests))
            .collect();
        Self::generate_with_counts(catalog, seed, &counts)
    }

    /// Generate a reduced suite (same pools and shapes, fewer tests per
    /// category) — useful for fast unit tests.
    pub fn generate_with_counts(
        catalog: Arc<Catalog>,
        seed: u64,
        counts: &[(Category, usize)],
    ) -> TempestSuite {
        let wf = Workflows::new(catalog.clone());
        let pools: Vec<(Category, CategoryPools)> = Category::ALL
            .iter()
            .map(|&c| (c, build_pools(&catalog, c)))
            .collect();

        let mut specs = Vec::new();
        let mut signatures: HashSet<Vec<ApiId>> = HashSet::new();
        let mut global_idx = 0usize;
        for &(category, n_tests) in counts {
            let pool = &pools.iter().find(|(c, _)| *c == category).expect("pool").1;
            for test_idx in 0..n_tests {
                let id = OpSpecId(u16::try_from(specs.len()).expect("suite too large"));
                let spec = generate_test(
                    &catalog,
                    &wf,
                    pool,
                    category,
                    id,
                    test_idx,
                    global_idx,
                    seed,
                    &mut signatures,
                );
                specs.push(spec);
                global_idx += 1;
            }
        }
        TempestSuite {
            catalog,
            specs,
            pools,
        }
    }

    /// All specs, indexable by [`OpSpecId`].
    pub fn specs(&self) -> &[OperationSpec] {
        &self.specs
    }

    /// Number of tests in the suite.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The spec with the given id.
    pub fn spec(&self, id: OpSpecId) -> &OperationSpec {
        &self.specs[id.index()]
    }

    /// Specs belonging to one category.
    pub fn by_category(&self, cat: Category) -> impl Iterator<Item = &OperationSpec> {
        self.specs.iter().filter(move |s| s.category == cat)
    }

    /// The unique-API pools for a category.
    pub fn pools(&self, cat: Category) -> &CategoryPools {
        &self
            .pools
            .iter()
            .find(|(c, _)| *c == cat)
            .expect("pools for all categories")
            .1
    }

    /// The catalog the suite was generated against.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }
}

/// The primary (defining) service of a category.
fn primary_service(cat: Category) -> Service {
    match cat {
        Category::Compute => Service::Nova,
        Category::Image => Service::Glance,
        Category::Network => Service::Neutron,
        Category::Storage => Service::Cinder,
        Category::Misc => Service::Keystone,
    }
}

/// Derive natural (caller, callee) endpoints for an RPC definition.
pub(crate) fn rpc_endpoints(def: &ApiDef) -> (Service, Service) {
    let style = match &def.kind {
        ApiKind::Rpc { style, .. } => *style,
        ApiKind::Rest { .. } => panic!("rpc_endpoints on a REST API"),
    };
    match (def.service, style) {
        (Service::NovaCompute, _) => (Service::Nova, Service::NovaCompute),
        (Service::Nova, _) => (Service::Nova, Service::Nova),
        // Agents call into the Neutron server; the server casts to agents.
        (Service::Neutron, _) => (Service::NeutronAgent, Service::Neutron),
        (Service::NeutronAgent, _) => (Service::Neutron, Service::NeutronAgent),
        (s, _) => (s, s),
    }
}

/// Derive the natural (caller, callee) for a REST API invoked by a test of
/// `category`: calls to the category's own service originate at the
/// dashboard/CLI; cross-service calls originate at the category's primary
/// controller (e.g. Compute tests hitting Neutron come from Nova).
fn rest_endpoints(cat: Category, api_service: Service) -> (Service, Service) {
    let primary = primary_service(cat);
    if api_service == primary || primary == Service::Keystone {
        (Service::Horizon, api_service)
    } else {
        (primary, api_service)
    }
}

fn latency_for(def: &ApiDef) -> LatencyClass {
    match &def.kind {
        ApiKind::Rest { method, .. } if method.is_idempotent_read() => LatencyClass::Fast,
        ApiKind::Rest { .. } => LatencyClass::Medium,
        ApiKind::Rpc {
            style: RpcStyle::Call,
            ..
        } => LatencyClass::Medium,
        ApiKind::Rpc {
            style: RpcStyle::Cast,
            ..
        } => LatencyClass::Medium,
    }
}

fn make_step(catalog: &Catalog, cat: Category, id: ApiId) -> Step {
    let def = catalog.get(id);
    let (src, dst) = match &def.kind {
        ApiKind::Rest { .. } => rest_endpoints(cat, def.service),
        ApiKind::Rpc { .. } => rpc_endpoints(def),
    };
    Step::new(id, src, dst, latency_for(def))
}

/// Assemble the per-category API pools with exactly the Table 1 unique-API
/// counts.
fn build_pools(catalog: &Catalog, cat: Category) -> CategoryPools {
    let t = table1_targets(cat);
    let rest = build_rest_pool(catalog, cat, t.unique_rest);
    let rpc = build_rpc_pool(catalog, cat, t.unique_rpc);
    assert_eq!(rest.len(), t.unique_rest, "{cat}: REST pool size");
    assert_eq!(rpc.len(), t.unique_rpc, "{cat}: RPC pool size");
    CategoryPools { rest, rpc }
}

fn build_rest_pool(catalog: &Catalog, cat: Category, target: usize) -> Vec<ApiId> {
    // Primary service first, then cross-service extras in a category-
    // specific order; truncate to the Table 1 target.
    let order: Vec<Service> = match cat {
        Category::Compute => vec![
            Service::Nova,
            Service::Glance,
            Service::Neutron,
            Service::Cinder,
        ],
        Category::Image => vec![Service::Glance, Service::Swift],
        Category::Network => vec![Service::Neutron, Service::Nova],
        Category::Storage => vec![Service::Cinder, Service::Swift],
        Category::Misc => vec![Service::Keystone, Service::Swift],
    };
    let mut pool = Vec::new();
    // Keep a small cross-service share (~5%) so Fig 5 sees small but
    // non-zero cross-category overlap.
    let cross_total = (target / 20).max(2).min(target.saturating_sub(1));
    let primary_share = target - cross_total;
    let n_secondary = order.len().saturating_sub(1).max(1);
    let per_secondary = cross_total.div_ceil(n_secondary);
    for (i, service) in order.iter().enumerate() {
        let apis = catalog.service_rest_apis(*service);
        let want = if i == 0 {
            primary_share.min(apis.len())
        } else {
            per_secondary.min(target - pool.len()).min(apis.len())
        };
        if i == 0 {
            pool.extend(apis.into_iter().take(want));
        } else {
            // Cross-service extras skip the secondary service's most
            // common endpoints (those belong to that service's own
            // category motifs) and draw from its mid-list instead, so
            // categories stay distinguishable (Fig 5).
            let skip = 8.min(apis.len().saturating_sub(want));
            pool.extend(apis.into_iter().skip(skip).take(want));
        }
        if pool.len() >= target {
            break;
        }
    }
    // If the primary service could not supply its full share, top up from
    // the secondaries beyond their front slice.
    let mut extra_idx = 0usize;
    while pool.len() < target {
        let service = order[1 + extra_idx % n_secondary];
        let apis = catalog.service_rest_apis(service);
        if let Some(id) = apis.into_iter().find(|id| !pool.contains(id)) {
            pool.push(id);
        }
        extra_idx += 1;
        assert!(extra_idx < 10_000, "cannot fill REST pool for {cat}");
    }
    pool.truncate(target);
    pool
}

fn build_rpc_pool(catalog: &Catalog, cat: Category, target: usize) -> Vec<ApiId> {
    let order: Vec<Service> = match cat {
        Category::Compute => vec![
            Service::NovaCompute,
            Service::Nova,
            Service::Neutron,
            Service::NeutronAgent,
        ],
        Category::Image => vec![Service::Glance, Service::NovaCompute],
        Category::Network => vec![Service::Neutron, Service::NeutronAgent, Service::Nova],
        Category::Storage => vec![Service::Cinder],
        Category::Misc => vec![Service::Nova, Service::Cinder],
    };
    let mut pool = Vec::new();
    for service in order {
        let rpcs = catalog.service_rpcs(service);
        let want = target - pool.len();
        pool.extend(rpcs.into_iter().take(want));
        if pool.len() >= target {
            break;
        }
    }
    pool.truncate(target);
    pool
}

/// Category-specific short read prologue shared by every test of the
/// category — the source of the within-category overlap Table 1 notes.
fn prologue(wf: &Workflows, cat: Category) -> Vec<Step> {
    use crate::api::HttpMethod::*;
    let c = wf.catalog();
    let mk = |svc: Service, m, uri: &str| -> Step {
        let id = c.rest_expect(svc, m, uri);
        make_step(c, cat, id)
    };
    match cat {
        Category::Compute => vec![
            mk(Service::Nova, Get, "/v2.1/flavors"),
            mk(Service::Nova, Get, "/v2.1/limits"),
            mk(Service::Nova, Get, "/v2.1/servers"),
        ],
        Category::Image => vec![mk(Service::Glance, Get, "/v2/images")],
        Category::Network => vec![
            mk(Service::Neutron, Get, "/v2.0/networks.json"),
            mk(Service::Neutron, Get, "/v2.0/extensions.json"),
        ],
        Category::Storage => vec![mk(Service::Cinder, Get, "/v2/{tenant}/volumes")],
        Category::Misc => vec![
            mk(Service::Keystone, Get, "/v3"),
            mk(Service::Keystone, Get, "/v3/catalog"),
        ],
    }
}

/// Category motif library: realistic composite sub-operations.
fn motifs(wf: &Workflows, cat: Category) -> Vec<Vec<Step>> {
    match cat {
        Category::Compute => vec![
            wf.vm_create(),
            wf.vm_delete(),
            wf.vm_reboot(),
            wf.vm_snapshot(),
            wf.vm_migrate(),
            wf.volume_attach(),
            wf.vm_resize(),
            wf.vm_rescue(),
            wf.vm_shelve_unshelve(),
        ],
        Category::Image => vec![wf.image_upload(), wf.image_list(), wf.image_share()],
        Category::Network => vec![
            wf.network_create(),
            wf.router_create(),
            wf.floating_ip_associate(),
            wf.security_group_create(),
            wf.router_teardown(),
        ],
        Category::Storage => vec![
            wf.volume_create(),
            wf.volume_snapshot(),
            wf.cinder_list(),
            wf.volume_extend(),
            wf.volume_backup_restore(),
        ],
        Category::Misc => vec![
            wf.admin_queries(),
            wf.keypair_create(),
            wf.swift_put_object(),
            wf.project_onboarding(),
            wf.swift_container_lifecycle(),
        ],
    }
}

#[allow(clippy::too_many_arguments)]
fn generate_test(
    catalog: &Catalog,
    wf: &Workflows,
    pool: &CategoryPools,
    category: Category,
    id: OpSpecId,
    test_idx: usize,
    global_idx: usize,
    seed: u64,
    signatures: &mut HashSet<Vec<ApiId>>,
) -> OperationSpec {
    let mut rng = StdRng::seed_from_u64(
        seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(global_idx as u64 + 1)),
    );
    let targets = table1_targets(category);

    let mut steps = prologue(wf, category);

    // Pick 1..=k motifs; Compute tests are composites of several.
    let lib = motifs(wf, category);
    let n_motifs = match category {
        Category::Compute => 1 + rng.gen_range(0..=2),
        _ => 1,
    };
    for _ in 0..n_motifs {
        let m = &lib[rng.gen_range(0..lib.len())];
        steps.extend(m.iter().cloned());
    }

    // How many more REST / RPC steps we need to hit the Table 1 averages.
    // ±20% jitter keeps test lengths varied like the real suite.
    let jitter = |rng: &mut StdRng, mean: usize| -> usize {
        if mean == 0 {
            return 0;
        }
        let lo = (mean as f64 * 0.8) as usize;
        let hi = ((mean as f64 * 1.2) as usize).max(lo + 1);
        rng.gen_range(lo..hi)
    };
    let rest_goal = jitter(&mut rng, targets.avg_fp_without_rpc);
    let rpc_goal = jitter(
        &mut rng,
        targets.avg_fp_with_rpc - targets.avg_fp_without_rpc,
    );

    let rest_have = steps
        .iter()
        .filter(|s| !catalog.get(s.api).is_rpc())
        .count();
    let rpc_have = steps.len() - rest_have;
    // Reserve 2 REST slots for the uniqueness discriminator.
    let rest_fill = rest_goal.saturating_sub(rest_have).saturating_sub(2);
    let rpc_fill = rpc_goal.saturating_sub(rpc_have);

    // REST fill: a consecutive slice of the category pool (rotating offset
    // guarantees the whole pool is exercised across the category), locally
    // shuffled so state-change order differs between tests.
    let mut fill: Vec<ApiId> = Vec::with_capacity(rest_fill + rpc_fill);
    if !pool.rest.is_empty() && rest_fill > 0 {
        let offset = (test_idx * 31) % pool.rest.len();
        for k in 0..rest_fill.min(pool.rest.len()) {
            fill.push(pool.rest[(offset + k) % pool.rest.len()]);
        }
    }
    // RPC fill: sampled with replacement (operations repeat RPCs freely).
    for _ in 0..rpc_fill {
        if pool.rpc.is_empty() {
            break;
        }
        fill.push(pool.rpc[rng.gen_range(0..pool.rpc.len())]);
    }
    fill.shuffle(&mut rng);
    steps.extend(
        fill.into_iter()
            .map(|api| make_step(catalog, category, api)),
    );

    // Uniqueness discriminator: append a pair of state-change REST steps
    // chosen so the test's full state-change subsequence is globally unique.
    let sc_pool = pool.state_change_rest(catalog);
    assert!(
        sc_pool.len() >= 2,
        "{category}: need state-change APIs for discriminators"
    );
    let l = sc_pool.len();
    let mut k = 0usize;
    loop {
        let a = sc_pool[(global_idx + k) % l];
        let b = sc_pool[((global_idx / l) + k * 7 + 3) % l];
        let mut candidate = steps.clone();
        candidate.push(make_step(catalog, category, a));
        candidate.push(make_step(catalog, category, b));
        let sig: Vec<ApiId> = candidate
            .iter()
            .filter(|s| catalog.get(s.api).is_state_change())
            .map(|s| s.api)
            .collect();
        if signatures.insert(sig) {
            steps = candidate;
            break;
        }
        k += 1;
        assert!(k < l * l, "could not find a unique discriminator");
    }

    OperationSpec {
        id,
        name: format!("{}.t{:04}", category.name().to_lowercase(), test_idx),
        category,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small_suite() -> TempestSuite {
        let counts: Vec<(Category, usize)> = Category::ALL.iter().map(|&c| (c, 12)).collect();
        TempestSuite::generate_with_counts(Catalog::openstack(), 7, &counts)
    }

    #[test]
    fn pool_sizes_match_table1() {
        let suite = small_suite();
        for &c in &Category::ALL {
            let t = table1_targets(c);
            assert_eq!(suite.pools(c).rest.len(), t.unique_rest, "{c} REST");
            assert_eq!(suite.pools(c).rpc.len(), t.unique_rpc, "{c} RPC");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let counts = [(Category::Compute, 5), (Category::Network, 5)];
        let a = TempestSuite::generate_with_counts(Catalog::openstack(), 42, &counts);
        let b = TempestSuite::generate_with_counts(Catalog::openstack(), 42, &counts);
        assert_eq!(a.specs(), b.specs());
    }

    #[test]
    fn different_seeds_differ() {
        let counts = [(Category::Compute, 5)];
        let a = TempestSuite::generate_with_counts(Catalog::openstack(), 1, &counts);
        let b = TempestSuite::generate_with_counts(Catalog::openstack(), 2, &counts);
        assert_ne!(a.specs(), b.specs());
    }

    #[test]
    fn state_change_subsequences_are_unique() {
        let suite = small_suite();
        let cat = suite.catalog();
        let mut sigs = HashSet::new();
        for spec in suite.specs() {
            let sig: Vec<ApiId> = spec
                .steps
                .iter()
                .filter(|s| cat.get(s.api).is_state_change())
                .map(|s| s.api)
                .collect();
            assert!(sigs.insert(sig), "duplicate signature for {}", spec.name);
        }
    }

    #[test]
    fn specs_use_only_pool_apis_plus_motifs() {
        let suite = small_suite();
        let cat = suite.catalog();
        for spec in suite.specs() {
            for step in &spec.steps {
                assert!(!cat.is_noise(step.api), "{}: noise API in spec", spec.name);
            }
        }
    }

    #[test]
    fn average_lengths_track_table1() {
        // Use a moderately sized suite so the averages stabilise.
        let counts: Vec<(Category, usize)> = Category::ALL.iter().map(|&c| (c, 40)).collect();
        let suite = TempestSuite::generate_with_counts(Catalog::openstack(), 3, &counts);
        let cat = suite.catalog();
        for &c in &Category::ALL {
            let t = table1_targets(c);
            let specs: Vec<_> = suite.by_category(c).collect();
            let avg_total: f64 =
                specs.iter().map(|s| s.len() as f64).sum::<f64>() / specs.len() as f64;
            let avg_rest: f64 = specs
                .iter()
                .map(|s| {
                    s.steps
                        .iter()
                        .filter(|st| !cat.get(st.api).is_rpc())
                        .count() as f64
                })
                .sum::<f64>()
                / specs.len() as f64;
            let tol_total = (t.avg_fp_with_rpc as f64 * 0.35).max(6.0);
            let tol_rest = (t.avg_fp_without_rpc as f64 * 0.35).max(6.0);
            assert!(
                (avg_total - t.avg_fp_with_rpc as f64).abs() < tol_total,
                "{c}: avg total {avg_total:.1} vs target {}",
                t.avg_fp_with_rpc
            );
            assert!(
                (avg_rest - t.avg_fp_without_rpc as f64).abs() < tol_rest,
                "{c}: avg REST {avg_rest:.1} vs target {}",
                t.avg_fp_without_rpc
            );
        }
    }

    #[test]
    fn full_suite_has_1200_tests() {
        let suite = TempestSuite::generate(Catalog::openstack(), 11);
        assert_eq!(suite.len(), 1200);
        for &c in &Category::ALL {
            assert_eq!(suite.by_category(c).count(), table1_targets(c).tests, "{c}");
        }
    }

    #[test]
    fn cross_category_pool_overlap_is_small() {
        let suite = small_suite();
        for &a in &Category::ALL {
            for &b in &Category::ALL {
                if a == b {
                    continue;
                }
                let pa: HashSet<_> = suite.pools(a).rest.iter().collect();
                let pb: HashSet<_> = suite.pools(b).rest.iter().collect();
                let inter = pa.intersection(&pb).count();
                let frac = inter as f64 / pa.len() as f64;
                assert!(frac < 0.35, "{a} vs {b}: pool overlap {frac:.2}");
            }
        }
    }

    #[test]
    fn all_generated_specs_validate() {
        let suite = small_suite();
        for spec in suite.specs() {
            let problems = spec.validate(suite.catalog());
            assert!(problems.is_empty(), "{}: {problems:?}", spec.name);
        }
    }

    #[test]
    fn rpc_endpoints_are_sensible() {
        let cat = Catalog::openstack();
        let build = cat.rpc_expect(Service::NovaCompute, "build_and_run_instance");
        let (src, dst) = rpc_endpoints(cat.get(build));
        assert_eq!((src, dst), (Service::Nova, Service::NovaCompute));
        let gd = cat.rpc_expect(Service::Neutron, "get_devices_details_list");
        let (src, dst) = rpc_endpoints(cat.get(gd));
        assert_eq!((src, dst), (Service::NeutronAgent, Service::Neutron));
    }
}
