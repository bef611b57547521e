//! Integration: cascade attribution must survive tenant sharding.
//!
//! The cross-shard RCA merge re-runs `attribute_cascades` over the merged
//! diagnosis union and merged traffic graph. This property test drives
//! the partition-split cascade (the scenario flat RCA cannot solve — both
//! processes up, watchers green, only the traffic graph names the root)
//! as multi-tenant traffic through 1/2/4/8 pipeline shards across random
//! seeds, and demands that every diagnosis carries the *same*
//! root/symptom label the unsharded pipeline assigns — a root detected
//! from shard 0's tenants must still claim the symptoms diagnosed on
//! shard 3.
//!
//! Both paths run RCA-free (no telemetry context): the point is the graph
//! post-pass, not per-node cause ranking.

use gretel::core::graph::{Attribution, CascadeParams};
use gretel::core::{canonical_order, run_sharded, ShardedConfig};
use gretel::model::{NodeId, Service};
use gretel::prelude::*;
use gretel::sim::cascade::partition_split_cascade;
use proptest::prelude::*;

/// A diagnosis's cascade label, reduced to what the report shows the
/// operator: nothing, "root of the cascade", or "symptom of <service>".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    Plain,
    Root(Service),
    Symptom { service: Service, of: Service },
}

fn label_of(d: &Diagnosis) -> Label {
    match &d.attribution {
        None => Label::Plain,
        Some(Attribution::Root { service, .. }) => Label::Root(*service),
        Some(Attribution::Symptom { service, of, .. }) => Label::Symptom {
            service: *service,
            of: *of,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cascade_labels_are_identical_across_shard_counts(seed in 0u64..1000) {
        let catalog = Catalog::openstack();
        let mut sc = partition_split_cascade(&catalog, seed);
        // Multi-tenant deployment mode: several Keystone projects so the
        // cascade's operations actually spread across shards, and
        // correlation ids on (the regime under which sharding preserves
        // the diagnosis stream).
        sc.config.projects = 5;
        sc.config.correlation_ids = true;
        let exec = sc.run(catalog.clone());
        let (library, _) = FingerprintLibrary::characterize(
            catalog.clone(),
            &sc.specs,
            &sc.deployment,
            2,
            7,
        );
        // α sized to the run (the GretelConfig::auto rule): window
        // eviction pressure differs between full load and a shard's 1/N
        // load, so an undersized window would skew context accounting.
        let alpha = (2 * exec.messages.len()).max(64);
        let gcfg = GretelConfig { alpha, ..GretelConfig::default() };
        let nodes: Vec<NodeId> = sc.deployment.nodes().iter().map(|n| n.id).collect();

        // Unsharded baseline: inline analyzer, then the graph post-pass
        // over its own mined graph — diagnoses in canonical order first,
        // exactly as the sharded merge orders them.
        let mut analyzer = Analyzer::new(&library, gcfg);
        let mut expected = analyze_stream(&mut analyzer, exec.messages.iter());
        canonical_order(&mut expected);
        gretel::core::graph::attribute_cascades(
            &mut expected,
            analyzer.traffic_graph(),
            &catalog,
            CascadeParams::default(),
        );
        prop_assert!(!expected.is_empty(), "the cascade produces diagnoses");
        prop_assert!(
            expected.iter().any(|d| matches!(label_of(d), Label::Root(_))),
            "the unsharded pass names a cascade root"
        );
        let expected_labels: Vec<Label> = expected.iter().map(label_of).collect();

        for shards in [1usize, 2, 4, 8] {
            let cfg = ShardedConfig {
                shards,
                cascades: Some(CascadeParams::default()),
                ..ShardedConfig::default()
            };
            let out = run_sharded(&library, gcfg, &nodes, &exec.messages, &cfg)
                .expect("sharded run completes");
            prop_assert_eq!(
                out.diagnoses.len(),
                expected.len(),
                "{} shard(s): same diagnosis set",
                shards
            );
            let labels: Vec<Label> = out.diagnoses.iter().map(label_of).collect();
            prop_assert_eq!(
                &labels,
                &expected_labels,
                "{} shard(s): every root/symptom label must match the unsharded pass",
                shards
            );
        }
    }
}
