//! Tenant-hash routing of captured traffic onto pipeline shards.
//!
//! The sharded pipeline (DESIGN.md §15) runs N independent
//! ingest→resequence→window→detect partitions; this module owns the one
//! policy they all must agree on: **which shard a message belongs to**.
//! Routing hashes the wire-visible Keystone project id
//! ([`gretel_model::ProjectId`], carried in every framed request at a
//! fixed offset — see [`crate::frame`]) so that all traffic of one tenant, and
//! therefore every event of one operation instance, lands on the same
//! shard. Traffic with no project scope (heartbeats, token issuance) hashes
//! under a fixed sentinel and so also stays on a single, stable shard.
//!
//! The hash is SplitMix64 over the project id, reduced modulo the shard
//! count. SplitMix64 passes avalanche tests, so consecutive project ids do
//! not clump onto consecutive shards, yet the function is pure and
//! platform-independent: the same message routes identically on every run,
//! which the byte-identity oracles in gretel-bench's `soak` rely on.

use gretel_model::codec::finalize;
use gretel_model::{Message, ProjectId};

/// Hash seed distinguishing "no project" from project 0.
const NO_PROJECT_KEY: u64 = 0;

/// One SplitMix64 step: golden-ratio increment, then the finalizer.
fn splitmix64(x: u64) -> u64 {
    finalize(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Shard index for a message scoped to `project`, out of `shards`
/// partitions.
///
/// Pure and deterministic: the routing table is the function itself, so
/// agents, the soak driver, and the shard driver never need to exchange
/// assignments. `None` (no project scope) routes to a fixed shard
/// distinct from any particular tenant's.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_of(project: Option<ProjectId>, shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    let key = match project {
        Some(p) => 1 + p.0 as u64,
        None => NO_PROJECT_KEY,
    };
    (splitmix64(key) % shards as u64) as usize
}

/// Partition a decoded message stream into per-shard streams by tenant.
///
/// The materialised form of the routing rule, and its reference: the
/// sharded pipeline never calls this — each shard's capture agents apply
/// [`shard_of`] as a filter while they walk the one shared stream — but
/// what shard `i` counts, ships and diagnoses must equal a single pipeline
/// over `partition_messages(traffic, n)[i]` (gretel-core's
/// `shard_filters_route_like_partition_messages`).
///
/// Relative order within each shard is the order of the input stream, so a
/// time-ordered input yields N time-ordered partitions.
pub fn partition_messages(traffic: &[Message], shards: usize) -> Vec<Vec<Message>> {
    assert!(shards > 0, "need at least one shard");
    let mut parts: Vec<Vec<Message>> = (0..shards)
        .map(|_| Vec::with_capacity(traffic.len() / shards + 1))
        .collect();
    for m in traffic {
        parts[shard_of(m.project, shards)].push(m.clone());
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_model::{
        ApiId, ConnKey, Direction, HttpMethod, MessageId, NodeId, Service, WireKind,
    };

    fn msg(project: Option<ProjectId>) -> Message {
        Message {
            id: MessageId(1),
            ts_us: 10,
            src_node: NodeId(0),
            dst_node: NodeId(1),
            src_service: Service::Nova,
            dst_service: Service::Neutron,
            api: ApiId(3),
            direction: Direction::Request,
            wire: WireKind::Rest { method: HttpMethod::Get, uri: "/v2.1/servers".into(), status: None },
            conn: ConnKey::default(),
            payload: vec![1, 2, 3],
            correlation_id: None,
            project,
            truth_op: None,
            truth_noise: false,
        }
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 8, 16] {
            for p in 0..1000u32 {
                let s = shard_of(Some(ProjectId(p)), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(Some(ProjectId(p)), shards));
            }
            assert!(shard_of(None, shards) < shards);
        }
    }

    #[test]
    fn routing_spreads_tenants() {
        // 1000 projects over 8 shards: no shard may be empty or hold a
        // gross majority. SplitMix64's avalanche makes this deterministic.
        let mut counts = [0usize; 8];
        for p in 0..1000u32 {
            counts[shard_of(Some(ProjectId(p)), 8)] += 1;
        }
        for c in counts {
            assert!(c > 50 && c < 300, "skewed shard distribution: {counts:?}");
        }
    }

    #[test]
    fn partitions_keep_every_message_on_its_tenant_shard_in_order() {
        let traffic: Vec<Message> = (0..100u32)
            .map(|i| Message {
                id: MessageId(i as u64),
                ..msg((i % 7 != 0).then_some(ProjectId(i % 13)))
            })
            .collect();
        let parts = partition_messages(&traffic, 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), traffic.len());
        for (shard, part) in parts.iter().enumerate() {
            assert!(part.iter().all(|m| shard_of(m.project, 4) == shard));
            assert!(part.windows(2).all(|w| w[0].id < w[1].id), "input order kept");
        }
    }
}
