//! Deployment topology: service placement onto physical nodes.
//!
//! Mirrors the paper's testbed (§7, Experimental setup): 7 servers, of
//! which 3 are compute nodes, with OpenStack components spread across the
//! non-compute servers. Per-node service ports give REST connections
//! realistic 4-tuples, and the broker node gives RPCs their transit hop.

use gretel_model::{NodeId, Service};
use std::collections::HashMap;

/// A physical node and the services it hosts.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Node identity.
    pub id: NodeId,
    /// Human-readable role name.
    pub role: &'static str,
    /// Services placed on this node.
    pub services: Vec<Service>,
    /// Whether this is a compute node.
    pub is_compute: bool,
}

/// Static deployment topology.
#[derive(Debug, Clone)]
pub struct Deployment {
    nodes: Vec<NodeSpec>,
    placement: HashMap<Service, Vec<NodeId>>,
}

impl Deployment {
    /// The paper's 7-server topology: controller, network, image, storage
    /// and 3 compute nodes. NTP runs on every node; the broker and database
    /// live on the controller.
    pub fn standard() -> Deployment {
        use Service::*;
        let specs = vec![
            NodeSpec {
                id: NodeId(0),
                role: "controller",
                services: vec![Nova, Keystone, Horizon, RabbitMq, MySql, Ntp],
                is_compute: false,
            },
            NodeSpec {
                id: NodeId(1),
                role: "network",
                services: vec![Neutron, Ntp],
                is_compute: false,
            },
            NodeSpec {
                id: NodeId(2),
                role: "image",
                services: vec![Glance, Swift, Ntp],
                is_compute: false,
            },
            NodeSpec {
                id: NodeId(3),
                role: "storage",
                services: vec![Cinder, Ntp],
                is_compute: false,
            },
            NodeSpec {
                id: NodeId(4),
                role: "compute1",
                services: vec![NovaCompute, NeutronAgent, Ntp],
                is_compute: true,
            },
            NodeSpec {
                id: NodeId(5),
                role: "compute2",
                services: vec![NovaCompute, NeutronAgent, Ntp],
                is_compute: true,
            },
            NodeSpec {
                id: NodeId(6),
                role: "compute3",
                services: vec![NovaCompute, NeutronAgent, Ntp],
                is_compute: true,
            },
        ];
        Self::from_nodes(specs)
    }

    /// A scaled topology: the four controller-role nodes of
    /// [`Deployment::standard`] plus `n_compute` compute nodes. Used to
    /// study how GRETEL behaves as the deployment grows (the paper argues
    /// fingerprints are deployment-size independent, §7.1).
    pub fn scaled(n_compute: usize) -> Deployment {
        use Service::*;
        assert!((1..=250).contains(&n_compute), "1..=250 compute nodes");
        let mut specs = Deployment::standard()
            .nodes
            .into_iter()
            .filter(|n| !n.is_compute)
            .collect::<Vec<_>>();
        for i in 0..n_compute {
            specs.push(NodeSpec {
                id: NodeId((4 + i) as u8),
                role: "compute",
                services: vec![NovaCompute, NeutronAgent, Ntp],
                is_compute: true,
            });
        }
        Self::from_nodes(specs)
    }

    /// Build a deployment from explicit node specs.
    pub(crate) fn from_nodes(nodes: Vec<NodeSpec>) -> Deployment {
        let mut placement: HashMap<Service, Vec<NodeId>> = HashMap::new();
        for n in &nodes {
            for &s in &n.services {
                placement.entry(s).or_default().push(n.id);
            }
        }
        Deployment { nodes, placement }
    }

    /// All nodes.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the deployment has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The compute nodes.
    pub fn compute_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.is_compute)
            .map(|n| n.id)
            .collect()
    }

    /// All nodes hosting `service` (empty if unplaced).
    pub fn nodes_of(&self, service: Service) -> &[NodeId] {
        self.placement
            .get(&service)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The node hosting `service`, using `hint` to pick among replicas
    /// (e.g. which compute node runs a given instance). Panics when the
    /// service is unplaced — topology bugs should fail loudly.
    pub fn node_of(&self, service: Service, hint: u64) -> NodeId {
        let nodes = self.nodes_of(service);
        assert!(
            !nodes.is_empty(),
            "service {service} not placed in deployment"
        );
        nodes[(hint % nodes.len() as u64) as usize]
    }

    /// The node hosting the RabbitMQ broker.
    pub(crate) fn broker(&self) -> NodeId {
        self.node_of(Service::RabbitMq, 0)
    }

    /// Well-known TCP port of a service's API endpoint.
    pub(crate) fn service_port(service: Service) -> u16 {
        match service {
            Service::Horizon => 80,
            Service::Keystone => 5000,
            Service::Nova => 8774,
            Service::NovaCompute => 8775,
            Service::Neutron => 9696,
            Service::NeutronAgent => 9697,
            Service::Glance => 9292,
            Service::Cinder => 8776,
            Service::Swift => 8080,
            Service::RabbitMq => 5672,
            Service::MySql => 3306,
            Service::Ntp => 123,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_matches_paper_testbed() {
        let d = Deployment::standard();
        assert_eq!(d.len(), 7, "paper: 7 servers");
        assert_eq!(d.compute_nodes().len(), 3, "paper: 3 compute nodes");
    }

    #[test]
    fn every_service_is_placed() {
        let d = Deployment::standard();
        for s in Service::ALL {
            assert!(!d.nodes_of(s).is_empty(), "{s} unplaced");
        }
    }

    #[test]
    fn ntp_runs_on_every_node() {
        let d = Deployment::standard();
        assert_eq!(d.nodes_of(Service::Ntp).len(), d.len());
    }

    #[test]
    fn hint_spreads_across_replicas() {
        let d = Deployment::standard();
        let picks: Vec<_> = (0..3).map(|h| d.node_of(Service::NovaCompute, h)).collect();
        assert_eq!(picks.len(), 3);
        let mut unique = picks.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 3, "three compute replicas should all be used");
    }

    #[test]
    fn singleton_services_ignore_hint() {
        let d = Deployment::standard();
        assert_eq!(
            d.node_of(Service::Neutron, 0),
            d.node_of(Service::Neutron, 99)
        );
    }

    #[test]
    fn broker_is_on_controller() {
        let d = Deployment::standard();
        assert_eq!(d.broker(), NodeId(0));
    }

    #[test]
    fn service_ports_are_unique_per_service() {
        let mut ports: Vec<u16> = Service::ALL
            .iter()
            .map(|&s| Deployment::service_port(s))
            .collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), Service::ALL.len());
    }

    #[test]
    fn scaled_topology_grows_compute_only() {
        let d = Deployment::scaled(10);
        assert_eq!(d.compute_nodes().len(), 10);
        assert_eq!(d.len(), 14);
        // Every service still placed.
        for s in Service::ALL {
            assert!(!d.nodes_of(s).is_empty(), "{s} unplaced");
        }
        // Instances spread across all replicas.
        let picks: std::collections::HashSet<_> = (0..40)
            .map(|h| d.node_of(Service::NovaCompute, h))
            .collect();
        assert_eq!(picks.len(), 10);
    }

    #[test]
    #[should_panic(expected = "compute nodes")]
    fn scaled_rejects_zero_compute() {
        Deployment::scaled(0);
    }
}
