//! OpenStack component services and infrastructure dependencies.
//!
//! GRETEL models an OpenStack deployment as a set of *services* placed on
//! physical *nodes*. Inter-service communication happens via REST; intra-
//! service communication via RPC routed through the RabbitMQ broker (paper
//! §2). Infrastructure dependencies (MySQL, RabbitMQ, NTP, libvirt, the
//! Neutron L2 agent, ...) are modelled as [`Dependency`] values that root
//! cause analysis can report as faulty.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An OpenStack component service (or controller/agent split of one).
///
/// The split of Nova and Neutron into controller and per-compute-node agent
/// halves mirrors the paper's deployment (Fig 1): the Nova controller talks
/// to `nova-compute` on the compute nodes via RPC through RabbitMQ, and the
/// Neutron server talks to its L2 agents the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Service {
    /// Web dashboard; the origin of most administrative operations.
    Horizon,
    /// Identity service; authenticates every other service.
    Keystone,
    /// Compute controller (nova-api, nova-scheduler, nova-conductor).
    Nova,
    /// Per-compute-node compute agent (`nova-compute`).
    NovaCompute,
    /// Networking controller (neutron-server).
    Neutron,
    /// Per-compute-node L2 agent (e.g. `neutron-plugin-linuxbridge-agent`).
    NeutronAgent,
    /// Image catalog and repository.
    Glance,
    /// Block storage controller.
    Cinder,
    /// Object/blob store.
    Swift,
    /// RPC message broker; every RPC transits this service.
    RabbitMq,
    /// Shared relational database for all services.
    MySql,
    /// Time synchronisation daemon; required on every node.
    Ntp,
}

impl Service {
    /// All modelled services, in a stable order.
    pub const ALL: [Service; 12] = [
        Service::Horizon,
        Service::Keystone,
        Service::Nova,
        Service::NovaCompute,
        Service::Neutron,
        Service::NeutronAgent,
        Service::Glance,
        Service::Cinder,
        Service::Swift,
        Service::RabbitMq,
        Service::MySql,
        Service::Ntp,
    ];

    /// Dense index of this service in [`Service::ALL`] (stable; used by
    /// wire codecs).
    pub fn index(self) -> u8 {
        Service::ALL
            .iter()
            .position(|&s| s == self)
            .expect("service in ALL") as u8
    }

    /// Inverse of [`Service::index`].
    pub fn from_index(i: u8) -> Option<Service> {
        Service::ALL.get(i as usize).copied()
    }

    /// Inverse of [`Service::name`].
    pub(crate) fn from_name(name: &str) -> Option<Service> {
        Service::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// The canonical lowercase name used in URIs, logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Service::Horizon => "horizon",
            Service::Keystone => "keystone",
            Service::Nova => "nova",
            Service::NovaCompute => "nova-compute",
            Service::Neutron => "neutron",
            Service::NeutronAgent => "neutron-linuxbridge-agent",
            Service::Glance => "glance",
            Service::Cinder => "cinder",
            Service::Swift => "swift",
            Service::RabbitMq => "rabbitmq",
            Service::MySql => "mysql",
            Service::Ntp => "ntp",
        }
    }

    /// Whether this service is an infrastructure dependency rather than an
    /// OpenStack component proper.
    pub fn is_infrastructure(self) -> bool {
        matches!(self, Service::RabbitMq | Service::MySql | Service::Ntp)
    }

    /// The controller-side service for an agent, or `self` when it already
    /// is a controller. RPC request/response pairs are attributed to the
    /// controller service.
    pub fn controller(self) -> Service {
        match self {
            Service::NovaCompute => Service::Nova,
            Service::NeutronAgent => Service::Neutron,
            s => s,
        }
    }
}

impl fmt::Display for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Identifier of a physical node in the deployment.
///
/// The simulator assigns these; the model only needs node identity so that
/// messages can carry their endpoints and root cause analysis can map an
/// operation onto the nodes it touches.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u8);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A software dependency whose health GRETEL watches on each node
/// (paper §5.1: "GRETEL maintains watchers on third-party software
/// dependencies").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dependency {
    /// An OpenStack service process itself (e.g. `nova-compute` on a host).
    ServiceProcess(Service),
    /// TCP-level reachability of the MySQL server.
    MySqlReachable,
    /// TCP-level reachability of the RabbitMQ broker.
    RabbitMqReachable,
    /// A running, synchronised NTP agent on the node.
    NtpAgent,
    /// The libvirt virtualisation daemon (compute nodes only).
    Libvirt,
}

impl Dependency {
    /// Human-readable name used in diagnosis reports.
    pub fn name(self) -> String {
        match self {
            Dependency::ServiceProcess(s) => format!("{}-service", s.name()),
            Dependency::MySqlReachable => "mysql-reachability".to_string(),
            Dependency::RabbitMqReachable => "rabbitmq-reachability".to_string(),
            Dependency::NtpAgent => "ntp-agent".to_string(),
            Dependency::Libvirt => "libvirt".to_string(),
        }
    }
}

impl fmt::Display for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_services_have_unique_names() {
        let mut names: Vec<_> = Service::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Service::ALL.len());
    }

    #[test]
    fn name_round_trips() {
        for s in Service::ALL {
            assert_eq!(Service::from_name(s.name()), Some(s));
        }
        assert_eq!(Service::from_name("unknown"), None);
    }

    #[test]
    fn agents_resolve_to_controllers() {
        assert_eq!(Service::NovaCompute.controller(), Service::Nova);
        assert_eq!(Service::NeutronAgent.controller(), Service::Neutron);
        assert_eq!(Service::Glance.controller(), Service::Glance);
    }

    #[test]
    fn dependency_names_are_distinct() {
        let deps = [
            Dependency::ServiceProcess(Service::Nova),
            Dependency::ServiceProcess(Service::Neutron),
            Dependency::MySqlReachable,
            Dependency::RabbitMqReachable,
            Dependency::NtpAgent,
            Dependency::Libvirt,
        ];
        let mut names: Vec<_> = deps.iter().map(|d| d.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), deps.len());
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId(3).to_string(), "node3");
    }
}
