//! The OpenStack API catalog: the full alphabet of REST and RPC interfaces.
//!
//! The paper reports that OpenStack components expose **643 public REST
//! APIs** through their clients and CLIs (§6, §7.1), plus the internal RPC
//! methods each service uses over RabbitMQ, plus routine background chatter
//! (heartbeats, status updates, Keystone token traffic) that GRETEL's noise
//! filter removes. This module constructs that alphabet: a hand-written set
//! of real LIBERTY-era endpoints for every service, topped up with
//! systematically generated extension endpoints so the public REST count is
//! exactly [`PUBLIC_REST_APIS`] — preserving the symbol-table size and the
//! matching costs the paper measures.

use crate::api::{ApiDef, ApiId, ApiKind, HttpMethod, NoiseClass, RpcStyle};
use crate::service::Service;
use std::collections::HashMap;
use std::sync::Arc;

/// Number of public REST APIs in the catalog (paper: 643).
pub const PUBLIC_REST_APIS: usize = 643;

/// Immutable API catalog. Build once with [`Catalog::openstack`] and share
/// (cheaply clonable via `Arc`).
#[derive(Debug)]
pub struct Catalog {
    defs: Vec<ApiDef>,
    rest_index: HashMap<(Service, HttpMethod, String), ApiId>,
    rpc_index: HashMap<(Service, String), ApiId>,
    public_rest: usize,
    rpc_count: usize,
}

impl Catalog {
    /// Build the full OpenStack LIBERTY catalog.
    pub fn openstack() -> Arc<Catalog> {
        let mut b = Builder::default();
        b.add_keystone();
        b.add_nova_rest();
        b.add_neutron_rest();
        b.add_glance_rest();
        b.add_cinder_rest();
        b.add_swift_rest();
        b.fill_extensions();
        b.add_rpcs();
        b.add_noise();
        Arc::new(b.finish())
    }

    /// Number of APIs (REST + RPC + noise definitions).
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True when the catalog holds no definitions (never for `openstack()`).
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Number of public (non-noise) REST APIs; equals [`PUBLIC_REST_APIS`]
    /// for the OpenStack catalog.
    pub fn public_rest_count(&self) -> usize {
        self.public_rest
    }

    /// Number of RPC methods (excluding noise RPCs).
    pub fn rpc_count(&self) -> usize {
        self.rpc_count
    }

    /// Definition for an id.
    ///
    /// # Panics
    /// Panics if the id is not in this catalog.
    pub fn get(&self, id: ApiId) -> &ApiDef {
        &self.defs[id.index()]
    }

    /// Iterate over all definitions.
    pub fn iter(&self) -> impl Iterator<Item = &ApiDef> {
        self.defs.iter()
    }

    /// Look up a REST API by exposing service, method and URI template.
    pub fn rest(&self, service: Service, method: HttpMethod, uri: &str) -> Option<ApiId> {
        self.rest_index
            .get(&(service, method, uri.to_string()))
            .copied()
    }

    /// Like [`Catalog::rest`] but panics with a useful message; for use in
    /// workflow builders where the endpoint must exist.
    pub fn rest_expect(&self, service: Service, method: HttpMethod, uri: &str) -> ApiId {
        self.rest(service, method, uri)
            .unwrap_or_else(|| panic!("no REST API {method} {uri} on {service}"))
    }

    /// Look up an RPC by service and method name.
    pub fn rpc(&self, service: Service, method: &str) -> Option<ApiId> {
        self.rpc_index.get(&(service, method.to_string())).copied()
    }

    /// Like [`Catalog::rpc`] but panics when missing.
    pub fn rpc_expect(&self, service: Service, method: &str) -> ApiId {
        self.rpc(service, method)
            .unwrap_or_else(|| panic!("no RPC {method} on {service}"))
    }

    /// All non-noise REST API ids exposed by `service`.
    pub fn service_rest_apis(&self, service: Service) -> Vec<ApiId> {
        self.defs
            .iter()
            .filter(|d| {
                d.service == service && d.noise.is_none() && matches!(d.kind, ApiKind::Rest { .. })
            })
            .map(|d| d.id)
            .collect()
    }

    /// All non-noise RPC ids exposed by `service`.
    pub fn service_rpcs(&self, service: Service) -> Vec<ApiId> {
        self.defs
            .iter()
            .filter(|d| d.service == service && d.noise.is_none() && d.kind.is_rpc())
            .map(|d| d.id)
            .collect()
    }

    /// Ids of all noise APIs (heartbeats, status updates, Keystone common).
    pub fn noise_apis(&self) -> Vec<ApiId> {
        self.defs
            .iter()
            .filter(|d| d.noise.is_some())
            .map(|d| d.id)
            .collect()
    }

    /// Whether the id denotes background noise.
    pub fn is_noise(&self, id: ApiId) -> bool {
        self.get(id).noise.is_some()
    }

    /// Per-service API counts: `(service, rest, rpc)` for every service
    /// exposing at least one non-noise API. Used by reporting tools.
    pub fn stats(&self) -> Vec<(Service, usize, usize)> {
        Service::ALL
            .iter()
            .filter_map(|&svc| {
                let rest = self.service_rest_apis(svc).len();
                let rpc = self.service_rpcs(svc).len();
                (rest + rpc > 0).then_some((svc, rest, rpc))
            })
            .collect()
    }
}

#[derive(Default)]
struct Builder {
    defs: Vec<ApiDef>,
    public_rest: usize,
    rpc_count: usize,
}

impl Builder {
    fn push(&mut self, service: Service, kind: ApiKind, noise: Option<NoiseClass>) -> ApiId {
        let id = ApiId(u16::try_from(self.defs.len()).expect("catalog too large"));
        if noise.is_none() {
            match kind {
                ApiKind::Rest { .. } => self.public_rest += 1,
                ApiKind::Rpc { .. } => self.rpc_count += 1,
            }
        }
        self.defs.push(ApiDef {
            id,
            service,
            kind,
            noise,
        });
        id
    }

    fn rest(&mut self, service: Service, method: HttpMethod, uri: &str) -> ApiId {
        self.push(
            service,
            ApiKind::Rest {
                method,
                uri: uri.to_string(),
            },
            None,
        )
    }

    /// Add GET(list) + POST + GET(show) + PUT + DELETE for a resource.
    /// Neutron-style `.json` collection suffixes are stripped for item URIs
    /// (`/v2.0/ports.json` lists, `/v2.0/ports/{id}` shows).
    fn crud(&mut self, service: Service, base: &str) {
        use HttpMethod::*;
        let stem = base.strip_suffix(".json").unwrap_or(base);
        let item = format!("{stem}/{{id}}");
        self.rest(service, Get, base);
        self.rest(service, Post, base);
        self.rest(service, Get, &item);
        self.rest(service, Put, &item);
        self.rest(service, Delete, &item);
    }

    fn rpc(&mut self, service: Service, method: &str, style: RpcStyle) -> ApiId {
        self.push(
            service,
            ApiKind::Rpc {
                method: method.to_string(),
                style,
            },
            None,
        )
    }

    fn noise_rpc(&mut self, service: Service, method: &str, class: NoiseClass) {
        self.push(
            service,
            ApiKind::Rpc {
                method: method.to_string(),
                style: RpcStyle::Cast,
            },
            Some(class),
        );
    }

    fn noise_rest(&mut self, service: Service, method: HttpMethod, uri: &str, class: NoiseClass) {
        self.push(
            service,
            ApiKind::Rest {
                method,
                uri: uri.to_string(),
            },
            Some(class),
        );
    }

    fn add_keystone(&mut self) {
        use HttpMethod::*;
        let s = Service::Keystone;
        self.rest(s, Post, "/v3/auth/tokens");
        self.rest(s, Get, "/v3/auth/tokens");
        self.rest(s, Head, "/v3/auth/tokens");
        self.rest(s, Delete, "/v3/auth/tokens");
        self.rest(s, Get, "/v3");
        self.crud(s, "/v3/users");
        self.rest(s, Get, "/v3/users/{id}/groups");
        self.rest(s, Get, "/v3/users/{id}/projects");
        self.rest(s, Post, "/v3/users/{id}/password");
        self.crud(s, "/v3/projects");
        self.crud(s, "/v3/domains");
        self.crud(s, "/v3/roles");
        self.rest(s, Get, "/v3/role_assignments");
        self.rest(s, Put, "/v3/projects/{id}/users/{uid}/roles/{rid}");
        self.rest(s, Delete, "/v3/projects/{id}/users/{uid}/roles/{rid}");
        self.crud(s, "/v3/groups");
        self.rest(s, Put, "/v3/groups/{id}/users/{uid}");
        self.rest(s, Delete, "/v3/groups/{id}/users/{uid}");
        self.crud(s, "/v3/services");
        self.crud(s, "/v3/endpoints");
        self.crud(s, "/v3/credentials");
        self.crud(s, "/v3/regions");
        self.rest(s, Get, "/v3/catalog");
    }

    fn add_nova_rest(&mut self) {
        use HttpMethod::*;
        let s = Service::Nova;
        // Servers and server sub-resources.
        self.crud(s, "/v2.1/servers");
        self.rest(s, Get, "/v2.1/servers/detail");
        self.rest(s, Post, "/v2.1/servers/{id}/action");
        self.rest(s, Get, "/v2.1/servers/{id}/ips");
        self.rest(s, Get, "/v2.1/servers/{id}/diagnostics");
        self.rest(s, Get, "/v2.1/servers/{id}/metadata");
        self.rest(s, Put, "/v2.1/servers/{id}/metadata");
        self.rest(s, Post, "/v2.1/servers/{id}/metadata");
        self.rest(s, Delete, "/v2.1/servers/{id}/metadata/{key}");
        self.rest(s, Get, "/v2.1/servers/{id}/os-instance-actions");
        self.rest(s, Get, "/v2.1/servers/{id}/os-instance-actions/{rid}");
        self.rest(s, Get, "/v2.1/servers/{id}/os-interface");
        self.rest(s, Post, "/v2.1/servers/{id}/os-interface");
        self.rest(s, Delete, "/v2.1/servers/{id}/os-interface/{pid}");
        self.rest(s, Get, "/v2.1/servers/{id}/os-volume_attachments");
        self.rest(s, Post, "/v2.1/servers/{id}/os-volume_attachments");
        self.rest(s, Delete, "/v2.1/servers/{id}/os-volume_attachments/{vid}");
        self.rest(s, Get, "/v2.1/servers/{id}/os-security-groups");
        self.rest(s, Post, "/v2.1/servers/{id}/remote-consoles");
        // Flavors.
        self.crud(s, "/v2.1/flavors");
        self.rest(s, Get, "/v2.1/flavors/detail");
        self.rest(s, Get, "/v2.1/flavors/{id}/os-extra_specs");
        self.rest(s, Post, "/v2.1/flavors/{id}/os-extra_specs");
        // Keypairs, images proxy, limits, quotas.
        self.crud(s, "/v2.1/os-keypairs");
        self.rest(s, Get, "/v2.1/images");
        self.rest(s, Get, "/v2.1/images/{id}");
        self.rest(s, Delete, "/v2.1/images/{id}");
        self.rest(s, Get, "/v2.1/limits");
        self.rest(s, Get, "/v2.1/os-quota-sets/{id}");
        self.rest(s, Put, "/v2.1/os-quota-sets/{id}");
        self.rest(s, Get, "/v2.1/os-quota-sets/{id}/defaults");
        // Host/hypervisor/service administration.
        self.rest(s, Get, "/v2.1/os-hypervisors");
        self.rest(s, Get, "/v2.1/os-hypervisors/detail");
        self.rest(s, Get, "/v2.1/os-hypervisors/{id}");
        self.rest(s, Get, "/v2.1/os-services");
        self.rest(s, Put, "/v2.1/os-services/enable");
        self.rest(s, Put, "/v2.1/os-services/disable");
        self.rest(s, Get, "/v2.1/os-availability-zone");
        self.rest(s, Get, "/v2.1/os-availability-zone/detail");
        self.rest(s, Get, "/v2.1/os-hosts");
        self.rest(s, Get, "/v2.1/os-hosts/{id}");
        self.rest(s, Get, "/v2.1/os-migrations");
        self.rest(s, Get, "/v2.1/os-simple-tenant-usage");
        self.rest(s, Get, "/v2.1/os-simple-tenant-usage/{id}");
        self.rest(s, Get, "/v2.1/os-aggregates");
        self.rest(s, Post, "/v2.1/os-aggregates");
        self.rest(s, Delete, "/v2.1/os-aggregates/{id}");
        self.rest(s, Post, "/v2.1/os-aggregates/{id}/action");
        self.rest(s, Get, "/v2.1/os-server-groups");
        self.rest(s, Post, "/v2.1/os-server-groups");
        self.rest(s, Delete, "/v2.1/os-server-groups/{id}");
        self.rest(s, Get, "/v2.1/os-floating-ips");
        self.rest(s, Post, "/v2.1/os-floating-ips");
        self.rest(s, Delete, "/v2.1/os-floating-ips/{id}");
        self.rest(s, Get, "/v2.1/extensions");
        // Callback endpoint Neutron uses to signal VIF plumbing completion
        // (step 7 of the paper's §2.1 VM-create walkthrough).
        self.rest(s, Post, "/v2.1/os-server-external-events");
    }

    fn add_neutron_rest(&mut self) {
        use HttpMethod::*;
        let s = Service::Neutron;
        self.crud(s, "/v2.0/networks.json");
        self.crud(s, "/v2.0/subnets.json");
        self.crud(s, "/v2.0/ports.json");
        self.crud(s, "/v2.0/routers.json");
        self.rest(s, Put, "/v2.0/routers/{id}/add_router_interface");
        self.rest(s, Put, "/v2.0/routers/{id}/remove_router_interface");
        self.crud(s, "/v2.0/floatingips.json");
        self.crud(s, "/v2.0/security-groups.json");
        self.rest(s, Get, "/v2.0/security-group-rules.json");
        self.rest(s, Post, "/v2.0/security-group-rules.json");
        self.rest(s, Delete, "/v2.0/security-group-rules/{id}");
        self.crud(s, "/v2.0/subnetpools.json");
        self.rest(s, Get, "/v2.0/agents.json");
        self.rest(s, Get, "/v2.0/agents/{id}");
        self.rest(s, Put, "/v2.0/agents/{id}");
        self.rest(s, Get, "/v2.0/quotas.json");
        self.rest(s, Get, "/v2.0/quotas/{id}");
        self.rest(s, Put, "/v2.0/quotas/{id}");
        self.rest(s, Get, "/v2.0/extensions.json");
        self.rest(s, Get, "/v2.0/extensions/{alias}");
        self.rest(s, Get, "/v2.0/service-providers.json");
        self.rest(s, Get, "/v2.0/availability_zones.json");
    }

    fn add_glance_rest(&mut self) {
        use HttpMethod::*;
        let s = Service::Glance;
        self.rest(s, Get, "/v2/images");
        self.rest(s, Post, "/v2/images");
        self.rest(s, Get, "/v2/images/{id}");
        self.rest(s, Patch, "/v2/images/{id}");
        self.rest(s, Delete, "/v2/images/{id}");
        self.rest(s, Put, "/v2/images/{id}/file");
        self.rest(s, Get, "/v2/images/{id}/file");
        self.rest(s, Post, "/v2/images/{id}/actions/deactivate");
        self.rest(s, Post, "/v2/images/{id}/actions/reactivate");
        self.rest(s, Get, "/v2/images/{id}/members");
        self.rest(s, Post, "/v2/images/{id}/members");
        self.rest(s, Put, "/v2/images/{id}/members/{mid}");
        self.rest(s, Delete, "/v2/images/{id}/members/{mid}");
        self.rest(s, Put, "/v2/images/{id}/tags/{tag}");
        self.rest(s, Delete, "/v2/images/{id}/tags/{tag}");
        self.rest(s, Get, "/v2/schemas/image");
        self.rest(s, Get, "/v2/schemas/images");
    }

    fn add_cinder_rest(&mut self) {
        use HttpMethod::*;
        let s = Service::Cinder;
        self.crud(s, "/v2/{tenant}/volumes");
        self.rest(s, Get, "/v2/{tenant}/volumes/detail");
        self.rest(s, Post, "/v2/{tenant}/volumes/{id}/action");
        self.crud(s, "/v2/{tenant}/snapshots");
        self.rest(s, Get, "/v2/{tenant}/snapshots/detail");
        self.crud(s, "/v2/{tenant}/backups");
        self.rest(s, Post, "/v2/{tenant}/backups/{id}/restore");
        self.crud(s, "/v2/{tenant}/types");
        self.rest(s, Get, "/v2/{tenant}/types/{id}/extra_specs");
        self.rest(s, Post, "/v2/{tenant}/types/{id}/extra_specs");
        self.rest(s, Get, "/v2/{tenant}/limits");
        self.rest(s, Get, "/v2/{tenant}/os-quota-sets/{id}");
        self.rest(s, Put, "/v2/{tenant}/os-quota-sets/{id}");
        self.rest(s, Get, "/v2/{tenant}/qos-specs");
        self.rest(s, Post, "/v2/{tenant}/qos-specs");
        self.rest(s, Delete, "/v2/{tenant}/qos-specs/{id}");
        self.rest(s, Get, "/v2/{tenant}/os-services");
        self.rest(s, Get, "/v2/{tenant}/scheduler-stats/get_pools");
    }

    fn add_swift_rest(&mut self) {
        use HttpMethod::*;
        let s = Service::Swift;
        self.rest(s, Get, "/v1/{account}");
        self.rest(s, Head, "/v1/{account}");
        self.rest(s, Post, "/v1/{account}");
        self.rest(s, Get, "/v1/{account}/{container}");
        self.rest(s, Put, "/v1/{account}/{container}");
        self.rest(s, Head, "/v1/{account}/{container}");
        self.rest(s, Post, "/v1/{account}/{container}");
        self.rest(s, Delete, "/v1/{account}/{container}");
        self.rest(s, Get, "/v1/{account}/{container}/{object}");
        self.rest(s, Put, "/v1/{account}/{container}/{object}");
        self.rest(s, Head, "/v1/{account}/{container}/{object}");
        self.rest(s, Post, "/v1/{account}/{container}/{object}");
        self.rest(s, Delete, "/v1/{account}/{container}/{object}");
    }

    /// Top up with systematically generated extension endpoints until the
    /// public REST API count reaches [`PUBLIC_REST_APIS`]. Real OpenStack has
    /// a long tail of extension endpoints (`os-*` on Nova, vendor extensions
    /// on Neutron, microversioned admin endpoints, ...); the generated tail
    /// stands in for them so the symbol space and matching costs are
    /// faithful to the paper.
    fn fill_extensions(&mut self) {
        // Weight the tail towards Nova and Neutron like real OpenStack.
        let weights: [(Service, usize, &str); 6] = [
            (Service::Nova, 5, "/v2.1/os-ext"),
            (Service::Neutron, 4, "/v2.0/ext"),
            (Service::Cinder, 3, "/v2/{tenant}/os-ext"),
            (Service::Glance, 2, "/v2/ext"),
            (Service::Keystone, 2, "/v3/OS-EXT"),
            (Service::Swift, 1, "/v1/ext"),
        ];
        let mut i = 0usize;
        'outer: loop {
            for &(service, weight, base) in &weights {
                for w in 0..weight {
                    if self.public_rest >= PUBLIC_REST_APIS {
                        break 'outer;
                    }
                    let resource = format!("{base}-{}{}", i, (b'a' + w as u8) as char);
                    // Alternate CRUD quads and read-only pairs to mix
                    // state-change and idempotent symbols in the tail.
                    if (i + w).is_multiple_of(2) {
                        if PUBLIC_REST_APIS - self.public_rest >= 5 {
                            self.crud(service, &resource);
                        } else {
                            // Pad one at a time with distinct URIs.
                            while self.public_rest < PUBLIC_REST_APIS {
                                let extra = format!("{resource}/pad{}", self.public_rest);
                                self.rest(service, HttpMethod::Get, &extra);
                            }
                        }
                    } else {
                        self.rest(service, HttpMethod::Get, &resource);
                        if self.public_rest < PUBLIC_REST_APIS {
                            self.rest(service, HttpMethod::Get, &format!("{resource}/detail"));
                        }
                    }
                }
            }
            i += 1;
        }
    }

    fn add_rpcs(&mut self) {
        use RpcStyle::*;
        let nc = Service::NovaCompute;
        for m in [
            "build_and_run_instance",
            "terminate_instance",
            "reboot_instance",
            "stop_instance",
            "start_instance",
            "pause_instance",
            "unpause_instance",
            "suspend_instance",
            "resume_instance",
            "rebuild_instance",
            "snapshot_instance",
            "shelve_instance",
            "unshelve_instance",
            "prep_resize",
            "resize_instance",
            "finish_resize",
            "confirm_resize",
            "revert_resize",
            "live_migration",
            "pre_live_migration",
            "post_live_migration_at_destination",
            "rescue_instance",
            "unrescue_instance",
            "attach_interface",
            "detach_interface",
        ] {
            self.rpc(nc, m, Cast);
        }
        for m in [
            "attach_volume",
            "detach_volume",
            "get_console_output",
            "get_vnc_console",
            "get_diagnostics",
            "check_can_live_migrate_destination",
            "check_can_live_migrate_source",
            "reserve_block_device_name",
            "get_instance_diagnostics",
            "refresh_instance_security_rules",
        ] {
            self.rpc(nc, m, Call);
        }
        let nova = Service::Nova;
        for m in [
            "select_destinations",
            "update_aggregates",
            "build_instances",
            "schedule_and_build_instances",
            "migrate_server",
            "instance_update",
            "object_class_action_versions",
        ] {
            self.rpc(nova, m, Call);
        }
        // RPCs handled by the Neutron server (called by its L2 agents).
        let neutron = Service::Neutron;
        for m in [
            "get_devices_details_list",
            "security_group_info_for_devices",
            "get_device_details",
            "get_devices_details_and_failed_devices",
            "tunnel_sync",
            "get_dhcp_port",
            "get_active_networks_info",
            "get_network_info",
            "update_device_up",
            "update_device_down",
        ] {
            self.rpc(neutron, m, Call);
        }
        // Notifications handled by the L2 agents (cast by the server).
        let na = Service::NeutronAgent;
        for m in [
            "port_update",
            "port_delete",
            "network_update",
            "security_groups_member_updated",
            "security_groups_provider_updated",
            "release_dhcp_port",
            "port_binding_activate",
            "port_binding_deactivate",
            "setup_bridge",
        ] {
            self.rpc(na, m, Cast);
        }
        let cinder = Service::Cinder;
        for m in [
            "create_volume",
            "delete_volume",
            "extend_volume",
            "create_snapshot",
            "delete_snapshot",
            "copy_volume_to_image",
            "retype",
            "migrate_volume",
        ] {
            self.rpc(cinder, m, Cast);
        }
        for m in [
            "initialize_connection",
            "terminate_connection",
            "attach_volume_rpc",
            "detach_volume_rpc",
        ] {
            self.rpc(cinder, m, Call);
        }
        let glance = Service::Glance;
        for m in ["image_location_update", "image_member_sync"] {
            self.rpc(glance, m, Cast);
        }
    }

    fn add_noise(&mut self) {
        use NoiseClass::*;
        self.noise_rpc(Service::NovaCompute, "report_state", Heartbeat);
        self.noise_rpc(Service::NeutronAgent, "report_state", Heartbeat);
        self.noise_rpc(Service::Cinder, "report_state", Heartbeat);
        self.noise_rpc(Service::Nova, "update_service_capabilities", StatusUpdate);
        self.noise_rpc(
            Service::NovaCompute,
            "update_available_resource",
            StatusUpdate,
        );
        self.noise_rpc(Service::Neutron, "state_report", StatusUpdate);
        self.noise_rest(
            Service::Keystone,
            HttpMethod::Post,
            "/v3/auth/tokens#routine",
            KeystoneCommon,
        );
        self.noise_rest(
            Service::Keystone,
            HttpMethod::Get,
            "/v3/auth/tokens#validate",
            KeystoneCommon,
        );
    }

    fn finish(self) -> Catalog {
        let mut rest_index = HashMap::new();
        let mut rpc_index = HashMap::new();
        for def in &self.defs {
            if def.noise.is_some() {
                continue;
            }
            match &def.kind {
                ApiKind::Rest { method, uri } => {
                    let prev = rest_index.insert((def.service, *method, uri.clone()), def.id);
                    assert!(prev.is_none(), "duplicate REST API {}", def.label());
                }
                ApiKind::Rpc { method, .. } => {
                    let prev = rpc_index.insert((def.service, method.clone()), def.id);
                    assert!(prev.is_none(), "duplicate RPC {}", def.label());
                }
            }
        }
        Catalog {
            defs: self.defs,
            rest_index,
            rpc_index,
            public_rest: self.public_rest,
            rpc_count: self.rpc_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol;

    #[test]
    fn catalog_has_exactly_643_public_rest_apis() {
        let cat = Catalog::openstack();
        assert_eq!(cat.public_rest_count(), PUBLIC_REST_APIS);
    }

    #[test]
    fn catalog_has_a_healthy_rpc_population() {
        let cat = Catalog::openstack();
        assert!(cat.rpc_count() >= 70, "got {}", cat.rpc_count());
    }

    #[test]
    fn ids_are_dense_and_self_referential() {
        let cat = Catalog::openstack();
        for (i, def) in cat.iter().enumerate() {
            assert_eq!(def.id.index(), i);
        }
    }

    #[test]
    fn every_api_gets_a_unique_symbol() {
        let cat = Catalog::openstack();
        let mut syms: Vec<char> = cat.iter().map(|d| symbol::encode(d.id)).collect();
        syms.sort_unstable();
        syms.dedup();
        assert_eq!(syms.len(), cat.len());
    }

    #[test]
    fn well_known_endpoints_resolve() {
        let cat = Catalog::openstack();
        assert!(cat
            .rest(Service::Nova, HttpMethod::Post, "/v2.1/servers")
            .is_some());
        assert!(cat
            .rest(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json")
            .is_some());
        assert!(cat
            .rest(Service::Glance, HttpMethod::Put, "/v2/images/{id}/file")
            .is_some());
        assert!(cat
            .rpc(Service::NovaCompute, "build_and_run_instance")
            .is_some());
        assert!(cat
            .rpc(Service::Neutron, "get_devices_details_list")
            .is_some());
        assert!(cat
            .rpc(Service::Neutron, "security_group_info_for_devices")
            .is_some());
    }

    #[test]
    fn noise_apis_are_flagged() {
        let cat = Catalog::openstack();
        let noise = cat.noise_apis();
        assert!(noise.len() >= 6);
        for id in noise {
            assert!(cat.is_noise(id));
        }
        // Public endpoints are not noise.
        let servers = cat.rest_expect(Service::Nova, HttpMethod::Post, "/v2.1/servers");
        assert!(!cat.is_noise(servers));
    }

    #[test]
    fn rest_and_rpc_lookup_round_trips() {
        let cat = Catalog::openstack();
        for def in cat.iter().filter(|d| d.noise.is_none()) {
            match &def.kind {
                ApiKind::Rest { method, uri } => {
                    assert_eq!(cat.rest(def.service, *method, uri), Some(def.id));
                }
                ApiKind::Rpc { method, .. } => {
                    assert_eq!(cat.rpc(def.service, method), Some(def.id));
                }
            }
        }
    }

    #[test]
    fn well_known_ids_are_stable() {
        // Persisted fingerprint libraries reference APIs by id, so the
        // catalog build order is a compatibility contract: the builder
        // appends services in a fixed order and never reorders existing
        // entries. Pin a few anchors; if this test fails, bump the frame
        // codec VERSION and invalidate persisted libraries.
        let cat = Catalog::openstack();
        let post_tokens = cat.rest_expect(Service::Keystone, HttpMethod::Post, "/v3/auth/tokens");
        assert_eq!(post_tokens, ApiId(0), "keystone is built first");
        let first_nova = cat.rest_expect(Service::Nova, HttpMethod::Get, "/v2.1/servers");
        assert_eq!(
            first_nova.0, 59,
            "nova REST starts right after the 59 keystone APIs"
        );
        // RPCs come after all 643 public REST APIs.
        let first_rpc = cat.rpc_expect(Service::NovaCompute, "build_and_run_instance");
        assert_eq!(first_rpc.0 as usize, PUBLIC_REST_APIS);
        // Noise APIs are last.
        let noise_min = cat.noise_apis().iter().map(|a| a.0).min().unwrap();
        assert_eq!(noise_min as usize, PUBLIC_REST_APIS + cat.rpc_count());
    }

    #[test]
    fn stats_cover_the_whole_catalog() {
        let cat = Catalog::openstack();
        let stats = cat.stats();
        let rest_total: usize = stats.iter().map(|&(_, r, _)| r).sum();
        let rpc_total: usize = stats.iter().map(|&(_, _, p)| p).sum();
        assert_eq!(rest_total, cat.public_rest_count());
        assert_eq!(rpc_total, cat.rpc_count());
        // Infrastructure services expose no APIs.
        assert!(!stats.iter().any(|&(s, ..)| s.is_infrastructure()));
    }

    #[test]
    fn service_pools_are_disjoint_and_nonempty() {
        let cat = Catalog::openstack();
        let nova = cat.service_rest_apis(Service::Nova);
        let neutron = cat.service_rest_apis(Service::Neutron);
        assert!(!nova.is_empty() && !neutron.is_empty());
        for id in &nova {
            assert!(!neutron.contains(id));
        }
        assert!(!cat.service_rpcs(Service::NovaCompute).is_empty());
    }
}
