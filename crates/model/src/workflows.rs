//! Hand-written, realistic OpenStack workflow motifs.
//!
//! These encode real cross-component interaction sequences — most notably
//! the §2.1 VM-create walkthrough whose fingerprint the paper uses as its
//! running example (7 REST + 3 RPC invocations, Fig 4). The Tempest-like
//! suite generator composes these motifs into its 1200 operation specs, and
//! the canned fault scenarios in `gretel-sim` run them directly.

use crate::api::HttpMethod::*;
use crate::catalog::Catalog;
use crate::operation::{Category, LatencyClass, OpSpecId, OperationSpec, Step};
use crate::service::Service;
use std::sync::Arc;

/// Factory for workflow motifs over a given catalog.
#[derive(Clone)]
pub struct Workflows {
    cat: Arc<Catalog>,
}

impl Workflows {
    /// Create a factory bound to `catalog`.
    pub fn new(catalog: Arc<Catalog>) -> Workflows {
        Workflows { cat: catalog }
    }

    /// Access to the underlying catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.cat
    }

    fn rest(
        &self,
        src: Service,
        dst: Service,
        method: crate::api::HttpMethod,
        uri: &str,
        lat: LatencyClass,
    ) -> Step {
        Step::new(self.cat.rest_expect(dst, method, uri), src, dst, lat)
    }

    fn rpc(&self, src: Service, dst: Service, method: &str, lat: LatencyClass) -> Step {
        Step::new(self.cat.rpc_expect(dst, method), src, dst, lat)
    }

    /// The §2.1 VM-create flow: Horizon POSTs to Nova, control moves to
    /// `nova-compute` via RPC, the image is fetched from Glance, network
    /// state is read from Neutron, a port is created and attached, and
    /// Neutron calls back into Nova when the VIF is plumbed.
    ///
    /// Fingerprint shape matches the paper's example: 7 REST + 3 RPC.
    pub fn vm_create(&self) -> Vec<Step> {
        use Service::*;
        vec![
            // (1) Dashboard initiates the boot.
            self.rest(Horizon, Nova, Post, "/v2.1/servers", LatencyClass::Medium)
                .with_bytes(1024),
            // (2) Controller hands off to the compute agent.
            self.rpc(
                Nova,
                NovaCompute,
                "build_and_run_instance",
                LatencyClass::Boot,
            ),
            // (3) Image fetch.
            self.rest(
                NovaCompute,
                Glance,
                Get,
                "/v2/images/{id}",
                LatencyClass::Slow,
            ),
            // (4) Network/port/security-group discovery.
            self.rest(
                Nova,
                Neutron,
                Get,
                "/v2.0/networks.json",
                LatencyClass::Fast,
            ),
            self.rest(
                Nova,
                Neutron,
                Get,
                "/v2.0/security-groups.json",
                LatencyClass::Fast,
            ),
            // L2 agent asks the Neutron server for device details — the two
            // RPCs the paper's §3.1.2 bottleneck scenario slows down.
            self.rpc(
                NeutronAgent,
                Neutron,
                "get_devices_details_list",
                LatencyClass::Medium,
            ),
            self.rpc(
                NeutronAgent,
                Neutron,
                "security_group_info_for_devices",
                LatencyClass::Medium,
            ),
            // (5) Create and attach the port.
            self.rest(
                Nova,
                Neutron,
                Post,
                "/v2.0/ports.json",
                LatencyClass::Medium,
            )
            .with_bytes(512),
            self.rest(Nova, Neutron, Put, "/v2.0/ports/{id}", LatencyClass::Medium),
            // (7) Neutron signals VIF plug completion back to Nova.
            self.rest(
                Neutron,
                Nova,
                Post,
                "/v2.1/os-server-external-events",
                LatencyClass::Fast,
            ),
        ]
    }

    /// Delete a VM: dashboard DELETE, compute-agent teardown RPC, port
    /// cleanup on Neutron.
    pub fn vm_delete(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Nova,
                Delete,
                "/v2.1/servers/{id}",
                LatencyClass::Medium,
            ),
            self.rpc(Nova, NovaCompute, "terminate_instance", LatencyClass::Slow),
            self.rest(Nova, Neutron, Get, "/v2.0/ports.json", LatencyClass::Fast),
            self.rest(
                Nova,
                Neutron,
                Delete,
                "/v2.0/ports/{id}",
                LatencyClass::Medium,
            ),
            self.rpc(Neutron, NeutronAgent, "port_delete", LatencyClass::Fast),
        ]
    }

    /// Reboot a VM.
    pub(crate) fn vm_reboot(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Nova,
                Post,
                "/v2.1/servers/{id}/action",
                LatencyClass::Medium,
            ),
            self.rpc(Nova, NovaCompute, "reboot_instance", LatencyClass::Slow),
            self.rest(Horizon, Nova, Get, "/v2.1/servers/{id}", LatencyClass::Fast),
        ]
    }

    /// Snapshot a VM to a new image. Subsumes volume-snapshot machinery —
    /// the paper's §4 CFG example (`S1` subsumes `S2`).
    pub fn vm_snapshot(&self) -> Vec<Step> {
        use Service::*;
        let mut steps = vec![
            self.rest(
                Horizon,
                Nova,
                Post,
                "/v2.1/servers/{id}/action",
                LatencyClass::Medium,
            ),
            self.rpc(Nova, NovaCompute, "snapshot_instance", LatencyClass::Boot),
            self.rest(
                NovaCompute,
                Glance,
                Post,
                "/v2/images",
                LatencyClass::Medium,
            ),
        ];
        steps.extend(self.volume_snapshot());
        steps.push(self.rest(
            NovaCompute,
            Glance,
            Put,
            "/v2/images/{id}/file",
            LatencyClass::Slow,
        ));
        steps.push(self.rest(Horizon, Glance, Get, "/v2/images/{id}", LatencyClass::Fast));
        steps
    }

    /// Cold-migrate a VM between compute hosts.
    pub(crate) fn vm_migrate(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Nova,
                Post,
                "/v2.1/servers/{id}/action",
                LatencyClass::Medium,
            ),
            self.rpc(Nova, Nova, "select_destinations", LatencyClass::Medium),
            self.rpc(Nova, NovaCompute, "prep_resize", LatencyClass::Slow),
            self.rpc(Nova, NovaCompute, "resize_instance", LatencyClass::Boot),
            self.rpc(Nova, NovaCompute, "finish_resize", LatencyClass::Slow),
            self.rest(
                Neutron,
                Nova,
                Post,
                "/v2.1/os-server-external-events",
                LatencyClass::Fast,
            ),
            self.rest(Horizon, Nova, Get, "/v2.1/servers/{id}", LatencyClass::Fast),
        ]
    }

    /// Create a blank volume (the paper's `S2`).
    pub fn volume_create(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Cinder,
                Post,
                "/v2/{tenant}/volumes",
                LatencyClass::Medium,
            ),
            self.rpc(Cinder, Cinder, "create_volume", LatencyClass::Slow),
            self.rest(
                Horizon,
                Cinder,
                Get,
                "/v2/{tenant}/volumes/{id}",
                LatencyClass::Fast,
            ),
        ]
    }

    /// Snapshot an existing volume.
    pub(crate) fn volume_snapshot(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Cinder,
                Post,
                "/v2/{tenant}/snapshots",
                LatencyClass::Medium,
            ),
            self.rpc(Cinder, Cinder, "create_snapshot", LatencyClass::Slow),
            self.rest(
                Horizon,
                Cinder,
                Get,
                "/v2/{tenant}/snapshots/{id}",
                LatencyClass::Fast,
            ),
        ]
    }

    /// Attach a volume to a server.
    pub fn volume_attach(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Nova,
                Post,
                "/v2.1/servers/{id}/os-volume_attachments",
                LatencyClass::Medium,
            ),
            self.rpc(
                Nova,
                NovaCompute,
                "reserve_block_device_name",
                LatencyClass::Fast,
            ),
            self.rpc(
                Cinder,
                Cinder,
                "initialize_connection",
                LatencyClass::Medium,
            ),
            self.rpc(Nova, NovaCompute, "attach_volume", LatencyClass::Slow),
            self.rest(
                Nova,
                Cinder,
                Post,
                "/v2/{tenant}/volumes/{id}/action",
                LatencyClass::Fast,
            ),
        ]
    }

    /// Upload a new VM image via Glance (the §7.2.1 failed-upload scenario
    /// injects a 413 on the `PUT …/file` step).
    pub(crate) fn image_upload(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(Horizon, Glance, Post, "/v2/images", LatencyClass::Medium),
            self.rest(
                Horizon,
                Glance,
                Put,
                "/v2/images/{id}/file",
                LatencyClass::Slow,
            )
            .with_bytes(1 << 20),
            self.rest(Horizon, Glance, Get, "/v2/images/{id}", LatencyClass::Fast),
        ]
    }

    /// List images (read-only Misc-style task).
    pub fn image_list(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(Horizon, Glance, Get, "/v2/images", LatencyClass::Fast),
            self.rest(
                Horizon,
                Glance,
                Get,
                "/v2/schemas/images",
                LatencyClass::Fast,
            ),
        ]
    }

    /// Create a network plus subnet.
    pub(crate) fn network_create(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Neutron,
                Post,
                "/v2.0/networks.json",
                LatencyClass::Medium,
            ),
            self.rpc(Neutron, NeutronAgent, "network_update", LatencyClass::Fast),
            self.rest(
                Horizon,
                Neutron,
                Post,
                "/v2.0/subnets.json",
                LatencyClass::Medium,
            ),
            self.rest(
                Horizon,
                Neutron,
                Get,
                "/v2.0/networks/{id}",
                LatencyClass::Fast,
            ),
        ]
    }

    /// Create a router and wire a subnet into it.
    pub fn router_create(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Neutron,
                Post,
                "/v2.0/routers.json",
                LatencyClass::Medium,
            ),
            self.rest(
                Horizon,
                Neutron,
                Put,
                "/v2.0/routers/{id}/add_router_interface",
                LatencyClass::Medium,
            ),
            self.rpc(Neutron, NeutronAgent, "port_update", LatencyClass::Fast),
            self.rest(
                Horizon,
                Neutron,
                Get,
                "/v2.0/routers/{id}",
                LatencyClass::Fast,
            ),
        ]
    }

    /// Associate a floating IP with a port.
    pub(crate) fn floating_ip_associate(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Neutron,
                Post,
                "/v2.0/floatingips.json",
                LatencyClass::Medium,
            ),
            self.rest(
                Horizon,
                Neutron,
                Put,
                "/v2.0/floatingips/{id}",
                LatencyClass::Medium,
            ),
            self.rpc(Neutron, NeutronAgent, "port_update", LatencyClass::Fast),
        ]
    }

    /// Create a security group and one rule.
    pub(crate) fn security_group_create(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Neutron,
                Post,
                "/v2.0/security-groups.json",
                LatencyClass::Fast,
            ),
            self.rest(
                Horizon,
                Neutron,
                Post,
                "/v2.0/security-group-rules.json",
                LatencyClass::Fast,
            ),
            self.rpc(
                Neutron,
                NeutronAgent,
                "security_groups_member_updated",
                LatencyClass::Fast,
            ),
        ]
    }

    /// Create a keypair (Misc-style management task).
    pub(crate) fn keypair_create(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(Horizon, Nova, Post, "/v2.1/os-keypairs", LatencyClass::Fast),
            self.rest(
                Horizon,
                Nova,
                Get,
                "/v2.1/os-keypairs/{id}",
                LatencyClass::Fast,
            ),
        ]
    }

    /// `cinder list` from the CLI — the §7.2.4 NTP-failure scenario. Every
    /// CLI call first authenticates against Keystone; that REST is where
    /// the 401 surfaces when NTP skew invalidates tokens.
    pub fn cinder_list(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Cinder,
                Keystone,
                Post,
                "/v3/auth/tokens",
                LatencyClass::Fast,
            ),
            self.rest(
                Horizon,
                Cinder,
                Get,
                "/v2/{tenant}/volumes/detail",
                LatencyClass::Fast,
            ),
        ]
    }

    /// Store an object in Swift.
    pub(crate) fn swift_put_object(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Swift,
                Put,
                "/v1/{account}/{container}",
                LatencyClass::Fast,
            ),
            self.rest(
                Horizon,
                Swift,
                Put,
                "/v1/{account}/{container}/{object}",
                LatencyClass::Medium,
            )
            .with_bytes(64 << 10),
            self.rest(
                Horizon,
                Swift,
                Head,
                "/v1/{account}/{container}/{object}",
                LatencyClass::Fast,
            ),
        ]
    }

    /// Read-only "query availability zones / services / limits" motif used
    /// by Misc tests.
    pub(crate) fn admin_queries(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Nova,
                Get,
                "/v2.1/os-availability-zone",
                LatencyClass::Fast,
            ),
            self.rest(Horizon, Nova, Get, "/v2.1/os-services", LatencyClass::Fast),
            self.rest(Horizon, Nova, Get, "/v2.1/limits", LatencyClass::Fast),
            self.rest(Horizon, Keystone, Get, "/v3/catalog", LatencyClass::Fast),
        ]
    }

    /// Resize a VM to a new flavor, then confirm — the full
    /// prep/resize/finish/confirm RPC chain.
    pub(crate) fn vm_resize(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Nova,
                Get,
                "/v2.1/flavors/detail",
                LatencyClass::Fast,
            ),
            self.rest(
                Horizon,
                Nova,
                Post,
                "/v2.1/servers/{id}/action",
                LatencyClass::Medium,
            ),
            self.rpc(Nova, Nova, "select_destinations", LatencyClass::Medium),
            self.rpc(Nova, NovaCompute, "prep_resize", LatencyClass::Slow),
            self.rpc(Nova, NovaCompute, "resize_instance", LatencyClass::Boot),
            self.rpc(Nova, NovaCompute, "finish_resize", LatencyClass::Slow),
            self.rest(Horizon, Nova, Get, "/v2.1/servers/{id}", LatencyClass::Fast),
            self.rest(
                Horizon,
                Nova,
                Post,
                "/v2.1/servers/{id}/action",
                LatencyClass::Medium,
            ),
            self.rpc(Nova, NovaCompute, "confirm_resize", LatencyClass::Medium),
        ]
    }

    /// Rescue and unrescue a VM (boot from a rescue image to repair it).
    pub(crate) fn vm_rescue(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Nova,
                Post,
                "/v2.1/servers/{id}/action",
                LatencyClass::Medium,
            ),
            self.rpc(Nova, NovaCompute, "rescue_instance", LatencyClass::Boot),
            self.rest(
                NovaCompute,
                Glance,
                Get,
                "/v2/images/{id}",
                LatencyClass::Slow,
            ),
            self.rest(Horizon, Nova, Get, "/v2.1/servers/{id}", LatencyClass::Fast),
            self.rest(
                Horizon,
                Nova,
                Post,
                "/v2.1/servers/{id}/action",
                LatencyClass::Medium,
            ),
            self.rpc(Nova, NovaCompute, "unrescue_instance", LatencyClass::Slow),
        ]
    }

    /// Shelve a VM (snapshot + free the hypervisor) and unshelve it later.
    pub(crate) fn vm_shelve_unshelve(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Nova,
                Post,
                "/v2.1/servers/{id}/action",
                LatencyClass::Medium,
            ),
            self.rpc(Nova, NovaCompute, "shelve_instance", LatencyClass::Boot),
            self.rest(
                NovaCompute,
                Glance,
                Post,
                "/v2/images",
                LatencyClass::Medium,
            ),
            self.rest(
                NovaCompute,
                Glance,
                Put,
                "/v2/images/{id}/file",
                LatencyClass::Slow,
            ),
            self.rest(
                Horizon,
                Nova,
                Post,
                "/v2.1/servers/{id}/action",
                LatencyClass::Medium,
            ),
            self.rpc(Nova, Nova, "select_destinations", LatencyClass::Medium),
            self.rpc(Nova, NovaCompute, "unshelve_instance", LatencyClass::Boot),
            self.rest(
                NovaCompute,
                Glance,
                Get,
                "/v2/images/{id}/file",
                LatencyClass::Slow,
            ),
        ]
    }

    /// Extend a volume while detached.
    pub(crate) fn volume_extend(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Cinder,
                Post,
                "/v2/{tenant}/volumes/{id}/action",
                LatencyClass::Medium,
            ),
            self.rpc(Cinder, Cinder, "extend_volume", LatencyClass::Slow),
            self.rest(
                Horizon,
                Cinder,
                Get,
                "/v2/{tenant}/volumes/{id}",
                LatencyClass::Fast,
            ),
        ]
    }

    /// Back a volume up to object storage and restore it.
    pub(crate) fn volume_backup_restore(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Cinder,
                Post,
                "/v2/{tenant}/backups",
                LatencyClass::Medium,
            ),
            self.rest(
                Cinder,
                Swift,
                Put,
                "/v1/{account}/{container}",
                LatencyClass::Fast,
            ),
            self.rest(
                Cinder,
                Swift,
                Put,
                "/v1/{account}/{container}/{object}",
                LatencyClass::Slow,
            )
            .with_bytes(1 << 20),
            self.rest(
                Horizon,
                Cinder,
                Get,
                "/v2/{tenant}/backups/{id}",
                LatencyClass::Fast,
            ),
            self.rest(
                Horizon,
                Cinder,
                Post,
                "/v2/{tenant}/backups/{id}/restore",
                LatencyClass::Medium,
            ),
            self.rest(
                Cinder,
                Swift,
                Get,
                "/v1/{account}/{container}/{object}",
                LatencyClass::Slow,
            ),
            self.rpc(Cinder, Cinder, "create_volume", LatencyClass::Slow),
        ]
    }

    /// Share an image with another project (member workflow).
    pub(crate) fn image_share(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Glance,
                Post,
                "/v2/images/{id}/members",
                LatencyClass::Fast,
            ),
            self.rest(
                Horizon,
                Glance,
                Get,
                "/v2/images/{id}/members",
                LatencyClass::Fast,
            ),
            self.rest(
                Horizon,
                Glance,
                Put,
                "/v2/images/{id}/members/{mid}",
                LatencyClass::Fast,
            ),
        ]
    }

    /// Onboard a new project: create the project, a user, and grant a
    /// role (Keystone administration).
    pub(crate) fn project_onboarding(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(Horizon, Keystone, Post, "/v3/projects", LatencyClass::Fast),
            self.rest(Horizon, Keystone, Post, "/v3/users", LatencyClass::Fast),
            self.rest(
                Horizon,
                Keystone,
                Put,
                "/v3/projects/{id}/users/{uid}/roles/{rid}",
                LatencyClass::Fast,
            ),
            self.rest(
                Horizon,
                Keystone,
                Get,
                "/v3/role_assignments",
                LatencyClass::Fast,
            ),
        ]
    }

    /// Full Swift container lifecycle: create, upload, list, download,
    /// delete.
    pub(crate) fn swift_container_lifecycle(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Swift,
                Put,
                "/v1/{account}/{container}",
                LatencyClass::Fast,
            ),
            self.rest(
                Horizon,
                Swift,
                Put,
                "/v1/{account}/{container}/{object}",
                LatencyClass::Medium,
            )
            .with_bytes(256 << 10),
            self.rest(
                Horizon,
                Swift,
                Get,
                "/v1/{account}/{container}",
                LatencyClass::Fast,
            ),
            self.rest(
                Horizon,
                Swift,
                Get,
                "/v1/{account}/{container}/{object}",
                LatencyClass::Medium,
            ),
            self.rest(
                Horizon,
                Swift,
                Delete,
                "/v1/{account}/{container}/{object}",
                LatencyClass::Fast,
            ),
            self.rest(
                Horizon,
                Swift,
                Delete,
                "/v1/{account}/{container}",
                LatencyClass::Fast,
            ),
        ]
    }

    /// Tear a router down: detach the interface, delete the router.
    pub(crate) fn router_teardown(&self) -> Vec<Step> {
        use Service::*;
        vec![
            self.rest(
                Horizon,
                Neutron,
                Put,
                "/v2.0/routers/{id}/remove_router_interface",
                LatencyClass::Medium,
            ),
            self.rpc(Neutron, NeutronAgent, "port_delete", LatencyClass::Fast),
            self.rest(
                Horizon,
                Neutron,
                Delete,
                "/v2.0/routers/{id}",
                LatencyClass::Medium,
            ),
        ]
    }

    /// Named canonical spec: the VM-create operation used throughout the
    /// paper's examples.
    pub fn vm_create_spec(&self, id: OpSpecId) -> OperationSpec {
        OperationSpec {
            id,
            name: "compute.vm_create.canonical".into(),
            category: Category::Compute,
            steps: self.vm_create(),
        }
    }

    /// Named canonical spec: image upload (§7.2.1).
    pub fn image_upload_spec(&self, id: OpSpecId) -> OperationSpec {
        OperationSpec {
            id,
            name: "image.upload.canonical".into(),
            category: Category::Image,
            steps: self.image_upload(),
        }
    }

    /// Named canonical spec: `cinder list` (§7.2.4).
    pub fn cinder_list_spec(&self, id: OpSpecId) -> OperationSpec {
        OperationSpec {
            id,
            name: "storage.cinder_list.canonical".into(),
            category: Category::Storage,
            steps: self.cinder_list(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    fn wf() -> Workflows {
        Workflows::new(Catalog::openstack())
    }

    #[test]
    fn vm_create_matches_paper_shape() {
        let w = wf();
        let steps = w.vm_create();
        let rest = steps
            .iter()
            .filter(|s| !w.catalog().get(s.api).is_rpc())
            .count();
        let rpc = steps
            .iter()
            .filter(|s| w.catalog().get(s.api).is_rpc())
            .count();
        assert_eq!(
            rest, 7,
            "paper: VM create fingerprint has 7 REST invocations"
        );
        assert_eq!(rpc, 3, "paper: VM create fingerprint has 3 RPC invocations");
    }

    #[test]
    fn vm_snapshot_subsumes_volume_snapshot() {
        // Paper §4: S2 (volume snapshot machinery) is subsumed by S1 (VM
        // snapshot): S1 -> D S2 E in the CFG example.
        let w = wf();
        let snap: Vec<_> = w.vm_snapshot().iter().map(|s| s.api).collect();
        let vol: Vec<_> = w.volume_snapshot().iter().map(|s| s.api).collect();
        let pos = snap
            .windows(vol.len())
            .position(|win| win == vol.as_slice())
            .expect("volume_snapshot embedded in vm_snapshot");
        assert!(pos > 0, "subsumed operation is preceded by extra terminals");
        assert!(
            pos + vol.len() < snap.len(),
            "and followed by extra terminals"
        );
    }

    #[test]
    fn all_motifs_resolve_against_catalog() {
        let w = wf();
        let motifs: Vec<Vec<Step>> = vec![
            w.vm_create(),
            w.vm_delete(),
            w.vm_reboot(),
            w.vm_snapshot(),
            w.vm_migrate(),
            w.volume_create(),
            w.volume_snapshot(),
            w.volume_attach(),
            w.image_upload(),
            w.image_list(),
            w.network_create(),
            w.router_create(),
            w.floating_ip_associate(),
            w.security_group_create(),
            w.keypair_create(),
            w.cinder_list(),
            w.swift_put_object(),
            w.admin_queries(),
            w.vm_resize(),
            w.vm_rescue(),
            w.vm_shelve_unshelve(),
            w.volume_extend(),
            w.volume_backup_restore(),
            w.image_share(),
            w.project_onboarding(),
            w.swift_container_lifecycle(),
            w.router_teardown(),
        ];
        for m in motifs {
            assert!(!m.is_empty());
            for step in m {
                // get() panics on an unknown id, so this validates ids.
                let def = w.catalog().get(step.api);
                assert!(def.noise.is_none(), "motifs must not contain noise APIs");
            }
        }
    }

    #[test]
    fn vm_create_contains_neutron_bottleneck_rpcs() {
        // §3.1.2 detects latency anomalies on exactly these two RPCs.
        let w = wf();
        let ids: Vec<_> = w.vm_create().iter().map(|s| s.api).collect();
        let g = w
            .catalog()
            .rpc_expect(Service::Neutron, "get_devices_details_list");
        let s = w
            .catalog()
            .rpc_expect(Service::Neutron, "security_group_info_for_devices");
        assert!(ids.contains(&g));
        assert!(ids.contains(&s));
    }

    #[test]
    fn resize_chain_is_ordered() {
        // prep -> resize -> finish -> confirm must appear in that order.
        let w = wf();
        let ids: Vec<_> = w.vm_resize().iter().map(|s| s.api).collect();
        let order = [
            "prep_resize",
            "resize_instance",
            "finish_resize",
            "confirm_resize",
        ];
        let pos: Vec<usize> = order
            .iter()
            .map(|m| {
                let api = w.catalog().rpc_expect(Service::NovaCompute, m);
                ids.iter().position(|&a| a == api).expect("rpc present")
            })
            .collect();
        assert!(
            pos.windows(2).all(|w| w[0] < w[1]),
            "resize chain out of order: {pos:?}"
        );
    }

    #[test]
    fn shelve_touches_glance_both_ways() {
        let w = wf();
        let c = w.catalog();
        let ids: Vec<_> = w.vm_shelve_unshelve().iter().map(|s| s.api).collect();
        let up = c.rest_expect(
            Service::Glance,
            crate::api::HttpMethod::Put,
            "/v2/images/{id}/file",
        );
        let down = c.rest_expect(
            Service::Glance,
            crate::api::HttpMethod::Get,
            "/v2/images/{id}/file",
        );
        assert!(ids.contains(&up), "shelve uploads the snapshot");
        assert!(ids.contains(&down), "unshelve downloads it back");
    }

    #[test]
    fn backup_restore_round_trips_through_swift() {
        let w = wf();
        let c = w.catalog();
        let steps = w.volume_backup_restore();
        let put = c.rest_expect(
            Service::Swift,
            crate::api::HttpMethod::Put,
            "/v1/{account}/{container}/{object}",
        );
        let get = c.rest_expect(
            Service::Swift,
            crate::api::HttpMethod::Get,
            "/v1/{account}/{container}/{object}",
        );
        let ids: Vec<_> = steps.iter().map(|s| s.api).collect();
        let put_pos = ids.iter().position(|&a| a == put).unwrap();
        let get_pos = ids.iter().position(|&a| a == get).unwrap();
        assert!(put_pos < get_pos, "backup before restore");
    }

    #[test]
    fn canonical_specs_have_categories() {
        let w = wf();
        assert_eq!(w.vm_create_spec(OpSpecId(0)).category, Category::Compute);
        assert_eq!(w.image_upload_spec(OpSpecId(1)).category, Category::Image);
        assert_eq!(w.cinder_list_spec(OpSpecId(2)).category, Category::Storage);
    }
}
