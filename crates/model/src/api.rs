//! API definitions: the finite alphabet of OpenStack interactions.
//!
//! GRETEL's key observation (paper §5) is that OpenStack components interact
//! through a *finite* set of REST and RPC interfaces, so every high-level
//! administrative task is a sequence over a finite alphabet. Each API is
//! assigned a dense [`ApiId`] which maps one-to-one onto a Unicode symbol
//! (see [`crate::symbol`]) for regular-expression matching.

use crate::service::Service;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense identifier of an API in the [catalog](crate::catalog::Catalog).
///
/// Ids are stable for a given catalog build and index directly into its
/// definition table.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct ApiId(pub u16);

impl ApiId {
    /// The raw index value.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ApiId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "api{}", self.0)
    }
}

/// HTTP method of a REST API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // variants are self-describing HTTP verbs
pub enum HttpMethod {
    Get,
    Post,
    Put,
    Delete,
    Patch,
    Head,
}

impl HttpMethod {
    /// Whether this method mutates state. GRETEL prioritises state-change
    /// APIs when generating and matching fingerprints (paper §5.3.1).
    pub fn is_state_change(self) -> bool {
        matches!(
            self,
            HttpMethod::Post | HttpMethod::Put | HttpMethod::Delete | HttpMethod::Patch
        )
    }

    /// Whether repeat invocations for the same URI are idempotent and
    /// therefore candidates for noise pruning (paper §5, "repeat occurrences
    /// of idempotent REST actions for a specific URI").
    pub fn is_idempotent_read(self) -> bool {
        matches!(self, HttpMethod::Get | HttpMethod::Head)
    }

    /// Canonical wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            HttpMethod::Get => "GET",
            HttpMethod::Post => "POST",
            HttpMethod::Put => "PUT",
            HttpMethod::Delete => "DELETE",
            HttpMethod::Patch => "PATCH",
            HttpMethod::Head => "HEAD",
        }
    }
}

impl fmt::Display for HttpMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How an RPC is invoked through the broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RpcStyle {
    /// Request/response: the caller blocks for a reply (oslo.messaging
    /// `call`). Latency is measured by pairing on the message identifier.
    Call,
    /// Fire-and-forget (oslo.messaging `cast`). No response message.
    Cast,
}

/// The kind of interface an API belongs to.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ApiKind {
    /// A REST endpoint: method plus URI template (`{id}` placeholders for
    /// path parameters).
    Rest {
        /// HTTP verb.
        method: HttpMethod,
        /// URI template with `{param}` placeholders.
        uri: String,
    },
    /// An RPC method routed through RabbitMQ.
    Rpc {
        /// oslo.messaging method name.
        method: String,
        /// Call (request/reply) or cast (one-way).
        style: RpcStyle,
    },
}

impl ApiKind {
    /// Whether the API mutates state (POST/PUT/DELETE/PATCH REST, or any
    /// RPC): such APIs are the literals of a fingerprint.
    pub fn is_state_change(&self) -> bool {
        match self {
            // All RPCs are treated as state-change-priority symbols
            // (paper §5.3.1: "RPCs and POST, PUT and DELETE REST calls").
            ApiKind::Rpc { .. } => true,
            ApiKind::Rest { method, .. } => method.is_state_change(),
        }
    }

    /// Whether this is an RPC interface.
    pub fn is_rpc(&self) -> bool {
        matches!(self, ApiKind::Rpc { .. })
    }
}

/// Why a message stream element is uninteresting for fingerprinting.
///
/// Routine chatter "does not contribute in any meaningful way to segregate
/// user-level operations" (paper §5) and is pruned by the noise filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NoiseClass {
    /// Periodic liveness heartbeat RPC (e.g. `report_state`).
    Heartbeat,
    /// Periodic status-update RPC (e.g. `update_service_capabilities`).
    StatusUpdate,
    /// Common Keystone REST invocations (token issue/validate).
    KeystoneCommon,
}

/// Full definition of one API in the catalog.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApiDef {
    /// Dense id; equals this definition's index in the catalog.
    pub id: ApiId,
    /// The service that *exposes* the API (handles the request).
    pub service: Service,
    /// REST or RPC shape.
    pub kind: ApiKind,
    /// If set, invocations of this API are background noise of the given
    /// class and never part of an operational fingerprint.
    pub noise: Option<NoiseClass>,
}

impl ApiDef {
    /// Whether the API mutates state (POST/PUT/DELETE/PATCH REST, or any
    /// RPC). State-change APIs become plain literals in fingerprint regexes;
    /// everything else is starred (`X*`, optional) per Algorithm 1.
    pub fn is_state_change(&self) -> bool {
        self.kind.is_state_change()
    }

    /// Whether the API is an RPC.
    pub fn is_rpc(&self) -> bool {
        self.kind.is_rpc()
    }

    /// A stable human-readable name, e.g. `POST nova /v2.1/servers` or
    /// `RPC nova-compute build_and_run_instance`.
    pub fn label(&self) -> String {
        match &self.kind {
            ApiKind::Rest { method, uri } => {
                format!("{} {} {}", method, self.service.name(), uri)
            }
            ApiKind::Rpc { method, style } => {
                let style = match style {
                    RpcStyle::Call => "call",
                    RpcStyle::Cast => "cast",
                };
                format!("RPC({style}) {} {}", self.service.name(), method)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rest(method: HttpMethod, uri: &str) -> ApiDef {
        ApiDef {
            id: ApiId(0),
            service: Service::Nova,
            kind: ApiKind::Rest {
                method,
                uri: uri.to_string(),
            },
            noise: None,
        }
    }

    #[test]
    fn state_change_classification() {
        assert!(rest(HttpMethod::Post, "/v2.1/servers").is_state_change());
        assert!(rest(HttpMethod::Put, "/v2.1/servers/{id}").is_state_change());
        assert!(rest(HttpMethod::Delete, "/v2.1/servers/{id}").is_state_change());
        assert!(!rest(HttpMethod::Get, "/v2.1/servers").is_state_change());
        assert!(!rest(HttpMethod::Head, "/v2.1/servers").is_state_change());
    }

    #[test]
    fn all_rpcs_are_state_change_priority() {
        let def = ApiDef {
            id: ApiId(1),
            service: Service::NovaCompute,
            kind: ApiKind::Rpc {
                method: "build_and_run_instance".into(),
                style: RpcStyle::Cast,
            },
            noise: None,
        };
        assert!(def.is_state_change());
        assert!(def.is_rpc());
    }

    #[test]
    fn labels_are_informative() {
        let def = rest(HttpMethod::Post, "/v2.1/servers");
        assert_eq!(def.label(), "POST nova /v2.1/servers");
        let rpc = ApiDef {
            id: ApiId(2),
            service: Service::Neutron,
            kind: ApiKind::Rpc {
                method: "get_devices_details_list".into(),
                style: RpcStyle::Call,
            },
            noise: None,
        };
        assert!(rpc.label().contains("get_devices_details_list"));
        assert!(rpc.label().contains("call"));
    }

    #[test]
    fn idempotent_reads() {
        assert!(HttpMethod::Get.is_idempotent_read());
        assert!(HttpMethod::Head.is_idempotent_read());
        assert!(!HttpMethod::Post.is_idempotent_read());
    }
}
