//! Network messages: the unit GRETEL observes.
//!
//! GRETEL never instruments OpenStack; its only runtime input is the stream
//! of REST and RPC messages captured on the wire, plus node metrics. A
//! [`Message`] is one captured request or response. Fields marked *ground
//! truth* exist only so the evaluation can score GRETEL — the analyzer
//! itself never reads them (enforced by the `truth` accessor naming and by
//! tests in `gretel-core`).

use crate::api::{ApiId, HttpMethod};
use crate::service::{NodeId, Service};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Monotonic message identifier assigned at emission.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct MessageId(pub u64);

/// Identifier of one *instance* of an operation (a concrete run of an
/// [`crate::operation::OperationSpec`]). Ground truth only.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct OpInstanceId(pub u64);

/// Identifier of the tenant (Keystone project) an operation instance runs
/// under. OpenStack scopes every API call to a project; the simulator
/// assigns instances to projects so faults can target one tenant's traffic
/// (`FaultScope::Project`) and the sharded pipeline can partition by
/// tenant. Unlike the `truth_*` fields this is *wire-visible* — a real
/// capture can read the project from the Keystone token scope on every
/// request — so [`Message::project`] may be used for shard routing.
/// Detection itself still never reads it: within a shard the analyzer is
/// project-blind.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct ProjectId(pub u32);

impl fmt::Display for ProjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "project-{}", self.0)
    }
}

/// Request or response half of an exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // variants are self-describing
pub enum Direction {
    Request,
    Response,
}

/// TCP connection metadata used to pair REST requests with responses
/// (paper §5.3: "REST latencies are computed by pairing request and
/// response messages based on TCP connection metadata, like IP and port").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct ConnKey {
    /// Source node.
    pub src: NodeId,
    /// Source TCP port.
    pub src_port: u16,
    /// Destination node.
    pub dst: NodeId,
    /// Destination TCP port.
    pub dst_port: u16,
}

impl ConnKey {
    /// The same connection viewed from the opposite direction; a response
    /// travels on the reversed key of its request.
    pub fn reversed(self) -> ConnKey {
        ConnKey {
            src: self.dst,
            src_port: self.dst_port,
            dst: self.src,
            dst_port: self.src_port,
        }
    }

    /// Direction-independent form: both directions of one connection
    /// normalise to the same key.
    pub fn canonical(self) -> ConnKey {
        if (self.src.0, self.src_port) <= (self.dst.0, self.dst_port) {
            self
        } else {
            self.reversed()
        }
    }
}

/// Protocol-specific part of a message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireKind {
    /// An HTTP REST message. `status` is set on responses only.
    Rest {
        /// HTTP verb.
        method: HttpMethod,
        /// Concrete URI with path parameters substituted.
        uri: String,
        /// HTTP status code; `None` on requests.
        status: Option<u16>,
    },
    /// An oslo.messaging RPC transiting the RabbitMQ broker.
    Rpc {
        /// oslo.messaging method name.
        method: String,
        /// Correlation id unique to a call/reply pair (paper: "RPC latencies
        /// are computed using IP and message identifier").
        msg_id: u64,
        /// Set when the reply carries a serialized exception.
        error: Option<String>,
    },
}

impl WireKind {
    /// True for RPC messages.
    pub fn is_rpc(&self) -> bool {
        matches!(self, WireKind::Rpc { .. })
    }
}

/// One captured network message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Message {
    /// Monotonic id in emission order.
    pub id: MessageId,
    /// Emission timestamp, microseconds of simulated time.
    pub ts_us: u64,
    /// Node the message left from.
    pub src_node: NodeId,
    /// Node the message is addressed to (the broker node for RPCs).
    pub dst_node: NodeId,
    /// Emitting service.
    pub src_service: Service,
    /// Receiving service.
    pub dst_service: Service,
    /// The API this message belongs to.
    pub api: ApiId,
    /// Request or response.
    pub direction: Direction,
    /// Protocol detail.
    pub wire: WireKind,
    /// TCP connection for REST pairing. For RPCs this is the hop to/from
    /// the broker.
    pub conn: ConnKey,
    /// Raw payload bytes as they would appear on the wire. GRETEL scans
    /// these with byte-pattern checks only — never structured parsing.
    pub payload: Vec<u8>,
    /// Correlation identifier tying together the requests and responses
    /// of one operation across services, when the deployment propagates
    /// one (paper §5.3.1: OpenStack was introducing `correlation_id`;
    /// GRETEL "can exploit these … to increase its precision"). `None`
    /// when the deployment does not propagate ids — GRETEL must work
    /// either way.
    pub correlation_id: Option<u64>,
    /// Keystone project the call is scoped to, read from the request's
    /// auth token on the wire. `None` for traffic with no project scope
    /// (service heartbeats, token issuance itself). Used only to route
    /// messages to pipeline shards — detection never reads it.
    pub project: Option<ProjectId>,
    /// Ground truth: which operation instance produced this message.
    /// `None` for background noise. **Evaluation only.**
    pub truth_op: Option<OpInstanceId>,
    /// Ground truth: whether the message is background noise.
    /// **Evaluation only.**
    pub truth_noise: bool,
}

impl Message {
    /// Whether this is an HTTP response carrying an error status (>= 400).
    ///
    /// This mirrors what the anomaly detector derives *from the payload
    /// bytes*; it is provided for tests and ground-truth checks.
    pub fn is_rest_error(&self) -> bool {
        matches!(self.wire, WireKind::Rest { status: Some(s), .. } if s >= 400)
    }

    /// Whether this is an RPC reply carrying an exception.
    pub fn is_rpc_error(&self) -> bool {
        matches!(&self.wire, WireKind::Rpc { error: Some(_), .. })
    }

    /// Total bytes of the message as framed on the wire (payload only;
    /// framing overhead is added by the codec).
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.wire {
            WireKind::Rest {
                method,
                uri,
                status,
            } => write!(
                f,
                "[{} us] {}->{} {method} {uri}{}",
                self.ts_us,
                self.src_service,
                self.dst_service,
                status.map(|s| format!(" => {s}")).unwrap_or_default()
            ),
            WireKind::Rpc {
                method,
                msg_id,
                error,
            } => write!(
                f,
                "[{} us] {}->{} RPC {method} (msg {msg_id}){}",
                self.ts_us,
                self.src_service,
                self.dst_service,
                if error.is_some() { " [error]" } else { "" }
            ),
        }
    }
}

/// Render an HTTP response payload the way the simulator puts it on the
/// wire: a status line, a few headers, and an opaque body. The anomaly
/// detector's byte-level scan looks for the status line pattern.
pub fn render_rest_response_payload(status: u16, reason: &str, body_len: usize) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {body_len}\r\n\r\n"
    )
    .into_bytes();
    out.resize(out.len() + body_len, b'x');
    out
}

/// Render an HTTP request payload (request line + headers + body).
pub fn render_rest_request_payload(method: HttpMethod, uri: &str, body_len: usize) -> Vec<u8> {
    let mut out = format!(
        "{method} {uri} HTTP/1.1\r\nX-Auth-Token: tok\r\nContent-Length: {body_len}\r\n\r\n"
    )
    .into_bytes();
    out.resize(out.len() + body_len, b'x');
    out
}

/// Render an oslo.messaging payload. Errors are embedded the way oslo
/// serializes exceptions, so GRETEL's byte-pattern check can find them
/// without JSON parsing.
pub fn render_rpc_payload(
    method: &str,
    msg_id: u64,
    error: Option<&str>,
    body_len: usize,
) -> Vec<u8> {
    let mut out = match error {
        Some(e) => format!(
            "{{\"oslo.message\": {{\"method\": \"{method}\", \"_msg_id\": \"{msg_id}\", \"failure\": {{\"class\": \"{e}\", \"kwargs\": {{}}}}"
        ),
        None => format!(
            "{{\"oslo.message\": {{\"method\": \"{method}\", \"_msg_id\": \"{msg_id}\", \"args\": {{}}"
        ),
    }
    .into_bytes();
    out.resize(out.len() + body_len, b'x');
    out.extend_from_slice(b"}}");
    out
}

/// Canonical HTTP reason phrase for the statuses the simulator emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        409 => "Conflict",
        413 => "Request Entity Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_key_reversal_and_canonicalisation() {
        let k = ConnKey {
            src: NodeId(1),
            src_port: 5000,
            dst: NodeId(2),
            dst_port: 80,
        };
        let r = k.reversed();
        assert_eq!(r.src, NodeId(2));
        assert_eq!(r.dst_port, 5000);
        assert_eq!(k.canonical(), r.canonical());
        assert_eq!(k.reversed().reversed(), k);
    }

    #[test]
    fn rest_error_detection() {
        let mut m = Message {
            id: MessageId(1),
            ts_us: 0,
            src_node: NodeId(0),
            dst_node: NodeId(1),
            src_service: Service::Nova,
            dst_service: Service::Horizon,
            api: ApiId(0),
            direction: Direction::Response,
            wire: WireKind::Rest {
                method: HttpMethod::Post,
                uri: "/v2.1/servers".into(),
                status: Some(500),
            },
            conn: ConnKey::default(),
            payload: vec![],
            correlation_id: None,
            project: None,
            truth_op: None,
            truth_noise: false,
        };
        assert!(m.is_rest_error());
        m.wire = WireKind::Rest {
            method: HttpMethod::Post,
            uri: "/v2.1/servers".into(),
            status: Some(202),
        };
        assert!(!m.is_rest_error());
        assert!(!m.is_rpc_error());
    }

    #[test]
    fn payload_renderers_embed_detectable_patterns() {
        let p = render_rest_response_payload(413, reason_phrase(413), 64);
        let s = String::from_utf8_lossy(&p);
        assert!(s.starts_with("HTTP/1.1 413 Request Entity Too Large"));
        assert!(p.len() > 64);

        let p = render_rpc_payload("create_volume", 42, Some("VolumeLimitExceeded"), 16);
        let s = String::from_utf8_lossy(&p);
        assert!(s.contains("\"failure\""));
        assert!(s.contains("VolumeLimitExceeded"));
        assert!(s.contains("\"_msg_id\": \"42\""));

        let ok = render_rpc_payload("create_volume", 43, None, 16);
        assert!(!String::from_utf8_lossy(&ok).contains("failure"));
    }

    #[test]
    fn request_payload_contains_method_and_uri() {
        let p = render_rest_request_payload(HttpMethod::Put, "/v2/images/abc/file", 10);
        let s = String::from_utf8_lossy(&p);
        assert!(s.starts_with("PUT /v2/images/abc/file HTTP/1.1"));
    }

    #[test]
    fn display_is_compact() {
        let m = Message {
            id: MessageId(7),
            ts_us: 1234,
            src_node: NodeId(0),
            dst_node: NodeId(1),
            src_service: Service::Horizon,
            dst_service: Service::Nova,
            api: ApiId(3),
            direction: Direction::Request,
            wire: WireKind::Rest {
                method: HttpMethod::Post,
                uri: "/v2.1/servers".into(),
                status: None,
            },
            conn: ConnKey::default(),
            payload: vec![],
            correlation_id: None,
            project: None,
            truth_op: Some(OpInstanceId(9)),
            truth_noise: false,
        };
        let s = m.to_string();
        assert!(s.contains("horizon->nova"));
        assert!(s.contains("POST /v2.1/servers"));
    }
}
