//! High-level administrative operations.
//!
//! The paper models every OpenStack administrative task as "a temporally
//! related sequence of REST and RPC API invocations" (§4). An
//! [`OperationSpec`] is that sequence: an ordered list of [`Step`]s, each
//! naming the API invoked, the caller and callee services, and a latency
//! class the simulator turns into a sampled service time.

use crate::api::ApiId;
use crate::service::Service;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an operation *specification* (a kind of task, e.g. "boot
/// VM from image"), as opposed to an instance of running it.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct OpSpecId(pub u16);

impl OpSpecId {
    /// Raw index value.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpSpecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Tempest-style operation category (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)] // Table 1 category names are self-describing
pub enum Category {
    Compute,
    Image,
    Network,
    Storage,
    Misc,
}

impl Category {
    /// All categories in Table 1 order.
    pub const ALL: [Category; 5] = [
        Category::Compute,
        Category::Image,
        Category::Network,
        Category::Storage,
        Category::Misc,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Category::Compute => "Compute",
            Category::Image => "Image",
            Category::Network => "Network",
            Category::Storage => "Storage",
            Category::Misc => "Misc",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Service-time class of a step; the simulator maps classes onto sampled
/// latency distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum LatencyClass {
    /// Simple metadata read (a few ms).
    #[default]
    Fast,
    /// Typical control-plane action (tens of ms).
    Medium,
    /// Heavy action: scheduling, image fetch (hundreds of ms).
    Slow,
    /// Long asynchronous work: VM boot, volume build (seconds).
    Boot,
}

/// One API invocation inside an operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Step {
    /// The API invoked.
    pub api: ApiId,
    /// The service issuing the request.
    pub src: Service,
    /// The service handling it. For RPCs the message transits RabbitMQ.
    pub dst: Service,
    /// Service-time class.
    pub latency: LatencyClass,
    /// Approximate request body size in bytes (responses are sized by the
    /// simulator).
    pub request_bytes: u32,
}

impl Step {
    /// Construct a step with a default small request body.
    pub fn new(api: ApiId, src: Service, dst: Service, latency: LatencyClass) -> Step {
        Step {
            api,
            src,
            dst,
            latency,
            request_bytes: 128,
        }
    }

    /// Builder-style request size override.
    pub(crate) fn with_bytes(mut self, bytes: u32) -> Step {
        self.request_bytes = bytes;
        self
    }
}

/// A named high-level administrative task.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperationSpec {
    /// Identifier; equals the index in the suite that owns it.
    pub id: OpSpecId,
    /// Human-readable name (e.g. `compute.boot_from_image.v3`).
    pub name: String,
    /// Table 1 category.
    pub category: Category,
    /// Ordered API invocations.
    pub steps: Vec<Step>,
}

impl OperationSpec {
    /// Sequence of API ids, in invocation order.
    pub fn api_seq(&self) -> Vec<ApiId> {
        self.steps.iter().map(|s| s.api).collect()
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the spec has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Whether any step invokes `api`.
    pub fn contains(&self, api: ApiId) -> bool {
        self.steps.iter().any(|s| s.api == api)
    }

    /// Validate the spec against a catalog: every step's API must exist,
    /// must not be a noise API, and the step's destination must be the
    /// service exposing the API. Returns all violations (empty = valid).
    pub fn validate(&self, catalog: &crate::catalog::Catalog) -> Vec<String> {
        let mut problems = Vec::new();
        if self.steps.is_empty() {
            problems.push(format!("{}: operation has no steps", self.name));
        }
        for (i, step) in self.steps.iter().enumerate() {
            if step.api.index() >= catalog.len() {
                problems.push(format!("{} step {i}: unknown API {}", self.name, step.api));
                continue;
            }
            let def = catalog.get(step.api);
            if def.noise.is_some() {
                problems.push(format!(
                    "{} step {i}: noise API {} cannot be an operation step",
                    self.name,
                    def.label()
                ));
            }
            if def.service != step.dst {
                problems.push(format!(
                    "{} step {i}: destination {} but API {} is exposed by {}",
                    self.name,
                    step.dst,
                    def.label(),
                    def.service
                ));
            }
            if step.src == step.dst && !def.is_rpc() {
                problems.push(format!(
                    "{} step {i}: REST call from a service to itself ({})",
                    self.name, step.src
                ));
            }
        }
        problems
    }

    /// The set of services participating in this operation (callers and
    /// callees), one bit per [`Service`] at `1 << service as u32`. RCA uses
    /// this to map an operation onto deployment nodes.
    pub fn service_mask(&self) -> u32 {
        const _: () = assert!(Service::ALL.len() <= u32::BITS as usize);
        self.steps
            .iter()
            .fold(0, |mask, s| mask | 1 << s.src as u32 | 1 << s.dst as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApiId;

    fn spec() -> OperationSpec {
        OperationSpec {
            id: OpSpecId(0),
            name: "test.op".into(),
            category: Category::Compute,
            steps: vec![
                Step::new(
                    ApiId(1),
                    Service::Horizon,
                    Service::Nova,
                    LatencyClass::Medium,
                ),
                Step::new(ApiId(2), Service::Nova, Service::Glance, LatencyClass::Slow),
                Step::new(
                    ApiId(1),
                    Service::Horizon,
                    Service::Nova,
                    LatencyClass::Fast,
                ),
            ],
        }
    }

    #[test]
    fn api_seq_preserves_order_and_repeats() {
        assert_eq!(spec().api_seq(), vec![ApiId(1), ApiId(2), ApiId(1)]);
    }

    #[test]
    fn service_mask_sets_one_bit_per_participant() {
        let want = [Service::Horizon, Service::Nova, Service::Glance]
            .iter()
            .fold(0, |mask, &s| mask | 1 << s as u32);
        assert_eq!(spec().service_mask(), want);
    }

    #[test]
    fn contains_checks_api_membership() {
        let sp = spec();
        assert!(sp.contains(ApiId(2)));
        assert!(!sp.contains(ApiId(99)));
    }

    #[test]
    fn validate_accepts_well_formed_specs() {
        let cat = crate::catalog::Catalog::openstack();
        let wf = crate::workflows::Workflows::new(cat.clone());
        let spec = wf.vm_create_spec(OpSpecId(0));
        assert!(spec.validate(&cat).is_empty(), "{:?}", spec.validate(&cat));
    }

    #[test]
    fn validate_flags_problems() {
        let cat = crate::catalog::Catalog::openstack();
        let noise = cat.noise_apis()[0];
        let bad = OperationSpec {
            id: OpSpecId(0),
            name: "bad".into(),
            category: Category::Misc,
            steps: vec![
                Step::new(
                    ApiId(u16::MAX),
                    Service::Horizon,
                    Service::Nova,
                    LatencyClass::Fast,
                ),
                Step::new(
                    noise,
                    Service::Horizon,
                    cat.get(noise).service,
                    LatencyClass::Fast,
                ),
            ],
        };
        let problems = bad.validate(&cat);
        assert!(problems.iter().any(|p| p.contains("unknown API")));
        assert!(problems.iter().any(|p| p.contains("noise API")));
        assert!(OperationSpec {
            id: OpSpecId(1),
            name: "empty".into(),
            category: Category::Misc,
            steps: vec![],
        }
        .validate(&cat)
        .iter()
        .any(|p| p.contains("no steps")));
    }

    #[test]
    fn with_bytes_overrides_request_size() {
        let s = Step::new(
            ApiId(1),
            Service::Horizon,
            Service::Nova,
            LatencyClass::Fast,
        )
        .with_bytes(4096);
        assert_eq!(s.request_bytes, 4096);
    }
}
