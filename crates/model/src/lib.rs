//! # gretel-model — OpenStack domain model
//!
//! The pure, I/O-free domain model shared by every other crate in the
//! GRETEL workspace:
//!
//! * [`service`] — OpenStack component services, nodes and dependencies;
//! * [`api`] — the finite REST/RPC API alphabet;
//! * [`catalog`] — the full 643-public-API OpenStack catalog;
//! * [`codec`] — the one bounded byte reader/writer layer every wire,
//!   checkpoint and snapshot format is built on;
//! * [`symbol`] — API ↔ Unicode symbol encoding for regex matching;
//! * [`message`] — captured network messages and payload rendering;
//! * [`operation`] — high-level administrative operations as API sequences;
//! * [`workflows`] — hand-written real workflow motifs (incl. §2.1 VM create);
//! * [`tempest`] — the synthetic 1200-test integration suite (Table 1).
//!
//! Nothing here performs I/O or spawns threads; everything is
//! deterministic given a seed.

#![warn(missing_docs)]

pub mod api;
pub mod catalog;
pub mod codec;
pub mod dsl;
pub mod message;
pub mod operation;
pub mod service;
pub mod symbol;
pub mod tempest;
pub mod workflows;

pub use api::{ApiDef, ApiId, ApiKind, HttpMethod, NoiseClass, RpcStyle};
pub use catalog::{Catalog, PUBLIC_REST_APIS};
pub use dsl::{parse as parse_dsl, DslError};
pub use message::{ConnKey, Direction, Message, MessageId, OpInstanceId, ProjectId, WireKind};
pub use operation::{Category, LatencyClass, OpSpecId, OperationSpec, Step};
pub use service::{Dependency, NodeId, Service};
pub use tempest::TempestSuite;
pub use workflows::Workflows;
