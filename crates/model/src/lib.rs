//! # gretel-model — OpenStack domain model
//!
//! The pure, I/O-free domain model shared by every other crate in the
//! GRETEL workspace:
//!
//! * [`Service`] — OpenStack component services, nodes and dependencies;
//! * [`ApiId`] / [`ApiKind`] — the finite REST/RPC API alphabet;
//! * [`Catalog`] — the full 643-public-API OpenStack catalog;
//! * [`codec`] — the one bounded byte reader/writer layer every wire,
//!   checkpoint and snapshot format is built on;
//! * [`symbol`] — API ↔ Unicode symbol encoding for regex matching;
//! * [`message`] — captured network messages and payload rendering;
//! * [`OperationSpec`] — high-level administrative operations as API
//!   sequences, written by hand ([`Workflows`], incl. §2.1 VM create) or in
//!   a text DSL ([`parse_dsl`]);
//! * [`TempestSuite`] — the synthetic 1200-test integration suite (Table 1).
//!
//! Nothing here performs I/O or spawns threads; everything is
//! deterministic given a seed.

#![deny(missing_docs)]

mod api;
mod catalog;
pub mod codec;
mod dsl;
pub mod message;
mod operation;
mod service;
pub mod symbol;
mod tempest;
mod workflows;

pub use api::{ApiId, ApiKind, HttpMethod, NoiseClass, RpcStyle};
pub use catalog::Catalog;
pub use dsl::parse as parse_dsl;
pub use message::{
    ConnKey, Direction, Message, MessageHead, MessageId, OpInstanceId, ProjectId, WireKind,
};
pub use operation::{Category, LatencyClass, OpSpecId, OperationSpec, Step};
pub use service::{Dependency, NodeId, Service};
pub use tempest::TempestSuite;
pub use workflows::Workflows;
