//! # gretel-sim — deterministic OpenStack deployment simulator
//!
//! GRETEL's evaluation requires a live OpenStack cluster; this crate is the
//! substitute substrate (see DESIGN.md §1). It simulates a 7-node
//! deployment running concurrent administrative operations and produces
//! exactly the two inputs GRETEL consumes:
//!
//! 1. the timestamped REST/RPC **message stream** a passive monitor would
//!    capture (interleaved across concurrent operations, with heartbeat /
//!    status / Keystone / idempotent-repeat noise), and
//! 2. collectd-style **telemetry**: per-node resource samples and
//!    dependency-watcher reports.
//!
//! Faults are injected through a [`FaultPlan`]: API error statuses,
//! `tc`-style latency, service crashes, NTP stops and resource exhaustion.
//! [`scenario`] packages the paper's §3.1/§7.2 case studies;
//! [`SyntheticStream`] generates the §7.4 stress streams.
//!
//! Everything is deterministic for a given seed.
//!
//! # Example
//!
//! Run one operation on the standard deployment and observe its captured
//! message stream:
//!
//! ```
//! use gretel_model::{Catalog, OpSpecId, Workflows};
//! use gretel_sim::{Deployment, FaultPlan, RunConfig, Runner};
//!
//! let cat = Catalog::openstack();
//! let dep = Deployment::standard();
//! let wf = Workflows::new(cat.clone());
//! let spec = wf.vm_create_spec(OpSpecId(0));
//! let plan = FaultPlan::none();
//! let exec = Runner::new(cat, &dep, &plan, RunConfig::default()).run(&[&spec]);
//! assert!(!exec.messages.is_empty());
//! // Same seed, same stream: the simulator is deterministic.
//! assert!(exec.messages.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
//! ```

#![deny(missing_docs)]

pub mod cascade;
mod chaos;
mod deployment;
mod engine;
mod executor;
mod faults;
mod report;
mod resources;
pub mod scenario;
mod stream;

pub use cascade::{cascade_suite, CascadeScenario};
pub use chaos::CrashSchedule;
pub use deployment::Deployment;
pub use engine::{ms, secs, splitmix64, SimTime};
pub use executor::{Execution, RunConfig, Runner, WatcherSample};
pub use faults::{ApiFault, FaultPlan, FaultScope, InjectedError};
pub use report::{instance_timeline, summary};
pub use resources::{ResourceKind, ResourceSample};
pub use scenario::{ExpectedCause, Scenario};
pub use stream::{StreamConfig, SyntheticStream};
