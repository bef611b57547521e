//! The experiments behind [`crate::EXPERIMENTS`], grouped by what they
//! share: each function takes the driver's [`crate::Ctx`], asserts its
//! gates, and returns the artifacts to write.

pub mod characterization;
pub mod durable;
pub mod grids;
pub mod latency;
pub mod loss;
pub mod observability;
pub mod rca;
pub mod stream;
