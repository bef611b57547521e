//! # gretel-telemetry — distributed state monitoring
//!
//! The collectd + watchers substrate (see DESIGN.md §1): time series of
//! per-node resource metrics, dependency-watcher state, and the online
//! level-shift outlier detector GRETEL plugs in where the paper used R's
//! `tsoutliers` (LS mode).
//!
//! * [`LevelShiftDetector`] — the default of the pluggable online
//!   [`OutlierDetector`]s (one alarm per confirmed shift, adaptive
//!   re-baselining), over timestamp-ordered series with robust statistics;
//! * [`TelemetryStore`] — the analyzer-side store with the anomaly queries
//!   root cause analysis runs (Algorithm 3).

#![deny(missing_docs)]

mod outlier;
mod series;
mod store;

pub use outlier::{
    Anomaly, AnomalyKind, LevelShiftConfig, LevelShiftDetector, OutlierDetector, SpikeDetector,
};
pub use store::{ResourceEvidence, TelemetryStore};
