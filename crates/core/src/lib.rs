//! # gretel-core — the GRETEL fault localization system
//!
//! A from-scratch Rust implementation of GRETEL (CoNEXT '16): lightweight
//! fault localization for OpenStack using operational fingerprints learned
//! from integration tests and passively captured REST/RPC traffic.
//!
//! Pipeline (paper Fig 3):
//!
//! * offline: [`FingerprintLibrary`] learns one [`Fingerprint`] per
//!   operation (Algorithm 1 — noise filtering via [`noise_filter`], trace
//!   intersection via [`lcs`]);
//! * online: [`Analyzer`] scans payload bytes for errors
//!   ([`scan_message`]), pairs latencies and feeds level-shift detectors
//!   ([`PerfMonitor`]), keeps the dual-buffer sliding window ([`window`]),
//!   detects the faulty operation (Algorithm 2 — [`Detector`] over a
//!   [`PositionIndex`]) and runs root cause analysis (Algorithm 3, yielding
//!   [`RootCause`]s);
//! * [`GretelConfig`] holds what a caller varies (α, RPC pruning,
//!   truncation, the [`Matching`] policy); β and δ follow from α through
//!   §7's fixed coefficients, and [`theta`] is the precision metric θ; a
//!   [`Diagnosis`] renders itself.
//!
//! The stage-by-stage walkthrough of how these modules compose into the
//! deployed pipeline lives in `ARCHITECTURE.md` at the repository root.
//!
//! # Example
//!
//! Scan a captured message for an error signature without running the
//! full analyzer:
//!
//! ```
//! use gretel_core::scan_rest_error;
//!
//! assert_eq!(scan_rest_error(b"HTTP/1.1 503 Service Unavailable"), Some(503));
//! assert_eq!(scan_rest_error(b"HTTP/1.1 200 OK"), None);
//! ```

#![deny(missing_docs)]

mod analyzer;
mod anomaly;
pub mod checkpoint;
mod config;
mod detect;
mod engine;
mod event;
mod fasthash;
mod fingerprint;
pub mod graph;
pub mod lcs;
mod matcher;
pub mod noise_filter;
mod perf;
mod rca;
mod recover;
mod report;
mod service;
mod shard;
pub mod window;

pub use analyzer::{analyze_stream, Analyzer, AnalyzerStats, RcaContext};
pub use anomaly::{scan_message, scan_rest_error};
pub use config::{theta, GretelConfig, Matching};
pub use detect::{DetectionOutcome, Detector, SnapshotIndex};
pub use event::{Event, FaultMark};
pub use fingerprint::{trace_of, CharacterizationStats, Fingerprint, FingerprintLibrary};
pub use graph::{attribute_cascades, Attribution, CascadeParams, ServiceGraph};
pub use matcher::PositionIndex;
pub use perf::PerfMonitor;
pub use rca::{CauseKind, RootCause};
pub use recover::{
    run_service_durable, AnalyzerChaos, DurableConfig, DurableOutcome, RecoveryConfig,
    RecoveryStats, KILL_ATTEMPTS, KIND_CHECKPOINT, KIND_DELTA, KIND_DIAGNOSES, MAX_ATTEMPTS,
};
pub use report::{CaptureConfidence, Diagnosis, FaultKind};
pub use service::{run_service_cfg, ServiceConfig, ServiceStats};
pub use shard::{
    canonical_order, encode_diagnoses, run_sharded, run_sharded_durable, ShardedConfig,
};
pub use window::SlidingWindow;

/// The durable state store the recoverable service persists to — see
/// [`store::Store`], [`store::MemStore`] and [`store::FileStore`].
pub use gretel_store as store;
