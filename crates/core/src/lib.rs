//! # gretel-core — the GRETEL fault localization system
//!
//! A from-scratch Rust implementation of GRETEL (CoNEXT '16): lightweight
//! fault localization for OpenStack using operational fingerprints learned
//! from integration tests and passively captured REST/RPC traffic.
//!
//! Pipeline (paper Fig 3):
//!
//! * offline: [`fingerprint`] learns one fingerprint per operation
//!   (Algorithm 1 — noise filtering via [`noise_filter`], trace
//!   intersection via [`lcs`]);
//! * online: [`analyzer`] scans payload bytes for errors ([`anomaly`]),
//!   pairs latencies and feeds level-shift detectors ([`perf`]), keeps the
//!   dual-buffer sliding window ([`window`]), detects the faulty operation
//!   (Algorithm 2 — [`detect`] + [`matcher`]) and runs root cause
//!   analysis (Algorithm 3 — [`rca`]);
//! * [`config`] holds the paper's thresholds (α, β, δ, c1, c2) and the
//!   precision metric θ; [`report`] renders diagnoses.
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

pub mod analyzer;
pub mod anomaly;
pub mod checkpoint;
pub mod config;
pub mod detect;
mod engine;
pub mod event;
pub mod explain;
pub mod fasthash;
pub mod fingerprint;
pub mod graph;
pub mod lcs;
pub mod matcher;
pub mod noise_filter;
pub mod perf;
pub mod rca;
pub mod recover;
pub mod report;
pub mod selfwatch;
pub mod service;
pub mod shard;
pub mod window;

pub use analyzer::{
    analyze_stream, Analyzer, AnalyzerStats, JobBudget, RcaContext, SnapshotAnalyzer, SnapshotJob,
};
pub use anomaly::{scan_message, scan_rest_error, scan_rpc_error, LatencyObs, LatencyPairer};
pub use checkpoint::CheckpointError;
pub use config::{theta, GretelConfig};
pub use detect::{DetectionOutcome, Detector, SnapshotIndex};
pub use event::{Event, FaultMark};
pub use explain::{LiteralMatch, MatchExplanation};
pub use fasthash::{FastMap, FastSet};
pub use fingerprint::{
    generate_fingerprint, trace_of, Atom, CandidatePattern, CharacterizationStats, Fingerprint,
    FingerprintLibrary,
};
pub use graph::{attribute_cascades, Attribution, CascadeParams, EdgeStats, EvidenceHop, ServiceGraph};
pub use matcher::PositionIndex;
pub use perf::{PerfFault, PerfMonitor};
pub use rca::{CauseKind, RcaEngine, RootCause};
pub use recover::{
    run_service_durable, AnalyzerChaos, DurableConfig, DurableOutcome, LibraryReload, RecoveryConfig, RecoveryStats, KIND_CHECKPOINT, KIND_DIAGNOSES, KIND_LIBRARY,
};
pub use report::{CaptureConfidence, Diagnosis, FaultKind};
pub use selfwatch::{self_watch_api, self_watch_stage, SelfWatch, SELF_WATCH_API_BASE};
pub use service::{
    resolve_shard_workers, run_service_cfg, BackpressurePolicy, ServiceConfig, ServiceError,
    ServiceStats,
};
pub use shard::{
    canonical_order, encode_diagnoses, run_sharded, run_sharded_durable, ShardReport,
    ShardedConfig, ShardedOutcome,
};
pub use window::{SlidingWindow, Snapshot};

/// The durable state store the recoverable service persists to — see
/// [`store::Store`], [`store::MemStore`] and [`store::FileStore`].
pub use gretel_store as store;
