//! # gretel — lightweight fault localization for OpenStack
//!
//! A from-scratch Rust reproduction of **GRETEL** (Goel, Kalra, Dhawan —
//! *GRETEL: Lightweight Fault Localization for OpenStack*, CoNEXT '16),
//! including every substrate its evaluation needs: an OpenStack deployment
//! simulator, a Tempest-like integration suite, capture transport,
//! collectd-style telemetry, and the HANSEL baseline.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`model`] — the OpenStack domain model (643-API catalog, messages,
//!   operations, the synthetic Tempest suite);
//! * [`sim`] — the deterministic deployment simulator with fault
//!   injection;
//! * [`netcap`] — capture agents, wire codec, pcap dumps;
//! * [`telemetry`] — resource/watcher series and level-shift detection;
//! * [`store`] — the durable append-only state store (checksummed
//!   records, segment rotation, torn-tail recovery) behind the
//!   fault-tolerant service;
//! * [`core`] — GRETEL itself: fingerprints, the sliding-window anomaly
//!   detector, operation detection and root cause analysis;
//! * [`hansel`] — the HANSEL (CoNEXT '15) baseline.
//!
//! ## Quickstart
//!
//! ```no_run
//! use gretel::prelude::*;
//!
//! // 1. Offline: learn fingerprints from the integration suite.
//! let catalog = Catalog::openstack();
//! let suite = TempestSuite::generate(catalog.clone(), 42);
//! let deployment = Deployment::standard();
//! let (library, _) =
//!     FingerprintLibrary::characterize(catalog.clone(), suite.specs(), &deployment, 2, 7);
//!
//! // 2. Online: analyze captured traffic.
//! let cfg = GretelConfig::auto(library.fp_max(), 150.0, 1.0);
//! let mut analyzer = Analyzer::new(&library, cfg);
//! // for msg in captured_messages { analyzer.process(&msg); }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench`
//! for the binaries regenerating every table and figure of the paper.

pub use gretel_core as core;
pub use gretel_hansel as hansel;
pub use gretel_model as model;
pub use gretel_netcap as netcap;
pub use gretel_sim as sim;
pub use gretel_store as store;
pub use gretel_telemetry as telemetry;

/// Where each part of the paper lives in this repository.
///
/// | Paper | Code |
/// |---|---|
/// | §2 OpenStack architecture, Fig 1 | [`model::service`], [`sim::deployment`] |
/// | §2 communication (REST/RPC via RabbitMQ) | [`model::message`], [`sim::executor`] |
/// | §2.1 VM-create walkthrough | [`model::workflows::Workflows::vm_create`] |
/// | §3 fault model (operational / performance) | [`core::event::FaultMark`], [`core::report::FaultKind`] |
/// | §3.1 representative scenarios | [`sim::scenario`], `examples/` |
/// | §4 composite operations / CFG subsumption | [`model::operation`], `Workflows::vm_snapshot` |
/// | §5 key observations, Fig 3 architecture | [`core::analyzer`], [`core::service`] |
/// | Algorithm 1 (fingerprint generation) | [`core::fingerprint::generate_fingerprint`], [`core::noise_filter`], [`core::lcs`] |
/// | §5.1 distributed state monitoring | [`netcap::agent`], [`telemetry`] |
/// | §5.2 event receiver | [`core::service::run_service_cfg`] |
/// | §5.3 anomaly detection (byte scans, latency pairing) | [`core::anomaly`] |
/// | §5.3.1 sliding window α, context buffer β/δ, θ | [`core::window`], [`core::detect`], [`core::config`] |
/// | Algorithm 2 (operation detection, truncation) | [`core::detect::Detector`], [`core::fingerprint::Fingerprint::truncate_at_each`] |
/// | §5.3.1 correlation ids (future work) | `GretelConfig::use_correlation_ids`, `experiments corr_ablation` |
/// | Algorithm 3 (root cause analysis) | [`core::rca::RcaEngine`] |
/// | §6 implementation (symbols, RPC pruning, dual buffer, LS) | [`model::symbol`], `GretelConfig::prune_rpcs`, [`core::window`], [`telemetry::outlier`] |
/// | §7.1 characterization, Table 1, Fig 5 | [`model::tempest`], `experiments table1 fig5` |
/// | §7.2 case studies | [`sim::scenario`], `experiments case_studies` |
/// | §7.3 precision, Figs 7a–c, 8a, 8b | `gretel-bench::precision`, `experiments fig7a fig7b fig7c fig8a fig8b` |
/// | §7.4 throughput & overhead, Fig 8c | [`sim::stream`], `experiments fig8c`, `benchmark/` (`steady`, `storm`, `wire`) |
/// | §8 limitations | quantified: `experiments loss_ablation` (1), `interfering_operations` scenario (5), [`model::dsl`] + `FingerprintLibrary::extend_characterize` (4, 7) |
/// | §9.2 HANSEL comparison | [`hansel`], `experiments fig8c` |
pub mod paper_map {}

/// The most common imports, for examples and quick experiments.
pub mod prelude {
    pub use gretel_core::{
        analyze_stream, Analyzer, CauseKind, Diagnosis, FaultKind, Fingerprint, FingerprintLibrary,
        GretelConfig, RcaContext, RootCause,
    };
    pub use gretel_model::{
        ApiId, Catalog, Category, HttpMethod, Message, OpSpecId, OperationSpec, Service,
        TempestSuite, Workflows,
    };
    pub use gretel_sim::{
        ApiFault, Deployment, Execution, FaultPlan, FaultScope, InjectedError, RunConfig, Runner,
    };
    pub use gretel_telemetry::TelemetryStore;
}
