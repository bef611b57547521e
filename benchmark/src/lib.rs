//! # gretel-benchmark — one benchmark for the whole pipeline
//!
//! Seven named workloads, each reported with the same end-to-end metrics
//! (untraced binary) and per-layer metrics (traced binary). See `README.md`
//! in this directory for the glossary and how to run it.

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod passes;
pub mod report;
pub mod runner;
pub mod score;
pub mod stats;
pub mod trace;
