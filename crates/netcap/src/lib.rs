//! # gretel-netcap — capture transport for GRETEL
//!
//! The monitoring substrate standing in for the paper's Bro + Broccoli
//! pipeline (see DESIGN.md §1):
//!
//! * [`encode`] / [`decode_view`] — the length-delimited binary frame of a
//!   whole captured message: the capture format of [`pcap`] dumps.
//!   [`decode_view`] is the one parser and allocates nothing,
//!   [`decode_one`] copies its result into an owned message. The engine's
//!   agent → receiver links do not carry frames: an agent ships one
//!   fixed-size event record per message (`gretel-core`'s engine);
//! * [`FrameBatch`] — arena-backed batches of frames, which no pipeline
//!   ships any more; only the benchmark's per-layer table still measures
//!   them;
//! * [`CaptureAgent`] — per-node egress capture agents and relevance
//!   filtering, plus the capture-loss machinery: seeded
//!   [`CaptureImpairment`] injection and the receiver-side [`Resequencer`]
//!   that turns sequence holes into explicit gap markers;
//! * [`shard_of`] — tenant-hash routing of messages onto the partitions of
//!   the sharded pipeline (DESIGN.md §15);
//! * [`pcap`] — libpcap-flavoured dump files for captured traffic;
//! * [`CaptureStats`] — capture-quality counters.

#![deny(missing_docs)]

mod agent;
mod batch;
mod frame;
pub mod pcap;
mod shard;
mod stats;

pub use agent::{
    coin, degrade, mix64, skew_clocks, CaptureAgent, CaptureImpairment, Degradation, Resequencer,
    StallSpec,
};
pub use batch::{FrameBatch, FrameBatchBuilder};
pub use frame::{
    decode_one, decode_one_seq, decode_view, encode, encode_seq, encoded_len, CodecError,
};
pub use shard::{partition_messages, shard_of};
pub use stats::CaptureStats;
