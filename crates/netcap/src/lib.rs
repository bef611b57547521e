//! # gretel-netcap — capture transport for GRETEL
//!
//! The monitoring substrate standing in for the paper's Bro + Broccoli
//! pipeline (see DESIGN.md §1):
//!
//! * [`encode`] / [`decode_view`] — length-delimited binary codec for
//!   captured messages (the bytes whose volume the §7.4 throughput numbers
//!   measure); [`decode_view`] is the one parser and allocates nothing,
//!   [`decode_one`] copies its result into an owned message;
//! * [`FrameBatch`] — arena-backed batches: many frames per channel
//!   operation, shipped and sliced into frames without a copy;
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
    decode_one, decode_one_seq, decode_view, encode, encode_seq, encoded_len, CodecError, FrameView,
};
pub use shard::{partition_messages, shard_of};
pub use stats::CaptureStats;
