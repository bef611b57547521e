//! # gretel-netcap — capture transport for GRETEL
//!
//! The monitoring substrate standing in for the paper's Bro + Broccoli
//! pipeline (see DESIGN.md §1):
//!
//! * [`frame`] — length-delimited binary codec for captured messages (the
//!   bytes whose volume the §7.4 throughput numbers measure);
//! * [`batch`] — arena-backed [`FrameBatch`]es: many frames per channel
//!   operation, zero-copy frame views and decode;
//! * [`agent`] — per-node egress capture agents and relevance filtering,
//!   plus the capture-loss machinery: seeded [`CaptureImpairment`]
//!   injection and the receiver-side [`Resequencer`] that turns sequence
//!   holes into explicit gap markers;
//! * [`shard`] — tenant-hash routing of messages onto the partitions of
//!   the sharded pipeline (DESIGN.md §15);
//! * [`pcap`] — libpcap-flavoured dump files for captured traffic;
//! * [`stats`] — [`CaptureStats`] capture-quality counters.

#![deny(missing_docs)]

pub mod agent;
pub mod batch;
pub mod frame;
pub mod pcap;
pub mod shard;
pub mod stats;

pub use agent::{
    coin, degrade, mix64, skew_clocks, CaptureAgent, CaptureImpairment, Degradation, Resequencer,
    StallSpec,
};
pub use batch::{FrameBatch, FrameBatchBuilder};
pub use frame::{decode_one, decode_one_seq, encode, encode_seq, encoded_len, CodecError};
pub use pcap::PcapReader;
pub use shard::{partition_messages, shard_of};
pub use stats::CaptureStats;
