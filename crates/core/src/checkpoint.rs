//! Checkpointing primitives for the fault-tolerant analyzer service.
//!
//! The recoverable service ([`crate::recover`]) periodically serializes the
//! analyzer's ingest state — sliding window, latency pairer, perf
//! detectors, error dedup set — together with the receiver-side
//! [`gretel_netcap::Resequencer`] positions into a [`gretel_store::Store`]:
//! an append-only log of length-prefixed, checksummed records. After a
//! crash the service restores the newest *valid* record (corrupted records
//! are detected by checksum and skipped, never half-applied) and the
//! agents replay their streams from the beginning; the restored
//! resequencers discard the already-delivered prefix as duplicates, so the
//! diagnosis stream continues exactly where the checkpoint left it.
//!
//! The record format lives in `gretel-store`, so the in-memory
//! [`gretel_store::MemStore`] and the [`gretel_store::FileStore`] backend
//! (which persists the same log across whole-process restarts) share it.
//!
//! Everything here is deliberately dependency-free hand-rolled little-endian
//! encoding: the journal must be readable by a *different* build of the
//! service than the one that wrote it, so the format is explicit rather
//! than derived.

use crate::event::{Event, FaultMark};
use crate::rca::{CauseKind, RootCause};
use crate::report::{CaptureConfidence, Diagnosis, FaultKind};
use gretel_model::{ApiId, Dependency, Direction, MessageId, NodeId, OpSpecId, Service};
use gretel_sim::ResourceKind;

/// Why a checkpoint could not be restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The record ended before a field was complete.
    Truncated,
    /// A field decoded to an impossible value (the message names it).
    Invalid(&'static str),
    /// A perf detector in the monitor does not implement state export, so
    /// the analyzer cannot be checkpointed at all.
    UnsupportedDetector,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint record truncated"),
            CheckpointError::Invalid(what) => write!(f, "invalid checkpoint field: {what}"),
            CheckpointError::UnsupportedDetector => {
                write!(f, "a perf detector does not support state export")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Little-endian primitives shared by every state codec in the crate.
pub mod codec {
    use super::CheckpointError;

    /// Append one byte.
    pub fn put_u8(out: &mut Vec<u8>, v: u8) {
        out.push(v);
    }
    /// Append a little-endian u16.
    pub fn put_u16(out: &mut Vec<u8>, v: u16) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian u32.
    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian u64.
    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    /// Append an f64 as its little-endian bits.
    pub fn put_f64(out: &mut Vec<u8>, v: f64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Bounds-checked sequential reader over a state buffer. `Clone` marks
    /// a position so a block can be skipped now and decoded later.
    #[derive(Clone)]
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// Reader over `buf`, positioned at its start.
        pub fn new(buf: &'a [u8]) -> Reader<'a> {
            Reader { buf, pos: 0 }
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
            if self.buf.len() - self.pos < n {
                return Err(CheckpointError::Truncated);
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        /// Read one little-endian `u8`.
        pub fn u8(&mut self) -> Result<u8, CheckpointError> {
            Ok(self.take(1)?[0])
        }
        /// Read one little-endian `u16`.
        pub fn u16(&mut self) -> Result<u16, CheckpointError> {
            Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
        }
        /// Read one little-endian `u32`.
        pub fn u32(&mut self) -> Result<u32, CheckpointError> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
        }
        /// Read one little-endian `u64`.
        pub fn u64(&mut self) -> Result<u64, CheckpointError> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
        }
        /// Read one little-endian `f64`.
        pub fn f64(&mut self) -> Result<f64, CheckpointError> {
            Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
        }

        /// A length-prefixed byte run (u32 length).
        pub fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
            let n = self.u32()? as usize;
            self.take(n)
        }

        /// Items remaining? Call at the end of a full decode to reject
        /// trailing garbage.
        pub fn done(&self) -> Result<(), CheckpointError> {
            if self.pos == self.buf.len() {
                Ok(())
            } else {
                Err(CheckpointError::Invalid("trailing bytes"))
            }
        }
    }
}

use codec::{put_f64, put_u16, put_u32, put_u64, put_u8, Reader};

/// Encode one [`Event`] (fixed layout, 38 bytes).
pub fn put_event(out: &mut Vec<u8>, ev: &Event) {
    put_u64(out, ev.id.0);
    put_u64(out, ev.ts);
    put_u16(out, ev.api.0);
    put_u8(out, matches!(ev.direction, Direction::Response) as u8);
    let flags =
        (ev.is_rpc as u8) | ((ev.state_change as u8) << 1) | ((ev.noise_api as u8) << 2);
    put_u8(out, flags);
    put_u8(out, ev.src_node.0);
    put_u8(out, ev.dst_node.0);
    match ev.corr {
        Some(c) => {
            put_u8(out, 1);
            put_u64(out, c);
        }
        None => {
            put_u8(out, 0);
            put_u64(out, 0);
        }
    }
    let (tag, status) = match ev.fault {
        FaultMark::None => (0u8, 0u16),
        FaultMark::RestError(s) => (1, s),
        FaultMark::RpcError => (2, 0),
    };
    put_u8(out, tag);
    put_u16(out, status);
    put_u32(out, ev.gap_before);
}

/// Decode one [`Event`] written by [`put_event`].
pub fn read_event(r: &mut Reader<'_>) -> Result<Event, CheckpointError> {
    let id = MessageId(r.u64()?);
    let ts = r.u64()?;
    let api = ApiId(r.u16()?);
    let direction = match r.u8()? {
        0 => Direction::Request,
        1 => Direction::Response,
        _ => return Err(CheckpointError::Invalid("event direction")),
    };
    let flags = r.u8()?;
    if flags > 0b111 {
        return Err(CheckpointError::Invalid("event flags"));
    }
    let src_node = NodeId(r.u8()?);
    let dst_node = NodeId(r.u8()?);
    let corr_tag = r.u8()?;
    let corr_val = r.u64()?;
    let corr = match corr_tag {
        0 => None,
        1 => Some(corr_val),
        _ => return Err(CheckpointError::Invalid("event correlation tag")),
    };
    let fault_tag = r.u8()?;
    let status = r.u16()?;
    let fault = match fault_tag {
        0 => FaultMark::None,
        1 => FaultMark::RestError(status),
        2 => FaultMark::RpcError,
        _ => return Err(CheckpointError::Invalid("event fault tag")),
    };
    Ok(Event {
        id,
        ts,
        api,
        direction,
        is_rpc: flags & 1 != 0,
        state_change: flags & 2 != 0,
        noise_api: flags & 4 != 0,
        src_node,
        dst_node,
        corr,
        fault,
        gap_before: r.u32()?,
    })
}

/// FNV-1a 64-bit over a byte slice — the record checksum. Re-exported
/// from [`gretel_store`], which owns the record format.
pub use gretel_store::fnv1a;

/// Service index in the stable [`Service::ALL`] order — the wire tag for
/// services inside diagnosis records.
fn service_index(s: Service) -> u8 {
    Service::ALL.iter().position(|&x| x == s).expect("service in ALL") as u8
}

fn read_service(r: &mut Reader<'_>) -> Result<Service, CheckpointError> {
    let i = r.u8()? as usize;
    Service::ALL.get(i).copied().ok_or(CheckpointError::Invalid("service index"))
}

fn resource_index(k: ResourceKind) -> u8 {
    ResourceKind::ALL.iter().position(|&x| x == k).expect("resource in ALL") as u8
}

fn read_resource(r: &mut Reader<'_>) -> Result<ResourceKind, CheckpointError> {
    let i = r.u8()? as usize;
    ResourceKind::ALL.get(i).copied().ok_or(CheckpointError::Invalid("resource index"))
}

fn put_dependency(out: &mut Vec<u8>, d: Dependency) {
    match d {
        Dependency::ServiceProcess(s) => {
            put_u8(out, 0);
            put_u8(out, service_index(s));
        }
        Dependency::MySqlReachable => put_u8(out, 1),
        Dependency::RabbitMqReachable => put_u8(out, 2),
        Dependency::NtpAgent => put_u8(out, 3),
        Dependency::Libvirt => put_u8(out, 4),
    }
}

fn read_dependency(r: &mut Reader<'_>) -> Result<Dependency, CheckpointError> {
    Ok(match r.u8()? {
        0 => Dependency::ServiceProcess(read_service(r)?),
        1 => Dependency::MySqlReachable,
        2 => Dependency::RabbitMqReachable,
        3 => Dependency::NtpAgent,
        4 => Dependency::Libvirt,
        _ => return Err(CheckpointError::Invalid("dependency tag")),
    })
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn read_string(r: &mut Reader<'_>) -> Result<String, CheckpointError> {
    let bytes = r.bytes()?;
    String::from_utf8(bytes.to_vec()).map_err(|_| CheckpointError::Invalid("string utf8"))
}

/// Encode one [`Diagnosis`] bit-exactly (f64 fields as raw little-endian
/// bits), so a diagnosis released before a crash and one read back from
/// the store after a restart compare equal byte for byte.
pub fn put_diagnosis(out: &mut Vec<u8>, d: &Diagnosis) {
    match d.kind {
        FaultKind::Operational { status, rpc } => {
            put_u8(out, 0);
            match status {
                Some(s) => {
                    put_u8(out, 1);
                    put_u16(out, s);
                }
                None => {
                    put_u8(out, 0);
                    put_u16(out, 0);
                }
            }
            put_u8(out, rpc as u8);
        }
        FaultKind::Performance { observed_ms, baseline_ms } => {
            put_u8(out, 1);
            put_f64(out, observed_ms);
            put_f64(out, baseline_ms);
        }
    }
    put_u16(out, d.api.0);
    put_u64(out, d.ts);
    put_u32(out, d.matched.len() as u32);
    for m in &d.matched {
        put_u16(out, m.0);
    }
    put_f64(out, d.theta);
    put_u64(out, d.beta_used as u64);
    put_u64(out, d.candidates as u64);
    put_u32(out, d.root_causes.len() as u32);
    for rc in &d.root_causes {
        put_u8(out, rc.node.0);
        match &rc.cause {
            CauseKind::Resource(k) => {
                put_u8(out, 0);
                put_u8(out, resource_index(*k));
            }
            CauseKind::Dependency(dep) => {
                put_u8(out, 1);
                put_dependency(out, *dep);
            }
            CauseKind::StaleTelemetry { stale_resources, stale_watchers } => {
                put_u8(out, 2);
                put_u32(out, stale_resources.len() as u32);
                for k in stale_resources {
                    put_u8(out, resource_index(*k));
                }
                put_u32(out, stale_watchers.len() as u32);
                for dep in stale_watchers {
                    put_dependency(out, *dep);
                }
            }
        }
        put_string(out, &rc.why);
    }
    match d.confidence {
        CaptureConfidence::Exact => put_u8(out, 0),
        CaptureConfidence::Degraded { gaps, lost } => {
            put_u8(out, 1);
            put_u32(out, gaps);
            put_u32(out, lost);
        }
        CaptureConfidence::Cancelled => put_u8(out, 2),
    }
}

/// Decode one [`Diagnosis`] written by [`put_diagnosis`].
pub fn read_diagnosis(r: &mut Reader<'_>) -> Result<Diagnosis, CheckpointError> {
    let kind = match r.u8()? {
        0 => {
            let has_status = r.u8()?;
            let status_val = r.u16()?;
            let status = match has_status {
                0 => None,
                1 => Some(status_val),
                _ => return Err(CheckpointError::Invalid("status tag")),
            };
            let rpc = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(CheckpointError::Invalid("rpc flag")),
            };
            FaultKind::Operational { status, rpc }
        }
        1 => FaultKind::Performance { observed_ms: r.f64()?, baseline_ms: r.f64()? },
        _ => return Err(CheckpointError::Invalid("fault kind tag")),
    };
    let api = ApiId(r.u16()?);
    let ts = r.u64()?;
    let n_matched = r.u32()? as usize;
    let mut matched = Vec::with_capacity(n_matched.min(1024));
    for _ in 0..n_matched {
        matched.push(OpSpecId(r.u16()?));
    }
    let theta = r.f64()?;
    let beta_used = r.u64()? as usize;
    let candidates = r.u64()? as usize;
    let n_causes = r.u32()? as usize;
    let mut root_causes = Vec::with_capacity(n_causes.min(1024));
    for _ in 0..n_causes {
        let node = NodeId(r.u8()?);
        let cause = match r.u8()? {
            0 => CauseKind::Resource(read_resource(r)?),
            1 => CauseKind::Dependency(read_dependency(r)?),
            2 => {
                let n_res = r.u32()? as usize;
                let mut stale_resources = Vec::with_capacity(n_res.min(1024));
                for _ in 0..n_res {
                    stale_resources.push(read_resource(r)?);
                }
                let n_dep = r.u32()? as usize;
                let mut stale_watchers = Vec::with_capacity(n_dep.min(1024));
                for _ in 0..n_dep {
                    stale_watchers.push(read_dependency(r)?);
                }
                CauseKind::StaleTelemetry { stale_resources, stale_watchers }
            }
            _ => return Err(CheckpointError::Invalid("cause tag")),
        };
        let why = read_string(r)?;
        root_causes.push(RootCause { node, cause, why });
    }
    let confidence = match r.u8()? {
        0 => CaptureConfidence::Exact,
        1 => CaptureConfidence::Degraded { gaps: r.u32()?, lost: r.u32()? },
        2 => CaptureConfidence::Cancelled,
        _ => return Err(CheckpointError::Invalid("confidence tag")),
    };
    Ok(Diagnosis {
        kind,
        api,
        ts,
        matched,
        theta,
        beta_used,
        candidates,
        root_causes,
        confidence,
        // Attribution is a post-pass artifact, recomputed from the mined
        // traffic graph after replay; it is not persisted per-diagnosis.
        attribution: None,
    })
}

/// Serialize one release batch: the watermark plus `(job seq, diagnoses)`
/// pairs, each diagnosis in the bit-exact checkpoint codec.
pub fn encode_release(up_to: u64, jobs: &[(u64, Vec<Diagnosis>)]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, up_to);
    put_u32(&mut out, jobs.len() as u32);
    for (seq, ds) in jobs {
        put_u64(&mut out, *seq);
        put_u32(&mut out, ds.len() as u32);
        for d in ds {
            put_diagnosis(&mut out, d);
        }
    }
    out
}

/// Decode a [`crate::KIND_DIAGNOSES`] record back into its watermark and jobs.
#[allow(clippy::type_complexity)]
pub fn decode_release(payload: &[u8]) -> Result<(u64, Vec<(u64, Vec<Diagnosis>)>), CheckpointError> {
    let mut r = codec::Reader::new(payload);
    let up_to = r.u64()?;
    let n = r.u32()? as usize;
    let mut jobs = Vec::with_capacity(n);
    for _ in 0..n {
        let seq = r.u64()?;
        let n_ds = r.u32()? as usize;
        let mut ds = Vec::with_capacity(n_ds);
        for _ in 0..n_ds {
            ds.push(read_diagnosis(&mut r)?);
        }
        jobs.push((seq, ds));
    }
    r.done()?;
    Ok((up_to, jobs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnosis_codec_round_trips_every_variant() {
        let mk = |kind, confidence, cause| Diagnosis {
            kind,
            api: ApiId(321),
            ts: 9_876_543,
            matched: vec![OpSpecId(0), OpSpecId(7)],
            theta: 0.987_654_321,
            beta_used: 12,
            candidates: 5,
            root_causes: vec![RootCause {
                node: NodeId(3),
                cause,
                why: "observed at 99.4% for 3 intervals".to_string(),
            }],
            confidence,
            attribution: None,
        };
        let cases = [
            mk(
                FaultKind::Operational { status: Some(503), rpc: false },
                CaptureConfidence::Exact,
                CauseKind::Resource(ResourceKind::ALL[4]),
            ),
            mk(
                FaultKind::Operational { status: None, rpc: true },
                CaptureConfidence::Degraded { gaps: 2, lost: 9 },
                CauseKind::Dependency(Dependency::ServiceProcess(Service::ALL[11])),
            ),
            mk(
                FaultKind::Performance { observed_ms: 123.456, baseline_ms: 7.5 },
                CaptureConfidence::Cancelled,
                CauseKind::StaleTelemetry {
                    stale_resources: vec![ResourceKind::ALL[0], ResourceKind::ALL[2]],
                    stale_watchers: vec![Dependency::NtpAgent, Dependency::Libvirt],
                },
            ),
        ];
        for d in &cases {
            let mut buf = Vec::new();
            put_diagnosis(&mut buf, d);
            let mut r = Reader::new(&buf);
            let back = read_diagnosis(&mut r).unwrap();
            r.done().unwrap();
            assert_eq!(&back, d);
        }
        // Bad tags are rejected, never mis-decoded.
        let mut buf = Vec::new();
        put_diagnosis(&mut buf, &cases[0]);
        buf[0] = 9;
        assert!(read_diagnosis(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn event_codec_round_trips_every_variant() {
        use gretel_model::Direction;
        let mk = |fault, corr, dir| Event {
            id: MessageId(77),
            ts: 123_456,
            api: ApiId(901),
            direction: dir,
            is_rpc: true,
            state_change: false,
            noise_api: true,
            src_node: NodeId(3),
            dst_node: NodeId(7),
            corr,
            fault,
            gap_before: 9,
        };
        for ev in [
            mk(FaultMark::None, None, Direction::Request),
            mk(FaultMark::RestError(503), Some(42), Direction::Response),
            mk(FaultMark::RpcError, None, Direction::Response),
        ] {
            let mut buf = Vec::new();
            put_event(&mut buf, &ev);
            let mut r = Reader::new(&buf);
            let back = read_event(&mut r).unwrap();
            r.done().unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn event_decode_rejects_bad_tags() {
        let ev = Event {
            id: MessageId(0),
            ts: 0,
            api: ApiId(0),
            direction: Direction::Request,
            is_rpc: false,
            state_change: false,
            noise_api: false,
            src_node: NodeId(0),
            dst_node: NodeId(0),
            corr: None,
            fault: FaultMark::None,
            gap_before: 0,
        };
        let mut buf = Vec::new();
        put_event(&mut buf, &ev);
        // Direction byte out of range.
        let mut bad = buf.clone();
        bad[18] = 9;
        assert!(read_event(&mut Reader::new(&bad)).is_err());
        // Fault tag out of range.
        let mut bad = buf.clone();
        bad[31] = 9;
        assert!(read_event(&mut Reader::new(&bad)).is_err());
        // Truncated.
        assert!(read_event(&mut Reader::new(&buf[..10])).is_err());
    }
}
