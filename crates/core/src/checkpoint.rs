//! Checkpoint, release-record and event/diagnosis byte codecs.
//!
//! A store-backed run ([`crate::recover::run_service_durable`]) ends every
//! checkpoint interval with a boundary record in a [`gretel_store::Store`]:
//! an append-only log of length-prefixed, checksummed records. A boundary
//! record is a *base* ([`EngineCheckpoint`]) — the analyzer's ingest state
//! (sliding window, latency pairer, perf detectors, error dedup set,
//! traffic graph) — or a *delta* ([`EngineDelta`]): the messages merged
//! since the previous boundary, as fixed-size entries. Both carry the
//! receiver-side [`gretel_netcap::Resequencer`] positions and the next job
//! sequence number. After a crash the run restores the newest *valid* base,
//! replays the deltas that chain onto it (corrupt records are detected by
//! checksum and skipped, never half-applied), and the agents replay their
//! streams from the beginning; the restored resequencers discard the
//! already-delivered prefix as duplicates, so the diagnosis stream
//! continues exactly where the last applied record left it. Diagnoses
//! travel in release records, written before they are handed downstream.
//!
//! The record envelope lives in `gretel-store`; this module owns the
//! payload pieces shared across records — [`Event`], [`Diagnosis`], the
//! marked message head, the release batch — and the three record payloads:
//! the release record, the [`EngineCheckpoint`] and the [`EngineDelta`];
//! every other state block (`window`, `anomaly`, `perf`, `graph`,
//! `analyzer`) composes them. All of it is
//! explicit little-endian encoding over the one bounded reader in
//! [`gretel_model::codec`]: a record must be readable by a *different*
//! build than the one that wrote it, so the format is written down rather
//! than derived. DESIGN.md §16 is the index; the golden
//! fixtures under `tests/golden/` pin the bytes.

use crate::event::{Event, FaultMark};
use crate::rca::{CauseKind, RootCause};
use crate::report::{CaptureConfidence, Diagnosis, FaultKind};
use gretel_model::codec::{
    put_bytes, put_count, put_f64, put_u16, put_u32, put_u64, put_u8, DecodeError, Reader,
};
use gretel_model::{
    ApiId, ConnKey, Dependency, Direction, MessageHead, MessageId, NodeId, OpSpecId, Service,
};
use gretel_sim::ResourceKind;

/// Why a checkpoint or release record could not be restored: the shared
/// [`DecodeError`], named for where it surfaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointError(pub DecodeError);

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint record: {}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> CheckpointError {
        CheckpointError(e)
    }
}

/// Encoded size of one [`Event`].
pub(crate) const EVENT_BYTES: usize = 38;

/// Encode one [`Event`] (fixed layout, 38 bytes).
pub fn put_event(out: &mut Vec<u8>, ev: &Event) {
    put_u64(out, ev.id.0);
    put_u64(out, ev.ts);
    put_u16(out, ev.api.0);
    put_u8(out, matches!(ev.direction, Direction::Response) as u8);
    let flags = (ev.is_rpc as u8) | ((ev.state_change as u8) << 1) | ((ev.noise_api as u8) << 2);
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
    put_mark(out, ev.fault);
    put_u32(out, ev.gap_before);
}

/// Encode a [`FaultMark`]: a tag byte and the REST status (0 otherwise).
fn put_mark(out: &mut Vec<u8>, mark: FaultMark) {
    let (tag, status) = match mark {
        FaultMark::None => (0u8, 0u16),
        FaultMark::RestError(s) => (1, s),
        FaultMark::RpcError => (2, 0),
    };
    put_u8(out, tag);
    put_u16(out, status);
}

fn read_mark(r: &mut Reader<'_>) -> Result<FaultMark, DecodeError> {
    let tag = r.u8()?;
    let status = r.u16()?;
    Ok(match tag {
        0 => FaultMark::None,
        1 => FaultMark::RestError(status),
        2 => FaultMark::RpcError,
        _ => return Err(DecodeError::Invalid("fault tag")),
    })
}

/// Decode one [`Event`] written by [`put_event`].
pub fn read_event(r: &mut Reader<'_>) -> Result<Event, DecodeError> {
    let id = MessageId(r.u64()?);
    let ts = r.u64()?;
    let api = ApiId(r.u16()?);
    let direction = match r.u8()? {
        0 => Direction::Request,
        1 => Direction::Response,
        _ => return Err(DecodeError::Invalid("event direction")),
    };
    let flags = r.u8()?;
    if flags > 0b111 {
        return Err(DecodeError::Invalid("event flags"));
    }
    let src_node = NodeId(r.u8()?);
    let dst_node = NodeId(r.u8()?);
    let corr_tag = r.u8()?;
    let corr_val = r.u64()?;
    let corr = match corr_tag {
        0 => None,
        1 => Some(corr_val),
        _ => return Err(DecodeError::Invalid("event correlation tag")),
    };
    let fault = read_mark(r)?;
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

/// Encoded size of one [`MessageHead`] with its [`FaultMark`]
/// ([`put_marked_head`]).
pub(crate) const MARKED_HEAD_BYTES: usize = 52;

/// Encode a message head and its scan verdict (fixed layout, 52 bytes):
/// everything ingest reads of one captured message. A parked message and a
/// delta entry are stored this way.
pub fn put_marked_head(out: &mut Vec<u8>, head: &MessageHead, mark: FaultMark) {
    put_u64(out, head.id.0);
    put_u64(out, head.ts_us);
    put_u8(out, head.src_node.0);
    put_u8(out, head.dst_node.0);
    put_u8(out, head.src_service.index());
    put_u8(out, head.dst_service.index());
    put_u16(out, head.api.0);
    let flags = matches!(head.direction, Direction::Response) as u8
        | (head.rpc_msg_id.is_some() as u8) << 1
        | (head.correlation_id.is_some() as u8) << 2;
    put_u8(out, flags);
    put_u64(out, head.rpc_msg_id.unwrap_or(0));
    put_u64(out, head.correlation_id.unwrap_or(0));
    put_u8(out, head.conn.src.0);
    put_u16(out, head.conn.src_port);
    put_u8(out, head.conn.dst.0);
    put_u16(out, head.conn.dst_port);
    put_u32(out, head.payload_len);
    put_mark(out, mark);
}

/// Decode one head and mark written by [`put_marked_head`].
pub fn read_marked_head(r: &mut Reader<'_>) -> Result<(MessageHead, FaultMark), DecodeError> {
    let id = MessageId(r.u64()?);
    let ts_us = r.u64()?;
    let src_node = NodeId(r.u8()?);
    let dst_node = NodeId(r.u8()?);
    let service = |i| Service::from_index(i).ok_or(DecodeError::Invalid("service index"));
    let src_service = service(r.u8()?)?;
    let dst_service = service(r.u8()?)?;
    let api = ApiId(r.u16()?);
    let flags = r.u8()?;
    if flags > 0b111 {
        return Err(DecodeError::Invalid("head flags"));
    }
    let rpc_msg_id = r.u64()?;
    let correlation_id = r.u64()?;
    let conn = ConnKey {
        src: NodeId(r.u8()?),
        src_port: r.u16()?,
        dst: NodeId(r.u8()?),
        dst_port: r.u16()?,
    };
    let head = MessageHead {
        id,
        ts_us,
        src_node,
        dst_node,
        src_service,
        dst_service,
        api,
        direction: match flags & 1 {
            0 => Direction::Request,
            _ => Direction::Response,
        },
        rpc_msg_id: (flags & 2 != 0).then_some(rpc_msg_id),
        conn,
        correlation_id: (flags & 4 != 0).then_some(correlation_id),
        payload_len: r.u32()?,
    };
    Ok((head, read_mark(r)?))
}

/// FNV-1a 64-bit over a byte slice — the record checksum. Re-exported
/// from [`gretel_store`], which owns the record format.
pub use gretel_store::fnv1a;

/// A resource kind's wire tag is its discriminant, which is its position
/// in the stable [`ResourceKind::ALL`] order.
fn read_resource(r: &mut Reader<'_>) -> Result<ResourceKind, DecodeError> {
    let i = r.u8()? as usize;
    ResourceKind::ALL
        .get(i)
        .copied()
        .ok_or(DecodeError::Invalid("resource index"))
}

fn put_dependency(out: &mut Vec<u8>, d: Dependency) {
    match d {
        Dependency::ServiceProcess(s) => {
            put_u8(out, 0);
            put_u8(out, s.index());
        }
        Dependency::MySqlReachable => put_u8(out, 1),
        Dependency::RabbitMqReachable => put_u8(out, 2),
        Dependency::NtpAgent => put_u8(out, 3),
        Dependency::Libvirt => put_u8(out, 4),
    }
}

fn read_dependency(r: &mut Reader<'_>) -> Result<Dependency, DecodeError> {
    Ok(match r.u8()? {
        0 => Dependency::ServiceProcess(
            Service::from_index(r.u8()?).ok_or(DecodeError::Invalid("service index"))?,
        ),
        1 => Dependency::MySqlReachable,
        2 => Dependency::RabbitMqReachable,
        3 => Dependency::NtpAgent,
        4 => Dependency::Libvirt,
        _ => return Err(DecodeError::Invalid("dependency tag")),
    })
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn read_string(r: &mut Reader<'_>) -> Result<String, DecodeError> {
    let bytes = r.bytes()?;
    String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Invalid("string utf8"))
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
        FaultKind::Performance {
            observed_ms,
            baseline_ms,
        } => {
            put_u8(out, 1);
            put_f64(out, observed_ms);
            put_f64(out, baseline_ms);
        }
    }
    put_u16(out, d.api.0);
    put_u64(out, d.ts);
    put_count(out, d.matched.len());
    for m in &d.matched {
        put_u16(out, m.0);
    }
    put_f64(out, d.theta);
    put_u64(out, d.beta_used as u64);
    put_u64(out, d.candidates as u64);
    put_count(out, d.root_causes.len());
    for rc in &d.root_causes {
        put_u8(out, rc.node.0);
        match &rc.cause {
            CauseKind::Resource(k) => {
                put_u8(out, 0);
                put_u8(out, *k as u8);
            }
            CauseKind::Dependency(dep) => {
                put_u8(out, 1);
                put_dependency(out, *dep);
            }
            CauseKind::StaleTelemetry {
                stale_resources,
                stale_watchers,
            } => {
                put_u8(out, 2);
                put_count(out, stale_resources.len());
                for k in stale_resources {
                    put_u8(out, *k as u8);
                }
                put_count(out, stale_watchers.len());
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
pub fn read_diagnosis(r: &mut Reader<'_>) -> Result<Diagnosis, DecodeError> {
    let kind = match r.u8()? {
        0 => {
            let has_status = r.u8()?;
            let status_val = r.u16()?;
            let status = match has_status {
                0 => None,
                1 => Some(status_val),
                _ => return Err(DecodeError::Invalid("status tag")),
            };
            let rpc = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(DecodeError::Invalid("rpc flag")),
            };
            FaultKind::Operational { status, rpc }
        }
        1 => FaultKind::Performance {
            observed_ms: r.f64()?,
            baseline_ms: r.f64()?,
        },
        _ => return Err(DecodeError::Invalid("fault kind tag")),
    };
    let api = ApiId(r.u16()?);
    let ts = r.u64()?;
    let matched = (0..r.count(2)?)
        .map(|_| r.u16().map(OpSpecId))
        .collect::<Result<_, _>>()?;
    let theta = r.f64()?;
    let beta_used = r.u64()? as usize;
    let candidates = r.u64()? as usize;
    let n_causes = r.count(ROOT_CAUSE_MIN_BYTES)?;
    let mut root_causes = Vec::with_capacity(n_causes);
    for _ in 0..n_causes {
        let node = NodeId(r.u8()?);
        let cause = match r.u8()? {
            0 => CauseKind::Resource(read_resource(r)?),
            1 => CauseKind::Dependency(read_dependency(r)?),
            2 => CauseKind::StaleTelemetry {
                stale_resources: (0..r.count(1)?)
                    .map(|_| read_resource(r))
                    .collect::<Result<_, _>>()?,
                stale_watchers: (0..r.count(1)?)
                    .map(|_| read_dependency(r))
                    .collect::<Result<_, _>>()?,
            },
            _ => return Err(DecodeError::Invalid("cause tag")),
        };
        let why = read_string(r)?;
        root_causes.push(RootCause { node, cause, why });
    }
    let confidence = match r.u8()? {
        0 => CaptureConfidence::Exact,
        1 => CaptureConfidence::Degraded {
            gaps: r.u32()?,
            lost: r.u32()?,
        },
        2 => CaptureConfidence::Cancelled,
        _ => return Err(DecodeError::Invalid("confidence tag")),
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

/// Smallest encoding of one root cause: node, cause tag, one tag byte of
/// cause body, empty `why`.
const ROOT_CAUSE_MIN_BYTES: usize = 1 + 1 + 1 + 4;

/// Smallest encoding of one [`Diagnosis`]: an operational kind with no
/// matches, no root causes and exact confidence.
const DIAGNOSIS_MIN_BYTES: usize = 5 + 2 + 8 + 4 + 8 + 8 + 8 + 4 + 1;

/// Serialize one release batch: the watermark plus `(job seq, diagnoses)`
/// pairs, each diagnosis in the bit-exact checkpoint codec.
pub fn encode_release(up_to: u64, jobs: &[(u64, Vec<Diagnosis>)]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, up_to);
    put_count(&mut out, jobs.len());
    for (seq, ds) in jobs {
        put_u64(&mut out, *seq);
        put_count(&mut out, ds.len());
        for d in ds {
            put_diagnosis(&mut out, d);
        }
    }
    out
}

/// A decoded release batch: the watermark and its `(job seq, diagnoses)` pairs.
pub type Release = (u64, Vec<(u64, Vec<Diagnosis>)>);

/// Decode a [`crate::KIND_DIAGNOSES`] record back into its watermark and jobs.
pub fn decode_release(payload: &[u8]) -> Result<Release, CheckpointError> {
    let mut r = Reader::new(payload);
    let up_to = r.u64()?;
    let n = r.count(8 + 4)?;
    let mut jobs = Vec::with_capacity(n);
    for _ in 0..n {
        let seq = r.u64()?;
        let n_ds = r.count(DIAGNOSIS_MIN_BYTES)?;
        let mut ds = Vec::with_capacity(n_ds);
        for _ in 0..n_ds {
            ds.push(read_diagnosis(&mut r)?);
        }
        jobs.push((seq, ds));
    }
    r.done()?;
    Ok((up_to, jobs))
}

/// One capture agent's receiver-side state inside a boundary record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentCheckpoint {
    /// The agent's resequencer
    /// ([`gretel_netcap::Resequencer::export_state`]).
    pub resequencer: Vec<u8>,
    /// Messages the resequencer released but the merge had not consumed
    /// yet, as `(gap before, record)` with the record in
    /// [`put_marked_head`] form. Replay brings them back only as discarded
    /// duplicates, so they travel with the boundary record.
    pub parked: Vec<(u32, Vec<u8>)>,
}

/// The first four bytes of every [`crate::KIND_CHECKPOINT`] and
/// [`crate::KIND_DELTA`] payload: `GCK` and the layout version. A record in
/// any other layout (one written before the tag existed included) fails
/// restore with its own error rather than on some later field.
const CHECKPOINT_TAG: [u8; 4] = *b"GCK\x02";

/// Strip the format tag off a boundary record's payload.
fn tagged(payload: &[u8]) -> Result<Reader<'_>, DecodeError> {
    payload
        .strip_prefix(&CHECKPOINT_TAG[..])
        .map(Reader::new)
        .ok_or(DecodeError::Invalid("checkpoint format"))
}

fn put_agents(out: &mut Vec<u8>, agents: &[AgentCheckpoint]) {
    put_count(out, agents.len());
    for agent in agents {
        put_bytes(out, &agent.resequencer);
        put_count(out, agent.parked.len());
        for (gap, record) in &agent.parked {
            put_u32(out, *gap);
            put_bytes(out, record);
        }
    }
}

/// The nested resequencer states and parked records come back as bytes;
/// their own decoders check them.
fn read_agents(r: &mut Reader<'_>) -> Result<Vec<AgentCheckpoint>, DecodeError> {
    // Each agent block is at least two length prefixes, each parked record
    // a gap and a length prefix.
    let n = r.count(4 + 4)?;
    let mut agents = Vec::with_capacity(n);
    for _ in 0..n {
        let resequencer = r.bytes()?.to_vec();
        let n_parked = r.count(4 + 4)?;
        let mut parked = Vec::with_capacity(n_parked);
        for _ in 0..n_parked {
            parked.push((r.u32()?, r.bytes()?.to_vec()));
        }
        agents.push(AgentCheckpoint {
            resequencer,
            parked,
        });
    }
    Ok(agents)
}

/// The engine's [`crate::KIND_CHECKPOINT`] record, a *base*, as plain data:
/// the analyzer's state ([`crate::Analyzer::export_state`]), the next job
/// sequence number, and one [`AgentCheckpoint`] per capture agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineCheckpoint {
    /// Analyzer state bytes.
    pub analyzer: Vec<u8>,
    /// Sequence number the next snapshot job gets.
    pub next_seq: u64,
    /// Per-agent receiver state, in agent order.
    pub agents: Vec<AgentCheckpoint>,
}

/// Serialize one [`EngineCheckpoint`], behind the format tag.
pub fn encode_checkpoint(ck: &EngineCheckpoint) -> Vec<u8> {
    let mut out = CHECKPOINT_TAG.to_vec();
    put_bytes(&mut out, &ck.analyzer);
    put_u64(&mut out, ck.next_seq);
    put_agents(&mut out, &ck.agents);
    out
}

/// Decode a [`crate::KIND_CHECKPOINT`] record written by
/// [`encode_checkpoint`]. A payload without this build's format tag is
/// `Invalid("checkpoint format")`.
pub fn decode_checkpoint(payload: &[u8]) -> Result<EngineCheckpoint, CheckpointError> {
    let mut r = tagged(payload)?;
    let analyzer = r.bytes()?.to_vec();
    let next_seq = r.u64()?;
    let agents = read_agents(&mut r)?;
    r.done()?;
    Ok(EngineCheckpoint {
        analyzer,
        next_seq,
        agents,
    })
}

/// One merged message as a delta records it: the capture gap reported
/// before it, its head and its scan verdict — the arguments of one ingest.
pub type DeltaEntry = (u32, MessageHead, FaultMark);

/// Encoded size of one [`DeltaEntry`].
const DELTA_ENTRY_BYTES: usize = 4 + MARKED_HEAD_BYTES;

/// The engine's [`crate::KIND_DELTA`] record as plain data: the input the
/// analyzer merged since the previous boundary. Ingest is deterministic, so
/// replaying the entries into the analyzer that boundary left rebuilds its
/// whole state; the record carries no analyzer state of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineDelta {
    /// The continuity key: the merged-message count at the previous
    /// boundary, where the entries start. A restore applies the delta only
    /// to an analyzer at exactly this count.
    pub from: u64,
    /// Sequence number the next snapshot job gets after the entries.
    pub next_seq: u64,
    /// Every message merged since the previous boundary, in merge order.
    pub entries: Vec<DeltaEntry>,
    /// Per-agent receiver state at this boundary, in agent order.
    pub agents: Vec<AgentCheckpoint>,
}

/// Serialize one [`EngineDelta`], behind the format tag.
pub fn encode_delta(delta: &EngineDelta) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + delta.entries.len() * DELTA_ENTRY_BYTES);
    out.extend_from_slice(&CHECKPOINT_TAG);
    put_u64(&mut out, delta.from);
    put_u64(&mut out, delta.next_seq);
    put_count(&mut out, delta.entries.len());
    for (gap, head, mark) in &delta.entries {
        put_u32(&mut out, *gap);
        put_marked_head(&mut out, head, *mark);
    }
    put_agents(&mut out, &delta.agents);
    out
}

/// Decode a [`crate::KIND_DELTA`] record written by [`encode_delta`]. A
/// payload without this build's format tag is `Invalid("checkpoint
/// format")`.
pub fn decode_delta(payload: &[u8]) -> Result<EngineDelta, CheckpointError> {
    let mut r = tagged(payload)?;
    let from = r.u64()?;
    let next_seq = r.u64()?;
    let n = r.count(DELTA_ENTRY_BYTES)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let gap = r.u32()?;
        let (head, mark) = read_marked_head(&mut r)?;
        entries.push((gap, head, mark));
    }
    let agents = read_agents(&mut r)?;
    r.done()?;
    Ok(EngineDelta {
        from,
        next_seq,
        entries,
        agents,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnosis_codec_round_trips_every_variant() {
        // Resource tags are discriminants, in `ALL` order.
        for (i, &k) in ResourceKind::ALL.iter().enumerate() {
            assert_eq!(k as usize, i);
        }
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
                FaultKind::Operational {
                    status: Some(503),
                    rpc: false,
                },
                CaptureConfidence::Exact,
                CauseKind::Resource(ResourceKind::ALL[4]),
            ),
            mk(
                FaultKind::Operational {
                    status: None,
                    rpc: true,
                },
                CaptureConfidence::Degraded { gaps: 2, lost: 9 },
                CauseKind::Dependency(Dependency::ServiceProcess(Service::ALL[11])),
            ),
            mk(
                FaultKind::Performance {
                    observed_ms: 123.456,
                    baseline_ms: 7.5,
                },
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

    /// The fixed size the delta entry bound relies on is the size written,
    /// whichever options the head carries.
    #[test]
    fn marked_heads_are_fixed_size_and_round_trip() {
        let head = MessageHead {
            id: MessageId(9),
            ts_us: 1_234,
            src_node: NodeId(1),
            dst_node: NodeId(2),
            src_service: Service::ALL[3],
            dst_service: Service::ALL[5],
            api: ApiId(77),
            direction: Direction::Response,
            rpc_msg_id: Some(41),
            conn: ConnKey::default(),
            correlation_id: None,
            payload_len: 300,
        };
        let bare = MessageHead {
            direction: Direction::Request,
            rpc_msg_id: None,
            correlation_id: Some(7),
            ..head
        };
        for (h, mark) in [
            (head, FaultMark::RpcError),
            (bare, FaultMark::RestError(503)),
        ] {
            let mut buf = Vec::new();
            put_marked_head(&mut buf, &h, mark);
            assert_eq!(buf.len(), MARKED_HEAD_BYTES);
            let mut r = Reader::new(&buf);
            assert_eq!(read_marked_head(&mut r), Ok((h, mark)));
            r.done().unwrap();
        }
    }

    #[test]
    fn release_record_counts_are_bounded() {
        let d = Diagnosis {
            kind: FaultKind::Operational {
                status: Some(500),
                rpc: false,
            },
            api: ApiId(1),
            ts: 2,
            matched: vec![],
            theta: 1.0,
            beta_used: 0,
            candidates: 0,
            root_causes: vec![],
            confidence: CaptureConfidence::Exact,
            attribution: None,
        };
        let jobs = vec![(7u64, vec![d])];
        let bytes = encode_release(9, &jobs);
        assert_eq!(
            bytes.len(),
            8 + 4 + 8 + 4 + DIAGNOSIS_MIN_BYTES,
            "the minimum is tight"
        );
        assert_eq!(decode_release(&bytes), Ok((9, jobs)));
        // Job count at 8, that job's diagnosis count at 20.
        for at in [8usize, 20] {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(
                decode_release(&bad),
                Err(CheckpointError(DecodeError::Truncated))
            );
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
