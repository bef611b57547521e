//! The checkpoint and release-record formats.
//!
//! A store-backed run ([`crate::recover::run_service_durable`]) ends every
//! checkpoint interval with one boundary record in a
//! [`gretel_store::Store`]: an append-only log of length-prefixed,
//! checksummed records. A boundary record is a *base*
//! ([`encode_checkpoint`]) — the analyzer's ingest state (sliding window,
//! latency pairer, perf detectors, claim watermark, traffic graph) — or a
//! *delta* ([`encode_delta`]): the messages merged since the previous
//! boundary, as fixed-size entries. Both carry the next job sequence
//! number, the jobs released at the boundary with their diagnoses, and the
//! receiver-side [`gretel_netcap::Resequencer`] positions, so a boundary
//! is self-contained: one record, under one checksum. After a crash the
//! run reads the release of every valid record ([`open_boundary`]), stands
//! at the newest valid base that leaves no released job without a copy,
//! replays the deltas that chain onto it (corrupt records are detected by
//! checksum and skipped, never half-applied), and the agents replay their
//! streams from the beginning; the restored resequencers discard the
//! already-delivered prefix as duplicates, so the diagnosis stream
//! continues exactly where the last applied record left it. The jobs
//! released at end of stream, after the last boundary, travel in one
//! release record ([`encode_release`]).
//!
//! The record envelope lives in `gretel-store`. This module owns the
//! [`Wire`] formats of the pieces shared across records — [`Event`],
//! [`FaultMark`], [`Diagnosis`] and its parts — and the three record
//! payloads, each behind a 4-byte format tag. A boundary record is one flat
//! encoding, written in one pass: each component writes its state straight
//! into the record buffer, and no field is a byte run holding another
//! encoding. The configured components — the window, the perf detectors,
//! the resequencers — have no [`Wire::read`]: they restore in place into
//! the values the run's configuration built, and a setting the bytes carry
//! (α, the depth, the agent count) is only checked against it. A record
//! must be readable by a *different* build than the one that wrote it, so
//! each format is written down, field by field, rather than derived from a
//! memory layout. DESIGN.md §16 is the index; the golden fixtures under
//! `tests/golden/` pin the bytes.

use crate::analyzer::Analyzer;
use crate::event::{Event, FaultMark};
use crate::rca::{CauseKind, RootCause};
use crate::report::{CaptureConfidence, Diagnosis, FaultKind};
use gretel_model::codec::{decode, put_count, DecodeError, Reader, Wire};
use gretel_model::{wire_struct, ApiId, Dependency, MessageHead, NodeId, OpSpecId};
use gretel_netcap::Resequencer;
use gretel_sim::ResourceKind;
use std::collections::VecDeque;

/// 38 bytes fixed: id, timestamp, API, direction, one byte of the three
/// API flags, the nodes, the correlation id, the fault mark and the gap
/// marker.
impl Wire for Event {
    const MIN_BYTES: usize = 38;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        let flags =
            self.is_rpc as u8 | (self.state_change as u8) << 1 | (self.noise_api as u8) << 2;
        (self.id, self.ts, self.api, self.direction).put(out);
        (flags, self.src_node, self.dst_node).put(out);
        (self.corr, self.fault, self.gap_before).put(out);
    }

    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<Event, DecodeError> {
        let (id, ts, api, direction) = Wire::read(r)?;
        let (flags, src_node, dst_node): (u8, _, _) = Wire::read(r)?;
        if flags > 0b111 {
            return Err(DecodeError::Invalid("event flags"));
        }
        let (corr, fault, gap_before) = Wire::read(r)?;
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
            gap_before,
        })
    }
}

/// 3 bytes fixed: a tag and the REST status (0 for the other marks).
impl Wire for FaultMark {
    const MIN_BYTES: usize = 3;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        let (tag, status) = match *self {
            FaultMark::None => (0u8, 0u16),
            FaultMark::RestError(s) => (1, s),
            FaultMark::RpcError => (2, 0),
        };
        (tag, status).put(out);
    }

    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<FaultMark, DecodeError> {
        let (tag, status): (u8, u16) = Wire::read(r)?;
        Ok(match tag {
            0 => FaultMark::None,
            1 => FaultMark::RestError(status),
            2 => FaultMark::RpcError,
            _ => return Err(DecodeError::Invalid("fault tag")),
        })
    }
}

wire_struct!(enum FaultKind {
    0 => Operational { status: Option<u16>, rpc: bool },
    1 => Performance { observed_ms: f64, baseline_ms: f64 },
});
wire_struct!(enum CauseKind {
    0 => Resource(kind: ResourceKind),
    1 => Dependency(dep: Dependency),
    2 => StaleTelemetry { stale_resources: Vec<ResourceKind>, stale_watchers: Vec<Dependency> },
});
wire_struct!(RootCause {
    node: NodeId,
    cause: CauseKind,
    why: String,
});
wire_struct!(enum CaptureConfidence {
    0 => Exact,
    1 => Degraded { gaps: u32, lost: u32 },
    2 => Cancelled,
});
// Bit-exact (f64 fields as raw bits), so a diagnosis released before a
// crash and one read back from the store after a restart compare equal
// byte for byte. Attribution is a post-pass artifact, recomputed from the
// mined traffic graph after replay; it is not persisted per diagnosis.
wire_struct!(Diagnosis {
    kind: FaultKind,
    api: ApiId,
    ts: u64,
    matched: Vec<OpSpecId>,
    theta: f64,
    beta_used: usize,
    candidates: usize,
    root_causes: Vec<RootCause>,
    confidence: CaptureConfidence,
} skip {
    attribution: None,
});

/// One released job: its sequence number and its diagnoses (none when the
/// job claimed no fault).
pub type Job = (u64, Vec<Diagnosis>);

/// A release batch: the watermark and its jobs. A boundary record carries
/// one after its next job seq, which is its watermark; a
/// [`crate::KIND_DIAGNOSES`] record is one behind its own tag.
pub type Release = (u64, Vec<Job>);

/// The first four bytes of every [`crate::KIND_DIAGNOSES`] payload: `GRL`
/// and the layout version, checked before the body.
const RELEASE_TAG: [u8; 4] = *b"GRL\x01";

/// Serialize one release batch, behind the format tag.
pub fn encode_release(up_to: u64, jobs: &[Job]) -> Vec<u8> {
    let mut out = RELEASE_TAG.to_vec();
    up_to.put(&mut out);
    jobs.put(&mut out);
    out
}

/// Decode a [`crate::KIND_DIAGNOSES`] record back into its watermark and
/// jobs. A payload without this build's format tag is
/// `Invalid("release format")`.
pub fn decode_release(payload: &[u8]) -> Result<Release, DecodeError> {
    let body = payload
        .strip_prefix(&RELEASE_TAG[..])
        .ok_or(DecodeError::Invalid("release format"))?;
    decode(body)
}

/// What the receiver keeps of a frame, and what a boundary record stores
/// of a parked one: its head and scan verdict, 52 bytes fixed.
pub type Marked = (MessageHead, FaultMark);

/// One capture agent's receiver state, as a boundary record carries it.
#[derive(Debug)]
pub struct AgentState {
    /// The agent's resequencer, built at the run's depth.
    pub resequencer: Resequencer<Marked>,
    /// Messages the resequencer released that the merge has not consumed
    /// yet, as `(gap before, marked head)`: a [`DeltaEntry`]'s layout.
    /// Replay brings them back only as discarded duplicates, so they
    /// travel with the boundary record.
    pub ready: VecDeque<(u32, Marked)>,
}

impl AgentState {
    /// An agent that has received nothing, resequencing at `depth`.
    pub fn new(depth: usize) -> AgentState {
        AgentState {
            resequencer: Resequencer::new(depth),
            ready: VecDeque::new(),
        }
    }
}

/// Append the agents' block: their count, then per agent its
/// resequencer's state and its ready messages.
fn put_agents<'s>(agents: impl ExactSizeIterator<Item = &'s AgentState>, out: &mut Vec<u8>) {
    put_count(out, agents.len());
    for agent in agents {
        agent.resequencer.put_state(out);
        agent.ready.put(out);
    }
}

/// Restore the agents' block at `r` into `agents`, built from the run's
/// configuration: the count must be theirs, and each resequencer keeps its
/// depth. On error the agents may be partly restored; the run then fails.
fn restore_agents<'s>(
    r: &mut Reader<'_>,
    agents: impl ExactSizeIterator<Item = &'s mut AgentState>,
) -> Result<(), DecodeError> {
    if u32::read(r)? as usize != agents.len() {
        return Err(DecodeError::Invalid("checkpoint agent count"));
    }
    for agent in agents {
        agent.resequencer.restore(r)?;
        agent.ready = Wire::read(r)?;
    }
    Ok(())
}

/// The first four bytes of every [`crate::KIND_CHECKPOINT`] and
/// [`crate::KIND_DELTA`] payload: `GCK` and the layout version. A record in
/// any other layout (one written before the tag existed included) fails
/// restore with its own error rather than on some later field.
const CHECKPOINT_TAG: [u8; 4] = *b"GCK\x05";

/// Write the engine's [`crate::KIND_CHECKPOINT`] record, a *base*, into
/// `out` (replacing what it held) in one pass: the tag, the sequence number
/// the next snapshot job gets, the jobs released at this boundary, the
/// agents' block, and the analyzer's state
/// ([`crate::Analyzer::export_state`]'s bytes) to the end.
pub fn encode_checkpoint<'s>(
    out: &mut Vec<u8>,
    analyzer: &Analyzer<'_>,
    next_seq: u64,
    jobs: &[Job],
    agents: impl ExactSizeIterator<Item = &'s AgentState>,
) {
    out.clear();
    out.extend_from_slice(&CHECKPOINT_TAG);
    next_seq.put(out);
    jobs.put(out);
    put_agents(agents, out);
    analyzer.put_state(out);
}

/// One merged message as a delta records it: the capture gap reported
/// before it, its head and its scan verdict — the arguments of one ingest.
pub type DeltaEntry = (u32, MessageHead, FaultMark);

/// Write the engine's [`crate::KIND_DELTA`] record into `out` (replacing
/// what it held) in one pass: the tag; `from`, the continuity key — the
/// merged-message count at the previous boundary, where the entries start;
/// `next_seq`, the sequence number the next snapshot job gets after the
/// entries; the jobs released at this boundary; the agents' block; and to
/// the end the entries, every message merged since the previous boundary
/// in merge order. Ingest is deterministic, so replaying the entries into
/// the analyzer that boundary left rebuilds its whole state; the record
/// carries no analyzer state of its own.
pub fn encode_delta<'s>(
    out: &mut Vec<u8>,
    from: u64,
    next_seq: u64,
    jobs: &[Job],
    entries: &[DeltaEntry],
    agents: impl ExactSizeIterator<Item = &'s AgentState>,
) {
    out.clear();
    out.reserve(256 + entries.len() * DeltaEntry::MIN_BYTES);
    out.extend_from_slice(&CHECKPOINT_TAG);
    (from, next_seq).put(out);
    jobs.put(out);
    put_agents(agents, out);
    entries.put(out);
}

/// A boundary record read up to its agents' block: what a restore reads of
/// every record on the log before it picks where to stand.
#[derive(Debug)]
pub struct Boundary<'a> {
    /// A delta's continuity key; `None` for a base.
    pub from: Option<u64>,
    /// The sequence number the next snapshot job gets: the watermark of
    /// the record's release.
    pub next_seq: u64,
    /// The jobs released at this boundary.
    pub jobs: Vec<Job>,
    /// The agents' block and what follows it.
    state: Reader<'a>,
}

/// Read the opening of a boundary record of `kind` — a delta's continuity
/// key, the next job seq and the released jobs — and hold the rest for
/// [`Boundary::restore_base`] or [`Boundary::restore_delta`]. A payload
/// without this build's format tag is `Invalid("checkpoint format")`.
pub fn open_boundary(kind: u8, payload: &[u8]) -> Result<Boundary<'_>, DecodeError> {
    let mut state = payload
        .strip_prefix(&CHECKPOINT_TAG[..])
        .map(Reader::new)
        .ok_or(DecodeError::Invalid("checkpoint format"))?;
    let from = match kind {
        crate::KIND_DELTA => Some(u64::read(&mut state)?),
        _ => None,
    };
    let (next_seq, jobs) = Wire::read(&mut state)?;
    Ok(Boundary {
        from,
        next_seq,
        jobs,
        state,
    })
}

impl Boundary<'_> {
    /// Restore a base's state into `analyzer` and `agents`, both built
    /// from the run's configuration. A state that does not fit them is an
    /// error, and no setting is read from bytes.
    pub fn restore_base<'s>(
        mut self,
        analyzer: &mut Analyzer<'_>,
        agents: impl ExactSizeIterator<Item = &'s mut AgentState>,
    ) -> Result<(), DecodeError> {
        debug_assert!(self.from.is_none(), "a base has no continuity key");
        restore_agents(&mut self.state, agents)?;
        analyzer.restore_from(self.state)
    }

    /// Restore a delta's agents' block into `agents` and return its
    /// entries.
    pub fn restore_delta<'s>(
        mut self,
        agents: impl ExactSizeIterator<Item = &'s mut AgentState>,
    ) -> Result<Vec<DeltaEntry>, DecodeError> {
        debug_assert!(self.from.is_some(), "a delta has a continuity key");
        restore_agents(&mut self.state, agents)?;
        let entries = Wire::read(&mut self.state)?;
        self.state.done()?;
        Ok(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_model::codec::encode;
    use gretel_model::{ConnKey, Direction, MessageId, Service};

    fn diagnosis(kind: FaultKind, confidence: CaptureConfidence, cause: CauseKind) -> Diagnosis {
        Diagnosis {
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
        }
    }

    #[test]
    fn diagnosis_codec_round_trips_every_variant() {
        let cases = [
            diagnosis(
                FaultKind::Operational {
                    status: Some(503),
                    rpc: false,
                },
                CaptureConfidence::Exact,
                CauseKind::Resource(ResourceKind::ALL[4]),
            ),
            diagnosis(
                FaultKind::Operational {
                    status: None,
                    rpc: true,
                },
                CaptureConfidence::Degraded { gaps: 2, lost: 9 },
                CauseKind::Dependency(Dependency::ServiceProcess(Service::ALL[11])),
            ),
            diagnosis(
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
            assert_eq!(decode::<Diagnosis>(&encode(d)).as_ref(), Ok(d));
        }
        // Bad tags are rejected, never mis-decoded.
        let mut buf = encode(&cases[0]);
        buf[0] = 9;
        assert!(decode::<Diagnosis>(&buf).is_err());
    }

    fn event(fault: FaultMark, corr: Option<u64>, direction: Direction) -> Event {
        Event {
            id: MessageId(77),
            ts: 123_456,
            api: ApiId(901),
            direction,
            is_rpc: true,
            state_change: false,
            noise_api: true,
            src_node: NodeId(3),
            dst_node: NodeId(7),
            corr,
            fault,
            gap_before: 9,
        }
    }

    #[test]
    fn event_codec_round_trips_every_variant() {
        for ev in [
            event(FaultMark::None, None, Direction::Request),
            event(FaultMark::RestError(503), Some(42), Direction::Response),
            event(FaultMark::RpcError, None, Direction::Response),
        ] {
            assert_eq!(decode::<Event>(&encode(&ev)), Ok(ev));
        }
    }

    #[test]
    fn event_decode_rejects_bad_tags() {
        let buf = encode(&event(FaultMark::None, None, Direction::Request));
        for (at, what) in [
            (18, "direction"),
            (19, "flags"),
            (22, "corr tag"),
            (31, "fault"),
        ] {
            let mut bad = buf.clone();
            bad[at] = 9;
            assert!(decode::<Event>(&bad).is_err(), "{what}");
        }
        assert!(decode::<Event>(&buf[..10]).is_err(), "truncated");
    }

    /// Encode `smallest`, the type's smallest value, and require that its
    /// length is the type's `MIN_BYTES` and that it reads back.
    fn smallest<T: Wire + PartialEq + std::fmt::Debug>(smallest: T) {
        let bytes = encode(&smallest);
        assert_eq!(bytes.len(), T::MIN_BYTES, "{smallest:?}");
        assert_eq!(decode::<T>(&bytes), Ok(smallest));
    }

    #[test]
    fn each_record_type_s_smallest_value_encodes_to_its_min_bytes() {
        let quiet = Event {
            noise_api: false,
            ..event(FaultMark::None, None, Direction::Request)
        };
        smallest(quiet);
        smallest(event(
            FaultMark::RestError(503),
            Some(42),
            Direction::Response,
        ));
        for mark in [
            FaultMark::None,
            FaultMark::RestError(503),
            FaultMark::RpcError,
        ] {
            smallest(mark);
        }
        // A diagnosis with an operational kind, no matches, no root
        // causes and exact confidence, alone and as a release's one job.
        let bare = Diagnosis {
            kind: FaultKind::Operational {
                status: Some(500),
                rpc: false,
            },
            matched: vec![],
            root_causes: vec![],
            confidence: CaptureConfidence::Exact,
            ..diagnosis(
                FaultKind::Operational {
                    status: None,
                    rpc: false,
                },
                CaptureConfidence::Exact,
                CauseKind::Resource(ResourceKind::ALL[0]),
            )
        };
        smallest(bare.clone());
        let release: Release = (9, vec![(7, vec![bare])]);
        let job = <(u64, Vec<Diagnosis>)>::MIN_BYTES;
        let encoded = encode_release(release.0, &release.1);
        assert_eq!(
            encoded.len(),
            RELEASE_TAG.len() + Release::MIN_BYTES + job + Diagnosis::MIN_BYTES
        );
        assert_eq!(decode_release(&encoded), Ok(release));
        smallest::<Release>((0, vec![]));
        smallest(CaptureConfidence::Exact);
        smallest(FaultKind::Operational {
            status: None,
            rpc: false,
        });
        smallest(CauseKind::Resource(ResourceKind::ALL[0]));
        smallest(RootCause {
            node: NodeId(0),
            cause: CauseKind::Dependency(Dependency::NtpAgent),
            why: String::new(),
        });
        // A delta of no jobs and no entries over no agents: tag, key, next
        // seq and three empty counts.
        let mut empty = vec![0xFF; 9];
        encode_delta(&mut empty, 0, 0, &[], &[], std::iter::empty());
        assert_eq!(empty.len(), CHECKPOINT_TAG.len() + 8 + 8 + 4 + 4 + 4);
        let opened = open_boundary(crate::KIND_DELTA, &empty).expect("opens");
        assert_eq!((opened.from, opened.next_seq), (Some(0), 0));
        assert!(opened.jobs.is_empty());
        assert_eq!(opened.restore_delta(std::iter::empty()), Ok(vec![]));
        // A marked head is fixed-size whichever options the head carries.
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
        smallest((head, FaultMark::RpcError));
        smallest((bare, FaultMark::RestError(503)));
        smallest::<DeltaEntry>((3, bare, FaultMark::None));
        assert_eq!(<(MessageHead, FaultMark)>::MIN_BYTES, 52);
    }
}
