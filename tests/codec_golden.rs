//! Golden bytes for every hand-written byte format in the workspace.
//!
//! Each fixture under `tests/golden/` is the committed hex of one value in
//! one format. [`golden_bytes_are_stable`] asserts both directions —
//! `encode(value) == fixture` and `decode(fixture) == value` — so any
//! drift in a wire, checkpoint or snapshot layout is a test failure, not
//! a silent incompatibility with bytes already on disk.
//! A state format has no `Wire::read`: its fixture restores into a value
//! built from a configuration (as a restarted run builds it) and must
//! write the fixture back.
//!
//! To add or deliberately change a format: run the test, copy the
//! "actual" hex from the failure message into the fixture file, and say
//! why in the commit.
//!
//! [`every_fixture_is_a_case`] keeps the fixture directory and the case
//! table in step: a deleted format cannot leave its fixture behind, and a
//! new fixture cannot skip the sweep.
//!
//! [`hostile_bytes_never_panic`] then breaks every fixture on purpose —
//! every strict prefix, every single-bit flip, every 2- and 4-byte run
//! forced to `0xFF` (which covers every `u16`/`u32` length and count
//! field set to MAX) — and requires each decoder to answer `Ok` or `Err`:
//! no panic, no abort, and no strict prefix accepted. On the two frame
//! fixtures, [`the_frame_view_is_the_owned_decode_under_hostile_bytes`]
//! runs the same sweep through the in-place parser and the owned decode
//! side by side.

use gretel::core::checkpoint::{
    decode_release, encode_checkpoint, encode_delta, encode_release, restore_checkpoint,
    restore_delta, AgentState, DeltaEntry, Marked, Release,
};
use gretel::core::{
    run_service_durable, scan_message, Analyzer, CaptureConfidence, CauseKind, Diagnosis,
    DurableConfig, DurableOutcome, Event, FaultKind, FaultMark, FingerprintLibrary, GretelConfig,
    RecoveryConfig, RootCause, ServiceConfig, KIND_CHECKPOINT, KIND_DIAGNOSES,
};
use gretel::model::codec::{decode, encode, DecodeError, Reader, Wire};
use gretel::model::message::{
    render_rest_request_payload, render_rest_response_payload, render_rpc_payload,
};
use gretel::model::{
    ApiId, Catalog, ConnKey, Dependency, Direction, HttpMethod, Message, MessageHead, MessageId,
    NodeId, OpInstanceId, OpSpecId, ProjectId, Service, WireKind,
};
use gretel::netcap::{decode_one_seq, decode_view, encode_seq, Resequencer};
use gretel::sim::ResourceKind;
use gretel::store::{checksum, records, MemStore, Store, RECORD_HEADER};
use gretel::telemetry::{LevelShiftConfig, LevelShiftDetector, OutlierDetector, SpikeDetector};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// One format under test: the bytes the current code encodes for a fixed
/// value, and a decoder that reports whether arbitrary bytes decode to
/// that same value (`Ok(true)`), to a different value (`Ok(false)`), or
/// are rejected (`Err`).
struct Case {
    name: &'static str,
    encoded: Vec<u8>,
    decode: Box<DecodeFn>,
    /// The `MIN_BYTES` of the [`Wire`] type the format is (0 for the
    /// frame, store and state formats, which are not one `Wire` type).
    min_bytes: usize,
}

type DecodeFn = dyn Fn(&[u8]) -> Result<bool, String>;

fn case<T: PartialEq + 'static>(
    name: &'static str,
    value: T,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<T, String> + 'static,
) -> Case {
    let encoded = encode(&value);
    Case {
        name,
        encoded,
        decode: Box::new(move |bytes| Ok(decode(bytes)? == value)),
        min_bytes: 0,
    }
}

/// A case whose format is one [`Wire`] type, encoded and decoded by it.
fn wire_case<T: Wire + PartialEq + 'static>(name: &'static str, value: T) -> Case {
    Case {
        min_bytes: T::MIN_BYTES,
        ..case(name, value, |v| encode(v), |b| decode(b).map_err(err))
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---- values -------------------------------------------------------------

fn ports_conn() -> ConnKey {
    ConnKey {
        src: NodeId(1),
        src_port: 40_000,
        dst: NodeId(2),
        dst_port: 9696,
    }
}

fn rest_message() -> Message {
    Message {
        id: MessageId(0x0102_0304_0506_0708),
        ts_us: 1_700_000_123_456,
        src_node: NodeId(2),
        dst_node: NodeId(1),
        src_service: Service::Neutron,
        dst_service: Service::Nova,
        api: ApiId(77),
        direction: Direction::Response,
        wire: WireKind::Rest {
            method: HttpMethod::Post,
            uri: "/v2.0/ports.json".into(),
            status: Some(503),
        },
        conn: ports_conn().reversed(),
        payload: render_rest_response_payload(503, "Service Unavailable", 24),
        correlation_id: Some(0xC0FF_EE00_DEAD_BEEF),
        project: Some(ProjectId(0x00AB_CDEF)),
        truth_op: Some(OpInstanceId(9)),
        truth_noise: false,
    }
}

fn rpc_message() -> Message {
    Message {
        id: MessageId(43),
        ts_us: 7,
        src_node: NodeId(4),
        dst_node: NodeId(0),
        src_service: Service::NovaCompute,
        dst_service: Service::Nova,
        api: ApiId(650),
        direction: Direction::Request,
        wire: WireKind::Rpc {
            method: "build_and_run_instance".into(),
            msg_id: 991,
            error: Some("NoValidHost".into()),
        },
        conn: ConnKey {
            src: NodeId(4),
            src_port: 21_000,
            dst: NodeId(0),
            dst_port: 5672,
        },
        payload: render_rpc_payload("build_and_run_instance", 991, Some("NoValidHost"), 16),
        correlation_id: Some(5),
        project: Some(ProjectId(u32::MAX)),
        truth_op: None,
        truth_noise: true,
    }
}

fn event() -> Event {
    Event {
        id: MessageId(0x1122_3344_5566_7788),
        ts: 987_654_321,
        api: ApiId(901),
        direction: Direction::Response,
        is_rpc: true,
        state_change: false,
        noise_api: true,
        src_node: NodeId(3),
        dst_node: NodeId(7),
        corr: Some(0xAABB_CCDD),
        fault: FaultMark::RestError(503),
        gap_before: 9,
    }
}

/// Three diagnoses that between them use every `FaultKind`, `CauseKind`
/// and `CaptureConfidence` variant.
fn diagnoses() -> [Diagnosis; 3] {
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
    [
        mk(
            FaultKind::Operational {
                status: Some(503),
                rpc: false,
            },
            CaptureConfidence::Exact,
            CauseKind::Resource(ResourceKind::DiskFreeGb),
        ),
        mk(
            FaultKind::Operational {
                status: None,
                rpc: true,
            },
            CaptureConfidence::Degraded { gaps: 2, lost: 9 },
            CauseKind::Dependency(Dependency::ServiceProcess(Service::NovaCompute)),
        ),
        mk(
            FaultKind::Performance {
                observed_ms: 123.456,
                baseline_ms: 7.5,
            },
            CaptureConfidence::Cancelled,
            CauseKind::StaleTelemetry {
                stale_resources: vec![ResourceKind::CpuPercent, ResourceKind::NetMbps],
                stale_watchers: vec![Dependency::NtpAgent, Dependency::Libvirt],
            },
        ),
    ]
}

fn catalog() -> std::sync::Arc<Catalog> {
    static CAT: OnceLock<std::sync::Arc<Catalog>> = OnceLock::new();
    CAT.get_or_init(Catalog::openstack).clone()
}

fn ports_post() -> ApiId {
    catalog().rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json")
}

fn servers_get() -> ApiId {
    catalog().rest_expect(Service::Nova, HttpMethod::Get, "/v2.1/servers")
}

fn library() -> &'static FingerprintLibrary {
    static LIB: OnceLock<FingerprintLibrary> = OnceLock::new();
    LIB.get_or_init(|| {
        let (a, b) = (ports_post(), servers_get());
        FingerprintLibrary::from_traces(
            catalog(),
            vec![
                (OpSpecId(0), vec![vec![b, a, b], vec![b, a]]),
                (OpSpecId(1), vec![vec![a, a, b]]),
            ],
        )
    })
}

fn fresh_config() -> GretelConfig {
    GretelConfig {
        alpha: 8,
        ..GretelConfig::default()
    }
}

fn fresh_analyzer() -> Analyzer<'static> {
    Analyzer::new(library(), fresh_config())
}

fn rest_pair_msg(id: u64, ts: u64, api: ApiId, port: u16, status: Option<u16>) -> Message {
    let conn = ConnKey {
        src: NodeId(1),
        src_port: port,
        dst: NodeId(2),
        dst_port: 9696,
    };
    let (direction, conn, payload, src, dst) = match status {
        None => (
            Direction::Request,
            conn,
            render_rest_request_payload(HttpMethod::Post, "/v2.0/ports.json", 8),
            (NodeId(1), Service::Nova),
            (NodeId(2), Service::Neutron),
        ),
        Some(s) => (
            Direction::Response,
            conn.reversed(),
            render_rest_response_payload(s, "x", 8),
            (NodeId(2), Service::Neutron),
            (NodeId(1), Service::Nova),
        ),
    };
    Message {
        id: MessageId(id),
        ts_us: ts,
        src_node: src.0,
        dst_node: dst.0,
        src_service: src.1,
        dst_service: dst.1,
        api,
        direction,
        wire: WireKind::Rest {
            method: HttpMethod::Post,
            uri: "/v2.0/ports.json".into(),
            status,
        },
        conn,
        payload,
        correlation_id: Some(id / 2),
        project: None,
        truth_op: None,
        truth_noise: false,
    }
}

/// An analyzer stopped mid-stream with every block of its state
/// populated: a full window holding a gap-marked event, a snapshot armed
/// by a perf fault that is still pending, an unpaired REST request and an
/// unpaired RPC call (a cast would never enter the pairer),
/// a perf detector past its level shift, an error claimed by an earlier
/// snapshot, a pending gap marker and a mined traffic graph with an error
/// edge.
fn mid_stream_analyzer() -> Analyzer<'static> {
    let mut a = fresh_analyzer();
    let api = ports_post();
    let (mut id, mut ts) = (0u64, 1_000u64);
    // Request/response pairs at 25 ms, one of them a 500 (its snapshot
    // freezes four messages later and claims the error), then a sustained
    // 125 ms level until the level-shift detector confirms.
    for pair in 0u64.. {
        assert!(pair < 60, "the level shift must fire");
        let latency = if pair < 45 { 25_000 } else { 125_000 };
        let status = if pair == 10 { 500 } else { 200 };
        a.ingest(&rest_pair_msg(id, ts, api, 40_000, None));
        a.ingest(&rest_pair_msg(
            id + 1,
            ts + latency,
            api,
            40_000,
            Some(status),
        ));
        id += 2;
        ts += 200_000;
        if a.stats().perf_faults == 1 {
            break;
        }
    }
    // The perf fault armed a snapshot that freezes after α/2 = 4 more
    // messages; stop short of that.
    a.note_capture_gap(2);
    a.ingest(&rest_pair_msg(id, ts, servers_get(), 40_002, None));
    let mut call = rpc_message();
    call.id = MessageId(id + 1);
    call.ts_us = ts + 30;
    call.api = catalog().rpc_expect(Service::NovaCompute, "attach_volume");
    a.ingest(&call);
    a.note_capture_gap(3);
    a
}

fn analyzer_restore(bytes: &[u8]) -> Result<Vec<u8>, String> {
    let mut a = fresh_analyzer();
    a.restore_state(bytes).map_err(err)?;
    Ok(a.export_state().expect("default detectors checkpoint"))
}

fn marked(m: &Message) -> Marked {
    (m.head(), scan_message(m))
}

/// The resequencing depth of every resequencer in the fixtures.
const DEPTH: usize = 4;

/// A resequencer with frames parked behind a gap, as the engine's receiver
/// holds one.
fn parked_resequencer() -> Resequencer<Marked> {
    let mut r = Resequencer::new(DEPTH);
    let mut m = rest_message();
    for seq in [0u64, 2, 3, 5] {
        m.id = MessageId(seq);
        r.push(Some(seq), marked(&m));
    }
    r
}

fn resequencer_state(r: &Resequencer<Marked>) -> Vec<u8> {
    let mut out = Vec::new();
    r.put_state(&mut out);
    out
}

/// `bytes`, which must be exactly one resequencer state, restored into a
/// fresh resequencer of `depth` and exported again.
fn resequencer_restore(depth: usize, bytes: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let mut r = Resequencer::new(depth);
    let mut reader = Reader::new(bytes);
    r.restore(&mut reader)?;
    reader.done()?;
    Ok(resequencer_state(&r))
}

/// Two agents' receiver state: the first parked frames behind a gap in its
/// resequencer and has one released message the merge has not taken yet;
/// the second has one such message, released behind a gap.
fn agents() -> Vec<AgentState> {
    let mut released = Resequencer::new(DEPTH);
    released.push(Some(0), marked(&rpc_message()));
    vec![
        AgentState {
            resequencer: parked_resequencer(),
            ready: [(0, marked(&rest_message()))].into(),
        },
        AgentState {
            resequencer: released,
            ready: [(3, marked(&rpc_message()))].into(),
        },
    ]
}

/// Two agents as a run at `depth` builds them, before any restore.
fn fresh_agents(depth: usize) -> Vec<AgentState> {
    (0..2).map(|_| AgentState::new(depth)).collect()
}

const NEXT_SEQ: u64 = 0x0102_0304;

/// A base over `analyzer` and `agents`.
fn base(analyzer: &Analyzer<'_>, next_seq: u64, agents: &[AgentState]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_checkpoint(&mut out, analyzer, next_seq, agents.iter());
    out
}

fn engine_checkpoint() -> Vec<u8> {
    base(&fresh_analyzer(), NEXT_SEQ, &agents())
}

/// A base restored into a fresh analyzer of α `alpha` and two agents of
/// `depth`, as a restore does, and written again.
fn checkpoint_restore(alpha: usize, depth: usize, bytes: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let mut a = Analyzer::new(
        library(),
        GretelConfig {
            alpha,
            ..fresh_config()
        },
    );
    let mut agents = fresh_agents(depth);
    let next_seq = restore_checkpoint(bytes, &mut a, agents.iter_mut())?;
    Ok(base(&a, next_seq, &agents))
}

/// The delta fixture's continuity key.
const DELTA_FROM: u64 = 0x0A0B_0C0D_0E0F;

/// A delta's three entries — a REST error response behind a gap, an RPC
/// error, and a clean request with neither RPC id nor correlation id.
fn delta_entries() -> Vec<DeltaEntry> {
    let request = MessageHead {
        direction: Direction::Request,
        correlation_id: None,
        ..rest_message().head()
    };
    vec![
        (2, rest_message().head(), scan_message(&rest_message())),
        (0, rpc_message().head(), scan_message(&rpc_message())),
        (0, request, FaultMark::None),
    ]
}

/// A delta from [`DELTA_FROM`] over `entries` and `agents`.
fn delta(next_seq: u64, entries: &[DeltaEntry], agents: &[AgentState]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_delta(&mut out, DELTA_FROM, next_seq, entries, agents.iter());
    out
}

fn engine_delta() -> Vec<u8> {
    delta(NEXT_SEQ, &delta_entries(), &agents())
}

/// A delta, over the two agents of [`agents`], restored into two agents of
/// `depth` as a restore at the delta's continuity key does, and written
/// again.
fn delta_restore(depth: usize, bytes: &[u8]) -> Result<Vec<u8>, String> {
    let mut agents = fresh_agents(depth);
    let (next_seq, entries) = restore_delta(bytes, DELTA_FROM, agents.iter_mut())
        .map_err(err)?
        .ok_or("the delta does not continue the chain")?;
    Ok(delta(next_seq, &entries, &agents))
}

fn detector_state(d: &impl OutlierDetector) -> Vec<u8> {
    let mut out = Vec::new();
    d.put_state(&mut out);
    out
}

/// `bytes`, which must be exactly one detector state, restored into `d`
/// and exported again.
fn detector_restore(mut d: impl OutlierDetector, bytes: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let mut r = Reader::new(bytes);
    d.restore(&mut r)?;
    r.done()?;
    Ok(detector_state(&d))
}

fn fed<D: OutlierDetector + Default>(n: u64) -> Vec<u8> {
    let mut d = D::default();
    for i in 0..n {
        d.update(i, 25.0 + (i % 7) as f64);
    }
    detector_state(&d)
}

fn release() -> Release {
    let [a, b, c] = diagnoses();
    (17, vec![(15, vec![a, b]), (16, vec![]), (17, vec![c])])
}

/// The format tag ahead of a record's [`Wire`] body.
const TAG_BYTES: usize = 4;

/// A case whose value is its own bytes: a state that restores into a value
/// the run's configuration built and is written again.
fn state_case(
    name: &'static str,
    bytes: Vec<u8>,
    restore: impl Fn(&[u8]) -> Result<Vec<u8>, String> + 'static,
) -> Case {
    case(name, bytes, Vec::clone, restore)
}

fn cases() -> Vec<Case> {
    let mut cases = vec![
        case(
            "frame_rest",
            (rest_message(), Some(0x0A0B_0C0D_u64)),
            |(m, seq)| encode_seq(m, seq.unwrap()).to_vec(),
            |b| decode_one_seq(b).map_err(err),
        ),
        case(
            "frame_rpc",
            (rpc_message(), Some(u64::MAX)),
            |(m, seq)| encode_seq(m, seq.unwrap()).to_vec(),
            |b| decode_one_seq(b).map_err(err),
        ),
        wire_case("event", event()),
        state_case(
            "analyzer_state",
            mid_stream_analyzer()
                .export_state()
                .expect("default detectors checkpoint"),
            analyzer_restore,
        ),
        state_case(
            "resequencer_state",
            resequencer_state(&parked_resequencer()),
            |b| resequencer_restore(DEPTH, b).map_err(err),
        ),
        state_case("engine_checkpoint", engine_checkpoint(), |b| {
            checkpoint_restore(fresh_config().alpha, DEPTH, b).map_err(err)
        }),
        state_case("engine_delta", engine_delta(), |b| delta_restore(DEPTH, b)),
        Case {
            min_bytes: TAG_BYTES + Release::MIN_BYTES,
            ..case(
                "release_record",
                release(),
                |(up_to, jobs)| encode_release(*up_to, jobs),
                |b| decode_release(b).map_err(err),
            )
        },
        case(
            "store_record",
            (KIND_DIAGNOSES, b"golden payload".to_vec()),
            |(kind, payload)| {
                let mut store = MemStore::new();
                store.append(*kind, payload).expect("append");
                store.bytes().to_vec()
            },
            |b| {
                let rec = records(b).next().ok_or("no complete record")?;
                if !rec.valid() {
                    return Err("checksum mismatch".into());
                }
                if RECORD_HEADER + rec.payload.len() != b.len() {
                    return Err("trailing bytes".into());
                }
                Ok((rec.kind, rec.payload.to_vec()))
            },
        ),
        state_case(
            "detector_level_shift",
            fed::<LevelShiftDetector>(137),
            |b| detector_restore(LevelShiftDetector::default(), b).map_err(err),
        ),
        state_case("detector_spike", fed::<SpikeDetector>(137), |b| {
            detector_restore(SpikeDetector::default(), b).map_err(err)
        }),
    ];
    for (name, d) in [
        "diagnosis_operational",
        "diagnosis_rpc_degraded",
        "diagnosis_performance",
    ]
    .into_iter()
    .zip(diagnoses())
    {
        cases.push(wire_case(name, d));
    }
    cases
}

// ---- fixtures -----------------------------------------------------------

fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2 + bytes.len() / 32 + 1);
    for chunk in bytes.chunks(32) {
        for b in chunk {
            s.push_str(&format!("{b:02x}"));
        }
        s.push('\n');
    }
    s
}

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/golden/{name}.hex", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    let pairs = digits.chunks_exact(2);
    assert!(
        pairs.remainder().is_empty(),
        "{path}: odd number of hex digits"
    );
    pairs
        .map(|d| {
            let s = std::str::from_utf8(d).expect("ascii");
            u8::from_str_radix(s, 16).unwrap_or_else(|_| panic!("{path}: bad hex {s:?}"))
        })
        .collect()
}

#[test]
fn golden_bytes_are_stable() {
    for c in cases() {
        let golden = fixture(c.name);
        assert!(
            c.encoded == golden,
            "{}: encoding drifted from tests/golden/{}.hex; actual:\n{}",
            c.name,
            c.name,
            to_hex(&c.encoded)
        );
        assert_eq!(
            (c.decode)(&golden),
            Ok(true),
            "{}: fixture must decode to the value",
            c.name
        );
    }
}

#[test]
fn every_fixture_is_a_case() {
    let dir = format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"));
    let stems: BTreeSet<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "hex"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    let names: BTreeSet<String> = cases().iter().map(|c| c.name.to_string()).collect();
    assert_eq!(
        stems, names,
        "tests/golden/*.hex and cases() must name the same formats"
    );
}

#[test]
fn fixtures_cover_the_interesting_state() {
    // The analyzer fixture is only worth sweeping if every block is
    // populated; pin that here so a later edit cannot hollow it out.
    let mut a = mid_stream_analyzer();
    let s = a.stats();
    assert_eq!(
        (s.rest_errors, s.snapshots, s.perf_faults, s.capture_gaps),
        (1, 1, 1, 2)
    );
    let jobs = a.finish_jobs_observed(None);
    assert_eq!(jobs.len(), 1, "one snapshot is still armed");
    assert!(jobs[0].snapshot().events.iter().any(|e| e.gap_before == 2));
    let perf = a.snapshot_analyzer().analyze(&jobs[0]);
    assert!(
        perf.iter()
            .any(|d| matches!(d.kind, FaultKind::Performance { .. })),
        "with the perf fault pending on it"
    );
    assert_eq!(parked_resequencer().flush().len(), 3, "frames are parked");
    let agents = agents();
    assert!(agents.len() >= 2 && agents.iter().all(|a| !a.ready.is_empty()));
    let marks: BTreeSet<String> = delta_entries()
        .iter()
        .map(|(_, _, mark)| format!("{mark:?}"))
        .collect();
    assert_eq!(marks.len(), 3, "every fault mark: {marks:?}");
    assert_eq!(fixture("event").len(), 38);
    assert_eq!(
        fixture("store_record").len(),
        RECORD_HEADER + b"golden payload".len()
    );
}

/// Decode hostile bytes, turning a decoder panic into a test failure
/// that names the case and the mutation. (An allocation-failure abort
/// cannot be caught; it fails the whole test binary, which is the point.)
fn decode_hostile(c: &Case, bytes: &[u8], what: impl Fn() -> String) -> Result<bool, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (c.decode)(bytes)))
        .unwrap_or_else(|_| panic!("{}: decoder panicked on {}", c.name, what()))
}

/// One way [`mutations`] breaks a fixture.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Only the first this many bytes.
    Prefix(usize),
    /// `(bit, byte)`: one bit flipped.
    Flip(u8, usize),
    /// `(width, at)`: a run of bytes forced to `0xFF`.
    Saturate(usize, usize),
    /// The 4 bytes at this offset set to the number of bytes after them:
    /// the largest count a sequence of 1-byte items could pass.
    Inflate(usize),
}

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mutation::Prefix(keep) => write!(f, "the first {keep} bytes"),
            Mutation::Flip(bit, i) => write!(f, "bit {bit} of byte {i} flipped"),
            Mutation::Saturate(width, i) => write!(f, "{width} bytes at {i} set to 0xFF"),
            Mutation::Inflate(i) => write!(f, "4 bytes at {i} set to the bytes after them"),
        }
    }
}

/// Hand `visit` every strict prefix of `golden`, every single-bit flip of
/// it, every 2- and 4-byte run of it forced to `0xFF`, and every 4-byte
/// window of it set to the number of bytes after it; returns how many.
fn mutations(golden: &[u8], mut visit: impl FnMut(&[u8], Mutation)) -> usize {
    let mut visits = 0;
    let mut visit = |bytes: &[u8], m| {
        visits += 1;
        visit(bytes, m);
    };
    for keep in 0..golden.len() {
        visit(&golden[..keep], Mutation::Prefix(keep));
    }
    let mut bytes = golden.to_vec();
    for i in 0..golden.len() {
        for bit in 0..8 {
            bytes[i] ^= 1 << bit;
            visit(&bytes, Mutation::Flip(bit, i));
            bytes[i] = golden[i];
        }
        for width in [2usize, 4] {
            let end = (i + width).min(golden.len());
            bytes[i..end].fill(0xFF);
            visit(&bytes, Mutation::Saturate(width, i));
            bytes[i..end].copy_from_slice(&golden[i..end]);
        }
        if let Some(after) = golden.len().checked_sub(i + 4) {
            bytes[i..i + 4].copy_from_slice(&(after as u32).to_le_bytes());
            visit(&bytes, Mutation::Inflate(i));
            bytes[i..i + 4].copy_from_slice(&golden[i..i + 4]);
        }
    }
    visits
}

// ---- the record checksum --------------------------------------------------

/// xxHash64 with seed 0, written for reading rather than speed: every word
/// is assembled byte by byte from an explicit index, so it shares no word
/// load, stripe iterator or tail split with [`checksum`].
fn reference_checksum(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    const P4: u64 = 0x85eb_ca77_c2b2_ae63;
    const P5: u64 = 0x27d4_eb2f_1656_67c5;
    let le = |at: usize, n: usize| {
        (0..n)
            .rev()
            .fold(0u64, |w, i| (w << 8) | u64::from(bytes[at + i]))
    };
    let round = |acc: u64, w: u64| {
        acc.wrapping_add(w.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    };
    let len = bytes.len();
    let mut at = 0;
    let mut h = P5;
    if len >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        while at + 32 <= len {
            for (lane, acc) in v.iter_mut().enumerate() {
                *acc = round(*acc, le(at + 8 * lane, 8));
            }
            at += 32;
        }
        h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for acc in v {
            h = (h ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4);
        }
    }
    h = h.wrapping_add(len as u64);
    while at + 8 <= len {
        h ^= round(0, le(at, 8));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        at += 8;
    }
    if at + 4 <= len {
        h ^= le(at, 4).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        at += 4;
    }
    while at < len {
        h ^= u64::from(bytes[at]).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
        at += 1;
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Deterministic, non-repeating payload material.
fn noise(n: usize) -> Vec<u8> {
    (0..n as u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8 ^ i as u8)
        .collect()
}

/// One record of `payload`, as a store writes it.
fn record_bytes(payload: &[u8]) -> Vec<u8> {
    let mut store = MemStore::new();
    store.append(KIND_DIAGNOSES, payload).expect("append");
    store.bytes().to_vec()
}

/// Every stripe, word, half-word and byte path of the word-at-a-time
/// checksum, at every alignment of the slice it reads, equals the
/// byte-by-byte reference; and the record header carries exactly that sum.
#[test]
fn the_record_checksum_matches_a_bytewise_reference_at_every_length_and_offset() {
    // Published xxHash64 (seed 0) values: the reference is the real hash.
    for (input, sum) in [
        (&b""[..], 0xef46_db37_51d8_e999),
        (b"a", 0xd24e_c4f1_a98c_6e5b),
        (b"abc", 0x44bc_2cf5_ad77_0999),
        (
            b"Nobody inspects the spammish repetition",
            0xfbce_a83c_8a37_8bf1,
        ),
    ] {
        assert_eq!(reference_checksum(input), sum, "{input:?}");
        assert_eq!(checksum(input), sum, "{input:?}");
    }
    let buf = noise(130 + 8);
    for len in 0..=130 {
        for off in 0..8 {
            let payload = &buf[off..off + len];
            let sum = checksum(payload);
            assert_eq!(
                sum,
                reference_checksum(payload),
                "length {len}, offset {off}"
            );
            if off == 0 {
                let rec = record_bytes(payload);
                assert_eq!(rec[4..12], sum.to_le_bytes(), "length {len}");
            }
        }
    }
}

/// The checksum sees every one- and two-bit corruption of a 40-byte
/// payload (one stripe plus one tail word), and a record whose payload
/// took a one-bit flip no longer verifies.
#[test]
fn every_one_and_two_bit_flip_of_a_payload_changes_its_checksum() {
    let payload = noise(40);
    let sum = checksum(&payload);
    let bits = payload.len() * 8;
    let flip = |bytes: &mut [u8], bit: usize| bytes[bit / 8] ^= 1 << (bit % 8);
    let rec = record_bytes(&payload);
    for i in 0..bits {
        let mut once = payload.clone();
        flip(&mut once, i);
        assert_ne!(checksum(&once), sum, "bit {i}");
        let mut bad = rec.clone();
        flip(&mut bad[RECORD_HEADER..], i);
        assert!(!records(&bad).next().expect("a record").valid(), "bit {i}");
        for j in i + 1..bits {
            let mut twice = once.clone();
            flip(&mut twice, j);
            assert_ne!(checksum(&twice), sum, "bits {i} and {j}");
        }
    }
}

/// A record cut anywhere is not yielded at all; one whose length prefix
/// was rewritten to match a shortened payload is yielded and fails its
/// checksum.
#[test]
fn every_truncation_of_a_record_is_rejected() {
    let payload = noise(40);
    let rec = record_bytes(&payload);
    assert_eq!(rec.len(), RECORD_HEADER + payload.len());
    for cut in 0..rec.len() {
        assert!(records(&rec[..cut]).next().is_none(), "cut at {cut}");
        assert!(MemStore::from_bytes(rec[..cut].to_vec()).is_empty());
    }
    for keep in 0..payload.len() {
        let mut short = rec[..RECORD_HEADER + keep].to_vec();
        short[..4].copy_from_slice(&(keep as u32).to_le_bytes());
        let r = records(&short).next().expect("a complete record");
        assert_eq!(r.payload, &payload[..keep]);
        assert!(!r.valid(), "payload cut to {keep} bytes");
    }
}

/// A `MIN_BYTES` above some real value's encoding would refuse that value
/// inside any sequence: every golden value encodes to at least its type's
/// bound. (That each type's smallest value encodes to exactly its bound is
/// tested next to the type.)
#[test]
fn every_golden_value_is_at_least_its_types_min_bytes() {
    for c in cases() {
        assert!(
            c.encoded.len() >= c.min_bytes,
            "{}: {} bytes, MIN_BYTES {}",
            c.name,
            c.encoded.len(),
            c.min_bytes
        );
    }
}

#[test]
fn hostile_bytes_never_panic() {
    let mut decodes = 0usize;
    for c in cases() {
        decodes += mutations(&fixture(c.name), |bytes, m| {
            let got = decode_hostile(&c, bytes, || m.to_string());
            if let Mutation::Prefix(keep) = m {
                assert!(
                    got.is_err(),
                    "{}: strict prefix of {keep} bytes decoded {got:?}",
                    c.name
                );
            }
        });
    }
    assert!(
        decodes > 30_000,
        "the sweep covers every fixture ({decodes} decodes)"
    );
}

/// The in-place parse and the owned decode of a capture frame are one
/// parser: on both frame fixtures and every hostile mutation of them, they
/// fail with the same error or agree on the head, payload and sequence
/// number.
#[test]
fn the_frame_view_is_the_owned_decode_under_hostile_bytes() {
    for name in ["frame_rest", "frame_rpc"] {
        let golden = fixture(name);
        let mut parsed = 0usize;
        let mut check =
            |bytes: &[u8], m: Mutation| match (decode_view(bytes), decode_one_seq(bytes)) {
                (Ok(view), Ok((msg, seq))) => {
                    assert_eq!(view.head, msg.head(), "{name}, {m}");
                    assert_eq!(view.payload, &msg.payload[..], "{name}, {m}");
                    assert_eq!(view.seq, seq, "{name}, {m}");
                    parsed += 1;
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{name}, {m}"),
                (view, owned) => panic!("{name}, {m}: view {view:?}, owned {owned:?}"),
            };
        check(&golden, Mutation::Prefix(golden.len()));
        let swept = mutations(&golden, &mut check);
        // Flips in ids, timestamps, ports and payload bytes still parse.
        assert!(parsed > swept / 4, "{name}: {parsed} of {swept} parsed");
    }
}

/// The base fixture restores through the engine's own restore path: a
/// durable run over a store holding only that record resumes from it, with
/// both agents' resequencers, and merges every message they had parked.
#[test]
fn the_base_fixture_restores_through_the_engine() {
    let mut store = MemStore::new();
    store
        .append(KIND_CHECKPOINT, &fixture("engine_checkpoint"))
        .expect("append");
    let recovery = |resequence_depth| RecoveryConfig {
        service: ServiceConfig {
            resequence_depth,
            ..ServiceConfig::default()
        },
        ..RecoveryConfig::default()
    };
    let nodes = [NodeId(0), NodeId(1)];
    let run = |depth, store: &mut MemStore| {
        let cfg = DurableConfig {
            recovery: recovery(depth),
            kill_point: None,
        };
        run_service_durable(library(), fresh_config(), &nodes, &[], &cfg, store)
    };
    // A run at another depth does not adopt the fixture's: it refuses it.
    let other = ServiceConfig::default().resequence_depth;
    assert_ne!(other, DEPTH);
    match run(other, &mut MemStore::from_bytes(store.bytes().to_vec())) {
        Err(e) => assert!(e.to_string().contains("resequencer depth"), "{e}"),
        Ok(_) => panic!("a base written at depth {DEPTH} restored at depth {other}"),
    }
    let out = run(DEPTH, &mut store).expect("the base fixture restores");
    let DurableOutcome::Completed {
        recovery, analyzer, ..
    } = out
    else {
        panic!("no kill point was set");
    };
    assert_eq!(recovery.restores, 1);
    // Agent 0: three parked behind its gap and one released; agent 1: one
    // released.
    assert_eq!(analyzer.messages, 5);
}

/// The checkpoint from ISSUE 14: a valid analyzer state whose armed-
/// snapshot count is overwritten with `u32::MAX` used to size a
/// `Vec::with_capacity` and abort the process.
#[test]
fn inflated_armed_count_is_an_error_and_the_analyzer_stays_usable() {
    let state = fixture("analyzer_state");
    // alpha u64 | n u32 | n events | n_armed u32
    let n = Reader::new(&state[8..]).u32().unwrap() as usize;
    let armed_at = 12 + n * 38;
    assert_eq!(
        state[armed_at..armed_at + 4],
        1u32.to_le_bytes(),
        "the armed count"
    );
    let mut bad = state.clone();
    bad[armed_at..armed_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut a = mid_stream_analyzer();
    assert!(a.restore_state(&bad).is_err());
    // Also the window count itself, which α bounds but bytes must back.
    let mut bad = state.clone();
    bad[0..8].copy_from_slice(&(1u64 << 24).to_le_bytes());
    bad[8..12].copy_from_slice(&(1u32 << 24).to_le_bytes());
    assert!(a.restore_state(&bad).is_err());
    // A failed restore changed nothing.
    assert_eq!(a.export_state().expect("exports"), state);
}

/// A checkpoint record in the layout before the format tag (the tagged
/// fixture without its first four bytes), and one whose tag names another
/// version — the three before this layout included — fail on the tag
/// rather than on some later field. Version 3 listed the claimed errors
/// where this layout holds one claim watermark, so read field by field a
/// version 3 base would take a count for the watermark. A delta fails the
/// same way, and so does a release record without its own tag or with
/// another version of it.
#[test]
fn a_checkpoint_without_this_format_tag_is_rejected() {
    let format = DecodeError::Invalid("checkpoint format");
    let golden = fixture("engine_checkpoint");
    let restore = |bytes: &[u8]| {
        let mut agents = fresh_agents(DEPTH);
        restore_checkpoint(bytes, &mut fresh_analyzer(), agents.iter_mut())
    };
    assert_eq!(restore(&golden), Ok(NEXT_SEQ));
    assert_eq!(restore(&golden[4..]), Err(format), "untagged layout");
    for version in [1u8, 2, 3, 5] {
        let mut other = golden.clone();
        other[3] = version;
        assert_eq!(restore(&other), Err(format), "version {version}");
    }
    for version in [2u8, 3] {
        let mut delta = fixture("engine_delta");
        delta[3] = version;
        let mut agents = fresh_agents(DEPTH);
        let got = restore_delta(&delta, DELTA_FROM, agents.iter_mut());
        assert_eq!(got, Err(format), "delta version {version}");
    }

    let release = fixture("release_record");
    assert_eq!(decode_release(&release), Ok(self::release()));
    let format = Err(DecodeError::Invalid("release format"));
    assert_eq!(decode_release(&release[4..]), format, "untagged release");
    for version in [0u8, 2] {
        let mut other = release.clone();
        other[3] = version;
        assert_eq!(decode_release(&other), format, "release version {version}");
    }
}

/// No state adopts a setting from its bytes. Every golden state fixture is
/// restored into values built with perturbed settings — α ×2 and ÷2, the
/// resequencing depth ±1, each level-shift window ±1 — and each case is
/// `Invalid`, or restores into a value that keeps the run's setting.
#[test]
fn a_state_restores_only_under_the_settings_that_wrote_it() {
    let invalid = |what: &str, got: Result<Vec<u8>, DecodeError>| match got {
        Err(DecodeError::Invalid(_)) => {}
        other => panic!("{what}: {other:?}"),
    };
    let (alpha, state) = (fresh_config().alpha, fixture("analyzer_state"));
    let base = fixture("engine_checkpoint");
    for other in [alpha * 2, alpha / 2] {
        let mut a = Analyzer::new(
            library(),
            GretelConfig {
                alpha: other,
                ..fresh_config()
            },
        );
        let got = a.restore_state(&state).map(|()| Vec::new());
        invalid(&format!("analyzer state at α {other}"), got);
        assert_eq!(a.alpha(), other);
        invalid(
            &format!("base at α {other}"),
            checkpoint_restore(other, DEPTH, &base),
        );
    }
    let parked = fixture("resequencer_state");
    let delta = fixture("engine_delta");
    for depth in [DEPTH - 1, DEPTH + 1] {
        invalid(
            &format!("resequencer at depth {depth}"),
            resequencer_restore(depth, &parked),
        );
        invalid(
            &format!("base at depth {depth}"),
            checkpoint_restore(alpha, depth, &base),
        );
        match delta_restore(depth, &delta) {
            Err(e) => assert!(
                e.contains("resequencer depth"),
                "delta at depth {depth}: {e}"
            ),
            Ok(_) => panic!("delta restored at depth {depth}"),
        }
    }
    let defaults = LevelShiftConfig::default();
    let (b, t) = (defaults.baseline_window, defaults.test_window);
    let detector = fixture("detector_level_shift");
    let mut restored = 0;
    for (baseline_window, test_window) in [(b - 1, t), (b + 1, t), (b, t - 1), (b, t + 1)] {
        let cfg = LevelShiftConfig {
            baseline_window,
            test_window,
        };
        let what = format!("level-shift state at {cfg:?}");
        let mut d = LevelShiftDetector::new(cfg);
        let mut r = Reader::new(&detector);
        match d.restore(&mut r).and_then(|()| r.done()) {
            Err(e) => invalid(&what, Err(e)),
            Ok(()) => {
                assert!(format!("{d:?}").contains(&format!("{cfg:?}")), "{what}");
                restored += 1;
            }
        }
        let mut analyzer = Analyzer::with_perf_config(library(), fresh_config(), cfg, false);
        match analyzer.restore_state(&state) {
            Err(e) => invalid(&format!("analyzer {what}"), Err(e)),
            Ok(()) => assert_eq!(analyzer.export_state().as_ref(), Some(&state)),
        }
    }
    assert!(restored >= 1, "a wider window holds the narrower state");
}

/// The seeded keyings every schedule, coin and shard assignment depends
/// on, pinned to the values they had before the finalizer copies were
/// folded into one.
#[test]
fn hash_keyings_are_pinned() {
    use gretel::netcap::{degrade, mix64, shard_of, Degradation};
    use gretel::sim::splitmix64;
    assert_eq!(splitmix64(0, 0, 0), 0xd9b4_4a58_3647_07bc);
    assert_eq!(splitmix64(42, 7, 3), 0xc974_4e51_1a29_6081);
    assert_eq!(
        splitmix64(u64::MAX, 1 << 40, 0xDEAD_BEEF),
        0x6bfc_be62_c8f6_4129
    );
    assert_eq!(mix64(0, 0, 0, 5), 0x2ba2_3c21_976b_ecb8);
    assert_eq!(mix64(42, 7, 3, 5), 0x8a4e_2926_aedd_9651);
    assert_eq!(
        mix64(u64::MAX, 1 << 40, 0xDEAD_BEEF, 5),
        0x4388_7222_a85b_7219
    );
    let shards: Vec<usize> = (0..16).map(|p| shard_of(Some(ProjectId(p)), 8)).collect();
    assert_eq!(shards, [1, 6, 5, 2, 2, 0, 7, 6, 4, 2, 5, 3, 7, 6, 5, 7]);
    assert_eq!(shard_of(None, 8), 7);
    let traffic: Vec<Message> = (0..32)
        .map(|i| Message {
            id: MessageId(i),
            ..rpc_message()
        })
        .collect();
    let kept: Vec<u64> = degrade(
        &traffic,
        Degradation {
            drop_prob: 0.5,
            seed: 9,
        },
        false,
    )
    .iter()
    .map(|m| m.id.0)
    .collect();
    assert_eq!(
        kept,
        [0, 4, 5, 6, 9, 10, 13, 16, 17, 19, 20, 24, 25, 26, 28, 29, 30, 31]
    );
}
