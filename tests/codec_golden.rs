//! Golden bytes for every hand-written byte format in the workspace.
//!
//! Each fixture under `tests/golden/` is the committed hex of one value in
//! one format. [`golden_bytes_are_stable`] asserts both directions —
//! `encode(value) == fixture` and `decode(fixture) == value` — so any
//! drift in a wire, checkpoint or snapshot layout is a test failure, not
//! a silent incompatibility with bytes already on disk.
//!
//! To add or deliberately change a format: run the test, copy the
//! "actual" hex from the failure message into the fixture file, and say
//! why in the commit.
//!
//! [`hostile_bytes_never_panic`] then breaks every fixture on purpose —
//! every strict prefix, every single-bit flip, every 2- and 4-byte run
//! forced to `0xFF` (which covers every `u16`/`u32` length and count
//! field set to MAX) — and requires each decoder to answer `Ok` or `Err`:
//! no panic, no abort, and no strict prefix accepted.

use gretel::core::checkpoint::{
    decode_release, encode_release, put_diagnosis, put_event, read_diagnosis, read_event,
};
use gretel::core::{
    Analyzer, CaptureConfidence, CauseKind, Diagnosis, Event, FaultKind, FaultMark,
    FingerprintLibrary, GretelConfig, RootCause, KIND_DIAGNOSES,
};
use gretel::model::codec::Reader;
use gretel::model::message::{
    render_rest_request_payload, render_rest_response_payload, render_rpc_payload,
};
use gretel::model::{
    ApiId, Catalog, ConnKey, Dependency, Direction, HttpMethod, Message, MessageId, NodeId,
    OpInstanceId, OpSpecId, ProjectId, Service, WireKind,
};
use gretel::netcap::{decode_one_seq, encode_seq, Resequencer};
use gretel::sim::ResourceKind;
use gretel::store::{records, MemStore, Store, RECORD_HEADER};
use gretel::telemetry::{EwmaDetector, LevelShiftDetector, OutlierDetector, SpikeDetector};
use std::sync::OnceLock;

/// One format under test: the bytes the current code encodes for a fixed
/// value, and a decoder that reports whether arbitrary bytes decode to
/// that same value (`Ok(true)`), to a different value (`Ok(false)`), or
/// are rejected (`Err`).
struct Case {
    name: &'static str,
    encoded: Vec<u8>,
    decode: Box<DecodeFn>,
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

fn fresh_analyzer() -> Analyzer<'static> {
    let cfg = GretelConfig {
        alpha: 8,
        ..GretelConfig::default()
    };
    Analyzer::new(library(), cfg).with_auto_alpha(2.0, 60_000_000)
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
/// by a perf fault that is still pending, unpaired REST and RPC requests,
/// a perf detector past its level shift, an error claimed by an earlier
/// snapshot, a pending gap marker, auto-α tracking and a mined traffic
/// graph with an error edge.
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
    call.api = catalog().rpc_expect(Service::NovaCompute, "build_and_run_instance");
    a.ingest(&call);
    a.note_capture_gap(3);
    a
}

fn analyzer_restore(bytes: &[u8]) -> Result<Vec<u8>, String> {
    let mut a = fresh_analyzer();
    a.restore_state(bytes).map_err(err)?;
    Ok(a.export_state().expect("default detectors checkpoint"))
}

fn parked_resequencer() -> Resequencer {
    let mut r = Resequencer::new(4);
    let mut m = rest_message();
    for seq in [0u64, 2, 3, 5] {
        m.id = MessageId(seq);
        r.push(Some(seq), m.clone());
    }
    r
}

fn detector_restore<D: OutlierDetector + Default>(bytes: &[u8]) -> Result<Vec<u8>, String> {
    let mut d = D::default();
    d.import_state(bytes).map_err(err)?;
    Ok(d.export_state().expect("built-in detectors checkpoint"))
}

fn fed<D: OutlierDetector + Default>(n: u64) -> Vec<u8> {
    let mut d = D::default();
    for i in 0..n {
        d.update(i, 25.0 + (i % 7) as f64);
    }
    d.export_state().expect("built-in detectors checkpoint")
}

fn release() -> gretel::core::checkpoint::Release {
    let [a, b, c] = diagnoses();
    (17, vec![(15, vec![a, b]), (16, vec![]), (17, vec![c])])
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
        case(
            "event",
            event(),
            |ev| {
                let mut out = Vec::new();
                put_event(&mut out, ev);
                out
            },
            |b| {
                let mut r = Reader::new(b);
                let ev = read_event(&mut r).map_err(err)?;
                r.done().map_err(err)?;
                Ok(ev)
            },
        ),
        case(
            "analyzer_state",
            mid_stream_analyzer()
                .export_state()
                .expect("default detectors checkpoint"),
            Vec::clone,
            analyzer_restore,
        ),
        case(
            "resequencer_state",
            parked_resequencer().export_state(),
            Vec::clone,
            |b| Ok(Resequencer::restore_state(b).map_err(err)?.export_state()),
        ),
        case(
            "fingerprint_snapshot",
            library().iter().cloned().collect::<Vec<_>>(),
            |_| library().to_snapshot(),
            |b| {
                let lib = FingerprintLibrary::from_snapshot(catalog(), b).map_err(err)?;
                Ok(lib.iter().cloned().collect())
            },
        ),
        case(
            "release_record",
            release(),
            |(up_to, jobs)| encode_release(*up_to, jobs),
            |b| decode_release(b).map_err(err),
        ),
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
        case(
            "detector_level_shift",
            fed::<LevelShiftDetector>(137),
            Vec::clone,
            detector_restore::<LevelShiftDetector>,
        ),
        case(
            "detector_ewma",
            fed::<EwmaDetector>(137),
            Vec::clone,
            detector_restore::<EwmaDetector>,
        ),
        case(
            "detector_spike",
            fed::<SpikeDetector>(137),
            Vec::clone,
            detector_restore::<SpikeDetector>,
        ),
    ];
    for (name, d) in [
        "diagnosis_operational",
        "diagnosis_rpc_degraded",
        "diagnosis_performance",
    ]
    .into_iter()
    .zip(diagnoses())
    {
        cases.push(case(
            name,
            d,
            |d| {
                let mut out = Vec::new();
                put_diagnosis(&mut out, d);
                out
            },
            |b| {
                let mut r = Reader::new(b);
                let d = read_diagnosis(&mut r).map_err(err)?;
                r.done().map_err(err)?;
                Ok(d)
            },
        ));
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

#[test]
fn hostile_bytes_never_panic() {
    let mut decodes = 0usize;
    for c in cases() {
        let golden = fixture(c.name);
        for keep in 0..golden.len() {
            let got = decode_hostile(&c, &golden[..keep], || format!("prefix {keep}"));
            assert!(
                got.is_err(),
                "{}: strict prefix of {keep} bytes decoded {got:?}",
                c.name
            );
        }
        let mut bytes = golden.clone();
        for i in 0..golden.len() {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                let _ = decode_hostile(&c, &bytes, || format!("bit {bit} of byte {i} flipped"));
                bytes[i] = golden[i];
            }
            for width in [2usize, 4] {
                let end = (i + width).min(golden.len());
                bytes[i..end].fill(0xFF);
                let _ = decode_hostile(&c, &bytes, || format!("{width} bytes at {i} set to 0xFF"));
                bytes[i..end].copy_from_slice(&golden[i..end]);
            }
        }
        decodes += golden.len() * 11;
    }
    assert!(
        decodes > 30_000,
        "the sweep covers every fixture ({decodes} decodes)"
    );
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
