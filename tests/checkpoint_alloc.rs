//! Exporting the analyzer's state for a base checkpoint costs a fixed
//! handful of allocations, however many per-API detectors it holds: every
//! block — the window, the pairer, each detector — writes straight into
//! the one output buffer. A counting global allocator watches
//! `Analyzer::export_state` at a full window with one detector and with
//! several hundred, and bounds what `restore_state` allocates per detector.
//!
//! The count is per thread, so the test harness's own threads cannot leak
//! into it.

use gretel::core::{Analyzer, FingerprintLibrary, GretelConfig};
use gretel::model::{
    ApiId, ApiKind, Catalog, ConnKey, Direction, HttpMethod, Message, MessageId, NodeId, RpcStyle,
    Service, WireKind,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation the
/// calling thread makes.
struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocations();
    let out = f();
    (allocations() - before, out)
}

const ALPHA: usize = 1024;

/// The most allocations one export may make, whatever the detector count.
const EXPORT_BOUND: u64 = 32;

/// A REST request or its response on `api`, over a connection of its own.
fn message(id: u64, api: ApiId, response: bool) -> Message {
    let conn = ConnKey {
        src: NodeId(1),
        src_port: api.0,
        dst: NodeId(2),
        dst_port: 9696,
    };
    Message {
        id: MessageId(id),
        ts_us: id * 100,
        src_node: NodeId(1),
        dst_node: NodeId(2),
        src_service: Service::Nova,
        dst_service: Service::Neutron,
        api,
        direction: if response {
            Direction::Response
        } else {
            Direction::Request
        },
        wire: WireKind::Rest {
            method: HttpMethod::Get,
            uri: "/v2.0/ports.json".into(),
            status: response.then_some(200),
        },
        conn: if response { conn.reversed() } else { conn },
        payload: Vec::new(),
        correlation_id: None,
        project: None,
        truth_op: None,
        truth_noise: false,
    }
}

/// An analyzer with a full window of α 1024 and one latency detector per
/// API on `detectors` APIs, each past its baseline.
fn analyzer(lib: &FingerprintLibrary, detectors: usize) -> Analyzer<'_> {
    let apis: Vec<ApiId> = lib
        .catalog()
        .iter()
        .filter(|d| d.noise.is_none())
        .filter(|d| {
            !matches!(
                d.kind,
                ApiKind::Rpc {
                    style: RpcStyle::Cast,
                    ..
                }
            )
        })
        .map(|d| d.id)
        .take(detectors)
        .collect();
    assert_eq!(apis.len(), detectors, "the catalog has that many APIs");
    let mut a = Analyzer::new(
        lib,
        GretelConfig {
            alpha: ALPHA,
            ..GretelConfig::default()
        },
    );
    let rounds = 48.max(ALPHA / (2 * detectors) + 1) as u64;
    let mut id = 0;
    for _ in 0..rounds {
        for &api in &apis {
            a.ingest(&message(id, api, false));
            a.ingest(&message(id + 1, api, true));
            id += 2;
        }
    }
    a
}

#[test]
fn exporting_a_full_window_allocates_a_fixed_handful() {
    let lib = FingerprintLibrary::from_traces(Catalog::openstack(), Vec::new());
    let mut exports = Vec::new();
    for detectors in [1, 300] {
        let a = analyzer(&lib, detectors);
        let (n, state) = counted(|| a.export_state().expect("default detectors checkpoint"));
        assert!(
            n <= EXPORT_BOUND,
            "{detectors} detectors: export made {n} allocations"
        );
        // The state holds the full window and every detector.
        assert!(
            state.len() > ALPHA * 38 + detectors * 300,
            "{}",
            state.len()
        );

        // Restore allocates per detector (each is built by the run's
        // factory and owns its two windows), not per byte.
        let mut fresh = Analyzer::new(
            &lib,
            GretelConfig {
                alpha: ALPHA,
                ..GretelConfig::default()
            },
        );
        let (n, restored) = counted(|| fresh.restore_state(&state));
        restored.expect("own state restores");
        assert!(
            n <= 3 * detectors as u64 + EXPORT_BOUND,
            "{detectors} detectors: restore made {n} allocations"
        );
        assert_eq!(fresh.export_state().as_ref(), Some(&state));
        exports.push(state.len());
    }
    assert!(exports[1] > exports[0], "{exports:?}");
}
