//! The receiver's per-frame work allocates nothing: taking a frame out of a
//! batch arena, parsing it in place with `decode_view` and scanning its
//! borrowed payload. A counting global allocator watches a 64-frame batch
//! go through it.
//!
//! The count is per thread, so the test harness's own threads cannot leak
//! into it.

use gretel::core::{scan_frame, FaultMark};
use gretel::model::message::{render_rest_response_payload, render_rpc_payload};
use gretel::model::{
    ApiId, ConnKey, Direction, HttpMethod, Message, MessageId, NodeId, ProjectId, Service, WireKind,
};
use gretel::netcap::{decode_view, FrameBatch, FrameBatchBuilder};
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

/// Frame `i` of the batch: REST responses, some of them errors, and RPC
/// calls, some of them carrying an exception.
fn message(i: u64) -> Message {
    let wire = if i.is_multiple_of(2) {
        WireKind::Rest {
            method: HttpMethod::Post,
            uri: format!("/v2.0/ports/{i}.json"),
            status: Some(if i.is_multiple_of(8) { 503 } else { 201 }),
        }
    } else {
        WireKind::Rpc {
            method: "build_and_run_instance".into(),
            msg_id: i,
            error: (i % 4 == 1).then(|| "NoValidHost".into()),
        }
    };
    let payload = match &wire {
        WireKind::Rest { status, .. } => {
            render_rest_response_payload(status.unwrap_or(200), "reason", 64)
        }
        WireKind::Rpc { method, error, .. } => render_rpc_payload(method, i, error.as_deref(), 64),
    };
    Message {
        id: MessageId(i),
        ts_us: 1_000 + i,
        src_node: NodeId(1),
        dst_node: NodeId(2),
        src_service: Service::Neutron,
        dst_service: Service::Nova,
        api: ApiId(77),
        direction: Direction::Response,
        wire,
        conn: ConnKey::default(),
        payload,
        correlation_id: Some(i),
        project: Some(ProjectId(3)),
        truth_op: None,
        truth_noise: false,
    }
}

fn batch_of_64() -> FrameBatch {
    let mut builder = FrameBatchBuilder::new(64);
    let batches: Vec<FrameBatch> = (0..64)
        .filter_map(|i| builder.encode(&message(i), Some(i)))
        .collect();
    let [batch] = <[FrameBatch; 1]>::try_from(batches).expect("64 frames fill one batch");
    batch
}

#[test]
fn parsing_a_batch_in_place_allocates_nothing() {
    let batch = batch_of_64();
    let mut marks = [FaultMark::None; 64];
    let before = allocations();
    for (i, (frame, mark)) in batch.iter().zip(&mut marks).enumerate() {
        let view = decode_view(frame).expect("own frames parse");
        assert_eq!(view.seq, Some(i as u64));
        *mark = scan_frame(&view);
    }
    assert_eq!(allocations() - before, 0, "the in-place parse allocated");

    let errors = marks.iter().filter(|m| **m != FaultMark::None).count();
    assert_eq!(errors, 8 + 16, "every REST 503 and every RPC exception");

    // The counter does see the owned decode: a URI or method string and a
    // payload per message, at least.
    let before = allocations();
    let owned = batch.decode_all().expect("own frames decode");
    assert!(allocations() - before >= 2 * owned.len() as u64);
}
