//! A message's way from the tap to the receiver's ready queue allocates
//! nothing once its batch is reserved: the agent's byte scan and the write
//! of its event record, then the receiver's read of the record at fixed
//! offsets and its resequencing into a ready queue reserved for the batch.
//! The capture format's in-place parser (`decode_view`, which pcap reading
//! runs under its owned decode) allocates nothing either. A counting global
//! allocator watches a 64-message batch go through each.
//!
//! The count is per thread, so the test harness's own threads cannot leak
//! into it.

use gretel::core::checkpoint::Marked;
use gretel::core::{scan_message, FaultMark};
use gretel::model::codec::{Reader, Wire};
use gretel::model::message::{render_rest_response_payload, render_rpc_payload};
use gretel::model::{
    ApiId, ConnKey, Direction, HttpMethod, Message, MessageHead, MessageId, NodeId, ProjectId,
    Service, WireKind,
};
use gretel::netcap::{decode_one_seq, decode_view, encode_seq, Resequencer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

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

const BATCH: usize = 64;

/// Message `i` of the batch: REST responses, some of them errors, and RPC
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

fn messages() -> Vec<Message> {
    (0..BATCH as u64).map(message).collect()
}

#[test]
fn a_batch_from_tap_to_ready_queue_allocates_nothing() {
    let msgs = messages();
    // 60 bytes a record, as the agent reserves it.
    let mut batch = Vec::with_capacity(BATCH * 60);
    let mut resequencer = Resequencer::<Marked>::new(32);
    let mut ready: VecDeque<(u32, Marked)> = VecDeque::with_capacity(BATCH);

    let before = allocations();
    // The agent's half: scan each message at the tap and write its event
    // record into the batch it ships in.
    for (seq, m) in (0u64..).zip(&msgs) {
        (seq, (m.head(), scan_message(m))).put(&mut batch);
    }
    // The receiver's half.
    let mut r = Reader::new(&batch);
    while r.remaining() > 0 {
        let (seq, marked) = <(u64, Marked)>::read(&mut r).expect("own records read");
        resequencer
            .try_push(Some(seq), marked, &mut ready)
            .expect("in order");
    }
    assert_eq!(allocations() - before, 0, "the tap-to-ready path allocated");
    assert_eq!(batch.len(), BATCH * 60);

    assert_eq!(ready.len(), BATCH);
    for ((gap, (head, _)), m) in ready.iter().zip(&msgs) {
        assert_eq!((*gap, *head), (0, m.head()));
    }
    let errors = ready
        .iter()
        .filter(|(_, (_, mark))| *mark != FaultMark::None)
        .count();
    assert_eq!(errors, 8 + 16, "every REST 503 and every RPC exception");
}

#[test]
fn parsing_a_batch_in_place_allocates_nothing() {
    let msgs = messages();
    let frames: Vec<_> = (0u64..).zip(&msgs).map(|(i, m)| encode_seq(m, i)).collect();
    let heads: Vec<MessageHead> = msgs.iter().map(Message::head).collect();
    let before = allocations();
    for (i, (frame, head)) in frames.iter().zip(&heads).enumerate() {
        let view = decode_view(frame).expect("own frames parse");
        assert_eq!((view.seq, view.head), (Some(i as u64), *head));
    }
    assert_eq!(allocations() - before, 0, "the in-place parse allocated");

    // The counter does see the owned decode: a URI or method string and a
    // payload per message, at least.
    let before = allocations();
    for frame in &frames {
        std::hint::black_box(decode_one_seq(frame).expect("own frames decode"));
    }
    assert!(allocations() - before >= 2 * frames.len() as u64);
}
