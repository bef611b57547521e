//! Per-layer micro-measurements over a workload's own stream: each layer's
//! public functions called from here, inside a span named after the layer.
//! They run in the traced binary only, before the timed passes.

use crate::host::SHARDS;
use crate::inputs::{Inputs, Reference, Sample};
use crate::passes::TempDir;
use crate::report::Metric;
use crate::trace::Tracer;
use bytes::Bytes;
use gretel_core::{canonical_order, encode_diagnoses, Analyzer, ServiceConfig, KIND_CHECKPOINT};
use gretel_model::{Message, NodeId};
use gretel_netcap::{
    decode_one_seq, encode_seq, encoded_len, partition_messages, CaptureImpairment, CaptureStats,
    FrameBatch, FrameBatchBuilder, Resequencer,
};
use gretel_store::{FileStore, FileStoreConfig, MemStore, Store};
use std::hint::black_box;
use std::path::Path;

/// At most this many leading messages of the stream are measured: enough
/// for stable per-message costs, small enough to keep a traced run short.
const SAMPLE_MESSAGES: usize = 100_000;
/// Repetitions of the once-per-checkpoint operations.
const REPS: usize = 8;

fn decode_frames(frames: &[Bytes]) -> Vec<(Message, Option<u64>)> {
    frames
        .iter()
        .map(|f| decode_one_seq(f).expect("own frames decode"))
        .collect()
}

fn resequence(
    tracer: &mut Tracer,
    span: &'static str,
    depth: usize,
    decoded: Vec<(Message, Option<u64>)>,
) -> usize {
    tracer.span(span, || {
        let mut reseq = Resequencer::new(depth);
        let mut released = 0;
        for (msg, seq) in decoded {
            released += black_box(reseq.push(seq, msg)).len();
        }
        released + reseq.flush().len()
    })
}

fn transport(tracer: &mut Tracer, messages: &[Message], seed: u64, out: &mut Vec<Metric>) {
    let n = messages.len() as f64;
    // Batch size and resequencer depth are the threaded service's own.
    let service = ServiceConfig::default();
    let frames: Vec<Bytes> = tracer.span("netcap.frame.encode", || {
        messages
            .iter()
            .enumerate()
            .map(|(i, m)| encode_seq(m, i as u64))
            .collect()
    });
    let decoded = tracer.span("netcap.frame.decode", || decode_frames(&frames));
    let wire_bytes: usize = messages.iter().map(encoded_len).sum();

    let batches: Vec<FrameBatch> = tracer.span("netcap.batch.pack", || {
        let mut builder = FrameBatchBuilder::new(service.ingest_batch);
        let mut batches: Vec<FrameBatch> = frames.iter().filter_map(|f| builder.push(f)).collect();
        batches.extend(builder.finish());
        batches
    });
    tracer.span("netcap.batch.decode_all", || {
        for batch in &batches {
            black_box(batch.decode_all().expect("own batches decode"));
        }
    });

    let in_order = resequence(
        tracer,
        "netcap.reseq.push",
        service.resequence_depth,
        decoded,
    );
    // Duplicates and bounded reordering, no drops: everything is released,
    // nothing is inferred lost, so the work is pure resequencing.
    let impairment = CaptureImpairment {
        dup_prob: 0.01,
        reorder_prob: 0.05,
        reorder_span: service.resequence_depth / 4,
        seed,
        ..CaptureImpairment::none()
    };
    let impaired = impairment.apply(NodeId(0), frames, &mut CaptureStats::default());
    let reordered = resequence(
        tracer,
        "netcap.reseq.push_reordered",
        service.resequence_depth,
        decode_frames(&impaired),
    );
    assert_eq!(
        (in_order, reordered),
        (messages.len(), messages.len()),
        "lossless resequencing"
    );

    let parts = tracer.span("netcap.shard.partition", || {
        partition_messages(messages, SHARDS)
    });
    let largest = parts.iter().map(Vec::len).max().unwrap_or(0);

    out.extend(
        [
            "netcap.frame.encode_ns_per_msg",
            "netcap.frame.decode_ns_per_msg",
            "netcap.batch.pack_ns_per_msg",
            "netcap.batch.decode_all_ns_per_msg",
            "netcap.reseq.push_ns_per_msg",
            "netcap.reseq.push_reordered_ns_per_msg",
            "netcap.shard.partition_ns_per_msg",
        ]
        .map(|name| Metric::timing(tracer, name, n)),
    );
    out.extend([
        Metric::single("netcap.frame.bytes_per_msg", "B", wire_bytes as f64 / n),
        Metric::single(
            "netcap.shard.skew",
            "ratio",
            largest as f64 * SHARDS as f64 / n,
        ),
    ]);
}

/// Checkpoint export/restore at a full window, then the store under records
/// of that size.
fn checkpoint_and_store(
    tracer: &mut Tracer,
    sample: &Sample<'_>,
    store_dir: &Path,
    out: &mut Vec<Metric>,
) {
    let mut analyzer = Analyzer::new(sample.library, sample.gcfg);
    for m in sample.messages.iter().take(analyzer.alpha()) {
        black_box(analyzer.ingest(m));
    }
    let mut state = Vec::new();
    for _ in 0..REPS {
        state = tracer
            .span("core.checkpoint.export", || analyzer.export_state())
            .expect("the default analyzer is checkpointable");
    }
    for _ in 0..REPS {
        let mut fresh = Analyzer::new(sample.library, sample.gcfg);
        tracer
            .span("core.checkpoint.restore", || fresh.restore_state(&state))
            .expect("own state restores");
    }

    let mut mem = MemStore::new();
    let dir = TempDir::new(store_dir, "layers");
    let mut file = FileStore::open(dir.path(), FileStoreConfig::default()).expect("open store");
    for _ in 0..REPS {
        tracer
            .span("store.mem.append", || mem.append(KIND_CHECKPOINT, &state))
            .expect("append");
        tracer
            .span("store.file.append", || file.append(KIND_CHECKPOINT, &state))
            .expect("append");
        tracer
            .span("store.file.sync", || file.sync())
            .expect("sync");
    }
    let log_mb = file.bytes().len() as f64 / 1e6;
    tracer.span("store.scan", || {
        black_box(file.latest_valid(KIND_CHECKPOINT));
    });
    drop(file);
    let reopened = tracer
        .span("store.file.open", || {
            FileStore::open(dir.path(), FileStoreConfig::default())
        })
        .expect("reopen store");
    assert_eq!(reopened.len(), REPS, "every record survives the reopen");

    out.extend(
        [
            "core.checkpoint.export_us",
            "core.checkpoint.restore_us",
            "store.mem.append_us",
            "store.file.append_us",
            "store.file.sync_us",
        ]
        .map(|name| Metric::timing(tracer, name, REPS as f64)),
    );
    out.extend([
        Metric::single("core.checkpoint.state_bytes", "B", state.len() as f64),
        Metric::timing(tracer, "store.scan_us_per_mb", log_mb),
        Metric::timing(tracer, "store.file.open_ms", 1.0),
    ]);
}

/// Every stream-level layer metric of `inputs`' workload.
pub fn measure(
    tracer: &mut Tracer,
    inputs: &Inputs,
    reference: &Reference,
    seed: u64,
    store_dir: &Path,
) -> Vec<Metric> {
    let sample = inputs.sample();
    let messages = &sample.messages[..sample.messages.len().min(SAMPLE_MESSAGES)];
    let mut out = vec![Metric::single(
        "sim.stream.gen_ns_per_msg",
        "ns",
        inputs.stream_gen_ns as f64 / inputs.generated_messages as f64,
    )];
    transport(tracer, messages, seed, &mut out);
    checkpoint_and_store(tracer, &sample, store_dir, &mut out);

    // What the sharded merge does after its shards drain, on the reference
    // output: canonical order, graph fold, canonical bytes.
    let mut diagnoses = reference.diagnoses.clone();
    let mut graph = reference.graph.clone();
    tracer.span("core.shard.merge", || {
        canonical_order(&mut diagnoses);
        graph.merge(&reference.graph);
        black_box(encode_diagnoses(&diagnoses));
    });
    out.push(Metric::timing(tracer, "core.shard.merge_us", 1.0));
    out
}
