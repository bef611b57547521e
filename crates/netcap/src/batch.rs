//! Batched frame transport: many frames per channel operation.
//!
//! The per-message service shape ships one encoded frame per channel send,
//! so at capture-point rates the pipeline pays one synchronized channel
//! operation — and one allocation — per message. A [`FrameBatch`] amortizes
//! both: frames are packed back-to-back into a single contiguous **arena**
//! (`Bytes`, one allocation per batch) with an offset table, and the whole
//! batch crosses the agent→receiver link in one send. Frame views
//! ([`FrameBatch::frame_slice`]) and decode ([`FrameBatch::decode_all`]) are
//! zero-copy: views borrow the shared arena, and the codec parses straight
//! out of it (`&[u8]` is a `Buf` cursor).
//!
//! Batching never changes *what* is shipped, only the channel-operation
//! granularity: frames keep their per-agent order inside the arena, so a
//! receiver that decodes batches in arrival order sees the byte-identical
//! frame stream of the per-message path. A batch size of 1 *is* the
//! per-message path, one arena per frame.
//!
//! ```
//! use gretel_netcap::FrameBatchBuilder;
//! # use gretel_model::*;
//! # let msg = Message {
//! #     id: MessageId(1), ts_us: 0, src_node: NodeId(0), dst_node: NodeId(1),
//! #     src_service: Service::Nova, dst_service: Service::Neutron, api: ApiId(1),
//! #     direction: Direction::Request,
//! #     wire: WireKind::Rest { method: HttpMethod::Get, uri: "/v2.1/servers".into(), status: None },
//! #     conn: ConnKey::default(), payload: vec![], correlation_id: None, project: None, truth_op: None,
//! #     truth_noise: false,
//! # };
//! let mut builder = FrameBatchBuilder::new(2);
//! assert!(builder.encode(&msg, None).is_none());
//! let full = builder.encode(&msg, None).expect("the second frame fills the batch");
//! assert_eq!(full.frames(), 2);
//! assert_eq!(full.decode_all().unwrap()[0].0, msg);
//! assert!(builder.encode(&msg, None).is_none());
//! assert_eq!(builder.finish().expect("2 + 1 frames").frames(), 1);
//! ```

use crate::frame::{decode_one_seq, encode_into, CodecError};
use bytes::Bytes;
use gretel_model::Message;

/// A bounded group of encoded frames sharing one arena allocation, shipped
/// agent → receiver as a single channel operation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrameBatch {
    /// The arena: every frame's bytes, back to back, in per-agent order.
    buf: Bytes,
    /// `(start, end)` of each frame within `buf`.
    offsets: Vec<(u32, u32)>,
}

impl FrameBatch {
    /// Number of frames in the batch.
    pub fn frames(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the batch holds no frames.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Total encoded bytes across every frame (the arena length).
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Borrowed view of the `i`-th frame's bytes.
    pub fn frame_slice(&self, i: usize) -> &[u8] {
        let (start, end) = self.offsets[i];
        &self.buf[start as usize..end as usize]
    }

    /// Iterate the frames as borrowed slices, in per-agent order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.frames()).map(|i| self.frame_slice(i))
    }

    /// Decode every frame in the batch, in order, straight out of the
    /// arena (no per-frame staging copy). Errors are permanent for the
    /// batch — a corrupt frame poisons it exactly like a corrupt frame
    /// poisons a per-message link.
    pub fn decode_all(&self) -> Result<Vec<(Message, Option<u64>)>, CodecError> {
        let mut out = Vec::with_capacity(self.frames());
        for frame in self.iter() {
            out.push(decode_one_seq(frame)?);
        }
        Ok(out)
    }
}

/// Incrementally packs frames into bounded [`FrameBatch`]es. A streaming
/// agent encodes each message it captures straight into the arena
/// ([`FrameBatchBuilder::encode`]; [`FrameBatchBuilder::push`] takes a
/// frame that already exists as bytes) and ships whatever batch that
/// completes; [`FrameBatchBuilder::finish`] flushes the remainder at end
/// of stream.
#[derive(Debug)]
pub struct FrameBatchBuilder {
    max_frames: usize,
    data: Vec<u8>,
    offsets: Vec<(u32, u32)>,
}

impl FrameBatchBuilder {
    /// Builder emitting batches of at most `max_frames` frames (≥ 1;
    /// `max_frames == 1` reproduces the per-message path).
    pub fn new(max_frames: usize) -> FrameBatchBuilder {
        assert!(max_frames >= 1, "a batch holds at least one frame");
        FrameBatchBuilder {
            max_frames,
            data: Vec::new(),
            offsets: Vec::new(),
        }
    }

    /// Encode `msg` (sequence-stamped when `seq` is given) straight into
    /// the arena — the frame's bytes are written once, where they ship
    /// from; returns the completed batch once it reaches `max_frames`.
    pub fn encode(&mut self, msg: &Message, seq: Option<u64>) -> Option<FrameBatch> {
        self.append(|arena| encode_into(arena, msg, seq))
    }

    /// Append one already-encoded frame to the current batch; returns the
    /// completed batch once it reaches `max_frames`.
    pub fn push(&mut self, frame: &[u8]) -> Option<FrameBatch> {
        self.append(|arena| arena.extend_from_slice(frame))
    }

    fn append(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> Option<FrameBatch> {
        let start = self.data.len() as u32;
        write(&mut self.data);
        self.offsets.push((start, self.data.len() as u32));
        (self.offsets.len() >= self.max_frames).then(|| self.take())
    }

    /// Flush the partial batch at end of stream (`None` when empty).
    pub fn finish(&mut self) -> Option<FrameBatch> {
        (!self.offsets.is_empty()).then(|| self.take())
    }

    fn take(&mut self) -> FrameBatch {
        // The next batch starts at this one's size — a stream's batches are
        // alike — so doubling growth does not copy its frames again, nor
        // re-enter the allocator a dozen times per batch just as the
        // receiver hands the previous arena back to it.
        let (bytes, frames) = (self.data.len(), self.offsets.len());
        let data = std::mem::replace(&mut self.data, Vec::with_capacity(bytes));
        let offsets = std::mem::replace(&mut self.offsets, Vec::with_capacity(frames));
        FrameBatch {
            buf: Bytes::from(data),
            offsets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode, encode_seq};
    use gretel_model::{
        ApiId, ConnKey, Direction, HttpMethod, Message, MessageId, NodeId, Service, WireKind,
    };

    fn pack(frames: &[Bytes], max_frames: usize) -> Vec<FrameBatch> {
        let mut builder = FrameBatchBuilder::new(max_frames);
        let mut out: Vec<FrameBatch> = frames.iter().filter_map(|f| builder.push(f)).collect();
        out.extend(builder.finish());
        out
    }

    fn msgs(n: u64) -> Vec<Message> {
        (0..n)
            .map(|i| Message {
                id: MessageId(i),
                ts_us: i * 10,
                src_node: NodeId(0),
                dst_node: NodeId(1),
                src_service: Service::Nova,
                dst_service: Service::Neutron,
                api: ApiId(1),
                direction: Direction::Request,
                wire: WireKind::Rest {
                    method: HttpMethod::Get,
                    uri: "/v2.1/servers".into(),
                    status: None,
                },
                conn: ConnKey::default(),
                payload: format!("payload-{i}").into_bytes(),
                correlation_id: None,
                project: None,
                truth_op: None,
                truth_noise: false,
            })
            .collect()
    }

    #[test]
    fn batches_preserve_order_and_bytes() {
        let frames: Vec<Bytes> = msgs(10).iter().map(encode).collect();
        let batches = pack(&frames, 4);
        assert_eq!(
            batches.iter().map(FrameBatch::frames).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        let total: usize = batches.iter().map(FrameBatch::byte_len).sum();
        assert_eq!(total, frames.iter().map(Bytes::len).sum::<usize>());
        let rejoined: Vec<&[u8]> = batches.iter().flat_map(FrameBatch::iter).collect();
        for (orig, got) in frames.iter().zip(rejoined) {
            assert_eq!(&orig[..], got);
        }
    }

    #[test]
    fn decode_all_round_trips_with_seq() {
        let ms = msgs(5);
        let frames: Vec<Bytes> = ms
            .iter()
            .enumerate()
            .map(|(i, m)| encode_seq(m, i as u64))
            .collect();
        let [batch] = &pack(&frames, 64)[..] else {
            panic!("one batch")
        };
        let decoded = batch.decode_all().unwrap();
        for (i, (m, seq)) in decoded.iter().enumerate() {
            assert_eq!(m, &ms[i]);
            assert_eq!(*seq, Some(i as u64));
        }
    }

    #[test]
    fn encoding_into_the_arena_equals_pushing_encoded_frames() {
        let ms = msgs(10);
        for seq_base in [None, Some(7u64)] {
            let mut direct = FrameBatchBuilder::new(4);
            let mut copied = FrameBatchBuilder::new(4);
            for (i, m) in ms.iter().enumerate() {
                let seq = seq_base.map(|b| b + i as u64);
                let frame = seq.map_or_else(|| encode(m), |s| encode_seq(m, s));
                // Same arena bytes, same offset table, same batch boundaries.
                assert_eq!(direct.encode(m, seq), copied.push(&frame));
            }
            let tail = direct.finish();
            assert_eq!(tail.as_ref().map(FrameBatch::frames), Some(2));
            assert_eq!(tail, copied.finish());
        }
    }

    #[test]
    fn frame_slices_borrow_the_arena() {
        let frames: Vec<Bytes> = msgs(3).iter().map(encode).collect();
        let [batch] = &pack(&frames, 8)[..] else {
            panic!("one batch")
        };
        assert_eq!(batch.frame_slice(1), &frames[1][..]);
    }

    #[test]
    fn batch_size_one_is_the_per_message_path() {
        let frames: Vec<Bytes> = msgs(3).iter().map(encode).collect();
        let batches = pack(&frames, 1);
        assert_eq!(batches.len(), 3);
        assert!(batches.iter().all(|b| b.frames() == 1));
    }

    #[test]
    fn corrupt_frame_poisons_the_batch() {
        let frames: Vec<Bytes> = msgs(2).iter().map(encode).collect();
        let mut bad = frames[1].to_vec();
        bad[4] = 0xFF; // clobber the magic
        let all = vec![frames[0].clone(), Bytes::from(bad)];
        let [batch] = &pack(&all, 8)[..] else {
            panic!("one batch")
        };
        assert!(batch.decode_all().is_err());
    }

    #[test]
    fn empty_and_flush_behavior() {
        let mut b = FrameBatchBuilder::new(4);
        assert!(b.finish().is_none());
        assert!(b.push(b"xyzw").is_none());
        let flushed = b.finish().expect("partial batch flushes");
        assert_eq!(flushed.frames(), 1);
        assert_eq!(flushed.frame_slice(0), b"xyzw");
        assert!(b.finish().is_none(), "flush drains the builder");
        assert!(pack(&[], 8).is_empty());
    }
}
