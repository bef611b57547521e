//! Binary wire codec for captured messages.
//!
//! A frame is one whole captured [`Message`] — URI or RPC method, error
//! string, payload and all — in a length-delimited binary layout: the
//! capture format of [`crate::pcap`] dumps, read back by `gretel analyze`.
//! The threaded pipeline's agents do not ship frames; they scan each
//! message at the tap and ship a fixed-size event record instead, as the
//! paper's Bro scripts forward events over Broccoli.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! u32  frame length (bytes after this field)
//! u16  magic (0x4752 "GR")
//! u8   version (1)
//! u8   flags: bit0 direction=response, bit1 is_rpc, bit2 has_truth_op,
//!             bit3 truth_noise, bit4 has_correlation_id, bit5 has_seq,
//!             bit6 has_project
//! u64  message id
//! u64  timestamp (µs)
//! u8   src node | u8 dst node | u8 src service | u8 dst service
//! u16  api id
//! u8×2 conn: src node, dst node   u16×2 conn: src port, dst port
//! u32  project id (only when bit6 set; fixed offset 36 in the frame, so
//!      a router could read it without a full decode)
//! -- REST (bit1 clear):
//!   u8   method  | u16 status (0 = none) | u16 uri len | uri bytes
//! -- RPC (bit1 set):
//!   u64  rpc msg id | u16 error len | error bytes | u16 method len | method
//! u32  payload len | payload bytes
//! u64  truth op (only when bit2 set)
//! u64  correlation id (only when bit4 set)
//! u64  per-agent frame sequence number (only when bit5 set)
//! ```
//!
//! The sequence number is a capture-plane field, not a message field: each
//! agent stamps its frames 0, 1, 2, … so the receiver can detect capture
//! loss (gaps), duplicates, and reordering per agent. Frames without bit5
//! (pre-existing dumps) decode as "no sequence information".

use bytes::Bytes;
use gretel_model::codec::{DecodeError, Reader, Wire};
use gretel_model::{
    ApiId, ConnKey, Direction, HttpMethod, Message, MessageHead, MessageId, NodeId, OpInstanceId,
    ProjectId, Service, WireKind,
};
use std::fmt;

/// Frame magic value.
pub(crate) const MAGIC: u16 = 0x4752;
/// Current codec version.
pub(crate) const VERSION: u8 = 1;

/// Frame decoding failure: the shared [`DecodeError`] plus the two header
/// checks only a frame has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The frame is truncated or a field holds an invalid value.
    Decode(DecodeError),
    /// Bad magic value.
    BadMagic(u16),
    /// Unsupported version.
    BadVersion(u8),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Decode(e) => write!(f, "bad frame: {e}"),
            CodecError::BadMagic(m) => write!(f, "bad magic 0x{m:04x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported version {v}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<DecodeError> for CodecError {
    fn from(e: DecodeError) -> CodecError {
        CodecError::Decode(e)
    }
}

const FLAG_RESPONSE: u8 = 1 << 0;
const FLAG_RPC: u8 = 1 << 1;
const FLAG_TRUTH_OP: u8 = 1 << 2;
const FLAG_NOISE: u8 = 1 << 3;
const FLAG_CORR_ID: u8 = 1 << 4;
const FLAG_SEQ: u8 = 1 << 5;
const FLAG_PROJECT: u8 = 1 << 6;

/// Capacity hint for a lone frame beyond its payload: the fixed fields
/// come to at most 80 bytes, the rest is room for a URI or method name.
const FRAME_HINT: usize = 128;

fn method_to_u8(m: HttpMethod) -> u8 {
    match m {
        HttpMethod::Get => 0,
        HttpMethod::Post => 1,
        HttpMethod::Put => 2,
        HttpMethod::Delete => 3,
        HttpMethod::Patch => 4,
        HttpMethod::Head => 5,
    }
}

fn method_from_u8(v: u8) -> Option<HttpMethod> {
    Some(match v {
        0 => HttpMethod::Get,
        1 => HttpMethod::Post,
        2 => HttpMethod::Put,
        3 => HttpMethod::Delete,
        4 => HttpMethod::Patch,
        5 => HttpMethod::Head,
        _ => return None,
    })
}

/// Append one message's frame — length prefix included — to `out`, with a
/// per-agent sequence number when `seq` is given. This is the only frame
/// writer: the body is written straight behind a placeholder prefix that
/// is patched once the length is known, so a frame packed into a batch
/// arena ([`crate::FrameBatchBuilder::encode`]) is written exactly once.
pub(crate) fn encode_into(out: &mut Vec<u8>, msg: &Message, seq: Option<u64>) {
    let mut flags = 0u8;
    if msg.direction == Direction::Response {
        flags |= FLAG_RESPONSE;
    }
    if msg.wire.is_rpc() {
        flags |= FLAG_RPC;
    }
    if msg.truth_op.is_some() {
        flags |= FLAG_TRUTH_OP;
    }
    if msg.truth_noise {
        flags |= FLAG_NOISE;
    }
    if msg.correlation_id.is_some() {
        flags |= FLAG_CORR_ID;
    }
    if seq.is_some() {
        flags |= FLAG_SEQ;
    }
    if msg.project.is_some() {
        flags |= FLAG_PROJECT;
    }
    let prefix_at = out.len();
    0u32.put(out);
    MAGIC.put(out);
    VERSION.put(out);
    flags.put(out);
    msg.id.0.put(out);
    msg.ts_us.put(out);
    msg.src_node.0.put(out);
    msg.dst_node.0.put(out);
    msg.src_service.index().put(out);
    msg.dst_service.index().put(out);
    msg.api.0.put(out);
    msg.conn.src.0.put(out);
    msg.conn.dst.0.put(out);
    msg.conn.src_port.put(out);
    msg.conn.dst_port.put(out);
    if let Some(p) = msg.project {
        p.0.put(out);
    }
    match &msg.wire {
        WireKind::Rest {
            method,
            uri,
            status,
        } => {
            method_to_u8(*method).put(out);
            status.unwrap_or(0).put(out);
            (uri.len() as u16).put(out);
            out.extend_from_slice(uri.as_bytes());
        }
        WireKind::Rpc {
            method,
            msg_id,
            error,
        } => {
            msg_id.put(out);
            let err = error.as_deref().unwrap_or("");
            (err.len() as u16).put(out);
            out.extend_from_slice(err.as_bytes());
            (method.len() as u16).put(out);
            out.extend_from_slice(method.as_bytes());
        }
    }
    (msg.payload.len() as u32).put(out);
    out.extend_from_slice(&msg.payload);
    if let Some(op) = msg.truth_op {
        op.0.put(out);
    }
    if let Some(corr) = msg.correlation_id {
        corr.put(out);
    }
    if let Some(seq) = seq {
        seq.put(out);
    }
    let body_len = (out.len() - prefix_at - 4) as u32;
    out[prefix_at..prefix_at + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// Encode one message as a framed byte buffer.
pub fn encode(msg: &Message) -> Bytes {
    let mut out = Vec::with_capacity(FRAME_HINT + msg.payload.len());
    encode_into(&mut out, msg, None);
    Bytes::from(out)
}

/// Encode one message with a per-agent frame sequence number.
///
/// The receiver recovers the number with [`decode_one_seq`] and uses it
/// to detect capture gaps and duplicates per agent.
pub fn encode_seq(msg: &Message, seq: u64) -> Bytes {
    let mut out = Vec::with_capacity(FRAME_HINT + msg.payload.len());
    encode_into(&mut out, msg, Some(seq));
    Bytes::from(out)
}

/// One frame parsed in place by [`decode_view`]: the message's fixed-size
/// head and sequence number by value, its strings and payload borrowed from
/// the frame bytes. Building one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// The message's fixed-size fields.
    pub head: MessageHead,
    /// The payload bytes.
    pub payload: &'a [u8],
    /// The per-agent sequence number, when the frame carries one.
    pub seq: Option<u64>,
    wire: WireView<'a>,
    project: Option<ProjectId>,
    truth_op: Option<OpInstanceId>,
    truth_noise: bool,
}

/// [`WireKind`] with borrowed strings; an empty RPC error is no error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireView<'a> {
    Rest {
        method: HttpMethod,
        uri: &'a str,
        status: Option<u16>,
    },
    Rpc {
        method: &'a str,
        msg_id: u64,
        error: &'a str,
    },
}

impl FrameView<'_> {
    /// The owned message: the one place a decode allocates.
    fn to_message(self) -> Message {
        let h = &self.head;
        Message {
            id: h.id,
            ts_us: h.ts_us,
            src_node: h.src_node,
            dst_node: h.dst_node,
            src_service: h.src_service,
            dst_service: h.dst_service,
            api: h.api,
            direction: h.direction,
            wire: match self.wire {
                WireView::Rest {
                    method,
                    uri,
                    status,
                } => WireKind::Rest {
                    method,
                    uri: uri.to_owned(),
                    status,
                },
                WireView::Rpc {
                    method,
                    msg_id,
                    error,
                } => WireKind::Rpc {
                    method: method.to_owned(),
                    msg_id,
                    error: (!error.is_empty()).then(|| error.to_owned()),
                },
            },
            conn: h.conn,
            payload: self.payload.to_vec(),
            correlation_id: h.correlation_id,
            project: self.project,
            truth_op: self.truth_op,
            truth_noise: self.truth_noise,
        }
    }
}

fn get_str<'a>(r: &mut Reader<'a>) -> Result<&'a str, DecodeError> {
    let len = r.u16()? as usize;
    std::str::from_utf8(r.take(len)?).map_err(|_| DecodeError::Invalid("utf8 string"))
}

/// An optional field: read when `bit` is set in `flags`, else `None`.
fn flag<T>(
    flags: u8,
    bit: u8,
    read: impl FnOnce() -> Result<T, DecodeError>,
) -> Result<Option<T>, DecodeError> {
    if flags & bit != 0 {
        read().map(Some)
    } else {
        Ok(None)
    }
}

/// Parse a buffer holding exactly one frame in place. This is the one
/// frame parser: it makes every check — length prefix, truncation and
/// trailing bytes, magic, version, service and method bytes, UTF-8 of the
/// URI, method and error strings — and the owned decoders
/// ([`decode_one`], [`decode_one_seq`], [`crate::FrameBatch::decode_all`])
/// are this plus a copy into a [`Message`].
pub fn decode_view(bytes: &[u8]) -> Result<FrameView<'_>, CodecError> {
    let mut r = Reader::new(bytes);
    let frame_len = r.u32()? as usize;
    if r.remaining() < frame_len {
        return Err(DecodeError::Truncated.into());
    }
    if r.remaining() > frame_len {
        return Err(DecodeError::Invalid("trailing bytes").into());
    }
    let magic = r.u16()?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let flags = r.u8()?;
    // Fields are read in the order they are written, the layout's order.
    let mut head = MessageHead {
        id: MessageId(r.u64()?),
        ts_us: r.u64()?,
        src_node: NodeId(r.u8()?),
        dst_node: NodeId(r.u8()?),
        src_service: Service::from_index(r.u8()?).ok_or(DecodeError::Invalid("src service"))?,
        dst_service: Service::from_index(r.u8()?).ok_or(DecodeError::Invalid("dst service"))?,
        api: ApiId(r.u16()?),
        direction: if flags & FLAG_RESPONSE != 0 {
            Direction::Response
        } else {
            Direction::Request
        },
        conn: ConnKey {
            src: NodeId(r.u8()?),
            dst: NodeId(r.u8()?),
            src_port: r.u16()?,
            dst_port: r.u16()?,
        },
        rpc_msg_id: None,
        correlation_id: None,
        payload_len: 0,
    };
    let project = flag(flags, FLAG_PROJECT, || r.u32().map(ProjectId))?;
    let wire = if flags & FLAG_RPC != 0 {
        let msg_id = r.u64()?;
        head.rpc_msg_id = Some(msg_id);
        let error = get_str(&mut r)?;
        WireView::Rpc {
            msg_id,
            error,
            method: get_str(&mut r)?,
        }
    } else {
        let method = method_from_u8(r.u8()?).ok_or(DecodeError::Invalid("http method"))?;
        let status = r.u16()?;
        WireView::Rest {
            method,
            uri: get_str(&mut r)?,
            status: (status != 0).then_some(status),
        }
    };
    let payload = r.bytes()?;
    head.payload_len = payload.len() as u32;
    let truth_op = flag(flags, FLAG_TRUTH_OP, || r.u64().map(OpInstanceId))?;
    head.correlation_id = flag(flags, FLAG_CORR_ID, || r.u64())?;
    Ok(FrameView {
        head,
        payload,
        seq: flag(flags, FLAG_SEQ, || r.u64())?,
        wire,
        project,
        truth_op,
        truth_noise: flags & FLAG_NOISE != 0,
    })
}

/// Decode a buffer holding exactly one frame.
pub fn decode_one(bytes: &[u8]) -> Result<Message, CodecError> {
    decode_one_seq(bytes).map(|(msg, _)| msg)
}

/// Decode a buffer holding exactly one frame, returning the per-agent
/// sequence number when the frame carries one (`None` for frames written
/// by [`encode`]): [`decode_view`] plus a copy into an owned [`Message`].
pub fn decode_one_seq(bytes: &[u8]) -> Result<(Message, Option<u64>), CodecError> {
    decode_view(bytes).map(|view| (view.to_message(), view.seq))
}

/// Encoded size of a message, including the length prefix.
pub fn encoded_len(msg: &Message) -> usize {
    encode(msg).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_model::message::render_rest_response_payload;

    fn sample_rest() -> Message {
        Message {
            id: MessageId(42),
            ts_us: 123_456_789,
            src_node: NodeId(1),
            dst_node: NodeId(2),
            src_service: Service::Nova,
            dst_service: Service::Neutron,
            api: ApiId(77),
            direction: Direction::Response,
            wire: WireKind::Rest {
                method: HttpMethod::Post,
                uri: "/v2.0/ports.json".into(),
                status: Some(500),
            },
            conn: ConnKey {
                src: NodeId(2),
                src_port: 9696,
                dst: NodeId(1),
                dst_port: 33000,
            },
            payload: render_rest_response_payload(500, "Internal Server Error", 128),
            correlation_id: None,
            project: None,
            truth_op: Some(OpInstanceId(7)),
            truth_noise: false,
        }
    }

    fn sample_rpc() -> Message {
        Message {
            id: MessageId(43),
            ts_us: 1,
            src_node: NodeId(4),
            dst_node: NodeId(0),
            src_service: Service::NovaCompute,
            dst_service: Service::Nova,
            api: ApiId(650),
            direction: Direction::Request,
            wire: WireKind::Rpc {
                method: "build_and_run_instance".into(),
                msg_id: 991,
                error: None,
            },
            conn: ConnKey {
                src: NodeId(4),
                src_port: 21000,
                dst: NodeId(0),
                dst_port: 5672,
            },
            payload: b"oslo".to_vec(),
            correlation_id: None,
            project: None,
            truth_op: None,
            truth_noise: true,
        }
    }

    #[test]
    fn correlation_id_round_trips() {
        let mut m = sample_rest();
        m.correlation_id = Some(0xDEAD_BEEF);
        assert_eq!(decode_one(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn rest_round_trip() {
        let m = sample_rest();
        assert_eq!(decode_one(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn rpc_round_trip() {
        let m = sample_rpc();
        assert_eq!(decode_one(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn rpc_error_round_trip() {
        let mut m = sample_rpc();
        m.wire = WireKind::Rpc {
            method: "create_volume".into(),
            msg_id: 5,
            error: Some("VolumeLimitExceeded".into()),
        };
        assert_eq!(decode_one(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let m = sample_rest();
        let enc = encode(&m);
        let mut bytes = enc.to_vec();
        bytes[4] = 0xFF; // first magic byte after the length prefix
        assert!(matches!(decode_one(&bytes), Err(CodecError::BadMagic(_))));
    }

    #[test]
    fn bad_version_is_rejected() {
        let m = sample_rest();
        let mut bytes = encode(&m).to_vec();
        bytes[6] = 99;
        assert!(matches!(
            decode_one(&bytes),
            Err(CodecError::BadVersion(99))
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(&sample_rest());
        for keep in [0, 3, 4, bytes.len() - 3, bytes.len() - 1] {
            assert_eq!(
                decode_one(&bytes[..keep]),
                Err(CodecError::Decode(DecodeError::Truncated)),
                "prefix of {keep} bytes"
            );
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(
            decode_one(&long),
            Err(CodecError::Decode(DecodeError::Invalid("trailing bytes")))
        );
    }

    #[test]
    fn inflated_lengths_are_rejected_without_allocating() {
        // The uri length (u16 after method + status) and the payload
        // length (u32 after the uri) set to MAX inside a frame whose outer
        // length is still honest.
        let m = sample_rest();
        let bytes = encode(&m).to_vec();
        let uri_len_at = 4 + 32 + 3;
        let mut bad = bytes.clone();
        bad[uri_len_at..uri_len_at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(
            decode_one(&bad),
            Err(CodecError::Decode(DecodeError::Truncated))
        );
        let payload_len_at = uri_len_at + 2 + "/v2.0/ports.json".len();
        let mut bad = bytes;
        bad[payload_len_at..payload_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_one(&bad),
            Err(CodecError::Decode(DecodeError::Truncated))
        );
    }

    #[test]
    fn status_none_round_trips() {
        let mut m = sample_rest();
        m.direction = Direction::Request;
        m.wire = WireKind::Rest {
            method: HttpMethod::Get,
            uri: "/v2.1/servers".into(),
            status: None,
        };
        assert_eq!(decode_one(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn encoded_len_matches() {
        let m = sample_rest();
        assert_eq!(encoded_len(&m), encode(&m).len());
    }

    #[test]
    fn seq_round_trips() {
        let m = sample_rest();
        let framed = encode_seq(&m, 9001);
        assert_eq!(decode_one_seq(&framed).unwrap(), (m.clone(), Some(9001)));
        // The plain decoders still accept seq-bearing frames.
        assert_eq!(decode_one(&framed).unwrap(), m);
    }

    #[test]
    fn unsequenced_frames_decode_as_seq_none() {
        let m = sample_rpc();
        assert_eq!(decode_one_seq(&encode(&m)).unwrap(), (m, None));
    }

    #[test]
    fn project_round_trips() {
        let mut m = sample_rest();
        m.project = Some(ProjectId(1234));
        let framed = encode(&m);
        assert_eq!(decode_one(&framed).unwrap(), m);
        // Fixed offset: 4-byte length prefix + 32-byte fixed header.
        assert_eq!(framed[36..40], 1234u32.to_le_bytes());
        let mut r = sample_rpc();
        r.project = Some(ProjectId(u32::MAX));
        assert_eq!(decode_one(&encode(&r)).unwrap(), r);
    }

    #[test]
    fn spurious_project_flag_is_rejected() {
        // Corrupt a project-less frame by flipping the has_project bit: the
        // decoder then mis-reads four wire-kind bytes as the project id and
        // must fail rather than return a shifted message.
        let mut bytes = encode(&sample_rest()).to_vec();
        bytes[7] |= 1 << 6;
        assert!(decode_one(&bytes).is_err());
    }

    #[test]
    fn seq_rides_after_truth_op_and_correlation_id() {
        let mut m = sample_rest();
        m.correlation_id = Some(0xC0FFEE);
        let framed = encode_seq(&m, u64::MAX);
        assert_eq!(
            decode_one_seq(&framed).unwrap(),
            (m.clone(), Some(u64::MAX))
        );
        assert_eq!(framed.len(), encode(&m).len() + 8);
    }
}
