//! Byte-level fault scanning and latency pairing.
//!
//! GRETEL "does not parse the JSON formatted message body and simply uses
//! regular expressions to identify error codes in the message" (§5.3).
//! This module is that fast path: fixed byte-pattern scans over raw
//! payloads (no allocation, no parsing), plus the request/response pairing
//! that turns message timestamps into per-API latency observations —
//! REST pairs by TCP connection metadata, RPC pairs by message id.

use crate::event::FaultMark;
use crate::fasthash::FastMap;
use gretel_model::codec::{put_count, put_u16, put_u64, put_u8, DecodeError, Reader};
use gretel_model::{ApiId, ConnKey, Message, WireKind};
use gretel_sim::SimTime;

/// Scan an HTTP payload for an error status line (`HTTP/1.1 NNN` with
/// `NNN >= 400`). Returns the status when found.
pub fn scan_rest_error(payload: &[u8]) -> Option<u16> {
    const PREFIX: &[u8] = b"HTTP/1.1 ";
    if payload.len() < PREFIX.len() + 3 || &payload[..PREFIX.len()] != PREFIX {
        return None;
    }
    let d = &payload[PREFIX.len()..PREFIX.len() + 3];
    if !d.iter().all(u8::is_ascii_digit) {
        return None;
    }
    let status = (d[0] - b'0') as u16 * 100 + (d[1] - b'0') as u16 * 10 + (d[2] - b'0') as u16;
    (status >= 400).then_some(status)
}

/// Scan an oslo.messaging payload for a serialized exception. oslo embeds
/// failures as a `"failure"` object; the scan is a substring search
/// anchored on the needle's rarest byte (`f` — JSON payloads are dense in
/// quotes but sparse in `f`s), located with a word-at-a-time byte scan.
/// The common clean-payload case touches each byte once, eight at a time,
/// instead of comparing a 9-byte window at every offset.
pub fn scan_rpc_error(payload: &[u8]) -> bool {
    const NEEDLE: &[u8] = b"\"failure\"";
    if payload.len() < NEEDLE.len() {
        return false;
    }
    let mut i = 1; // the anchor byte sits at offset 1 of the needle
    while let Some(off) = find_byte(&payload[i..], b'f') {
        let start = i + off - 1;
        if payload.len() - start >= NEEDLE.len() && &payload[start..start + NEEDLE.len()] == NEEDLE
        {
            return true;
        }
        i += off + 1;
    }
    false
}

/// The whole byte-level fault scan for one message, as a pure function:
/// REST payloads go through [`scan_rest_error`], RPC payloads through the
/// SWAR [`scan_rpc_error`]. No state, no counters — the same message
/// always scans to the same [`FaultMark`], so the scan can run anywhere
/// in the pipeline (at batch decode, at ingest, or re-derived after a
/// checkpoint restore) without changing the diagnosis stream.
///
/// The batched receiver runs this over every message of a decoded
/// [`gretel_netcap::FrameBatch`] in one tight loop, so the scanners stay
/// hot in cache across the batch instead of interleaving with window and
/// merge work per message.
///
/// ```
/// use gretel_core::{scan_message, FaultMark};
/// # use gretel_model::*;
/// # let mut msg = Message {
/// #     id: MessageId(1), ts_us: 0, src_node: NodeId(0), dst_node: NodeId(1),
/// #     src_service: Service::Nova, dst_service: Service::Neutron, api: ApiId(1),
/// #     direction: Direction::Response,
/// #     wire: WireKind::Rest { method: HttpMethod::Get, uri: "/v2.1/servers".into(), status: None },
/// #     conn: ConnKey::default(), payload: vec![], correlation_id: None, project: None, truth_op: None,
/// #     truth_noise: false,
/// # };
/// msg.payload = b"HTTP/1.1 503 Service Unavailable".to_vec();
/// assert_eq!(scan_message(&msg), FaultMark::RestError(503));
/// msg.payload = b"HTTP/1.1 200 OK".to_vec();
/// assert_eq!(scan_message(&msg), FaultMark::None);
/// ```
pub fn scan_message(msg: &Message) -> FaultMark {
    match &msg.wire {
        WireKind::Rest { .. } => match scan_rest_error(&msg.payload) {
            Some(status) => FaultMark::RestError(status),
            None => FaultMark::None,
        },
        WireKind::Rpc { .. } => {
            if scan_rpc_error(&msg.payload) {
                FaultMark::RpcError
            } else {
                FaultMark::None
            }
        }
    }
}

/// First position of `b` in `hay`, scanning a 64-bit word per step (the
/// usual SWAR zero-byte trick).
#[inline]
#[allow(clippy::disallowed_methods)] // SWAR word load, not a format decode (see clippy.toml)
fn find_byte(hay: &[u8], b: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let pat = (b as u64) * LO;
    let mut chunks = hay.chunks_exact(8);
    let mut base = 0usize;
    for c in chunks.by_ref() {
        let w = u64::from_le_bytes(c.try_into().unwrap()) ^ pat;
        if w.wrapping_sub(LO) & !w & HI != 0 {
            for (j, &x) in c.iter().enumerate() {
                if x == b {
                    return Some(base + j);
                }
            }
        }
        base += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&x| x == b)
        .map(|j| base + j)
}

/// One latency observation produced by pairing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyObs {
    /// The API measured.
    pub api: ApiId,
    /// Response timestamp (the observation's time coordinate).
    pub ts: SimTime,
    /// Request→response latency in microseconds.
    pub latency_us: u64,
}

/// Pairs REST requests with responses via connection metadata and RPCs via
/// message ids, emitting [`LatencyObs`] as responses arrive.
#[derive(Debug, Default)]
pub struct LatencyPairer {
    rest: FastMap<(ConnKey, ApiId), SimTime>,
    rpc: FastMap<u64, (ApiId, SimTime)>,
}

impl LatencyPairer {
    /// Empty pairer.
    pub fn new() -> LatencyPairer {
        LatencyPairer::default()
    }

    /// Feed one message; returns a latency observation when it completes a
    /// pair.
    pub fn observe(&mut self, msg: &Message) -> Option<LatencyObs> {
        match (&msg.wire, msg.direction) {
            (WireKind::Rest { .. }, gretel_model::Direction::Request) => {
                self.rest.insert((msg.conn.canonical(), msg.api), msg.ts_us);
                None
            }
            (WireKind::Rest { .. }, gretel_model::Direction::Response) => {
                let start = self.rest.remove(&(msg.conn.canonical(), msg.api))?;
                Some(LatencyObs {
                    api: msg.api,
                    ts: msg.ts_us,
                    latency_us: msg.ts_us.saturating_sub(start),
                })
            }
            (WireKind::Rpc { msg_id, .. }, gretel_model::Direction::Request) => {
                self.rpc.insert(*msg_id, (msg.api, msg.ts_us));
                None
            }
            (WireKind::Rpc { msg_id, .. }, gretel_model::Direction::Response) => {
                let (api, start) = self.rpc.remove(msg_id)?;
                Some(LatencyObs {
                    api,
                    ts: msg.ts_us,
                    latency_us: msg.ts_us.saturating_sub(start),
                })
            }
        }
    }

    /// Outstanding unpaired requests (useful for leak checks).
    pub fn outstanding(&self) -> usize {
        self.rest.len() + self.rpc.len()
    }

    /// Drop unpaired requests older than `cutoff` (casts never get replies
    /// and would otherwise accumulate).
    pub fn expire_before(&mut self, cutoff: SimTime) {
        self.rest.retain(|_, &mut ts| ts >= cutoff);
        self.rpc.retain(|_, &mut (_, ts)| ts >= cutoff);
    }

    /// Serialize all outstanding unpaired requests for a checkpoint.
    /// Entries are written in sorted key order so the bytes are a pure
    /// function of the pairer's logical state, not of hash iteration.
    pub(crate) fn export_state(&self, out: &mut Vec<u8>) {
        let mut rest: Vec<(&(ConnKey, ApiId), &SimTime)> = self.rest.iter().collect();
        rest.sort_by_key(|((c, a), _)| (c.src.0, c.src_port, c.dst.0, c.dst_port, a.0));
        put_count(out, rest.len());
        for ((conn, api), &ts) in rest {
            put_u8(out, conn.src.0);
            put_u16(out, conn.src_port);
            put_u8(out, conn.dst.0);
            put_u16(out, conn.dst_port);
            put_u16(out, api.0);
            put_u64(out, ts);
        }
        let mut rpc: Vec<(&u64, &(ApiId, SimTime))> = self.rpc.iter().collect();
        rpc.sort_by_key(|(&id, _)| id);
        put_count(out, rpc.len());
        for (&msg_id, &(api, ts)) in rpc {
            put_u64(out, msg_id);
            put_u16(out, api.0);
            put_u64(out, ts);
        }
    }

    /// Rebuild a pairer from [`LatencyPairer::export_state`] bytes.
    pub(crate) fn import_state(r: &mut Reader<'_>) -> Result<LatencyPairer, DecodeError> {
        use gretel_model::NodeId;
        let mut pairer = LatencyPairer::new();
        for _ in 0..r.count(1 + 2 + 1 + 2 + 2 + 8)? {
            let conn = ConnKey {
                src: NodeId(r.u8()?),
                src_port: r.u16()?,
                dst: NodeId(r.u8()?),
                dst_port: r.u16()?,
            };
            let api = ApiId(r.u16()?);
            let ts = r.u64()?;
            pairer.rest.insert((conn, api), ts);
        }
        for _ in 0..r.count(8 + 2 + 8)? {
            let msg_id = r.u64()?;
            let api = ApiId(r.u16()?);
            let ts = r.u64()?;
            pairer.rpc.insert(msg_id, (api, ts));
        }
        Ok(pairer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_model::message::{
        render_rest_request_payload, render_rest_response_payload, render_rpc_payload,
    };
    use gretel_model::{
        ApiId, ConnKey, Direction, HttpMethod, Message, MessageId, NodeId, Service,
    };

    #[test]
    fn rest_error_scan_finds_4xx_and_5xx() {
        for status in [400u16, 401, 404, 409, 413, 500, 503] {
            let p = render_rest_response_payload(status, "x", 32);
            assert_eq!(scan_rest_error(&p), Some(status), "status {status}");
        }
    }

    #[test]
    fn rest_success_and_requests_scan_clean() {
        for status in [200u16, 201, 202, 204] {
            let p = render_rest_response_payload(status, "OK", 32);
            assert_eq!(scan_rest_error(&p), None);
        }
        let req = render_rest_request_payload(HttpMethod::Get, "/v2.1/servers", 0);
        assert_eq!(scan_rest_error(&req), None);
        assert_eq!(scan_rest_error(b""), None);
        assert_eq!(scan_rest_error(b"HTTP/1.1 XYZ"), None);
    }

    #[test]
    fn rpc_scan_finds_the_needle_at_any_alignment() {
        // The word-at-a-time scan must agree with a naive scan regardless
        // of where the needle sits relative to 8-byte chunk boundaries.
        for pad in 0..32 {
            let mut p = vec![b'x'; pad];
            p.extend_from_slice(b"\"failure\"");
            p.extend_from_slice(&[b'x'; 16]);
            assert!(scan_rpc_error(&p), "pad {pad}");

            // Anchor bytes everywhere but no needle.
            let mut clean = vec![b'f'; pad + 16];
            assert!(!scan_rpc_error(&clean), "pad {pad}");
            // A needle clipped at the end must not match.
            clean.extend_from_slice(b"\"failure");
            assert!(!scan_rpc_error(&clean), "pad {pad}");
        }
    }

    #[test]
    fn rpc_error_scan() {
        let bad = render_rpc_payload("create_volume", 7, Some("Boom"), 64);
        let good = render_rpc_payload("create_volume", 8, None, 64);
        assert!(scan_rpc_error(&bad));
        assert!(!scan_rpc_error(&good));
    }

    fn rest_msg(id: u64, ts: u64, dir: Direction, conn: ConnKey) -> Message {
        Message {
            id: MessageId(id),
            ts_us: ts,
            src_node: conn.src,
            dst_node: conn.dst,
            src_service: Service::Horizon,
            dst_service: Service::Nova,
            api: ApiId(9),
            direction: dir,
            wire: WireKind::Rest {
                method: HttpMethod::Get,
                uri: "/v2.1/servers".into(),
                status: matches!(dir, Direction::Response).then_some(200),
            },
            conn,
            payload: vec![],
            correlation_id: None,
            project: None,
            truth_op: None,
            truth_noise: false,
        }
    }

    #[test]
    fn rest_pairing_by_connection() {
        let mut p = LatencyPairer::new();
        let conn = ConnKey {
            src: NodeId(0),
            src_port: 31000,
            dst: NodeId(1),
            dst_port: 8774,
        };
        assert!(p
            .observe(&rest_msg(0, 1_000, Direction::Request, conn))
            .is_none());
        let obs = p
            .observe(&rest_msg(1, 26_000, Direction::Response, conn.reversed()))
            .expect("pair completes");
        assert_eq!(obs.latency_us, 25_000);
        assert_eq!(obs.api, ApiId(9));
        assert_eq!(p.outstanding(), 0);
    }

    #[test]
    fn rpc_pairing_by_msg_id() {
        let mut p = LatencyPairer::new();
        let mk = |id: u64, ts: u64, dir: Direction| Message {
            id: MessageId(id),
            ts_us: ts,
            src_node: NodeId(4),
            dst_node: NodeId(0),
            src_service: Service::NovaCompute,
            dst_service: Service::Nova,
            api: ApiId(700),
            direction: dir,
            wire: WireKind::Rpc {
                method: "attach_volume".into(),
                msg_id: 55,
                error: None,
            },
            conn: ConnKey::default(),
            payload: vec![],
            correlation_id: None,
            project: None,
            truth_op: None,
            truth_noise: false,
        };
        assert!(p.observe(&mk(0, 5_000, Direction::Request)).is_none());
        let obs = p.observe(&mk(1, 65_000, Direction::Response)).unwrap();
        assert_eq!(obs.latency_us, 60_000);
    }

    #[test]
    fn unmatched_response_is_ignored() {
        let mut p = LatencyPairer::new();
        let conn = ConnKey {
            src: NodeId(0),
            src_port: 1,
            dst: NodeId(1),
            dst_port: 2,
        };
        assert!(p
            .observe(&rest_msg(0, 10, Direction::Response, conn))
            .is_none());
    }

    #[test]
    fn expire_drops_stale_requests() {
        let mut p = LatencyPairer::new();
        let conn = ConnKey {
            src: NodeId(0),
            src_port: 1,
            dst: NodeId(1),
            dst_port: 2,
        };
        p.observe(&rest_msg(0, 10, Direction::Request, conn));
        assert_eq!(p.outstanding(), 1);
        p.expire_before(1_000);
        assert_eq!(p.outstanding(), 0);
    }
}
