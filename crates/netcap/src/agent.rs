//! Per-node monitoring agents.
//!
//! The paper deploys a Bro instance on every node to capture "relevant
//! OpenStack REST and RPC communication" (§5.1) and forward events to the
//! central analyzer over TCP (preserving per-stream order, §5.2). A
//! [`CaptureAgent`] is the simulated equivalent: it sees the messages that
//! *leave* its node (so every message is captured exactly once across the
//! deployment), filters out traffic GRETEL does not care about, and ships
//! encoded frames over an in-process channel.

use crate::frame;
use crate::stats::CaptureStats;
use gretel_model::codec::{finalize, put_bytes, put_count, put_u64, DecodeError, Reader};
use gretel_model::{Message, NodeId, Service};
use std::collections::BTreeMap;

/// Traffic filter applied by agents: GRETEL monitors REST/RPC control
/// traffic only; database and NTP chatter is out of scope.
fn is_relevant(msg: &Message) -> bool {
    !matches!(msg.dst_service, Service::MySql | Service::Ntp)
        && !matches!(msg.src_service, Service::MySql | Service::Ntp)
}

/// A per-node capture agent.
///
/// Egress capture: an agent owns exactly the messages whose source node it
/// watches, so across a deployment every message is captured once.
///
/// ```
/// use gretel_model::{
///     ApiId, ConnKey, Direction, HttpMethod, Message, MessageId, NodeId, Service, WireKind,
/// };
/// use gretel_netcap::{decode_one, encode, CaptureAgent};
///
/// let msg = Message {
///     id: MessageId(7),
///     ts_us: 1_000,
///     src_node: NodeId(2),
///     dst_node: NodeId(0),
///     src_service: Service::Nova,
///     dst_service: Service::Neutron,
///     api: ApiId(12),
///     direction: Direction::Request,
///     wire: WireKind::Rest { method: HttpMethod::Get, uri: "/v2.0/ports.json".into(), status: None },
///     conn: ConnKey::default(),
///     payload: vec![],
///     correlation_id: None,
///     project: None,
///     truth_op: None,
///     truth_noise: false,
/// };
///
/// let agent = CaptureAgent::new(NodeId(2));
/// assert!(agent.observes(&msg)); // egress: the source node's agent owns it
/// assert!(!CaptureAgent::new(NodeId(0)).observes(&msg));
///
/// // It forwards what it observes, one frame per message.
/// let frames: Vec<_> = [&msg].into_iter().filter(|m| agent.observes(m)).map(encode).collect();
/// assert_eq!(decode_one(&frames[0]).unwrap(), msg);
/// ```
#[derive(Debug, Clone)]
pub struct CaptureAgent {
    node: NodeId,
}

impl CaptureAgent {
    /// Agent watching `node`.
    pub fn new(node: NodeId) -> CaptureAgent {
        CaptureAgent { node }
    }

    /// Whether this agent observes (and is responsible for forwarding)
    /// `msg`: egress capture, so exactly one agent owns each message.
    pub fn observes(&self, msg: &Message) -> bool {
        msg.src_node == self.node && is_relevant(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_model::{ApiId, ConnKey, Direction, HttpMethod, Message, MessageId, WireKind};

    fn msg(id: u64, ts: u64, src: u8, dst_service: Service) -> Message {
        Message {
            id: MessageId(id),
            ts_us: ts,
            src_node: NodeId(src),
            dst_node: NodeId(0),
            src_service: Service::Nova,
            dst_service,
            api: ApiId(1),
            direction: Direction::Request,
            wire: WireKind::Rest {
                method: HttpMethod::Get,
                uri: "/x".into(),
                status: None,
            },
            conn: ConnKey::default(),
            payload: vec![1, 2, 3],
            correlation_id: None,
            project: None,
            truth_op: None,
            truth_noise: false,
        }
    }

    #[test]
    fn egress_capture_owns_each_message_once() {
        let traffic = [
            msg(0, 10, 0, Service::Neutron),
            msg(1, 20, 1, Service::Nova),
            msg(2, 30, 0, Service::Glance),
        ];
        let owned = |node| {
            let agent = CaptureAgent::new(NodeId(node));
            traffic.iter().filter(|m| agent.observes(m)).count()
        };
        assert_eq!((owned(0), owned(1), owned(2)), (2, 1, 0));
    }

    #[test]
    fn database_and_ntp_traffic_is_filtered() {
        assert!(!is_relevant(&msg(0, 0, 0, Service::MySql)));
        assert!(!is_relevant(&msg(0, 0, 0, Service::Ntp)));
        assert!(is_relevant(&msg(0, 0, 0, Service::RabbitMq)));
        assert!(is_relevant(&msg(0, 0, 0, Service::Neutron)));
    }
}

/// Capture degradation model: the monitoring path itself can lose frames
/// (an overloaded span port, a Bro worker shedding load). GRETEL is built
/// to degrade gracefully — starred symbols may be missing from a snapshot
/// without invalidating a match — and this models the condition.
#[derive(Debug, Clone, Copy)]
pub struct Degradation {
    /// Independent probability of losing each captured message.
    pub drop_prob: f64,
    /// RNG seed (deterministic degradation).
    pub seed: u64,
}

/// Apply capture loss to a traffic log. Error messages are never dropped
/// when `keep_errors` is set (a convenient way to isolate the effect of
/// losing *context* from the effect of losing the fault itself).
pub fn degrade(traffic: &[Message], degradation: Degradation, keep_errors: bool) -> Vec<Message> {
    // Deterministic per-message coin flips via splitmix64 so degradation
    // does not depend on iteration patterns.
    let mut out = Vec::with_capacity(traffic.len());
    for m in traffic {
        if keep_errors && (m.is_rest_error() || m.is_rpc_error()) {
            out.push(m.clone());
            continue;
        }
        let x = finalize(degradation.seed ^ m.id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let coin = (x >> 11) as f64 / (1u64 << 53) as f64;
        if coin >= degradation.drop_prob {
            out.push(m.clone());
        }
    }
    out
}

#[cfg(test)]
mod degradation_tests {
    use super::*;
    use gretel_model::message::render_rest_response_payload;
    use gretel_model::{
        ApiId, ConnKey, Direction, HttpMethod, Message, MessageId, NodeId, Service, WireKind,
    };

    fn msg(id: u64, status: Option<u16>) -> Message {
        Message {
            id: MessageId(id),
            ts_us: id,
            src_node: NodeId(0),
            dst_node: NodeId(1),
            src_service: Service::Horizon,
            dst_service: Service::Nova,
            api: ApiId(1),
            direction: Direction::Response,
            wire: WireKind::Rest {
                method: HttpMethod::Get,
                uri: "/x".into(),
                status,
            },
            conn: ConnKey::default(),
            payload: status
                .map(|s| render_rest_response_payload(s, "x", 8))
                .unwrap_or_default(),
            correlation_id: None,
            project: None,
            truth_op: None,
            truth_noise: false,
        }
    }

    #[test]
    fn zero_loss_is_identity() {
        let traffic: Vec<Message> = (0..100).map(|i| msg(i, Some(200))).collect();
        let out = degrade(
            &traffic,
            Degradation {
                drop_prob: 0.0,
                seed: 1,
            },
            false,
        );
        assert_eq!(out, traffic);
    }

    #[test]
    fn loss_rate_is_approximately_honored() {
        let traffic: Vec<Message> = (0..10_000).map(|i| msg(i, Some(200))).collect();
        let out = degrade(
            &traffic,
            Degradation {
                drop_prob: 0.3,
                seed: 2,
            },
            false,
        );
        let kept = out.len() as f64 / traffic.len() as f64;
        assert!((kept - 0.7).abs() < 0.03, "kept {kept}");
    }

    #[test]
    fn degradation_is_deterministic() {
        let traffic: Vec<Message> = (0..1_000).map(|i| msg(i, Some(200))).collect();
        let a = degrade(
            &traffic,
            Degradation {
                drop_prob: 0.5,
                seed: 3,
            },
            false,
        );
        let b = degrade(
            &traffic,
            Degradation {
                drop_prob: 0.5,
                seed: 3,
            },
            false,
        );
        assert_eq!(a, b);
        let c = degrade(
            &traffic,
            Degradation {
                drop_prob: 0.5,
                seed: 4,
            },
            false,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn errors_survive_when_requested() {
        let traffic: Vec<Message> = (0..1_000)
            .map(|i| msg(i, Some(if i % 10 == 0 { 500 } else { 200 })))
            .collect();
        let out = degrade(
            &traffic,
            Degradation {
                drop_prob: 0.9,
                seed: 5,
            },
            true,
        );
        let errors = out.iter().filter(|m| m.is_rest_error()).count();
        assert_eq!(errors, 100, "all errors kept");
    }

    #[test]
    fn order_is_preserved() {
        let traffic: Vec<Message> = (0..500).map(|i| msg(i, Some(200))).collect();
        let out = degrade(
            &traffic,
            Degradation {
                drop_prob: 0.4,
                seed: 6,
            },
            false,
        );
        for w in out.windows(2) {
            assert!(w[0].id < w[1].id);
        }
    }
}

/// Apply per-node clock skew to captured timestamps (NTP drift on the
/// *monitoring* hosts, not the deployment — the paper mandates NTP
/// everywhere precisely because skew reorders the merged event stream).
/// Each node gets a deterministic offset in `[-max_skew_us, +max_skew_us]`
/// and the stream is re-sorted the way the analyzer-side merge would see
/// it.
pub fn skew_clocks(traffic: &[Message], max_skew_us: i64, seed: u64) -> Vec<Message> {
    let offset = |node: NodeId| -> i64 {
        if max_skew_us == 0 {
            return 0;
        }
        let mut x = seed ^ ((node.0 as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        x ^= x >> 33;
        x = x.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        x ^= x >> 29;
        (x % (2 * max_skew_us as u64 + 1)) as i64 - max_skew_us
    };
    let mut out: Vec<Message> = traffic
        .iter()
        .map(|m| {
            let mut m = m.clone();
            m.ts_us = m.ts_us.saturating_add_signed(offset(m.src_node));
            m
        })
        .collect();
    out.sort_by_key(|m| (m.ts_us, m.id));
    out
}

#[cfg(test)]
mod skew_tests {
    use super::*;
    use gretel_model::{ApiId, ConnKey, Direction, HttpMethod, MessageId, Service, WireKind};

    fn msg(id: u64, ts: u64, node: u8) -> Message {
        Message {
            id: MessageId(id),
            ts_us: ts,
            src_node: NodeId(node),
            dst_node: NodeId(0),
            src_service: Service::Nova,
            dst_service: Service::Horizon,
            api: ApiId(1),
            direction: Direction::Request,
            wire: WireKind::Rest {
                method: HttpMethod::Get,
                uri: "/x".into(),
                status: None,
            },
            conn: ConnKey::default(),
            payload: vec![],
            correlation_id: None,
            project: None,
            truth_op: None,
            truth_noise: false,
        }
    }

    #[test]
    fn zero_skew_is_identity() {
        let traffic: Vec<Message> = (0..50).map(|i| msg(i, i * 10, (i % 5) as u8)).collect();
        assert_eq!(skew_clocks(&traffic, 0, 1), traffic);
    }

    #[test]
    fn skew_is_per_node_and_bounded() {
        let traffic: Vec<Message> = (0..200)
            .map(|i| msg(i, 1_000_000 + i, (i % 7) as u8))
            .collect();
        let skewed = skew_clocks(&traffic, 500, 9);
        for m in &skewed {
            let orig = traffic.iter().find(|o| o.id == m.id).unwrap();
            let delta = m.ts_us as i64 - orig.ts_us as i64;
            assert!(delta.abs() <= 500, "delta {delta}");
        }
        // Same node always gets the same offset.
        let deltas: std::collections::HashSet<i64> = skewed
            .iter()
            .filter(|m| m.src_node == NodeId(3))
            .map(|m| {
                let orig = traffic.iter().find(|o| o.id == m.id).unwrap();
                m.ts_us as i64 - orig.ts_us as i64
            })
            .collect();
        assert_eq!(deltas.len(), 1);
    }

    #[test]
    fn output_is_time_sorted() {
        let traffic: Vec<Message> = (0..300).map(|i| msg(i, i * 3, (i % 7) as u8)).collect();
        let skewed = skew_clocks(&traffic, 1_000, 4);
        for w in skewed.windows(2) {
            assert!((w[0].ts_us, w[0].id) <= (w[1].ts_us, w[1].id));
        }
    }
}

/// Deterministic 64-bit hash of `(seed, a, b, salt)` — splitmix64
/// finalizer, same family as [`degrade`]'s per-message coin. The one seeded
/// coin of the pipeline: capture impairment keys it on `(agent, frame
/// index)`, the analysis-plane chaos injector in `gretel-core` on `(job,
/// attempt)`. Every decision is a pure function of these four values, so a
/// run is reproducible regardless of thread scheduling or batch boundaries.
pub fn mix64(seed: u64, a: u64, b: u64, salt: u64) -> u64 {
    finalize(
        seed ^ (a + 1).wrapping_mul(0xA076_1D64_78BD_642F)
            ^ (b + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (salt + 1).wrapping_mul(0xE703_7ED1_A0B4_28DB),
    )
}

/// [`mix64`] as a uniform draw in `[0, 1)`: compare against a probability.
pub fn coin(seed: u64, a: u64, b: u64, salt: u64) -> f64 {
    (mix64(seed, a, b, salt) >> 11) as f64 / (1u64 << 53) as f64
}

/// An agent outage: the agent captures nothing for a window of frames and
/// then comes back (a Bro worker restart). Frame indices are counted per
/// agent from the start of its stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallSpec {
    /// First frame index swallowed by the stall.
    pub start_frame: u64,
    /// How many consecutive frames the stall swallows.
    pub frames: u64,
}

/// Seeded, deterministic capture-plane impairment.
///
/// Wraps any agent's frame stream and perturbs it the way an overloaded tap
/// does: independent probabilistic frame drop and duplication, bounded
/// reordering (a frame may be delayed by at most `reorder_span` positions),
/// and an optional agent stall window. All decisions derive from `(seed,
/// agent, frame index)` — never from a frame's bytes — so two runs with the
/// same seed impair identically, and a stream of encoded frames and a
/// stream of the messages they encode are impaired alike.
///
/// ```
/// use bytes::Bytes;
/// use gretel_model::NodeId;
/// use gretel_netcap::{CaptureImpairment, CaptureStats};
///
/// let frames: Vec<Bytes> = (0..100u8).map(|i| Bytes::from(vec![i])).collect();
/// let imp = CaptureImpairment { drop_prob: 0.2, seed: 7, ..CaptureImpairment::none() };
///
/// let mut stats = CaptureStats::default();
/// let out = imp.apply(NodeId(0), frames.clone(), &mut stats);
/// assert_eq!(stats.frames, 100);
/// assert!(stats.dropped > 0);
/// assert_eq!(out.len() as u64, 100 - stats.dropped);
///
/// // Same seed, same impairment: the injector is deterministic.
/// let mut again = CaptureStats::default();
/// assert_eq!(imp.apply(NodeId(0), frames, &mut again), out);
/// assert_eq!(again, stats);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureImpairment {
    /// Independent probability of dropping each frame.
    pub drop_prob: f64,
    /// Independent probability of emitting each frame twice.
    pub dup_prob: f64,
    /// Independent probability of delaying a frame out of order.
    pub reorder_prob: f64,
    /// Maximum positions a reordered frame is delayed by (bounded reorder).
    pub reorder_span: usize,
    /// Optional agent stall-and-restart window.
    pub stall: Option<StallSpec>,
    /// RNG seed; all decisions are pure functions of it.
    pub seed: u64,
}

impl CaptureImpairment {
    /// The identity impairment: every rate zero, no stall.
    pub fn none() -> CaptureImpairment {
        CaptureImpairment {
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_span: 0,
            stall: None,
            seed: 0,
        }
    }

    /// True when applying this impairment cannot change any stream.
    pub fn is_noop(&self) -> bool {
        self.drop_prob <= 0.0
            && self.dup_prob <= 0.0
            && (self.reorder_prob <= 0.0 || self.reorder_span == 0)
            && self.stall.is_none()
    }

    /// Perturb one agent's frame stream, accumulating what happened into
    /// `stats`. A frame is any item — encoded bytes, or the message an agent
    /// is about to encode — since only its position is read. Frame indices
    /// continue across calls only if the caller passes the whole stream at
    /// once; pass a full capture batch for reproducible results.
    pub fn apply<T: Clone>(
        &self,
        agent: NodeId,
        frames: Vec<T>,
        stats: &mut CaptureStats,
    ) -> Vec<T> {
        stats.frames += frames.len() as u64;
        if self.is_noop() {
            return frames;
        }
        let mut survivors: Vec<T> = Vec::with_capacity(frames.len());
        for (i, f) in frames.into_iter().enumerate() {
            let idx = i as u64;
            if let Some(s) = self.stall {
                if idx >= s.start_frame && idx < s.start_frame.saturating_add(s.frames) {
                    stats.stalled += 1;
                    continue;
                }
            }
            if self.drop_prob > 0.0 && coin(self.seed, agent.0 as u64, idx, 1) < self.drop_prob {
                stats.dropped += 1;
                continue;
            }
            if self.dup_prob > 0.0 && coin(self.seed, agent.0 as u64, idx, 2) < self.dup_prob {
                stats.duplicated += 1;
                survivors.push(f.clone());
            }
            survivors.push(f);
        }
        if self.reorder_prob > 0.0 && self.reorder_span > 0 {
            // Delay selected frames by a bounded number of positions: give
            // each survivor a sort key of its position plus jitter, then
            // stable-sort. Un-jittered frames keep their relative order.
            let mut keyed: Vec<(usize, usize, T)> = survivors
                .into_iter()
                .enumerate()
                .map(|(j, f)| {
                    let jitter = if coin(self.seed, agent.0 as u64, j as u64, 3) < self.reorder_prob
                    {
                        1 + (mix64(self.seed, agent.0 as u64, j as u64, 4) as usize
                            % self.reorder_span)
                    } else {
                        0
                    };
                    (j + jitter, j, f)
                })
                .collect();
            keyed.sort_by_key(|&(key, _, _)| key);
            stats.reordered += keyed
                .iter()
                .enumerate()
                .filter(|&(out_j, &(_, j, _))| out_j != j)
                .count() as u64;
            survivors = keyed.into_iter().map(|(_, _, f)| f).collect();
        }
        survivors
    }
}

/// A frame stamped `u64::MAX`: `next` would have to become 2⁶⁴.
const UNFOLLOWABLE: DecodeError = DecodeError::Invalid("sequence number cannot be followed");

/// Receiver-side per-agent sequence tracking.
///
/// Consumes `(seq, message)` pairs as decoded off one agent's link and
/// restores sequence order where possible: out-of-order frames are parked
/// in a bounded pending buffer, duplicates (an already-delivered or
/// already-pending sequence number) are discarded, and once the buffer
/// exceeds its depth the resequencer force-advances past the missing
/// numbers, reporting them as a capture gap. Each emitted message carries
/// the number of frames inferred lost immediately before it — the
/// "synthetic gap marker" the analyzer turns into degraded-confidence
/// diagnoses.
///
/// Frames with no sequence number (legacy captures) pass straight through.
#[derive(Debug, Default)]
pub struct Resequencer {
    next: u64,
    pending: BTreeMap<u64, Message>,
    depth: usize,
    stats: CaptureStats,
}

impl Resequencer {
    /// A resequencer willing to park up to `depth` out-of-order frames.
    /// Depth 0 never reorders: any forward jump is reported as a gap
    /// immediately.
    pub fn new(depth: usize) -> Resequencer {
        Resequencer {
            next: 0,
            pending: BTreeMap::new(),
            depth,
            stats: CaptureStats::default(),
        }
    }

    /// Feed one decoded frame. Returns the messages released in sequence
    /// order, each tagged with the count of frames lost immediately before
    /// it (0 = no gap, saturating at `u32::MAX`).
    ///
    /// Sequence number `u64::MAX` is refused and the resequencer left as
    /// it was: no delivery position can follow it, so accepting it would
    /// leave every replayed frame looking new.
    pub fn try_push(
        &mut self,
        seq: Option<u64>,
        msg: Message,
    ) -> Result<Vec<(u32, Message)>, frame::CodecError> {
        let mut out = Vec::with_capacity(1);
        let Some(seq) = seq else {
            // Unsequenced frame: nothing to infer, pass through.
            out.push((0, msg));
            return Ok(out);
        };
        if seq == u64::MAX {
            return Err(UNFOLLOWABLE.into());
        }
        if seq < self.next || self.pending.contains_key(&seq) {
            self.stats.dup_discarded += 1;
            return Ok(out);
        }
        if seq == self.next {
            self.next += 1;
            out.push((0, msg));
            self.drain_ready(&mut out);
        } else {
            self.pending.insert(seq, msg);
            while self.pending.len() > self.depth {
                self.force_advance(&mut out);
            }
        }
        Ok(out)
    }

    /// [`Resequencer::try_push`] for a stream whose sequence numbers the
    /// caller stamped itself.
    ///
    /// # Panics
    ///
    /// Panics on sequence number `u64::MAX`; feed frames that came off a
    /// link through [`Resequencer::try_push`].
    pub fn push(&mut self, seq: Option<u64>, msg: Message) -> Vec<(u32, Message)> {
        self.try_push(seq, msg)
            .expect("caller-stamped sequence numbers stay below u64::MAX")
    }

    /// Release everything still pending (end of stream), reporting the
    /// remaining holes as gaps.
    pub fn flush(&mut self) -> Vec<(u32, Message)> {
        let mut out = Vec::with_capacity(self.pending.len());
        while !self.pending.is_empty() {
            self.force_advance(&mut out);
        }
        out
    }

    /// What this resequencer observed so far (`gaps`, `lost`,
    /// `dup_discarded`; the injector-side counters stay zero).
    pub fn stats(&self) -> CaptureStats {
        self.stats
    }

    fn force_advance(&mut self, out: &mut Vec<(u32, Message)>) {
        // Stale entries (seq < next) cannot arise from `push`, which
        // discards them on arrival — but a parked frame restored from a
        // checkpoint taken by older code, or any future caller invariant
        // slip, would make `seq - self.next` underflow into a ~u64::MAX
        // gap (a debug-build panic). Discard them as late duplicates
        // instead of advancing.
        while let Some((seq, msg)) = self.pending.pop_first() {
            if seq < self.next {
                self.stats.dup_discarded += 1;
                continue;
            }
            // No overflow: every tracked `seq` is below `u64::MAX`, and the
            // holes counted into `lost` are disjoint runs below `next`
            // (`try_push` and `restore_state` refuse anything else).
            let gap = seq - self.next;
            if gap > 0 {
                self.stats.gaps += 1;
                self.stats.lost += gap;
            }
            self.next = seq + 1;
            out.push((u32::try_from(gap).unwrap_or(u32::MAX), msg));
            self.drain_ready(out);
            return;
        }
    }

    fn drain_ready(&mut self, out: &mut Vec<(u32, Message)>) {
        while let Some(msg) = self.pending.remove(&self.next) {
            self.next += 1;
            out.push((0, msg));
        }
    }

    /// Serialize the full resequencing state — delivery position, parked
    /// out-of-order frames, depth and accumulated stats — for an analyzer
    /// checkpoint. Restoring with [`Resequencer::restore_state`] and
    /// replaying the agent stream from the beginning yields exactly the
    /// suffix the uninterrupted resequencer would have produced: replayed
    /// frames with `seq < next` (or already parked) are discarded as
    /// duplicates, so the downstream merge sees each message once.
    pub fn export_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.pending.len() * 64);
        put_u64(&mut out, self.next);
        put_u64(&mut out, self.depth as u64);
        for v in [
            self.stats.frames,
            self.stats.dropped,
            self.stats.duplicated,
            self.stats.reordered,
            self.stats.stalled,
            self.stats.gaps,
            self.stats.lost,
            self.stats.dup_discarded,
        ] {
            put_u64(&mut out, v);
        }
        put_count(&mut out, self.pending.len());
        for (&seq, msg) in &self.pending {
            put_u64(&mut out, seq);
            put_bytes(&mut out, &frame::encode(msg));
        }
        out
    }

    /// Rebuild a resequencer from [`Resequencer::export_state`] bytes.
    /// Malformed input — including a delivery position or parked sequence
    /// number of `u64::MAX`, or more frames lost than the delivery position
    /// has passed, which is what could overflow the arithmetic above — is
    /// a [`frame::CodecError`], never a partial restore.
    pub fn restore_state(bytes: &[u8]) -> Result<Resequencer, frame::CodecError> {
        let mut r = Reader::new(bytes);
        let next = r.u64()?;
        if next == u64::MAX {
            // The stream would be waiting for a frame no link may carry.
            return Err(UNFOLLOWABLE.into());
        }
        let depth = r.u64()? as usize;
        let stats = CaptureStats {
            frames: r.u64()?,
            dropped: r.u64()?,
            duplicated: r.u64()?,
            reordered: r.u64()?,
            stalled: r.u64()?,
            gaps: r.u64()?,
            lost: r.u64()?,
            dup_discarded: r.u64()?,
        };
        let mut pending = BTreeMap::new();
        // Each parked frame is at least its seq and a length prefix.
        for _ in 0..r.count(8 + 4)? {
            let seq = r.u64()?;
            if seq == u64::MAX {
                return Err(UNFOLLOWABLE.into());
            }
            pending.insert(seq, frame::decode_one(r.bytes()?)?);
        }
        r.done()?;
        if stats.lost > next {
            return Err(DecodeError::Invalid("lost count past the delivery position").into());
        }
        Ok(Resequencer {
            next,
            pending,
            depth,
            stats,
        })
    }
}

#[cfg(test)]
mod impairment_tests {
    use super::*;
    use crate::batch::{FrameBatch, FrameBatchBuilder};
    use bytes::Bytes;
    use gretel_model::{ApiId, ConnKey, Direction, HttpMethod, MessageId, Service, WireKind};

    fn frames(n: u64) -> Vec<Bytes> {
        (0..n)
            .map(|i| Bytes::from(i.to_le_bytes().to_vec()))
            .collect()
    }

    fn msg(id: u64) -> Message {
        Message {
            id: MessageId(id),
            ts_us: id,
            src_node: NodeId(0),
            dst_node: NodeId(1),
            src_service: Service::Nova,
            dst_service: Service::Neutron,
            api: ApiId(1),
            direction: Direction::Request,
            wire: WireKind::Rest {
                method: HttpMethod::Get,
                uri: "/x".into(),
                status: None,
            },
            conn: ConnKey::default(),
            payload: vec![],
            correlation_id: None,
            project: None,
            truth_op: None,
            truth_noise: false,
        }
    }

    #[test]
    fn noop_impairment_is_identity() {
        let f = frames(50);
        let mut stats = CaptureStats::default();
        let out = CaptureImpairment::none().apply(NodeId(3), f.clone(), &mut stats);
        assert_eq!(out, f);
        assert_eq!(stats.frames, 50);
        assert!(stats.is_clean());
    }

    #[test]
    fn drop_rate_is_approximately_honored() {
        let f = frames(10_000);
        let mut stats = CaptureStats::default();
        let imp = CaptureImpairment {
            drop_prob: 0.1,
            seed: 11,
            ..CaptureImpairment::none()
        };
        let out = imp.apply(NodeId(0), f, &mut stats);
        let kept = out.len() as f64 / 10_000.0;
        assert!((kept - 0.9).abs() < 0.02, "kept {kept}");
        assert_eq!(out.len() as u64 + stats.dropped, stats.frames);
    }

    #[test]
    fn duplication_emits_adjacent_copies() {
        let f = frames(5_000);
        let mut stats = CaptureStats::default();
        let imp = CaptureImpairment {
            dup_prob: 0.2,
            seed: 12,
            ..CaptureImpairment::none()
        };
        let out = imp.apply(NodeId(0), f, &mut stats);
        assert_eq!(out.len() as u64, stats.frames + stats.duplicated);
        assert!(stats.duplicated > 0);
        let adjacent_pairs = out.windows(2).filter(|w| w[0] == w[1]).count() as u64;
        assert!(adjacent_pairs >= stats.duplicated);
    }

    #[test]
    fn reorder_is_bounded_by_span() {
        let f = frames(2_000);
        let mut stats = CaptureStats::default();
        let imp = CaptureImpairment {
            reorder_prob: 0.3,
            reorder_span: 4,
            seed: 13,
            ..CaptureImpairment::none()
        };
        let out = imp.apply(NodeId(0), f.clone(), &mut stats);
        assert!(stats.reordered > 0);
        assert_eq!(out.len(), f.len());
        // A frame at original position j lands no more than span positions
        // later and can slide at most span positions earlier.
        for (out_j, b) in out.iter().enumerate() {
            let j = f.iter().position(|o| o == b).unwrap();
            assert!((out_j as i64 - j as i64).abs() <= 4, "moved {j} -> {out_j}");
        }
    }

    #[test]
    fn stall_swallows_a_window() {
        let f = frames(100);
        let mut stats = CaptureStats::default();
        let imp = CaptureImpairment {
            stall: Some(StallSpec {
                start_frame: 10,
                frames: 25,
            }),
            ..CaptureImpairment::none()
        };
        let out = imp.apply(NodeId(0), f.clone(), &mut stats);
        assert_eq!(stats.stalled, 25);
        assert_eq!(out.len(), 75);
        assert_eq!(out[9], f[9]);
        assert_eq!(out[10], f[35]);
    }

    #[test]
    fn impairment_is_deterministic_per_agent() {
        let f = frames(1_000);
        let imp = CaptureImpairment {
            drop_prob: 0.1,
            dup_prob: 0.05,
            reorder_prob: 0.1,
            reorder_span: 3,
            stall: None,
            seed: 42,
        };
        let mut s1 = CaptureStats::default();
        let mut s2 = CaptureStats::default();
        let a = imp.apply(NodeId(1), f.clone(), &mut s1);
        let b = imp.apply(NodeId(1), f.clone(), &mut s2);
        assert_eq!(a, b);
        assert_eq!(s1, s2);
        // Different agents see different coin streams.
        let mut s3 = CaptureStats::default();
        let c = imp.apply(NodeId(2), f, &mut s3);
        assert_ne!(a, c);
    }

    #[test]
    fn impairing_messages_then_encoding_equals_impairing_encoded_frames() {
        // An agent impairs its `(seq, message)` pairs and encodes the
        // survivors straight into the arena; that must ship the very batches
        // that impairing the `encode_seq` frames and copying them in would.
        let msgs: Vec<Message> = (0..300).map(msg).collect();
        let pairs: Vec<(u64, &Message)> = (0..).zip(&msgs).collect();
        let encoded: Vec<Bytes> = pairs
            .iter()
            .map(|&(seq, m)| frame::encode_seq(m, seq))
            .collect();
        let none = CaptureImpairment::none();
        let stall = Some(StallSpec {
            start_frame: 40,
            frames: 25,
        });
        let mut grid = vec![none];
        for seed in [1, 7, 42] {
            let base = CaptureImpairment { seed, ..none };
            grid.push(CaptureImpairment {
                drop_prob: 0.1,
                ..base
            });
            grid.push(CaptureImpairment {
                dup_prob: 0.1,
                ..base
            });
            for reorder_span in 1..=8 {
                grid.push(CaptureImpairment {
                    reorder_prob: 0.2,
                    reorder_span,
                    ..base
                });
            }
            grid.push(CaptureImpairment { stall, ..base });
            grid.push(CaptureImpairment {
                drop_prob: 0.05,
                dup_prob: 0.05,
                reorder_prob: 0.1,
                reorder_span: 3,
                stall,
                seed,
            });
        }
        let mut impaired = 0;
        for imp in &grid {
            for node in [NodeId(0), NodeId(3), NodeId(7)] {
                let mut by_pair = CaptureStats::default();
                let mut direct = FrameBatchBuilder::new(16);
                let mut shipped: Vec<FrameBatch> = imp
                    .apply(node, pairs.clone(), &mut by_pair)
                    .into_iter()
                    .filter_map(|(seq, m)| direct.encode(m, Some(seq)))
                    .collect();
                shipped.extend(direct.finish());

                let mut by_frame = CaptureStats::default();
                let mut copied = FrameBatchBuilder::new(16);
                let mut staged: Vec<FrameBatch> = imp
                    .apply(node, encoded.clone(), &mut by_frame)
                    .iter()
                    .filter_map(|f| copied.push(f))
                    .collect();
                staged.extend(copied.finish());

                assert_eq!(shipped, staged, "{imp:?} at {node:?}");
                assert_eq!(by_pair, by_frame, "{imp:?} at {node:?}");
                impaired += usize::from(!by_pair.is_clean());
            }
        }
        // Span-1 jitter ties with its successor and keeps the order; every
        // other cell perturbs the stream.
        assert!(impaired >= 2 * grid.len(), "only {impaired} cells bit");
    }

    #[test]
    fn resequencer_passes_in_order_frames_through() {
        let mut rsq = Resequencer::new(8);
        let mut got = Vec::new();
        for i in 0..10 {
            got.extend(rsq.push(Some(i), msg(i)));
        }
        got.extend(rsq.flush());
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|(gap, _)| *gap == 0));
        assert!(rsq.stats().is_clean());
    }

    #[test]
    fn resequencer_repairs_bounded_reorder_without_gaps() {
        let mut rsq = Resequencer::new(8);
        let mut got = Vec::new();
        for seq in [1u64, 0, 2, 4, 3, 5] {
            got.extend(rsq.push(Some(seq), msg(seq)));
        }
        got.extend(rsq.flush());
        let seqs: Vec<u64> = got.iter().map(|(_, m)| m.id.0).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
        assert!(got.iter().all(|(gap, _)| *gap == 0));
        assert_eq!(rsq.stats().gaps, 0);
    }

    #[test]
    fn resequencer_reports_losses_as_gaps() {
        let mut rsq = Resequencer::new(2);
        let mut got = Vec::new();
        // Seqs 1 and 2 never arrive.
        for seq in [0u64, 3, 4, 5, 6] {
            got.extend(rsq.push(Some(seq), msg(seq)));
        }
        got.extend(rsq.flush());
        let gaps: Vec<u32> = got.iter().map(|(gap, _)| *gap).collect();
        assert_eq!(gaps, vec![0, 2, 0, 0, 0]);
        assert_eq!(rsq.stats().gaps, 1);
        assert_eq!(rsq.stats().lost, 2);
    }

    #[test]
    fn resequencer_discards_duplicates() {
        let mut rsq = Resequencer::new(4);
        let mut got = Vec::new();
        for seq in [0u64, 1, 1, 0, 2, 2] {
            got.extend(rsq.push(Some(seq), msg(seq)));
        }
        assert_eq!(got.len(), 3);
        assert_eq!(rsq.stats().dup_discarded, 3);
        assert_eq!(rsq.stats().lost, 0);
    }

    #[test]
    fn resequencer_flush_reports_trailing_holes() {
        let mut rsq = Resequencer::new(16);
        let mut got = Vec::new();
        got.extend(rsq.push(Some(0), msg(0)));
        got.extend(rsq.push(Some(5), msg(5)));
        got.extend(rsq.push(Some(7), msg(7)));
        got.extend(rsq.flush());
        let gaps: Vec<u32> = got.iter().map(|(gap, _)| *gap).collect();
        assert_eq!(gaps, vec![0, 4, 1]);
        assert_eq!(rsq.stats().gaps, 2);
        assert_eq!(rsq.stats().lost, 5);
    }

    #[test]
    fn resequencer_state_round_trips_and_dedups_replay() {
        // Build mid-stream state: parked frames and a recorded gap.
        let mut rsq = Resequencer::new(8);
        let mut live = Vec::new();
        for seq in [0u64, 1, 3, 5] {
            live.extend(rsq.push(Some(seq), msg(seq)));
        }
        let state = rsq.export_state();
        let mut restored = Resequencer::restore_state(&state).unwrap();
        assert_eq!(restored.stats(), rsq.stats());

        // Replay the whole stream from the start into the restored copy:
        // already-delivered and already-parked seqs are discarded as dups,
        // then the stream continues. The concatenation of live prefix +
        // restored suffix equals the uninterrupted run.
        let mut uninterrupted = Resequencer::new(8);
        let mut want = Vec::new();
        let full = [0u64, 1, 3, 5, 2, 4, 6];
        for &seq in &full {
            want.extend(uninterrupted.push(Some(seq), msg(seq)));
        }
        want.extend(uninterrupted.flush());

        let mut got = live;
        for &seq in &full {
            got.extend(restored.push(Some(seq), msg(seq)));
        }
        got.extend(restored.flush());
        assert_eq!(got, want);
        // Dup discards differ (the replayed prefix), but loss accounting
        // matches.
        assert_eq!(restored.stats().lost, uninterrupted.stats().lost);
        assert_eq!(restored.stats().gaps, uninterrupted.stats().gaps);
    }

    /// Hand-build [`Resequencer::export_state`] bytes with arbitrary
    /// `next` / pending entries (including invariant-violating ones no
    /// live push sequence can produce).
    fn crafted_state(next: u64, depth: u64, pending: &[(u64, Message)]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, next);
        put_u64(&mut out, depth);
        for _ in 0..8 {
            put_u64(&mut out, 0);
        }
        put_count(&mut out, pending.len());
        for (seq, m) in pending {
            put_u64(&mut out, *seq);
            put_bytes(&mut out, &frame::encode(m));
        }
        out
    }

    #[test]
    fn resequencer_force_advance_discards_stale_pending_seq() {
        // Regression: a pending entry below the delivery position (here
        // via a restored checkpoint from a foreign writer; any caller
        // invariant slip reaches the same code) made `seq - self.next`
        // underflow in force_advance — a debug panic, or a ~u64::MAX
        // gap/lost count in release. It must be discarded as a late
        // duplicate instead.
        let state = crafted_state(5, 8, &[(2, msg(2)), (7, msg(7))]);
        let mut rsq = Resequencer::restore_state(&state).unwrap();
        let got = rsq.flush();
        let seqs: Vec<u64> = got.iter().map(|(_, m)| m.id.0).collect();
        assert_eq!(seqs, vec![7], "stale seq 2 is not re-delivered");
        assert_eq!(got[0].0, 2, "only the true hole (seqs 5, 6) is a gap");
        assert_eq!(rsq.stats().dup_discarded, 1);
        assert_eq!(rsq.stats().gaps, 1);
        assert_eq!(rsq.stats().lost, 2);
    }

    #[test]
    fn resequencer_dup_after_forced_advance_is_discarded() {
        // A late duplicate arriving *after* a forced advance past a hole:
        // its seq is below the (jumped) delivery position and must be
        // counted as a duplicate, never turned into gap accounting.
        let mut rsq = Resequencer::new(1);
        let mut got = Vec::new();
        got.extend(rsq.push(Some(0), msg(0)));
        got.extend(rsq.push(Some(5), msg(5))); // parks
        got.extend(rsq.push(Some(7), msg(7))); // over depth → force-advance to 5
        got.extend(rsq.push(Some(3), msg(3))); // late dup of the skipped hole
        got.extend(rsq.push(Some(6), msg(6))); // fills up to parked 7
        let seqs: Vec<u64> = got.iter().map(|(_, m)| m.id.0).collect();
        assert_eq!(seqs, vec![0, 5, 6, 7]);
        let gaps: Vec<u32> = got.iter().map(|(gap, _)| *gap).collect();
        assert_eq!(gaps, vec![0, 4, 0, 0]);
        assert_eq!(rsq.stats().dup_discarded, 1);
        assert_eq!(rsq.stats().gaps, 1);
        assert_eq!(rsq.stats().lost, 4);
    }

    #[test]
    fn resequencer_refuses_a_sequence_number_it_cannot_follow() {
        // `next = u64::MAX + 1` used to panic in debug and wrap to 0 in
        // release, after which every replayed frame was accepted as new.
        let mut rsq = Resequencer::new(0);
        assert!(rsq.try_push(Some(u64::MAX), msg(9)).is_err());
        assert!(rsq.stats().is_clean(), "a refused frame leaves no trace");
        assert_eq!(rsq.push(Some(0), msg(0)).len(), 1);
        assert!(
            rsq.push(Some(0), msg(0)).is_empty(),
            "replay dedup still works"
        );
        assert_eq!(rsq.stats().dup_discarded, 1);

        // The same number, or a state only it could produce, in a checkpoint.
        assert!(Resequencer::restore_state(&crafted_state(0, 4, &[(u64::MAX, msg(1))])).is_err());
        assert!(Resequencer::restore_state(&crafted_state(u64::MAX, 4, &[])).is_err());
        let mut lost_past_next = crafted_state(5, 4, &[]);
        lost_past_next[64..72].copy_from_slice(&6u64.to_le_bytes()); // stats.lost
        assert!(Resequencer::restore_state(&lost_past_next).is_err());
        lost_past_next[64..72].copy_from_slice(&5u64.to_le_bytes());
        assert!(Resequencer::restore_state(&lost_past_next).is_ok());
    }

    #[test]
    fn resequencer_saturates_the_marker_of_a_gap_wider_than_u32() {
        // `gap as u32` reported a 2^32-frame hole as marker 0 — "nothing
        // lost" — while the stats said 4 294 967 296.
        let mut rsq = Resequencer::new(0);
        rsq.push(Some(0), msg(0));
        let got = rsq.push(Some((1 << 32) + 1), msg(1));
        assert_eq!(
            got.iter().map(|(gap, _)| *gap).collect::<Vec<_>>(),
            vec![u32::MAX]
        );
        assert_eq!((rsq.stats().gaps, rsq.stats().lost), (1, 1 << 32));
        // One short of the u32 range is still exact.
        let mut rsq = Resequencer::new(0);
        assert_eq!(rsq.push(Some(u32::MAX as u64), msg(0))[0].0, u32::MAX);
        assert_eq!(rsq.stats().lost, u32::MAX as u64);
    }

    #[test]
    fn resequencer_restore_rejects_malformed_state() {
        let mut rsq = Resequencer::new(4);
        rsq.push(Some(0), msg(0));
        rsq.push(Some(2), msg(2));
        let state = rsq.export_state();
        assert!(Resequencer::restore_state(&state[..state.len() - 1]).is_err());
        assert!(Resequencer::restore_state(&[0u8; 7]).is_err());
        let mut trailing = state.clone();
        trailing.push(0xFF);
        assert!(Resequencer::restore_state(&trailing).is_err());
        // The parked-frame count sits after next, depth and eight stats.
        let mut inflated = state;
        inflated[80..84].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Resequencer::restore_state(&inflated).is_err());
    }

    #[test]
    fn unsequenced_frames_bypass_tracking() {
        let mut rsq = Resequencer::new(4);
        let got = rsq.push(None, msg(99));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 0);
        assert!(rsq.stats().is_clean());
    }
}
