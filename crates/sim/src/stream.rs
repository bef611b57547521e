//! Synthetic high-rate message streams for stress testing (§7.4.1).
//!
//! The paper uses `tcpreplay` to push REST/RPC events at up to 50K
//! packets/s with a configurable fault frequency (1 fault per 100…2K
//! messages) and measures GRETEL's sustained throughput. This generator is
//! the software equivalent: it interleaves the message streams of many
//! concurrent operation instances at an exact packet rate and flips every
//! `fault_every`-th REST response into an error.

use gretel_model::message::{
    reason_phrase, render_rest_request_payload, render_rest_response_payload, render_rpc_payload,
};
use gretel_model::{
    ApiKind, Catalog, ConnKey, Direction, HttpMethod, Message, MessageId, NodeId, OpInstanceId,
    OperationSpec, ProjectId, WireKind,
};
use std::sync::Arc;

/// Stream generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Total messages to produce.
    pub total_messages: usize,
    /// One injected REST error per this many messages (0 = no faults).
    pub fault_every: usize,
    /// Packet rate used for timestamps, packets per second.
    pub pps: u64,
    /// Number of concurrently interleaved operation instances.
    pub concurrent_ops: usize,
    /// Number of tenant projects; instance `i` is scoped to project
    /// `i % projects`, stamped on every message the instance emits so the
    /// sharded pipeline can route by tenant.
    pub projects: u32,
    /// Propagate one correlation id per operation instance (the paper's
    /// §5.3.1 `correlation_id` deployment mode).
    pub correlation_ids: bool,
    /// When a fault lands on an instance, terminate that instance: its
    /// cursor recycles onto a fresh instance instead of emitting the
    /// remaining steps. Mirrors an operation aborting on error, and keeps
    /// each instance's event history prefix-complete — a prerequisite for
    /// diagnoses that are byte-identical across shard layouts.
    pub abort_on_fault: bool,
    /// Number of distinct nodes instances are spread over (`NodeId` is a
    /// `u8`, so at most 250 here; the paper-scale "thousands of nodes" is
    /// out of reach of this model and documented as such).
    pub node_spread: u8,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            total_messages: 100_000,
            fault_every: 1_000,
            pps: 50_000,
            concurrent_ops: 64,
            projects: 1,
            correlation_ids: false,
            abort_on_fault: false,
            node_spread: 7,
        }
    }
}

struct Cursor {
    spec_idx: usize,
    step: usize,
    awaiting_response: bool,
    inst: u64,
}

/// Iterator producing an interleaved synthetic message stream.
pub struct SyntheticStream<'a> {
    catalog: Arc<Catalog>,
    specs: &'a [OperationSpec],
    cfg: StreamConfig,
    cursors: Vec<Cursor>,
    emitted: usize,
    next_inst: u64,
    next_rpc: u64,
    turn: usize,
    pending_fault: bool,
}

impl<'a> SyntheticStream<'a> {
    /// Create a stream interleaving instances of `specs` round-robin.
    pub fn new(catalog: Arc<Catalog>, specs: &'a [OperationSpec], cfg: StreamConfig) -> Self {
        assert!(!specs.is_empty(), "need at least one spec");
        assert!(cfg.concurrent_ops > 0, "need at least one concurrent op");
        assert!(cfg.projects > 0, "need at least one project");
        assert!(
            (1..=250).contains(&cfg.node_spread),
            "node_spread must be 1..=250 (NodeId is a u8)"
        );
        let cursors = (0..cfg.concurrent_ops)
            .map(|i| Cursor {
                spec_idx: i % specs.len(),
                step: 0,
                awaiting_response: false,
                inst: i as u64,
            })
            .collect();
        SyntheticStream {
            catalog,
            specs,
            cfg,
            cursors,
            emitted: 0,
            next_inst: cfg.concurrent_ops as u64,
            next_rpc: 1,
            turn: 0,
            pending_fault: false,
        }
    }

    fn ts(&self) -> u64 {
        // Exact pacing: message i is at i / pps seconds.
        (self.emitted as u128 * 1_000_000u128 / self.cfg.pps as u128) as u64
    }

    fn make_fault(&self) -> bool {
        self.cfg.fault_every != 0 && (self.emitted + 1).is_multiple_of(self.cfg.fault_every)
    }
}

impl Iterator for SyntheticStream<'_> {
    type Item = Message;

    fn next(&mut self) -> Option<Message> {
        if self.emitted >= self.cfg.total_messages {
            return None;
        }
        let n = self.cursors.len();
        let cursor_idx = self.turn % n;
        self.turn += 1;
        let ts = self.ts();
        let id = MessageId(self.emitted as u64);
        // Faults are "sticky": if the scheduled message cannot carry an
        // error (a REST request), the fault lands on the next one that can,
        // keeping the realized fault frequency exact.
        if self.make_fault() {
            self.pending_fault = true;
        }

        let cur = &mut self.cursors[cursor_idx];
        let spec = &self.specs[cur.spec_idx];
        if cur.step >= spec.steps.len() {
            // Recycle the cursor onto a fresh instance of the next spec.
            cur.spec_idx = (cur.spec_idx + 1) % self.specs.len();
            cur.step = 0;
            cur.awaiting_response = false;
            cur.inst = self.next_inst;
            self.next_inst += 1;
        }
        let spec = &self.specs[cur.spec_idx];
        let step = &spec.steps[cur.step];
        let def = self.catalog.get(step.api);
        let inst = OpInstanceId(cur.inst);
        let project = Some(ProjectId(cur.inst as u32 % self.cfg.projects));
        let correlation_id = self.cfg.correlation_ids.then_some(cur.inst);
        let spread = self.cfg.node_spread as u64;
        let src_node = NodeId((cur.inst % spread) as u8);
        let dst_node = NodeId(((cur.inst + 1) % spread) as u8);
        let conn = ConnKey {
            src: src_node,
            src_port: 10_000 + (cur.inst % 30_000) as u16,
            dst: dst_node,
            dst_port: 8_774,
        };

        let msg = match &def.kind {
            ApiKind::Rest { method, uri } => {
                if !cur.awaiting_response {
                    cur.awaiting_response = true;
                    Message {
                        id,
                        ts_us: ts,
                        src_node,
                        dst_node,
                        src_service: step.src,
                        dst_service: step.dst,
                        api: step.api,
                        direction: Direction::Request,
                        wire: WireKind::Rest {
                            method: *method,
                            uri: uri.clone(),
                            status: None,
                        },
                        conn,
                        payload: render_rest_request_payload(*method, uri, 128),
                        correlation_id,
                        project,
                        truth_op: Some(inst),
                        truth_noise: false,
                    }
                } else {
                    cur.awaiting_response = false;
                    cur.step += 1;
                    let status = if std::mem::take(&mut self.pending_fault) {
                        if self.cfg.abort_on_fault {
                            // The operation dies with the error: drop its
                            // remaining steps so the cursor recycles onto a
                            // fresh instance next turn.
                            cur.step = spec.steps.len();
                        }
                        500
                    } else {
                        ok_status(*method)
                    };
                    Message {
                        id,
                        ts_us: ts,
                        src_node: dst_node,
                        dst_node: src_node,
                        src_service: step.dst,
                        dst_service: step.src,
                        api: step.api,
                        direction: Direction::Response,
                        wire: WireKind::Rest {
                            method: *method,
                            uri: uri.clone(),
                            status: Some(status),
                        },
                        conn: conn.reversed(),
                        payload: render_rest_response_payload(status, reason_phrase(status), 512),
                        correlation_id,
                        project,
                        truth_op: Some(inst),
                        truth_noise: false,
                    }
                }
            }
            ApiKind::Rpc { method, .. } => {
                cur.step += 1;
                let msg_id = self.next_rpc;
                self.next_rpc += 1;
                let error =
                    std::mem::take(&mut self.pending_fault).then(|| "RemoteError".to_string());
                if error.is_some() && self.cfg.abort_on_fault {
                    cur.step = spec.steps.len();
                }
                Message {
                    id,
                    ts_us: ts,
                    src_node,
                    dst_node,
                    src_service: step.src,
                    dst_service: step.dst,
                    api: step.api,
                    direction: Direction::Request,
                    wire: WireKind::Rpc {
                        method: method.clone(),
                        msg_id,
                        error: error.clone(),
                    },
                    conn,
                    payload: render_rpc_payload(method, msg_id, error.as_deref(), 256),
                    correlation_id,
                    project,
                    truth_op: Some(inst),
                    truth_noise: false,
                }
            }
        };
        self.emitted += 1;
        Some(msg)
    }
}

fn ok_status(method: HttpMethod) -> u16 {
    match method {
        HttpMethod::Get => 200,
        HttpMethod::Post => 202,
        HttpMethod::Put => 200,
        HttpMethod::Delete => 204,
        HttpMethod::Patch => 200,
        HttpMethod::Head => 204,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_model::{OpSpecId, Workflows};

    fn specs() -> Vec<OperationSpec> {
        let wf = Workflows::new(Catalog::openstack());
        vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.image_upload_spec(OpSpecId(1)),
            wf.cinder_list_spec(OpSpecId(2)),
        ]
    }

    #[test]
    fn produces_exactly_total_messages() {
        let cat = Catalog::openstack();
        let specs = specs();
        let cfg = StreamConfig {
            total_messages: 5_000,
            ..StreamConfig::default()
        };
        let stream = SyntheticStream::new(cat, &specs, cfg);
        assert_eq!(stream.count(), 5_000);
    }

    #[test]
    fn fault_frequency_is_respected() {
        let cat = Catalog::openstack();
        let specs = specs();
        let cfg = StreamConfig {
            total_messages: 10_000,
            fault_every: 100,
            ..StreamConfig::default()
        };
        let errors = SyntheticStream::new(cat, &specs, cfg)
            .filter(|m| m.is_rest_error() || m.is_rpc_error())
            .count();
        // The very last scheduled fault may have no error-capable message
        // left to land on, so allow a deficit of one.
        assert!(
            errors == 100 || errors == 99,
            "one fault per 100 messages over 10k messages, got {errors}"
        );
    }

    #[test]
    fn timestamps_follow_the_packet_rate() {
        let cat = Catalog::openstack();
        let specs = specs();
        let cfg = StreamConfig {
            total_messages: 50_001,
            pps: 50_000,
            fault_every: 0,
            ..StreamConfig::default()
        };
        let msgs: Vec<_> = SyntheticStream::new(cat, &specs, cfg).collect();
        assert_eq!(msgs.first().unwrap().ts_us, 0);
        // Message 50_000 lands exactly at 1 second.
        assert_eq!(msgs.last().unwrap().ts_us, 1_000_000);
        for w in msgs.windows(2) {
            assert!(w[0].ts_us <= w[1].ts_us);
        }
    }

    #[test]
    fn no_faults_when_fault_every_is_zero() {
        let cat = Catalog::openstack();
        let specs = specs();
        let cfg = StreamConfig {
            total_messages: 3_000,
            fault_every: 0,
            ..StreamConfig::default()
        };
        assert_eq!(
            SyntheticStream::new(cat, &specs, cfg)
                .filter(|m| m.is_rest_error() || m.is_rpc_error())
                .count(),
            0
        );
    }

    #[test]
    fn interleaves_many_instances() {
        let cat = Catalog::openstack();
        let specs = specs();
        let cfg = StreamConfig {
            total_messages: 2_000,
            concurrent_ops: 32,
            ..StreamConfig::default()
        };
        let insts: std::collections::HashSet<_> = SyntheticStream::new(cat, &specs, cfg)
            .filter_map(|m| m.truth_op)
            .collect();
        assert!(insts.len() >= 32);
    }
}
