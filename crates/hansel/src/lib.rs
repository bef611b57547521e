//! # gretel-hansel — the HANSEL baseline (CoNEXT '15), reimplemented
//!
//! GRETEL's closest comparator. HANSEL diagnoses OpenStack faults by
//! *stitching*: it extracts identifiers (tenant ids, instance uuids, …)
//! from every request/response payload and links messages that share an
//! identifier into chains; on a fault it reports the chain of messages
//! leading to the error. Two properties drive the paper's comparison
//! (§3.1.3, §7.4.1, §9.2):
//!
//! * stitching runs **on every message** (payload tokenization + chain
//!   union), which caps throughput around 1.6K messages/s on the paper's
//!   testbed — orders of magnitude below GRETEL;
//! * a **30-second time bucket** delays reporting to tolerate delayed or
//!   out-of-order messages, so fault reports arrive ~30 s late.
//!
//! This reimplementation reproduces the algorithmic costs and the
//! reporting behaviour, so head-to-head benches against GRETEL are
//! meaningful.

#![warn(missing_docs)]

use gretel_model::{Message, MessageId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// HANSEL configuration.
#[derive(Debug, Clone, Copy)]
pub struct HanselConfig {
    /// Reporting delay for out-of-order tolerance (paper: 30 s).
    pub bucket_window_us: u64,
    /// Maximum chain length retained per identifier group.
    pub max_chain: usize,
}

impl Default for HanselConfig {
    fn default() -> Self {
        HanselConfig {
            bucket_window_us: 30_000_000,
            max_chain: 4096,
        }
    }
}

/// A fault report: the stitched chain of messages leading to an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// The error message.
    pub error: MessageId,
    /// When the error was observed.
    pub ts_error: u64,
    /// When HANSEL released the report (≥ `ts_error` + bucket window).
    pub ts_reported: u64,
    /// The chain of messages sharing identifiers with the error, oldest
    /// first.
    pub chain: Vec<MessageId>,
}

impl FaultReport {
    /// Reporting latency in microseconds.
    pub fn latency_us(&self) -> u64 {
        self.ts_reported - self.ts_error
    }
}

#[derive(Default)]
struct ChainSet {
    /// identifier token -> chain id
    token_chain: HashMap<String, usize>,
    /// chain id -> messages (chains are merged by re-pointing tokens).
    chains: Vec<Vec<(MessageId, u64)>>,
    /// chain id -> canonical (union-find with path compression).
    parent: Vec<usize>,
}

impl ChainSet {
    fn find(&mut self, mut id: usize) -> usize {
        while self.parent[id] != id {
            self.parent[id] = self.parent[self.parent[id]];
            id = self.parent[id];
        }
        id
    }

    fn new_chain(&mut self) -> usize {
        let id = self.chains.len();
        self.chains.push(Vec::new());
        self.parent.push(id);
        id
    }

    fn merge(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        // Smaller into larger.
        let (keep, drop) = if self.chains[ra].len() >= self.chains[rb].len() {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let moved = std::mem::take(&mut self.chains[drop]);
        self.chains[keep].extend(moved);
        self.parent[drop] = keep;
        keep
    }

    fn add_message(
        &mut self,
        msg: MessageId,
        ts: u64,
        tokens: &[String],
        max_chain: usize,
    ) -> usize {
        // Union the chains of all tokens; unseen tokens start fresh.
        let mut chain: Option<usize> = None;
        for t in tokens {
            let existing = match self.token_chain.entry(t.clone()) {
                Entry::Occupied(e) => Some(*e.get()),
                Entry::Vacant(_) => None,
            };
            chain = Some(match (chain, existing) {
                (None, None) => self.new_chain(),
                (None, Some(c)) => self.find(c),
                (Some(c), None) => c,
                (Some(c), Some(d)) => self.merge(c, d),
            });
            let c = chain.expect("assigned above");
            self.token_chain.insert(t.clone(), c);
        }
        let c = match chain {
            Some(c) => c,
            None => self.new_chain(), // no identifiers: singleton chain
        };
        let c = self.find(c);
        self.chains[c].push((msg, ts));
        if self.chains[c].len() > max_chain {
            let excess = self.chains[c].len() - max_chain;
            self.chains[c].drain(..excess);
        }
        c
    }
}

/// The HANSEL analyzer.
pub struct Hansel {
    cfg: HanselConfig,
    chains: ChainSet,
    /// Errors awaiting their bucket window: (release_ts, error id,
    /// error ts, chain id at detection time).
    pending: Vec<(u64, MessageId, u64, usize)>,
    processed: u64,
    tokens_seen: u64,
}

impl Hansel {
    /// New analyzer.
    pub fn new(cfg: HanselConfig) -> Hansel {
        Hansel {
            cfg,
            chains: ChainSet::default(),
            pending: Vec::new(),
            processed: 0,
            tokens_seen: 0,
        }
    }

    /// Messages processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Identifier tokens extracted so far.
    pub fn tokens_seen(&self) -> u64 {
        self.tokens_seen
    }

    /// Drop chain entries older than `cutoff` (bounded memory for
    /// long-running deployments; chains only ever matter within the
    /// reporting window).
    pub fn expire_before(&mut self, cutoff: u64) {
        for chain in &mut self.chains.chains {
            chain.retain(|&(_, ts)| ts >= cutoff);
        }
    }

    /// Process one message (stitching runs unconditionally — this is the
    /// cost GRETEL avoids). Returns any fault reports whose bucket window
    /// has elapsed by this message's timestamp.
    pub fn process(&mut self, msg: &Message) -> Vec<FaultReport> {
        self.processed += 1;
        // Periodic GC: nothing older than two bucket windows can appear in
        // a future report.
        if self.processed.is_multiple_of(4096) {
            self.expire_before(msg.ts_us.saturating_sub(2 * self.cfg.bucket_window_us));
        }
        let tokens = extract_identifiers(&msg.payload);
        self.tokens_seen += tokens.len() as u64;
        let chain = self
            .chains
            .add_message(msg.id, msg.ts_us, &tokens, self.cfg.max_chain);

        if msg.is_rest_error() || msg.is_rpc_error() {
            self.pending.push((
                msg.ts_us + self.cfg.bucket_window_us,
                msg.id,
                msg.ts_us,
                chain,
            ));
        }
        self.release(msg.ts_us)
    }

    /// Flush all pending reports (stream end), as if the bucket windows
    /// all expired.
    pub fn finish(&mut self) -> Vec<FaultReport> {
        let last = self.pending.iter().map(|&(r, ..)| r).max().unwrap_or(0);
        self.release(last)
    }

    fn release(&mut self, now: u64) -> Vec<FaultReport> {
        let mut out = Vec::new();
        let mut keep = Vec::with_capacity(self.pending.len());
        for (release_ts, error, ts_error, chain) in self.pending.drain(..) {
            if release_ts <= now {
                let root = self.chains.find(chain);
                let mut chain_msgs: Vec<(MessageId, u64)> = self.chains.chains[root]
                    .iter()
                    .copied()
                    .filter(|&(_, ts)| ts <= ts_error)
                    .collect();
                chain_msgs.sort_by_key(|&(id, ts)| (ts, id));
                out.push(FaultReport {
                    error,
                    ts_error,
                    ts_reported: release_ts,
                    chain: chain_msgs.into_iter().map(|(id, _)| id).collect(),
                });
            } else {
                keep.push((release_ts, error, ts_error, chain));
            }
        }
        self.pending = keep;
        out
    }
}

/// Tokenize a payload into identifier candidates: alphanumeric runs of
/// length ≥ 2 containing at least one digit (uuids, pseudo-ids — exactly
/// the "common identifiers like tenant ID" the paper notes can overlink).
/// This full-payload scan on every message is HANSEL's per-message cost.
pub fn extract_identifiers(payload: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut has_digit = false;
    for &b in payload {
        if b.is_ascii_alphanumeric() {
            cur.push(b as char);
            has_digit |= b.is_ascii_digit();
        } else {
            if cur.len() >= 2 && has_digit && !is_boring(&cur) {
                out.push(std::mem::take(&mut cur));
            } else {
                cur.clear();
            }
            has_digit = false;
        }
    }
    if cur.len() >= 2 && has_digit && !is_boring(&cur) {
        out.push(cur);
    }
    out.dedup();
    out
}

/// Protocol tokens that appear in every message and must not stitch.
fn is_boring(tok: &str) -> bool {
    tok.starts_with("HTTP")
        || tok.starts_with("v1")
        || tok.starts_with("v2")
        || tok.starts_with("v3")
        || (tok.chars().all(|c| c.is_ascii_digit()) && tok.len() <= 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_model::message::{render_rest_request_payload, render_rest_response_payload};
    use gretel_model::{ApiId, ConnKey, Direction, HttpMethod, NodeId, Service, WireKind};

    fn msg(id: u64, ts: u64, uri: &str, status: Option<u16>) -> Message {
        // Requests carry the URI (and so the identifiers); error responses
        // here keep the URI in the payload body to emulate response bodies
        // that echo the resource.
        let payload = match status {
            Some(s) => {
                let mut p = render_rest_response_payload(s, "x", 0);
                p.extend_from_slice(uri.as_bytes());
                p
            }
            None => render_rest_request_payload(HttpMethod::Get, uri, 0),
        };
        Message {
            id: MessageId(id),
            ts_us: ts,
            src_node: NodeId(0),
            dst_node: NodeId(1),
            src_service: Service::Horizon,
            dst_service: Service::Nova,
            api: ApiId(1),
            direction: if status.is_some() {
                Direction::Response
            } else {
                Direction::Request
            },
            wire: WireKind::Rest {
                method: HttpMethod::Get,
                uri: uri.into(),
                status,
            },
            conn: ConnKey::default(),
            payload,
            correlation_id: None,
            project: None,
            truth_op: None,
            truth_noise: false,
        }
    }

    #[test]
    fn identifiers_are_extracted_from_uris() {
        let p = render_rest_request_payload(HttpMethod::Get, "/v2.1/servers/i3f", 0);
        let toks = extract_identifiers(&p);
        assert!(toks.iter().any(|t| t == "i3f"), "{toks:?}");
        assert!(!toks.iter().any(|t| t == "v2"));
        assert!(!toks.iter().any(|t| t.starts_with("HTTP")));
    }

    #[test]
    fn messages_sharing_an_id_stitch_into_one_chain() {
        let mut h = Hansel::new(HanselConfig {
            bucket_window_us: 1_000,
            ..Default::default()
        });
        h.process(&msg(0, 0, "/v2.1/servers/i7a", None));
        h.process(&msg(1, 10, "/v2.0/ports/i7a", None));
        h.process(&msg(2, 20, "/v2.1/servers/i99x", None)); // unrelated op
        let reports = h.process(&msg(3, 30, "/v2.1/servers/i7a", Some(500)));
        assert!(reports.is_empty(), "bucket window not elapsed yet");
        let reports = h.process(&msg(4, 5_000, "/v2.1/flavors", None));
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.error, MessageId(3));
        assert!(r.chain.contains(&MessageId(0)));
        assert!(r.chain.contains(&MessageId(1)));
        assert!(
            !r.chain.contains(&MessageId(2)),
            "unrelated op not in chain"
        );
        assert!(r.latency_us() >= 1_000);
    }

    #[test]
    fn reporting_latency_is_the_bucket_window() {
        let mut h = Hansel::new(HanselConfig::default()); // 30 s
        h.process(&msg(0, 1_000_000, "/v2.1/servers/i1b", Some(500)));
        let reports = h.finish();
        assert_eq!(reports.len(), 1);
        assert_eq!(
            reports[0].latency_us(),
            30_000_000,
            "paper: ~30 s reporting delay"
        );
    }

    #[test]
    fn shared_common_identifier_overlinks() {
        // The paper's criticism: common identifiers (like tenant ids) link
        // the faulty operation with unrelated successful ones.
        let mut h = Hansel::new(HanselConfig {
            bucket_window_us: 0,
            ..Default::default()
        });
        h.process(&msg(0, 0, "/tenants/t5x/servers/i1a", None));
        h.process(&msg(1, 1, "/tenants/t5x/volumes/i2b", None));
        let mut reports = h.process(&msg(2, 2, "/tenants/t5x/servers/i1a", Some(500)));
        if reports.is_empty() {
            reports = h.finish();
        }
        assert_eq!(reports.len(), 1);
        assert!(
            reports[0].chain.contains(&MessageId(1)),
            "volume op pulled in via tenant id"
        );
    }

    #[test]
    fn chains_are_capped() {
        let mut h = Hansel::new(HanselConfig {
            bucket_window_us: 0,
            max_chain: 10,
        });
        for i in 0..100 {
            h.process(&msg(i, i, "/x/shared9z/y", None));
        }
        let mut reports = h.process(&msg(100, 100, "/x/shared9z/y", Some(500)));
        reports.extend(h.finish());
        assert_eq!(reports.len(), 1);
        assert!(reports[0].chain.len() <= 11);
    }

    #[test]
    fn every_message_pays_the_stitching_cost() {
        let mut h = Hansel::new(HanselConfig::default());
        for i in 0..50 {
            h.process(&msg(i, i, "/v2.1/servers/i5c", None));
        }
        assert_eq!(h.processed(), 50);
        assert!(h.tokens_seen() >= 50, "tokenization ran on every message");
    }

    #[test]
    fn expiry_bounds_chain_memory() {
        let mut h = Hansel::new(HanselConfig {
            bucket_window_us: 1_000,
            ..Default::default()
        });
        for i in 0..5_000u64 {
            h.process(&msg(i, i * 10, "/x/shared7k/y", None));
        }
        // Everything is in one chain; expire all but the tail.
        h.expire_before(49_000_000);
        let mut reports = h.process(&msg(5_000, 50_000_000, "/x/shared7k/y", Some(500)));
        reports.extend(h.finish());
        assert_eq!(reports.len(), 1);
        assert!(
            reports[0].chain.len() < 200,
            "expired entries are gone: {}",
            reports[0].chain.len()
        );
    }

    #[test]
    fn rpc_errors_are_reported_too() {
        let mut h = Hansel::new(HanselConfig {
            bucket_window_us: 0,
            ..Default::default()
        });
        let mut m = msg(0, 5, "/x", None);
        m.wire = WireKind::Rpc {
            method: "create_volume".into(),
            msg_id: 3,
            error: Some("Boom".into()),
        };
        m.payload = gretel_model::message::render_rpc_payload("create_volume", 3, Some("Boom"), 8);
        let mut reports = h.process(&m);
        if reports.is_empty() {
            reports = h.finish();
        }
        assert_eq!(reports.len(), 1);
    }
}
