//! Compact per-message events.
//!
//! The analyzer converts each captured message's [`MessageHead`] into a
//! small [`Event`] at ingest time: the symbol, endpoints, and the *result of
//! the byte-level fault scan* (see [`crate::anomaly`]). Everything downstream — the
//! sliding window, operation detection, RCA — works on events, never on
//! payloads, which is what keeps GRETEL's per-message cost low (§5.3).

use gretel_model::{ApiId, Direction, MessageHead, MessageId, NodeId};
use gretel_sim::SimTime;

/// Fault classification of one message, from the byte scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMark {
    /// No error pattern found.
    None,
    /// REST response with this error status.
    RestError(u16),
    /// RPC message carrying a serialized exception.
    RpcError,
}

impl FaultMark {
    /// Whether any error was found.
    pub(crate) fn is_error(self) -> bool {
        !matches!(self, FaultMark::None)
    }

    /// Whether the error arrived in a REST message (what arms snapshots,
    /// §5.3.1 "Improving precision").
    pub fn is_rest_error(self) -> bool {
        matches!(self, FaultMark::RestError(_))
    }
}

/// One ingested message, reduced to what detection needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Original message id.
    pub id: MessageId,
    /// Capture timestamp.
    pub ts: SimTime,
    /// API symbol.
    pub api: ApiId,
    /// Request or response.
    pub direction: Direction,
    /// Whether the API is an RPC.
    pub is_rpc: bool,
    /// Whether the API is state-change priority (POST/PUT/DELETE/PATCH or
    /// RPC).
    pub state_change: bool,
    /// Whether the catalog flags the API as background noise.
    pub noise_api: bool,
    /// Sender node.
    pub src_node: NodeId,
    /// Receiver node.
    pub dst_node: NodeId,
    /// Correlation id propagated by the deployment, when present.
    pub corr: Option<u64>,
    /// Byte-scan fault classification.
    pub fault: FaultMark,
    /// Capture-gap marker: frames the receiver inferred lost immediately
    /// before this event (0 = clean capture). Non-zero values make every
    /// snapshot containing this event a degraded-confidence snapshot.
    pub gap_before: u32,
}

impl Event {
    /// Build an event from a message head plus the catalog-derived API
    /// traits and the byte-scan verdict.
    pub fn new(
        msg: &MessageHead,
        is_rpc: bool,
        state_change: bool,
        noise_api: bool,
        fault: FaultMark,
    ) -> Event {
        Event {
            id: msg.id,
            ts: msg.ts_us,
            api: msg.api,
            direction: msg.direction,
            is_rpc,
            state_change,
            noise_api,
            src_node: msg.src_node,
            dst_node: msg.dst_node,
            corr: msg.correlation_id,
            fault,
            gap_before: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_mark_predicates() {
        assert!(!FaultMark::None.is_error());
        assert!(FaultMark::RestError(500).is_error());
        assert!(FaultMark::RestError(500).is_rest_error());
        assert!(FaultMark::RpcError.is_error());
        assert!(!FaultMark::RpcError.is_rest_error());
    }

    #[test]
    fn event_is_small() {
        // The whole point of Event is to be cheap to buffer by the
        // thousand; keep it within a cache line.
        assert!(std::mem::size_of::<Event>() <= 64);
    }
}
