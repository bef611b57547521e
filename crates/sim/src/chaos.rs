//! Kill schedules for the recovery experiment.
//!
//! The durable analyzer service (`gretel-core::recover`) has one crash
//! arm: an invocation is killed after merging a given number of messages,
//! and the driver re-invokes it over the same store, which restores and
//! replays. This module generates those kill points deterministically from
//! a seed, so a recovery run — like every other experiment in this
//! repository — is reproducible bit for bit.

/// A deterministic schedule of kills. `points[n]` is how many messages
/// the n-th lifetime merges before it is killed; the driver hands one
/// point to each invocation, and a finite schedule always lets the run
/// complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSchedule {
    /// Per-lifetime kill points (merged-message counts).
    pub points: Vec<u64>,
}

use crate::engine::splitmix64 as mix64;

impl CrashSchedule {
    /// No kills: the service runs uninterrupted.
    pub fn none() -> CrashSchedule {
        CrashSchedule { points: Vec::new() }
    }

    /// Explicit kill points (merged-message count per lifetime, in
    /// lifetime order).
    pub fn at(points: Vec<u64>) -> CrashSchedule {
        CrashSchedule { points }
    }

    /// `crashes` seeded kill points, each uniform in `[1, span]` — a
    /// lifetime is never killed before merging at least one message.
    /// `span` should be on the order of the stream length; a point past
    /// the end of a lifetime's remaining stream simply lets it complete.
    pub fn seeded(seed: u64, crashes: usize, span: u64) -> CrashSchedule {
        let span = span.max(1);
        let points = (0..crashes as u64).map(|i| 1 + mix64(seed, i, 31) % span).collect();
        CrashSchedule { points }
    }

    /// Number of scheduled kills.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the schedule is empty (no kills).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedules_are_deterministic_and_in_range() {
        let a = CrashSchedule::seeded(42, 8, 1000);
        let b = CrashSchedule::seeded(42, 8, 1000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.points.iter().all(|&p| (1..=1000).contains(&p)));
        let c = CrashSchedule::seeded(43, 8, 1000);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn degenerate_spans_still_make_progress() {
        let s = CrashSchedule::seeded(7, 4, 0);
        assert!(s.points.iter().all(|&p| p == 1));
        assert!(CrashSchedule::none().is_empty());
        assert_eq!(CrashSchedule::at(vec![10, 20]).len(), 2);
    }
}
