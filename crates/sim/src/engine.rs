//! Minimal deterministic discrete-event engine.
//!
//! The simulator schedules future work as timestamped events in a priority
//! queue. Ties are broken by insertion sequence so runs are fully
//! deterministic regardless of heap internals.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulated time in microseconds since simulation start.
pub type SimTime = u64;

/// One microsecond-resolution second.
pub(crate) const SECOND: SimTime = 1_000_000;

/// Convert milliseconds to [`SimTime`].
#[inline]
pub const fn ms(v: u64) -> SimTime {
    v * 1_000
}

/// Convert seconds to [`SimTime`].
#[inline]
pub const fn secs(v: u64) -> SimTime {
    v * SECOND
}

/// Splitmix64 finalizer over `(seed, a, salt)` — the deterministic coin
/// family every seeded schedule in the simulator draws from (capture
/// chaos, crash schedules, cascade jitter, partition drops). Coins never
/// touch the executor's main RNG stream, so adding a coin-driven fault to
/// a plan cannot perturb the rest of a seeded run.
#[inline]
pub const fn splitmix64(seed: u64, a: u64, salt: u64) -> u64 {
    gretel_model::codec::finalize(
        seed ^ (a + 1).wrapping_mul(0xA076_1D64_78BD_642F)
            ^ (salt + 1).wrapping_mul(0xE703_7ED1_A0B4_28DB),
    )
}

struct Entry<T> {
    ts: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.ts == other.ts && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we need earliest-first.
        other
            .ts
            .cmp(&self.ts)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic earliest-first event queue.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
    now: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `item` at absolute time `ts`. Scheduling in the past is a
    /// logic error and panics (it would silently reorder causality).
    pub(crate) fn schedule(&mut self, ts: SimTime, item: T) {
        assert!(
            ts >= self.now,
            "scheduling into the past: {ts} < {}",
            self.now
        );
        self.heap.push(Entry {
            ts,
            seq: self.seq,
            item,
        });
        self.seq += 1;
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| {
            debug_assert!(e.ts >= self.now);
            self.now = e.ts;
            (e.ts, e.item)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        q.pop();
        q.schedule(50, ());
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(ms(3), 3_000);
        assert_eq!(secs(2), 2_000_000);
        assert_eq!(SECOND, secs(1));
    }
}
