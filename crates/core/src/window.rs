//! The dual-buffer sliding window (§5.3.1, §6).
//!
//! GRETEL keeps the last α messages in a ring. When a REST error is
//! detected, the window is "frozen": GRETEL slides ahead by α/2 messages
//! and waits for the event receiver to fill the remaining α/2, so the
//! resulting snapshot holds both the past and the future of the faulty
//! message. The §6 dual-buffer optimization — two pointers separated by α
//! messages with a freeze between them — is exactly what the ring +
//! armed-fault bookkeeping below implements.

use crate::event::Event;
use gretel_model::codec::{DecodeError, Reader, Wire};
use std::collections::VecDeque;

/// A frozen snapshot around one fault.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The faulty event that armed the snapshot.
    pub fault: Event,
    /// Window contents, oldest first; the fault sits near the middle.
    pub events: Vec<Event>,
    /// Index of the fault within `events`.
    pub fault_index: usize,
}

impl Snapshot {
    /// Number of events in this window carrying a capture-gap marker
    /// (`gap_before > 0`): distinct places where the receiver knows frames
    /// went missing.
    pub(crate) fn gap_markers(&self) -> u32 {
        self.events.iter().filter(|e| e.gap_before > 0).count() as u32
    }

    /// Total frames inferred lost inside this window (sum of the events'
    /// `gap_before` markers). Zero means the capture around this fault was
    /// complete and any diagnosis from it is `Exact`.
    pub fn lost_frames(&self) -> u32 {
        self.events.iter().map(|e| e.gap_before).sum()
    }
}

struct Armed {
    fault: Event,
    remaining: usize,
}

gretel_model::wire_struct!(Armed {
    fault: Event,
    remaining: usize,
});

/// Ring of the most recent α events plus pending freezes.
///
/// ```
/// use gretel_core::{Event, FaultMark, SlidingWindow};
/// use gretel_model::{ApiId, Direction, MessageId, NodeId};
///
/// let ev = |i: u64| Event {
///     id: MessageId(i), ts: i, api: ApiId(0), direction: Direction::Request,
///     is_rpc: false, state_change: false, noise_api: false,
///     src_node: NodeId(0), dst_node: NodeId(1), corr: None,
///     fault: FaultMark::None,
///     gap_before: 0,
/// };
/// let mut w = SlidingWindow::new(8);
/// for i in 0..8 { assert!(w.push(ev(i)).is_empty()); }
/// let fault = ev(8);
/// w.push(fault);
/// w.arm(fault); // completes after alpha/2 = 4 more events
/// for i in 9..12 { assert!(w.push(ev(i)).is_empty()); }
/// let snaps = w.push(ev(12));
/// assert_eq!(snaps.len(), 1);
/// assert_eq!(snaps[0].fault.id, MessageId(8));
/// ```
pub struct SlidingWindow {
    alpha: usize,
    buf: VecDeque<Event>,
    armed: Vec<Armed>,
}

impl SlidingWindow {
    /// Window of size `alpha` (≥ 2).
    pub fn new(alpha: usize) -> SlidingWindow {
        assert!(alpha >= 2, "window must hold at least two messages");
        SlidingWindow {
            alpha,
            buf: VecDeque::with_capacity(alpha + 1),
            armed: Vec::new(),
        }
    }

    /// Configured α.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// Current buffered events (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of snapshots awaiting their future half.
    pub fn pending(&self) -> usize {
        self.armed.len()
    }

    /// Arm a snapshot for `fault` (must be the most recently pushed
    /// event). It completes after α/2 further events arrive.
    pub fn arm(&mut self, fault: Event) {
        self.armed.push(Armed {
            fault,
            remaining: self.alpha / 2,
        });
    }

    /// Push one event; returns any snapshots that completed.
    pub fn push(&mut self, ev: Event) -> Vec<Snapshot> {
        self.buf.push_back(ev);
        if self.buf.len() > self.alpha {
            self.buf.pop_front();
        }
        if self.armed.is_empty() {
            return Vec::new();
        }
        // In-place countdown: a snapshot stays armed for α/2 pushes, so
        // this runs once per message while anything is pending — it must
        // not allocate unless a snapshot actually completes.
        let mut done: Vec<Event> = Vec::new();
        self.armed.retain_mut(|a| {
            a.remaining -= 1;
            if a.remaining == 0 {
                done.push(a.fault);
                false
            } else {
                true
            }
        });
        done.into_iter().map(|f| self.freeze(f)).collect()
    }

    /// Flush all pending snapshots with whatever future context arrived
    /// (stream end).
    pub fn flush(&mut self) -> Vec<Snapshot> {
        let armed = std::mem::take(&mut self.armed);
        armed.into_iter().map(|a| self.freeze(a.fault)).collect()
    }

    fn freeze(&self, fault: Event) -> Snapshot {
        let events: Vec<Event> = self.buf.iter().copied().collect();
        let fault_index = events.iter().position(|e| e.id == fault.id).unwrap_or(0); // fault already evicted (tiny α): anchor at start
        Snapshot {
            fault,
            events,
            fault_index,
        }
    }
}

impl SlidingWindow {
    /// Append the window's state for an analyzer checkpoint: α as a check
    /// value, the ring's events, and the armed snapshots with their
    /// countdowns.
    pub(crate) fn put_state(&self, out: &mut Vec<u8>) {
        self.alpha.put(out);
        self.buf.put(out);
        self.armed.put(out);
    }

    /// Replace the ring and the armed snapshots with the state `r` carries.
    /// α stays this window's: a state written at another α is
    /// `Invalid("window alpha")`. All-or-nothing: on any error the window
    /// is unchanged.
    pub(crate) fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        if u64::read(r)? != self.alpha as u64 {
            return Err(DecodeError::Invalid("window alpha"));
        }
        let buf = VecDeque::<Event>::read(r)?;
        if buf.len() > self.alpha {
            return Err(DecodeError::Invalid("window overfull"));
        }
        let armed = Vec::<Armed>::read(r)?;
        if armed.iter().any(|a| a.remaining == 0) {
            return Err(DecodeError::Invalid("armed snapshot with zero countdown"));
        }
        self.buf = buf;
        self.armed = armed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultMark;
    use gretel_model::codec::encode;
    use gretel_model::{ApiId, Direction, MessageId, NodeId};

    fn ev(id: u64) -> Event {
        Event {
            id: MessageId(id),
            ts: id * 10,
            api: ApiId((id % 50) as u16),
            direction: Direction::Request,
            is_rpc: false,
            state_change: false,
            noise_api: false,
            src_node: NodeId(0),
            dst_node: NodeId(1),
            corr: None,
            fault: FaultMark::None,
            gap_before: 0,
        }
    }

    fn state(w: &SlidingWindow) -> Vec<u8> {
        let mut out = Vec::new();
        w.put_state(&mut out);
        out
    }

    fn restored(alpha: usize, state: &[u8]) -> Result<SlidingWindow, DecodeError> {
        let mut w = SlidingWindow::new(alpha);
        let mut r = Reader::new(state);
        w.restore(&mut r)?;
        r.done()?;
        Ok(w)
    }

    #[test]
    fn restore_bounds_both_counts_and_checks_alpha() {
        let mut w = SlidingWindow::new(8);
        for i in 0..5 {
            w.push(ev(i));
        }
        w.arm(ev(4));
        let state = state(&w);
        assert_eq!(self::state(&restored(8, &state).unwrap()), state);
        // Armed-snapshot count (after α, the ring count and five events).
        let armed_at = 8 + 4 + 5 * Event::MIN_BYTES;
        let mut bad = state.clone();
        bad[armed_at..armed_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(restored(8, &bad).err(), Some(DecodeError::Truncated));
        // Ring count: α events promised, five backed.
        let mut bad = state.clone();
        bad[8..12].copy_from_slice(&8u32.to_le_bytes());
        assert_eq!(restored(8, &bad).err(), Some(DecodeError::Truncated));
        // α is a check value: the state restores only into a window of its
        // α, and a failed restore leaves the window as it was.
        let alpha = Some(DecodeError::Invalid("window alpha"));
        assert_eq!(restored(16, &state).err(), alpha);
        bad = state;
        bad[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        let before = self::state(&w);
        assert_eq!(w.restore(&mut Reader::new(&bad)).err(), alpha);
        assert_eq!(self::state(&w), before);
    }

    #[test]
    fn the_smallest_window_and_armed_snapshot_encode_to_their_min_bytes() {
        assert_eq!(state(&SlidingWindow::new(2)).len(), 8 + 4 + 4);
        let armed = Armed {
            fault: ev(0),
            remaining: 1,
        };
        assert_eq!(encode(&armed).len(), Armed::MIN_BYTES);
    }

    #[test]
    fn ring_keeps_last_alpha() {
        let mut w = SlidingWindow::new(8);
        for i in 0..20 {
            w.push(ev(i));
        }
        assert_eq!(w.len(), 8);
        let ids: Vec<u64> = w.events().map(|e| e.id.0).collect();
        assert_eq!(ids, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn snapshot_centers_the_fault() {
        let mut w = SlidingWindow::new(8);
        for i in 0..10 {
            assert!(w.push(ev(i)).is_empty());
        }
        let fault = ev(10);
        w.push(fault);
        w.arm(fault);
        // α/2 = 4 more events complete the snapshot.
        assert!(w.push(ev(11)).is_empty());
        assert!(w.push(ev(12)).is_empty());
        assert!(w.push(ev(13)).is_empty());
        let snaps = w.push(ev(14));
        assert_eq!(snaps.len(), 1);
        let s = &snaps[0];
        assert_eq!(s.events.len(), 8);
        assert_eq!(s.events[s.fault_index].id, MessageId(10));
        // Past half and future half around the fault.
        assert_eq!(s.fault_index, 3); // events 7..=14, fault=10 at index 3
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn multiple_armed_faults_complete_independently() {
        let mut w = SlidingWindow::new(8);
        for i in 0..8 {
            w.push(ev(i));
        }
        let f1 = ev(8);
        w.push(f1);
        w.arm(f1);
        w.push(ev(9));
        let f2 = ev(10);
        w.push(f2);
        w.arm(f2);
        // f1 needs 2 more, f2 needs 4 more.
        assert!(w.push(ev(11)).is_empty());
        let s1 = w.push(ev(12));
        assert_eq!(s1.len(), 1);
        assert_eq!(s1[0].fault.id, MessageId(8));
        w.push(ev(13));
        let s2 = w.push(ev(14));
        assert_eq!(s2.len(), 1);
        assert_eq!(s2[0].fault.id, MessageId(10));
    }

    #[test]
    fn flush_emits_partial_snapshots() {
        let mut w = SlidingWindow::new(100);
        for i in 0..5 {
            w.push(ev(i));
        }
        let f = ev(5);
        w.push(f);
        w.arm(f);
        let snaps = w.flush();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].events.len(), 6);
        assert_eq!(snaps[0].fault_index, 5);
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn snapshot_counts_gap_markers() {
        let mut w = SlidingWindow::new(8);
        for i in 0..6 {
            let mut e = ev(i);
            if i == 2 {
                e.gap_before = 3;
            }
            if i == 4 {
                e.gap_before = 1;
            }
            w.push(e);
        }
        let f = ev(6);
        w.push(f);
        w.arm(f);
        let snaps = w.flush();
        assert_eq!(snaps[0].gap_markers(), 2);
        assert_eq!(snaps[0].lost_frames(), 4);
    }

    #[test]
    fn fault_evicted_by_tiny_window_anchors_at_start() {
        let mut w = SlidingWindow::new(2);
        let f = ev(0);
        w.push(f);
        w.arm(f);
        let snaps = w.push(ev(1)); // α/2 = 1 → completes, but window holds 0..1
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].fault_index, 0);
    }
}
