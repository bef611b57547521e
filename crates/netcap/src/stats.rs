//! Capture-quality accounting.
//!
//! [`CaptureStats`] counts what the capture plane did to the stream on the
//! way: frames emitted, dropped, duplicated, reordered, plus the gaps and
//! losses the receiver inferred from per-agent sequence numbers. (Sustained
//! throughput — the paper's events/s and Mbps — is measured by
//! `benchmark/`, not here.)

/// Counters describing how faithful a captured stream was.
///
/// The injector side ([`crate::CaptureImpairment`]) fills in `frames`,
/// `dropped`, `duplicated`, `reordered` and `stalled` as it perturbs the
/// stream; the receiver side ([`crate::Resequencer`]) fills in `gaps` and
/// `lost` as it infers missing sequence numbers. Merge the two halves with
/// [`CaptureStats::merge`] for an end-to-end picture.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureStats {
    /// Frames the agent offered to the impairment stage.
    pub frames: u64,
    /// Frames discarded by probabilistic drop.
    pub dropped: u64,
    /// Extra copies injected by probabilistic duplication.
    pub duplicated: u64,
    /// Frames delivered out of their original position.
    pub reordered: u64,
    /// Frames discarded because they fell inside an agent stall window.
    pub stalled: u64,
    /// Sequence gaps the receiver detected (contiguous runs of missing
    /// sequence numbers count as one gap each).
    pub gaps: u64,
    /// Total frames inferred missing across all gaps.
    pub lost: u64,
    /// Duplicate frames the receiver discarded on arrival.
    pub dup_discarded: u64,
}

impl CaptureStats {
    /// Accumulate `other` into `self`, field by field.
    pub fn merge(&mut self, other: &CaptureStats) {
        self.frames += other.frames;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.stalled += other.stalled;
        self.gaps += other.gaps;
        self.lost += other.lost;
        self.dup_discarded += other.dup_discarded;
    }

    /// True when no impairment or loss was observed at all.
    pub fn is_clean(&self) -> bool {
        let CaptureStats {
            frames: _,
            dropped,
            duplicated,
            reordered,
            stalled,
            gaps,
            lost,
            dup_discarded,
        } = *self;
        dropped == 0
            && duplicated == 0
            && reordered == 0
            && stalled == 0
            && gaps == 0
            && lost == 0
            && dup_discarded == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_stats_merge_and_cleanliness() {
        let mut a = CaptureStats {
            frames: 10,
            dropped: 1,
            ..Default::default()
        };
        let b = CaptureStats {
            frames: 5,
            gaps: 2,
            lost: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.frames, 15);
        assert_eq!(a.dropped, 1);
        assert_eq!(a.gaps, 2);
        assert_eq!(a.lost, 3);
        assert!(!a.is_clean());
        assert!(CaptureStats {
            frames: 100,
            ..Default::default()
        }
        .is_clean());
    }
}
