//! GRETEL configuration: the paper's thresholds.
//!
//! §5.3.1 defines the sliding window `α = 2·max{FPmax, Prate·t}` and the
//! context buffer that starts at `β = c1·α` and grows by `δ = c2·α` per
//! side. §7 empirically fixes `c1 = 0.1`, `c2 = 0.04` and `t = 1 s`; with
//! `FPmax = 384` and `Prate ≈ 150 pps` that gives `α = 768`, `β = 80`
//! (rounded), `δ = 30`.
//!
//! Only what some caller varies is a field of [`GretelConfig`]. The rest
//! are constants: c1 and c2 as §7 fixes them, and the scored policy's
//! bounds (DESIGN.md §7).

/// Context-buffer start coefficient c1 (β₀ = c1·α), fixed in §7.
const C1: f64 = 0.1;
/// Context-buffer growth coefficient c2 (δ = c2·α), fixed in §7.
const C2: f64 = 0.04;

/// Bounded literal context: only the last `MAX_LITERALS` literals of a
/// (truncated) fingerprint are matched. Long-running operations span more
/// wall clock than the sliding window covers, so requiring the *entire*
/// literal prefix would yield false negatives exactly as the paper's
/// Limitation (1) describes; bounding the pattern to the most recent
/// literals keeps recall under heavy concurrency.
pub(crate) const MAX_LITERALS: usize = 8;
/// Minimum pattern length that can *stop* the scored policy's buffer
/// growth. Candidates with shorter truncated patterns (the offending API
/// sits at the very start of their fingerprint) complete trivially in any
/// buffer and must not end the search; they are reported only when
/// nothing longer ever completes.
pub(crate) const MIN_PATTERN: usize = 6;
/// Growth steps the scored policy continues after the first qualifying
/// completion, letting longer patterns (stronger evidence) overtake
/// coincidental short completions before the match set is finalized.
pub(crate) const GRACE_STEPS: usize = 5;
/// The scored policy keeps the complete candidates whose matched literal
/// suffix is within `SCORED_SLACK` of the longest.
pub(crate) const SCORED_SLACK: usize = 2;

/// How the context buffer grows and what counts as a match (§5.3.1,
/// DESIGN.md §7). The four policies the `policy_ablation` experiment
/// compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Matching {
    /// Earliest completion: rank candidates by the length of their matched
    /// bounded literal suffix (the last 8, `MAX_LITERALS`), stop at the
    /// first growth step where one of at least 6 literals (`MIN_PATTERN`)
    /// completes plus 5 more steps (`GRACE_STEPS`), and keep those within
    /// 2 literals (`SCORED_SLACK`) of the best.
    #[default]
    Scored,
    /// The paper's rule: relaxed presence matching (only state-change
    /// literals, in order), growing β until the matched set grows (θ
    /// drops).
    ThetaDrop,
    /// Relaxed presence matching over the whole window, no early stop.
    PresenceFull,
    /// Every atom, starred ones included, required in order over the
    /// whole window.
    Strict,
}

/// Tunable parameters of the analyzer.
///
/// Correlation ids are not a setting: whenever the fault message carries
/// one, the context buffer is restricted to the messages of the same
/// operation (paper §5.3.1: "GRETEL can exploit these correlation
/// identifiers to increase its precision by reducing the number of
/// packets against which a fingerprint is matched").
#[derive(Debug, Clone, Copy)]
pub struct GretelConfig {
    /// Sliding window size α, in messages.
    pub alpha: usize,
    /// Prune RPC symbols from fingerprints before matching (§6
    /// optimization; ablated in Fig 7c).
    pub prune_rpcs: bool,
    /// Truncate fingerprints at the offending API for operational faults
    /// (§5.3.1; ablation switch).
    pub truncate: bool,
    /// The matching policy (ablated by `policy_ablation`).
    pub matching: Matching,
}

impl Default for GretelConfig {
    fn default() -> Self {
        // The paper's deployment values.
        GretelConfig {
            alpha: 768,
            prune_rpcs: true,
            truncate: true,
            matching: Matching::Scored,
        }
    }
}

impl GretelConfig {
    /// Compute α from the largest fingerprint and the observed packet rate
    /// (paper: `α = 2·max{FPmax, Prate·t}` with t in seconds).
    pub fn auto(fp_max: usize, p_rate_pps: f64, t_secs: f64) -> GretelConfig {
        let alpha = 2 * (fp_max.max((p_rate_pps * t_secs).ceil() as usize)).max(1);
        GretelConfig {
            alpha,
            ..GretelConfig::default()
        }
    }

    /// Initial context-buffer size β₀ (≥ 2).
    pub fn beta0(&self) -> usize {
        ((C1 * self.alpha as f64).round() as usize).max(2)
    }

    /// Context-buffer growth per side δ (≥ 1).
    pub fn delta(&self) -> usize {
        ((C2 * self.alpha as f64).round() as usize).max(1)
    }
}

/// GRETEL's precision for one fault: `θ = (N − n)/(N − 1)` where `N` is
/// the number of fingerprints in the library and `n` the number of
/// operations the detector reported (§5.3.1). `θ = 1` means the fault was
/// narrowed to a single operation; `θ = 0` means nothing was narrowed.
pub fn theta(n_matched: usize, n_total: usize) -> f64 {
    if n_total <= 1 {
        return 1.0;
    }
    ((n_total as f64 - n_matched as f64) / (n_total as f64 - 1.0)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = GretelConfig::default();
        assert_eq!(c.alpha, 768);
        assert_eq!(c.beta0(), 77); // 0.1 × 768 ≈ 77 (the paper rounds to 80)
        assert_eq!(c.delta(), 31); // 0.04 × 768 ≈ 31 (the paper rounds to 30)
    }

    #[test]
    fn auto_alpha_follows_the_formula() {
        // FPmax dominates a small rate.
        assert_eq!(GretelConfig::auto(384, 150.0, 1.0).alpha, 768);
        // Rate dominates at stress levels.
        assert_eq!(GretelConfig::auto(384, 50_000.0, 1.0).alpha, 100_000);
        // Degenerate inputs stay sane.
        assert!(GretelConfig::auto(0, 0.0, 1.0).alpha >= 2);
    }

    #[test]
    fn theta_bounds() {
        assert!((theta(1, 1200) - 1.0).abs() < 1e-12);
        assert_eq!(theta(0, 1200), 1.0, "no matches clamps to 1");
        assert_eq!(theta(1200, 1200), 0.0);
        assert!(theta(24, 1200) > 0.98);
        assert!(theta(25, 1200) < 0.98 + 1e-9);
        assert_eq!(theta(5, 1), 1.0);
    }

    #[test]
    fn beta_delta_floors() {
        let c = GretelConfig {
            alpha: 4,
            ..GretelConfig::default()
        };
        assert_eq!(c.beta0(), 2); // 0.1 × 4 rounds to 0
        assert_eq!(c.delta(), 1); // 0.04 × 4 rounds to 0
    }
}
