//! GRETEL configuration: the paper's thresholds.
//!
//! §5.3.1 defines the sliding window `α = 2·max{FPmax, Prate·t}` and the
//! context buffer that starts at `β = c1·α` and grows by `δ = c2·α` per
//! side. §7 empirically fixes `c1 = 0.1`, `c2 = 0.04` and `t = 1 s`; with
//! `FPmax = 384` and `Prate ≈ 150 pps` that gives `α = 768`, `β = 80`
//! (rounded), `δ = 30`.

use serde::{Deserialize, Serialize};

/// Tunable parameters of the analyzer.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GretelConfig {
    /// Sliding window size α, in messages.
    pub alpha: usize,
    /// Context-buffer start coefficient c1 (β₀ = c1·α).
    pub c1: f64,
    /// Context-buffer growth coefficient c2 (δ = c2·α).
    pub c2: f64,
    /// Prune RPC symbols from fingerprints before matching (§6
    /// optimization; ablated in Fig 7c).
    pub prune_rpcs: bool,
    /// Truncate fingerprints at the offending API for operational faults
    /// (§5.3.1; ablation switch).
    pub truncate: bool,
    /// Relaxed matching: only state-change literals must be present in
    /// order; starred symbols may be missing (§5.3.1; ablation switch —
    /// `false` requires every atom in order).
    pub relaxed: bool,
    /// Bounded literal context: match only the last `k` literals of the
    /// (truncated) fingerprint. Long-running operations span more wall
    /// clock than the sliding window covers, so requiring the *entire*
    /// literal prefix would yield false negatives exactly as the paper's
    /// Limitation (1) describes; bounding the pattern to the most recent
    /// literals keeps recall under heavy concurrency. `None` disables the
    /// bound (strictly-paper behaviour).
    pub max_literals: Option<usize>,
    /// Grow the context buffer to cover the whole snapshot instead of
    /// stopping at the first θ drop (ablation of the §5.3.1 stop rule).
    pub grow_full: bool,
    /// Scored matching: rank candidates by the length of the matched
    /// literal suffix and keep only those within `scored_slack` of the
    /// best. `None` keeps the boolean presence predicate.
    pub scored_slack: Option<usize>,
    /// Minimum pattern length that can *stop* the context-buffer growth in
    /// the earliest-complete policy. Candidates with shorter truncated
    /// patterns (the offending API sits at the very start of their
    /// fingerprint) complete trivially in any buffer and must not end the
    /// search; they are reported only when nothing longer ever completes.
    pub min_pattern: usize,
    /// Growth steps to continue after the first qualifying completion,
    /// letting longer patterns (stronger evidence) overtake coincidental
    /// short completions before the match set is finalized.
    pub grace_steps: usize,
    /// Exploit deployment-propagated correlation ids when messages carry
    /// them (paper §5.3.1: "GRETEL can exploit these correlation
    /// identifiers to increase its precision by reducing the number of
    /// packets against which a fingerprint is matched"). When the fault
    /// message has an id, the context buffer is restricted to messages of
    /// the same operation before matching.
    pub use_correlation_ids: bool,
}

impl Default for GretelConfig {
    fn default() -> Self {
        // The paper's deployment values.
        GretelConfig {
            alpha: 768,
            c1: 0.1,
            c2: 0.04,
            prune_rpcs: true,
            truncate: true,
            relaxed: true,
            max_literals: Some(8),
            grow_full: false,
            scored_slack: Some(2),
            min_pattern: 6,
            grace_steps: 5,
            use_correlation_ids: true,
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

    /// Sanity-check the configuration; returns all problems (empty = ok).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.alpha < 2 {
            problems.push(format!("alpha {} must be >= 2", self.alpha));
        }
        if !(0.0..=1.0).contains(&self.c1) || self.c1 <= 0.0 {
            problems.push(format!("c1 {} must be in (0, 1]", self.c1));
        }
        if !(0.0..=1.0).contains(&self.c2) || self.c2 <= 0.0 {
            problems.push(format!("c2 {} must be in (0, 1]", self.c2));
        }
        if self.beta0() > self.alpha {
            problems.push(format!(
                "beta0 {} exceeds alpha {}",
                self.beta0(),
                self.alpha
            ));
        }
        if self.min_pattern == 0 {
            problems.push("min_pattern must be >= 1".to_string());
        }
        if self.max_literals == Some(0) {
            problems.push("max_literals must be None or >= 1".to_string());
        }
        problems
    }

    /// Initial context-buffer size β₀ (≥ 2).
    pub fn beta0(&self) -> usize {
        ((self.c1 * self.alpha as f64).round() as usize).max(2)
    }

    /// Context-buffer growth per side δ (≥ 1).
    pub fn delta(&self) -> usize {
        ((self.c2 * self.alpha as f64).round() as usize).max(1)
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
    fn default_and_auto_configs_validate() {
        assert!(GretelConfig::default().validate().is_empty());
        assert!(GretelConfig::auto(384, 150.0, 1.0).validate().is_empty());
    }

    #[test]
    fn validate_catches_nonsense() {
        let bad = GretelConfig {
            alpha: 1,
            c1: 0.0,
            c2: 2.0,
            min_pattern: 0,
            max_literals: Some(0),
            ..GretelConfig::default()
        };
        let problems = bad.validate();
        assert!(problems.len() >= 4, "{problems:?}");
    }

    #[test]
    fn beta_delta_floors() {
        let c = GretelConfig {
            alpha: 4,
            c1: 0.1,
            c2: 0.01,
            ..GretelConfig::default()
        };
        assert!(c.beta0() >= 2);
        assert!(c.delta() >= 1);
    }
}
