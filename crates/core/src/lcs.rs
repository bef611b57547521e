//! Longest common subsequence over API-id sequences.
//!
//! Algorithm 1 iteratively intersects the traces of repeated executions of
//! an operation via LCS, leaving only the APIs that occur (in order) in
//! every successful run — the operational fingerprint. Traces are a few
//! hundred symbols, so the classic O(n·m) dynamic program with O(min(n,m))
//! rolling rows is plenty.

use gretel_model::ApiId;

/// Longest common subsequence of `a` and `b` (one canonical witness).
pub fn lcs(a: &[ApiId], b: &[ApiId]) -> Vec<ApiId> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    // Full DP table of lengths (u32 keeps it compact), then backtrack.
    let n = a.len();
    let m = b.len();
    let mut dp = vec![0u32; (n + 1) * (m + 1)];
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    for i in 1..=n {
        for j in 1..=m {
            dp[idx(i, j)] = if a[i - 1] == b[j - 1] {
                dp[idx(i - 1, j - 1)] + 1
            } else {
                dp[idx(i - 1, j)].max(dp[idx(i, j - 1)])
            };
        }
    }
    let mut out = Vec::with_capacity(dp[idx(n, m)] as usize);
    let (mut i, mut j) = (n, m);
    while i > 0 && j > 0 {
        if a[i - 1] == b[j - 1] {
            out.push(a[i - 1]);
            i -= 1;
            j -= 1;
        } else if dp[idx(i - 1, j)] >= dp[idx(i, j - 1)] {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    out.reverse();
    out
}

/// LCS length only (no witness); O(min) memory.
pub fn lcs_len(a: &[ApiId], b: &[ApiId]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut prev = vec![0u32; short.len() + 1];
    let mut cur = vec![0u32; short.len() + 1];
    for &x in long {
        for (j, &y) in short.iter().enumerate() {
            cur[j + 1] = if x == y {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()] as usize
}

/// Whether `needle` is a subsequence of `haystack`.
pub fn is_subsequence(needle: &[ApiId], haystack: &[ApiId]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u16]) -> Vec<ApiId> {
        v.iter().map(|&x| ApiId(x)).collect()
    }

    #[test]
    fn classic_cases() {
        assert_eq!(lcs(&ids(&[1, 2, 3, 4]), &ids(&[2, 4, 6])), ids(&[2, 4]));
        assert_eq!(lcs(&ids(&[1, 2, 3]), &ids(&[1, 2, 3])), ids(&[1, 2, 3]));
        assert_eq!(lcs(&ids(&[1, 2, 3]), &ids(&[4, 5, 6])), ids(&[]));
        assert_eq!(lcs(&ids(&[]), &ids(&[1])), ids(&[]));
    }

    #[test]
    fn handles_repeats() {
        // Both [1,1,2] and [1,2,2] are valid witnesses; require a maximal
        // common subsequence.
        let a = ids(&[1, 1, 2, 2]);
        let b = ids(&[1, 2, 1, 2]);
        let c = lcs(&a, &b);
        assert_eq!(c.len(), 3);
        assert!(is_subsequence(&c, &a));
        assert!(is_subsequence(&c, &b));
    }

    #[test]
    fn result_is_subsequence_of_both() {
        let a = ids(&[7, 3, 9, 1, 3, 5, 9, 2]);
        let b = ids(&[3, 1, 9, 3, 2, 5, 2]);
        let c = lcs(&a, &b);
        assert!(is_subsequence(&c, &a));
        assert!(is_subsequence(&c, &b));
        assert_eq!(c.len(), lcs_len(&a, &b));
    }

    #[test]
    fn length_is_symmetric() {
        let a = ids(&[1, 2, 3, 4, 5, 6, 1, 2]);
        let b = ids(&[2, 4, 1, 6, 2]);
        assert_eq!(lcs_len(&a, &b), lcs_len(&b, &a));
    }

    #[test]
    fn subsequence_checks() {
        assert!(is_subsequence(&ids(&[1, 3]), &ids(&[1, 2, 3])));
        assert!(is_subsequence(&ids(&[]), &ids(&[])));
        assert!(!is_subsequence(&ids(&[3, 1]), &ids(&[1, 2, 3])));
        assert!(!is_subsequence(&ids(&[1]), &ids(&[])));
    }

    #[test]
    fn lcs_of_identical_long_traces_is_identity() {
        let a: Vec<ApiId> = (0..500u16).map(ApiId).collect();
        assert_eq!(lcs(&a, &a), a);
        assert_eq!(lcs_len(&a, &a), 500);
    }
}
