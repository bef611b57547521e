//! `compare A.json B.json`: one row per workload × end-to-end metric, B
//! against the baseline A. This is the A/A check (two runs of one commit)
//! and the table later issues quote.

use crate::report::{Contract, Metric, RunFile, UNLISTED_END_TO_END};

/// How B's value of a metric stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse by more than the bound and the runs' quartile
    /// ranges do not overlap.
    Worse,
    /// B's median is worse by more than the bound but the quartile ranges
    /// overlap: the spread is wider than the difference, nothing is shown.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared metric of one workload.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// A's measurement.
    pub a: Metric,
    /// B's measurement.
    pub b: Metric,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of A's median B may be worse by.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Share of A's median by which B's is worse (negative when B is better).
pub fn worse_by(higher_is_better: bool, a: f64, b: f64) -> f64 {
    let delta = if higher_is_better { a - b } else { b - a };
    if delta == 0.0 {
        0.0
    } else if a == 0.0 {
        // Any move away from an exact zero is infinitely large in share.
        delta.signum() * f64::INFINITY
    } else {
        delta / a.abs()
    }
}

/// Judge B against A for one metric.
pub fn verdict(higher_is_better: bool, bound: f64, a: &Metric, b: &Metric) -> Verdict {
    if worse_by(higher_is_better, a.value, b.value) <= bound {
        Verdict::Ok
    } else if a.q1 <= b.q3 && b.q1 <= a.q3 {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

/// Contract metrics that are exact functions of the seed. Between two runs
/// of one seed they may not get worse at all; across seeds they move with
/// the inputs and only the contract's bound applies.
const EXACT: [&str; 2] = ["hit_share", "theta_mean"];

/// Compare every end-to-end metric present in both files.
pub fn compare(contract: &Contract, a: &RunFile, b: &RunFile) -> Vec<Row> {
    let same_seed = a.seed == b.seed;
    let mut judged: Vec<(&str, bool, f64)> = contract
        .end_to_end
        .iter()
        .map(|m| {
            let exact = same_seed && EXACT.contains(&m.name.as_str());
            (
                m.name.as_str(),
                m.better == "higher",
                if exact { 0.0 } else { m.bound.unwrap_or(0.0) },
            )
        })
        .collect();
    if same_seed {
        judged.extend(UNLISTED_END_TO_END.iter().map(|name| (*name, false, 0.0)));
    }

    let mut rows = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.workload == wa.workload) else {
            continue;
        };
        for &(name, higher_is_better, bound) in &judged {
            if let (Some(ma), Some(mb)) = (wa.metric(name), wb.metric(name)) {
                rows.push(Row {
                    workload: wa.workload.clone(),
                    a: ma.clone(),
                    b: mb.clone(),
                    higher_is_better,
                    bound,
                    verdict: verdict(higher_is_better, bound, ma, mb),
                });
            }
        }
    }
    rows
}

/// The table `compare` prints: both medians, the ratio with its base, the
/// bound and the verdict.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<9} {:<20} {:>16} {:>16} {:>9} {:>7}  {:<6} {}\n",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "better", "verdict"
    );
    for r in rows {
        let ratio = if r.a.value == 0.0 {
            f64::NAN
        } else {
            r.b.value / r.a.value
        };
        out.push_str(&format!(
            "{:<9} {:<20} {:>16.6} {:>16.6} {:>9.4} {:>6.0}%  {:<6} {}\n",
            r.workload,
            format!("{} [{}]", r.a.name, r.a.unit),
            r.a.value,
            r.b.value,
            ratio,
            r.bound * 100.0,
            if r.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            r.verdict.label(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;
    use crate::report::{WorkloadRecord, SCHEMA};
    use crate::stats::Summary;

    fn metric(name: &str, median: f64, q1: f64, q3: f64) -> Metric {
        Metric::of(
            name,
            "x",
            Summary {
                n: 9,
                median,
                q1,
                q3,
            },
        )
    }

    #[test]
    fn within_the_bound_is_ok_in_either_direction() {
        let a = metric("m", 100.0, 99.0, 101.0);
        // Lower is better: 9% slower is inside a 10% bound, 11% is not.
        assert_eq!(
            verdict(false, 0.10, &a, &metric("m", 109.0, 108.0, 110.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(false, 0.10, &a, &metric("m", 111.0, 110.0, 112.0)),
            Verdict::Worse
        );
        // Higher is better: the same numbers read the other way round.
        assert_eq!(
            verdict(true, 0.10, &a, &metric("m", 91.0, 90.0, 92.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(true, 0.10, &a, &metric("m", 89.0, 88.0, 90.0)),
            Verdict::Worse
        );
        // Any improvement is ok, however large.
        assert_eq!(
            verdict(false, 0.0, &a, &metric("m", 10.0, 9.0, 11.0)),
            Verdict::Ok
        );
    }

    #[test]
    fn overlapping_quartiles_beyond_the_bound_are_unresolved() {
        let a = metric("m", 100.0, 80.0, 125.0);
        let b = metric("m", 120.0, 110.0, 140.0);
        assert_eq!(verdict(false, 0.10, &a, &b), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_tolerate_no_change_for_the_worse() {
        let zero = Metric::single("fail_share", "ratio", 0.0);
        assert_eq!(verdict(false, 0.0, &zero, &zero), Verdict::Ok);
        let some = Metric::single("fail_share", "ratio", 0.001);
        assert_eq!(verdict(false, 0.0, &zero, &some), Verdict::Worse);
        assert_eq!(verdict(false, 0.0, &some, &zero), Verdict::Ok);
        let hit = Metric::single("hit_share", "ratio", 0.9);
        assert_eq!(
            verdict(true, 0.0, &hit, &Metric::single("hit_share", "ratio", 0.89)),
            Verdict::Worse
        );
    }

    fn file(rate: Metric, fail_share: f64) -> RunFile {
        let record = WorkloadRecord::fixture(vec![
            rate,
            Metric::single("fail_share", "ratio", fail_share),
        ]);
        let host = Host {
            git_sha: String::new(),
            nproc: 1,
            cpu_model: String::new(),
            kernel: String::new(),
            rustc: String::new(),
            store_fs: String::new(),
            pool_workers: 2,
            shards: 2,
            shard_workers: 1,
            calib_ns: 1.0,
        };
        RunFile {
            schema: SCHEMA.into(),
            traced: false,
            seed: 1,
            seconds: 1.0,
            host,
            workloads: vec![record],
        }
    }

    #[test]
    fn files_compare_row_by_row_with_the_contracts_bounds() {
        let contract = Contract::load();
        let bound = contract
            .end_to_end
            .iter()
            .find(|m| m.name == "msgs_per_s")
            .and_then(|m| m.bound)
            .expect("msgs_per_s is bounded");
        let a = file(metric("msgs_per_s", 1000.0, 990.0, 1010.0), 0.0);
        let slower = 1000.0 * (1.0 - bound) - 50.0;
        let b = file(
            metric("msgs_per_s", slower, slower - 5.0, slower + 5.0),
            0.25,
        );
        let rows = compare(&contract, &a, &b);
        assert_eq!(rows.len(), 2, "metrics absent from the files are skipped");
        assert!(rows.iter().all(|r| r.verdict == Verdict::Worse));
        assert!(compare(&contract, &a, &a)
            .iter()
            .all(|r| r.verdict == Verdict::Ok));
        assert!(render(&rows).contains("worse"));
    }
}
