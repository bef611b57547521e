//! The analyzer-side telemetry store.
//!
//! Collects the monitoring agents' resource samples and dependency-watcher
//! reports into queryable per-`(node, metric)` time series — the
//! "fine-grained metadata about per node resource utilization" GRETEL's
//! root cause analysis walks over (Algorithm 3: `Is_Anomalous` over
//! resource metadata, `Is_S/W_Dependency` over watcher state).

use crate::series::{mad_sigma_of, median_of, TimeSeries};
use gretel_model::{Dependency, NodeId};
use gretel_sim::{Execution, ResourceKind, ResourceSample, SimTime, WatcherSample};
use std::collections::HashMap;

/// Evidence for a resource anomaly on a node.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceEvidence {
    /// The anomalous metric.
    pub kind: ResourceKind,
    /// Representative (median) observed value inside the window.
    pub observed: f64,
    /// Baseline (median outside the window, or the absolute guard value).
    pub baseline: f64,
    /// Human-readable explanation.
    pub why: String,
}

/// Queryable telemetry collected from all monitoring agents.
#[derive(Debug, Default)]
pub struct TelemetryStore {
    resources: HashMap<(NodeId, ResourceKind), TimeSeries>,
    watchers: HashMap<(NodeId, Dependency), Vec<(SimTime, bool)>>,
}

impl TelemetryStore {
    /// Build from raw sample streams.
    pub fn from_samples(resources: &[ResourceSample], watchers: &[WatcherSample]) -> Self {
        let mut store = TelemetryStore::default();
        for s in resources {
            store
                .resources
                .entry((s.node, s.kind))
                .or_default()
                .push(s.ts, s.value);
        }
        for w in watchers {
            store
                .watchers
                .entry((w.node, w.dep))
                .or_default()
                .push((w.ts, w.healthy));
        }
        store
    }

    /// Build from a simulation run.
    pub fn from_execution(exec: &Execution) -> Self {
        Self::from_samples(&exec.resources, &exec.watchers)
    }

    /// The series for `(node, kind)`, if any samples exist.
    pub(crate) fn resource_series(&self, node: NodeId, kind: ResourceKind) -> Option<&TimeSeries> {
        self.resources.get(&(node, kind))
    }

    /// All nodes with any telemetry.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.resources.keys().map(|&(n, _)| n).collect();
        nodes.extend(self.watchers.keys().map(|&(n, _)| n));
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// Dependencies on `node` that reported unhealthy at least once inside
    /// `[from, until)`.
    pub fn unhealthy_deps(&self, node: NodeId, from: SimTime, until: SimTime) -> Vec<Dependency> {
        let mut out = Vec::new();
        for (&(n, dep), states) in &self.watchers {
            if n != node {
                continue;
            }
            if states
                .iter()
                .any(|&(ts, healthy)| ts >= from && ts < until && !healthy)
            {
                out.push(dep);
            }
        }
        out.sort_by_key(|d| d.name());
        out
    }

    /// Resource anomalies on `node` inside `[from, until)`.
    ///
    /// Two complementary checks, mirroring what an operator's runbook (and
    /// the paper's case studies) treat as "anomalous":
    ///
    /// * **absolute guards** — free disk below 1 GB (§7.2.1), CPU above
    ///   85 % (§7.2.2);
    /// * **relative** — window median deviating from the node's own
    ///   history (before the window) by more than 6 MAD-sigmas.
    pub fn resource_anomalies(
        &self,
        node: NodeId,
        from: SimTime,
        until: SimTime,
    ) -> Vec<ResourceEvidence> {
        let mut out = Vec::new();
        for kind in ResourceKind::ALL {
            let Some(series) = self.resource_series(node, kind) else {
                continue;
            };
            let window: Vec<f64> = series.window(from, until).iter().map(|&(_, v)| v).collect();
            if window.is_empty() {
                continue;
            }
            let observed = median_of(&window).expect("window non-empty");

            // Absolute guards.
            match kind {
                ResourceKind::DiskFreeGb if observed < 1.0 => {
                    out.push(ResourceEvidence {
                        kind,
                        observed,
                        baseline: 1.0,
                        why: format!("free disk {observed:.2} GB below 1 GB floor"),
                    });
                    continue;
                }
                ResourceKind::CpuPercent if observed > 85.0 => {
                    out.push(ResourceEvidence {
                        kind,
                        observed,
                        baseline: 85.0,
                        why: format!("CPU {observed:.1}% above 85% ceiling"),
                    });
                    continue;
                }
                _ => {}
            }

            // Relative to the node's own history before the window.
            let history: Vec<f64> = series.window(0, from).iter().map(|&(_, v)| v).collect();
            if history.len() < 10 {
                continue;
            }
            let base_med = median_of(&history).expect("history non-empty");
            let sigma = mad_sigma_of(&history)
                .unwrap_or(0.0)
                .max(0.05 * base_med.abs())
                .max(f64::EPSILON);
            let z = (observed - base_med) / sigma;
            if z.abs() >= 6.0 {
                out.push(ResourceEvidence {
                    kind,
                    observed,
                    baseline: base_med,
                    why: format!(
                        "{kind} median {observed:.1} deviates {z:.1} sigma from history {base_med:.1}"
                    ),
                });
            }
        }
        out
    }

    /// Telemetry series on `node` that are **stale** over `[from, until)`:
    /// the node reported this metric at some point before `until`, but the
    /// series went silent — either entirely before `from`, or mid-window,
    /// dying at least three typical sampling intervals before the window's
    /// end. A stale series looks exactly like a healthy one to
    /// [`TelemetryStore::resource_anomalies`] (an empty window is skipped,
    /// and a window whose tail is missing carries no anomalous points);
    /// this query makes the distinction explicit so root cause analysis can
    /// downgrade "no resource anomaly found" to "telemetry was missing"
    /// instead of asserting health from absent data.
    pub fn resource_staleness(
        &self,
        node: NodeId,
        from: SimTime,
        until: SimTime,
    ) -> Vec<ResourceKind> {
        let mut out = Vec::new();
        let horizon = self.collection_horizon();
        for kind in ResourceKind::ALL {
            let Some(series) = self.resource_series(node, kind) else {
                continue; // never reported: genuinely no telemetry, not stale
            };
            let ts: Vec<SimTime> = series.window(0, until).iter().map(|&(t, _)| t).collect();
            if series_went_silent(&ts, from, until, horizon) {
                out.push(kind);
            }
        }
        out
    }

    /// Dependency watchers on `node` that are stale over `[from, until)`:
    /// they reported before `until` but went silent (entirely before the
    /// window, or mid-window for at least three typical report intervals),
    /// so [`TelemetryStore::unhealthy_deps`] would read their silence as
    /// health.
    pub fn watcher_staleness(
        &self,
        node: NodeId,
        from: SimTime,
        until: SimTime,
    ) -> Vec<Dependency> {
        let mut out = Vec::new();
        let horizon = self.collection_horizon();
        for (&(n, dep), states) in &self.watchers {
            if n != node {
                continue;
            }
            let ts: Vec<SimTime> = states
                .iter()
                .map(|&(t, _)| t)
                .filter(|&t| t < until)
                .collect();
            if series_went_silent(&ts, from, until, horizon) {
                out.push(dep);
            }
        }
        out.sort_by_key(|d| d.name());
        out
    }

    /// Latest timestamp of any sample in the store — how far telemetry
    /// collection as a whole has progressed. Mid-window staleness is
    /// judged against this: a node is only "dead" if *other* telemetry
    /// kept arriving after it went quiet, not when collection itself
    /// stopped (end of run).
    fn collection_horizon(&self) -> SimTime {
        let res = self.resources.values().filter_map(|s| s.last_ts()).max();
        let wat = self
            .watchers
            .values()
            .filter_map(|s| s.last().map(|&(t, _)| t))
            .max();
        res.max(wat).unwrap_or(0)
    }
}

/// Whether a sample stream (timestamps before `until`, ascending) went
/// silent with respect to the window `[from, until)`.
///
/// Two shapes count as silent:
///
/// * the stream reported before `from` but has nothing inside the window
///   at all (classic staleness), or
/// * the stream died **mid-window**: its last report precedes `until` by
///   more than three typical sampling intervals (median inter-sample gap),
///   so the tail of the fault window has no coverage even though the
///   window as a whole is non-empty.
///
/// A stream with a single report (no cadence to estimate) only matches the
/// first shape; an empty stream is absent, not stale. The mid-window shape
/// is additionally bounded by `horizon` (how far collection as a whole has
/// progressed), so a global end of collection never reads as one node
/// dying.
fn series_went_silent(ts: &[SimTime], from: SimTime, until: SimTime, horizon: SimTime) -> bool {
    let Some(&last) = ts.last() else {
        return false; // never reported before `until`
    };
    if last < from {
        return true; // silent across the entire window
    }
    if ts.len() < 2 {
        return false;
    }
    let mut gaps: Vec<SimTime> = ts.windows(2).map(|w| w[1] - w[0]).collect();
    gaps.sort_unstable();
    let typical = gaps[gaps.len() / 2];
    typical > 0 && last.saturating_add(typical.saturating_mul(3)) < until.min(horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_model::Service;
    use gretel_sim::secs;

    fn store_with_cpu(node: NodeId, values: &[(SimTime, f64)]) -> TelemetryStore {
        let samples: Vec<ResourceSample> = values
            .iter()
            .map(|&(ts, value)| ResourceSample {
                ts,
                node,
                kind: ResourceKind::CpuPercent,
                value,
            })
            .collect();
        TelemetryStore::from_samples(&samples, &[])
    }

    #[test]
    fn cpu_guard_detects_surge() {
        let mut pts: Vec<(SimTime, f64)> = (0..60).map(|i| (secs(i), 10.0)).collect();
        pts.extend((60..80).map(|i| (secs(i), 95.0)));
        let store = store_with_cpu(NodeId(1), &pts);
        let anomalies = store.resource_anomalies(NodeId(1), secs(60), secs(80));
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].kind, ResourceKind::CpuPercent);
        // And the quiet window is clean.
        assert!(store
            .resource_anomalies(NodeId(1), secs(10), secs(50))
            .is_empty());
    }

    #[test]
    fn disk_floor_detects_exhaustion() {
        let samples: Vec<ResourceSample> = (0..30)
            .map(|i| ResourceSample {
                ts: secs(i),
                node: NodeId(2),
                kind: ResourceKind::DiskFreeGb,
                value: 0.2,
            })
            .collect();
        let store = TelemetryStore::from_samples(&samples, &[]);
        let anomalies = store.resource_anomalies(NodeId(2), 0, secs(30));
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].kind, ResourceKind::DiskFreeGb);
    }

    #[test]
    fn relative_shift_detected_against_history() {
        // Memory climbing from ~4000 to ~12000 — no absolute guard, but a
        // huge relative deviation.
        let mut samples: Vec<ResourceSample> = (0..60)
            .map(|i| ResourceSample {
                ts: secs(i),
                node: NodeId(3),
                kind: ResourceKind::MemUsedMb,
                value: 4000.0 + (i % 5) as f64 * 20.0,
            })
            .collect();
        samples.extend((60..70).map(|i| ResourceSample {
            ts: secs(i),
            node: NodeId(3),
            kind: ResourceKind::MemUsedMb,
            value: 12_000.0,
        }));
        let store = TelemetryStore::from_samples(&samples, &[]);
        let anomalies = store.resource_anomalies(NodeId(3), secs(60), secs(70));
        assert!(anomalies.iter().any(|a| a.kind == ResourceKind::MemUsedMb));
    }

    #[test]
    fn unhealthy_deps_respect_window() {
        let watchers = vec![
            WatcherSample {
                ts: secs(5),
                node: NodeId(4),
                dep: Dependency::ServiceProcess(Service::NeutronAgent),
                healthy: true,
            },
            WatcherSample {
                ts: secs(15),
                node: NodeId(4),
                dep: Dependency::ServiceProcess(Service::NeutronAgent),
                healthy: false,
            },
        ];
        let store = TelemetryStore::from_samples(&[], &watchers);
        assert!(store.unhealthy_deps(NodeId(4), 0, secs(10)).is_empty());
        assert_eq!(
            store.unhealthy_deps(NodeId(4), secs(10), secs(20)),
            vec![Dependency::ServiceProcess(Service::NeutronAgent)]
        );
        // Other nodes are unaffected.
        assert!(store.unhealthy_deps(NodeId(5), 0, secs(100)).is_empty());
    }

    #[test]
    fn staleness_flags_series_that_end_before_window() {
        // CPU reported up to t=30s, then the monitoring agent went silent.
        let pts: Vec<(SimTime, f64)> = (0..30).map(|i| (secs(i), 10.0)).collect();
        let store = store_with_cpu(NodeId(7), &pts);
        // Fault window after the silence: no anomaly (empty window skipped)
        // but the series is reported stale rather than healthy.
        assert!(store
            .resource_anomalies(NodeId(7), secs(60), secs(80))
            .is_empty());
        assert_eq!(
            store.resource_staleness(NodeId(7), secs(60), secs(80)),
            vec![ResourceKind::CpuPercent]
        );
        // Window with live samples: not stale.
        assert!(store
            .resource_staleness(NodeId(7), secs(10), secs(20))
            .is_empty());
        // A node that never reported anything is absent, not stale.
        assert!(store
            .resource_staleness(NodeId(8), secs(60), secs(80))
            .is_empty());
    }

    #[test]
    fn staleness_flags_series_that_die_mid_window() {
        // 1 Hz cadence up to t=30s, silence after — and a fault window
        // [20s, 60s) that *straddles* the death. The window is non-empty,
        // so the old whole-window rule would read it as covered; the tail
        // (30s..60s, thirty missed samples) says otherwise. A second node
        // keeps reporting through t=60s: collection as a whole continued,
        // so the silence is this node dying, not the run ending.
        let mut samples: Vec<ResourceSample> = (0..30)
            .map(|i| ResourceSample {
                ts: secs(i),
                node: NodeId(7),
                kind: ResourceKind::CpuPercent,
                value: 10.0,
            })
            .collect();
        samples.extend((0..60).map(|i| ResourceSample {
            ts: secs(i),
            node: NodeId(8),
            kind: ResourceKind::CpuPercent,
            value: 10.0,
        }));
        let store = TelemetryStore::from_samples(&samples, &[]);
        assert_eq!(
            store.resource_staleness(NodeId(7), secs(20), secs(60)),
            vec![ResourceKind::CpuPercent]
        );
        // A window ending within three intervals of the last sample is
        // still considered covered.
        assert!(store
            .resource_staleness(NodeId(7), secs(20), secs(32))
            .is_empty());
    }

    #[test]
    fn watcher_staleness_flags_silent_watchers() {
        let watchers = vec![WatcherSample {
            ts: secs(5),
            node: NodeId(9),
            dep: Dependency::ServiceProcess(Service::NeutronAgent),
            healthy: true,
        }];
        let store = TelemetryStore::from_samples(&[], &watchers);
        // Window after the last report: silent, hence stale.
        assert_eq!(
            store.watcher_staleness(NodeId(9), secs(10), secs(20)),
            vec![Dependency::ServiceProcess(Service::NeutronAgent)]
        );
        // Window covering the report: fresh.
        assert!(store.watcher_staleness(NodeId(9), 0, secs(10)).is_empty());
        // Never-reporting node: absent, not stale.
        assert!(store
            .watcher_staleness(NodeId(10), secs(10), secs(20))
            .is_empty());
    }

    #[test]
    fn nodes_lists_all_sampled_nodes() {
        let samples = vec![
            ResourceSample {
                ts: 0,
                node: NodeId(1),
                kind: ResourceKind::CpuPercent,
                value: 1.0,
            },
            ResourceSample {
                ts: 0,
                node: NodeId(3),
                kind: ResourceKind::CpuPercent,
                value: 1.0,
            },
        ];
        let store = TelemetryStore::from_samples(&samples, &[]);
        assert_eq!(store.nodes(), vec![NodeId(1), NodeId(3)]);
    }
}
