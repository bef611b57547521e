//! The analyzer-side telemetry store.
//!
//! Collects the monitoring agents' resource samples and dependency-watcher
//! reports into queryable per-`(node, metric)` time series — the
//! "fine-grained metadata about per node resource utilization" GRETEL's
//! root cause analysis walks over (Algorithm 3: `Is_Anomalous` over
//! resource metadata, `Is_S/W_Dependency` over watcher state).

use crate::series::{mad_sigma_of, median_of, window_of, TimeSeries};
use gretel_model::{Dependency, NodeId, Service};
use gretel_sim::{Execution, ResourceKind, ResourceSample, SimTime, WatcherSample};

/// Resource series per node in the dense table.
const KINDS: usize = ResourceKind::ALL.len();

/// Process watchers, one per service, ahead of the infrastructure ones.
const PROCESSES: usize = Service::ALL.len();

/// Every watchable dependency, indexed by [`dependency_slot`].
const DEPENDENCIES: [Dependency; PROCESSES + 4] = {
    let infra = [
        Dependency::MySqlReachable,
        Dependency::RabbitMqReachable,
        Dependency::NtpAgent,
        Dependency::Libvirt,
    ];
    let mut all = [Dependency::Libvirt; PROCESSES + 4];
    let mut i = 0;
    while i < all.len() {
        all[i] = if i < PROCESSES {
            Dependency::ServiceProcess(Service::ALL[i])
        } else {
            infra[i - PROCESSES]
        };
        i += 1;
    }
    all
};

/// Index of `dep` in [`DEPENDENCIES`].
fn dependency_slot(dep: Dependency) -> usize {
    match dep {
        Dependency::ServiceProcess(s) => s as usize,
        Dependency::MySqlReachable => PROCESSES,
        Dependency::RabbitMqReachable => PROCESSES + 1,
        Dependency::NtpAgent => PROCESSES + 2,
        Dependency::Libvirt => PROCESSES + 3,
    }
}

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

/// One dependency watcher's reports from one node, in timestamp order.
#[derive(Debug)]
struct Watcher {
    dep: Dependency,
    reports: Vec<(SimTime, bool)>,
}

/// Queryable telemetry collected from all monitoring agents, laid out for
/// the queries root cause analysis asks: everything is per node, so both
/// tables are indexed by node id.
#[derive(Debug, Default)]
pub struct TelemetryStore {
    /// Resource series, dense by node × [`ResourceKind`]: slot
    /// `node * KINDS + kind`. An empty series was never reported.
    resources: Vec<TimeSeries>,
    /// Each node's watchers, sorted by [`Dependency::name`] — the order
    /// every watcher query reports in.
    watchers: Vec<Vec<Watcher>>,
    /// Latest timestamp of any sample — how far telemetry collection as a
    /// whole has progressed. Mid-window staleness is judged against this:
    /// a node is only "dead" if *other* telemetry kept arriving after it
    /// went quiet, not when collection itself stopped (end of run).
    horizon: SimTime,
}

impl TelemetryStore {
    /// Build from raw sample streams. Resource samples must be in
    /// timestamp order per `(node, kind)`; watcher reports may come in any
    /// order and are sorted by timestamp here.
    pub fn from_samples(resources: &[ResourceSample], watchers: &[WatcherSample]) -> Self {
        let nodes = resources
            .iter()
            .map(|s| s.node)
            .chain(watchers.iter().map(|w| w.node))
            .max()
            .map_or(0, |n| usize::from(n.0) + 1);
        let resource_slot = |s: &ResourceSample| usize::from(s.node.0) * KINDS + s.kind as usize;
        let watcher_slot =
            |w: &WatcherSample| usize::from(w.node.0) * DEPENDENCIES.len() + dependency_slot(w.dep);

        // Count first, so every series is allocated once at its final size.
        let mut counts = vec![0usize; nodes * KINDS];
        for s in resources {
            counts[resource_slot(s)] += 1;
        }
        let mut series: Vec<TimeSeries> = counts
            .iter()
            .map(|&n| TimeSeries::with_capacity(n))
            .collect();
        for s in resources {
            series[resource_slot(s)].push(s.ts, s.value);
        }

        let mut counts = vec![0usize; nodes * DEPENDENCIES.len()];
        for w in watchers {
            counts[watcher_slot(w)] += 1;
        }
        let mut reports: Vec<Vec<(SimTime, bool)>> =
            counts.iter().map(|&n| Vec::with_capacity(n)).collect();
        for w in watchers {
            reports[watcher_slot(w)].push((w.ts, w.healthy));
        }
        let mut by_name = DEPENDENCIES;
        by_name.sort_by_cached_key(|d| d.name());
        let per_node = reports
            .chunks_mut(DEPENDENCIES.len())
            .map(|node| {
                by_name
                    .iter()
                    .filter_map(|&dep| {
                        let mut reports = std::mem::take(&mut node[dependency_slot(dep)]);
                        reports.sort_by_key(|&(t, _)| t);
                        (!reports.is_empty()).then_some(Watcher { dep, reports })
                    })
                    .collect()
            })
            .collect();

        let horizon = resources
            .iter()
            .map(|s| s.ts)
            .chain(watchers.iter().map(|w| w.ts))
            .max()
            .unwrap_or(0);
        TelemetryStore {
            resources: series,
            watchers: per_node,
            horizon,
        }
    }

    /// Build from a simulation run.
    pub fn from_execution(exec: &Execution) -> Self {
        Self::from_samples(&exec.resources, &exec.watchers)
    }

    /// The series for `(node, kind)`, if any samples exist.
    fn resource_series(&self, node: NodeId, kind: ResourceKind) -> Option<&TimeSeries> {
        self.resources
            .get(usize::from(node.0) * KINDS + kind as usize)
            .filter(|s| !s.is_empty())
    }

    /// The watchers on `node`, in [`Dependency::name`] order.
    fn watchers_on(&self, node: NodeId) -> &[Watcher] {
        self.watchers
            .get(usize::from(node.0))
            .map_or(&[], Vec::as_slice)
    }

    /// All nodes with any telemetry.
    pub fn nodes(&self) -> Vec<NodeId> {
        (0..self.watchers.len())
            .filter(|&n| {
                !self.watchers[n].is_empty()
                    || self.resources[n * KINDS..(n + 1) * KINDS]
                        .iter()
                        .any(|s| !s.is_empty())
            })
            .map(|n| NodeId(n as u8))
            .collect()
    }

    /// Dependencies on `node` that reported unhealthy at least once inside
    /// `[from, until)`, in [`Dependency::name`] order.
    pub fn unhealthy_deps(&self, node: NodeId, from: SimTime, until: SimTime) -> Vec<Dependency> {
        self.watchers_on(node)
            .iter()
            .filter(|w| {
                window_of(&w.reports, from, until)
                    .iter()
                    .any(|&(_, healthy)| !healthy)
            })
            .map(|w| w.dep)
            .collect()
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
        let mut scratch = Vec::new();
        for kind in ResourceKind::ALL {
            let Some(series) = self.resource_series(node, kind) else {
                continue;
            };
            let window = series.window(from, until).iter().map(|&(_, v)| v);
            let Some(observed) = median_of(window, &mut scratch) else {
                continue;
            };

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
            let history = series.window(0, from);
            if history.len() < 10 {
                continue;
            }
            let history = history.iter().map(|&(_, v)| v);
            let base_med = median_of(history.clone(), &mut scratch).expect("history non-empty");
            // Sigma never drops below this floor, so a deviation short of six
            // floors is short of six sigmas (division rounds monotonically in
            // the divisor): most windows skip the MAD.
            let floor = (0.05 * base_med.abs()).max(f64::EPSILON);
            if ((observed - base_med) / floor).abs() < 6.0 {
                continue;
            }
            let sigma = mad_sigma_of(history, base_med, &mut scratch).max(floor);
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
        let mut gaps = Vec::new();
        ResourceKind::ALL
            .into_iter()
            .filter(|&kind| {
                // A series never reported is genuinely absent, not stale.
                self.resource_series(node, kind).is_some_and(|series| {
                    let before = series.window(0, until);
                    series_went_silent(before, from, until, self.horizon, &mut gaps)
                })
            })
            .collect()
    }

    /// Dependency watchers on `node` that are stale over `[from, until)`:
    /// they reported before `until` but went silent (entirely before the
    /// window, or mid-window for at least three typical report intervals),
    /// so [`TelemetryStore::unhealthy_deps`] would read their silence as
    /// health. In [`Dependency::name`] order.
    pub fn watcher_staleness(
        &self,
        node: NodeId,
        from: SimTime,
        until: SimTime,
    ) -> Vec<Dependency> {
        let mut gaps = Vec::new();
        self.watchers_on(node)
            .iter()
            .filter(|w| {
                let before = window_of(&w.reports, 0, until);
                series_went_silent(before, from, until, self.horizon, &mut gaps)
            })
            .map(|w| w.dep)
            .collect()
    }
}

/// Whether a sample stream (the points before `until`, ascending) went
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
/// dying. `gaps` is working space.
fn series_went_silent<T>(
    points: &[(SimTime, T)],
    from: SimTime,
    until: SimTime,
    horizon: SimTime,
    gaps: &mut Vec<SimTime>,
) -> bool {
    let Some(&(last, _)) = points.last() else {
        return false; // never reported before `until`
    };
    if last < from {
        return true; // silent across the entire window
    }
    if points.len() < 2 {
        return false;
    }
    gaps.clear();
    gaps.extend(points.windows(2).map(|w| w[1].0 - w[0].0));
    // The median gap, by selection; integers have no signed zero, so this
    // is exactly the sorted `gaps[len / 2]`.
    let mid = gaps.len() / 2;
    let typical = *gaps.select_nth_unstable(mid).1;
    typical > 0 && last.saturating_add(typical.saturating_mul(3)) < until.min(horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn every_dependency_has_its_own_slot() {
        for (slot, &dep) in DEPENDENCIES.iter().enumerate() {
            assert_eq!(dependency_slot(dep), slot, "{dep:?}");
        }
    }

    #[test]
    fn watcher_queries_report_in_name_order() {
        // Reports arrive interleaved and out of timestamp order; queries
        // answer in `Dependency::name` order, over timestamp-sorted reports.
        let deps = [
            Dependency::RabbitMqReachable,
            Dependency::ServiceProcess(Service::NeutronAgent),
            Dependency::Libvirt,
            Dependency::MySqlReachable,
        ];
        let mut watchers: Vec<WatcherSample> = (0..20)
            .rev()
            .flat_map(|i| {
                deps.map(|dep| WatcherSample {
                    ts: secs(i),
                    node: NodeId(4),
                    dep,
                    healthy: i < 10,
                })
            })
            .collect();
        // A second node that keeps reporting moves the horizon on.
        watchers.extend((0..40).map(|i| WatcherSample {
            ts: secs(i),
            node: NodeId(0),
            dep: Dependency::NtpAgent,
            healthy: true,
        }));
        let store = TelemetryStore::from_samples(&[], &watchers);
        let mut by_name = deps.to_vec();
        by_name.sort_by_key(|d| d.name());
        assert_eq!(store.unhealthy_deps(NodeId(4), secs(10), secs(20)), by_name);
        assert!(store.unhealthy_deps(NodeId(4), 0, secs(10)).is_empty());
        assert_eq!(
            store.watcher_staleness(NodeId(4), secs(25), secs(35)),
            by_name
        );
        assert!(store
            .watcher_staleness(NodeId(4), secs(5), secs(20))
            .is_empty());
    }

    #[test]
    fn inverted_windows_answer_empty() {
        // A snapshot whose events are out of timestamp order asks about a
        // window with `until < from`: every query answers, none panics, and
        // no point lies inside the window.
        let mut pts: Vec<(SimTime, f64)> = (0..60).map(|i| (secs(i), 10.0)).collect();
        pts.extend((60..80).map(|i| (secs(i), 95.0)));
        let samples: Vec<ResourceSample> = pts
            .iter()
            .map(|&(ts, value)| ResourceSample {
                ts,
                node: NodeId(1),
                kind: ResourceKind::CpuPercent,
                value,
            })
            .collect();
        let watchers = [WatcherSample {
            ts: secs(70),
            node: NodeId(1),
            dep: Dependency::NtpAgent,
            healthy: false,
        }];
        let store = TelemetryStore::from_samples(&samples, &watchers);
        let (from, until) = (secs(75), secs(65));
        assert!(store.resource_anomalies(NodeId(1), from, until).is_empty());
        assert!(store.unhealthy_deps(NodeId(1), from, until).is_empty());
        // Staleness reads the points before `until` and, as for any window,
        // calls a series silent when its last one precedes `from`.
        assert_eq!(
            store.resource_staleness(NodeId(1), from, until),
            vec![ResourceKind::CpuPercent]
        );
        assert!(store.watcher_staleness(NodeId(1), from, until).is_empty());
    }
}
