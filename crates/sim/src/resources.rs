//! Per-node resource dynamics and monitoring samples.
//!
//! Each node exposes collectd-style metrics (CPU, memory, free disk,
//! network throughput, disk I/O). Baselines depend on the node's role;
//! load contributed by in-flight operation steps moves CPU and network;
//! injected [`ResourceFault`](crate::faults::ResourceFault)s override or
//! shift a metric for a window — that is what root cause analysis later
//! detects as anomalous.

use crate::engine::SimTime;
use gretel_model::NodeId;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Kind of node metric, 1:1 with what the paper's collectd agents poll
/// (§5.1: "CPU, memory, network throughput, storage, and disk read/write").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// CPU utilisation, percent (0–100).
    CpuPercent,
    /// Memory in use, MB.
    MemUsedMb,
    /// Free disk space, GB.
    DiskFreeGb,
    /// Network throughput, Mbps.
    NetMbps,
    /// Disk read/write operations per second.
    DiskIoOps,
}

impl ResourceKind {
    /// All kinds, in a stable order.
    pub const ALL: [ResourceKind; 5] = [
        ResourceKind::CpuPercent,
        ResourceKind::MemUsedMb,
        ResourceKind::DiskFreeGb,
        ResourceKind::NetMbps,
        ResourceKind::DiskIoOps,
    ];

    /// Metric name as reported by the monitoring agents.
    pub fn name(self) -> &'static str {
        match self {
            ResourceKind::CpuPercent => "cpu",
            ResourceKind::MemUsedMb => "memory",
            ResourceKind::DiskFreeGb => "disk-free",
            ResourceKind::NetMbps => "net-throughput",
            ResourceKind::DiskIoOps => "disk-io",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One metric observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceSample {
    /// Sample time.
    pub ts: SimTime,
    /// Node the sample is from.
    pub node: NodeId,
    /// Which metric.
    pub kind: ResourceKind,
    /// Metric value in the kind's unit.
    pub value: f64,
}

/// Role-dependent baseline metric levels.
#[derive(Debug, Clone, Copy)]
pub struct Baseline {
    /// Idle CPU percent.
    pub cpu: f64,
    /// Resident memory, MB.
    pub mem_mb: f64,
    /// Free disk, GB.
    pub disk_free_gb: f64,
    /// Background network traffic, Mbps.
    pub net_mbps: f64,
    /// Background disk ops per second.
    pub disk_io: f64,
}

impl Baseline {
    /// Baseline for a node role (as named by
    /// [`crate::deployment::NodeSpec::role`]).
    pub fn for_role(role: &str) -> Baseline {
        match role {
            "controller" => Baseline {
                cpu: 12.0,
                mem_mb: 6_000.0,
                disk_free_gb: 400.0,
                net_mbps: 18.0,
                disk_io: 180.0,
            },
            "network" => Baseline {
                cpu: 8.0,
                mem_mb: 3_000.0,
                disk_free_gb: 450.0,
                net_mbps: 25.0,
                disk_io: 60.0,
            },
            "image" => Baseline {
                cpu: 5.0,
                mem_mb: 2_500.0,
                disk_free_gb: 800.0,
                net_mbps: 12.0,
                disk_io: 220.0,
            },
            "storage" => Baseline {
                cpu: 6.0,
                mem_mb: 2_800.0,
                disk_free_gb: 900.0,
                net_mbps: 10.0,
                disk_io: 300.0,
            },
            _ => Baseline {
                cpu: 10.0,
                mem_mb: 4_000.0,
                disk_free_gb: 350.0,
                net_mbps: 15.0,
                disk_io: 90.0,
            },
        }
    }

    fn value(&self, kind: ResourceKind) -> f64 {
        match kind {
            ResourceKind::CpuPercent => self.cpu,
            ResourceKind::MemUsedMb => self.mem_mb,
            ResourceKind::DiskFreeGb => self.disk_free_gb,
            ResourceKind::NetMbps => self.net_mbps,
            ResourceKind::DiskIoOps => self.disk_io,
        }
    }
}

/// Computes a metric value from baseline + load + jitter.
///
/// `active` is the number of in-flight operation steps currently handled
/// on the node; load mainly shows up in CPU and network.
pub fn sample_value<R: Rng>(
    rng: &mut R,
    baseline: &Baseline,
    kind: ResourceKind,
    active: usize,
) -> f64 {
    let base = baseline.value(kind);
    let load = active as f64;
    let raw = match kind {
        ResourceKind::CpuPercent => base + 0.9 * load,
        ResourceKind::MemUsedMb => base + 14.0 * load,
        ResourceKind::DiskFreeGb => base,
        ResourceKind::NetMbps => base + 0.6 * load,
        ResourceKind::DiskIoOps => base + 2.5 * load,
    };
    // Small multiplicative jitter so the series look like real telemetry.
    let jitter = 1.0 + rng.gen_range(-0.04..0.04);
    let v = raw * jitter;
    match kind {
        ResourceKind::CpuPercent => v.clamp(0.0, 100.0),
        _ => v.max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cpu_is_clamped_under_extreme_load() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = Baseline::for_role("network");
        let v = sample_value(&mut rng, &b, ResourceKind::CpuPercent, 100_000);
        assert!(v <= 100.0);
    }

    #[test]
    fn load_raises_cpu() {
        let mut rng = StdRng::seed_from_u64(2);
        let b = Baseline::for_role("network");
        let idle: f64 = (0..64)
            .map(|_| sample_value(&mut rng, &b, ResourceKind::CpuPercent, 0))
            .sum::<f64>()
            / 64.0;
        let busy: f64 = (0..64)
            .map(|_| sample_value(&mut rng, &b, ResourceKind::CpuPercent, 40))
            .sum::<f64>()
            / 64.0;
        assert!(busy > idle + 20.0, "busy {busy:.1} vs idle {idle:.1}");
    }

    #[test]
    fn disk_free_is_load_independent() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = Baseline::for_role("image");
        let a = sample_value(&mut rng, &b, ResourceKind::DiskFreeGb, 0);
        let c = sample_value(&mut rng, &b, ResourceKind::DiskFreeGb, 50);
        assert!((a - c).abs() < b.disk_free_gb * 0.2);
    }

    #[test]
    fn roles_have_distinct_baselines() {
        let img = Baseline::for_role("image");
        let net = Baseline::for_role("network");
        assert!(img.disk_free_gb > net.disk_free_gb);
        assert!(net.net_mbps > img.net_mbps);
    }

    #[test]
    fn all_kinds_have_unique_names() {
        let mut names: Vec<_> = ResourceKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ResourceKind::ALL.len());
    }

    #[test]
    fn values_are_nonnegative() {
        let mut rng = StdRng::seed_from_u64(4);
        let b = Baseline::for_role("controller");
        for kind in ResourceKind::ALL {
            for active in [0, 5, 500] {
                assert!(sample_value(&mut rng, &b, kind, active) >= 0.0);
            }
        }
    }
}
