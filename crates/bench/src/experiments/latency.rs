//! Performance faults: Fig 6 (§7.2.2) and Fig 8b (§7.3(4)) — a latency
//! series, the level-shift alarms on it, and what they are attributed to.

use crate::{p_rate, Artifact, Ctx};
use gretel_core::{analyze_stream, Analyzer, Diagnosis, FaultKind, PerfMonitor, RcaContext};
use gretel_model::{HttpMethod, Service};
use gretel_sim::scenario::{glance_latency_injection, neutron_api_latency_with_window};
use gretel_sim::{secs, ExpectedCause};
use gretel_telemetry::{LevelShiftConfig, OutlierDetector, SpikeDetector, TelemetryStore};
use serde::Serialize;

/// The level-shift tuning both figures use.
fn level_shift() -> LevelShiftConfig {
    LevelShiftConfig {
        baseline_window: 20,
        test_window: 4,
        ..Default::default()
    }
}

fn performance_faults(diagnoses: &[Diagnosis]) -> Vec<&Diagnosis> {
    diagnoses
        .iter()
        .filter(|d| matches!(d.kind, FaultKind::Performance { .. }))
        .collect()
}

#[derive(Serialize)]
struct SeriesPoint {
    t_s: f64,
    latency_ms: f64,
}

#[derive(Serialize)]
struct Fig6Out {
    series: Vec<SeriesPoint>,
    alarms: Vec<f64>,
    root_causes: Vec<String>,
}

/// Fig 6 — during 150 concurrent VM creates a CPU surge on the Neutron
/// server inflates its API latencies; the level-shift detector flags the
/// shift on `POST /v2.0/ports.json` (the port-create the paper's step 6
/// slows down) and root cause analysis attributes it to the CPU.
pub fn fig6(ctx: &Ctx) -> Vec<Artifact> {
    let wb = &ctx.wb;
    let sc = neutron_api_latency_with_window(&wb.catalog, ctx.seed, 150, secs(40), secs(90));
    let exec = sc.run(wb.catalog.clone());
    let telemetry = TelemetryStore::from_execution(&exec);
    let ports_post = wb
        .catalog
        .rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");

    let cfg = wb.config_at(p_rate(&exec));
    let mut analyzer =
        Analyzer::with_perf_config(&wb.library, cfg, level_shift(), true).with_rca(RcaContext {
            deployment: &sc.deployment,
            telemetry: &telemetry,
            specs: wb.suite.specs(),
        });
    let diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());
    let perf = performance_faults(&diagnoses);

    println!("performance diagnoses ({}):", perf.len());
    for d in perf.iter().take(6) {
        print!("{}", d.render(wb.suite.specs()));
    }
    let mut root_causes: Vec<String> = perf
        .iter()
        .flat_map(|d| {
            d.root_causes
                .iter()
                .map(|rc| format!("{}: {}", rc.node, rc.why))
        })
        .collect();
    root_causes.sort();
    root_causes.dedup();
    let expected = match &sc.expected_cause {
        ExpectedCause::Resource(node, kind) => format!("{node} ({kind})"),
        ExpectedCause::Dependency(node, dep) => format!("{node} ({dep})"),
    };
    let found = root_causes.iter().any(|c| c.contains("CPU"));
    println!(
        "expected root cause: CPU surge on {expected} — {}",
        if found { "FOUND" } else { "NOT FOUND" }
    );

    let series = analyzer
        .latency_history(ports_post)
        .iter()
        .map(|&(ts, lat)| SeriesPoint {
            t_s: ts as f64 / 1e6,
            latency_ms: lat / 1e3,
        })
        .collect();
    let alarms = perf.iter().map(|d| d.ts as f64 / 1e6).collect();
    vec![Artifact::new(
        "fig6",
        &Fig6Out {
            series,
            alarms,
            root_causes,
        },
    )]
}

#[derive(Serialize)]
struct Fig8bOut {
    inject_from_s: u64,
    inject_until_s: u64,
    alarms_in_window: usize,
    alarms_outside: usize,
    alarm_times_s: Vec<f64>,
    series_len: usize,
}

/// Fig 8b — ~200 concurrent operations with 50 ms injected on all Glance
/// traffic over a window scaled to the run (the paper's minutes 5–15 of
/// ~20; paper: 18 alarms). Detection is pluggable (§6), so the figure is
/// drawn twice: `fig8b` with the default adaptive level-shift detector
/// (one alarm per confirmed shift) and `fig8b_spike` with the
/// additive-outlier detector, which — like the paper's `tsoutliers` —
/// re-alarms on every excursion. The two bracket the paper's count.
pub fn fig8b(ctx: &Ctx) -> Vec<Artifact> {
    let wb = &ctx.wb;
    let (from, until) = (secs(60), secs(180));
    let sc = glance_latency_injection(&wb.catalog, ctx.seed, 200, from, until);
    let exec = sc.run(wb.catalog.clone());
    let cfg = wb.config_at(p_rate(&exec));
    let image_get = wb
        .catalog
        .rest_expect(Service::Glance, HttpMethod::Get, "/v2/images/{id}");

    let spike = || Box::new(SpikeDetector::new(30, 8.0)) as Box<dyn OutlierDetector + Send>;
    let monitors = [
        ("fig8b", PerfMonitor::new(level_shift(), true)),
        (
            "fig8b_spike",
            PerfMonitor::with_factory(Box::new(spike), true),
        ),
    ];
    monitors
        .into_iter()
        .map(|(stem, monitor)| {
            let mut analyzer = Analyzer::with_perf_monitor(&wb.library, cfg, monitor);
            let diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());
            let perf = performance_faults(&diagnoses);
            let margin = secs(20);
            let alarms_in_window = perf
                .iter()
                .filter(|d| d.ts + margin >= from && d.ts < until + margin)
                .count();
            let out = Fig8bOut {
                inject_from_s: from / 1_000_000,
                inject_until_s: until / 1_000_000,
                alarms_in_window,
                alarms_outside: perf.len() - alarms_in_window,
                alarm_times_s: perf.iter().map(|d| d.ts as f64 / 1e6).collect(),
                series_len: analyzer.latency_history(image_get).len(),
            };
            Artifact::new(stem, &out)
        })
        .collect()
}
