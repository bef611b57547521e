//! Root cause analysis end to end: the §7.2 case studies and the
//! failure-propagation cascades (DESIGN.md §14).

use crate::workload::operational_runs;
use crate::{p_rate, Artifact, Ctx, Workbench};
use gretel_core::graph::{attribute_cascades, Attribution, CascadeParams};
use gretel_core::{
    analyze_stream, Analyzer, CauseKind, Diagnosis, FingerprintLibrary, GretelConfig, RcaContext,
};
use gretel_model::{OperationSpec, Service};
use gretel_sim::cascade::{cascade_suite, CascadeScenario};
use gretel_sim::scenario::{
    failed_image_upload, linuxbridge_crash, mysql_outage, neutron_api_latency,
    no_compute_available, ntp_failure, rabbitmq_outage, Scenario,
};
use gretel_sim::{Deployment, Execution, ExpectedCause};
use gretel_telemetry::TelemetryStore;
use serde::Serialize;

/// Analyze one simulated run with flat RCA, then the state-graph
/// post-pass when `cascades` is set.
fn diagnose(
    wb: &Workbench,
    library: &FingerprintLibrary,
    deployment: &Deployment,
    specs: &[OperationSpec],
    exec: &Execution,
    cascades: bool,
) -> Vec<Diagnosis> {
    let telemetry = TelemetryStore::from_execution(exec);
    let cfg = GretelConfig::auto(library.fp_max(), p_rate(exec), 2.0);
    let mut analyzer = Analyzer::new(library, cfg).with_rca(RcaContext {
        deployment,
        telemetry: &telemetry,
        specs,
    });
    let mut diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());
    if cascades {
        let graph = analyzer.traffic_graph();
        attribute_cascades(&mut diagnoses, graph, &wb.catalog, CascadeParams::default());
    }
    diagnoses
}

/// A §7.2 scenario through the workbench library. RCA resolves matched
/// operations against the specs the library was trained on (the suite);
/// the scenario's canonical specs share ids with the first suite entries
/// only by coincidence.
fn diagnose_scenario(
    wb: &Workbench,
    sc: &Scenario,
    exec: &Execution,
    cascades: bool,
) -> Vec<Diagnosis> {
    diagnose(
        wb,
        &wb.library,
        &sc.deployment,
        wb.suite.specs(),
        exec,
        cascades,
    )
}

#[derive(Serialize)]
struct CaseResult {
    name: String,
    diagnoses: usize,
    root_cause_found: bool,
    root_causes: Vec<String>,
    expected: String,
}

fn run_case(wb: &Workbench, sc: &Scenario) -> CaseResult {
    let diagnoses = diagnose_scenario(wb, sc, &sc.run(wb.catalog.clone()), false);
    let mut root_causes: Vec<String> = Vec::new();
    let mut found = false;
    for rc in diagnoses.iter().flat_map(|d| &d.root_causes) {
        root_causes.push(format!("{}: {}", rc.node, rc.why));
        found |= match &sc.expected_cause {
            ExpectedCause::Resource(node, kind) => {
                rc.node == *node && matches!(&rc.cause, CauseKind::Resource(k) if k == kind)
            }
            ExpectedCause::Dependency(node, dep) => {
                rc.node == *node && matches!(&rc.cause, CauseKind::Dependency(d) if d == dep)
            }
        };
    }
    root_causes.sort();
    root_causes.dedup();

    let expected = match &sc.expected_cause {
        ExpectedCause::Resource(node, kind) => format!("{node}: anomalous {kind}"),
        ExpectedCause::Dependency(node, dep) => format!("{node}: {dep} down"),
    };
    println!("\n--- {} ---\n{}", sc.name, sc.description);
    for d in diagnoses.iter().take(2) {
        print!("{}", d.render(wb.suite.specs()));
    }
    CaseResult {
        name: sc.name.to_string(),
        diagnoses: diagnoses.len(),
        root_cause_found: found,
        root_causes,
        expected,
    }
}

/// §7.2 case studies — each scenario through simulate → capture → analyze
/// → diagnose, its root cause checked against ground truth: 7.2.1 failed
/// image upload (low disk on Glance), 7.2.2 Neutron latency (CPU surge),
/// 7.2.3 linuxbridge agent failure, 7.2.4 NTP failure, 3.1.1 no compute
/// available, plus MySQL and RabbitMQ outages.
pub fn case_studies(ctx: &Ctx) -> Vec<Artifact> {
    let (cat, seed) = (&ctx.wb.catalog, ctx.seed);
    let scenarios = [
        failed_image_upload(cat, seed, 6),
        neutron_api_latency(cat, seed, 40),
        linuxbridge_crash(cat, seed, 6),
        ntp_failure(cat, seed, 6),
        no_compute_available(cat, seed, 6),
        mysql_outage(cat, seed, 6),
        rabbitmq_outage(cat, seed, 6),
    ];
    let cases: Vec<CaseResult> = scenarios.iter().map(|sc| run_case(&ctx.wb, sc)).collect();
    let found = cases.iter().filter(|c| c.root_cause_found).count();
    println!(
        "\n{found}/{} scenarios reached the paper's root cause",
        cases.len()
    );
    vec![Artifact::new("case_studies", &cases)]
}

#[derive(Serialize)]
struct CascadeResult {
    name: String,
    diagnoses: usize,
    labeled: usize,
    truth_roots: Vec<String>,
    truth_symptoms: Vec<String>,
    predicted_roots: Vec<String>,
    predicted_symptoms: Vec<String>,
    true_positives: usize,
    false_positives: usize,
    false_negatives: usize,
}

#[derive(Serialize)]
struct PropagationReport {
    seed: u64,
    precision: f64,
    recall: f64,
    cascades: Vec<CascadeResult>,
    flat_path_identical: Vec<String>,
    replay_deterministic: bool,
}

/// Full pipeline for one cascade: characterize on the scenario's own
/// operation suite (its cascades exercise RPC-only agent ops the tempest
/// motif set does not cover), simulate, analyze, attribute.
fn diagnose_cascade(wb: &Workbench, sc: &CascadeScenario) -> Vec<Diagnosis> {
    let (library, _) =
        FingerprintLibrary::characterize(wb.catalog.clone(), &sc.specs, &sc.deployment, 2, 7);
    diagnose(
        wb,
        &library,
        &sc.deployment,
        &sc.specs,
        &sc.run(wb.catalog.clone()),
        true,
    )
}

/// The per-service labels the post-pass assigned.
fn predicted_labels(diagnoses: &[Diagnosis]) -> (Vec<Service>, Vec<(Service, Service)>) {
    let mut roots: Vec<Service> = Vec::new();
    let mut symptoms: Vec<(Service, Service)> = Vec::new();
    for d in diagnoses {
        match &d.attribution {
            Some(Attribution::Root { service, .. }) if !roots.contains(service) => {
                roots.push(*service);
            }
            Some(Attribution::Symptom { service, of, .. })
                if !symptoms.contains(&(*service, *of)) =>
            {
                symptoms.push((*service, *of));
            }
            _ => {}
        }
    }
    roots.sort_by_key(|s| s.index());
    symptoms.sort_by_key(|&(s, _)| s.index());
    (roots, symptoms)
}

fn run_cascade(wb: &Workbench, sc: &CascadeScenario) -> CascadeResult {
    let diagnoses = diagnose_cascade(wb, sc);
    let (roots, symptoms) = predicted_labels(&diagnoses);
    let truth_roots = sc.truth.root_services();
    let truth_symptoms = sc.truth.symptom_services();

    // A root prediction is correct iff the service really is a cascade
    // root; a symptom prediction additionally has to blame a true root.
    let true_roots = roots.iter().filter(|r| truth_roots.contains(r)).count();
    let true_symptoms = symptoms
        .iter()
        .filter(|(s, of)| truth_symptoms.contains(s) && truth_roots.contains(of))
        .count();
    let true_positives = true_roots + true_symptoms;
    let false_negatives = truth_roots.iter().filter(|r| !roots.contains(r)).count()
        + truth_symptoms
            .iter()
            .filter(|s| !symptoms.iter().any(|(ps, _)| ps == *s))
            .count();

    println!("\n--- {} ---\n{}", sc.name, sc.description);
    for d in diagnoses.iter().filter(|d| d.attribution.is_some()).take(2) {
        print!("{}", d.render(&sc.specs));
    }
    let names = |services: &[Service]| services.iter().map(|s| s.name().to_string()).collect();
    CascadeResult {
        name: sc.name.to_string(),
        diagnoses: diagnoses.len(),
        labeled: diagnoses.iter().filter(|d| d.attribution.is_some()).count(),
        truth_roots: names(&truth_roots),
        truth_symptoms: names(&truth_symptoms),
        predicted_roots: names(&roots),
        predicted_symptoms: symptoms
            .iter()
            .map(|(s, of)| format!("{} of {}", s.name(), of.name()))
            .collect(),
        true_positives,
        false_positives: roots.len() + symptoms.len() - true_positives,
        false_negatives,
    }
}

/// Failure-propagation cascades — the cascade suite (Cinder→Nova crash,
/// NTP→multi-service skew, Nova⇌Cinder partition) through the pipeline
/// plus the state-graph post-pass, root-vs-symptom labels scored against
/// the scheduler's ground truth. Gates: precision and recall of (service,
/// root|symptom) labels both ≥ 0.9; every §7.2 operational scenario
/// serializes byte-identically through the graph path and the flat path
/// (the post-pass is invisible without cascade structure); a second
/// identical run reproduces the labeled diagnoses byte for byte.
pub(crate) fn propagation(ctx: &Ctx) -> Vec<Artifact> {
    let wb = &ctx.wb;
    let suite = cascade_suite(&wb.catalog, ctx.seed);
    let cascades: Vec<CascadeResult> = suite.iter().map(|sc| run_cascade(wb, sc)).collect();

    let sum = |f: fn(&CascadeResult) -> usize| cascades.iter().map(f).sum::<usize>();
    let tp = sum(|c| c.true_positives);
    let ratio = |rest: usize| {
        if tp + rest == 0 {
            0.0
        } else {
            tp as f64 / (tp + rest) as f64
        }
    };
    let precision = ratio(sum(|c| c.false_positives));
    let recall = ratio(sum(|c| c.false_negatives));

    let json = |d: &[Diagnosis]| serde_json::to_string(d).expect("serialize");
    let flat_path_identical: Vec<String> = operational_runs(wb, ctx.seed)
        .iter()
        .map(|run| {
            let name = run.scenario.name;
            let flat = diagnose_scenario(wb, &run.scenario, &run.exec, false);
            let graphed = diagnose_scenario(wb, &run.scenario, &run.exec, true);
            assert_eq!(
                json(&flat),
                json(&graphed),
                "graph post-pass changed the report for {name}"
            );
            name.to_string()
        })
        .collect();
    let replay_deterministic =
        json(&diagnose_cascade(wb, &suite[0])) == json(&diagnose_cascade(wb, &suite[0]));

    assert!(
        replay_deterministic,
        "cascade attribution must be replay-deterministic"
    );
    assert!(
        precision >= 0.9,
        "root-vs-symptom precision {precision:.3} below 0.9"
    );
    assert!(
        recall >= 0.9,
        "root-vs-symptom recall {recall:.3} below 0.9"
    );
    let report = PropagationReport {
        seed: ctx.seed,
        precision,
        recall,
        cascades,
        flat_path_identical,
        replay_deterministic,
    };
    vec![Artifact::new("propagation", &report)]
}
