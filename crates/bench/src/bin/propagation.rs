//! Failure-propagation cascades — root-vs-symptom attribution.
//!
//! Runs the cascade suite (Cinder→Nova crash cascade, NTP→multi-service
//! skew, Nova⇌Cinder partition split) through the full pipeline plus the
//! state-graph post-pass ([`gretel_core::graph::attribute_cascades`]) and
//! scores the root-vs-symptom labels against the scheduler's ground
//! truth. Three invariants are enforced alongside the scores:
//!
//! * **accuracy** — precision and recall of (service, root|symptom)
//!   labels must both be ≥ 0.9 across the suite;
//! * **no-regression oracle** — every §7.2 operational scenario re-run
//!   through the graph path must serialize **byte-identically** to the
//!   flat RCA path (the post-pass is invisible without cascade
//!   structure);
//! * **determinism** — a second identical run must reproduce the labeled
//!   diagnoses byte-for-byte.
//!
//! Usage: `cargo run --release -p gretel-bench --bin propagation [--seed N] [--smoke]`

use gretel_bench::{arg, flag, results, Workbench};
use gretel_core::graph::{attribute_cascades, Attribution, CascadeParams};
use gretel_core::{
    analyze_stream, Analyzer, Diagnosis, FingerprintLibrary, GretelConfig, RcaContext,
};
use gretel_model::Service;
use gretel_sim::cascade::{cascade_suite, CascadeScenario};
use gretel_sim::scenario::operational_suite;
use gretel_telemetry::TelemetryStore;
use serde::Serialize;

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
struct Report {
    seed: u64,
    precision: f64,
    recall: f64,
    cascades: Vec<CascadeResult>,
    flat_path_identical: Vec<String>,
    replay_deterministic: bool,
}

/// Full pipeline for one cascade scenario: characterize on the
/// scenario's own operation suite (its cascades exercise RPC-only agent
/// ops that the tempest motif set does not cover), simulate, analyze
/// with flat RCA, then run the graph post-pass. Returns the labeled
/// diagnoses.
fn diagnose(wb: &Workbench, sc: &CascadeScenario) -> Vec<Diagnosis> {
    let (library, _) =
        FingerprintLibrary::characterize(wb.catalog.clone(), &sc.specs, &sc.deployment, 2, 7);
    let exec = sc.run(wb.catalog.clone());
    let telemetry = TelemetryStore::from_execution(&exec);
    let p_rate = exec.messages.len() as f64 / (exec.duration.max(1) as f64 / 1e6).max(1e-6);
    let cfg = GretelConfig::auto(library.fp_max(), p_rate, 2.0);
    let mut analyzer = Analyzer::new(&library, cfg).with_rca(RcaContext {
        deployment: &sc.deployment,
        telemetry: &telemetry,
        specs: &sc.specs,
    });
    let mut diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());
    attribute_cascades(
        &mut diagnoses,
        analyzer.traffic_graph(),
        &wb.catalog,
        CascadeParams::default(),
    );
    diagnoses
}

/// The per-service labels the post-pass actually assigned.
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
    let diagnoses = diagnose(wb, sc);
    let (roots, symptoms) = predicted_labels(&diagnoses);
    let truth_roots = sc.truth.root_services();
    let truth_symptoms = sc.truth.symptom_services();

    // A root prediction is correct iff the service really is a cascade
    // root; a symptom prediction additionally has to blame a true root.
    let mut tp = 0;
    let mut fp = 0;
    for r in &roots {
        if truth_roots.contains(r) {
            tp += 1;
        } else {
            fp += 1;
        }
    }
    for (s, of) in &symptoms {
        if truth_symptoms.contains(s) && truth_roots.contains(of) {
            tp += 1;
        } else {
            fp += 1;
        }
    }
    let fn_ = truth_roots.iter().filter(|r| !roots.contains(r)).count()
        + truth_symptoms
            .iter()
            .filter(|s| !symptoms.iter().any(|(ps, _)| ps == *s))
            .count();

    println!("\n--- {} ---", sc.name);
    println!("{}", sc.description);
    for d in diagnoses.iter().filter(|d| d.attribution.is_some()).take(2) {
        print!("{}", d.render(&sc.specs));
    }
    println!(
        "truth: roots {:?} symptoms {:?} | predicted: roots {:?} symptoms {:?}",
        truth_roots, truth_symptoms, roots, symptoms
    );

    CascadeResult {
        name: sc.name.to_string(),
        diagnoses: diagnoses.len(),
        labeled: diagnoses.iter().filter(|d| d.attribution.is_some()).count(),
        truth_roots: truth_roots.iter().map(|s| s.name().to_string()).collect(),
        truth_symptoms: truth_symptoms.iter().map(|s| s.name().to_string()).collect(),
        predicted_roots: roots.iter().map(|s| s.name().to_string()).collect(),
        predicted_symptoms: symptoms
            .iter()
            .map(|(s, of)| format!("{} of {}", s.name(), of.name()))
            .collect(),
        true_positives: tp,
        false_positives: fp,
        false_negatives: fn_,
    }
}

/// Byte-identity oracle: a §7.2 scenario run through the graph path must
/// serialize exactly as the flat path does.
fn assert_flat_identity(wb: &Workbench, sc: &gretel_sim::Scenario) -> String {
    let exec = sc.run(wb.catalog.clone());
    let telemetry = TelemetryStore::from_execution(&exec);
    let p_rate = exec.messages.len() as f64 / (exec.duration.max(1) as f64 / 1e6).max(1e-6);
    let cfg = GretelConfig::auto(wb.library.fp_max(), p_rate, 2.0);
    let mut analyzer = Analyzer::new(&wb.library, cfg).with_rca(RcaContext {
        deployment: &sc.deployment,
        telemetry: &telemetry,
        specs: wb.suite.specs(),
    });
    let mut diagnoses = analyze_stream(&mut analyzer, exec.messages.iter());
    let flat = serde_json::to_string(&diagnoses).expect("serialize");
    attribute_cascades(
        &mut diagnoses,
        analyzer.traffic_graph(),
        &wb.catalog,
        CascadeParams::default(),
    );
    let graphed = serde_json::to_string(&diagnoses).expect("serialize");
    assert_eq!(flat, graphed, "graph post-pass changed the report for {}", sc.name);
    sc.name.to_string()
}

fn main() {
    let seed: u64 = arg("--seed", 42);
    let smoke = flag("--smoke");
    let wb = Workbench::new(seed);

    let cascades = cascade_suite(&wb.catalog, seed);
    let cascades = if smoke { &cascades[..1] } else { &cascades[..] };

    let cases: Vec<CascadeResult> = cascades.iter().map(|sc| run_cascade(&wb, sc)).collect();

    let tp: usize = cases.iter().map(|c| c.true_positives).sum();
    let fp: usize = cases.iter().map(|c| c.false_positives).sum();
    let fn_: usize = cases.iter().map(|c| c.false_negatives).sum();
    let precision = if tp + fp == 0 { 0.0 } else { tp as f64 / (tp + fp) as f64 };
    let recall = if tp + fn_ == 0 { 0.0 } else { tp as f64 / (tp + fn_) as f64 };

    // No-regression oracle over the §7.2 operational suite.
    let operational = operational_suite(&wb.catalog, seed, if smoke { 2 } else { 6 });
    let operational = if smoke { &operational[..1] } else { &operational[..] };
    let flat_path_identical: Vec<String> =
        operational.iter().map(|sc| assert_flat_identity(&wb, sc)).collect();

    // Replay determinism: the first cascade, end to end, twice.
    let a = serde_json::to_string(&diagnose(&wb, &cascades[0])).expect("serialize");
    let b = serde_json::to_string(&diagnose(&wb, &cascades[0])).expect("serialize");
    let replay_deterministic = a == b;

    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                c.diagnoses.to_string(),
                c.predicted_roots.join(", "),
                c.predicted_symptoms.join(", "),
                format!("{}/{}/{}", c.true_positives, c.false_positives, c.false_negatives),
            ]
        })
        .collect();
    results::print_table(
        "failure propagation: root-vs-symptom attribution",
        &["scenario", "diagnoses", "roots", "symptoms", "tp/fp/fn"],
        &rows,
    );
    println!(
        "\nprecision {precision:.3}  recall {recall:.3}  (flat-path identity: {} scenario(s), replay {})",
        flat_path_identical.len(),
        if replay_deterministic { "deterministic" } else { "DIVERGED" }
    );

    assert!(replay_deterministic, "cascade attribution must be replay-deterministic");
    assert!(precision >= 0.9, "root-vs-symptom precision {precision:.3} below 0.9");
    assert!(recall >= 0.9, "root-vs-symptom recall {recall:.3} below 0.9");
    if !smoke {
        let report = Report {
            seed,
            precision,
            recall,
            cascades: cases,
            flat_path_identical,
            replay_deterministic,
        };
        results::write_json("propagation", &report);
    }
}
