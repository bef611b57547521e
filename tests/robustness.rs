//! Capture-loss robustness invariants (DESIGN.md §10).
//!
//! Two guarantees pin the degraded-mode machinery:
//!
//! * **Identity at zero impairment** — stamping sequence numbers, running
//!   the resequencer and enabling the miss-budget matcher with a no-op
//!   impairment must reproduce the legacy lossless pipeline's diagnoses
//!   exactly (the miss budget is funded only by observed gaps, and with
//!   none observed it is zero everywhere).
//! * **Honesty under impairment** — for any seeded impairment, every
//!   diagnosis is either `Exact` (its window spanned no gap) or `Degraded`
//!   with a consistent gap accounting (at least one gap, at least one lost
//!   frame per gap, and never more loss than the receiver inferred in
//!   total).

use gretel::core::{
    analyze_stream, run_service_cfg, Analyzer, CaptureConfidence, GretelConfig, ServiceConfig,
};
use gretel::model::{
    Catalog, HttpMethod, Message, NodeId, OpSpecId, OperationSpec, Service, Workflows,
};
use gretel::netcap::{CaptureImpairment, StallSpec};
use gretel::sim::{ApiFault, Deployment, FaultPlan, FaultScope, InjectedError, RunConfig, Runner};
use gretel_core::FingerprintLibrary;
use proptest::prelude::*;
use std::sync::OnceLock;

struct Fixture {
    lib: FingerprintLibrary,
    nodes: Vec<NodeId>,
    messages: Vec<Message>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let cat = Catalog::openstack();
        let dep = Deployment::standard();
        let wf = Workflows::new(cat.clone());
        let specs = vec![
            wf.vm_create_spec(OpSpecId(0)),
            wf.image_upload_spec(OpSpecId(1)),
        ];
        let (lib, _) = FingerprintLibrary::characterize(cat.clone(), &specs, &dep, 2, 21);
        let ports_post = cat.rest_expect(Service::Neutron, HttpMethod::Post, "/v2.0/ports.json");
        let plan = FaultPlan::none().with_api_fault(ApiFault {
            api: ports_post,
            scope: FaultScope::AllInstances,
            occurrence: 0,
            error: InjectedError::RestStatus {
                status: 500,
                reason: None,
            },
            abort_op: true,
        });
        let refs: Vec<&OperationSpec> = specs.iter().collect();
        let exec = Runner::new(
            cat,
            &dep,
            &plan,
            RunConfig {
                seed: 2,
                ..Default::default()
            },
        )
        .run(&refs);
        let nodes = dep.nodes().iter().map(|n| n.id).collect();
        Fixture {
            lib,
            nodes,
            messages: exec.messages,
        }
    })
}

fn gcfg() -> GretelConfig {
    GretelConfig {
        alpha: 64,
        ..GretelConfig::default()
    }
}

#[test]
fn zero_impairment_is_identical_to_the_legacy_pipeline() {
    let fx = fixture();

    // Oracle: inline analysis (no threads, no channels, no frames).
    let mut inline = Analyzer::new(&fx.lib, gcfg());
    let expected = analyze_stream(&mut inline, fx.messages.iter());
    assert!(!expected.is_empty(), "fixture produces diagnoses");

    // Legacy threaded pipeline.
    let mut legacy = Analyzer::new(&fx.lib, gcfg());
    let (legacy_diags, _, _) = run_service_cfg(
        &mut legacy,
        &fx.nodes,
        &fx.messages,
        &ServiceConfig::default(),
    );
    assert_eq!(legacy_diags, expected);

    // Sequence-stamped pipeline with a no-op impairment: the whole
    // loss-tolerance machinery engaged, nothing lost, same answer.
    let cfg = ServiceConfig {
        impairment: Some(CaptureImpairment::none()),
        ..ServiceConfig::default()
    };
    let mut seq = Analyzer::new(&fx.lib, gcfg());
    let (seq_diags, svc, astats) = run_service_cfg(&mut seq, &fx.nodes, &fx.messages, &cfg);
    assert_eq!(seq_diags, expected);
    assert!(svc.capture.is_clean());
    assert_eq!(astats.capture_gaps, 0);
    assert!(seq_diags.iter().all(|d| d.confidence.is_exact()));
}

#[test]
fn agent_stall_is_reported_as_degraded_not_hidden() {
    let fx = fixture();
    let cfg = ServiceConfig {
        impairment: Some(CaptureImpairment {
            stall: Some(StallSpec {
                start_frame: 6,
                frames: 4,
            }),
            ..CaptureImpairment::none()
        }),
        ..ServiceConfig::default()
    };
    let mut analyzer = Analyzer::new(&fx.lib, gcfg());
    let (diags, svc, astats) = run_service_cfg(&mut analyzer, &fx.nodes, &fx.messages, &cfg);
    // Every agent with more than 6 frames stalls mid-stream; the receiver
    // must infer the holes rather than silently skip them.
    assert!(svc.capture.stalled > 0);
    assert!(astats.lost_frames > 0);
    assert!(
        diags.iter().any(|d| !d.confidence.is_exact()),
        "a 25-frame outage leaves degraded windows: {diags:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For ANY seeded impairment, diagnoses never misrepresent their
    /// evidence: `Exact` windows span no inferred loss, `Degraded` windows
    /// count at least one gap and at least one lost frame per gap, and no
    /// window claims more loss than the receiver inferred in total.
    #[test]
    fn every_diagnosis_is_exact_or_counts_its_gaps(
        drop_prob in prop_oneof![Just(0.0), 0.0..0.3f64],
        dup_prob in 0.0..0.2f64,
        reorder_prob in 0.0..0.3f64,
        reorder_span in 1usize..6,
        seed in any::<u64>(),
    ) {
        let fx = fixture();
        let imp = CaptureImpairment {
            drop_prob, dup_prob, reorder_prob, reorder_span, stall: None, seed,
        };
        let cfg = ServiceConfig { impairment: Some(imp), ..ServiceConfig::default() };
        let mut analyzer = Analyzer::new(&fx.lib, gcfg());
        let (diags, svc, astats) = run_service_cfg(&mut analyzer, &fx.nodes, &fx.messages, &cfg);

        // Receiver-side inference is bounded by what the injector did:
        // only drops create holes (duplication and bounded reorder are
        // absorbed by the resequencer).
        prop_assert!(svc.capture.lost <= svc.capture.dropped);
        prop_assert_eq!(astats.lost_frames, svc.capture.lost);

        for d in &diags {
            match d.confidence {
                CaptureConfidence::Exact => {}
                CaptureConfidence::Degraded { gaps, lost } => {
                    prop_assert!(gaps > 0, "degraded window with no gaps: {:?}", d);
                    prop_assert!(lost >= gaps, "gaps={} lost={}", gaps, lost);
                    prop_assert!(u64::from(lost) <= astats.lost_frames);
                }
                // This pipeline imposes no per-job deadline, so analysis
                // is never cancelled.
                CaptureConfidence::Cancelled => {
                    prop_assert!(false, "unexpected cancellation: {:?}", d);
                }
            }
        }
        if astats.lost_frames == 0 {
            prop_assert!(diags.iter().all(|d| d.confidence.is_exact()));
        }
    }
}
