//! Batched zero-copy ingest oracle (DESIGN.md §12, ARCHITECTURE.md).
//!
//! The batched transport moves `FrameBatch`es — one arena, many frames —
//! across the capture→analyzer channels instead of one allocation per
//! message. Batching is a *transport* optimisation: diagnoses are a pure
//! function of the decoded messages in merge order, and per-agent frame
//! order is preserved inside every arena, so the committed diagnosis
//! stream must be byte-identical for ANY batch size, under ANY capture
//! impairment, and across crash/replay cycles. These tests pin that
//! oracle and the channel-operation economics the fast path exists for.

use gretel::core::store::MemStore;
use gretel::core::{
    analyze_stream, run_service_cfg, run_service_durable, Analyzer, DurableConfig, DurableOutcome,
    GretelConfig, RecoveryConfig, ServiceConfig,
};
use gretel::model::{
    Catalog, HttpMethod, Message, NodeId, OpSpecId, OperationSpec, Service, Workflows,
};
use gretel::netcap::{CaptureImpairment, StallSpec};
use gretel::sim::{ApiFault, Deployment, FaultPlan, FaultScope, InjectedError, RunConfig, Runner};
use gretel_core::{AnalyzerChaos, Diagnosis, FingerprintLibrary, ServiceStats};
use proptest::prelude::*;
use std::sync::OnceLock;

const BATCH_SIZES: [usize; 4] = [1, 8, 64, 256];

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
        let put_file = cat.rest_expect(Service::Glance, HttpMethod::Put, "/v2/images/{id}/file");
        let plan = FaultPlan::none()
            .with_api_fault(ApiFault {
                api: ports_post,
                scope: FaultScope::AllInstances,
                occurrence: 0,
                error: InjectedError::RestStatus {
                    status: 500,
                    reason: None,
                },
                abort_op: true,
            })
            .with_api_fault(ApiFault {
                api: put_file,
                scope: FaultScope::AllInstances,
                occurrence: 0,
                error: InjectedError::RestStatus {
                    status: 503,
                    reason: None,
                },
                abort_op: true,
            });
        // Enough stream that every agent fills several maximum-size
        // batches and the recoverable runs cross checkpoint intervals.
        let refs: Vec<&OperationSpec> = specs.iter().cycle().take(24).collect();
        let exec = Runner::new(
            cat,
            &dep,
            &plan,
            RunConfig {
                seed: 9,
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
        alpha: 48,
        ..GretelConfig::default()
    }
}

fn run_batched(cfg: &ServiceConfig) -> (Vec<Diagnosis>, ServiceStats) {
    let fx = fixture();
    let mut analyzer = Analyzer::new(&fx.lib, gcfg());
    let (diags, svc, _) = run_service_cfg(&mut analyzer, &fx.nodes, &fx.messages, cfg);
    (diags, svc)
}

/// Clean capture: every batch size — on both the legacy unsequenced path
/// and the sequence-stamped path — reproduces the inline analyzer's
/// diagnoses byte-for-byte.
#[test]
fn every_batch_size_matches_the_inline_oracle() {
    let fx = fixture();
    let mut inline = Analyzer::new(&fx.lib, gcfg());
    let expected = analyze_stream(&mut inline, fx.messages.iter());
    assert!(expected.len() >= 2, "fixture produces diagnoses");

    for batch in BATCH_SIZES {
        let (diags, _) = run_batched(&ServiceConfig {
            ingest_batch: batch,
            ..ServiceConfig::default()
        });
        assert_eq!(diags, expected, "unsequenced path, ingest_batch={batch}");

        let (diags, svc) = run_batched(&ServiceConfig {
            ingest_batch: batch,
            impairment: Some(CaptureImpairment::none()),
            ..ServiceConfig::default()
        });
        assert_eq!(diags, expected, "sequenced path, ingest_batch={batch}");
        assert!(svc.capture.is_clean());
    }
}

/// The economics the fast path exists for: with `ingest_batch = n` an
/// agent performs at most `ceil(frames/n)` channel sends. Every batched
/// size must cut channel operations per frame at least 2× versus the
/// per-message (batch-1) run, ops/frame must never increase as batches
/// grow, and the diagnoses stay identical throughout. (Past ~64 the
/// curve flattens: short per-agent streams leave the last batch of each
/// agent partially filled, so the tail is flush-dominated.)
#[test]
fn batching_amortizes_channel_operations() {
    let per_frame = |svc: &ServiceStats| svc.channel_ops as f64 / svc.frames as f64;

    let mut prev: Option<(usize, Vec<Diagnosis>, ServiceStats)> = None;
    for batch in BATCH_SIZES {
        let (diags, svc) = run_batched(&ServiceConfig {
            ingest_batch: batch,
            ..ServiceConfig::default()
        });
        assert!(svc.channel_ops > 0 && svc.frames > 0);
        if batch == 1 {
            // One frame per send: ops == frames exactly.
            assert_eq!(svc.channel_ops, svc.frames);
        } else {
            assert!(
                2 * svc.channel_ops <= svc.frames,
                "ingest_batch={batch} must at least halve sends: \
                 {} ops for {} frames",
                svc.channel_ops,
                svc.frames,
            );
        }
        if let Some((pb, pdiags, psvc)) = &prev {
            assert_eq!(&diags, pdiags, "ingest_batch {pb} vs {batch} diverged");
            assert!(
                per_frame(psvc) >= per_frame(&svc),
                "ops/frame must not increase with batch size: \
                 {pb} gives {:.4}, {batch} gives {:.4}",
                per_frame(psvc),
                per_frame(&svc),
            );
        }
        prev = Some((batch, diags, svc));
    }
}

/// A stalled agent exercises the partial-batch flush: frames buffered in
/// the builder when the stream ends must still ship, so no diagnosis is
/// ever stranded in a half-full batch.
#[test]
fn partial_batches_flush_under_stall() {
    let imp = CaptureImpairment {
        stall: Some(StallSpec {
            start_frame: 6,
            frames: 4,
        }),
        ..CaptureImpairment::none()
    };
    let baseline = run_batched(&ServiceConfig {
        ingest_batch: 1,
        impairment: Some(imp),
        ..ServiceConfig::default()
    });
    for batch in [8, 64, 256] {
        let (diags, svc) = run_batched(&ServiceConfig {
            ingest_batch: batch,
            impairment: Some(imp),
            ..ServiceConfig::default()
        });
        assert_eq!(diags, baseline.0, "stalled capture, ingest_batch={batch}");
        assert_eq!(
            svc.frames, baseline.1.frames,
            "no frame stranded in a builder"
        );
    }
}

/// Crash/replay composes with batching: the recoverable service at any
/// batch size commits the same stream as the uninterrupted batch-1 run,
/// even with worker-kill chaos layered on top.
#[test]
fn crash_replay_is_batch_size_invariant() {
    let fx = fixture();
    let (expected, _) = run_batched(&ServiceConfig {
        ingest_batch: 1,
        impairment: Some(CaptureImpairment::none()),
        ..ServiceConfig::default()
    });

    for batch in [1, 64] {
        let recovery = RecoveryConfig {
            service: ServiceConfig {
                ingest_batch: batch,
                impairment: Some(CaptureImpairment::none()),
                ..ServiceConfig::default()
            },
            checkpoint_every: 64,
            chaos: AnalyzerChaos {
                kill_prob: 0.5,
                kill_attempts: 2,
                seed: 17,
                ..AnalyzerChaos::none()
            },
            max_attempts: 5,
        };
        // Two kills, then a lifetime that completes, all over one store.
        let mut store = MemStore::new();
        let mut restores = 0;
        let mut done = None;
        for kill_point in [Some(150), Some(80), None] {
            let cfg = DurableConfig {
                recovery: recovery.clone(),
                kill_point,
                reloads: Vec::new(),
            };
            match run_service_durable(&fx.lib, gcfg(), &fx.nodes, &fx.messages, &cfg, &mut store)
                .expect("chaotic batched lifetime completes or is killed")
            {
                DurableOutcome::Killed { recovery, .. } => restores += recovery.restores,
                DurableOutcome::Completed {
                    diagnoses,
                    recovery,
                    ..
                } => {
                    restores += recovery.restores;
                    done = Some(diagnoses);
                }
            }
        }
        assert_eq!(
            done.as_ref(),
            Some(&expected),
            "recovery at ingest_batch={batch}"
        );
        assert_eq!(restores, 2, "one restore per kill");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For ANY seeded impairment and ANY batch size, the diagnosis stream
    /// equals the per-message (batch-1) run under the same impairment:
    /// impairment is applied to the flat frame stream BEFORE batching, so
    /// the transport granularity can never change what was lost.
    #[test]
    fn impairment_composes_with_any_batch_size(
        drop_prob in prop_oneof![Just(0.0), 0.0..0.25f64],
        dup_prob in 0.0..0.2f64,
        reorder_prob in 0.0..0.25f64,
        reorder_span in 1usize..6,
        seed in any::<u64>(),
        batch in prop_oneof![Just(3usize), Just(8), Just(64), Just(256)],
    ) {
        let imp = CaptureImpairment {
            drop_prob, dup_prob, reorder_prob, reorder_span, stall: None, seed,
        };
        let (expected, ref_svc) = run_batched(&ServiceConfig {
            ingest_batch: 1,
            impairment: Some(imp),
            ..ServiceConfig::default()
        });
        let (diags, svc) = run_batched(&ServiceConfig {
            ingest_batch: batch,
            impairment: Some(imp),
            ..ServiceConfig::default()
        });
        prop_assert_eq!(diags, expected);
        // Same impairment stream either way: transport granularity must
        // not change what the receiver saw or inferred.
        prop_assert_eq!(svc.frames, ref_svc.frames);
        prop_assert_eq!(svc.capture.dropped, ref_svc.capture.dropped);
        prop_assert_eq!(svc.capture.lost, ref_svc.capture.lost);
    }
}
