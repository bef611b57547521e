//! Property-based tests (proptest) over the core data structures and
//! invariants (see DESIGN.md §6).

use gretel::core::lcs::{is_subsequence, lcs, lcs_len};
use gretel::core::noise_filter::filter_noise;
use gretel::core::window::SlidingWindow;
use gretel::core::{theta, Event, FaultMark};
use gretel::model::message::{render_rest_request_payload, render_rest_response_payload};
use gretel::model::{
    symbol, ApiId, Catalog, ConnKey, Direction, HttpMethod, Message, MessageId, NodeId,
    OpInstanceId, Service, WireKind,
};
use gretel::netcap::{decode_one, encode};
use gretel::telemetry::{LevelShiftConfig, LevelShiftDetector, OutlierDetector};
use proptest::prelude::*;

fn http_method() -> impl Strategy<Value = HttpMethod> {
    prop_oneof![
        Just(HttpMethod::Get),
        Just(HttpMethod::Post),
        Just(HttpMethod::Put),
        Just(HttpMethod::Delete),
        Just(HttpMethod::Patch),
        Just(HttpMethod::Head),
    ]
}

fn service() -> impl Strategy<Value = Service> {
    (0..Service::ALL.len()).prop_map(|i| Service::ALL[i])
}

prop_compose! {
    fn arb_message()(
        id in 0u64..u64::MAX / 2,
        ts in 0u64..u64::MAX / 2,
        src in 0u8..8,
        dst in 0u8..8,
        src_service in service(),
        dst_service in service(),
        api in 0u16..900,
        is_response in any::<bool>(),
        is_rpc in any::<bool>(),
        method in http_method(),
        uri in "[a-z0-9/._-]{0,40}",
        status in proptest::option::of(100u16..600),
        msg_id in any::<u64>(),
        error in proptest::option::of("[A-Za-z]{1,20}"),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        truth_op in proptest::option::of(any::<u64>()),
        corr in proptest::option::of(any::<u64>()),
        truth_noise in any::<bool>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
    ) -> Message {
        Message {
            id: MessageId(id),
            ts_us: ts,
            src_node: NodeId(src),
            dst_node: NodeId(dst),
            src_service,
            dst_service,
            api: ApiId(api),
            direction: if is_response { Direction::Response } else { Direction::Request },
            wire: if is_rpc {
                WireKind::Rpc { method: uri.clone(), msg_id, error }
            } else {
                WireKind::Rest { method, uri, status }
            },
            conn: ConnKey { src: NodeId(src), src_port: sport, dst: NodeId(dst), dst_port: dport },
            payload,
            correlation_id: corr,
            project: None,
            truth_op: truth_op.map(OpInstanceId),
            truth_noise,
        }
    }
}

proptest! {
    #[test]
    fn codec_round_trips_arbitrary_messages(msg in arb_message()) {
        let decoded = decode_one(&encode(&msg)).expect("round trip");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn truncated_frames_never_panic(msg in arb_message(), cut in 0usize..64) {
        let bytes = encode(&msg);
        let keep = bytes.len().saturating_sub(cut);
        // Decodes to the message when nothing was cut, reports an error
        // otherwise; never panics.
        match decode_one(&bytes[..keep]) {
            Ok(decoded) => {
                prop_assert_eq!(cut, 0);
                prop_assert_eq!(decoded, msg);
            }
            Err(_) => prop_assert!(cut > 0),
        }
    }

    #[test]
    fn lcs_is_subsequence_of_both(
        a in proptest::collection::vec(0u16..30, 0..60),
        b in proptest::collection::vec(0u16..30, 0..60),
    ) {
        let a: Vec<ApiId> = a.into_iter().map(ApiId).collect();
        let b: Vec<ApiId> = b.into_iter().map(ApiId).collect();
        let c = lcs(&a, &b);
        prop_assert!(is_subsequence(&c, &a));
        prop_assert!(is_subsequence(&c, &b));
        prop_assert_eq!(c.len(), lcs_len(&a, &b));
        prop_assert_eq!(lcs_len(&a, &b), lcs_len(&b, &a));
        prop_assert!(c.len() <= a.len().min(b.len()));
    }

    #[test]
    fn lcs_with_self_is_identity(a in proptest::collection::vec(0u16..50, 0..80)) {
        let a: Vec<ApiId> = a.into_iter().map(ApiId).collect();
        prop_assert_eq!(lcs(&a, &a), a.clone());
    }

    #[test]
    fn symbol_encoding_round_trips(id in 0u16..2000) {
        let api = ApiId(id);
        prop_assert_eq!(symbol::decode(symbol::encode(api)), Some(api));
    }

    #[test]
    fn theta_is_bounded(n in 0usize..2000, total in 1usize..2000) {
        let t = theta(n, total);
        prop_assert!((0.0..=1.0).contains(&t));
    }

    #[test]
    fn rest_scan_matches_rendered_statuses(status in 100u16..600, body in 0usize..256) {
        let p = render_rest_response_payload(status, "x", body);
        let got = gretel::core::scan_rest_error(&p);
        if status >= 400 {
            prop_assert_eq!(got, Some(status));
        } else {
            prop_assert_eq!(got, None);
        }
    }

    #[test]
    fn rest_scan_never_fires_on_requests(
        method in http_method(),
        uri in "[a-z0-9/._-]{0,60}",
        body in 0usize..256,
    ) {
        let p = render_rest_request_payload(method, &uri, body);
        prop_assert_eq!(gretel::core::scan_rest_error(&p), None);
    }
}

// Noise filter properties run against the real catalog (non-proptest
// setup is expensive, so sample within one test).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn noise_filter_is_idempotent_and_preserves_order(
        raw in proptest::collection::vec(0u16..770, 0..120),
    ) {
        let catalog = Catalog::openstack();
        let trace: Vec<ApiId> = raw
            .into_iter()
            .map(|v| ApiId(v % catalog.len() as u16))
            .collect();
        let once = filter_noise(&catalog, &trace);
        let twice = filter_noise(&catalog, &once);
        prop_assert_eq!(&once, &twice);
        prop_assert!(is_subsequence(&once, &trace));
        // No noise API survives.
        for api in &once {
            prop_assert!(!catalog.is_noise(*api));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn window_never_exceeds_alpha_and_snapshots_contain_fault(
        alpha in 2usize..64,
        n_before in 0usize..128,
        n_after_extra in 0usize..64,
    ) {
        let mk = |i: u64| Event {
            id: MessageId(i),
            ts: i,
            api: ApiId((i % 9) as u16),
            direction: Direction::Request,
            is_rpc: false,
            state_change: false,
            noise_api: false,
            src_node: NodeId(0),
            dst_node: NodeId(1),
            corr: None,
            fault: FaultMark::None,
            gap_before: 0,
        };
        let mut w = SlidingWindow::new(alpha);
        for i in 0..n_before as u64 {
            let snaps = w.push(mk(i));
            prop_assert!(snaps.is_empty());
            prop_assert!(w.len() <= alpha);
        }
        let fault = mk(n_before as u64);
        w.push(fault);
        w.arm(fault);
        let mut all = Vec::new();
        for i in 0..(alpha / 2 + n_after_extra) as u64 {
            all.extend(w.push(mk(n_before as u64 + 1 + i)));
            prop_assert!(w.len() <= alpha);
        }
        all.extend(w.flush());
        prop_assert_eq!(all.len(), 1);
        let snap = &all[0];
        prop_assert!(snap.events.len() <= alpha);
        // The fault is at the recorded index unless the window was too
        // small to retain it.
        if snap.events.iter().any(|e| e.id == fault.id) {
            prop_assert_eq!(snap.events[snap.fault_index].id, fault.id);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn level_shift_never_alarms_on_stationary_noise(
        level in 1.0f64..1000.0,
        jitter_frac in 0.001f64..0.02,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut det = LevelShiftDetector::new(LevelShiftConfig::default());
        for i in 0..400u64 {
            let v = level * (1.0 + rng.gen_range(-jitter_frac..jitter_frac));
            prop_assert!(det.update(i, v).is_none(), "false alarm at {i}");
        }
    }

    #[test]
    fn level_shift_always_catches_a_10x_shift(
        level in 1.0f64..100.0,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut det = LevelShiftDetector::new(LevelShiftConfig::default());
        let mut alarms = 0;
        for i in 0..200u64 {
            let base = if i < 100 { level } else { level * 10.0 };
            let v = base * (1.0 + rng.gen_range(-0.02..0.02));
            if det.update(i, v).is_some() {
                alarms += 1;
            }
        }
        prop_assert_eq!(alarms, 1, "exactly one alarm per sustained shift");
    }
}
