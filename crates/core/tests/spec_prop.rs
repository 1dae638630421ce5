//! Property tests: the spec JSON encoders and decoders are exact
//! inverses. Numbers are printed shortest-roundtrip, so any spec that
//! passes decode validation (finite, non-negative numerics) must survive
//! encode → decode bit-for-bit. The scenario extension rides the same
//! contract: `ScenarioSpec` roundtrips net/timeline/seed exactly, the
//! decoder rejects non-finite and negative link rates, and out-of-order
//! timelines — which decode permissively — always trip verifier rule V9.

use covenant_core::scenario::{LinkSpec, NetSpec, PhaseWindow, ScenarioSpec, TimelineEvent};
use covenant_core::spec::{
    AgreementSpec, ClientSpec, DeploymentSpec, PolicySpec, PrincipalSpec, QueueModeSpec,
};
use covenant_sim::LinkDiscipline;
use proptest::collection::vec;
use proptest::prelude::*;

fn policy_strategy() -> impl Strategy<Value = PolicySpec> {
    (0usize..3, vec(0.0..1000.0f64, 0..4)).prop_map(|(kind, xs)| match kind {
        0 => PolicySpec::Community,
        1 => PolicySpec::CommunityWithLocality { caps: xs },
        _ => PolicySpec::Provider { prices: xs },
    })
}

fn queue_strategy() -> impl Strategy<Value = QueueModeSpec> {
    (0usize..3, 0.0..1.0f64).prop_map(|(kind, delay)| match kind {
        0 => QueueModeSpec::Explicit,
        1 => QueueModeSpec::CreditRetry { retry_delay: delay },
        _ => QueueModeSpec::CreditPark,
    })
}

/// A client referencing one of `n` generated principals by index.
fn client_strategy(n: usize) -> impl Strategy<Value = ClientSpec> {
    (
        0..n,
        0usize..8,
        vec((0.0..100.0f64, 0.0..5000.0f64), 1..4),
        any::<bool>(),
        1usize..256,
    )
        .prop_map(|(p, redirector, phases, closed_loop, max)| ClientSpec {
            principal: format!("P{p}"),
            redirector,
            phases,
            max_outstanding: closed_loop.then_some(max),
        })
}

fn spec_strategy() -> impl Strategy<Value = DeploymentSpec> {
    (1usize..5).prop_flat_map(|n| {
        let principals = vec(0.0..1000.0f64, n);
        let agreements = vec((0..n, 0..n, 0.0..0.5f64, 0.5..1.0f64), 0..5);
        let tree = vec((any::<bool>(), 0..n), 0..4);
        let scalars = (0.0..0.2f64, 0.0..0.2f64, 0.001..10.0f64, 0.1..100.0f64);
        let rest = (
            policy_strategy(),
            queue_strategy(),
            vec(client_strategy(n), 0..3),
            vec(0usize..7, 0..3),
        );
        (principals, agreements, tree, scalars, rest).prop_map(
            |(caps, ags, tree, (delay, lag, window, duration), (policy, queue, clients, allow))| {
                DeploymentSpec {
                    principals: caps
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| PrincipalSpec { name: format!("P{i}"), capacity: c })
                        .collect(),
                    agreements: ags
                        .into_iter()
                        .map(|(i, j, lb, ub)| AgreementSpec {
                            issuer: format!("P{i}"),
                            holder: format!("P{j}"),
                            lb,
                            ub,
                        })
                        .collect(),
                    redirector_tree: tree
                        .into_iter()
                        .map(|(is_child, p)| is_child.then_some(p))
                        .collect(),
                    tree_edge_delay: delay,
                    extra_tree_lag: lag,
                    policy,
                    window_secs: window,
                    queue_mode: queue,
                    clients,
                    duration,
                    allow: allow.into_iter().map(|i| format!("V{}", i + 1)).collect(),
                }
            },
        )
    })
}

proptest! {
    /// Encode → decode returns the identical spec, floats included.
    #[test]
    fn deployment_spec_json_roundtrip(spec in spec_strategy()) {
        let json = spec.to_json();
        let back = DeploymentSpec::from_json(&json)
            .unwrap_or_else(|e| panic!("encoded spec must decode: {e}\n{json}"));
        prop_assert_eq!(spec, back);
    }
}

fn link_strategy() -> impl Strategy<Value = LinkSpec> {
    (1.0..1.0e9f64, any::<bool>()).prop_map(|(rate, fair)| LinkSpec {
        rate_bytes_per_sec: rate,
        discipline: if fair { LinkDiscipline::FairShare } else { LinkDiscipline::Fifo },
    })
}

fn net_strategy() -> impl Strategy<Value = NetSpec> {
    (vec(link_strategy(), 1..4), 1.0..1.0e5f64, 0.0..0.1f64).prop_map(
        |(links, unit_bytes, hop_latency)| NetSpec { links, unit_bytes, hop_latency },
    )
}

/// All seven event kinds from one flat draw: `kind` selects the variant,
/// the shared fields are reinterpreted per kind.
fn event_strategy() -> impl Strategy<Value = TimelineEvent> {
    (
        0usize..7,
        0.0..100.0f64,
        (0.1..50.0f64, 0.0..500.0f64, 0.0..1.0f64),
        (0usize..4, 0usize..4),
        any::<bool>(),
    )
        .prop_map(|(kind, at, (a, b, c), (x, y), flag)| match kind {
            0 => TimelineEvent::FlashCrowd { at, duration: a, client: x, extra_rate: b },
            1 => TimelineEvent::Diurnal {
                at,
                period: a,
                client: x,
                peak_rate: b,
                trough_rate: c * 100.0,
            },
            2 => TimelineEvent::Renegotiate {
                at,
                issuer: format!("P{x}"),
                holder: format!("P{y}"),
                lb: c * 0.5,
                ub: 0.5 + c * 0.49,
            },
            3 => TimelineEvent::ServerFail { at, principal: format!("P{x}") },
            4 => TimelineEvent::ServerRecover {
                at,
                principal: format!("P{x}"),
                capacity: flag.then_some(b * 2.0),
            },
            5 => TimelineEvent::Inflate { at, client: x, factor: c * 16.0 },
            _ => TimelineEvent::RestartRedirector { at, redirector: x },
        })
}

fn scenario_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (
        spec_strategy(),
        (any::<bool>(), net_strategy()),
        vec(event_strategy(), 0..5),
        0usize..1_000_000,
        vec((0.0..0.5f64, 0.5..1.0f64), 0..3),
    )
        .prop_map(|(deployment, (has_net, net), timeline, seed, windows)| {
            // Phase windows as fractions of the run, so 0 ≤ start < end ≤ duration.
            let d = deployment.duration;
            let phases = windows
                .into_iter()
                .enumerate()
                .map(|(i, (s, e))| PhaseWindow {
                    name: format!("phase {i}"),
                    start: s * d,
                    end: e * d,
                })
                .collect();
            let net = has_net.then_some(net);
            ScenarioSpec { deployment, net, timeline, seed: seed as u64, phases }
        })
}

proptest! {
    /// Encode → decode returns the identical scenario: the deployment
    /// keys plus net links, the full timeline (order preserved verbatim),
    /// the seed, and the phases.
    #[test]
    fn scenario_spec_json_roundtrip(sc in scenario_strategy()) {
        let json = sc.to_json();
        let back = ScenarioSpec::from_json(&json)
            .unwrap_or_else(|e| panic!("encoded scenario must decode: {e}\n{json}"));
        prop_assert_eq!(sc, back);
    }

    /// Non-finite and negative link rates never survive decode, no matter
    /// how the rest of the scenario looks.
    #[test]
    fn bad_link_rates_rejected_at_decode(sc in scenario_strategy(), mag in 0.0..1.0e6f64, kind in 0usize..3) {
        let bad_rate = match kind {
            0 => "1e999".to_string(),          // overflows to +inf
            1 => "-1e999".to_string(),         // overflows to -inf
            _ => format!("-{}", mag + 0.125),  // plain negative
        };
        let mut sc = sc;
        sc.net = Some(NetSpec {
            links: vec![LinkSpec { rate_bytes_per_sec: 1.0, discipline: LinkDiscipline::Fifo }],
            unit_bytes: 6144.0,
            hop_latency: 0.0,
        });
        let json = sc.to_json().replace("\"rate_bytes_per_sec\": 1.0", &format!("\"rate_bytes_per_sec\": {bad_rate}"));
        prop_assert!(
            ScenarioSpec::from_json(&json).is_err(),
            "rate {bad_rate} must be rejected:\n{json}"
        );
    }

    /// Out-of-order timelines decode permissively but always trip the
    /// verifier's ordering rule (V9), regardless of event kinds.
    #[test]
    fn out_of_order_timelines_fire_v9(
        sc in scenario_strategy(),
        first in event_strategy(),
        second in event_strategy(),
        gap in 0.5..50.0f64,
    ) {
        use covenant_verify::{verify_scenario, VRule};
        let mut sc = sc;
        let (mut late, mut early) = (first, second);
        set_at(&mut late, sc.deployment.duration + gap + gap);
        set_at(&mut early, sc.deployment.duration + gap);
        sc.timeline = vec![late, early];
        let back = ScenarioSpec::from_json(&sc.to_json()).expect("out-of-order timeline decodes");
        prop_assert_eq!(&back.timeline, &sc.timeline);
        let findings = verify_scenario(&back);
        prop_assert!(
            findings.iter().any(|f| f.rule == VRule::TimelineOrder),
            "V9 must fire on an out-of-order timeline: {findings:?}"
        );
    }
}

fn set_at(ev: &mut TimelineEvent, t: f64) {
    match ev {
        TimelineEvent::FlashCrowd { at, .. }
        | TimelineEvent::Diurnal { at, .. }
        | TimelineEvent::Renegotiate { at, .. }
        | TimelineEvent::ServerFail { at, .. }
        | TimelineEvent::ServerRecover { at, .. }
        | TimelineEvent::Inflate { at, .. }
        | TimelineEvent::RestartRedirector { at, .. } => *at = t,
    }
}
