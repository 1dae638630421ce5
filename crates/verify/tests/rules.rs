//! Fixture-driven verifier tests: every rule has a trigger fixture under
//! `examples/specs/` (also gated in `tier1.sh`) and a non-trigger, and
//! diagnostics must point at the exact `line:col` of the offending value.

use covenant_core::spec::DeploymentSpec;
use covenant_verify::{
    check_text, has_errors, resolve, verify_spec, Diagnostic, Finding, RuleMeta, Severity, VRule,
};
use proptest::prelude::*;

const VALID: &str = include_str!("../../../examples/specs/valid.json");
const V1: &str = include_str!("../../../examples/specs/v1_unknown_holder.json");
const V2: &str = include_str!("../../../examples/specs/v2_inverted_bounds.json");
const V3: &str = include_str!("../../../examples/specs/v3_oversubscribed.json");
const V4: &str = include_str!("../../../examples/specs/v4_mutual_cycle.json");
const V4_TANGLED: &str = include_str!("../../../examples/specs/v4_tangled_currencies.json");
const V5: &str = include_str!("../../../examples/specs/v5_stale_tree.json");
const V6: &str = include_str!("../../../examples/specs/v6_short_prices.json");
const V7: &str = include_str!("../../../examples/specs/v7_overload.json");
const V8: &str = include_str!("../../../examples/specs/v8_bad_link_rate.json");
const V9: &str = include_str!("../../../examples/specs/v9_unordered_timeline.json");
const V10: &str = include_str!("../../../examples/specs/v10_insolvent_renegotiation.json");

fn check(text: &str) -> Vec<Diagnostic> {
    check_text("spec.json", text).expect("fixture parses and decodes")
}

/// 1-based (line, col) of `token` on the first line containing `line_pat`.
fn pos_of(text: &str, line_pat: &str, token: &str) -> (u32, u32) {
    for (i, l) in text.lines().enumerate() {
        if l.contains(line_pat) {
            if let Some(c) = l.find(token) {
                return ((i + 1) as u32, (c + 1) as u32);
            }
        }
    }
    panic!("{line_pat:?} / {token:?} not found in fixture");
}

#[test]
fn valid_fixture_passes_clean() {
    assert_eq!(check(VALID), Vec::new());
}

#[test]
fn every_bad_fixture_fires_exactly_its_rule() {
    for (text, expected) in [
        (V1, "V1"),
        (V2, "V2"),
        (V3, "V3"),
        (V4, "V4"),
        (V4_TANGLED, "V4"),
        (V5, "V5"),
        (V6, "V6"),
        (V7, "V7"),
        (V8, "V8"),
        (V9, "V9"),
        (V10, "V10"),
    ] {
        let diags = check(text);
        assert!(!diags.is_empty(), "{expected} fixture must fire");
        for d in &diags {
            assert_eq!(d.rule.code(), expected, "unexpected rule in {expected} fixture: {d}");
            assert!(d.line > 0 && d.col > 0, "{expected} diagnostic must be positioned: {d}");
            assert_eq!(d.path, "spec.json");
        }
    }
}

#[test]
fn diagnostics_point_at_the_offending_token() {
    let cases = [
        // The unknown holder: the string value "Z".
        (V1, "\"holder\": \"Z\"", "\"Z\""),
        // The dead link: the zero rate itself.
        (V8, "\"rate_bytes_per_sec\": 0.0", "0.0"),
        // The out-of-order event: its `at` value.
        (V9, "\"at\": 3.0", "3.0"),
        // The insolvent renegotiation: the new lb.
        (V10, "\"lb\": 0.8", "0.8"),
        // The inverted bound: the lb number itself.
        (V2, "\"lb\": 0.9", "0.9"),
        // Oversubscription anchors at the last contributing lb.
        (V3, "\"lb\": 0.6", "0.6"),
        // A component's witness cycle anchors at its closing agreement.
        (V4_TANGLED, "\"issuer\": \"B\", \"holder\": \"A\"", "{"),
        // The staleness overrun anchors at the edge delay.
        (V5, "\"tree_edge_delay\"", "0.05"),
        // The short vector: the prices array.
        (V6, "\"prices\"", "[1.0]"),
        // Overload anchors at the principal's first client object.
        (V7, "\"principal\": \"A\"", "{"),
    ];
    for (text, line_pat, token) in cases {
        let (line, col) = pos_of(text, line_pat, token);
        let diags = check(text);
        let d = diags.first().expect("fixture fires");
        assert_eq!((d.line, d.col), (line, col), "misplaced diagnostic: {d}");
    }
}

#[test]
fn warning_rules_do_not_count_as_errors() {
    for warn in [V4, V4_TANGLED, V7] {
        let diags = check(warn);
        assert!(!diags.is_empty());
        assert!(!has_errors(&diags));
        assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    }
    for err in [V1, V2, V3, V5, V6] {
        assert!(has_errors(&check(err)));
    }
}

#[test]
fn cycle_report_carries_the_full_path() {
    let diags = check(V4);
    let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert!(
        messages.iter().any(|m| m.contains("A -> B -> A")),
        "cycle path missing: {messages:?}"
    );
    // A → B → C → A and A → B → A share one component: one finding, its
    // shortest cycle through A, naming the component's size.
    let diags = check(V4_TANGLED);
    let witness = "A -> B -> A, the shortest through A in a strongly connected component of 3 ";
    assert!(diags.len() == 1 && diags[0].message.contains(witness), "{diags:?}");
}

#[test]
fn scenario_rule_variants_fire() {
    use covenant_core::ScenarioSpec;
    use covenant_verify::verify_scenario;
    let fires = |text: &str, rule: VRule| {
        let sc = ScenarioSpec::from_json(text).expect("scenario parses");
        let findings = verify_scenario(&sc);
        assert!(findings.iter().any(|f| f.rule == rule), "{rule:?} must fire: {findings:?}");
    };
    // V8: link count vs the redirector tree.
    let short = V8.replace("\"rate_bytes_per_sec\": 0.0", "\"rate_bytes_per_sec\": 1.0e6")
        .replace("\"duration\": 2.0", "\"duration\": 2.0, \"redirector_tree\": [null, 0]");
    fires(&short, VRule::LinkSanity);
    // V9: an event scheduled past the end of the run never fires.
    let late = V9.replace("\"at\": 3.0", "\"at\": 30.0");
    fires(&late, VRule::TimelineOrder);
    // V10: renegotiating an agreement that does not exist.
    let missing = V10.replace("\"holder\": \"A\", \"lb\": 0.8", "\"holder\": \"S\", \"lb\": 0.8");
    fires(&missing, VRule::Renegotiation);
    // V10: renegotiated bounds outside [0, 1].
    let inverted = V10.replace(
        "\"lb\": 0.8, \"ub\": 1.0}",
        "\"lb\": 0.9, \"ub\": 0.5}",
    );
    fires(&inverted, VRule::Renegotiation);
    // A well-ordered, solvent scenario passes all three clean.
    let good = V10.replace("\"lb\": 0.8", "\"lb\": 0.6");
    let sc = ScenarioSpec::from_json(&good).unwrap();
    assert_eq!(verify_scenario(&sc), Vec::new());
    // The allow list suppresses scenario rules like any other.
    let allowed = V9.replace("\"duration\": 10.0", "\"duration\": 10.0, \"allow\": [\"V9\"]");
    let sc = ScenarioSpec::from_json(&allowed).unwrap();
    assert_eq!(verify_scenario(&sc), Vec::new());
}

#[test]
fn allow_field_suppresses_a_rule_per_spec() {
    let allowed = V4.replace("\"duration\": 1.0", "\"duration\": 1.0, \"allow\": [\"V4\"]");
    assert_eq!(check(&allowed), Vec::new());
    // Unknown codes in the allow list are themselves a V1 finding.
    let bogus = V4.replace("\"duration\": 1.0", "\"duration\": 1.0, \"allow\": [\"V99\"]");
    let diags = check(&bogus);
    assert!(diags.iter().any(|d| d.rule == VRule::References), "{diags:?}");
}

#[test]
fn inline_triggers_for_structural_variants() {
    // Duplicate principal names (V1), self-agreement and duplicate pair
    // (V2), two roots / out-of-range parent / parent cycle (V5).
    let dup_name = r#"{
        "principals": [{"name": "S", "capacity": 1.0}, {"name": "S"}],
        "agreements": [], "clients": [], "duration": 1.0
    }"#;
    assert!(check(dup_name).iter().any(|d| d.rule == VRule::References));

    let self_deal = r#"{
        "principals": [{"name": "S", "capacity": 1.0}],
        "agreements": [{"issuer": "S", "holder": "S", "lb": 0.1, "ub": 0.2}],
        "clients": [], "duration": 1.0
    }"#;
    assert!(check(self_deal).iter().any(|d| d.rule == VRule::Agreements));

    let dup_pair = r#"{
        "principals": [{"name": "S", "capacity": 1.0}, {"name": "A"}],
        "agreements": [
            {"issuer": "S", "holder": "A", "lb": 0.1, "ub": 0.2},
            {"issuer": "S", "holder": "A", "lb": 0.2, "ub": 0.3}
        ],
        "clients": [], "duration": 1.0
    }"#;
    assert!(check(dup_pair).iter().any(|d| d.rule == VRule::Agreements));

    for tree in ["[null, null]", "[null, 9]", "[null, 2, 1]"] {
        let bad_tree = format!(
            r#"{{
                "principals": [{{"name": "S", "capacity": 1.0}}],
                "agreements": [], "clients": [], "duration": 1.0,
                "redirector_tree": {tree}
            }}"#
        );
        let diags = check(&bad_tree);
        assert!(
            diags.iter().any(|d| d.rule == VRule::Timing),
            "tree {tree} must fire V5: {diags:?}"
        );
    }
}

#[test]
fn unbacked_issuer_fires_and_backed_reseller_does_not() {
    // A zero-capacity issuer guaranteeing lb > 0 with no in-flow: V3.
    let unbacked = r#"{
        "principals": [{"name": "ghost"}, {"name": "A", "capacity": 10.0}],
        "agreements": [{"issuer": "ghost", "holder": "A", "lb": 0.5, "ub": 1.0}],
        "clients": [], "duration": 1.0
    }"#;
    let diags = check(unbacked);
    assert!(diags.iter().any(|d| d.rule == VRule::Solvency), "{diags:?}");
    // The valid fixture's `resale` principal is the non-trigger: zero
    // capacity, but transitively backed by S via lb 0.3 — no finding
    // (checked by valid_fixture_passes_clean).
}

#[test]
fn struct_level_findings_resolve_without_source() {
    // Specs built in Rust never had JSON positions; findings still carry
    // the JSON path in the message and line 0 / col 0.
    let mut spec = DeploymentSpec::from_json(VALID).expect("valid decodes");
    spec.principals[0].capacity = f64::NAN;
    let findings = verify_spec(&spec);
    assert!(!findings.is_empty());
    let diags = resolve(&findings, None, "inline");
    let d = diags.first().expect("finding");
    assert_eq!((d.line, d.col), (0, 0));
    assert!(d.message.contains("principals[0].capacity"), "{d}");
}

#[test]
fn finding_paths_render_json_style() {
    let spec = DeploymentSpec::from_json(V3).expect("decodes");
    let findings = verify_spec(&spec);
    let paths: Vec<String> = findings.iter().map(|f| f.path()).collect();
    assert!(paths.iter().any(|p| p == "agreements[1].lb"), "{paths:?}");
}

#[test]
fn check_rejects_deep_nesting_at_its_position() {
    // `covenant check` on 30 000 nested arrays used to overflow the stack;
    // the decoder now stops at the first level past its depth limit.
    let text = format!("{}{}", "[".repeat(30_000), "]".repeat(30_000));
    let err = check_text("deep.json", &text).expect_err("nesting past the limit is an error");
    let limit = covenant_core::json::MAX_DEPTH;
    assert!(err.to_string().contains(&format!("line 1 column {}", limit + 1)), "{err}");
}

const FIG6: &str = include_str!("../../../examples/scenarios/fig6.json");
const FIG7: &str = include_str!("../../../examples/scenarios/fig7.json");

/// `fig6.json`'s 50 ms self-redirect gap fits its 100 ms window; in a
/// 25 ms window each deferred request skips a window, so `check` warns
/// (V5) and still passes.
#[test]
fn a_retry_gap_past_the_window_warns() {
    assert_eq!(check(FIG6), Vec::new());
    let text = FIG6.replace(r#""duration": 90.0,"#, r#""duration": 90.0, "window_secs": 0.025,"#);
    assert_ne!(text, FIG6);
    let diags = check(&text);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!((d.rule, d.severity), (VRule::Timing, Severity::Warning), "{d}");
    assert!(d.message.contains("skip whole windows and leave credit idle"), "{d}");
    assert_eq!((d.line, d.col), pos_of(&text, "\"retry_delay\"", "0.05"), "{d}");
}

/// `fig7.json` with a 1e-12 s retry delay would re-present each deferred
/// request 10¹¹ times per window: `check` refuses it with the message
/// `sim` gives, instead of passing it.
#[test]
fn check_rejects_fig7_with_picosecond_retry_delay() {
    let text = FIG7.replace(r#""retry_delay": 0.05"#, r#""retry_delay": 1e-12"#);
    assert_ne!(text, FIG7);
    let err = check_text("fig7.json", &text).expect_err("a picosecond retry delay is an error");
    assert!(err.to_string().contains("queue_mode.retry_delay is 0.000000000001"), "{err}");
    check(FIG7);
}

/// `fig7.json` with a 1 ns window would run 3·10¹⁰ window ticks: `check`
/// refuses it with the message `sim` gives.
#[test]
fn check_rejects_fig7_with_nanosecond_window() {
    let text = FIG7.replace(r#""duration": 30.0,"#, r#""duration": 30.0, "window_secs": 1e-9,"#);
    assert_ne!(text, FIG7);
    let err = check_text("fig7.json", &text).expect_err("a nanosecond window is an error");
    assert!(err.to_string().contains("window_secs is 0.000000001"), "{err}");
}

/// Thirteen principals, each holding an agreement from every other one
/// (lb 0.05, so every issuer guarantees 0.6 in all, ub 0.1): one currency
/// cycle through everybody, 13·12 agreements, and more simple paths than
/// a walk over them could finish in minutes.
fn dense_spec(n: usize) -> String {
    let principals: Vec<String> =
        (0..n).map(|i| format!(r#"{{"name": "P{i}", "capacity": 100.0}}"#)).collect();
    let mut agreements = Vec::new();
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            agreements.push(format!(
                r#"{{"issuer": "P{i}", "holder": "P{j}", "lb": 0.05, "ub": 0.1}}"#
            ));
        }
    }
    format!(
        r#"{{"principals": [{}], "agreements": [{}], "redirector_tree": [null],
            "clients": [{{"principal": "P0", "redirector": 0, "phases": [[2.0, 50.0]]}}],
            "duration": 2.0, "allow": ["V4"]}}"#,
        principals.join(", "),
        agreements.join(", ")
    )
}

/// Runs `f` three times; returns its last result and the median wall
/// time in seconds, so one run slowed by a busy machine does not decide.
fn timed<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let mut out = None;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        out = Some(f());
        secs.push(t.elapsed().as_secs_f64());
    }
    secs.sort_by(f64::total_cmp);
    (out.expect("three runs"), secs[1])
}

#[test]
fn dense_thirteen_principal_graph_levels_and_check_in_well_under_a_second() {
    let text = dense_spec(13);
    let graph = DeploymentSpec::from_json(&text).unwrap().build_graph().unwrap();
    let (levels, levels_s) = timed(|| graph.access_levels());
    // Symmetric graph, equal capacities: every principal is entitled to
    // the same levels, and (simple paths only) no more than the pool.
    let id = covenant_agreements::PrincipalId;
    let (mc, oc) = (levels.mandatory(id(0)), levels.optional(id(0)));
    for i in 1..13 {
        assert!((levels.mandatory(id(i)) - mc).abs() <= 1e-12 * mc, "MC_{i} vs MC_0 {mc}");
        assert!((levels.optional(id(i)) - oc).abs() <= 1e-12 * oc, "OC_{i} vs OC_0 {oc}");
    }
    assert!(mc > 40.0 && 13.0 * mc <= 1300.0, "MC {mc}");
    levels.check_mandatory_feasible(1e-9).unwrap();

    let (diags, check_s) = timed(|| check(&text));
    assert!(!has_errors(&diags), "{diags:?}");
    assert!(levels_s < 1.0, "access_levels() took {levels_s:.3} s (median of 3)");
    assert!(check_s < 1.0, "check took {check_s:.3} s (median of 3)");

    // Without `allow`, the one component is one V4 finding.
    let mut spec = DeploymentSpec::from_json(&text).unwrap();
    spec.allow.clear();
    let cycles: Vec<Finding> =
        verify_spec(&spec).into_iter().filter(|f| f.rule == VRule::Cycles).collect();
    assert_eq!(cycles.len(), 1, "{cycles:?}");
    assert!(cycles[0].message.contains("component of 13 principals"), "{}", cycles[0]);
}

/// A random spec of up to nine principals, its agreements drawn as the
/// flow closure's oracle test draws its graphs: `density` is the chance of
/// each ordered pair getting one, from no agreements to a complete graph.
/// V4 reads only which agreements exist, so bounds and capacities are fixed.
fn spec_strategy() -> impl Strategy<Value = DeploymentSpec> {
    (2usize..10, 0.0..1.0f64).prop_flat_map(|(n, density)| {
        proptest::collection::vec(0.0..1.0f64, n * n).prop_map(move |coins| {
            let principals: Vec<String> =
                (0..n).map(|i| format!(r#"{{"name": "P{i}", "capacity": 10.0}}"#)).collect();
            let agreements: Vec<String> = (0..n * n)
                .filter(|&idx| idx / n != idx % n && coins[idx] < density)
                .map(|idx| {
                    let (i, j) = (idx / n, idx % n);
                    format!(r#"{{"issuer": "P{i}", "holder": "P{j}", "lb": 0.0, "ub": 0.1}}"#)
                })
                .collect();
            let text = format!(
                r#"{{"principals": [{}], "agreements": [{}], "clients": [], "duration": 1.0}}"#,
                principals.join(", "),
                agreements.join(", ")
            );
            DeploymentSpec::from_json(&text).expect("generated spec decodes")
        })
    })
}

/// The witness path a V4 message names, as principal indices.
fn witness(f: &Finding) -> Vec<usize> {
    let rest = f.message.strip_prefix("currency cycle: ").expect("V4 message");
    let path = rest[..rest.find([',', '—']).expect("the path ends")].trim();
    path.split(" -> ").map(|p| p[1..].parse().expect("a P<i> name")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// V4 reports each strongly connected component of two or more
    /// principals once — components taken from mutual reachability — with
    /// a real cycle of the spec's agreements from and to the component's
    /// lowest-index member, no longer than the component, pointed at by
    /// its closing agreement, and naming the component's size unless the
    /// component is that one cycle.
    #[test]
    fn one_witness_cycle_per_component(spec in spec_strategy()) {
        let n = spec.principals.len();
        let id = |name: &str| name[1..].parse::<usize>().unwrap();
        let mut reach: Vec<Vec<bool>> = (0..n).map(|i| (0..n).map(|j| i == j).collect()).collect();
        for a in &spec.agreements {
            reach[id(&a.issuer)][id(&a.holder)] = true;
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    reach[i][j] = reach[i][j] || (reach[i][k] && reach[k][j]);
                }
            }
        }
        let component =
            |r: usize| (0..n).filter(|&v| reach[r][v] && reach[v][r]).collect::<Vec<_>>();
        let roots: Vec<usize> =
            (0..n).filter(|&r| component(r).len() > 1 && component(r)[0] == r).collect();

        let cycles: Vec<Finding> =
            verify_spec(&spec).into_iter().filter(|f| f.rule == VRule::Cycles).collect();
        prop_assert_eq!(cycles.len(), roots.len(), "{:?}", cycles);
        for (f, &root) in cycles.iter().zip(&roots) {
            let path = witness(f);
            let members = component(root);
            prop_assert_eq!(path[0], root, "{}", f);
            prop_assert_eq!(path[path.len() - 1], root, "{}", f);
            prop_assert!(path.len() - 1 <= members.len(), "{}", f);
            let agreement = |h: &[usize]| {
                spec.agreements.iter().position(|a| id(&a.issuer) == h[0] && id(&a.holder) == h[1])
            };
            let hops: Option<Vec<usize>> = path.windows(2).map(agreement).collect();
            prop_assert!(hops.is_some(), "a hop of the witness is no agreement: {}", f);
            let closing = hops.unwrap().pop().unwrap();
            prop_assert_eq!(f.path(), format!("agreements[{closing}]"), "{}", f);
            // Only a component that is more than one cycle names its size.
            let inside = spec
                .agreements
                .iter()
                .filter(|a| members.contains(&id(&a.issuer)) && members.contains(&id(&a.holder)))
                .count();
            let size = format!("component of {} principals", members.len());
            prop_assert_eq!(f.message.contains(&size), inside > members.len(), "{}", f);
        }
    }
}
