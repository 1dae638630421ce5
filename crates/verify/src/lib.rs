//! `covenant-verify` — static agreement-contract verifier.
//!
//! The enforcement machinery silently assumes the agreement set it is
//! handed is *sane*: guarantees don't oversubscribe capacity, currency
//! actually backs issued tickets, and tree staleness stays within one
//! window. This crate checks those contracts statically, before anything
//! runs, against the declarative [`DeploymentSpec`] — with the same
//! `file:line:col` diagnostic quality `covenant-lint` gives Rust source.
//!
//! Rules, in check order:
//!
//! - **V1 `references`** — every agreement issuer/holder and client
//!   principal names a declared principal, client redirector indices fit
//!   the tree, principal names are unique, and `allow` entries name real
//!   rules.
//! - **V2 `agreements`** — `0 ≤ lb ≤ ub ≤ 1`, issuer ≠ holder, no
//!   duplicate issuer/holder pairs, and no NaN/negative numerics (the
//!   JSON decoder rejects those too; this covers specs built in Rust).
//! - **V3 `solvency`** — Σ lb over an issuer's direct agreements stays
//!   within 1, and every issuer's currency has real backing: its own
//!   capacity or transitive flow along the agreement graph, computed with
//!   the same simple-path closure the scheduler uses (paper Formulae 1–2).
//! - **V4 `cycles`** (warning) — currency cycles are legal (the flow
//!   closure follows simple paths only) but are surfaced, because value
//!   around a cycle is easy to misread: one witness cycle per strongly
//!   connected component of the agreement graph, naming the component's
//!   size when it holds more than that one cycle.
//! - **V5 `timing`** — the redirector tree is well-formed (one root,
//!   parents in range, no parent cycles) and worst-case coordination
//!   staleness `2 × depth × tree_edge_delay + extra_tree_lag` fits within
//!   one scheduling window — the one-window-staleness assumption the
//!   sim/live differential proves. Deployments that deliberately model
//!   WAN lag (the paper's Figure 8 regime) can opt out per spec with
//!   `"allow": ["V5"]`. A credit-retry gap `retry_delay + 2 ×
//!   net.hop_latency` longer than the window is a warning: deferred
//!   requests skip whole windows and leave credit idle.
//! - **V6 `policy-shape`** — `caps`/`prices` vectors are exactly one
//!   entry per principal, all finite and non-negative.
//! - **V7 `load`** (warning) — worst-case offered client demand per
//!   principal (max over phases, summed across its clients) fits the
//!   principal's entitled mandatory + optional share; excess is legal but
//!   will be deferred or dropped.
//! - **V8 `link-sanity`** — a scenario's `net` section declares exactly
//!   one link per redirector, every rate is finite and positive, and the
//!   byte scale and hop latency are sane.
//! - **V9 `timeline-order`** — scenario timeline events are sorted by
//!   time (non-decreasing `at`) and none is scheduled past the run's
//!   duration (it would never fire).
//! - **V10 `renegotiation`** — every `renegotiate` timeline event targets
//!   a declared agreement, and replaying the renegotiations in order
//!   leaves an agreement set that still passes the V2 bounds and V3
//!   direct-solvency contracts.
//!
//! Suppress a rule for one spec by listing its code in the spec's
//! `"allow"` field. Findings are structural ([`Finding`], a JSON path
//! into the spec); [`check_text`] resolves them against the positioned
//! parse of the source text into [`Diagnostic`]s that print
//! `spec.json:12:7: error[V3] …`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rules;

pub use covenant_lint::{to_json, Diag, RuleMeta, Severity};

use covenant_core::json::{Spanned, Value};
use covenant_core::scenario::ScenarioSpec;
use covenant_core::spec::DeploymentSpec;
use covenant_core::SpecError;
use std::fmt;

/// The verifier rules, in check order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum VRule {
    /// V1: dangling references (principals, redirectors, rule codes).
    References,
    /// V2: agreement sanity (bounds, self-deals, duplicates, numerics).
    Agreements,
    /// V3: issuer solvency (direct guarantees and currency backing).
    Solvency,
    /// V4: currency cycles (legal; one witness per strongly connected component).
    Cycles,
    /// V5: timing sanity (tree shape, staleness and retry gap vs the window).
    Timing,
    /// V6: policy vector shape.
    PolicyShape,
    /// V7: worst-case client load vs entitled share.
    Load,
    /// V8: scenario link sanity (count vs tree, positive finite rates).
    LinkSanity,
    /// V9: scenario timeline ordering (events non-decreasing in time,
    /// within the run).
    TimelineOrder,
    /// V10: renegotiated agreements re-pass the V2/V3 contracts.
    Renegotiation,
}

impl VRule {
    /// All rules.
    pub const ALL: [VRule; 10] = [
        VRule::References,
        VRule::Agreements,
        VRule::Solvency,
        VRule::Cycles,
        VRule::Timing,
        VRule::PolicyShape,
        VRule::Load,
        VRule::LinkSanity,
        VRule::TimelineOrder,
        VRule::Renegotiation,
    ];
}

impl RuleMeta for VRule {
    fn code(self) -> &'static str {
        match self {
            VRule::References => "V1",
            VRule::Agreements => "V2",
            VRule::Solvency => "V3",
            VRule::Cycles => "V4",
            VRule::Timing => "V5",
            VRule::PolicyShape => "V6",
            VRule::Load => "V7",
            VRule::LinkSanity => "V8",
            VRule::TimelineOrder => "V9",
            VRule::Renegotiation => "V10",
        }
    }

    fn severity(self) -> Severity {
        match self {
            // Cycles are legal and overload degrades gracefully; everything
            // else breaks a contract the enforcement machinery assumes.
            VRule::Cycles | VRule::Load => Severity::Warning,
            _ => Severity::Error,
        }
    }

    fn registry() -> &'static [Self] {
        &VRule::ALL
    }

    fn describe(self) -> &'static str {
        match self {
            VRule::References => "references to unknown principals, redirectors, or rule codes",
            VRule::Agreements => "agreement sanity: bounds order and range, self-deals, duplicates",
            VRule::Solvency => "issuer solvency: direct guarantees and transitive currency backing",
            VRule::Cycles => "currency cycles (legal; one witness per strongly connected component)",
            VRule::Timing => "timing sanity: tree shape, staleness and retry gap vs the window",
            VRule::PolicyShape => "policy caps/prices vector shape vs the principal list",
            VRule::Load => "worst-case client demand vs entitled mandatory+optional share",
            VRule::LinkSanity => "scenario link sanity: one positive finite rate per redirector",
            VRule::TimelineOrder => "scenario timeline ordering: events sorted by time, within the run",
            VRule::Renegotiation => "renegotiated agreements re-pass bounds and solvency (V2/V3)",
        }
    }
}

impl fmt::Display for VRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One step of a JSON path from the spec document root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// An object key.
    Key(&'static str),
    /// An array index.
    Index(usize),
}

/// A structural finding: a rule, its severity (the rule's default unless
/// the finding is milder) and the JSON path to the offending value.
///
/// Findings are produced against the decoded [`DeploymentSpec`] (which may
/// never have been JSON at all — `Cluster::launch` verifies Rust-built
/// specs too); [`resolve`] turns them into positioned [`Diagnostic`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: VRule,
    /// The finding's severity.
    pub severity: Severity,
    /// Path from the document root to the offending value.
    pub at: Vec<Step>,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// The JSON path rendered `agreements[2].lb` style (`spec` for the
    /// document root).
    pub fn path(&self) -> String {
        if self.at.is_empty() {
            return "spec".to_string();
        }
        let mut out = String::new();
        for step in &self.at {
            match step {
                Step::Key(k) => {
                    if !out.is_empty() {
                        out.push('.');
                    }
                    out.push_str(k);
                }
                Step::Index(i) => {
                    out.push('[');
                    out.push_str(&i.to_string());
                    out.push(']');
                }
            }
        }
        out
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}[{}] {}", self.path(), self.severity, self.rule, self.message)
    }
}

/// A positioned verifier diagnostic (shared [`Diag`] shape with
/// `covenant-lint`, so `--json`, `--deny`, and Display all match).
pub type Diagnostic = Diag<VRule>;

/// Statically verifies a decoded spec. Findings for rules listed in the
/// spec's `allow` field are suppressed; everything else is returned in
/// check order (V1 first).
pub fn verify_spec(spec: &DeploymentSpec) -> Vec<Finding> {
    rules::run(spec)
}

/// Statically verifies a scenario: the embedded deployment's rules
/// (V1–V7) plus the scenario rules (V8 link sanity, V9 timeline order,
/// V10 renegotiation contracts). The deployment's `allow` list suppresses
/// scenario rules too.
pub fn verify_scenario(spec: &ScenarioSpec) -> Vec<Finding> {
    rules::run_scenario(spec)
}

/// Positions structural findings against the spanned parse of the source
/// text. Without a source (`None` — the spec was built in Rust), the
/// diagnostics carry line 0 / col 0 and lean on the JSON path embedded in
/// the message.
pub fn resolve(findings: &[Finding], source: Option<&Spanned>, label: &str) -> Vec<Diagnostic> {
    findings
        .iter()
        .map(|f| {
            let (line, col) = source.map_or((0, 0), |s| locate(s, &f.at));
            let message = format!("{}: {}", f.path(), f.message);
            let d = Diagnostic::new(f.rule, label.to_string(), line, col, message);
            Diagnostic { severity: f.severity, ..d }
        })
        .collect()
}

/// Walks `steps` into the positioned tree, returning the position of the
/// deepest value that exists (defaulted fields have no source text — the
/// nearest existing ancestor is the best anchor).
fn locate(root: &Spanned, steps: &[Step]) -> (u32, u32) {
    let mut at = root;
    for step in steps {
        let next = match step {
            Step::Key(k) => at.get(k),
            Step::Index(i) => at.item(*i),
        };
        match next {
            Some(n) => at = n,
            None => break,
        }
    }
    at.pos()
}

/// The full `covenant check` pipeline: positioned parse, scenario decode
/// (plain deployment specs are scenarios with no extras), the time-scale
/// check `build_sim` makes, verification of all rules V1–V10, and position
/// resolution. `label` is the path printed in diagnostics. Parse, decode
/// and time-scale failures are load-time errors and surface as `Err`.
pub fn check_text(label: &str, text: &str) -> Result<Vec<Diagnostic>, SpecError> {
    let source = Spanned::parse(text).map_err(SpecError::Json)?;
    check_value(label, &source, &source.clone().into_value())
}

/// [`check_text`] after the parse: decodes `doc`, checks it, and positions
/// the findings in `source`. `doc` is `source` without its positions, or a
/// copy of it with one key set (a `covenant sim --sweep` point), whose
/// findings then point at the key's place in the file.
pub fn check_value(
    label: &str,
    source: &Spanned,
    doc: &Value,
) -> Result<Vec<Diagnostic>, SpecError> {
    let spec = ScenarioSpec::from_value(doc)?;
    spec.check_time_scales()?;
    let findings = verify_scenario(&spec);
    Ok(resolve(&findings, Some(source), label))
}

/// Whether any diagnostic carries error severity (the launch-refusal
/// predicate).
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}
