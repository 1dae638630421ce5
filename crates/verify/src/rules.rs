//! The V1–V7 rule implementations.
//!
//! Every rule walks the decoded [`DeploymentSpec`] and reports structural
//! [`Finding`]s addressed by JSON path; position resolution happens later
//! against the spanned parse. Rules that need the agreement graph (V3's
//! backing walk, V4, V7) only run when the graph builds — the structural
//! rules ahead of them cover every reason it could not.

use crate::{Finding, RuleMeta, Severity, Step, VRule};
use covenant_agreements::{AccessLevels, FlowMatrices, PrincipalId};
use covenant_core::scenario::{ScenarioSpec, TimelineEvent};
use covenant_core::spec::{DeploymentSpec, PolicySpec, QueueModeSpec};
use Step::{Index, Key};

/// Slack for floating-point sums of fractions.
const TOL: f64 = 1e-9;

pub(crate) fn run(spec: &DeploymentSpec) -> Vec<Finding> {
    let mut out = run_unfiltered(spec, 0.0);
    filter_allowed(spec, &mut out);
    out
}

pub(crate) fn run_scenario(sc: &ScenarioSpec) -> Vec<Finding> {
    let hop_latency = sc.net.as_ref().map_or(0.0, |n| n.hop_latency);
    let mut out = run_unfiltered(&sc.deployment, hop_latency);
    link_sanity(sc, &mut out);
    timeline_order(sc, &mut out);
    renegotiation(sc, &mut out);
    filter_allowed(&sc.deployment, &mut out);
    out
}

/// The deployment rules; `hop_latency` is the scenario's (0 without `net`).
fn run_unfiltered(spec: &DeploymentSpec, hop_latency: f64) -> Vec<Finding> {
    let mut out = Vec::new();
    references(spec, &mut out);
    agreement_sanity(spec, &mut out);
    scalar_sanity(spec, &mut out);
    solvency_direct(spec, &mut out);
    tree_and_timing(spec, hop_latency, &mut out);
    policy_shape(spec, &mut out);
    if let Ok(graph) = spec.build_graph() {
        let flows = graph.flows();
        solvency_backing(spec, &flows, &graph.capacities(), &mut out);
        cycles(spec, flows.components(), &mut out);
        load(spec, &AccessLevels::from_flows(&graph, &flows), &mut out);
    }
    out
}

fn filter_allowed(spec: &DeploymentSpec, out: &mut Vec<Finding>) {
    let allowed =
        |code: &str| spec.allow.iter().any(|a| a.trim().eq_ignore_ascii_case(code));
    out.retain(|f| !allowed(f.rule.code()));
}

fn push(out: &mut Vec<Finding>, rule: VRule, at: Vec<Step>, message: String) {
    out.push(Finding { rule, severity: rule.severity(), at, message });
}

fn finite_nonneg(x: f64) -> bool {
    x.is_finite() && x >= 0.0
}

/// V1 — reference integrity: unique principal names; agreement and client
/// principal references resolve; client redirector indices fit the tree;
/// `allow` entries name real rules.
fn references(spec: &DeploymentSpec, out: &mut Vec<Finding>) {
    let known = |name: &str| spec.principals.iter().any(|p| p.name == name);
    for (i, p) in spec.principals.iter().enumerate() {
        if spec.principals.iter().take(i).any(|q| q.name == p.name) {
            push(
                out,
                VRule::References,
                vec![Key("principals"), Index(i), Key("name")],
                format!("duplicate principal name '{}'", p.name),
            );
        }
    }
    for (i, a) in spec.agreements.iter().enumerate() {
        for (role, name) in [("issuer", a.issuer.as_str()), ("holder", a.holder.as_str())] {
            if !known(name) {
                push(
                    out,
                    VRule::References,
                    vec![Key("agreements"), Index(i), Key(role)],
                    format!("{role} '{name}' is not a declared principal"),
                );
            }
        }
    }
    let n_redirectors = spec.redirector_tree.len();
    for (i, c) in spec.clients.iter().enumerate() {
        if !known(&c.principal) {
            push(
                out,
                VRule::References,
                vec![Key("clients"), Index(i), Key("principal")],
                format!("client principal '{}' is not a declared principal", c.principal),
            );
        }
        if c.redirector >= n_redirectors {
            push(
                out,
                VRule::References,
                vec![Key("clients"), Index(i), Key("redirector")],
                format!(
                    "redirector index {} out of range for a {n_redirectors}-node tree",
                    c.redirector
                ),
            );
        }
    }
    for (i, code) in spec.allow.iter().enumerate() {
        if VRule::from_code(code).is_none() {
            push(
                out,
                VRule::References,
                vec![Key("allow"), Index(i)],
                format!("unknown rule code '{code}' in allow list (rules are V1..V10)"),
            );
        }
    }
}

/// V2 — agreement sanity: bounds within `[0, 1]` and ordered, no
/// self-agreements, no duplicate issuer/holder pairs.
fn agreement_sanity(spec: &DeploymentSpec, out: &mut Vec<Finding>) {
    for (i, a) in spec.agreements.iter().enumerate() {
        if a.issuer == a.holder {
            push(
                out,
                VRule::Agreements,
                vec![Key("agreements"), Index(i)],
                format!("'{}' cannot issue an agreement to itself", a.issuer),
            );
        }
        let mut bounds_ok = true;
        for (key, x) in [("lb", a.lb), ("ub", a.ub)] {
            if !(x.is_finite() && (0.0..=1.0).contains(&x)) {
                push(
                    out,
                    VRule::Agreements,
                    vec![Key("agreements"), Index(i), Key(key)],
                    format!("{key} must be a fraction within [0, 1], got {x}"),
                );
                bounds_ok = false;
            }
        }
        if bounds_ok && a.lb > a.ub {
            push(
                out,
                VRule::Agreements,
                vec![Key("agreements"), Index(i), Key("lb")],
                format!(
                    "lb {} exceeds ub {}: the guarantee is larger than the best-effort cap",
                    a.lb, a.ub
                ),
            );
        }
        if let Some(j) = spec
            .agreements
            .iter()
            .take(i)
            .position(|b| b.issuer == a.issuer && b.holder == a.holder)
        {
            push(
                out,
                VRule::Agreements,
                vec![Key("agreements"), Index(i)],
                format!(
                    "duplicate agreement {} -> {} (first declared at agreements[{j}])",
                    a.issuer, a.holder
                ),
            );
        }
    }
}

/// V2 — scalar sanity for specs that never went through the JSON decoder
/// (`Cluster::launch` verifies Rust-built specs too): capacities,
/// duration, and phase pairs must be finite and non-negative.
fn scalar_sanity(spec: &DeploymentSpec, out: &mut Vec<Finding>) {
    for (i, p) in spec.principals.iter().enumerate() {
        if !finite_nonneg(p.capacity) {
            push(
                out,
                VRule::Agreements,
                vec![Key("principals"), Index(i), Key("capacity")],
                format!("capacity must be a finite, non-negative rate, got {}", p.capacity),
            );
        }
    }
    if !finite_nonneg(spec.duration) {
        push(
            out,
            VRule::Agreements,
            vec![Key("duration")],
            format!("duration must be a finite, non-negative number of seconds, got {}", spec.duration),
        );
    }
    for (ci, c) in spec.clients.iter().enumerate() {
        for (pi, &(d, r)) in c.phases.iter().enumerate() {
            if !finite_nonneg(d) || !finite_nonneg(r) {
                push(
                    out,
                    VRule::Agreements,
                    vec![Key("clients"), Index(ci), Key("phases"), Index(pi)],
                    format!("phase [duration, rate] must be finite and non-negative, got [{d}, {r}]"),
                );
            }
        }
    }
}

/// V3, direct half — an issuer's guaranteed fractions must fit within its
/// whole capacity: Σ lb over its direct agreements ≤ 1.
fn solvency_direct(spec: &DeploymentSpec, out: &mut Vec<Finding>) {
    for p in &spec.principals {
        let mut sum = 0.0;
        let mut last = None;
        for (i, a) in spec.agreements.iter().enumerate() {
            if a.issuer == p.name && a.lb.is_finite() && a.lb > 0.0 {
                sum += a.lb;
                last = Some(i);
            }
        }
        if sum > 1.0 + TOL {
            if let Some(i) = last {
                push(
                    out,
                    VRule::Solvency,
                    vec![Key("agreements"), Index(i), Key("lb")],
                    format!(
                        "issuer '{}' guarantees sum(lb) = {sum:.3} across its direct \
                         agreements; guarantees may not exceed its whole capacity (1.0)",
                        p.name
                    ),
                );
            }
        }
    }
}

/// V3, backing half — every issuer's currency needs real value behind it:
/// own capacity or transitive in-flow along the agreement graph, via the
/// same simple-path closure the scheduler uses. Mandatory (`lb > 0`)
/// tickets specifically need *mandatory* backing.
fn solvency_backing(
    spec: &DeploymentSpec,
    flows: &FlowMatrices,
    v: &[f64],
    out: &mut Vec<Finding>,
) {
    let inflows = flows.inflows(v);
    for (pi, p) in spec.principals.iter().enumerate() {
        let Some(first) = spec.agreements.iter().position(|a| a.issuer == p.name) else {
            continue;
        };
        let (mandatory_value, optional_in) = inflows[pi];
        let issues_mandatory =
            spec.agreements.iter().any(|a| a.issuer == p.name && a.lb > 0.0);
        let at = vec![Key("agreements"), Index(first), Key("issuer")];
        if issues_mandatory && mandatory_value <= TOL {
            push(
                out,
                VRule::Solvency,
                at,
                format!(
                    "issuer '{}' has no capacity and no transitive mandatory currency \
                     backing: its guaranteed (lb > 0) tickets are unbacked",
                    p.name
                ),
            );
        } else if mandatory_value + optional_in <= TOL {
            push(
                out,
                VRule::Solvency,
                at,
                format!(
                    "issuer '{}' has no capacity and no currency backing along any \
                     agreement path: its tickets are worthless",
                    p.name
                ),
            );
        }
    }
}

/// V5 — the redirector tree must be well-formed, and worst-case
/// coordination staleness must fit within one scheduling window. A
/// self-redirect's retry gap past the window is a warning: the retry
/// lands whole windows later, and its credit idles meanwhile.
fn tree_and_timing(spec: &DeploymentSpec, hop_latency: f64, out: &mut Vec<Finding>) {
    let tree = &spec.redirector_tree;
    let n = tree.len();
    if n == 0 {
        push(
            out,
            VRule::Timing,
            vec![Key("redirector_tree")],
            "redirector_tree must have at least one node".to_string(),
        );
        return;
    }
    let roots: Vec<usize> =
        (0..n).filter(|&i| tree.get(i).is_some_and(Option::is_none)).collect();
    let mut shape_ok = true;
    if roots.len() != 1 {
        push(
            out,
            VRule::Timing,
            vec![Key("redirector_tree")],
            format!(
                "redirector_tree must have exactly one root (null parent), found {}",
                roots.len()
            ),
        );
        shape_ok = false;
    }
    for (i, parent) in tree.iter().enumerate() {
        let Some(p) = parent else { continue };
        if *p >= n {
            push(
                out,
                VRule::Timing,
                vec![Key("redirector_tree"), Index(i)],
                format!("parent index {p} out of range for a {n}-node tree"),
            );
            shape_ok = false;
        } else if *p == i {
            push(
                out,
                VRule::Timing,
                vec![Key("redirector_tree"), Index(i)],
                format!("node {i} is its own parent"),
            );
            shape_ok = false;
        }
    }

    let mut depth = vec![usize::MAX; n];
    if shape_ok {
        // Parents are in range and there is exactly one root: any node the
        // BFS cannot reach sits on a parent cycle.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, parent) in tree.iter().enumerate() {
            if let Some(p) = parent {
                children[*p].push(i);
            }
        }
        let mut queue: Vec<usize> = roots.clone();
        for &r in &roots {
            depth[r] = 0;
        }
        let mut head = 0;
        while let Some(&node) = queue.get(head) {
            head += 1;
            for &c in &children[node] {
                if depth[c] == usize::MAX {
                    depth[c] = depth[node] + 1;
                    queue.push(c);
                }
            }
        }
        for (i, d) in depth.iter().enumerate() {
            if *d == usize::MAX {
                push(
                    out,
                    VRule::Timing,
                    vec![Key("redirector_tree"), Index(i)],
                    format!("node {i} is unreachable from the root: its parent chain forms a cycle"),
                );
                shape_ok = false;
            }
        }
    }

    for (key, x) in
        [("tree_edge_delay", spec.tree_edge_delay), ("extra_tree_lag", spec.extra_tree_lag)]
    {
        if !finite_nonneg(x) {
            push(
                out,
                VRule::Timing,
                vec![Key(key)],
                format!("{key} must be a finite, non-negative number of seconds, got {x}"),
            );
            shape_ok = false;
        }
    }
    if !(spec.window_secs.is_finite() && spec.window_secs > 0.0) {
        push(
            out,
            VRule::Timing,
            vec![Key("window_secs")],
            format!("window_secs must be a positive number of seconds, got {}", spec.window_secs),
        );
        return;
    }
    if shape_ok {
        let max_depth = depth.iter().copied().filter(|&d| d != usize::MAX).max().unwrap_or(0);
        let staleness =
            2.0 * max_depth as f64 * spec.tree_edge_delay + spec.extra_tree_lag;
        if staleness > spec.window_secs + TOL {
            push(
                out,
                VRule::Timing,
                vec![Key("tree_edge_delay")],
                format!(
                    "worst-case coordination staleness {staleness:.3}s (2 x depth {max_depth} \
                     x {}s edge delay + {}s extra lag) exceeds the {}s scheduling window: the \
                     one-window-staleness contract cannot hold (allow V5 to model WAN lag \
                     deliberately)",
                    spec.tree_edge_delay, spec.extra_tree_lag, spec.window_secs
                ),
            );
        }
    }
    if let QueueModeSpec::CreditRetry { retry_delay } = spec.queue_mode {
        let gap = retry_delay + 2.0 * hop_latency;
        if gap > spec.window_secs + TOL {
            out.push(Finding {
                rule: VRule::Timing,
                severity: Severity::Warning,
                at: vec![Key("queue_mode"), Key("retry_delay")],
                message: format!(
                    "a self-redirected request retries {gap:.3}s later (retry_delay \
                     {retry_delay}s + 2 x {hop_latency}s hop latency), past the {}s scheduling \
                     window: deferred requests skip whole windows and leave credit idle",
                    spec.window_secs
                ),
            });
        }
    }
}

/// V6 — locality caps and provider prices are per-principal vectors: the
/// length must match the principal list exactly, entries finite and
/// non-negative.
fn policy_shape(spec: &DeploymentSpec, out: &mut Vec<Finding>) {
    let n = spec.principals.len();
    let (key, xs) = match &spec.policy {
        PolicySpec::Community => return,
        PolicySpec::CommunityWithLocality { caps } => ("caps", caps),
        PolicySpec::Provider { prices } => ("prices", prices),
    };
    if xs.len() != n {
        push(
            out,
            VRule::PolicyShape,
            vec![Key("policy"), Key(key)],
            format!(
                "policy {key} has {} entries for {n} principals; one entry per principal, \
                 in declaration order",
                xs.len()
            ),
        );
    }
    for (j, x) in xs.iter().enumerate() {
        if !finite_nonneg(*x) {
            push(
                out,
                VRule::PolicyShape,
                vec![Key("policy"), Key(key), Index(j)],
                format!("policy {key} entries must be finite, non-negative numbers, got {x}"),
            );
        }
    }
}

/// V4 — one finding per strongly connected component of two or more
/// principals (`component`, the flow closure's decomposition): the
/// shortest cycle through its lowest-index member, found breadth first
/// over the agreements that stay inside it, in agreement order, and
/// pointed at by its closing agreement. Every currency cycle lies in
/// exactly one component, so the report is complete, and the searches
/// read each agreement at most once.
fn cycles(spec: &DeploymentSpec, component: &[usize], out: &mut Vec<Finding>) {
    const NONE: usize = usize::MAX;
    let n = component.len();
    let index = |name: &str| spec.principals.iter().position(|p| p.name == name);
    let name = |i: usize| spec.principals[i].name.as_str();
    // `adj[i]` lists `(holder, agreement index)` for `i`'s agreements that
    // stay in its component.
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (ai, a) in spec.agreements.iter().enumerate() {
        if let (Some(i), Some(j)) = (index(&a.issuer), index(&a.holder)) {
            if component[i] == component[j] {
                adj[i].push((j, ai));
            }
        }
    }
    // `before[v]`: the principal a search reached `v` from. A search
    // reaches all of its component and nothing else, so the first
    // principal no search has reached is its component's lowest-index one.
    let mut before = vec![NONE; n];
    let mut queue = Vec::new();
    for root in 0..n {
        if before[root] != NONE {
            continue;
        }
        before[root] = root;
        queue.clear();
        queue.push(root);
        let (mut head, mut closing) = (0, None);
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &(v, ai) in &adj[u] {
                if v == root {
                    closing = closing.or(Some((u, ai)));
                } else if before[v] == NONE {
                    before[v] = u;
                    queue.push(v);
                }
            }
        }
        // A lone principal has no agreement inside its component.
        let Some((last, ai)) = closing else { continue };
        let back = std::iter::successors(Some(last), |&at| (at != root).then(|| before[at]));
        let mut names: Vec<&str> = back.map(name).collect();
        names.reverse();
        names.push(name(root));
        // A component with as many agreements inside as members is one
        // simple cycle, and the witness is all of it.
        let inside: usize = queue.iter().map(|&u| adj[u].len()).sum();
        let extent = if inside == queue.len() {
            String::new()
        } else {
            format!(
                ", the shortest through {} in a strongly connected component of {} principals",
                name(root),
                queue.len()
            )
        };
        push(
            out,
            VRule::Cycles,
            vec![Key("agreements"), Index(ai)],
            format!(
                "currency cycle: {}{extent} — legal (transitive flows follow simple paths only, \
                 so value does not amplify around the loop), but worth knowing about",
                names.join(" -> ")
            ),
        );
    }
}

/// V8 — scenario link sanity: one link per redirector, every rate finite
/// and positive, byte scale positive, hop latency finite and non-negative.
fn link_sanity(sc: &ScenarioSpec, out: &mut Vec<Finding>) {
    let Some(net) = &sc.net else { return };
    let n = sc.deployment.redirector_tree.len();
    if net.links.len() != n {
        push(
            out,
            VRule::LinkSanity,
            vec![Key("net"), Key("links")],
            format!(
                "net declares {} links for a {n}-redirector tree; one link per redirector",
                net.links.len()
            ),
        );
    }
    for (i, l) in net.links.iter().enumerate() {
        if !(l.rate_bytes_per_sec.is_finite() && l.rate_bytes_per_sec > 0.0) {
            push(
                out,
                VRule::LinkSanity,
                vec![Key("net"), Key("links"), Index(i), Key("rate_bytes_per_sec")],
                format!(
                    "link rate must be a finite, positive number of bytes/second, got {}",
                    l.rate_bytes_per_sec
                ),
            );
        }
    }
    if !(net.unit_bytes.is_finite() && net.unit_bytes > 0.0) {
        push(
            out,
            VRule::LinkSanity,
            vec![Key("net"), Key("unit_bytes")],
            format!("unit_bytes must be a finite, positive byte count, got {}", net.unit_bytes),
        );
    }
    if !finite_nonneg(net.hop_latency) {
        push(
            out,
            VRule::LinkSanity,
            vec![Key("net"), Key("hop_latency")],
            format!(
                "hop_latency must be a finite, non-negative number of seconds, got {}",
                net.hop_latency
            ),
        );
    }
}

/// V9 — scenario timeline ordering: events sorted by `at` (non-decreasing)
/// and none scheduled past the run's duration.
fn timeline_order(sc: &ScenarioSpec, out: &mut Vec<Finding>) {
    for (i, ev) in sc.timeline.iter().enumerate() {
        if i > 0 {
            let prev = sc.timeline[i - 1].at();
            if ev.at() < prev {
                push(
                    out,
                    VRule::TimelineOrder,
                    vec![Key("timeline"), Index(i), Key("at")],
                    format!(
                        "timeline must be sorted by time: event {i} ({}) at {}s precedes \
                         event {} at {prev}s",
                        ev.kind(),
                        ev.at(),
                        i - 1
                    ),
                );
            }
        }
        if ev.at() > sc.deployment.duration {
            push(
                out,
                VRule::TimelineOrder,
                vec![Key("timeline"), Index(i), Key("at")],
                format!(
                    "event {i} ({}) is scheduled at {}s but the run ends at {}s: it never fires",
                    ev.kind(),
                    ev.at(),
                    sc.deployment.duration
                ),
            );
        }
    }
}

/// V10 — renegotiated agreements must re-pass the V2 bounds and V3
/// direct-solvency contracts. Renegotiations are replayed in timeline
/// order onto a copy of the agreement list, so each check sees the
/// agreement set as it will stand when the event fires.
fn renegotiation(sc: &ScenarioSpec, out: &mut Vec<Finding>) {
    let mut agreements = sc.deployment.agreements.clone();
    for (i, ev) in sc.timeline.iter().enumerate() {
        let TimelineEvent::Renegotiate { issuer, holder, lb, ub, .. } = ev else {
            continue;
        };
        let Some(slot) =
            agreements.iter().position(|a| &a.issuer == issuer && &a.holder == holder)
        else {
            push(
                out,
                VRule::Renegotiation,
                vec![Key("timeline"), Index(i)],
                format!("no declared agreement {issuer} -> {holder} to renegotiate"),
            );
            continue;
        };
        let mut bounds_ok = true;
        for (key, x) in [("lb", *lb), ("ub", *ub)] {
            if !(x.is_finite() && (0.0..=1.0).contains(&x)) {
                push(
                    out,
                    VRule::Renegotiation,
                    vec![Key("timeline"), Index(i), Key(key)],
                    format!("renegotiated {key} must be a fraction within [0, 1], got {x}"),
                );
                bounds_ok = false;
            }
        }
        if bounds_ok && lb > ub {
            push(
                out,
                VRule::Renegotiation,
                vec![Key("timeline"), Index(i), Key("lb")],
                format!("renegotiated lb {lb} exceeds ub {ub}"),
            );
            bounds_ok = false;
        }
        if !bounds_ok {
            continue;
        }
        agreements[slot].lb = *lb;
        agreements[slot].ub = *ub;
        let total_lb: f64 = agreements
            .iter()
            .filter(|a| &a.issuer == issuer && a.lb.is_finite() && a.lb > 0.0)
            .map(|a| a.lb)
            .sum();
        if total_lb > 1.0 + TOL {
            push(
                out,
                VRule::Renegotiation,
                vec![Key("timeline"), Index(i), Key("lb")],
                format!(
                    "after this renegotiation issuer '{issuer}' guarantees sum(lb) = \
                     {total_lb:.3} across its agreements, exceeding its whole capacity (1.0)"
                ),
            );
        }
    }
}

/// V7 — worst-case offered load per principal (each client's peak phase
/// rate, summed over its clients) vs its entitled mandatory + optional
/// share. Excess demand is legal — the scheduler defers or drops it — but
/// usually a misconfiguration.
fn load(spec: &DeploymentSpec, levels: &AccessLevels, out: &mut Vec<Finding>) {
    for (pi, p) in spec.principals.iter().enumerate() {
        let mut demand = 0.0;
        let mut first_client = None;
        for (ci, c) in spec.clients.iter().enumerate() {
            if c.principal == p.name {
                if first_client.is_none() {
                    first_client = Some(ci);
                }
                demand += c.phases.iter().map(|&(_, r)| r).fold(0.0f64, f64::max);
            }
        }
        let Some(ci) = first_client else { continue };
        let id = PrincipalId(pi);
        let entitled = levels.mandatory(id) + levels.optional(id);
        if demand > entitled * (1.0 + TOL) + TOL {
            push(
                out,
                VRule::Load,
                vec![Key("clients"), Index(ci)],
                format!(
                    "worst-case offered load for '{}' is {demand:.1} req/s but its entitled \
                     mandatory+optional share is {entitled:.1} req/s: the excess will be \
                     deferred or dropped",
                    p.name
                ),
            );
        }
    }
}
