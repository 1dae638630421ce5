//! Prometheus-style text rendering for one cluster node.
//!
//! Every process in the cluster serves `GET /metrics` in the standard
//! text exposition format (`# TYPE` comments plus `name{labels} value`
//! samples), so off-the-shelf scrapers — or `curl` in `tier1.sh` — can
//! watch the tree do its work: admission counters from the enforcement
//! core, LP warm/cold activity, and the wire runtime's frame/round/RTT
//! counters, all labelled with the node's tree id.

use covenant_enforce::{CountersReport, ShardSnapshot};
use covenant_wire::WireStats;
use std::fmt::Write as _;

/// One metric sample: `name{node="<node>",role="<role>"} <value>`.
fn sample(out: &mut String, name: &str, kind: &str, node: usize, role: &str, value: u64) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = writeln!(out, "{name}{{node=\"{node}\",role=\"{role}\"}} {value}");
}

/// Renders the exposition body for one node: wire-runtime counters
/// always, enforcement counters when the node runs a data plane.
pub fn render_metrics(
    node: usize,
    role: &str,
    wire: &WireStats,
    shards: Option<&[ShardSnapshot]>,
) -> String {
    let mut out = String::new();
    sample(&mut out, "covenant_tree_frames_sent", "counter", node, role, wire.frames_sent());
    sample(
        &mut out,
        "covenant_tree_frames_received",
        "counter",
        node,
        role,
        wire.frames_received(),
    );
    sample(
        &mut out,
        "covenant_tree_rounds_completed",
        "counter",
        node,
        role,
        wire.rounds_completed(),
    );
    sample(&mut out, "covenant_tree_rounds_forced", "counter", node, role, wire.rounds_forced());
    sample(&mut out, "covenant_tree_reconnects", "counter", node, role, wire.reconnects());
    sample(&mut out, "covenant_tree_rtt_us", "gauge", node, role, wire.last_rtt_us());

    if let Some(snaps) = shards {
        let report = CountersReport::sharded(snaps);
        let (solver, adm) = (report.solver, report.admission.unwrap_or_default());
        let sharding = report.sharding.unwrap_or_default();
        sample(&mut out, "covenant_admitted", "counter", node, role, adm.admitted);
        sample(&mut out, "covenant_deferred", "counter", node, role, adm.deferred);
        sample(&mut out, "covenant_parked", "gauge", node, role, adm.parked);
        sample(&mut out, "covenant_lp_solves", "counter", node, role, solver.lp_solves);
        sample(&mut out, "covenant_lp_warm_hits", "counter", node, role, solver.lp_warm_hits);
        let cold = solver.lp_cold_fallbacks;
        sample(&mut out, "covenant_lp_cold_fallbacks", "counter", node, role, cold);
        sample(&mut out, "covenant_shed", "counter", node, role, adm.shed);
        sample(&mut out, "covenant_reactor_wakes", "counter", node, role, sharding.reactor_wakes);
        let batched = sharding.batched_verdicts;
        sample(&mut out, "covenant_batched_verdicts", "counter", node, role, batched);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_enforce::EnforcementCounters;

    #[test]
    fn tree_only_nodes_render_wire_counters() {
        let wire = WireStats::new();
        let body = render_metrics(0, "root", &wire, None);
        assert!(body.contains("covenant_tree_frames_sent{node=\"0\",role=\"root\"} 0"));
        assert!(body.contains("# TYPE covenant_tree_rtt_us gauge"));
        assert!(!body.contains("covenant_admitted"));
    }

    #[test]
    fn redirector_nodes_sum_shards_into_enforcement_counters() {
        // The exposition text is pinned (`cluster_contended` scrapes it),
        // with every shard field distinct, so a wrong sum or a swapped name
        // shows.
        let snap = |k: u64| ShardSnapshot {
            counters: EnforcementCounters {
                admitted: 10 * k + 1,
                deferred: 10 * k + 2,
                parked: 10 * k + 3,
                lp_solves: 10 * k + 7,
                lp_pivots: 10 * k + 8,
                lp_warm_hits: 10 * k + 9,
                lp_cold_fallbacks: 100 * k,
                ..Default::default()
            },
            reactor_wakes: 1000 * k + 1,
            batched_verdicts: 1000 * k + 2,
            shed: 1000 * k + 3,
        };
        let body = render_metrics(2, "r", &WireStats::new(), Some(&[snap(1), snap(2)]));
        let want = "\
# TYPE covenant_admitted counter
covenant_admitted{node=\"2\",role=\"r\"} 32
# TYPE covenant_deferred counter
covenant_deferred{node=\"2\",role=\"r\"} 34
# TYPE covenant_parked gauge
covenant_parked{node=\"2\",role=\"r\"} 36
# TYPE covenant_lp_solves counter
covenant_lp_solves{node=\"2\",role=\"r\"} 44
# TYPE covenant_lp_warm_hits counter
covenant_lp_warm_hits{node=\"2\",role=\"r\"} 48
# TYPE covenant_lp_cold_fallbacks counter
covenant_lp_cold_fallbacks{node=\"2\",role=\"r\"} 300
# TYPE covenant_shed counter
covenant_shed{node=\"2\",role=\"r\"} 3006
# TYPE covenant_reactor_wakes counter
covenant_reactor_wakes{node=\"2\",role=\"r\"} 3002
# TYPE covenant_batched_verdicts counter
covenant_batched_verdicts{node=\"2\",role=\"r\"} 3004
";
        assert!(body.ends_with(want), "{body}");
    }
}
