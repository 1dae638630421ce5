//! Ablation — locality caps (§3.1.2's `Σ_k x_ki ≤ c_i` extension).
//!
//! A redirector far from one server caps how many requests per window it
//! will push there. The sweep shows the enforcement/locality trade-off:
//! tight caps keep traffic local (cheap forwarding) at the price of unused
//! remote capacity; loose caps recover full utilization.
//!
//! Points fan out across worker threads like the other sweeps — each
//! point is one LP solve, so this mostly demonstrates the harness on cheap
//! work.

use covenant_agreements::{AgreementGraph, PrincipalId};
use covenant_bench::run_sweep;
use covenant_sched::{CommunityScheduler, LocalityCaps};

fn main() {
    // Community of two servers (A: 100, B: 100), A and B flooding; the
    // planning redirector is co-located with A's server and applies a cap
    // on pushes to B's server.
    let mut g = AgreementGraph::new();
    let a = g.add_principal("A", 100.0);
    let b = g.add_principal("B", 100.0);
    g.add_agreement(a, b, 0.3, 0.8).unwrap();
    g.add_agreement(b, a, 0.3, 0.8).unwrap();
    let lv = g.access_levels().scaled(0.1); // per 100 ms window

    println!(
        "{:>14} {:>10} {:>10} {:>12} {:>12}",
        "remote cap/w", "A req/w", "B req/w", "remote load", "total util %"
    );
    let caps = vec![0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, f64::INFINITY];
    let rows = run_sweep(caps, |_, &cap| {
        let sched = CommunityScheduler::with_locality(LocalityCaps(vec![
            f64::MAX.min(1e12),
            cap.min(1e12),
        ]));
        let plan = sched.plan(&lv, &[30.0, 30.0]);
        let remote = plan.server_load(1);
        let total = plan.total_admitted();
        format!(
            "{:>14} {:>10.2} {:>10.2} {:>12.2} {:>12.0}",
            if cap.is_infinite() { "inf".to_string() } else { format!("{cap:.0}") },
            plan.admitted(PrincipalId(0)),
            plan.admitted(PrincipalId(1)),
            remote,
            total / 20.0 * 100.0
        )
    });
    for row in rows {
        println!("{row}");
    }
    println!("\n(20 requests/window = both servers fully used)");
}
