//! Ablation — scheduling-window-length sensitivity.
//!
//! The paper fixes 100 ms windows. This sweep re-runs the Figure 6 phase-1
//! contention with windows from 25 ms to 1.6 s and reports how far each
//! principal's served rate lands from the agreement-implied target
//! (A 185, B 135), plus A's mean response time. Longer windows track the
//! targets but add queueing delay; shorter windows react faster at higher
//! coordination cost (more LP solves and tree rounds per second).
//!
//! Sweep points are independent runs, so they fan out across worker
//! threads; rows print in sweep order regardless of completion order.

use covenant_agreements::{AgreementGraph, PrincipalId};
use covenant_bench::run_sweep;
use covenant_sim::{SimConfig, Simulation};
use covenant_tree::Topology;
use covenant_workload::{ClientMachine, PhasedLoad};

fn main() {
    println!(
        "{:>12} {:>10} {:>10} {:>12} {:>12}",
        "window ms", "A req/s", "B req/s", "A resp ms", "tree msgs/s"
    );
    let windows = vec![0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6];
    let rows = run_sweep(windows, |_, &window| {
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 320.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.2, 1.0).unwrap();
        g.add_agreement(s, b, 0.8, 1.0).unwrap();

        let dur = 30.0;
        let mut cfg = SimConfig::new(g, dur)
            .with_tree(Topology::star(2, 0.0), 0.0)
            .closed_loop_client(ClientMachine::uniform(0, a, PhasedLoad::constant(135.0, dur)), 0, 64)
            .closed_loop_client(ClientMachine::uniform(1, a, PhasedLoad::constant(135.0, dur)), 0, 64)
            .closed_loop_client(ClientMachine::uniform(2, b, PhasedLoad::constant(135.0, dur)), 1, 64);
        cfg.window_secs = window;
        let r = Simulation::new(cfg).run();
        format!(
            "{:>12.0} {:>10.1} {:>10.1} {:>12.1} {:>12.1}",
            window * 1000.0,
            r.rates.mean_rate_secs(PrincipalId(1), 10.0, dur),
            r.rates.mean_rate_secs(PrincipalId(2), 10.0, dur),
            r.response[1].mean().unwrap_or(0.0) * 1000.0,
            r.tree_messages as f64 / dur,
        )
    });
    for row in rows {
        println!("{row}");
    }
    println!("\ntargets: A 185, B 135 (paper uses 100 ms windows)");
}
