//! `covenant figures`: the paper's Figure 1 arithmetic, then Figures 6–10
//! run from their scenario files (`examples/scenarios/fig*.json`, embedded
//! so the binary needs no working directory) through the same path as
//! `covenant sim`, each followed by its per-phase rate table.

use crate::cli::Options;
use covenant::agreements::AgreementGraph;
use covenant::sched::CommunityScheduler;

/// The figure scenario files, in the paper's order: (title, path, contents).
pub const FIGURES: [(&str, &str, &str); 5] = [
    ("Figure 6", "examples/scenarios/fig6.json", include_str!("../examples/scenarios/fig6.json")),
    ("Figure 7", "examples/scenarios/fig7.json", include_str!("../examples/scenarios/fig7.json")),
    ("Figure 8", "examples/scenarios/fig8.json", include_str!("../examples/scenarios/fig8.json")),
    ("Figure 9", "examples/scenarios/fig9.json", include_str!("../examples/scenarios/fig9.json")),
    (
        "Figure 10",
        "examples/scenarios/fig10.json",
        include_str!("../examples/scenarios/fig10.json"),
    ),
];

/// Prints Figure 1, then each figure file's phase table.
pub fn run(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let f1 = fig1();
    outln!("== Figure 1 ==");
    outln!(
        "uncoordinated (A {:.0}, B {:.0})  coordinated (A {:.0}, B {:.0})\n",
        f1.uncoordinated.0, f1.uncoordinated.1, f1.coordinated.0, f1.coordinated.1
    );
    for (title, path, text) in FIGURES {
        let (_, outcome) = crate::simulate(path, text, opts)?;
        outln!("== {title} ==");
        outln!("{}", outcome.phase_table());
    }
    Ok(())
}

/// The aggregate rates Figure 1's motivating example predicts, computed
/// directly from the scheduling LP (no simulation needed — the example is
/// arithmetic about steady-state rates).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Result {
    /// (A, B) aggregate rates under independent per-server enforcement.
    pub uncoordinated: (f64, f64),
    /// (A, B) aggregate rates under coordinated enforcement.
    pub coordinated: (f64, f64),
}

/// Figure 1: two 50 req/s servers; SLAs give A 20% and B 80% of the
/// aggregate. Redirector locality bias splits the (A:40, B:80) offered load
/// as (A:20,B:30) onto S1 and (A:20,B:50) onto S2.
pub fn fig1() -> Fig1Result {
    // Independent enforcement: each server runs the LP alone on its local
    // arrivals, with per-server shares (A 20%, B 80% of that server).
    let per_server = |demand_a: f64, demand_b: f64| -> (f64, f64) {
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 50.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.2, 1.0).expect("A's Figure 1 SLA is valid");
        g.add_agreement(s, b, 0.8, 1.0).expect("B's Figure 1 SLA is valid");
        let plan = CommunityScheduler::new().plan(&g.access_levels(), &[0.0, demand_a, demand_b]);
        (plan.admitted(a), plan.admitted(b))
    };
    let s1 = per_server(20.0, 30.0);
    let s2 = per_server(20.0, 50.0);
    let uncoordinated = (s1.0 + s2.0, s1.1 + s2.1);

    // Coordinated: one LP over both servers with the global demands.
    let mut g = AgreementGraph::new();
    let s1p = g.add_principal("S1", 50.0);
    let s2p = g.add_principal("S2", 50.0);
    let a = g.add_principal("A", 0.0);
    let b = g.add_principal("B", 0.0);
    for s in [s1p, s2p] {
        g.add_agreement(s, a, 0.2, 1.0).expect("A's Figure 1 SLA is valid");
        g.add_agreement(s, b, 0.8, 1.0).expect("B's Figure 1 SLA is valid");
    }
    let plan = CommunityScheduler::new().plan(&g.access_levels(), &[0.0, 0.0, 40.0, 80.0]);
    let coordinated = (plan.admitted(a), plan.admitted(b));

    Fig1Result { uncoordinated, coordinated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant::core::{ScenarioOutcome, ScenarioSpec};

    /// Runs the named figure file.
    fn run_figure(title: &str) -> ScenarioOutcome {
        let (_, _, text) = FIGURES.iter().find(|f| f.0 == title).expect("figure file");
        let spec = ScenarioSpec::from_json(text).expect("figure decodes");
        let cfg = spec.build_sim().expect("figure builds");
        ScenarioOutcome::run(&spec, cfg)
    }

    #[test]
    fn fig1_reproduces_the_motivating_example() {
        let r = fig1();
        // Paper: uncoordinated aggregate (A:30, B:70) — the SLA violation.
        assert!((r.uncoordinated.0 - 30.0).abs() < 1e-4, "A {}", r.uncoordinated.0);
        assert!((r.uncoordinated.1 - 70.0).abs() < 1e-4, "B {}", r.uncoordinated.1);
        // Coordinated: (A:20, B:80) — the SLA respected.
        assert!((r.coordinated.0 - 20.0).abs() < 1e-4, "A {}", r.coordinated.0);
        assert!((r.coordinated.1 - 80.0).abs() < 1e-4, "B {}", r.coordinated.1);
    }

    #[test]
    fn fig6_phase_rates_match_paper() {
        let outcome = run_figure("Figure 6");
        let p = &outcome.phases;
        // Phase 1: B 135 (fully served, below mandatory), A ≈ 185.
        assert!((p[0].rate("B") - 135.0).abs() < 12.0, "p1 B {}", p[0].rate("B"));
        assert!((p[0].rate("A") - 185.0).abs() < 15.0, "p1 A {}", p[0].rate("A"));
        // Phase 2: only A, limited by two clients to 270.
        assert!((p[1].rate("A") - 270.0).abs() < 15.0, "p2 A {}", p[1].rate("A"));
        assert!(p[1].rate("B") < 10.0, "p2 B {}", p[1].rate("B"));
        // Phase 3: back to phase-1 shares.
        assert!((p[2].rate("B") - 135.0).abs() < 12.0, "p3 B {}", p[2].rate("B"));
        assert!((p[2].rate("A") - 185.0).abs() < 15.0, "p3 A {}", p[2].rate("A"));
    }

    #[test]
    fn fig6_solves_the_lp_once_per_coordinated_window() {
        // Every window with a view goes to the planner, the steady phases'
        // repeated demand included: a repeat is a warm re-solve, not a
        // replayed plan.
        let r = run_figure("Figure 6").report;
        assert_eq!(r.plan_cache_hits, 0);
        assert!(r.plan_cache_misses > 0);
        assert_eq!(r.lp_solves, r.plan_cache_misses);
        assert_eq!(r.lp_warm_hits + r.lp_cold_fallbacks, r.lp_solves);
    }

    #[test]
    fn fig7_a_served_at_twice_b() {
        let outcome = run_figure("Figure 7");
        let a = outcome.phases[0].rate("A");
        let b = outcome.phases[0].rate("B");
        assert!((a / b - 2.0).abs() < 0.25, "A/B = {}", a / b);
        assert!((a + b - 250.0).abs() < 20.0, "total {}", a + b);
    }

    #[test]
    fn fig8_network_delay_phases() {
        let outcome = run_figure("Figure 8");
        let p = &outcome.phases;
        // Phase 1: conservative half-mandatory ≈ 32 req/s (paper measures ~30).
        assert!((p[0].rate("B") - 32.0).abs() < 6.0, "p1 B {}", p[0].rate("B"));
        // Phase 2: B alone, client-limited 135.
        assert!((p[1].rate("B") - 135.0).abs() < 10.0, "p2 B {}", p[1].rate("B"));
        // Phase 4: enforced shares: A 255, B 65 (paper: 255 / 65).
        assert!((p[3].rate("A") - 255.0).abs() < 15.0, "p4 A {}", p[3].rate("A"));
        assert!((p[3].rate("B") - 65.0).abs() < 10.0, "p4 B {}", p[3].rate("B"));
        // Phase 6: B recovers to 135.
        assert!((p[5].rate("B") - 135.0).abs() < 10.0, "p6 B {}", p[5].rate("B"));
    }

    #[test]
    fn fig9_phase_rates_match_paper() {
        let outcome = run_figure("Figure 9");
        let p = &outcome.phases;
        assert!((p[0].rate("A") - 480.0).abs() < 25.0, "p1 A {}", p[0].rate("A"));
        assert!((p[0].rate("B") - 160.0).abs() < 20.0, "p1 B {}", p[0].rate("B"));
        assert!(p[1].rate("A") < 15.0, "p2 A {}", p[1].rate("A"));
        assert!((p[1].rate("B") - 320.0).abs() < 20.0, "p2 B {}", p[1].rate("B"));
        assert!((p[2].rate("A") - 400.0).abs() < 25.0, "p3 A {}", p[2].rate("A"));
        assert!((p[2].rate("B") - 240.0).abs() < 20.0, "p3 B {}", p[2].rate("B"));
        assert!((p[3].rate("B") - 320.0).abs() < 20.0, "p4 B {}", p[3].rate("B"));
    }

    #[test]
    fn fig10_income_priority() {
        let outcome = run_figure("Figure 10");
        let p = &outcome.phases;
        // Phase 1: B pinned to mandatory 128, A takes 512.
        assert!((p[0].rate("B") - 128.0).abs() < 15.0, "p1 B {}", p[0].rate("B"));
        assert!((p[0].rate("A") - 512.0).abs() < 25.0, "p1 A {}", p[0].rate("A"));
        // Phase 2: A idle; B client-limited to 400.
        assert!((p[1].rate("B") - 400.0).abs() < 20.0, "p2 B {}", p[1].rate("B"));
        // Phase 3: A 400 (one client), B takes the remaining 240.
        assert!((p[2].rate("A") - 400.0).abs() < 20.0, "p3 A {}", p[2].rate("A"));
        assert!((p[2].rate("B") - 240.0).abs() < 20.0, "p3 B {}", p[2].rate("B"));
    }
}
