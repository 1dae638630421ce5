//! Cross-crate integration tests: enforcement invariants that must hold
//! for *any* agreement graph and load, exercised through the whole
//! pipeline (agreements → LP → window scheduler → simulator).

use covenant::agreements::{AgreementGraph, PrincipalId};
use covenant::sched::{CommunityScheduler, ProviderScheduler, SchedulerConfig, WindowScheduler};
use covenant::sim::{QueueMode, SimConfig, Simulation};
use covenant::workload::{ClientMachine, PhasedLoad};

/// Small deterministic pseudo-random stream for test-case generation.
struct Lcg(u64);
impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed | 1)
    }
    fn f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

fn random_graph(n: usize, density: f64, rng: &mut Lcg) -> AgreementGraph {
    let mut g = AgreementGraph::new();
    let ids: Vec<_> = (0..n)
        .map(|i| g.add_principal(format!("P{i}"), (rng.f64() * 500.0).round()))
        .collect();
    for (x, &i) in ids.iter().enumerate() {
        let mut budget: f64 = 0.95;
        for (y, &j) in ids.iter().enumerate() {
            if x == y || budget < 0.05 {
                continue;
            }
            if rng.f64() < density {
                let lb = (rng.f64() * budget.min(0.4) * 100.0).round() / 100.0;
                let ub = ((lb + rng.f64() * 0.5) * 100.0).round().min(100.0) / 100.0;
                if lb <= ub {
                    g.add_agreement(i, j, lb, ub).unwrap();
                    budget -= lb;
                }
            }
        }
    }
    g
}

/// For any random graph and demand vector, the community plan must
/// (a) never exceed any server capacity, (b) never exceed any queue,
/// (c) serve every principal at least min(demand, MC_i), and
/// (d) never exceed any pairwise agreement upper bound.
#[test]
fn community_plans_respect_agreements_on_random_graphs() {
    let mut rng = Lcg::new(2002);
    for case in 0..40 {
        let n = 2 + (rng.f64() * 5.0) as usize;
        let g = random_graph(n, 0.4, &mut rng);
        let levels = g.access_levels();
        let queues: Vec<f64> = (0..n).map(|_| (rng.f64() * 400.0).round()).collect();
        let plan = CommunityScheduler::new().plan(&levels, &queues);

        for k in 0..n {
            assert!(
                plan.server_load(k) <= levels.capacities()[k] + 1e-6,
                "case {case}: server {k} overloaded: {} > {}",
                plan.server_load(k),
                levels.capacities()[k]
            );
        }
        for (i, &queued) in queues.iter().enumerate() {
            let p = PrincipalId(i);
            let admitted = plan.admitted(p);
            assert!(
                admitted <= queued + 1e-6,
                "case {case}: principal {i} over-served"
            );
            let floor = levels.mandatory(p).min(queued);
            assert!(
                admitted >= floor - 1e-6,
                "case {case}: principal {i} mandatory violated: {admitted} < {floor}"
            );
            for k in 0..n {
                let pk = PrincipalId(k);
                let ub = levels.mand_share(p, pk) + levels.opt_share(p, pk);
                assert!(
                    plan.amount(i, k) <= ub + 1e-6,
                    "case {case}: pair ({i},{k}) exceeds agreement upper bound"
                );
            }
        }
    }
}

/// The provider plan obeys the same safety invariants and additionally
/// never serves anyone beyond MC_i + OC_i.
#[test]
fn provider_plans_respect_agreements_on_random_graphs() {
    let mut rng = Lcg::new(77);
    for case in 0..40 {
        let n = 2 + (rng.f64() * 5.0) as usize;
        let g = random_graph(n, 0.4, &mut rng);
        let levels = g.access_levels();
        let queues: Vec<f64> = (0..n).map(|_| (rng.f64() * 400.0).round()).collect();
        let prices: Vec<f64> = (0..n).map(|_| (rng.f64() * 5.0).round()).collect();
        let plan = ProviderScheduler::new(&levels, prices).plan(&queues);

        let total_cap: f64 = levels.capacities().iter().sum();
        assert!(plan.total_admitted() <= total_cap + 1e-6, "case {case}: pool overloaded");
        for (i, &queued) in queues.iter().enumerate() {
            let p = PrincipalId(i);
            let admitted = plan.admitted(p);
            assert!(admitted <= queued + 1e-6, "case {case}: queue exceeded");
            assert!(
                admitted <= levels.mandatory(p) + levels.optional(p) + 1e-6,
                "case {case}: principal {i} beyond optional ceiling"
            );
            assert!(
                admitted >= levels.mandatory(p).min(queued) - 1e-6,
                "case {case}: principal {i} mandatory violated"
            );
            for k in 0..n {
                assert!(
                    plan.server_load(k) <= levels.capacities()[k] + 1e-6,
                    "case {case}: server {k} overloaded"
                );
            }
        }
    }
}

/// A distributed deployment (many redirectors, each seeing part of the
/// load) must produce the same aggregate service rates as a single
/// redirector seeing everything.
#[test]
fn distributed_equals_centralized() {
    let build = |n_redirectors: usize| {
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 120.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.3, 1.0).unwrap();
        g.add_agreement(s, b, 0.6, 1.0).unwrap();
        let dur = 30.0;
        let mut cfg = SimConfig::new(g, dur)
            .with_tree(covenant::tree::Topology::star(n_redirectors, 0.0), 0.0);
        // Spread each principal's 3 clients across the redirectors.
        for c in 0..3 {
            cfg = cfg
                .client(
                    ClientMachine::uniform(c, a, PhasedLoad::constant(60.0, dur)),
                    c % n_redirectors,
                )
                .client(
                    ClientMachine::uniform(3 + c, b, PhasedLoad::constant(60.0, dur)),
                    (c + 1) % n_redirectors,
                );
        }
        let r = Simulation::new(cfg).run();
        (
            r.rates.mean_rate_secs(a, 10.0, 30.0),
            r.rates.mean_rate_secs(b, 10.0, 30.0),
        )
    };
    let single = build(1);
    let multi = build(3);
    assert!(
        (single.0 - multi.0).abs() < 6.0,
        "A: single {} vs distributed {}",
        single.0,
        multi.0
    );
    assert!(
        (single.1 - multi.1).abs() < 6.0,
        "B: single {} vs distributed {}",
        single.1,
        multi.1
    );
    // And both enforce: B ≥ its mandatory 72, A ≥ its mandatory 36.
    assert!(multi.1 >= 66.0, "B {}", multi.1);
    assert!(multi.0 >= 30.0, "A {}", multi.0);
}

/// All three queuing modes converge to the same steady-state shares; they
/// differ in latency, not allocation.
#[test]
fn queue_modes_agree_on_shares() {
    let run = |mode: QueueMode| {
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 100.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.25, 1.0).unwrap();
        g.add_agreement(s, b, 0.75, 1.0).unwrap();
        let dur = 30.0;
        let cfg = SimConfig::new(g, dur)
            .with_mode(mode)
            .client(ClientMachine::uniform(0, a, PhasedLoad::constant(150.0, dur)), 0)
            .client(ClientMachine::uniform(1, b, PhasedLoad::constant(150.0, dur)), 0);
        let r = Simulation::new(cfg).run();
        (
            r.rates.mean_rate_secs(a, 10.0, dur),
            r.rates.mean_rate_secs(b, 10.0, dur),
        )
    };
    for mode in [
        QueueMode::Explicit,
        QueueMode::CreditRetry { retry_delay: 0.05 },
        QueueMode::CreditPark,
    ] {
        let (a, b) = run(mode.clone());
        assert!((a - 25.0).abs() < 5.0, "{mode:?}: A {a}");
        assert!((b - 75.0).abs() < 5.0, "{mode:?}: B {b}");
    }
}

/// The conservative fallback never admits more than the configured
/// fraction of the mandatory share, for any demand.
#[test]
fn conservative_fallback_is_bounded() {
    let mut g = AgreementGraph::new();
    let s = g.add_principal("S", 200.0);
    let a = g.add_principal("A", 0.0);
    g.add_agreement(s, a, 0.5, 1.0).unwrap();
    let mut ws = WindowScheduler::new(&g.access_levels(), SchedulerConfig::community_default());
    for demand in [0.0, 1.0, 5.0, 100.0, 10_000.0] {
        let plan = ws.plan_window_shared(None, &[0.0, demand]);
        // Half of A's mandatory 100/s = 50/s = 5 per 100 ms window.
        assert!(plan.admitted(a) <= 5.0 + 1e-9, "demand {demand}: {}", plan.admitted(a));
        assert!(plan.admitted(a) <= demand + 1e-9);
    }
}
