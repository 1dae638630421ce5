//! Property tests for the window schedulers and queuing structures.

// Plans are (principal × server) matrices; paired i/k index loops mirror the
// paper's notation better than nested iterator chains.
#![allow(clippy::needless_range_loop)]

use covenant_agreements::{AgreementGraph, PrincipalId};
use covenant_lp::{LpOutcome, Problem, Relation, SimplexWorkspace};
use covenant_sched::{
    CommunityScheduler, Plan, PreparedCommunity, ProviderScheduler, SchedulerConfig,
    WindowScheduler,
};
use proptest::prelude::*;
use proptest::TestCaseError;

fn graph_and_queues() -> impl Strategy<Value = (AgreementGraph, Vec<f64>)> {
    (2usize..6).prop_flat_map(|n| {
        let caps = proptest::collection::vec(0.0..500.0f64, n);
        let edges = proptest::collection::vec((0.0..0.3f64, 0.0..0.6f64, any::<bool>()), n * n);
        let queues = proptest::collection::vec(0.0..600.0f64, n);
        (caps, edges, queues).prop_map(move |(caps, edges, queues)| {
            let mut g = AgreementGraph::new();
            let ids: Vec<_> = caps
                .iter()
                .enumerate()
                .map(|(i, &c)| g.add_principal(format!("P{i}"), c))
                .collect();
            let mut budget = vec![1.0f64; n];
            for (idx, (lb_raw, width, on)) in edges.into_iter().enumerate() {
                let (i, j) = (idx / n, idx % n);
                if !on || i == j {
                    continue;
                }
                let lb = lb_raw.min(budget[i] - 0.02).max(0.0);
                let ub = (lb + width).min(1.0);
                if g.add_agreement(ids[i], ids[j], lb, ub).is_ok() {
                    budget[i] -= lb;
                }
            }
            (g, queues)
        })
    })
}

/// `(MC_i, OC_i, V_i, p_i, n_i)` per principal.
type ProviderTotals = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

/// A provider model as per-principal totals. Prices are whole numbers
/// from −1 to 4, so ties and zero prices are common. Each queue is idle,
/// below its floor, inside its envelope or flooding, and the pool `Σ V_i`
/// is drawn between 0.3 and 1.5 times `Σ MC_i`, so the floors of a busy
/// window often do not fit.
fn provider_totals() -> impl Strategy<Value = ProviderTotals> {
    let principal = (0.0..100.0f64, 0.0..100.0f64, 0.0..1.0f64, 0u8..6, 0u8..4, 0.0..1.0f64);
    (proptest::collection::vec(principal, 2..33), 0.3..1.5f64).prop_map(|(rows, pool)| {
        let mandatory: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let optional: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let weight: f64 = rows.iter().map(|r| r.2).sum::<f64>().max(1e-9);
        let v_total = pool * mandatory.iter().sum::<f64>();
        let capacities = rows.iter().map(|r| v_total * r.2 / weight).collect();
        let prices = rows.iter().map(|r| f64::from(r.3) - 1.0).collect();
        let queues = rows
            .iter()
            .map(|&(mc, oc, _, _, kind, u)| match kind {
                0 => 0.0,
                1 => mc * u,
                2 => mc + oc * u,
                _ => 2.0 * (mc + oc) + 1.0,
            })
            .collect();
        (mandatory, optional, capacities, prices, queues)
    })
}

/// The provider LP of §3.1.2, solved by the reference simplex: maximize
/// `Σ p_i x_i` subject to `Σ x_i ≤ Σ V_i` and
/// `min(MC_i, n_i) ≤ x_i ≤ min(MC_i + OC_i, n_i)`. Each objective
/// coefficient also carries the canonical tie-break weight `1e-3/(i + 2)`:
/// prices are whole numbers, so the weight only orders equal prices
/// (lowest id first) and fills zero prices, which makes the optimum
/// unique. `None` when the floors do not fit.
fn provider_lp_oracle(
    mandatory: &[f64],
    optional: &[f64],
    capacities: &[f64],
    prices: &[f64],
    queues: &[f64],
) -> Option<Vec<f64>> {
    let n = mandatory.len();
    let mut p = Problem::new(n);
    p.set_objective((0..n).map(|i| prices[i] + 1e-3 / (i as f64 + 2.0)).collect());
    p.add_constraint((0..n).map(|i| (i, 1.0)).collect(), Relation::Le, capacities.iter().sum());
    for i in 0..n {
        let q = queues[i].max(0.0);
        p.add_constraint(vec![(i, 1.0)], Relation::Ge, mandatory[i].min(q));
        p.set_upper_bound(i, (mandatory[i] + optional[i]).min(q));
    }
    match p.solve_reference() {
        LpOutcome::Optimal(s) => Some(s.x),
        LpOutcome::Infeasible => None,
        other => panic!("provider LP cannot end {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Community plans satisfy every safety property on arbitrary systems.
    #[test]
    fn community_plan_invariants((g, queues) in graph_and_queues()) {
        let lv = g.access_levels();
        let plan = CommunityScheduler::new().plan(&lv, &queues);
        let n = g.len();
        for k in 0..n {
            prop_assert!(plan.server_load(k) <= lv.capacities()[k] + 1e-6);
        }
        for i in 0..n {
            let p = PrincipalId(i);
            prop_assert!(plan.admitted(p) <= queues[i] + 1e-6);
            prop_assert!(plan.admitted(p) >= lv.mandatory(p).min(queues[i]) - 1e-6,
                "P{i} mandatory violated: {} < {}", plan.admitted(p), lv.mandatory(p).min(queues[i]));
            for k in 0..n {
                let ub = lv.mand_share(p, PrincipalId(k)) + lv.opt_share(p, PrincipalId(k));
                prop_assert!(plan.amount(i, k) <= ub + 1e-6);
            }
        }
        if let Some(theta) = plan.theta {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&theta));
        }
    }

    /// Provider plans satisfy the same safety envelope.
    #[test]
    fn provider_plan_invariants((g, queues) in graph_and_queues(), seed in 0u64..1000) {
        let lv = g.access_levels();
        let n = g.len();
        let prices: Vec<f64> = (0..n).map(|i| ((seed as usize + i) % 7) as f64).collect();
        let plan = ProviderScheduler::new(&lv, prices).plan(&queues);
        let total: f64 = lv.capacities().iter().sum();
        prop_assert!(plan.total_admitted() <= total + 1e-6);
        for i in 0..n {
            let p = PrincipalId(i);
            prop_assert!(plan.admitted(p) <= queues[i] + 1e-6);
            prop_assert!(plan.admitted(p) <= lv.mandatory(p) + lv.optional(p) + 1e-6);
            prop_assert!(plan.admitted(p) >= lv.mandatory(p).min(queues[i]) - 1e-6);
        }
        for k in 0..n {
            prop_assert!(plan.server_load(k) <= lv.capacities()[k] + 1e-6);
        }
    }

    /// The distributed scaling rule conserves the global plan: local plans
    /// over any partition of the queues sum back to the global plan.
    #[test]
    fn local_scaling_partitions_global_plan(
        (g, queues) in graph_and_queues(),
        splits in proptest::collection::vec(0.0..1.0f64, 2..6),
    ) {
        let lv = g.access_levels();
        let plan = CommunityScheduler::new().plan(&lv, &queues);
        let n = g.len();
        // Partition each queue across the redirectors by normalized splits.
        let total_split: f64 = splits.iter().sum::<f64>().max(1e-9);
        let mut recon = vec![vec![0.0; n]; n];
        let mut lp = Plan::zero(0);
        for s in &splits {
            let frac = s / total_split;
            let local: Vec<f64> = queues.iter().map(|q| q * frac).collect();
            plan.scale_for_local_queue(&local, &queues, &mut lp);
            for i in 0..n {
                for k in 0..n {
                    recon[i][k] += lp.amount(i, k);
                }
            }
        }
        for i in 0..n {
            for k in 0..n {
                prop_assert!((recon[i][k] - plan.amount(i, k)).abs() < 1e-6,
                    "pair ({i},{k}): {} vs {}", recon[i][k], plan.amount(i, k));
            }
        }
    }

    /// Window regime for the warm-started solver: one prepared skeleton, a
    /// walk of perturbed queue vectors, one basis persisted across windows.
    /// Every window's θ must equal the reference oracle's optimum on
    /// exactly the problem the fast path solved, the plan must be feasible
    /// for it, and the dense fallback must never fire.
    #[test]
    fn warm_window_walk_matches_reference(
        (g, queues) in graph_and_queues(),
        walk in proptest::collection::vec(proptest::collection::vec(-40.0..40.0f64, 6), 1..6),
    ) {
        let lv = g.access_levels();
        let n = g.len();
        let mut prepared = PreparedCommunity::new(&lv, None);
        let mut ws = SimplexWorkspace::new();
        let mut q = queues.clone();
        for step in &walk {
            for i in 0..n {
                q[i] = (q[i] + step[i % step.len()]).max(0.0);
            }
            if q.iter().all(|&v| v <= 0.0) {
                continue; // plan_with short-circuits to the zero plan
            }
            let plan = prepared.plan_with(&mut ws, &q);
            // When floors are infeasible plan_with retries without them;
            // safety invariants are covered by community_plan_invariants.
            if let LpOutcome::Optimal(s) = prepared.window_problem(&q).solve_reference() {
                prop_assert!(
                    (plan.theta.unwrap_or(0.0) - s.objective).abs() < 1e-6,
                    "queues {:?}: warm θ {:?} vs reference {}",
                    q, plan.theta, s.objective
                );
                // The plan must be feasible for the window problem it
                // claims to solve: variable 0 is θ, and the plan's entries
                // are the remaining variables in order.
                let mut x = vec![plan.theta.unwrap_or(0.0)];
                x.extend_from_slice(plan.amounts());
                prop_assert!(
                    prepared.window_problem(&q).is_feasible(&x, 1e-5),
                    "warm plan infeasible for its own window"
                );
            }
        }
        prop_assert_eq!(prepared.dense_fallbacks(), 0, "dense fallback fired");
    }

    /// A level change mid-walk (update_levels) rebuilds the skeleton; the
    /// scheduler must keep matching the oracle on the new levels, the
    /// replacement engine must cold-start rather than reuse a stale basis,
    /// and the lifetime counters must carry the retired engine's counts.
    #[test]
    fn warm_survives_level_change_mid_walk(
        (g, queues) in graph_and_queues(),
        cap_scale in 1.25..3.0f64,
    ) {
        let n = g.len();
        let lv1 = g.access_levels();
        let mut sched = WindowScheduler::new(&lv1, SchedulerConfig::community_default());
        let mut q = queues.clone();
        q[0] = q[0].max(1.0); // never the all-idle short-circuit
        let check = |sched: &mut WindowScheduler, q: &[f64]| -> Result<(), TestCaseError> {
            let plan = sched.plan_global(q);
            let mut oracle = PreparedCommunity::new(sched.window_levels(), None);
            if let LpOutcome::Optimal(s) = oracle.window_problem(q).solve_reference() {
                prop_assert!(
                    (plan.theta.unwrap_or(0.0) - s.objective).abs() < 1e-6,
                    "θ {:?} vs reference {}", plan.theta, s.objective
                );
            }
            Ok(())
        };
        check(&mut sched, &q)?;
        q[0] += 5.0;
        check(&mut sched, &q)?;
        let before = sched.warm_stats();
        // Scale every capacity: same principals and share fractions, new
        // levels. `lv1` is in rates (unscaled), like the graph capacities.
        let mut g2 = AgreementGraph::new();
        let ids: Vec<_> = (0..n)
            .map(|i| g2.add_principal(format!("P{i}"), lv1.capacities()[i] * cap_scale))
            .collect();
        for j in 0..n {
            let cap_j = lv1.capacities()[j];
            if cap_j <= 0.0 {
                continue;
            }
            for i in 0..n {
                if i == j {
                    continue;
                }
                // i's entitlement on server j, as fractions of j's capacity.
                let m = lv1.mand_share(PrincipalId(i), PrincipalId(j));
                let o = lv1.opt_share(PrincipalId(i), PrincipalId(j));
                if m + o > 0.0 {
                    let lb = (m / cap_j).min(1.0);
                    let ub = ((m + o) / cap_j).min(1.0);
                    let _ = g2.add_agreement(ids[j], ids[i], lb, ub);
                }
            }
        }
        sched.update_levels(&g2.access_levels());
        // The replacement engine has solved nothing yet: the lifetime
        // counters, `face_pivots` included, are the retired engine's.
        prop_assert_eq!(sched.warm_stats(), before, "the level change lost lifetime counts");
        check(&mut sched, &q)?;
        q[0] += 5.0;
        check(&mut sched, &q)?;
        prop_assert!(
            sched.warm_stats().cold_starts > before.cold_starts,
            "rebuilt engine must cold-start: {:?}", sched.warm_stats()
        );
        prop_assert_eq!(sched.dense_fallbacks(), 0);
    }

    /// The price-ordered fill is the provider LP's optimum: per-principal
    /// admits and income match the LP oracle, and floors that do not fit
    /// give the zero plan, as the LP's infeasible arm did.
    #[test]
    fn provider_fill_matches_lp_oracle(
        (mandatory, optional, capacities, prices, queues) in provider_totals(),
    ) {
        let n = mandatory.len();
        let plan = ProviderScheduler::from_totals(
            mandatory.clone(), optional.clone(), capacities.clone(), prices.clone(),
        )
        .plan(&queues);
        let Some(x) = provider_lp_oracle(&mandatory, &optional, &capacities, &prices, &queues)
        else {
            prop_assert_eq!(plan, Plan::zero(n));
            return Ok(());
        };
        for i in 0..n {
            let admitted = plan.admitted(PrincipalId(i));
            prop_assert!(
                (admitted - x[i]).abs() < 1e-6,
                "P{}: fill {} vs LP {}", i, admitted, x[i]
            );
        }
        let income: f64 = (0..n).map(|i| prices[i] * (x[i] - mandatory[i].min(queues[i]))).sum();
        let fill_income = plan.income.unwrap_or(0.0);
        prop_assert!(
            (fill_income - income).abs() < 1e-6,
            "income {} vs LP {}", fill_income, income
        );
    }
}
