//! The compactly numbered window LP yields the plans of the textbook one.
//!
//! `PreparedCommunity` gives the LP one variable per agreement-backed
//! `(principal, server)` pair. The formulation it replaced numbered all
//! `n²` pairs (`x_ik` at `1 + i·n + k`, pairs without an agreement bounded
//! to zero). [`FullGrid`] below rebuilds that problem, row for row, and the
//! tests drive both through the same warm-started solver over the same
//! drifting demand: every plan must agree entry for entry.

// Plans are (principal × server) matrices; paired i/k index loops mirror the
// paper's notation better than nested iterator chains.
#![allow(clippy::needless_range_loop)]

use covenant_agreements::{AccessLevels, AgreementGraph, PrincipalId};
use covenant_lp::{LpOutcome, Problem, Relation, SimplexWorkspace, WarmBasis, WarmOutcome};
use covenant_sched::{CommunityScheduler, LocalityCaps, PreparedCommunity};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Deterministic 64-bit LCG in `[0, 1)`.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

/// A two-tier community: the first half own servers, the rest hold
/// agreements with up to three of them — except the last principal, which
/// holds none.
fn bipartite_levels(n: usize, rng: &mut Lcg) -> AccessLevels {
    let mut g = AgreementGraph::new();
    let providers = n.div_ceil(2);
    let ids: Vec<PrincipalId> = (0..n)
        .map(|i| {
            let cap = if i < providers { 100.0 + rng.next() * 1000.0 } else { 0.0 };
            g.add_principal(format!("P{i}"), cap)
        })
        .collect();
    let mut budget = vec![0.9f64; providers];
    for c in providers..n.saturating_sub(1) {
        let mut chosen = [usize::MAX; 3];
        for spread in 0..3 {
            let p = (c + spread * 131 + (rng.next() * providers as f64) as usize) % providers;
            if budget[p] <= 0.05 || chosen.contains(&p) {
                continue;
            }
            chosen[spread] = p;
            let lb = (0.02 + rng.next() * 0.1).min(budget[p] - 0.02);
            let ub = (lb + rng.next() * 0.3).min(1.0);
            g.add_agreement(ids[p], ids[c], lb, ub).expect("within budget");
            budget[p] -= lb;
        }
    }
    g.access_levels().scaled(0.1)
}

/// The window LP over the full `n × n` grid of pairs, as the scheduler
/// built it before the variables were compacted.
struct FullGrid {
    n: usize,
    base: Problem,
    mandatory: Vec<f64>,
    warm: WarmBasis,
    floors_dropped: u32,
}

impl FullGrid {
    fn new(levels: &AccessLevels, locality: Option<&LocalityCaps>) -> Self {
        let n = levels.len();
        let xv = |i: usize, k: usize| 1 + i * n + k;
        let ub = |i: usize, k: usize| {
            let (pi, pk) = (PrincipalId(i), PrincipalId(k));
            (levels.mand_share(pi, pk) + levels.opt_share(pi, pk)).max(0.0)
        };
        let mut p = Problem::new(1 + n * n);
        p.set_objective_coeff(0, 1.0);
        p.set_upper_bound(0, 1.0);
        let mut mandatory = Vec::new();
        for i in 0..n {
            let row: Vec<(usize, f64)> =
                (0..n).filter(|&k| ub(i, k) > 0.0).map(|k| (xv(i, k), 1.0)).collect();
            p.add_constraint(row.clone(), Relation::Le, 0.0);
            let mut cov = vec![(0, 0.0)];
            cov.extend_from_slice(&row);
            p.add_constraint(cov, Relation::Ge, 0.0);
            p.add_constraint(row, Relation::Ge, 0.0);
            for k in 0..n {
                p.set_upper_bound(xv(i, k), ub(i, k));
            }
            mandatory.push(levels.mandatory(PrincipalId(i)));
        }
        for k in 0..n {
            let row: Vec<(usize, f64)> =
                (0..n).filter(|&i| ub(i, k) > 0.0).map(|i| (xv(i, k), 1.0)).collect();
            p.add_constraint(row.clone(), Relation::Le, levels.capacities()[k].max(0.0));
            if let Some(LocalityCaps(c)) = locality {
                p.add_constraint(row, Relation::Le, c[k].max(0.0));
            }
        }
        FullGrid { n, base: p, mandatory, warm: WarmBasis::new(), floors_dropped: 0 }
    }

    fn set_queues(&mut self, queues: &[f64], floors: bool) {
        for (i, &q) in queues.iter().enumerate() {
            let ni = q.max(0.0);
            self.base.set_constraint_rhs(3 * i, ni);
            self.base.set_constraint_coeff(3 * i + 1, 0, -ni);
            let floor = if floors { self.mandatory[i].min(ni).max(0.0) } else { 0.0 };
            self.base.set_constraint_rhs(3 * i + 2, floor);
        }
    }

    /// `(θ, x)` with `x[i][k]`, under the scheduler's rules: floors first,
    /// floors dropped if that is infeasible, nothing if that is too.
    fn plan(&mut self, queues: &[f64]) -> Option<(f64, Vec<Vec<f64>>)> {
        for floors in [true, false] {
            self.set_queues(queues, floors);
            match self.base.solve_warm(&mut self.warm) {
                WarmOutcome::Optimal => {
                    let x = self.warm.x();
                    let n = self.n;
                    let grid =
                        (0..n).map(|i| x[1 + i * n..1 + (i + 1) * n].to_vec()).collect();
                    return Some((x[0], grid));
                }
                WarmOutcome::Infeasible => self.floors_dropped += u32::from(floors),
                WarmOutcome::Unsuitable => panic!("warm engine refused the full-grid problem"),
            }
        }
        None
    }
}

/// Fifty windows of demand drifting ±3 % around a mean between 0.4 and 1.6
/// times each principal's mandatory level (so some sit under their floor
/// and some reach into the optional share), through both formulations.
/// Principal 1 is idle throughout; the principal without agreements asks
/// for service in the last fifteen windows only, since its unservable
/// demand pins θ at zero. Returns how often the floors were dropped and in
/// how many windows θ was positive.
fn walk(
    n: usize,
    seed: u64,
    locality: Option<LocalityCaps>,
) -> Result<(u32, u32), TestCaseError> {
    let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let levels = bipartite_levels(n, &mut rng);
    let mut full = FullGrid::new(&levels, locality.as_ref());
    let mut compact = PreparedCommunity::new(&levels, locality);
    let mut ws = SimplexWorkspace::new();
    let mean: Vec<f64> = (0..n)
        .map(|i| {
            if i == n - 1 { 5.0 } else { levels.mandatory(PrincipalId(i)) * (0.4 + 1.2 * rng.next()) }
        })
        .collect();
    let mut theta_positive = 0;
    let phase: Vec<f64> = (0..n).map(|_| rng.next()).collect();
    for w in 0..50 {
        let queues: Vec<f64> = (0..n)
            .map(|i| {
                let turn = std::f64::consts::TAU * (w as f64 / 25.0 + phase[i]);
                if i == 1 || (i == n - 1 && w < 35) {
                    0.0
                } else {
                    mean[i] * (1.0 + 0.03 * turn.sin()) + 0.2 * rng.next()
                }
            })
            .collect();
        let plan = compact.plan_with(&mut ws, &queues);
        match full.plan(&queues) {
            Some((theta, grid)) => {
                theta_positive += u32::from(theta > 1e-6);
                prop_assert!(
                    (plan.theta.unwrap_or(f64::NAN) - theta).abs() < 1e-9,
                    "n={n} window {w}: θ {:?} vs {theta}", plan.theta
                );
                for i in 0..n {
                    for k in 0..n {
                        prop_assert!(
                            (plan.amount(i, k) - grid[i][k]).abs() < 1e-9,
                            "n={n} window {w} pair ({i},{k}): {} vs {}",
                            plan.amount(i, k), grid[i][k]
                        );
                    }
                }
            }
            None => prop_assert_eq!(plan.total_admitted(), 0.0),
        }
        if n <= 16 && full.floors_dropped == 0 {
            // With floors in force the last problem `plan_with` solved is
            // exactly `window_problem`; check its optimum independently.
            if let LpOutcome::Optimal(s) = compact.window_problem(&queues).solve_reference() {
                prop_assert!(
                    (plan.theta.unwrap_or(f64::NAN) - s.objective).abs() < 1e-6,
                    "n={n} window {w}: θ {:?} vs reference {}", plan.theta, s.objective
                );
            }
        }
    }
    prop_assert_eq!(compact.dense_fallbacks(), 0, "n={}: dense fallback fired", n);
    Ok((full.floors_dropped, theta_positive))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Same θ, same canonical vertex, no dense fallback, at every size.
    #[test]
    fn compact_plans_equal_full_grid_plans(seed in 0u64..1_000_000) {
        for n in [4, 16, 64, 128] {
            let (dropped, theta_positive) = walk(n, seed, None)?;
            prop_assert_eq!(dropped, 0);
            prop_assert!(theta_positive >= 30, "n={}: θ positive in {} windows", n, theta_positive);
        }
    }

    /// Locality caps far below the mandatory levels make the floors
    /// infeasible: both formulations must take the floors-dropped retry and
    /// still agree.
    #[test]
    fn compact_plans_equal_full_grid_plans_when_floors_are_dropped(seed in 0u64..1_000_000) {
        for n in [4, 16, 64] {
            let caps = LocalityCaps(vec![4.0; n]);
            let (dropped, _) = walk(n, seed, Some(caps))?;
            prop_assert!(dropped > 0, "n={}: caps never forced the retry", n);
        }
    }
}

/// The warm path in a large deployment's steady state: a 128-principal
/// community under 150 windows of demand drifting ±3 % around 0.4 to 1.6
/// times each principal's mandatory level. Every warm plan must be the one
/// a fresh scheduler computes from scratch, and the warm dual phase must
/// itself stop on that canonical vertex: the walk along the optimal face
/// that guarantees it may pivot in at most one warm window in ten.
#[test]
fn warm_plans_equal_fresh_plans_at_scale() {
    let n = 128;
    let mut rng = Lcg(0x5EED_0128);
    let levels = bipartite_levels(n, &mut rng);
    // The principal without agreements stays idle: its demand would pin θ
    // at zero.
    let mean: Vec<f64> = (0..n)
        .map(|i| {
            let m = levels.mandatory(PrincipalId(i));
            if i == n - 1 { 0.0 } else { m * (0.4 + 1.2 * rng.next()) }
        })
        .collect();
    let phase: Vec<f64> = (0..n).map(|_| rng.next()).collect();
    let mut warm = PreparedCommunity::new(&levels, None);
    let mut ws = SimplexWorkspace::new();
    let fresh = CommunityScheduler::new();
    let (mut warm_windows, mut walked) = (0, 0);
    for w in 0..150 {
        let queues: Vec<f64> = (0..n)
            .map(|i| {
                let turn = std::f64::consts::TAU * (w as f64 / 50.0 + phase[i]);
                mean[i] * (1.0 + 0.03 * turn.sin())
            })
            .collect();
        let before = warm.warm_stats();
        let plan = warm.plan_with(&mut ws, &queues);
        let after = warm.warm_stats();
        if after.cold_starts == before.cold_starts {
            warm_windows += 1;
            walked += u32::from(after.face_pivots > before.face_pivots);
        }
        let reference = fresh.plan(&levels, &queues);
        let (theta, want) = (plan.theta.unwrap_or(f64::NAN), reference.theta.unwrap_or(f64::NAN));
        assert!((theta - want).abs() < 1e-7, "window {w}: warm θ {theta} vs fresh {want}");
        for i in 0..n {
            for k in 0..n {
                let (got, want) = (plan.amount(i, k), reference.amount(i, k));
                assert!(
                    (got - want).abs() < 1e-7,
                    "window {w} pair ({i},{k}): warm {got} vs fresh {want}"
                );
            }
        }
    }
    assert_eq!(warm.dense_fallbacks(), 0, "dense fallback fired");
    assert!(warm_windows >= 140, "only {warm_windows} of 150 windows solved warm");
    assert!(
        walked * 10 <= warm_windows,
        "the face walk pivoted in {walked} of {warm_windows} warm windows"
    );
}

/// The point of the exercise: variables follow the agreements, not `n²`.
#[test]
fn compact_problem_has_one_variable_per_agreement_backed_pair() {
    let n = 64;
    let levels = bipartite_levels(n, &mut Lcg(7));
    let pairs = (0..n * n)
        .filter(|&at| {
            let (pi, pk) = (PrincipalId(at / n), PrincipalId(at % n));
            levels.mand_share(pi, pk) + levels.opt_share(pi, pk) > 0.0
        })
        .count();
    let mut prepared = PreparedCommunity::new(&levels, None);
    let problem = prepared.window_problem(&vec![1.0; n]);
    assert_eq!(problem.n_vars(), 1 + pairs);
    assert!(pairs < 4 * n, "a two-tier community has a few pairs per principal, got {pairs}");
}
