//! Property tests for the simplex solvers (dense tableau and warm-started
//! revised dual simplex).

use covenant_lp::{LpOutcome, Problem, Relation, WarmBasis, WarmOutcome};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Strategy: a random LP with n vars, m `≤` constraints with non-negative
/// coefficients and rhs (always feasible at x = 0, always bounded when all
/// objective coefficients ≤ capped upper bounds are added).
fn bounded_lp() -> impl Strategy<Value = Problem> {
    (2usize..6, 1usize..6).prop_flat_map(|(n, m)| {
        let obj = proptest::collection::vec(-5.0..5.0f64, n);
        let rows = proptest::collection::vec(
            (proptest::collection::vec(0.0..4.0f64, n), 0.5..50.0f64),
            m,
        );
        let ubs = proptest::collection::vec(0.0..20.0f64, n);
        (obj, rows, ubs).prop_map(move |(obj, rows, ubs)| {
            let mut p = Problem::new(n);
            p.set_objective(obj);
            for (coeffs, rhs) in rows {
                let sparse: Vec<(usize, f64)> =
                    coeffs.into_iter().enumerate().collect();
                p.add_constraint(sparse, Relation::Le, rhs);
            }
            for (i, ub) in ubs.into_iter().enumerate() {
                p.set_upper_bound(i, ub);
            }
            p
        })
    })
}

/// Strategy: a random LP mixing all three relation kinds, with upper bounds
/// on every variable. May be infeasible (tight `≥`/`=` rows) — exercises
/// phase 1 and outcome classification, not just the happy path.
fn mixed_lp() -> impl Strategy<Value = Problem> {
    (2usize..6, 1usize..6).prop_flat_map(|(n, m)| {
        let obj = proptest::collection::vec(-5.0..5.0f64, n);
        let rows = proptest::collection::vec(
            (
                proptest::collection::vec(0.0..4.0f64, n),
                0usize..3, // 0 = Le, 1 = Ge, 2 = Eq
                0.5..30.0f64,
            ),
            m,
        );
        let ubs = proptest::collection::vec(0.0..20.0f64, n);
        (obj, rows, ubs).prop_map(move |(obj, rows, ubs)| {
            let mut p = Problem::new(n);
            p.set_objective(obj);
            for (coeffs, rel, rhs) in rows {
                let rel = match rel {
                    0 => Relation::Le,
                    1 => Relation::Ge,
                    _ => Relation::Eq,
                };
                let sparse: Vec<(usize, f64)> =
                    coeffs.into_iter().enumerate().collect();
                p.add_constraint(sparse, rel, rhs);
            }
            for (i, ub) in ubs.into_iter().enumerate() {
                p.set_upper_bound(i, ub);
            }
            p
        })
    })
}

/// Asserts the optimized solver and the retained naive reference agree on
/// outcome classification, and on the objective within `1e-6` when optimal.
fn assert_matches_reference(p: &Problem) -> Result<(), TestCaseError> {
    let fast = p.solve();
    let slow = p.solve_reference();
    match (&fast, &slow) {
        (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) => {
            prop_assert!(
                (a.objective - b.objective).abs() < 1e-6,
                "fast {} vs reference {}",
                a.objective,
                b.objective
            );
            prop_assert!(p.is_feasible(&a.x, 1e-6), "fast optimum infeasible");
        }
        _ => prop_assert_eq!(
            std::mem::discriminant(&fast),
            std::mem::discriminant(&slow),
            "fast {:?} vs reference {:?}",
            fast,
            slow
        ),
    }
    Ok(())
}

/// Asserts one warm-engine solve agrees with the reference oracle. Every
/// variable in the generated problems carries a finite upper bound, so the
/// warm engine must never declare the problem `Unsuitable`.
fn assert_warm_matches_reference(
    p: &Problem,
    warm: &mut WarmBasis,
) -> Result<(), TestCaseError> {
    let out = p.solve_warm(warm);
    match p.solve_reference() {
        LpOutcome::Optimal(s) => {
            prop_assert_eq!(out, WarmOutcome::Optimal, "reference found {}", s.objective);
            prop_assert!(
                (warm.objective_value() - s.objective).abs() < 1e-6,
                "warm {} vs reference {}",
                warm.objective_value(),
                s.objective
            );
            prop_assert!(p.is_feasible(warm.x(), 1e-6), "warm optimum infeasible");
        }
        LpOutcome::Infeasible => {
            prop_assert_eq!(out, WarmOutcome::Infeasible);
        }
        other => prop_assert!(false, "reference returned {:?}", other),
    }
    Ok(())
}

proptest! {
    /// The Dantzig/flat-tableau solver must classify and value every
    /// bounded-feasible LP exactly as the retained reference does.
    #[test]
    fn optimized_matches_reference_on_bounded_lps(p in bounded_lp()) {
        assert_matches_reference(&p)?;
    }

    /// Same equivalence on LPs with `≥`/`=` rows, where phase 1 (artificial
    /// variables) and infeasibility detection come into play.
    #[test]
    fn optimized_matches_reference_on_mixed_lps(p in mixed_lp()) {
        assert_matches_reference(&p)?;
    }

    /// Every bounded-feasible LP must solve to Optimal, and the solution
    /// must satisfy every constraint.
    #[test]
    fn optimal_solutions_are_feasible(p in bounded_lp()) {
        match p.solve() {
            LpOutcome::Optimal(s) => {
                prop_assert!(p.is_feasible(&s.x, 1e-6), "infeasible optimum {:?}", s.x);
                prop_assert!((p.objective_at(&s.x) - s.objective).abs() < 1e-6);
            }
            other => prop_assert!(false, "expected optimal, got {other:?}"),
        }
    }

    /// The optimum dominates the origin and a family of axis-aligned
    /// feasible candidates.
    #[test]
    fn optimum_dominates_candidates(p in bounded_lp()) {
        let s = p.solve().optimal().expect("bounded feasible LP");
        let zero = vec![0.0; p.n_vars()];
        prop_assert!(p.is_feasible(&zero, 1e-9));
        prop_assert!(s.objective >= p.objective_at(&zero) - 1e-6);
        // Candidates: scalings of the optimum.
        for frac in [0.25, 0.5, 0.75] {
            let cand: Vec<f64> = s.x.iter().map(|v| v * frac).collect();
            if p.is_feasible(&cand, 1e-9) {
                prop_assert!(
                    s.objective >= p.objective_at(&cand) - 1e-6,
                    "candidate beats optimum"
                );
            }
        }
    }

    /// Solving twice yields identical results (full determinism).
    #[test]
    fn deterministic(p in bounded_lp()) {
        prop_assert_eq!(p.solve(), p.solve());
    }

    /// Adding a redundant constraint (a duplicate of an existing row) never
    /// changes the optimal objective.
    #[test]
    fn redundant_rows_do_not_change_value(p in bounded_lp()) {
        let s1 = p.solve().optimal().expect("optimal");
        let mut p2 = p.clone();
        if let Some(c) = p.constraints().first() {
            p2.add_constraint(c.coeffs.clone(), c.rel, c.rhs);
        }
        let s2 = p2.solve().optimal().expect("still optimal");
        prop_assert!((s1.objective - s2.objective).abs() < 1e-6);
    }

    /// The warm (revised dual simplex) engine must classify and value every
    /// generated LP — including infeasible ones — exactly as the reference.
    #[test]
    fn warm_matches_reference_on_mixed_lps(p in mixed_lp()) {
        assert_warm_matches_reference(&p, &mut WarmBasis::new())?;
    }

    /// Window regime: one skeleton, a walk of queue-like rhs/bound
    /// perturbations, one persistent basis. Every re-solve must match the
    /// reference, and after the first solve the basis must actually be
    /// reused (warm, not silently cold-restarted).
    #[test]
    fn warm_rhs_walk_matches_reference(
        p in bounded_lp(),
        deltas in proptest::collection::vec(
            (proptest::collection::vec(-3.0..3.0f64, 6), -2.0..2.0f64),
            1..8,
        ),
    ) {
        let mut warm = WarmBasis::new();
        assert_warm_matches_reference(&p, &mut warm)?;
        let mut window = p.clone();
        for (rhs_d, ub_d) in &deltas {
            for (i, d) in rhs_d.iter().take(window.n_constraints()).enumerate() {
                let rhs = window.constraints()[i].rhs;
                window.set_constraint_rhs(i, (rhs + d).max(0.1));
            }
            let ub0 = window.upper_bounds()[0].unwrap_or(20.0);
            window.set_upper_bound_exact(0, (ub0 + ub_d).max(0.0));
            assert_warm_matches_reference(&window, &mut warm)?;
        }
        let stats = warm.stats();
        prop_assert_eq!(stats.solves, 1 + deltas.len() as u64);
        prop_assert!(
            stats.warm_solves >= deltas.len() as u64,
            "expected warm reuse, got {:?}",
            stats
        );
    }

    /// A shape change mid-walk must be detected and answered with a cold
    /// restart that still matches the reference, and warm reuse must resume
    /// on the shape that follows.
    #[test]
    fn warm_shape_change_cold_restarts(a in bounded_lp(), b in mixed_lp()) {
        // Guarantee `b` really is a different shape (more rows than `a`).
        let mut b = b;
        while b.n_constraints() <= a.n_constraints() {
            b.add_constraint(vec![(0, 1.0)], Relation::Le, 1000.0);
        }
        let mut warm = WarmBasis::new();
        assert_warm_matches_reference(&a, &mut warm)?;
        assert_warm_matches_reference(&a, &mut warm)?;
        assert_warm_matches_reference(&b, &mut warm)?;
        let after_b = warm.stats().cold_starts;
        prop_assert!(after_b >= 2, "shape change must cold start: {:?}", warm.stats());
        assert_warm_matches_reference(&a, &mut warm)?;
    }

    /// Tightening a variable's upper bound never increases the optimum of a
    /// maximization with non-negative objective.
    #[test]
    fn monotone_in_upper_bounds(p in bounded_lp(), var in 0usize..6, cut in 0.1..0.9f64) {
        // Make the objective non-negative so monotonicity holds.
        let mut pos = p.clone();
        let obj: Vec<f64> = p.objective().iter().map(|c| c.abs()).collect();
        pos.set_objective(obj);
        let var = var % pos.n_vars();
        let s1 = pos.solve().optimal().expect("optimal");
        let mut tighter = pos.clone();
        let old = tighter.upper_bounds()[var].unwrap_or(20.0);
        tighter.set_upper_bound(var, old * cut);
        let s2 = tighter.solve().optimal().expect("optimal");
        prop_assert!(s2.objective <= s1.objective + 1e-6);
    }
}

/// A community window LP's fixed parts, laid out the way the community
/// scheduler lays them out: `θ` is variable 0, then one variable per
/// agreement-backed `(principal, server)` pair, with the pair's textbook
/// index `1 + i·n + k` as its tie-break id.
#[derive(Debug, Clone)]
struct Community {
    n: usize,
    capacity: Vec<f64>,
    /// `(principal, server, upper bound, mandatory part)` per pair,
    /// row-major.
    pairs: Vec<(usize, usize, f64, f64)>,
    /// Mean demand per principal and window, and the phase of its drift.
    demand: Vec<(f64, f64)>,
    seed: u64,
}

impl Community {
    /// Mandatory level `MC_i`: the pair floors of principal `i`.
    fn mandatory(&self, i: usize) -> f64 {
        self.pairs.iter().filter(|p| p.0 == i).map(|p| p.3).sum()
    }

    /// The rows of the window LP for queues `q`: per principal the queue
    /// limit `Σ_k x_ik ≤ n_i`, the coverage row `Σ_k x_ik − θ·n_i ≥ 0` and
    /// the floor `Σ_k x_ik ≥ min(MC_i, n_i)`, then one capacity row per
    /// server. Every window is the same shape.
    fn window_lp(&self, q: &[f64]) -> Problem {
        let mut p = Problem::new(1 + self.pairs.len());
        p.set_objective_coeff(0, 1.0);
        p.set_upper_bound(0, 1.0);
        for (e, &(i, k, ub, _)) in self.pairs.iter().enumerate() {
            p.set_upper_bound(1 + e, ub);
            p.set_tiebreak_id(1 + e, 1 + i * self.n + k);
        }
        let of = |pred: &dyn Fn(usize, usize) -> bool| -> Vec<(usize, f64)> {
            (self.pairs.iter().enumerate())
                .filter(|(_, &(i, k, ..))| pred(i, k))
                .map(|(e, _)| (1 + e, 1.0))
                .collect()
        };
        for (i, &qi) in q.iter().enumerate() {
            let row = of(&|pi, _| pi == i);
            p.add_constraint(row.clone(), Relation::Le, qi);
            let mut cov = vec![(0, -qi)];
            cov.extend_from_slice(&row);
            p.add_constraint(cov, Relation::Ge, 0.0);
            p.add_constraint(row, Relation::Ge, self.mandatory(i).min(qi));
        }
        for (k, &cap) in self.capacity.iter().enumerate() {
            p.add_constraint(of(&|_, pk| pk == k), Relation::Le, cap);
        }
        p
    }

    /// Window `w`'s queues: each mean drifting ±10 % on a 40-window sine
    /// and jittered ±5 % per window; with `idle`, one queue in sixteen is
    /// empty instead.
    fn queues(&self, w: usize, idle: bool) -> Vec<f64> {
        let mut h = self.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (self.demand.iter())
            .map(|&(mean, phase)| {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                let drift = 0.1 * (std::f64::consts::TAU * (w as f64 / 40.0 + phase)).sin();
                if idle && u < 1.0 / 16.0 {
                    0.0
                } else {
                    mean * (1.0 + drift + 0.1 * (u - 0.5))
                }
            })
            .collect()
    }
}

/// Strategy: a community of 2–8 principals. About half own a server; a
/// pair exists with probability 0.4 (always on a principal's own server),
/// its mandatory parts within each server's capacity; mean demand is
/// 0.2–2 times what the principal's pairs can carry, so `θ` mostly sits
/// strictly inside `(0, 1)` and stays basic.
fn community() -> impl Strategy<Value = Community> {
    (2usize..9).prop_flat_map(|n| {
        let caps = proptest::collection::vec((0.0..1.0f64, 20.0..200.0f64), n);
        let cells = proptest::collection::vec((0.0..1.0f64, 0.1..1.0f64, 0.0..1.0f64), n * n);
        let demand = proptest::collection::vec((0.2..2.0f64, 0.0..1.0f64), n);
        (caps, cells, demand, any::<u64>()).prop_map(move |(caps, cells, demand, seed)| {
            let capacity: Vec<f64> =
                caps.iter().map(|&(dice, cap)| if dice < 0.5 { cap } else { 0.0 }).collect();
            let mut pairs = Vec::new();
            for i in 0..n {
                for (k, &cap) in capacity.iter().enumerate() {
                    let (dice, ub, mand) = cells[i * n + k];
                    if cap > 0.0 && (i == k || dice < 0.4) {
                        pairs.push((i, k, cap * ub, cap * ub * mand));
                    }
                }
            }
            // Scale each server's mandatory parts into its capacity.
            for (k, &cap) in capacity.iter().enumerate() {
                let held: f64 = pairs.iter().filter(|p| p.1 == k).map(|p| p.3).sum();
                if held > cap {
                    for p in pairs.iter_mut().filter(|p| p.1 == k) {
                        p.3 *= cap / held;
                    }
                }
            }
            let demand = (0..n)
                .map(|i| {
                    let reach: f64 = pairs.iter().filter(|p| p.0 == i).map(|p| p.2).sum();
                    (demand[i].0 * (reach + 5.0), demand[i].1)
                })
                .collect();
            Community { n, capacity, pairs, demand, seed }
        })
    })
}

/// The refactorization cadence of a basis over `m` rows (see
/// `WarmBasis`): a rebuild once more etas have been appended than this.
fn cadence(m: usize) -> usize {
    m.clamp(8, 64 + m / 32)
}

/// What one persistent basis did over a community's windows.
struct Walk {
    rows: usize,
    cold_restarts: u64,
    /// Etas appended at least: one per pivot, one per window that rewrote
    /// the basic `θ` column.
    appended: u64,
    rebuilds: u64,
}

/// Follows 200 windows of `c`'s queues with one persistent basis, checking
/// every window's plan against a cold solve (the same canonical vertex
/// within 1e-9) and against the reference solver (its objective).
fn walk_windows(c: &Community, idle: bool) -> Result<Walk, TestCaseError> {
    const WINDOWS: usize = 200;
    let mut warm = WarmBasis::new();
    let first = c.window_lp(&c.queues(0, idle));
    prop_assert_eq!(first.solve_warm(&mut warm), WarmOutcome::Optimal);
    let start = warm.stats();
    let mut theta_updates = 0u64;
    for w in 1..=WINDOWS {
        let theta_basic = warm.x()[0] > 1e-9 && warm.x()[0] < 1.0 - 1e-9;
        let q = c.queues(w, idle);
        let p = c.window_lp(&q);
        prop_assert_eq!(p.solve_warm(&mut warm), WarmOutcome::Optimal, "window {}", w);
        let mut cold = WarmBasis::new();
        prop_assert_eq!(p.solve_warm(&mut cold), WarmOutcome::Optimal);
        for (j, (a, b)) in warm.x().iter().zip(cold.x()).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-9,
                "window {}, variable {}: warm {} vs cold {}", w, j, a, b
            );
        }
        match p.solve_reference() {
            LpOutcome::Optimal(s) => prop_assert!(
                (warm.objective_value() - s.objective).abs() < 1e-6,
                "window {}: warm {} vs reference {}", w, warm.objective_value(), s.objective
            ),
            other => prop_assert!(false, "window {}: reference returned {:?}", w, other),
        }
        // The θ column's coefficients are the queues: a basic θ is
        // replaced by one rank-one eta whenever they moved.
        if theta_basic && q != c.queues(w - 1, idle) {
            theta_updates += 1;
        }
    }
    let end = warm.stats();
    Ok(Walk {
        rows: first.n_constraints(),
        cold_restarts: end.cold_starts - start.cold_starts,
        appended: end.pivots - start.pivots + theta_updates,
        rebuilds: end.refactorizations - start.refactorizations,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The small-basis warm path against its oracles, over bases of 8–32
    /// rows. While every principal has demand the basis stays warm through
    /// all 200 windows, and the rebuild comes at the row-count cadence: no
    /// more than `cadence + 3` etas go between two rebuilds. Principals
    /// going idle are checked too; one that does while `θ` is basic zeroes
    /// the `θ` column's pivot entry and the basis restarts cold, so there
    /// only the plans are checked.
    #[test]
    fn small_basis_warm_windows_match_cold_and_reference(c in community()) {
        let busy = walk_windows(&c, false)?;
        prop_assert_eq!(busy.cold_restarts, 0, "a busy window fell back cold");
        prop_assert!(
            (busy.rebuilds + 1) * (cadence(busy.rows) as u64 + 3) >= busy.appended,
            "{} rebuilds for {} appended etas over {} rows", busy.rebuilds, busy.appended, busy.rows
        );
        walk_windows(&c, true)?;
    }
}
