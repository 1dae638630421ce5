//! Retained naive simplex — the correctness oracle for the fast solver.
//!
//! This is the original pedagogically-clear implementation: two-phase
//! primal simplex on a `Vec<Vec<f64>>` tableau, Bland's rule always on,
//! and a full pivot-row clone on every pivot. It is deliberately kept
//! unoptimized so property tests can check the optimized solver in
//! `simplex.rs` against an independent implementation (same outcome
//! classification, objectives within `1e-6`).

use crate::simplex::{LpOutcome, Solution, EPS};
use crate::{Problem, Relation};

/// Dense tableau state: `m` constraint rows over `ncols` columns plus a
/// trailing rhs column, an objective (reduced-cost) row, and the basis map.
struct Tableau {
    m: usize,
    ncols: usize,
    rows: Vec<Vec<f64>>, // each length ncols + 1 (rhs last)
    obj: Vec<f64>,       // length ncols + 1 (last cell = -objective value)
    basis: Vec<usize>,
    /// Columns allowed to enter the basis (artificials are barred in
    /// phase 2).
    enterable: Vec<bool>,
}

impl Tableau {
    fn rhs(&self, i: usize) -> f64 {
        self.rows[i][self.ncols]
    }

    /// Performs one pivot at (row `r`, column `s`).
    fn pivot(&mut self, r: usize, s: usize) {
        let piv = self.rows[r][s];
        debug_assert!(piv.abs() > EPS, "pivot too small: {piv}");
        let inv = 1.0 / piv;
        for v in &mut self.rows[r] {
            *v *= inv;
        }
        // Snapshot the pivot row to avoid aliasing while updating others.
        let prow = self.rows[r].clone();
        for i in 0..self.m {
            if i == r {
                continue;
            }
            let factor = self.rows[i][s];
            // Exact-zero skip of an untouched coefficient, not a tolerance.
            if factor != 0.0 { // covenant: allow(float-eq)
                for (v, p) in self.rows[i].iter_mut().zip(&prow) {
                    *v -= factor * p;
                }
                self.rows[i][s] = 0.0; // exact zero, fight drift
            }
        }
        let factor = self.obj[s];
        // Exact-zero skip of an untouched coefficient, not a tolerance.
        if factor != 0.0 { // covenant: allow(float-eq)
            for (v, p) in self.obj.iter_mut().zip(&prow) {
                *v -= factor * p;
            }
            self.obj[s] = 0.0;
        }
        self.basis[r] = s;
    }

    /// Runs simplex iterations until optimal/unbounded, using Bland's rule.
    fn run(&mut self, max_iters: usize) -> RunResult {
        for _ in 0..max_iters {
            // Bland entering rule: smallest-index column with positive
            // reduced cost.
            let Some(s) = (0..self.ncols).find(|&j| self.enterable[j] && self.obj[j] > EPS)
            else {
                return RunResult::Optimal;
            };
            // Ratio test, Bland tie-break on smallest basis index.
            let mut best: Option<(usize, f64)> = None;
            for i in 0..self.m {
                let a = self.rows[i][s];
                if a > EPS {
                    let ratio = self.rhs(i) / a;
                    match best {
                        None => best = Some((i, ratio)),
                        Some((bi, br)) => {
                            if ratio < br - EPS
                                || (ratio < br + EPS && self.basis[i] < self.basis[bi])
                            {
                                best = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            match best {
                Some((r, _)) => self.pivot(r, s),
                None => return RunResult::Unbounded,
            }
        }
        RunResult::IterationLimit
    }

    /// Rebuilds the objective row for cost vector `c` (length `ncols`),
    /// pricing out the current basis.
    fn install_objective(&mut self, c: &[f64]) {
        self.obj = c.to_vec();
        self.obj.push(0.0);
        for i in 0..self.m {
            let cb = c[self.basis[i]];
            // Exact-zero basis-cost skip, not a tolerance.
            if cb != 0.0 { // covenant: allow(float-eq)
                let row = self.rows[i].clone();
                for (v, p) in self.obj.iter_mut().zip(&row) {
                    *v -= cb * p;
                }
            }
        }
    }
}

enum RunResult {
    Optimal,
    Unbounded,
    IterationLimit,
}

/// Solves `problem` with the naive two-phase simplex method.
pub fn solve_reference(problem: &Problem) -> LpOutcome {
    let n = problem.n_vars();

    // Collect rows: structural coefficients (dense), relation, rhs — with
    // ranged rows split in two and upper bounds materialized as additional
    // `≤` rows.
    struct Row {
        a: Vec<f64>,
        rel: Relation,
        rhs: f64,
    }
    let mut raw: Vec<Row> = Vec::with_capacity(problem.n_constraints());
    for (coeffs, rel, rhs) in problem.split_rows() {
        let mut a = vec![0.0; n];
        for &(i, v) in coeffs {
            a[i] += v;
        }
        raw.push(Row { a, rel, rhs });
    }
    for (i, ub) in problem.upper_bounds().iter().enumerate() {
        if let Some(u) = ub {
            let mut a = vec![0.0; n];
            a[i] = 1.0;
            raw.push(Row { a, rel: Relation::Le, rhs: *u });
        }
    }

    // Normalize to rhs >= 0.
    for row in &mut raw {
        if row.rhs < 0.0 {
            for v in &mut row.a {
                *v = -*v;
            }
            row.rhs = -row.rhs;
            row.rel = match row.rel {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
    }

    let m = raw.len();
    // Column layout: [0, n) structural | slacks/surplus | artificials.
    let n_slack = raw
        .iter()
        .filter(|r| matches!(r.rel, Relation::Le | Relation::Ge))
        .count();
    let n_art = raw
        .iter()
        .filter(|r| matches!(r.rel, Relation::Ge | Relation::Eq))
        .count();
    let ncols = n + n_slack + n_art;

    let mut rows = vec![vec![0.0; ncols + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut is_artificial = vec![false; ncols];
    let mut slack_at = n;
    let mut art_at = n + n_slack;

    for (i, row) in raw.iter().enumerate() {
        rows[i][..n].copy_from_slice(&row.a);
        rows[i][ncols] = row.rhs;
        match row.rel {
            Relation::Le => {
                rows[i][slack_at] = 1.0;
                basis[i] = slack_at;
                slack_at += 1;
            }
            Relation::Ge => {
                rows[i][slack_at] = -1.0;
                slack_at += 1;
                rows[i][art_at] = 1.0;
                is_artificial[art_at] = true;
                basis[i] = art_at;
                art_at += 1;
            }
            Relation::Eq => {
                rows[i][art_at] = 1.0;
                is_artificial[art_at] = true;
                basis[i] = art_at;
                art_at += 1;
            }
        }
    }

    let mut t = Tableau {
        m,
        ncols,
        rows,
        obj: vec![0.0; ncols + 1],
        basis,
        enterable: vec![true; ncols],
    };
    let max_iters = 200 * (m + ncols + 16);

    // Phase 1: maximize -(sum of artificials); optimum 0 iff feasible.
    if n_art > 0 {
        let mut c1 = vec![0.0; ncols];
        for (j, flag) in is_artificial.iter().enumerate() {
            if *flag {
                c1[j] = -1.0;
            }
        }
        t.install_objective(&c1);
        match t.run(max_iters) {
            RunResult::Optimal => {}
            RunResult::Unbounded => return LpOutcome::Numerical, // cannot happen: bounded above by 0
            RunResult::IterationLimit => return LpOutcome::Numerical,
        }
        let phase1_value = -t.obj[ncols]; // = max of -(Σ art)
        if phase1_value < -1e-7 {
            return LpOutcome::Infeasible;
        }
        // Drive any still-basic artificials out of the basis.
        for i in 0..t.m {
            if is_artificial[t.basis[i]] {
                if let Some(s) =
                    (0..ncols).find(|&j| !is_artificial[j] && t.rows[i][j].abs() > EPS)
                {
                    t.pivot(i, s);
                }
                // If no pivot column exists the row is redundant (all-zero in
                // structural/slack space); the artificial stays basic at
                // value 0 and is harmless because it cannot re-enter.
            }
        }
        for (j, flag) in is_artificial.iter().enumerate() {
            if *flag {
                t.enterable[j] = false;
            }
        }
    }

    // Phase 2: the real objective.
    let mut c2 = vec![0.0; ncols];
    c2[..n].copy_from_slice(problem.objective());
    t.install_objective(&c2);
    match t.run(max_iters) {
        RunResult::Optimal => {
            let mut x = vec![0.0; n];
            for i in 0..t.m {
                let b = t.basis[i];
                if b < n {
                    x[b] = t.rhs(i).max(0.0);
                }
            }
            let objective = problem.objective_at(&x);
            LpOutcome::Optimal(Solution { x, objective })
        }
        RunResult::Unbounded => LpOutcome::Unbounded,
        RunResult::IterationLimit => LpOutcome::Numerical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_solves_the_basic_cases() {
        // max 3x + 2y st x+y<=4, x+3y<=6 -> x=4, y=0, z=12.
        let mut p = Problem::new(2);
        p.set_objective(vec![3.0, 2.0]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(0, 1.0), (1, 3.0)], Relation::Le, 6.0);
        let s = solve_reference(&p).expect_optimal("basic");
        assert!((s.objective - 12.0).abs() < 1e-9);

        let mut inf = Problem::new(1);
        inf.add_constraint(vec![(0, 1.0)], Relation::Ge, 5.0);
        inf.add_constraint(vec![(0, 1.0)], Relation::Le, 3.0);
        assert_eq!(solve_reference(&inf), LpOutcome::Infeasible);

        let mut unb = Problem::new(2);
        unb.set_objective(vec![1.0, 0.0]);
        unb.add_constraint(vec![(1, 1.0)], Relation::Le, 1.0);
        assert_eq!(solve_reference(&unb), LpOutcome::Unbounded);
    }

    #[test]
    fn oracle_handles_degeneracy_via_bland() {
        // Beale's cycling example terminates under Bland's rule.
        let mut p = Problem::new(4);
        p.set_objective(vec![0.75, -150.0, 0.02, -6.0]);
        p.add_constraint(
            vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(
            vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(vec![(2, 1.0)], Relation::Le, 1.0);
        let s = solve_reference(&p).expect_optimal("beale");
        assert!((s.objective - 0.05).abs() < 1e-9);
    }
}
