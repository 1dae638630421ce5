//! Two-phase primal simplex on a flat dense tableau.
//!
//! This is the fast path behind [`Problem::solve`]. Four things make it
//! quick on the workspace's per-window LPs:
//!
//! - **Flat storage**: the tableau is one row-major `Vec<f64>` with stride
//!   `ncols + 1`, and pivots combine row pairs via `split_at_mut` — no
//!   per-pivot row clone, no per-row allocations.
//! - **Implicit upper bounds**: variable bounds `x_j ≤ u_j` are handled by
//!   the bounded-variable ratio test (nonbasic variables sit at either
//!   bound; reaching the upper bound is a column flip, not a pivot) instead
//!   of explicit rows. The window LPs bound every one of their
//!   variables (one per agreement-backed pair of principals), so this
//!   shrinks the tableau by the dominant term — and a variable bounded to
//!   zero drops out of pricing entirely.
//! - **Dantzig pricing with a Bland fallback**: the entering column is the
//!   most positive reduced cost (fast in practice), and after
//!   [`SimplexWorkspace::bland_after`] consecutive non-improving pivots the
//!   solver switches to Bland's smallest-index rule, which provably cannot
//!   cycle. A strict objective improvement resets the streak (and the rule
//!   back to Dantzig); since the objective is non-decreasing and there are
//!   finitely many bases, termination is preserved.
//! - **Workspace reuse**: all buffers live in a [`SimplexWorkspace`];
//!   repeated solves of same-shaped problems perform zero heap allocation
//!   after warm-up (see [`Problem::solve_in_place`]).
//!
//! Bound flips use the textbook substitution `x_j = u_j − x̃_j` (Chvátal's
//! bounded simplex): a flipped column keeps all nonbasic values at zero in
//! the substituted space, so pricing and the ratio test stay uniform.
//!
//! The original `Vec<Vec<f64>>` Bland-only implementation (upper bounds as
//! explicit rows) is retained in [`crate::reference`] as the correctness
//! oracle.

use crate::{Problem, Relation};

/// Numerical tolerance used for pivoting and feasibility classification.
pub const EPS: f64 = 1e-9;

/// Default degeneracy streak (consecutive non-improving pivots) after which
/// pricing falls back from Dantzig to Bland's anti-cycling rule.
pub const DEFAULT_BLAND_AFTER: usize = 16;

/// An optimal solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal values of the structural variables.
    pub x: Vec<f64>,
    /// Objective value `c·x`.
    pub objective: f64,
}

/// Result of solving a [`Problem`].
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// A finite optimum was found.
    Optimal(Solution),
    /// No point satisfies the constraints.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
    /// The iteration safety cap was hit (cannot happen once the Bland
    /// fallback engages unless the problem is numerically hostile — or the
    /// fallback was disabled via [`SimplexWorkspace::with_bland_after`]).
    Numerical,
}

impl LpOutcome {
    /// Unwraps the optimal solution, panicking otherwise.
    pub fn expect_optimal(self, msg: &str) -> Solution {
        match self {
            LpOutcome::Optimal(s) => s,
            other => panic!("{msg}: {other:?}"),
        }
    }

    /// Returns the solution if optimal.
    pub fn optimal(self) -> Option<Solution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// Status of an in-place solve; on `Optimal` the solution is readable from
/// the workspace via [`SimplexWorkspace::x`] and
/// [`SimplexWorkspace::objective_value`] without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// A finite optimum was found (solution left in the workspace).
    Optimal,
    /// No point satisfies the constraints.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
    /// Iteration cap hit (severe numerical trouble or disabled fallback).
    Numerical,
}

/// Reusable buffers and pricing configuration for the simplex solver.
///
/// Create one per scheduler (or per thread) and pass it to
/// [`Problem::solve_with`] / [`Problem::solve_in_place`]; after the first
/// solve of a given shape, subsequent solves of same-shaped problems do not
/// touch the allocator.
#[derive(Debug, Clone)]
pub struct SimplexWorkspace {
    tab: Vec<f64>,            // m rows × stride (ncols + 1, rhs last)
    obj: Vec<f64>,            // stride; last cell = -objective value
    basis: Vec<usize>,        // m
    enterable: Vec<bool>,     // ncols
    is_artificial: Vec<bool>, // ncols
    ub: Vec<f64>,             // ncols; +∞ where unbounded
    flipped: Vec<bool>,       // ncols; column substituted x = u − x̃
    cost: Vec<f64>,           // ncols scratch for install_objective
    x: Vec<f64>,              // n; solution of the last optimal solve
    last_objective: f64,
    bland_after: usize,
    solves: u64,
    pivots: u64,
    bland_pivots: u64,
}

impl Default for SimplexWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl SimplexWorkspace {
    /// An empty workspace with default (Dantzig + Bland fallback) pricing.
    pub fn new() -> Self {
        SimplexWorkspace {
            tab: Vec::new(),
            obj: Vec::new(),
            basis: Vec::new(),
            enterable: Vec::new(),
            is_artificial: Vec::new(),
            ub: Vec::new(),
            flipped: Vec::new(),
            cost: Vec::new(),
            x: Vec::new(),
            last_objective: 0.0,
            bland_after: DEFAULT_BLAND_AFTER,
            solves: 0,
            pivots: 0,
            bland_pivots: 0,
        }
    }

    /// Overrides the degeneracy streak that triggers the Bland fallback.
    ///
    /// `0` forces pure Bland (the reference behavior); `usize::MAX`
    /// disables the fallback entirely (pure Dantzig — loses the
    /// anti-cycling guarantee; only useful for tests demonstrating it).
    pub fn with_bland_after(mut self, streak: usize) -> Self {
        self.bland_after = streak;
        self
    }

    /// The configured Bland-fallback degeneracy streak.
    pub fn bland_after(&self) -> usize {
        self.bland_after
    }

    /// Structural-variable values of the last optimal solve.
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Objective value of the last optimal solve.
    pub fn objective_value(&self) -> f64 {
        self.last_objective
    }

    /// Total solves performed through this workspace.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Total pivots performed (all pricing rules).
    pub fn pivots(&self) -> u64 {
        self.pivots
    }

    /// Pivots performed while the Bland fallback was engaged.
    pub fn bland_pivots(&self) -> u64 {
        self.bland_pivots
    }
}

enum RunResult {
    Optimal,
    Unbounded,
    IterationLimit,
}

/// Subtracts `row[s] × prow` from `row`, zeroing column `s` exactly.
#[inline]
fn eliminate(row: &mut [f64], prow: &[f64], s: usize) {
    let factor = row[s];
    // Exact-zero skip of an untouched coefficient, not a tolerance.
    if factor != 0.0 { // covenant: allow(float-eq)
        for (v, p) in row.iter_mut().zip(prow) {
            *v -= factor * p;
        }
        row[s] = 0.0; // exact zero, fight drift
    }
}

/// One pivot at (row `r`, column `s`) on the flat tableau. The pivot row is
/// borrowed disjointly via `split_at_mut`, so no snapshot copy is needed.
fn pivot(
    tab: &mut [f64],
    obj: &mut [f64],
    basis: &mut [usize],
    stride: usize,
    r: usize,
    s: usize,
) {
    let (head, rest) = tab.split_at_mut(r * stride);
    let (prow, tail) = rest.split_at_mut(stride);
    let piv = prow[s];
    debug_assert!(piv.abs() > EPS, "pivot too small: {piv}");
    let inv = 1.0 / piv;
    for v in prow.iter_mut() {
        *v *= inv;
    }
    for row in head.chunks_exact_mut(stride) {
        eliminate(row, prow, s);
    }
    for row in tail.chunks_exact_mut(stride) {
        eliminate(row, prow, s);
    }
    eliminate(obj, prow, s);
    basis[r] = s;
}

/// Rebuilds the objective row for the cost vector in `ws.cost`, pricing out
/// the current basis. `ws.cost` is in original coordinates; flipped columns
/// (`x = u − x̃`) get a negated cost and contribute `c·u` to the constant.
fn install_objective(ws: &mut SimplexWorkspace, stride: usize) {
    let ncols = stride - 1;
    ws.obj[ncols] = 0.0;
    for j in 0..ncols {
        if ws.flipped[j] {
            ws.obj[j] = -ws.cost[j];
            ws.obj[ncols] -= ws.cost[j] * ws.ub[j];
        } else {
            ws.obj[j] = ws.cost[j];
        }
    }
    for (i, &b) in ws.basis.iter().enumerate() {
        let cb = if ws.flipped[b] { -ws.cost[b] } else { ws.cost[b] };
        // Exact-zero basis-cost skip, not a tolerance.
        if cb != 0.0 { // covenant: allow(float-eq)
            let row = &ws.tab[i * stride..(i + 1) * stride];
            for (v, p) in ws.obj.iter_mut().zip(row) {
                *v -= cb * p;
            }
        }
    }
}

/// Moves nonbasic column `s` to its (finite) upper bound: substitutes
/// `x_s = u_s − x̃_s`, negating the column and charging `u_s` against every
/// row's rhs and the objective constant. No basis change.
fn flip_column(ws: &mut SimplexWorkspace, m: usize, stride: usize, s: usize) {
    let ncols = stride - 1;
    let u = ws.ub[s];
    debug_assert!(u.is_finite());
    for i in 0..m {
        let row = &mut ws.tab[i * stride..(i + 1) * stride];
        let a = row[s];
        // Exact-zero column skip, not a tolerance.
        if a != 0.0 { // covenant: allow(float-eq)
            row[ncols] -= a * u;
            row[s] = -a;
        }
    }
    let rc = ws.obj[s];
    ws.obj[ncols] -= rc * u;
    ws.obj[s] = -rc;
    ws.flipped[s] = !ws.flipped[s];
}

/// Simplex iterations until optimal/unbounded: Dantzig pricing, falling
/// back to Bland's rule after `bland_after` consecutive non-improving
/// pivots, resetting on every strict improvement.
fn run(ws: &mut SimplexWorkspace, m: usize, stride: usize, max_iters: usize) -> RunResult {
    let ncols = stride - 1;
    let mut streak = 0usize;
    for _ in 0..max_iters {
        let bland = streak >= ws.bland_after;
        // Entering column.
        let entering = if bland {
            // Bland: smallest-index improving column.
            (0..ncols).find(|&j| ws.enterable[j] && ws.obj[j] > EPS)
        } else {
            // Dantzig: most positive reduced cost.
            let mut best = None;
            let mut best_cost = EPS;
            for (j, &rc) in ws.obj[..ncols].iter().enumerate() {
                if ws.enterable[j] && rc > best_cost {
                    best_cost = rc;
                    best = Some(j);
                }
            }
            best
        };
        let Some(s) = entering else {
            return RunResult::Optimal;
        };
        // Bounded ratio test: the entering variable rises until a basic
        // variable hits zero (column > 0), a *bounded* basic variable hits
        // its upper bound (column < 0), or the entering variable hits its
        // own upper bound (a bound flip — no pivot). Ties between rows go
        // to the smallest basis index under Bland (required for the
        // anti-cycling guarantee) and to the smallest row index under
        // Dantzig (the classic textbook rule).
        let mut best: Option<(usize, f64, bool)> = None;
        for i in 0..m {
            let a = ws.tab[i * stride + s];
            let (ratio, leaves_at_upper) = if a > EPS {
                (ws.tab[i * stride + ncols] / a, false)
            } else if a < -EPS {
                let bub = ws.ub[ws.basis[i]];
                if !bub.is_finite() {
                    continue;
                }
                ((bub - ws.tab[i * stride + ncols]) / -a, true)
            } else {
                continue;
            };
            match best {
                None => best = Some((i, ratio, leaves_at_upper)),
                Some((bi, br, _)) => {
                    if ratio < br - EPS
                        || (bland && ratio < br + EPS && ws.basis[i] < ws.basis[bi])
                    {
                        best = Some((i, ratio, leaves_at_upper));
                    }
                }
            }
        }
        let before = -ws.obj[ncols];
        let own_ub = ws.ub[s];
        if own_ub.is_finite() && best.is_none_or(|(_, br, _)| own_ub <= br) {
            // The entering variable saturates first: flip it to its upper
            // bound. Strictly improving (rc > EPS, u > EPS), so no streak.
            flip_column(ws, m, stride, s);
            streak = 0;
            continue;
        }
        let Some((r, _, leaves_at_upper)) = best else {
            return RunResult::Unbounded;
        };
        if leaves_at_upper {
            // The leaving basic variable exits at its *upper* bound:
            // substitute it (`x_l = u_l − x̃_l` negates its own unit column
            // and charges `u_l` to the rhs), then negate the whole row so
            // x̃_l is basic at `u_l − b ≥ 0` — leaving at zero in the
            // substituted space — and pivot normally on the now-positive
            // column entry. The two negations cancel on column `l` itself,
            // which stays the exact unit it was.
            let l = ws.basis[r];
            let row = &mut ws.tab[r * stride..(r + 1) * stride];
            row[ncols] -= ws.ub[l];
            for v in row.iter_mut() {
                *v = -*v;
            }
            row[l] = 1.0;
            ws.flipped[l] = !ws.flipped[l];
        }
        pivot(&mut ws.tab, &mut ws.obj, &mut ws.basis, stride, r, s);
        ws.pivots += 1;
        if bland {
            ws.bland_pivots += 1;
        }
        let after = -ws.obj[ncols];
        if after > before + EPS {
            streak = 0;
        } else {
            streak = streak.saturating_add(1);
        }
    }
    RunResult::IterationLimit
}

/// Effective relation of a row once its rhs is normalized non-negative.
#[inline]
fn effective_rel(rel: Relation, rhs: f64) -> Relation {
    if rhs >= 0.0 {
        return rel;
    }
    match rel {
        Relation::Le => Relation::Ge,
        Relation::Ge => Relation::Le,
        Relation::Eq => Relation::Eq,
    }
}

/// Solves `problem` into `ws`, reusing its buffers. See
/// [`Problem::solve_in_place`].
pub(crate) fn solve_in_place(problem: &Problem, ws: &mut SimplexWorkspace) -> LpStatus {
    ws.solves += 1;
    let n = problem.n_vars();

    // Row census. Upper bounds are handled as column bounds by the ratio
    // test, not as rows, so only the real constraints shape the tableau.
    let m = problem.n_constraints();
    let mut n_slack = 0;
    let mut n_art = 0;
    for c in problem.constraints() {
        match effective_rel(c.rel, c.rhs) {
            Relation::Le => n_slack += 1,
            Relation::Ge => {
                n_slack += 1;
                n_art += 1;
            }
            Relation::Eq => n_art += 1,
        }
    }
    let ncols = n + n_slack + n_art;
    let stride = ncols + 1;

    // Size the buffers; `clear` + `resize` keeps capacity, so same-shaped
    // solves allocate nothing after the first.
    ws.tab.clear();
    ws.tab.resize(m * stride, 0.0);
    ws.obj.clear();
    ws.obj.resize(stride, 0.0);
    ws.basis.clear();
    ws.basis.resize(m, usize::MAX);
    ws.enterable.clear();
    ws.enterable.resize(ncols, true);
    ws.is_artificial.clear();
    ws.is_artificial.resize(ncols, false);
    ws.ub.clear();
    ws.ub.resize(ncols, f64::INFINITY);
    ws.flipped.clear();
    ws.flipped.resize(ncols, false);
    ws.cost.clear();
    ws.cost.resize(ncols, 0.0);
    for (j, ub) in problem.upper_bounds().iter().enumerate() {
        if let Some(u) = ub {
            let u = u.max(0.0);
            ws.ub[j] = u;
            if u <= EPS {
                // Fixed at zero: never enters, never flips.
                ws.enterable[j] = false;
            }
        }
    }

    // Fill rows. Column layout: [0, n) structural | slacks | artificials.
    let mut slack_at = n;
    let mut art_at = n + n_slack;
    let mut fill = |ws: &mut SimplexWorkspace, i: usize, rel: Relation| match rel {
        Relation::Le => {
            ws.tab[i * stride + slack_at] = 1.0;
            ws.basis[i] = slack_at;
            slack_at += 1;
        }
        Relation::Ge => {
            ws.tab[i * stride + slack_at] = -1.0;
            slack_at += 1;
            ws.tab[i * stride + art_at] = 1.0;
            ws.is_artificial[art_at] = true;
            ws.basis[i] = art_at;
            art_at += 1;
        }
        Relation::Eq => {
            ws.tab[i * stride + art_at] = 1.0;
            ws.is_artificial[art_at] = true;
            ws.basis[i] = art_at;
            art_at += 1;
        }
    };
    for (i, c) in problem.constraints().iter().enumerate() {
        let sign = if c.rhs < 0.0 { -1.0 } else { 1.0 };
        let row = &mut ws.tab[i * stride..(i + 1) * stride];
        for &(j, v) in &c.coeffs {
            row[j] += sign * v;
        }
        row[ncols] = sign * c.rhs;
        fill(ws, i, effective_rel(c.rel, c.rhs));
    }

    let max_iters = 200 * (m + ncols + 16);

    // Phase 1: maximize -(sum of artificials); optimum 0 iff feasible.
    if n_art > 0 {
        for j in 0..ncols {
            ws.cost[j] = if ws.is_artificial[j] { -1.0 } else { 0.0 };
        }
        install_objective(ws, stride);
        match run(ws, m, stride, max_iters) {
            RunResult::Optimal => {}
            // Unbounded cannot happen: the objective is bounded above by 0.
            RunResult::Unbounded | RunResult::IterationLimit => return LpStatus::Numerical,
        }
        let phase1_value = -ws.obj[ncols];
        if phase1_value < -1e-7 {
            return LpStatus::Infeasible;
        }
        // Drive any still-basic artificials out of the basis.
        for r in 0..m {
            if ws.is_artificial[ws.basis[r]] {
                if let Some(s) = (0..ncols)
                    .find(|&j| !ws.is_artificial[j] && ws.tab[r * stride + j].abs() > EPS)
                {
                    pivot(&mut ws.tab, &mut ws.obj, &mut ws.basis, stride, r, s);
                    ws.pivots += 1;
                }
                // If no pivot column exists the row is redundant (all-zero in
                // structural/slack space); the artificial stays basic at
                // value 0 and is harmless because it cannot re-enter.
            }
        }
        for j in 0..ncols {
            if ws.is_artificial[j] {
                ws.enterable[j] = false;
            }
        }
    }

    // Phase 2: the real objective.
    for j in 0..ncols {
        ws.cost[j] = if j < n { problem.objective()[j] } else { 0.0 };
    }
    install_objective(ws, stride);
    match run(ws, m, stride, max_iters) {
        RunResult::Optimal => {
            ws.x.clear();
            ws.x.resize(n, 0.0);
            for j in 0..n {
                if ws.flipped[j] {
                    ws.x[j] = ws.ub[j]; // nonbasic at its upper bound
                }
            }
            for r in 0..m {
                let b = ws.basis[r];
                if b < n {
                    let v = ws.tab[r * stride + ncols].max(0.0);
                    ws.x[b] = if ws.flipped[b] { (ws.ub[b] - v).max(0.0) } else { v };
                }
            }
            ws.last_objective = problem.objective_at(&ws.x);
            LpStatus::Optimal
        }
        RunResult::Unbounded => LpStatus::Unbounded,
        RunResult::IterationLimit => LpStatus::Numerical,
    }
}

/// Solves `problem` through `ws`, returning an owning [`LpOutcome`].
pub(crate) fn solve_with(problem: &Problem, ws: &mut SimplexWorkspace) -> LpOutcome {
    match solve_in_place(problem, ws) {
        LpStatus::Optimal => LpOutcome::Optimal(Solution {
            x: ws.x.clone(),
            objective: ws.last_objective,
        }),
        LpStatus::Infeasible => LpOutcome::Infeasible,
        LpStatus::Unbounded => LpOutcome::Unbounded,
        LpStatus::Numerical => LpOutcome::Numerical,
    }
}

/// Solves `problem` with a throwaway workspace.
pub(crate) fn solve_tableau(problem: &Problem) -> LpOutcome {
    solve_with(problem, &mut SimplexWorkspace::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Problem, Relation};

    fn optimal(p: &Problem) -> Solution {
        let s = p.solve().expect_optimal("expected optimal");
        // Cross-check every unit-test case against the retained oracle.
        let r = crate::reference::solve_reference(p).expect_optimal("oracle optimal");
        assert!(
            (s.objective - r.objective).abs() < 1e-6,
            "fast {} vs oracle {}",
            s.objective,
            r.objective
        );
        s
    }

    #[test]
    fn basic_two_var_max() {
        // max 3x + 2y st x+y<=4, x+3y<=6 -> x=4, y=0, z=12.
        let mut p = Problem::new(2);
        p.set_objective(vec![3.0, 2.0]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(0, 1.0), (1, 3.0)], Relation::Le, 6.0);
        let s = optimal(&p);
        assert!((s.objective - 12.0).abs() < 1e-9);
        assert!((s.x[0] - 4.0).abs() < 1e-9);
        assert!(s.x[1].abs() < 1e-9);
    }

    #[test]
    fn interior_optimum() {
        // max x + y st x + 2y <= 4, 4x + 2y <= 12 -> x=8/3, y=2/3, z=10/3.
        let mut p = Problem::new(2);
        p.set_objective(vec![1.0, 1.0]);
        p.add_constraint(vec![(0, 1.0), (1, 2.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(0, 4.0), (1, 2.0)], Relation::Le, 12.0);
        let s = optimal(&p);
        assert!((s.objective - 10.0 / 3.0).abs() < 1e-9);
        assert!((s.x[0] - 8.0 / 3.0).abs() < 1e-9);
        assert!((s.x[1] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn ge_and_eq_constraints() {
        // min x + y st x + y >= 2, x = 0.5  ->  max -(x+y): x=0.5, y=1.5.
        let mut p = Problem::new(2);
        p.set_objective(vec![-1.0, -1.0]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 2.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Eq, 0.5);
        let s = optimal(&p);
        assert!((s.objective + 2.0).abs() < 1e-9);
        assert!((s.x[0] - 0.5).abs() < 1e-9);
        assert!((s.x[1] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn negative_rhs_normalization() {
        // x - y <= -1 with x,y>=0: i.e. y >= x + 1. max x st also y <= 3.
        let mut p = Problem::new(2);
        p.set_objective(vec![1.0, 0.0]);
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], Relation::Le, -1.0);
        p.set_upper_bound(1, 3.0);
        let s = optimal(&p);
        assert!((s.x[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(1);
        p.set_objective(vec![1.0]);
        p.add_constraint(vec![(0, 1.0)], Relation::Ge, 5.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 3.0);
        assert_eq!(p.solve(), LpOutcome::Infeasible);
    }

    #[test]
    fn contradictory_equalities_infeasible() {
        let mut p = Problem::new(2);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 1.0);
        p.add_constraint(vec![(0, 2.0), (1, 2.0)], Relation::Eq, 3.0);
        assert_eq!(p.solve(), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(2);
        p.set_objective(vec![1.0, 0.0]);
        p.add_constraint(vec![(1, 1.0)], Relation::Le, 1.0);
        assert_eq!(p.solve(), LpOutcome::Unbounded);
    }

    #[test]
    fn bounded_by_upper_bounds_only() {
        let mut p = Problem::new(3);
        p.set_objective(vec![1.0, 2.0, 3.0]);
        p.set_upper_bound(0, 1.0);
        p.set_upper_bound(1, 2.0);
        p.set_upper_bound(2, 3.0);
        let s = optimal(&p);
        assert!((s.objective - 14.0).abs() < 1e-9);
        assert_eq!(s.x, vec![1.0, 2.0, 3.0]);
    }

    fn beale() -> Problem {
        // Beale's classic cycling example: degenerate at the origin, cycles
        // under pure Dantzig pricing with textbook tie-breaking.
        // max 0.75x1 - 150x2 + 0.02x3 - 6x4
        // st   0.25x1 - 60x2 - 0.04x3 + 9x4 <= 0
        //      0.5x1 - 90x2 - 0.02x3 + 3x4 <= 0
        //      x3 <= 1
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
        p
    }

    #[test]
    fn degenerate_does_not_cycle() {
        let s = optimal(&beale());
        assert!((s.objective - 0.05).abs() < 1e-9, "objective {}", s.objective);
    }

    #[test]
    fn bland_fallback_engages_on_degenerate_streaks() {
        // With an immediate fallback the solver behaves like pure Bland and
        // must record its pivots as Bland pivots.
        let mut ws = SimplexWorkspace::new().with_bland_after(0);
        let out = beale().solve_with(&mut ws);
        let s = out.expect_optimal("beale under pure Bland");
        assert!((s.objective - 0.05).abs() < 1e-9);
        assert_eq!(ws.pivots(), ws.bland_pivots());
        assert!(ws.pivots() > 0);
    }

    #[test]
    fn pure_dantzig_cycles_but_fallback_terminates() {
        // Regression guard for the anti-cycling design: with the fallback
        // disabled, pure Dantzig pricing cycles on Beale's example until the
        // iteration cap trips; the default streak threshold switches to
        // Bland's rule and reaches the optimum in a handful of pivots.
        let mut pure = SimplexWorkspace::new().with_bland_after(usize::MAX);
        assert_eq!(beale().solve_with(&mut pure), LpOutcome::Numerical);
        let mut ws = SimplexWorkspace::new();
        let s = beale().solve_with(&mut ws).expect_optimal("fallback terminates");
        assert!((s.objective - 0.05).abs() < 1e-9);
        assert!(ws.bland_pivots() > 0, "fallback never engaged");
        assert!(ws.pivots() < pure.pivots());
    }

    #[test]
    fn workspace_reuse_is_deterministic_across_shapes() {
        // One workspace, alternating problem shapes — results must match
        // fresh-workspace solves exactly.
        let mut ws = SimplexWorkspace::new();
        let p1 = beale();
        let mut p2 = Problem::new(2);
        p2.set_objective(vec![3.0, 2.0]);
        p2.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
        for _ in 0..3 {
            let a = p1.solve_with(&mut ws);
            let b = p1.solve();
            assert_eq!(a, b);
            let a = p2.solve_with(&mut ws);
            let b = p2.solve();
            assert_eq!(a, b);
        }
        assert_eq!(ws.solves(), 6);
    }

    #[test]
    fn solve_in_place_exposes_solution_without_outcome() {
        let mut ws = SimplexWorkspace::new();
        let mut p = Problem::new(2);
        p.set_objective(vec![3.0, 2.0]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
        assert_eq!(p.solve_in_place(&mut ws), LpStatus::Optimal);
        assert!((ws.objective_value() - 12.0).abs() < 1e-9);
        assert!((ws.x()[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_equality_rows() {
        // Duplicate equalities should not confuse phase 1.
        let mut p = Problem::new(2);
        p.set_objective(vec![1.0, 1.0]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 2.0);
        p.add_constraint(vec![(0, 2.0), (1, 2.0)], Relation::Eq, 4.0);
        let s = optimal(&p);
        assert!((s.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_variable_problem() {
        let p = Problem::new(0);
        let s = optimal(&p);
        assert_eq!(s.x.len(), 0);
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn zero_variable_infeasible() {
        let mut p = Problem::new(0);
        p.add_constraint(vec![], Relation::Ge, 1.0);
        assert_eq!(p.solve(), LpOutcome::Infeasible);
    }

    #[test]
    fn duplicate_coefficients_are_summed() {
        // (0,1.0) twice means coefficient 2.
        let mut p = Problem::new(1);
        p.set_objective(vec![1.0]);
        p.add_constraint(vec![(0, 1.0), (0, 1.0)], Relation::Le, 4.0);
        let s = optimal(&p);
        assert!((s.x[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn community_theta_shape() {
        // A miniature of the paper's community LP: maximize theta with
        // x_a >= theta*n_a, x_b >= theta*n_b, x_a + x_b <= V.
        // vars: [theta, x_a, x_b], n_a = 40, n_b = 20, V = 30.
        let mut p = Problem::new(3);
        p.set_objective(vec![1.0, 0.0, 0.0]);
        p.add_constraint(vec![(1, 1.0), (0, -40.0)], Relation::Ge, 0.0);
        p.add_constraint(vec![(2, 1.0), (0, -20.0)], Relation::Ge, 0.0);
        p.add_constraint(vec![(1, 1.0), (2, 1.0)], Relation::Le, 30.0);
        p.set_upper_bound(1, 40.0);
        p.set_upper_bound(2, 20.0);
        let s = optimal(&p);
        // theta = 30/60 = 0.5 -> x_a = 20, x_b = 10.
        assert!((s.x[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn solver_is_deterministic() {
        let mut p = Problem::new(3);
        p.set_objective(vec![1.0, 1.0, 1.0]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Le, 10.0);
        p.add_constraint(vec![(0, 2.0), (1, 1.0)], Relation::Le, 8.0);
        let a = optimal(&p);
        let b = optimal(&p);
        assert_eq!(a, b);
    }
}
