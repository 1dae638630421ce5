//! Problem construction API.

use crate::simplex::{self, LpOutcome, LpStatus, SimplexWorkspace};
use std::fmt;

/// Relation of a linear constraint to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ a_j x_j ≤ b`
    Le,
    /// `Σ a_j x_j ≥ b`
    Ge,
    /// `Σ a_j x_j = b`
    Eq,
}

/// One linear constraint in sparse form.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; indices may repeat (summed).
    pub coeffs: Vec<(usize, f64)>,
    /// Relation to the right-hand side.
    pub rel: Relation,
    /// Right-hand side.
    pub rhs: f64,
    /// Lower end of a ranged `≤` row, `lo ≤ Σ a_j x_j ≤ rhs`
    /// ([`Problem::set_constraint_lower`]); `−∞` for a plain row.
    pub lo: f64,
}

impl Constraint {
    /// True for a `≤` row that also has a finite lower end.
    #[inline]
    pub fn is_ranged(&self) -> bool {
        self.lo.is_finite()
    }
}

/// Errors raised during problem construction or solving.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// A coefficient, bound, or rhs was NaN or infinite.
    NonFinite,
    /// A constraint or objective referenced a variable index ≥ `n_vars`.
    BadVariable(usize),
    /// The objective vector length did not match the variable count.
    BadObjectiveLen {
        /// Expected length (number of variables).
        expected: usize,
        /// Supplied length.
        got: usize,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::NonFinite => write!(f, "non-finite coefficient, bound, or rhs"),
            LpError::BadVariable(i) => write!(f, "variable index {i} out of range"),
            LpError::BadObjectiveLen { expected, got } => {
                write!(f, "objective length {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for LpError {}

/// A linear program: maximize `c·x` subject to mixed constraints, `x ≥ 0`,
/// and optional per-variable upper bounds. A `≤` row may also have a lower
/// end ([`Problem::set_constraint_lower`]): the revised engine keeps such
/// a ranged row as one row with a boxed slack, the dense tableau and the
/// reference split it in two.
///
/// Minimization is expressed by negating the objective. The builder methods
/// panic-free validate eagerly via [`Problem::try_add_constraint`] /
/// [`Problem::try_set_objective`]; the plain methods are convenience wrappers
/// that panic on malformed input (appropriate for the schedulers, which
/// construct programs from already-validated data).
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    n_vars: usize,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
    upper_bounds: Vec<Option<f64>>,
    /// Tie-break id per variable; empty means every variable is its own id.
    tiebreak_ids: Vec<usize>,
    /// Running hash of everything that fixes the constraint *pattern*
    /// (variable count, relations, coefficient variable ids, tie-break
    /// ids), folded as the problem is built so that
    /// [`Self::pattern_fingerprint`] never has to walk the rows.
    pattern: u64,
}

impl Default for Problem {
    fn default() -> Self {
        Problem::new(0)
    }
}

/// One FNV-style step over a whole 64-bit word.
#[inline]
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x100000001b3)
}

impl Problem {
    /// Creates a problem over `n_vars` non-negative variables with a zero
    /// objective.
    pub fn new(n_vars: usize) -> Self {
        Problem {
            n_vars,
            objective: vec![0.0; n_vars],
            constraints: Vec::new(),
            upper_bounds: vec![None; n_vars],
            tiebreak_ids: Vec::new(),
            pattern: fold(0xcbf29ce484222325, n_vars as u64),
        }
    }

    /// Number of structural variables.
    #[inline]
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of constraints added so far (upper bounds excluded).
    #[inline]
    pub fn n_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Sets the maximization objective. Panics on length mismatch or
    /// non-finite coefficients.
    pub fn set_objective(&mut self, c: Vec<f64>) {
        self.try_set_objective(c).expect("invalid objective");
    }

    /// Fallible form of [`Self::set_objective`].
    pub fn try_set_objective(&mut self, c: Vec<f64>) -> Result<(), LpError> {
        if c.len() != self.n_vars {
            return Err(LpError::BadObjectiveLen { expected: self.n_vars, got: c.len() });
        }
        if c.iter().any(|v| !v.is_finite()) {
            return Err(LpError::NonFinite);
        }
        self.objective = c;
        Ok(())
    }

    /// Sets one objective coefficient.
    pub fn set_objective_coeff(&mut self, var: usize, c: f64) {
        assert!(var < self.n_vars, "variable {var} out of range");
        assert!(c.is_finite(), "non-finite objective coefficient");
        self.objective[var] = c;
    }

    /// Adds a constraint. Panics on malformed input.
    pub fn add_constraint(&mut self, coeffs: Vec<(usize, f64)>, rel: Relation, rhs: f64) {
        self.try_add_constraint(coeffs, rel, rhs).expect("invalid constraint");
    }

    /// Fallible form of [`Self::add_constraint`].
    pub fn try_add_constraint(
        &mut self,
        coeffs: Vec<(usize, f64)>,
        rel: Relation,
        rhs: f64,
    ) -> Result<(), LpError> {
        if !rhs.is_finite() {
            return Err(LpError::NonFinite);
        }
        for &(i, a) in &coeffs {
            if i >= self.n_vars {
                return Err(LpError::BadVariable(i));
            }
            if !a.is_finite() {
                return Err(LpError::NonFinite);
            }
        }
        let mut h = fold(self.pattern, rel as u64 + 1);
        h = fold(h, coeffs.len() as u64);
        for &(i, _) in &coeffs {
            h = fold(h, i as u64);
        }
        self.pattern = h;
        self.constraints.push(Constraint { coeffs, rel, rhs, lo: f64::NEG_INFINITY });
        Ok(())
    }

    /// Gives the `≤` row `idx` the lower end `lo`, making it the ranged row
    /// `lo ≤ Σ a_j x_j ≤ rhs`; `−∞` makes it a plain row again. Like the
    /// right-hand side this is a value, not part of the pattern: a prepared
    /// skeleton rewrites it every window. Panics on a `≥`/`=` row or a NaN
    /// or `+∞` end.
    pub fn set_constraint_lower(&mut self, idx: usize, lo: f64) {
        let c = &mut self.constraints[idx];
        assert_eq!(c.rel, Relation::Le, "only a `≤` row takes a lower end");
        assert!(lo.is_finite() || lo == f64::NEG_INFINITY, "bad lower end {lo}");
        c.lo = lo;
    }

    /// The rows of the problem with every ranged row split in two: each
    /// constraint as it is (a ranged one as its `≤` half), and after a
    /// ranged one its `≥ lo` half. The engines without ranged rows of their
    /// own (the dense tableau, the reference) solve these.
    pub(crate) fn split_rows(&self) -> impl Iterator<Item = (&[(usize, f64)], Relation, f64)> {
        self.constraints.iter().flat_map(|c| {
            let low = c.is_ranged().then_some((&c.coeffs[..], Relation::Ge, c.lo));
            std::iter::once((&c.coeffs[..], c.rel, c.rhs)).chain(low)
        })
    }

    /// Fingerprint of the constraint pattern: equal for two problems built
    /// by the same sequence of [`Self::add_constraint`] /
    /// [`Self::set_tiebreak_id`] calls up to coefficient values, bounds,
    /// right-hand sides and objective. Never 0.
    #[inline]
    pub fn pattern_fingerprint(&self) -> u64 {
        self.pattern | 1
    }

    /// Gives `var` the id its canonicalization tie-break weight is derived
    /// from (default: `var` itself). A problem that leaves out columns of a
    /// larger formulation passes each kept column's original index here, so
    /// that [`Self::solve_warm`] lands on the same canonical vertex the
    /// larger problem would.
    pub fn set_tiebreak_id(&mut self, var: usize, id: usize) {
        assert!(var < self.n_vars, "variable {var} out of range");
        if self.tiebreak_ids.is_empty() {
            self.tiebreak_ids = (0..self.n_vars).collect();
        }
        self.tiebreak_ids[var] = id;
        self.pattern = fold(fold(self.pattern, var as u64), id as u64);
    }

    /// The tie-break id of `var` (see [`Self::set_tiebreak_id`]).
    #[inline]
    pub fn tiebreak_id(&self, var: usize) -> usize {
        self.tiebreak_ids.get(var).copied().unwrap_or(var)
    }

    /// Declares `x_var ≤ bound` (in addition to the implicit `x_var ≥ 0`).
    /// A `None`-like effect (no bound) is the default; calling this twice
    /// keeps the tighter bound.
    pub fn set_upper_bound(&mut self, var: usize, bound: f64) {
        assert!(var < self.n_vars, "variable {var} out of range");
        assert!(bound.is_finite() && bound >= 0.0, "bad upper bound {bound}");
        let b = self.upper_bounds[var].map_or(bound, |old: f64| old.min(bound));
        self.upper_bounds[var] = Some(b);
    }

    /// Replaces the upper bound of `x_var` outright (unlike
    /// [`Self::set_upper_bound`], which keeps the tighter of old and new).
    /// Used by prepared problem skeletons whose bounds change every window.
    pub fn set_upper_bound_exact(&mut self, var: usize, bound: f64) {
        assert!(var < self.n_vars, "variable {var} out of range");
        assert!(bound.is_finite() && bound >= 0.0, "bad upper bound {bound}");
        self.upper_bounds[var] = Some(bound);
    }

    /// Overwrites the right-hand side of constraint `idx` in place. The
    /// constraint's coefficients and relation are untouched — this is the
    /// cheap per-window update path for prepared problem skeletons.
    pub fn set_constraint_rhs(&mut self, idx: usize, rhs: f64) {
        assert!(rhs.is_finite(), "non-finite rhs");
        self.constraints[idx].rhs = rhs;
    }

    /// Overwrites coefficient `slot` (positional, not variable index) of
    /// constraint `row`. The variable the slot refers to stays the same;
    /// only its multiplier changes.
    pub fn set_constraint_coeff(&mut self, row: usize, slot: usize, value: f64) {
        assert!(value.is_finite(), "non-finite coefficient");
        self.constraints[row].coeffs[slot].1 = value;
    }

    /// The objective vector.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The constraints added so far.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The per-variable upper bounds.
    pub fn upper_bounds(&self) -> &[Option<f64>] {
        &self.upper_bounds
    }

    /// Solves the program with the two-phase simplex method (fresh
    /// workspace; see [`Self::solve_with`] to amortize allocations).
    pub fn solve(&self) -> LpOutcome {
        simplex::solve_tableau(self)
    }

    /// Solves through a caller-owned [`SimplexWorkspace`], reusing its
    /// buffers. The returned outcome owns its solution vector.
    pub fn solve_with(&self, ws: &mut SimplexWorkspace) -> LpOutcome {
        simplex::solve_with(self, ws)
    }

    /// Allocation-free solve: on [`LpStatus::Optimal`] the solution is read
    /// from the workspace ([`SimplexWorkspace::x`],
    /// [`SimplexWorkspace::objective_value`]). After the first solve of a
    /// given shape, re-solving same-shaped problems performs no heap
    /// allocation at all.
    pub fn solve_in_place(&self, ws: &mut SimplexWorkspace) -> LpStatus {
        simplex::solve_in_place(self, ws)
    }

    /// Solves with the retained naive reference implementation
    /// ([`crate::reference::solve_reference`]) — the correctness oracle.
    pub fn solve_reference(&self) -> LpOutcome {
        crate::reference::solve_reference(self)
    }

    /// Checks whether `x` satisfies every constraint and bound within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.n_vars {
            return false;
        }
        if x.iter().any(|&v| v < -tol) {
            return false;
        }
        for (i, ub) in self.upper_bounds.iter().enumerate() {
            if let Some(u) = ub {
                if x[i] > u + tol {
                    return false;
                }
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.coeffs.iter().map(|&(i, a)| a * x[i]).sum();
            let ok = match c.rel {
                Relation::Le => lhs <= c.rhs + tol && lhs >= c.lo - tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Evaluates the objective at `x`.
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates() {
        let mut p = Problem::new(2);
        assert!(matches!(
            p.try_set_objective(vec![1.0]),
            Err(LpError::BadObjectiveLen { expected: 2, got: 1 })
        ));
        assert!(matches!(
            p.try_set_objective(vec![1.0, f64::NAN]),
            Err(LpError::NonFinite)
        ));
        assert!(matches!(
            p.try_add_constraint(vec![(5, 1.0)], Relation::Le, 1.0),
            Err(LpError::BadVariable(5))
        ));
        assert!(matches!(
            p.try_add_constraint(vec![(0, 1.0)], Relation::Le, f64::INFINITY),
            Err(LpError::NonFinite)
        ));
    }

    #[test]
    fn upper_bound_keeps_tighter() {
        let mut p = Problem::new(1);
        p.set_upper_bound(0, 5.0);
        p.set_upper_bound(0, 3.0);
        p.set_upper_bound(0, 7.0);
        assert_eq!(p.upper_bounds()[0], Some(3.0));
    }

    #[test]
    fn feasibility_checker() {
        let mut p = Problem::new(2);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Ge, 1.0);
        p.set_upper_bound(1, 2.0);
        assert!(p.is_feasible(&[1.0, 2.0], 1e-9));
        assert!(!p.is_feasible(&[0.5, 2.0], 1e-9)); // violates Ge
        assert!(!p.is_feasible(&[1.0, 2.5], 1e-9)); // violates ub
        assert!(!p.is_feasible(&[3.0, 2.0], 1e-9)); // violates Le
        assert!(!p.is_feasible(&[-0.1, 0.0], 1e-9)); // violates x >= 0
        assert!(!p.is_feasible(&[1.0], 1e-9)); // wrong arity
        p.set_constraint_lower(0, 3.5);
        assert!(!p.is_feasible(&[1.0, 2.0], 1e-9)); // under the ranged row's lower end
        assert!(p.is_feasible(&[1.5, 2.0], 1e-9));
        p.set_constraint_lower(0, f64::NEG_INFINITY);
        assert!(p.is_feasible(&[1.0, 2.0], 1e-9));
    }

    #[test]
    fn ranged_rows_split_in_two() {
        let mut p = Problem::new(2);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Ge, 1.0);
        let plain = p.pattern_fingerprint();
        p.set_constraint_lower(0, 2.0);
        assert_eq!(p.pattern_fingerprint(), plain, "a lower end is a value");
        let rows: Vec<_> = p.split_rows().map(|(c, rel, rhs)| (c.len(), rel, rhs)).collect();
        assert_eq!(rows, [(2, Relation::Le, 4.0), (2, Relation::Ge, 2.0), (1, Relation::Ge, 1.0)]);
    }
}
