//! A small, dependency-free linear-programming solver.
//!
//! The paper's redirectors solve one LP per 100 ms scheduling window
//! ("the complexity of this strategy only depends on the number of
//! principals involved in the agreements; this latter number is expected to
//! be small"). This crate provides the solver those schedulers need: a dense
//! two-phase primal simplex over a tableau, using Bland's anti-cycling rule.
//!
//! Problems are stated in the natural mixed form — maximize `c·x` subject to
//! `≤`/`≥`/`=` constraints, ranged `lo ≤ a·x ≤ hi` rows among them, with
//! non-negative variables and optional per-variable upper bounds:
//!
//! ```
//! use covenant_lp::{Problem, Relation, LpOutcome};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6
//! let mut p = Problem::new(2);
//! p.set_objective(vec![3.0, 2.0]);
//! p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
//! p.add_constraint(vec![(0, 1.0), (1, 3.0)], Relation::Le, 6.0);
//! match p.solve() {
//!     LpOutcome::Optimal(s) => {
//!         assert!((s.objective - 12.0).abs() < 1e-9);
//!         assert!((s.x[0] - 4.0).abs() < 1e-9);
//!     }
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```
//!
//! Two engines share this problem type:
//!
//! * the dense two-phase tableau ([`Problem::solve`] /
//!   [`Problem::solve_in_place`]) — simple and robust, right for a handful
//!   of principals where the tableau fits in cache;
//! * the sparse revised simplex with a warm-started dual phase
//!   ([`Problem::solve_warm`] through a persistent [`WarmBasis`]) — the
//!   window path. The window LPs have `O(agreements)` variables over
//!   `O(n)` rows, a few nonzeros each, and consecutive 100 ms windows
//!   differ only in queue-derived rhs and bounds, so re-solving from the
//!   previous window's basis takes some dual pivots — each costing the
//!   nonzeros it touches — instead of a full cold solve. On shape changes
//!   or numerical trouble the warm engine reports
//!   [`WarmOutcome::Unsuitable`] and callers fall back to the dense
//!   solver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod problem;
pub mod reference;
mod revised;
mod simplex;

pub use problem::{Constraint, LpError, Problem, Relation};
pub use reference::solve_reference;
pub use revised::{WarmBasis, WarmOutcome, WarmStats};
pub use simplex::{LpOutcome, LpStatus, SimplexWorkspace, Solution, DEFAULT_BLAND_AFTER, EPS};
