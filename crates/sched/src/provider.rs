//! The service-provider "Total Income" linear program (§3.1.2).
//!
//! A provider `s` negotiates a price `p_i` with each customer `i` for every
//! request processed beyond the mandatory service level; admission maximizes
//! income while honouring every agreement:
//!
//! ```text
//! maximize   Σ_i p_i (x_i − MC_i)
//! subject to Σ_i x_i ≤ V_s
//!            MC_i ≤ x_i ≤ MC_i + OC_i   ∀i (floor relaxed to min(MC_i, n_i))
//!            x_i ≤ n_i                  ∀i
//! ```

use crate::Plan;
use covenant_agreements::{AccessLevels, PrincipalId};
use covenant_lp::{LpStatus, Problem, Relation, SimplexWorkspace, WarmBasis, WarmOutcome, WarmStats};

/// Solver for the provider model.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderScheduler {
    /// Per-principal price `p_i` for each request beyond the mandatory
    /// level. Principals that are not customers (e.g. the provider itself)
    /// should carry price 0.
    pub prices: Vec<f64>,
}

impl ProviderScheduler {
    /// Creates a provider scheduler with the given price vector.
    pub fn new(prices: Vec<f64>) -> Self {
        ProviderScheduler { prices }
    }

    /// Solves the provider LP for one window and splits the admitted totals
    /// across the provider's servers (greedy fill in server-id order —
    /// which server processes a request is immaterial to the income model).
    ///
    /// `levels` must be window-scaled; `queues` are the (global) queue
    /// lengths `n_i`.
    pub fn plan(&self, levels: &AccessLevels, queues: &[f64]) -> Plan {
        let mut prepared = PreparedProvider::new(levels, self.prices.clone());
        prepared.plan_with(&mut SimplexWorkspace::new(), queues)
    }
}

/// The provider LP with its constraint matrix built once and reused.
///
/// Row 0 is the aggregate capacity constraint; row `1 + i` is principal
/// `i`'s mandatory floor (rhs 0 when it has no demand, so the row set —
/// and therefore the tableau shape — never changes between windows). Per
/// window only the floor right-hand sides and the demand-capped upper
/// bounds are rewritten.
#[derive(Debug, Clone)]
pub struct PreparedProvider {
    n: usize,
    base: Problem,
    mandatory: Vec<f64>,
    optional: Vec<f64>,
    caps: Vec<f64>,
    prices: Vec<f64>,
    /// Persistent basis for the warm-started revised solver.
    warm: WarmBasis,
    /// Windows the warm engine refused and the dense tableau solved.
    dense_fallbacks: u64,
}

impl PreparedProvider {
    /// Builds the skeleton from window-scaled access levels and prices.
    pub fn new(levels: &AccessLevels, prices: Vec<f64>) -> Self {
        let n = levels.len();
        assert_eq!(prices.len(), n, "price vector length must match principal count");
        let caps = levels.capacities().to_vec();
        let v_total: f64 = caps.iter().sum();
        let mut p = Problem::new(n);
        p.set_objective(prices.clone());
        let cap_row: Vec<(usize, f64)> = (0..n).map(|i| (i, 1.0)).collect();
        p.add_constraint(cap_row, Relation::Le, v_total);
        let mut mandatory = Vec::with_capacity(n);
        let mut optional = Vec::with_capacity(n);
        for i in 0..n {
            let pi = PrincipalId(i);
            p.add_constraint(vec![(i, 1.0)], Relation::Ge, 0.0);
            p.set_upper_bound(i, 0.0);
            mandatory.push(levels.mandatory(pi));
            optional.push(levels.optional(pi));
        }
        PreparedProvider {
            n,
            base: p,
            mandatory,
            optional,
            caps,
            prices,
            warm: WarmBasis::new(),
            dense_fallbacks: 0,
        }
    }

    /// Number of principals the skeleton was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the skeleton covers no principals.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Solves one window through `ws`, with the same semantics as
    /// [`ProviderScheduler::plan`].
    pub fn plan_with(&mut self, ws: &mut SimplexWorkspace, queues: &[f64]) -> Plan {
        let n = self.n;
        assert_eq!(queues.len(), n, "queue vector length must match principal count");
        if n == 0 || queues.iter().all(|&q| q <= 0.0) {
            return Plan::zero(n);
        }
        for (i, &q) in queues.iter().enumerate() {
            let ni = q.max(0.0);
            let (mc, oc) = (self.mandatory[i], self.optional[i]);
            self.base.set_upper_bound_exact(i, (mc + oc).min(ni).max(0.0));
            self.base.set_constraint_rhs(1 + i, mc.min(ni).max(0.0));
        }
        // Warm-started revised solve; dense tableau only on refusal.
        let totals: &[f64] = match self.base.solve_warm(&mut self.warm) {
            WarmOutcome::Optimal => self.warm.x(),
            WarmOutcome::Infeasible => return Plan::zero(n),
            WarmOutcome::Unsuitable => {
                self.dense_fallbacks += 1;
                if self.base.solve_in_place(ws) != LpStatus::Optimal {
                    return Plan::zero(n);
                }
                ws.x()
            }
        };

        // Greedy split across servers, never exceeding any single server.
        let mut remaining: Vec<f64> = self.caps.clone();
        let mut plan = Plan::zero(0);
        for &total in totals {
            let mut need = total;
            plan.push_row(remaining.iter_mut().enumerate().map_while(|(k, left)| {
                (need > 0.0).then(|| {
                    let take = need.min(*left);
                    *left -= take;
                    need -= take;
                    (k, take)
                })
            }));
        }

        let income: f64 = (0..n)
            .map(|i| self.prices[i] * (totals[i] - self.mandatory[i].min(queues[i])))
            .sum();
        plan.income = Some(income);
        plan
    }

    /// Lifetime counters of the warm-started solver.
    pub fn warm_stats(&self) -> WarmStats {
        self.warm.stats()
    }

    /// Windows the warm engine refused and the dense tableau solved.
    pub fn dense_fallbacks(&self) -> u64 {
        self.dense_fallbacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_agreements::AgreementGraph;

    /// Figure 10 setup: provider with two 320-req/s servers, customers
    /// A [0.8, 1] (pays more) and B [0.2, 1].
    fn figure10() -> (AgreementGraph, PrincipalId, PrincipalId, PrincipalId) {
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 640.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.8, 1.0).unwrap();
        g.add_agreement(s, b, 0.2, 1.0).unwrap();
        (g, s, a, b)
    }

    #[test]
    fn phase1_b_pinned_to_mandatory() {
        // Both customers flood; A pays more → B held at its mandatory 128,
        // A gets the remaining 512.
        let (g, _s, a, b) = figure10();
        let lv = g.access_levels();
        let sched = ProviderScheduler::new(vec![0.0, 2.0, 1.0]);
        let plan = sched.plan(&lv, &[0.0, 800.0, 400.0]);
        assert!((plan.admitted(b) - 128.0).abs() < 1e-6, "B {}", plan.admitted(b));
        assert!((plan.admitted(a) - 512.0).abs() < 1e-6, "A {}", plan.admitted(a));
    }

    #[test]
    fn idle_expensive_customer_frees_capacity() {
        // A idle → B can burst to its upper bound (the full pool).
        let (g, _s, _a, b) = figure10();
        let lv = g.access_levels();
        let sched = ProviderScheduler::new(vec![0.0, 2.0, 1.0]);
        let plan = sched.plan(&lv, &[0.0, 0.0, 400.0]);
        assert!((plan.admitted(b) - 400.0).abs() < 1e-6);
    }

    #[test]
    fn partial_a_load_shares_rest() {
        // Figure 10 phase 3: A at 400 (one client machine), B flooding.
        // A admitted fully (within its [512, 640] envelope → 400 ≤ 512 so
        // A's floor is min(512, 400) = 400), B takes the remaining 240.
        let (g, _s, a, b) = figure10();
        let lv = g.access_levels();
        let sched = ProviderScheduler::new(vec![0.0, 2.0, 1.0]);
        let plan = sched.plan(&lv, &[0.0, 400.0, 400.0]);
        assert!((plan.admitted(a) - 400.0).abs() < 1e-6);
        assert!((plan.admitted(b) - 240.0).abs() < 1e-6);
    }

    #[test]
    fn server_split_respects_individual_capacities() {
        // Two physical servers of 320 each (expressed as two provider
        // principals sharing everything with customers is overkill here;
        // instead check the greedy split caps at each server's budget).
        let (g, ..) = figure10();
        let lv = g.access_levels();
        let sched = ProviderScheduler::new(vec![0.0, 2.0, 1.0]);
        let plan = sched.plan(&lv, &[0.0, 800.0, 400.0]);
        for k in 0..3 {
            assert!(plan.server_load(k) <= lv.capacities()[k] + 1e-6);
        }
        assert!((plan.total_admitted() - 640.0).abs() < 1e-6);
    }

    #[test]
    fn income_reported() {
        let (g, ..) = figure10();
        let lv = g.access_levels();
        let sched = ProviderScheduler::new(vec![0.0, 2.0, 1.0]);
        let plan = sched.plan(&lv, &[0.0, 800.0, 400.0]);
        // A beyond mandatory: 0 (512 = MC_A); B beyond mandatory: 0.
        // Income = 2·(512−512) + 1·(128−128) = 0 under total overload.
        assert!((plan.income.unwrap() - 0.0).abs() < 1e-6);
        // With A idle, B bursts: income = 1·(400 − 0) since B's effective
        // floor is min(128, 400) = 128 → income = 400 − 128 = 272.
        let plan = sched.plan(&lv, &[0.0, 0.0, 400.0]);
        assert!((plan.income.unwrap() - 272.0).abs() < 1e-6);
    }

    #[test]
    fn empty_queues_zero_plan() {
        let (g, ..) = figure10();
        let lv = g.access_levels();
        let sched = ProviderScheduler::new(vec![0.0, 2.0, 1.0]);
        let plan = sched.plan(&lv, &[0.0, 0.0, 0.0]);
        assert_eq!(plan.total_admitted(), 0.0);
    }

    #[test]
    fn cheap_customer_still_gets_mandatory_floor() {
        // Even with price 0, B's mandatory floor holds under overload.
        let (g, _s, a, b) = figure10();
        let lv = g.access_levels();
        let sched = ProviderScheduler::new(vec![0.0, 5.0, 0.0]);
        let plan = sched.plan(&lv, &[0.0, 10_000.0, 10_000.0]);
        assert!(plan.admitted(b) >= 128.0 - 1e-6);
        assert!(plan.admitted(a) >= 512.0 - 1e-6);
    }
}
