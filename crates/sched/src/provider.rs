//! The service-provider "Total Income" model (§3.1.2).
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
//!
//! One capacity row over box bounds is a fractional knapsack, so no solver
//! runs: every principal starts at its floor, and the rest of `V_s` goes by
//! price, highest first, each principal up to its box. Equal prices fill in
//! id order, lowest first, and zero-price principals fill after every
//! paying one; negative prices stay at their floors. That is the vertex the
//! LP's canonical tie-break (weight `1/(id + 2)` per variable) selects. The
//! LP itself is the oracle in this crate's property tests.

use crate::Plan;
use covenant_agreements::{AccessLevels, PrincipalId};
use std::cmp::Ordering;

/// Floors may overshoot `V_s` by this fraction of it (rounding in the
/// access-level sums) before the window counts as infeasible.
const FLOOR_SLACK: f64 = 1e-9;

/// The provider model for one set of access levels and prices: the
/// per-principal envelope is read once, and each window is a fill.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderScheduler {
    mandatory: Vec<f64>,
    optional: Vec<f64>,
    capacities: Vec<f64>,
    /// Per-principal price `p_i` for each request beyond the mandatory
    /// level. Principals that are not customers (e.g. the provider itself)
    /// carry price 0.
    prices: Vec<f64>,
    /// Principals with a non-negative price, highest price first, equal
    /// prices by id.
    fill_order: Vec<usize>,
}

impl ProviderScheduler {
    /// The provider model over window-scaled access levels and prices.
    pub fn new(levels: &AccessLevels, prices: Vec<f64>) -> Self {
        let ids = || (0..levels.len()).map(PrincipalId);
        Self::from_totals(
            ids().map(|i| levels.mandatory(i)).collect(),
            ids().map(|i| levels.optional(i)).collect(),
            levels.capacities().to_vec(),
            prices,
        )
    }

    /// The provider model over per-principal totals: `MC_i`, `OC_i`, the
    /// capacity `V_i` each principal owns, and `p_i`.
    pub fn from_totals(
        mandatory: Vec<f64>,
        optional: Vec<f64>,
        capacities: Vec<f64>,
        prices: Vec<f64>,
    ) -> Self {
        let n = mandatory.len();
        assert_eq!(prices.len(), n, "price vector length must match principal count");
        assert_eq!(optional.len(), n, "optional vector length must match principal count");
        assert_eq!(capacities.len(), n, "capacity vector length must match principal count");
        let mut fill_order: Vec<usize> = (0..n).filter(|&i| prices[i] >= 0.0).collect();
        // Stable: equal prices keep id order. NaN prices were filtered out.
        fill_order.sort_by(|&a, &b| prices[b].partial_cmp(&prices[a]).unwrap_or(Ordering::Equal));
        ProviderScheduler { mandatory, optional, capacities, prices, fill_order }
    }

    /// Plans one window against the (global) queue lengths `n_i`, and
    /// splits the admitted totals across the provider's servers (greedy
    /// fill in server-id order — which server processes a request is
    /// immaterial to the income model). Floors that do not fit in `V_s`
    /// yield the zero plan.
    pub fn plan(&self, queues: &[f64]) -> Plan {
        let n = self.mandatory.len();
        assert_eq!(queues.len(), n, "queue vector length must match principal count");
        if n == 0 || queues.iter().all(|&q| q <= 0.0) {
            return Plan::zero(n);
        }
        let mut totals: Vec<f64> =
            queues.iter().zip(&self.mandatory).map(|(&q, &mc)| mc.min(q).max(0.0)).collect();
        let v_total: f64 = self.capacities.iter().sum();
        let mut left = v_total - totals.iter().sum::<f64>();
        if left < -FLOOR_SLACK * v_total.max(1.0) {
            return Plan::zero(n);
        }
        for &i in &self.fill_order {
            if left <= 0.0 {
                break;
            }
            let ceiling = (self.mandatory[i] + self.optional[i]).min(queues[i]).max(0.0);
            let take = (ceiling - totals[i]).max(0.0).min(left);
            totals[i] += take;
            left -= take;
        }

        // Greedy split across servers, never exceeding any single server.
        let mut remaining: Vec<f64> = self.capacities.clone();
        let mut plan = Plan::zero(0);
        for &total in &totals {
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
        let sched = ProviderScheduler::new(&lv, vec![0.0, 2.0, 1.0]);
        let plan = sched.plan(&[0.0, 800.0, 400.0]);
        assert!((plan.admitted(b) - 128.0).abs() < 1e-6, "B {}", plan.admitted(b));
        assert!((plan.admitted(a) - 512.0).abs() < 1e-6, "A {}", plan.admitted(a));
    }

    #[test]
    fn idle_expensive_customer_frees_capacity() {
        // A idle → B can burst to its upper bound (the full pool).
        let (g, _s, _a, b) = figure10();
        let lv = g.access_levels();
        let sched = ProviderScheduler::new(&lv, vec![0.0, 2.0, 1.0]);
        let plan = sched.plan(&[0.0, 0.0, 400.0]);
        assert!((plan.admitted(b) - 400.0).abs() < 1e-6);
    }

    #[test]
    fn partial_a_load_shares_rest() {
        // Figure 10 phase 3: A at 400 (one client machine), B flooding.
        // A admitted fully (within its [512, 640] envelope → 400 ≤ 512 so
        // A's floor is min(512, 400) = 400), B takes the remaining 240.
        let (g, _s, a, b) = figure10();
        let lv = g.access_levels();
        let sched = ProviderScheduler::new(&lv, vec![0.0, 2.0, 1.0]);
        let plan = sched.plan(&[0.0, 400.0, 400.0]);
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
        let sched = ProviderScheduler::new(&lv, vec![0.0, 2.0, 1.0]);
        let plan = sched.plan(&[0.0, 800.0, 400.0]);
        for k in 0..3 {
            assert!(plan.server_load(k) <= lv.capacities()[k] + 1e-6);
        }
        assert!((plan.total_admitted() - 640.0).abs() < 1e-6);
    }

    #[test]
    fn income_reported() {
        let (g, ..) = figure10();
        let lv = g.access_levels();
        let sched = ProviderScheduler::new(&lv, vec![0.0, 2.0, 1.0]);
        let plan = sched.plan(&[0.0, 800.0, 400.0]);
        // A beyond mandatory: 0 (512 = MC_A); B beyond mandatory: 0.
        // Income = 2·(512−512) + 1·(128−128) = 0 under total overload.
        assert!((plan.income.unwrap() - 0.0).abs() < 1e-6);
        // With A idle, B bursts: income = 1·(400 − 0) since B's effective
        // floor is min(128, 400) = 128 → income = 400 − 128 = 272.
        let plan = sched.plan(&[0.0, 0.0, 400.0]);
        assert!((plan.income.unwrap() - 272.0).abs() < 1e-6);
    }

    #[test]
    fn empty_queues_zero_plan() {
        let (g, ..) = figure10();
        let lv = g.access_levels();
        let sched = ProviderScheduler::new(&lv, vec![0.0, 2.0, 1.0]);
        let plan = sched.plan(&[0.0, 0.0, 0.0]);
        assert_eq!(plan.total_admitted(), 0.0);
    }

    #[test]
    fn cheap_customer_still_gets_mandatory_floor() {
        // Even with price 0, B's mandatory floor holds under overload.
        let (g, _s, a, b) = figure10();
        let lv = g.access_levels();
        let sched = ProviderScheduler::new(&lv, vec![0.0, 5.0, 0.0]);
        let plan = sched.plan(&[0.0, 10_000.0, 10_000.0]);
        assert!(plan.admitted(b) >= 128.0 - 1e-6);
        assert!(plan.admitted(a) >= 512.0 - 1e-6);
    }
}
