//! Multi-resource window scheduling (§3.1.1's vector quantities).
//!
//! Same max-min `θ` objective as [`crate::CommunityScheduler`], but each
//! request of principal `i` consumes a *cost vector* `c_i` (CPU, bandwidth,
//! …) and every server has a capacity vector. Per-server constraints apply
//! per resource kind; a principal's admission rate is limited by whichever
//! kind binds first.

use crate::community::add_principal_rows;
use crate::Plan;
use covenant_agreements::{MultiAccessLevels, PrincipalId, ResourceKind, ResourceVector};
use covenant_lp::{LpStatus, Problem, Relation, SimplexWorkspace, WarmBasis, WarmOutcome, WarmStats};

/// Community scheduler over multiple resource kinds.
#[derive(Debug, Clone)]
pub struct MultiCommunityScheduler {
    /// Per-principal request cost vectors (units of each kind consumed by
    /// one request).
    pub costs: Vec<ResourceVector>,
}

impl MultiCommunityScheduler {
    /// Creates a scheduler with the given per-principal request costs.
    pub fn new(costs: Vec<ResourceVector>) -> Self {
        MultiCommunityScheduler { costs }
    }

    /// Solves the windowed multi-resource LP.
    ///
    /// * `levels` — per-kind access levels **scaled to the window**;
    /// * `queues` — per-principal demands (requests this window).
    pub fn plan(&self, levels: &MultiAccessLevels, queues: &[f64]) -> Plan {
        let n = levels.len();
        let kinds = levels.n_kinds();
        assert_eq!(queues.len(), n);
        assert_eq!(self.costs.len(), n);
        for c in &self.costs {
            assert_eq!(c.len(), kinds, "cost vector must cover every kind");
        }
        let mut prepared = PreparedMulti::new(levels, &self.costs);
        prepared.plan_with(&mut SimplexWorkspace::new(), queues)
    }
}

/// The multi-resource community LP with its constraint matrix built once.
///
/// Same compact numbering and row discipline as
/// [`crate::community::PreparedCommunity`]: `θ`, then one variable per
/// pair that can ever carry load; rows `3i` / `3i + 1` / `3i + 2` are
/// principal `i`'s queue limit, θ coverage, and mandatory floor, followed
/// by the static per-server per-kind capacity rows. Upper bounds are static
/// except for zero-cost principals, whose only ceiling is their queue
/// length (and who therefore keep a variable for every server).
#[derive(Debug, Clone)]
pub struct PreparedMulti {
    n: usize,
    base: Problem,
    /// Per-principal mandatory admission rate at the binding kind.
    floors: Vec<f64>,
    /// Principals whose cost vector has no positive entry (queue-bounded).
    zero_cost: Vec<bool>,
    /// The all-zero plan over the pairs: entry `p` is LP variable `1 + p`.
    pairs: Plan,
    /// Persistent basis for the warm-started revised solver.
    warm: WarmBasis,
    /// Windows the warm engine refused and the dense tableau solved.
    dense_fallbacks: u64,
}

impl PreparedMulti {
    /// Builds the skeleton from window-scaled multi-kind access levels and
    /// per-principal request cost vectors.
    pub fn new(levels: &MultiAccessLevels, costs: &[ResourceVector]) -> Self {
        let n = levels.len();
        let kinds = levels.n_kinds();
        assert_eq!(costs.len(), n);
        for c in costs {
            assert_eq!(c.len(), kinds, "cost vector must cover every kind");
        }
        // Only pairs that can ever carry load get a variable: a positive
        // static ceiling (the binding kind per pair), or any pair of a
        // zero-cost principal, whose ceiling is its queue, installed per
        // window.
        let mut pairs = Plan::zero(0);
        let mut ubs = Vec::new();
        let mut floors = Vec::with_capacity(n);
        let mut zero_cost = Vec::with_capacity(n);
        for (i, cost) in costs.iter().enumerate() {
            let pi = PrincipalId(i);
            let is_zero_cost = cost.0.iter().all(|&c| c <= 0.0);
            pairs.push_row((0..n).filter_map(|k| {
                let pk = PrincipalId(k);
                let mut ub = f64::INFINITY;
                for r in 0..kinds {
                    let c = cost.0[r];
                    if c > 0.0 {
                        let lv = levels.kind(ResourceKind(r));
                        ub = ub.min((lv.mand_share(pi, pk) + lv.opt_share(pi, pk)) / c);
                    }
                }
                let ub = if ub.is_finite() { ub.max(0.0) } else { 0.0 };
                (is_zero_cost || ub > 0.0).then(|| {
                    ubs.push(ub);
                    (k, 0.0)
                })
            }));
            zero_cost.push(is_zero_cost);
            // Mandatory guarantee at the binding-kind rate.
            let floor = levels.mandatory_rate(pi, cost);
            floors.push(if floor.is_finite() { floor } else { 0.0 });
        }
        let mut p = Problem::new(1 + ubs.len());
        p.set_objective_coeff(0, 1.0);
        if n > 0 {
            p.set_upper_bound(0, 1.0);
        }
        // Per server, the (principal, variable) of each of its pairs.
        let mut by_server: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for i in 0..n {
            let row: Vec<(usize, f64)> = pairs.row_range(i).map(|e| (1 + e, 1.0)).collect();
            for e in pairs.row_range(i) {
                let k = pairs.servers()[e] as usize;
                p.set_upper_bound(1 + e, ubs[e]);
                p.set_tiebreak_id(1 + e, 1 + i * n + k);
                by_server[k].push((i, 1 + e));
            }
            add_principal_rows(&mut p, row);
        }
        // Per-server, per-kind capacity.
        for (k, server_pairs) in by_server.iter().enumerate() {
            for r in 0..kinds {
                let lv = levels.kind(ResourceKind(r));
                let row: Vec<(usize, f64)> = server_pairs
                    .iter()
                    .map(|&(i, var)| (var, costs[i].0[r]))
                    // Exact-zero sparsity skip: drops structurally absent
                    // coefficients only, not a numeric tolerance test.
                    .filter(|(_, c)| *c != 0.0) // covenant: allow(float-eq)
                    .collect();
                if !row.is_empty() {
                    p.add_constraint(row, Relation::Le, lv.capacities()[k].max(0.0));
                }
            }
        }
        PreparedMulti {
            n,
            base: p,
            floors,
            zero_cost,
            pairs,
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

    fn update_queues(&mut self, queues: &[f64], floors: bool) {
        let n = self.n;
        for (i, &q) in queues.iter().enumerate().take(n) {
            let ni = q.max(0.0);
            self.base.set_constraint_rhs(3 * i, ni);
            self.base.set_constraint_coeff(3 * i + 1, 0, -ni);
            let floor = if floors { self.floors[i].min(ni).max(0.0) } else { 0.0 };
            self.base.set_constraint_rhs(3 * i + 2, floor);
            if self.zero_cost[i] {
                for e in self.pairs.row_range(i) {
                    self.base.set_upper_bound_exact(1 + e, ni);
                }
            }
        }
    }

    fn extract(&self, x: &[f64]) -> Plan {
        self.pairs.with_amounts(&x[1..], x.first().copied())
    }

    /// Warm solve with dense fallback; `None` means infeasible under both
    /// engines (caller retries without floors).
    fn solve_window(&mut self, ws: &mut SimplexWorkspace) -> Option<Plan> {
        match self.base.solve_warm(&mut self.warm) {
            WarmOutcome::Optimal => Some(self.extract(self.warm.x())),
            WarmOutcome::Infeasible => None,
            WarmOutcome::Unsuitable => {
                self.dense_fallbacks += 1;
                if self.base.solve_in_place(ws) == LpStatus::Optimal {
                    Some(self.extract(ws.x()))
                } else {
                    None
                }
            }
        }
    }

    /// Solves one window, with the same semantics as
    /// [`MultiCommunityScheduler::plan`]. The window goes through the
    /// warm-started revised solver; `ws` only runs when the warm engine
    /// declares the problem unsuitable.
    pub fn plan_with(&mut self, ws: &mut SimplexWorkspace, queues: &[f64]) -> Plan {
        let n = self.n;
        assert_eq!(queues.len(), n);
        if n == 0 || queues.iter().all(|&q| q <= 0.0) {
            return Plan::zero(n);
        }
        self.update_queues(queues, true);
        if let Some(plan) = self.solve_window(ws) {
            return plan;
        }
        self.update_queues(queues, false);
        if let Some(plan) = self.solve_window(ws) {
            return plan;
        }
        Plan::zero(n)
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
    use covenant_agreements::MultiAgreementGraph;

    /// Server with 100 cpu and 40 bw per window; A and B each [0.5, 0.5].
    fn system() -> (MultiAgreementGraph, PrincipalId, PrincipalId) {
        let mut g = MultiAgreementGraph::new(&["cpu", "bw"]);
        let s = g.add_principal("S", ResourceVector(vec![100.0, 40.0]));
        let a = g.add_principal("A", ResourceVector(vec![0.0, 0.0]));
        let b = g.add_principal("B", ResourceVector(vec![0.0, 0.0]));
        g.add_agreement(s, a, 0.5, 0.5).unwrap();
        g.add_agreement(s, b, 0.5, 0.5).unwrap();
        (g, a, b)
    }

    #[test]
    fn scarce_kind_binds_admission() {
        let (g, a, b) = system();
        let lv = g.access_levels();
        // A's requests are bandwidth-heavy (1 cpu, 2 bw); B's are pure cpu.
        let sched = MultiCommunityScheduler::new(vec![
            ResourceVector(vec![1.0, 0.0]),
            ResourceVector(vec![1.0, 2.0]),
            ResourceVector(vec![1.0, 0.0]),
        ]);
        let plan = sched.plan(&lv, &[0.0, 100.0, 100.0]);
        // A limited by bw: 20/window (50% of 40 / 2); B by cpu: 50/window.
        assert!((plan.admitted(a) - 10.0).abs() < 1e-6, "A {}", plan.admitted(a));
        assert!((plan.admitted(b) - 50.0).abs() < 1e-6, "B {}", plan.admitted(b));
    }

    #[test]
    fn uniform_costs_match_single_resource_behavior() {
        let (g, a, b) = system();
        let lv = g.access_levels();
        let sched = MultiCommunityScheduler::new(vec![
            ResourceVector::uniform(1.0, 2),
            ResourceVector::uniform(1.0, 2),
            ResourceVector::uniform(1.0, 2),
        ]);
        // bw (40) binds for everyone: A and B each mandatorily 20.
        let plan = sched.plan(&lv, &[0.0, 100.0, 100.0]);
        assert!((plan.admitted(a) - 20.0).abs() < 1e-6);
        assert!((plan.admitted(b) - 20.0).abs() < 1e-6);
    }

    #[test]
    fn light_demand_fully_served() {
        let (g, a, b) = system();
        let lv = g.access_levels();
        let sched = MultiCommunityScheduler::new(vec![
            ResourceVector::uniform(1.0, 2),
            ResourceVector::uniform(1.0, 2),
            ResourceVector::uniform(1.0, 2),
        ]);
        let plan = sched.plan(&lv, &[0.0, 5.0, 3.0]);
        assert!((plan.admitted(a) - 5.0).abs() < 1e-6);
        assert!((plan.admitted(b) - 3.0).abs() < 1e-6);
        assert!((plan.theta.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_respected_per_kind() {
        let (g, ..) = system();
        let lv = g.access_levels();
        let costs = vec![
            ResourceVector(vec![1.0, 0.5]),
            ResourceVector(vec![2.0, 1.0]),
            ResourceVector(vec![0.5, 1.5]),
        ];
        let sched = MultiCommunityScheduler::new(costs.clone());
        let plan = sched.plan(&lv, &[0.0, 500.0, 500.0]);
        for r in 0..2 {
            let load: f64 = (0..3)
                .map(|i| plan.amount(i, 0) * costs[i].0[r])
                .sum();
            let cap = lv.kind(ResourceKind(r)).capacities()[0];
            assert!(load <= cap + 1e-6, "kind {r}: {load} > {cap}");
        }
    }

    #[test]
    fn empty_demand_zero_plan() {
        let (g, ..) = system();
        let lv = g.access_levels();
        let sched = MultiCommunityScheduler::new(vec![
            ResourceVector::uniform(1.0, 2),
            ResourceVector::uniform(1.0, 2),
            ResourceVector::uniform(1.0, 2),
        ]);
        let plan = sched.plan(&lv, &[0.0, 0.0, 0.0]);
        assert_eq!(plan.total_admitted(), 0.0);
    }
}
