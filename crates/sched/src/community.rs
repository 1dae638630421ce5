//! The community-context "Global Response Time" linear program (§3.1.2).
//!
//! Participants contribute servers to a shared pool and submit requests; the
//! admission controller minimizes the maximum response time across all
//! participants by maximizing the minimum *fraction of each queue served
//! this window*:
//!
//! ```text
//! maximize   θ
//! subject to Σ_k x_ik ≥ θ·n_i                    ∀i with n_i > 0
//!            Σ_k x_ki ≤ V_i                      ∀i   (server capacity)
//!            x_ik ≤ MI_ki + OI_ki                ∀i,k (agreement upper bounds)
//!            Σ_k x_ik ≥ min(n_i, MC_i)           ∀i   (mandatory guarantee)
//!            Σ_k x_ik ≤ n_i                      ∀i   (queue limit)
//!            Σ_k x_ki ≤ c_i                      ∀i   (optional locality cap)
//! ```
//!
//! The mandatory guarantee is enforced as an *aggregate* floor per
//! principal rather than the paper's per-pair `MI_ki ≤ x_ik` form (whose
//! lower bound the paper drops when `n_i < MC_i`). The aggregate form is
//! what the paper's prototypes measurably do: in Figure 9's third phase, a
//! principal demanding less than its mandatory level (`A` at 400 of 480)
//! is served fully while being *placed* so as to leave the maximum room
//! for others' optional reuse (`B` reaches 240, which per-pair floors
//! would forbid by pinning 160 of `A`'s load onto `B`'s server). Any
//! aggregate floor is always placeable because the per-server mandatory
//! shares partition capacity (`Σ_i MI_ji ≤ V_j`).
//!
//! Only pairs `(i, k)` with a positive agreement upper bound can carry
//! load, so only they get a variable: the program has `1 + pairs`
//! variables and the solved [`Plan`] one entry per pair — both
//! proportional to the agreement graph, not to `n²` (see
//! [`PreparedCommunity`]).

use crate::Plan;
use covenant_agreements::{AccessLevels, PrincipalId};
use covenant_lp::{LpStatus, Problem, Relation, SimplexWorkspace, WarmBasis, WarmOutcome, WarmStats};

/// Per-server locality caps: `caps[k]` limits how many requests this
/// redirector may push to principal `k`'s servers in one window (modelling
/// forwarding cost / locality preferences).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalityCaps(pub Vec<f64>);

/// Solver for the community model.
///
/// Stateless apart from configuration; call [`Self::plan`] once per window
/// with window-scaled access levels and (global) queue lengths.
#[derive(Debug, Clone, Default)]
pub struct CommunityScheduler {
    /// Optional per-server locality caps (requests per window).
    pub locality: Option<LocalityCaps>,
}

impl CommunityScheduler {
    /// A scheduler without locality caps.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scheduler with locality caps.
    pub fn with_locality(caps: LocalityCaps) -> Self {
        CommunityScheduler { locality: Some(caps) }
    }

    /// Solves the community LP for one window.
    ///
    /// * `levels` — access levels **already scaled to the window length**
    ///   (see [`AccessLevels::scaled`]); capacities are per-window budgets.
    /// * `queues` — per-principal queue lengths `n_i` (global estimates in
    ///   the distributed setting).
    ///
    /// If the agreement lower bounds make the program infeasible (possible
    /// under tight locality caps), they are dropped and the program re-solved;
    /// a still-infeasible program yields the zero plan.
    pub fn plan(&self, levels: &AccessLevels, queues: &[f64]) -> Plan {
        let mut prepared = PreparedCommunity::new(levels, self.locality.clone());
        prepared.plan_with(&mut SimplexWorkspace::new(), queues)
    }
}

/// Appends the three rows every principal has in a community window LP,
/// over `row` — its pair variables, coefficient 1 each: queue limit
/// `Σ_k x_ik ≤ n_i`, θ coverage `Σ_k x_ik − θ·n_i ≥ 0` (θ, variable 0, at
/// slot 0, its coefficient rewritten each window) and mandatory floor
/// `Σ_k x_ik ≥ floor_i`. Right-hand sides are installed per window.
fn add_principal_rows(p: &mut Problem, row: Vec<(usize, f64)>) {
    p.add_constraint(row.clone(), Relation::Le, 0.0);
    let mut cov = Vec::with_capacity(row.len() + 1);
    cov.push((0, 0.0));
    cov.extend_from_slice(&row);
    p.add_constraint(cov, Relation::Ge, 0.0);
    p.add_constraint(row, Relation::Ge, 0.0);
}

/// The community LP with its constraint matrix built once and reused.
///
/// Variables are numbered compactly: `θ` is variable 0, then one variable
/// per `(principal, server)` pair whose agreement upper bound is positive,
/// in row-major `(i, k)` order. A pair with no agreement can never carry
/// load, so it gets no column at all: the problem has `1 + pairs`
/// variables, `O(agreements)`, where the textbook formulation has
/// `1 + n²`. Each kept column carries its textbook index `1 + i·n + k` as
/// its tie-break id ([`Problem::set_tiebreak_id`]), so the canonical
/// vertex — and with it every plan — is the one the full formulation
/// yields.
///
/// All rows exist for every window: principals with an empty queue keep a
/// trivially-satisfied coverage row (θ-coefficient 0) and floor row
/// (rhs 0), so the shape is identical across windows and the warm basis
/// carries over. Per window only the right-hand sides and the
/// queue-derived θ-coefficients are rewritten.
///
/// Row layout: for principal `i`, rows `3i` (queue limit `≤ n_i`),
/// `3i + 1` (θ coverage `≥ 0`), `3i + 2` (mandatory floor `≥ floor_i`);
/// then one capacity row per server (each followed by its locality row
/// when caps are configured). The θ coefficient sits at slot 0 of every
/// coverage row (the one per-window coefficient rewrite). A principal with
/// no agreements at all keeps an empty queue/floor row and a coverage row
/// of just `−θ·n_i ≥ 0`, which forces `θ = 0` whenever it has demand.
#[derive(Debug, Clone)]
pub struct PreparedCommunity {
    n: usize,
    base: Problem,
    /// Window-scaled mandatory level `MC_i` per principal.
    mandatory: Vec<f64>,
    /// The plan over the agreement-backed pairs, entry `p` being LP
    /// variable `1 + p`: each solved window writes its amounts here, so a
    /// window allocates no plan.
    plan: Plan,
    /// The all-zero plan: a window without demand, or with no feasible
    /// program.
    zero: Plan,
    /// Persistent basis for the warm-started revised solver.
    warm: WarmBasis,
    /// Windows the warm engine refused and the dense tableau solved.
    dense_fallbacks: u64,
}

impl PreparedCommunity {
    /// Builds the skeleton from window-scaled access levels.
    pub fn new(levels: &AccessLevels, locality: Option<LocalityCaps>) -> Self {
        let n = levels.len();
        let caps = levels.capacities();
        // Agreement upper bounds of the pairs that exist at all, row-major.
        let mut pairs = Plan::zero(0);
        let mut ubs = Vec::new();
        for i in 0..n {
            pairs.push_row(levels.row(PrincipalId(i)).iter().filter_map(|&(k, mand, opt)| {
                let ub = mand + opt;
                (ub > 0.0).then(|| {
                    ubs.push(ub);
                    (k, 0.0)
                })
            }));
        }
        // Variable layout: 0 = θ, then pair p at 1 + p.
        let mut p = Problem::new(1 + ubs.len());
        p.set_objective_coeff(0, 1.0);
        if n > 0 {
            p.set_upper_bound(0, 1.0); // θ ≤ 1: cannot serve more than the queue
        }
        // Columns of each server's pairs, for the capacity rows.
        let mut by_server: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut mandatory = Vec::with_capacity(n);
        for i in 0..n {
            let row: Vec<(usize, f64)> = pairs.row_range(i).map(|e| (1 + e, 1.0)).collect();
            for e in pairs.row_range(i) {
                let k = pairs.servers()[e] as usize;
                p.set_upper_bound(1 + e, ubs[e]);
                p.set_tiebreak_id(1 + e, 1 + i * n + k);
                by_server[k].push((1 + e, 1.0));
            }
            add_principal_rows(&mut p, row);
            mandatory.push(levels.mandatory(PrincipalId(i)));
        }
        // Server capacities: Σ_i x_ik ≤ V_k, plus locality caps.
        for (k, row) in by_server.into_iter().enumerate() {
            if let Some(LocalityCaps(c)) = &locality {
                p.add_constraint(row.clone(), Relation::Le, caps[k].max(0.0));
                p.add_constraint(row, Relation::Le, c[k].max(0.0));
            } else {
                p.add_constraint(row, Relation::Le, caps[k].max(0.0));
            }
        }
        PreparedCommunity {
            n,
            base: p,
            mandatory,
            plan: pairs,
            zero: Plan::zero(n),
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
        for (i, &q) in queues.iter().enumerate().take(self.n) {
            let ni = q.max(0.0);
            self.base.set_constraint_rhs(3 * i, ni);
            self.base.set_constraint_coeff(3 * i + 1, 0, -ni);
            let floor = if floors { self.mandatory[i].min(ni).max(0.0) } else { 0.0 };
            self.base.set_constraint_rhs(3 * i + 2, floor);
        }
    }

    /// Applies `queues` (with mandatory floors) and exposes the underlying
    /// window LP, so the bench harness can time the retained reference
    /// solver on exactly the problem the fast path solves.
    pub fn window_problem(&mut self, queues: &[f64]) -> &Problem {
        assert_eq!(queues.len(), self.n, "queue vector length must match principal count");
        self.update_queues(queues, true);
        &self.base
    }

    /// Warm solve with dense fallback, writing the solution into the kept
    /// plan; false means infeasible under both engines (caller retries
    /// without floors).
    fn solve_window(&mut self, ws: &mut SimplexWorkspace) -> bool {
        let x = match self.base.solve_warm(&mut self.warm) {
            WarmOutcome::Optimal => self.warm.x(),
            WarmOutcome::Infeasible => return false,
            WarmOutcome::Unsuitable => {
                self.dense_fallbacks += 1;
                if self.base.solve_in_place(ws) != LpStatus::Optimal {
                    return false;
                }
                ws.x()
            }
        };
        self.plan.fill_amounts(&x[1..], x.first().copied());
        true
    }

    /// Solves one window, with the same semantics as
    /// [`CommunityScheduler::plan`] (floors dropped on infeasibility, zero
    /// plan as the last resort). The window goes through the warm-started
    /// revised solver, reusing the previous window's basis; `ws` only runs
    /// when the warm engine declares the problem unsuitable. The plan is
    /// written into one this skeleton keeps, so a steady-state window
    /// allocates nothing; it stays valid until the next call.
    pub fn plan_in_place(&mut self, ws: &mut SimplexWorkspace, queues: &[f64]) -> &Plan {
        let n = self.n;
        assert_eq!(queues.len(), n, "queue vector length must match principal count");
        if n == 0 || queues.iter().all(|&q| q <= 0.0) {
            return &self.zero;
        }
        self.update_queues(queues, true);
        if self.solve_window(ws) {
            return &self.plan;
        }
        self.update_queues(queues, false);
        if self.solve_window(ws) {
            return &self.plan;
        }
        &self.zero
    }

    /// [`Self::plan_in_place`], returning a plan of the caller's own.
    pub fn plan_with(&mut self, ws: &mut SimplexWorkspace, queues: &[f64]) -> Plan {
        self.plan_in_place(ws, queues).clone()
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

    /// Two community members each owning a 100-req/window server, B sharing
    /// half with A (Figure 9 shape, scaled down).
    fn community_pair() -> (AgreementGraph, PrincipalId, PrincipalId) {
        let mut g = AgreementGraph::new();
        let a = g.add_principal("A", 100.0);
        let b = g.add_principal("B", 100.0);
        g.add_agreement(b, a, 0.5, 0.5).unwrap();
        (g, a, b)
    }

    #[test]
    fn both_queues_fully_served_under_light_load() {
        let (g, a, b) = community_pair();
        let lv = g.access_levels();
        let plan = CommunityScheduler::new().plan(&lv, &[30.0, 30.0]);
        assert!((plan.theta.unwrap() - 1.0).abs() < 1e-9);
        assert!((plan.admitted(a) - 30.0).abs() < 1e-9);
        assert!((plan.admitted(b) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn overload_respects_shares() {
        // A floods; B floods. A is entitled to 100 (own) + 50 (from B);
        // B retains 50. θ = min fraction.
        let (g, a, b) = community_pair();
        let lv = g.access_levels();
        let plan = CommunityScheduler::new().plan(&lv, &[1000.0, 1000.0]);
        let got_a = plan.admitted(a);
        let got_b = plan.admitted(b);
        // Total capacity 200 fully used.
        assert!((got_a + got_b - 200.0).abs() < 1e-6);
        // Mandatory guarantees under overload: A ≥ 150, B ≥ 50.
        assert!(got_a >= 150.0 - 1e-6, "A admitted {got_a}");
        assert!(got_b >= 50.0 - 1e-6, "B admitted {got_b}");
    }

    #[test]
    fn figure9_phase3_optional_reuse() {
        // A owns 320, B owns 320 and shares [0.5,0.5] with A. A demands
        // 400 (< its 480 mandatory), B floods. A must be fully served AND
        // placed to leave B the leftover: B gets 160 + (160 − 80) = 240.
        let mut g = AgreementGraph::new();
        let a = g.add_principal("A", 320.0);
        let b = g.add_principal("B", 320.0);
        g.add_agreement(b, a, 0.5, 0.5).unwrap();
        let lv = g.access_levels();
        assert!((lv.mandatory(a) - 480.0).abs() < 1e-9);
        assert!((lv.mandatory(b) - 160.0).abs() < 1e-9);
        assert!((lv.optional(b) - 160.0).abs() < 1e-9);
        let plan = CommunityScheduler::new().plan(&lv, &[400.0, 400.0]);
        assert!((plan.admitted(a) - 400.0).abs() < 1e-6, "A {}", plan.admitted(a));
        assert!((plan.admitted(b) - 240.0).abs() < 1e-6, "B {}", plan.admitted(b));
        // Phase 1: A floods with two clients (800): A pinned at 480, B 160.
        let plan = CommunityScheduler::new().plan(&lv, &[800.0, 400.0]);
        assert!((plan.admitted(a) - 480.0).abs() < 1e-6, "A {}", plan.admitted(a));
        assert!((plan.admitted(b) - 160.0).abs() < 1e-6, "B {}", plan.admitted(b));
    }

    #[test]
    fn figure7_theta_shares_capacity_by_demand() {
        // V=250, both [0.2,1]; demands 270 vs 135 → served 2:1 (166.7/83.3).
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 250.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.2, 1.0).unwrap();
        g.add_agreement(s, b, 0.2, 1.0).unwrap();
        let lv = g.access_levels();
        let plan = CommunityScheduler::new().plan(&lv, &[0.0, 270.0, 135.0]);
        assert!((plan.admitted(a) - 500.0 / 3.0).abs() < 1e-4, "A {}", plan.admitted(a));
        assert!((plan.admitted(b) - 250.0 / 3.0).abs() < 1e-4, "B {}", plan.admitted(b));
    }

    #[test]
    fn figure6_phase1_mandatory_overrides_theta() {
        // V=320, A [0.2,1] demanding 270, B [0.8,1] demanding 135: B is
        // below its mandatory 256 → fully served even though pure θ-max
        // would give it less; A takes the remainder (185).
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 320.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.2, 1.0).unwrap();
        g.add_agreement(s, b, 0.8, 1.0).unwrap();
        let lv = g.access_levels();
        let plan = CommunityScheduler::new().plan(&lv, &[0.0, 270.0, 135.0]);
        assert!((plan.admitted(b) - 135.0).abs() < 1e-6, "B {}", plan.admitted(b));
        assert!((plan.admitted(a) - 185.0).abs() < 1e-6, "A {}", plan.admitted(a));
    }

    #[test]
    fn idle_partner_frees_optional_capacity() {
        // B idle: A may use its mandatory 150 but not B's retained 50
        // (A's upper bound on B's server is 50 with a [0.5,0.5] agreement).
        let (g, a, b) = community_pair();
        let lv = g.access_levels();
        let plan = CommunityScheduler::new().plan(&lv, &[1000.0, 0.0]);
        assert!((plan.admitted(a) - 150.0).abs() < 1e-6);
        assert_eq!(plan.admitted(b), 0.0);
    }

    #[test]
    fn optional_headroom_allows_bursting() {
        // Provider-style shares in a community LP: S owns 320, A [0.2,1],
        // B [0.8,1]. With only A active, A can take the whole server.
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 320.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.2, 1.0).unwrap();
        g.add_agreement(s, b, 0.8, 1.0).unwrap();
        let lv = g.access_levels();
        // Queue order is [S, A, B]: only A has demand.
        let plan = CommunityScheduler::new().plan(&lv, &[0.0, 400.0, 0.0]);
        assert!((plan.admitted(a) - 320.0).abs() < 1e-6);
        assert_eq!(plan.admitted(b), 0.0);
    }

    #[test]
    fn figure6_phase1_shares() {
        // V=320; A [0.2,1] with 270 req/s demand, B [0.8,1] with 135 req/s.
        // B below its mandatory 256 → fully served; A takes the rest (185).
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 320.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.2, 1.0).unwrap();
        g.add_agreement(s, b, 0.8, 1.0).unwrap();
        let lv = g.access_levels();
        let plan = CommunityScheduler::new().plan(&lv, &[0.0, 270.0, 135.0]);
        let got_a = plan.admitted(a);
        let got_b = plan.admitted(b);
        assert!((got_a + got_b - 320.0).abs() < 1e-6);
        // B's demand is under its mandatory share: every B request admitted.
        // (θ-fairness serves equal fractions when feasible: θ = 320/405.)
        assert!(got_b >= 106.0, "B admitted {got_b}");
        assert!(got_a >= 64.0 - 1e-6, "A admitted {got_a}");
    }

    #[test]
    fn locality_caps_limit_server_load() {
        let (g, a, _b) = community_pair();
        let lv = g.access_levels();
        let sched = CommunityScheduler::with_locality(LocalityCaps(vec![20.0, 20.0]));
        let plan = sched.plan(&lv, &[1000.0, 0.0]);
        assert!(plan.server_load(0) <= 20.0 + 1e-9);
        assert!(plan.server_load(1) <= 20.0 + 1e-9);
        assert!(plan.admitted(a) <= 40.0 + 1e-9);
        // Mandatory floors conflict with the caps; solver must fall back
        // rather than return a zero plan.
        assert!(plan.admitted(a) > 0.0);

        // The trade-off: two 10-request-per-window servers, both principals
        // flooding through a redirector beside server 0 that caps its
        // pushes to server 1. A cap of 0 leaves server 1 idle (50 % use);
        // from 10 per window, both servers are full.
        let mut g = AgreementGraph::new();
        let a = g.add_principal("A", 100.0);
        let b = g.add_principal("B", 100.0);
        g.add_agreement(a, b, 0.3, 0.8).unwrap();
        g.add_agreement(b, a, 0.3, 0.8).unwrap();
        let lv = g.access_levels().scaled(0.1);
        for (remote_cap, utilization) in [(0.0, 0.5), (10.0, 1.0), (1e12, 1.0)] {
            let sched = CommunityScheduler::with_locality(LocalityCaps(vec![1e12, remote_cap]));
            let plan = sched.plan(&lv, &[30.0, 30.0]);
            assert!(plan.server_load(1) <= remote_cap + 1e-9, "cap {remote_cap}");
            let used = plan.total_admitted() / 20.0;
            assert!((used - utilization).abs() < 1e-6, "cap {remote_cap}: {used}");
        }
    }

    #[test]
    fn empty_queues_give_zero_plan() {
        let (g, ..) = community_pair();
        let lv = g.access_levels();
        let plan = CommunityScheduler::new().plan(&lv, &[0.0, 0.0]);
        assert_eq!(plan.total_admitted(), 0.0);
    }

    #[test]
    fn capacity_never_exceeded() {
        let (g, ..) = community_pair();
        let lv = g.access_levels();
        let plan = CommunityScheduler::new().plan(&lv, &[500.0, 700.0]);
        for k in 0..2 {
            assert!(plan.server_load(k) <= lv.capacities()[k] + 1e-6);
        }
    }

    #[test]
    fn admitted_never_exceeds_queue() {
        let (g, a, b) = community_pair();
        let lv = g.access_levels();
        let plan = CommunityScheduler::new().plan(&lv, &[10.0, 5.0]);
        assert!(plan.admitted(a) <= 10.0 + 1e-9);
        assert!(plan.admitted(b) <= 5.0 + 1e-9);
    }
}
