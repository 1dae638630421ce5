//! Per-window scheduling orchestration: policy dispatch and the
//! conservative fallback used before coordination data arrives.

use crate::cache::{levels_fingerprint, PlanCache};
use crate::community::PreparedCommunity;
use crate::{LocalityCaps, Plan, ProviderScheduler};
use covenant_agreements::{AccessLevels, PrincipalId};
use covenant_lp::SimplexWorkspace;

/// Which optimization the redirector runs each window.
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// Community context: maximize the minimum served queue fraction `θ`
    /// (minimizes the community-wide maximum response time).
    Community {
        /// Optional per-server locality caps for this redirector.
        locality: Option<LocalityCaps>,
    },
    /// Service-provider context: maximize `Σ p_i (x_i − MC_i)`.
    Provider {
        /// Per-principal price for requests beyond the mandatory level.
        prices: Vec<f64>,
    },
}

/// Fraction of the mandatory share a redirector admits while it has no
/// global queue information yet. The paper's prototype uses half its
/// mandatory tickets when one other redirector's state is unknown
/// (Figure 8, phase 1).
const CONSERVATIVE_FRACTION: f64 = 0.5;

/// Redirector-side scheduler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// Scheduling window length in seconds (the paper uses 0.1).
    pub window_secs: f64,
    /// Optimization policy.
    pub policy: Policy,
    /// Memoize the last solved `(levels, quantized queues) → Plan` and skip
    /// the LP when consecutive windows see the same demand (exact within
    /// [`PlanCache::QUANTUM`]). Steady-state EWMA estimates converge to a
    /// fixpoint, so this short-circuits most windows of a stable phase.
    /// Never changes admitted plans — a hit replays the identical solve.
    pub plan_cache: bool,
}

impl SchedulerConfig {
    /// The paper's defaults: 100 ms windows, community policy, half the
    /// mandatory share while uncoordinated.
    pub fn community_default() -> Self {
        SchedulerConfig {
            window_secs: 0.1,
            policy: Policy::Community { locality: None },
            plan_cache: true,
        }
    }

    /// Provider policy with the given prices.
    pub fn provider(prices: Vec<f64>) -> Self {
        SchedulerConfig {
            window_secs: 0.1,
            policy: Policy::Provider { prices },
            plan_cache: true,
        }
    }
}

/// What the redirector currently knows about global demand.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalView {
    /// No aggregate information has arrived yet (tree still propagating):
    /// schedule conservatively from local knowledge only.
    Unknown,
    /// Global per-principal queue lengths (possibly stale by the tree's
    /// propagation delay).
    Queues(Vec<f64>),
}

/// The prepared planner behind the configured policy: the community LP
/// (matrix built once, warm basis kept across windows) or the provider's
/// price-ordered fill.
#[derive(Debug, Clone)]
enum Engine {
    Community(Box<PreparedCommunity>),
    /// The provider's fill, and the plan it last returned.
    Provider(ProviderScheduler, Box<Plan>),
}

impl Engine {
    fn build(levels: &AccessLevels, policy: &Policy) -> Engine {
        match policy {
            Policy::Community { locality } => {
                Engine::Community(Box::new(PreparedCommunity::new(levels, locality.clone())))
            }
            Policy::Provider { prices } => Engine::Provider(
                ProviderScheduler::new(levels, prices.clone()),
                Box::new(Plan::zero(levels.len())),
            ),
        }
    }

    /// The global plan for `queues`, kept by the engine until its next
    /// call.
    fn plan(&mut self, ws: &mut SimplexWorkspace, queues: &[f64]) -> &Plan {
        match self {
            Engine::Community(p) => p.plan_in_place(ws, queues),
            Engine::Provider(p, last) => {
                **last = p.plan(queues);
                last
            }
        }
    }

    /// The community LP, the one engine with solver state.
    fn lp(&self) -> Option<&PreparedCommunity> {
        match self {
            Engine::Community(p) => Some(p),
            Engine::Provider(..) => None,
        }
    }

    fn warm_stats(&self) -> covenant_lp::WarmStats {
        self.lp().map(PreparedCommunity::warm_stats).unwrap_or_default()
    }

    fn dense_fallbacks(&self) -> u64 {
        self.lp().map_or(0, PreparedCommunity::dense_fallbacks)
    }
}

/// One redirector's per-window planning engine.
///
/// Holds the window-scaled [`AccessLevels`] (recomputed only when the
/// agreement graph or capacities change), the prepared planner for the
/// configured policy, a reusable [`SimplexWorkspace`], the per-window
/// [`PlanCache`], and the local plan it scales each window into. Planning
/// therefore needs `&mut self`; wrap in a lock when shared.
#[derive(Debug, Clone)]
pub struct WindowScheduler {
    cfg: SchedulerConfig,
    /// Access levels scaled to one window.
    window_levels: AccessLevels,
    engine: Engine,
    lp_ws: SimplexWorkspace,
    cache: PlanCache,
    /// `MC_i` per principal, and its split over the servers it is held on
    /// as fractions of `MC_i`: the conservative plan is the split with
    /// every row scaled by the principal's budget.
    mandatory: Vec<f64>,
    mandatory_split: Plan,
    /// Scratch for the global/local demand merge, reused across windows so
    /// steady-state planning allocates nothing.
    merged_buf: Vec<f64>,
    /// The last local plan, rewritten in place each window.
    local: Plan,
    /// Warm-solver counters accumulated from engines retired by
    /// [`WindowScheduler::update_levels`] (a level change rebuilds the
    /// prepared matrix and its basis; lifetime totals must not reset).
    warm_retired: covenant_lp::WarmStats,
    dense_retired: u64,
}

impl WindowScheduler {
    /// Builds a scheduler from *rate* access levels (requests/second) and a
    /// configuration; levels are scaled to the window internally.
    pub fn new(levels: &AccessLevels, cfg: SchedulerConfig) -> Self {
        assert!(cfg.window_secs > 0.0, "window must be positive");
        let window_levels = levels.scaled(cfg.window_secs);
        let engine = Engine::build(&window_levels, &cfg.policy);
        let cache = PlanCache::new(levels_fingerprint(&window_levels));
        let (mandatory, mandatory_split) = mandatory_split(&window_levels);
        WindowScheduler {
            mandatory,
            mandatory_split,
            window_levels,
            engine,
            lp_ws: SimplexWorkspace::new(),
            cache,
            cfg,
            merged_buf: Vec::new(),
            local: Plan::zero(0),
            warm_retired: covenant_lp::WarmStats::default(),
            dense_retired: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// The window-scaled access levels.
    pub fn window_levels(&self) -> &AccessLevels {
        &self.window_levels
    }

    /// Installs new access levels (capacity or agreement change): rebuilds
    /// the prepared planner (retiring a community LP's warm basis into the
    /// lifetime counters) and invalidates the plan cache.
    pub fn update_levels(&mut self, levels: &AccessLevels) {
        self.warm_retired.merge(self.engine.warm_stats());
        self.dense_retired += self.engine.dense_fallbacks();
        self.window_levels = levels.scaled(self.cfg.window_secs);
        self.engine = Engine::build(&self.window_levels, &self.cfg.policy);
        (self.mandatory, self.mandatory_split) = mandatory_split(&self.window_levels);
        self.cache.invalidate(levels_fingerprint(&self.window_levels));
    }

    /// `(hits, misses)` of the plan cache since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    /// Plan-cache entries pushed out by the LRU cap since construction.
    pub fn cache_evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// `(solves, pivots)` across both solver engines: warm revised solves
    /// plus any dense-tableau runs (fallbacks, or everything before the
    /// warm engine existed).
    pub fn lp_stats(&self) -> (u64, u64) {
        let warm = self.warm_stats();
        (self.lp_ws.solves() + warm.solves, self.lp_ws.pivots() + warm.pivots)
    }

    /// Lifetime counters of the warm-started revised solver, including
    /// engines retired by level changes.
    pub fn warm_stats(&self) -> covenant_lp::WarmStats {
        let mut stats = self.warm_retired;
        stats.merge(self.engine.warm_stats());
        stats
    }

    /// Windows where the warm engine refused and the dense tableau solved.
    pub fn dense_fallbacks(&self) -> u64 {
        self.dense_retired + self.engine.dense_fallbacks()
    }

    /// Plans one window. `global` is what the combining tree has delivered;
    /// `local_queues` are this redirector's own per-principal demands
    /// (requests for the coming window). Returns the *local* plan — already
    /// scaled to this redirector's queue fraction when global data is
    /// available.
    pub fn plan_window(&mut self, global: &GlobalView, local_queues: &[f64]) -> Plan {
        match global {
            GlobalView::Unknown => self.plan_window_shared(None, local_queues),
            GlobalView::Queues(global_queues) => {
                self.plan_window_shared(Some(global_queues), local_queues)
            }
        }
    }

    /// [`WindowScheduler::plan_window`] over borrowed global data: `None`
    /// means the tree has delivered nothing yet. Callers holding the
    /// aggregate in a buffer of their own (the view a driver read from its
    /// tree and handed to the enforcement core's tick) plan without
    /// materializing a `GlobalView`. `global` must hold one value per
    /// principal; the enforcement core passes `None` for a view that does
    /// not.
    pub fn plan_window_shared(&mut self, global: Option<&[f64]>, local_queues: &[f64]) -> Plan {
        self.plan_window_in_place(global, local_queues).clone()
    }

    /// [`WindowScheduler::plan_window_shared`] into the local plan this
    /// scheduler keeps, which stays valid until the next window: the global
    /// plan is written where the planner keeps it, the global/local merge
    /// reuses a scratch buffer, and the local plan is scaled in its own
    /// buffers, so a steady-state window allocates nothing.
    pub fn plan_window_in_place(&mut self, global: Option<&[f64]>, local_queues: &[f64]) -> &Plan {
        let n = self.window_levels.len();
        assert_eq!(local_queues.len(), n);
        match global {
            // Conservative fallback: admit [`CONSERVATIVE_FRACTION`] of each
            // principal's mandatory share, capped by local demand, spread
            // across servers proportionally to the mandatory entitlement.
            None => self.local.scale_rows_from(&self.mandatory_split, |i| {
                (self.mandatory[i] * CONSERVATIVE_FRACTION).min(local_queues[i].max(0.0))
            }),
            Some(global_queues) => {
                assert_eq!(global_queues.len(), n);
                // Never plan below local knowledge: a redirector always
                // knows at least its own demand even if the aggregate is
                // stale or hasn't folded it in yet.
                let mut merged = std::mem::take(&mut self.merged_buf);
                merged.clear();
                merged.extend(global_queues.iter().zip(local_queues).map(|(g, l)| g.max(*l)));
                let cache = self.cfg.plan_cache.then_some(&mut self.cache);
                let global_plan = solve(&mut self.engine, &mut self.lp_ws, cache, &merged);
                global_plan.scale_for_local_queue(local_queues, &merged, &mut self.local);
                self.merged_buf = merged;
            }
        }
        &self.local
    }

    /// Plans one window against explicit global queues, returning the
    /// *global* (unscaled) plan. Used by single-redirector deployments and
    /// by tests.
    pub fn plan_global(&mut self, queues: &[f64]) -> Plan {
        let cache = self.cfg.plan_cache.then_some(&mut self.cache);
        solve(&mut self.engine, &mut self.lp_ws, cache, queues).clone()
    }
}

/// The global plan for `queues`: the memoized one on a cache hit, else the
/// engine's, which a cache in use then stores.
fn solve<'a>(
    engine: &'a mut Engine,
    ws: &mut SimplexWorkspace,
    cache: Option<&'a mut PlanCache>,
    queues: &[f64],
) -> &'a Plan {
    let Some(cache) = cache else {
        return engine.plan(ws, queues);
    };
    if let Some(hit) = cache.lookup(queues) {
        return cache.plan(hit);
    }
    let plan = engine.plan(ws, queues);
    cache.store(plan);
    plan
}

/// `MC_i` per principal, and as row `i` of a plan `mand_share(i, k) / MC_i`
/// for every server `k` principal `i` holds a mandatory share on (an empty
/// row when `MC_i` is zero).
fn mandatory_split(levels: &AccessLevels) -> (Vec<f64>, Plan) {
    let n = levels.len();
    let mut mandatory = Vec::with_capacity(n);
    let mut split = Plan::zero(0);
    for i in 0..n {
        let pi = PrincipalId(i);
        let mc = levels.mandatory(pi);
        mandatory.push(mc);
        split.push_row(
            levels
                .row(pi)
                .iter()
                .filter(|&&(_, share, _)| mc > 0.0 && share > 0.0)
                .map(|&(k, share, _)| (k, share / mc)),
        );
    }
    (mandatory, split)
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_agreements::AgreementGraph;

    /// Figure 8 setup: server 320 req/s, A [0.8,1], B [0.2,1].
    fn figure8() -> (AgreementGraph, PrincipalId, PrincipalId) {
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 320.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.8, 1.0).unwrap();
        g.add_agreement(s, b, 0.2, 1.0).unwrap();
        (g, a, b)
    }

    #[test]
    fn conservative_mode_uses_half_mandatory() {
        // Figure 8 phase 1: B's redirector without global info admits half
        // of B's 20% of 320 = 32 req/s (the paper measures ~30).
        let (g, _a, b) = figure8();
        let lv = g.access_levels();
        let mut ws = WindowScheduler::new(&lv, SchedulerConfig::community_default());
        // B floods locally; nothing known globally.
        let plan = ws.plan_window(&GlobalView::Unknown, &[0.0, 0.0, 100.0]);
        // Per 100 ms window: half of 6.4 = 3.2 requests → 32 req/s.
        assert!((plan.admitted(b) - 3.2).abs() < 1e-9, "B got {}", plan.admitted(b));
    }

    #[test]
    fn conservative_mode_caps_at_local_demand() {
        let (g, _a, b) = figure8();
        let lv = g.access_levels();
        let mut ws = WindowScheduler::new(&lv, SchedulerConfig::community_default());
        let plan = ws.plan_window(&GlobalView::Unknown, &[0.0, 0.0, 1.0]);
        assert!((plan.admitted(b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coordinated_mode_scales_to_local_fraction() {
        let (g, a, _b) = figure8();
        let lv = g.access_levels();
        let mut ws = WindowScheduler::new(&lv, SchedulerConfig::community_default());
        // Globally A has 40 queued this window; locally we hold 10 (25%).
        let global = GlobalView::Queues(vec![0.0, 40.0, 0.0]);
        let plan = ws.plan_window(&global, &[0.0, 10.0, 0.0]);
        // Global plan admits min(40, 32-per-window)=32; local share = 25%.
        assert!((plan.admitted(a) - 8.0).abs() < 1e-6, "A got {}", plan.admitted(a));
    }

    #[test]
    fn stale_global_view_merges_local_demand() {
        let (g, a, _b) = figure8();
        let lv = g.access_levels();
        let mut ws = WindowScheduler::new(&lv, SchedulerConfig::community_default());
        // Tree says zero demand, but we locally hold 10 requests for A.
        let global = GlobalView::Queues(vec![0.0, 0.0, 0.0]);
        let plan = ws.plan_window(&global, &[0.0, 10.0, 0.0]);
        assert!(plan.admitted(a) > 0.0, "local demand must not be starved by a stale tree");
    }

    #[test]
    fn provider_policy_dispatches() {
        let (g, a, b) = figure8();
        let lv = g.access_levels();
        let mut ws = WindowScheduler::new(&lv, SchedulerConfig::provider(vec![0.0, 2.0, 1.0]));
        let plan = ws.plan_global(&[0.0, 80.0, 40.0]);
        // Per-window capacity 32: A pays more, B pinned at mandatory 6.4.
        assert!((plan.admitted(b) - 6.4).abs() < 1e-6);
        assert!((plan.admitted(a) - 25.6).abs() < 1e-6);
        assert!(plan.income.is_some());
    }

    #[test]
    fn update_levels_rescales() {
        let (g, _a, b) = figure8();
        let lv = g.access_levels();
        let mut ws = WindowScheduler::new(&lv, SchedulerConfig::community_default());
        let mut g2 = AgreementGraph::new();
        let s = g2.add_principal("S", 640.0);
        let a2 = g2.add_principal("A", 0.0);
        let b2 = g2.add_principal("B", 0.0);
        g2.add_agreement(s, a2, 0.8, 1.0).unwrap();
        g2.add_agreement(s, b2, 0.2, 1.0).unwrap();
        ws.update_levels(&g2.access_levels());
        let plan = ws.plan_window(&GlobalView::Unknown, &[0.0, 0.0, 100.0]);
        assert!((plan.admitted(b) - 6.4).abs() < 1e-9);
    }

    #[test]
    fn repeated_queues_hit_the_plan_cache() {
        let (g, ..) = figure8();
        let lv = g.access_levels();
        let mut ws = WindowScheduler::new(&lv, SchedulerConfig::community_default());
        let queues = vec![0.0, 40.0, 25.0];
        let first = ws.plan_global(&queues);
        let (solves_after_first, _) = ws.lp_stats();
        for _ in 0..5 {
            assert_eq!(ws.plan_global(&queues), first);
        }
        let (hits, misses) = ws.cache_stats();
        assert_eq!(hits, 5);
        assert_eq!(misses, 1);
        // Cache hits must not have touched the solver.
        assert_eq!(ws.lp_stats().0, solves_after_first);
    }

    #[test]
    fn plan_cache_never_changes_plans() {
        let (g, ..) = figure8();
        let lv = g.access_levels();
        let mut cached = WindowScheduler::new(&lv, SchedulerConfig::community_default());
        let mut uncached = WindowScheduler::new(
            &lv,
            SchedulerConfig { plan_cache: false, ..SchedulerConfig::community_default() },
        );
        // A demand walk with repeats: hits and misses interleave. The
        // final vector differs sub-quantum from the first, so the cache is
        // allowed to replay the earlier plan — plans must agree within the
        // quantum, not bit-for-bit.
        let walks =
            [[0.0, 10.0, 5.0], [0.0, 10.0, 5.0], [0.0, 12.0, 5.0], [0.0, 10.0, 5.0 + 1e-9]];
        for q in &walks {
            let a = cached.plan_global(q);
            let b = uncached.plan_global(q);
            for (va, vb) in a.amounts().iter().zip(b.amounts()) {
                assert!((va - vb).abs() <= 1e-6, "queues {q:?}: {va} vs {vb}");
            }
            assert!(
                (a.theta.unwrap_or(0.0) - b.theta.unwrap_or(0.0)).abs() <= 1e-6,
                "queues {q:?}"
            );
        }
        assert!(cached.cache_stats().0 > 0, "walk contained repeats; cache must hit");
        assert_eq!(uncached.cache_stats(), (0, 0));
    }

    #[test]
    fn update_levels_invalidates_the_cache() {
        let (g, _a, b) = figure8();
        let lv = g.access_levels();
        let mut ws = WindowScheduler::new(&lv, SchedulerConfig::community_default());
        let queues = vec![0.0, 0.0, 100.0];
        let _ = ws.plan_global(&queues);
        let mut g2 = AgreementGraph::new();
        let s = g2.add_principal("S", 640.0);
        let a2 = g2.add_principal("A", 0.0);
        let b2 = g2.add_principal("B", 0.0);
        g2.add_agreement(s, a2, 0.8, 1.0).unwrap();
        g2.add_agreement(s, b2, 0.2, 1.0).unwrap();
        ws.update_levels(&g2.access_levels());
        // Same queue vector, new levels: must re-solve, not replay. Alone on
        // the doubled server, B bursts to the full 64 per window (a stale
        // replay would still say 32).
        let plan = ws.plan_global(&queues);
        assert!((plan.admitted(b) - 64.0).abs() < 1e-6, "B {}", plan.admitted(b));
        assert_eq!(ws.cache_stats().0, 0);
    }
}
