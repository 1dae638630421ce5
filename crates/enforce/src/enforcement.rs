//! The transport-agnostic per-redirector enforcement state machine.
//!
//! The paper's central claim (§3–§4) is that the *same* windowed admission
//! algorithm enforces sharing agreements whether it runs behind an L7
//! redirector, an L4 proxy, or a simulator. [`EnforcementCore`] is that
//! algorithm, written once: a [`WindowScheduler`] plus the mode-specific
//! queuing state ([`CreditGate`] / [`PrincipalQueues`]), demand estimation,
//! and admitted/deferred accounting. It is sans-IO: it holds no tree, no
//! socket and no clock. Transports differ only in where they read the
//! global aggregate from and publish local demand to (the simulator's
//! in-process tree, the live coordinator) and in how they carry the two entry
//! points' verdicts back to clients: [`EnforcementCore::on_arrival`] on the
//! request path and [`EnforcementCore::on_window_tick`] at each window
//! boundary.
//!
//! # Window tick order
//!
//! Every boundary runs the same sequence on every transport:
//!
//! 1. the driver **reads** its view of the global aggregate (the freshest
//!    *previously published* total — never this round's own publication);
//! 2. the core folds the finished window's arrivals into the EWMA
//!    estimator, computes local demand for the coming window
//!    (mode-specific, plus any externally-parked backlog hint), solves the
//!    window plan on the view (the conservative fallback while there is no
//!    usable view), installs it — release queued work (explicit), refresh
//!    credits (credit modes), FIFO-reinject parked work (park mode) — and
//!    returns the demand;
//! 3. the driver **publishes** that demand into the tree.
//!
//! Read-before-publish follows from the signature — the view goes in
//! before the demand comes out — and makes the live tree exactly one
//! window stale, the same staleness the simulator's once-per-tick round
//! produces, which is what lets a live deployment and a simulation of the
//! same scenario make *identical* per-window admission decisions.

use crate::{reinject_fifo, Admission, CreditGate, PrincipalQueues, RateEstimator};
use covenant_agreements::AccessLevels;
use covenant_sched::{Plan, Request, SchedulerConfig, WindowScheduler};
use serde::{Deserialize, Serialize};

/// EWMA smoothing factor for demand estimation: the paper's prototypes
/// react within a couple of 100 ms windows, so weigh the latest window
/// half.
const DEMAND_EWMA_ALPHA: f64 = 0.5;

/// How a redirector holds back requests that exceed the current window's
/// allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueMode {
    /// Explicit per-principal queues: every request is enqueued and a
    /// window-sized batch is released at each tick (the paper's first L7
    /// implementation, which bunches requests — §4.1).
    Explicit,
    /// Credit gate with client retry: in-quota requests forward
    /// immediately; the rest are answered with a self-redirect and the
    /// client retries after `retry_delay` seconds (the final L7 scheme).
    CreditRetry {
        /// Client retry delay in seconds (one HTTP round trip; keep well
        /// under the scheduling window — a delay resonant with the window
        /// cadence can phase-lock deferred bursts against the quota refresh).
        retry_delay: f64,
    },
    /// Credit gate with parking: in-quota requests forward immediately;
    /// the rest park in a per-principal queue that is drained by later
    /// windows' credits (the L4 kernel-queue scheme).
    CreditPark,
}

/// What happened to a request when it reached the redirector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalOutcome {
    /// Admitted and forwarded to server `server` immediately.
    Forward {
        /// Target server index (principal id of the owner).
        server: usize,
    },
    /// Out of quota: tell the client to retry (L7 self-redirect).
    Defer,
    /// Held at the redirector (explicit queue or L4 parking queue).
    Queued,
}

/// A point-in-time snapshot of one enforcement core's counters, shaped for
/// the shared observability payload ([`crate::CountersReport`], which
/// `covenant_core::counters_report_json` encodes for the simulator and the
/// live planes alike).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnforcementCounters {
    /// Requests admitted (forwarded to a server).
    pub admitted: u64,
    /// Requests deferred (self-redirected / refused this window).
    pub deferred: u64,
    /// Work currently parked awaiting credit (core-internal queues;
    /// transports that park externally add their own depth on top).
    pub parked: u64,
    /// Windows that replayed a memoized plan instead of running the LP.
    pub plan_cache_hits: u64,
    /// Windows that ran the LP.
    pub plan_cache_misses: u64,
    /// Plan-cache entries pushed out by the LRU cap.
    pub plan_cache_evictions: u64,
    /// Simplex solves performed (warm revised plus dense tableau).
    pub lp_solves: u64,
    /// Simplex pivots performed (warm revised plus dense tableau).
    pub lp_pivots: u64,
    /// Windows solved by reusing the previous window's optimal basis.
    pub lp_warm_hits: u64,
    /// Windows the warm solver restarted cold (first window of a shape,
    /// level change, numerical recovery) or handed to the dense tableau.
    pub lp_cold_fallbacks: u64,
}

/// The full per-redirector admission/window state machine, transport- and
/// deployment-agnostic.
///
/// One instance enforces the sharing agreements at one redirector. The
/// data plane calls [`on_arrival`] (or [`readmit`] for parked work) per
/// request; the control plane calls [`on_window_tick`] every scheduling
/// window with the view its driver read, and publishes the demand the tick
/// returns. Everything else — LP planning, credits, queues, estimation,
/// counters — is internal.
///
/// [`on_arrival`]: Self::on_arrival
/// [`readmit`]: Self::readmit
/// [`on_window_tick`]: Self::on_window_tick
#[derive(Debug)]
pub struct EnforcementCore {
    scheduler: WindowScheduler,
    mode: QueueMode,
    /// Explicit / parking queues (unused in pure credit-retry mode).
    queues: PrincipalQueues,
    /// Credit gate (unused in explicit mode).
    gate: CreditGate,
    estimator: RateEstimator,
    /// Cost-weighted arrivals since the last tick.
    arrivals_this_window: Vec<f64>,
    /// Reused demand buffer (steady state allocates nothing).
    demand_buf: Vec<f64>,
    admitted: u64,
    deferred: u64,
    /// Debug-build conservation audit (see [`ConservationAudit`]).
    #[cfg(debug_assertions)]
    audit: ConservationAudit,
}

/// Debug-build conservation bookkeeping: the cost admitted through the
/// credit gate within one window may never exceed the credit that was
/// available when the window's plan was installed. Release builds carry
/// none of this state.
#[cfg(debug_assertions)]
#[derive(Debug, Default)]
struct ConservationAudit {
    /// Per-principal credit right after the last roll (plan allocation
    /// plus capped carry-over).
    budget: Vec<f64>,
    /// Cost admitted through the gate since the last roll.
    admitted_cost: Vec<f64>,
}

impl EnforcementCore {
    /// Builds the enforcement state machine for the principals in
    /// `levels`.
    pub fn new(levels: &AccessLevels, cfg: SchedulerConfig, mode: QueueMode) -> Self {
        let n = levels.len();
        EnforcementCore {
            scheduler: WindowScheduler::new(levels, cfg),
            mode,
            queues: PrincipalQueues::new(n),
            gate: CreditGate::for_principals(n),
            estimator: RateEstimator::new(n, DEMAND_EWMA_ALPHA),
            arrivals_this_window: vec![0.0; n],
            demand_buf: Vec::with_capacity(n),
            admitted: 0,
            deferred: 0,
            #[cfg(debug_assertions)]
            audit: ConservationAudit {
                budget: vec![0.0; n],
                admitted_cost: vec![0.0; n],
            },
        }
    }

    /// Checks the finished window's conservation invariant and resets the
    /// per-window admitted-cost tally.
    #[cfg(debug_assertions)]
    fn audit_window_end(&mut self) {
        for (i, (&spent, &had)) in
            self.audit.admitted_cost.iter().zip(&self.audit.budget).enumerate()
        {
            debug_assert!(
                spent <= had + 1e-6,
                "conservation violated: principal {i} admitted {spent} cost against a \
                 window budget of {had}"
            );
        }
        for c in &mut self.audit.admitted_cost {
            *c = 0.0;
        }
    }

    /// Snapshots the fresh window's budget (gate credit right after roll).
    #[cfg(debug_assertions)]
    fn audit_window_start(&mut self) {
        for (i, b) in self.audit.budget.iter_mut().enumerate() {
            *b = self.gate.credit(covenant_agreements::PrincipalId(i));
        }
    }

    /// Number of principals under enforcement.
    pub fn n_principals(&self) -> usize {
        self.arrivals_this_window.len()
    }

    /// The scheduling window length, seconds. Control planes must tick at
    /// exactly this cadence — quotas are scaled to it.
    pub fn window_secs(&self) -> f64 {
        self.scheduler.config().window_secs
    }

    /// Installs new access levels after a capacity or agreement change
    /// (agreements are interpreted dynamically, §2.2).
    pub fn update_levels(&mut self, levels: &AccessLevels) {
        self.scheduler.update_levels(levels);
    }

    /// A snapshot of every counter: the one read of the core's
    /// accounting, for the shared observability payload and the
    /// simulator's report alike.
    pub fn counters(&self) -> EnforcementCounters {
        let (plan_cache_hits, plan_cache_misses) = self.scheduler.cache_stats();
        let (lp_solves, lp_pivots) = self.scheduler.lp_stats();
        let warm = self.scheduler.warm_stats();
        EnforcementCounters {
            admitted: self.admitted,
            deferred: self.deferred,
            parked: self.queues.total_len() as u64,
            plan_cache_hits,
            plan_cache_misses,
            plan_cache_evictions: self.scheduler.cache_evictions(),
            lp_solves,
            lp_pivots,
            lp_warm_hits: warm.warm_solves,
            lp_cold_fallbacks: warm.cold_starts + self.scheduler.dense_fallbacks(),
        }
    }

    /// Lifetime counters of the scheduler's warm-started LP solver (all
    /// zero under the provider policy): pivots, basis rebuilds, warm and
    /// cold solves.
    pub fn warm_stats(&self) -> covenant_sched::WarmStats {
        self.scheduler.warm_stats()
    }

    /// Consumes the core, returning the requests it still held — explicit
    /// queues or parked work — FIFO per principal: what a crash loses.
    pub fn into_held(mut self) -> Vec<Request> {
        let mut held = Vec::new();
        for i in 0..self.queues.n_principals() {
            held.extend(std::iter::from_fn(|| self.queues.release_one(i)));
        }
        held
    }

    /// Handles an arriving request.
    pub fn on_arrival(&mut self, req: Request) -> ArrivalOutcome {
        self.on_arrival_preferring(req, None)
    }

    /// Handles an arriving request, preferring `preferred` server while it
    /// still has allocation (connection affinity, §4.2).
    pub fn on_arrival_preferring(&mut self, req: Request, preferred: Option<usize>) -> ArrivalOutcome {
        self.arrivals_this_window[req.principal.0] += req.cost;
        match self.mode {
            QueueMode::Explicit => {
                self.queues.push(req);
                ArrivalOutcome::Queued
            }
            QueueMode::CreditRetry { .. } | QueueMode::CreditPark => {
                match self.gate.admit_with_preference(&req, preferred) {
                    Admission::Admit { server } => {
                        self.admitted += 1;
                        #[cfg(debug_assertions)]
                        {
                            self.audit.admitted_cost[req.principal.0] += req.cost;
                        }
                        ArrivalOutcome::Forward { server }
                    }
                    Admission::Defer => match self.mode {
                        QueueMode::CreditRetry { .. } => {
                            self.deferred += 1;
                            ArrivalOutcome::Defer
                        }
                        _ => {
                            self.queues.push(req);
                            ArrivalOutcome::Queued
                        }
                    },
                }
            }
        }
    }

    /// Whether the credit gate would defer a request of `principal` that
    /// costs `cost` now: the principal's remaining credit cannot cover it.
    /// Credit only falls between window rolls, so such a request is
    /// deferred at every presentation until the next roll.
    #[inline]
    pub fn defers(&self, principal: covenant_agreements::PrincipalId, cost: f64) -> bool {
        self.gate.credit(principal) + 1e-9 < cost
    }

    /// Counts `n` more presentations of `principal`'s requests, whose costs
    /// add up to `cost`, each deferred: what `n` more calls of
    /// [`Self::on_arrival`] would do for requests the credit gate defers
    /// ([`Self::defers`]), as long as no window roll comes between — credit
    /// only falls between rolls. The simulator counts the re-presentations
    /// it decides ahead of their time this way. Its costs are whole
    /// multiples of a small power of two, so adding their sum at once
    /// leaves the window's arrival sum exactly where separate additions, in
    /// any order, would.
    pub fn defer_again(&mut self, principal: covenant_agreements::PrincipalId, n: u64, cost: f64) {
        self.arrivals_this_window[principal.0] += cost;
        self.deferred += n;
    }

    /// Attempts to admit *parked* work being reinjected: the request was
    /// already counted as an arrival when it first reached the redirector
    /// (and its continued presence is reported via the backlog hint), so
    /// it must not inflate the demand estimate again. Returns the assigned
    /// server on success; a deferral is not counted — the work stays
    /// parked.
    pub fn readmit(&mut self, req: &Request, preferred: Option<usize>) -> Option<usize> {
        match self.gate.admit_with_preference(req, preferred) {
            Admission::Admit { server } => {
                self.admitted += 1;
                #[cfg(debug_assertions)]
                {
                    self.audit.admitted_cost[req.principal.0] += req.cost;
                }
                Some(server)
            }
            Admission::Defer => None,
        }
    }

    /// Rolls the scheduling window (see the module docs for the exact
    /// sequence) and returns the local demand the driver must publish.
    /// `view` is the global aggregate the driver read before this call;
    /// one that is not a finite, non-negative value per principal — a peer
    /// that published the wrong width, a frame carrying `inf` or `NaN` —
    /// counts as no view, so the window takes the conservative plan.
    /// `backlog` is the externally-parked work per principal
    /// (cost-weighted), added to the demand; `released` is cleared and
    /// filled with the requests released from the internal queues, with
    /// their target servers.
    pub fn on_window_tick(
        &mut self,
        view: Option<&[f64]>,
        backlog: Option<&[f64]>,
        released: &mut Vec<(Request, usize)>,
    ) -> &[f64] {
        released.clear();
        // Fold the finished window's arrivals into the estimator.
        self.estimator.observe(&self.arrivals_this_window);
        for a in &mut self.arrivals_this_window {
            *a = 0.0;
        }

        // Local demand for the coming window.
        match self.mode {
            QueueMode::Explicit => self.queues.lengths_into(&mut self.demand_buf),
            QueueMode::CreditRetry { .. } => {
                self.demand_buf.clear();
                self.demand_buf.extend_from_slice(self.estimator.estimates());
            }
            QueueMode::CreditPark => {
                // Parked backlog plus expected fresh arrivals.
                self.queues.lengths_into(&mut self.demand_buf);
                for (d, e) in self.demand_buf.iter_mut().zip(self.estimator.estimates()) {
                    *d += e;
                }
            }
        }
        if let Some(b) = backlog {
            for (d, x) in self.demand_buf.iter_mut().zip(b) {
                *d += x;
            }
        }

        let n = self.n_principals();
        let view = view.filter(|v| v.len() == n && v.iter().all(|x| x.is_finite() && *x >= 0.0));
        // The finished window's audit reads only what it admitted, so it
        // closes before the plan (which borrows the scheduler) is made.
        #[cfg(debug_assertions)]
        if !matches!(self.mode, QueueMode::Explicit) {
            self.audit_window_end();
        }
        // The scheduler keeps the plan: planning a window allocates nothing.
        let plan: &Plan = self.scheduler.plan_window_in_place(view, &self.demand_buf);

        match self.mode {
            QueueMode::Explicit => {
                let dispatches = self.queues.release(plan);
                self.admitted += dispatches.len() as u64;
                released.extend(dispatches.into_iter().map(|d| (d.request, d.server)));
            }
            QueueMode::CreditRetry { .. } => {
                self.gate.roll_window(plan);
                #[cfg(debug_assertions)]
                self.audit_window_start();
            }
            QueueMode::CreditPark => {
                self.gate.roll_window(plan);
                #[cfg(debug_assertions)]
                self.audit_window_start();
                // Reinject parked requests through the fresh credit, FIFO
                // per principal, stopping at the first the gate defers.
                let gate = &mut self.gate;
                let admitted = &mut self.admitted;
                #[cfg(debug_assertions)]
                let audit_cost = &mut self.audit.admitted_cost;
                reinject_fifo(
                    self.queues.n_principals(),
                    &mut self.queues,
                    |_i, req: &Request| match gate.admit(req) {
                        Admission::Admit { server } => {
                            *admitted += 1;
                            #[cfg(debug_assertions)]
                            {
                                audit_cost[req.principal.0] += req.cost;
                            }
                            Some(server)
                        }
                        Admission::Defer => None,
                    },
                    |req, server| released.push((req, server)),
                );
            }
        }
        &self.demand_buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_agreements::{AgreementGraph, PrincipalId};

    /// Server 100 req/s, A [0.2,1], B [0.8,1] — 10 units per 100 ms window.
    fn levels() -> AccessLevels {
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 100.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.2, 1.0).unwrap();
        g.add_agreement(s, b, 0.8, 1.0).unwrap();
        g.access_levels()
    }

    const A: PrincipalId = PrincipalId(1);
    const B: PrincipalId = PrincipalId(2);

    /// A lone redirector: the view it plans on is the demand it published
    /// at the previous boundary, as on a one-node tree.
    struct Solo {
        core: EnforcementCore,
        published: Option<Vec<f64>>,
    }

    impl Solo {
        fn with_levels(levels: &AccessLevels, mode: QueueMode) -> Solo {
            let core = EnforcementCore::new(levels, SchedulerConfig::community_default(), mode);
            Solo { core, published: None }
        }

        fn new(mode: QueueMode) -> Solo {
            Solo::with_levels(&levels(), mode)
        }

        fn arrive(&mut self, id: u64, p: PrincipalId) -> ArrivalOutcome {
            self.core.on_arrival(Request::unit(id, p, 0.0))
        }

        /// Rolls one window on the last published demand and publishes the
        /// new one, returning the released requests.
        fn tick_with(&mut self, backlog: Option<&[f64]>) -> Vec<(Request, usize)> {
            let mut released = Vec::new();
            let view = self.published.as_deref();
            let demand = self.core.on_window_tick(view, backlog, &mut released).to_vec();
            self.published = Some(demand);
            released
        }

        fn tick(&mut self) -> Vec<(Request, usize)> {
            self.tick_with(None)
        }

        fn admitted(&self) -> u64 {
            self.core.counters().admitted
        }
    }

    #[test]
    fn explicit_mode_queues_then_releases_within_plan() {
        let mut c = Solo::new(QueueMode::Explicit);
        for id in 0..20 {
            assert_eq!(c.arrive(id, B), ArrivalOutcome::Queued);
        }
        // First tick plans conservatively (no view yet): half of B's
        // mandatory 8/window = 4 released.
        let first = c.tick();
        assert_eq!(first.len(), 4);
        // With the view delivered (20 demand published at the first tick),
        // the informed global plan admits the full capacity 10, scaled to
        // the local queue fraction 16/20 → 8 released.
        let second = c.tick();
        assert_eq!(second.len(), 8);
        // FIFO order by request id.
        let ids: Vec<u64> = second.iter().map(|(r, _)| r.id.0).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(c.admitted(), (first.len() + second.len()) as u64);
        assert_eq!(c.core.counters().parked, 20 - c.admitted());
    }

    #[test]
    fn credit_retry_defers_until_window_rolls() {
        let mut c = Solo::new(QueueMode::CreditRetry { retry_delay: 0.05 });
        assert_eq!(c.arrive(0, A), ArrivalOutcome::Defer);
        assert_eq!(c.arrive(1, A), ArrivalOutcome::Defer);
        // Conservative window: A's mandatory is 2/window, so half = 1.
        c.tick();
        assert_eq!(c.arrive(2, A), ArrivalOutcome::Forward { server: 0 });
        assert_eq!(c.arrive(3, A), ArrivalOutcome::Defer);
        // Informed window: demand ~2/window is fully within A's reach.
        c.tick();
        assert!(matches!(c.arrive(4, A), ArrivalOutcome::Forward { .. }));
        assert!(matches!(c.arrive(5, A), ArrivalOutcome::Forward { .. }));
        let counters = c.core.counters();
        assert_eq!(counters.admitted, 3);
        assert_eq!(counters.deferred, 3);
        assert_eq!(counters.parked, 0);
    }

    #[test]
    fn credit_park_parks_then_reinjects_fifo() {
        let mut c = Solo::new(QueueMode::CreditPark);
        for id in 0..12 {
            let out = c.arrive(id, B);
            assert_eq!(out, ArrivalOutcome::Queued, "request {id}: {out:?}");
        }
        let first = c.tick(); // conservative: half of B's 8
        assert_eq!(first.len(), 4);
        let second = c.tick();
        // FIFO across the whole parked backlog.
        let ids: Vec<u64> = first.iter().chain(&second).map(|(r, _)| r.id.0).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids {ids:?}");
        assert_eq!(c.admitted() as usize, first.len() + second.len());
        // Fresh in-quota arrivals now forward immediately.
        c.tick();
        assert!(matches!(c.arrive(100, B), ArrivalOutcome::Forward { .. }));
    }

    #[test]
    fn backlog_hint_raises_published_demand() {
        let mut c = Solo::new(QueueMode::CreditRetry { retry_delay: 0.05 });
        // No arrivals, but an externally-parked backlog of 5 for B.
        c.tick_with(Some(&[0.0, 0.0, 5.0]));
        assert_eq!(c.published.as_deref(), Some(&[0.0, 0.0, 5.0][..]));
        // Conservative window still caps at half of B's mandatory 8 = 4.
        let parked = (0..5).map(|id| Request::unit(id, B, 0.1));
        assert_eq!(parked.filter(|req| c.core.readmit(req, None).is_some()).count(), 4);
    }

    #[test]
    fn affinity_preference_honored_while_allocated() {
        let mut g = AgreementGraph::new();
        let s1 = g.add_principal("S1", 100.0);
        let s2 = g.add_principal("S2", 100.0);
        let a = g.add_principal("A", 0.0);
        g.add_agreement(s1, a, 0.5, 1.0).unwrap();
        g.add_agreement(s2, a, 0.5, 1.0).unwrap();
        let mut c =
            Solo::with_levels(&g.access_levels(), QueueMode::CreditRetry { retry_delay: 0.05 });
        let p = PrincipalId(2);
        for id in 0..40 {
            c.arrive(id, p);
        }
        c.tick();
        c.tick();
        let out = c.core.on_arrival_preferring(Request::unit(99, p, 0.2), Some(1));
        assert_eq!(out, ArrivalOutcome::Forward { server: 1 });
    }

    #[test]
    fn readmit_counts_admissions_but_not_arrivals() {
        let mut c = Solo::new(QueueMode::CreditRetry { retry_delay: 0.05 });
        for id in 0..4 {
            c.arrive(id, B);
        }
        c.tick();
        let before = c.admitted();
        let req = Request::unit(50, B, 0.15);
        assert!(c.core.readmit(&req, None).is_some());
        assert_eq!(c.admitted(), before + 1);
        // The readmission did not count as demand: the next window's
        // estimate only reflects genuine arrivals (4, then 0 → EWMA 2… but
        // readmit added nothing on top).
        c.tick();
        assert!((c.published.as_ref().unwrap()[B.0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn conservation_audit_holds_under_saturation() {
        // Saturating both principals for many windows drives the
        // debug-build conservation audit (per-window admits ≤ installed
        // budget; credits never negative) across fresh arrivals,
        // readmissions, and park reinjection. Any overdraw panics here.
        for mode in [QueueMode::CreditRetry { retry_delay: 0.05 }, QueueMode::CreditPark] {
            let mut c = Solo::new(mode);
            let mut id = 0;
            for w in 1..=20u32 {
                for _ in 0..25 {
                    let _ = c.arrive(id, A);
                    let _ = c.arrive(id + 1, B);
                    id += 2;
                }
                let _ = c.core.readmit(&Request::unit(1_000_000 + u64::from(w), B, 0.0), None);
                c.tick();
            }
            assert!(c.admitted() > 0);
        }
    }

    #[test]
    fn unusable_views_plan_like_no_view() {
        // A view of the wrong width, or with a non-finite or negative
        // entry, is no view: the window releases exactly what the
        // conservative plan releases, and still returns its demand.
        let run = |view: Option<&[f64]>| {
            let mut c = Solo::new(QueueMode::Explicit);
            for id in 0..20 {
                c.arrive(id, B);
            }
            let mut released = Vec::new();
            let demand = c.core.on_window_tick(view, None, &mut released).to_vec();
            (released.len(), demand)
        };
        let conservative = run(None);
        assert_eq!(conservative, (4, vec![0.0, 0.0, 20.0]));
        let informed = run(Some(&[0.0, 0.0, 20.0]));
        assert_eq!(informed.0, 10, "a sound view plans on it");
        for bad in [
            &[0.0, 20.0][..],
            &[0.0, 0.0, 20.0, 5.0],
            &[0.0, f64::INFINITY, 20.0],
            &[0.0, 0.0, f64::NAN],
            &[f64::NEG_INFINITY, 0.0, 20.0],
            &[0.0, -1.0, 20.0],
        ] {
            assert_eq!(run(Some(bad)), conservative, "view {bad:?}");
        }
    }

    #[test]
    fn window_secs_comes_from_scheduler_config() {
        let c = Solo::new(QueueMode::CreditPark);
        assert!((c.core.window_secs() - 0.1).abs() < 1e-12);
    }
}
