//! The simulated redirector: a thin deterministic wrapper around the
//! shared [`EnforcementCore`].
//!
//! All admission/window logic lives in `covenant-enforce` — the same state
//! machine the live L7/L4 prototypes run. This wrapper only adapts the
//! engine's calling convention; the core publishes into and reads from its
//! position in the engine's [`LocalTree`], whose round the engine closes
//! once per tick.

use crate::config::QueueMode;
use covenant_agreements::AccessLevels;
pub use covenant_enforce::ArrivalOutcome;
use covenant_enforce::{EnforcementCore, LocalCoordination};
use covenant_sched::{Request, SchedulerConfig};
use covenant_tree::LocalTree;
use std::cell::RefCell;
use std::rc::Rc;

/// One simulated redirector node.
#[derive(Debug)]
pub struct SimRedirector {
    /// Node index in the combining tree.
    pub id: usize,
    core: EnforcementCore<LocalCoordination>,
}

impl SimRedirector {
    /// Builds a redirector for the principals in `levels`, coordinating as
    /// node `id` of `tree`.
    pub fn new(
        id: usize,
        levels: &AccessLevels,
        sched_cfg: SchedulerConfig,
        mode: QueueMode,
        tree: Rc<RefCell<LocalTree>>,
    ) -> Self {
        let view = LocalCoordination::new(tree, id);
        SimRedirector { id, core: EnforcementCore::new(levels, sched_cfg, mode, view) }
    }

    /// Installs new access levels after a capacity or agreement change
    /// (agreements are interpreted dynamically, §2.2).
    pub fn update_levels(&mut self, levels: &AccessLevels) {
        self.core.update_levels(levels);
    }

    /// `(hits, misses)` of the scheduler's plan cache since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.core.cache_stats()
    }

    /// Plan-cache entries pushed out by the LRU cap since construction.
    pub fn cache_evictions(&self) -> u64 {
        self.core.cache_evictions()
    }

    /// `(solves, pivots)` across the scheduler's LP engines.
    pub fn lp_stats(&self) -> (u64, u64) {
        self.core.lp_stats()
    }

    /// `(warm_hits, cold_fallbacks)` of the warm-started revised solver.
    pub fn warm_stats(&self) -> (u64, u64) {
        self.core.warm_stats()
    }

    /// Requests admitted (forwarded) by this redirector.
    pub fn admitted(&self) -> u64 {
        self.core.admitted()
    }

    /// Requests deferred (self-redirected) by this redirector.
    pub fn deferred(&self) -> u64 {
        self.core.deferred()
    }

    /// Handles an arriving request.
    pub fn on_arrival(&mut self, req: Request) -> ArrivalOutcome {
        self.core.on_arrival(req)
    }

    /// Rolls the scheduling window at time `now`, publishing this node's
    /// demand into the tree. Fills `released` with the requests released
    /// from queues (with their target servers); the buffer is cleared
    /// first and may be reused across ticks (steady state allocates
    /// nothing).
    pub fn on_window_tick(&mut self, now: f64, released: &mut Vec<(Request, usize)>) {
        self.core.on_window_tick(now, None, released);
    }
}
