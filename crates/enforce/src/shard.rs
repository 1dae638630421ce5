//! Lock-free observability for sharded data planes.
//!
//! A reactor shard owns its enforcement core exclusively — no lock to
//! snapshot counters through — so it exports them by *storing* into a
//! shared atomic block after each wake, and observers read whenever they
//! like. Relaxed ordering everywhere: these are monotone counters, and a
//! reader one store behind is indistinguishable from having read a
//! microsecond earlier.

use crate::EnforcementCounters;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic mirror of one shard's [`EnforcementCounters`] plus the
/// reactor-level batching counters the sharded JSON payload reports.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Readiness wakes processed (epoll returns with ≥1 event or an
    /// elapsed window boundary).
    reactor_wakes: AtomicU64,
    /// Admission verdicts issued across all wakes (admitted + deferred);
    /// `batched_verdicts / reactor_wakes` is the mean verdict batch one
    /// wake amortizes its syscalls over.
    batched_verdicts: AtomicU64,
    /// Connections shed with RST at a hard cap (connection table, relay
    /// table, park overflow) — work refused before it ever reached
    /// admission.
    shed: AtomicU64,
    admitted: AtomicU64,
    deferred: AtomicU64,
    parked: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    plan_cache_evictions: AtomicU64,
    lp_solves: AtomicU64,
    lp_pivots: AtomicU64,
    lp_warm_hits: AtomicU64,
    lp_cold_fallbacks: AtomicU64,
}

impl ShardStats {
    /// Fresh zeroed stats.
    pub fn new() -> ShardStats {
        ShardStats::default()
    }

    /// Records one reactor wake that issued `verdicts` admission verdicts.
    pub fn record_wake(&self, verdicts: u64) {
        self.reactor_wakes.fetch_add(1, Ordering::Relaxed);
        self.batched_verdicts.fetch_add(verdicts, Ordering::Relaxed);
    }

    /// Records one connection shed with RST at a hard cap.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the shard core's current counters.
    pub fn store_counters(&self, c: &EnforcementCounters) {
        self.admitted.store(c.admitted, Ordering::Relaxed);
        self.deferred.store(c.deferred, Ordering::Relaxed);
        self.parked.store(c.parked, Ordering::Relaxed);
        self.plan_cache_hits.store(c.plan_cache_hits, Ordering::Relaxed);
        self.plan_cache_misses.store(c.plan_cache_misses, Ordering::Relaxed);
        self.plan_cache_evictions.store(c.plan_cache_evictions, Ordering::Relaxed);
        self.lp_solves.store(c.lp_solves, Ordering::Relaxed);
        self.lp_pivots.store(c.lp_pivots, Ordering::Relaxed);
        self.lp_warm_hits.store(c.lp_warm_hits, Ordering::Relaxed);
        self.lp_cold_fallbacks.store(c.lp_cold_fallbacks, Ordering::Relaxed);
    }

    /// A point-in-time copy for reporting.
    pub fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            counters: EnforcementCounters {
                admitted: self.admitted.load(Ordering::Relaxed),
                deferred: self.deferred.load(Ordering::Relaxed),
                parked: self.parked.load(Ordering::Relaxed),
                plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
                plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
                plan_cache_evictions: self.plan_cache_evictions.load(Ordering::Relaxed),
                lp_solves: self.lp_solves.load(Ordering::Relaxed),
                lp_pivots: self.lp_pivots.load(Ordering::Relaxed),
                lp_warm_hits: self.lp_warm_hits.load(Ordering::Relaxed),
                lp_cold_fallbacks: self.lp_cold_fallbacks.load(Ordering::Relaxed),
            },
            reactor_wakes: self.reactor_wakes.load(Ordering::Relaxed),
            batched_verdicts: self.batched_verdicts.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// One shard's counters at a point in time (see [`ShardStats::snapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// The enforcement core's counters.
    pub counters: EnforcementCounters,
    /// Readiness wakes processed.
    pub reactor_wakes: u64,
    /// Verdicts issued across all wakes.
    pub batched_verdicts: u64,
    /// Connections shed with RST at a hard cap.
    pub shed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_mirrors_stores() {
        let stats = ShardStats::new();
        stats.record_wake(3);
        stats.record_wake(5);
        stats.record_shed();
        let counters = EnforcementCounters { admitted: 7, deferred: 1, ..Default::default() };
        stats.store_counters(&counters);
        let snap = stats.snapshot();
        assert_eq!(snap.reactor_wakes, 2);
        assert_eq!(snap.batched_verdicts, 8);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.counters, counters);
    }
}
