//! One counters schema for every stack.
//!
//! The simulator and the sharded reactor planes each accumulate
//! overlapping-but-different counter sets.
//! [`CountersReport`] is the union, organized into sections: a solver
//! profile every stack has, plus optional admission, event-engine,
//! network-link, and sharding sections that only some stacks populate.
//! `covenant_core::report` owns the single JSON encoder; the per-stack
//! emitters there are thin wrappers that build one of these and encode it,
//! so the schemas can never drift apart.

use crate::shard::ShardSnapshot;

/// LP / plan-cache work profile. Every stack runs the same windowed
/// solver, so this section is always present.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverTotals {
    /// Windows that replayed a memoized plan instead of running the LP.
    pub plan_cache_hits: u64,
    /// Windows that ran the LP.
    pub plan_cache_misses: u64,
    /// Plan-cache entries pushed out by the LRU cap.
    pub plan_cache_evictions: u64,
    /// Simplex solves performed.
    pub lp_solves: u64,
    /// Simplex pivots performed.
    pub lp_pivots: u64,
    /// Windows solved by reusing the previous window's optimal basis.
    pub lp_warm_hits: u64,
    /// Windows the warm solver restarted cold or handed to the dense
    /// tableau.
    pub lp_cold_fallbacks: u64,
}

/// Per-request admission outcomes (live stacks; the simulator reports
/// admission through its rate series instead).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdmissionTotals {
    /// Requests admitted (forwarded to a server).
    pub admitted: u64,
    /// Requests deferred (self-redirected / refused this window).
    pub deferred: u64,
    /// Work currently parked awaiting credit.
    pub parked: u64,
    /// Connections refused with RST at a hard cap before they ever
    /// reached admission.
    pub shed: u64,
}

/// Discrete-event-engine performance profile (simulator only).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineTotals {
    /// Events popped over the run.
    pub events_processed: u64,
    /// Largest number of events ever pending at once.
    pub peak_event_queue: usize,
    /// Wall-clock event throughput.
    pub events_per_sec: f64,
    /// Combining-tree messages exchanged.
    pub tree_messages: u64,
    /// What all-pairs exchange would have cost instead.
    pub pairwise_messages_equivalent: u64,
    /// Requests dropped at a full server backlog.
    pub dropped_server: u64,
}

/// Shared-link transfer profile (simulator runs with a network model).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetTotals {
    /// Reply transfers carried across all links.
    pub transfers: u64,
    /// Reply bytes carried across all links.
    pub bytes: f64,
    /// Largest number of transfers in flight on any one link.
    pub peak_concurrent: usize,
    /// Mean reply transfer time, seconds.
    pub mean_transfer_secs: f64,
}

/// Sharded-reactor profile: aggregate batching counters plus each shard's
/// individual snapshot (the load-balance view the sums hide).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardingTotals {
    /// Readiness wakes processed, all shards.
    pub reactor_wakes: u64,
    /// Verdicts issued across all wakes, all shards.
    pub batched_verdicts: u64,
    /// Each shard's snapshot, in shard order.
    pub per_shard: Vec<ShardSnapshot>,
}

/// The unified counters payload: a solver section every stack fills in,
/// plus the sections this particular stack has.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CountersReport {
    /// LP / plan-cache work (always present).
    pub solver: SolverTotals,
    /// Admission outcomes (live stacks).
    pub admission: Option<AdmissionTotals>,
    /// Event-engine profile (simulator).
    pub engine: Option<EngineTotals>,
    /// Shared-link transfer profile (simulator with a network model).
    pub net: Option<NetTotals>,
    /// Per-shard breakdown (sharded reactor planes).
    pub sharding: Option<ShardingTotals>,
}

impl CountersReport {
    /// Report for a sharded reactor deployment: per-shard snapshots are
    /// summed into the admission and solver sections and retained verbatim
    /// in the sharding section.
    pub fn sharded(shards: &[ShardSnapshot]) -> Self {
        let mut solver = SolverTotals::default();
        let mut adm = AdmissionTotals::default();
        let mut sharding = ShardingTotals::default();
        for s in shards {
            let c = &s.counters;
            adm.admitted += c.admitted;
            adm.deferred += c.deferred;
            adm.parked += c.parked;
            adm.shed += s.shed;
            solver.plan_cache_hits += c.plan_cache_hits;
            solver.plan_cache_misses += c.plan_cache_misses;
            solver.plan_cache_evictions += c.plan_cache_evictions;
            solver.lp_solves += c.lp_solves;
            solver.lp_pivots += c.lp_pivots;
            solver.lp_warm_hits += c.lp_warm_hits;
            solver.lp_cold_fallbacks += c.lp_cold_fallbacks;
            sharding.reactor_wakes += s.reactor_wakes;
            sharding.batched_verdicts += s.batched_verdicts;
        }
        sharding.per_shard = shards.to_vec();
        Self {
            solver,
            admission: Some(adm),
            engine: None,
            net: None,
            sharding: Some(sharding),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enforcement::EnforcementCounters;

    #[test]
    fn sharded_report_sums_and_retains_shards() {
        let shards = [
            ShardSnapshot {
                counters: EnforcementCounters { admitted: 7, lp_pivots: 3, ..Default::default() },
                reactor_wakes: 4,
                batched_verdicts: 9,
                shed: 1,
            },
            ShardSnapshot {
                counters: EnforcementCounters { admitted: 5, lp_pivots: 2, ..Default::default() },
                reactor_wakes: 6,
                batched_verdicts: 11,
                shed: 0,
            },
        ];
        let r = CountersReport::sharded(&shards);
        assert_eq!(r.admission.unwrap().admitted, 12);
        assert_eq!(r.solver.lp_pivots, 5);
        let sh = r.sharding.unwrap();
        assert_eq!(sh.reactor_wakes, 10);
        assert_eq!(sh.batched_verdicts, 20);
        assert_eq!(sh.per_shard.len(), 2);
        assert_eq!(sh.per_shard[1].counters.admitted, 5);
    }
}
