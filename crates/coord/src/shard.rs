//! Single-owner per-shard admission state for reactor data planes.

use crate::coordinator::Coordinator;
use covenant_agreements::{AccessLevels, PrincipalId};
use covenant_enforce::{ArrivalOutcome, EnforcementCore, EnforcementCounters, QueueMode};
use covenant_sched::{Request, SchedulerConfig};

/// The admission state machine one reactor shard owns *exclusively*.
///
/// A thin shell around the shared [`EnforcementCore`] — the same state
/// machine the simulator runs — that does the core's I/O on the live
/// [`Coordinator`] tree. A shard's event loop is single-threaded, so its
/// verdict path takes no locks at all — the entire batch of arrivals
/// harvested from one readiness wake runs straight through the
/// enforcement core. Shards meet each other only inside the shared tree
/// (each shard is one more leaf node), and only at window boundaries via
/// [`Self::roll_window_at`] — the paper's point that redirectors need
/// window-granularity coordination, applied at core granularity.
///
/// Every entry point takes an explicit `now` so the same machine serves
/// both live loops (passing `Coordinator::now()` sampled once per wake)
/// and virtual-time differential replays, which pin it decision for
/// decision to the simulator's recorded trace.
///
/// The core runs in credit mode: transports that park out-of-quota work
/// (L4 parked connections) hold it *outside* the core, report its depth
/// via the roll's backlog hint, and drain it through [`Self::readmit_at`].
pub struct ShardCore {
    node: usize,
    coordinator: Coordinator,
    next_request_id: u64,
    core: EnforcementCore,
    released: Vec<(Request, usize)>,
}

impl ShardCore {
    /// Builds the shard core joining the tree as leaf `node`.
    pub fn new(
        node: usize,
        levels: &AccessLevels,
        cfg: SchedulerConfig,
        coordinator: Coordinator,
    ) -> ShardCore {
        let core = EnforcementCore::new(
            levels,
            cfg,
            // Reactor transports answer out-of-quota work themselves
            // (self-redirect, external parking) — the core never holds
            // requests internally.
            QueueMode::CreditRetry { retry_delay: 0.0 },
        );
        ShardCore { node, coordinator, next_request_id: 0, core, released: Vec::new() }
    }

    /// The tree node this shard publishes demand as.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The scheduling window length, seconds.
    pub fn window_secs(&self) -> f64 {
        self.core.window_secs()
    }

    /// The shared coordinator (the shard loop's clock source).
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// Attempts to admit one unit-cost request for `principal` at time
    /// `now`, preferring `preferred` when it still has allocation.
    /// Returns the assigned server on success.
    pub fn try_admit_at(
        &mut self,
        principal: PrincipalId,
        preferred: Option<usize>,
        now: f64,
    ) -> Option<usize> {
        let id = self.next_request_id;
        self.next_request_id += 1;
        let req = Request::unit(id, principal, now);
        match self.core.on_arrival_preferring(req, preferred) {
            ArrivalOutcome::Forward { server } => Some(server),
            ArrivalOutcome::Defer | ArrivalOutcome::Queued => None,
        }
    }

    /// Like [`Self::try_admit_at`] but for parked work being reinjected:
    /// already counted as an arrival, so it must not inflate the demand
    /// estimate again.
    pub fn readmit_at(
        &mut self,
        principal: PrincipalId,
        preferred: Option<usize>,
        now: f64,
    ) -> Option<usize> {
        let id = self.next_request_id;
        self.next_request_id += 1;
        let req = Request::unit(id, principal, now);
        self.core.readmit(&req, preferred)
    }

    /// Rolls one scheduling window at time `now` — the shard loop calls
    /// this at each elapsed `k·w` boundary: *reads* the lagged global view
    /// from the tree, ticks the core on it (fold the arrivals just observed
    /// into the demand estimator, solve the LP, install fresh credits), and
    /// *publishes* the local demand the tick returns (estimates plus any
    /// data-plane backlog, e.g. L4 parked connections) into the tree.
    /// Read-before-publish makes the view one window stale — identical to
    /// the simulator's staleness, which is what the sim-vs-live
    /// differential tests rely on.
    pub fn roll_window_at(&mut self, backlog: Option<&[f64]>, now: f64) {
        let view = self.coordinator.read_at(self.node, now);
        let demand = self.core.on_window_tick(view.as_deref(), backlog, &mut self.released);
        debug_assert!(self.released.is_empty(), "credit mode never holds requests");
        self.coordinator.publish_at(self.node, demand.to_vec(), now);
    }

    /// A full counter snapshot for the sharded observability payload.
    pub fn counters(&self) -> EnforcementCounters {
        self.core.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_agreements::AgreementGraph;
    use covenant_tree::Topology;

    const A: PrincipalId = PrincipalId(1);
    const B: PrincipalId = PrincipalId(2);

    fn levels() -> AccessLevels {
        // Server 100 req/s, A [0.2,1], B [0.8,1].
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 100.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.2, 1.0).unwrap();
        g.add_agreement(s, b, 0.8, 1.0).unwrap();
        g.access_levels()
    }

    fn shard() -> ShardCore {
        ShardCore::new(
            0,
            &levels(),
            SchedulerConfig::community_default(),
            Coordinator::new(Topology::star(1, 0.0), 0.0),
        )
    }

    /// Offers `n` arrivals for `p` at `now`; returns how many were admitted.
    fn offer(core: &mut ShardCore, p: PrincipalId, n: usize, now: f64) -> usize {
        (0..n).filter(|_| core.try_admit_at(p, None, now).is_some()).count()
    }

    #[test]
    fn cold_start_defers_then_admits() {
        let mut core = shard();
        // No window rolled yet: everything defers.
        assert_eq!(offer(&mut core, A, 2, 0.05), 0);
        // First roll plans conservatively (read happens before this
        // round's publish, so the view is still empty): half of A's
        // mandatory 2/window, capped by the observed demand 2 → 1 admit.
        core.roll_window_at(None, 0.1);
        assert_eq!(offer(&mut core, A, 2, 0.15), 1);
        // Second roll sees the first round's published demand: the
        // informed plan covers the full ~2/window estimate.
        core.roll_window_at(None, 0.2);
        assert_eq!(offer(&mut core, A, 2, 0.25), 2);
        let c = core.counters();
        assert_eq!((c.admitted, c.deferred), (3, 3));
    }

    #[test]
    fn quota_respects_agreement_share() {
        let mut core = shard();
        // Saturate both principals for a few windows to prime estimates.
        for w in 1..=6u32 {
            let t = f64::from(w) * 0.1;
            for _ in 0..30 {
                let _ = core.try_admit_at(A, None, t - 0.05);
                let _ = core.try_admit_at(B, None, t - 0.05);
            }
            core.roll_window_at(None, t);
        }
        // One more saturated window: count admissions.
        let mut got_a = 0;
        let mut got_b = 0;
        for _ in 0..30 {
            got_a += offer(&mut core, A, 1, 0.65);
            got_b += offer(&mut core, B, 1, 0.65);
        }
        // Per 100 ms window: capacity 10; B entitled to 8, A to 2 (with
        // ±1 tolerance for credit carry-over).
        assert!((got_b as i64 - 8).abs() <= 1, "B got {got_b}");
        assert!((got_a as i64 - 2).abs() <= 1, "A got {got_a}");
    }

    #[test]
    fn backlog_hint_raises_demand() {
        let mut core = shard();
        let readmit = |core: &mut ShardCore, now: f64| {
            (0..5).filter(|_| core.readmit_at(B, None, now).is_some()).count()
        };
        // No arrivals at all, but a parked backlog of 5 for B. The first
        // roll is conservative (empty view): half of B's mandatory 8 = 4
        // of the parked five drain.
        core.roll_window_at(Some(&[0.0, 0.0, 5.0]), 0.1);
        assert_eq!(readmit(&mut core, 0.1), 4);
        // The second roll sees the published backlog and grants all 5.
        core.roll_window_at(Some(&[0.0, 0.0, 5.0]), 0.2);
        assert_eq!(readmit(&mut core, 0.2), 5);
    }

    #[test]
    fn virtual_time_rolls_are_deterministic() {
        // Replaying an identical arrival/roll sequence must reproduce
        // identical decisions — the property the sim-vs-live differential
        // tests build on.
        let run = || {
            let mut core = shard();
            let mut admits = Vec::new();
            for w in 1..=5u32 {
                let t = f64::from(w) * 0.1;
                admits.push(offer(&mut core, B, 12, t - 0.05));
                core.roll_window_at(None, t);
            }
            admits
        };
        let first = run();
        assert_eq!(first, run());
        // The quota ramps up from the conservative cold start instead of
        // jumping straight to steady state.
        assert!(first[0] == 0, "cold window admitted {first:?}");
        assert!(first.last().copied().unwrap() > 0, "never admitted {first:?}");
    }

    /// Node 0 of a two-node in-process tree runs three sound windows of A
    /// at 2 requests each; then its peer publishes `poison`, and node 0's
    /// next roll reads a total made from it. Returns what node 0 admits of
    /// 2 offered in the window after that roll.
    fn admits_after_peer_publishes(poison: Vec<f64>) -> usize {
        let coordinator = Coordinator::new(Topology::star(2, 0.0), 0.0);
        let mut core =
            ShardCore::new(0, &levels(), SchedulerConfig::community_default(), coordinator.clone());
        for w in 1..=3u32 {
            let t = f64::from(w) * 0.1;
            offer(&mut core, A, 2, t - 0.05);
            core.roll_window_at(None, t);
        }
        coordinator.publish_at(1, poison, 0.3);
        offer(&mut core, A, 2, 0.35);
        core.roll_window_at(None, 0.4);
        offer(&mut core, A, 2, 0.45)
    }

    #[test]
    fn a_peer_publishing_one_value_too_many_leaves_the_shard_conservative() {
        // The tree widens its sum to the widest vector; the core treats a
        // total of the wrong width as no view: half of A's mandatory 2.
        assert_eq!(admits_after_peer_publishes(vec![0.0, 1.0, 1.0, 5.0]), 1);
        // A sound peer leaves the informed plan in place: both admitted.
        assert_eq!(admits_after_peer_publishes(vec![0.0; 3]), 2);
    }

    #[test]
    fn a_peer_publishing_inf_leaves_the_shard_conservative() {
        assert_eq!(admits_after_peer_publishes(vec![0.0, f64::INFINITY, 1.0]), 1);
    }

    #[test]
    fn shard_cores_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ShardCore>();
    }
}
