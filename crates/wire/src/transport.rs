//! The socket-tree [`CoordTransport`]: what the enforcement plane sees.
//!
//! One `WireTransport` lives in each process (or, in loopback tests, each
//! runtime thread) and represents exactly one tree node. Publishes are
//! queued to the node's wire runtime and become `Up` frames; reads consult
//! the same stamped [`DelayedView`] the in-process tree and the simulator
//! use, into which the runtime delivers the `Down` totals. The staleness
//! contract is structural: a round's total is only ever stamped *at or
//! after* the boundary that round was published at, so the enforcement
//! core's strictly-before reads observe at best the previous round — one
//! window stale, exactly like the in-process tree.

use crate::clock::WireClock;
use crate::node::WireNodeConfig;
use crate::stats::WireStats;
use covenant_reactor::WakeHandle;
use covenant_tree::{CoordTransport, DelayedView};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How the runtime stamps delivered totals into the local view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StampMode {
    /// Stamp with the boundary time carried in the frame, and never force
    /// a round on timeout — deterministic virtual-time replays (the
    /// sim/live differential test) where the caller barriers on
    /// [`WireTransport::completed_rounds`] between boundaries.
    Virtual,
    /// Stamp with the local receive time from the [`WireClock`] — the
    /// propagation delay becomes a *measured* quantity — and force rounds
    /// with last-good child values at the next aligned window boundary.
    Live,
}

/// The per-node [`CoordTransport`] over the wire runtime (see module docs).
pub struct WireTransport {
    /// Own publishes `(demand, boundary time)` awaiting the runtime
    /// (drained on wake).
    pub(crate) outbox: Mutex<VecDeque<(Vec<f64>, f64)>>,
    /// Highest round whose global total reached this node.
    rounds_completed: AtomicU64,
    /// Delivered global totals, visible to reads once the configured extra
    /// lag has elapsed.
    view: Mutex<DelayedView<Vec<f64>>>,
    pub(crate) stats: Arc<WireStats>,
    pub(crate) clock: WireClock,
    pub(crate) mode: StampMode,
    wake: WakeHandle,
    /// Set to end the runtime thread.
    pub(crate) stop: AtomicBool,
    /// Tree size, for `CoordTransport::nodes`.
    n_nodes: usize,
    /// This endpoint's tree node id (publish/read `node` args must match).
    node: usize,
}

impl WireTransport {
    /// The transport of the node `cfg` describes.
    pub(crate) fn new(cfg: &WireNodeConfig, wake: WakeHandle) -> Self {
        WireTransport {
            outbox: Mutex::new(VecDeque::new()),
            rounds_completed: AtomicU64::new(0),
            view: Mutex::new(DelayedView::new(cfg.extra_lag)),
            stats: Arc::new(WireStats::new()),
            clock: WireClock::new(),
            mode: cfg.mode,
            wake,
            stop: AtomicBool::new(false),
            n_nodes: cfg.nodes,
            node: cfg.node,
        }
    }

    /// Tells the runtime thread to finish and wakes it.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.wake.wake();
    }

    /// Runtime-side delivery of round `round`'s global total.
    pub(crate) fn deliver(&self, round: u64, stamp: f64, total: Vec<f64>) {
        self.view.lock().publish(stamp, total);
        self.rounds_completed.fetch_max(round, Ordering::Release);
    }

    /// This endpoint's tree node id.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The runtime's counters (frames, rounds, reconnects, RTT).
    pub fn stats(&self) -> &Arc<WireStats> {
        &self.stats
    }

    /// The shared physical clock.
    pub fn clock(&self) -> WireClock {
        self.clock
    }

    /// Highest round whose global total has reached this node — the
    /// barrier virtual-time replays wait on between boundaries.
    pub fn completed_rounds(&self) -> u64 {
        self.rounds_completed.load(Ordering::Acquire)
    }
}

impl CoordTransport for WireTransport {
    fn nodes(&self) -> usize {
        self.n_nodes
    }

    fn publish_at(&self, node: usize, demand: Vec<f64>, t: f64) {
        debug_assert_eq!(node, self.node, "wire transport is bound to one node");
        self.outbox.lock().push_back((demand, t));
        self.wake.wake();
    }

    fn read_before(&self, node: usize, t: f64) -> Option<Vec<f64>> {
        debug_assert_eq!(node, self.node, "wire transport is bound to one node");
        self.view.lock().read_before(t).cloned()
    }

    fn clock_epoch(&self) -> Option<Instant> {
        match self.mode {
            StampMode::Live => Some(self.clock.epoch()),
            StampMode::Virtual => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_reactor::WakeFd;

    fn transport(extra_lag: f64) -> WireTransport {
        let (_fd, wake) = WakeFd::new().expect("eventfd");
        let cfg = WireNodeConfig {
            node: 1,
            nodes: 3,
            parent: None,
            children: Vec::new(),
            epoch: 1,
            mode: StampMode::Virtual,
            window: std::time::Duration::from_millis(100),
            extra_lag,
            bind: "127.0.0.1:0".parse().expect("loopback bind"),
        };
        WireTransport::new(&cfg, wake)
    }

    #[test]
    fn publishes_queue_in_order() {
        let t = transport(0.0);
        t.publish_at(1, vec![1.0], 0.1);
        t.publish_at(1, vec![2.0], 0.2);
        let outbox = t.outbox.lock();
        let times: Vec<f64> = outbox.iter().map(|(_, at)| *at).collect();
        assert_eq!(times, vec![0.1, 0.2]);
    }

    #[test]
    fn reads_are_strictly_before_and_wait_out_the_extra_lag() {
        let t = transport(0.0);
        t.deliver(1, 0.1, vec![5.0]);
        assert_eq!(t.read_before(1, 0.1), None);
        t.deliver(2, 0.2, vec![7.0]);
        assert_eq!(t.read_before(1, 0.2), Some(vec![5.0]));
        assert_eq!(t.read_before(1, 0.3), Some(vec![7.0]));
        assert_eq!(t.completed_rounds(), 2);

        let lagged = transport(0.25);
        lagged.deliver(1, 0.1, vec![5.0]);
        assert_eq!(lagged.read_before(1, 0.3), None);
        assert_eq!(lagged.read_before(1, 0.4), Some(vec![5.0]));
    }
}
