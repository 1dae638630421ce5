//! Lock-free observability for a wire-transport node.
//!
//! Same design as `covenant-enforce`'s `ShardStats`: monotone counters
//! stored relaxed, read whenever an observer (metrics endpoint, bench
//! harness, test barrier) likes.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for one node's wire runtime.
#[derive(Debug, Default)]
pub struct WireStats {
    /// Data frames (`Up`/`Down`) written to peers.
    frames_sent: AtomicU64,
    /// Data frames (`Up`/`Down`) received from peers.
    frames_received: AtomicU64,
    /// Aggregation rounds closed at this node (root: totals computed;
    /// others: `Down` totals received).
    rounds_completed: AtomicU64,
    /// Rounds closed with last-good child values because the round
    /// timed out at the next window boundary.
    rounds_forced: AtomicU64,
    /// Parent connections established, the initial one included.
    parent_connects: AtomicU64,
    /// Microseconds from the last `Up` send to its round's `Down`
    /// arrival — the measured up-and-down tree propagation time.
    last_rtt_us: AtomicU64,
}

impl WireStats {
    /// Fresh zeroed stats.
    pub fn new() -> WireStats {
        WireStats::default()
    }

    pub(crate) fn frame_sent(&self) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn frame_received(&self) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn parent_connected(&self) {
        self.parent_connects.fetch_add(1, Ordering::Relaxed);
    }

    /// Mirrors the tree node's own counters after the driver stepped it.
    pub(crate) fn record_node(&self, completed: u64, forced: u64, rtt_secs: Option<f64>) {
        self.rounds_completed.store(completed, Ordering::Relaxed);
        self.rounds_forced.store(forced, Ordering::Relaxed);
        if let Some(rtt) = rtt_secs {
            self.last_rtt_us.store((rtt * 1e6) as u64, Ordering::Relaxed);
        }
    }

    /// Data frames written to peers.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.load(Ordering::Relaxed)
    }

    /// Data frames received from peers.
    pub fn frames_received(&self) -> u64 {
        self.frames_received.load(Ordering::Relaxed)
    }

    /// Highest aggregation round closed at this node.
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_completed.load(Ordering::Relaxed)
    }

    /// Rounds closed on timeout with last-good child values.
    pub fn rounds_forced(&self) -> u64 {
        self.rounds_forced.load(Ordering::Relaxed)
    }

    /// Parent-connection re-establishments.
    pub fn reconnects(&self) -> u64 {
        self.parent_connects.load(Ordering::Relaxed).saturating_sub(1)
    }

    /// Most recent measured up-and-down propagation time, microseconds.
    pub fn last_rtt_us(&self) -> u64 {
        self.last_rtt_us.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_node_values_mirror() {
        let s = WireStats::new();
        s.frame_sent();
        s.frame_sent();
        s.frame_received();
        s.parent_connected();
        s.parent_connected();
        s.record_node(2, 0, Some(120e-6));
        s.record_node(3, 1, None); // no fresh measurement keeps the last
        s.record_node(3, 1, Some(80e-6));
        assert_eq!(s.frames_sent(), 2);
        assert_eq!(s.frames_received(), 1);
        assert_eq!(s.rounds_completed(), 3);
        assert_eq!(s.rounds_forced(), 1);
        assert_eq!(s.reconnects(), 1);
        assert_eq!(s.last_rtt_us(), 80);
    }
}
