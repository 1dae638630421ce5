//! Transport abstraction beneath the coordination plane.
//!
//! The enforcement stack talks to the combining tree through a narrow
//! publish/read surface. [`CoordTransport`] is that surface as a trait, so
//! the same `Coordinator` (and everything above it — `TreeCoordination`,
//! `ShardCore`) runs over three interchangeable substrates:
//!
//! * [`InProcessTree`] — the zero-cost path: one mutex-guarded state block
//!   shared by every node's threads, aggregation computed synchronously on
//!   each publish (this module);
//! * the sharded live planes — the same [`InProcessTree`], with each
//!   reactor shard joined as one tree leaf;
//! * `covenant-wire`'s socket transport — real processes exchanging
//!   length-prefixed frames along tree edges, where propagation delay and
//!   message counts are *measured* rather than injected.
//!
//! Timestamps are plain `f64` seconds so the same implementations serve
//! wall-clock deployments and virtual-time differential replays.

use crate::{DelayedView, Topology};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// Publish/read access to the combining tree for one deployment.
///
/// Implementations must preserve the two properties the enforcement core's
/// read-before-publish tick order relies on:
///
/// 1. **Strict-before reads**: [`CoordTransport::read_before`] never
///    returns an aggregate that includes a publish at time `t >= now` —
///    inside a window-roll round, where every node publishes at the same
///    boundary, no node observes this round's publications.
/// 2. **Sticky visibility**: once an aggregate has become visible to a
///    node it stays visible (possibly superseded by a newer one) — a
///    missing or late round degrades to the last good value, never to
///    `None`.
pub trait CoordTransport: Send + Sync {
    /// Number of tree nodes.
    fn nodes(&self) -> usize;

    /// Publishes node `node`'s demand vector at time `t`, feeding one
    /// aggregation round.
    fn publish_at(&self, node: usize, demand: Vec<f64>, t: f64);

    /// The newest aggregate visible to `node` at `t`, including rounds
    /// published exactly at `t` (once their propagation lag has elapsed).
    fn read_at(&self, node: usize, t: f64) -> Option<Vec<f64>>;

    /// The newest aggregate visible to `node` strictly before `t`.
    fn read_before(&self, node: usize, t: f64) -> Option<Vec<f64>>;

    /// Total tree messages exchanged so far, as observable from this
    /// endpoint. The in-process tree counts every edge of every round;
    /// a socket transport counts the frames it has actually sent and
    /// received.
    fn messages(&self) -> u64;

    /// The clock epoch this transport stamps message arrivals with, if it
    /// owns a physical clock. A `Coordinator` built over the transport
    /// adopts it so `Coordinator::now` and arrival timestamps share one
    /// time base. In-process transports have no clock of their own.
    fn clock_epoch(&self) -> Option<Instant> {
        None
    }
}

struct InProcessState {
    /// Latest demand vector published by each node.
    demands: Vec<Option<Vec<f64>>>,
    /// Per-node delayed views of the global aggregate.
    views: Vec<DelayedView<Vec<f64>>>,
    /// Total tree messages "sent" (2(n−1) per aggregation).
    messages: u64,
    /// Timestamp of the newest aggregation round, used to clamp explicit
    /// publish times so the per-node views stay monotone even when the
    /// caller's clock jitters.
    last_publish_t: f64,
}

/// The in-process combining tree: the zero-cost [`CoordTransport`] every
/// single-process deployment (simulator replays, sharded live planes,
/// unit tests) runs over.
///
/// Every publish triggers one synchronous aggregation round — the tree
/// combines whatever each node last reported, exactly the estimate-lag
/// semantics of the paper's periodic exchange — and the result becomes
/// visible to each node once its tree propagation lag (plus any injected
/// extra lag) has elapsed.
pub struct InProcessTree {
    topology: Arc<Topology>,
    state: Mutex<InProcessState>,
}

impl InProcessTree {
    /// A tree over `topology` with `extra_lag` seconds added to every
    /// node's visibility delay (Figure 8's injected 10 s).
    pub fn new(topology: Topology, extra_lag: f64) -> Self {
        let n = topology.len();
        let views = (0..n)
            .map(|i| DelayedView::new(topology.information_lag(i) + extra_lag))
            .collect();
        InProcessTree {
            topology: Arc::new(topology),
            state: Mutex::new(InProcessState {
                demands: vec![None; n],
                views,
                messages: 0,
                last_publish_t: 0.0,
            }),
        }
    }

    /// The tree shape this transport aggregates over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

impl CoordTransport for InProcessTree {
    fn nodes(&self) -> usize {
        self.topology.len()
    }

    fn publish_at(&self, node: usize, demand: Vec<f64>, t: f64) {
        let mut st = self.state.lock();
        let t = t.max(st.last_publish_t);
        st.last_publish_t = t;
        let width = demand.len();
        if let Some(slot) = st.demands.get_mut(node) {
            *slot = Some(demand);
        }
        let locals: Vec<Vec<f64>> = st
            .demands
            .iter()
            .map(|d| d.clone().unwrap_or_else(|| vec![0.0; width]))
            .collect();
        let round = self.topology.aggregate(&locals);
        st.messages += round.messages() as u64;
        for v in &mut st.views {
            v.publish(t, round.total.clone());
        }
    }

    fn read_at(&self, node: usize, t: f64) -> Option<Vec<f64>> {
        let mut st = self.state.lock();
        st.views.get_mut(node)?.read(t).cloned()
    }

    fn read_before(&self, node: usize, t: f64) -> Option<Vec<f64>> {
        let mut st = self.state.lock();
        st.views.get_mut(node)?.read_before(t).cloned()
    }

    fn messages(&self) -> u64 {
        self.state.lock().messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_across_publishers() {
        let t = InProcessTree::new(Topology::star(2, 0.0), 0.0);
        t.publish_at(0, vec![10.0, 0.0], 0.0);
        t.publish_at(1, vec![5.0, 7.0], 0.0);
        let agg = t.read_at(0, 0.0).expect("visible with zero lag");
        assert_eq!(agg, vec![15.0, 7.0]);
        assert_eq!(t.read_at(1, 0.0).unwrap(), vec![15.0, 7.0]);
    }

    #[test]
    fn missing_publishers_count_as_zero() {
        let t = InProcessTree::new(Topology::star(3, 0.0), 0.0);
        t.publish_at(1, vec![4.0], 0.0);
        assert_eq!(t.read_at(1, 0.0).unwrap(), vec![4.0]);
    }

    #[test]
    fn extra_lag_hides_fresh_aggregates() {
        let t = InProcessTree::new(Topology::star(2, 0.0), 30.0);
        t.publish_at(0, vec![1.0], 1.0);
        // 30 s of lag have not elapsed at t = 2.
        assert_eq!(t.read_at(0, 2.0), None);
        assert_eq!(t.read_at(1, 2.0), None);
    }

    #[test]
    fn message_count_grows_per_round() {
        let t = InProcessTree::new(Topology::star(4, 0.0), 0.0);
        assert_eq!(t.messages(), 0);
        t.publish_at(0, vec![1.0], 0.0);
        assert_eq!(t.messages(), 6); // 2(n-1) = 6
        t.publish_at(1, vec![1.0], 0.0);
        assert_eq!(t.messages(), 12);
    }

    #[test]
    fn read_before_excludes_same_instant_rounds() {
        let t = InProcessTree::new(Topology::star(2, 0.0), 0.0);
        t.publish_at(0, vec![3.0], 1.0);
        assert_eq!(t.read_before(0, 1.0), None);
        assert_eq!(t.read_before(0, 1.1).unwrap(), vec![3.0]);
    }

    #[test]
    fn jittering_publish_times_stay_monotone() {
        let t = InProcessTree::new(Topology::star(2, 0.0), 0.0);
        t.publish_at(0, vec![1.0], 5.0);
        // An earlier timestamp from a lagging caller clamps forward.
        t.publish_at(1, vec![2.0], 4.0);
        assert_eq!(t.read_before(0, 5.5).unwrap(), vec![3.0]);
    }
}
