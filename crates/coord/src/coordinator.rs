//! Coordination endpoint shared by redirector threads.
//!
//! `Coordinator` is a thin, clonable handle over a [`CoordTransport`]: the
//! in-process combining tree ([`InProcessTree`], the default), or a socket
//! transport from `covenant-wire` where tree edges are real connections.
//! Everything above it — [`TreeCoordination`], `ShardCore` — is
//! transport-agnostic.

use covenant_enforce::CoordinationView;
use covenant_tree::{CoordTransport, InProcessTree, Topology};
use std::sync::Arc;
use std::time::Instant;

/// A clonable coordination endpoint: thread-safe publish/read of
/// per-principal demand vectors with per-node information lag, plus the
/// deployment's shared clock.
///
/// Over the default in-process transport, every [`Coordinator::publish`]
/// triggers one aggregation round (the tree combines whatever each node
/// last reported — exactly the estimate-lag semantics of the paper's
/// periodic exchange), and the result becomes visible to each node once
/// its tree lag has elapsed. Over a wire transport the same calls enqueue
/// frames to real peers and read whatever aggregates have arrived.
#[derive(Clone)]
pub struct Coordinator {
    transport: Arc<dyn CoordTransport>,
    epoch: Instant,
    extra_lag: f64,
}

impl Coordinator {
    /// Creates a coordinator over an in-process tree on `topology`, with
    /// `extra_lag` seconds added to every node's visibility delay
    /// (Figure 8's injected 10 s).
    pub fn new(topology: Topology, extra_lag: f64) -> Self {
        Coordinator::with_transport(Arc::new(InProcessTree::new(topology, extra_lag)), extra_lag)
    }

    /// Creates a coordinator over an explicit transport (e.g. a
    /// `covenant-wire` socket tree). If the transport owns a physical
    /// clock, its epoch becomes the deployment clock so arrival stamps and
    /// [`Coordinator::now`] share one time base.
    pub fn with_transport(transport: Arc<dyn CoordTransport>, extra_lag: f64) -> Self {
        let epoch = transport.clock_epoch().unwrap_or_else(|| {
            // The coordinator *is* the live deployment's clock source:
            // every data-plane timestamp derives from this epoch via
            // `Coordinator::now`, so this is the one sanctioned read.
            Instant::now() // covenant: allow(wall-clock)
        });
        Coordinator { transport, epoch, extra_lag }
    }

    /// Seconds since this coordinator was created (the shared clock).
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The extra lag injected on top of tree propagation.
    pub fn extra_lag(&self) -> f64 {
        self.extra_lag
    }

    /// Number of redirector nodes.
    pub fn len(&self) -> usize {
        self.transport.nodes()
    }

    /// True if the tree has no nodes (never constructible via [`Topology`]).
    pub fn is_empty(&self) -> bool {
        self.transport.nodes() == 0
    }

    /// Publishes node `node`'s current demand vector and runs one
    /// aggregation round over the latest values from every node.
    pub fn publish(&self, node: usize, demand: Vec<f64>) {
        self.publish_at(node, demand, self.now());
    }

    /// Like [`Self::publish`], but at an explicit time `t` (virtual-time
    /// replays, e.g. the sim-vs-live differential tests). Times earlier
    /// than the previous round are clamped forward so the per-node views
    /// stay monotone.
    pub fn publish_at(&self, node: usize, demand: Vec<f64>, t: f64) {
        self.transport.publish_at(node, demand, t);
    }

    /// Reads the aggregate visible to `node` at the current time, if its
    /// lag has elapsed.
    pub fn read(&self, node: usize) -> Option<Vec<f64>> {
        self.transport.read_at(node, self.now())
    }

    /// Reads the aggregate visible to `node` at time `t`, excluding
    /// same-instant publishes ([`covenant_tree::DelayedView::read_before`]):
    /// inside a window-roll round, where every node publishes at the same
    /// boundary time, no node observes this round's publications. This is
    /// the read the enforcement core's read-before-publish tick order
    /// relies on.
    pub fn read_at(&self, node: usize, t: f64) -> Option<Vec<f64>> {
        self.transport.read_before(node, t)
    }

    /// Total tree messages exchanged so far, as observed by this endpoint.
    pub fn messages(&self) -> u64 {
        self.transport.messages()
    }

    /// The transport this coordinator publishes and reads through.
    pub fn transport(&self) -> &Arc<dyn CoordTransport> {
        &self.transport
    }
}

/// One node's [`CoordinationView`] onto the shared [`Coordinator`] tree —
/// the live counterpart of the simulator's `DelayedCoordination`.
///
/// `read` uses [`Coordinator::read_at`]'s strictly-before semantics, so the
/// enforcement core's read-before-publish tick order sees at best the
/// *previous* round's aggregate — one window stale, exactly like the
/// simulator — even when several nodes roll at the same boundary time.
pub struct TreeCoordination {
    coordinator: Coordinator,
    node: usize,
    /// Owned copy of the last read aggregate (the trait hands out a slice).
    read_buf: Option<Vec<f64>>,
}

impl TreeCoordination {
    /// A view for tree node `node`.
    pub fn new(coordinator: Coordinator, node: usize) -> Self {
        TreeCoordination { coordinator, node, read_buf: None }
    }
}

impl CoordinationView for TreeCoordination {
    fn read(&mut self, now: f64) -> Option<&[f64]> {
        self.read_buf = self.coordinator.read_at(self.node, now);
        self.read_buf.as_deref()
    }

    fn publish(&mut self, now: f64, demand: &[f64]) {
        self.coordinator.publish_at(self.node, demand.to_vec(), now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_across_publishers() {
        let c = Coordinator::new(Topology::star(2, 0.0), 0.0);
        c.publish(0, vec![10.0, 0.0]);
        c.publish(1, vec![5.0, 7.0]);
        let agg = c.read(0).expect("visible with zero lag");
        assert_eq!(agg, vec![15.0, 7.0]);
        assert_eq!(c.read(1).unwrap(), vec![15.0, 7.0]);
    }

    #[test]
    fn missing_publishers_count_as_zero() {
        let c = Coordinator::new(Topology::star(3, 0.0), 0.0);
        c.publish(1, vec![4.0]);
        assert_eq!(c.read(1).unwrap(), vec![4.0]);
    }

    #[test]
    fn extra_lag_hides_fresh_aggregates() {
        let c = Coordinator::new(Topology::star(2, 0.0), 30.0);
        c.publish(0, vec![1.0]);
        // 30 s of lag cannot have elapsed in a unit test.
        assert_eq!(c.read(0), None);
        assert_eq!(c.read(1), None);
    }

    #[test]
    fn message_count_grows_per_round() {
        let c = Coordinator::new(Topology::star(4, 0.0), 0.0);
        assert_eq!(c.messages(), 0);
        c.publish(0, vec![1.0]);
        assert_eq!(c.messages(), 6); // 2(n-1) = 6
        c.publish(1, vec![1.0]);
        assert_eq!(c.messages(), 12);
    }

    #[test]
    fn explicit_transport_is_shared_across_clones() {
        let transport = Arc::new(InProcessTree::new(Topology::star(2, 0.0), 0.0));
        let c = Coordinator::with_transport(transport, 0.0);
        let c2 = c.clone();
        c.publish_at(0, vec![2.0], 0.0);
        c2.publish_at(1, vec![3.0], 0.0);
        assert_eq!(c.transport().read_at(0, 0.0).unwrap(), vec![5.0]);
    }
}
