//! The live planes' coordination endpoint.
//!
//! `Coordinator` is a thin, clonable handle over a [`CoordTransport`] — a
//! driver of the one combining-tree node (`covenant_tree::TreeNode`): the
//! in-process tree ([`InProcessTree`], the default), or `covenant-wire`'s
//! socket driver where tree edges are real connections. Each `ShardCore`
//! holds one, on its own event loop, and cannot tell which driver it is.

use covenant_tree::{CoordTransport, InProcessTree, Topology};
use std::sync::Arc;
use std::time::Instant;

/// A clonable coordination endpoint: thread-safe publish/read of
/// per-principal demand vectors with per-node information lag, plus the
/// deployment's shared clock.
///
/// Over the default in-process transport, every [`Coordinator::publish_at`]
/// closes one aggregation round (the tree combines whatever each node
/// last reported — exactly the estimate-lag semantics of the paper's
/// periodic exchange), and the result becomes visible to each node once
/// its tree lag has elapsed. Over the wire transport the same calls feed
/// this process's node and read whatever totals real peers have delivered.
#[derive(Clone)]
pub struct Coordinator {
    transport: Arc<dyn CoordTransport>,
    epoch: Instant,
}

impl Coordinator {
    /// Creates a coordinator over an in-process tree on `topology`, with
    /// `extra_lag` seconds added to every node's visibility delay
    /// (Figure 8's injected 10 s).
    pub fn new(topology: Topology, extra_lag: f64) -> Self {
        Coordinator::with_transport(Arc::new(InProcessTree::new(topology, extra_lag)))
    }

    /// Creates a coordinator over an explicit transport (e.g. a
    /// `covenant-wire` socket tree). If the transport owns a physical
    /// clock, its epoch becomes the deployment clock so arrival stamps and
    /// [`Coordinator::now`] share one time base. Any lag is the transport's
    /// own (the in-process tree's is set at construction).
    pub fn with_transport(transport: Arc<dyn CoordTransport>) -> Self {
        let epoch = transport.clock_epoch().unwrap_or_else(|| {
            // The coordinator *is* the live deployment's clock source:
            // every data-plane timestamp derives from this epoch via
            // `Coordinator::now`, so this is the one sanctioned read.
            Instant::now() // covenant: allow(wall-clock)
        });
        Coordinator { transport, epoch }
    }

    /// Seconds since this coordinator was created (the shared clock).
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Number of tree nodes; valid node ids are below it.
    pub fn nodes(&self) -> usize {
        self.transport.nodes()
    }

    /// Publishes node `node`'s demand vector at time `t` — a shard's window
    /// boundary, or a virtual time in the sim-vs-live differential tests —
    /// and runs one aggregation round over the latest values from every
    /// node. Times earlier than the previous round are clamped forward so
    /// the per-node views stay monotone.
    pub fn publish_at(&self, node: usize, demand: Vec<f64>, t: f64) {
        self.transport.publish_at(node, demand, t);
    }

    /// Reads the aggregate visible to `node` at time `t`, excluding
    /// same-instant publishes ([`covenant_tree::DelayedView::read_before`]):
    /// inside a window-roll round, where every node publishes at the same
    /// boundary time, no node observes this round's publications, so each
    /// shard's roll (read, tick, publish) plans on the *previous* round's
    /// aggregate — one window stale, exactly like the simulator.
    pub fn read_at(&self, node: usize, t: f64) -> Option<Vec<f64>> {
        self.transport.read_before(node, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_transport_is_shared_across_clones() {
        let transport = Arc::new(InProcessTree::new(Topology::star(2, 0.0), 0.0));
        let c = Coordinator::with_transport(transport);
        let c2 = c.clone();
        c.publish_at(0, vec![2.0], 0.0);
        c2.publish_at(1, vec![3.0], 0.0);
        assert_eq!(c.read_at(0, 1.0).unwrap(), vec![5.0]);
    }
}
