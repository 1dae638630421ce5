//! The direct-call driver of [`TreeNode`] ([`LocalTree`], which the
//! simulator's engine owns by value and reads and publishes through at each
//! boundary, and [`InProcessTree`], the same behind a mutex for the sharded
//! live planes), and [`CoordTransport`], the seam it shares with
//! `covenant-wire`'s socket driver so that everything above (`Coordinator`,
//! `ShardCore`) is substrate-agnostic. The enforcement core itself touches
//! none of them: its driver reads a view here, ticks the core on it and
//! publishes the demand the tick returns.
//!
//! Timestamps are plain `f64` seconds so the same implementations serve
//! wall-clock deployments and virtual-time differential replays.

use crate::node::{Effect, NodeCmd, TreeNode};
use crate::{DelayedView, Topology};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::Instant;

/// Publish/read access to the combining tree for one deployment.
///
/// Implementations must preserve the two properties a shard's
/// read-tick-publish roll relies on:
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

    /// The newest aggregate visible to `node` strictly before `t`.
    fn read_before(&self, node: usize, t: f64) -> Option<Vec<f64>>;

    /// The clock epoch this transport stamps message arrivals with, if it
    /// owns a physical clock. A `Coordinator` built over the transport
    /// adopts it so `Coordinator::now` and arrival timestamps share one
    /// time base. In-process transports have no clock of their own.
    fn clock_epoch(&self) -> Option<Instant> {
        None
    }
}

/// A combining tree in one address space: every position's [`TreeNode`]
/// and stamped view, with messages routed between them by direct calls.
///
/// Publishing is two steps. [`LocalTree::publish`] records a node's newest
/// demand; [`LocalTree::close_round`] has every node publish its newest
/// demand into its round engine and routes the resulting `Up`s and `Down`s
/// until the global total sits in every view, stamped with the round's
/// time and visible once the view's lag — the node's tree propagation lag
/// plus any injected extra — has elapsed.
#[derive(Debug)]
pub struct LocalTree {
    topology: Topology,
    nodes: Vec<TreeNode>,
    views: Vec<DelayedView<Vec<f64>>>,
    /// Newest demand published by each node (empty until its first).
    demands: Vec<Vec<f64>>,
    /// Tree messages routed so far: 2(n−1) per closed round.
    messages: u64,
    /// Routing worklist and effect buffer, reused across rounds.
    inbox: VecDeque<(usize, NodeCmd)>,
    effects: Vec<Effect>,
}

impl LocalTree {
    /// A tree over `topology` with `extra_lag` seconds added to every
    /// node's visibility delay (Figure 8's injected 10 s).
    pub fn new(topology: &Topology, extra_lag: f64) -> Self {
        let n = topology.len();
        let lag = |i| topology.information_lag(i) + extra_lag;
        let mut tree = LocalTree {
            nodes: (0..n).map(|i| Self::node(topology, i)).collect(),
            views: (0..n).map(|i| DelayedView::new(lag(i))).collect(),
            demands: vec![Vec::new(); n],
            messages: 0,
            inbox: VecDeque::new(),
            effects: Vec::new(),
            topology: topology.clone(),
        };
        (0..n).for_each(|i| tree.connect(i));
        tree.route();
        tree
    }

    fn node(topology: &Topology, i: usize) -> TreeNode {
        TreeNode::new(topology.parent(i).is_none(), topology.children(i), None)
    }

    /// Queues the edge-up commands for node `i` and its parent.
    fn connect(&mut self, i: usize) {
        if let Some(p) = self.topology.parent(i) {
            self.inbox.push_back((p, NodeCmd::ChildConnected(i)));
            self.inbox.push_back((i, NodeCmd::ParentConnected));
        }
    }

    /// Records `demand` as node `node`'s newest; the next
    /// [`LocalTree::close_round`] combines it. Out-of-range nodes are
    /// ignored.
    pub fn publish(&mut self, node: usize, demand: &[f64]) {
        if let Some(slot) = self.demands.get_mut(node) {
            slot.clear();
            slot.extend_from_slice(demand);
        }
    }

    /// Runs one aggregation round at time `t` over every node's newest
    /// demand.
    pub fn close_round(&mut self, t: f64) {
        for (i, demand) in self.demands.iter().enumerate() {
            self.inbox.push_back((i, NodeCmd::Publish { demand: demand.clone(), t }));
        }
        self.route();
    }

    /// Applies queued commands, turning each node's effects into its
    /// neighbours' commands, until the tree is quiet.
    fn route(&mut self) {
        while let Some((i, cmd)) = self.inbox.pop_front() {
            let (Some(node), Some(view)) = (self.nodes.get_mut(i), self.views.get_mut(i)) else {
                continue;
            };
            node.apply(cmd, &mut self.effects);
            for effect in self.effects.drain(..) {
                let to = match effect {
                    Effect::ToParent(msg) => self.topology.parent(i).map(|p| (p, NodeCmd::FromChild(i, msg))),
                    Effect::ToChild(k, msg) => Some((k, NodeCmd::FromParent(msg))),
                    Effect::Deliver(msg) => {
                        view.publish(msg.t, msg.values);
                        None
                    }
                };
                self.messages += to.is_some() as u64;
                self.inbox.extend(to);
            }
        }
    }

    /// Node `node`'s stamped view of the global total.
    pub fn view(&mut self, node: usize) -> Option<&mut DelayedView<Vec<f64>>> {
        self.views.get_mut(node)
    }

    /// The newest demand each node has published, one entry per node.
    pub fn demands(&self) -> &[Vec<f64>] {
        &self.demands
    }

    /// Total tree messages routed so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Crashes and restarts node `node`: its round engine, view and
    /// published demand start over, and its neighbours see the edge drop
    /// and return — what a respawned process looks like to the tree.
    pub fn restart(&mut self, node: usize) {
        if node >= self.nodes.len() {
            return;
        }
        self.nodes[node] = Self::node(&self.topology, node);
        self.views[node] = DelayedView::new(self.views[node].lag());
        self.demands[node].clear();
        let children = self.topology.children(node).to_vec();
        if let Some(p) = self.topology.parent(node) {
            self.inbox.push_back((p, NodeCmd::ChildLost(node)));
        }
        self.connect(node);
        for c in children {
            self.inbox.push_back((c, NodeCmd::ParentLost));
            self.connect(c);
        }
        self.route();
    }
}

/// The in-process [`CoordTransport`] every single-process live deployment
/// (sharded planes, differential replays, unit tests) runs over: a
/// [`LocalTree`] behind a mutex.
///
/// Every publish closes one aggregation round — the tree combines whatever
/// each node last reported, exactly the estimate-lag semantics of the
/// paper's periodic exchange.
pub struct InProcessTree(Mutex<LocalTree>);

impl InProcessTree {
    /// A tree over `topology` with `extra_lag` seconds added to every
    /// node's visibility delay.
    pub fn new(topology: Topology, extra_lag: f64) -> Self {
        InProcessTree(Mutex::new(LocalTree::new(&topology, extra_lag)))
    }
}

impl CoordTransport for InProcessTree {
    fn nodes(&self) -> usize {
        self.0.lock().demands().len()
    }

    fn publish_at(&self, node: usize, demand: Vec<f64>, t: f64) {
        let mut tree = self.0.lock();
        tree.publish(node, &demand);
        tree.close_round(t);
    }

    fn read_before(&self, node: usize, t: f64) -> Option<Vec<f64>> {
        self.0.lock().view(node)?.read_before(t).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The newest total visible to `node` just after `t`.
    fn read(tree: &InProcessTree, node: usize, t: f64) -> Option<Vec<f64>> {
        tree.read_before(node, t + 1e-9)
    }

    #[test]
    fn aggregates_across_publishers() {
        let t = InProcessTree::new(Topology::star(2, 0.0), 0.0);
        t.publish_at(0, vec![10.0, 0.0], 0.0);
        t.publish_at(1, vec![5.0, 7.0], 0.0);
        assert_eq!(read(&t, 0, 0.0), Some(vec![15.0, 7.0]));
        assert_eq!(read(&t, 1, 0.0), Some(vec![15.0, 7.0]));
    }

    #[test]
    fn missing_publishers_count_as_zero() {
        let t = InProcessTree::new(Topology::star(3, 0.0), 0.0);
        t.publish_at(1, vec![4.0], 0.0);
        assert_eq!(read(&t, 1, 0.0), Some(vec![4.0]));
    }

    #[test]
    fn extra_lag_hides_fresh_aggregates() {
        let t = InProcessTree::new(Topology::star(2, 0.0), 30.0);
        t.publish_at(0, vec![1.0], 1.0);
        // 30 s of lag have not elapsed at t = 2.
        assert_eq!(read(&t, 0, 2.0), None);
        assert_eq!(read(&t, 1, 2.0), None);
        assert_eq!(read(&t, 1, 31.0), Some(vec![1.0]));
    }

    #[test]
    fn message_count_grows_per_round() {
        let mut t = LocalTree::new(&Topology::star(4, 0.0), 0.0);
        assert_eq!(t.messages(), 0);
        t.publish(0, &[1.0]);
        t.close_round(0.0);
        assert_eq!(t.messages(), 6); // 2(n-1) = 6
        t.publish(1, &[1.0]);
        t.close_round(0.0);
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
        assert_eq!(t.read_before(0, 5.0), None);
        assert_eq!(t.read_before(0, 5.5).unwrap(), vec![3.0]);
    }

    #[test]
    fn every_shape_sums_like_the_topology_oracle() {
        for topology in
            [Topology::balanced(10, 3, 0.1), Topology::star(10, 0.1), Topology::chain(10, 0.1)]
        {
            let local: Vec<Vec<f64>> = (0..10).map(|i| vec![0.1 * (i * i) as f64, 1.0]).collect();
            let mut tree = LocalTree::new(&topology, 0.0);
            for (i, d) in local.iter().enumerate() {
                tree.publish(i, d);
            }
            tree.close_round(1.0);
            let want = topology.aggregate(&local);
            assert_eq!(tree.messages(), want.messages() as u64);
            for i in 0..10 {
                // Bit-for-bit: the node folds children in the oracle's order.
                assert_eq!(tree.view(i).and_then(|v| v.read(10.0)), Some(&want.total), "node {i}");
            }
        }
    }

    #[test]
    fn restarted_leaf_is_rebased_and_starts_with_an_empty_view() {
        let mut tree = LocalTree::new(&Topology::star(3, 0.0), 0.0);
        for r in 0..5 {
            for i in 0..3 {
                tree.publish(i, &[(i + 1) as f64]);
            }
            tree.close_round(r as f64);
        }
        tree.restart(1);
        assert_eq!(tree.view(1).and_then(|v| v.read(100.0)), None);
        let before = tree.messages();
        tree.publish(0, &[1.0]);
        tree.publish(1, &[20.0]);
        tree.publish(2, &[3.0]);
        tree.close_round(5.0);
        // The leaf's round 1 counts at once, and the round still costs 2(n−1).
        assert_eq!(tree.view(0).and_then(|v| v.read(5.0)), Some(&vec![24.0]));
        assert_eq!(tree.view(1).and_then(|v| v.read(5.0)), Some(&vec![24.0]));
        assert_eq!(tree.messages() - before, 4);
    }
}
