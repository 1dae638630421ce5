//! Tree shapes and the up/down aggregation round.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised while constructing a [`Topology`].
#[derive(Debug, Clone, PartialEq)]
pub enum TreeError {
    /// No node, or parent array empty.
    Empty,
    /// More or fewer than exactly one root (parent = `None`).
    RootCount(usize),
    /// A parent index was out of range.
    BadParent {
        /// Node with the bad parent pointer.
        node: usize,
        /// The out-of-range parent index.
        parent: usize,
    },
    /// The parent pointers contain a cycle (not a tree).
    Cycle(usize),
    /// A negative or non-finite edge delay.
    BadDelay(f64),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Empty => write!(f, "tree must have at least one node"),
            TreeError::RootCount(n) => write!(f, "tree must have exactly one root, found {n}"),
            TreeError::BadParent { node, parent } => {
                write!(f, "node {node} has out-of-range parent {parent}")
            }
            TreeError::Cycle(node) => write!(f, "parent pointers cycle at node {node}"),
            TreeError::BadDelay(d) => write!(f, "edge delay must be finite and >= 0, got {d}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Result of one aggregation round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregationRound {
    /// Element-wise global sum of every node's vector.
    pub total: Vec<f64>,
    /// Messages sent upward (one per non-root node).
    pub messages_up: usize,
    /// Messages sent downward (one per non-root node).
    pub messages_down: usize,
    /// End-to-end latency: slowest leaf-to-root path plus slowest
    /// root-to-node path, under the edge delays.
    pub latency: f64,
}

impl AggregationRound {
    /// Total messages for the round: `2(n−1)` for an `n`-node tree.
    pub fn messages(&self) -> usize {
        self.messages_up + self.messages_down
    }
}

/// A validated combining-tree topology over redirector nodes `0..n`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    /// Delay (seconds) of the edge from each node to its parent; unused for
    /// the root.
    edge_delay: Vec<f64>,
    root: usize,
    /// Nodes in a topological order with parents before children.
    topo_order: Vec<usize>,
}

impl Topology {
    /// Builds a topology from parent pointers and per-edge delays
    /// (`delays[i]` = delay of the edge `i → parent(i)`, ignored for the
    /// root).
    pub fn from_parents(parents: &[Option<usize>], delays: &[f64]) -> Result<Self, TreeError> {
        let n = parents.len();
        if n == 0 {
            return Err(TreeError::Empty);
        }
        assert_eq!(delays.len(), n, "delay vector length must match node count");
        for &d in delays {
            if !d.is_finite() || d < 0.0 {
                return Err(TreeError::BadDelay(d));
            }
        }
        let roots: Vec<usize> = (0..n).filter(|&i| parents[i].is_none()).collect();
        let [root] = roots[..] else {
            return Err(TreeError::RootCount(roots.len()));
        };
        let mut children = vec![Vec::new(); n];
        for (i, parent) in parents.iter().enumerate() {
            if let Some(p) = *parent {
                if p >= n {
                    return Err(TreeError::BadParent { node: i, parent: p });
                }
                children[p].push(i);
            }
        }
        // Cycle check + topological order via BFS from the root.
        let mut order = Vec::with_capacity(n);
        let mut queue = std::collections::VecDeque::from([root]);
        let mut seen = vec![false; n];
        seen[root] = true;
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &c in &children[u] {
                if seen[c] {
                    return Err(TreeError::Cycle(c));
                }
                seen[c] = true;
                queue.push_back(c);
            }
        }
        if let Some(stray) = (0..n).find(|&i| !seen[i]) {
            return Err(TreeError::Cycle(stray));
        }
        Ok(Topology {
            parent: parents.to_vec(),
            children,
            edge_delay: delays.to_vec(),
            root,
            topo_order: order,
        })
    }

    /// A shape whose parent pointers form a rooted tree by construction,
    /// with one delay on every edge.
    fn uniform(parents: Vec<Option<usize>>, edge_delay: f64) -> Self {
        // Only the delay can be refused: a configuration-time panic on a
        // caller's bad argument, like the constructors' `assert!`s on `n`.
        Self::from_parents(&parents, &vec![edge_delay; parents.len()])
            .expect("edge delay must be finite and >= 0") // covenant: allow(no-panic)
    }

    /// A balanced tree of `n` nodes with fan-out `arity` and uniform edge
    /// delay (node 0 is the root; node `i`'s parent is `(i−1)/arity`).
    pub fn balanced(n: usize, arity: usize, edge_delay: f64) -> Self {
        assert!(n >= 1 && arity >= 1);
        Self::uniform((0..n).map(|i| (i > 0).then(|| (i - 1) / arity)).collect(), edge_delay)
    }

    /// A star: node 0 is the root, all others its direct children.
    pub fn star(n: usize, edge_delay: f64) -> Self {
        assert!(n >= 1);
        Self::uniform((0..n).map(|i| (i > 0).then_some(0)).collect(), edge_delay)
    }

    /// A chain rooted at node 0 (worst-case depth).
    pub fn chain(n: usize, edge_delay: f64) -> Self {
        assert!(n >= 1);
        Self::uniform((0..n).map(|i| i.checked_sub(1)).collect(), edge_delay)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True for a zero-node tree (never constructible; kept for API
    /// symmetry).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Children of `node`.
    pub fn children(&self, node: usize) -> &[usize] {
        &self.children[node]
    }

    /// Parent of `node`.
    pub fn parent(&self, node: usize) -> Option<usize> {
        self.parent[node]
    }

    /// Sum of edge delays from `node` up to the root.
    pub fn delay_to_root(&self, node: usize) -> f64 {
        let mut d = 0.0;
        let mut at = node;
        while let Some(p) = self.parent[at] {
            d += self.edge_delay[at];
            at = p;
        }
        d
    }

    /// The information lag this topology imposes on `node`: slowest
    /// leaf-to-root delay (the aggregate cannot be formed earlier) plus the
    /// root-to-`node` broadcast delay.
    pub fn information_lag(&self, node: usize) -> f64 {
        let up = (0..self.len())
            .map(|i| self.delay_to_root(i))
            .fold(0.0, f64::max);
        up + self.delay_to_root(node)
    }

    /// Messages needed per aggregation round: `2(n−1)`.
    pub fn messages_per_round(&self) -> usize {
        2 * (self.len() - 1)
    }

    /// Messages a pairwise (all-to-all) exchange would need: `n(n−1)`.
    pub fn pairwise_messages(&self) -> usize {
        let n = self.len();
        n * (n - 1)
    }

    /// Runs one up/down aggregation round over per-node vectors
    /// (`local[i]` = node `i`'s queue-length vector). Interior nodes fold in
    /// their own vector exactly once, matching the paper's description.
    pub fn aggregate(&self, local: &[Vec<f64>]) -> AggregationRound {
        let n = self.len();
        assert_eq!(local.len(), n, "need one vector per node");
        let width = local.first().map_or(0, |v| v.len());
        for v in local {
            assert_eq!(v.len(), width, "all vectors must have equal width");
        }
        // Fold bottom-up in reverse topological order.
        let mut partial: Vec<Vec<f64>> = local.to_vec();
        for &u in self.topo_order.iter().rev() {
            if let Some(p) = self.parent[u] {
                // Avoid double borrow: take u's vector, then add into parent.
                let v = std::mem::take(&mut partial[u]);
                for (pe, ue) in partial[p].iter_mut().zip(&v) {
                    *pe += ue;
                }
                partial[u] = v;
            }
        }
        let total = partial[self.root].clone();
        let up = (0..n)
            .map(|i| self.delay_to_root(i))
            .fold(0.0, f64::max);
        let down = up; // broadcast retraces the same worst path
        AggregationRound {
            total,
            messages_up: n - 1,
            messages_down: n - 1,
            latency: up + down,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_parents_validates() {
        assert_eq!(Topology::from_parents(&[], &[]), Err(TreeError::Empty));
        assert_eq!(
            Topology::from_parents(&[Some(1), Some(0)], &[0.0, 0.0]),
            Err(TreeError::RootCount(0))
        );
        assert_eq!(
            Topology::from_parents(&[None, None], &[0.0, 0.0]),
            Err(TreeError::RootCount(2))
        );
        assert_eq!(
            Topology::from_parents(&[None, Some(5)], &[0.0, 0.0]),
            Err(TreeError::BadParent { node: 1, parent: 5 })
        );
        assert_eq!(
            Topology::from_parents(&[None, Some(0), Some(1)], &[0.0, 0.0, 0.0])
                .unwrap()
                .len(),
            3
        );
        assert!(matches!(
            Topology::from_parents(&[None, Some(0)], &[0.0, -1.0]),
            Err(TreeError::BadDelay(_))
        ));
    }

    #[test]
    fn detects_cycle_among_non_root_nodes() {
        // 1 and 2 point at each other, disconnected from root 0.
        let r = Topology::from_parents(&[None, Some(2), Some(1)], &[0.0; 3]);
        assert!(matches!(r, Err(TreeError::Cycle(_))));
        let r = Topology::from_parents(&[None, Some(2), Some(1), Some(0)], &[0.0; 4]);
        assert!(matches!(r, Err(TreeError::Cycle(_))));
    }

    #[test]
    fn aggregate_sums_all_nodes() {
        let t = Topology::balanced(7, 2, 0.0);
        let local: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64, 1.0]).collect();
        let round = t.aggregate(&local);
        assert_eq!(round.total, vec![21.0, 7.0]);
        assert_eq!(round.messages(), 12); // 2(n-1)
    }

    #[test]
    fn aggregate_matches_flat_sum_on_every_shape() {
        for t in [
            Topology::balanced(10, 3, 0.1),
            Topology::star(10, 0.1),
            Topology::chain(10, 0.1),
        ] {
            let local: Vec<Vec<f64>> = (0..10).map(|i| vec![(i * i) as f64]).collect();
            let round = t.aggregate(&local);
            assert_eq!(round.total, vec![285.0]);
        }
    }

    #[test]
    fn message_complexity_formulas() {
        let t = Topology::balanced(16, 2, 0.0);
        assert_eq!(t.messages_per_round(), 30);
        assert_eq!(t.pairwise_messages(), 240);
        let single = Topology::star(1, 0.0);
        assert_eq!(single.messages_per_round(), 0);
        // n = 256: 510 messages against 65,280, paid for in depth — the
        // worst information lag over 50 ms edges is 800 ms for a balanced
        // binary tree and 100 ms for a star.
        let (bin, star) = (Topology::balanced(256, 2, 0.05), Topology::star(256, 0.05));
        assert_eq!((bin.messages_per_round(), bin.pairwise_messages()), (510, 65_280));
        let worst_lag = |t: &Topology| (0..256).map(|i| t.information_lag(i)).fold(0.0, f64::max);
        assert!((worst_lag(&bin) - 0.8).abs() < 1e-9, "{}", worst_lag(&bin));
        assert!((worst_lag(&star) - 0.1).abs() < 1e-9, "{}", worst_lag(&star));
    }

    #[test]
    fn latency_reflects_depth() {
        let chain = Topology::chain(4, 1.0); // depth 3
        let round = chain.aggregate(&vec![vec![1.0]; 4]);
        assert_eq!(round.latency, 6.0); // 3 up + 3 down
        let star = Topology::star(4, 1.0);
        let round = star.aggregate(&vec![vec![1.0]; 4]);
        assert_eq!(round.latency, 2.0);
    }

    #[test]
    fn information_lag_per_node() {
        let chain = Topology::chain(3, 2.0);
        assert_eq!(chain.information_lag(0), 4.0); // root: wait for leaf only
        assert_eq!(chain.information_lag(2), 8.0); // deepest: 4 up + 4 down
    }

    #[test]
    fn interior_nodes_counted_once() {
        // A 3-node chain where the middle node has load: total must count it
        // exactly once.
        let t = Topology::chain(3, 0.0);
        let round = t.aggregate(&[vec![0.0], vec![5.0], vec![0.0]]);
        assert_eq!(round.total, vec![5.0]);
    }

    #[test]
    fn singleton_tree_aggregates_self() {
        let t = Topology::star(1, 0.0);
        let round = t.aggregate(&[vec![3.0, 4.0]]);
        assert_eq!(round.total, vec![3.0, 4.0]);
        assert_eq!(round.messages(), 0);
        assert_eq!(round.latency, 0.0);
    }

    #[test]
    fn delay_to_root_accumulates() {
        let t = Topology::from_parents(&[None, Some(0), Some(1)], &[0.0, 1.5, 2.5]).unwrap();
        assert_eq!(t.delay_to_root(0), 0.0);
        assert_eq!(t.delay_to_root(1), 1.5);
        assert_eq!(t.delay_to_root(2), 4.0);
    }
}
