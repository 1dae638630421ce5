//! The combining-tree protocol driven as command scripts: no sockets, no
//! threads, no sleeping. `Net` is a test driver with explicit in-flight
//! queues per edge, so a script decides exactly when a message arrives, an
//! edge drops, a process restarts, or the clock reaches a deadline.
//!
//! The fault stories here used to be reachable only through loopback
//! sockets and `thread::sleep` (`crates/wire/tests/wire_tree.rs`); each
//! test names the socket test it replaces.

use covenant_tree::{Effect, NodeCmd, RoundMsg, TreeNode};
use proptest::prelude::*;
use std::collections::VecDeque;

const W: f64 = 0.025;

struct Net {
    parents: Vec<Option<usize>>,
    force: Option<f64>,
    nodes: Vec<TreeNode>,
    /// In flight toward the parent / toward the node, per node's parent edge.
    up: Vec<VecDeque<RoundMsg>>,
    down: Vec<VecDeque<RoundMsg>>,
    linked: Vec<bool>,
    /// Everything each node delivered to its view, in order.
    delivered: Vec<Vec<RoundMsg>>,
    /// Every `ToParent` each node emitted (resyncs included), in order.
    ups: Vec<Vec<RoundMsg>>,
    /// `ToChild`s addressed to each node.
    downs: Vec<u64>,
    /// Each node's own demand by round, and the subtree aggregate its
    /// parent last received from it — what the totals are checked against.
    own: Vec<Vec<Vec<f64>>>,
    arrived: Vec<Vec<f64>>,
    now: f64,
}

fn children_of(parents: &[Option<usize>], i: usize) -> Vec<usize> {
    (0..parents.len()).filter(|&c| parents[c] == Some(i)).collect()
}

fn add(into: &mut Vec<f64>, vals: &[f64]) {
    if vals.len() > into.len() {
        into.resize(vals.len(), 0.0);
    }
    for (a, b) in into.iter_mut().zip(vals) {
        *a += b;
    }
}

impl Net {
    fn new(parents: &[Option<usize>], force: Option<f64>) -> Net {
        let n = parents.len();
        let mut net = Net {
            parents: parents.to_vec(),
            force,
            nodes: (0..n).map(|i| Net::fresh(parents, i, force)).collect(),
            up: vec![VecDeque::new(); n],
            down: vec![VecDeque::new(); n],
            linked: vec![false; n],
            delivered: vec![Vec::new(); n],
            ups: vec![Vec::new(); n],
            downs: vec![0; n],
            own: vec![Vec::new(); n],
            arrived: vec![Vec::new(); n],
            now: 0.0,
        };
        (1..n).for_each(|i| net.join(i));
        net
    }

    fn fresh(parents: &[Option<usize>], i: usize, force: Option<f64>) -> TreeNode {
        TreeNode::new(parents[i].is_none(), &children_of(parents, i), force)
    }

    /// Applies one command to node `i` and files what it asks for,
    /// checking every emitted total on the way.
    fn apply(&mut self, i: usize, cmd: NodeCmd) {
        let from_parent = match &cmd {
            NodeCmd::FromParent(m) => Some(m.values.clone()),
            _ => None,
        };
        let resync = cmd == NodeCmd::ParentConnected;
        let mut effects = Vec::new();
        self.nodes[i].apply(cmd, &mut effects);
        let mut told: Vec<(usize, u64)> = Vec::new();
        for effect in effects {
            match effect {
                Effect::ToParent(m) => {
                    assert!(self.linked[i], "node {i} sent Up on a dropped edge");
                    match self.ups[i].iter().find(|p| p.round == m.round) {
                        // A resync repeats the newest aggregate verbatim…
                        Some(prev) => assert_eq!(prev, &m, "node {i} resync"),
                        // …or carries one combined while the edge was down,
                        // from child values this driver never saw it use.
                        None if resync => assert!(m.round as usize <= self.own[i].len()),
                        None => assert_eq!(m.values, self.expected(i, m.round), "node {i} Up"),
                    }
                    self.ups[i].push(m.clone());
                    self.up[i].push_back(m);
                }
                Effect::ToChild(k, m) => {
                    assert_eq!(self.parents[k], Some(i), "node {i} sent Down to a stranger");
                    assert!(self.linked[k], "node {i} sent Down on a dropped edge");
                    assert!(!told.contains(&(k, m.round)), "two Downs for one round to {k}");
                    told.push((k, m.round));
                    self.downs[k] += 1;
                    self.down[k].push_back(m);
                }
                Effect::Deliver(m) => {
                    match &from_parent {
                        Some(values) => assert_eq!(&m.values, values, "node {i} altered a total"),
                        None => assert_eq!(m.values, self.expected(i, m.round), "root total"),
                    }
                    if let Some(prev) = self.delivered[i].last() {
                        assert!(m.round > prev.round, "node {i} delivered round out of order");
                        assert!(m.t >= prev.t, "node {i} delivered a stamp out of order");
                    }
                    self.delivered[i].push(m);
                }
            }
        }
    }

    /// Node `i`'s own round-`round` demand plus what each child's edge
    /// last carried up: the sum of the latest accepted value per node.
    fn expected(&self, i: usize, round: u64) -> Vec<f64> {
        let mut total = self.own[i][round as usize - 1].clone();
        for c in children_of(&self.parents, i) {
            add(&mut total, &self.arrived[c]);
        }
        total
    }

    fn publish(&mut self, i: usize, demand: Vec<f64>, t: f64) {
        self.own[i].push(demand.clone());
        self.apply(i, NodeCmd::Publish { demand, t });
    }

    /// Every node publishes `demand(i)` at the current time.
    fn boundary(&mut self, demand: impl Fn(usize) -> Vec<f64>) {
        for i in 0..self.nodes.len() {
            self.publish(i, demand(i), self.now);
        }
    }

    fn clock(&mut self, t: f64) {
        self.now = t;
        for i in 0..self.nodes.len() {
            self.apply(i, NodeCmd::Clock(t));
        }
    }

    fn deliver_up(&mut self, i: usize) -> bool {
        let (Some(m), Some(p)) = (self.up[i].pop_front(), self.parents[i]) else { return false };
        self.arrived[i] = m.values.clone();
        self.apply(p, NodeCmd::FromChild(i, m));
        true
    }

    fn deliver_down(&mut self, i: usize) -> bool {
        let Some(m) = self.down[i].pop_front() else { return false };
        self.apply(i, NodeCmd::FromParent(m));
        true
    }

    /// Delivers everything in flight until the tree is quiet.
    fn settle(&mut self) {
        while (0..self.nodes.len()).any(|i| self.deliver_up(i) || self.deliver_down(i)) {}
    }

    /// Drops node `i`'s parent edge: both ends notice, frames in flight die.
    fn cut(&mut self, i: usize) {
        let Some(p) = self.parents[i] else { return };
        self.linked[i] = false;
        self.up[i].clear();
        self.down[i].clear();
        self.apply(i, NodeCmd::ParentLost);
        self.apply(p, NodeCmd::ChildLost(i));
    }

    /// Brings node `i`'s parent edge (back) up.
    fn join(&mut self, i: usize) {
        let Some(p) = self.parents[i] else { return };
        self.linked[i] = true;
        self.apply(p, NodeCmd::ChildConnected(i));
        self.apply(i, NodeCmd::ParentConnected);
    }

    /// Kills node `i`'s process and starts a new one: every edge of it
    /// drops and returns, and its round counter begins again.
    fn restart(&mut self, i: usize) {
        let edges: Vec<usize> =
            std::iter::once(i).chain(children_of(&self.parents, i)).collect();
        edges.iter().for_each(|&e| self.cut(e));
        self.nodes[i] = Net::fresh(&self.parents, i, self.force);
        self.nodes[i].apply(NodeCmd::Clock(self.now), &mut Vec::new());
        self.own[i].clear();
        self.ups[i].clear();
        self.delivered[i].clear();
        edges.iter().for_each(|&e| self.join(e));
    }

    fn total(&self, i: usize) -> Option<&[f64]> {
        self.delivered[i].last().map(|m| m.values.as_slice())
    }

    /// One healthy lock-step round: everyone publishes, everything arrives.
    fn round(&mut self, demand: impl Fn(usize) -> Vec<f64>) {
        self.clock(self.now + W);
        self.boundary(demand);
        self.settle();
    }
}

const STAR: [Option<usize>; 3] = [None, Some(0), Some(0)];
const CHAIN: [Option<usize>; 3] = [None, Some(0), Some(1)];

/// Replaces `killing_a_leaf_degrades_to_last_good_values`.
#[test]
fn lost_leaf_forces_rounds_on_last_good_values_and_counts_them() {
    let mut net = Net::new(&STAR, Some(W));
    for _ in 0..3 {
        net.round(|i| vec![(i + 1) as f64]);
    }
    assert_eq!(net.total(0), Some(&[6.0][..]));
    assert_eq!(net.nodes[0].forced(), 0);

    net.cut(2); // leaf 2 dies and stays dead
    for k in 1..=3u64 {
        let t = net.now + W;
        net.clock(t);
        net.publish(0, vec![10.0], t);
        net.publish(1, vec![20.0], t);
        net.settle();
        // The root cannot hear node 2: the round waits for its deadline,
        // the next aligned boundary…
        assert_eq!(net.nodes[0].deadline(), Some(t + W));
        assert_eq!(net.delivered[0].len() as u64, 3 + k - 1);
        // …and not a moment less.
        net.clock(t + 0.9 * W);
        assert_eq!(net.delivered[0].len() as u64, 3 + k - 1);
        net.clock(t + W);
        net.settle();
        // Fresh node-0/1 demand plus node 2's last-good 3.0, everywhere
        // that is still connected.
        assert_eq!(net.total(0), Some(&[33.0][..]));
        assert_eq!(net.total(1), Some(&[33.0][..]));
        assert_eq!(net.nodes[0].forced(), k);
        assert_eq!(net.nodes[0].deadline(), None);
        net.now = t; // the next boundary is one window on
    }
    assert_eq!(net.downs[2], 3, "nothing is sent to a dead child");
}

/// Replaces the assertion half of `restarted_child_rejoins_with_fresh_demand`
/// (its socket half stays in `wire_tree.rs`).
#[test]
fn restarted_child_is_rebased_onto_its_pre_crash_sequence() {
    let mut net = Net::new(&STAR, Some(W));
    for _ in 0..12 {
        net.round(|i| vec![(i + 1) as f64]);
    }
    assert_eq!(net.nodes[0].completed(), 12);

    // Same node id, a round counter back at the beginning: without the
    // rebase its rounds 1, 2, … all compare older than last-good round 12.
    net.restart(2);
    net.round(|i| vec![[10.0, 20.0, 100.0][i]]);
    assert_eq!(net.total(0), Some(&[130.0][..]), "the first post-restart Up already counts");
    assert_eq!(net.nodes[0].forced(), 0);
    // The rejoined child hears global totals again too.
    assert_eq!(net.total(2), Some(&[130.0][..]));
    assert_eq!(net.nodes[2].completed(), 13);
}

/// Replaces `admission_over_the_wire_survives_a_dead_peer`: what keeps the
/// survivor admitting is that its view keeps receiving totals.
#[test]
fn dead_peer_keeps_the_survivor_closing_rounds_from_its_last_total() {
    let pair = [None, Some(0)];
    let mut net = Net::new(&pair, Some(W));
    for _ in 0..4 {
        net.round(|i| vec![(i + 1) as f64, 1.0]);
    }
    net.cut(1);

    // Both sides keep rolling windows. The surviving root forces each round
    // at its boundary with the dead peer's last-good demand; the orphaned
    // child hears nothing and keeps its last total.
    let (rounds, forced, heard) =
        (net.delivered[0].len(), net.nodes[0].forced(), net.delivered[1].len());
    for k in 1..=6 {
        let t = net.now + W;
        net.clock(t);
        net.publish(0, vec![5.0, 1.0], t);
        net.publish(1, vec![9.0, 1.0], t);
        net.clock(t + W);
        assert_eq!(net.delivered[0].len(), rounds + k);
        assert_eq!(net.total(0), Some(&[7.0, 2.0][..]));
        net.now = t;
    }
    assert_eq!(net.nodes[0].forced(), forced + 6);
    assert_eq!(net.delivered[1].len(), heard);
    assert_eq!(net.total(1), Some(&[3.0, 2.0][..]));

    // On return the child resynchronises its newest aggregate, and the
    // next round is exact again without being forced.
    net.join(1);
    net.round(|i| vec![[5.0, 9.0][i], 1.0]);
    assert_eq!(net.total(0), Some(&[14.0, 2.0][..]));
    assert_eq!(net.total(1), Some(&[14.0, 2.0][..]));
    assert_eq!(net.nodes[0].forced(), forced + 6);
}

/// Replaces `chain_topology_cascades_through_the_interior`.
#[test]
fn chain_cascades_through_the_interior_node() {
    // 0 ← 1 ← 2: node 1 combines its own demand with node 2's Up before
    // sending one Up to the root, and forwards the root's Down onward.
    let mut net = Net::new(&CHAIN, None);
    net.boundary(|i| vec![10.0 * (i + 1) as f64, 1.0]);
    assert_eq!(net.ups[2].len(), 1, "the leaf reports at once");
    assert!(net.ups[1].is_empty(), "the interior node waits for its child");
    net.settle();
    for i in 0..3 {
        assert_eq!(net.total(i), Some(&[60.0, 3.0][..]), "node {i}");
    }
    // Chain economy: Ups on 2→1 and 1→0, Downs back — still 2(n−1).
    assert_eq!(net.ups[1].len() + net.ups[2].len(), 2);
    assert_eq!(net.downs[1] + net.downs[2], 2);
}

/// New: no socket test killed the root. A restarted root counts its rounds
/// from the beginning again; its subtree must not notice.
#[test]
fn restarted_root_keeps_its_subtree_advancing() {
    let mut net = Net::new(&CHAIN, Some(W));
    for _ in 0..5 {
        net.round(|i| vec![(i + 1) as f64]);
    }
    assert_eq!(net.nodes[2].completed(), 5);

    net.restart(0);
    net.settle(); // the children's resynchronised aggregates reach the new root
    for k in 1..=4u64 {
        let t = net.now + W;
        let flight = 0.001 * k as f64;
        net.clock(t);
        net.boundary(|i| vec![(i + 1) as f64 * 10.0]);
        while net.deliver_up(2) || net.deliver_up(1) {}
        net.clock(t + flight);
        net.settle();
        net.now = t;
        // A root counting behind its children finds every round complete
        // the moment it publishes, so it closes on their previous
        // aggregates: pre-crash values once, then one round behind.
        let want = if k == 1 { 15.0 } else { 60.0 };
        for i in [1, 2] {
            // The child of the new root rebases its rounds and forwards
            // them in its own numbering, so the grandchild — whose edge
            // never dropped — sees one unbroken sequence.
            assert_eq!(net.nodes[i].completed(), 5 + k, "node {i} stalled");
            assert_eq!(net.delivered[i].last().map(|m| m.round), Some(5 + k));
            assert_eq!(net.total(i), Some(&[want][..]));
            let rtt = net.nodes[i].last_rtt().expect("round trip measured");
            assert!((rtt - flight).abs() < 1e-9, "node {i} round {k}: rtt {rtt} stalled");
        }
    }
    assert_eq!(net.nodes[0].forced(), 0);
}

/// One step of a random schedule.
#[derive(Debug, Clone)]
enum Step {
    Boundary,
    Up(usize),
    Down(usize),
    Cut(usize),
    Join(usize),
    HalfWindow,
}

fn steps(n: usize) -> impl Strategy<Value = Vec<Step>> {
    let step = (0usize..12, 1..n).prop_map(|(kind, e)| match kind {
        0..=2 => Step::Boundary,
        3..=5 => Step::Up(e),
        6..=8 => Step::Down(e),
        9 => Step::Cut(e),
        10 => Step::Join(e),
        _ => Step::HalfWindow,
    });
    proptest::collection::vec(step, 1..120)
}

/// Runs a random interleaving on `parents`; `Net::apply` checks every
/// emitted total and the order of every delivery as it goes.
fn run_schedule(parents: &[Option<usize>], force: bool, faults: bool, schedule: &[Step]) {
    let n = parents.len();
    let mut net = Net::new(parents, force.then_some(W));
    let mut boundaries = 0u64;
    // Node i's demand is its boundary count at index i: sums are exact,
    // and every total names the round of each node it combined.
    let one_hot = |i: usize, k: u64| (0..n).map(|j| if j == i { k as f64 } else { 0.0 }).collect();
    for step in schedule {
        match *step {
            Step::Boundary => {
                boundaries += 1;
                net.clock(net.now + W);
                net.boundary(|i| one_hot(i, boundaries));
            }
            Step::Up(e) => drop(net.deliver_up(e)),
            Step::Down(e) => drop(net.deliver_down(e)),
            Step::Cut(e) if faults && net.linked[e] => net.cut(e),
            Step::Join(e) if faults && !net.linked[e] => net.join(e),
            Step::HalfWindow if force => net.clock(net.now + W / 2.0),
            _ => {}
        }
    }
    // Heal, run one more boundary, let everything arrive: the tree
    // converges on the exact sum of everyone's newest demand.
    (1..n).filter(|&e| !net.linked[e]).collect::<Vec<_>>().into_iter().for_each(|e| net.join(e));
    boundaries += 1;
    net.clock(net.now + W);
    net.boundary(|i| one_hot(i, boundaries));
    net.settle();
    let want = vec![boundaries as f64; n];
    for i in 0..n {
        assert_eq!(net.total(i), Some(&want[..]), "node {i} did not converge");
    }
    for i in 1..n {
        // One Up per own round at most (a resync repeats a round)…
        let mut rounds: Vec<u64> = net.ups[i].iter().map(|m| m.round).collect();
        rounds.dedup();
        assert!(rounds.windows(2).all(|w| w[0] < w[1]), "node {i} Ups out of order");
        assert!(rounds.len() as u64 <= boundaries);
        // …and one Down per round the root closed at most.
        assert!(net.downs[i] <= net.delivered[0].len() as u64);
        if !faults {
            // With every edge up, exactly one of each: 2(n−1) per round.
            assert_eq!(net.ups[i].len() as u64, boundaries, "node {i} Ups");
            assert_eq!(net.downs[i], boundaries, "node {i} Downs");
        }
    }
    if !faults {
        assert_eq!(net.delivered[0].len() as u64, boundaries);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_interleavings_on_three_nodes(
        schedule in steps(3),
        chain in any::<bool>(),
        force in any::<bool>(),
        faults in any::<bool>(),
    ) {
        run_schedule(if chain { &CHAIN } else { &STAR }, force, faults, &schedule);
    }

    #[test]
    fn random_interleavings_on_seven_nodes(
        schedule in steps(7),
        force in any::<bool>(),
        faults in any::<bool>(),
    ) {
        let balanced: Vec<Option<usize>> = (0..7).map(|i| (i > 0).then(|| (i - 1) / 2)).collect();
        run_schedule(&balanced, force, faults, &schedule);
    }
}
