//! One combining-tree node as a pure state machine (§3.2): publish local
//! demand, combine it up the tree, hand the lagged global total back down.
//!
//! Aggregation is *round-structured*: every local publish opens the node's
//! next round. A non-root node emits exactly one `Up` per round — once its
//! own round-`r` publish and a round-≥`r` subtree aggregate from every
//! child are in hand, or, when a force window is configured, when the
//! clock reaches the next aligned window boundary, in which case each
//! child contributes its *last-good* value. The root closes the round by
//! computing the global total, delivering it to its local view, and
//! sending one `Down` to each child; interior nodes forward it on. Per
//! round that is one `Up` and one `Down` on every edge: the paper's
//! 2(n−1) messages.
//!
//! Disconnection degrades, never blocks: a parent that loses a child keeps
//! combining with the child's last-good values, and a child that loses its
//! parent keeps its newest subtree aggregate to resynchronise with when
//! the edge returns. A peer that *restarts* (round counter reset to the
//! beginning) is rebased onto its pre-crash round sequence at its first
//! message after the edge comes back — child and parent alike — so fresh
//! data is not mistaken for stale data.
//!
//! The node does no I/O and reads no clock: a driver feeds it [`NodeCmd`]s
//! (the wire runtime from sockets, [`crate::LocalTree`] by direct calls)
//! and carries out the [`Effect`]s it returns. Times are seconds on the
//! driver's clock.

use std::collections::VecDeque;

/// One round's payload on a tree edge or into the local view.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundMsg {
    /// The sender's round counter (rebased by the receiver).
    pub round: u64,
    /// The window boundary the round was published at.
    pub t: f64,
    /// Per-principal demand: a subtree aggregate going up, the global
    /// total coming down.
    pub values: Vec<f64>,
}

/// What a driver tells the node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeCmd {
    /// The local enforcement plane publishes `demand` at boundary `t`,
    /// opening this node's next round.
    Publish {
        /// Local per-principal demand.
        demand: Vec<f64>,
        /// The window boundary published at.
        t: f64,
    },
    /// Child `k`'s edge came up; its round counter may have reset.
    ChildConnected(usize),
    /// Child `k`'s edge went away.
    ChildLost(usize),
    /// A subtree aggregate from child `k`.
    FromChild(usize, RoundMsg),
    /// The edge to the parent came up; its round counter may have reset.
    ParentConnected,
    /// The edge to the parent went away.
    ParentLost,
    /// A global total from the parent.
    FromParent(RoundMsg),
    /// The driver's clock reached `t`: rounds past their deadline are
    /// forced.
    Clock(f64),
}

/// What the node asks its driver to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Send this subtree aggregate to the parent.
    ToParent(RoundMsg),
    /// Send this global total to child `k`.
    ToChild(usize, RoundMsg),
    /// Stamp this global total into the local view.
    Deliver(RoundMsg),
}

#[derive(Debug, Default)]
struct Child {
    id: usize,
    connected: bool,
    /// Last-good subtree aggregate: (rebased round, values).
    latest: Option<(u64, Vec<f64>)>,
    /// Offset added to the child's reported rounds. A child that restarts
    /// begins counting again; without the rebase every one of its fresh
    /// aggregates would compare as older than its pre-crash last-good
    /// value and be dropped as stale.
    base: u64,
    /// The edge just came up: the next aggregate re-derives `base`.
    rejoining: bool,
}

/// The round engine of one tree position (see module docs).
#[derive(Debug, Default)]
pub struct TreeNode {
    is_root: bool,
    children: Vec<Child>,
    /// Window length when unfinished rounds are forced at the next aligned
    /// boundary; `None` never forces (virtual-time replays, where every
    /// round closes exactly).
    force_window: Option<f64>,
    now: f64,
    published: u64,
    /// Own publishes not yet combined; the front is the round in progress.
    pending: VecDeque<RoundMsg>,
    /// When the round in progress is forced.
    force_at: Option<f64>,
    parent_connected: bool,
    /// The parent edge just came up: the next total re-derives `down_base`.
    parent_rejoining: bool,
    /// Offset added to the parent's rounds, the mirror of [`Child::base`]
    /// for a restarted parent.
    down_base: u64,
    /// Newest emitted subtree aggregate, resent when the parent edge
    /// returns so the parent's last-good value is fresh.
    last_up: Option<RoundMsg>,
    /// (round, clock) of the newest `ToParent`, for the round-trip time.
    up_sent_at: Option<(u64, f64)>,
    completed: u64,
    forced: u64,
    last_rtt: Option<f64>,
}

/// The first boundary after `now` on the `window` grid through `fired`:
/// `fired + window`, or — if that has passed — the next aligned one, as
/// the shard loops' window ticker skips.
fn next_boundary(fired: f64, now: f64, window: f64) -> f64 {
    fired + window * (((now - fired) / window).floor() + 1.0).max(1.0)
}

impl TreeNode {
    /// A node with the given direct `children` (node ids, in topology
    /// order); `is_root` nodes close rounds instead of sending them up.
    /// `force_window` is the window length in seconds if unfinished rounds
    /// are to be forced (see [`NodeCmd::Clock`]).
    pub fn new(is_root: bool, children: &[usize], force_window: Option<f64>) -> TreeNode {
        TreeNode {
            is_root,
            children: children.iter().map(|&id| Child { id, ..Child::default() }).collect(),
            // A zero or NaN window would make the deadline arithmetic
            // divide by zero; a nanosecond forces at once, as intended.
            force_window: force_window.map(|w| w.max(1e-9)),
            ..TreeNode::default()
        }
    }

    /// Highest round whose global total reached this node.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Rounds closed on their deadline with last-good child values.
    pub fn forced(&self) -> u64 {
        self.forced
    }

    /// Seconds from the newest `ToParent` to its round's total arriving.
    pub fn last_rtt(&self) -> Option<f64> {
        self.last_rtt
    }

    /// When the driver must next deliver [`NodeCmd::Clock`], if a round is
    /// waiting on its deadline.
    pub fn deadline(&self) -> Option<f64> {
        self.force_at
    }

    /// Applies one command, appending what the driver must now do to `out`.
    pub fn apply(&mut self, cmd: NodeCmd, out: &mut Vec<Effect>) {
        match cmd {
            NodeCmd::Publish { demand, t } => {
                self.published += 1;
                self.pending.push_back(RoundMsg { round: self.published, t, values: demand });
            }
            NodeCmd::ChildConnected(k) => self.child_edge(k, true),
            NodeCmd::ChildLost(k) => self.child_edge(k, false),
            NodeCmd::FromChild(k, msg) => self.on_up(k, msg),
            NodeCmd::ParentConnected => {
                self.parent_connected = true;
                self.parent_rejoining = true;
                out.extend(self.last_up.clone().map(Effect::ToParent));
            }
            NodeCmd::ParentLost => self.parent_connected = false,
            NodeCmd::FromParent(msg) => self.on_down(msg, out),
            NodeCmd::Clock(t) => {
                if t > self.now {
                    self.now = t;
                }
            }
        }
        self.advance(out);
    }

    /// Child `k`'s edge came up or went away.
    fn child_edge(&mut self, k: usize, up: bool) {
        if let Some(c) = self.children.iter_mut().find(|c| c.id == k) {
            (c.connected, c.rejoining) = (up, up);
        }
    }

    fn on_up(&mut self, k: usize, msg: RoundMsg) {
        let Some(c) = self.children.iter_mut().find(|c| c.id == k) else { return };
        let mut round = msg.round.saturating_add(c.base);
        if std::mem::take(&mut c.rejoining) {
            // First aggregate after a (re)connect: if it falls short of
            // the stored last-good round, the child restarted and reset
            // its counter — rebase so this one lands immediately after the
            // pre-crash round. One that *equals* it is the resync of an
            // aggregate already in hand: rebasing on that would count the
            // child one round ahead for ever, and every later round would
            // close on its previous window without waiting.
            if let Some((prev, _)) = &c.latest {
                if round < *prev {
                    c.base = prev.saturating_add(1).saturating_sub(msg.round);
                    round = msg.round.saturating_add(c.base);
                }
            }
        }
        if c.latest.as_ref().is_none_or(|(r, _)| round > *r) {
            c.latest = Some((round, msg.values));
        }
    }

    fn on_down(&mut self, msg: RoundMsg, out: &mut Vec<Effect>) {
        let mut round = msg.round.saturating_add(self.down_base);
        if std::mem::take(&mut self.parent_rejoining) && round <= self.completed {
            // The mirror of `on_up`'s rebase: a restarted parent counts
            // from the beginning again, and without this the node's
            // completed round and round-trip time would stall until the
            // new counter overtook the old one.
            self.down_base = self.completed.saturating_add(1).saturating_sub(msg.round);
            round = msg.round.saturating_add(self.down_base);
        }
        self.completed = self.completed.max(round);
        if let Some((_, sent)) = self.up_sent_at.filter(|(r, _)| *r == round) {
            self.last_rtt = Some(self.now - sent);
            self.up_sent_at = None;
        }
        // Cascade toward the leaves in this node's numbering, so a
        // subtree never sees its grandparent's restart.
        self.close(RoundMsg { round, ..msg }, out);
    }

    /// Hands a closed round to every connected child and the local view.
    fn close(&self, msg: RoundMsg, out: &mut Vec<Effect>) {
        for c in self.children.iter().filter(|c| c.connected) {
            out.push(Effect::ToChild(c.id, msg.clone()));
        }
        out.push(Effect::Deliver(msg));
    }

    /// Combines as many own rounds as are complete or past their deadline.
    fn advance(&mut self, out: &mut Vec<Effect>) {
        while let Some(front) = self.pending.front() {
            if let (None, Some(w), false) =
                (self.force_at, self.force_window, self.children.is_empty())
            {
                let fired = if front.t.is_finite() { front.t } else { self.now };
                self.force_at = Some(next_boundary(fired, self.now, w));
            }
            let r = front.round;
            let ready =
                self.children.iter().all(|c| c.latest.as_ref().is_some_and(|(cr, _)| *cr >= r));
            if !ready && !self.force_at.is_some_and(|d| self.now >= d) {
                return;
            }
            let Some(mut msg) = self.pending.pop_front() else { return };
            self.force_at = None;
            if !ready {
                self.forced += 1;
            }
            // Children fold in last to first: the floating-point order of
            // `Topology::aggregate`, so every substrate sums alike.
            for (_, vals) in self.children.iter().rev().filter_map(|c| c.latest.as_ref()) {
                // A wider vector widens the sum: no width is trusted.
                if vals.len() > msg.values.len() {
                    msg.values.resize(vals.len(), 0.0);
                }
                msg.values.iter_mut().zip(vals).for_each(|(sum, v)| *sum += *v);
            }
            if self.is_root {
                self.completed = self.completed.max(msg.round);
                self.close(msg, out);
            } else {
                self.up_sent_at = Some((msg.round, self.now));
                if self.parent_connected {
                    out.push(Effect::ToParent(msg.clone()));
                }
                self.last_up = Some(msg);
            }
        }
    }
}
