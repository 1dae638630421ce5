//! Combining-tree coordination between redirector nodes (§3.2).
//!
//! The distributed queuing strategy needs every redirector to know the
//! *global* per-principal queue lengths, but pairwise exchange costs
//! `O(n²)` messages per window. Instead, redirectors are organized into a
//! combining tree: leaves send their queue-length vectors up, interior
//! nodes fold in their own state and forward the partial sum, and the root
//! broadcasts the final aggregate back down — `2(n−1)` messages total, at
//! the price of the aggregate lagging reality by the tree's propagation
//! delay (evaluated in the paper's Figure 8 with a deliberate 10 s lag).
//!
//! This crate provides:
//!
//! * [`Topology`] — validated tree shapes (explicit parent arrays, or the
//!   [`Topology::balanced`] / [`Topology::star`] / [`Topology::chain`]
//!   constructors) with per-edge delays;
//! * [`TreeNode`] — the protocol itself, once: one tree position's round
//!   engine as a pure state machine (`apply(NodeCmd) -> Effect`s; no
//!   socket, no clock, no lock), including forced rounds on last-good
//!   child values and the rebase of a restarted child or parent. Every
//!   substrate is a driver that only moves its messages;
//! * [`DelayedView`] — the one stamped view every driver delivers totals
//!   into: what a redirector actually *sees*, the newest aggregate older
//!   than its lag;
//! * [`LocalTree`] — the direct-call driver: a whole tree of nodes and
//!   views in one address space (the simulator's coordination), and
//!   [`InProcessTree`], the same behind a mutex as a [`CoordTransport`] —
//!   the publish/read seam the live planes run over (the socket driver
//!   lives in `covenant-wire`);
//! * [`Topology::aggregate`] — one up/down round computed centrally: the
//!   oracle the node is checked against, with the exact message count and
//!   the latency implied by the edge delays;
//! * [`QueueStats`] — the richer aggregate the paper mentions (max, min,
//!   average, variance) combined in the same single round.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod node;
mod stats;
mod topology;
mod transport;

pub use delay::DelayedView;
pub use node::{Effect, NodeCmd, RoundMsg, TreeNode};
pub use stats::QueueStats;
pub use topology::{AggregationRound, Topology, TreeError};
pub use transport::{CoordTransport, InProcessTree, LocalTree};
