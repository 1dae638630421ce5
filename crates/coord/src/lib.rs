//! Coordination runtime for the socket prototypes.
//!
//! The paper's redirector prototypes pair a data plane (HTTP redirection or
//! packet forwarding) with a control plane: a user-space daemon that, every
//! 100 ms window, (1) publishes local queue/demand state into the combining
//! tree, (2) reads back the lagged global aggregate, (3) solves the
//! scheduling LP, and (4) installs the resulting admission quotas into the
//! data plane. This crate is that control plane, shared by the Layer-7 and
//! Layer-4 prototypes:
//!
//! * [`Coordinator`] — the handle onto the combining tree, whichever
//!   driver runs it (`covenant-tree`'s in-process tree or `covenant-wire`'s
//!   sockets): each redirector publishes its demand vector; totals become
//!   visible to node `i` only after that node's lag;
//! * [`ShardCore`] — the per-redirector state machine (credit gate,
//!   demand estimator, window scheduler) a reactor shard owns exclusively,
//!   one per event loop, each joining the tree as its own leaf. The shard
//!   loop rolls it at every window boundary; no daemon thread, no lock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
mod shard;

pub use coordinator::Coordinator;
pub use shard::ShardCore;
