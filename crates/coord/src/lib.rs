//! Coordination runtime for the socket prototypes.
//!
//! The paper's redirector prototypes pair a data plane (HTTP redirection or
//! packet forwarding) with a control plane that, every 100 ms window, (1)
//! reads the lagged global aggregate from the combining tree, (2) solves
//! the scheduling LP on it, (3) installs the resulting admission quotas
//! into the data plane, and (4) publishes local queue/demand state into the
//! tree. This crate is that control plane, shared by the Layer-7 and
//! Layer-4 prototypes:
//!
//! * [`Coordinator`] — the handle onto the combining tree, whichever
//!   driver runs it (`covenant-tree`'s in-process tree or `covenant-wire`'s
//!   sockets): each redirector publishes its demand vector; totals become
//!   visible to node `i` only after that node's lag;
//! * [`ShardCore`] — the per-redirector state machine (credit gate,
//!   demand estimator, window scheduler) a reactor shard owns exclusively,
//!   one per event loop, each joining the tree as its own leaf. The shard
//!   loop rolls it at every window boundary, and the roll does steps (1)
//!   and (4) around the sans-IO `EnforcementCore`'s tick, which does (2)
//!   and (3); no daemon thread, no lock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
mod shard;

pub use coordinator::Coordinator;
pub use shard::ShardCore;
