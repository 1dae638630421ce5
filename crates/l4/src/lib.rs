//! Layer-4 redirector (paper §4.2).
//!
//! The paper's L4 prototype is a Linux Virtual Server NAT module: on a TCP
//! SYN it picks a server per the current scheduling decision, rewrites the
//! packet, and forwards; out-of-quota connections are parked in a
//! per-principal kernel queue and reinjected in later windows. Connection
//! affinity keeps one client on one server while agreements allow, so
//! SSL-style pairwise sessions survive.
//!
//! This crate is the user-space analogue with identical enforcement
//! semantics: the sans-IO [`L4Machine`] charges each connection to its
//! principal ([`covenant_coord::ShardCore`]) and relays, parks or sheds it;
//! [`ShardedL4`] runs it on the reactor's shards with one listening port per
//! principal, the pure Layer-4 way to attribute traffic. Only the packet
//! plumbing differs from the kernel module, which the paper treats as
//! substrate (LVS).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod machine;
mod shard;

pub use machine::{Admit, L4Machine};
pub use shard::{L4Config, L4Service, ShardedL4};
