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
//! semantics: a [`ShardedL4`] accepts connections (one listening port per
//! principal — the pure Layer-4 way to attribute traffic), consults its
//! shard's [`covenant_coord::ShardCore`] at accept time, and either relays
//! the byte stream to the assigned backend or parks the connection for a
//! later window. Only the packet-rewriting plumbing differs from the
//! kernel module, and that part the paper itself treats as substrate (LVS).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod reactor_proxy;

pub use reactor_proxy::{L4Config, L4Service, ShardedL4};
