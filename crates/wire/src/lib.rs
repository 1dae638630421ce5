//! `covenant-wire`: the combining tree over real sockets.
//!
//! The protocol itself — rounds, forced rounds on last-good values, the
//! rebase of a restarted peer — is `covenant_tree::TreeNode`, the same
//! state machine the in-process tree and the simulator step by direct
//! calls. This crate is its socket driver: each tree node is a wire
//! endpoint speaking a tiny length-prefixed binary protocol ([`Frame`])
//! over TCP along its tree edges, served by one nonblocking epoll loop per
//! node ([`WireNode`]) on the `covenant-reactor` primitives, which turns
//! frames into node commands and the node's effects into frames. The
//! enforcement plane is oblivious — it talks to a [`WireTransport`], the
//! socket-backed implementation of `covenant_tree::CoordTransport`,
//! through the same `Coordinator` it always used, and reads the same
//! stamped `DelayedView` every driver delivers totals into.
//!
//! What changes is epistemology, not semantics: per-window message counts
//! (the paper's 2(n−1)) and propagation delay stop being simulation
//! parameters and become measured quantities ([`WireStats`]). Fault
//! tolerance maps onto the same staleness story — a lost edge degrades to
//! last-good values and bounded staleness, not to blocking.
//!
//! Layout:
//! - [`frame`]: the codec — never panics on hostile bytes (proptested).
//! - [`clock`]: the per-process measurement clock (the crate's only
//!   sanctioned wall-clock reads).
//! - [`stats`]: frames/rounds/reconnects/RTT counters.
//! - [`transport`]: the `CoordTransport` the enforcement plane holds.
//! - [`node`]: the node handle and its epoll driver.
//! - [`spawn_local`]: a whole loopback tree, for tests and benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod frame;
mod node;
mod stats;
mod transport;

pub use clock::WireClock;
pub use frame::{Frame, WireError, MAX_VALUES};
pub use node::{WireNode, WireNodeConfig};
pub use stats::WireStats;
pub use transport::{StampMode, WireTransport};

use std::io;
use std::net::SocketAddr;
use std::time::Duration;

/// Spawns an in-process loopback wire tree — one runtime thread per node —
/// from a `parents` array (`parents[i]` is node `i`'s parent; exactly one
/// `None` root; root must come first in spawn order, so parents must point
/// to lower indices). Returns the per-node handles in node order. Used by
/// tests and the loopback bench; the multi-process cluster builds the same
/// configs itself.
pub fn spawn_local(
    parents: &[Option<usize>],
    epoch: u32,
    mode: StampMode,
    window: Duration,
) -> io::Result<Vec<WireNode>> {
    let mut nodes: Vec<WireNode> = Vec::with_capacity(parents.len());
    for (i, parent) in parents.iter().enumerate() {
        let parent = match parent {
            None => None,
            Some(p) => Some(nodes.get(*p).map(WireNode::listen_addr).ok_or_else(|| {
                let what = "parents must point to already-spawned (lower-index) nodes";
                io::Error::new(io::ErrorKind::InvalidInput, what)
            })?),
        };
        nodes.push(WireNode::start(WireNodeConfig {
            node: i,
            nodes: parents.len(),
            parent,
            children: (0..parents.len()).filter(|&c| parents[c] == Some(i)).collect(),
            epoch,
            mode,
            window,
            extra_lag: 0.0,
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
        })?);
    }
    Ok(nodes)
}
