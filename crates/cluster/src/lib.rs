//! `covenant-cluster`: run the combining tree as real OS processes.
//!
//! Layer three of the transport refactor. `covenant-tree` defines the
//! [`covenant_tree::CoordTransport`] seam and `covenant-wire` implements
//! it over framed sockets; this crate turns a
//! [`covenant_core::DeploymentSpec`] into an actual *deployment* — one OS
//! process per tree node, each running a wire runtime, redirector leaves
//! running a real [`covenant_l7::ShardedL7`] data plane, and every
//! process serving a prometheus-style `GET /metrics` endpoint.
//!
//! The process model is re-exec: [`Cluster::launch`] spawns the current
//! executable with a sentinel argv, a tree level at a time — the nodes of
//! one level side by side, each told the wire address its parent's
//! `READY` line reported — and host binaries call [`maybe_run_node`]
//! first thing in `main` to take the node path. See [`mod@proc`] for the
//! node side and [`mod@launch`] for the launcher.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod launch;
pub mod metrics;
pub mod proc;

pub use launch::{Cluster, NodeHandle};
pub use metrics::render_metrics;
pub use proc::{maybe_run_node, SENTINEL};
