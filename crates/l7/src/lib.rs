//! Layer-7 HTTP redirector (paper §4.1, final implicit-queuing design).
//!
//! The redirector sits between clients and the clustered servers. Clients
//! send every request to the redirector; for each one it consults the
//! window-scheduled admission control ([`covenant_coord::ShardCore`])
//! and answers with an HTTP `302 Found`:
//!
//! * **in quota** → `Location:` the assigned backend server, so the client
//!   re-issues the request there;
//! * **out of quota** → `Location:` the redirector's own address (a
//!   *self-redirect*), which implicitly queues the request at the client —
//!   the scheme the paper adopted after explicit queuing was found to bunch
//!   requests (§4.1).
//!
//! Requests are attributed to principals by URL prefix: `/org/<name>/…`,
//! mirroring the paper's "the request URL signifies the service being
//! requested".
//!
//! The protocol is the sans-IO [`L7Machine`]; [`ShardedL7`] runs it on the
//! reactor's thread-per-core shards, batching admission verdicts per wake.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod machine;
mod shard;

pub use machine::{L7Config, L7Machine, HIGH_WATER, MAX_CONNS, RECV_LIMIT};
pub use shard::ShardedL7;
