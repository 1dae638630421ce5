//! One enforcement core for every transport.
//!
//! The paper runs the same windowed admission algorithm behind three very
//! different front doors — a simulator, an L7 HTTP redirector, and an L4
//! TCP proxy. This crate is that algorithm, extracted once:
//!
//! * [`EnforcementCore`] — the full per-redirector state machine
//!   (scheduler + credits + queues + estimation + counters), with
//!   [`EnforcementCore::on_arrival`] and
//!   [`EnforcementCore::on_window_tick`] as the only entry points. It does
//!   no I/O: at each boundary the driver reads the tree's view, the tick
//!   plans on it and returns the local demand, and the driver publishes
//!   that demand.
//! * [`CreditGate`] — implicit queuing via per-window admission credits
//!   with fractional carry-over (§4.1, the paper's final design).
//! * [`PrincipalQueues`] — explicit per-principal FIFO queues (the first
//!   L7 implementation, kept for the bunching comparison).
//! * [`RateEstimator`] — EWMA arrival-rate estimation feeding the LP in
//!   implicit mode.
//! * [`reinject_fifo`] — the FIFO drain that readmits parked work (the
//!   core's park-mode queues, the L4 machine's parked connections) through
//!   fresh credit at each window boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod credit;
mod enforcement;
mod estimator;
mod queue;
mod reinject;
mod shard;

pub use counters::{
    AdmissionTotals, CountersReport, EngineTotals, NetTotals, ShardingTotals, SolverTotals,
};
pub use credit::{Admission, CreditGate};
pub use enforcement::{ArrivalOutcome, EnforcementCore, EnforcementCounters, QueueMode};
pub use estimator::RateEstimator;
pub use queue::{Dispatch, PrincipalQueues};
pub use reinject::reinject_fifo;
pub use shard::{ShardSnapshot, ShardStats};
