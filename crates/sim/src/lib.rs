//! Discrete-event simulation of the full enforcement architecture.
//!
//! The paper evaluates on a physical testbed (WebBench clients, Apache
//! servers, two redirector machines). This crate is the deterministic
//! substitute: an event-driven simulator wiring together
//!
//! * [`covenant_workload`] client machines (phased loads, rate caps,
//!   optional closed-loop outstanding-request limits),
//! * redirectors, each one [`covenant_enforce::EnforcementCore`] — the
//!   state machine the live planes run — in any of three queuing modes
//!   (explicit queues, credit + client retry — the L7 self-redirect scheme
//!   — or credit + parking — the L4 kernel-queue scheme),
//! * a [`covenant_tree`] combining tree — the same `TreeNode` round engine
//!   the live planes run, stepped by direct calls once per window — with
//!   per-node information lag (plus an optional extra lag, reproducing
//!   Figure 8's deliberate 10 s delay). At each boundary the engine reads
//!   every redirector's view from it, ticks the core on that view, and
//!   publishes the demand the tick returns before closing the round,
//! * capacity-limited servers with finite accept backlogs, and optional
//!   shared-rate reply links.
//!
//! The engine's state is grouped by owner — clients (arrival sources,
//! closed-loop slots, request metadata), redirectors, servers, links and
//! the timeline schedules — and one handler applies every event to it.
//!
//! The output is a per-principal, per-second processing-rate series — the
//! exact quantity plotted in the paper's Figures 6–10 — plus response-time
//! and drop statistics.
//!
//! Time is `f64` seconds from run start; the event queue breaks timestamp
//! ties by event class (window ticks, then original arrivals, then retries
//! by the request they carry, then runtime events FIFO — see [`events`]),
//! so runs are fully deterministic for a given seed whether arrivals are
//! streamed lazily and certain re-deferrals folded ([`Simulation::run`]) or
//! everything is materialized up front and every retry polled (the tests'
//! reference run of the same handler).
//! The server and link models are checked against closed-form queueing
//! results (M/D/1, Pollaczek–Khinchine, M/G/1-PS) in their tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
pub mod events;
mod link;
mod metrics;
#[cfg(test)]
mod reference_prop;
mod server;

pub use config::{AgreementChange, CapacityChange, QueueMode, RequestCost, SimClient, SimConfig};
pub use events::{Event, EventQueue};
pub use engine::{ArrivalDecision, SimReport, Simulation};
pub use link::{LinkCfg, LinkDiscipline, NetModelCfg};
pub use metrics::{RateSeries, ResponseStats};
pub use server::Server;
