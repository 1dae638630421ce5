//! Time-window queuing schedulers for agreement enforcement.
//!
//! Implements Section 3 of the paper: each redirector logically maintains a
//! queue per principal and, every time window (100 ms in the paper's
//! prototypes), decides what subset of queued requests to forward to which
//! servers. The decision must (a) respect the mandatory/optional access
//! levels implied by the agreement graph, and (b) optimize a global metric —
//! either the community's worst-case response time (via the max-min `θ` LP)
//! or the service provider's income (via a price-ordered fill that solves
//! the pricing LP).
//!
//! # Components
//!
//! * [`CommunityScheduler`] — the "Global Response Time" linear program:
//!   maximize `θ = min_i (Σ_k x_ik) / n_i` subject to server capacities,
//!   pairwise agreement bounds `MI_ki ≤ x_ik ≤ MI_ki + OI_ki`, and queue
//!   limits; optionally with per-server locality caps.
//! * [`ProviderScheduler`] — the "Total Income of Provider" model:
//!   maximize `Σ_i p_i (x_i − MC_i)` subject to aggregate capacity and
//!   `MC_i ≤ x_i ≤ MC_i + OC_i`. One capacity row over box bounds is a
//!   fractional knapsack, so the plan is a price-ordered fill above the
//!   floors, with no solver; the LP formulation is its test oracle.
//! * [`Plan`] — the solved per-window schedule, with
//!   [`Plan::scale_for_local_queue`] implementing the distributed rule
//!   `x_local_ij / n_local_i = x_ij / n_i` that lets every redirector apply
//!   the globally-optimal plan to its local queue fraction.
//! * [`WindowScheduler`] — policy dispatch plus the conservative fallback a
//!   redirector uses before global queue information has arrived (half its
//!   mandatory share when peers are unknown; see the paper's Figure 8
//!   discussion).
//!
//! The queuing structures that *apply* a [`Plan`] — the credit gate,
//! explicit queues, and EWMA rate estimator — live in the
//! `covenant-enforce` crate together with the transport-agnostic
//! enforcement state machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod community;
mod plan;
mod provider;
mod request;
mod window;

pub use cache::{levels_fingerprint, PlanCache};
pub use community::{CommunityScheduler, LocalityCaps, PreparedCommunity};
pub use plan::Plan;
pub use provider::ProviderScheduler;
pub use request::{Request, RequestId};
pub use covenant_lp::WarmStats;
pub use window::{GlobalView, Policy, SchedulerConfig, WindowScheduler};
