//! Ticket/currency representation of resource sharing agreements.
//!
//! This crate implements Section 2 and Section 3.1.1 of Zhao & Karamcheti,
//! *Enforcing Resource Sharing Agreements among Distributed Server Clusters*
//! (IPDPS 2002): a uniform, application-independent representation of
//! agreements between principals, and the computation that reduces an
//! arbitrary agreement graph to per-principal (and per-pair) mandatory and
//! optional access levels.
//!
//! # Model
//!
//! A set of [`Principal`]s own *rate resources* (server capacity, measured in
//! requests per second, scaled by the average per-request cost). Each
//! principal's *currency* is funded by its physical resources. An
//! [`Agreement`] `[lb, ub]` from principal `i` to principal `j` lets `j`
//! access between a fraction `lb` (guaranteed during overload) and `ub`
//! (best-effort) of `i`'s currency value. In the paper an agreement is a
//! pair of *tickets* — a mandatory one of face value `lb` and an optional
//! one of face value `ub - lb`, denominated in the issuer's currency; here
//! the tickets are the coefficients of [`FlowMatrices`], which compute
//! their real values.
//!
//! Because tickets contribute value to the recipient's currency, agreements
//! compose transitively: if `A` shares with `B` and `B` shares with `C`, part
//! of `A`'s physical resource flows through to `C` without any explicit
//! `A`–`C` agreement. [`AgreementGraph::access_levels`] performs the
//! transitive-closure computation of Figure 5 of the paper and yields an
//! [`AccessLevels`] table: for every principal `i` and every physical
//! resource owner `j` whose capacity reaches it, the mandatory entitlement
//! `m[i][j]` and optional entitlement `o[i][j]` (a sparse row per
//! principal; an owner that does not reach `i` is entitled to nothing),
//! plus the per-principal aggregates `MC_i` and `OC_i` used by the
//! scheduler.
//!
//! # Worked example (paper Figure 3)
//!
//! ```
//! use covenant_agreements::{AgreementGraph, Fraction};
//!
//! let mut g = AgreementGraph::new();
//! let a = g.add_principal("A", 1000.0);
//! let b = g.add_principal("B", 1500.0);
//! let c = g.add_principal("C", 0.0);
//! g.add_agreement(a, b, 0.4, 0.6).unwrap();
//! g.add_agreement(b, c, 0.6, 1.0).unwrap();
//!
//! let levels = g.access_levels();
//! assert_eq!(levels.mandatory(a).round(), 600.0);
//! assert_eq!(levels.optional(a).round(), 400.0);
//! assert_eq!(levels.mandatory(b).round(), 760.0);
//! assert_eq!(levels.optional(b).round(), 1340.0);
//! assert_eq!(levels.mandatory(c).round(), 1140.0);
//! assert_eq!(levels.optional(c).round(), 960.0);
//! # let _ = Fraction::new(0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod flows;
mod fraction;
mod graph;
mod levels;

pub use error::AgreementError;
pub use flows::FlowMatrices;
pub use fraction::Fraction;
pub use graph::{Agreement, AgreementGraph, Principal, PrincipalId};
pub use levels::AccessLevels;
