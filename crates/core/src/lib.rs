//! Deployment facade: the paper's experiments as declarative scenarios.
//!
//! This crate wires the workspace together for downstream users: given a
//! handful of parameters it builds the agreement graphs, client loads,
//! redirector trees, and simulator configurations for each of the paper's
//! evaluation setups (Figures 1 and 6–10), runs them, and summarizes the
//! per-phase processing rates the paper reports.
//!
//! ```no_run
//! use covenant_core::scenarios;
//!
//! let scenario = scenarios::fig6(50.0);
//! let outcome = scenario.run();
//! println!("{}", outcome.phase_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod report;
pub mod scenario;
pub mod scenarios;
pub mod spec;

pub use report::{
    counters_report_json, run_report_json, sim_counters, PhaseRates, ScenarioOutcome,
};
pub use scenario::{LinkSpec, NetSpec, ScenarioSpec, TimelineEvent};
pub use scenarios::FigureScenario;
pub use spec::{DeploymentSpec, SpecError};
