//! Deployment facade: the paper's experiments as declarative scenarios.
//!
//! This crate wires the workspace together for downstream users: a JSON
//! scenario file declares the agreement graph, client loads, redirector
//! tree, dynamics, and reporting phases; [`ScenarioSpec::build_sim`] turns
//! it into a simulator configuration, and [`ScenarioOutcome::run`] runs it
//! and summarizes the per-phase processing rates the paper reports. The
//! paper's Figures 6–10 ship as such files (`examples/scenarios/fig*.json`).
//!
//! ```no_run
//! use covenant_core::{ScenarioOutcome, ScenarioSpec};
//!
//! let text = std::fs::read_to_string("examples/scenarios/fig6.json").unwrap();
//! let spec = ScenarioSpec::from_json(&text).unwrap();
//! let outcome = ScenarioOutcome::run(&spec, spec.build_sim().unwrap());
//! println!("{}", outcome.phase_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod report;
pub mod scenario;
pub mod spec;

pub use report::{
    counters_report_json, run_report_json, sim_counters, PhaseRates, ScenarioOutcome,
};
pub use scenario::{LinkSpec, NetSpec, PhaseWindow, ScenarioSpec, TimelineEvent};
pub use spec::{DeploymentSpec, SpecError};
