//! Declarative deployment specifications (JSON-friendly).
//!
//! Lets operators describe a whole enforcement deployment — principals,
//! agreements, redirector tree, scheduling policy, client loads — as data,
//! and run it without writing Rust. This is the input format of the
//! `covenant` CLI.

use covenant_agreements::{AgreementError, AgreementGraph, PrincipalId};
use covenant_sched::{LocalityCaps, Policy};
use covenant_sim::{QueueMode, SimConfig};
use covenant_tree::{Topology, TreeError};
use covenant_workload::{ClientMachine, PhasedLoad};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A whole-deployment specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentSpec {
    /// Principals in id order.
    pub principals: Vec<PrincipalSpec>,
    /// Direct agreements.
    pub agreements: Vec<AgreementSpec>,
    /// Redirectors and their combining tree (parent indices; exactly one
    /// `null` root). A single-redirector deployment is `[null]`.
    #[serde(default = "default_tree")]
    pub redirector_tree: Vec<Option<usize>>,
    /// Uniform edge delay in the tree, seconds.
    #[serde(default)]
    pub tree_edge_delay: f64,
    /// Extra information lag injected on top of propagation, seconds:
    /// every substrate holds a delivered total back this long before reads
    /// see it (over `covenant cluster`'s sockets, on top of the measured
    /// propagation).
    #[serde(default)]
    pub extra_tree_lag: f64,
    /// Scheduling policy.
    #[serde(default)]
    pub policy: PolicySpec,
    /// Scheduling window, seconds.
    #[serde(default = "default_window")]
    pub window_secs: f64,
    /// Queuing mode.
    #[serde(default)]
    pub queue_mode: QueueModeSpec,
    /// Client machines.
    pub clients: Vec<ClientSpec>,
    /// Run length, seconds.
    pub duration: f64,
    /// Verifier rules (`covenant check`) suppressed for this spec, by
    /// code (e.g. `["V4"]`). The escape hatch for deployments that
    /// knowingly violate an advisory contract.
    #[serde(default)]
    pub allow: Vec<String>,
}

fn default_tree() -> Vec<Option<usize>> {
    vec![None]
}

fn default_window() -> f64 {
    0.1
}

/// One principal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrincipalSpec {
    /// Display name (also used in client references).
    pub name: String,
    /// Physical capacity, requests/second (0 for pure consumers).
    #[serde(default)]
    pub capacity: f64,
}

/// One `[lb, ub]` agreement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgreementSpec {
    /// Issuer principal name.
    pub issuer: String,
    /// Holder principal name.
    pub holder: String,
    /// Guaranteed fraction.
    pub lb: f64,
    /// Best-effort upper bound.
    pub ub: f64,
}

/// Scheduling policy selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case", tag = "kind")]
pub enum PolicySpec {
    /// Max-min θ (community).
    #[default]
    Community,
    /// Community with per-server locality caps (requests/window).
    CommunityWithLocality {
        /// Per-server caps in principal-id order.
        caps: Vec<f64>,
    },
    /// Provider income maximization.
    Provider {
        /// Per-principal price for requests beyond mandatory.
        prices: Vec<f64>,
    },
}

/// Queuing mode selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case", tag = "kind")]
pub enum QueueModeSpec {
    /// Explicit per-principal queues.
    Explicit,
    /// Credit gate + client retry (L7 semantics).
    CreditRetry {
        /// Retry delay, seconds.
        #[serde(default = "default_retry")]
        retry_delay: f64,
    },
    /// Credit gate + parking (L4 semantics).
    CreditPark,
}

impl Default for QueueModeSpec {
    fn default() -> Self {
        QueueModeSpec::CreditRetry { retry_delay: default_retry() }
    }
}

fn default_retry() -> f64 {
    0.05
}

/// One client machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientSpec {
    /// Principal whose agreements fund this client's requests.
    pub principal: String,
    /// Redirector index the client sends to.
    #[serde(default)]
    pub redirector: usize,
    /// Load phases: (duration seconds, rate req/s).
    pub phases: Vec<(f64, f64)>,
    /// Optional closed-loop outstanding limit.
    #[serde(default)]
    pub max_outstanding: Option<usize>,
}

/// Errors raised while materializing a spec.
#[derive(Debug)]
pub enum SpecError {
    /// A client or agreement referenced an unknown principal name.
    UnknownPrincipal(String),
    /// The agreement graph rejected an agreement.
    Agreement(AgreementError),
    /// The redirector tree was invalid.
    Tree(TreeError),
    /// A client referenced a redirector index outside the tree.
    BadRedirector(usize),
    /// JSON parse or shape failure.
    Json(crate::json::JsonError),
    /// A scenario-level constraint failed (timeline references, link
    /// shape) while materializing a [`crate::scenario::ScenarioSpec`].
    Scenario(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownPrincipal(n) => write!(f, "unknown principal '{n}'"),
            SpecError::Agreement(e) => write!(f, "invalid agreement: {e}"),
            SpecError::Tree(e) => write!(f, "invalid redirector tree: {e}"),
            SpecError::BadRedirector(i) => write!(f, "redirector index {i} out of range"),
            SpecError::Json(e) => write!(f, "invalid spec JSON: {e}"),
            SpecError::Scenario(m) => write!(f, "invalid scenario: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl DeploymentSpec {
    /// Parses a spec from JSON.
    pub fn from_json(json: &str) -> Result<Self, SpecError> {
        decode::deployment(json).map_err(SpecError::Json)
    }

    /// Serializes the spec to pretty JSON.
    pub fn to_json(&self) -> String {
        encode::deployment(self).to_pretty()
    }

    /// Builds just the agreement graph.
    pub fn build_graph(&self) -> Result<AgreementGraph, SpecError> {
        let mut g = AgreementGraph::new();
        for p in &self.principals {
            g.add_principal(p.name.clone(), p.capacity);
        }
        let lookup = |name: &str| -> Result<PrincipalId, SpecError> {
            self.principals
                .iter()
                .position(|p| p.name == name)
                .map(PrincipalId)
                .ok_or_else(|| SpecError::UnknownPrincipal(name.to_string()))
        };
        for a in &self.agreements {
            let issuer = lookup(&a.issuer)?;
            let holder = lookup(&a.holder)?;
            g.add_agreement(issuer, holder, a.lb, a.ub)
                .map_err(SpecError::Agreement)?;
        }
        Ok(g)
    }

    /// The deployment's simulator configuration, before the scenario's
    /// net and timeline: [`crate::ScenarioSpec::build_sim`] adds those and
    /// then runs the whole-config checks.
    pub(crate) fn sim_config(&self) -> Result<SimConfig, SpecError> {
        let graph = self.build_graph()?;
        let tree = Topology::from_parents(
            &self.redirector_tree,
            &vec![self.tree_edge_delay; self.redirector_tree.len()],
        )
        .map_err(SpecError::Tree)?;
        let n_redirectors = tree.len();

        let mut cfg = SimConfig::new(graph, self.duration)
            .with_tree(tree, self.extra_tree_lag)
            .with_mode(match &self.queue_mode {
                QueueModeSpec::Explicit => QueueMode::Explicit,
                QueueModeSpec::CreditRetry { retry_delay } => {
                    QueueMode::CreditRetry { retry_delay: *retry_delay }
                }
                QueueModeSpec::CreditPark => QueueMode::CreditPark,
            })
            .with_policy(match &self.policy {
                PolicySpec::Community => Policy::Community { locality: None },
                PolicySpec::CommunityWithLocality { caps } => {
                    Policy::Community { locality: Some(LocalityCaps(caps.clone())) }
                }
                PolicySpec::Provider { prices } => Policy::Provider { prices: prices.clone() },
            });
        cfg.window_secs = self.window_secs;

        for (ci, c) in self.clients.iter().enumerate() {
            let principal = self
                .principals
                .iter()
                .position(|p| p.name == c.principal)
                .map(PrincipalId)
                .ok_or_else(|| SpecError::UnknownPrincipal(c.principal.clone()))?;
            if c.redirector >= n_redirectors {
                return Err(SpecError::BadRedirector(c.redirector));
            }
            let load = c
                .phases
                .iter()
                .fold(PhasedLoad::new(), |l, &(d, r)| l.then(d, r));
            let machine = ClientMachine::uniform(ci, principal, load);
            cfg = match c.max_outstanding {
                Some(limit) => cfg.closed_loop_client(machine, c.redirector, limit),
                None => cfg.client(machine, c.redirector),
            };
        }
        Ok(cfg)
    }
}

pub(crate) mod decode {
    //! JSON → spec mapping (replaces the serde derive path so the
    //! workspace builds offline). Field defaults mirror the `#[serde]`
    //! attributes on the spec types. `pub(crate)` so the scenario
    //! superset decoder reuses the deployment mapping and helpers.

    use super::*;
    use crate::json::{JsonError, Value};

    pub fn deployment(text: &str) -> Result<DeploymentSpec, JsonError> {
        let v = Value::parse(text)?;
        deployment_value(&v)
    }

    /// Every top-level key a spec file may carry: the deployment's own,
    /// then the scenario extras, which `levels` and `cluster` ignore.
    const TOP_KEYS: [&str; 15] = [
        "principals", "agreements", "redirector_tree", "tree_edge_delay", "extra_tree_lag",
        "policy", "window_secs", "queue_mode", "clients", "duration", "allow",
        "net", "timeline", "seed", "phases",
    ];

    pub fn deployment_value(v: &Value) -> Result<DeploymentSpec, JsonError> {
        if !matches!(v, Value::Obj(_)) {
            return Err(JsonError::msg("spec must be a JSON object"));
        }
        known_keys(v, "", &TOP_KEYS)?;
        Ok(DeploymentSpec {
            principals: list(v, "principals", principal)?,
            agreements: list(v, "agreements", agreement)?,
            redirector_tree: match v.get("redirector_tree") {
                None => default_tree(),
                Some(t) => tree(t)?,
            },
            tree_edge_delay: opt_f64(v, "tree_edge_delay", 0.0)?,
            extra_tree_lag: opt_f64(v, "extra_tree_lag", 0.0)?,
            policy: match v.get("policy") {
                None => PolicySpec::default(),
                Some(p) => policy(p)?,
            },
            window_secs: opt_f64(v, "window_secs", default_window())?,
            queue_mode: match v.get("queue_mode") {
                None => QueueModeSpec::default(),
                Some(q) => queue_mode(q)?,
            },
            clients: list(v, "clients", client)?,
            duration: req_f64(v, "duration")?,
            allow: match v.get("allow") {
                None => Vec::new(),
                Some(a) => str_array(a, "allow")?,
            },
        })
    }

    fn principal(v: &Value, path: &str) -> Result<PrincipalSpec, JsonError> {
        known_keys(v, path, &["name", "capacity"])?;
        Ok(PrincipalSpec {
            name: req_str(v, "name")?,
            capacity: opt_f64(v, "capacity", 0.0)?,
        })
    }

    fn agreement(v: &Value, path: &str) -> Result<AgreementSpec, JsonError> {
        known_keys(v, path, &["issuer", "holder", "lb", "ub"])?;
        Ok(AgreementSpec {
            issuer: req_str(v, "issuer")?,
            holder: req_str(v, "holder")?,
            lb: req_f64(v, "lb")?,
            ub: req_f64(v, "ub")?,
        })
    }

    fn tree(v: &Value) -> Result<Vec<Option<usize>>, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::msg("redirector_tree must be an array"))?
            .iter()
            .map(|e| {
                if e.is_null() {
                    Ok(None)
                } else {
                    e.as_usize()
                        .map(Some)
                        .ok_or_else(|| JsonError::msg("redirector_tree entries must be null or an index"))
                }
            })
            .collect()
    }

    fn policy(v: &Value) -> Result<PolicySpec, JsonError> {
        let (policy, keys): (_, &[&str]) = match v["kind"].as_str() {
            Some("community") => (PolicySpec::Community, &["kind"]),
            Some("community_with_locality") => (
                PolicySpec::CommunityWithLocality { caps: f64_array(&v["caps"], "policy caps")? },
                &["kind", "caps"],
            ),
            Some("provider") => (
                PolicySpec::Provider { prices: f64_array(&v["prices"], "policy prices")? },
                &["kind", "prices"],
            ),
            _ => return Err(JsonError::msg("policy kind must be community, community_with_locality, or provider")),
        };
        known_keys(v, "policy", keys)?;
        Ok(policy)
    }

    fn queue_mode(v: &Value) -> Result<QueueModeSpec, JsonError> {
        let (mode, keys): (_, &[&str]) = match v["kind"].as_str() {
            Some("explicit") => (QueueModeSpec::Explicit, &["kind"]),
            Some("credit_retry") => (
                QueueModeSpec::CreditRetry {
                    retry_delay: opt_f64(v, "retry_delay", default_retry())?,
                },
                &["kind", "retry_delay"],
            ),
            Some("credit_park") => (QueueModeSpec::CreditPark, &["kind"]),
            _ => return Err(JsonError::msg("queue_mode kind must be explicit, credit_retry, or credit_park")),
        };
        known_keys(v, "queue_mode", keys)?;
        Ok(mode)
    }

    fn client(v: &Value, path: &str) -> Result<ClientSpec, JsonError> {
        known_keys(v, path, &["principal", "redirector", "phases", "max_outstanding"])?;
        let phases = v["phases"]
            .as_array()
            .ok_or_else(|| JsonError::msg("client phases must be an array"))?
            .iter()
            .map(|ph| {
                match (ph[0].as_f64(), ph[1].as_f64()) {
                    (Some(d), Some(r)) if ph.as_array().is_some_and(|a| a.len() == 2) => Ok((
                        finite_nonneg(d, "phase duration")?,
                        finite_nonneg(r, "phase rate")?,
                    )),
                    _ => Err(JsonError::msg("each phase must be a [duration, rate] pair")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let max_outstanding = match v.get("max_outstanding") {
            None | Some(Value::Null) => None,
            Some(m) => Some(
                m.as_usize()
                    .ok_or_else(|| JsonError::msg("max_outstanding must be a non-negative integer"))?,
            ),
        };
        Ok(ClientSpec {
            principal: req_str(v, "principal")?,
            redirector: match v.get("redirector") {
                None => 0,
                Some(r) => r
                    .as_usize()
                    .ok_or_else(|| JsonError::msg("redirector must be a non-negative integer"))?,
            },
            phases,
            max_outstanding,
        })
    }

    /// Decodes the array under `key`, handing each item its path
    /// (`key[i]`) for error messages.
    pub fn list<T>(
        v: &Value,
        key: &str,
        item: impl Fn(&Value, &str) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        v.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| JsonError::msg(format!("'{key}' must be an array")))?
            .iter()
            .enumerate()
            .map(|(i, e)| item(e, &format!("{key}[{i}]")))
            .collect()
    }

    /// Rejects any key of the object `v` (found at `path`; empty for the
    /// top level) that is not in `known`, so a misspelled key fails the
    /// decode instead of silently falling back to a default.
    pub fn known_keys(v: &Value, path: &str, known: &[&str]) -> Result<(), JsonError> {
        let Value::Obj(fields) = v else { return Ok(()) };
        match fields.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            None => Ok(()),
            Some((k, _)) if path.is_empty() => Err(JsonError::msg(format!("unknown key '{k}'"))),
            Some((k, _)) => Err(JsonError::msg(format!("unknown key '{k}' in {path}"))),
        }
    }

    pub fn str_array(v: &Value, what: &str) -> Result<Vec<String>, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::msg(format!("'{what}' must be an array of strings")))?
            .iter()
            .map(|e| {
                e.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| JsonError::msg(format!("'{what}' entries must be strings")))
            })
            .collect()
    }

    pub fn f64_array(v: &Value, what: &str) -> Result<Vec<f64>, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::msg(format!("{what} must be an array of numbers")))?
            .iter()
            .map(|e| e.as_f64().ok_or_else(|| JsonError::msg(format!("{what} must be numeric"))))
            .collect()
    }

    /// Every scalar the spec carries is a duration, rate, capacity, or
    /// fraction — NaN, infinities, and negatives would flow straight into
    /// the scheduler's credit arithmetic, so they are rejected here.
    pub fn finite_nonneg(x: f64, what: &str) -> Result<f64, JsonError> {
        if x.is_finite() && x >= 0.0 {
            Ok(x)
        } else {
            Err(JsonError::msg(format!(
                "{what} must be a finite, non-negative number, got {x}"
            )))
        }
    }

    pub fn req_f64(v: &Value, key: &str) -> Result<f64, JsonError> {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| JsonError::msg(format!("'{key}' must be a number")))
            .and_then(|x| finite_nonneg(x, &format!("'{key}'")))
    }

    pub fn opt_f64(v: &Value, key: &str, default: f64) -> Result<f64, JsonError> {
        match v.get(key) {
            None => Ok(default),
            Some(n) => n
                .as_f64()
                .ok_or_else(|| JsonError::msg(format!("'{key}' must be a number")))
                .and_then(|x| finite_nonneg(x, &format!("'{key}'"))),
        }
    }

    pub fn req_str(v: &Value, key: &str) -> Result<String, JsonError> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| JsonError::msg(format!("'{key}' must be a string")))
    }
}

pub(crate) mod encode {
    //! Spec → JSON mapping, shape-compatible with [`decode`].

    use super::*;
    use crate::json::Value;

    pub fn deployment(spec: &DeploymentSpec) -> Value {
        let mut fields = vec![
            (
                "principals".into(),
                Value::Arr(spec.principals.iter().map(principal).collect()),
            ),
            (
                "agreements".into(),
                Value::Arr(spec.agreements.iter().map(agreement).collect()),
            ),
            (
                "redirector_tree".into(),
                Value::Arr(
                    spec.redirector_tree
                        .iter()
                        .map(|p| p.map_or(Value::Null, Value::from))
                        .collect(),
                ),
            ),
            ("tree_edge_delay".into(), spec.tree_edge_delay.into()),
            ("extra_tree_lag".into(), spec.extra_tree_lag.into()),
            ("policy".into(), policy(&spec.policy)),
            ("window_secs".into(), spec.window_secs.into()),
            ("queue_mode".into(), queue_mode(&spec.queue_mode)),
            (
                "clients".into(),
                Value::Arr(spec.clients.iter().map(client).collect()),
            ),
            ("duration".into(), spec.duration.into()),
        ];
        if !spec.allow.is_empty() {
            fields.push((
                "allow".into(),
                Value::Arr(spec.allow.iter().map(|s| s.as_str().into()).collect()),
            ));
        }
        Value::Obj(fields)
    }

    fn principal(p: &PrincipalSpec) -> Value {
        Value::Obj(vec![
            ("name".into(), p.name.as_str().into()),
            ("capacity".into(), p.capacity.into()),
        ])
    }

    fn agreement(a: &AgreementSpec) -> Value {
        Value::Obj(vec![
            ("issuer".into(), a.issuer.as_str().into()),
            ("holder".into(), a.holder.as_str().into()),
            ("lb".into(), a.lb.into()),
            ("ub".into(), a.ub.into()),
        ])
    }

    fn policy(p: &PolicySpec) -> Value {
        match p {
            PolicySpec::Community => Value::Obj(vec![("kind".into(), "community".into())]),
            PolicySpec::CommunityWithLocality { caps } => Value::Obj(vec![
                ("kind".into(), "community_with_locality".into()),
                ("caps".into(), f64_array(caps)),
            ]),
            PolicySpec::Provider { prices } => Value::Obj(vec![
                ("kind".into(), "provider".into()),
                ("prices".into(), f64_array(prices)),
            ]),
        }
    }

    fn queue_mode(q: &QueueModeSpec) -> Value {
        match q {
            QueueModeSpec::Explicit => Value::Obj(vec![("kind".into(), "explicit".into())]),
            QueueModeSpec::CreditRetry { retry_delay } => Value::Obj(vec![
                ("kind".into(), "credit_retry".into()),
                ("retry_delay".into(), (*retry_delay).into()),
            ]),
            QueueModeSpec::CreditPark => Value::Obj(vec![("kind".into(), "credit_park".into())]),
        }
    }

    fn client(c: &ClientSpec) -> Value {
        let mut fields = vec![
            ("principal".into(), c.principal.as_str().into()),
            ("redirector".into(), c.redirector.into()),
            (
                "phases".into(),
                Value::Arr(
                    c.phases
                        .iter()
                        .map(|&(d, r)| Value::Arr(vec![d.into(), r.into()]))
                        .collect(),
                ),
            ),
        ];
        fields.push((
            "max_outstanding".into(),
            c.max_outstanding.map_or(Value::Null, Value::from),
        ));
        Value::Obj(fields)
    }

    fn f64_array(xs: &[f64]) -> Value {
        Value::Arr(xs.iter().map(|&x| x.into()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioSpec;
    use covenant_sim::Simulation;

    const EXAMPLE: &str = r#"{
        "principals": [
            {"name": "S", "capacity": 100.0},
            {"name": "A"},
            {"name": "B"}
        ],
        "agreements": [
            {"issuer": "S", "holder": "A", "lb": 0.2, "ub": 1.0},
            {"issuer": "S", "holder": "B", "lb": 0.8, "ub": 1.0}
        ],
        "clients": [
            {"principal": "A", "phases": [[20.0, 150.0]]},
            {"principal": "B", "phases": [[20.0, 150.0]]}
        ],
        "duration": 20.0
    }"#;

    #[test]
    fn parses_and_builds() {
        let spec = DeploymentSpec::from_json(EXAMPLE).unwrap();
        let g = spec.build_graph().unwrap();
        assert_eq!(g.len(), 3);
        let lv = g.access_levels();
        assert!((lv.mandatory(PrincipalId(2)) - 80.0).abs() < 1e-9);
        let cfg = ScenarioSpec::from_json(EXAMPLE).unwrap().build_sim().unwrap();
        assert_eq!(cfg.clients.len(), 2);
        assert_eq!(cfg.n_redirectors(), 1);
    }

    #[test]
    fn spec_driven_run_enforces() {
        let sc = ScenarioSpec::from_json(EXAMPLE).unwrap();
        let report = Simulation::new(sc.build_sim().unwrap()).run();
        let b = report.rates.mean_rate_secs(PrincipalId(2), 8.0, 19.0);
        assert!((b - 80.0).abs() < 8.0, "B {b}");
    }

    #[test]
    fn roundtrips_json() {
        let spec = DeploymentSpec::from_json(EXAMPLE).unwrap();
        let json = spec.to_json();
        let again = DeploymentSpec::from_json(&json).unwrap();
        assert_eq!(again.principals.len(), 3);
        assert_eq!(again.agreements.len(), 2);
    }

    /// Decoding is linear in the text: a 4,096-principal spec (about
    /// 540 kB) decodes well inside two seconds even in a debug build.
    #[test]
    fn large_spec_decodes_in_linear_time() {
        let n = 4096;
        let principals: Vec<String> = (0..n)
            .map(|i| format!(r#"{{"name": "principal-{i:05}", "capacity": {}.5}}"#, i % 97))
            .collect();
        let agreements: Vec<String> = (1..n)
            .map(|i| {
                format!(
                    r#"{{"issuer": "principal-{:05}", "holder": "principal-{i:05}", "lb": 0.0001, "ub": 0.5}}"#,
                    i / 2
                )
            })
            .collect();
        let text = format!(
            r#"{{"principals": [{}], "agreements": [{}], "clients": [], "duration": 10.0}}"#,
            principals.join(",\n"),
            agreements.join(",\n")
        );
        assert!(text.len() > 500_000, "{} bytes", text.len());
        let start = std::time::Instant::now();
        let spec = DeploymentSpec::from_json(&text).unwrap();
        let took = start.elapsed();
        assert_eq!((spec.principals.len(), spec.agreements.len()), (n, n - 1));
        assert_eq!(spec.principals[n - 1].name, "principal-04095");
        assert!(took.as_secs_f64() < 2.0, "decoding {} bytes took {took:?}", text.len());
    }

    #[test]
    fn unknown_names_rejected() {
        let bad = EXAMPLE.replace("\"holder\": \"A\"", "\"holder\": \"Z\"");
        let spec = DeploymentSpec::from_json(&bad).unwrap();
        assert!(matches!(spec.build_graph(), Err(SpecError::UnknownPrincipal(_))));
    }

    #[test]
    fn bad_tree_rejected() {
        let mut sc = ScenarioSpec::from_json(EXAMPLE).unwrap();
        sc.deployment.redirector_tree = vec![Some(1), Some(0)];
        assert!(matches!(sc.build_sim(), Err(SpecError::Tree(_))));
    }

    #[test]
    fn bad_redirector_index_rejected() {
        let mut sc = ScenarioSpec::from_json(EXAMPLE).unwrap();
        sc.deployment.clients[0].redirector = 5;
        assert!(matches!(sc.build_sim(), Err(SpecError::BadRedirector(5))));
    }

    #[test]
    fn rejects_nan_and_negative_numerics() {
        // Infinity sneaks into JSON as an out-of-range literal; negatives
        // are plain syntax. Every numeric field must reject both.
        for (field, bad) in [
            ("\"capacity\": 100.0", "\"capacity\": -100.0"),
            ("\"capacity\": 100.0", "\"capacity\": 1e999"),
            ("\"lb\": 0.2", "\"lb\": -0.2"),
            ("\"ub\": 1.0", "\"ub\": -1.0"),
            ("\"duration\": 20.0", "\"duration\": -20.0"),
            ("\"duration\": 20.0", "\"duration\": 1e999"),
            ("[20.0, 150.0]", "[-20.0, 150.0]"),
            ("[20.0, 150.0]", "[20.0, -150.0]"),
        ] {
            let bad_spec = EXAMPLE.replace(field, bad);
            assert!(
                matches!(DeploymentSpec::from_json(&bad_spec), Err(SpecError::Json(_))),
                "{bad} should be rejected at decode"
            );
        }
        let with_extras = EXAMPLE.replace(
            "\"duration\": 20.0",
            "\"duration\": 20.0, \"window_secs\": -0.1",
        );
        assert!(DeploymentSpec::from_json(&with_extras).is_err());
        let with_retry = EXAMPLE.replace(
            "\"duration\": 20.0",
            "\"duration\": 20.0, \"queue_mode\": {\"kind\": \"credit_retry\", \"retry_delay\": -0.05}",
        );
        assert!(DeploymentSpec::from_json(&with_retry).is_err());
    }

    #[test]
    fn allow_list_parses_and_roundtrips() {
        let with_allow =
            EXAMPLE.replace("\"duration\": 20.0", "\"duration\": 20.0, \"allow\": [\"V4\"]");
        let spec = DeploymentSpec::from_json(&with_allow).unwrap();
        assert_eq!(spec.allow, vec!["V4".to_string()]);
        let again = DeploymentSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, again);
        // Absent `allow` decodes empty and is omitted from the encoding.
        let plain = DeploymentSpec::from_json(EXAMPLE).unwrap();
        assert!(plain.allow.is_empty());
        assert!(!plain.to_json().contains("allow"));
    }

    /// A misspelled key fails the decode at every object level, naming the
    /// key and its path. Before, `max_outstandng` silently turned a
    /// closed-loop client open-loop and `extra_tree_lagg` ran without lag.
    #[test]
    fn unknown_keys_rejected_with_their_path() {
        let closed = EXAMPLE.replace(
            r#"{"principal": "A", "phases": [[20.0, 150.0]]}"#,
            r#"{"principal": "A", "phases": [[20.0, 150.0]], "max_outstanding": 64}"#,
        );
        assert!(DeploymentSpec::from_json(&closed).is_ok());
        for (text, want) in [
            (
                closed.replace("max_outstanding", "max_outstandng"),
                "unknown key 'max_outstandng' in clients[0]",
            ),
            (
                EXAMPLE.replace(
                    r#""duration": 20.0"#,
                    r#""duration": 20.0, "extra_tree_lagg": 10.0"#,
                ),
                "unknown key 'extra_tree_lagg'",
            ),
            (
                EXAMPLE.replace(r#""name": "A""#, r#""name": "A", "cap": 5.0"#),
                "unknown key 'cap' in principals[1]",
            ),
            (
                EXAMPLE.replace(r#""lb": 0.8"#, r#""lb": 0.8, "weight": 2.0"#),
                "unknown key 'weight' in agreements[1]",
            ),
            (
                EXAMPLE.replace(
                    r#""duration": 20.0"#,
                    r#""duration": 20.0,
                       "queue_mode": {"kind": "credit_park", "retry_delay": 0.1}"#,
                ),
                "unknown key 'retry_delay' in queue_mode",
            ),
            (
                EXAMPLE.replace(
                    r#""duration": 20.0"#,
                    r#""duration": 20.0, "policy": {"kind": "community", "prices": [1.0]}"#,
                ),
                "unknown key 'prices' in policy",
            ),
        ] {
            match DeploymentSpec::from_json(&text) {
                Err(e) => assert!(e.to_string().contains(want), "want {want}, got {e}"),
                Ok(_) => panic!("must fail decode: {want}"),
            }
        }
        // The scenario keys ride along: `levels` and `cluster` take
        // scenario files.
        let scenario = EXAMPLE.replace(
            r#""duration": 20.0"#,
            r#""duration": 20.0, "net": null, "timeline": [], "seed": 3, "phases": []"#,
        );
        assert!(DeploymentSpec::from_json(&scenario).is_ok());
    }

    #[test]
    fn policy_and_mode_variants_parse() {
        let json = r#"{
            "principals": [{"name": "S", "capacity": 10.0}],
            "agreements": [],
            "policy": {"kind": "provider", "prices": [1.0]},
            "queue_mode": {"kind": "credit_park"},
            "redirector_tree": [null, 0],
            "clients": [],
            "duration": 1.0
        }"#;
        let cfg = ScenarioSpec::from_json(json).unwrap().build_sim().unwrap();
        assert_eq!(cfg.n_redirectors(), 2);
        assert!(matches!(cfg.mode, QueueMode::CreditPark));
        assert!(matches!(cfg.policy, Policy::Provider { .. }));
    }
}
