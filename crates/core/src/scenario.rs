//! Declarative scenarios: a deployment plus links, a timeline, and a seed.
//!
//! A [`ScenarioSpec`] is a strict superset of [`DeploymentSpec`]: the same
//! JSON object, extended with
//!
//! * `net` — one shared-rate reply-path link per redirector (rate in
//!   bytes/second, `fifo` or `fair_share` discipline) plus the byte scale,
//!   turning the simulator's fixed two-hop delay into congestion-derived
//!   transfer times;
//! * `timeline` — dated events reshaping the run while it executes: flash
//!   crowds, diurnal load swings, agreement renegotiations (the paper's
//!   dynamic-reinterpretation hook, §2.2), server failure and recovery,
//!   adversarial demand inflation, and redirector restarts;
//! * `seed` — the RNG seed for the reply-size distribution (each client
//!   derives its own stream from it), making every run reproducible;
//! * `phases` — named `[start, end)` windows over which
//!   [`crate::ScenarioOutcome`] reports each loaded principal's settled
//!   rate (the paper's per-phase figure summaries).
//!
//! The deployment decoder accepts these four keys and rejects every other
//! unknown one, so every scenario file is *also* a valid deployment spec —
//! `covenant check` verifies the whole thing (rules V1–V10), and
//! `covenant levels` and `covenant cluster` read just the deployment.
//! [`ScenarioSpec::build_sim`] is the full materialization: timeline
//! events become phase overlays, capacity/agreement change schedules, and
//! restart injections on the [`SimConfig`].

use crate::json::{JsonError, Value};
use crate::spec::{decode, encode, DeploymentSpec, QueueModeSpec, SpecError};
use covenant_agreements::PrincipalId;
use covenant_sim::{
    LinkCfg, LinkDiscipline, NetModelCfg, RequestCost, SimConfig,
};
use covenant_workload::ReplySizes;

/// One reply-path link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Link capacity, bytes per second.
    pub rate_bytes_per_sec: f64,
    /// Queueing discipline: `"fifo"` or `"fair_share"`.
    pub discipline: LinkDiscipline,
}

/// The scenario's network model: one link per redirector.
#[derive(Debug, Clone, PartialEq)]
pub struct NetSpec {
    /// One link per redirector, indexed like `redirector_tree`.
    pub links: Vec<LinkSpec>,
    /// Reply bytes per cost unit (and the mean of the sampled reply-size
    /// distribution). Default 6144, the paper's 6 KB average reply.
    pub unit_bytes: f64,
    /// One-way per-hop latency added to every message, seconds.
    pub hop_latency: f64,
}

fn default_unit_bytes() -> f64 {
    6144.0
}

/// One dated timeline event.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineEvent {
    /// A client's offered rate jumps by `extra_rate` for `duration`
    /// seconds (the paper's Figure 7 flash-crowd shape).
    FlashCrowd {
        /// Start time, seconds.
        at: f64,
        /// How long the crowd stays, seconds.
        duration: f64,
        /// Index into `clients`.
        client: usize,
        /// Additional req/s during the crowd.
        extra_rate: f64,
    },
    /// From `at` on, the client's load becomes a square wave alternating
    /// `peak_rate` and `trough_rate` every half `period`.
    Diurnal {
        /// Start time, seconds.
        at: f64,
        /// Full cycle length, seconds.
        period: f64,
        /// Index into `clients`.
        client: usize,
        /// Rate during the first half of each cycle, req/s.
        peak_rate: f64,
        /// Rate during the second half, req/s.
        trough_rate: f64,
    },
    /// An existing issuer→holder agreement is renegotiated to `[lb, ub]`
    /// at the next window boundary (dynamic reinterpretation, §2.2).
    Renegotiate {
        /// Effective time, seconds.
        at: f64,
        /// Issuer principal name.
        issuer: String,
        /// Holder principal name.
        holder: String,
        /// New mandatory fraction.
        lb: f64,
        /// New upper bound.
        ub: f64,
    },
    /// A server's capacity drops to zero (crash) at the next window
    /// boundary.
    ServerFail {
        /// Effective time, seconds.
        at: f64,
        /// Principal whose capacity vanishes.
        principal: String,
    },
    /// A failed server comes back, at its declared capacity or an
    /// explicit override.
    ServerRecover {
        /// Effective time, seconds.
        at: f64,
        /// Principal whose capacity returns.
        principal: String,
        /// Restored capacity; `None` restores the spec's declared value.
        capacity: Option<f64>,
    },
    /// From `at` on, a client's offered rate is multiplied by `factor`
    /// (adversarial demand inflation — a principal pushing far past its
    /// entitlement to probe the enforcement).
    Inflate {
        /// Start time, seconds.
        at: f64,
        /// Index into `clients`.
        client: usize,
        /// Rate multiplier (≥ 0).
        factor: f64,
    },
    /// A redirector crashes and restarts with empty state at `at`.
    RestartRedirector {
        /// Crash time, seconds.
        at: f64,
        /// Redirector index.
        redirector: usize,
    },
}

impl TimelineEvent {
    /// The event's scheduled time.
    pub fn at(&self) -> f64 {
        match self {
            TimelineEvent::FlashCrowd { at, .. }
            | TimelineEvent::Diurnal { at, .. }
            | TimelineEvent::Renegotiate { at, .. }
            | TimelineEvent::ServerFail { at, .. }
            | TimelineEvent::ServerRecover { at, .. }
            | TimelineEvent::Inflate { at, .. }
            | TimelineEvent::RestartRedirector { at, .. } => *at,
        }
    }

    /// The event's `kind` tag as spelled in JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            TimelineEvent::FlashCrowd { .. } => "flash_crowd",
            TimelineEvent::Diurnal { .. } => "diurnal",
            TimelineEvent::Renegotiate { .. } => "renegotiate",
            TimelineEvent::ServerFail { .. } => "server_fail",
            TimelineEvent::ServerRecover { .. } => "server_recover",
            TimelineEvent::Inflate { .. } => "inflate",
            TimelineEvent::RestartRedirector { .. } => "restart_redirector",
        }
    }
}

/// One named reporting window of a run, seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseWindow {
    /// Label ("phase 1", …).
    pub name: String,
    /// Window start.
    pub start: f64,
    /// Window end.
    pub end: f64,
}

/// A whole scenario: deployment plus net model, timeline, seed, and
/// reporting phases.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The embedded deployment (same JSON object; scenario keys ride
    /// alongside the deployment keys).
    pub deployment: DeploymentSpec,
    /// Shared-rate reply-path links; `None` keeps the fixed-delay model.
    pub net: Option<NetSpec>,
    /// Dated events, expected in non-decreasing `at` order (decode
    /// accepts any order; verifier rule V9 flags violations).
    pub timeline: Vec<TimelineEvent>,
    /// Seed for the reply-size sampler streams.
    pub seed: u64,
    /// Reporting windows, each within `[0, duration]`; empty when the
    /// scenario declares none.
    pub phases: Vec<PhaseWindow>,
}

/// Shortest scheduling window a simulation accepts, seconds. The paper's
/// window is 100 ms; one of 1 ms is already shorter than an HTTP round
/// trip, so no redirector could roll that fast, and each roll costs the
/// simulator an LP solve per redirector: a 1e-9 s window over a 30 s run
/// is 3·10¹⁰ of them.
const MIN_WINDOW_SECS: f64 = 1e-3;

/// Most self-redirect round trips (`retry_delay + 2 × hop latency`) a
/// simulation accepts per scheduling window. A deferred request comes back
/// once per gap until the next roll, so this caps the re-presentations one
/// deferral costs per window; a gap of zero would return the request at the
/// instant it left, for ever, and a run with one would never end.
const MAX_RETRIES_PER_WINDOW: f64 = 1000.0;

impl ScenarioSpec {
    /// Parses a scenario from JSON. Plain deployment specs parse too,
    /// with no net model, an empty timeline, seed 0, and no phases.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        Self::from_value(&Value::parse(text).map_err(SpecError::Json)?)
    }

    /// Decodes a scenario from an already-parsed document, with the same
    /// strict key checks as [`Self::from_json`].
    pub fn from_value(v: &Value) -> Result<Self, SpecError> {
        let deployment = decode::deployment_value(v).map_err(SpecError::Json)?;
        let net = match v.get("net") {
            None | Some(Value::Null) => None,
            Some(n) => Some(decode_net(n).map_err(SpecError::Json)?),
        };
        let timeline = match v.get("timeline") {
            None => Vec::new(),
            Some(_) => decode::list(v, "timeline", decode_event).map_err(SpecError::Json)?,
        };
        let seed = match v.get("seed") {
            None => 0,
            Some(s) => s.as_usize().ok_or_else(|| {
                SpecError::Json(JsonError::msg("'seed' must be a non-negative integer"))
            })? as u64,
        };
        let phases = match v.get("phases") {
            None => Vec::new(),
            Some(_) => decode::list(v, "phases", |p, path| {
                decode_phase(p, path, deployment.duration)
            })
            .map_err(SpecError::Json)?,
        };
        Ok(ScenarioSpec { deployment, net, timeline, seed, phases })
    }

    /// Serializes the scenario to pretty JSON (deployment keys first,
    /// then the scenario extras), shape-compatible with [`Self::from_json`].
    pub fn to_json(&self) -> String {
        let Value::Obj(mut fields) = encode::deployment(&self.deployment) else {
            unreachable!("deployment encodes to an object");
        };
        if let Some(net) = &self.net {
            fields.push(("net".into(), encode_net(net)));
        }
        if !self.timeline.is_empty() {
            fields.push((
                "timeline".into(),
                Value::Arr(self.timeline.iter().map(encode_event).collect()),
            ));
        }
        if self.seed != 0 {
            fields.push(("seed".into(), (self.seed as f64).into()));
        }
        if !self.phases.is_empty() {
            fields.push((
                "phases".into(),
                Value::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Value::Obj(vec![
                                ("name".into(), p.name.as_str().into()),
                                ("start".into(), p.start.into()),
                                ("end".into(), p.end.into()),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Value::Obj(fields).to_pretty()
    }

    /// Rejects the time scales a run cannot advance through: a scheduling
    /// window below [`MIN_WINDOW_SECS`], and under credit retry a
    /// self-redirect gap, `retry_delay + 2 × net.hop_latency`, below
    /// `window_secs /` [`MAX_RETRIES_PER_WINDOW`]. [`Self::build_sim`] ends
    /// with it, and `covenant check` runs it, so `check` refuses what `sim`
    /// would.
    pub fn check_time_scales(&self) -> Result<(), SpecError> {
        let window = self.deployment.window_secs;
        if window.is_nan() || window < MIN_WINDOW_SECS {
            return Err(SpecError::Scenario(format!(
                "window_secs is {window}: a scheduling window must be at least {MIN_WINDOW_SECS} s"
            )));
        }
        let hop = self.net.as_ref().map_or(0.0, |n| n.hop_latency);
        match self.deployment.queue_mode {
            QueueModeSpec::CreditRetry { retry_delay }
                if retry_delay + 2.0 * hop < window / MAX_RETRIES_PER_WINDOW =>
            {
                Err(SpecError::Scenario(format!(
                    "queue_mode.retry_delay is {retry_delay} and the hop latency is {hop}: a \
                     self-redirected request would come back more than \
                     {MAX_RETRIES_PER_WINDOW} times per {window} s window; make retry_delay + \
                     2 × net.hop_latency at least {}",
                    window / MAX_RETRIES_PER_WINDOW
                )))
            }
            _ => Ok(()),
        }
    }

    /// Materializes the full simulator configuration: load-shaping events
    /// become phase overlays, control events become capacity/agreement
    /// change schedules and restart injections, and the net model installs
    /// links plus size-distributed request costs seeded from `seed`.
    pub fn build_sim(&self) -> Result<SimConfig, SpecError> {
        let mut dep = self.deployment.clone();
        let scenario_err = |m: String| SpecError::Scenario(m);
        for (ei, ev) in self.timeline.iter().enumerate() {
            match ev {
                TimelineEvent::FlashCrowd { at, duration, client, extra_rate } => {
                    let phases = client_phases(&mut dep, *client, ei, ev.kind())?;
                    *phases = overlay(phases, *at, *at + *duration, |r| r + *extra_rate);
                }
                TimelineEvent::Inflate { at, client, factor } => {
                    let phases = client_phases(&mut dep, *client, ei, ev.kind())?;
                    *phases = overlay(phases, *at, f64::INFINITY, |r| r * *factor);
                }
                TimelineEvent::Diurnal { at, period, client, peak_rate, trough_rate } => {
                    // No scheduler sees modulation faster than its window,
                    // and this bound keeps the phase list within about
                    // twice the run's tick count.
                    if period.is_nan() || *period < dep.window_secs {
                        return Err(scenario_err(format!(
                            "timeline[{ei}] (diurnal) period must be at least window_secs \
                             ({}), got {period}",
                            dep.window_secs
                        )));
                    }
                    let duration = dep.duration;
                    let phases = client_phases(&mut dep, *client, ei, ev.kind())?;
                    let mut shaped = truncate(phases, *at);
                    let mut t = *at;
                    let mut high = true;
                    while t < duration {
                        let d = (period / 2.0).min(duration - t);
                        shaped.push((d, if high { *peak_rate } else { *trough_rate }));
                        high = !high;
                        t += d;
                    }
                    *phases = shaped;
                }
                _ => {}
            }
        }

        let mut cfg = dep.sim_config()?;

        if let Some(net) = &self.net {
            if net.links.len() != cfg.n_redirectors() {
                return Err(scenario_err(format!(
                    "net declares {} links for {} redirectors; one link per redirector",
                    net.links.len(),
                    cfg.n_redirectors()
                )));
            }
            for (li, l) in net.links.iter().enumerate() {
                if !(l.rate_bytes_per_sec.is_finite() && l.rate_bytes_per_sec > 0.0) {
                    return Err(scenario_err(format!(
                        "net.links[{li}] rate must be finite and positive, got {}",
                        l.rate_bytes_per_sec
                    )));
                }
            }
            cfg = cfg
                .with_network_latency(net.hop_latency)
                .with_net(NetModelCfg {
                    links: net
                        .links
                        .iter()
                        .map(|l| LinkCfg {
                            rate_bytes_per_sec: l.rate_bytes_per_sec,
                            discipline: l.discipline,
                        })
                        .collect(),
                    unit_bytes: net.unit_bytes,
                });
            // Under a link model requests carry sampled WebBench reply
            // sizes, so the 200 B–500 KB tail actually hits the links.
            for (ci, c) in cfg.clients.iter_mut().enumerate() {
                c.cost = RequestCost::SizeDistributed {
                    sizes: ReplySizes::default(),
                    mean_bytes: net.unit_bytes,
                    seed: client_seed(self.seed, ci),
                };
            }
        }

        let lookup = |name: &str| -> Result<PrincipalId, SpecError> {
            self.deployment
                .principals
                .iter()
                .position(|p| p.name == name)
                .map(PrincipalId)
                .ok_or_else(|| SpecError::UnknownPrincipal(name.to_string()))
        };
        let mut renegotiations = Vec::new();
        for (ei, ev) in self.timeline.iter().enumerate() {
            match ev {
                TimelineEvent::Renegotiate { at, issuer, holder, lb, ub } => {
                    cfg = cfg.with_agreement_change(*at, lookup(issuer)?, lookup(holder)?, *lb, *ub);
                    renegotiations.push(ei);
                }
                TimelineEvent::ServerFail { at, principal } => {
                    cfg = cfg.with_capacity_change(*at, lookup(principal)?, 0.0);
                }
                TimelineEvent::ServerRecover { at, principal, capacity } => {
                    let id = lookup(principal)?;
                    let declared = self.deployment.principals[id.0].capacity;
                    cfg = cfg.with_capacity_change(*at, id, capacity.unwrap_or(declared));
                }
                TimelineEvent::RestartRedirector { at, redirector } => {
                    if *redirector >= cfg.n_redirectors() {
                        return Err(SpecError::BadRedirector(*redirector));
                    }
                    cfg = cfg.with_redirector_restart(*at, *redirector);
                }
                _ => {}
            }
        }
        // Replay the renegotiations in the order the run applies them, so
        // one the graph rejects fails here instead of panicking mid-run.
        let mut graph = cfg.graph.clone();
        let mut replay: Vec<_> = renegotiations.into_iter().zip(&cfg.agreement_changes).collect();
        replay.sort_by(|a, b| a.1.at.total_cmp(&b.1.at));
        for (ei, c) in replay {
            graph.set_agreement(c.issuer, c.holder, c.lb, c.ub).map_err(|e| {
                scenario_err(format!("timeline[{ei}] (renegotiate) cannot apply: {e}"))
            })?;
        }
        self.check_time_scales()?;
        Ok(cfg)
    }
}

/// Looks up a timeline event's client by index, with a positioned error.
fn client_phases<'a>(
    dep: &'a mut DeploymentSpec,
    ci: usize,
    ei: usize,
    kind: &str,
) -> Result<&'a mut Vec<(f64, f64)>, SpecError> {
    let total = dep.clients.len();
    dep.clients.get_mut(ci).map(|c| &mut c.phases).ok_or_else(|| {
        SpecError::Scenario(format!(
            "timeline[{ei}] ({kind}) references client {ci}, but only {total} clients are declared"
        ))
    })
}

/// Derives one client's reply-size RNG seed from the scenario seed
/// (splitmix-style so adjacent clients get unrelated streams).
fn client_seed(seed: u64, client: usize) -> u64 {
    let mut z = seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies `f` to the rate of every part of `phases` overlapping `[s, e)`,
/// splitting phases at the window edges. If the window extends past the
/// declared phases and `f(0)` produces load, the gap and tail are
/// materialized (a flash crowd can outlast the base schedule).
fn overlay(phases: &[(f64, f64)], s: f64, e: f64, f: impl Fn(f64) -> f64) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut t = 0.0;
    for &(d, r) in phases {
        let (t0, t1) = (t, t + d);
        let cuts = [t0, s.clamp(t0, t1), e.clamp(t0, t1), t1];
        for w in cuts.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b > a {
                let rate = if a >= s && b <= e { f(r) } else { r };
                out.push((b - a, rate));
            }
        }
        t = t1;
    }
    if e.is_finite() && e > t && f(0.0) > 0.0 {
        let a = s.max(t);
        if a > t {
            out.push((a - t, 0.0));
        }
        out.push((e - a, f(0.0)));
    }
    out
}

/// The prefix of `phases` covering `[0, cut)`.
fn truncate(phases: &[(f64, f64)], cut: f64) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut t = 0.0;
    for &(d, r) in phases {
        if t + d <= cut {
            out.push((d, r));
        } else if t < cut {
            out.push((cut - t, r));
        }
        t += d;
        if t >= cut {
            break;
        }
    }
    out
}

fn decode_net(v: &Value) -> Result<NetSpec, JsonError> {
    decode::known_keys(v, "net", &["links", "unit_bytes", "hop_latency"])?;
    let links = v
        .get("links")
        .and_then(Value::as_array)
        .ok_or_else(|| JsonError::msg("'net.links' must be an array"))?
        .iter()
        .enumerate()
        .map(|(i, l)| decode_link(l, &format!("net.links[{i}]")))
        .collect::<Result<_, _>>()?;
    Ok(NetSpec {
        links,
        unit_bytes: decode::opt_f64(v, "unit_bytes", default_unit_bytes())?,
        hop_latency: decode::opt_f64(v, "hop_latency", 0.0)?,
    })
}

fn decode_link(v: &Value, path: &str) -> Result<LinkSpec, JsonError> {
    decode::known_keys(v, path, &["rate_bytes_per_sec", "discipline"])?;
    let discipline = match v.get("discipline") {
        None => LinkDiscipline::Fifo,
        Some(d) => match d.as_str() {
            Some("fifo") => LinkDiscipline::Fifo,
            Some("fair_share") => LinkDiscipline::FairShare,
            _ => return Err(JsonError::msg("link discipline must be fifo or fair_share")),
        },
    };
    Ok(LinkSpec {
        rate_bytes_per_sec: decode::req_f64(v, "rate_bytes_per_sec")?,
        discipline,
    })
}

fn req_usize(v: &Value, key: &str) -> Result<usize, JsonError> {
    v.get(key)
        .and_then(Value::as_usize)
        .ok_or_else(|| JsonError::msg(format!("'{key}' must be a non-negative integer")))
}

/// A phase must be a finite window with `0 ≤ start < end ≤ duration`.
fn decode_phase(v: &Value, path: &str, duration: f64) -> Result<PhaseWindow, JsonError> {
    decode::known_keys(v, path, &["name", "start", "end"])?;
    let (start, end) = (decode::req_f64(v, "start")?, decode::req_f64(v, "end")?);
    if !(start < end && end <= duration) {
        return Err(JsonError::msg(format!(
            "{path} must satisfy 0 <= start < end <= duration ({duration}), got {start}..{end}"
        )));
    }
    Ok(PhaseWindow { name: decode::req_str(v, "name")?, start, end })
}

/// The keys a timeline event of `kind` may carry; `None` for an unknown
/// kind (which [`decode_event`] rejects by name).
fn event_keys(kind: &str) -> Option<&'static [&'static str]> {
    Some(match kind {
        "flash_crowd" => &["kind", "at", "duration", "client", "extra_rate"],
        "diurnal" => &["kind", "at", "period", "client", "peak_rate", "trough_rate"],
        "renegotiate" => &["kind", "at", "issuer", "holder", "lb", "ub"],
        "server_fail" => &["kind", "at", "principal"],
        "server_recover" => &["kind", "at", "principal", "capacity"],
        "inflate" => &["kind", "at", "client", "factor"],
        "restart_redirector" => &["kind", "at", "redirector"],
        _ => return None,
    })
}

fn decode_event(v: &Value, path: &str) -> Result<TimelineEvent, JsonError> {
    if let Some(keys) = v["kind"].as_str().and_then(event_keys) {
        decode::known_keys(v, path, keys)?;
    }
    let at = decode::req_f64(v, "at")?;
    match v["kind"].as_str() {
        Some("flash_crowd") => Ok(TimelineEvent::FlashCrowd {
            at,
            duration: decode::req_f64(v, "duration")?,
            client: req_usize(v, "client")?,
            extra_rate: decode::req_f64(v, "extra_rate")?,
        }),
        Some("diurnal") => Ok(TimelineEvent::Diurnal {
            at,
            period: decode::req_f64(v, "period")?,
            client: req_usize(v, "client")?,
            peak_rate: decode::req_f64(v, "peak_rate")?,
            trough_rate: decode::req_f64(v, "trough_rate")?,
        }),
        Some("renegotiate") => Ok(TimelineEvent::Renegotiate {
            at,
            issuer: decode::req_str(v, "issuer")?,
            holder: decode::req_str(v, "holder")?,
            lb: decode::req_f64(v, "lb")?,
            ub: decode::req_f64(v, "ub")?,
        }),
        Some("server_fail") => Ok(TimelineEvent::ServerFail {
            at,
            principal: decode::req_str(v, "principal")?,
        }),
        Some("server_recover") => Ok(TimelineEvent::ServerRecover {
            at,
            principal: decode::req_str(v, "principal")?,
            capacity: match v.get("capacity") {
                None | Some(Value::Null) => None,
                Some(_) => Some(decode::req_f64(v, "capacity")?),
            },
        }),
        Some("inflate") => Ok(TimelineEvent::Inflate {
            at,
            client: req_usize(v, "client")?,
            factor: decode::req_f64(v, "factor")?,
        }),
        Some("restart_redirector") => Ok(TimelineEvent::RestartRedirector {
            at,
            redirector: req_usize(v, "redirector")?,
        }),
        _ => Err(JsonError::msg(
            "timeline kind must be flash_crowd, diurnal, renegotiate, server_fail, \
             server_recover, inflate, or restart_redirector",
        )),
    }
}

fn encode_net(net: &NetSpec) -> Value {
    Value::Obj(vec![
        (
            "links".into(),
            Value::Arr(
                net.links
                    .iter()
                    .map(|l| {
                        Value::Obj(vec![
                            ("rate_bytes_per_sec".into(), l.rate_bytes_per_sec.into()),
                            (
                                "discipline".into(),
                                match l.discipline {
                                    LinkDiscipline::Fifo => "fifo".into(),
                                    LinkDiscipline::FairShare => "fair_share".into(),
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("unit_bytes".into(), net.unit_bytes.into()),
        ("hop_latency".into(), net.hop_latency.into()),
    ])
}

fn encode_event(ev: &TimelineEvent) -> Value {
    let mut fields: Vec<(String, Value)> =
        vec![("kind".into(), ev.kind().into()), ("at".into(), ev.at().into())];
    match ev {
        TimelineEvent::FlashCrowd { duration, client, extra_rate, .. } => {
            fields.push(("duration".into(), (*duration).into()));
            fields.push(("client".into(), (*client).into()));
            fields.push(("extra_rate".into(), (*extra_rate).into()));
        }
        TimelineEvent::Diurnal { period, client, peak_rate, trough_rate, .. } => {
            fields.push(("period".into(), (*period).into()));
            fields.push(("client".into(), (*client).into()));
            fields.push(("peak_rate".into(), (*peak_rate).into()));
            fields.push(("trough_rate".into(), (*trough_rate).into()));
        }
        TimelineEvent::Renegotiate { issuer, holder, lb, ub, .. } => {
            fields.push(("issuer".into(), issuer.as_str().into()));
            fields.push(("holder".into(), holder.as_str().into()));
            fields.push(("lb".into(), (*lb).into()));
            fields.push(("ub".into(), (*ub).into()));
        }
        TimelineEvent::ServerFail { principal, .. } => {
            fields.push(("principal".into(), principal.as_str().into()));
        }
        TimelineEvent::ServerRecover { principal, capacity, .. } => {
            fields.push(("principal".into(), principal.as_str().into()));
            fields.push(("capacity".into(), capacity.map_or(Value::Null, Value::from)));
        }
        TimelineEvent::Inflate { client, factor, .. } => {
            fields.push(("client".into(), (*client).into()));
            fields.push(("factor".into(), (*factor).into()));
        }
        TimelineEvent::RestartRedirector { redirector, .. } => {
            fields.push(("redirector".into(), (*redirector).into()));
        }
    }
    Value::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_sim::Simulation;

    const SCENARIO: &str = r#"{
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
            {"principal": "A", "phases": [[30.0, 60.0]]},
            {"principal": "B", "phases": [[30.0, 60.0]]}
        ],
        "duration": 30.0,
        "net": {
            "links": [{"rate_bytes_per_sec": 1.0e6, "discipline": "fair_share"}],
            "unit_bytes": 6144.0
        },
        "timeline": [
            {"kind": "flash_crowd", "at": 10.0, "duration": 5.0, "client": 0, "extra_rate": 90.0},
            {"kind": "renegotiate", "at": 20.0, "issuer": "S", "holder": "B", "lb": 0.4, "ub": 1.0}
        ],
        "seed": 7,
        "phases": [{"name": "crowd", "start": 10.0, "end": 15.0}]
    }"#;

    #[test]
    fn deep_nesting_under_principals_is_a_decode_error() {
        // The `covenant sim` repro: 30 000 nested arrays as the principal
        // list used to overflow the stack while decoding.
        let text = format!(
            "{{\n  \"principals\": {}{}}}",
            "[".repeat(30_000),
            "]".repeat(30_000)
        );
        let err = ScenarioSpec::from_json(&text).expect_err("nesting past the limit is an error");
        // The first `[` sits at line 2, column 17; the limit is one level
        // below the document's object.
        let col = 16 + crate::json::MAX_DEPTH;
        assert!(err.to_string().contains(&format!("line 2 column {col}")), "{err}");
    }

    #[test]
    fn parses_extras_and_builds() {
        let sc = ScenarioSpec::from_json(SCENARIO).unwrap();
        assert_eq!(sc.timeline.len(), 2);
        assert_eq!(sc.seed, 7);
        assert_eq!(
            sc.phases,
            vec![PhaseWindow { name: "crowd".into(), start: 10.0, end: 15.0 }]
        );
        let net = sc.net.as_ref().unwrap();
        assert_eq!(net.links.len(), 1);
        assert_eq!(net.links[0].discipline, LinkDiscipline::FairShare);
        let cfg = sc.build_sim().unwrap();
        assert!(cfg.net.is_some());
        assert_eq!(cfg.agreement_changes.len(), 1);
        // The flash crowd split client 0's single phase into three parts.
        assert!(matches!(cfg.clients[0].cost, RequestCost::SizeDistributed { .. }));
    }

    #[test]
    fn plain_deployment_parses_as_scenario() {
        let plain = r#"{
            "principals": [{"name": "S", "capacity": 10.0}],
            "agreements": [],
            "clients": [{"principal": "S", "phases": [[5.0, 5.0]]}],
            "duration": 5.0
        }"#;
        let sc = ScenarioSpec::from_json(plain).unwrap();
        assert!(sc.net.is_none());
        assert!(sc.timeline.is_empty());
        assert_eq!(sc.seed, 0);
        assert!(sc.phases.is_empty());
        let cfg = sc.build_sim().unwrap();
        assert!(cfg.net.is_none());
        assert!(matches!(cfg.clients[0].cost, RequestCost::Unit));
    }

    #[test]
    fn roundtrips_json() {
        let sc = ScenarioSpec::from_json(SCENARIO).unwrap();
        let again = ScenarioSpec::from_json(&sc.to_json()).unwrap();
        assert_eq!(sc, again);
    }

    #[test]
    fn scenario_run_is_seed_deterministic() {
        let sc = ScenarioSpec::from_json(SCENARIO).unwrap();
        let a = Simulation::new(sc.build_sim().unwrap()).run();
        let b = Simulation::new(sc.build_sim().unwrap()).run();
        assert!(a.outcome_eq(&b));
    }

    #[test]
    fn overlay_splits_and_extends() {
        // 10 s at 5 req/s; crowd over [4, 6) adds 20.
        let shaped = overlay(&[(10.0, 5.0)], 4.0, 6.0, |r| r + 20.0);
        assert_eq!(shaped, vec![(4.0, 5.0), (2.0, 25.0), (4.0, 5.0)]);
        // Crowd outlasting the schedule materializes the tail.
        let tail = overlay(&[(3.0, 5.0)], 2.0, 6.0, |r| r + 20.0);
        assert_eq!(tail, vec![(2.0, 5.0), (1.0, 25.0), (3.0, 20.0)]);
        // Multiplicative shaping past the end adds nothing (f(0) = 0).
        let mult = overlay(&[(3.0, 5.0)], 2.0, f64::INFINITY, |r| r * 3.0);
        assert_eq!(mult, vec![(2.0, 5.0), (1.0, 15.0)]);
    }

    #[test]
    fn diurnal_truncates_and_alternates() {
        let sc_text = SCENARIO.replace(
            r#"{"kind": "flash_crowd", "at": 10.0, "duration": 5.0, "client": 0, "extra_rate": 90.0}"#,
            r#"{"kind": "diurnal", "at": 10.0, "period": 8.0, "client": 0, "peak_rate": 80.0, "trough_rate": 10.0}"#,
        );
        let sc = ScenarioSpec::from_json(&sc_text).unwrap();
        let cfg = sc.build_sim().unwrap();
        // [0,10) base, then peak/trough half-periods of 4 s to 30 s.
        let machine = &cfg.clients[0].machine;
        let _ = machine; // phases live inside the load; run smoke below
        let report = Simulation::new(cfg).run();
        assert!(report.events_processed > 0);
    }

    /// A diurnal period shorter than the scheduling window is a build
    /// error, not a phase list of one entry per half-period.
    #[test]
    fn diurnal_period_below_window_rejected() {
        let diurnal = |period: &str| {
            SCENARIO.replace(
                r#"{"kind": "flash_crowd", "at": 10.0, "duration": 5.0, "client": 0, "extra_rate": 90.0}"#,
                &format!(
                    r#"{{"kind": "diurnal", "at": 0.0, "period": {period}, "client": 0, "peak_rate": 80.0, "trough_rate": 10.0}}"#
                ),
            )
        };
        for bad in ["0.05", "0.0", "1e-9"] {
            let sc = ScenarioSpec::from_json(&diurnal(bad)).unwrap();
            match sc.build_sim() {
                Err(SpecError::Scenario(m)) => {
                    assert!(m.starts_with("timeline[0] (diurnal) period"), "{bad}: {m}")
                }
                other => panic!("period {bad}: {other:?}"),
            }
        }
        let at_window = ScenarioSpec::from_json(&diurnal("0.1")).unwrap();
        assert!(at_window.build_sim().is_ok());
    }

    /// A credit-retry self-redirect that costs no time would re-present a
    /// deferred request at the same instant for ever; the build refuses it
    /// instead of hanging the run. Hop latency alone is enough of a gap.
    #[test]
    fn zero_retry_gap_rejected() {
        let spec = |net: &str| {
            format!(
                r#"{{
                "principals": [{{"name": "S", "capacity": 100.0}}, {{"name": "A", "capacity": 0.0}}],
                "agreements": [{{"issuer": "S", "holder": "A", "lb": 0.0, "ub": 0.5}}],
                "queue_mode": {{"kind": "credit_retry", "retry_delay": 0.0}},
                "clients": [{{"principal": "A", "phases": [[5.0, 200.0]]}}],
                "duration": 5.0{net}
            }}"#
            )
        };
        let sc = ScenarioSpec::from_json(&spec("")).unwrap();
        match sc.build_sim() {
            Err(SpecError::Scenario(m)) => assert!(m.contains("queue_mode.retry_delay"), "{m}"),
            other => panic!("{other:?}"),
        }
        let hop = r#", "net": {"links": [{"rate_bytes_per_sec": 1.0e6}], "hop_latency": 0.001}"#;
        let sc = ScenarioSpec::from_json(&spec(hop)).unwrap();
        assert!(sc.build_sim().is_ok());
    }

    const FIG7: &str = include_str!("../../../examples/scenarios/fig7.json");

    /// `fig7.json` with a 1e-12 s retry delay would re-present each
    /// deferred request 10¹¹ times per window; the build refuses it instead
    /// of running for ever, and so does the scenario's own time-scale
    /// check, which `covenant check` runs.
    #[test]
    fn fig7_with_picosecond_retry_delay_is_a_build_error() {
        let text = FIG7.replace(r#""retry_delay": 0.05"#, r#""retry_delay": 1e-12"#);
        assert_ne!(text, FIG7);
        let sc = ScenarioSpec::from_json(&text).unwrap();
        for result in [sc.build_sim().map(drop), sc.check_time_scales()] {
            match result {
                Err(SpecError::Scenario(m)) => assert!(m.contains("queue_mode.retry_delay"), "{m}"),
                other => panic!("{other:?}"),
            }
        }
        // The floor is a thousandth of the window.
        let floor = FIG7.replace(r#""retry_delay": 0.05"#, r#""retry_delay": 1e-4"#);
        let sc = ScenarioSpec::from_json(&floor).unwrap();
        assert!(sc.build_sim().is_ok() && sc.check_time_scales().is_ok());
    }

    /// `fig7.json` with a 1 ns window would run 3·10¹⁰ window ticks; the
    /// build and the time-scale check refuse it.
    #[test]
    fn fig7_with_nanosecond_window_is_a_build_error() {
        let window = |secs: &str| {
            let with = format!(r#""duration": 30.0, "window_secs": {secs},"#);
            FIG7.replace(r#""duration": 30.0,"#, &with)
        };
        assert_ne!(window("1e-9"), FIG7);
        let sc = ScenarioSpec::from_json(&window("1e-9")).unwrap();
        for result in [sc.build_sim().map(drop), sc.check_time_scales()] {
            match result {
                Err(SpecError::Scenario(m)) => assert!(m.starts_with("window_secs is"), "{m}"),
                other => panic!("{other:?}"),
            }
        }
        let sc = ScenarioSpec::from_json(&window("0.001")).unwrap();
        assert!(sc.build_sim().is_ok() && sc.check_time_scales().is_ok());
    }

    #[test]
    fn unknown_client_index_rejected() {
        let bad = SCENARIO.replace("\"client\": 0", "\"client\": 9");
        let sc = ScenarioSpec::from_json(&bad).unwrap();
        assert!(matches!(sc.build_sim(), Err(SpecError::Scenario(_))));
    }

    /// A renegotiation the graph would reject — an undeclared pair, an
    /// upper bound past 1, a floor that over-commits its issuer — is a
    /// build error naming its timeline entry, not a panic mid-run. The
    /// replay runs in time order, as the run does.
    #[test]
    fn invalid_renegotiation_rejected() {
        let renegotiate = r#"{"kind": "renegotiate", "at": 20.0, "issuer": "S", "holder": "B", "lb": 0.4, "ub": 1.0}"#;
        for bad in [
            r#"{"kind": "renegotiate", "at": 20.0, "issuer": "A", "holder": "B", "lb": 0.4, "ub": 1.0}"#,
            r#"{"kind": "renegotiate", "at": 20.0, "issuer": "S", "holder": "B", "lb": 0.4, "ub": 1.5}"#,
            r#"{"kind": "renegotiate", "at": 20.0, "issuer": "S", "holder": "A", "lb": 0.5, "ub": 1.0}"#,
        ] {
            let sc = ScenarioSpec::from_json(&SCENARIO.replace(renegotiate, bad)).unwrap();
            match sc.build_sim() {
                Err(SpecError::Scenario(m)) => assert!(m.starts_with("timeline[1]"), "{bad}: {m}"),
                other => panic!("{bad}: {other:?}"),
            }
        }
        // A's raise over-commits S only if it lands before B's cut.
        let in_time = r#"{"kind": "renegotiate", "at": 25.0, "issuer": "S", "holder": "A", "lb": 0.7, "ub": 1.0},
                         {"kind": "renegotiate", "at": 20.0, "issuer": "S", "holder": "B", "lb": 0.2, "ub": 1.0}"#;
        let sc = ScenarioSpec::from_json(&SCENARIO.replace(renegotiate, in_time)).unwrap();
        assert!(sc.build_sim().is_ok());
    }

    #[test]
    fn link_count_mismatch_rejected() {
        let bad = SCENARIO.replace(
            r#""links": [{"rate_bytes_per_sec": 1.0e6, "discipline": "fair_share"}]"#,
            r#""links": [{"rate_bytes_per_sec": 1.0e6}, {"rate_bytes_per_sec": 1.0e6}]"#,
        );
        let sc = ScenarioSpec::from_json(&bad).unwrap();
        assert!(matches!(sc.build_sim(), Err(SpecError::Scenario(_))));
    }

    #[test]
    fn non_finite_link_rate_rejected_at_decode() {
        for bad_rate in ["1e999", "-5.0"] {
            let bad = SCENARIO.replace("1.0e6", bad_rate);
            assert!(
                matches!(ScenarioSpec::from_json(&bad), Err(SpecError::Json(_))),
                "rate {bad_rate} must fail decode"
            );
        }
        // Zero passes decode (finite, non-negative) but fails materialization.
        let zero = SCENARIO.replace("1.0e6", "0.0");
        let sc = ScenarioSpec::from_json(&zero).unwrap();
        assert!(matches!(sc.build_sim(), Err(SpecError::Scenario(_))));
    }

    /// A phase must be a finite window inside the run: NaN (not JSON at
    /// all), an infinite or negative bound, `start >= end`, or an end past
    /// `duration` each fail the decode.
    #[test]
    fn bad_phase_windows_rejected_at_decode() {
        let phase = r#"{"name": "crowd", "start": 10.0, "end": 15.0}"#;
        for bad in [
            r#"{"name": "crowd", "start": NaN, "end": 15.0}"#,
            r#"{"name": "crowd", "start": 10.0, "end": 1e999}"#,
            r#"{"name": "crowd", "start": -1.0, "end": 15.0}"#,
            r#"{"name": "crowd", "start": 15.0, "end": 15.0}"#,
            r#"{"name": "crowd", "start": 20.0, "end": 15.0}"#,
            r#"{"name": "crowd", "start": 10.0, "end": 30.5}"#,
            r#"{"name": "crowd", "start": 10.0}"#,
        ] {
            let text = SCENARIO.replace(phase, bad);
            assert!(
                matches!(ScenarioSpec::from_json(&text), Err(SpecError::Json(_))),
                "{bad} must fail decode"
            );
        }
        // A window ending exactly at `duration` is fine.
        let last = SCENARIO.replace(phase, r#"{"name": "all", "start": 0.0, "end": 30.0}"#);
        assert_eq!(ScenarioSpec::from_json(&last).unwrap().phases[0].end, 30.0);
    }

    /// A misspelled key fails the decode at every level of a scenario,
    /// naming the key and where it sits, instead of silently dropping
    /// whatever it was meant to configure.
    #[test]
    fn unknown_scenario_keys_rejected_with_their_path() {
        for (good, bad, want) in [
            (r#""seed": 7"#, r#""sed": 7"#, "unknown key 'sed'"),
            (r#""unit_bytes": 6144.0"#, r#""unit_byte": 6144.0"#, "unknown key 'unit_byte' in net"),
            (
                r#""discipline": "fair_share""#,
                r#""disciplin": "fair_share""#,
                "unknown key 'disciplin' in net.links[0]",
            ),
            (
                r#""extra_rate": 90.0"#,
                r#""extra_rat": 90.0, "extra_rate": 90.0"#,
                "unknown key 'extra_rat' in timeline[0]",
            ),
            (
                r#""lb": 0.4, "ub": 1.0}"#,
                r#""lb": 0.4, "ub": 1.0, "client": 0}"#,
                "unknown key 'client' in timeline[1]",
            ),
            (r#""end": 15.0"#, r#""end": 15.0, "stop": 16.0"#, "unknown key 'stop' in phases[0]"),
        ] {
            let text = SCENARIO.replace(good, bad);
            assert_ne!(text, SCENARIO, "{good} not found");
            match ScenarioSpec::from_json(&text) {
                Err(e) => assert!(e.to_string().contains(want), "{bad}: {e}"),
                Ok(_) => panic!("{bad} must fail decode"),
            }
        }
    }

    #[test]
    fn out_of_order_timeline_decodes() {
        // Decode is permissive; ordering is the verifier's job (V9).
        let swapped = SCENARIO
            .replace("\"at\": 10.0", "\"at\": 25.0");
        let sc = ScenarioSpec::from_json(&swapped).unwrap();
        assert_eq!(sc.timeline[0].at(), 25.0);
        assert_eq!(sc.timeline[1].at(), 20.0);
    }

    #[test]
    fn fail_recover_schedules_capacity_changes() {
        let sc_text = SCENARIO.replace(
            r#"{"kind": "renegotiate", "at": 20.0, "issuer": "S", "holder": "B", "lb": 0.4, "ub": 1.0}"#,
            r#"{"kind": "server_fail", "at": 15.0, "principal": "S"},
               {"kind": "server_recover", "at": 20.0, "principal": "S"}"#,
        );
        let sc = ScenarioSpec::from_json(&sc_text).unwrap();
        let cfg = sc.build_sim().unwrap();
        assert_eq!(cfg.capacity_changes.len(), 2);
        assert_eq!(cfg.capacity_changes[0].capacity, 0.0);
        assert_eq!(cfg.capacity_changes[1].capacity, 100.0);
    }
}
