//! Scenario result summarization and export.

use crate::scenario::ScenarioSpec;
use covenant_agreements::PrincipalId;
use covenant_enforce::{CountersReport, EngineTotals, NetTotals, SolverTotals};
use covenant_sim::{SimConfig, SimReport, Simulation};
use serde::Serialize;

/// Mean processing rates over one phase.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseRates {
    /// Phase label.
    pub name: String,
    /// Phase start, seconds.
    pub start: f64,
    /// Phase end, seconds.
    pub end: f64,
    /// (principal display name, mean req/s) over the settled phase.
    pub rates: Vec<(String, f64)>,
}

impl PhaseRates {
    /// The rate of the named principal (panics if untracked).
    pub fn rate(&self, name: &str) -> f64 {
        self.rates
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| *r)
            .unwrap_or_else(|| panic!("principal {name} not tracked"))
    }
}

/// The single JSON encoder behind every stack's counters payload. Section
/// key order is fixed so each legacy emitter's exact key sequence is
/// reproduced: engine prefix (`events_processed`, `peak_event_queue`,
/// `events_per_sec`), admission (`admitted`, `deferred`, `parked`), the
/// solver profile, engine suffix (`tree_messages`,
/// `pairwise_messages_equivalent`, `dropped_server`), the net section
/// (`net_*`), admission's `shed`, and finally the sharding section
/// (`shards`, `reactor_wakes`, `batched_verdicts`, `per_shard`). Sections
/// a stack did not populate are simply absent — no nulls, no placeholder
/// keys — so dashboards keyed on one stack's shape keep working.
pub fn counters_report_json(r: &CountersReport) -> crate::json::Value {
    use crate::json::Value;
    let mut fields: Vec<(String, Value)> = Vec::new();
    if let Some(e) = &r.engine {
        fields.push(("events_processed".into(), (e.events_processed as f64).into()));
        fields.push(("peak_event_queue".into(), e.peak_event_queue.into()));
        fields.push(("events_per_sec".into(), e.events_per_sec.into()));
    }
    if let Some(a) = &r.admission {
        fields.push(("admitted".into(), (a.admitted as f64).into()));
        fields.push(("deferred".into(), (a.deferred as f64).into()));
        fields.push(("parked".into(), (a.parked as f64).into()));
    }
    let s = &r.solver;
    fields.push(("lp_solves".into(), (s.lp_solves as f64).into()));
    fields.push(("lp_pivots".into(), (s.lp_pivots as f64).into()));
    fields.push(("lp_warm_hits".into(), (s.lp_warm_hits as f64).into()));
    fields.push(("lp_cold_fallbacks".into(), (s.lp_cold_fallbacks as f64).into()));
    if let Some(e) = &r.engine {
        fields.push(("tree_messages".into(), (e.tree_messages as f64).into()));
        fields.push((
            "pairwise_messages_equivalent".into(),
            (e.pairwise_messages_equivalent as f64).into(),
        ));
        fields.push(("dropped_server".into(), (e.dropped_server as f64).into()));
    }
    if let Some(n) = &r.net {
        fields.push(("net_transfers".into(), (n.transfers as f64).into()));
        fields.push(("net_bytes".into(), n.bytes.into()));
        fields.push(("net_peak_concurrent".into(), n.peak_concurrent.into()));
        fields.push(("net_mean_transfer_secs".into(), n.mean_transfer_secs.into()));
    }
    if let Some(a) = &r.admission {
        fields.push(("shed".into(), (a.shed as f64).into()));
    }
    if let Some(sh) = &r.sharding {
        fields.push(("shards".into(), (sh.per_shard.len() as f64).into()));
        fields.push(("reactor_wakes".into(), (sh.reactor_wakes as f64).into()));
        fields.push(("batched_verdicts".into(), (sh.batched_verdicts as f64).into()));
        fields.push((
            "per_shard".into(),
            Value::Arr(
                sh.per_shard
                    .iter()
                    .map(|s| {
                        Value::Obj(vec![
                            ("admitted".into(), (s.counters.admitted as f64).into()),
                            ("deferred".into(), (s.counters.deferred as f64).into()),
                            ("parked".into(), (s.counters.parked as f64).into()),
                            ("lp_solves".into(), (s.counters.lp_solves as f64).into()),
                            ("reactor_wakes".into(), (s.reactor_wakes as f64).into()),
                            ("batched_verdicts".into(), (s.batched_verdicts as f64).into()),
                            ("shed".into(), (s.shed as f64).into()),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Value::Obj(fields)
}

/// The simulator's [`CountersReport`]: solver and engine sections from the
/// report's counters, plus a net section when the run carried replies over
/// shared links.
pub fn sim_counters(report: &SimReport) -> CountersReport {
    let net = if report.link_bytes.is_empty() {
        None
    } else {
        let transfers: u64 = report.transfer.iter().map(|t| t.count).sum();
        let total: f64 = report.transfer.iter().map(|t| t.total).sum();
        Some(NetTotals {
            transfers,
            bytes: report.link_bytes.iter().sum(),
            peak_concurrent: report.link_active_peak.iter().copied().max().unwrap_or(0),
            mean_transfer_secs: if transfers > 0 { total / transfers as f64 } else { 0.0 },
        })
    };
    CountersReport {
        solver: SolverTotals {
            lp_solves: report.lp_solves,
            lp_pivots: report.lp_pivots,
            lp_warm_hits: report.lp_warm_hits,
            lp_cold_fallbacks: report.lp_cold_fallbacks,
        },
        admission: None,
        engine: Some(EngineTotals {
            events_processed: report.events_processed,
            peak_event_queue: report.peak_event_queue,
            events_per_sec: report.events_per_sec(),
            tree_messages: report.tree_messages,
            pairwise_messages_equivalent: report.pairwise_messages_equivalent,
            dropped_server: report.dropped_server,
        }),
        net,
        sharding: None,
    }
}

/// The `covenant sim --json` document: the run duration, each principal's
/// outcome (offered requests, settled service rate over the final 80% of
/// the run, deferrals, mean response time), and the full
/// [`counters_report_json`] payload. The wall-clock `events_per_sec`
/// figure is zeroed — every other field derives from simulation time, so
/// replaying the same spec and seed yields byte-identical text (the
/// scenario determinism gate relies on this).
pub fn run_report_json(names: &[String], duration: f64, report: &SimReport) -> crate::json::Value {
    use crate::json::Value;
    let principals = Value::Arr(
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let id = PrincipalId(i);
                Value::Obj(vec![
                    ("name".into(), name.as_str().into()),
                    ("offered".into(), (report.offered[i] as f64).into()),
                    (
                        "served_per_sec".into(),
                        report.rates.mean_rate_secs(id, duration * 0.2, duration).into(),
                    ),
                    ("deferred".into(), (report.deferred[i] as f64).into()),
                    (
                        "mean_response_ms".into(),
                        (report.response[i].mean().unwrap_or(0.0) * 1000.0).into(),
                    ),
                ])
            })
            .collect(),
    );
    let mut counters = sim_counters(report);
    if let Some(e) = counters.engine.as_mut() {
        e.events_per_sec = 0.0;
    }
    Value::Obj(vec![
        ("duration_s".into(), duration.into()),
        ("principals".into(), principals),
        ("counters".into(), counters_report_json(&counters)),
    ])
}

/// A scenario run summarized per declared phase.
pub struct ScenarioOutcome {
    /// Per-phase summaries, one per [`ScenarioSpec::phases`] entry.
    pub phases: Vec<PhaseRates>,
    /// The raw simulator report (full time series, counters).
    pub report: SimReport,
    /// Tracked principals: every principal with at least one client, in
    /// id order, with its display name.
    pub tracked: Vec<(String, PrincipalId)>,
}

impl ScenarioOutcome {
    /// Runs `cfg` — `spec` materialized by [`ScenarioSpec::build_sim`],
    /// possibly adjusted — and summarizes each of the spec's phases: the
    /// mean rate of every tracked principal over the phase minus its first
    /// fifth (at least one rate bucket, at most 10 s), since the paper's
    /// plotted steady levels exclude the adaptation transient.
    pub fn run(spec: &ScenarioSpec, cfg: SimConfig) -> Self {
        let bucket = cfg.bucket_secs;
        let report = Simulation::new(cfg).run();
        let dep = &spec.deployment;
        let tracked: Vec<(String, PrincipalId)> = dep
            .principals
            .iter()
            .enumerate()
            .filter(|(_, p)| dep.clients.iter().any(|c| c.principal == p.name))
            .map(|(i, p)| (p.name.clone(), PrincipalId(i)))
            .collect();
        let phases = spec
            .phases
            .iter()
            .map(|ph| {
                let settle = ((ph.end - ph.start) * 0.2).clamp(bucket, 10.0);
                let rates = tracked
                    .iter()
                    .map(|(name, p)| {
                        (name.clone(), report.rates.mean_rate_secs(*p, ph.start + settle, ph.end))
                    })
                    .collect();
                PhaseRates { name: ph.name.clone(), start: ph.start, end: ph.end, rates }
            })
            .collect();
        ScenarioOutcome { phases, report, tracked }
    }

    /// Per-phase summary as an aligned text table.
    pub fn phase_table(&self) -> String {
        let mut out = format!("{:<26}{:>12}", "phase", "window");
        for (name, _) in &self.tracked {
            out.push_str(&format!("{name:>10}"));
        }
        out.push('\n');
        for ph in &self.phases {
            out.push_str(&format!(
                "{:<26}{:>12}",
                ph.name,
                format!("{:.0}-{:.0}s", ph.start, ph.end)
            ));
            for (name, _) in &self.tracked {
                out.push_str(&format!("{:>10.1}", ph.rate(name)));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_agreements::AgreementGraph;
    use covenant_enforce::EnforcementCounters;
    use covenant_workload::{ClientMachine, PhasedLoad};

    fn outcome() -> ScenarioOutcome {
        let sc = ScenarioSpec::from_json(
            r#"{
                "principals": [{"name": "S", "capacity": 50.0}, {"name": "A"}],
                "agreements": [{"issuer": "S", "holder": "A", "lb": 0.5, "ub": 1.0}],
                "clients": [{"principal": "A", "phases": [[5.0, 30.0]]}],
                "duration": 5.0,
                "phases": [{"name": "steady", "start": 0.0, "end": 5.0}]
            }"#,
        )
        .unwrap();
        ScenarioOutcome::run(&sc, sc.build_sim().unwrap())
    }

    #[test]
    fn phase_table_is_aligned_text() {
        let o = outcome();
        let table = o.phase_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("phase"));
        assert!(lines[0].contains("A"));
        assert!(lines[1].starts_with("steady"));
    }

    #[test]
    fn phases_track_loaded_principals_after_the_settle_trim() {
        let o = outcome();
        // S has no client, so only A is tracked.
        assert_eq!(o.tracked, vec![("A".to_string(), PrincipalId(1))]);
        let want = o.report.rates.mean_rate_secs(PrincipalId(1), 1.0, 5.0);
        assert_eq!(o.phases[0].rate("A"), want);
        assert!(want > 20.0, "A {want}");
    }

    #[test]
    #[should_panic(expected = "not tracked")]
    fn rate_lookup_panics_on_unknown_name() {
        let o = outcome();
        let _ = o.phases[0].rate("nobody");
    }

    #[test]
    fn live_counters_json_roundtrips() {
        use covenant_enforce::ShardSnapshot;
        let counters = EnforcementCounters {
            admitted: 42,
            deferred: 7,
            parked: 3,
            lp_solves: 10,
            lp_pivots: 25,
            lp_warm_hits: 8,
            lp_cold_fallbacks: 2,
            ..Default::default()
        };
        let shard = ShardSnapshot { counters, shed: 5, ..Default::default() };
        let v = counters_report_json(&CountersReport::sharded(&[shard]));
        let parsed = crate::json::Value::parse(&v.to_pretty()).unwrap();
        assert_eq!(parsed["admitted"].as_f64().unwrap(), 42.0);
        assert_eq!(parsed["deferred"].as_f64().unwrap(), 7.0);
        assert_eq!(parsed["parked"].as_f64().unwrap(), 3.0);
        assert_eq!(parsed["lp_pivots"].as_f64().unwrap(), 25.0);
        assert_eq!(parsed["lp_warm_hits"].as_f64().unwrap(), 8.0);
        assert_eq!(parsed["lp_cold_fallbacks"].as_f64().unwrap(), 2.0);
        assert_eq!(parsed["shed"].as_f64().unwrap(), 5.0);
    }

    #[test]
    fn sharded_counters_sum_and_retain_per_shard_profile() {
        use covenant_enforce::ShardSnapshot;
        let shards = [
            ShardSnapshot {
                counters: EnforcementCounters {
                    admitted: 100,
                    deferred: 10,
                    lp_solves: 5,
                    ..Default::default()
                },
                reactor_wakes: 40,
                batched_verdicts: 110,
                shed: 4,
            },
            ShardSnapshot {
                counters: EnforcementCounters {
                    admitted: 60,
                    deferred: 30,
                    lp_solves: 5,
                    ..Default::default()
                },
                reactor_wakes: 20,
                batched_verdicts: 90,
                shed: 1,
            },
        ];
        let v = counters_report_json(&CountersReport::sharded(&shards));
        let parsed = crate::json::Value::parse(&v.to_pretty()).unwrap();
        // The top level is summed across shards.
        assert_eq!(parsed["admitted"].as_f64().unwrap(), 160.0);
        assert_eq!(parsed["deferred"].as_f64().unwrap(), 40.0);
        assert_eq!(parsed["lp_solves"].as_f64().unwrap(), 10.0);
        assert_eq!(parsed["shards"].as_f64().unwrap(), 2.0);
        assert_eq!(parsed["reactor_wakes"].as_f64().unwrap(), 60.0);
        assert_eq!(parsed["batched_verdicts"].as_f64().unwrap(), 200.0);
        assert_eq!(parsed["shed"].as_f64().unwrap(), 5.0);
        // Per-shard balance survives the merge.
        assert_eq!(parsed["per_shard"][0]["admitted"].as_f64().unwrap(), 100.0);
        assert_eq!(parsed["per_shard"][1]["admitted"].as_f64().unwrap(), 60.0);
        assert_eq!(parsed["per_shard"][1]["reactor_wakes"].as_f64().unwrap(), 20.0);
        assert_eq!(parsed["per_shard"][0]["shed"].as_f64().unwrap(), 4.0);
    }

    /// The object's key sequence (payload schema, order-sensitive).
    fn keys(v: &crate::json::Value) -> Vec<String> {
        match v {
            crate::json::Value::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("expected object, got {other:?}"),
        }
    }

    const SOLVER_KEYS: [&str; 4] = [
        "lp_solves",
        "lp_pivots",
        "lp_warm_hits",
        "lp_cold_fallbacks",
    ];

    #[test]
    fn counters_schemas_agree_across_stacks() {
        use covenant_enforce::ShardSnapshot;
        let o = outcome();
        let sim = keys(&counters_report_json(&sim_counters(&o.report)));
        let live =
            keys(&counters_report_json(&CountersReport::sharded(&[ShardSnapshot::default()])));
        // The solver section appears verbatim — same keys, same order — in
        // every stack's payload (single encoder, schemas cannot drift).
        for stack in [&sim, &live] {
            let at = stack
                .iter()
                .position(|k| k == SOLVER_KEYS[0])
                .expect("solver section present");
            assert_eq!(&stack[at..at + SOLVER_KEYS.len()], &SOLVER_KEYS);
        }
        // Each stack still emits its exact key set.
        let mut want_live = vec!["admitted", "deferred", "parked"];
        want_live.extend(SOLVER_KEYS);
        want_live.extend(["shed", "shards", "reactor_wakes", "batched_verdicts", "per_shard"]);
        assert_eq!(live, want_live);
        let mut want_sim = vec!["events_processed", "peak_event_queue", "events_per_sec"];
        want_sim.extend(SOLVER_KEYS);
        want_sim.extend(["tree_messages", "pairwise_messages_equivalent", "dropped_server"]);
        assert_eq!(sim, want_sim);
    }

    #[test]
    fn sim_counters_gain_net_section_under_link_model() {
        use covenant_sim::{LinkDiscipline, NetModelCfg};
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 50.0);
        let a = g.add_principal("A", 0.0);
        g.add_agreement(s, a, 0.5, 1.0).unwrap();
        let cfg = SimConfig::new(g, 5.0)
            .client(ClientMachine::uniform(0, a, PhasedLoad::constant(30.0, 5.0)), 0)
            .with_net(NetModelCfg::uniform(1, 1.0e6, LinkDiscipline::Fifo));
        let report = Simulation::new(cfg).run();
        let v = counters_report_json(&sim_counters(&report));
        let parsed = crate::json::Value::parse(&v.to_pretty()).unwrap();
        assert!(parsed["net_transfers"].as_f64().unwrap() > 0.0);
        assert!(parsed["net_bytes"].as_f64().unwrap() > 0.0);
        assert!(parsed["net_peak_concurrent"].as_usize().unwrap() >= 1);
        assert!(parsed["net_mean_transfer_secs"].as_f64().unwrap() > 0.0);
        // The net section slots in before `shed` would go, after the
        // engine suffix — the no-net schema is untouched otherwise.
        let ks = keys(&v);
        let mut want = vec!["events_processed", "peak_event_queue", "events_per_sec"];
        want.extend(SOLVER_KEYS);
        want.extend(["tree_messages", "pairwise_messages_equivalent", "dropped_server"]);
        want.extend(["net_transfers", "net_bytes", "net_peak_concurrent", "net_mean_transfer_secs"]);
        assert_eq!(ks, want);
    }

    #[test]
    fn sim_counters_roundtrip_through_json() {
        let o = outcome();
        let v = counters_report_json(&sim_counters(&o.report));
        let parsed = crate::json::Value::parse(&v.to_pretty()).unwrap();
        assert!(parsed["events_processed"].as_f64().unwrap() > 100.0);
        assert!(parsed["peak_event_queue"].as_usize().unwrap() > 0);
        assert!(parsed["events_per_sec"].as_f64().unwrap() > 0.0);
        assert_eq!(parsed["lp_solves"].as_f64().unwrap(), o.report.lp_solves as f64);
        // The steady single-redirector scenario runs the LP and reuses the
        // previous window's basis after the first solve.
        assert!(parsed["lp_solves"].as_f64().unwrap() > 0.0);
        assert!(parsed["lp_warm_hits"].as_f64().unwrap() > 0.0);
        assert_eq!(parsed["lp_cold_fallbacks"].as_f64().unwrap(), 1.0);
        // The heap must be concurrency-bounded in this tiny scenario,
        // far below its ~150 total requests.
        assert!(parsed["peak_event_queue"].as_usize().unwrap() < 64);
    }
}
