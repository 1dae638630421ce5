//! `sim_replay`: three scenarios scaled tenfold from the scenario library
//! (`workloads/*.json`) through `ScenarioSpec::from_json` → `build_sim` →
//! `Simulation::run`: a hotspot over three redirectors with shared links
//! and a redirector restart, a flash crowd over a FIFO bottleneck, and an
//! inflating client against credit-retry enforcement.
//!
//! The simulator is what reproduces the paper's figures, and its share
//! numbers are the noise-free twin of `cluster_contended`'s. The seed
//! perturbs every client's rates by ±3 % and reseeds the reply-size
//! sampler; the program only sees the resulting JSON text. The operation
//! reported as `op_*` is one round: each of the three scenarios replayed
//! once.

use super::{floors, own_peak_rss_mb, repeat_setup, Delivery, Outcome, RunCfg, Shares};
use crate::gen::Rng;
use crate::procfs;
use crate::stats::Histogram;
use crate::trace::Tracer;
use covenant_core::ScenarioSpec;
use covenant_sim::{SimConfig, SimReport, Simulation};
use covenant_verify::{RuleMeta, Severity};
use std::time::Instant;

const TEMPLATES: [&str; 3] = [
    include_str!("../../workloads/hotspot_multiredirector.json"),
    include_str!("../../workloads/flash_crowd.json"),
    include_str!("../../workloads/adversarial_inflation.json"),
];
/// Most rounds a traced run records.
const MAX_TRACED_ROUNDS: usize = 500;

/// The scenario texts this seed generates from the templates.
fn generate(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    TEMPLATES
        .iter()
        .map(|template| {
            let mut spec = ScenarioSpec::from_json(template).expect("a template parses");
            spec.seed = rng.next_u64() >> 33; // the decoder takes seeds up to u32::MAX
            for client in &mut spec.deployment.clients {
                let scale = 0.97 + 0.06 * rng.f64();
                client.phases.iter_mut().for_each(|p| p.1 *= scale);
            }
            spec.to_json()
        })
        .collect()
}

struct Prepared {
    spec: ScenarioSpec,
    sim: SimConfig,
}

struct PrepareTimes {
    parse_us: f64,
    verify_ms: f64,
    build_ms: f64,
}

/// Parse, verify, and lower one scenario text, each under a span of `tr`
/// with the given parent and trace id.
fn prepare(text: &str, tr: &mut Tracer, parent: u32, id: u32) -> (Prepared, PrepareTimes) {
    let first = tr.spans().len();
    let spec = tr.timed("core.scenario_parse", parent, id, 1, false, || {
        ScenarioSpec::from_json(text).expect("a generated scenario parses")
    });
    let errors = tr.timed("verify.check", parent, id, 1, false, || {
        covenant_verify::verify_scenario(&spec)
            .iter()
            .filter(|f| f.rule.severity() == Severity::Error)
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
    });
    assert!(
        errors.is_empty(),
        "a generated scenario fails verification: {errors:?}"
    );
    let sim = tr.timed("core.build_sim", parent, id, 1, false, || {
        spec.build_sim()
            .expect("a verified scenario lowers to a simulation")
    });
    let spans = &tr.spans()[first..];
    let times = PrepareTimes {
        parse_us: spans[0].dur() as f64 / 1e3,
        verify_ms: spans[1].dur() as f64 / 1e6,
        build_ms: spans[2].dur() as f64 / 1e6,
    };
    (Prepared { spec, sim }, times)
}

/// Conservation per `SimReport`: nothing completes that was not admitted,
/// nothing is admitted or lost that was not offered, and what was admitted
/// has completed but for what is still in service at the end.
fn check_conservation(name: usize, capacity: f64, r: &SimReport, out: &mut Outcome) {
    let offered: u64 = r.offered.iter().sum();
    let admitted: u64 = r.admitted.iter().sum();
    let completed: u64 = (0..r.offered.len()).map(|i| r.completed(i)).sum();
    let gone = completed + r.dropped_server + r.abandoned;
    out.check(
        completed <= admitted && admitted <= offered && gone <= offered,
        || {
            format!(
                "scenario {name}: offered {offered}, admitted {admitted}, completed {completed}, \
             dropped {}, abandoned {}",
                r.dropped_server, r.abandoned
            )
        },
    );
    // Admitted but unfinished at the end: at most a second of capacity in
    // service or on a link. (Deferred requests retry for ever, so what was
    // never admitted is still in flight and cannot be bounded.)
    out.check(
        (admitted - completed.min(admitted)) as f64 <= capacity,
        || {
            format!(
                "scenario {name}: {} admitted requests never completed",
                admitted - completed
            )
        },
    );
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let texts = generate(cfg.seed);
    let mut setup_spans = Tracer::new();
    let (prepared, setup_s) = repeat_setup(cfg.quick, || {
        texts
            .iter()
            .map(|t| prepare(t, &mut setup_spans, 0, 0))
            .collect::<Vec<_>>()
    });

    // Untraced rounds.
    let mut rounds = Histogram::new();
    let mut reports: Vec<SimReport> = Vec::new();
    let (mut events, mut verdicts, mut run_s) = (0u64, 0u64, 0.0f64);
    let started = Instant::now();
    let cpu0 = procfs::cpu_ns(procfs::own_pid(), "");
    while started.elapsed().as_secs_f64() < cfg.plain_seconds() {
        let configs: Vec<SimConfig> = prepared.iter().map(|(p, _)| p.sim.clone()).collect();
        let t = Instant::now();
        let round: Vec<SimReport> = configs
            .into_iter()
            .map(|c| Simulation::new(c).run())
            .collect();
        rounds.record(t.elapsed().as_nanos() as u64);
        run_s += t.elapsed().as_secs_f64();
        for r in &round {
            events += r.events_processed;
            verdicts += r.admitted.iter().sum::<u64>() + r.deferred.iter().sum::<u64>();
        }
        if let Some(first) = reports.first() {
            out.check(first.outcome_eq(&round[0]), || {
                "a replay of the same scenario differed".into()
            });
        }
        reports = round;
    }
    let cpu_ns = procfs::cpu_ns(procfs::own_pid(), "").saturating_sub(cpu0);

    // Shares and conservation on the (identical) last round.
    let (mut ratio_min, mut delivered_sum, mut possible_sum) = (f64::INFINITY, 0.0, 0.0);
    for (i, ((p, _), r)) in prepared.iter().zip(&reports).enumerate() {
        let levels = p.sim.graph.access_levels();
        let capacity: f64 = levels.capacities().iter().sum();
        check_conservation(i, capacity, r, &mut out);
        let delivery = Delivery {
            offered: &r.offered,
            delivered: &r.admitted,
            floors: &floors(&levels),
            capacity,
            secs: p.spec.deployment.duration,
            min_entitled: 1.0,
        };
        // A restart or a flash crowd costs a principal a few windows of its
        // floor while estimates and views recover.
        delivery.check(&mut out, capacity * 0.2, 0.1);
        let s = delivery.shares();
        ratio_min = ratio_min.min(s.ratio_min);
        let offered: u64 = r.offered.iter().sum();
        delivered_sum += r.admitted.iter().sum::<u64>() as f64;
        possible_sum += (offered as f64).min(capacity * delivery.secs);
    }
    out.attempted = rounds.count()
        * reports
            .iter()
            .map(|r| r.offered.iter().sum::<u64>())
            .sum::<u64>();

    if !cfg.trace {
        let shares = Shares {
            ratio_min,
            capacity_use: delivered_sum / possible_sum.max(1.0),
        };
        let cpu_per_verdict = cpu_ns as f64 / verdicts.max(1) as f64;
        let p50 = rounds.quantile_us(0.5);
        out.end_to_end(setup_s, own_peak_rss_mb(), p50, cpu_per_verdict, &shares);
        return out;
    }

    let e = &mut out.metrics;
    e.insert("op_p90_us", rounds.quantile_us(0.9));
    e.insert("sim_events_per_s", events as f64 / run_s.max(1e-9));
    e.insert(
        "sim.events_processed",
        reports.iter().map(|r| r.events_processed).sum::<u64>() as f64,
    );
    e.insert(
        "sim.peak_event_queue",
        reports
            .iter()
            .map(|r| r.peak_event_queue)
            .max()
            .unwrap_or(0) as f64,
    );
    e.insert("sim.run_s", rounds.quantile(0.5) / 1e9);
    let transfers: u64 = reports
        .iter()
        .flat_map(|r| &r.transfer)
        .map(|t| t.count)
        .sum();
    e.insert("sim.transfers", transfers as f64);
    let sum = |f: fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    e.insert("enforce.admitted", sum(|r| r.admitted.iter().sum()));
    e.insert("enforce.deferred", sum(|r| r.deferred.iter().sum()));
    e.insert("sched.cache_hits", sum(|r| r.plan_cache_hits));
    e.insert("sched.cache_misses", sum(|r| r.plan_cache_misses));
    let lookups = sum(|r| r.plan_cache_hits + r.plan_cache_misses).max(1.0);
    e.insert(
        "sched.cache_hit_ratio",
        sum(|r| r.plan_cache_hits) / lookups,
    );
    e.insert("lp.pivots_per_window", sum(|r| r.lp_pivots) / lookups);
    e.insert("lp.warm_hits", sum(|r| r.lp_warm_hits));
    e.insert("lp.cold_fallbacks", sum(|r| r.lp_cold_fallbacks));
    e.insert("failed_share", 0.0);

    // Traced rounds: set-up and run of every scenario under a span each.
    let mut tr = Tracer::new();
    let mut traced = Histogram::new();
    let started = Instant::now();
    let mut round = 0u32;
    let mut times = Vec::new();
    while (round as usize) < MAX_TRACED_ROUNDS
        && started.elapsed().as_secs_f64() < cfg.seconds / 2.0
    {
        let mut round_ns = 0;
        for text in &texts {
            let root = tr.open("scenario", 0, round);
            let (p, t) = prepare(text, &mut tr, root, round);
            let run = tr.open("sim.run", root, round);
            let report = Simulation::new(p.sim).run();
            tr.close(run, report.events_processed.min(u32::MAX as u64) as u32);
            tr.close(root, 1);
            // Freeing the report and the spec is the harness's business.
            round_ns += tr.spans()[run as usize - 1].dur();
            times.push(t);
        }
        traced.record(round_ns);
        round += 1;
    }
    let median_of = |f: fn(&PrepareTimes) -> f64| {
        crate::stats::median(&mut times.iter().map(f).collect::<Vec<_>>())
    };
    let e = &mut out.metrics;
    e.insert("core.scenario_parse_us", median_of(|t| t.parse_us));
    e.insert("verify.check_ms", median_of(|t| t.verify_ms));
    e.insert("core.build_sim_ms", median_of(|t| t.build_ms));
    e.insert(
        "trace.overhead_share",
        traced.quantile(0.5) / rounds.quantile(0.5).max(1.0) - 1.0,
    );
    e.insert("trace.windows", round as f64);
    out.finish_trace("sim_replay", "scenario", &tr);
    out
}
