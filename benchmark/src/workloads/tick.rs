//! `tick_large` and `tick_small`: the window tick without sockets.
//!
//! Two `ShardCore`s on an in-process tree enforce a fixed two-tier
//! community in virtual time. Each window every principal's
//! arrivals are drawn around a slowly drifting mean (±3 %), split between
//! the two leaves, and fed through `try_admit_at`; then `roll_window_at`
//! is timed. The operation reported as `op_*` is one `roll_window_at`.
//!
//! At 512 principals the warm-started revised simplex is nearly all of a
//! tick; at 4 the demand never repeats, so the plan cache misses and the
//! tick is the small-n planning path plus the tick's own bookkeeping.

use super::{floors, own_peak_rss_mb, repeat_setup, replay_metrics, Delivery, Outcome, RunCfg};
use crate::gen::{bipartite_graph, Rng};
use crate::procfs;
use crate::replay::{sched_config, Extras, Replay};
use crate::trace::Tracer;
use covenant_agreements::{AccessLevels, PrincipalId};
use covenant_sched::WindowScheduler;
use std::time::Instant;

const WINDOW_SECS: f64 = 0.1;
const LEAVES: usize = 2;
/// Windows discarded before measuring: the first tick is the cold solve,
/// and the EWMA and the tree's one-window lag settle over the next few.
const WARM_WINDOWS: usize = 20;
/// Measured windows are replayed in blocks of about this long; arrivals
/// for a block are drawn before it, outside the CPU accounting.
const BLOCK_SECS: f64 = 0.25;
/// Most windows a traced run records (a window is a dozen spans per leaf).
const MAX_TRACED_WINDOWS: usize = 2000;

/// The seeded arrival model: per principal and leaf a mean number of
/// requests per window, modulated by a slow sine of ±3 %.
struct Demand {
    mean: Vec<[f64; LEAVES]>,
    phase: Vec<f64>,
    rng: Rng,
    window: u64,
}

impl Demand {
    /// Each principal offers between 0.4 and 1.6 times its mandatory
    /// level, so about half stay under their floor and half reach into the
    /// optional share. The means belong to the community (`shape`); the
    /// run's seed only places the drift and draws the arrivals.
    fn new(levels: &AccessLevels, shape: &mut Rng, seed: u64) -> Demand {
        let n = levels.len();
        let mut rng = Rng::new(seed);
        let mut mean = Vec::with_capacity(n);
        let mut phase = Vec::with_capacity(n);
        for i in 0..n {
            let per_window =
                levels.mandatory(PrincipalId(i)) * WINDOW_SECS * (0.4 + 1.2 * shape.f64());
            let split = 0.2 + 0.6 * shape.f64();
            mean.push([per_window * split, per_window * (1.0 - split)]);
            phase.push(rng.f64());
        }
        Demand {
            mean,
            phase,
            rng,
            window: 0,
        }
    }

    /// Draws one window into `out[leaf * n + principal]`.
    fn draw_into(&mut self, out: &mut [u32]) {
        let n = self.mean.len();
        let turn = self.window as f64 / 50.0;
        for (i, (mean, phase)) in self.mean.iter().zip(&self.phase).enumerate() {
            let drift = 1.0 + 0.03 * (std::f64::consts::TAU * (turn + phase)).sin();
            for (leaf, mean) in mean.iter().enumerate() {
                out[leaf * n + i] = self.rng.poisson(mean * drift);
            }
        }
        self.window += 1;
    }

    /// The demand the cold plan of set-up is solved for.
    fn mean_total(&self) -> Vec<f64> {
        self.mean.iter().map(|m| m.iter().sum()).collect()
    }
}

struct Built {
    levels: AccessLevels,
    demand: Demand,
    replay: Replay,
    levels_ms: f64,
    cold_us: f64,
    cold_theta: f64,
    cold_dense_fallbacks: u64,
}

/// The community is the workload: every seed enforces the same graph
/// under the same mean demand, so that a tick costs the same from seed to
/// seed (at four principals another graph is another LP, half or twice as
/// hard). The seed draws the arrivals.
const COMMUNITY_SEED: u64 = 0x5EED_C0DE;

/// Set-up as a deployment pays it: the graph, its access levels, one cold
/// plan for the expected demand, and the two cores on their tree.
fn build(n: usize, seed: u64, shadow: bool) -> Built {
    let mut rng = Rng::new(COMMUNITY_SEED);
    let graph = bipartite_graph(n, &mut rng);
    let t = Instant::now();
    let levels = graph.access_levels();
    let levels_ms = t.elapsed().as_secs_f64() * 1e3;
    let demand = Demand::new(&levels, &mut rng, seed);
    let mut sched = WindowScheduler::new(&levels, sched_config(WINDOW_SECS));
    let t = Instant::now();
    let plan = sched.plan_global(&demand.mean_total());
    let cold_us = t.elapsed().as_secs_f64() * 1e6;
    let replay = Replay::new(&levels, WINDOW_SECS, LEAVES, shadow);
    Built {
        levels,
        demand,
        replay,
        levels_ms,
        cold_us,
        cold_theta: plan.theta.unwrap_or(0.0),
        cold_dense_fallbacks: sched.dense_fallbacks(),
    }
}

/// Replays blocks of windows until `secs` have passed, sizing the first
/// block for windows of `per_window` seconds; returns the windows run and
/// the process's on-CPU nanoseconds inside the blocks.
fn run_blocks(b: &mut Built, secs: f64, mut per_window: f64) -> (u64, u64) {
    let n = b.levels.len();
    let started = Instant::now();
    let mut block: Vec<u32> = Vec::new();
    let (mut windows, mut cpu) = (0u64, 0u64);
    while started.elapsed().as_secs_f64() < secs {
        let left = secs - started.elapsed().as_secs_f64();
        let len = ((BLOCK_SECS.min(left) / per_window) as usize).clamp(1, 100_000);
        block.resize(len * LEAVES * n, 0);
        block
            .chunks_mut(LEAVES * n)
            .for_each(|w| b.demand.draw_into(w));
        let cpu0 = procfs::cpu_ns(procfs::own_pid(), "");
        let t = Instant::now();
        block
            .chunks(LEAVES * n)
            .for_each(|w| b.replay.window(w, None));
        per_window = (t.elapsed().as_secs_f64() / len as f64).max(1e-7);
        cpu += procfs::cpu_ns(procfs::own_pid(), "").saturating_sub(cpu0);
        windows += len as u64;
    }
    (windows, cpu)
}

/// Runs the warm-up windows; returns the seconds one of them took.
fn warm_up(b: &mut Built) -> f64 {
    let mut w = vec![0; b.levels.len() * LEAVES];
    let started = Instant::now();
    for _ in 0..WARM_WINDOWS {
        b.demand.draw_into(&mut w);
        b.replay.window(&w, None);
    }
    b.replay.reset_measurements();
    started.elapsed().as_secs_f64() / WARM_WINDOWS as f64
}

pub fn run(name: &str, n: usize, cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let (mut b, setup_s) = repeat_setup(cfg.quick, || build(n, cfg.seed, false));
    out.check(b.cold_theta > 0.0, || {
        format!("cold plan served nobody: theta {}", b.cold_theta)
    });
    out.check(b.cold_dense_fallbacks == 0 || n < 64, || {
        format!(
            "{} dense fallbacks in the cold plan at n = {n}",
            b.cold_dense_fallbacks
        )
    });
    let per_window = warm_up(&mut b);
    let (windows, cpu_ns) = run_blocks(&mut b, cfg.plain_seconds(), per_window);

    let capacity: f64 = b.levels.capacities().iter().sum();
    let (offered, admitted) = (b.replay.offered.clone(), b.replay.admitted.clone());
    // Nothing retries here, so a deferred request is a lost one. A
    // principal with a request or two per window loses many of them to the
    // gate's whole-request granularity; shares are judged on principals
    // entitled to at least ten requests a window. The gate cannot bank
    // more than two windows, so Poisson arrivals right at the floor still
    // lose a little of it.
    let delivery = Delivery {
        offered: &offered,
        delivered: &admitted,
        floors: &floors(&b.levels),
        capacity,
        secs: windows as f64 * WINDOW_SECS,
        min_entitled: 10.0 * windows as f64,
    };
    delivery.check(&mut out, capacity * WINDOW_SECS * 2.0, 0.2);
    let counters = b.replay.counters();
    let verdicts: u64 = offered.iter().sum();
    out.check(counters.admitted + counters.deferred >= verdicts, || {
        format!(
            "{} verdicts fed but the cores count {}",
            verdicts,
            counters.admitted + counters.deferred
        )
    });
    out.attempted = verdicts + windows * LEAVES as u64;

    let s = delivery.shares();
    let ticks = &b.replay.ticks;
    if !cfg.trace {
        let cpu_per_verdict = cpu_ns as f64 / verdicts.max(1) as f64;
        let p50 = ticks.quantile_us(0.5);
        out.end_to_end(setup_s, own_peak_rss_mb(), p50, cpu_per_verdict, &s);
        return out;
    }

    let m = &mut out.metrics;
    m.insert("op_p90_us", ticks.quantile_us(0.9));
    m.insert("agreements.access_levels_ms", b.levels_ms);
    m.insert("lp.cold_plan_us", b.cold_us);

    // The traced part: a fresh replay with its shadow, warmed the same way,
    // for a sixth of the time — its shadow takes about twice as long again.
    let mut t = build(n, cfg.seed, true);
    let mut w = vec![0; n * LEAVES];
    let extras = Extras {
        pools: None,
        frames: true,
    };
    let mut tr = Tracer::new();
    for _ in 0..WARM_WINDOWS {
        t.demand.draw_into(&mut w);
        t.replay.traced_window(&w, extras, &mut tr);
    }
    t.replay.reset_measurements();
    tr = Tracer::new();
    let started = Instant::now();
    for _ in 0..MAX_TRACED_WINDOWS {
        if started.elapsed().as_secs_f64() >= cfg.seconds / 6.0 {
            break;
        }
        t.demand.draw_into(&mut w);
        t.replay.traced_window(&w, extras, &mut tr);
    }
    t.replay.run_shadow(&mut tr);
    replay_metrics(&tr, &b.replay, &t.replay, &mut out.metrics);
    let seen = t.replay.seen;
    out.check(seen.min_theta > 0.0, || {
        format!("a traced window was planned with theta {}", seen.min_theta)
    });
    if n >= 64 {
        out.check(seen.dense_fallbacks == 0, || {
            format!("{} dense fallbacks at n = {n}", seen.dense_fallbacks)
        });
    }
    out.finish_trace(name, "window", &tr);
    out
}
