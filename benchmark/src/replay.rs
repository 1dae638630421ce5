//! Virtual-time replay of a window stream through the enforcement stack:
//! `ShardCore`s (one per redirector) on an in-process coordination tree, fed per-window arrivals through `try_admit_at` and rolled with
//! `roll_window_at`.
//!
//! This is the whole of the `tick_*` workloads, and it is how the socket
//! workloads get their per-layer numbers: the same arrivals they sent over
//! TCP are replayed here, where the benchmark can put spans around the
//! calls. The inside of a traced tick is measured by a *shadow*: the
//! tick's own sub-calls (EWMA fold, tree read, plan, tree publish, gate
//! roll) made again, afterwards, on separate instances with the same inputs.

use crate::stats::Histogram;
use crate::trace::Tracer;
use covenant_agreements::{AccessLevels, PrincipalId};
use covenant_coord::{Coordinator, ShardCore};
use covenant_enforce::{CreditGate, EnforcementCounters, RateEstimator};
use covenant_lp::SimplexWorkspace;
use covenant_sched::{PreparedCommunity, SchedulerConfig, WindowScheduler};
use covenant_tree::Topology;
use covenant_wire::Frame;
use std::time::Instant;

/// The enforcement core's EWMA factor (`DEMAND_EWMA_ALPHA`, private there).
const EWMA_ALPHA: f64 = 0.5;
/// Repetitions inside one timed frame encode/decode span, so that a
/// 50 ns call is not timed with a 30 ns clock.
const FRAME_REPS: u32 = 32;

pub fn sched_config(window_secs: f64) -> SchedulerConfig {
    SchedulerConfig {
        window_secs,
        ..SchedulerConfig::community_default()
    }
}

/// One tree node per redirector, as `ShardedL7` joins its shards to the
/// in-process tree. (A node that never reads — the cluster's silent root —
/// would keep every aggregate ever published to it: the in-process tree
/// only trims a node's view when that node reads.)
fn tree(leaves: usize) -> Topology {
    Topology::star(leaves, 0.0)
}

/// Finds and parses one request head per arrival, as the L7 shard does
/// before every verdict.
fn parse_heads(pools: &[Vec<Vec<u8>>], counts: &[u32]) {
    for (pool, &k) in pools.iter().zip(counts) {
        for i in 0..k as usize {
            let req = &pool[i % pool.len().max(1)];
            let end = covenant_http::header_block_end(req, 0).unwrap_or(0);
            std::hint::black_box(covenant_http::parse_request_head(&req[..end]).is_ok());
        }
    }
}

/// What the shadow of one leaf keeps between windows.
struct ShadowNode {
    estimator: RateEstimator,
    sched: WindowScheduler,
    lp: PreparedCommunity,
    lp_ws: SimplexWorkspace,
    gate: CreditGate,
    demand: Vec<f64>,
}

/// What a traced window leaves for the shadow: its tick spans and the
/// arrivals those ticks folded (`prev[leaf * n + principal]`).
struct Logged {
    window: u32,
    t: f64,
    tick_spans: Vec<u32>,
    prev: Vec<f64>,
}

struct Shadow {
    coordinator: Coordinator,
    nodes: Vec<ShadowNode>,
    log: Vec<Logged>,
    /// Index in `log` of the first window after warm-up.
    measured_from: usize,
}

/// What the shadow solver saw; the `tick_large` output checks read it.
#[derive(Default, Clone, Copy)]
pub struct SolverSeen {
    pub solves: u64,
    pub min_theta: f64,
    pub dense_fallbacks: u64,
    pub refactorizations: u64,
}

pub struct Replay {
    cores: Vec<ShardCore>,
    window_secs: f64,
    n: usize,
    /// Index of the next window.
    window: u64,
    /// Last window's arrivals per leaf, as the tick's EWMA input.
    prev: Vec<Vec<f64>>,
    shadow: Option<Shadow>,
    /// One `roll_window_at` call, nanoseconds.
    pub ticks: Histogram,
    /// One whole window (ticks and feeding), nanoseconds.
    pub windows: Histogram,
    pub offered: Vec<u64>,
    pub admitted: Vec<u64>,
    pub seen: SolverSeen,
}

/// Optional extras of a traced window.
#[derive(Default, Clone, Copy)]
pub struct Extras<'a> {
    /// Request heads per principal: parse one per arrival, as the L7
    /// shard does before every verdict.
    pub pools: Option<&'a [Vec<Vec<u8>>]>,
    /// Encode and decode the tree frames a leaf exchanges per window.
    pub frames: bool,
}

impl Replay {
    pub fn new(levels: &AccessLevels, window_secs: f64, leaves: usize, shadow: bool) -> Replay {
        let n = levels.len();
        let coordinator = Coordinator::new(tree(leaves), 0.0);
        let cores = (0..leaves)
            .map(|node| {
                ShardCore::new(node, levels, sched_config(window_secs), coordinator.clone())
            })
            .collect();
        let shadow = shadow.then(|| Shadow {
            coordinator: Coordinator::new(tree(leaves), 0.0),
            nodes: (0..leaves)
                .map(|_| ShadowNode {
                    estimator: RateEstimator::new(n, EWMA_ALPHA),
                    sched: WindowScheduler::new(levels, sched_config(window_secs)),
                    lp: PreparedCommunity::new(&levels.scaled(window_secs), None),
                    lp_ws: SimplexWorkspace::new(),
                    gate: CreditGate::for_principals(n),
                    demand: Vec::new(),
                })
                .collect(),
            log: Vec::new(),
            measured_from: 0,
        });
        Replay {
            cores,
            window_secs,
            n,
            window: 0,
            prev: vec![vec![0.0; n]; leaves],
            shadow,
            ticks: Histogram::new(),
            windows: Histogram::new(),
            offered: vec![0; n],
            admitted: vec![0; n],
            seen: SolverSeen {
                min_theta: f64::INFINITY,
                ..SolverSeen::default()
            },
        }
    }

    /// Forgets the timings and tallies so far (end of warm-up); the caller
    /// starts a fresh `Tracer` with it.
    pub fn reset_measurements(&mut self) {
        if let Some(shadow) = self.shadow.as_mut() {
            shadow.measured_from = shadow.log.len();
        }
        self.ticks = Histogram::new();
        self.windows = Histogram::new();
        self.offered.iter_mut().for_each(|x| *x = 0);
        self.admitted.iter_mut().for_each(|x| *x = 0);
    }

    /// Counters summed over the leaves.
    pub fn counters(&self) -> EnforcementCounters {
        let mut sum = EnforcementCounters::default();
        for c in self.cores.iter().map(ShardCore::counters) {
            sum.admitted += c.admitted;
            sum.deferred += c.deferred;
            sum.plan_cache_hits += c.plan_cache_hits;
            sum.plan_cache_misses += c.plan_cache_misses;
            sum.lp_solves += c.lp_solves;
            sum.lp_pivots += c.lp_pivots;
            sum.lp_warm_hits += c.lp_warm_hits;
            sum.lp_cold_fallbacks += c.lp_cold_fallbacks;
        }
        sum
    }

    /// One window with tracing off: every leaf rolls at the boundary, then
    /// takes the window's arrivals (`arrivals[leaf * n + principal]`
    /// requests), parsing a request head per arrival when `pools` gives them.
    pub fn window(&mut self, arrivals: &[u32], pools: Option<&[Vec<Vec<u8>>]>) {
        let t = self.window as f64 * self.window_secs;
        let mid = t + self.window_secs / 2.0;
        let started = Instant::now();
        for core in &mut self.cores {
            let s = Instant::now();
            core.roll_window_at(None, t);
            self.ticks.record(s.elapsed().as_nanos() as u64);
        }
        for (core, counts) in self.cores.iter_mut().zip(arrivals.chunks(self.n)) {
            if let Some(pools) = pools {
                parse_heads(pools, counts);
            }
            for (p, &k) in counts.iter().enumerate() {
                self.offered[p] += k as u64;
                for _ in 0..k {
                    self.admitted[p] +=
                        core.try_admit_at(PrincipalId(p), None, mid).is_some() as u64;
                }
            }
        }
        self.windows.record(started.elapsed().as_nanos() as u64);
        self.window += 1;
    }

    /// One window with spans around every call; [`Replay::run_shadow`]
    /// explains its ticks afterwards.
    pub fn traced_window(&mut self, arrivals: &[u32], extras: Extras<'_>, tr: &mut Tracer) {
        let w = self.window as u32;
        let t = self.window as f64 * self.window_secs;
        let mid = t + self.window_secs / 2.0;
        let root = tr.open("window", 0, w);
        let mut tick_spans = Vec::with_capacity(self.cores.len());
        for core in &mut self.cores {
            let id = tr.open("enforce.tick", root, w);
            core.roll_window_at(None, t);
            tr.close(id, 1);
            let span = &tr.spans()[id as usize - 1];
            self.ticks.record(span.dur());
            tick_spans.push(id);
        }
        for (leaf, counts) in arrivals.chunks(self.n).enumerate() {
            let feed = tr.open("replay.feed", root, w);
            let total: u32 = counts.iter().sum();
            if let Some(pools) = extras.pools {
                tr.timed("http.parse_head", feed, w, total, false, || {
                    parse_heads(pools, counts)
                });
            }
            // Per-principal batches, merged by outcome: [all admitted,
            // all deferred, mixed] → (nanoseconds, calls).
            let mut kinds = [(0u64, 0u32); 3];
            let feed_start = tr.now();
            let core = &mut self.cores[leaf];
            for (p, &k) in counts.iter().enumerate() {
                if k == 0 {
                    continue;
                }
                let s = tr.now();
                let mut ok = 0u32;
                for _ in 0..k {
                    ok += core.try_admit_at(PrincipalId(p), None, mid).is_some() as u32;
                }
                let dur = tr.now() - s;
                let kind = if ok == k {
                    0
                } else if ok == 0 {
                    1
                } else {
                    2
                };
                kinds[kind].0 += dur;
                kinds[kind].1 += k;
                self.offered[p] += k as u64;
                self.admitted[p] += ok as u64;
            }
            // The batches of one kind were interleaved with the others;
            // their merged span keeps the exact duration, packed from the
            // start of the feed.
            let mut at = feed_start;
            for (name, (ns, calls)) in [
                "enforce.try_admit",
                "enforce.defer",
                "enforce.verdict_mixed",
            ]
            .into_iter()
            .zip(kinds)
            {
                if calls > 0 {
                    tr.push(name, feed, w, at, at + ns, calls, false);
                    at += ns;
                }
            }
            tr.close(feed, total);
        }
        if extras.frames {
            let codec = tr.open("wire.frame_codec", root, w);
            let values: Vec<f64> = self.prev[0].clone();
            let frame = Frame::Up {
                node: 1,
                epoch: 1,
                round: self.window,
                t,
                values,
            };
            let mut buf = Vec::new();
            tr.timed("wire.frame_encode", codec, w, FRAME_REPS, false, || {
                for _ in 0..FRAME_REPS {
                    buf.clear();
                    std::hint::black_box(&frame).encode(&mut buf);
                }
            });
            tr.timed("wire.frame_decode", codec, w, FRAME_REPS, false, || {
                for _ in 0..FRAME_REPS {
                    let decoded = Frame::decode(std::hint::black_box(&buf));
                    std::hint::black_box(decoded.is_ok());
                }
            });
            tr.close(codec, 1);
        }
        tr.close(root, 1);
        self.windows.record(tr.spans()[root as usize - 1].dur());
        if let Some(shadow) = self.shadow.as_mut() {
            shadow.log.push(Logged {
                window: w,
                t,
                tick_spans,
                prev: self.prev.concat(),
            });
        }
        for (prev, counts) in self.prev.iter_mut().zip(arrivals.chunks(self.n)) {
            for (slot, &k) in prev.iter_mut().zip(counts) {
                *slot = k as f64;
            }
        }
        self.window += 1;
    }

    /// Explains the traced ticks: repeats each one as its sub-calls, in
    /// the core's order (observe, read, plan, publish, roll) and on the
    /// inputs it had, as shadow children of its span. Call once, after the
    /// last traced window.
    ///
    /// The shadow runs after the real windows and in two passes — first
    /// everything but the LP, then the LP alone — so that each pass has one
    /// set of solver state in the processor's caches, as a real tick has.
    /// Interleaved with the real ticks, the three copies of a 512-principal
    /// LP evict one another and every timing reads half as much again.
    pub fn run_shadow(&mut self, tr: &mut Tracer) {
        let Some(shadow) = self.shadow.as_mut() else {
            return;
        };
        let n = self.n;
        // (leaf, plan span, window, merged demand) of every solve to repeat.
        let mut solves: Vec<(usize, u32, u32, Vec<f64>)> = Vec::new();
        // Warm-up windows keep the shadow's state in step, unrecorded.
        let mut off = Tracer::new();
        for (i, logged) in shadow.log.iter().enumerate() {
            let record = i >= shadow.measured_from;
            let tr = if record { &mut *tr } else { &mut off };
            let (w, t) = (logged.window, logged.t);
            for (leaf, node) in shadow.nodes.iter_mut().enumerate() {
                let tick = logged.tick_spans[leaf];
                let arrivals = &logged.prev[leaf * n..(leaf + 1) * n];
                tr.timed("enforce.ewma_observe", tick, w, 1, true, || {
                    node.estimator.observe(arrivals)
                });
                node.demand.clear();
                node.demand.extend_from_slice(node.estimator.estimates());
                let view = tr.timed("coord.read", tick, w, 1, true, || {
                    shadow.coordinator.read_at(leaf, t)
                });
                let (_, misses_before) = node.sched.cache_stats();
                let plan_start = tr.now();
                let plan = node.sched.plan_window_shared(view.as_deref(), &node.demand);
                let plan_end = tr.now();
                let plan_span =
                    tr.push("sched.plan_window", tick, w, plan_start, plan_end, 1, true);
                let missed = node.sched.cache_stats().1 > misses_before;
                if let (Some(global), true) = (view.as_deref(), missed) {
                    let merged = global
                        .iter()
                        .zip(&node.demand)
                        .map(|(g, l)| g.max(*l))
                        .collect();
                    solves.push((leaf, if record { plan_span } else { 0 }, w, merged));
                }
                let demand = node.demand.clone();
                tr.timed("coord.publish", tick, w, 1, true, || {
                    shadow.coordinator.publish_at(leaf, demand, t)
                });
                tr.timed("enforce.gate_roll", tick, w, 1, true, || {
                    node.gate.roll_window(&plan)
                });
            }
        }
        // The LP the scheduler ran on each miss, alone: the same merged
        // demand, on a basis that followed the same sequence of solves.
        for (leaf, plan_span, w, merged) in solves {
            let node = &mut shadow.nodes[leaf];
            let before = node.lp.warm_stats();
            let s = tr.now();
            let solved = node.lp.plan_with(&mut node.lp_ws, &merged);
            let e = tr.now();
            let after = node.lp.warm_stats();
            if plan_span != 0 {
                let cold = after.cold_starts > before.cold_starts;
                tr.push(
                    if cold {
                        "lp.cold_solve"
                    } else {
                        "lp.warm_solve"
                    },
                    plan_span,
                    w,
                    s,
                    e,
                    1,
                    true,
                );
            }
            if after.solves > before.solves {
                self.seen.solves += 1;
                self.seen.min_theta = self.seen.min_theta.min(solved.theta.unwrap_or(0.0));
            }
        }
        self.seen.dense_fallbacks = shadow.nodes.iter().map(|n| n.lp.dense_fallbacks()).sum();
        self.seen.refactorizations = shadow
            .nodes
            .iter()
            .map(|n| n.lp.warm_stats().refactorizations)
            .sum();
        shadow.log.clear();
    }

    pub fn window_secs(&self) -> f64 {
        self.window_secs
    }

    /// Windows replayed so far, warm-up included.
    pub fn windows_run(&self) -> u64 {
        self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_agreements::AgreementGraph;

    fn levels() -> AccessLevels {
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 1000.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.5, 1.0).unwrap();
        g.add_agreement(s, b, 0.3, 1.0).unwrap();
        g.access_levels()
    }

    /// A under its floor (30 < 50/window), B flooding both leaves.
    fn arrivals() -> Vec<u32> {
        vec![0, 30, 70, 0, 0, 70]
    }

    #[test]
    fn traced_and_untraced_replays_decide_identically() {
        let mut plain = Replay::new(&levels(), 0.1, 2, false);
        let mut traced = Replay::new(&levels(), 0.1, 2, true);
        let mut tr = Tracer::new();
        for _ in 0..40 {
            plain.window(&arrivals(), None);
            traced.traced_window(
                &arrivals(),
                Extras {
                    pools: None,
                    frames: true,
                },
                &mut tr,
            );
        }
        traced.run_shadow(&mut tr);
        assert_eq!(plain.admitted, traced.admitted);
        assert_eq!(plain.offered, vec![0, 1200, 5600]);
        // Capacity is 100 per window: A keeps its whole offer, B the rest.
        assert!(plain.admitted[1] >= 1100, "A got {}", plain.admitted[1]);
        let total: u64 = plain.admitted.iter().sum();
        assert!(
            (3600..=4100).contains(&total),
            "admitted {total} of 4000 capacity"
        );
        let c = plain.counters();
        assert_eq!(c.admitted, total);
        assert_eq!(c.admitted + c.deferred, 6800);
    }

    #[test]
    fn shadow_spans_explain_the_tick_and_children_cover_the_window() {
        let mut r = Replay::new(&levels(), 0.1, 2, true);
        let mut tr = Tracer::new();
        let pools: Vec<Vec<Vec<u8>>> = ["S", "A", "B"]
            .iter()
            .map(|n| crate::gen::request_pool(&mut crate::gen::Rng::new(1), n, 8))
            .collect();
        for _ in 0..30 {
            r.traced_window(
                &arrivals(),
                Extras {
                    pools: Some(&pools),
                    frames: true,
                },
                &mut tr,
            );
        }
        r.run_shadow(&mut tr);
        let names: Vec<&str> = tr.layers().iter().map(|l| l.name).collect();
        for want in [
            "window",
            "enforce.tick",
            "replay.feed",
            "http.parse_head",
            "enforce.try_admit",
            "enforce.defer",
            "enforce.ewma_observe",
            "coord.read",
            "sched.plan_window",
            "coord.publish",
            "enforce.gate_roll",
            "wire.frame_encode",
            "wire.frame_decode",
        ] {
            assert!(names.contains(&want), "no {want} span in {names:?}");
        }
        assert!(names.contains(&"lp.cold_solve") || names.contains(&"lp.warm_solve"));
        assert!(r.seen.solves > 0 && r.seen.min_theta > 0.0);
        assert_eq!(r.seen.dense_fallbacks, 0);
        // Every shadow span hangs off a tick; every tick off a window.
        for s in tr
            .spans()
            .iter()
            .filter(|s| s.shadow && s.name != "lp.cold_solve" && s.name != "lp.warm_solve")
        {
            assert_eq!(tr.spans()[s.parent as usize - 1].name, "enforce.tick");
        }
    }
}
