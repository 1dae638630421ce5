//! The workloads and what they share: the run configuration, the outcome
//! record, set-up repetition, and the delivered-share arithmetic.

pub mod cluster;
pub mod l7;
pub mod sim;
pub mod tick;

use crate::procfs;
use crate::replay::Replay;
use crate::stats;
use crate::trace::Tracer;
use covenant_agreements::{AccessLevels, PrincipalId};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload is in the benchmark.
    pub why: &'static str,
    pub run: fn(&RunCfg) -> Outcome,
}

/// Every workload, in running order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "l7_fastpath",
        why: "open loop at 200k req/s, all admitted: http parse, reactor wakes and the credit gate do the work, lp/sched almost none",
        run: |cfg| l7::run("l7_fastpath", l7::Load::Open, cfg),
    },
    Workload {
        name: "l7_saturated",
        why: "closed loop, 512 outstanding per connection: big verdict batches per wake, so per-request cost shows without per-wake cost",
        run: |cfg| l7::run("l7_saturated", l7::Load::Closed, cfg),
    },
    Workload {
        name: "cluster_contended",
        why: "root + 2 leaf processes, one principal under its floor and one flooding: deferral, demand estimates, frame exchange and stale views decide the shares",
        run: cluster::run,
    },
    Workload {
        name: "tick_large",
        why: "no sockets, 512 principals: the warm-started revised simplex is nearly all of a window tick",
        run: |cfg| tick::run("tick_large", 512, cfg),
    },
    Workload {
        name: "tick_small",
        why: "the same driver at 4 principals with drifting demand: plan cache misses, dense small-n planning, tick bookkeeping",
        run: |cfg| tick::run("tick_small", 4, cfg),
    },
    Workload {
        name: "sim_replay",
        why: "three scaled library scenarios through the simulator: event engine, links, restart and retry paths, noise-free shares",
        run: sim::run,
    },
];

pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured part.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: one set-up, short warm-up.
    pub quick: bool,
}

impl RunCfg {
    /// Length of the measurement the untraced run makes: all of
    /// `seconds`, or the first half when a traced replay follows.
    pub fn plain_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Live runs discard their first second (at least ten windows).
    pub fn warmup(&self) -> Duration {
        Duration::from_millis(if self.quick { 200 } else { 1000 })
    }
}

pub type Metrics = BTreeMap<&'static str, f64>;

#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and, of those, failed: errored, timed out,
    /// answered with a non-302 or malformed response, or breaking an output
    /// check. A deferral by design is not a failure.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Broken output checks; any makes the run exit non-zero.
    pub violations: Vec<String>,
    /// The per-layer table of a traced run.
    pub table: Option<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The six end-to-end metrics of an untraced run.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        peak_rss_mb: f64,
        op_p50_us: f64,
        cpu_ns_per_verdict: f64,
        shares: &Shares,
    ) {
        let m = &mut self.metrics;
        m.insert("setup_s", setup_s);
        m.insert("peak_rss_mb", peak_rss_mb);
        m.insert("op_p50_us", op_p50_us);
        m.insert("cpu_ns_per_verdict", cpu_ns_per_verdict);
        m.insert("share_ratio_min", shares.ratio_min);
        m.insert("capacity_use_ratio", shares.capacity_use);
    }

    /// Closes a traced run: the roots named `root` must be covered by their
    /// children, the table goes to the outcome and the spans to
    /// `benchmark/out/trace-<workload>.json`.
    pub fn finish_trace(&mut self, workload: &str, root: &str, tr: &Tracer) {
        let coverage = tr.root_coverage_p01(root);
        self.metrics.insert("trace.window_coverage_p01", coverage);
        self.check(coverage >= 0.9, || {
            format!("the children of one {root} in a hundred cover only {coverage:.3} of it")
        });
        self.table = Some(tr.table());
        crate::report::write_out(
            &format!("trace-{workload}.json"),
            &tr.to_json(&crate::report::header()),
        );
    }
}

/// Runs `build` several times (once when `quick`) and returns the last
/// product with the median duration in seconds: set-up time is short and
/// noisy — a process's first milliseconds run cold — and a later change is
/// judged on it. At least five builds, and more until 0.2 s have passed.
/// The previous product is dropped before the next build, so ports and
/// child processes are free.
pub fn repeat_setup<T>(quick: bool, mut build: impl FnMut() -> T) -> (T, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.is_empty()
        || (!quick
            && (times.len() < 5 || (started.elapsed().as_secs_f64() < 0.2 && times.len() < 2000)))
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one build"), stats::median(&mut times))
}

/// What was offered and what was delivered over `secs` seconds, against
/// what the agreements entitle each principal to.
pub struct Delivery<'a> {
    pub offered: &'a [u64],
    pub delivered: &'a [u64],
    /// Mandatory level per principal, requests per second.
    pub floors: &'a [f64],
    /// Total capacity, requests per second.
    pub capacity: f64,
    pub secs: f64,
    /// A principal entitled to fewer requests than this is not judged.
    pub min_entitled: f64,
}

pub struct Shares {
    pub ratio_min: f64,
    pub capacity_use: f64,
}

/// Every principal's mandatory level, requests per second.
pub fn floors(levels: &AccessLevels) -> Vec<f64> {
    (0..levels.len())
        .map(|i| levels.mandatory(PrincipalId(i)))
        .collect()
}

impl Delivery<'_> {
    /// `(offered, delivered, requests due at the floor)` per principal.
    fn principals(&self) -> impl Iterator<Item = (u64, u64, f64)> + '_ {
        let counts = self.offered.iter().zip(self.delivered);
        counts
            .zip(self.floors)
            .map(|((&o, &d), &floor)| (o, d, floor * self.secs))
    }

    /// A principal is *entitled* to what it offered, up to its floor.
    /// `ratio_min` is the smallest delivered ÷ entitled over the principals
    /// that are judged (1 if none is); `capacity_use` is everything
    /// delivered over what could have been: the offer or the capacity,
    /// whichever is smaller.
    pub fn shares(&self) -> Shares {
        let ratio_min = self
            .principals()
            .map(|(o, d, due)| (d as f64, (o as f64).min(due)))
            .filter(|&(_, entitled)| entitled >= self.min_entitled)
            .map(|(d, entitled)| d / entitled)
            .fold(f64::INFINITY, f64::min);
        let offered: u64 = self.offered.iter().sum();
        let delivered: u64 = self.delivered.iter().sum();
        let possible = (offered as f64).min(self.capacity * self.secs);
        Shares {
            ratio_min: if ratio_min.is_finite() {
                ratio_min
            } else {
                1.0
            },
            capacity_use: if possible > 0.0 {
                delivered as f64 / possible
            } else {
                1.0
            },
        }
    }

    /// The share checks every enforcing workload makes: no judged principal
    /// that offered at least its floor got less than `1 - slack` of it, and
    /// the system admitted no more than 1.05 × capacity plus `burst`.
    pub fn check(&self, out: &mut Outcome, burst: f64, slack: f64) {
        for (i, (o, d, due)) in self.principals().enumerate() {
            let starved =
                due >= self.min_entitled && o as f64 >= due && (d as f64) < (1.0 - slack) * due;
            out.check(!starved, || {
                format!("principal {i} offered {o} >= its floor {due:.0} but got {d}")
            });
        }
        let total: u64 = self.delivered.iter().sum();
        let most = 1.05 * self.capacity * self.secs + burst;
        out.check(total as f64 <= most, || {
            format!("admitted {total}, more than {most:.0}")
        });
    }
}

/// Own peak resident set, MB.
pub fn own_peak_rss_mb() -> f64 {
    procfs::peak_rss_mb(procfs::own_pid())
}

/// Fills the per-layer metrics a pair of replays yields — `plain` ran
/// without spans, `traced` with them into `tr`, shadow included: the tick
/// as `plain` timed it, the cores' counters, per-call medians of every span
/// kind, the tick's self time, the LP's share of a redirector's time, and
/// what the spans cost.
pub fn replay_metrics(tr: &Tracer, plain: &Replay, traced: &Replay, m: &mut Metrics) {
    m.insert("tick_p50_us", plain.ticks.quantile_us(0.5));
    m.insert("tick_p90_us", plain.ticks.quantile_us(0.9));
    m.insert("tick_samples", plain.ticks.count() as f64);
    let c = plain.counters();
    m.insert("enforce.admitted", c.admitted as f64);
    m.insert("enforce.deferred", c.deferred as f64);
    m.insert("sched.cache_hits", c.plan_cache_hits as f64);
    m.insert("sched.cache_misses", c.plan_cache_misses as f64);
    let lookups = (c.plan_cache_hits + c.plan_cache_misses).max(1);
    m.insert(
        "sched.cache_hit_ratio",
        c.plan_cache_hits as f64 / lookups as f64,
    );
    m.insert(
        "lp.pivots_per_window",
        c.lp_pivots as f64 / plain.windows_run().max(1) as f64,
    );
    m.insert("lp.warm_hits", c.lp_warm_hits as f64);
    m.insert("lp.cold_fallbacks", c.lp_cold_fallbacks as f64);

    for (metric, span, scale) in [
        ("http.parse_head_ns", "http.parse_head", 1.0),
        ("enforce.try_admit_ns", "enforce.try_admit", 1.0),
        ("enforce.defer_ns", "enforce.defer", 1.0),
        ("enforce.ewma_observe_ns", "enforce.ewma_observe", 1.0),
        ("enforce.gate_roll_ns", "enforce.gate_roll", 1.0),
        ("coord.publish_ns", "coord.publish", 1.0),
        ("coord.read_ns", "coord.read", 1.0),
        ("sched.plan_window_us", "sched.plan_window", 1e-3),
        ("lp.cold_solve_us", "lp.cold_solve", 1e-3),
        ("lp.warm_solve_us", "lp.warm_solve", 1e-3),
        ("wire.frame_encode_ns", "wire.frame_encode", 1.0),
        ("wire.frame_decode_ns", "wire.frame_decode", 1.0),
    ] {
        m.insert(metric, tr.median_call_ns(span) * scale);
    }
    let count = |name: &str| tr.spans().iter().filter(|s| s.name == name).count() as f64;
    let ticks = count("enforce.tick").max(1.0);
    let explained =
        tr.total_ns("sched.plan_window") + tr.total_ns("coord.publish") + tr.total_ns("coord.read");
    let tick_self = tr.total_ns("enforce.tick") as f64 - explained as f64;
    m.insert("enforce.tick_self_us", tick_self / ticks / 1e3);
    // The share of a redirector's real time (one window per window_secs)
    // that the LP takes.
    let lp_ns = tr.total_ns("lp.cold_solve") + tr.total_ns("lp.warm_solve");
    m.insert(
        "lp.busy_share",
        lp_ns as f64 / (ticks * traced.window_secs() * 1e9),
    );
    m.insert("lp.dense_fallbacks", traced.seen.dense_fallbacks as f64);
    m.insert("lp.refactorizations", traced.seen.refactorizations as f64);
    let overhead = traced.windows.quantile(0.5) / plain.windows.quantile(0.5).max(1.0) - 1.0;
    m.insert("trace.overhead_share", overhead);
    m.insert("trace.windows", count("window"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivery<'a>(offered: &'a [u64], delivered: &'a [u64], floors: &'a [f64]) -> Delivery<'a> {
        Delivery {
            offered,
            delivered,
            floors,
            capacity: 2000.0,
            secs: 1.0,
            min_entitled: 1.0,
        }
    }

    #[test]
    fn share_arithmetic_on_a_hand_worked_case() {
        // One second; capacity 2000/s; A's floor 1000/s, B's 600/s. A offers
        // 600 (all of it is its entitlement) and gets 594; B offers 3000, is
        // entitled to its floor of 600, and gets 1380.
        let s = delivery(&[0, 600, 3000], &[0, 594, 1380], &[0.0, 1000.0, 600.0]).shares();
        assert!((s.ratio_min - 0.99).abs() < 1e-12, "{}", s.ratio_min);
        assert!((s.capacity_use - 1974.0 / 2000.0).abs() < 1e-12);
        // Offer below capacity: use is measured against the offer.
        let s = delivery(&[0, 500], &[0, 500], &[0.0, 1e6]).shares();
        assert_eq!((s.ratio_min, s.capacity_use), (1.0, 1.0));
        // Nobody entitled to anything, or to too little to judge.
        assert_eq!(delivery(&[0], &[0], &[0.0]).shares().ratio_min, 1.0);
        let small = Delivery {
            min_entitled: 10.0,
            ..delivery(&[9], &[3], &[100.0])
        };
        assert_eq!(small.shares().ratio_min, 1.0);
    }

    #[test]
    fn share_checks_flag_a_starved_floor_and_over_admission() {
        let violations = |offered: &[u64], delivered: &[u64]| {
            let mut out = Outcome::default();
            delivery(offered, delivered, &[1000.0, 600.0]).check(&mut out, 400.0, 0.1);
            out.violations
        };
        let starved = violations(&[1200, 100], &[850, 100]);
        assert!(
            starved.len() == 1 && starved[0].contains("principal 0"),
            "{starved:?}"
        );
        let over = violations(&[5000, 0], &[2600, 0]);
        assert!(
            over.len() == 1 && over[0].contains("admitted 2600"),
            "{over:?}"
        );
        assert!(violations(&[5000, 300], &[1500, 290]).is_empty());
    }

    #[test]
    fn repeat_setup_returns_the_last_product_and_a_median() {
        let mut builds = 0;
        let (last, secs) = repeat_setup(false, || {
            builds += 1;
            builds
        });
        assert!(builds >= 5 && last == builds && secs >= 0.0);
        let mut builds = 0;
        repeat_setup(true, || builds += 1);
        assert_eq!(builds, 1);
    }
}
