//! Warm-solver smoke gate for tier-1: steady-state window solves at
//! n = 512 principals must stay far inside the paper's 100 ms window
//! budget, the window LP must have one variable per agreement-backed pair
//! (not one per pair of principals), and the warm engine must never hand a
//! window of this shape to the dense fallback (whose tableau would blow
//! the budget by orders of magnitude).
//!
//! The run primes a prepared community skeleton with one cold window,
//! then solves a sequence of rhs-perturbed windows through the persistent
//! warm basis — the exact steady-state path `WindowScheduler` drives every
//! scheduling window — and fails loudly (nonzero exit) if any warm window
//! exceeds a conservative fraction of the budget.

use covenant_agreements::PrincipalId;
use covenant_bench::{bipartite_graph, SmallLcg};
use covenant_lp::SimplexWorkspace;
use covenant_sched::PreparedCommunity;
use std::time::Instant;

/// Principal count of the gated workload.
const N: usize = 512;
/// Perturbed steady-state windows to drive.
const WINDOWS: usize = 24;
/// Per-window warm-solve budget. These windows take 0.4–0.9 ms; while the
/// LP still carried a column for every pair of principals and pivoted with
/// dense sweeps, the fastest of them took 3.7 ms (the slowest 10 ms), so
/// the gate sits under all of those with room for a slow CI machine.
const BUDGET_MS: f64 = 3.0;

fn main() {
    // Two-tier provider/consumer community: keeps the exact path closure
    // linear so the gate times the LP, not workload construction.
    let g = bipartite_graph(N, 42);
    let levels = g.access_levels().scaled(0.1);
    let mut prepared = PreparedCommunity::new(&levels, None);
    let mut ws = SimplexWorkspace::new();

    // Demand between 0.4 and 1.6 times each principal's mandatory level:
    // about half sit under their floor and half reach into the optional
    // share, the mix a community in steady state presents.
    let mut rng = SmallLcg::new(7);
    let base: Vec<f64> = (0..N)
        .map(|i| levels.mandatory(PrincipalId(i)) * (0.4 + 1.2 * rng.next_f64()))
        .collect();
    let pairs = (0..N * N)
        .filter(|&at| {
            let (i, k) = (PrincipalId(at / N), PrincipalId(at % N));
            levels.mand_share(i, k) + levels.opt_share(i, k) > 0.0
        })
        .count();
    let n_vars = prepared.window_problem(&base).n_vars();
    assert_eq!(n_vars, 1 + pairs, "the window LP must be numbered by agreement, not by n²");
    let cold_start = Instant::now();
    let plan = prepared.plan_with(&mut ws, &base);
    let cold_ms = cold_start.elapsed().as_secs_f64() * 1e3;
    assert!(plan.theta.unwrap_or(0.0) > 0.0, "cold window produced an empty plan");

    let mut worst_ms: f64 = 0.0;
    for w in 0..WINDOWS {
        // Window-to-window queue drift: a few percent, like the EWMA
        // estimator produces in the figure scenarios' steady phases.
        let queues: Vec<f64> = base
            .iter()
            .enumerate()
            .map(|(i, q)| q * (1.0 + 0.03 * (((w + i) % 7) as f64 - 3.0) / 3.0))
            .collect();
        let start = Instant::now();
        let plan = prepared.plan_with(&mut ws, &queues);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        worst_ms = worst_ms.max(ms);
        assert!(plan.theta.unwrap_or(0.0) > 0.0, "window {w} produced an empty plan");
        assert!(
            ms < BUDGET_MS,
            "warm window {w} took {ms:.2} ms (budget {BUDGET_MS} ms)"
        );
    }

    let stats = prepared.warm_stats();
    assert_eq!(
        prepared.dense_fallbacks(),
        0,
        "warm engine refused a steady-state window"
    );
    assert!(
        stats.warm_solves >= WINDOWS as u64,
        "expected ≥{WINDOWS} warm solves, got {stats:?}"
    );
    println!(
        "lp smoke: n={N} ({n_vars} variables) cold {cold_ms:.2} ms, {WINDOWS} warm windows \
         worst {worst_ms:.2} ms (budget {BUDGET_MS} ms), {} pivots total, \
         {} refactorizations, 0 dense fallbacks",
        stats.pivots, stats.refactorizations
    );
}
