//! The `random_graph(32, 3/32, 5)` community: 32 principals in one
//! strongly connected component, 96 rows over 902 columns in its window
//! LP. Its cold solve used to run the revised engine into its iteration
//! cap (14 096 pivots) and leave every window to the dense tableau. It now
//! solves cold once, in about 800 pivots, and warm in every window after.
//! (Its neighbour `random_graph(32, 3/32, 1)` also needs the restart from
//! the lexicographic slack basis, but it takes two minutes in the
//! debug profile; `revised.rs`'s unit tests cover the restart.)
//!
//! The closure takes about a second in release and most of the test's
//! ~5 s in the debug profile.

use covenant_bench::random_graph;
use covenant_lp::{SimplexWorkspace, WarmStats};
use covenant_sched::PreparedCommunity;

const WINDOWS: usize = 10;

/// Plans `WINDOWS` windows of the community drawn with `seed`, principal
/// `i` offering 10 + 3i requests a window drifting ±5 %; checks that no
/// window reached the dense engine, that only the first was cold, and
/// that it took at most a pivot per row and column (plus 200).
fn walk(seed: u64) -> WarmStats {
    let n = 32;
    let levels = random_graph(n, 3.0 / n as f64, seed).access_levels().scaled(0.1);
    let mut prepared = PreparedCommunity::new(&levels, None);
    let mut ws = SimplexWorkspace::new();
    let queues = |w: usize| -> Vec<f64> {
        (0..n)
            .map(|i| (10.0 + 3.0 * i as f64) * (1.0 + 0.05 * ((w * 7 + i) as f64).sin()))
            .collect()
    };
    let size = {
        let p = PreparedCommunity::new(&levels, None).window_problem(&queues(0)).clone();
        (p.n_constraints() + p.n_vars()) as u64
    };
    for w in 0..WINDOWS {
        let plan = prepared.plan_in_place(&mut ws, &queues(w));
        assert!(plan.theta.is_some_and(|t| t > 0.0), "seed {seed}, window {w}: no plan");
        if w == 0 {
            let cold = prepared.warm_stats().pivots;
            assert!(
                cold <= size + 200,
                "seed {seed}: {cold} cold pivots over {size} rows and columns"
            );
        }
    }
    let stats = prepared.warm_stats();
    assert_eq!(prepared.dense_fallbacks(), 0, "seed {seed}: {stats:?}");
    assert_eq!(
        (stats.cold_starts, stats.warm_solves),
        (1, WINDOWS as u64 - 1),
        "seed {seed}: {stats:?}"
    );
    stats
}

#[test]
fn a_32_principal_community_never_reaches_the_dense_engine() {
    assert_eq!(walk(5).lexicographic_starts, 0);
}
