//! LP-solver cost vs number of principals (E10 ablation).
//!
//! The paper argues per-window LP solves are cheap because "the complexity
//! of this strategy only depends on the number of principals". This bench
//! quantifies that: community-model solve time for n ∈ {2..32} principals
//! (`θ` plus one variable per agreement-backed pair, `4n` rows), the
//! production window path against the retained naive reference on the
//! identical window LPs, and raw simplex throughput on a fixed small model.
//!
//! The large-n rows compare the sparse revised engine against itself: a
//! cold all-slack dual-simplex solve vs the steady-state warm re-solve over
//! the previous window's basis, with pivot counts, for n ∈ {64 … 1024}.
//! Their demand (`10 + 3i` requests a window) is far above every
//! principal's entitlement, so `θ` binds every coverage row: the regime
//! where pivot rows and columns are densest.
//!
//! The run ends by writing its means — plus the steady-state plan-cache hit
//! rate — into the repo-root `BENCH_lp.json` so the perf trajectory is
//! tracked across PRs.
//!
//! Stays beside `benchmark/` because its `solve_ns` rows at n ∈ {4 … 32}
//! are the dense-against-revised crossover the solver consolidation
//! (ROADMAP item 2) decides on; the benchmark's `tick_small` and
//! `tick_large` are one operating point each.

use covenant_agreements::{AgreementGraph, PrincipalId};
use covenant_bench::{bipartite_graph, emit_bench_section, random_graph};
use covenant_lp::{Problem, Relation, SimplexWorkspace, WarmBasis, WarmOutcome};
use covenant_sched::{
    CommunityScheduler, GlobalView, PreparedCommunity, SchedulerConfig, WindowScheduler,
};
use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;

/// Principal counts of the dense-vs-fast comparison in `BENCH_lp.json`.
const JSON_SIZES: [usize; 4] = [4, 8, 16, 32];
/// Principal counts of the cold-vs-warm revised-engine comparison.
const WARM_SIZES: [usize; 5] = [64, 128, 256, 512, 1024];

fn scaling_workload(n: usize) -> (AgreementGraph, Vec<f64>) {
    // Keep out-degree ~3: agreement graphs are sparse in practice,
    // and the exact simple-path closure is exponential in density.
    let g = random_graph(n, (3.0 / n as f64).min(0.3), 42);
    let queues: Vec<f64> = (0..n).map(|i| 10.0 + (i as f64) * 3.0).collect();
    (g, queues)
}

fn community_lp_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("community_lp_solve");
    for n in [2usize, 4, 8, 16, 32] {
        let (g, queues) = scaling_workload(n);
        let levels = g.access_levels().scaled(0.1);
        let sched = CommunityScheduler::new();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let plan = sched.plan(black_box(&levels), black_box(&queues));
                black_box(plan.admitted(PrincipalId(0)))
            })
        });
    }
    group.finish();
}

/// The tentpole comparison: prepared skeleton + reused workspace (fast
/// path) vs the retained pre-optimization solver on the same window LP.
fn community_lp_fast_vs_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("community_lp_fast");
    for n in JSON_SIZES {
        let (g, queues) = scaling_workload(n);
        let levels = g.access_levels().scaled(0.1);
        let mut prepared = PreparedCommunity::new(&levels, None);
        let mut ws = SimplexWorkspace::new();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(prepared.plan_with(&mut ws, black_box(&queues))))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("community_lp_reference");
    for n in JSON_SIZES {
        let (g, queues) = scaling_workload(n);
        let levels = g.access_levels().scaled(0.1);
        let mut prepared = PreparedCommunity::new(&levels, None);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let problem = prepared.window_problem(black_box(&queues));
                black_box(problem.solve_reference())
            })
        });
    }
    group.finish();
}

/// The window LP of size-`n` community workload at two nearby queue
/// vectors — the rhs drift one scheduling window produces. Uses the
/// two-tier provider/consumer topology: free-form `random_graph`
/// communities make the exact path closure (not the LP) the bottleneck
/// past n ≈ 32.
fn warm_window_problems(n: usize) -> (Problem, Problem) {
    let g = bipartite_graph(n, 42);
    let queues: Vec<f64> = (0..n).map(|i| 10.0 + (i as f64) * 3.0).collect();
    let levels = g.access_levels().scaled(0.1);
    let mut prepared = PreparedCommunity::new(&levels, None);
    let p1 = prepared.window_problem(&queues).clone();
    let drifted: Vec<f64> = queues.iter().map(|q| q * 1.04 + 0.5).collect();
    let p2 = prepared.window_problem(&drifted).clone();
    (p1, p2)
}

/// Large-n tentpole comparison: cold all-slack revised solve vs the warm
/// rhs-repair re-solve the steady state runs every window.
fn revised_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("revised_lp_cold");
    group.sample_size(10);
    for n in WARM_SIZES {
        let (p1, _) = warm_window_problems(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut warm = WarmBasis::new();
                assert_eq!(p1.solve_warm(&mut warm), WarmOutcome::Optimal);
                black_box(warm.objective_value())
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("revised_lp_warm");
    group.sample_size(10);
    for n in WARM_SIZES {
        let (p1, p2) = warm_window_problems(n);
        let mut warm = WarmBasis::new();
        assert_eq!(p1.solve_warm(&mut warm), WarmOutcome::Optimal);
        let mut flip = false;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                // Alternate the two windows so every solve repairs a real
                // rhs change instead of re-pricing an unchanged optimum.
                flip = !flip;
                let p = if flip { &p2 } else { &p1 };
                assert_eq!(p.solve_warm(&mut warm), WarmOutcome::Optimal);
                black_box(warm.objective_value())
            })
        });
    }
    group.finish();
}

/// Pivot counts behind the cold/warm comparison: total pivots of one cold
/// solve, and mean pivots — all, and those of the walk along the optimal
/// face — per warm window over a drifting-queue sequence.
fn pivot_profile(n: usize) -> (u64, f64, f64) {
    let g = bipartite_graph(n, 42);
    let queues: Vec<f64> = (0..n).map(|i| 10.0 + (i as f64) * 3.0).collect();
    let levels = g.access_levels().scaled(0.1);
    let mut prepared = PreparedCommunity::new(&levels, None);
    let mut warm = WarmBasis::new();
    let p = prepared.window_problem(&queues).clone();
    assert_eq!(p.solve_warm(&mut warm), WarmOutcome::Optimal);
    let cold = warm.stats();
    let windows = 16u64;
    for w in 0..windows {
        let drifted: Vec<f64> = queues
            .iter()
            .enumerate()
            .map(|(i, q)| q * (1.0 + 0.03 * (((w as usize + i) % 7) as f64 - 3.0) / 3.0))
            .collect();
        let p = prepared.window_problem(&drifted).clone();
        assert_eq!(p.solve_warm(&mut warm), WarmOutcome::Optimal);
    }
    let per_window = |count: u64| count as f64 / windows as f64;
    let stats = warm.stats();
    (
        cold.pivots,
        per_window(stats.pivots - cold.pivots),
        per_window(stats.face_pivots - cold.face_pivots),
    )
}

fn simplex_small(c: &mut Criterion) {
    c.bench_function("simplex_5x8", |b| {
        b.iter(|| {
            let mut p = Problem::new(5);
            p.set_objective(vec![3.0, 2.0, 4.0, 1.0, 5.0]);
            for i in 0..8 {
                let coeffs: Vec<(usize, f64)> =
                    (0..5).map(|j| (j, ((i + j) % 3 + 1) as f64)).collect();
                p.add_constraint(coeffs, Relation::Le, 10.0 + i as f64);
            }
            black_box(p.solve())
        })
    });
}

/// Steady-state plan-cache hit rate: a window scheduler fed the same demand
/// vector for many consecutive windows, as happens in the flat phases of
/// Figures 6–10 once the EWMA estimator converges.
fn plan_cache_hit_rate() -> f64 {
    let (g, queues) = scaling_workload(16);
    let mut ws =
        WindowScheduler::new(&g.access_levels(), SchedulerConfig::community_default());
    let view = GlobalView::Queues(queues.clone());
    for _ in 0..256 {
        black_box(ws.plan_window(&view, &queues));
    }
    let (hits, misses) = ws.cache_stats();
    hits as f64 / (hits + misses).max(1) as f64
}

fn mean_ns(c: &Criterion, id: &str) -> f64 {
    c.results()
        .iter()
        .find(|m| m.id == id)
        .map(|m| m.mean_ns)
        .unwrap_or(f64::NAN)
}

criterion_group!(
    benches,
    community_lp_scaling,
    community_lp_fast_vs_reference,
    revised_cold_vs_warm,
    simplex_small
);

fn main() {
    let mut c = Criterion::default();
    benches(&mut c);

    let mut body = String::from("{\"solve_ns\": {");
    for (i, n) in JSON_SIZES.iter().enumerate() {
        let fast = mean_ns(&c, &format!("community_lp_fast/{n}"));
        let reference = mean_ns(&c, &format!("community_lp_reference/{n}"));
        let sep = if i + 1 < JSON_SIZES.len() { ", " } else { "" };
        body.push_str(&format!(
            "\"{n}\": {{\"fast\": {fast:.1}, \"reference\": {reference:.1}, \
             \"speedup\": {:.2}}}{sep}",
            reference / fast
        ));
    }
    body.push_str("}, \"warm_solve_ns\": {");
    for (i, n) in WARM_SIZES.iter().enumerate() {
        let cold = mean_ns(&c, &format!("revised_lp_cold/{n}"));
        let warm = mean_ns(&c, &format!("revised_lp_warm/{n}"));
        let (cold_pivots, warm_pivots, face_pivots) = pivot_profile(*n);
        let sep = if i + 1 < WARM_SIZES.len() { ", " } else { "" };
        body.push_str(&format!(
            "\"{n}\": {{\"cold\": {cold:.1}, \"warm\": {warm:.1}, \
             \"speedup\": {:.2}, \"cold_pivots\": {cold_pivots}, \
             \"warm_pivots_per_window\": {warm_pivots:.1}, \
             \"warm_face_pivots_per_window\": {face_pivots:.1}}}{sep}",
            cold / warm
        ));
    }
    let hit_rate = plan_cache_hit_rate();
    body.push_str(&format!("}}, \"plan_cache_hit_rate\": {hit_rate:.4}}}"));
    emit_bench_section("lp", &body).expect("write BENCH_lp.json");
    println!("BENCH_lp.json \"lp\" section updated (cache hit rate {hit_rate:.4})");
}
