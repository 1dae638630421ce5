//! Agreement-flow computation cost (pre-computation ablation).
//!
//! The exact closure on sparse graphs (out-degree ~2.5, small SCCs) and on
//! dense ones, where every principal holds an agreement from every other
//! so the whole graph is one SCC and the subset DP runs over all `2^n`
//! visited sets; beside them the per-capacity-change recompute of the
//! access levels from precomputed coefficients.

use covenant_agreements::AgreementGraph;
use covenant_bench::random_graph;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// `n` principals, each holding `[0.05, 0.1]` from every other one.
fn complete_graph(n: usize) -> AgreementGraph {
    let mut g = AgreementGraph::new();
    let ids: Vec<_> = (0..n).map(|i| g.add_principal(format!("P{i}"), 100.0)).collect();
    for &i in &ids {
        for &j in ids.iter().filter(|&&j| j != i) {
            g.add_agreement(i, j, 0.05, 0.1).expect("Σ lb = 0.05·(n − 1) ≤ 1");
        }
    }
    g
}

fn flow_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_closure_full");
    for n in [4usize, 8, 12, 16] {
        let g = random_graph(n, (2.5 / n as f64).min(0.3), 9);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(g.flows()))
        });
    }
    group.finish();
}

fn flow_closure_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_closure_dense");
    for n in [10usize, 13, 16] {
        let g = complete_graph(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(g.flows()))
        });
    }
    group.finish();
}

fn access_levels_from_flows(c: &mut Criterion) {
    // The per-capacity-change recomputation: reuse precomputed MT/OT.
    let g = random_graph(12, 0.25, 9);
    let flows = g.flows();
    let v = g.capacities();
    c.bench_function("access_levels_recompute_n12", |b| {
        b.iter(|| {
            black_box(covenant_agreements::AccessLevels::from_flows_with_capacities(
                black_box(&flows),
                black_box(&v),
            ))
        })
    });
}

criterion_group!(benches, flow_closure, flow_closure_dense, access_levels_from_flows);
criterion_main!(benches);
