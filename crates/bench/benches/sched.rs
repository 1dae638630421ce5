//! Redirector overhead (E10): per-request admission cost and per-window
//! planning cost.
//!
//! The paper reports <15% redirector CPU at full load; here the admit path
//! must be tens of nanoseconds and the window roll (one LP solve) tens of
//! microseconds, making 100 ms windows essentially free. The plan benches
//! disable the plan cache so they time actual solving; the `_cached`
//! variant shows the steady-state replay cost. `window_plan_community_n3`
//! repeats one demand, so its warm solve never pivots; the
//! `window_plan_community_drift_n*` rows plan a demand that drifts from
//! window to window, as a redirector's does, so each window pivots and
//! appends to the basis factorization. The run appends its means
//! to the repo-root `BENCH_lp.json` — the small-n planning numbers ROADMAP
//! item 2 compares the solvers on, which is why it stays beside
//! `benchmark/`.

use covenant_agreements::{AgreementGraph, PrincipalId};
use covenant_bench::{bipartite_graph, emit_bench_section};
use covenant_enforce::CreditGate;
use covenant_sched::{GlobalView, Plan, Request, SchedulerConfig, WindowScheduler};
use criterion::{criterion_group, Criterion};
use std::hint::black_box;

fn provider_system() -> AgreementGraph {
    let mut g = AgreementGraph::new();
    let s = g.add_principal("S", 320.0);
    let a = g.add_principal("A", 0.0);
    let b = g.add_principal("B", 0.0);
    g.add_agreement(s, a, 0.2, 1.0).unwrap();
    g.add_agreement(s, b, 0.8, 1.0).unwrap();
    g
}

fn uncached(cfg: SchedulerConfig) -> SchedulerConfig {
    SchedulerConfig { plan_cache: false, ..cfg }
}

fn admit_path(c: &mut Criterion) {
    let mut gate = CreditGate::for_principals(3);
    gate.roll_window(&Plan::from_dense(&[
        vec![0.0; 3],
        vec![1e12, 0.0, 0.0],
        vec![1e12, 0.0, 0.0],
    ]));
    let mut id = 0u64;
    c.bench_function("credit_gate_admit", |b| {
        b.iter(|| {
            id += 1;
            black_box(gate.admit(&Request::unit(id, PrincipalId(1), 0.0)))
        })
    });
}

fn window_roll(c: &mut Criterion) {
    let g = provider_system();
    let view = GlobalView::Queues(vec![0.0, 40.0, 25.0]);
    let local = vec![0.0, 20.0, 10.0];

    let mut ws =
        WindowScheduler::new(&g.access_levels(), uncached(SchedulerConfig::community_default()));
    c.bench_function("window_plan_community_n3", |b| {
        b.iter(|| black_box(ws.plan_window(black_box(&view), black_box(&local))))
    });

    let mut ws =
        WindowScheduler::new(&g.access_levels(), SchedulerConfig::community_default());
    c.bench_function("window_plan_community_n3_cached", |b| {
        b.iter(|| black_box(ws.plan_window(black_box(&view), black_box(&local))))
    });

    let mut ws = WindowScheduler::new(
        &g.access_levels(),
        uncached(SchedulerConfig::provider(vec![0.0, 2.0, 1.0])),
    );
    c.bench_function("window_plan_provider_n3", |b| {
        b.iter(|| black_box(ws.plan_window(black_box(&view), black_box(&local))))
    });
}

/// Principal counts of the drifting-demand rows.
const DRIFT_SIZES: [usize; 5] = [3, 4, 8, 16, 32];
/// Windows in one drifting-demand cycle (the bench walks it round and
/// round; with the plan cache off a repeat is solved again).
const DRIFT_WINDOWS: usize = 256;

/// One window's global queues and this redirector's local ones.
type WindowDemand = (Vec<f64>, Vec<f64>);

/// A two-tier community of `n` and a cycle of window demands: each principal offers 0.4–1.6 times its mandatory level per
/// window, modulated by a ±3 % sine with its own phase, and this
/// redirector holds half of it.
fn drifting_demand(n: usize) -> (AgreementGraph, Vec<WindowDemand>) {
    let g = bipartite_graph(n, 42);
    let levels = g.access_levels().scaled(0.1);
    let mean: Vec<f64> = (0..n)
        .map(|i| levels.mandatory(PrincipalId(i)) * (0.4 + 1.2 * ((i * 7 + 3) % 11) as f64 / 10.0))
        .collect();
    let windows = (0..DRIFT_WINDOWS)
        .map(|w| {
            let global: Vec<f64> = mean
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let phase = w as f64 / 50.0 + i as f64 / n as f64;
                    m * (1.0 + 0.03 * (std::f64::consts::TAU * phase).sin())
                })
                .collect();
            let local = global.iter().map(|q| q / 2.0).collect();
            (global, local)
        })
        .collect();
    (g, windows)
}

fn drifting_window_plan(c: &mut Criterion) {
    for n in DRIFT_SIZES {
        let (g, windows) = drifting_demand(n);
        let mut ws = WindowScheduler::new(
            &g.access_levels(),
            uncached(SchedulerConfig::community_default()),
        );
        let mut w = 0;
        c.bench_function(&format!("window_plan_community_drift_n{n}"), |b| {
            b.iter(|| {
                let (global, local) = &windows[w % DRIFT_WINDOWS];
                w += 1;
                black_box(ws.plan_window_shared(Some(black_box(global)), black_box(local)))
            })
        });
    }
}

fn conservative_fallback(c: &mut Criterion) {
    let g = provider_system();
    let mut ws =
        WindowScheduler::new(&g.access_levels(), uncached(SchedulerConfig::community_default()));
    let local = vec![0.0, 20.0, 10.0];
    c.bench_function("window_plan_conservative_n3", |b| {
        b.iter(|| black_box(ws.plan_window(black_box(&GlobalView::Unknown), black_box(&local))))
    });
}

criterion_group!(benches, admit_path, window_roll, drifting_window_plan, conservative_fallback);

fn main() {
    let mut c = Criterion::default();
    benches(&mut c);

    let mut ids: Vec<String> = [
        "credit_gate_admit",
        "window_plan_community_n3",
        "window_plan_community_n3_cached",
        "window_plan_provider_n3",
        "window_plan_conservative_n3",
    ]
    .map(String::from)
    .to_vec();
    ids.extend(DRIFT_SIZES.map(|n| format!("window_plan_community_drift_n{n}")));
    let mut body = String::from("{");
    for (i, id) in ids.iter().enumerate() {
        let mean = c
            .results()
            .iter()
            .find(|m| &m.id == id)
            .map(|m| m.mean_ns)
            .unwrap_or(f64::NAN);
        let sep = if i + 1 < ids.len() { ", " } else { "" };
        body.push_str(&format!("\"{id}_ns\": {mean:.1}{sep}"));
    }
    body.push('}');
    emit_bench_section("sched", &body).expect("write BENCH_lp.json");
    println!("BENCH_lp.json \"sched\" section updated");
}
