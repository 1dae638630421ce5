//! Property tests for the enforcement core and the queuing structures
//! behind it.

use covenant_agreements::{AccessLevels, AgreementGraph, PrincipalId};
use covenant_enforce::{Admission, CreditGate, EnforcementCore, PrincipalQueues, QueueMode};
use covenant_sched::{Plan, Request, SchedulerConfig, WindowScheduler};
use proptest::prelude::*;

/// Server S at 100 req/s shared by A [0.2,1] and B [0.8,1]: 10 units a
/// 100 ms window.
fn levels() -> AccessLevels {
    let mut g = AgreementGraph::new();
    let s = g.add_principal("S", 100.0);
    let a = g.add_principal("A", 0.0);
    let b = g.add_principal("B", 0.0);
    g.add_agreement(s, a, 0.2, 1.0).unwrap();
    g.add_agreement(s, b, 0.8, 1.0).unwrap();
    g.access_levels()
}

/// The view a driver hands the core for one window. `published` is the
/// demand the core returned at each earlier window, so `kind` 10 and up is
/// the sound one-node tree; the rest are what a stale, restarted, buggy or
/// hostile tree could deliver.
fn view(kind: usize, x: f64, published: &[Vec<f64>]) -> Option<Vec<f64>> {
    let n = 3;
    let mut fresh = published.last().cloned().unwrap_or_else(|| vec![x; n]);
    let at = x as usize % n;
    match kind {
        0 => return None,
        1 => return published.get(published.len().saturating_sub(6)).cloned(),
        2 => return Some(vec![0.0; n]),
        3 => return Some(vec![1e300; n]),
        4 => fresh.push(x),
        5 => drop(fresh.pop()),
        6 => fresh[at] = f64::NAN,
        7 => fresh[at] = f64::INFINITY,
        8 => fresh[at] = f64::NEG_INFINITY,
        9 => fresh[at] = -1.0 - x,
        _ => {}
    }
    Some(fresh)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The credit gate never admits more than quota + burst headroom, for
    /// any admission pattern.
    #[test]
    fn credit_gate_conservation(
        quotas in proptest::collection::vec(0.0..20.0f64, 1..5),
        pattern in proptest::collection::vec(0usize..5, 0..200),
    ) {
        let windows = 8usize;
        let n = quotas.len();
        let mut gate = CreditGate::for_principals(n);
        let rows: Vec<Vec<f64>> = quotas.iter().map(|&q| {
            let mut row = vec![0.0; n];
            row[0] = q;
            row
        }).collect();
        let plan = Plan::from_dense(&rows);
        let mut admitted = vec![0u64; n];
        let mut id = 0;
        for _ in 0..windows {
            gate.roll_window(&plan);
            for &p in &pattern {
                if p < n {
                    if matches!(gate.admit(&Request::unit(id, PrincipalId(p), 0.0)), Admission::Admit { .. }) {
                        admitted[p] += 1;
                    }
                    id += 1;
                }
            }
        }
        for i in 0..n {
            // Total admitted ≤ windows × quota + burst headroom (2 windows).
            let cap = (windows as f64 + 2.0) * quotas[i];
            prop_assert!(admitted[i] as f64 <= cap + 1e-6,
                "principal {i}: {} > {}", admitted[i], cap);
        }
    }

    /// Explicit queues release in FIFO order, never exceed the budget, and
    /// never lose requests.
    #[test]
    fn explicit_queue_conservation(
        pushes in proptest::collection::vec(0usize..3, 0..120),
        budget in 0.0..30.0f64,
    ) {
        let n = 3;
        let mut q = PrincipalQueues::new(n);
        for (id, &p) in pushes.iter().enumerate() {
            q.push(Request::unit(id as u64, PrincipalId(p), 0.0));
        }
        let before = q.total_len();
        let plan = Plan::from_dense(&vec![vec![budget / n as f64; n]; n]);
        let released = q.release(&plan);
        prop_assert_eq!(released.len() + q.total_len(), before);
        // Per principal: released ≤ budget (unit costs).
        for i in 0..n {
            let cnt = released.iter().filter(|d| d.request.principal.0 == i).count();
            prop_assert!(cnt as f64 <= budget + 1e-9);
            // FIFO within principal: ids increasing.
            let ids: Vec<u64> = released
                .iter()
                .filter(|d| d.request.principal.0 == i)
                .map(|d| d.request.id.0)
                .collect();
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        }
    }
    /// The core survives any view in every queue mode: it never panics,
    /// the debug-build conservation audit (per-window admits ≤ installed
    /// credit) holds, and explicit mode never releases more than the plans
    /// it installed — replayed on a twin scheduler fed the same view (no
    /// view when unusable) and the demand each tick returned.
    #[test]
    fn core_survives_hostile_views(
        windows in proptest::collection::vec(
            (proptest::collection::vec(0usize..3, 0..30), 0usize..14, 0.0..50.0f64),
            1..40,
        ),
    ) {
        let levels = levels();
        let cfg = SchedulerConfig::community_default();
        for mode in [
            QueueMode::Explicit,
            QueueMode::CreditRetry { retry_delay: 0.05 },
            QueueMode::CreditPark,
        ] {
            let explicit = mode == QueueMode::Explicit;
            let mut core = EnforcementCore::new(&levels, cfg.clone(), mode);
            let mut twin = WindowScheduler::new(&levels, cfg.clone());
            let mut published: Vec<Vec<f64>> = Vec::new();
            let (mut released, mut id) = (Vec::new(), 0u64);
            let (mut planned, mut dispatched) = ([0.0f64; 3], [0.0f64; 3]);
            for (arrivals, kind, x) in &windows {
                for &p in arrivals {
                    core.on_arrival(Request::unit(id, PrincipalId(p), 0.0));
                    id += 1;
                }
                let v = view(*kind, *x, &published);
                let demand = core.on_window_tick(v.as_deref(), None, &mut released).to_vec();
                prop_assert_eq!(demand.len(), 3);
                if explicit {
                    let usable = v.as_deref().filter(|v| {
                        v.len() == 3 && v.iter().all(|x| x.is_finite() && *x >= 0.0)
                    });
                    let plan = twin.plan_window_shared(usable, &demand);
                    for (i, total) in planned.iter_mut().enumerate() {
                        *total += plan.admitted(PrincipalId(i));
                    }
                    for (req, _) in &released {
                        dispatched[req.principal.0] += req.cost;
                    }
                    for (i, (out, budget)) in dispatched.iter().zip(&planned).enumerate() {
                        prop_assert!(*out <= budget + 1e-6,
                            "principal {}: released {} > planned {}", i, out, budget);
                    }
                }
                published.push(demand);
            }
        }
    }
}
