//! Property tests for the queuing structures behind the enforcement core.

use covenant_agreements::PrincipalId;
use covenant_enforce::{Admission, CreditGate, PrincipalQueues};
use covenant_sched::{Plan, Request};
use proptest::prelude::*;

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
}
