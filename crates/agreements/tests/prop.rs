//! Property tests for agreement-graph flow computation.

use covenant_agreements::{AgreementGraph, PrincipalId};
use proptest::prelude::*;

/// Strategy: a random valid agreement graph. Edges are attempted in a
/// deterministic order; each issuer's mandatory budget is respected so
/// construction never fails.
fn graph_strategy() -> impl Strategy<Value = AgreementGraph> {
    (2usize..7).prop_flat_map(|n| {
        let caps = proptest::collection::vec(0.0..1000.0f64, n);
        let edges = proptest::collection::vec((0.0..0.35f64, 0.0..0.5f64, any::<bool>()), n * n);
        (caps, edges).prop_map(move |(caps, edges)| {
            let mut g = AgreementGraph::new();
            let ids: Vec<_> = caps
                .iter()
                .enumerate()
                .map(|(i, &c)| g.add_principal(format!("P{i}"), c))
                .collect();
            let mut budget = vec![1.0f64; n];
            for (idx, (lb_raw, width, enabled)) in edges.into_iter().enumerate() {
                if !enabled {
                    continue;
                }
                let i = idx / n;
                let j = idx % n;
                if i == j {
                    continue;
                }
                let lb = lb_raw.min(budget[i] - 0.01).max(0.0);
                let ub = (lb + width).min(1.0);
                if g.add_agreement(ids[i], ids[j], lb, ub).is_ok() {
                    budget[i] -= lb;
                }
            }
            g
        })
    })
}

proptest! {
    /// Mandatory entitlements never oversubscribe any physical server.
    #[test]
    fn mandatory_shares_feasible(g in graph_strategy()) {
        let lv = g.access_levels();
        prop_assert!(lv.check_mandatory_feasible(1e-6).is_ok());
    }

    /// Every principal's guaranteed (mandatory) entitlement is bounded by
    /// total system capacity, and optional entitlements are finite and
    /// non-negative. (Optional entitlements deliberately *overbook*: claims
    /// along multiple transitive paths may sum past physical capacity —
    /// they are best-effort, and the scheduling LP's capacity constraints
    /// cap actual usage.)
    #[test]
    fn mandatory_bounded_optional_sane(g in graph_strategy()) {
        let lv = g.access_levels();
        let total: f64 = g.capacities().iter().sum();
        for i in 0..g.len() {
            let p = PrincipalId(i);
            prop_assert!(lv.mandatory(p) <= total + 1e-6);
            prop_assert!(lv.mandatory(p) >= -1e-9);
            prop_assert!(lv.optional(p).is_finite());
            prop_assert!(lv.optional(p) >= -1e-9);
        }
    }

    /// Global mandatory conservation: what everyone is guaranteed in sum
    /// never exceeds physical capacity, and for graphs where every issued
    /// lb-chain terminates it is exactly the total capacity.
    #[test]
    fn mandatory_sum_never_exceeds_capacity(g in graph_strategy()) {
        let lv = g.access_levels();
        let total: f64 = g.capacities().iter().sum();
        let sum: f64 = (0..g.len()).map(|i| lv.mandatory(PrincipalId(i))).sum();
        prop_assert!(sum <= total + 1e-6, "Σ MC {sum} > ΣV {total}");
    }

    /// Scaling access levels by a window length scales every quantity
    /// linearly.
    #[test]
    fn window_scaling_is_linear(g in graph_strategy(), w in 0.01..10.0f64) {
        let lv = g.access_levels();
        let scaled = lv.scaled(w);
        for i in 0..g.len() {
            let p = PrincipalId(i);
            prop_assert!((scaled.mandatory(p) - lv.mandatory(p) * w).abs() < 1e-6);
            prop_assert!((scaled.optional(p) - lv.optional(p) * w).abs() < 1e-6);
        }
    }

    /// Doubling every capacity doubles every entitlement (the dynamic
    /// interpretation of agreements).
    #[test]
    fn entitlements_scale_with_capacity(g in graph_strategy()) {
        let lv1 = g.access_levels();
        let mut g2 = g.clone();
        for i in 0..g.len() {
            let c = g.principal(PrincipalId(i)).capacity;
            g2.set_capacity(PrincipalId(i), c * 2.0).unwrap();
        }
        let lv2 = g2.access_levels();
        for i in 0..g.len() {
            let p = PrincipalId(i);
            prop_assert!((lv2.mandatory(p) - 2.0 * lv1.mandatory(p)).abs() < 1e-6);
            prop_assert!((lv2.optional(p) - 2.0 * lv1.optional(p)).abs() < 1e-6);
        }
    }
}
