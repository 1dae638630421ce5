//! Property tests for combining-tree aggregation.

use covenant_tree::{DelayedView, QueueStats, Topology};
use proptest::prelude::*;

/// Strategy: random valid parent arrays (node i's parent < i → acyclic,
/// rooted at 0) with random edge delays, then a random per-node vector.
fn topology_and_locals() -> impl Strategy<Value = (Topology, Vec<Vec<f64>>)> {
    (1usize..20, 1usize..5).prop_flat_map(|(n, width)| {
        let parents = proptest::collection::vec(0usize..20, n.saturating_sub(1));
        let delays = proptest::collection::vec(0.0..2.0f64, n);
        let locals = proptest::collection::vec(
            proptest::collection::vec(0.0..100.0f64, width),
            n,
        );
        (parents, delays, locals).prop_map(move |(rawp, delays, locals)| {
            let parents: Vec<Option<usize>> = std::iter::once(None)
                .chain(rawp.iter().enumerate().map(|(i, &r)| Some(r % (i + 1))))
                .collect();
            let t = Topology::from_parents(&parents, &delays).expect("valid by construction");
            (t, locals)
        })
    })
}

proptest! {
    /// Tree aggregation equals the flat element-wise sum for any topology.
    #[test]
    fn aggregate_equals_flat_sum((t, locals) in topology_and_locals()) {
        let round = t.aggregate(&locals);
        let width = locals[0].len();
        for k in 0..width {
            let flat: f64 = locals.iter().map(|v| v[k]).sum();
            prop_assert!((round.total[k] - flat).abs() < 1e-6);
        }
        prop_assert_eq!(round.messages(), 2 * (t.len() - 1));
    }

    /// Latency equals twice the worst node-to-root delay.
    #[test]
    fn latency_is_twice_worst_depth((t, locals) in topology_and_locals()) {
        let round = t.aggregate(&locals);
        let worst = (0..t.len()).map(|i| t.delay_to_root(i)).fold(0.0, f64::max);
        prop_assert!((round.latency - 2.0 * worst).abs() < 1e-9);
        // Per-node information lag ≥ the worst up-delay.
        for i in 0..t.len() {
            prop_assert!(t.information_lag(i) >= worst - 1e-9);
        }
    }

    /// QueueStats merging is order-independent: any binary merge tree over
    /// the same observations yields the flat summary.
    #[test]
    fn stats_merge_order_independent(values in proptest::collection::vec(0.0..1e6f64, 1..40), split in 1usize..39) {
        let flat = QueueStats::of_slice(&values);
        let k = split.min(values.len() - 1).max(1).min(values.len());
        let left = QueueStats::of_slice(&values[..k]);
        let right = QueueStats::of_slice(&values[k..]);
        let merged = left.merge(&right);
        prop_assert_eq!(merged.count, flat.count);
        prop_assert!((merged.sum - flat.sum).abs() < 1e-6);
        prop_assert!((merged.max - flat.max).abs() < 1e-12);
        prop_assert!((merged.min - flat.min).abs() < 1e-12);
    }

    /// DelayedView never reveals a value younger than the lag, and always
    /// reveals the newest sufficiently-old value (to a read that, as the
    /// view requires, does not precede the newest publish).
    #[test]
    fn delayed_view_respects_lag(
        lag in 0.0..5.0f64,
        times in proptest::collection::vec(0.0..10.0f64, 1..20),
        wait in 0.0..10.0f64,
    ) {
        let mut sorted = times.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut view = DelayedView::new(lag);
        for (i, &t) in sorted.iter().enumerate() {
            view.publish(t, i);
        }
        let probe = sorted[sorted.len() - 1] + wait;
        let got = view.read(probe).copied();
        let expected = sorted
            .iter()
            .enumerate()
            .filter(|(_, &t)| t <= probe - lag)
            .map(|(i, _)| i)
            .next_back();
        prop_assert_eq!(got, expected);
    }
}
