//! Per-principal and per-pair access levels (paper Formulae 3–4).
//!
//! Reduces the flow coefficients to the quantities the scheduling LPs
//! consume, one sparse row per principal:
//!
//! * `mand_share(i, j)` — the amount of `j`'s *physical* capacity that
//!   principal `i` is mandatorily entitled to: the flow `V_j × MT_ji`
//!   retained at `i` (scaled by `1 − Σ_k lb_ik`, the part `i` does not pass
//!   along). Per physical server `j`, `Σ_i mand_share(i, j) ≤ V_j`.
//! * `opt_share(i, j)` — the optional entitlement: optional in-flows
//!   `V_j × OT_ji` plus the mandatory flow that arrived at `i` but was passed
//!   on to others (reserved for them, usable by `i` while they are idle).
//!   Optional shares may oversubscribe a server; they are best-effort.
//! * `MC_i = Σ_j mand_share(i, j)` and `OC_i = Σ_j opt_share(i, j)` — the
//!   final (mandatory, optional) remaining value of `i`'s currency.

use crate::{AgreementGraph, FlowMatrices, PrincipalId};
use serde::{Deserialize, Serialize};

/// The scheduler-facing view of an agreement graph: who may use how much of
/// whose physical capacity, in guaranteed and best-effort tiers.
///
/// One sparse row per principal `i`: `(j, mand_share(i, j), opt_share(i, j))`
/// for every server `j` whose capacity reaches `i` along some agreement
/// path, `j` ascending, `i`'s own server included. An absent pair reads 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccessLevels {
    n: usize,
    /// Row `i` is `entries[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    entries: Vec<(usize, f64, f64)>,
    /// Physical capacities `V_j` the table was computed for.
    capacities: Vec<f64>,
}

impl AccessLevels {
    /// Derives access levels from precomputed flow matrices and the graph's
    /// current capacities.
    pub fn from_flows(graph: &AgreementGraph, flows: &FlowMatrices) -> Self {
        let v = graph.capacities();
        Self::from_flows_with_capacities(flows, &v)
    }

    /// Same as [`Self::from_flows`] but with an explicit capacity vector
    /// (agreements are interpreted dynamically; capacities may fluctuate
    /// without re-running the closure). The flow rows are transposed:
    /// source `j`'s entry for `i` becomes server `j` in row `i`, and since
    /// sources are taken in order every row comes out server-sorted.
    pub fn from_flows_with_capacities(flows: &FlowMatrices, v: &[f64]) -> Self {
        let n = flows.len();
        assert_eq!(v.len(), n, "capacity vector length must match principal count");
        let sources = || (0..n).map(|j| (j, flows.row(PrincipalId(j))));
        let mut starts = vec![0; n + 1];
        for (_, row) in sources() {
            for &(i, ..) in row {
                starts[i + 1] += 1;
            }
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        let mut fill = starts.clone();
        let mut entries = vec![(0, 0.0, 0.0); starts[n]];
        for (j, row) in sources() {
            for &(i, mt, ot) in row {
                let leak = flows.out_fraction(PrincipalId(i));
                let keep = 1.0 - leak;
                let mi = v[j] * mt;
                let oi = v[j] * ot;
                // Optional = optional in-flow + reusable mandatory out-flow.
                entries[fill[i]] = (j, mi * keep, oi + mi * leak);
                fill[i] += 1;
            }
        }
        AccessLevels { n, starts, entries, capacities: v.to_vec() }
    }

    /// Number of principals.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no principals.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Row `i`: `(j, mand_share(i, j), opt_share(i, j))` for every server
    /// `j` whose capacity reaches `i`, `j` ascending.
    #[inline]
    pub fn row(&self, i: PrincipalId) -> &[(usize, f64, f64)] {
        &self.entries[self.starts[i.0]..self.starts[i.0 + 1]]
    }

    fn entry(&self, i: PrincipalId, j: PrincipalId) -> Option<&(usize, f64, f64)> {
        let row = self.row(i);
        row.binary_search_by_key(&j.0, |e| e.0).ok().map(|at| &row[at])
    }

    /// Mandatory entitlement of principal `i` on server `j` (the LP's
    /// pairwise lower bound `MI_ji`).
    #[inline]
    pub fn mand_share(&self, i: PrincipalId, j: PrincipalId) -> f64 {
        self.entry(i, j).map_or(0.0, |e| e.1)
    }

    /// Optional entitlement of principal `i` on server `j` (the LP's
    /// pairwise slack `OI_ji`).
    #[inline]
    pub fn opt_share(&self, i: PrincipalId, j: PrincipalId) -> f64 {
        self.entry(i, j).map_or(0.0, |e| e.2)
    }

    /// `MC_i`: total guaranteed processing rate for principal `i`.
    pub fn mandatory(&self, i: PrincipalId) -> f64 {
        self.row(i).iter().map(|e| e.1).sum()
    }

    /// `OC_i`: total additional best-effort processing rate for `i`.
    pub fn optional(&self, i: PrincipalId) -> f64 {
        self.row(i).iter().map(|e| e.2).sum()
    }

    /// The capacity vector the table was computed against.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Scales every entitlement by `window_secs`, converting rates
    /// (requests/second) into per-window request budgets.
    pub fn scaled(&self, window_secs: f64) -> AccessLevels {
        AccessLevels {
            n: self.n,
            starts: self.starts.clone(),
            entries: self
                .entries
                .iter()
                .map(|&(j, m, o)| (j, m * window_secs, o * window_secs))
                .collect(),
            capacities: self.capacities.iter().map(|c| c * window_secs).collect(),
        }
    }

    /// Verifies the physical soundness invariant: per server `j`, the sum of
    /// mandatory entitlements does not exceed `V_j` (within `tol`). Returns
    /// the worst violation if any.
    pub fn check_mandatory_feasible(&self, tol: f64) -> Result<(), (usize, f64)> {
        let mut totals = vec![0.0; self.n];
        for &(j, m, _) in &self.entries {
            totals[j] += m;
        }
        for (j, total) in totals.into_iter().enumerate() {
            if total > self.capacities[j] + tol {
                return Err((j, total - self.capacities[j]));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AgreementGraph;

    fn figure3() -> (AgreementGraph, PrincipalId, PrincipalId, PrincipalId) {
        let mut g = AgreementGraph::new();
        let a = g.add_principal("A", 1000.0);
        let b = g.add_principal("B", 1500.0);
        let c = g.add_principal("C", 0.0);
        g.add_agreement(a, b, 0.4, 0.6).unwrap();
        g.add_agreement(b, c, 0.6, 1.0).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn figure3_final_currency_values() {
        let (g, a, b, c) = figure3();
        let lv = g.access_levels();
        // Paper: (600,400) for A, (760,1340) for B, (1140,960) for C.
        assert!((lv.mandatory(a) - 600.0).abs() < 1e-9);
        assert!((lv.optional(a) - 400.0).abs() < 1e-9);
        assert!((lv.mandatory(b) - 760.0).abs() < 1e-9);
        assert!((lv.optional(b) - 1340.0).abs() < 1e-9);
        assert!((lv.mandatory(c) - 1140.0).abs() < 1e-9);
        assert!((lv.optional(c) - 960.0).abs() < 1e-9);
    }

    #[test]
    fn figure3_pairwise_physical_decomposition() {
        let (g, a, b, c) = figure3();
        let lv = g.access_levels();
        // C's mandatory 1140 decomposes physically: 900 on B, 240 on A.
        assert!((lv.mand_share(c, b) - 900.0).abs() < 1e-9);
        assert!((lv.mand_share(c, a) - 240.0).abs() < 1e-9);
        // B keeps 600 of its own server and 160 of A's.
        assert!((lv.mand_share(b, b) - 600.0).abs() < 1e-9);
        assert!((lv.mand_share(b, a) - 160.0).abs() < 1e-9);
        // Optional: B gets 440 on A (200 direct + 240 reuse) and 900 on B.
        assert!((lv.opt_share(b, a) - 440.0).abs() < 1e-9);
        assert!((lv.opt_share(b, b) - 900.0).abs() < 1e-9);
        // C's optional: 360 on A, 600 on B.
        assert!((lv.opt_share(c, a) - 360.0).abs() < 1e-9);
        assert!((lv.opt_share(c, b) - 600.0).abs() < 1e-9);
    }

    #[test]
    fn mandatory_shares_partition_each_server() {
        let (g, a, b, ..) = figure3();
        let lv = g.access_levels();
        lv.check_mandatory_feasible(1e-9).unwrap();
        // For this acyclic graph the partition is exact.
        let n = g.len();
        for (j, cap) in [(a, 1000.0), (b, 1500.0)] {
            let total: f64 = (0..n).map(|i| lv.mand_share(PrincipalId(i), j)).sum();
            assert!((total - cap).abs() < 1e-9, "server {j}: {total} != {cap}");
        }
    }

    #[test]
    fn scaled_converts_rates_to_window_budgets() {
        let (g, _a, b, ..) = figure3();
        let lv = g.access_levels().scaled(0.1); // 100 ms windows
        assert!((lv.mandatory(b) - 76.0).abs() < 1e-9);
        assert!((lv.optional(b) - 134.0).abs() < 1e-9);
        assert!((lv.capacities()[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn dynamic_capacity_change_reflows() {
        let (mut g, a, b, _c) = figure3();
        g.set_capacity(a, 2000.0).unwrap();
        let lv = g.access_levels();
        // B's currency value becomes 1500 + 2000×0.4 = 2300; MC_B = 920.
        assert!((lv.mandatory(b) - 920.0).abs() < 1e-9);
        assert!((lv.mandatory(a) - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn no_agreements_means_own_capacity_only() {
        let mut g = AgreementGraph::new();
        let a = g.add_principal("A", 320.0);
        let b = g.add_principal("B", 250.0);
        let lv = g.access_levels();
        assert_eq!(lv.mandatory(a), 320.0);
        assert_eq!(lv.optional(a), 0.0);
        assert_eq!(lv.mand_share(a, b), 0.0);
        assert_eq!(lv.mandatory(b), 250.0);
    }

    #[test]
    fn service_provider_pattern_splits_capacity() {
        // Provider S (V=320) with customers A [0.2,1] and B [0.8,1]
        // (Figure 6 setup). A and B own no resources themselves.
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 320.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.2, 1.0).unwrap();
        g.add_agreement(s, b, 0.8, 1.0).unwrap();
        let lv = g.access_levels();
        assert!((lv.mandatory(a) - 64.0).abs() < 1e-9); // 20% of 320
        assert!((lv.mandatory(b) - 256.0).abs() < 1e-9); // 80% of 320
        assert_eq!(lv.mandatory(s), 0.0); // fully committed
        // Both can burst to the full server optionally.
        assert!((lv.optional(a) - 256.0).abs() < 1e-9); // (1.0-0.2)×320
        assert!((lv.optional(b) - 64.0).abs() < 1e-9);
        lv.check_mandatory_feasible(1e-9).unwrap();
    }
}
