//! Transitive flow computation (paper Figure 5, Formulae 1–2).
//!
//! `MI_ji` — the mandatory resource flow from principal `j`'s physical
//! capacity into principal `i`'s currency — is the sum over all *simple*
//! paths `j → k_1 → … → i` of `V_j · lb(j,k_1) · lb(k_1,k_2) ⋯ lb(k_{r}, i)`:
//! mandatory value flows along mandatory tickets only.
//!
//! `OI_ji` — the optional flow — captures paths where mandatory value
//! travels some prefix of the path via mandatory tickets, crosses *one*
//! optional ticket (the `ub − lb` slice), and continues via agreement upper
//! bounds thereafter: for a path with edges `e_1 … e_m`,
//! `Σ_{r=0}^{m-1} (Π_{s≤r} lb_s) · (ub_{r+1} − lb_{r+1}) · (Π_{s>r+1} ub_s)`.
//!
//! Both sums exclude paths revisiting a node (the paper's summation
//! constraints `k_p ≠ k_q, k ≠ i, j`), so cyclic agreement graphs are safe.
//! Because `MI_ji = V_j × MT_ji` and `OI_ji = V_j × OT_ji`, the `MT`/`OT`
//! coefficient matrices are precomputed once per graph shape and reused as
//! capacities fluctuate.
//!
//! # Complexity
//!
//! Exact simple-path enumeration is exponential in the worst case (dense
//! graphs with many long chains of agreements). This is fine for the
//! paper's setting — "the number of principals involved in the agreements
//! … is expected to be small" — and the computation runs *once per graph
//! shape*, not per window. For large, dense communities use the paper's
//! own remedy: the bounded-length truncation
//! [`crate::AgreementGraph::flows_bounded`] (`MI^(m)`/`OI^(m)` with small
//! `m`), which caps path length and is what transitive value decays along
//! anyway (each hop multiplies by `lb ≤ 1`).

use crate::{AgreementGraph, PrincipalId};
use serde::{Deserialize, Serialize};

/// Options controlling the flow computation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowOptions {
    /// Maximum number of tickets (edges) per transitive path; `None` means
    /// unbounded, i.e. the full transitive closure over simple paths (which
    /// have at most `n − 1` edges).
    pub max_path_len: Option<usize>,
}

/// Precomputed flow coefficient matrices for an agreement graph.
///
/// `mt[j][i]` (`MT_ji`) and `ot[j][i]` (`OT_ji`) are the capacity-independent
/// coefficients such that `MI_ji = V_j × MT_ji` and `OI_ji = V_j × OT_ji`.
/// Diagonals are `MT_jj = 1`, `OT_jj = 0` (a principal's own capacity flows
/// to itself entirely and mandatorily).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowMatrices {
    n: usize,
    mt: Vec<Vec<f64>>,
    ot: Vec<Vec<f64>>,
    /// `Σ_k lb_ik` per principal: the fraction of `i`'s currency leaked out
    /// via mandatory tickets.
    out_fraction: Vec<f64>,
}

impl FlowMatrices {
    /// Runs the path enumeration for `graph` under `opts`.
    pub fn compute(graph: &AgreementGraph, opts: FlowOptions) -> Self {
        let n = graph.len();
        let mut mt = vec![vec![0.0; n]; n];
        let mut ot = vec![vec![0.0; n]; n];
        for (j, row) in mt.iter_mut().enumerate() {
            row[j] = 1.0;
        }

        // Adjacency: edges[i] = list of (holder, lb, ub) issued by i.
        let mut edges: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); n];
        for a in graph.agreements() {
            edges[a.issuer.0].push((a.holder.0, a.lb.get(), a.ub.get()));
        }

        let max_len = opts.max_path_len.unwrap_or(n.saturating_sub(1)).min(n.saturating_sub(1));

        // DFS from every source j over simple paths, carrying two partial
        // products: `mand` = Π lb so far (mandatory value still flowing), and
        // `opt` = Σ over earlier switch points of mand-prefix × (ub−lb) ×
        // ub-suffix so far. At each new edge (lb, ub):
        //   opt'  = opt × ub + mand × (ub − lb)   (either already optional and
        //            propagating at the upper bound, or switching here)
        //   mand' = mand × lb
        for j in 0..n {
            let mut visited = vec![false; n];
            visited[j] = true;
            Self::dfs(j, j, 1.0, 0.0, 0, max_len, &edges, &mut visited, &mut mt, &mut ot);
        }

        let out_fraction = (0..n)
            .map(|i| graph.mandatory_out_fraction(PrincipalId(i)))
            .collect();

        FlowMatrices { n, mt, ot, out_fraction }
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        src: usize,
        at: usize,
        mand: f64,
        opt: f64,
        depth: usize,
        max_len: usize,
        edges: &[Vec<(usize, f64, f64)>],
        visited: &mut [bool],
        mt: &mut [Vec<f64>],
        ot: &mut [Vec<f64>],
    ) {
        if depth == max_len {
            return;
        }
        for &(next, lb, ub) in &edges[at] {
            if visited[next] {
                continue;
            }
            let nmand = mand * lb;
            let nopt = opt * ub + mand * (ub - lb);
            if nmand > 0.0 || nopt > 0.0 {
                mt[src][next] += nmand;
                ot[src][next] += nopt;
                visited[next] = true;
                Self::dfs(src, next, nmand, nopt, depth + 1, max_len, edges, visited, mt, ot);
                visited[next] = false;
            }
        }
    }

    /// Number of principals.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph had no principals.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Capacity-independent mandatory coefficient `MT_ji` (flow from `j`'s
    /// physical resource into `i`'s currency, per unit of `V_j`).
    #[inline]
    pub fn mt(&self, j: PrincipalId, i: PrincipalId) -> f64 {
        self.mt[j.0][i.0]
    }

    /// Capacity-independent optional coefficient `OT_ji`.
    #[inline]
    pub fn ot(&self, j: PrincipalId, i: PrincipalId) -> f64 {
        self.ot[j.0][i.0]
    }

    /// Mandatory flow `MI_ji = V_j × MT_ji` for concrete capacities `v`.
    #[inline]
    pub fn mi(&self, v: &[f64], j: PrincipalId, i: PrincipalId) -> f64 {
        v[j.0] * self.mt[j.0][i.0]
    }

    /// Optional flow `OI_ji = V_j × OT_ji` for concrete capacities `v`.
    #[inline]
    pub fn oi(&self, v: &[f64], j: PrincipalId, i: PrincipalId) -> f64 {
        v[j.0] * self.ot[j.0][i.0]
    }

    /// The mandatory leak-out fraction `Σ_k lb_ik` of principal `i`.
    #[inline]
    pub fn out_fraction(&self, i: PrincipalId) -> f64 {
        self.out_fraction[i.0]
    }

    /// The real mandatory value of `i`'s currency: `V_i + Σ_{j≠i} MI_ji`
    /// (before excluding outbound leaks). In Figure 3 this is 1900 for `B`.
    pub fn currency_mandatory_value(&self, v: &[f64], i: PrincipalId) -> f64 {
        (0..self.n).map(|j| v[j] * self.mt[j][i.0]).sum()
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
    fn figure3_mandatory_currency_values() {
        let (g, a, b, c) = figure3();
        let f = g.flows();
        let v = g.capacities();
        // B's currency: 1500 + 1000×0.4 = 1900; C's: 0.6×1900 = 1140.
        assert!((f.currency_mandatory_value(&v, a) - 1000.0).abs() < 1e-9);
        assert!((f.currency_mandatory_value(&v, b) - 1900.0).abs() < 1e-9);
        assert!((f.currency_mandatory_value(&v, c) - 1140.0).abs() < 1e-9);
    }

    #[test]
    fn figure3_flow_coefficients() {
        let (g, a, b, c) = figure3();
        let f = g.flows();
        // MT: A→B 0.4; A→C 0.4×0.6 = 0.24; B→C 0.6.
        assert!((f.mt(a, b) - 0.4).abs() < 1e-12);
        assert!((f.mt(a, c) - 0.24).abs() < 1e-12);
        assert!((f.mt(b, c) - 0.6).abs() < 1e-12);
        assert_eq!(f.mt(b, a), 0.0);
        assert_eq!(f.mt(c, a), 0.0);
        // OT: A→B 0.2; B→C 0.4; A→C 0.2×1.0 + 0.4×0.4 = 0.36.
        assert!((f.ot(a, b) - 0.2).abs() < 1e-12);
        assert!((f.ot(b, c) - 0.4).abs() < 1e-12);
        assert!((f.ot(a, c) - 0.36).abs() < 1e-12);
    }

    #[test]
    fn figure3_ticket_real_values_from_flows() {
        // The paper's real values: M-Ticket1 1000×0.4 = 400, O-Ticket2
        // 1000×0.2 = 200, M-Ticket3 1900×0.6 = 1140, and O-Ticket4
        // 1900×0.4 + 200×1.0 = 960. In flow terms a mandatory ticket is the
        // issuer's real value times lb, and C's optional in-flow is
        // V_A×OT_AC + V_B×OT_BC.
        let (g, a, b, c) = figure3();
        let f = g.flows();
        let v = g.capacities();
        let m_ticket1 = f.currency_mandatory_value(&v, a) * 0.4;
        let m_ticket3 = f.currency_mandatory_value(&v, b) * 0.6;
        let o_ticket2 = f.oi(&v, a, b);
        let o_ticket4 = f.oi(&v, a, c) + f.oi(&v, b, c);
        let real_values =
            [(m_ticket1, 400.0), (o_ticket2, 200.0), (m_ticket3, 1140.0), (o_ticket4, 960.0)];
        for (got, paper) in real_values {
            assert!((got - paper).abs() < 1e-9, "{got} != {paper}");
        }
    }

    #[test]
    fn bounded_path_length_truncates_transitive_flows() {
        let (g, a, _b, c) = figure3();
        // Paths of length ≤ 1 capture only direct agreements: no A→C flow.
        let f1 = g.flows_bounded(1);
        assert_eq!(f1.mt(a, c), 0.0);
        assert_eq!(f1.ot(a, c), 0.0);
        // Length ≤ 2 recovers the full closure for this 3-node chain.
        let f2 = g.flows_bounded(2);
        assert!((f2.mt(a, c) - 0.24).abs() < 1e-12);
    }

    #[test]
    fn cycles_do_not_diverge() {
        // A ⇄ B with generous bounds: simple-path restriction must keep the
        // flows finite and each pair's coefficient a plain product.
        let mut g = AgreementGraph::new();
        let a = g.add_principal("A", 100.0);
        let b = g.add_principal("B", 200.0);
        g.add_agreement(a, b, 0.5, 1.0).unwrap();
        g.add_agreement(b, a, 0.5, 1.0).unwrap();
        let f = g.flows();
        assert!((f.mt(a, b) - 0.5).abs() < 1e-12);
        assert!((f.mt(b, a) - 0.5).abs() < 1e-12);
        // No A→B→A→B… amplification.
        assert!(f.mt(a, a) <= 1.0 + 1e-12);
    }

    #[test]
    fn three_cycle_flows_are_simple_paths_only() {
        let mut g = AgreementGraph::new();
        let a = g.add_principal("A", 90.0);
        let b = g.add_principal("B", 90.0);
        let c = g.add_principal("C", 90.0);
        g.add_agreement(a, b, 0.3, 0.3).unwrap();
        g.add_agreement(b, c, 0.3, 0.3).unwrap();
        g.add_agreement(c, a, 0.3, 0.3).unwrap();
        let f = g.flows();
        // A→C: only the path A→B→C (A→B→C→A→… revisits A).
        assert!((f.mt(a, c) - 0.09).abs() < 1e-12);
        assert!((f.mt(a, b) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn conservation_of_mandatory_flow_per_source() {
        // For any graph, the retained shares of one source's capacity across
        // all principals sum to exactly that capacity:
        //   Σ_i MT_ji × (1 − out_i) = 1 when every lb-budget leak eventually
        // terminates (acyclic case).
        let (g, ..) = figure3();
        let f = g.flows();
        for j in 0..g.len() {
            let total: f64 = (0..g.len())
                .map(|i| f.mt[j][i] * (1.0 - f.out_fraction[i]))
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "source {j}: {total}");
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = AgreementGraph::new();
        let f = g.flows();
        assert!(f.is_empty());

        let mut g = AgreementGraph::new();
        let a = g.add_principal("solo", 42.0);
        let f = g.flows();
        assert_eq!(f.len(), 1);
        assert_eq!(f.mt(a, a), 1.0);
        assert_eq!(f.ot(a, a), 0.0);
        assert!((f.currency_mandatory_value(&[42.0], a) - 42.0).abs() < 1e-12);
    }
}
