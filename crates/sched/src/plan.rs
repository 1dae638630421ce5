//! The per-window schedule produced by the LP solvers.

use covenant_agreements::PrincipalId;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A solved per-window schedule: how many requests of each principal to
/// forward to each server this window.
///
/// Stored as one sparse row per principal — `(server, amount)` entries in
/// ascending server order — because a principal can only ever be sent to
/// the few servers it holds an agreement on: a plan over `n` principals
/// costs `O(agreements)`, not `n²`. A server absent from a row carries
/// zero; a row may also hold explicit zeros (the schedulers emit one entry
/// per agreement-backed pair whatever its amount).
///
/// Entries are fractional request counts; integerization (with carry-over)
/// happens in `covenant-enforce`'s `CreditGate` / `PrincipalQueues`.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Row `i` is entries `row_start[i]..row_start[i + 1]`.
    pub(crate) row_start: Vec<u32>,
    /// Server of each entry, ascending within a row.
    pub(crate) servers: Vec<u32>,
    /// Requests of the row's principal sent to that server.
    pub(crate) amounts: Vec<f64>,
    /// The community objective `θ` (fraction of every queue served), when
    /// the community model produced this plan.
    pub theta: Option<f64>,
    /// The provider income `Σ p_i (x_i − MC_i)`, when the provider model
    /// produced this plan.
    pub income: Option<f64>,
}

impl Clone for Plan {
    fn clone(&self) -> Self {
        Plan {
            row_start: self.row_start.clone(),
            servers: self.servers.clone(),
            amounts: self.amounts.clone(),
            theta: self.theta,
            income: self.income,
        }
    }

    /// Reuses `self`'s buffers (the credit gate installs a plan per window).
    fn clone_from(&mut self, source: &Self) {
        self.row_start.clone_from(&source.row_start);
        self.servers.clone_from(&source.servers);
        self.amounts.clone_from(&source.amounts);
        self.theta = source.theta;
        self.income = source.income;
    }
}

impl Plan {
    /// An all-zero plan over `n` principals (used when a window has no
    /// demand, or as the failure fallback).
    pub fn zero(n: usize) -> Self {
        Plan {
            row_start: vec![0; n + 1],
            servers: Vec::new(),
            amounts: Vec::new(),
            theta: None,
            income: None,
        }
    }

    /// Builds a plan from a dense matrix, `rows[i][k]` being the requests
    /// of principal `i` sent to server `k`; zero cells are left out.
    pub fn from_dense(rows: &[Vec<f64>]) -> Self {
        let mut plan = Plan::zero(0);
        for row in rows {
            // Exact-zero sparsity skip, not a tolerance.
            plan.push_row(row.iter().enumerate().filter(|(_, &x)| x != 0.0).map(|(k, &x)| (k, x))); // covenant: allow(float-eq)
        }
        plan
    }

    /// Appends the next principal's row; `entries` ascend by server.
    pub(crate) fn push_row(&mut self, entries: impl IntoIterator<Item = (usize, f64)>) {
        for (k, x) in entries {
            self.servers.push(k as u32);
            self.amounts.push(x);
        }
        self.row_start.push(self.servers.len() as u32);
    }

    /// Number of principals.
    pub fn n_principals(&self) -> usize {
        self.row_start.len() - 1
    }

    /// Where principal `i`'s entries sit in [`Self::servers`] and
    /// [`Self::amounts`].
    #[inline]
    pub fn row_range(&self, i: usize) -> Range<usize> {
        self.row_start[i] as usize..self.row_start[i + 1] as usize
    }

    /// The server of every entry, row after row.
    #[inline]
    pub fn servers(&self) -> &[u32] {
        &self.servers
    }

    /// The amount of every entry, parallel to [`Self::servers`].
    #[inline]
    pub fn amounts(&self) -> &[f64] {
        &self.amounts
    }

    /// Principal `i`'s `(server, amount)` entries, ascending by server.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let r = self.row_range(i);
        self.servers[r.clone()].iter().map(|&k| k as usize).zip(self.amounts[r].iter().copied())
    }

    /// Requests of principal `i` sent to server `k` (`x_ik`).
    pub fn amount(&self, i: usize, k: usize) -> f64 {
        self.row(i).find(|&(s, _)| s == k).map_or(0.0, |(_, x)| x)
    }

    /// Total admitted for principal `i` across all servers (`Σ_k x_ik`).
    pub fn admitted(&self, i: PrincipalId) -> f64 {
        self.amounts[self.row_range(i.0)].iter().sum()
    }

    /// Total load placed on server `k` (`Σ_i x_ik`).
    pub fn server_load(&self, k: usize) -> f64 {
        self.servers.iter().zip(&self.amounts).filter(|(&s, _)| s as usize == k).map(|(_, x)| x).sum()
    }

    /// Total requests admitted across all principals.
    pub fn total_admitted(&self) -> f64 {
        self.amounts.iter().sum()
    }

    /// Writes `amounts` (clamped at zero) over this plan's entries, in
    /// entry order, and sets `theta` — how the community scheduler turns
    /// an LP solution, one variable per entry, into the plan it keeps.
    pub(crate) fn fill_amounts(&mut self, amounts: &[f64], theta: Option<f64>) {
        for (a, &x) in self.amounts.iter_mut().zip(amounts) {
            *a = x.max(0.0);
        }
        self.theta = theta;
    }

    /// Makes this plan `src` with every entry of row `i` multiplied by
    /// `factor(i)`, in this plan's buffers.
    pub(crate) fn scale_rows_from(&mut self, src: &Plan, factor: impl Fn(usize) -> f64) {
        self.clone_from(src);
        for i in 0..src.n_principals() {
            let f = factor(i);
            for x in &mut self.amounts[src.row_range(i)] {
                *x *= f;
            }
        }
    }

    /// The coordinated-scheduling rule of §3.2, written into `out`: a
    /// redirector holding `n_local` of the global `n_global` queued
    /// requests per principal applies the same *fraction* of each queue the
    /// global plan does: `x_local_ij = x_ij × n_local_i / n_i`.
    ///
    /// Principals with an empty global queue get zero (nothing to scale).
    /// `out` keeps its buffers, so a redirector that scales into the one
    /// local plan it keeps allocates nothing once that plan has grown to
    /// the global one.
    pub fn scale_for_local_queue(&self, n_local: &[f64], n_global: &[f64], out: &mut Plan) {
        assert_eq!(n_local.len(), self.n_principals());
        assert_eq!(n_global.len(), self.n_principals());
        out.scale_rows_from(self, |i| {
            if n_global[i] > 0.0 {
                (n_local[i] / n_global[i]).clamp(0.0, 1.0)
            } else {
                0.0
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `plan` scaled to the local queues, in a plan of its own.
    fn local(plan: &Plan, n_local: &[f64], n_global: &[f64]) -> Plan {
        let mut out = Plan::zero(0);
        plan.scale_for_local_queue(n_local, n_global, &mut out);
        out
    }

    fn dense(plan: &Plan, servers: usize) -> Vec<Vec<f64>> {
        (0..plan.n_principals())
            .map(|i| (0..servers).map(|k| plan.amount(i, k)).collect())
            .collect()
    }

    #[test]
    fn zero_plan_shape() {
        let p = Plan::zero(3);
        assert_eq!(p.n_principals(), 3);
        assert_eq!(p.total_admitted(), 0.0);
        assert_eq!(p.admitted(PrincipalId(1)), 0.0);
        assert_eq!(p.server_load(1), 0.0);
    }

    #[test]
    fn aggregates() {
        let p = Plan { theta: Some(0.5), ..Plan::from_dense(&[vec![1.0, 2.0], vec![3.0, 4.0]]) };
        assert_eq!(p.admitted(PrincipalId(0)), 3.0);
        assert_eq!(p.admitted(PrincipalId(1)), 7.0);
        assert_eq!(p.server_load(0), 4.0);
        assert_eq!(p.server_load(1), 6.0);
        assert_eq!(p.total_admitted(), 10.0);
    }

    #[test]
    fn from_dense_keeps_only_nonzero_cells_in_server_order() {
        let p = Plan::from_dense(&[vec![0.0, 2.0, 0.0, 1.5], vec![0.0; 4], vec![7.0, 0.0, 0.0, 0.0]]);
        assert_eq!(p.row(0).collect::<Vec<_>>(), vec![(1, 2.0), (3, 1.5)]);
        assert_eq!(p.row(1).count(), 0);
        assert_eq!(p.row(2).collect::<Vec<_>>(), vec![(0, 7.0)]);
        assert_eq!(p.amount(0, 3), 1.5);
        assert_eq!(p.amount(0, 2), 0.0);
        assert_eq!(p.amount(2, 9), 0.0);
        assert_eq!(p.servers(), &[1, 3, 0]);
        assert_eq!(p.row_range(2), 2..3);
    }

    #[test]
    fn local_scaling_matches_queue_fractions() {
        let p = Plan { theta: Some(1.0), ..Plan::from_dense(&[vec![10.0, 10.0], vec![8.0, 0.0]]) };
        // Redirector holds 25% of principal 0's queue, 100% of principal 1's.
        let scaled = local(&p, &[5.0, 8.0], &[20.0, 8.0]);
        assert_eq!(dense(&scaled, 2), vec![vec![2.5, 2.5], vec![8.0, 0.0]]);
        assert_eq!(scaled.theta, Some(1.0));
    }

    #[test]
    fn local_scaling_empty_global_queue_is_zero() {
        let p = Plan::from_dense(&[vec![4.0]]);
        assert_eq!(local(&p, &[0.0], &[0.0]).amount(0, 0), 0.0);
    }

    #[test]
    fn local_scaling_clamps_stale_fractions() {
        // Staleness can make n_local > n_global momentarily; the fraction is
        // clamped to 1 so a redirector never over-admits past the plan.
        let p = Plan::from_dense(&[vec![4.0]]);
        assert_eq!(local(&p, &[10.0], &[5.0]).amount(0, 0), 4.0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // paired (i, k) matrix indices
    fn sum_of_local_plans_equals_global_plan() {
        let p = Plan::from_dense(&[vec![10.0, 6.0], vec![9.0, 3.0]]);
        let global = [20.0, 12.0];
        let locals = [[5.0, 4.0], [15.0, 8.0]];
        let mut total = vec![vec![0.0; 2]; 2];
        for l in &locals {
            let lp = local(&p, l, &global);
            for i in 0..2 {
                for k in 0..2 {
                    total[i][k] += lp.amount(i, k);
                }
            }
        }
        for i in 0..2 {
            for k in 0..2 {
                assert!((total[i][k] - p.amount(i, k)).abs() < 1e-9);
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// The sparse rows answer every question the dense matrix did:
        /// aggregates per principal and per server, and the local scaling
        /// rule cell by cell.
        #[test]
        #[allow(clippy::needless_range_loop)] // paired (i, k) matrix indices
        fn sparse_rows_match_the_dense_matrix(
            n in 1usize..7,
            cells in proptest::collection::vec((0.0..1.0f64, 0.0..50.0f64), 36),
            queues in proptest::collection::vec((0.0..30.0f64, 0.0..30.0f64), 6),
        ) {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..n).map(|k| {
                    let (dice, amount) = cells[i * 6 + k];
                    if dice < 0.4 { amount } else { 0.0 }
                }).collect())
                .collect();
            let plan = Plan::from_dense(&rows);
            prop_assert_eq!(dense(&plan, n), rows.clone());
            for i in 0..n {
                prop_assert_eq!(plan.admitted(PrincipalId(i)), rows[i].iter().sum::<f64>());
            }
            for k in 0..n {
                prop_assert_eq!(plan.server_load(k), rows.iter().map(|r| r[k]).sum::<f64>());
            }
            // A principal in three has nothing queued globally, one in three
            // holds more locally than the (stale) global count.
            let local_q: Vec<f64> = queues[..n].iter().map(|q| q.0).collect();
            let global: Vec<f64> =
                queues[..n].iter().enumerate().map(|(i, q)| if i % 3 == 2 { 0.0 } else { q.1 }).collect();
            let scaled = local(&plan, &local_q, &global);
            for i in 0..n {
                let frac =
                    if global[i] > 0.0 { (local_q[i] / global[i]).clamp(0.0, 1.0) } else { 0.0 };
                for k in 0..n {
                    prop_assert_eq!(scaled.amount(i, k), rows[i][k] * frac);
                }
            }
        }
    }
}
