//! Implicit queuing via per-window admission credits (§4.1, final design).
//!
//! Instead of holding requests in explicit queues (which bunches them at
//! window boundaries), the redirector decides *how many* requests each
//! principal may pass this window. Requests within quota are forwarded
//! immediately; the rest are implicitly queued by telling the client to
//! retry (L7 self-redirect) or parking the connection (L4). Fractional
//! quota remainders carry over so that rates like 13.5 requests/window
//! average out exactly.

use covenant_agreements::PrincipalId;
use covenant_sched::{Plan, Request};
use serde::{Deserialize, Serialize};

/// Outcome of an admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Admission {
    /// Forward to the given server (principal id of the server owner).
    Admit {
        /// Target server index.
        server: usize,
    },
    /// Out of quota this window: defer (self-redirect / park).
    Defer,
}

/// Per-principal credit state for one redirector.
///
/// The per-server state follows the installed plan's sparse rows — one
/// slot per `(principal, server)` entry of the plan — so a verdict looks
/// at the few servers the principal holds an agreement on, not at every
/// server of the community.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CreditGate {
    /// Remaining admission credit per principal for this window.
    credit: Vec<f64>,
    /// The plan as installed at the last roll (fallback server choice for
    /// fractional carry-over admissions after allocations drain).
    installed: Plan,
    /// Remaining allocation for this window, one per entry of `installed`.
    alloc: Vec<f64>,
    /// Cap on accumulated credit, in multiples of the window quota.
    burst_windows: f64,
    /// Last installed per-principal quota (for the burst cap).
    quota: Vec<f64>,
}

impl CreditGate {
    /// Creates a gate for `n` principals with the default burst cap of 2
    /// windows' worth of credit. Which servers a principal may be sent to
    /// comes with each window's plan.
    pub fn for_principals(n: usize) -> Self {
        CreditGate {
            credit: vec![0.0; n],
            installed: Plan::zero(n),
            alloc: Vec::new(),
            burst_windows: 2.0,
            quota: vec![0.0; n],
        }
    }

    /// Overrides the burst cap (multiples of one window's quota a principal
    /// may accumulate while idle).
    pub fn with_burst_windows(mut self, w: f64) -> Self {
        assert!(w >= 1.0, "burst cap below one window starves carry-over");
        self.burst_windows = w;
        self
    }

    /// Installs the new window's plan: adds each principal's admitted quota
    /// to its credit (capped) and resets per-server allocations.
    pub fn roll_window(&mut self, plan: &Plan) {
        assert_eq!(plan.n_principals(), self.credit.len(), "plan must cover the gate's principals");
        for i in 0..self.credit.len() {
            let q: f64 = plan.amounts()[plan.row_range(i)].iter().sum();
            self.quota[i] = q;
            let cap = q * self.burst_windows;
            self.credit[i] = (self.credit[i] + q).min(cap.max(q));
        }
        self.installed.clone_from(plan);
        self.alloc.clear();
        self.alloc.extend_from_slice(plan.amounts());
    }

    /// Remaining credit for principal `i`.
    #[inline]
    pub fn credit(&self, i: PrincipalId) -> f64 {
        self.credit[i.0]
    }

    /// Like [`Self::admit`], but prefers `preferred` server while it still
    /// has allocation — connection affinity "to the extent allowed by the
    /// sharing agreements" (the paper's SSL-session consideration, §4.2).
    pub fn admit_with_preference(&mut self, req: &Request, preferred: Option<usize>) -> Admission {
        let i = req.principal.0;
        // A server the principal holds no entry on has nothing allocated.
        let entry = preferred.and_then(|k| {
            self.installed.row_range(i).find(|&e| self.installed.servers()[e] as usize == k)
        });
        if let Some(e) = entry {
            if self.alloc[e] + 1e-9 >= req.cost && self.credit[i] + 1e-9 >= req.cost {
                self.alloc[e] -= req.cost;
                self.credit[i] -= req.cost;
                debug_assert!(
                    self.credit[i] >= -1e-9,
                    "principal {i} credit overdrawn: {}",
                    self.credit[i]
                );
                return Admission::Admit { server: self.installed.servers()[e] as usize };
            }
        }
        self.admit(req)
    }

    /// Attempts to admit `req`, consuming credit on success and choosing the
    /// server with the most remaining allocation.
    pub fn admit(&mut self, req: &Request) -> Admission {
        let i = req.principal.0;
        if self.credit[i] + 1e-9 < req.cost {
            return Admission::Defer;
        }
        // Prefer the server with the largest *positive* remaining
        // allocation; if every allocation is exhausted but credit remains
        // (fractional carry-over), fall back to the server with the largest
        // installed quota this window — never to an arbitrary index, which
        // could be a zero-capacity principal.
        let row = self.installed.row_range(i);
        let entry = first_argmax_positive(&self.alloc[row.clone()])
            .or_else(|| first_argmax_positive(&self.installed.amounts()[row.clone()]));
        let server = match entry {
            Some(e) => {
                let e = row.start + e;
                self.alloc[e] = (self.alloc[e] - req.cost).max(0.0);
                self.installed.servers()[e] as usize
            }
            // Credit carried into a window whose plan gives the principal
            // nothing: no entry to draw down.
            None => 0,
        };
        self.credit[i] -= req.cost;
        debug_assert!(
            self.credit[i] >= -1e-9,
            "principal {i} credit overdrawn: {}",
            self.credit[i]
        );
        Admission::Admit { server }
    }
}

/// Index of the first maximum strictly-positive entry, or `None` if every
/// entry is ≤ 0. Rows ascend by server, so "first" is the lowest server.
pub(crate) fn first_argmax_positive(row: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (k, &v) in row.iter().enumerate() {
        if v > 0.0 && best.is_none_or(|(_, bv)| v > bv) {
            best = Some((k, v));
        }
    }
    best.map(|(k, _)| k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(id: u64, p: usize) -> Request {
        Request::unit(id, PrincipalId(p), 0.0)
    }

    fn plan(rows: Vec<Vec<f64>>) -> Plan {
        Plan::from_dense(&rows)
    }

    #[test]
    fn admits_up_to_quota_then_defers() {
        let mut g = CreditGate::for_principals(1);
        g.roll_window(&plan(vec![vec![3.0]]));
        for id in 0..3 {
            assert!(matches!(g.admit(&unit(id, 0)), Admission::Admit { .. }));
        }
        assert_eq!(g.admit(&unit(9, 0)), Admission::Defer);
    }

    #[test]
    fn fractional_carry_over_averages_out() {
        // Quota 1.5/window, 2 requests offered per window: admit counts
        // should alternate 1, 2, 1, 2, … averaging 1.5.
        let mut g = CreditGate::for_principals(1);
        let mut admitted_per_window = Vec::new();
        let mut id = 0;
        for _ in 0..6 {
            g.roll_window(&plan(vec![vec![1.5]]));
            let mut n = 0;
            for _ in 0..2 {
                if matches!(g.admit(&unit(id, 0)), Admission::Admit { .. }) {
                    n += 1;
                }
                id += 1;
            }
            admitted_per_window.push(n);
        }
        let total: i32 = admitted_per_window.iter().sum();
        assert_eq!(total, 9, "windows: {admitted_per_window:?}");
    }

    #[test]
    fn burst_cap_limits_idle_accumulation() {
        let mut g = CreditGate::for_principals(1).with_burst_windows(2.0);
        for _ in 0..10 {
            g.roll_window(&plan(vec![vec![5.0]]));
        }
        // Credit capped at 2 windows' quota despite 10 idle windows.
        assert!((g.credit(PrincipalId(0)) - 10.0).abs() < 1e-9);
        let mut admitted = 0;
        for id in 0..100 {
            if matches!(g.admit(&unit(id, 0)), Admission::Admit { .. }) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 10);
    }

    #[test]
    fn servers_chosen_by_remaining_allocation() {
        let mut g = CreditGate::for_principals(1);
        g.roll_window(&plan(vec![vec![1.0, 2.0]]));
        let mut to = vec![0, 0];
        for id in 0..3 {
            if let Admission::Admit { server } = g.admit(&unit(id, 0)) {
                to[server] += 1;
            }
        }
        assert_eq!(to, vec![1, 2]);
    }

    #[test]
    fn costly_request_needs_matching_credit() {
        let mut g = CreditGate::for_principals(1);
        g.roll_window(&plan(vec![vec![3.0]]));
        let big =
            Request { id: covenant_sched::RequestId(1), principal: PrincipalId(0), arrival: 0.0, cost: 4.0 };
        assert_eq!(g.admit(&big), Admission::Defer);
        g.roll_window(&plan(vec![vec![3.0]])); // credit now 6 ≥ 4
        assert!(matches!(g.admit(&big), Admission::Admit { .. }));
    }

    #[test]
    fn affinity_preference_honored_while_allocated() {
        let mut g = CreditGate::for_principals(1);
        g.roll_window(&plan(vec![vec![1.0, 2.0]]));
        // Prefer server 0 (the smaller allocation): honored while it lasts.
        assert_eq!(
            g.admit_with_preference(&unit(0, 0), Some(0)),
            Admission::Admit { server: 0 }
        );
        // Server 0 exhausted: falls back to server 1 despite preference.
        assert_eq!(
            g.admit_with_preference(&unit(1, 0), Some(0)),
            Admission::Admit { server: 1 }
        );
        assert_eq!(
            g.admit_with_preference(&unit(2, 0), Some(0)),
            Admission::Admit { server: 1 }
        );
        assert_eq!(g.admit_with_preference(&unit(3, 0), Some(0)), Admission::Defer);
    }

    #[test]
    fn preference_out_of_range_falls_back() {
        let mut g = CreditGate::for_principals(1);
        g.roll_window(&plan(vec![vec![1.0]]));
        assert!(matches!(
            g.admit_with_preference(&unit(0, 0), Some(99)),
            Admission::Admit { server: 0 }
        ));
    }

    #[test]
    fn principals_are_independent() {
        let mut g = CreditGate::for_principals(2);
        g.roll_window(&plan(vec![vec![1.0], vec![0.0]]));
        assert!(matches!(g.admit(&unit(0, 0)), Admission::Admit { .. }));
        assert_eq!(g.admit(&unit(1, 1)), Admission::Defer);
    }

    /// The gate as it was when every principal carried a dense row over
    /// all servers: the oracle the sparse gate must match verdict for
    /// verdict.
    struct DenseGate {
        credit: Vec<f64>,
        alloc: Vec<Vec<f64>>,
        installed: Vec<Vec<f64>>,
        burst_windows: f64,
    }

    impl DenseGate {
        fn new(n: usize, burst_windows: f64) -> Self {
            let grid = vec![vec![0.0; n]; n];
            DenseGate { credit: vec![0.0; n], alloc: grid.clone(), installed: grid, burst_windows }
        }

        fn roll_window(&mut self, rows: &[Vec<f64>]) {
            for (i, row) in rows.iter().enumerate() {
                let q: f64 = row.iter().sum();
                let cap = q * self.burst_windows;
                self.credit[i] = (self.credit[i] + q).min(cap.max(q));
                self.alloc[i].copy_from_slice(row);
                self.installed[i].copy_from_slice(row);
            }
        }

        fn admit_with_preference(&mut self, req: &Request, preferred: Option<usize>) -> Admission {
            let i = req.principal.0;
            if let Some(k) = preferred {
                if k < self.alloc[i].len()
                    && self.alloc[i][k] + 1e-9 >= req.cost
                    && self.credit[i] + 1e-9 >= req.cost
                {
                    self.alloc[i][k] -= req.cost;
                    self.credit[i] -= req.cost;
                    return Admission::Admit { server: k };
                }
            }
            if self.credit[i] + 1e-9 < req.cost {
                return Admission::Defer;
            }
            let server = first_argmax_positive(&self.alloc[i])
                .or_else(|| first_argmax_positive(&self.installed[i]))
                .unwrap_or(0);
            self.alloc[i][server] = (self.alloc[i][server] - req.cost).max(0.0);
            self.credit[i] -= req.cost;
            Admission::Admit { server }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Same admit/defer sequence, same server per admission and same
        /// remaining credit as the dense gate, over random sparse plans:
        /// allocations draining into the fall-back to the installed row,
        /// fractional quotas carrying over across rolls, idle windows
        /// running into the burst cap, requests of several costs, and
        /// preferences that name a server the principal has no agreement
        /// with or that does not exist.
        #[test]
        fn sparse_gate_matches_dense_gate(
            n in 1usize..6,
            burst in 1.0..3.0f64,
            cells in proptest::collection::vec((0.0..1.0f64, 0.0..6.0f64), 36 * 6),
            steps in proptest::collection::vec((0usize..6, 0usize..8, 0usize..4), 0..240),
        ) {
            let mut sparse = CreditGate::for_principals(n).with_burst_windows(burst);
            let mut dense = DenseGate::new(n, burst);
            let mut window = 0;
            // About a third of the cells carry an agreement this window.
            let mut roll = |sparse: &mut CreditGate, dense: &mut DenseGate| {
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|i| {
                        (0..n)
                            .map(|k| {
                                let (dice, amount) = cells[(window * 36 + i * 6 + k) % cells.len()];
                                if dice < 0.35 { amount } else { 0.0 }
                            })
                            .collect()
                    })
                    .collect();
                window += 1;
                sparse.roll_window(&Plan::from_dense(&rows));
                dense.roll_window(&rows);
            };
            roll(&mut sparse, &mut dense);
            for (id, &(principal, prefer, kind)) in steps.iter().enumerate() {
                // One step in twelve rolls the window instead.
                if prefer == 7 && kind == 3 {
                    roll(&mut sparse, &mut dense);
                    continue;
                }
                let req = Request {
                    id: covenant_sched::RequestId(id as u64),
                    principal: PrincipalId(principal % n),
                    arrival: 0.0,
                    cost: [1.0, 1.0, 0.5, 2.5][kind],
                };
                // Servers 0..n exist; 6 never does; 7 means no preference.
                let preferred = (prefer < 7).then_some(prefer);
                let got = sparse.admit_with_preference(&req, preferred);
                let want = dense.admit_with_preference(&req, preferred);
                prop_assert_eq!(got, want, "step {} {:?} prefer {:?}", id, req, preferred);
                for i in 0..n {
                    prop_assert_eq!(sparse.credit(PrincipalId(i)), dense.credit[i]);
                }
            }
        }
    }
}
