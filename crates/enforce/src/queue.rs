//! Explicit per-principal FIFO queues (the paper's first L7 implementation).
//!
//! Incoming requests are enqueued and, at the start of each window, a subset
//! is dequeued according to the solved [`Plan`]. The paper found that this
//! explicit scheme *bunches* requests at window boundaries (§4.1) — we keep
//! it both as a baseline for that experiment and because the Layer-4
//! redirector's kernel queues are exactly this structure.

use crate::credit::first_argmax_positive;
use covenant_agreements::PrincipalId;
use covenant_sched::{Plan, Request};
use std::collections::VecDeque;

/// Per-principal FIFO request queues.
#[derive(Debug, Clone, Default)]
pub struct PrincipalQueues {
    queues: Vec<VecDeque<Request>>,
    /// Unspent fractional budget carried to the next window while the
    /// queue is backlogged (so a 2.5-per-window plan averages 2.5, not 2).
    carry: Vec<f64>,
}

/// A dispatched request with its assigned server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dispatch {
    /// The request released this window.
    pub request: Request,
    /// Index of the server (principal id) it is forwarded to.
    pub server: usize,
}

impl PrincipalQueues {
    /// Creates queues for `n` principals.
    pub fn new(n: usize) -> Self {
        PrincipalQueues {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            carry: vec![0.0; n],
        }
    }

    /// Number of principals.
    pub fn n_principals(&self) -> usize {
        self.queues.len()
    }

    /// Enqueues a request on its principal's queue.
    pub fn push(&mut self, req: Request) {
        self.queues[req.principal.0].push_back(req);
    }

    /// Cost-weighted queue lengths `n_i` (the LP inputs).
    pub fn lengths(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.lengths_into(&mut out);
        out
    }

    /// Writes the cost-weighted queue lengths into `out` (cleared first),
    /// reusing its allocation.
    pub fn lengths_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.queues.iter().map(|q| q.iter().map(|r| r.cost).sum::<f64>()));
    }

    /// Number of queued requests for one principal.
    pub fn len(&self, i: PrincipalId) -> usize {
        self.queues[i.0].len()
    }

    /// True when every queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Total queued requests across principals.
    pub fn total_len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Releases requests according to `plan` (a *local* plan — already
    /// scaled in the distributed setting), assigning each released request
    /// to the plan's servers by remaining allocation. FIFO order within each
    /// principal. Returns the dispatches in release order.
    pub fn release(&mut self, plan: &Plan) -> Vec<Dispatch> {
        let mut out = Vec::new();
        let mut alloc = plan.amounts().to_vec();
        for i in 0..plan.n_principals() {
            let range = plan.row_range(i);
            let (row, servers) = (&plan.amounts()[range.clone()], &plan.servers()[range.clone()]);
            let alloc = &mut alloc[range];
            let mut budget: f64 = row.iter().sum::<f64>() + self.carry[i];
            while self.queues[i].front().is_some_and(|front| front.cost <= budget + 1e-9) {
                let Some(req) = self.queues[i].pop_front() else {
                    break;
                };
                // Assign to the server with the largest remaining
                // allocation; when only carried-over budget remains, use
                // the plan's largest installed allocation rather than an
                // arbitrary index.
                let entry = first_argmax_positive(alloc).or_else(|| first_argmax_positive(row));
                let server = entry.map_or(0, |e| {
                    alloc[e] = (alloc[e] - req.cost).max(0.0);
                    servers[e] as usize
                });
                budget -= req.cost;
                out.push(Dispatch { request: req, server });
            }
            // Conservation: the release loop may never overdraw the
            // window's budget (plan allocation plus carried remainder).
            debug_assert!(budget >= -1e-9, "principal {i} release overdrew budget: {budget}");
            // Carry the blocked remainder only while demand persists;
            // an empty queue's unused budget is genuinely lost capacity.
            self.carry[i] = if self.queues[i].is_empty() { 0.0 } else { budget };
        }
        out
    }

    /// Pops the head of principal `i`'s queue, if any (used by the L4
    /// parking drain, where the credit gate decides admission per request).
    pub fn release_one(&mut self, i: usize) -> Option<Request> {
        self.queues[i].pop_front()
    }

    /// Returns a request to the *front* of its principal's queue (undo of a
    /// failed [`Self::release_one`] admission attempt, preserving FIFO).
    pub fn push_front(&mut self, req: Request) {
        self.queues[req.principal.0].push_front(req);
    }

    /// Drops every queued request older than `horizon` seconds at time
    /// `now`, returning the dropped requests (clients time out and retry;
    /// models the L7 self-redirect loop abandoning).
    pub fn expire(&mut self, now: f64, horizon: f64) -> Vec<Request> {
        let mut dropped = Vec::new();
        for q in &mut self.queues {
            while q.front().is_some_and(|front| now - front.arrival > horizon) {
                let Some(req) = q.pop_front() else {
                    break;
                };
                dropped.push(req);
            }
        }
        dropped
    }
}

impl crate::ParkedQueue<Request> for PrincipalQueues {
    fn pop(&mut self, principal: usize) -> Option<Request> {
        self.release_one(principal)
    }

    fn unpop(&mut self, _principal: usize, item: Request) {
        self.push_front(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, p: usize, t: f64) -> Request {
        Request::unit(id, PrincipalId(p), t)
    }

    #[test]
    fn push_and_lengths() {
        let mut q = PrincipalQueues::new(2);
        q.push(req(1, 0, 0.0));
        q.push(req(2, 0, 0.1));
        q.push(req(3, 1, 0.2));
        assert_eq!(q.lengths(), vec![2.0, 1.0]);
        assert_eq!(q.len(PrincipalId(0)), 2);
        assert_eq!(q.total_len(), 3);
        assert!(!q.is_empty());
    }

    #[test]
    fn release_respects_plan_and_fifo() {
        let mut q = PrincipalQueues::new(2);
        for id in 0..5 {
            q.push(req(id, 0, id as f64 * 0.01));
        }
        q.push(req(100, 1, 0.0));
        let plan = Plan::from_dense(&[vec![2.0, 1.0], vec![0.0, 0.0]]);
        let dispatched = q.release(&plan);
        assert_eq!(dispatched.len(), 3);
        // FIFO: ids 0, 1, 2 released; principal 1 untouched.
        let ids: Vec<u64> = dispatched.iter().map(|d| d.request.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(q.len(PrincipalId(0)), 2);
        assert_eq!(q.len(PrincipalId(1)), 1);
        // Server assignment never exceeds per-server allocation by count.
        let to_0 = dispatched.iter().filter(|d| d.server == 0).count();
        let to_1 = dispatched.iter().filter(|d| d.server == 1).count();
        assert_eq!(to_0, 2);
        assert_eq!(to_1, 1);
    }

    #[test]
    fn release_with_fractional_budget_floors() {
        let mut q = PrincipalQueues::new(1);
        for id in 0..4 {
            q.push(req(id, 0, 0.0));
        }
        let plan = Plan::from_dense(&[vec![2.7]]);
        let dispatched = q.release(&plan);
        // Unit-cost requests: only 2 fit a 2.7 budget.
        assert_eq!(dispatched.len(), 2);
    }

    #[test]
    fn costly_request_blocks_until_budget() {
        let mut q = PrincipalQueues::new(1);
        q.push(Request {
            id: covenant_sched::RequestId(1),
            principal: PrincipalId(0),
            arrival: 0.0,
            cost: 5.0,
        });
        let small = Plan::from_dense(&[vec![3.0]]);
        assert!(q.release(&small).is_empty());
        let big = Plan::from_dense(&[vec![5.0]]);
        assert_eq!(q.release(&big).len(), 1);
    }

    #[test]
    fn fractional_budget_carries_while_backlogged() {
        // 2.5 per window against a persistent backlog must average 2.5:
        // releases go 2, 3, 2, 3, …
        let mut q = PrincipalQueues::new(1);
        let mut id = 0;
        let plan = Plan::from_dense(&[vec![2.5]]);
        let mut released = Vec::new();
        for _ in 0..4 {
            for _ in 0..5 {
                q.push(req(id, 0, 0.0));
                id += 1;
            }
            released.push(q.release(&plan).len());
        }
        assert_eq!(released.iter().sum::<usize>(), 10, "released {released:?}");
    }

    #[test]
    fn carry_resets_when_queue_drains() {
        let mut q = PrincipalQueues::new(1);
        q.push(req(0, 0, 0.0));
        let plan = Plan::from_dense(&[vec![5.0]]);
        assert_eq!(q.release(&plan).len(), 1);
        // Queue drained: the unused 4.0 must not accumulate.
        for _ in 0..3 {
            assert!(q.release(&plan).is_empty());
        }
        for id in 1..=20 {
            q.push(req(id, 0, 0.0));
        }
        // Only one window's budget (5) available, not 4 windows' worth.
        assert_eq!(q.release(&plan).len(), 5);
    }

    #[test]
    fn expire_drops_old_requests_only() {
        let mut q = PrincipalQueues::new(1);
        q.push(req(1, 0, 0.0));
        q.push(req(2, 0, 5.0));
        let dropped = q.expire(8.0, 4.0);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].id.0, 1);
        assert_eq!(q.total_len(), 1);
    }
}
