//! Capacity-limited server model.
//!
//! A server processes requests sequentially at a fixed rate (its capacity,
//! in average-request units per second) from a finite accept backlog —
//! the analogue of Apache's listen queue on the paper's testbed. Requests
//! arriving to a full backlog are dropped (counted), which is what makes
//! request *bunching* observable: a burst that overflows the backlog loses
//! work even though average load is below capacity.

use covenant_sched::Request;
use std::collections::VecDeque;

/// One simulated server.
#[derive(Debug, Clone)]
pub struct Server {
    /// Capacity in average-request units per second.
    capacity: f64,
    /// Maximum queued-but-unserved requests.
    backlog_limit: usize,
    /// Time the server becomes free of all currently accepted work.
    busy_until: f64,
    /// Accepted, not yet completed.
    queue: VecDeque<Request>,
    /// Requests dropped on full backlog.
    pub dropped: u64,
    /// Requests completed.
    pub completed: u64,
}

/// Result of offering a request to a server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Accept {
    /// Accepted; the request will complete at this absolute time.
    CompletesAt(f64),
    /// Backlog full; request dropped.
    Dropped,
}

impl Server {
    /// Creates a server with the given rate capacity and backlog limit.
    pub fn new(capacity: f64, backlog_limit: usize) -> Self {
        assert!(capacity >= 0.0 && capacity.is_finite());
        Server {
            capacity,
            backlog_limit,
            busy_until: 0.0,
            queue: VecDeque::new(),
            dropped: 0,
            completed: 0,
        }
    }

    /// Changes the service rate from now on (already-accepted work keeps
    /// its scheduled completion times; only new work sees the new rate).
    pub fn set_capacity(&mut self, capacity: f64) {
        assert!(capacity >= 0.0 && capacity.is_finite());
        self.capacity = capacity;
    }

    /// Offers `req` at time `now`; on acceptance returns the completion
    /// time (the caller schedules the completion event).
    pub fn offer(&mut self, now: f64, req: Request) -> Accept {
        if self.capacity <= 0.0 || self.queue.len() >= self.backlog_limit {
            self.dropped += 1;
            return Accept::Dropped;
        }
        let start = self.busy_until.max(now);
        let done = start + req.cost / self.capacity;
        self.busy_until = done;
        self.queue.push_back(req);
        Accept::CompletesAt(done)
    }

    /// Marks the oldest accepted request complete, returning it.
    pub fn complete(&mut self) -> Request {
        self.completed += 1;
        self.queue.pop_front().expect("completion without accepted request")
    }

    /// Utilization over `[0, now]`: busy time divided by elapsed time.
    pub fn utilization(&self, now: f64) -> f64 {
        if now <= 0.0 || self.capacity <= 0.0 {
            return 0.0;
        }
        (self.completed as f64 / self.capacity / now).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_agreements::PrincipalId;

    fn req(id: u64) -> Request {
        Request::unit(id, PrincipalId(0), 0.0)
    }

    #[test]
    fn sequential_service_at_capacity() {
        let mut s = Server::new(10.0, 100);
        // Three unit requests at t=0: complete at 0.1, 0.2, 0.3.
        assert_eq!(s.offer(0.0, req(1)), Accept::CompletesAt(0.1));
        assert_eq!(s.offer(0.0, req(2)), Accept::CompletesAt(0.2));
        assert_eq!(s.offer(0.0, req(3)), Accept::CompletesAt(0.30000000000000004));
    }

    #[test]
    fn idle_gap_resets_start_time() {
        let mut s = Server::new(10.0, 100);
        s.offer(0.0, req(1));
        s.complete();
        // Next request arrives at t=5 to an idle server.
        assert_eq!(s.offer(5.0, req(2)), Accept::CompletesAt(5.1));
    }

    #[test]
    fn backlog_overflow_drops() {
        let mut s = Server::new(1.0, 2);
        assert!(matches!(s.offer(0.0, req(1)), Accept::CompletesAt(_)));
        assert!(matches!(s.offer(0.0, req(2)), Accept::CompletesAt(_)));
        assert_eq!(s.offer(0.0, req(3)), Accept::Dropped);
        assert_eq!(s.dropped, 1);
        // Completion frees a slot.
        s.complete();
        assert!(matches!(s.offer(0.0, req(4)), Accept::CompletesAt(_)));
    }

    #[test]
    fn costly_requests_take_longer() {
        let mut s = Server::new(10.0, 10);
        let big = Request { id: covenant_sched::RequestId(9), principal: PrincipalId(0), arrival: 0.0, cost: 5.0 };
        assert_eq!(s.offer(0.0, big), Accept::CompletesAt(0.5));
    }

    #[test]
    fn zero_capacity_server_drops_everything() {
        let mut s = Server::new(0.0, 10);
        assert_eq!(s.offer(0.0, req(1)), Accept::Dropped);
    }

    /// A unit-rate server fed unit requests by Poisson arrivals is M/D/1:
    /// the mean wait is ρ·s / 2(1−ρ) with s = 1.
    #[test]
    fn poisson_fed_server_matches_md1_wait() {
        use crate::metrics::tests::{assert_in_batch_means_ci, poisson_times};
        for (seed, rho) in [(1, 0.3), (2, 0.6), (3, 0.9)] {
            let mut s = Server::new(1.0, usize::MAX);
            let mut pending = std::collections::VecDeque::new();
            let waits: Vec<f64> = poisson_times(seed, rho, 400_000)
                .enumerate()
                .map(|(i, t)| {
                    while pending.front().is_some_and(|&done| done <= t) {
                        pending.pop_front();
                        s.complete();
                    }
                    let Accept::CompletesAt(done) = s.offer(t, req(i as u64)) else {
                        panic!("an unbounded backlog drops nothing")
                    };
                    pending.push_back(done);
                    done - t - 1.0
                })
                .collect();
            assert_in_batch_means_ci(&waits, rho / (2.0 * (1.0 - rho)), &format!("M/D/1 ρ={rho}"));
        }
    }

    #[test]
    fn utilization_tracks_completions() {
        let mut s = Server::new(10.0, 100);
        for id in 0..50 {
            s.offer(0.0, req(id));
        }
        for _ in 0..50 {
            s.complete();
        }
        // 50 completions at capacity 10 = 5 busy seconds over 10 elapsed.
        assert!((s.utilization(10.0) - 0.5).abs() < 1e-9);
    }
}
