//! Shared-rate bottleneck links on the reply path.
//!
//! When a [`crate::SimConfig`] declares a network model, each redirector
//! owns one link that every reply to its clients must cross. Reply bytes
//! contend for the link's rate, so transfer times *emerge from congestion*
//! instead of being a fixed two-hop delay. Two disciplines:
//!
//! * [`LinkDiscipline::Fifo`] — transfers serialize at the full link rate,
//!   exactly the `busy_until` model the servers use: the completion time is
//!   known the moment the transfer starts.
//! * [`LinkDiscipline::FairShare`] — egalitarian processor sharing: `n`
//!   concurrent transfers each progress at `rate / n` (an idealized
//!   fair-queueing bottleneck, the same abstraction minim's bottleneck
//!   entity uses). Completion times shift as flows come and go, so the
//!   link runs a *virtual-service clock*: `S(t)` advances at `rate / n`
//!   bytes per second, a flow arriving at `t` with `b` bytes departs when
//!   `S` reaches `S(t) + b`, and the next real departure is re-scheduled
//!   through version-guarded wake events — any wake carrying a stale
//!   version is ignored, so at most one wake per state change is live.
//!
//! Everything here is plain deterministic float arithmetic driven by the
//! event queue, so both engine paths (streaming and reference) replay the
//! identical transfer schedule.

use covenant_sched::Request;

/// Queueing discipline of a shared link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDiscipline {
    /// Transfers serialize: one reply at a time at the full link rate.
    Fifo,
    /// Egalitarian processor sharing among concurrent transfers.
    FairShare,
}

/// Configuration of one redirector's reply-path link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkCfg {
    /// Link capacity, bytes per second. Must be finite and positive.
    pub rate_bytes_per_sec: f64,
    /// Queueing discipline.
    pub discipline: LinkDiscipline,
}

/// The network model: one link per redirector plus the byte scale for
/// requests whose cost model carries no explicit size.
#[derive(Debug, Clone, PartialEq)]
pub struct NetModelCfg {
    /// One link per redirector, indexed like the tree.
    pub links: Vec<LinkCfg>,
    /// Reply bytes per cost unit for `Unit`/`Fixed` cost models (sized
    /// clients carry their sampled bytes instead). Default 6144, the
    /// paper's 6 KB average reply.
    pub unit_bytes: f64,
}

impl NetModelCfg {
    /// A model with the same link on every redirector.
    pub fn uniform(n: usize, rate_bytes_per_sec: f64, discipline: LinkDiscipline) -> Self {
        NetModelCfg {
            links: vec![LinkCfg { rate_bytes_per_sec, discipline }; n],
            unit_bytes: 6144.0,
        }
    }
}

/// What starting a transfer asks the engine to schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkStart {
    /// FIFO: the reply (carried by the event) lands at the given time.
    Deliver(f64),
    /// Fair share: wake the link at the given time with the given version
    /// (the link holds the reply until its flow drains).
    Wake(f64, u64),
}

/// One in-progress fair-share transfer.
#[derive(Debug, Clone)]
struct Flow {
    /// Virtual-service reading at which this flow completes.
    finish: f64,
    /// Arrival order among equal finish tags.
    seq: u64,
    /// Real time the transfer started (for transfer-time stats).
    entered: f64,
    request: Request,
}

/// Runtime state of one link.
#[derive(Debug)]
pub(crate) struct Link {
    rate: f64,
    discipline: LinkDiscipline,
    /// FIFO: when the link drains the last queued byte.
    busy_until: f64,
    /// Fair share: accumulated virtual service (bytes every concurrent
    /// flow has received), and the real time it was last advanced.
    virt: f64,
    virt_at: f64,
    flows: Vec<Flow>,
    /// Bumped on every state change; wake events carrying an older
    /// version are stale and ignored.
    version: u64,
    next_seq: u64,
    /// Transfers currently on the link (both disciplines).
    in_flight: usize,
    /// Stats.
    pub bytes: f64,
    pub active_peak: usize,
}

impl Link {
    pub fn new(cfg: &LinkCfg) -> Self {
        assert!(
            cfg.rate_bytes_per_sec.is_finite() && cfg.rate_bytes_per_sec > 0.0,
            "link rate must be finite and positive"
        );
        Link {
            rate: cfg.rate_bytes_per_sec,
            discipline: cfg.discipline,
            busy_until: 0.0,
            virt: 0.0,
            virt_at: 0.0,
            flows: Vec::new(),
            version: 0,
            next_seq: 0,
            in_flight: 0,
            bytes: 0.0,
            active_peak: 0,
        }
    }

    /// Advances the virtual-service clock to `now` (the concurrency level
    /// has been constant since the last advance, by construction).
    fn advance(&mut self, now: f64) {
        if !self.flows.is_empty() {
            self.virt += (now - self.virt_at) * self.rate / self.flows.len() as f64;
        }
        self.virt_at = now;
    }

    /// Real time at which the earliest-finishing flow departs, given no
    /// further state changes, with the version that guards it.
    fn next_wake(&self, now: f64) -> Option<(f64, u64)> {
        let min = self.flows.iter().map(|f| f.finish).fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            let dt = (min - self.virt).max(0.0) * self.flows.len() as f64 / self.rate;
            Some((now + dt, self.version))
        } else {
            None
        }
    }

    /// Begins transferring `bytes` of reply for `request` at `now`.
    pub fn start(&mut self, now: f64, bytes: f64, request: Request) -> LinkStart {
        self.bytes += bytes;
        self.in_flight += 1;
        if self.in_flight > self.active_peak {
            self.active_peak = self.in_flight;
        }
        match self.discipline {
            LinkDiscipline::Fifo => {
                let begin = if self.busy_until > now { self.busy_until } else { now };
                let done = begin + bytes / self.rate;
                self.busy_until = done;
                LinkStart::Deliver(done)
            }
            LinkDiscipline::FairShare => {
                self.advance(now);
                let seq = self.next_seq;
                self.next_seq += 1;
                self.flows.push(Flow { finish: self.virt + bytes, seq, entered: now, request });
                self.version += 1;
                let (at, v) = self.next_wake(now).expect("just pushed a flow");
                LinkStart::Wake(at, v)
            }
        }
    }

    /// A FIFO reply left the link (fair-share departures are accounted in
    /// [`Link::on_wake`]).
    pub fn note_delivered(&mut self) {
        self.in_flight -= 1;
    }

    /// Handles a fair-share wake: stale versions are no-ops; a live one
    /// delivers the earliest-finishing flow (plus exact ties, in arrival
    /// order) into `out` as `(request, entered)` and returns the next wake
    /// to schedule, if any flows remain.
    pub fn on_wake(
        &mut self,
        now: f64,
        version: u64,
        out: &mut Vec<(Request, f64)>,
    ) -> Option<(f64, u64)> {
        if version != self.version {
            return None;
        }
        self.advance(now);
        // The wake was scheduled for the current minimum finish tag, so
        // that flow is due even if float rounding left `virt` a hair
        // short; ties departed together and drain in arrival order.
        let min = self.flows.iter().map(|f| f.finish).fold(f64::INFINITY, f64::min);
        debug_assert!(min.is_finite(), "live wake on an idle link");
        let mut drained: Vec<Flow> = Vec::new();
        let mut keep: Vec<Flow> = Vec::with_capacity(self.flows.len());
        for f in self.flows.drain(..) {
            if f.finish <= min {
                drained.push(f);
            } else {
                keep.push(f);
            }
        }
        self.flows = keep;
        drained.sort_by_key(|f| f.seq);
        self.in_flight -= drained.len();
        for f in drained {
            out.push((f.request, f.entered));
        }
        if self.virt < min {
            self.virt = min;
        }
        self.version += 1;
        self.next_wake(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_agreements::PrincipalId;
    use covenant_sched::RequestId;

    fn req(id: u64) -> Request {
        Request { id: RequestId(id), principal: PrincipalId(0), arrival: 0.0, cost: 1.0 }
    }

    fn fifo(rate: f64) -> Link {
        Link::new(&LinkCfg { rate_bytes_per_sec: rate, discipline: LinkDiscipline::Fifo })
    }

    fn fair(rate: f64) -> Link {
        Link::new(&LinkCfg { rate_bytes_per_sec: rate, discipline: LinkDiscipline::FairShare })
    }

    #[test]
    fn fifo_serializes_transfers() {
        let mut l = fifo(1000.0);
        // 500 bytes at t=0 finishes at 0.5; a second transfer starting at
        // t=0.1 queues behind it and finishes at 1.0.
        assert_eq!(l.start(0.0, 500.0, req(0)), LinkStart::Deliver(0.5));
        assert_eq!(l.start(0.1, 500.0, req(1)), LinkStart::Deliver(1.0));
        assert_eq!(l.active_peak, 2);
        l.note_delivered();
        l.note_delivered();
        // Idle gap: a transfer at t=5 starts immediately.
        assert_eq!(l.start(5.0, 100.0, req(2)), LinkStart::Deliver(5.1));
    }

    #[test]
    fn fair_share_splits_rate() {
        let mut l = fair(1000.0);
        // Flow A: 1000 bytes alone would finish at t=1.
        let LinkStart::Wake(at, v0) = l.start(0.0, 1000.0, req(0)) else { panic!() };
        assert!((at - 1.0).abs() < 1e-12);
        // Flow B joins at t=0.5 with 250 bytes. A has 500 bytes left; both
        // now progress at 500 B/s. B finishes first at t=1.0, then A alone
        // drains its remaining 250 bytes at full rate: done at t=1.25.
        let LinkStart::Wake(at, v1) = l.start(0.5, 250.0, req(1)) else { panic!() };
        assert!((at - 1.0).abs() < 1e-12, "B finish {at}");
        let mut out = Vec::new();
        // The t=1.0 wake scheduled for A alone is stale now.
        assert_eq!(l.on_wake(1.0, v0, &mut out), None);
        assert!(out.is_empty());
        let next = l.on_wake(1.0, v1, &mut out).expect("A still draining");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0.id.0, 1);
        assert!((next.0 - 1.25).abs() < 1e-9, "A finish {}", next.0);
        out.clear();
        assert_eq!(l.on_wake(next.0, next.1, &mut out), None);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0.id.0, 0);
        assert_eq!(l.active_peak, 2);
        assert_eq!(l.in_flight, 0);
    }

    #[test]
    fn fair_share_ties_drain_in_arrival_order() {
        let mut l = fair(100.0);
        let _ = l.start(0.0, 100.0, req(7));
        let LinkStart::Wake(at, v) = l.start(0.0, 100.0, req(8)) else { panic!() };
        // Two equal flows sharing 100 B/s: both finish at t=2.
        assert!((at - 2.0).abs() < 1e-12);
        let mut out = Vec::new();
        assert_eq!(l.on_wake(at, v, &mut out), None);
        let ids: Vec<u64> = out.iter().map(|(r, _)| r.id.0).collect();
        assert_eq!(ids, vec![7, 8]);
    }

    /// `n` seeded WebBench reply sizes, with the link rate that loads a
    /// unit-rate Poisson stream of them to `rho`.
    fn webbench_load(seed: u64, rho: f64, n: usize) -> (Vec<f64>, f64) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sizes = covenant_workload::ReplySizes::default();
        let bytes: Vec<f64> = (0..n).map(|_| sizes.sample(&mut rng) as f64).collect();
        let mean = bytes.iter().sum::<f64>() / n as f64;
        (bytes, mean / rho)
    }

    /// A FIFO link fed Poisson replies of WebBench sizes is M/G/1: the mean
    /// wait is Pollaczek–Khinchine, λE[S²] / 2(1−ρ).
    #[test]
    fn fifo_link_matches_pollaczek_khinchine() {
        use crate::metrics::tests::{assert_in_batch_means_ci, poisson_times};
        for (seed, rho) in [(4, 0.3), (5, 0.6), (6, 0.9)] {
            let (bytes, rate) = webbench_load(seed, rho, 2_000_000);
            let mut l = fifo(rate);
            let waits: Vec<f64> = poisson_times(seed, 1.0, bytes.len())
                .zip(&bytes)
                .enumerate()
                .map(|(i, (t, &b))| {
                    let LinkStart::Deliver(done) = l.start(t, b, req(i as u64)) else {
                        unreachable!("FIFO delivers")
                    };
                    done - t - b / rate
                })
                .collect();
            let es2 = bytes.iter().map(|b| (b / rate).powi(2)).sum::<f64>() / bytes.len() as f64;
            assert_in_batch_means_ci(&waits, es2 / (2.0 * (1.0 - rho)), &format!("M/G/1 ρ={rho}"));
        }
    }

    /// A fair-share link fed Poisson replies is M/G/1-PS: the mean time a
    /// reply spends on the link is E[S] / (1−ρ), whatever the size mix.
    #[test]
    fn fair_share_link_matches_processor_sharing() {
        use crate::metrics::tests::{assert_in_batch_means_ci, poisson_times};
        for (seed, rho) in [(7, 0.3), (8, 0.6), (9, 0.9)] {
            let (bytes, rate) = webbench_load(seed, rho, 800_000);
            let mut l = fair(rate);
            let mut wake: Option<(f64, u64)> = None;
            let mut out = Vec::new();
            let mut sojourns = Vec::with_capacity(bytes.len());
            let mut arrivals = poisson_times(seed, 1.0, bytes.len()).zip(&bytes).enumerate();
            let mut next = arrivals.next();
            loop {
                let due = wake.map_or(f64::INFINITY, |(at, _)| at);
                match next {
                    Some((i, (t, &b))) if t < due => {
                        let LinkStart::Wake(at, v) = l.start(t, b, req(i as u64)) else {
                            unreachable!("fair share wakes")
                        };
                        wake = Some((at, v));
                        next = arrivals.next();
                    }
                    _ => {
                        let Some((at, v)) = wake else { break };
                        wake = l.on_wake(at, v, &mut out);
                        sojourns.extend(out.drain(..).map(|(_, entered)| at - entered));
                    }
                }
            }
            // E[S] = ρ at unit arrival rate. Departures, not arrivals,
            // order the samples; the mean is the same.
            assert_in_batch_means_ci(&sojourns, rho / (1.0 - rho), &format!("M/G/1-PS ρ={rho}"));
        }
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_nonpositive_rate() {
        let _ = fifo(0.0);
    }
}
