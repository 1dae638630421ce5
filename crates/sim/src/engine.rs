//! The simulation main loop.
//!
//! Two execution paths share the same event semantics:
//!
//! * [`Simulation::run`] — the production engine. Client arrivals are
//!   *streamed*: the event heap holds at most one pending arrival per
//!   client (plus in-flight completions/retries and the next window tick),
//!   so memory is bounded by concurrency, not run length. Per-request
//!   metadata lives in a dense free-list slab keyed by the sequential
//!   [`RequestId`]s the engine itself assigns.
//! * `Simulation::run_reference` — the pre-optimization engine, compiled
//!   for tests only, as their correctness oracle (the role
//!   `solve_reference` plays for the LP). It materializes every arrival up
//!   front, pushes all of them into the heap before the clock starts, and
//!   tracks metadata in a `HashMap` — the seed's O(total requests) cost
//!   profile. Its coordination is an oracle too: where `run` closes a
//!   round of tree nodes each tick, it sums the published demands with
//!   `Topology::aggregate` and stamps the views itself.
//!
//! The [`EventQueue`](crate::events::EventQueue)'s class-keyed ordering
//! guarantees both paths pop the identical event sequence, so their
//! reports agree on every behavioral observable (see
//! [`SimReport::outcome_eq`] and the `streaming_matches_reference_*`
//! tests).

use crate::config::{QueueMode, RequestCost, SimConfig};
use crate::events::{Event, EventQueue};
use crate::link::{Link, LinkStart};
use crate::metrics::{RateSeries, ResponseStats};
use crate::server::{Accept, Server};
use covenant_agreements::PrincipalId;
use covenant_enforce::{ArrivalOutcome, EnforcementCore, EnforcementCounters};
use covenant_sched::{Request, RequestId, SchedulerConfig};
use covenant_tree::LocalTree;
use covenant_workload::ArrivalStream;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
#[cfg(test)]
use std::collections::HashMap;
use std::time::Instant;

/// Per-request bookkeeping for response times and closed-loop accounting.
#[derive(Debug, Clone, Copy)]
struct RequestMeta {
    client: usize,
    first_arrival: f64,
    /// Reply bytes this request puts on its redirector's link (only read
    /// under a network model; 0.0 otherwise).
    bytes: f64,
}

/// Dense free-list slab for in-flight request metadata.
///
/// Request IDs are slot indices: allocated when the engine first sees a
/// request, recycled when it completes, drops, or is abandoned. Lookup is
/// an array index instead of a hash, and occupancy never exceeds the number
/// of requests simultaneously in flight.
#[derive(Debug, Default)]
struct MetaSlab {
    slots: Vec<Option<RequestMeta>>,
    free: Vec<usize>,
}

impl MetaSlab {
    fn insert(&mut self, meta: RequestMeta) -> u64 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot].is_none());
                self.slots[slot] = Some(meta);
                slot as u64
            }
            None => {
                self.slots.push(Some(meta));
                (self.slots.len() - 1) as u64
            }
        }
    }

    fn remove(&mut self, id: u64) -> Option<RequestMeta> {
        let slot = id as usize;
        let meta = self.slots.get_mut(slot)?.take();
        if meta.is_some() {
            self.free.push(slot);
        }
        meta
    }

    fn get(&self, id: u64) -> Option<RequestMeta> {
        self.slots.get(id as usize).copied().flatten()
    }
}

/// One client's lazy request source: the arrival stream plus the cost
/// model, consumed in generation order so sampled costs match a
/// pre-materialized trace exactly.
struct ClientGen {
    stream: ArrivalStream,
    cost: RequestCost,
    size_rng: Option<StdRng>,
    /// Per-client arrival sequence number (the event queue's tie-break).
    next_index: u64,
    /// Target redirector (cached from the config).
    redirector: usize,
    done: bool,
}

impl ClientGen {
    fn new(ci: usize, client: &crate::config::SimClient) -> Self {
        let size_rng = match &client.cost {
            RequestCost::SizeDistributed { seed, .. } => {
                Some(StdRng::seed_from_u64(*seed ^ ci as u64))
            }
            _ => None,
        };
        ClientGen {
            stream: client.machine.stream(),
            cost: client.cost.clone(),
            size_rng,
            next_index: 0,
            redirector: client.redirector,
            done: false,
        }
    }

    /// Pushes this client's next arrival (if any remains within the run)
    /// into the event queue. Arrival times are monotone per client, so the
    /// first one past `duration` ends the stream.
    fn refill(&mut self, ci: usize, duration: f64, latency: f64, events: &mut EventQueue) {
        if self.done {
            return;
        }
        match self.stream.next() {
            Some(a) if a.time <= duration => {
                // Sized clients carry their sampled reply bytes so the
                // link model transfers the exact 200 B–500 KB draw, not
                // the unit-floored cost; other cost models leave 0.0 and
                // the engine derives bytes from cost × unit_bytes.
                let (cost, bytes) = match &self.cost {
                    RequestCost::Unit => (1.0, 0.0),
                    RequestCost::Fixed(x) => (*x, 0.0),
                    RequestCost::SizeDistributed { sizes, mean_bytes, .. } => {
                        let rng = self.size_rng.as_mut().expect("rng for sized client");
                        let bytes = sizes.sample(rng);
                        (sizes.cost_units(bytes, *mean_bytes), bytes as f64)
                    }
                };
                // The id is assigned from the slab when the event pops.
                let req = Request {
                    id: RequestId(u64::MAX),
                    principal: a.principal,
                    arrival: a.time,
                    cost,
                };
                let index = self.next_index;
                self.next_index += 1;
                // The request reaches the redirector one hop later.
                events.push_arrival(
                    a.time + latency,
                    ci,
                    index,
                    Event::Arrival {
                        request: req,
                        redirector: self.redirector,
                        client: ci,
                        retries: 0,
                        bytes,
                    },
                );
            }
            _ => self.done = true,
        }
    }
}

/// One recorded admission decision (see
/// [`SimConfig::record_decisions`]): what the enforcement core decided for
/// a single arrival event, retries included.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalDecision {
    /// Simulation time the decision was made: the arrival time plus one
    /// network hop for originals, the re-presentation time for retries.
    pub time: f64,
    /// Redirector that decided.
    pub redirector: usize,
    /// The request's principal.
    pub principal: PrincipalId,
    /// The request's cost in average-request units.
    pub cost: f64,
    /// The decision.
    pub outcome: ArrivalOutcome,
}

/// Aggregated results of one run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-principal completed-request rates (the paper's plotted series).
    pub rates: RateSeries,
    /// Per-principal response-time statistics.
    pub response: Vec<ResponseStats>,
    /// Requests offered per principal (original arrivals, not retries).
    pub offered: Vec<u64>,
    /// Requests forwarded to servers, per principal.
    pub admitted: Vec<u64>,
    /// Self-redirect deferrals issued, per principal.
    pub deferred: Vec<u64>,
    /// Requests dropped at server backlogs.
    pub dropped_server: u64,
    /// Deferred requests abandoned after exhausting retries.
    pub abandoned: u64,
    /// Scheduled sends skipped because a closed-loop client was at its
    /// outstanding limit.
    pub skipped_closed_loop: u64,
    /// Per-server utilization over the run.
    pub server_utilization: Vec<f64>,
    /// Total coordination messages exchanged over the combining tree.
    pub tree_messages: u64,
    /// Coordination messages a pairwise scheme would have needed.
    pub pairwise_messages_equivalent: u64,
    /// Plan-cache hits summed over all redirectors (windows that replayed
    /// the previous solve instead of running the LP).
    pub plan_cache_hits: u64,
    /// Plan-cache misses summed over all redirectors (windows that ran the
    /// LP).
    pub plan_cache_misses: u64,
    /// Plan-cache entries pushed out by the LRU cap, summed over all
    /// redirectors.
    pub plan_cache_evictions: u64,
    /// Simplex solves summed over all redirectors (warm revised plus dense
    /// tableau).
    pub lp_solves: u64,
    /// Simplex pivots summed over all redirectors.
    pub lp_pivots: u64,
    /// Windows solved by reusing the previous window's optimal basis,
    /// summed over all redirectors.
    pub lp_warm_hits: u64,
    /// Windows the warm solver restarted cold or handed to the dense
    /// tableau, summed over all redirectors.
    pub lp_cold_fallbacks: u64,
    /// Per-link reply transfer-time statistics (seconds a reply spent
    /// crossing its redirector's link). Empty without a network model.
    pub transfer: Vec<ResponseStats>,
    /// Total reply bytes each link carried. Empty without a network model.
    pub link_bytes: Vec<f64>,
    /// Peak concurrent transfers per link. Empty without a network model.
    pub link_active_peak: Vec<usize>,
    /// Discrete events the engine processed (arrivals, ticks, completions,
    /// retries) — identical for both execution paths.
    pub events_processed: u64,
    /// High-water mark of the pending-event queue: O(clients + in-flight)
    /// for the streaming engine, O(total requests) for the reference path.
    pub peak_event_queue: usize,
    /// Wall-clock seconds the run took (machine-dependent; excluded from
    /// [`SimReport::outcome_eq`]).
    pub wall_secs: f64,
    /// Per-arrival decision trace; empty unless
    /// [`SimConfig::record_decisions`] is set.
    pub decisions: Vec<ArrivalDecision>,
}

impl SimReport {
    /// Total completed requests for principal `i`.
    pub fn completed(&self, i: usize) -> u64 {
        self.response[i].count
    }

    /// Engine throughput: events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events_processed as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// True when two reports describe the same simulated behavior: every
    /// observable is compared except the performance profile
    /// (`peak_event_queue`, `wall_secs`, and the solver-internal
    /// `plan_cache_evictions`/`lp_*` counters), which legitimately differs
    /// between the streaming and reference paths.
    pub fn outcome_eq(&self, other: &SimReport) -> bool {
        self.rates == other.rates
            && self.response == other.response
            && self.offered == other.offered
            && self.admitted == other.admitted
            && self.deferred == other.deferred
            && self.dropped_server == other.dropped_server
            && self.abandoned == other.abandoned
            && self.skipped_closed_loop == other.skipped_closed_loop
            && self.server_utilization == other.server_utilization
            && self.tree_messages == other.tree_messages
            && self.pairwise_messages_equivalent == other.pairwise_messages_equivalent
            && self.plan_cache_hits == other.plan_cache_hits
            && self.plan_cache_misses == other.plan_cache_misses
            && self.transfer == other.transfer
            && self.link_bytes == other.link_bytes
            && self.link_active_peak == other.link_active_peak
            && self.events_processed == other.events_processed
            && self.decisions == other.decisions
    }
}

/// A configured simulation, ready to run.
pub struct Simulation {
    cfg: SimConfig,
}

/// Shared per-run state that is identical between the two execution paths.
struct RunState {
    /// The combining tree every redirector publishes into and reads from.
    tree: LocalTree,
    /// One enforcement core per redirector, indexed by tree node.
    cores: Vec<EnforcementCore>,
    servers: Vec<Server>,
    /// Capacity changes sorted by time; consumed via `change_cursor`.
    changes: Vec<crate::config::CapacityChange>,
    change_cursor: usize,
    /// Redirector restarts sorted by time; consumed via `restart_cursor`.
    restarts: Vec<(f64, usize)>,
    restart_cursor: usize,
    /// Agreement renegotiations sorted by time; consumed via `agmt_cursor`.
    agmt_changes: Vec<crate::config::AgreementChange>,
    agmt_cursor: usize,
    /// Reply-path links, one per redirector; empty without a net model.
    links: Vec<Link>,
    /// Bytes one cost unit puts on a link when the request carries no
    /// sampled size.
    unit_bytes: f64,
    /// Per-link transfer-time stats.
    transfer: Vec<ResponseStats>,
    /// Reused fair-share delivery buffer.
    wake_buf: Vec<(Request, f64)>,
    live_graph: covenant_agreements::AgreementGraph,
    rates: RateSeries,
    response: Vec<ResponseStats>,
    offered: Vec<u64>,
    admitted: Vec<u64>,
    deferred: Vec<u64>,
    dropped_server: u64,
    abandoned: u64,
    skipped: u64,
    outstanding: Vec<usize>,
    client_limit: Vec<Option<usize>>,
    retry_delay: f64,
    hop: f64,
    /// `Some` when the config asked for a per-arrival decision trace.
    decisions: Option<Vec<ArrivalDecision>>,
}

impl RunState {
    /// Rolls redirector `ri`'s window at `now`: read its view of the
    /// tree's total, tick its core on it, publish the demand the tick
    /// returns. The round closes once every redirector has rolled.
    fn roll(&mut self, ri: usize, now: f64, released: &mut Vec<(Request, usize)>) {
        let view = self.tree.view(ri).and_then(|v| v.read(now)).map(Vec::as_slice);
        let demand = self.cores[ri].on_window_tick(view, None, released);
        self.tree.publish(ri, demand);
    }
}

impl Simulation {
    /// Wraps a configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Simulation { cfg }
    }

    fn sched_cfg_for(cfg: &SimConfig, id: usize) -> SchedulerConfig {
        // Per-redirector scheduler configuration: the policy is shared,
        // but locality caps (forwarding-cost limits) are per node.
        let mut policy = cfg.policy.clone();
        if let (covenant_sched::Policy::Community { locality }, Some(table)) =
            (&mut policy, &cfg.redirector_locality)
        {
            if let Some(caps) = table.get(id).and_then(|c| c.clone()) {
                *locality = Some(caps);
            }
        }
        SchedulerConfig {
            window_secs: cfg.window_secs,
            policy,
            conservative_fraction: cfg.conservative_fraction,
            plan_cache: cfg.plan_cache,
        }
    }

    fn init_state(cfg: &SimConfig) -> RunState {
        let n = cfg.graph.len();
        let n_redirectors = cfg.n_redirectors();
        let levels = cfg.graph.access_levels();
        let cores = (0..n_redirectors)
            .map(|id| EnforcementCore::new(&levels, Self::sched_cfg_for(cfg, id), cfg.mode.clone()))
            .collect();
        let servers: Vec<Server> = cfg
            .graph
            .capacities()
            .iter()
            .map(|&c| Server::new(c, cfg.server_backlog))
            .collect();

        // Capacity-change / restart schedules, applied at window boundaries
        // by advancing a cursor over the pre-sorted lists.
        let mut changes = cfg.capacity_changes.clone();
        changes.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite times"));
        let mut restarts = cfg.redirector_restarts.clone();
        restarts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        let mut agmt_changes = cfg.agreement_changes.clone();
        agmt_changes.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite times"));

        let (links, unit_bytes) = match &cfg.net {
            Some(net) => {
                assert_eq!(net.links.len(), n_redirectors, "one link per redirector");
                assert!(net.unit_bytes.is_finite() && net.unit_bytes > 0.0);
                (net.links.iter().map(Link::new).collect(), net.unit_bytes)
            }
            None => (Vec::new(), 0.0),
        };
        let n_links = links.len();

        // A self-redirect costs the client one full round trip on top of
        // its think/retry delay.
        let retry_delay = match cfg.mode {
            QueueMode::CreditRetry { retry_delay } => retry_delay + 2.0 * cfg.network_latency,
            _ => 0.0,
        };

        RunState {
            tree: LocalTree::new(&cfg.tree, cfg.extra_tree_lag),
            cores,
            servers,
            changes,
            change_cursor: 0,
            restarts,
            restart_cursor: 0,
            agmt_changes,
            agmt_cursor: 0,
            links,
            unit_bytes,
            transfer: vec![ResponseStats::default(); n_links],
            wake_buf: Vec::new(),
            live_graph: cfg.graph.clone(),
            rates: RateSeries::new(n, cfg.bucket_secs),
            response: vec![ResponseStats::default(); n],
            offered: vec![0u64; n],
            admitted: vec![0u64; n],
            deferred: vec![0u64; n],
            dropped_server: 0,
            abandoned: 0,
            skipped: 0,
            outstanding: vec![0; cfg.clients.len()],
            client_limit: cfg.clients.iter().map(|c| c.max_outstanding).collect(),
            retry_delay,
            hop: cfg.network_latency,
            decisions: cfg.record_decisions.then(Vec::new),
        }
    }

    /// Applies any due capacity changes and redirector restarts at a window
    /// boundary (cursor walk over the pre-sorted schedules).
    fn apply_boundary_schedules(cfg: &SimConfig, st: &mut RunState, now: f64) {
        // Apply any due capacity changes: re-flow the agreement graph and
        // install fresh levels everywhere.
        let mut changed = false;
        while st.change_cursor < st.changes.len() && st.changes[st.change_cursor].at <= now {
            let c = &st.changes[st.change_cursor];
            st.change_cursor += 1;
            st.live_graph
                .set_capacity(c.principal, c.capacity)
                .expect("valid capacity change");
            st.servers[c.principal.0].set_capacity(c.capacity);
            changed = true;
        }
        // Agreement renegotiations ride the same dynamic-reinterpretation
        // hook: rewrite the live graph's bounds, then re-flow once below.
        while st.agmt_cursor < st.agmt_changes.len() && st.agmt_changes[st.agmt_cursor].at <= now {
            let c = &st.agmt_changes[st.agmt_cursor];
            st.agmt_cursor += 1;
            st.live_graph
                .set_agreement(c.issuer, c.holder, c.lb, c.ub)
                .expect("valid agreement renegotiation");
            changed = true;
        }
        if changed {
            let fresh = st.live_graph.access_levels();
            for core in st.cores.iter_mut() {
                core.update_levels(&fresh);
            }
        }
        // Crash-and-restart injection: replace the redirector's core with a
        // fresh one; queued/parked requests and all learned state are lost,
        // exactly like a process crash — its tree node and view included,
        // which the neighbours see as a dropped and returning edge.
        while st.restart_cursor < st.restarts.len() && st.restarts[st.restart_cursor].0 <= now {
            let (_, id) = st.restarts[st.restart_cursor];
            st.restart_cursor += 1;
            st.tree.restart(id);
            let (levels, sched) = (st.live_graph.access_levels(), Self::sched_cfg_for(cfg, id));
            st.cores[id] = EnforcementCore::new(&levels, sched, cfg.mode.clone());
        }
    }

    fn finish(
        cfg: &SimConfig,
        st: RunState,
        events_processed: u64,
        peak_event_queue: usize,
        wall_secs: f64,
    ) -> SimReport {
        let windows = (cfg.duration / cfg.window_secs).ceil() as u64 + 1;
        let counters: Vec<EnforcementCounters> =
            st.cores.iter().map(EnforcementCore::counters).collect();
        let sum = |f: fn(&EnforcementCounters) -> u64| counters.iter().map(f).sum();
        SimReport {
            rates: st.rates,
            response: st.response,
            offered: st.offered,
            admitted: st.admitted,
            deferred: st.deferred,
            dropped_server: st.dropped_server,
            abandoned: st.abandoned,
            skipped_closed_loop: st.skipped,
            server_utilization: st
                .servers
                .iter()
                .map(|s| s.utilization(cfg.duration))
                .collect(),
            tree_messages: st.tree.messages(),
            pairwise_messages_equivalent: windows * cfg.tree.pairwise_messages() as u64,
            plan_cache_hits: sum(|c| c.plan_cache_hits),
            plan_cache_misses: sum(|c| c.plan_cache_misses),
            plan_cache_evictions: sum(|c| c.plan_cache_evictions),
            lp_solves: sum(|c| c.lp_solves),
            lp_pivots: sum(|c| c.lp_pivots),
            lp_warm_hits: sum(|c| c.lp_warm_hits),
            lp_cold_fallbacks: sum(|c| c.lp_cold_fallbacks),
            transfer: st.transfer,
            link_bytes: st.links.iter().map(|l| l.bytes).collect(),
            link_active_peak: st.links.iter().map(|l| l.active_peak).collect(),
            events_processed,
            peak_event_queue,
            wall_secs,
            decisions: st.decisions.unwrap_or_default(),
        }
    }

    /// Runs to completion and reports (streaming engine).
    pub fn run(self) -> SimReport {
        let start = Instant::now();
        let cfg = self.cfg;
        let n_redirectors = cfg.n_redirectors();
        let mut st = Self::init_state(&cfg);

        let mut events = EventQueue::new();
        // Window ticks stream one at a time: tick `i` lands exactly at
        // `i * window_secs` (integer-index multiplication — no float-drift
        // accumulation), and pushing tick `i+1` is part of handling tick
        // `i`. One event per boundary drives every redirector in lock-step
        // (the paper's redirectors share the 100 ms cadence).
        let mut tick_index: u64 = 0;
        events.push_tick(0.0, 0, Event::WindowTick);

        // One lazy arrival source per client; the heap holds at most one
        // pending original arrival per client at any time.
        let mut clients: Vec<ClientGen> = cfg
            .clients
            .iter()
            .enumerate()
            .map(|(ci, c)| ClientGen::new(ci, c))
            .collect();
        for (ci, c) in clients.iter_mut().enumerate() {
            c.refill(ci, cfg.duration, cfg.network_latency, &mut events);
        }

        let mut meta = MetaSlab::default();
        // Reused per-tick release list.
        let mut released: Vec<(Request, usize)> = Vec::new();
        let mut events_processed: u64 = 0;

        while let Some((now, event)) = events.pop() {
            if now > cfg.duration + 1e-9 {
                break;
            }
            events_processed += 1;
            match event {
                Event::Arrival { mut request, redirector, client, retries, bytes } => {
                    if retries == 0 {
                        // This client's next arrival takes the vacated
                        // pending slot (before any early-out below).
                        clients[client].refill(
                            client,
                            cfg.duration,
                            cfg.network_latency,
                            &mut events,
                        );
                        // Closed-loop gate on original sends only.
                        if let Some(limit) = st.client_limit[client] {
                            if st.outstanding[client] >= limit {
                                st.skipped += 1;
                                continue;
                            }
                        }
                        st.offered[request.principal.0] += 1;
                        st.outstanding[client] += 1;
                        let bytes =
                            if bytes > 0.0 { bytes } else { request.cost * st.unit_bytes };
                        request.id = RequestId(meta.insert(RequestMeta {
                            client,
                            first_arrival: request.arrival,
                            bytes,
                        }));
                    }
                    let outcome = st.cores[redirector].on_arrival(request);
                    if let Some(trace) = st.decisions.as_mut() {
                        trace.push(ArrivalDecision {
                            time: now,
                            redirector,
                            principal: request.principal,
                            cost: request.cost,
                            outcome,
                        });
                    }
                    match outcome {
                        ArrivalOutcome::Forward { server } => {
                            st.admitted[request.principal.0] += 1;
                            match st.servers[server].offer(now + st.hop, request) {
                                Accept::CompletesAt(done) => {
                                    events.push(done, Event::Completion { server });
                                }
                                Accept::Dropped => {
                                    st.dropped_server += 1;
                                    if let Some(m) = meta.remove(request.id.0) {
                                        st.outstanding[m.client] =
                                            st.outstanding[m.client].saturating_sub(1);
                                    }
                                }
                            }
                        }
                        ArrivalOutcome::Defer => {
                            st.deferred[request.principal.0] += 1;
                            if retries < cfg.max_retries {
                                events.push(
                                    now + st.retry_delay,
                                    Event::Arrival {
                                        request,
                                        redirector,
                                        client,
                                        retries: retries + 1,
                                        bytes,
                                    },
                                );
                            } else {
                                st.abandoned += 1;
                                if let Some(m) = meta.remove(request.id.0) {
                                    st.outstanding[m.client] =
                                        st.outstanding[m.client].saturating_sub(1);
                                }
                            }
                        }
                        ArrivalOutcome::Queued => {}
                    }
                }
                Event::WindowTick => {
                    tick_index += 1;
                    let next_t = tick_index as f64 * cfg.window_secs;
                    if next_t <= cfg.duration {
                        events.push_tick(next_t, tick_index, Event::WindowTick);
                    }
                    Self::apply_boundary_schedules(&cfg, &mut st, now);
                    // Every redirector rolls its window, publishing its
                    // demand into its tree node; then the round closes and
                    // each node's view holds the total (with per-node lag).
                    for ri in 0..n_redirectors {
                        st.roll(ri, now, &mut released);
                        for (req, server) in released.drain(..) {
                            st.admitted[req.principal.0] += 1;
                            match st.servers[server].offer(now + st.hop, req) {
                                Accept::CompletesAt(done) => {
                                    events.push(done, Event::Completion { server });
                                }
                                Accept::Dropped => {
                                    st.dropped_server += 1;
                                    if let Some(m) = meta.remove(req.id.0) {
                                        st.outstanding[m.client] =
                                            st.outstanding[m.client].saturating_sub(1);
                                    }
                                }
                            }
                        }
                    }
                    st.tree.close_round(now);
                }
                Event::Completion { server } => {
                    let req = st.servers[server].complete();
                    st.rates.record(req.principal, now, req.cost);
                    if st.links.is_empty() {
                        if let Some(m) = meta.remove(req.id.0) {
                            // The response crosses two hops back to the client.
                            st.response[req.principal.0]
                                .record(now + 2.0 * st.hop - m.first_arrival);
                            st.outstanding[m.client] = st.outstanding[m.client].saturating_sub(1);
                        }
                    } else if let Some(m) = meta.get(req.id.0) {
                        // The reply now contends for the client's
                        // redirector link; metadata is retained until the
                        // transfer delivers.
                        let link = cfg.clients[m.client].redirector;
                        match st.links[link].start(now, m.bytes, req) {
                            LinkStart::Deliver(at) => events
                                .push(at, Event::ReplyDelivered { request: req, link, entered: now }),
                            LinkStart::Wake(at, version) => {
                                events.push(at, Event::LinkWake { link, version });
                            }
                        }
                    }
                }
                Event::ReplyDelivered { request, link, entered } => {
                    st.transfer[link].record(now - entered);
                    st.links[link].note_delivered();
                    if let Some(m) = meta.remove(request.id.0) {
                        st.response[request.principal.0]
                            .record(now + 2.0 * st.hop - m.first_arrival);
                        st.outstanding[m.client] = st.outstanding[m.client].saturating_sub(1);
                    }
                }
                Event::LinkWake { link, version } => {
                    let mut buf = std::mem::take(&mut st.wake_buf);
                    if let Some((at, v)) = st.links[link].on_wake(now, version, &mut buf) {
                        events.push(at, Event::LinkWake { link, version: v });
                    }
                    for (req, entered) in buf.drain(..) {
                        st.transfer[link].record(now - entered);
                        if let Some(m) = meta.remove(req.id.0) {
                            st.response[req.principal.0]
                                .record(now + 2.0 * st.hop - m.first_arrival);
                            st.outstanding[m.client] = st.outstanding[m.client].saturating_sub(1);
                        }
                    }
                    st.wake_buf = buf;
                }
            }
        }

        let peak = events.peak_len();
        let wall = start.elapsed().as_secs_f64();
        Self::finish(&cfg, st, events_processed, peak, wall)
    }

    /// Runs to completion on the pre-optimization path: every arrival is
    /// materialized and heap-scheduled up front and request metadata lives
    /// in a `HashMap` — the seed engine's O(total requests) memory and
    /// cost profile.
    ///
    /// The oracle the `streaming_matches_reference_*` tests compare
    /// [`Simulation::run`] against.
    #[cfg(test)]
    pub fn run_reference(self) -> SimReport {
        let start = Instant::now();
        let cfg = self.cfg;
        let n_redirectors = cfg.n_redirectors();
        let mut st = Self::init_state(&cfg);
        let mut tree_messages: u64 = 0;

        let mut events = EventQueue::new();
        // All window ticks up front (same drift-free boundary times as the
        // streaming path: tick i at exactly i * window_secs).
        let mut i: u64 = 0;
        loop {
            let t = i as f64 * cfg.window_secs;
            if t > cfg.duration {
                break;
            }
            events.push(t, Event::WindowTick);
            i += 1;
        }

        // Client arrivals, fully materialized with per-client cost models.
        let mut next_id: u64 = 0;
        for (ci, c) in cfg.clients.iter().enumerate() {
            let mut size_rng = match &c.cost {
                RequestCost::SizeDistributed { seed, .. } => {
                    Some(StdRng::seed_from_u64(*seed ^ ci as u64))
                }
                _ => None,
            };
            for a in c.machine.arrivals() {
                if a.time > cfg.duration {
                    continue;
                }
                let (cost, bytes) = match &c.cost {
                    RequestCost::Unit => (1.0, 0.0),
                    RequestCost::Fixed(x) => (*x, 0.0),
                    RequestCost::SizeDistributed { sizes, mean_bytes, .. } => {
                        let rng = size_rng.as_mut().expect("rng for sized client");
                        let bytes = sizes.sample(rng);
                        (sizes.cost_units(bytes, *mean_bytes), bytes as f64)
                    }
                };
                let req =
                    Request { id: RequestId(next_id), principal: a.principal, arrival: a.time, cost };
                next_id += 1;
                events.push(
                    a.time + cfg.network_latency,
                    Event::Arrival {
                        request: req,
                        redirector: c.redirector,
                        client: ci,
                        retries: 0,
                        bytes,
                    },
                );
            }
        }

        let mut meta: HashMap<u64, RequestMeta> = HashMap::new();
        let mut events_processed: u64 = 0;

        while let Some((now, event)) = events.pop() {
            if now > cfg.duration + 1e-9 {
                break;
            }
            events_processed += 1;
            match event {
                Event::Arrival { request, redirector, client, retries, bytes } => {
                    if retries == 0 {
                        if let Some(limit) = st.client_limit[client] {
                            if st.outstanding[client] >= limit {
                                st.skipped += 1;
                                continue;
                            }
                        }
                        st.offered[request.principal.0] += 1;
                        st.outstanding[client] += 1;
                        let bytes =
                            if bytes > 0.0 { bytes } else { request.cost * st.unit_bytes };
                        meta.insert(
                            request.id.0,
                            RequestMeta { client, first_arrival: request.arrival, bytes },
                        );
                    }
                    let outcome = st.cores[redirector].on_arrival(request);
                    if let Some(trace) = st.decisions.as_mut() {
                        trace.push(ArrivalDecision {
                            time: now,
                            redirector,
                            principal: request.principal,
                            cost: request.cost,
                            outcome,
                        });
                    }
                    match outcome {
                        ArrivalOutcome::Forward { server } => {
                            st.admitted[request.principal.0] += 1;
                            match st.servers[server].offer(now + st.hop, request) {
                                Accept::CompletesAt(done) => {
                                    events.push(done, Event::Completion { server });
                                }
                                Accept::Dropped => {
                                    st.dropped_server += 1;
                                    if let Some(m) = meta.remove(&request.id.0) {
                                        st.outstanding[m.client] =
                                            st.outstanding[m.client].saturating_sub(1);
                                    }
                                }
                            }
                        }
                        ArrivalOutcome::Defer => {
                            st.deferred[request.principal.0] += 1;
                            if retries < cfg.max_retries {
                                events.push(
                                    now + st.retry_delay,
                                    Event::Arrival {
                                        request,
                                        redirector,
                                        client,
                                        retries: retries + 1,
                                        bytes,
                                    },
                                );
                            } else {
                                st.abandoned += 1;
                                if let Some(m) = meta.remove(&request.id.0) {
                                    st.outstanding[m.client] =
                                        st.outstanding[m.client].saturating_sub(1);
                                }
                            }
                        }
                        ArrivalOutcome::Queued => {}
                    }
                }
                Event::WindowTick => {
                    Self::apply_boundary_schedules(&cfg, &mut st, now);
                    // Fresh per-tick allocations, as the seed engine made.
                    for ri in 0..n_redirectors {
                        let mut released = Vec::new();
                        st.roll(ri, now, &mut released);
                        for (req, server) in released {
                            st.admitted[req.principal.0] += 1;
                            match st.servers[server].offer(now + st.hop, req) {
                                Accept::CompletesAt(done) => {
                                    events.push(done, Event::Completion { server });
                                }
                                Accept::Dropped => {
                                    st.dropped_server += 1;
                                    if let Some(m) = meta.remove(&req.id.0) {
                                        st.outstanding[m.client] =
                                            st.outstanding[m.client].saturating_sub(1);
                                    }
                                }
                            }
                        }
                    }
                    // The oracle's coordination: the published demands
                    // summed centrally and stamped straight into each view,
                    // no tree node involved.
                    let round = cfg.tree.aggregate(st.tree.demands());
                    tree_messages += round.messages() as u64;
                    for id in 0..n_redirectors {
                        let view = st.tree.view(id).expect("one view per redirector");
                        view.publish(now, round.total.clone());
                    }
                }
                Event::Completion { server } => {
                    let req = st.servers[server].complete();
                    st.rates.record(req.principal, now, req.cost);
                    if st.links.is_empty() {
                        if let Some(m) = meta.remove(&req.id.0) {
                            st.response[req.principal.0]
                                .record(now + 2.0 * st.hop - m.first_arrival);
                            st.outstanding[m.client] = st.outstanding[m.client].saturating_sub(1);
                        }
                    } else if let Some(m) = meta.get(&req.id.0).copied() {
                        let link = cfg.clients[m.client].redirector;
                        match st.links[link].start(now, m.bytes, req) {
                            LinkStart::Deliver(at) => events
                                .push(at, Event::ReplyDelivered { request: req, link, entered: now }),
                            LinkStart::Wake(at, version) => {
                                events.push(at, Event::LinkWake { link, version });
                            }
                        }
                    }
                }
                Event::ReplyDelivered { request, link, entered } => {
                    st.transfer[link].record(now - entered);
                    st.links[link].note_delivered();
                    if let Some(m) = meta.remove(&request.id.0) {
                        st.response[request.principal.0]
                            .record(now + 2.0 * st.hop - m.first_arrival);
                        st.outstanding[m.client] = st.outstanding[m.client].saturating_sub(1);
                    }
                }
                Event::LinkWake { link, version } => {
                    let mut buf = Vec::new();
                    if let Some((at, v)) = st.links[link].on_wake(now, version, &mut buf) {
                        events.push(at, Event::LinkWake { link, version: v });
                    }
                    for (req, entered) in buf {
                        st.transfer[link].record(now - entered);
                        if let Some(m) = meta.remove(&req.id.0) {
                            st.response[req.principal.0]
                                .record(now + 2.0 * st.hop - m.first_arrival);
                            st.outstanding[m.client] = st.outstanding[m.client].saturating_sub(1);
                        }
                    }
                }
            }
        }

        let peak = events.peak_len();
        let wall = start.elapsed().as_secs_f64();
        let mut report = Self::finish(&cfg, st, events_processed, peak, wall);
        report.tree_messages = tree_messages;
        report
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use covenant_agreements::{AgreementGraph, PrincipalId};
    use covenant_sched::Policy;
    use covenant_tree::Topology;
    use covenant_workload::{ClientMachine, PhasedLoad};

    /// Single server 100 req/s shared [0.2,1]/[0.8,1] between A and B.
    fn small_system() -> AgreementGraph {
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 100.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.2, 1.0).unwrap();
        g.add_agreement(s, b, 0.8, 1.0).unwrap();
        g
    }

    #[test]
    fn underload_serves_everything() {
        let g = small_system();
        let a = PrincipalId(1);
        let cfg = SimConfig::new(g, 20.0).client(
            ClientMachine::uniform(0, a, PhasedLoad::constant(30.0, 20.0)),
            0,
        );
        let report = Simulation::new(cfg).run();
        // 30 req/s for 20 s = 600 offered; nearly all should complete
        // (minus the cold-start window and in-flight tail).
        assert_eq!(report.offered[1], 600);
        assert!(report.completed(1) > 550, "completed {}", report.completed(1));
        // Steady-state rate ≈ 30 req/s.
        let mid = report.rates.mean_rate_secs(a, 5.0, 18.0);
        assert!((mid - 30.0).abs() < 3.0, "rate {mid}");
    }

    #[test]
    fn overload_respects_mandatory_shares() {
        let g = small_system();
        let a = PrincipalId(1);
        let b = PrincipalId(2);
        let cfg = SimConfig::new(g, 30.0)
            .client(ClientMachine::uniform(0, a, PhasedLoad::constant(200.0, 30.0)), 0)
            .client(ClientMachine::uniform(1, b, PhasedLoad::constant(200.0, 30.0)), 0);
        let report = Simulation::new(cfg).run();
        let rate_a = report.rates.mean_rate_secs(a, 10.0, 28.0);
        let rate_b = report.rates.mean_rate_secs(b, 10.0, 28.0);
        // B guaranteed 80 req/s, A 20 req/s under overload.
        assert!((rate_b - 80.0).abs() < 8.0, "B rate {rate_b}");
        assert!((rate_a - 20.0).abs() < 8.0, "A rate {rate_a}");
    }

    #[test]
    fn idle_partner_capacity_flows_to_active() {
        let g = small_system();
        let a = PrincipalId(1);
        let cfg = SimConfig::new(g, 20.0).client(
            ClientMachine::uniform(0, a, PhasedLoad::constant(200.0, 20.0)),
            0,
        );
        let report = Simulation::new(cfg).run();
        // A alone can burst to the full 100 req/s.
        let rate_a = report.rates.mean_rate_secs(a, 5.0, 18.0);
        assert!((rate_a - 100.0).abs() < 10.0, "A rate {rate_a}");
    }

    #[test]
    fn explicit_mode_also_enforces() {
        let g = small_system();
        let a = PrincipalId(1);
        let b = PrincipalId(2);
        let cfg = SimConfig::new(g, 30.0)
            .with_mode(QueueMode::Explicit)
            .client(ClientMachine::uniform(0, a, PhasedLoad::constant(200.0, 30.0)), 0)
            .client(ClientMachine::uniform(1, b, PhasedLoad::constant(200.0, 30.0)), 0);
        let report = Simulation::new(cfg).run();
        let rate_b = report.rates.mean_rate_secs(b, 10.0, 28.0);
        assert!((rate_b - 80.0).abs() < 10.0, "B rate {rate_b}");
    }

    #[test]
    fn park_mode_also_enforces() {
        let g = small_system();
        let a = PrincipalId(1);
        let b = PrincipalId(2);
        let cfg = SimConfig::new(g, 30.0)
            .with_mode(QueueMode::CreditPark)
            .client(ClientMachine::uniform(0, a, PhasedLoad::constant(200.0, 30.0)), 0)
            .client(ClientMachine::uniform(1, b, PhasedLoad::constant(200.0, 30.0)), 0);
        let report = Simulation::new(cfg).run();
        let rate_b = report.rates.mean_rate_secs(b, 10.0, 28.0);
        assert!((rate_b - 80.0).abs() < 10.0, "B rate {rate_b}");
    }

    #[test]
    fn two_redirectors_coordinate() {
        let g = small_system();
        let a = PrincipalId(1);
        let b = PrincipalId(2);
        let cfg = SimConfig::new(g, 30.0)
            .with_tree(Topology::star(2, 0.0), 0.0)
            .client(ClientMachine::uniform(0, a, PhasedLoad::constant(200.0, 30.0)), 0)
            .client(ClientMachine::uniform(1, b, PhasedLoad::constant(200.0, 30.0)), 1);
        let report = Simulation::new(cfg).run();
        let rate_a = report.rates.mean_rate_secs(a, 10.0, 28.0);
        let rate_b = report.rates.mean_rate_secs(b, 10.0, 28.0);
        assert!((rate_b - 80.0).abs() < 10.0, "B rate {rate_b}");
        assert!((rate_a - 20.0).abs() < 10.0, "A rate {rate_a}");
        assert!(report.tree_messages > 0);
        // With n = 2, per-round tree messages 2(n−1) equal pairwise n(n−1);
        // the tree's saving only appears for n > 2 (next assertion block).
        assert!(report.pairwise_messages_equivalent >= report.tree_messages);
        let cfg3 = SimConfig::new(small_system(), 10.0)
            .with_tree(Topology::star(3, 0.0), 0.0)
            .client(ClientMachine::uniform(0, a, PhasedLoad::constant(100.0, 10.0)), 0);
        let report3 = Simulation::new(cfg3).run();
        assert!(report3.pairwise_messages_equivalent > report3.tree_messages);
    }

    #[test]
    fn deterministic_runs() {
        let g = small_system();
        let a = PrincipalId(1);
        let mk = || {
            let cfg = SimConfig::new(small_system(), 10.0).client(
                ClientMachine::uniform(0, a, PhasedLoad::constant(50.0, 10.0)),
                0,
            );
            let r = Simulation::new(cfg).run();
            (r.offered.clone(), r.admitted.clone(), r.completed(1))
        };
        assert_eq!(mk(), mk());
        drop(g);
    }

    #[test]
    fn closed_loop_limits_outstanding() {
        let g = small_system();
        let a = PrincipalId(1);
        // Offered 1000 req/s into a 100 req/s system with only 2 slots:
        // most scheduled sends are skipped.
        let cfg = SimConfig::new(g, 10.0).closed_loop_client(
            ClientMachine::uniform(0, a, PhasedLoad::constant(1000.0, 10.0)),
            0,
            2,
        );
        let report = Simulation::new(cfg).run();
        assert!(report.skipped_closed_loop > 5000, "skipped {}", report.skipped_closed_loop);
        assert!(report.completed(1) < 1100);
    }

    #[test]
    fn network_latency_raises_response_time_not_rates() {
        let run = |lat: f64| {
            let g = small_system();
            let a = PrincipalId(1);
            let cfg = SimConfig::new(g, 20.0)
                .with_network_latency(lat)
                .client(ClientMachine::uniform(0, a, PhasedLoad::constant(50.0, 20.0)), 0);
            let r = Simulation::new(cfg).run();
            (
                r.rates.mean_rate_secs(a, 5.0, 18.0),
                r.response[1].mean().unwrap_or(0.0),
            )
        };
        let (rate0, resp0) = run(0.0);
        let (rate1, resp1) = run(0.04);
        // Throughput unaffected by latency (open loop, within quota).
        assert!((rate0 - rate1).abs() < 3.0, "{rate0} vs {rate1}");
        // Response time grows by at least the 3 extra hops (120 ms).
        assert!(
            resp1 - resp0 > 0.10,
            "latency not reflected: {resp0:.3} -> {resp1:.3}"
        );
    }

    #[test]
    fn per_redirector_locality_caps_bind() {
        // Two redirectors front a 100 req/s server; R1's locality cap
        // limits it to 3 requests/window (30 req/s) toward the server,
        // while R0 is uncapped. A's clients on R1 are throttled by
        // locality; B's on R0 are not.
        use covenant_sched::LocalityCaps;
        let g = small_system();
        let a = PrincipalId(1);
        let b = PrincipalId(2);
        let cfg = SimConfig::new(g, 30.0)
            .with_tree(Topology::star(2, 0.0), 0.0)
            .client(ClientMachine::uniform(0, a, PhasedLoad::constant(100.0, 30.0)), 1)
            .client(ClientMachine::uniform(1, b, PhasedLoad::constant(40.0, 30.0)), 0)
            .with_redirector_locality(1, LocalityCaps(vec![3.0, 0.0, 0.0]));
        let report = Simulation::new(cfg).run();
        let rate_a = report.rates.mean_rate_secs(a, 10.0, 28.0);
        let rate_b = report.rates.mean_rate_secs(b, 10.0, 28.0);
        assert!(rate_a <= 33.0, "A exceeded its redirector's locality cap: {rate_a}");
        assert!((rate_b - 40.0).abs() < 5.0, "B throttled unexpectedly: {rate_b}");
    }

    #[test]
    fn redirector_restart_recovers_enforcement() {
        let g = small_system();
        let a = PrincipalId(1);
        let b = PrincipalId(2);
        let cfg = SimConfig::new(g, 40.0)
            .client(ClientMachine::uniform(0, a, PhasedLoad::constant(200.0, 40.0)), 0)
            .client(ClientMachine::uniform(1, b, PhasedLoad::constant(200.0, 40.0)), 0)
            .with_redirector_restart(20.0, 0);
        let report = Simulation::new(cfg).run();
        // Steady enforcement before the crash and after recovery.
        let b_before = report.rates.mean_rate_secs(b, 10.0, 19.0);
        let b_after = report.rates.mean_rate_secs(b, 25.0, 39.0);
        assert!((b_before - 80.0).abs() < 8.0, "before {b_before}");
        assert!((b_after - 80.0).abs() < 8.0, "after {b_after}");
        // The restart causes at most a brief dip, never an over-admission:
        // B's rate in the crash window must not exceed its share by much.
        let crash_bucket = report.rates.mean_rate_secs(b, 20.0, 22.0);
        assert!(crash_bucket <= 100.0 + 1.0, "crash bucket {crash_bucket}");
    }

    #[test]
    fn provider_income_accounting() {
        // Provider 100 req/s; A [0.5,1] pays 2, B [0.1,1] pays 1. A idle,
        // B floods: B beyond mandatory earns income; when both flood, A is
        // preferred and neither goes far beyond mandatory+leftover.
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 100.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.5, 1.0).unwrap();
        g.add_agreement(s, b, 0.1, 1.0).unwrap();
        let prices = [0.0, 2.0, 1.0];
        let mandatory = [0.0, 50.0, 10.0];
        let cfg = SimConfig::new(g, 30.0)
            .with_policy(Policy::Provider { prices: prices.to_vec() })
            .client(ClientMachine::uniform(0, PrincipalId(2), PhasedLoad::constant(200.0, 30.0)), 0);
        let report = Simulation::new(cfg).run();
        // B alone: served ~100, beyond mandatory 10 → ~90/s × price 1.
        let income = report.rates.provider_income(&prices, &mandatory);
        assert!(income > 80.0 * 25.0, "income {income}");
        assert!(income < 95.0 * 31.0, "income {income}");
    }

    #[test]
    fn capacity_change_reflows_agreements() {
        // Server 100 → 200 at t=15: B's [0.8,1] share doubles from 80 to
        // 160 req/s mid-run without reconfiguring the redirector.
        let g = small_system();
        let b = PrincipalId(2);
        let cfg = SimConfig::new(g, 30.0)
            .client(ClientMachine::uniform(0, b, PhasedLoad::constant(300.0, 30.0)), 0)
            .client(
                ClientMachine::uniform(1, PrincipalId(1), PhasedLoad::constant(300.0, 30.0)),
                0,
            )
            .with_capacity_change(15.0, PrincipalId(0), 200.0);
        let report = Simulation::new(cfg).run();
        let before = report.rates.mean_rate_secs(b, 5.0, 14.0);
        let after = report.rates.mean_rate_secs(b, 20.0, 29.0);
        assert!((before - 80.0).abs() < 8.0, "before {before}");
        assert!((after - 160.0).abs() < 12.0, "after {after}");
    }

    #[test]
    fn sized_requests_enforced_in_cost_units() {
        // A sends 5-unit requests, B unit requests; both hold [0.5, 0.5] of
        // a 100-unit/s server. Under overload each gets 50 *units*/s: A
        // completes ~10 requests/s (50 units), B ~50.
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 100.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.5, 0.5).unwrap();
        g.add_agreement(s, b, 0.5, 0.5).unwrap();
        let mut cfg = SimConfig::new(g, 30.0)
            .client(ClientMachine::uniform(1, b, PhasedLoad::constant(100.0, 30.0)), 0);
        cfg.clients.push(crate::SimClient {
            machine: ClientMachine::uniform(0, a, PhasedLoad::constant(40.0, 30.0)),
            redirector: 0,
            max_outstanding: None,
            cost: crate::RequestCost::Fixed(5.0),
        });
        let report = Simulation::new(cfg).run();
        // Rates are recorded in cost units: both near 50 units/s.
        let units_a = report.rates.mean_rate_secs(a, 10.0, 28.0);
        let units_b = report.rates.mean_rate_secs(b, 10.0, 28.0);
        assert!((units_a - 50.0).abs() < 10.0, "A units {units_a}");
        assert!((units_b - 50.0).abs() < 10.0, "B units {units_b}");
        // Request counts differ 5:1.
        let req_a = report.completed(1) as f64 / 30.0;
        assert!((req_a - 10.0).abs() < 2.5, "A req/s {req_a}");
    }

    #[test]
    fn provider_policy_runs_in_sim() {
        let g = small_system();
        let a = PrincipalId(1);
        let b = PrincipalId(2);
        let cfg = SimConfig::new(g, 20.0)
            .with_policy(Policy::Provider { prices: vec![0.0, 1.0, 3.0] })
            .client(ClientMachine::uniform(0, a, PhasedLoad::constant(200.0, 20.0)), 0)
            .client(ClientMachine::uniform(1, b, PhasedLoad::constant(200.0, 20.0)), 0);
        let report = Simulation::new(cfg).run();
        // B pays more: under overload B gets its upper bound beyond A's
        // mandatory floor. A holds its mandatory 20; B gets 80.
        let rate_a = report.rates.mean_rate_secs(a, 8.0, 18.0);
        let rate_b = report.rates.mean_rate_secs(b, 8.0, 18.0);
        assert!((rate_a - 20.0).abs() < 8.0, "A rate {rate_a}");
        assert!((rate_b - 80.0).abs() < 8.0, "B rate {rate_b}");
    }

    /// The streaming engine and the pre-optimization reference path must
    /// agree on every behavioral observable for a Figure-6-style
    /// two-redirector contention run that exercises every event class:
    /// Poisson + uniform + size-distributed clients, phased loads, network
    /// latency, retries, a capacity change, and a redirector restart.
    #[test]
    fn streaming_matches_reference_two_redirectors() {
        let a = PrincipalId(1);
        let b = PrincipalId(2);
        let mk = || {
            SimConfig::new(small_system(), 30.0)
                .with_tree(Topology::star(2, 0.0), 0.0)
                .with_network_latency(0.005)
                .client(
                    ClientMachine::poisson(
                        0,
                        a,
                        PhasedLoad::new().then(10.0, 120.0).idle(5.0).then(15.0, 180.0),
                        7,
                    ),
                    0,
                )
                .client(ClientMachine::uniform(1, b, PhasedLoad::constant(150.0, 30.0)), 1)
                .sized_client(
                    ClientMachine::uniform(2, b, PhasedLoad::constant(20.0, 30.0)),
                    1,
                    covenant_workload::ReplySizes::default(),
                    6000.0,
                    9,
                )
                .with_capacity_change(15.0, PrincipalId(0), 150.0)
                .with_redirector_restart(20.0, 1)
        };
        let streamed = Simulation::new(mk()).run();
        let reference = Simulation::new(mk()).run_reference();
        assert!(
            streamed.outcome_eq(&reference),
            "streamed {streamed:?}\nreference {reference:?}"
        );
        assert!(streamed.events_processed > 5_000);
        // The reference heap holds the whole materialized trace; the
        // streaming heap never does.
        assert!(
            streamed.peak_event_queue < reference.peak_event_queue,
            "peak {} vs {}",
            streamed.peak_event_queue,
            reference.peak_event_queue
        );
    }

    /// Streaming/reference agreement holds in all three queuing modes.
    #[test]
    fn streaming_matches_reference_all_modes() {
        for mode in [
            QueueMode::Explicit,
            QueueMode::CreditRetry { retry_delay: 0.05 },
            QueueMode::CreditPark,
        ] {
            let mk = |mode: QueueMode| {
                SimConfig::new(small_system(), 15.0)
                    .with_mode(mode)
                    .client(
                        ClientMachine::uniform(0, PrincipalId(1), PhasedLoad::constant(150.0, 15.0)),
                        0,
                    )
                    .client(
                        ClientMachine::uniform(1, PrincipalId(2), PhasedLoad::constant(150.0, 15.0)),
                        0,
                    )
            };
            let s = Simulation::new(mk(mode.clone())).run();
            let r = Simulation::new(mk(mode.clone())).run_reference();
            assert!(s.outcome_eq(&r), "mode {mode:?}: {s:?}\nvs {r:?}");
        }
    }

    /// The streaming heap is bounded by concurrency (clients + in-flight +
    /// next tick), not run length: a 12k-request closed-loop run keeps a
    /// single-digit pending-event count.
    #[test]
    fn streaming_heap_bounded_by_concurrency() {
        let a = PrincipalId(1);
        let cfg = SimConfig::new(small_system(), 20.0).closed_loop_client(
            ClientMachine::uniform(0, a, PhasedLoad::constant(600.0, 20.0)),
            0,
            4,
        );
        let report = Simulation::new(cfg).run();
        assert!(report.events_processed > 12_000, "events {}", report.events_processed);
        assert!(
            report.peak_event_queue < 32,
            "peak queue {} not bounded by concurrency",
            report.peak_event_queue
        );
    }

    /// A congested FIFO bottleneck queues replies: transfer times blow up
    /// relative to an uncongested link carrying the same traffic.
    #[test]
    fn link_congestion_raises_transfer_times() {
        use crate::link::{LinkDiscipline, NetModelCfg};
        let run = |rate: f64| {
            let a = PrincipalId(1);
            let cfg = SimConfig::new(small_system(), 20.0)
                .client(ClientMachine::uniform(0, a, PhasedLoad::constant(50.0, 20.0)), 0)
                .with_net(NetModelCfg::uniform(1, rate, LinkDiscipline::Fifo));
            Simulation::new(cfg).run()
        };
        // 50 req/s × 6144 B = 307 KB/s of reply traffic.
        let fast = run(2.0e6); // 15% utilized: no queueing
        let slow = run(3.4e5); // 90% utilized: heavy queueing
        let fast_mean = fast.transfer[0].mean().expect("transfers recorded");
        let slow_mean = slow.transfer[0].mean().expect("transfers recorded");
        assert!(fast_mean < 0.01, "uncongested transfer {fast_mean}");
        assert!(
            slow_mean > 3.0 * fast_mean,
            "congestion not visible: {fast_mean} vs {slow_mean}"
        );
        // Throughput in requests is unaffected (the link delays replies,
        // it does not drop them).
        assert_eq!(fast.completed(1), slow.completed(1));
        assert!(slow.link_bytes[0] > 5.0e6, "bytes {}", slow.link_bytes[0]);
    }

    /// With rate → ∞ the link model degenerates to the fixed-delay path:
    /// same rates, (near-)same response times.
    #[test]
    fn infinite_rate_link_degenerates_to_fixed_delay() {
        use crate::link::{LinkDiscipline, NetModelCfg};
        let a = PrincipalId(1);
        let mk = || {
            SimConfig::new(small_system(), 20.0)
                .with_network_latency(0.01)
                .client(ClientMachine::uniform(0, a, PhasedLoad::constant(60.0, 20.0)), 0)
        };
        let fixed = Simulation::new(mk()).run();
        for disc in [LinkDiscipline::Fifo, LinkDiscipline::FairShare] {
            let netted =
                Simulation::new(mk().with_net(NetModelCfg::uniform(1, 1.0e12, disc))).run();
            assert_eq!(fixed.completed(1), netted.completed(1));
            let r0 = fixed.response[1].mean().unwrap();
            let r1 = netted.response[1].mean().unwrap();
            assert!((r0 - r1).abs() < 1e-4, "{disc:?}: {r0} vs {r1}");
        }
    }

    /// Under a shared fair-share bottleneck, small replies are not stuck
    /// behind queued elephants: their transfer times stay below FIFO's for
    /// the same heavy-tailed traffic.
    #[test]
    fn fair_share_shields_small_transfers() {
        use crate::link::{LinkDiscipline, NetModelCfg};
        let a = PrincipalId(1);
        let run = |disc: LinkDiscipline| {
            let cfg = SimConfig::new(small_system(), 30.0)
                .sized_client(
                    ClientMachine::uniform(0, a, PhasedLoad::constant(40.0, 30.0)),
                    0,
                    covenant_workload::ReplySizes::default(),
                    6144.0,
                    11,
                )
                .with_net(NetModelCfg::uniform(1, 3.5e5, disc));
            Simulation::new(cfg).run()
        };
        let fifo = run(LinkDiscipline::Fifo);
        let fair = run(LinkDiscipline::FairShare);
        // Same byte volume crossed the same-rate link either way (the
        // delivery count may differ by a few in-flight tails at cutoff).
        assert!((fifo.link_bytes[0] - fair.link_bytes[0]).abs() < 1.0);
        assert!(fifo.transfer[0].count.abs_diff(fair.transfer[0].count) < 10);
        // Heavy-tailed sizes punish FIFO (every reply waits behind queued
        // elephants, mean wait ∝ E[S²]); processor sharing is insensitive
        // to the size distribution, so its mean sojourn stays lower.
        let fifo_mean = fifo.transfer[0].mean().expect("transfers");
        let fair_mean = fair.transfer[0].mean().expect("transfers");
        assert!(
            fifo_mean > fair_mean,
            "PS should beat FIFO on heavy tails: {fifo_mean} vs {fair_mean}"
        );
        // The elephants themselves drain slower under PS than FIFO.
        assert!(fair.transfer[0].max >= fifo.transfer[0].max * 0.5);
    }

    /// A mid-run renegotiation re-flows the agreement graph: shrinking B's
    /// mandatory share hands the freed capacity to the optional pool.
    #[test]
    fn agreement_renegotiation_reflows_midrun() {
        let a = PrincipalId(1);
        let b = PrincipalId(2);
        let cfg = SimConfig::new(small_system(), 40.0)
            .client(ClientMachine::uniform(0, a, PhasedLoad::constant(200.0, 40.0)), 0)
            .client(ClientMachine::uniform(1, b, PhasedLoad::constant(200.0, 40.0)), 0)
            .with_agreement_change(20.0, PrincipalId(0), b, 0.2, 1.0);
        let report = Simulation::new(cfg).run();
        // Before: B's mandatory 80 dominates. After [0.8,1] → [0.2,1]:
        // mandatory floors are 20/20 and the 60-unit leftover splits
        // θ-fair, so both settle near 50.
        let b_before = report.rates.mean_rate_secs(b, 8.0, 19.0);
        let b_after = report.rates.mean_rate_secs(b, 25.0, 39.0);
        let a_after = report.rates.mean_rate_secs(a, 25.0, 39.0);
        assert!((b_before - 80.0).abs() < 8.0, "before {b_before}");
        assert!(b_after < 62.0, "B kept its old share: {b_after}");
        assert!(a_after > 38.0, "A never gained: {a_after}");
    }

    /// Streaming/reference agreement holds with the full network model in
    /// play: mixed disciplines, sized clients, a renegotiation, retries.
    #[test]
    fn streaming_matches_reference_with_net() {
        use crate::link::{LinkCfg, LinkDiscipline, NetModelCfg};
        let a = PrincipalId(1);
        let b = PrincipalId(2);
        let mk = || {
            SimConfig::new(small_system(), 25.0)
                .with_tree(Topology::star(2, 0.0), 0.0)
                .with_network_latency(0.005)
                .client(ClientMachine::uniform(0, a, PhasedLoad::constant(140.0, 25.0)), 0)
                .sized_client(
                    ClientMachine::uniform(1, b, PhasedLoad::constant(120.0, 25.0)),
                    1,
                    covenant_workload::ReplySizes::default(),
                    6144.0,
                    13,
                )
                .with_agreement_change(12.0, PrincipalId(0), b, 0.4, 1.0)
                .with_net(NetModelCfg {
                    links: vec![
                        LinkCfg { rate_bytes_per_sec: 4.0e5, discipline: LinkDiscipline::Fifo },
                        LinkCfg {
                            rate_bytes_per_sec: 4.0e5,
                            discipline: LinkDiscipline::FairShare,
                        },
                    ],
                    unit_bytes: 6144.0,
                })
        };
        let streamed = Simulation::new(mk()).run();
        let reference = Simulation::new(mk()).run_reference();
        assert!(
            streamed.outcome_eq(&reference),
            "streamed {streamed:?}\nreference {reference:?}"
        );
        assert!(streamed.transfer[0].count > 100, "fifo transfers");
        assert!(streamed.transfer[1].count > 100, "fair-share transfers");
    }

    /// The streaming heap stays bounded by concurrency under a congested
    /// fair-share bottleneck (wake events are version-guarded, not
    /// accumulated).
    #[test]
    fn bottleneck_keeps_event_queue_bounded() {
        use crate::link::{LinkDiscipline, NetModelCfg};
        let a = PrincipalId(1);
        let cfg = SimConfig::new(small_system(), 20.0)
            .closed_loop_client(
                ClientMachine::uniform(0, a, PhasedLoad::constant(400.0, 20.0)),
                0,
                8,
            )
            .with_net(NetModelCfg::uniform(1, 3.0e5, LinkDiscipline::FairShare));
        let report = Simulation::new(cfg).run();
        assert!(report.events_processed > 3_000, "events {}", report.events_processed);
        assert!(
            report.peak_event_queue < 64,
            "peak queue {} not bounded under the bottleneck",
            report.peak_event_queue
        );
    }

    /// `events_per_sec` is consistent with the recorded counters.
    #[test]
    fn report_throughput_counters() {
        let a = PrincipalId(1);
        let cfg = SimConfig::new(small_system(), 5.0)
            .client(ClientMachine::uniform(0, a, PhasedLoad::constant(50.0, 5.0)), 0);
        let report = Simulation::new(cfg).run();
        assert!(report.wall_secs > 0.0);
        assert!(report.events_processed > 250);
        let eps = report.events_per_sec();
        assert!((eps - report.events_processed as f64 / report.wall_secs).abs() < 1e-6);
    }
}
