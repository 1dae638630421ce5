//! The simulation main loop: one world, run two ways.
//!
//! A `World` holds a run's state grouped by owner — clients, redirectors,
//! servers, links and the timeline schedules — and `World::apply` is the
//! one handler of every [`Event`]. Two entry points run it:
//!
//! * [`Simulation::run`] — the production engine. Client arrivals and
//!   window ticks are *streamed*: the event heap holds at most one pending
//!   arrival per client (plus in-flight completions/retries and the next
//!   tick), so memory is bounded by concurrency, not run length. A
//!   deferred request's retry, which under credit retry is most events,
//!   waits in one of the queue's rooms of its `(redirector, principal)`
//!   instead of the heap, and a deferral *folds* those rooms'
//!   re-presentations that are certain to be deferred again
//!   (below). Request metadata lives in a dense free-list slab keyed by
//!   the [`RequestId`]s it hands out, and each window's round closes
//!   through the `TreeNode`s of the world's `LocalTree`.
//! * `Simulation::run_reference` — the tests' correctness oracle (the role
//!   `solve_reference` plays for the LP), compiled for tests only. It
//!   materializes every arrival and tick up front, keeps metadata in a
//!   `HashMap`, closes each round centrally with `Topology::aggregate`,
//!   stamping the views itself, and heap-schedules and polls every retry.
//!   What it checks — streaming, the fold, the rooms, the slab, tree
//!   rounds — is thereby independent of the path under test.
//!
//! The [`EventQueue`]'s class-keyed ordering guarantees both paths pop
//! the identical event sequence, so their reports agree on every
//! behavioral observable (see [`SimReport::outcome_eq`], the
//! `streaming_matches_reference_*` tests and the random worlds of
//! `folded_run_matches_polling_reference`).
//!
//! # An exhausted principal holds until the roll
//!
//! Under credit retry a request over its principal's window credit gets a
//! self-redirect and comes back one retry gap (`retry_delay` plus two hops)
//! later. A redirector's credit for a principal only falls between window
//! rolls, and a request's cost does not change. So once the credit cannot
//! cover a cost, every request of that principal costing that much or
//! more, waiting at that redirector, is deferred at each of its
//! presentations before the next roll, for certain. A deferral at a
//! `(redirector, principal)`, of an original arrival or of a retry,
//! therefore decides all of those at once (`World::fold_rooms`): its own
//! re-presentations, and in one pass over each room where the principal's
//! retries wait ([`EventQueue::fold_room`]) those of every member due
//! before the roll whose cost the remaining credit cannot cover (the
//! predicate [`EnforcementCore::defers`]). Each decided presentation still
//! adds its cost to the core's window arrivals (which the demand estimate
//! reads), one to the core's and the report's `deferred`, one entry to the
//! decision trace and one to `events_processed`. Each request then waits
//! for its first re-presentation at or after the roll (or past the end of
//! the run), at the time the same repeated `+ gap` addition would have
//! reached. A retry's queue key is fixed by its request, not by when it was
//! pushed, so it pops exactly where the polled retry would have. Folded
//! entries enter the decision trace ahead of their time; the trace is
//! sorted back into pop order at the end.
//!
//! Members whose cost the credit still covers stay where they are and are
//! decided one by one when they pop. After a roll, then, a room's members
//! pop one at a time only until the one that exhausts the fresh credit;
//! its deferral folds the rest. A room folds at the first deferral in a
//! window that its costs can reach, and again only once the credit no
//! longer covers a member the last fold left, so a later deferral usually
//! folds only its own re-presentations. A principal's retries wait in one
//! room per cost class (`CLASS_CEILINGS`): a fold that a costly request's
//! deferral sets off while the credit still covers a unit leaves the room
//! of the usual unit-cost requests alone, instead of visiting each of them
//! once for it and again when the credit runs out. A principal's rooms at
//! a redirector, and the record of their last folds, open at its first
//! deferral there.
//!
//! A span never crosses a roll, so restarts, renegotiations and capacity
//! changes, which all apply at window ticks, cannot fall inside one. The
//! fold is exact only while credit rises at rolls alone: a mid-window
//! credit top-up would have to end every span at the moment it lands, and
//! wake every room folded since the last roll — move its folded members
//! back to their next presentation after the top-up.
//! [`EnforcementCore::defer_again`] counts the presentations a fold
//! decides in one step.

use crate::config::{
    AgreementChange, CapacityChange, QueueMode, RequestCost, SimClient, SimConfig,
};
use crate::events::{Event, EventKey, EventQueue};
use crate::link::{Link, LinkStart};
use crate::metrics::{RateSeries, ResponseStats};
use crate::server::{Accept, Server};
use covenant_agreements::{AccessLevels, AgreementGraph, PrincipalId};
use covenant_enforce::{ArrivalOutcome, EnforcementCore, EnforcementCounters};
use covenant_sched::{Request, RequestId, SchedulerConfig};
use covenant_tree::LocalTree;
use covenant_workload::{Arrival, ArrivalStream};
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

/// Where a run keeps the metadata of the requests in the system: a
/// [`MetaSlab`] in [`Simulation::run`], a `HashMap` in the oracle.
trait MetaStore {
    /// Stores `meta` for a request entering the system with id `id` and
    /// returns the id it is known by from now on.
    fn insert(&mut self, id: u64, meta: RequestMeta) -> u64;
    /// Takes a request's metadata out.
    fn remove(&mut self, id: u64) -> Option<RequestMeta>;
    /// A request's metadata.
    fn get(&self, id: u64) -> Option<RequestMeta>;
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

impl MetaStore for MetaSlab {
    /// The slab ignores `id` and hands out a free slot.
    fn insert(&mut self, _id: u64, meta: RequestMeta) -> u64 {
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

/// How a window's round closes once every redirector has published into
/// the tree: through its `TreeNode`s in [`Simulation::run`], centrally in
/// the oracle.
trait RoundClose {
    /// Closes the round at `now`.
    fn close(&mut self, tree: &mut LocalTree, now: f64);
    /// Tree messages the rounds have cost so far.
    fn messages(&self, tree: &LocalTree) -> u64;
}

/// Rounds closed by the tree's own `TreeNode`s.
struct TreeRounds;

impl RoundClose for TreeRounds {
    fn close(&mut self, tree: &mut LocalTree, now: f64) {
        tree.close_round(now);
    }

    fn messages(&self, tree: &LocalTree) -> u64 {
        tree.messages()
    }
}

/// One client's request source: its cost model, consumed in generation
/// order so sampled costs match a pre-materialized trace exactly, and the
/// lazy arrival stream a streamed run refills from.
struct ClientGen {
    client: usize,
    stream: ArrivalStream,
    cost: RequestCost,
    size_rng: Option<StdRng>,
    /// Per-client arrival sequence number (the event queue's tie-break).
    next_index: u64,
    /// Target redirector (cached from the config).
    redirector: usize,
}

impl ClientGen {
    fn new(client: usize, cfg: &SimClient) -> Self {
        let size_rng = match &cfg.cost {
            RequestCost::SizeDistributed { seed, .. } => {
                Some(StdRng::seed_from_u64(*seed ^ client as u64))
            }
            _ => None,
        };
        ClientGen {
            client,
            stream: cfg.machine.stream(),
            cost: cfg.cost.clone(),
            size_rng,
            next_index: 0,
            redirector: cfg.redirector,
        }
    }

    /// Costs arrival `a` and pushes it as this client's next original
    /// arrival, with request id `id`, timed one network hop later — when it
    /// reaches the redirector.
    fn push(&mut self, a: Arrival, id: u64, hop: f64, events: &mut EventQueue) {
        // Sized clients carry their sampled reply bytes so the link model
        // transfers the exact 200 B–500 KB draw, not the unit-floored cost;
        // other cost models leave 0.0 and the clients derive bytes from
        // cost × unit_bytes.
        let (cost, bytes) = match &self.cost {
            RequestCost::Unit => (1.0, 0.0),
            RequestCost::Fixed(x) => (*x, 0.0),
            RequestCost::SizeDistributed { sizes, mean_bytes, .. } => {
                let rng = self.size_rng.as_mut().expect("rng for sized client");
                let bytes = sizes.sample(rng);
                (sizes.cost_units(bytes, *mean_bytes), bytes as f64)
            }
        };
        let cost = in_cost_steps(cost);
        let request = Request { id: RequestId(id), principal: a.principal, arrival: a.time, cost };
        let (redirector, client, index) = (self.redirector, self.client, self.next_index);
        self.next_index += 1;
        let event = Event::Arrival { request, redirector, client, index, retry: false, bytes };
        events.push_arrival(a.time + hop, client, index, event);
    }

    /// Pushes this client's next arrival (if any remains within the run)
    /// into the event queue. Arrival times are monotone per client, so the
    /// first one past `duration` ends the stream: nothing is pushed, so no
    /// later pop refills this client again.
    fn refill(&mut self, duration: f64, hop: f64, events: &mut EventQueue) {
        if let Some(a) = self.stream.next().filter(|a| a.time <= duration) {
            // The id is assigned from the slab when the event pops.
            self.push(a, u64::MAX, hop, events);
        }
    }
}

/// Steps per cost unit that request costs are rounded to: 2²⁰.
const COST_STEPS: f64 = 1_048_576.0;

/// `cost` rounded to a whole number of [`COST_STEPS`], at least one. Sums
/// of such costs are exact in `f64` below 2³³ units, so a window's arrival
/// sum does not depend on the order its arrivals are counted in — and a
/// fold counts a deferred request's re-presentations ahead of their turn.
fn in_cost_steps(cost: f64) -> f64 {
    (cost * COST_STEPS).round().max(1.0) / COST_STEPS
}

/// The cost classes a principal's retries wait in at a redirector, one
/// room each, by the most a request in the class may cost: a quarter unit
/// for the first, four times the last for each next one, and no ceiling
/// for the top class. A fold visits only the rooms the remaining credit no
/// longer fully covers, so one that a costly request's deferral sets off
/// leaves the room of the usual unit requests alone until the credit can
/// no longer cover a unit.
const CLASS_CEILINGS: [f64; 8] = [0.25, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, f64::INFINITY];

/// A `room_index` entry of a redirector and principal with no rooms yet.
const NO_ROOMS: u32 = u32::MAX;

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
    /// Requests their clients gave up on: the queued or parked ones a
    /// restarting redirector lost.
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
    /// Always 0, kept for `benchmark/` until ROADMAP item 1.
    pub plan_cache_hits: u64,
    /// Windows planned, all redirectors; kept for `benchmark/` until ROADMAP item 1.
    pub plan_cache_misses: u64,
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
    /// retries) — identical for both execution paths. Every re-presentation
    /// of a deferred request counts, folded or polled.
    pub events_processed: u64,
    /// Events the engine popped from its queue: `events_processed` less the
    /// re-presentations a fold decided (see [`Simulation::run`]). The
    /// reference path polls every retry, so there the two are equal.
    pub queue_pops: u64,
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
    /// (`peak_event_queue`, `wall_secs`, and the solver-internal `lp_*`
    /// counters), which legitimately differs between the streaming and
    /// reference paths.
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

/// The client side: arrival sources, closed-loop slots and the metadata of
/// every request in the system — the one place a request is retired.
struct Clients<M> {
    /// One lazy source per client when arrivals are streamed; empty when
    /// every arrival was pushed up front.
    sources: Vec<ClientGen>,
    limit: Vec<Option<usize>>,
    outstanding: Vec<usize>,
    meta: M,
    /// Bytes one cost unit puts on a link when the request carries no
    /// sampled size.
    unit_bytes: f64,
    offered: Vec<u64>,
    skipped: u64,
    response: Vec<ResponseStats>,
}

impl<M: MetaStore> Clients<M> {
    /// Lets `client`'s original send `req` into the system unless the
    /// client is at its outstanding limit, returning the id the request is
    /// known by from now on.
    fn enter(&mut self, req: &Request, client: usize, bytes: f64) -> Option<RequestId> {
        if self.limit[client].is_some_and(|limit| self.outstanding[client] >= limit) {
            self.skipped += 1;
            return None;
        }
        self.offered[req.principal.0] += 1;
        self.outstanding[client] += 1;
        let bytes = if bytes > 0.0 { bytes } else { req.cost * self.unit_bytes };
        let meta = RequestMeta { client, first_arrival: req.arrival, bytes };
        Some(RequestId(self.meta.insert(req.id.0, meta)))
    }

    /// A request leaves the system: its metadata goes and its client's
    /// closed-loop slot frees.
    fn retire(&mut self, id: RequestId) -> Option<RequestMeta> {
        let m = self.meta.remove(id.0)?;
        self.outstanding[m.client] = self.outstanding[m.client].saturating_sub(1);
        Some(m)
    }

    /// `req`'s reply reaches its client: the request retires, and its
    /// response time counts the two hops back from `now`.
    fn deliver(&mut self, req: &Request, now: f64, hop: f64) {
        if let Some(m) = self.retire(req.id) {
            self.response[req.principal.0].record(now + 2.0 * hop - m.first_arrival);
        }
    }
}

/// The redirector side: one enforcement core per tree node, the combining
/// tree they coordinate through, and the decision trace.
struct Redirectors<R> {
    cores: Vec<EnforcementCore>,
    tree: LocalTree,
    rounds: R,
    /// `Some` when the config asked for a per-arrival decision trace. Each
    /// entry carries the queue key of the event it decided: a folded
    /// deferral records re-presentations ahead of their time, and sorting
    /// by `(time, key)` at the end restores the order they would have
    /// popped in.
    decisions: Option<Vec<(EventKey, ArrivalDecision)>>,
    /// Reused per-tick release list.
    released: Vec<(Request, usize)>,
    /// Per redirector and principal (`ri × principals + principal`), the
    /// slot of its retry rooms: `NO_ROOMS` until its first deferral there.
    /// A slot's rooms are the queue's rooms `slot × CLASS_CEILINGS.len()
    /// + class`, one per cost class (see `World::room`).
    room_index: Vec<u32>,
    /// Per slot, each of its rooms' last fold: the index of the tick that
    /// ends the window it folded in (0: never; the first window ends at
    /// tick 1), and the largest cost among the members it left due before
    /// the roll (`-∞`: none).
    folds: Vec<[(u64, f64); CLASS_CEILINGS.len()]>,
    /// A self-redirect costs the client one full round trip on top of its
    /// think/retry delay.
    retry_delay: f64,
    admitted: Vec<u64>,
    deferred: Vec<u64>,
    abandoned: u64,
}

impl<R> Redirectors<R> {
    /// Redirector `ri` decides the `request` an event keyed `key` presents
    /// at `now` (a deferral counts as one self-redirect issued).
    fn decide(&mut self, now: f64, key: EventKey, ri: usize, request: Request) -> ArrivalOutcome {
        let outcome = self.cores[ri].on_arrival(request);
        self.trace(now, key, ri, request, outcome);
        self.deferred[request.principal.0] += u64::from(outcome == ArrivalOutcome::Defer);
        outcome
    }

    /// Records a decision in the trace, if the config asked for one.
    fn trace(&mut self, now: f64, key: EventKey, ri: usize, req: Request, outcome: ArrivalOutcome) {
        record(&mut self.decisions, now, key, ri, &req, outcome);
    }

    /// Counts `n` presentations of `principal`'s requests at redirector
    /// `ri`, whose costs add up to `cost`, each deferred: decided ahead of
    /// their time, because the credit cannot cover them before the roll.
    fn count_deferred(&mut self, ri: usize, principal: PrincipalId, n: u64, cost: f64) {
        self.cores[ri].defer_again(principal, n, cost);
        self.deferred[principal.0] += n;
    }

    /// Rolls redirector `ri`'s window at `now`: read its view of the
    /// tree's total, tick its core on it, publish the demand the tick
    /// returns. The round closes once every redirector has rolled.
    fn roll(&mut self, ri: usize, now: f64, released: &mut Vec<(Request, usize)>) {
        let view = self.tree.view(ri).and_then(|v| v.read(now)).map(Vec::as_slice);
        let demand = self.cores[ri].on_window_tick(view, None, released);
        self.tree.publish(ri, demand);
    }
}

/// The servers, with the completion series.
struct Servers {
    list: Vec<Server>,
    rates: RateSeries,
}

/// The reply-path links (none without a network model) and their
/// transfer-time stats.
struct Links {
    list: Vec<Link>,
    transfer: Vec<ResponseStats>,
    /// Reused fair-share delivery buffer.
    wake_buf: Vec<(Request, f64)>,
}

/// The timeline: capacity changes, renegotiations and restarts, each a
/// stack popping in time order at window boundaries, the live graph they
/// rewrite, and the tick stream.
struct Schedules {
    capacity: Vec<CapacityChange>,
    agreements: Vec<AgreementChange>,
    restarts: Vec<(f64, usize)>,
    graph: AgreementGraph,
    /// Index of the last streamed window tick; `None` when every tick was
    /// pushed up front.
    tick: Option<u64>,
    /// When the next window roll is due, the first moment any credit can
    /// rise: a deferral folds the re-presentations due before it.
    /// `INFINITY` once no tick is left in the run; `NEG_INFINITY` when
    /// every tick was pushed up front — the oracle, which polls every
    /// retry.
    roll: f64,
}

/// Puts a decision of redirector `ri` on `req`, made at `now` for the event
/// keyed `key`, in the decision `trace`, if the config asked for one.
fn record(
    trace: &mut Option<Vec<(EventKey, ArrivalDecision)>>,
    now: f64,
    key: EventKey,
    ri: usize,
    req: &Request,
    outcome: ArrivalOutcome,
) {
    if let Some(trace) = trace.as_mut() {
        let (principal, cost) = (req.principal, req.cost);
        trace.push((key, ArrivalDecision { time: now, redirector: ri, principal, cost, outcome }));
    }
}

/// Where a deferred request's presentations stop being certain deferrals:
/// at the next window `roll`, which pops first at an equal time, or past
/// `stop`, the end of the run. They come one `gap` apart.
#[derive(Debug, Clone, Copy)]
struct Span {
    gap: f64,
    roll: f64,
    stop: f64,
}

impl Span {
    /// Walks the presentations from `at` on that fall in the span, calling
    /// `each` with each one's time. Returns when the first one after them
    /// is due, and how many there were.
    fn walk(self, mut at: f64, mut each: impl FnMut(f64)) -> (f64, u64) {
        let mut n = 0;
        while at < self.roll && at <= self.stop {
            each(at);
            at += self.gap;
            n += 1;
        }
        (at, n)
    }
}

/// Redirector `id`'s enforcement core on `levels`: the policy is shared,
/// but locality caps (forwarding-cost limits) are per node.
fn core_for(cfg: &SimConfig, id: usize, levels: &AccessLevels) -> EnforcementCore {
    let mut policy = cfg.policy.clone();
    if let (covenant_sched::Policy::Community { locality }, Some(table)) =
        (&mut policy, &cfg.redirector_locality)
    {
        if let Some(caps) = table.get(id).and_then(|c| c.clone()) {
            *locality = Some(caps);
        }
    }
    let sched = SchedulerConfig { window_secs: cfg.window_secs, policy };
    EnforcementCore::new(levels, sched, cfg.mode.clone())
}

/// `items` as a stack that pops in time order, ties in config order.
fn timeline<T: Clone>(items: &[T], at: impl Fn(&T) -> f64) -> Vec<T> {
    let mut stack = items.to_vec();
    stack.sort_by(|a, b| at(a).partial_cmp(&at(b)).expect("finite times"));
    stack.reverse();
    stack
}

/// A run's state, grouped by owner, and the one handler of its events.
struct World<'a, M, R> {
    cfg: &'a SimConfig,
    clients: Clients<M>,
    redirectors: Redirectors<R>,
    servers: Servers,
    links: Links,
    schedules: Schedules,
    events_processed: u64,
    queue_pops: u64,
}

impl<'a, M: MetaStore, R: RoundClose> World<'a, M, R> {
    /// A world at the start of the run. `sources` are the clients' lazy
    /// arrival sources when arrivals and ticks are streamed; `None` when
    /// every arrival and tick was pushed up front.
    fn new(cfg: &'a SimConfig, sources: Option<Vec<ClientGen>>, meta: M, rounds: R) -> Self {
        let n = cfg.graph.len();
        let streamed = sources.is_some();
        let tick = streamed.then_some(0);
        let levels = cfg.graph.access_levels();
        let capacities = cfg.graph.capacities();
        let servers = capacities.iter().map(|&c| Server::new(c, cfg.server_backlog)).collect();
        let links: Vec<Link> = match &cfg.net {
            Some(net) => {
                assert_eq!(net.links.len(), cfg.n_redirectors(), "one link per redirector");
                assert!(net.unit_bytes.is_finite() && net.unit_bytes > 0.0);
                net.links.iter().map(Link::new).collect()
            }
            None => Vec::new(),
        };
        let transfer = vec![ResponseStats::default(); links.len()];
        let retry_delay = match cfg.mode {
            QueueMode::CreditRetry { retry_delay } => retry_delay + 2.0 * cfg.network_latency,
            _ => 0.0,
        };
        World {
            cfg,
            clients: Clients {
                sources: sources.unwrap_or_default(),
                limit: cfg.clients.iter().map(|c| c.max_outstanding).collect(),
                outstanding: vec![0; cfg.clients.len()],
                meta,
                unit_bytes: cfg.net.as_ref().map_or(0.0, |net| net.unit_bytes),
                offered: vec![0; n],
                skipped: 0,
                response: vec![ResponseStats::default(); n],
            },
            redirectors: Redirectors {
                cores: (0..cfg.n_redirectors()).map(|id| core_for(cfg, id, &levels)).collect(),
                tree: LocalTree::new(&cfg.tree, cfg.extra_tree_lag),
                rounds,
                decisions: cfg.record_decisions.then(Vec::new),
                released: Vec::new(),
                room_index: vec![NO_ROOMS; cfg.n_redirectors() * n],
                folds: Vec::new(),
                retry_delay,
                admitted: vec![0; n],
                deferred: vec![0; n],
                abandoned: 0,
            },
            servers: Servers { list: servers, rates: RateSeries::new(n, cfg.bucket_secs) },
            links: Links { list: links, transfer, wake_buf: Vec::new() },
            schedules: Schedules {
                capacity: timeline(&cfg.capacity_changes, |c| c.at),
                agreements: timeline(&cfg.agreement_changes, |c| c.at),
                restarts: timeline(&cfg.redirector_restarts, |r| r.0),
                graph: cfg.graph.clone(),
                tick,
                roll: if streamed { 0.0 } else { f64::NEG_INFINITY },
            },
            events_processed: 0,
            queue_pops: 0,
        }
    }

    /// Pops and applies events until the queue runs dry or passes the end
    /// of the run, then reports.
    fn run(mut self, mut events: EventQueue, start: Instant) -> SimReport {
        while let Some((now, event)) = events.pop() {
            if now > self.cfg.duration + 1e-9 {
                break;
            }
            self.queue_pops += 1;
            self.apply(now, event, &mut events);
        }
        self.finish(events.peak_len(), start.elapsed().as_secs_f64())
    }

    /// Handles one event at `now`, scheduling what follows from it.
    fn apply(&mut self, now: f64, event: Event, events: &mut EventQueue) {
        self.events_processed += 1;
        let hop = self.cfg.network_latency;
        match event {
            Event::Arrival { mut request, redirector, client, index, retry, bytes } => {
                if !retry {
                    // This client's next arrival takes the vacated pending
                    // slot (before the closed-loop gate can turn this away).
                    if let Some(source) = self.clients.sources.get_mut(client) {
                        source.refill(self.cfg.duration, hop, events);
                    }
                    let Some(id) = self.clients.enter(&request, client, bytes) else {
                        return;
                    };
                    request.id = id;
                }
                let key = EventKey::request(client, index, retry);
                match self.redirectors.decide(now, key, redirector, request) {
                    ArrivalOutcome::Forward { server } => {
                        self.forward(now, request, server, events)
                    }
                    ArrivalOutcome::Defer => {
                        let principal = request.principal;
                        // The folds below count on the gate deferring
                        // exactly the requests its credit cannot cover.
                        debug_assert!(
                            self.redirectors.cores[redirector].defers(principal, request.cost)
                        );
                        self.fold_rooms(redirector, principal, events);
                        // Credit only falls between rolls, so every
                        // re-presentation before the next one is deferred
                        // again: count those here and queue only the first
                        // one at or after the roll (or past the end).
                        let span = self.span();
                        let key = EventKey::request(client, index, true);
                        let trace = &mut self.redirectors.decisions;
                        let (at, n) = span.walk(now + span.gap, |at| {
                            record(trace, at, key, redirector, &request, ArrivalOutcome::Defer)
                        });
                        let cost = n as f64 * request.cost;
                        self.redirectors.count_deferred(redirector, principal, n, cost);
                        self.events_processed += n;
                        let room = self.room(redirector, principal, request.cost);
                        let event = Event::Arrival {
                            request,
                            redirector,
                            client,
                            index,
                            retry: true,
                            bytes,
                        };
                        events.push_retry(at, room, event);
                    }
                    ArrivalOutcome::Queued => {}
                }
            }
            Event::WindowTick => {
                // Ticks stream one at a time: tick `i` lands exactly at
                // `i * window_secs` (no float-drift accumulation). One
                // event per boundary drives every redirector in lock-step.
                if let Some(i) = self.schedules.tick.as_mut() {
                    *i += 1;
                    let next = *i as f64 * self.cfg.window_secs;
                    self.schedules.roll = f64::INFINITY;
                    if next <= self.cfg.duration {
                        events.push_tick(next, *i, Event::WindowTick);
                        self.schedules.roll = next;
                    }
                }
                self.apply_schedules(now);
                let mut released = std::mem::take(&mut self.redirectors.released);
                for ri in 0..self.redirectors.cores.len() {
                    self.redirectors.roll(ri, now, &mut released);
                    for (req, server) in released.drain(..) {
                        self.forward(now, req, server, events);
                    }
                }
                self.redirectors.released = released;
                let Redirectors { tree, rounds, .. } = &mut self.redirectors;
                rounds.close(tree, now);
            }
            Event::Completion { server } => {
                let request = self.servers.list[server].complete();
                self.servers.rates.record(request.principal, now, request.cost);
                if self.links.list.is_empty() {
                    self.clients.deliver(&request, now, hop);
                } else if let Some(m) = self.clients.meta.get(request.id.0) {
                    // The reply now contends for the client's redirector
                    // link; the request stays in the system until the
                    // transfer delivers.
                    let link = self.cfg.clients[m.client].redirector;
                    match self.links.list[link].start(now, m.bytes, request) {
                        LinkStart::Deliver(at) => {
                            events.push(at, Event::ReplyDelivered { request, link, entered: now })
                        }
                        LinkStart::Wake(at, version) => {
                            events.push(at, Event::LinkWake { link, version })
                        }
                    }
                }
            }
            Event::ReplyDelivered { request, link, entered } => {
                self.links.transfer[link].record(now - entered);
                self.links.list[link].note_delivered();
                self.clients.deliver(&request, now, hop);
            }
            Event::LinkWake { link, version } => {
                let mut buf = std::mem::take(&mut self.links.wake_buf);
                if let Some((at, v)) = self.links.list[link].on_wake(now, version, &mut buf) {
                    events.push(at, Event::LinkWake { link, version: v });
                }
                for (req, entered) in buf.drain(..) {
                    self.links.transfer[link].record(now - entered);
                    self.clients.deliver(&req, now, hop);
                }
                self.links.wake_buf = buf;
            }
        }
    }

    /// The room of the retries of `principal`'s requests that cost `cost`
    /// at redirector `ri`, opening the principal's rooms there if this is
    /// its first deferral.
    fn room(&mut self, ri: usize, principal: PrincipalId, cost: f64) -> usize {
        let Redirectors { room_index, folds, .. } = &mut self.redirectors;
        let slot = &mut room_index[ri * self.cfg.graph.len() + principal.0];
        if *slot == NO_ROOMS {
            *slot = u32::try_from(folds.len()).expect("room slot fits in a u32");
            folds.push([(0, f64::NEG_INFINITY); CLASS_CEILINGS.len()]);
        }
        let classes = CLASS_CEILINGS.len();
        let class = CLASS_CEILINGS.iter().position(|&ceiling| cost <= ceiling);
        *slot as usize * classes + class.unwrap_or(classes - 1)
    }

    /// A deferral of `principal` at redirector `ri`: in each of the
    /// principal's rooms there, every member due before the roll whose
    /// cost the remaining credit cannot cover is deferred at each of its
    /// presentations until then, so those are decided now and each moves
    /// to its first re-presentation at or after the roll (see the module
    /// docs). A room whose every member fits is not visited; a room folds
    /// at its first deferral in a window that can reach it, and again only
    /// once the credit can no longer cover a member the last fold left.
    fn fold_rooms(&mut self, ri: usize, principal: PrincipalId, events: &mut EventQueue) {
        // The oracle streams no ticks: it polls every retry.
        let Some(window) = self.schedules.tick else {
            return;
        };
        let span = self.span();
        let (mut presented, mut cost) = (0, 0.0);
        let Redirectors { cores, decisions, room_index, folds, .. } = &mut self.redirectors;
        let slot = room_index[ri * self.cfg.graph.len() + principal.0];
        // `NO_ROOMS` is past the end: no retry of the principal waits here.
        let Some(folds) = folds.get_mut(slot as usize) else {
            return;
        };
        let core = &cores[ri];
        let fits = |cost| !core.defers(principal, cost);
        let first = slot as usize * CLASS_CEILINGS.len();
        for ((room, &ceiling), last) in (first..).zip(&CLASS_CEILINGS).zip(folds) {
            match *last {
                _ if fits(ceiling) => continue,
                (folded, left) if folded == window && fits(left) => continue,
                _ => {}
            }
            let mut left = f64::NEG_INFINITY;
            events.fold_room(room, span.roll, |at, key, request| {
                if at > span.stop {
                    // Past the end of the run: never presented.
                    return at;
                }
                if fits(request.cost) {
                    left = left.max(request.cost);
                    return at;
                }
                let defer = ArrivalOutcome::Defer;
                let (next, n) = span.walk(at, |at| record(decisions, at, key, ri, request, defer));
                presented += n;
                cost += n as f64 * request.cost;
                next
            });
            *last = (window, left);
        }
        self.redirectors.count_deferred(ri, principal, presented, cost);
        self.events_processed += presented;
    }

    /// The span the presentations of a request deferred now fall in.
    fn span(&self) -> Span {
        let (gap, roll) = (self.redirectors.retry_delay, self.schedules.roll);
        Span { gap, roll, stop: self.cfg.duration + 1e-9 }
    }

    /// Forwards an admitted request to `server`, which sees it one hop
    /// after `now`.
    fn forward(&mut self, now: f64, req: Request, server: usize, events: &mut EventQueue) {
        self.redirectors.admitted[req.principal.0] += 1;
        match self.servers.list[server].offer(now + self.cfg.network_latency, req) {
            Accept::CompletesAt(done) => events.push(done, Event::Completion { server }),
            Accept::Dropped => {
                self.clients.retire(req.id);
            }
        }
    }

    /// Applies the capacity changes, agreement renegotiations and
    /// redirector restarts due by the window boundary `now`.
    fn apply_schedules(&mut self, now: f64) {
        let s = &mut self.schedules;
        // Capacity changes and renegotiations rewrite the live graph, which
        // then re-flows once into fresh levels everywhere (§2.2).
        let mut changed = false;
        while let Some(c) = s.capacity.pop_if(|c| c.at <= now) {
            s.graph.set_capacity(c.principal, c.capacity).expect("valid capacity change");
            self.servers.list[c.principal.0].set_capacity(c.capacity);
            changed = true;
        }
        while let Some(c) = s.agreements.pop_if(|c| c.at <= now) {
            s.graph
                .set_agreement(c.issuer, c.holder, c.lb, c.ub)
                .expect("valid agreement renegotiation");
            changed = true;
        }
        if changed {
            let fresh = s.graph.access_levels();
            for core in &mut self.redirectors.cores {
                core.update_levels(&fresh);
            }
        }
        // Crash-and-restart injection: a fresh core replaces the old one,
        // and all learned state is lost, exactly like a process crash — its
        // tree node and view included, which the neighbours see as a
        // dropped and returning edge. The requests the old core held are
        // lost with it: their clients give up on them.
        while let Some((_, id)) = s.restarts.pop_if(|r| r.0 <= now) {
            self.redirectors.tree.restart(id);
            let fresh = core_for(self.cfg, id, &s.graph.access_levels());
            for req in std::mem::replace(&mut self.redirectors.cores[id], fresh).into_held() {
                self.redirectors.abandoned += 1;
                self.clients.retire(req.id);
            }
        }
    }

    fn finish(self, peak_event_queue: usize, wall_secs: f64) -> SimReport {
        let cfg = self.cfg;
        let windows = (cfg.duration / cfg.window_secs).ceil() as u64 + 1;
        let counters: Vec<EnforcementCounters> =
            self.redirectors.cores.iter().map(EnforcementCore::counters).collect();
        let sum = |f: fn(&EnforcementCounters) -> u64| counters.iter().map(f).sum();
        let servers = &self.servers.list;
        SimReport {
            rates: self.servers.rates,
            response: self.clients.response,
            offered: self.clients.offered,
            admitted: self.redirectors.admitted,
            deferred: self.redirectors.deferred,
            dropped_server: servers.iter().map(|s| s.dropped).sum(),
            abandoned: self.redirectors.abandoned,
            skipped_closed_loop: self.clients.skipped,
            server_utilization: servers.iter().map(|s| s.utilization(cfg.duration)).collect(),
            tree_messages: self.redirectors.rounds.messages(&self.redirectors.tree),
            pairwise_messages_equivalent: windows * cfg.tree.pairwise_messages() as u64,
            plan_cache_hits: sum(|c| c.plan_cache_hits),
            plan_cache_misses: sum(|c| c.plan_cache_misses),
            lp_solves: sum(|c| c.lp_solves),
            lp_pivots: sum(|c| c.lp_pivots),
            lp_warm_hits: sum(|c| c.lp_warm_hits),
            lp_cold_fallbacks: sum(|c| c.lp_cold_fallbacks),
            transfer: self.links.transfer,
            link_bytes: self.links.list.iter().map(|l| l.bytes).collect(),
            link_active_peak: self.links.list.iter().map(|l| l.active_peak).collect(),
            events_processed: self.events_processed,
            queue_pops: self.queue_pops,
            peak_event_queue,
            wall_secs,
            decisions: self.redirectors.decisions.map_or_else(Vec::new, pop_order),
        }
    }
}

/// A decision trace in the order its events pop: by time, then queue key.
fn pop_order(mut trace: Vec<(EventKey, ArrivalDecision)>) -> Vec<ArrivalDecision> {
    trace.sort_by(|(ka, a), (kb, b)| a.time.total_cmp(&b.time).then(ka.cmp(kb)));
    trace.into_iter().map(|(_, decision)| decision).collect()
}

impl Simulation {
    /// Wraps a configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Simulation { cfg }
    }

    /// Runs to completion and reports (streaming engine).
    pub fn run(self) -> SimReport {
        let start = Instant::now();
        let cfg = &self.cfg;
        let mut events = EventQueue::new();
        events.push_tick(0.0, 0, Event::WindowTick);
        let mut sources: Vec<ClientGen> =
            cfg.clients.iter().enumerate().map(|(ci, c)| ClientGen::new(ci, c)).collect();
        for source in &mut sources {
            source.refill(cfg.duration, cfg.network_latency, &mut events);
        }
        World::new(cfg, Some(sources), MetaSlab::default(), TreeRounds).run(events, start)
    }

    /// Runs to completion on the pre-optimization path: every arrival and
    /// tick is materialized and heap-scheduled up front, every retry goes
    /// through the heap and is polled once per gap (no fold), request
    /// metadata lives in a `HashMap`, and rounds close centrally — the seed
    /// engine's O(total requests) memory and cost profile.
    ///
    /// The oracle the `streaming_matches_reference_*` tests compare
    /// [`Simulation::run`] against.
    #[cfg(test)]
    pub fn run_reference(self) -> SimReport {
        let start = Instant::now();
        let cfg = &self.cfg;
        let mut events = EventQueue::heap_only();
        let ticks = (0u64..).map(|i| i as f64 * cfg.window_secs).take_while(|&t| t <= cfg.duration);
        for (i, t) in ticks.enumerate() {
            events.push_tick(t, i as u64, Event::WindowTick);
        }
        let mut next_id = 0;
        for (ci, c) in cfg.clients.iter().enumerate() {
            let mut source = ClientGen::new(ci, c);
            for a in c.machine.arrivals().into_iter().filter(|a| a.time <= cfg.duration) {
                source.push(a, next_id, cfg.network_latency, &mut events);
                next_id += 1;
            }
        }
        let rounds = CentralRounds { topology: cfg.tree.clone(), messages: 0 };
        World::new(cfg, None, HashMap::new(), rounds).run(events, start)
    }
}

#[cfg(test)]
impl MetaStore for HashMap<u64, RequestMeta> {
    /// The map keys by the id the request was materialized with.
    fn insert(&mut self, id: u64, meta: RequestMeta) -> u64 {
        HashMap::insert(self, id, meta);
        id
    }

    fn remove(&mut self, id: u64) -> Option<RequestMeta> {
        HashMap::remove(self, &id)
    }

    fn get(&self, id: u64) -> Option<RequestMeta> {
        HashMap::get(self, &id).copied()
    }
}

/// The oracle's round close: the published demands summed centrally and
/// stamped straight into each view, no tree node involved.
#[cfg(test)]
struct CentralRounds {
    topology: covenant_tree::Topology,
    messages: u64,
}

#[cfg(test)]
impl RoundClose for CentralRounds {
    fn close(&mut self, tree: &mut LocalTree, now: f64) {
        let round = self.topology.aggregate(tree.demands());
        self.messages += round.messages() as u64;
        for id in 0..self.topology.len() {
            let view = tree.view(id).expect("one view per redirector");
            view.publish(now, round.total.clone());
        }
    }

    fn messages(&self, _: &LocalTree) -> u64 {
        self.messages
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

    /// Every floor holds as the community grows: a provider of 100·n req/s
    /// grants each of n customers lb = 0.9/n, and all of them flood at
    /// twice their floor.
    #[test]
    fn floors_hold_as_the_community_grows() {
        for n in [2usize, 8, 20] {
            let mut g = AgreementGraph::new();
            let pool = 100.0 * n as f64;
            let s = g.add_principal("S", pool);
            let customers: Vec<_> = (0..n).map(|i| g.add_principal(format!("C{i}"), 0.0)).collect();
            let lb = 0.9 / n as f64;
            for &c in &customers {
                g.add_agreement(s, c, lb, 1.0).unwrap();
            }
            let (floor, duration) = (lb * pool, 6.0);
            let mut cfg = SimConfig::new(g, duration);
            for (i, &c) in customers.iter().enumerate() {
                let load = PhasedLoad::constant(2.0 * floor, duration);
                cfg = cfg.client(ClientMachine::uniform(i, c, load), 0);
            }
            let report = Simulation::new(cfg).run();
            for &c in &customers {
                let rate = report.rates.mean_rate_secs(c, 2.0, duration);
                assert!(rate >= floor, "n = {n}: {c:?} served {rate} below its floor {floor}");
            }
        }
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

    /// A crashed redirector's queued or parked requests are abandoned with
    /// it, not stranded: their closed-loop clients get their slots back,
    /// and the served rates after the restart recover to the rates of a
    /// run without one.
    #[test]
    fn restart_abandons_held_requests() {
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 100.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.5, 1.0).unwrap();
        g.add_agreement(s, b, 0.5, 1.0).unwrap();
        for mode in [QueueMode::CreditPark, QueueMode::Explicit] {
            let mk = |restart: bool| {
                let load = PhasedLoad::constant(200.0, 40.0);
                let cfg = SimConfig::new(g.clone(), 40.0)
                    .with_mode(mode.clone())
                    .closed_loop_client(ClientMachine::uniform(0, a, load.clone()), 0, 16)
                    .closed_loop_client(ClientMachine::uniform(1, b, load), 0, 16);
                if restart { cfg.with_redirector_restart(20.0, 0) } else { cfg }
            };
            let steady = Simulation::new(mk(false)).run();
            let restarted = Simulation::new(mk(true)).run();
            assert!(restarted.abandoned > steady.abandoned, "{mode:?}: nothing abandoned");
            for p in [a, b] {
                let want = steady.rates.mean_rate_secs(p, 25.0, 40.0);
                let got = restarted.rates.mean_rate_secs(p, 25.0, 40.0);
                let after = format!("{mode:?} {p:?}: {got} after the restart, {want} without");
                assert!(got >= 0.9 * want, "{after}");
            }
            let reference = Simulation::new(mk(true)).run_reference();
            assert!(restarted.outcome_eq(&reference), "{mode:?}: streamed and reference differ");
        }
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

    /// A deferral decides its certain re-deferrals up to the next roll at
    /// once: with a retry gap of a fifth of a window, most re-presentations
    /// never reach the queue, yet the report — events, deferrals, the
    /// decision trace in pop order — is the oracle's, which polls them all.
    #[test]
    fn deferrals_fold_until_the_roll() {
        let (a, b) = (PrincipalId(1), PrincipalId(2));
        let mk = || {
            SimConfig::new(small_system(), 10.0)
                .with_mode(QueueMode::CreditRetry { retry_delay: 0.02 })
                .with_decision_recording()
                .client(ClientMachine::uniform(0, a, PhasedLoad::constant(150.0, 10.0)), 0)
                .client(ClientMachine::uniform(1, b, PhasedLoad::constant(150.0, 10.0)), 0)
        };
        let folded = Simulation::new(mk()).run();
        let polled = Simulation::new(mk()).run_reference();
        assert!(folded.outcome_eq(&polled), "folded {folded:?}\npolled {polled:?}");
        assert_eq!(polled.queue_pops, polled.events_processed);
        assert!(
            2 * folded.queue_pops < folded.events_processed,
            "{} pops for {} events",
            folded.queue_pops,
            folded.events_processed
        );
        assert!(folded.decisions.windows(2).all(|w| w[0].time <= w[1].time));
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
