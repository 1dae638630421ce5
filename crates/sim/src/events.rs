//! The event queue: a deterministic min-heap of timestamped events, plus a
//! FIFO lane for self-redirect retries.
//!
//! Events are totally ordered by `(time, key)`. The key encodes the event's
//! *class* so that lazily streamed events reproduce the exact tie-breaking
//! of an engine that pushes everything up front:
//!
//! 1. window ticks (ordered by tick index),
//! 2. original client arrivals (ordered by client index, then per-client
//!    arrival index — the order a client-by-client pre-materialization
//!    would have inserted them),
//! 3. runtime events — completions, retries — in push order (FIFO among
//!    equal timestamps).
//!
//! The tests' reference path pushes all ticks first, then every client's
//! arrivals in client order, then schedules runtime events while running;
//! insertion sequence therefore produces exactly this order. Encoding it in
//! the key lets the streaming path hold one pending arrival per client
//! and still pop the identical event sequence.
//!
//! Retries are the fourth source, and under credit retry nearly every
//! event is one. The engine schedules each at `now + retry_delay`, with a
//! delay fixed for the run and a `now` that never decreases, so retry times
//! never decrease in push order; their runtime keys come from the one
//! shared counter and only grow. A `VecDeque` filled in push order is then
//! already sorted by `(time, key)`, and [`EventQueue::push_retry`] appends
//! to it instead of sifting through the heap. [`EventQueue::pop`] takes the
//! earlier of the lane's front and the heap's top under the same order, so
//! the popped sequence is the one an all-heap queue would produce. A retry
//! earlier than the lane's back goes to the heap, so that order holds
//! whatever delays a caller uses.

use covenant_sched::Request;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Simulation events.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A client request reaches a redirector.
    Arrival {
        /// The request (arrival field = this event's time).
        request: Request,
        /// Redirector receiving it.
        redirector: usize,
        /// Generating client, indexed like `SimConfig::clients` (for
        /// closed-loop accounting).
        client: usize,
        /// How many times this request has been retried already.
        retries: u32,
        /// Reply bytes this request will put on the link (0.0 = derive
        /// from cost × the net model's `unit_bytes`; only read under a
        /// network model).
        bytes: f64,
    },
    /// Every redirector's scheduling window rolls over.
    WindowTick,
    /// A server finishes one request.
    Completion {
        /// Server index (principal id of the owner).
        server: usize,
    },
    /// A FIFO link finished transferring one reply (scheduled the moment
    /// the transfer started — FIFO completion times never move).
    ReplyDelivered {
        /// The request whose reply landed.
        request: Request,
        /// The link it crossed.
        link: usize,
        /// When the transfer entered the link (for transfer-time stats).
        entered: f64,
    },
    /// A fair-share link's earliest departure may be due. Carries the link
    /// state version it was scheduled against; the link ignores stale
    /// versions (a newer arrival or departure re-scheduled the wake).
    LinkWake {
        /// The link to wake.
        link: usize,
        /// State version at scheduling time.
        version: u64,
    },
}

/// Tie-break key among equal timestamps; see the module docs for why the
/// variant order (ticks < arrivals < runtime) is load-bearing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKey {
    /// Initial window ticks, by tick index.
    Tick(u64),
    /// Original client arrivals, by (client, per-client arrival index).
    Arrival {
        /// Generating client machine.
        client: u64,
        /// Per-client arrival sequence number.
        index: u64,
    },
    /// Everything scheduled while the simulation runs, in push order.
    Runtime(u64),
}

/// Heap entry ordered by time, then key.
#[derive(Debug, Clone)]
struct Scheduled {
    time: f64,
    key: EventKey,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("finite event times")
            .then(other.key.cmp(&self.key))
    }
}

/// Deterministic event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    /// Retries in push order, sorted by construction (see the module docs).
    retries: VecDeque<Scheduled>,
    next_seq: u64,
    peak: usize,
    /// Test oracle only: every retry goes through the heap.
    #[cfg(test)]
    heap_only: bool,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty queue whose [`EventQueue::push_retry`] is a plain
    /// [`EventQueue::push`], so an oracle run checks the lane end to end.
    #[cfg(test)]
    pub(crate) fn heap_only() -> Self {
        EventQueue { heap_only: true, ..Self::default() }
    }

    /// Schedules a runtime `event` at absolute time `time` (FIFO among
    /// equal timestamps, after any tick or original arrival at the same
    /// time).
    pub fn push(&mut self, time: f64, event: Event) {
        let key = self.next_runtime_key();
        self.push_keyed(time, key, event);
    }

    /// Schedules a self-redirect retry: ordered exactly like
    /// [`EventQueue::push`], but a retry no earlier than the last one
    /// queued joins the FIFO lane instead of the heap.
    pub fn push_retry(&mut self, time: f64, event: Event) {
        let key = self.next_runtime_key();
        #[cfg(test)]
        if self.heap_only {
            return self.push_keyed(time, key, event);
        }
        // Keys only grow, so a retry due no earlier than the lane's back
        // keeps the lane sorted.
        if self.retries.back().is_some_and(|back| time < back.time) {
            self.push_keyed(time, key, event);
        } else {
            assert!(time.is_finite(), "event time must be finite");
            self.retries.push_back(Scheduled { time, key, event });
            self.note_len();
        }
    }

    fn next_runtime_key(&mut self) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        EventKey::Runtime(seq)
    }

    /// Schedules window tick number `index` (ticks sort before everything
    /// else at the same timestamp).
    pub fn push_tick(&mut self, time: f64, index: u64, event: Event) {
        self.push_keyed(time, EventKey::Tick(index), event);
    }

    /// Schedules client `client`'s `index`-th original arrival (arrivals
    /// sort after ticks and before runtime events at the same timestamp,
    /// by client then per-client index).
    pub fn push_arrival(&mut self, time: f64, client: usize, index: u64, event: Event) {
        self.push_keyed(time, EventKey::Arrival { client: client as u64, index }, event);
    }

    fn push_keyed(&mut self, time: f64, key: EventKey, event: Event) {
        assert!(time.is_finite(), "event time must be finite");
        self.heap.push(Scheduled { time, key, event });
        self.note_len();
    }

    fn note_len(&mut self) {
        self.peak = self.peak.max(self.len());
    }

    /// Pops the earliest event, from the heap or the retry lane.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        // `Scheduled` orders the earlier event as the greater.
        let lane_first = match (self.retries.front(), self.heap.peek()) {
            (Some(lane), Some(top)) => lane > top,
            (lane, _) => lane.is_some(),
        };
        let next = if lane_first { self.retries.pop_front() } else { self.heap.pop() };
        next.map(|s| (s.time, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.retries.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.retries.is_empty()
    }

    /// Largest number of events ever pending at once.
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, Event::Completion { server: 3 });
        q.push(1.0, Event::Completion { server: 1 });
        q.push(2.0, Event::Completion { server: 2 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for r in 0..5 {
            q.push(1.0, Event::Completion { server: r });
        }
        let order: Vec<Event> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let pushed: Vec<Event> = (0..5).map(|server| Event::Completion { server }).collect();
        assert_eq!(order, pushed);
    }

    #[test]
    fn classes_order_ticks_arrivals_runtime_at_equal_time() {
        use covenant_agreements::PrincipalId;
        let arrival = |client, id| Event::Arrival {
            request: Request::unit(id, PrincipalId(0), 1.0),
            redirector: 0,
            client,
            retries: 0,
            bytes: 0.0,
        };
        let mut q = EventQueue::new();
        // Pushed in deliberately scrambled order; all at t = 1.0.
        q.push(1.0, Event::Completion { server: 9 });
        q.push_arrival(1.0, 2, 0, arrival(2, 0));
        q.push_tick(1.0, 5, Event::WindowTick);
        q.push_arrival(1.0, 1, 3, arrival(1, 1));
        let order: Vec<Event> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let runtime = Event::Completion { server: 9 };
        assert_eq!(order, vec![Event::WindowTick, arrival(1, 1), arrival(2, 0), runtime]);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        q.push(1.0, Event::Completion { server: 0 });
        q.push(2.0, Event::Completion { server: 1 });
        q.push(3.0, Event::Completion { server: 2 });
        q.pop();
        q.pop();
        q.push(4.0, Event::Completion { server: 3 });
        assert_eq!(q.peak_len(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn peak_counts_the_retry_lane() {
        let mut q = EventQueue::new();
        q.push(5.0, Event::Completion { server: 0 });
        q.push_retry(1.0, Event::Completion { server: 1 });
        q.push_retry(2.0, Event::Completion { server: 2 });
        assert_eq!((q.len(), q.peak_len()), (3, 3));
        q.pop();
        q.push_retry(3.0, Event::Completion { server: 3 });
        q.push_retry(4.0, Event::Completion { server: 4 });
        assert_eq!((q.len(), q.peak_len()), (4, 4));
        while q.pop().is_some() {}
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 4);
    }

    #[test]
    fn retries_merge_with_the_heap_in_key_order() {
        let mut q = EventQueue::new();
        q.push_retry(1.0, Event::Completion { server: 0 });
        q.push(1.0, Event::Completion { server: 1 });
        q.push_retry(1.0, Event::Completion { server: 2 });
        q.push_tick(1.0, 0, Event::WindowTick);
        q.push_retry(3.0, Event::Completion { server: 3 });
        // Earlier than the lane's back: must still pop in time order.
        q.push_retry(2.0, Event::Completion { server: 4 });
        q.push(0.5, Event::Completion { server: 5 });
        let order: Vec<(f64, Event)> = std::iter::from_fn(|| q.pop()).collect();
        let c = |server| Event::Completion { server };
        let want = vec![
            (0.5, c(5)),
            (1.0, Event::WindowTick),
            (1.0, c(0)),
            (1.0, c(1)),
            (1.0, c(2)),
            (2.0, c(4)),
            (3.0, c(3)),
        ];
        assert_eq!(order, want);
    }

    #[test]
    fn heap_only_queue_pops_the_same_sequence() {
        let fill = |q: &mut EventQueue| {
            for (i, t) in [2.0, 2.0, 3.0, 1.0, 4.0, 4.0].into_iter().enumerate() {
                if i % 2 == 0 {
                    q.push_retry(t, Event::Completion { server: i });
                } else {
                    q.push(t, Event::Completion { server: i });
                }
            }
        };
        let (mut lane, mut heap) = (EventQueue::new(), EventQueue::heap_only());
        fill(&mut lane);
        fill(&mut heap);
        assert!(heap.retries.is_empty());
        assert_eq!(lane.retries.len(), 3);
        let drain = |q: &mut EventQueue| std::iter::from_fn(|| q.pop()).collect::<Vec<_>>();
        assert_eq!(drain(&mut lane), drain(&mut heap));
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1.0, Event::Completion { server: 0 });
        q.push(2.0, Event::Completion { server: 1 });
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, Event::Completion { server: 0 });
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_infinite_retry_time() {
        let mut q = EventQueue::new();
        q.push_retry(f64::INFINITY, Event::Completion { server: 0 });
    }
}
