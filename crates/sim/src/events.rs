//! The event queue: a deterministic min-heap of timestamped events, plus a
//! few FIFO lanes for self-redirect retries.
//!
//! Events are totally ordered by `(time, key)`. The key encodes the event's
//! *class* so that lazily streamed events reproduce the exact tie-breaking
//! of an engine that pushes everything up front:
//!
//! 1. window ticks (ordered by tick index),
//! 2. original client arrivals (ordered by client index, then per-client
//!    arrival index — the order a client-by-client pre-materialization
//!    would have inserted them),
//! 3. self-redirect retries, ordered like the original arrival they retry
//!    (client, then per-client arrival index),
//! 4. runtime events — completions, reply deliveries, link wakes — in push
//!    order (FIFO among equal timestamps).
//!
//! Only the last class depends on when an event was pushed. A retry's key
//! is fixed by its request, so equal-time retries pop in the same order
//! however far ahead each was scheduled: the engine may push a retry at the
//! first re-presentation after a window roll, skipping the ones before it
//! that are certain to be deferred again, and still pop it exactly where
//! a retry polled once per gap would have popped.
//!
//! Under credit retry nearly every event is a retry. The engine pushes
//! each one at the first re-presentation at or after the next window roll,
//! so they arrive in a few ascending runs, not in one.
//! [`EventQueue::push_retry`] appends each to the first of a few
//! (`RETRY_LANES`) `VecDeque`s whose back it sorts at or after, and only a
//! retry that fits no lane sifts through the heap. Every lane stays sorted,
//! and [`EventQueue::pop`] takes the earliest of the lanes' fronts and the
//! heap's top under the same order, so the popped sequence is the one an
//! all-heap queue would produce.

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
        /// The request's per-client arrival sequence number; with `client`
        /// it orders the request's retries among equal-time retries.
        index: u64,
        /// Whether this is a self-redirect retry rather than the request's
        /// original arrival.
        retry: bool,
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

/// How many FIFO lanes retries fill before falling back to the heap.
const RETRY_LANES: usize = 3;

/// Tie-break key among equal timestamps, packed into one integer so a
/// single compare orders it: the class in the top two bits (ticks <
/// arrivals < retries < runtime; see the module docs for why that order is
/// load-bearing), then the class's own order — tick index, (client,
/// per-client arrival index) for arrivals and retries, push sequence for
/// runtime events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventKey(u128);

impl EventKey {
    const ARRIVAL: u128 = 1 << 126;
    const RETRY: u128 = 2 << 126;
    const RUNTIME: u128 = 3 << 126;

    /// Window tick number `index`.
    fn tick(index: u64) -> EventKey {
        EventKey(u128::from(index))
    }

    /// The key of client `client`'s `index`-th request: its original
    /// arrival's, or (`retry`) any of its retries'.
    pub(crate) fn request(client: usize, index: u64, retry: bool) -> EventKey {
        let class = if retry { Self::RETRY } else { Self::ARRIVAL };
        let client = client as u128;
        assert!(client < 1 << 62, "client index out of range");
        EventKey(class | client << 64 | u128::from(index))
    }

    /// The `seq`-th runtime event pushed.
    fn runtime(seq: u64) -> EventKey {
        EventKey(Self::RUNTIME | u128::from(seq))
    }
}

/// Queue entry ordered by time, then key. The time is kept as its bit
/// pattern, which orders finite non-negative `f64`s like their values.
#[derive(Debug, Clone)]
struct Scheduled {
    at: u64,
    key: EventKey,
    event: Event,
}

impl Scheduled {
    fn new(time: f64, key: EventKey, event: Event) -> Scheduled {
        assert!(time.is_finite() && time >= 0.0, "event time must be finite and non-negative");
        // `+ 0.0` turns -0.0 into +0.0, whose bits sort first.
        Scheduled { at: (time + 0.0).to_bits(), key, event }
    }

    fn time(&self) -> f64 {
        f64::from_bits(self.at)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.key) == (other.at, other.key)
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
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// Deterministic event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    /// Retry lanes, each sorted by construction (see the module docs).
    lanes: [VecDeque<Scheduled>; RETRY_LANES],
    next_seq: u64,
    /// Pending events, wherever they wait.
    len: usize,
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

    /// Empty queue whose retries all go through the heap, so an oracle run
    /// checks the lanes end to end.
    #[cfg(test)]
    pub(crate) fn heap_only() -> Self {
        EventQueue { heap_only: true, ..Self::default() }
    }

    /// Schedules a runtime `event` at absolute time `time` (FIFO among
    /// equal timestamps, after any tick, original arrival or retry at the
    /// same time).
    pub fn push(&mut self, time: f64, event: Event) {
        let key = EventKey::runtime(self.next_seq);
        self.next_seq += 1;
        self.push_keyed(time, key, event);
    }

    /// Schedules a self-redirect retry of client `client`'s `index`-th
    /// request (retries sort after ticks and original arrivals and before
    /// runtime events at the same timestamp, by client then per-client
    /// index). It joins the first lane whose back it sorts at or after,
    /// or else the heap.
    pub fn push_retry(&mut self, time: f64, client: usize, index: u64, event: Event) {
        let key = EventKey::request(client, index, true);
        #[cfg(test)]
        if self.heap_only {
            return self.push_keyed(time, key, event);
        }
        let entry = Scheduled::new(time, key, event);
        // `Scheduled` orders the earlier event as the greater.
        match self.lanes.iter_mut().find(|lane| lane.back().is_none_or(|back| *back >= entry)) {
            Some(lane) => lane.push_back(entry),
            None => self.heap.push(entry),
        }
        self.note_push();
    }

    /// Schedules window tick number `index` (ticks sort before everything
    /// else at the same timestamp).
    pub fn push_tick(&mut self, time: f64, index: u64, event: Event) {
        self.push_keyed(time, EventKey::tick(index), event);
    }

    /// Schedules client `client`'s `index`-th original arrival (arrivals
    /// sort after ticks and before retries and runtime events at the same
    /// timestamp, by client then per-client index).
    pub fn push_arrival(&mut self, time: f64, client: usize, index: u64, event: Event) {
        self.push_keyed(time, EventKey::request(client, index, false), event);
    }

    fn push_keyed(&mut self, time: f64, key: EventKey, event: Event) {
        self.heap.push(Scheduled::new(time, key, event));
        self.note_push();
    }

    fn note_push(&mut self) {
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// Pops the earliest event, from the heap or a retry lane.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        // `Scheduled` orders the earlier event as the greater.
        let (mut first, mut lane) = (self.heap.peek(), None);
        for (i, front) in self.lanes.iter().enumerate().filter_map(|(i, l)| Some((i, l.front()?))) {
            if first.is_none_or(|first| front > first) {
                (first, lane) = (Some(front), Some(i));
            }
        }
        let next = match lane {
            Some(i) => self.lanes[i].pop_front(),
            None => self.heap.pop(),
        }?;
        self.len -= 1;
        Some((next.time(), next.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest number of events ever pending at once.
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_agreements::PrincipalId;

    fn arrival(client: usize, index: u64) -> Event {
        Event::Arrival {
            request: Request::unit(index, PrincipalId(0), 1.0),
            redirector: 0,
            client,
            index,
            retry: false,
            bytes: 0.0,
        }
    }

    fn retry(q: &mut EventQueue, time: f64, client: usize, index: u64) {
        q.push_retry(time, client, index, arrival(client, index));
    }

    fn drain(q: &mut EventQueue) -> Vec<(f64, Event)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, Event::Completion { server: 3 });
        q.push(1.0, Event::Completion { server: 1 });
        q.push(2.0, Event::Completion { server: 2 });
        let order: Vec<f64> = drain(&mut q).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for r in 0..5 {
            q.push(1.0, Event::Completion { server: r });
        }
        let order: Vec<Event> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        let pushed: Vec<Event> = (0..5).map(|server| Event::Completion { server }).collect();
        assert_eq!(order, pushed);
    }

    #[test]
    fn classes_order_ticks_arrivals_retries_runtime_at_equal_time() {
        let mut q = EventQueue::new();
        // Pushed in deliberately scrambled order; all at t = 1.0.
        q.push(1.0, Event::Completion { server: 9 });
        retry(&mut q, 1.0, 0, 0);
        q.push_arrival(1.0, 2, 0, arrival(2, 0));
        q.push_tick(1.0, 5, Event::WindowTick);
        q.push_arrival(1.0, 1, 3, arrival(1, 3));
        let order: Vec<Event> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        let runtime = Event::Completion { server: 9 };
        let want = vec![Event::WindowTick, arrival(1, 3), arrival(2, 0), arrival(0, 0), runtime];
        assert_eq!(order, want);
    }

    /// Equal-time retries pop by (client, index), not by when they were
    /// pushed: a retry scheduled long before its twin still pops after it
    /// when its request sorts later.
    #[test]
    fn equal_time_retries_pop_by_key_whatever_the_push_order() {
        let keys = [(2, 0), (0, 7), (1, 1), (0, 3), (1, 0)];
        let mut want: Vec<(usize, u64)> = keys.to_vec();
        want.sort();
        for rotation in 0..keys.len() {
            for reversed in [false, true] {
                let mut pushed = keys.to_vec();
                pushed.rotate_left(rotation);
                if reversed {
                    pushed.reverse();
                }
                let mut q = EventQueue::new();
                for &(client, index) in &pushed {
                    retry(&mut q, 2.5, client, index);
                }
                let got: Vec<(usize, u64)> = drain(&mut q)
                    .into_iter()
                    .map(|(_, e)| match e {
                        Event::Arrival { client, index, .. } => (client, index),
                        other => panic!("{other:?}"),
                    })
                    .collect();
                assert_eq!(got, want, "pushed {pushed:?}");
            }
        }
    }

    /// A retry that sorts before every lane's back falls back to the heap
    /// and still pops in order.
    #[test]
    fn out_of_order_retries_still_pop_in_order() {
        let mut q = EventQueue::new();
        for (i, t) in [5.0, 4.0, 3.0, 2.0, 1.0, 6.0, 0.5].into_iter().enumerate() {
            retry(&mut q, t, 0, i as u64);
        }
        assert_eq!(q.heap.len(), 3, "one lane per descending retry, then the heap");
        let times: Vec<f64> = drain(&mut q).into_iter().map(|(t, _)| t).collect();
        assert_eq!(times, vec![0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
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
    fn peak_counts_the_retry_lanes() {
        let mut q = EventQueue::new();
        q.push(5.0, Event::Completion { server: 0 });
        retry(&mut q, 1.0, 0, 1);
        retry(&mut q, 0.5, 0, 2);
        assert_eq!((q.len(), q.peak_len()), (3, 3));
        q.pop();
        retry(&mut q, 3.0, 0, 3);
        retry(&mut q, 4.0, 0, 4);
        assert_eq!((q.len(), q.peak_len()), (4, 4));
        while q.pop().is_some() {}
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 4);
    }

    #[test]
    fn retries_merge_with_the_heap_in_key_order() {
        let mut q = EventQueue::new();
        retry(&mut q, 1.0, 1, 0);
        q.push(1.0, Event::Completion { server: 1 });
        retry(&mut q, 1.0, 0, 2);
        q.push_tick(1.0, 0, Event::WindowTick);
        retry(&mut q, 3.0, 0, 3);
        // Earlier than a lane's back: must still pop in time order.
        retry(&mut q, 2.0, 0, 4);
        q.push(0.5, Event::Completion { server: 5 });
        let c = |server| Event::Completion { server };
        let want = vec![
            (0.5, c(5)),
            (1.0, Event::WindowTick),
            (1.0, arrival(0, 2)),
            (1.0, arrival(1, 0)),
            (1.0, c(1)),
            (2.0, arrival(0, 4)),
            (3.0, arrival(0, 3)),
        ];
        assert_eq!(drain(&mut q), want);
    }

    #[test]
    fn heap_only_queue_pops_the_same_sequence() {
        let fill = |q: &mut EventQueue| {
            for (i, t) in [2.0, 2.0, 3.0, 1.0, 4.0, 4.0, 0.5, 2.0].into_iter().enumerate() {
                if i % 2 == 0 {
                    retry(q, t, i % 3, i as u64);
                } else {
                    q.push(t, Event::Completion { server: i });
                }
            }
        };
        let (mut lanes, mut heap) = (EventQueue::new(), EventQueue::heap_only());
        fill(&mut lanes);
        fill(&mut heap);
        assert!(heap.lanes.iter().all(VecDeque::is_empty));
        assert_eq!(lanes.lanes.iter().map(VecDeque::len).sum::<usize>(), 4);
        assert_eq!(drain(&mut lanes), drain(&mut heap));
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
        retry(&mut q, f64::INFINITY, 0, 0);
    }
}
