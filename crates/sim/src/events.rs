//! The event queue: a deterministic min-heap of timestamped events, plus
//! the rooms where self-redirect retries wait, one per redirector,
//! principal and cost class.
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
//! however far ahead each was scheduled: the engine may move a retry to the
//! first re-presentation after a window roll, skipping the ones before it
//! that are certain to be deferred again, and it still pops exactly where a
//! retry polled once per gap would have popped.
//!
//! # Rooms
//!
//! Under credit retry nearly every pending event is a retry, and the
//! engine decides them a principal at a time: once a principal's credit at
//! a redirector cannot cover a cost, every request of that principal
//! waiting there with that cost or more is deferred until the next roll
//! (see the engine's module docs). So a retry waits in a *room*, which the
//! engine picks by redirector, principal and cost class
//! ([`EventQueue::push_retry`]), and `EventQueue::fold_room` lets the
//! engine move a room's members at once. A room is a heap of its members
//! by `(time, key)`. A fold sets the time of each member due before its
//! bound to the one the engine moves it to, in place, and re-heapifies
//! the room once: right after a roll nearly every member is due, so one
//! pass and one heapify cost less than popping and pushing each.
//!
//! The main heap holds one marker per non-empty room, at the room's head,
//! and [`EventQueue::pop`] takes a marker's member from its room: the
//! popped sequence is the one an all-heap queue would produce. A marker
//! whose `(time, key)` is no longer its room's head (a fold moved the head,
//! or an earlier retry joined the room) is dropped when it surfaces; a
//! pending `(time, key)` is never the head again once it has left, because
//! a request's times only grow.

use covenant_sched::Request;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

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

    /// The client and per-client arrival index of a request's key.
    fn client_index(self) -> (usize, u64) {
        (((self.0 >> 64) & ((1 << 62) - 1)) as usize, self.0 as u64)
    }

    /// The `seq`-th runtime event pushed.
    fn runtime(seq: u64) -> EventKey {
        EventKey(Self::RUNTIME | u128::from(seq))
    }
}

/// Queue entry ordered by time, then key. The time is kept as its bit
/// pattern, which orders finite non-negative `f64`s like their values.
#[derive(Debug, Clone, Copy)]
struct Timed<T> {
    at: u64,
    key: EventKey,
    item: T,
}

/// `time`'s bit pattern, which sorts like the time.
fn bits(time: f64) -> u64 {
    assert!(time.is_finite() && time >= 0.0, "event time must be finite and non-negative");
    // `+ 0.0` turns -0.0 into +0.0, whose bits sort first.
    (time + 0.0).to_bits()
}

impl<T> Timed<T> {
    fn new(time: f64, key: EventKey, item: T) -> Timed<T> {
        Timed { at: bits(time), key, item }
    }

    fn time(&self) -> f64 {
        f64::from_bits(self.at)
    }

    /// Where the entry sorts: its `(time, key)`.
    fn slot(&self) -> (u64, EventKey) {
        (self.at, self.key)
    }
}

impl<T> PartialEq for Timed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.slot() == other.slot()
    }
}
impl<T> Eq for Timed<T> {}
impl<T> PartialOrd for Timed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Timed<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        other.slot().cmp(&self.slot())
    }
}

/// What the main heap holds: an event, or the marker of a room's head.
#[derive(Debug)]
enum Pending {
    Event(Event),
    Room(usize),
}

/// A deferred request waiting in its room. The room knows the redirector
/// and the key the client and per-client index.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    request: Request,
    bytes: f64,
}

/// One room's waiting retries, earliest first.
#[derive(Debug, Default)]
struct Room {
    redirector: usize,
    members: BinaryHeap<Timed<Waiting>>,
}

impl Room {
    fn head(&self) -> Option<(u64, EventKey)> {
        self.members.peek().map(Timed::slot)
    }
}

/// Deterministic event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Timed<Pending>>,
    /// Retry rooms, indexed as the engine numbers them.
    rooms: Vec<Room>,
    next_seq: u64,
    /// Pending events, wherever they wait (markers do not count).
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
    /// checks the rooms end to end.
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

    /// Schedules a self-redirect retry, the [`Event::Arrival`] `event`, in
    /// room `room` (retries sort after ticks and original arrivals and
    /// before runtime events at the same timestamp, by client then
    /// per-client index). The engine gives each redirector, principal and
    /// cost class a room of its own, numbered densely from 0.
    ///
    /// # Panics
    ///
    /// If `event` is not an arrival.
    pub fn push_retry(&mut self, time: f64, room: usize, event: Event) {
        let Event::Arrival { request, redirector, client, index, bytes, .. } = event else {
            panic!("only arrivals are retried: {event:?}");
        };
        let key = EventKey::request(client, index, true);
        #[cfg(test)]
        if self.heap_only {
            return self.push_keyed(time, key, event);
        }
        if room >= self.rooms.len() {
            self.rooms.resize_with(room + 1, Room::default);
        }
        let entry = Timed::new(time, key, Waiting { request, bytes });
        let r = &mut self.rooms[room];
        r.redirector = redirector;
        if r.head().is_none_or(|head| entry.slot() < head) {
            self.heap.push(Timed { at: entry.at, key, item: Pending::Room(room) });
        }
        r.members.push(entry);
        self.note_push();
    }

    /// Lets `fold` move the members of room `room` that are due before
    /// `before`: it gets each one's time, key and request, in no
    /// particular order, and returns when that member is next due (its own
    /// time to leave it there, never an earlier one). The room's order and
    /// its marker are restored once, afterwards.
    pub(crate) fn fold_room(
        &mut self,
        room: usize,
        before: f64,
        mut fold: impl FnMut(f64, EventKey, &Request) -> f64,
    ) {
        let Some(r) = self.rooms.get_mut(room) else {
            return;
        };
        let head = r.head();
        let mut members = std::mem::take(&mut r.members).into_vec();
        for w in &mut members {
            let at = w.time();
            if at < before {
                let next = fold(at, w.key, &w.item.request);
                debug_assert!(next >= at, "a fold moved a retry back in time");
                w.at = bits(next);
            }
        }
        r.members = BinaryHeap::from(members);
        if let Some((at, key)) = r.head().filter(|&now| Some(now) != head) {
            self.heap.push(Timed { at, key, item: Pending::Room(room) });
        }
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
        self.heap.push(Timed::new(time, key, Pending::Event(event)));
        self.note_push();
    }

    fn note_push(&mut self) {
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// Pops the earliest event, from the heap or a room.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        loop {
            let mut top = self.heap.peek_mut()?;
            let time = top.time();
            let event = match top.item {
                Pending::Event(_) => {
                    let Pending::Event(event) = PeekMut::pop(top).item else {
                        unreachable!("matched an event");
                    };
                    event
                }
                Pending::Room(room) => {
                    let r = &mut self.rooms[room];
                    if r.head() != Some(top.slot()) {
                        // The room's head has moved since this marker.
                        PeekMut::pop(top);
                        continue;
                    }
                    let Some(Timed { item: Waiting { request, bytes }, .. }) = r.members.pop()
                    else {
                        unreachable!("the room has a head");
                    };
                    let (client, index) = top.key.client_index();
                    // The marker moves to the room's new head in place.
                    match r.head() {
                        Some(slot) => (top.at, top.key) = slot,
                        None => {
                            PeekMut::pop(top);
                        }
                    }
                    let redirector = r.redirector;
                    Event::Arrival { request, redirector, client, index, retry: true, bytes }
                }
            };
            self.len -= 1;
            return Some((time, event));
        }
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
    use proptest::prelude::*;

    fn arrival(client: usize, index: u64, retry: bool) -> Event {
        Event::Arrival {
            request: Request::unit(index, PrincipalId(0), 1.0),
            redirector: 0,
            client,
            index,
            retry,
            bytes: 0.0,
        }
    }

    /// A retry of client `client`'s `index`-th request, in the room of the
    /// client's parity.
    fn retry(q: &mut EventQueue, time: f64, client: usize, index: u64) {
        q.push_retry(time, client % 2, arrival(client, index, true));
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
        q.push_arrival(1.0, 2, 0, arrival(2, 0, false));
        q.push_tick(1.0, 5, Event::WindowTick);
        q.push_arrival(1.0, 1, 3, arrival(1, 3, false));
        let order: Vec<Event> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        let runtime = Event::Completion { server: 9 };
        let want = vec![
            Event::WindowTick,
            arrival(1, 3, false),
            arrival(2, 0, false),
            arrival(0, 0, true),
            runtime,
        ];
        assert_eq!(order, want);
    }

    /// Equal-time retries pop by (client, index), not by when they were
    /// pushed or which room they wait in: a retry scheduled long before its
    /// twin still pops after it when its request sorts later.
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

    /// A retry that sorts before its room's head marks the room again; the
    /// marker it replaces is dropped when it surfaces, and every member
    /// pops once, in order.
    #[test]
    fn an_earlier_retry_remarks_its_room() {
        let mut q = EventQueue::new();
        for (i, t) in [5.0, 4.0, 3.0, 2.0, 1.0, 6.0, 0.5].into_iter().enumerate() {
            q.push_retry(t, 0, arrival(0, i as u64, true));
        }
        assert_eq!(q.heap.len(), 6, "one marker per new head");
        assert_eq!(q.len(), 7);
        let times: Vec<f64> = drain(&mut q).into_iter().map(|(t, _)| t).collect();
        assert_eq!(times, vec![0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(q.heap.is_empty() && q.is_empty());
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

    /// Every waiting retry counts once, however many markers its room left
    /// in the heap; a fold moves retries without changing the count.
    #[test]
    fn peak_counts_room_members_not_markers() {
        let mut q = EventQueue::new();
        q.push(5.0, Event::Completion { server: 0 });
        retry(&mut q, 1.0, 0, 1);
        retry(&mut q, 0.5, 0, 2);
        assert_eq!((q.len(), q.peak_len()), (3, 3));
        q.pop();
        retry(&mut q, 3.0, 0, 3);
        retry(&mut q, 4.0, 0, 4);
        assert_eq!((q.len(), q.peak_len()), (4, 4));
        q.fold_room(0, 3.5, |at, _, _| at + 10.0);
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
        // Earlier than its room's head: must still pop in time order.
        retry(&mut q, 2.0, 0, 4);
        q.push(0.5, Event::Completion { server: 5 });
        let c = |server| Event::Completion { server };
        let want = vec![
            (0.5, c(5)),
            (1.0, Event::WindowTick),
            (1.0, arrival(0, 2, true)),
            (1.0, arrival(1, 0, true)),
            (1.0, c(1)),
            (2.0, arrival(0, 4, true)),
            (3.0, arrival(0, 3, true)),
        ];
        assert_eq!(drain(&mut q), want);
    }

    /// A fold moves only the members due before its bound, leaves the
    /// others where they were, and the room pops in the moved order.
    #[test]
    fn fold_moves_the_members_before_the_bound() {
        let mut q = EventQueue::new();
        for (i, t) in [0.1, 0.4, 0.2, 1.5, 0.3].into_iter().enumerate() {
            q.push_retry(t, 0, arrival(0, i as u64, true));
        }
        q.push(1.2, Event::Completion { server: 0 });
        let mut seen = Vec::new();
        // Members before 1.0 go to 1.0 + their old time.
        q.fold_room(0, 1.0, |at, key, _| {
            seen.push(key.client_index().1);
            1.0 + at
        });
        seen.sort();
        assert_eq!(seen, vec![0, 1, 2, 4]);
        let got: Vec<(f64, Option<u64>)> = drain(&mut q)
            .into_iter()
            .map(|(t, e)| match e {
                Event::Arrival { index, .. } => (t, Some(index)),
                _ => (t, None),
            })
            .collect();
        let want =
            vec![(1.1, Some(0)), (1.2, Some(2)), (1.2, None), (1.3, Some(4)), (1.4, Some(1)), (1.5, Some(3))];
        assert_eq!(got, want);
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
        let (mut rooms, mut heap) = (EventQueue::new(), EventQueue::heap_only());
        fill(&mut rooms);
        fill(&mut heap);
        assert!(heap.rooms.is_empty());
        assert_eq!(rooms.rooms.iter().map(|r| r.members.len()).sum::<usize>(), 4);
        assert_eq!(drain(&mut rooms), drain(&mut heap));
    }

    /// One step of [`rooms_pop_like_a_sorted_list`]'s random scripts.
    #[derive(Debug, Clone)]
    enum Op {
        Runtime(u8),
        Retry { time: u8, client: usize, room: usize },
        Fold { room: usize, before: u8, shift: u8 },
        Pop,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..4, 0u8..40, 0usize..4, 0usize..3, 0u8..20).prop_map(|(kind, t, client, room, shift)| {
            match kind {
                0 => Op::Runtime(t),
                1 => Op::Retry { time: t, client, room },
                2 => Op::Fold { room, before: t, shift },
                _ => Op::Pop,
            }
        })
    }

    proptest! {
        /// Pushes, folds and pops in any interleaving: the queue pops what
        /// a plain list sorted by `(time, key)` would, and counts the same
        /// pending events.
        #[test]
        fn rooms_pop_like_a_sorted_list(ops in proptest::collection::vec(op(), 1..120)) {
            let mut q = EventQueue::new();
            // (time, key, room or `usize::MAX` for runtime events, event)
            let mut list: Vec<(f64, EventKey, usize, Event)> = Vec::new();
            let (mut now, mut seq, mut index) = (0.0f64, 0u64, 0u64);
            for op in ops {
                match op {
                    Op::Runtime(t) => {
                        let t = now + f64::from(t) / 8.0;
                        q.push(t, Event::Completion { server: seq as usize });
                        list.push((t, EventKey::runtime(seq), usize::MAX, Event::Completion { server: seq as usize }));
                        seq += 1;
                    }
                    Op::Retry { time, client, room } => {
                        let t = now + f64::from(time) / 8.0;
                        q.push_retry(t, room, arrival(client, index, true));
                        list.push((t, EventKey::request(client, index, true), room, arrival(client, index, true)));
                        index += 1;
                    }
                    Op::Fold { room, before, shift } => {
                        let before = now + f64::from(before) / 8.0;
                        let move_to = |at: f64| at + f64::from(shift) / 4.0;
                        q.fold_room(room, before, |at, _, _| move_to(at));
                        for e in list.iter_mut().filter(|e| e.2 == room && e.0 < before) {
                            e.0 = move_to(e.0);
                        }
                    }
                    Op::Pop => {
                        let first = (0..list.len()).min_by(|&a, &b| {
                            list[a].0.total_cmp(&list[b].0).then(list[a].1.cmp(&list[b].1))
                        });
                        let want = first.map(|i| list.remove(i)).map(|(t, _, _, e)| (t, e));
                        let got = q.pop();
                        prop_assert_eq!(&got, &want);
                        if let Some((t, _)) = got {
                            now = t;
                        }
                    }
                }
                prop_assert_eq!(q.len(), list.len());
            }
        }
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
