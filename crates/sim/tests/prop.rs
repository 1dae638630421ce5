//! Property tests for the event queue's deterministic ordering.

use covenant_sim::{Event, EventQueue};
use proptest::prelude::*;

/// One step of an interleaved push/pop schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Push a runtime event at `t0 + slot` (small integer times force many
    /// timestamp collisions).
    Push(u8),
    /// Pop the earliest event.
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // 0..4 → push at that time slot; 4..6 → pop (3:2 push/pop mix).
    (0u8..6).prop_map(|v| if v < 4 { Op::Push(v) } else { Op::Pop })
}

/// One step of a schedule that mixes every push kind.
#[derive(Debug, Clone)]
enum MixedOp {
    /// Runtime push at this time slot.
    Push(u8),
    /// Retry of this client's request, this many slots after the previous
    /// retry (monotone in time; keys in any order at equal times).
    Retry(u8, u8),
    /// Retry of this client's request, this many slots *before* the
    /// previous retry: one that may sort before its room's head, which
    /// then marks the room again.
    EarlyRetry(u8, u8),
    /// Window tick at this time slot.
    Tick(u8),
    /// Original arrival at this time slot from this client.
    Arrival(u8, u8),
    /// Pop the earliest event.
    Pop,
}

fn mixed_op() -> impl Strategy<Value = MixedOp> {
    // Weights out of 13: push 2, retry 4, early retry 1, tick 1, arrival 1,
    // pop 4.
    (0u8..13, 0u8..8, 0u8..3).prop_map(|(kind, t, c)| match kind {
        0..=1 => MixedOp::Push(t),
        2..=5 => MixedOp::Retry(t % 2, c),
        6 => MixedOp::EarlyRetry(1 + t % 2, c),
        7 => MixedOp::Tick(t),
        8 => MixedOp::Arrival(t, c),
        _ => MixedOp::Pop,
    })
}

fn arrival_event(t: u8, client: u8, index: u64) -> Event {
    use covenant_agreements::PrincipalId;
    use covenant_sched::{Request, RequestId};
    Event::Arrival {
        request: Request {
            id: RequestId(index),
            principal: PrincipalId(0),
            arrival: t as f64,
            cost: 1.0,
        },
        redirector: 0,
        client: client as usize,
        index,
        retry: false,
        bytes: 0.0,
    }
}

proptest! {
    /// Runtime events at equal timestamps pop in push order (FIFO), no
    /// matter how pushes and pops interleave. The model is a stable sort
    /// of the pushed (time, push-sequence) pairs.
    #[test]
    fn runtime_fifo_survives_interleaved_push_pop(ops in proptest::collection::vec(op_strategy(), 1..64)) {
        let mut q = EventQueue::new();
        // Model: pending (time, seq) pairs, popped by min time then seq.
        let mut pending: Vec<(u8, usize)> = Vec::new();
        let mut seq = 0usize;
        for op in ops {
            match op {
                Op::Push(slot) => {
                    // The server index carries the push sequence number so
                    // the popped order is observable.
                    q.push(slot as f64, Event::Completion { server: seq });
                    pending.push((slot, seq));
                    seq += 1;
                }
                Op::Pop => {
                    let got = q.pop();
                    if pending.is_empty() {
                        prop_assert!(got.is_none());
                    } else {
                        let best = pending
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &(t, s))| (t, s))
                            .map(|(i, _)| i)
                            .unwrap();
                        let (t, s) = pending.remove(best);
                        let (time, event) = got.expect("queue should not be empty");
                        prop_assert_eq!(time, t as f64);
                        prop_assert_eq!(event, Event::Completion { server: s });
                    }
                }
            }
        }
        // Drain: the remainder also pops in (time, seq) order.
        pending.sort();
        for (t, s) in pending {
            let (time, event) = q.pop().expect("drain");
            prop_assert_eq!(time, t as f64);
            prop_assert_eq!(event, Event::Completion { server: s });
        }
        prop_assert!(q.pop().is_none());
    }

    /// The retry rooms merge with the heap without changing the pop order:
    /// under any interleaving of runtime pushes, retries (mostly monotone
    /// in time, some deliberately earlier than the last, with request keys
    /// in any order), ticks, original arrivals and pops, the queue pops
    /// exactly what the naive model picks — min by `(time, class, index)`,
    /// where a retry's index is its request's (client, arrival index) and
    /// only a runtime event's is its push sequence — and `len`/`peak_len`
    /// count every pending event wherever it waits.
    #[test]
    fn retry_rooms_match_naive_order(ops in proptest::collection::vec(mixed_op(), 1..96)) {
        let mut q = EventQueue::new();
        // Model entries: ((time, class, index), event).
        let mut pending: Vec<((u8, u8, u64), Event)> = Vec::new();
        let (mut seq, mut ticks, mut arrivals, mut retries) = (0u64, 0u64, 0u64, 0u64);
        let mut retry_time = 0u8;
        let mut peak = 0usize;
        // Arrivals and retries rank by (client, index); fold both into one key.
        let request_key = |client: u8, index: u64| ((client as u64) << 32) | index;
        for op in ops {
            let mut retry = |q: &mut EventQueue, t: u8, client: u8| {
                let mut event = arrival_event(t, client, retries);
                if let Event::Arrival { retry, .. } = &mut event {
                    *retry = true;
                }
                // Two rooms, so rooms merge with each other as well as the heap.
                q.push_retry(t as f64, usize::from(client % 2), event.clone());
                pending.push(((t, 2, request_key(client, retries)), event));
                retries += 1;
            };
            match op {
                MixedOp::Push(t) => {
                    let event = Event::Completion { server: seq as usize };
                    q.push(t as f64, event.clone());
                    pending.push(((t, 3, seq), event));
                    seq += 1;
                }
                MixedOp::Retry(step, client) => {
                    retry_time = retry_time.saturating_add(step);
                    retry(&mut q, retry_time, client);
                }
                MixedOp::EarlyRetry(back, client) => {
                    retry(&mut q, retry_time.saturating_sub(back), client);
                }
                MixedOp::Tick(t) => {
                    q.push_tick(t as f64, ticks, Event::WindowTick);
                    pending.push(((t, 0, ticks), Event::WindowTick));
                    ticks += 1;
                }
                MixedOp::Arrival(t, client) => {
                    let index = arrivals;
                    arrivals += 1;
                    let event = arrival_event(t, client, index);
                    q.push_arrival(t as f64, client as usize, index, event.clone());
                    pending.push(((t, 1, request_key(client, index)), event));
                }
                MixedOp::Pop => {
                    let got = q.pop();
                    let best = pending.iter().enumerate().min_by_key(|(_, (k, _))| *k).map(|(i, _)| i);
                    match best {
                        None => prop_assert!(got.is_none()),
                        Some(i) => {
                            let ((t, _, _), want) = pending.remove(i);
                            prop_assert_eq!(got, Some((t as f64, want)));
                        }
                    }
                }
            }
            peak = peak.max(pending.len());
            prop_assert_eq!(q.len(), pending.len());
            prop_assert_eq!(q.is_empty(), pending.is_empty());
            prop_assert_eq!(q.peak_len(), peak);
        }
        pending.sort_by_key(|(k, _)| *k);
        for ((t, _, _), want) in pending {
            prop_assert_eq!(q.pop(), Some((t as f64, want)));
        }
        prop_assert!(q.pop().is_none());
    }

    /// The class ordering (ticks < original arrivals < retries < runtime)
    /// holds at every shared timestamp under arbitrary interleavings, and
    /// within the request classes the (client, index) order is preserved.
    #[test]
    fn classes_keep_rank_under_interleaving(
        ticks in proptest::collection::vec(0u8..4, 0..8),
        arrivals in proptest::collection::vec((0u8..4, 0u8..3), 0..8),
        retries in proptest::collection::vec((0u8..4, 0u8..3), 0..8),
        runtime in proptest::collection::vec(0u8..4, 0..8),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in ticks.iter().enumerate() {
            q.push_tick(t as f64, i as u64, Event::WindowTick);
        }
        for (i, &(t, client)) in arrivals.iter().enumerate() {
            q.push_arrival(t as f64, client as usize, i as u64, arrival_event(t, client, i as u64));
        }
        for (i, &(t, client)) in retries.iter().enumerate() {
            let mut event = arrival_event(t, client, i as u64);
            if let Event::Arrival { retry, .. } = &mut event {
                *retry = true;
            }
            q.push_retry(t as f64, client as usize, event);
        }
        for &t in &runtime {
            q.push(t as f64, Event::Completion { server: 0 });
        }
        // Rank within the popped sequence: time, class, then the request
        // key for arrivals and retries.
        let mut popped = Vec::new();
        while let Some((time, e)) = q.pop() {
            let rank = match e {
                Event::WindowTick => (0, 0, 0),
                Event::Arrival { client, index, retry, .. } => (1 + u8::from(retry), client, index),
                _ => (3, 0, 0),
            };
            popped.push((time, rank));
        }
        prop_assert!(popped.windows(2).all(|w| w[0] <= w[1]), "order violated: {popped:?}");
        let total = ticks.len() + arrivals.len() + retries.len() + runtime.len();
        prop_assert_eq!(popped.len(), total);
    }
}
