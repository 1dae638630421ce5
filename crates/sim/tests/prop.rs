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

    /// The class ordering (ticks < original arrivals < runtime) holds at
    /// every shared timestamp under arbitrary interleavings, and within a
    /// class the index order is preserved.
    #[test]
    fn classes_keep_rank_under_interleaving(
        ticks in proptest::collection::vec(0u8..4, 0..8),
        arrivals in proptest::collection::vec((0u8..4, 0u8..3), 0..8),
        runtime in proptest::collection::vec(0u8..4, 0..8),
    ) {
        use covenant_agreements::PrincipalId;
        use covenant_sched::{Request, RequestId};
        let mut q = EventQueue::new();
        for (i, &t) in ticks.iter().enumerate() {
            q.push_tick(t as f64, i as u64, Event::WindowTick);
        }
        for (i, &(t, client)) in arrivals.iter().enumerate() {
            let req = Request {
                id: RequestId(i as u64),
                principal: PrincipalId(0),
                arrival: t as f64,
                cost: 1.0,
            };
            q.push_arrival(
                t as f64,
                client as usize,
                i as u64,
                Event::Arrival {
                    request: req,
                    redirector: 0,
                    client: client as usize,
                    retries: 0,
                    bytes: 0.0,
                },
            );
        }
        for &t in &runtime {
            q.push(t as f64, Event::Completion { server: 0 });
        }
        // Rank within the popped sequence: time first, then class.
        let mut popped = Vec::new();
        while let Some((time, e)) = q.pop() {
            let class = match e {
                Event::WindowTick => 0,
                Event::Arrival { .. } => 1,
                _ => 2,
            };
            popped.push((time, class));
        }
        prop_assert!(popped.windows(2).all(|w| w[0] <= w[1]), "order violated: {popped:?}");
        prop_assert_eq!(popped.len(), ticks.len() + arrivals.len() + runtime.len());
    }
}
