//! FIFO reinjection of parked work through the credit gate.
//!
//! Both parking transports — the enforcement core's CreditPark queues and
//! the L4 machine's parked connections — drain the same way at each window
//! boundary: walk the principals, pop parked items in FIFO order, admit
//! each through the fresh credit, and stop a principal's drain at the first
//! deferral (the head of the queue must go first or FIFO is violated).
//! This module is that loop, written once.

use std::collections::VecDeque;

/// Drains parked work through a fresh window's credit, FIFO per principal.
///
/// For each principal's queue in `queues`, pops items in order and calls
/// `admit(principal, &item)`; an admitted item (with its chosen server) is
/// handed to `forward`, while the first deferred item is pushed back to the
/// queue front and ends that principal's drain for this window.
pub fn reinject_fifo<T>(
    queues: &mut [VecDeque<T>],
    mut admit: impl FnMut(usize, &T) -> Option<usize>,
    mut forward: impl FnMut(T, usize),
) {
    for (i, queue) in queues.iter_mut().enumerate() {
        while let Some(item) = queue.pop_front() {
            match admit(i, &item) {
                Some(server) => forward(item, server),
                None => {
                    queue.push_front(item);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_fifo_until_first_deferral_per_principal() {
        let mut q: Vec<VecDeque<u32>> = vec![
            VecDeque::from([1, 2, 3]),
            VecDeque::from([10, 20]),
        ];
        // Principal 0 has 2 credits, principal 1 has 0.
        let mut credits = [2u32, 0];
        let mut out = Vec::new();
        reinject_fifo(
            &mut q,
            |p, _item| {
                if credits[p] > 0 {
                    credits[p] -= 1;
                    Some(p)
                } else {
                    None
                }
            },
            |item, server| out.push((item, server)),
        );
        assert_eq!(out, vec![(1, 0), (2, 0)]);
        // Deferred heads are back in place, FIFO intact.
        assert_eq!(q[0], VecDeque::from([3]));
        assert_eq!(q[1], VecDeque::from([10, 20]));
    }

    #[test]
    fn empty_queues_are_a_no_op() {
        let mut q: Vec<VecDeque<u32>> = vec![VecDeque::new(); 3];
        let mut calls = 0;
        reinject_fifo(
            &mut q,
            |_, _| {
                calls += 1;
                Some(0)
            },
            |_, _| {},
        );
        assert_eq!(calls, 0);
    }
}
