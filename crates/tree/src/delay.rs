//! Modelling what a redirector *sees*: aggregates delayed by propagation.
//!
//! The combining tree makes global queue information available only after
//! its round-trip latency; the paper's Figure 8 experiment injects a 10 s
//! lag and shows the schedulers adapt gracefully. [`DelayedView`] is the
//! reusable primitive: publish timestamped values, read back the newest
//! value that is at least `lag` old.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A timestamped single-producer pipeline with a fixed visibility lag.
///
/// Time runs forward across *both* publishes and reads: a read is expected
/// at or after the newest publish. Publishing relies on that to drop what
/// no later read could return, so the view holds the entries still inside
/// the lag plus one, however rarely it is read. (A read that does arrive
/// with an earlier clock — two threads a fraction of a window apart — is
/// still answered, at worst with an entry that ripened within that
/// fraction.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayedView<T> {
    lag: f64,
    pending: VecDeque<(f64, T)>,
    visible: Option<(f64, T)>,
}

impl<T> DelayedView<T> {
    /// Creates a view with the given visibility lag (seconds).
    pub fn new(lag: f64) -> Self {
        assert!(lag >= 0.0 && lag.is_finite(), "lag must be finite and >= 0");
        DelayedView { lag, pending: VecDeque::new(), visible: None }
    }

    /// The configured lag.
    pub fn lag(&self) -> f64 {
        self.lag
    }

    /// Publishes a value observed at `now`. A timestamp earlier than the
    /// newest pending one (or NaN) is clamped forward to it: stamps carried
    /// in frames from a peer must not be able to disorder the view.
    pub fn publish(&mut self, now: f64, value: T) {
        let last = self.pending.back().map_or(f64::NEG_INFINITY, |&(t, _)| t);
        let now = if now > last { now } else { last };
        // What is ripe now — strictly before `now`, so that `read_before`
        // agrees — is ripe for every read from here on, and a read returns
        // the newest ripe entry: take that step here, so that a view nobody
        // reads still lets go of what it has published.
        self.ripen(now, true);
        // Entries of one instant ripen together and the newest wins, so a
        // same-instant publish replaces its predecessor.
        if last >= now {
            self.pending.pop_back();
        }
        self.pending.push_back((now, value));
    }

    /// Moves every entry published at or before `now − lag` (and, if asked,
    /// strictly before `now`) out of the queue; the newest of them becomes
    /// the visible value.
    fn ripen(&mut self, now: f64, strictly_before: bool) {
        let cutoff = now - self.lag;
        while self.pending.front().is_some_and(|&(t, _)| t <= cutoff && !(strictly_before && t >= now)) {
            self.visible = self.pending.pop_front();
        }
    }

    /// Returns the newest value whose publish time is ≤ `now − lag`, or
    /// `None` if nothing has become visible yet. Values are retained so
    /// repeated reads at the same time agree.
    pub fn read(&mut self, now: f64) -> Option<&T> {
        self.ripen(now, false);
        self.visible.as_ref().map(|(_, v)| v)
    }

    /// Like [`Self::read`], but additionally requires the publish time to
    /// be *strictly* before `now`: a value published at `now` itself is
    /// never returned, even at zero lag. This is the read the live
    /// coordinator uses inside a window-roll round, where every node
    /// publishes at the same boundary time and must not observe same-round
    /// publishes (the simulator gets the same effect from its centralized
    /// aggregate-then-deliver ordering). Values are retained, so the view
    /// stays sticky like `read`.
    pub fn read_before(&mut self, now: f64) -> Option<&T> {
        self.ripen(now, true);
        self.visible.as_ref().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nothing_visible_before_lag() {
        let mut v = DelayedView::new(10.0);
        v.publish(0.0, 42);
        assert_eq!(v.read(5.0), None);
        assert_eq!(v.read(9.99), None);
        assert_eq!(v.read(10.0), Some(&42));
    }

    #[test]
    fn newest_eligible_wins() {
        let mut v = DelayedView::new(1.0);
        v.publish(0.0, 1);
        v.publish(0.5, 2);
        v.publish(2.0, 3);
        assert_eq!(v.read(1.6), Some(&2)); // 0.5 ≤ 0.6, 2.0 not yet
        assert_eq!(v.read(3.0), Some(&3));
    }

    #[test]
    fn zero_lag_is_immediate() {
        let mut v = DelayedView::new(0.0);
        v.publish(1.0, "x");
        assert_eq!(v.read(1.0), Some(&"x"));
    }

    #[test]
    fn visible_value_is_sticky() {
        let mut v = DelayedView::new(1.0);
        v.publish(0.0, 7);
        assert_eq!(v.read(2.0), Some(&7));
        // No new publishes: later reads still return the last visible value.
        assert_eq!(v.read(100.0), Some(&7));
    }

    #[test]
    fn read_before_excludes_same_instant_at_zero_lag() {
        let mut v = DelayedView::new(0.0);
        v.publish(1.0, 1);
        // A same-round publish is invisible to read_before…
        assert_eq!(v.read_before(1.0), None);
        // …but becomes visible at the next boundary, and `read` still sees
        // it immediately.
        assert_eq!(v.read_before(1.1), Some(&1));
        let mut w = DelayedView::new(0.0);
        w.publish(1.0, 1);
        assert_eq!(w.read(1.0), Some(&1));
    }

    #[test]
    fn read_before_keeps_boundary_visibility_under_lag() {
        // With lag > 0 the entry exactly `lag` old is still visible,
        // matching `read`'s inclusive cutoff (Figure 8's 10 s lag lands on
        // exact window multiples).
        let mut v = DelayedView::new(1.0);
        v.publish(0.0, 5);
        assert_eq!(v.read_before(1.0), Some(&5));
    }

    #[test]
    fn publishing_without_reading_stays_bounded() {
        // The silent root of an in-process tree: one aggregate per window
        // (an eighth of a second here) for ever, never read. Only the
        // entries still inside the 1 s lag may stay.
        let mut v = DelayedView::new(1.0);
        for w in 0..10_000 {
            v.publish(w as f64 * 0.125, w);
            assert!(v.pending.len() <= 8, "window {w}: {} entries held", v.pending.len());
        }
        // …and the first read, whenever it comes, is answered as if
        // everything had been kept: 1249.0 is the newest publish ≤ 1250 − 1.
        assert_eq!(v.read(1250.0), Some(&9992));
        let mut z = DelayedView::new(0.0);
        for w in 0..10_000 {
            z.publish(w as f64, w);
            assert!(z.pending.len() <= 2, "a same-instant entry is not ripe for read_before");
        }
        assert_eq!(z.read_before(9_999.0), Some(&9_998));
        assert_eq!(z.read(9_999.0), Some(&9_999));
    }

    /// The view before publishing trimmed anything: the oracle.
    struct Untrimmed {
        lag: f64,
        pending: VecDeque<(f64, u32)>,
        visible: Option<(f64, u32)>,
    }

    impl Untrimmed {
        fn read(&mut self, now: f64, strictly_before: bool) -> Option<u32> {
            while let Some(&(t, _)) = self.pending.front() {
                if t <= now - self.lag && (!strictly_before || t < now) {
                    self.visible = self.pending.pop_front();
                } else {
                    break;
                }
            }
            self.visible.map(|(_, v)| v)
        }
    }

    proptest::proptest! {
        /// Any interleaving of publishes, `read`s and `read_before`s in
        /// forward-running time is answered exactly as when every entry was
        /// kept until a read consumed it.
        #[test]
        fn trimming_on_publish_changes_no_answer(
            lag in 0usize..4,
            steps in proptest::collection::vec((0usize..4, 0.0..0.4f64), 1..200),
        ) {
            let lag = [0.0, 0.1, 0.35, 1.0][lag];
            let mut view = DelayedView::new(lag);
            let mut oracle = Untrimmed { lag, pending: VecDeque::new(), visible: None };
            let mut now = 0.0;
            for (id, &(kind, advance)) in steps.iter().enumerate() {
                // Steps come three to an instant, the way a window boundary
                // publishes and reads together.
                if id % 3 == 0 {
                    now += advance;
                }
                match kind {
                    0 | 1 => {
                        view.publish(now, id as u32);
                        oracle.pending.push_back((now, id as u32));
                    }
                    2 => proptest::prop_assert_eq!(view.read(now).copied(), oracle.read(now, false)),
                    _ => proptest::prop_assert_eq!(
                        view.read_before(now).copied(),
                        oracle.read(now, true)
                    ),
                }
            }
        }
    }

    #[test]
    fn non_monotone_stamps_clamp_forward() {
        let mut v = DelayedView::new(0.0);
        v.publish(0.5, 1);
        v.publish(0.3, 2); // clamped to 0.5
        v.publish(f64::NAN, 3); // clamped to 0.5
        assert_eq!(v.read_before(0.5), None);
        assert_eq!(v.read(0.5), Some(&3));
    }

    #[test]
    fn same_instant_publishes_hold_one_entry() {
        // A peer that stamps every frame alike must not grow the view.
        let mut v = DelayedView::new(0.0);
        for i in 0..1000 {
            v.publish(1.0, i);
        }
        assert_eq!(v.pending.len(), 1);
        assert_eq!(v.read(1.0), Some(&999));
    }
}
