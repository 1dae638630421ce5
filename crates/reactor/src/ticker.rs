//! Window-boundary bookkeeping for a reactor loop.

/// Tracks aligned window boundaries `k·w` in the loop's (virtual or
/// coordinator) clock. A loop that falls behind skips to the latest
/// elapsed boundary instead of firing a catch-up burst — quotas are
/// per-window rates, so replaying missed windows would over-admit.
#[derive(Debug, Clone)]
pub struct WindowTicker {
    window: f64,
    next_k: u64,
}

impl WindowTicker {
    /// A ticker whose first boundary is `1·window_secs` (the boundary at
    /// t = 0 is the core's construction state, not a tick).
    pub fn new(window_secs: f64) -> WindowTicker {
        WindowTicker { window: window_secs, next_k: 1 }
    }

    /// The next boundary time, seconds.
    pub fn next_boundary(&self) -> f64 {
        self.next_k as f64 * self.window
    }

    /// The epoll timeout (ms) that wakes the loop at the next boundary,
    /// clamped to [1, 10_000].
    pub fn poll_timeout_ms(&self, now: f64) -> i32 {
        let secs = (self.next_boundary() - now).max(0.0);
        ((secs * 1000.0).ceil() as i64).clamp(1, 10_000) as i32
    }

    /// If a boundary has elapsed, returns the boundary time to roll at —
    /// the *latest* elapsed one, skipping any the loop slept through —
    /// and advances. The returned time is the engine's exact boundary
    /// expression (`k as f64 * window`) so virtual-time replays tie-break
    /// identically to the simulator.
    pub fn due(&mut self, now: f64) -> Option<f64> {
        let next = self.next_boundary();
        if now < next {
            return None;
        }
        // Latest k with k·w ≤ now (floor can land one short under float
        // division; correct upward).
        let mut k = (now / self.window) as u64;
        if (k + 1) as f64 * self.window <= now {
            k += 1;
        }
        let k = k.max(self.next_k);
        self.next_k = k + 1;
        Some(k as f64 * self.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_once_per_boundary() {
        let mut t = WindowTicker::new(0.1);
        assert_eq!(t.due(0.05), None);
        assert_eq!(t.due(0.1), Some(0.1));
        assert_eq!(t.due(0.15), None);
        assert_eq!(t.due(0.21), Some(2.0 * 0.1));
    }

    #[test]
    fn stall_skips_to_latest_boundary() {
        let mut t = WindowTicker::new(0.1);
        // Slept through boundaries 1..=9; fire once at boundary 9, then
        // resume the normal cadence at 10.
        let fired = t.due(0.95).unwrap();
        assert!((fired - 9.0 * 0.1).abs() < 1e-12, "fired {fired}");
        assert_eq!(t.due(0.96), None);
        assert!(t.due(1.0).is_some());
    }

    #[test]
    fn boundary_times_use_engine_expression() {
        // Exact float equality with the engine's k·w is the contract the
        // differential replay relies on.
        let mut t = WindowTicker::new(0.1);
        for k in 1..=50u64 {
            let fired = t.due(k as f64 * 0.1).unwrap();
            assert_eq!(fired.to_bits(), (k as f64 * 0.1).to_bits(), "k={k}");
        }
    }

    #[test]
    fn timeout_tracks_next_boundary() {
        let t = WindowTicker::new(0.1);
        // Float remainders may push ceil() one ms past the exact value.
        assert!((100..=101).contains(&t.poll_timeout_ms(0.0)));
        assert!((5..=6).contains(&t.poll_timeout_ms(0.095)));
        // Past-due boundaries still return the 1 ms minimum (the loop
        // must reach `due`, not spin at 0).
        assert_eq!(t.poll_timeout_ms(0.2), 1);
        let slow = WindowTicker::new(60.0);
        assert_eq!(slow.poll_timeout_ms(0.0), 10_000);
    }
}
