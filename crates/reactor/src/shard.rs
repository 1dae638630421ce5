//! The thread-per-shard runtime of both data planes: N named threads, each
//! with one [`Epoll`] (its [`WakeFd`] under token 0) and one [`Shard`],
//! waiting for an event or the next [`WindowTicker`] boundary, then [`step`].

use crate::{Epoll, Event, Interest, WakeFd, WakeHandle, WindowTicker};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Epoll token of a shard's wake fd; a shard registers its own fds from 1.
const TOKEN_WAKE: u64 = 0;

/// One shard's half of the loop. `P` registers interest: the shard's
/// [`Epoll`] in the live loop, anything at all in a test script.
pub trait Shard<P = Epoll> {
    /// Rolls the window at `boundary`.
    fn roll(&mut self, poll: &P, boundary: f64);
    /// Handles one readiness event (token ≥ 1) at the wake's clock sample.
    fn event(&mut self, poll: &P, ev: Event, now: f64);
    /// Ends a wake that had events or a roll.
    fn end_wake(&mut self);
}

/// One wake at `now`: rolls a boundary due by then before the wake's events,
/// hands each event to `shard`, ends the wake if anything happened. (The
/// wake fd fires only after the stop flag is set, so it is never drained.)
pub fn step<P, S: Shard<P>>(
    shard: &mut S, poll: &P, ticker: &mut WindowTicker, events: &[Event], now: f64,
) {
    let rolled = ticker.due(now).map(|boundary| shard.roll(poll, boundary)).is_some();
    for &ev in events.iter().filter(|ev| ev.token != TOKEN_WAKE) {
        shard.event(poll, ev, now);
    }
    if rolled || !events.is_empty() {
        shard.end_wake();
    }
}

/// Accepts every connection `listener` has queued and hands each to
/// `take`, nonblocking and with Nagle off, with its peer address.
pub fn accept_ready(listener: &TcpListener, mut take: impl FnMut(TcpStream, SocketAddr)) {
    loop {
        match listener.accept() {
            Ok((stream, peer)) if stream.set_nonblocking(true).is_ok() => {
                let _ = stream.set_nodelay(true);
                take(stream, peer);
            }
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break, // WouldBlock: backlog drained.
        }
    }
}

/// Running shard threads; [`Shards::shutdown`], or drop, joins them.
pub struct Shards {
    stop: Arc<AtomicBool>,
    wakes: Vec<WakeHandle>,
    threads: Vec<JoinHandle<()>>,
}

impl Shards {
    /// One thread per input, named `name` and its index, rolling windows of
    /// `window_secs` on `clock`; `build` registers the shard's fds from
    /// token 1. On an error the threads already started are joined.
    pub fn spawn<T, S: Shard + Send + 'static>(
        name: &str,
        window_secs: f64,
        clock: impl Fn() -> f64 + Clone + Send + 'static,
        inputs: impl IntoIterator<Item = T>,
        mut build: impl FnMut(usize, T, &Epoll) -> io::Result<S>,
    ) -> io::Result<Shards> {
        let mut shards = Shards { stop: Arc::default(), wakes: Vec::new(), threads: Vec::new() };
        for (i, input) in inputs.into_iter().enumerate() {
            let epoll = Epoll::new()?;
            // The handle keeps the eventfd open for the registration.
            let (wake, handle) = WakeFd::new()?;
            epoll.add(&wake, TOKEN_WAKE, Interest::READ)?;
            let shard = build(i, input, &epoll)?;
            let (stop, clock) = (Arc::clone(&shards.stop), clock.clone());
            let thread = std::thread::Builder::new()
                .name(format!("{name}{i}"))
                .spawn(move || run(shard, &epoll, window_secs, clock, &stop))?;
            shards.wakes.push(handle);
            shards.threads.push(thread);
        }
        Ok(shards)
    }

    /// Signals every shard and joins its thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.wakes.iter().for_each(WakeHandle::wake);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Shards {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run(mut shard: impl Shard, epoll: &Epoll, window: f64, clock: impl Fn() -> f64, stop: &AtomicBool) {
    let (mut events, mut ticker) = (Vec::new(), WindowTicker::new(window));
    while epoll.wait(&mut events, ticker.poll_timeout_ms(clock())).is_ok()
        && !stop.load(Ordering::Acquire)
    {
        // One clock sample per wake: every verdict in the batch carries the
        // same arrival time, as a simulator event batch does.
        step(&mut shard, epoll, &mut ticker, &events, clock());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    /// Records what the loop asks of it.
    #[derive(Default)]
    struct Log(Vec<String>);

    impl Shard<()> for Log {
        fn roll(&mut self, _: &(), boundary: f64) {
            self.0.push(format!("roll {boundary}"));
        }
        fn event(&mut self, _: &(), ev: Event, now: f64) {
            self.0.push(format!("event {} at {now}", ev.token));
        }
        fn end_wake(&mut self) {
            self.0.push("end".into());
        }
    }

    fn ev(token: u64) -> Event {
        Event { token, readable: true, writable: false, closed: false, error: false }
    }

    #[test]
    fn a_wake_rolls_first_and_ends_only_when_busy() {
        let (mut log, mut ticker) = (Log::default(), WindowTicker::new(0.1));
        step(&mut log, &(), &mut ticker, &[], 0.05);
        assert!(log.0.is_empty(), "an idle wake before the boundary is not a wake");
        step(&mut log, &(), &mut ticker, &[ev(3), ev(TOKEN_WAKE)], 0.1);
        step(&mut log, &(), &mut ticker, &[], 0.35);
        assert_eq!(log.0, ["roll 0.1", "event 3 at 0.1", "end", "roll 0.30000000000000004", "end"]);
    }

    /// A shard that notes its thread's name and rolls, and tells when it
    /// is dropped.
    struct Named(Arc<Mutex<Vec<String>>>);

    impl Shard for Named {
        fn roll(&mut self, _: &Epoll, _: f64) {
            let name = std::thread::current().name().unwrap_or_default().to_string();
            self.0.lock().unwrap().push(name);
        }
        fn event(&mut self, _: &Epoll, _: Event, _: f64) {}
        fn end_wake(&mut self) {}
    }

    impl Drop for Named {
        fn drop(&mut self) {
            self.0.lock().unwrap().push("dropped".into());
        }
    }

    #[test]
    fn shards_run_named_threads_until_shutdown() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let epoch = Instant::now();
        let clock = move || epoch.elapsed().as_secs_f64();
        let mut shards = Shards::spawn("t-", 0.005, clock, 0..2, |_, _, _| Ok(Named(Arc::clone(&seen)))).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while ["t-0", "t-1"].iter().any(|n| !seen.lock().unwrap().iter().any(|s| s == n)) {
            assert!(Instant::now() < deadline, "a shard never rolled: {:?}", seen.lock().unwrap());
            std::thread::sleep(Duration::from_millis(1));
        }
        shards.shutdown();
        shards.shutdown();
        let dropped = seen.lock().unwrap().iter().filter(|s| *s == "dropped").count();
        assert_eq!(dropped, 2, "shutdown joins every thread");
    }

    #[test]
    fn a_failed_build_joins_the_threads_already_started() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let built = Shards::spawn("t-", 0.005, || 0.0, 0..3, |i, _, _| match i {
            0 => Ok(Named(Arc::clone(&seen))),
            _ => Err(io::Error::other("no second shard")),
        });
        assert!(built.is_err());
        assert_eq!(*seen.lock().unwrap(), ["dropped"]);
    }
}
