//! The L7 protocol driven as byte scripts: no sockets, no threads, no
//! sleeping. `Peer` is an in-memory socket whose script decides what the
//! machine may read, how much it may write and when the peer half-closes;
//! `Script` reports readiness the way level-triggered epoll does and runs
//! each wake through the reactor's own `step`, so window rolls land where
//! the live loop puts them.
//!
//! These stories used to be reachable only through loopback sockets
//! (`crates/l7/src/shard.rs`); each test names the socket test it replaces.

use covenant_agreements::AgreementGraph;
use covenant_coord::{Coordinator, ShardCore};
use covenant_enforce::ShardStats;
use covenant_l7::{L7Config, L7Machine, HIGH_WATER, MAX_CONNS, RECV_LIMIT};
use covenant_reactor::{step, Event, Interest, Shard, WindowTicker};
use covenant_sched::SchedulerConfig;
use covenant_tree::Topology;
use proptest::prelude::*;
use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::rc::Rc;

const W: f64 = 0.1;
const THIS: &str = "127.0.0.1:8080";
const BACKEND: &str = "10.0.0.1:80";
const R404: &[u8] = b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n";
const R400: &[u8] = b"HTTP/1.1 400 Bad Request\r\ncontent-length: 0\r\nconnection: close\r\n\r\n";

fn redirect(to: &str, path: &str) -> Vec<u8> {
    format!("HTTP/1.1 302 Found\r\nlocation: http://{to}{path}\r\ncontent-length: 0\r\n\r\n")
        .into_bytes()
}

/// Complete responses in `bytes` (every answer is header-only).
fn answers(bytes: &[u8]) -> usize {
    bytes.windows(4).filter(|w| w == b"\r\n\r\n").count()
}

/// One in-memory socket as the machine sees it through `Read`/`Write`.
#[derive(Default)]
struct PeerState {
    /// Sent by the peer, not yet read by the machine: the kernel's queue.
    unread: Vec<u8>,
    /// The peer half-closed behind `unread`.
    fin: bool,
    /// Everything the machine wrote.
    got: Vec<u8>,
    /// What the peer's receive window still takes.
    window: usize,
}

#[derive(Clone, Default)]
struct Peer(Rc<RefCell<PeerState>>);

impl Read for Peer {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut p = self.0.borrow_mut();
        if p.unread.is_empty() {
            return if p.fin { Ok(0) } else { Err(io::ErrorKind::WouldBlock.into()) };
        }
        let n = buf.len().min(p.unread.len());
        buf[..n].copy_from_slice(&p.unread[..n]);
        p.unread.drain(..n);
        Ok(n)
    }
}

impl Write for Peer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut p = self.0.borrow_mut();
        let n = buf.len().min(p.window);
        if n == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        p.got.extend_from_slice(&buf[..n]);
        p.window -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What the loop asked of the shard, in order, with the wake it was in.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Roll(f64),
    Event,
    End,
}

/// The script's shard: the machine, the interest each connection
/// registered, and a log of the loop's calls. Every `ready` is followed
/// by the memory bound: a receive buffer within its cap, a send queue
/// within the watermark plus one response.
struct Net {
    m: L7Machine<Peer>,
    interest: Vec<Interest>,
    stats: ShardStats,
    log: Vec<(usize, Call)>,
    wake: usize,
    /// The longest response the script can cause.
    longest: usize,
}

impl Shard<()> for Net {
    fn roll(&mut self, _: &(), boundary: f64) {
        self.log.push((self.wake, Call::Roll(boundary)));
        self.m.roll(boundary);
    }

    fn event(&mut self, _: &(), ev: Event, now: f64) {
        self.log.push((self.wake, Call::Event));
        let id = ev.token as usize - 1;
        if let Some(want) = self.m.ready(id, ev.readable || ev.closed, now) {
            self.interest[id] = want;
        }
        if let Some((recv, send)) = self.m.buffered(id) {
            assert!(recv <= RECV_LIMIT, "connection {id} buffered {recv} received bytes");
            assert!(send <= HIGH_WATER + self.longest, "connection {id} queued {send} bytes");
        }
    }

    fn end_wake(&mut self) {
        self.log.push((self.wake, Call::End));
        self.m.end_wake(&self.stats);
    }
}

struct Script {
    net: Net,
    ticker: WindowTicker,
    now: f64,
    /// Machine id and peer of each connection, by script index.
    conns: Vec<(usize, Peer)>,
    /// The clock of each wake.
    wakes: Vec<f64>,
}

impl Script {
    /// S serves 1000/s, all of it A's; Z holds nothing, so each of its
    /// requests is a self-redirect whatever the credit.
    fn new() -> Script {
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 1000.0);
        let a = g.add_principal("A", 0.0);
        let _z = g.add_principal("Z", 0.0);
        g.add_agreement(s, a, 1.0, 1.0).unwrap();
        let coordinator = Coordinator::new(Topology::star(1, 0.0), 0.0);
        let sched = SchedulerConfig::community_default();
        let core = ShardCore::new(0, &g.access_levels(), sched, coordinator);
        let cfg = L7Config {
            principal_names: vec!["S".into(), "A".into(), "Z".into()],
            backends: [(0, BACKEND.parse().unwrap())].into(),
        };
        let m = L7Machine::new(core, &cfg, THIS.parse().unwrap()).unwrap();
        let net = Net {
            m,
            interest: Vec::new(),
            stats: ShardStats::new(),
            log: Vec::new(),
            wake: 0,
            // Every script's path is short; the proptest sets its own.
            longest: 128,
        };
        Script { net, ticker: WindowTicker::new(W), now: 0.0, conns: Vec::new(), wakes: Vec::new() }
    }

    /// A new connection whose peer takes `window` bytes of answers.
    fn connect(&mut self, window: usize) -> usize {
        let peer = Peer::default();
        peer.0.borrow_mut().window = window;
        let id = self.net.m.accept(peer.clone(), self.now).ok().expect("below the cap");
        self.net.interest.resize(self.net.interest.len().max(id + 1), Interest::NONE);
        self.net.interest[id] = Interest::READ;
        self.conns.push((id, peer));
        self.conns.len() - 1
    }

    fn peer(&self, c: usize) -> std::cell::RefMut<'_, PeerState> {
        self.conns[c].1 .0.borrow_mut()
    }

    fn send(&mut self, c: usize, bytes: &[u8]) {
        self.peer(c).unread.extend_from_slice(bytes);
    }

    fn open(&self, c: usize) -> bool {
        self.net.m.buffered(self.conns[c].0).is_some()
    }

    fn got(&self, c: usize) -> Vec<u8> {
        self.peer(c).got.clone()
    }

    /// One wake `dt` after the last: the events level-triggered epoll
    /// reports for the interest each open connection registered, then
    /// `step`. Returns how many events there were.
    fn wake(&mut self, dt: f64) -> usize {
        self.now += dt;
        let mut events = Vec::new();
        for (id, peer) in &self.conns {
            let p = peer.0.borrow();
            let want = self.net.interest[*id];
            let readable = want.contains(Interest::READ) && (!p.unread.is_empty() || p.fin);
            let writable = want.contains(Interest::WRITE) && p.window > 0;
            if self.net.m.buffered(*id).is_some() && (readable || writable) {
                let closed = readable && p.fin;
                events.push(Event { token: *id as u64 + 1, readable, writable, closed, error: false });
            }
        }
        self.net.wake = self.wakes.len();
        self.wakes.push(self.now);
        step(&mut self.net, &(), &mut self.ticker, &events, self.now);
        events.len()
    }

    /// Wakes at the same instant until nothing is ready.
    fn settle(&mut self) {
        for _ in 0..100_000 {
            if self.wake(0.0) == 0 {
                return;
            }
        }
        panic!("readiness never settled");
    }
}

/// A peer that pipelines until the shard stops answering — responses
/// past what the send watermark holds — and only then starts to read. The
/// machine stops with complete requests in its receive buffer and nothing
/// left in the kernel's, so no readable event will come for them: the
/// flush that makes room has to resume them.
/// Replaces `requests_buffered_at_the_watermark_are_answered_after_the_flush`
/// (loopback), under the same name.
#[test]
fn requests_buffered_at_the_watermark_are_answered_after_the_flush() {
    const N: usize = 5400;
    let mut s = Script::new();
    let c = s.connect(0);
    s.send(c, &b"GET /org/Z/ HTTP/1.1\r\n\r\n".repeat(N));
    s.settle();
    let (id, _) = s.conns[c];
    let (recv, send) = s.net.m.buffered(id).unwrap();
    assert!(send >= HIGH_WATER, "the watermark never held: {send} queued");
    assert!(recv > 0 && s.peer(c).unread.is_empty(), "the stall needs requests only in the shard");
    assert_eq!(s.net.interest[id], Interest::WRITE, "a paused connection waits to write only");

    s.peer(c).window = usize::MAX;
    s.settle();
    let got = s.got(c);
    assert_eq!(got, redirect(THIS, "/org/Z/").repeat(N), "one answer per request, exactly");
    assert_eq!(s.net.m.buffered(id), Some((0, 0)));
    assert_eq!(s.net.interest[id], Interest::READ);
}

/// A request with a body — declared by length, by `Transfer-Encoding`
/// (whose chunks must not be taken for the next pipelined request), or by
/// two lengths that disagree — gets exactly one `400`, and the connection
/// closes. Replaces the framing half of `protocol_errors_and_unknown_principals`.
#[test]
fn framing_violations_get_one_400_and_a_close() {
    for bad in [
        &b"POST /org/Z/x HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc"[..],
        b"POST /org/Z/x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
          1c\r\nGET /org/Z/y HTTP/1.1\r\n\r\n\r\n0\r\n\r\n",
        b"GET /org/Z/x HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 28\r\n\r\n",
    ] {
        let mut s = Script::new();
        let c = s.connect(usize::MAX);
        s.send(c, bad);
        s.settle();
        assert_eq!(s.got(c), R400, "{:?}", String::from_utf8_lossy(bad));
        assert!(!s.open(c), "the connection must close");
    }
    // A head that fills the receive buffer unterminated gets the same.
    let mut s = Script::new();
    let c = s.connect(usize::MAX);
    s.send(c, b"GET /org/Z/");
    s.send(c, &vec![b'x'; RECV_LIMIT]);
    s.settle();
    assert_eq!((s.got(c), s.open(c)), (R400.to_vec(), false));
}

/// Unknown principals answer `404` and keep the connection alive.
/// Replaces the 404 half of `protocol_errors_and_unknown_principals`.
#[test]
fn unknown_principals_get_404_and_keep_the_connection() {
    let mut s = Script::new();
    let c = s.connect(usize::MAX);
    for _ in 0..2 {
        s.send(c, b"GET /other HTTP/1.1\r\nhost: x\r\n\r\nGET /org/Q/x HTTP/1.1\r\n\r\n");
        s.settle();
    }
    assert_eq!(s.got(c), R404.repeat(4));
    assert!(s.open(c));
    assert_eq!(s.net.stats.snapshot().batched_verdicts, 0, "a 404 is not a verdict");
}

/// A known principal with zero entitlement is implicitly queued — a `302`
/// back to the redirector's own address — even after windows have rolled;
/// one with credit is sent to its backend. Replaces the self-redirect half
/// of `protocol_errors_and_unknown_principals`.
#[test]
fn zero_entitlement_redirects_to_self() {
    let mut s = Script::new();
    let c = s.connect(usize::MAX);
    for _ in 0..5 {
        s.send(c, b"GET /org/Z/x HTTP/1.1\r\n\r\nGET /org/A/y HTTP/1.1\r\n\r\n");
        s.wake(W);
    }
    let got = s.got(c);
    assert_eq!(answers(&got), 10);
    let z = redirect(THIS, "/org/Z/x");
    assert_eq!(got.windows(z.len()).filter(|w| *w == &z[..]).count(), 5, "every Z request self-redirects");
    let a = redirect(BACKEND, "/org/A/y");
    assert!(got.windows(a.len()).any(|w| w == &a[..]), "A is admitted once its credit arrives");
}

/// A peer that sends a request and half-closes gets its answer flushed —
/// through a window that takes it in pieces — and only then is torn down.
#[test]
fn a_half_closed_peer_is_flushed_then_torn_down() {
    let mut s = Script::new();
    let c = s.connect(7);
    s.send(c, b"GET /org/Z/bye HTTP/1.1\r\n\r\n");
    s.peer(c).fin = true;
    s.settle();
    assert!(s.open(c), "closed with {} of the answer's bytes sent", s.got(c).len());
    assert_eq!(s.net.interest[s.conns[c].0], Interest::WRITE, "no more reading after the FIN");
    while s.open(c) {
        s.peer(c).window += 10;
        s.wake(0.0);
    }
    assert_eq!(s.got(c), redirect(THIS, "/org/Z/bye"));
}

/// `MAX_CONNS` peers that send half a request head, or nothing at all,
/// held every slot for ever, and each later client was shed. At the roll
/// past the head timeout they are closed and the next accept is taken; a
/// connection that keeps completing requests stays.
#[test]
fn slow_heads_are_closed_at_the_roll_past_the_timeout() {
    let mut s = Script::new();
    let busy = s.connect(usize::MAX);
    for i in 1..MAX_CONNS {
        let c = s.connect(usize::MAX);
        if i % 2 == 0 {
            s.send(c, b"GET /org/Z/x HTTP/1.1\r\nhost: a");
        }
    }
    s.wake(0.05);
    assert!(s.net.m.accept(Peer::default(), s.now).is_err(), "the cap sheds");
    for _ in 0..45 {
        s.send(busy, b"GET /org/Z/x HTTP/1.1\r\n\r\n");
        s.wake(0.2);
    }
    assert!((1..MAX_CONNS).all(|c| s.open(c)), "nobody times out before 10 s");
    assert!(s.net.m.accept(Peer::default(), s.now).is_err());
    // Ticks past the timeout, measured from the accepts at t = 0.
    for _ in 0..5 {
        s.send(busy, b"GET /org/Z/x HTTP/1.1\r\n\r\n");
        s.wake(0.2);
    }
    assert!(s.now > 10.0);
    assert!((1..MAX_CONNS).all(|c| !s.open(c)), "slow heads hold no slot");
    assert!(s.open(busy), "a connection that answers stays");
    assert!(s.net.m.accept(Peer::default(), s.now).is_ok(), "the next accept is not shed");
}

/// One keep-alive connection pipelines a burst of requests in one write:
/// the shard answers every one in a single wake, which records the whole
/// batch. Replaces `pipelined_burst_batches_verdicts_per_wake` (loopback).
#[test]
fn a_pipelined_burst_is_one_wake_of_verdicts() {
    const BURST: usize = 200;
    let mut s = Script::new();
    let c = s.connect(usize::MAX);
    s.send(c, &b"GET /org/A/page HTTP/1.1\r\nhost: x\r\n\r\n".repeat(BURST));
    assert_eq!(s.wake(0.0), 1);
    assert_eq!(answers(&s.got(c)), BURST);
    let snap = s.net.stats.snapshot();
    assert_eq!((snap.reactor_wakes, snap.batched_verdicts), (1, BURST as u64));
    assert_eq!(snap.counters.admitted + snap.counters.deferred, BURST as u64);
}

/// What one request of a generated stream is.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// `/org/Z/…`: a verdict, always a self-redirect.
    Queued,
    /// `/org/<unknown>/…` or outside `/org/`: a 404.
    Unknown,
    /// A head with `Connection: close`: answered, then the connection ends.
    Close,
    /// A body: a 400, then the connection ends.
    Body,
}

/// One connection's request bytes and the answers it must get for them.
fn stream(requests: &[(u8, usize)]) -> (Vec<u8>, Vec<u8>, usize) {
    let (mut sent, mut want, mut longest) = (Vec::new(), Vec::new(), 0);
    for (i, &(kind, len)) in requests.iter().enumerate() {
        let last = i + 1 == requests.len();
        let kind = match kind % 8 {
            0..=4 => Kind::Queued,
            5 | 6 => Kind::Unknown,
            _ if last && len % 2 == 0 => Kind::Close,
            _ if last => Kind::Body,
            _ => Kind::Unknown,
        };
        let tail = "x".repeat(len);
        let (path, answer) = match kind {
            Kind::Queued | Kind::Close => {
                let path = format!("/org/Z/{tail}");
                let answer = redirect(THIS, &path);
                (path, answer)
            }
            Kind::Unknown if len % 2 == 0 => (format!("/org/Q/{tail}"), R404.to_vec()),
            Kind::Unknown => (format!("/{tail}"), R404.to_vec()),
            Kind::Body => (format!("/org/Z/{tail}"), R400.to_vec()),
        };
        let extra = match kind {
            Kind::Close => "connection: close\r\n",
            Kind::Body => "content-length: 5\r\n",
            _ => "",
        };
        sent.extend_from_slice(format!("GET {path} HTTP/1.1\r\nhost: h\r\n{extra}\r\n").as_bytes());
        longest = longest.max(answer.len());
        want.extend_from_slice(&answer);
    }
    (sent, want, longest)
}

/// The latest boundary due at `t` after `next`, the way the ticker's
/// contract states it: the largest `k·W ≤ t`, if it is not behind `next`.
fn due(t: f64, next: &mut u64) -> Option<f64> {
    let mut k = (t / W) as u64;
    if (k + 1) as f64 * W <= t {
        k += 1;
    }
    (k >= *next).then(|| {
        *next = k + 1;
        k as f64 * W
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random split and interleave schedules over several connections:
    /// each peer sends its pipelined stream in random pieces, reads its
    /// answers through a window that opens in random, smaller steps — so
    /// send queues reach the watermark — and may half-close at the end.
    /// Whatever the split, (1) every connection
    /// gets exactly the bytes a whole-stream run would, (2) memory stays
    /// bounded (checked after every `ready`), and (3) every window roll
    /// happens in the wake it is due in, before that wake's events.
    #[test]
    fn any_split_gets_the_same_answers(
        conns in proptest::collection::vec(
            (proptest::collection::vec((0u8..8, 0usize..600), 1..30), 1usize..120, any::<bool>()),
            1..4,
        ),
        schedule in proptest::collection::vec(
            (0.0..0.15f64, proptest::collection::vec((0usize..3, any::<bool>(), 1usize..200_000), 0..6)),
            1..50,
        ),
    ) {
        let mut s = Script::new();
        let mut streams = Vec::new();
        s.net.longest = 0;
        for (requests, reps, fin) in &conns {
            let (sent, want, longest) = stream(&requests.repeat(*reps));
            s.net.longest = s.net.longest.max(longest);
            s.connect(0);
            streams.push((sent, 0usize, want, *fin));
        }
        for (dt, actions) in &schedule {
            for &(c, send, n) in actions {
                let Some((sent, at, ..)) = streams.get_mut(c) else { continue };
                if send {
                    let end = (*at + n).min(sent.len());
                    s.peer(c).unread.extend_from_slice(&sent[*at..end]);
                    *at = end;
                } else {
                    s.peer(c).window += n / 16;
                }
            }
            s.wake(*dt);
        }
        for (c, (sent, at, _, fin)) in streams.iter().enumerate() {
            let mut p = s.peer(c);
            p.unread.extend_from_slice(&sent[*at..]);
            p.window = usize::MAX;
            p.fin = *fin;
        }
        s.settle();

        for (c, (sent, _, want, fin)) in streams.iter().enumerate() {
            prop_assert_eq!(answers(&s.got(c)), answers(want), "connection {}", c);
            prop_assert!(s.got(c) == *want, "connection {}: answers differ", c);
            let ends = *fin || want.ends_with(R400) || sent.ends_with(b"connection: close\r\n\r\n");
            prop_assert_eq!(s.open(c), !ends, "connection {}", c);
        }

        let mut next = 1;
        for (w, &t) in s.wakes.iter().enumerate() {
            let calls: Vec<&Call> = s.net.log.iter().filter(|(at, _)| *at == w).map(|(_, c)| c).collect();
            let rolls: Vec<&Call> = calls.iter().copied().filter(|c| matches!(c, Call::Roll(_))).collect();
            match due(t, &mut next) {
                Some(b) => {
                    let roll = Call::Roll(b);
                    prop_assert_eq!(rolls, vec![&roll], "wake {} at {}", w, t);
                    prop_assert_eq!(calls[0], &Call::Roll(b), "wake {}: the roll comes first", w);
                }
                None => prop_assert!(rolls.is_empty(), "wake {} at {} rolled early", w, t),
            }
            // A wake with events or a roll ends once, last; an idle one not at all.
            let ends = calls.iter().filter(|c| ***c == Call::End).count();
            let busy = calls.len() > ends;
            prop_assert_eq!(ends, usize::from(busy), "wake {}", w);
            prop_assert!(!busy || calls.last() == Some(&&Call::End), "wake {}", w);
        }
    }
}
