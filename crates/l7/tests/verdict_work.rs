//! Work on the L7 verdict path, counted exactly: heap allocations per wake
//! and per verdict, and the receive and send buffers against plain-`Vec`
//! models.
//!
//! A counting global allocator (per thread, so the test harness's own
//! threads do not leak in; `crates/coord/tests/tick_work.rs` counts the
//! window tick the same way) counts what `L7Machine::ready` and
//! `L7Machine::end_wake` allocate. The machine reads an in-memory stream
//! of pipelined request heads (admits, self-redirects and `404`s) in
//! slices that split heads across reads and across wakes, with a window
//! roll between some wakes. After the first wake, which sizes the
//! connection's buffers, a wake allocates nothing, whatever its verdicts.

use covenant_agreements::AgreementGraph;
use covenant_coord::{Coordinator, ShardCore};
use covenant_enforce::ShardStats;
use covenant_l7::{L7Config, L7Machine};
use covenant_reactor::{Io, RecvBuf, SendBuf};
use covenant_sched::SchedulerConfig;
use covenant_tree::Topology;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::io::{self, Read, Write};
use std::rc::Rc;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
}

/// The system allocator, counting.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One in-memory socket: what the peer sent and the machine has not read,
/// and what the machine wrote. Both vectors are sized up front, so the
/// socket's own side of a wake allocates nothing.
struct PeerState {
    unread: Vec<u8>,
    at: usize,
    got: Vec<u8>,
}

#[derive(Clone)]
struct Peer(Rc<RefCell<PeerState>>);

impl Read for Peer {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut p = self.0.borrow_mut();
        let PeerState { unread, at, .. } = &mut *p;
        let pending = unread.get(*at..).unwrap_or(&[]);
        if pending.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(pending.len());
        buf[..n].copy_from_slice(&pending[..n]);
        *at += n;
        Ok(n)
    }
}

impl Write for Peer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().got.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// S serves 1000/s, all of it A's; Z holds nothing, so each of its
/// requests is a self-redirect.
fn machine() -> L7Machine<Peer> {
    let mut g = AgreementGraph::new();
    let s = g.add_principal("S", 1000.0);
    let a = g.add_principal("A", 0.0);
    let _z = g.add_principal("Z", 0.0);
    g.add_agreement(s, a, 1.0, 1.0).unwrap();
    let coordinator = Coordinator::new(Topology::star(1, 0.0), 0.0);
    let core = ShardCore::new(0, &g.access_levels(), SchedulerConfig::community_default(), coordinator);
    let cfg = L7Config {
        principal_names: vec!["S".into(), "A".into(), "Z".into()],
        backends: [(0, "10.0.0.1:80".parse().unwrap())].into(),
    };
    L7Machine::new(core, &cfg, "127.0.0.1:8080".parse().unwrap()).unwrap()
}

/// Pipelined heads: admits and self-redirects of several path lengths, a
/// `404`, one with a header.
fn stream(requests: usize) -> Vec<u8> {
    let heads: [&[u8]; 5] = [
        b"GET /org/A/index.html HTTP/1.1\r\n\r\n",
        b"GET /org/Z/x HTTP/1.1\r\nhost: shard\r\n\r\n",
        b"GET /org/A/a/much/longer/path/to/a/page.html HTTP/1.1\r\n\r\n",
        b"GET /elsewhere HTTP/1.1\r\n\r\n",
        b"GET /org/Z/ HTTP/1.1\r\n\r\n",
    ];
    heads.iter().cycle().take(requests).flat_map(|h| h.iter().copied()).collect()
}

/// Wakes that each deliver `slice` bytes of the pipelined stream, the
/// first `first` bytes (more than any later wake answers, so that it sizes
/// the buffers), so heads split across reads and wakes: after the first,
/// no wake allocates, and every wake gives verdicts.
fn wakes_allocate_nothing(first: usize, slice: usize) {
    const WAKES: usize = 300;
    // Every head is at least 26 bytes long.
    let bytes = stream((first + WAKES * slice) / 26 + 1);
    let peer = Peer(Rc::new(RefCell::new(PeerState {
        unread: Vec::with_capacity(first.max(slice) + 4096),
        at: 0,
        got: Vec::with_capacity(16 * first.max(slice)),
    })));
    let mut m = machine();
    let stats = ShardStats::new();
    let id = m.accept(peer.clone(), 0.0).ok().expect("below the cap");
    let mut sent = 0;
    let mut verdicts = 0;
    for wake in 0..=WAKES {
        let now = 0.001 * wake as f64;
        // A window roll between wakes, outside the count: its tree I/O
        // allocates by design (`tick_work.rs` pins it).
        if wake > 0 && wake % 100 == 0 {
            m.roll(now);
        }
        let take = if wake == 0 { first } else { slice };
        {
            let mut p = peer.0.borrow_mut();
            p.unread.clear();
            p.unread.extend_from_slice(&bytes[sent..sent + take]);
            p.at = 0;
            p.got.clear();
        }
        sent += take;
        let allocations = allocations_in(|| {
            let want = m.ready(id, true, now);
            assert_eq!(want, None, "a connection that keeps up keeps its interest");
            m.end_wake(&stats);
        });
        let answered = peer.0.borrow().got.windows(4).filter(|w| w == b"\r\n\r\n").count();
        assert!(answered > 0, "wake {wake} answered nothing");
        verdicts += answered;
        if wake > 0 {
            assert_eq!(allocations, 0, "wake {wake} ({answered} answers) allocated");
        }
    }
    let snap = stats.snapshot();
    assert_eq!(snap.reactor_wakes, WAKES as u64 + 1);
    assert!(snap.batched_verdicts > 0 && snap.batched_verdicts <= verdicts as u64);
    assert!(snap.counters.admitted > 0 && snap.counters.deferred > 0, "{snap:?}");
}

#[test]
fn a_warm_wake_allocates_nothing() {
    // A few heads a wake, split everywhere.
    wakes_allocate_nothing(4096, 241);
    // Batches near the read chunk (16 KiB), so the buffer's room runs
    // short behind a split head.
    wakes_allocate_nothing(32 * 1024, 16 * 1024 - 17);
}

/// A source handing out `sizes` bytes a read, cycling; a size of 0 is a
/// would-block. Logs what it handed out.
struct Dribble<'a> {
    bytes: &'a [u8],
    sizes: &'a [usize],
    turn: usize,
    given: Vec<u8>,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let size = self.sizes[self.turn % self.sizes.len()];
        self.turn += 1;
        if size == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = size.min(buf.len()).min(self.bytes.len());
        let (now, later) = self.bytes.split_at(n);
        buf[..n].copy_from_slice(now);
        self.given.extend_from_slice(now);
        self.bytes = later;
        Ok(n)
    }
}

/// A sink taking `sizes` bytes a write, cycling; 0 is a would-block.
struct Trickle<'a> {
    sizes: &'a [usize],
    turn: usize,
    got: Vec<u8>,
}

impl Write for Trickle<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let size = self.sizes[self.turn % self.sizes.len()];
        self.turn += 1;
        if size == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = size.min(buf.len());
        self.got.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 + i / 251) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drains of random read sizes and consumes of random lengths: the
    /// buffer holds exactly the bytes read and not yet consumed, never
    /// more than its cap.
    #[test]
    fn recv_buf_matches_a_vec(
        cap in 1usize..70_000,
        sizes in proptest::collection::vec(0usize..20_000, 1..8),
        ops in proptest::collection::vec((any::<bool>(), 0usize..24_000), 1..60),
    ) {
        let bytes = pattern(400_000);
        let mut src = Dribble { bytes: &bytes, sizes: &sizes, turn: 0, given: Vec::new() };
        let mut buf = RecvBuf::with_capacity_limit(cap);
        let mut consumed = 0;
        for (drain, n) in ops {
            if drain {
                let before = src.given.len();
                match buf.drain_from(&mut src).unwrap() {
                    Io::Progress(got) => prop_assert_eq!(got, src.given.len() - before),
                    Io::WouldBlock => prop_assert_eq!(src.given.len(), before),
                    Io::Eof => prop_assert!(src.bytes.is_empty()),
                }
            } else {
                let n = n.min(buf.len());
                buf.consume(n);
                consumed += n;
            }
            prop_assert_eq!(buf.data(), &src.given[consumed..]);
            prop_assert_eq!(buf.len(), src.given.len() - consumed);
            prop_assert!(buf.len() <= cap);
        }
    }

    /// Pushes, relayed reads and partial flushes: what leaves the queue is
    /// exactly what entered it, in order.
    #[test]
    fn send_buf_matches_a_vec(
        sizes in proptest::collection::vec(0usize..20_000, 1..8),
        writes in proptest::collection::vec(0usize..9_000, 1..8),
        ops in proptest::collection::vec((0u8..3, 0usize..30_000), 1..60),
    ) {
        let bytes = pattern(400_000);
        let mut src = Dribble { bytes: &bytes, sizes: &sizes, turn: 0, given: Vec::new() };
        let mut sink = Trickle { sizes: &writes, turn: 0, got: Vec::new() };
        let mut q = SendBuf::new();
        let mut entered: Vec<u8> = Vec::new();
        for (op, n) in ops {
            match op {
                0 => {
                    let chunk = pattern(n % 3_000 + 1);
                    q.push(&chunk);
                    entered.extend_from_slice(&chunk);
                }
                1 => {
                    let before = src.given.len();
                    let limit = n + 1;
                    let pending = q.len();
                    match q.read_from(&mut src, limit).unwrap() {
                        Io::Progress(got) => {
                            prop_assert!(pending + got <= limit);
                            entered.extend_from_slice(&src.given[before..]);
                        }
                        Io::WouldBlock | Io::Eof => prop_assert_eq!(src.given.len(), before),
                    }
                }
                _ => {
                    let drained = q.flush_into(&mut sink).unwrap();
                    prop_assert_eq!(drained == Io::WouldBlock, !q.is_empty());
                }
            }
            prop_assert_eq!(q.len(), entered.len() - sink.got.len());
            prop_assert_eq!(&sink.got[..], &entered[..sink.got.len()]);
        }
        sink.sizes = &[usize::MAX];
        prop_assert!(matches!(q.flush_into(&mut sink).unwrap(), Io::Progress(_)));
        prop_assert_eq!(sink.got, entered);
    }
}
