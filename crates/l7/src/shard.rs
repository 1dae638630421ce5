//! Thread-per-core L7 redirector on the readiness reactor.
//!
//! [`ShardedL7`] runs N shards, each a single thread owning one
//! `SO_REUSEPORT` listener, one epoll instance, and one [`ShardCore`] — the
//! enforcement state machine with no mutex, because nothing else can touch
//! it. The kernel spreads connections across shards; admission verdicts for
//! every connection harvested from one readiness wake run back-to-back
//! through the shard's core (batched, zero locks, zero allocation on the
//! hot path once buffers warm up). Shards meet only inside the shared
//! [`Coordinator`] tree, at window boundaries, exactly like the paper's
//! distributed redirectors.
//!
//! The HTTP surface is `/org/<name>/…` parsed zero-copy, `302` to a
//! backend when admitted, `302` to self (implicit queuing) when deferred,
//! `404` for unknown principals, `400` and close for a request with a body
//! or a head it cannot frame; the transport is keep-alive HTTP/1.1 with
//! pipelining, which is what lets a wake carry hundreds of verdicts.

use covenant_agreements::{AccessLevels, PrincipalId};
use covenant_coord::{Coordinator, ShardCore};
use covenant_enforce::{ShardSnapshot, ShardStats};
use covenant_http::scan_request_head;
use covenant_reactor::{
    reuseport_listener, set_rst_on_close, Epoll, Event, Interest, Io, RecvBuf, SendBuf, Slab,
    WakeFd, WakeHandle, WindowTicker,
};
use covenant_sched::SchedulerConfig;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Epoll token of the shard's wake eventfd.
const TOKEN_WAKE: u64 = 0;
/// Epoll token of the shard's `SO_REUSEPORT` listener.
const TOKEN_LISTEN: u64 = 1;
/// Connection tokens are slab keys offset past the fixed tokens.
const TOKEN_CONN_BASE: u64 = 2;

/// Per-connection receive cap: a request head must fit or the connection
/// is answered `400` and closed.
const RECV_LIMIT: usize = 64 * 1024;
/// Send backlog high-watermark: past this the shard stops *reading* from
/// the connection (pipelining backpressure) until a flush drains it.
const HIGH_WATER: usize = 256 * 1024;
/// Per-shard connection cap; accepts beyond it are shed with RST.
const MAX_CONNS: usize = 4096;

/// Canned non-redirect responses (keep-alive unless the request asked to
/// close; `400` always closes because framing is no longer trustworthy).
const RESP_404: &[u8] = b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n";
const RESP_503: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n";
const RESP_400: &[u8] = b"HTTP/1.1 400 Bad Request\r\ncontent-length: 0\r\nconnection: close\r\n\r\n";
/// What follows the echoed request target in a `302`.
const REDIRECT_TAIL: &[u8] = b"\r\ncontent-length: 0\r\n\r\n";

/// Static configuration of one L7 redirector instance.
#[derive(Debug, Clone)]
pub struct L7Config {
    /// Principal names by id — requests for `/org/<name>/…` are charged to
    /// the principal with that name.
    pub principal_names: Vec<String>,
    /// Backend server address per server index (principal id of the
    /// owner). Servers without capacity need no entry.
    pub backends: HashMap<usize, SocketAddr>,
}

/// Principal ids by name: the names as bytes, sorted, so a request's
/// `/org/<name>/…` resolves by binary search straight off the receive
/// buffer.
#[derive(Clone)]
struct NameTable(Vec<(Box<[u8]>, usize)>);

impl NameTable {
    /// Rejects names no request can carry as exactly one path segment
    /// (empty, or containing `/`) and names that occur twice.
    fn new(names: &[String]) -> io::Result<NameTable> {
        let mut table: Vec<(Box<[u8]>, usize)> =
            names.iter().enumerate().map(|(id, name)| (name.as_bytes().into(), id)).collect();
        table.sort();
        let bad = table.iter().any(|(name, _)| name.is_empty() || name.contains(&b'/'))
            || table.windows(2).any(|pair| matches!(pair, [a, b] if a.0 == b.0));
        if bad {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "principal names must be distinct, non-empty and free of '/'",
            ));
        }
        Ok(NameTable(table))
    }

    /// The principal an `/org/<name>/…` path is charged to.
    fn principal_of(&self, path: &[u8]) -> Option<usize> {
        let name = path.strip_prefix(b"/org/")?.split(|&b| b == b'/').next()?;
        let at = self.0.binary_search_by(|(known, _)| (**known).cmp(name)).ok()?;
        self.0.get(at).map(|&(_, id)| id)
    }
}

/// One accepted connection's state machine.
struct L7Conn {
    stream: TcpStream,
    recv: RecvBuf,
    send: SendBuf,
    /// Resume cursor for the incremental `\r\n\r\n` scan.
    scan: usize,
    /// Interest currently registered with epoll.
    interest: Interest,
    /// Stop parsing; tear down once the send queue drains.
    close_after_flush: bool,
    /// Peer half-closed; flush what is pending, then tear down.
    read_closed: bool,
}

/// Everything one shard thread owns. No locks anywhere: the only shared
/// state is the stats block (written here, read elsewhere), the shed
/// counter, the stop flag, and the coordination tree inside `core`.
struct ShardRuntime {
    epoll: Epoll,
    wake: WakeFd,
    listener: TcpListener,
    conns: Slab<L7Conn>,
    core: ShardCore,
    stats: Arc<ShardStats>,
    shed: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    names: NameTable,
    /// `302` response prefix (through `location: http://<addr>`) by
    /// backend server index; the request target and [`REDIRECT_TAIL`]
    /// complete the response without formatting machinery.
    backend_prefix: Vec<Option<Box<[u8]>>>,
    /// `302` prefix redirecting to this instance (implicit queuing).
    self_prefix: Box<[u8]>,
}

impl ShardRuntime {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut ticker = WindowTicker::new(self.core.window_secs());
        loop {
            let timeout = ticker.poll_timeout_ms(self.core.coordinator().now());
            if self.epoll.wait(&mut events, timeout).is_err() {
                break;
            }
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            // One clock sample serves the whole wake: every verdict in the
            // batch carries the same arrival time, same as a simulator
            // event batch at one virtual instant.
            let now = self.core.coordinator().now();
            let ticked = match ticker.due(now) {
                Some(boundary) => {
                    // Read-before-publish inside: one window stale, the
                    // same staleness the simulator models.
                    self.core.roll_window_at(None, boundary);
                    true
                }
                None => false,
            };
            let mut verdicts = 0u64;
            for i in 0..events.len() {
                let Some(ev) = events.get(i).copied() else {
                    break;
                };
                match ev.token {
                    TOKEN_WAKE => self.wake.drain(),
                    TOKEN_LISTEN => self.accept_ready(),
                    token => {
                        let Some(key) = token.checked_sub(TOKEN_CONN_BASE) else {
                            continue;
                        };
                        self.conn_ready(key as usize, ev, now, &mut verdicts);
                    }
                }
            }
            if !events.is_empty() || ticked {
                self.stats.record_wake(verdicts);
                self.stats.store_counters(&self.core.counters());
            }
        }
    }

    /// Drains the accept backlog. Past `MAX_CONNS` the connection is shed
    /// with RST immediately — a closed-loop client retries against
    /// another shard rather than queue-building here.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns.len() >= MAX_CONNS {
                        let _ = set_rst_on_close(&stream);
                        self.shed.fetch_add(1, Ordering::Relaxed);
                        self.stats.record_shed();
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let key = self.conns.insert(L7Conn {
                        stream,
                        recv: RecvBuf::with_capacity_limit(RECV_LIMIT),
                        send: SendBuf::new(),
                        scan: 0,
                        interest: Interest::READ,
                        close_after_flush: false,
                        read_closed: false,
                    });
                    let registered = match self.conns.get(key) {
                        Some(c) => self
                            .epoll
                            .add(&c.stream, key as u64 + TOKEN_CONN_BASE, Interest::READ)
                            .is_ok(),
                        None => false,
                    };
                    if !registered {
                        self.conns.remove(key);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break, // WouldBlock: backlog drained.
            }
        }
    }

    fn conn_ready(&mut self, key: usize, ev: Event, now: f64, verdicts: &mut u64) {
        if ev.error {
            self.teardown(key);
            return;
        }
        let Some(conn) = self.conns.get_mut(key) else { return };
        if (ev.readable || ev.closed) && !(conn.close_after_flush || conn.read_closed) {
            match conn.recv.drain_from(&mut conn.stream) {
                Ok(Io::Eof) => conn.read_closed = true,
                Ok(Io::Progress(_) | Io::WouldBlock) => {}
                Err(_) => {
                    self.teardown(key);
                    return;
                }
            }
        }
        // Answer, flush — and answer again whenever the flush takes a
        // connection that stopped at the watermark back under it: its
        // remaining requests are already buffered, so no readable event
        // will come for them.
        while self.process_requests(key, now, verdicts) && self.flush_and_update(key) {}
    }

    /// Parses and answers every complete pipelined request currently
    /// buffered — the per-wake verdict batch — into the send queue, up to
    /// the high-watermark (pipelining backpressure). False when the
    /// connection is gone.
    fn process_requests(&mut self, key: usize, now: f64, verdicts: &mut u64) -> bool {
        let Some(conn) = self.conns.get_mut(key) else { return false };
        // A `302` echoes its request's target, so a batch's responses are
        // about as long as its requests: grow once, not once per doubling.
        conn.send.reserve(conn.recv.len());
        while !conn.close_after_flush && conn.send.len() < HIGH_WATER {
            let data = conn.recv.data();
            let (head, end) = match scan_request_head(data, conn.scan) {
                Ok(Some((head, end))) if !head.has_body() => (head, end),
                Ok(None) if !conn.recv.is_full() => {
                    conn.scan = data.len();
                    break;
                }
                // A head that fills the buffer unterminated, a body (outside
                // the redirector's protocol), a parse failure: framing is
                // no longer trustworthy.
                _ => {
                    conn.send.push(RESP_400);
                    conn.close_after_flush = true;
                    break;
                }
            };
            let path = head.path.as_bytes();
            let prefix = match self.names.principal_of(path) {
                None => Err(RESP_404),
                Some(p) => {
                    *verdicts += 1;
                    match self.core.try_admit_at(PrincipalId(p), None, now) {
                        Some(server) => match self.backend_prefix.get(server) {
                            Some(Some(prefix)) => Ok(&**prefix),
                            _ => Err(RESP_503),
                        },
                        None => Ok(&*self.self_prefix),
                    }
                }
            };
            match prefix {
                Ok(prefix) => {
                    conn.send.push(prefix);
                    conn.send.push(path);
                    conn.send.push(REDIRECT_TAIL);
                }
                Err(canned) => conn.send.push(canned),
            }
            conn.close_after_flush = head.close;
            conn.recv.consume(end);
            conn.scan = 0;
        }
        true
    }

    /// Flushes opportunistically, then reconciles epoll interest with the
    /// connection's state; tears down once a closing connection drains.
    /// True when the connection lives on with requests it has not answered
    /// for want of room in the send queue, and now has that room.
    fn flush_and_update(&mut self, key: usize) -> bool {
        let Some(conn) = self.conns.get_mut(key) else { return false };
        let was_paused = conn.send.len() >= HIGH_WATER;
        let mut gone = !conn.send.is_empty() && conn.send.flush_into(&mut conn.stream).is_err();
        let drained = conn.send.is_empty();
        let paused = conn.send.len() >= HIGH_WATER;
        let closing = conn.close_after_flush || conn.read_closed;
        let resume = was_paused && !paused;
        gone |= closing && drained && !resume;
        if !gone {
            let mut want = Interest::NONE;
            if !(closing || paused) {
                want = want | Interest::READ;
            }
            if !drained {
                want = want | Interest::WRITE;
            }
            if want != conn.interest {
                if self.epoll.modify(&conn.stream, key as u64 + TOKEN_CONN_BASE, want).is_ok() {
                    conn.interest = want;
                } else {
                    gone = true;
                }
            }
        }
        if gone {
            self.teardown(key);
        }
        !gone && resume
    }

    fn teardown(&mut self, key: usize) {
        if let Some(conn) = self.conns.remove(key) {
            let _ = self.epoll.remove(&conn.stream);
        }
    }
}

/// A running sharded L7 redirector: N reactor threads behind one
/// `SO_REUSEPORT` address, enforcing one agreement graph through the
/// shared coordination tree (shard *i* publishes as tree node *i* — the
/// coordinator's topology must have at least `shards` nodes).
pub struct ShardedL7 {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wakes: Vec<WakeHandle>,
    handles: Vec<JoinHandle<()>>,
    stats: Vec<Arc<ShardStats>>,
    shed: Arc<AtomicU64>,
}

impl ShardedL7 {
    /// Binds `shards` reuseport listeners on `bind` and starts one
    /// reactor thread per shard. Window rolls are driven inside each
    /// shard's event loop (no daemon thread).
    pub fn start(
        bind: &str,
        cfg: L7Config,
        shards: usize,
        levels: &AccessLevels,
        sched: SchedulerConfig,
        coordinator: Coordinator,
    ) -> io::Result<ShardedL7> {
        ShardedL7::start_at(bind, cfg, shards, levels, sched, coordinator, 0)
    }

    /// Like [`Self::start`], but shard *i* publishes as tree node
    /// `base_node + i` — multiple redirector instances (or cluster
    /// processes) can share one coordination tree without colliding on
    /// leaf ids. `InvalidInput` when the tree has fewer than
    /// `base_node + shards` nodes.
    #[allow(clippy::too_many_arguments)]
    pub fn start_at(
        bind: &str,
        cfg: L7Config,
        shards: usize,
        levels: &AccessLevels,
        sched: SchedulerConfig,
        coordinator: Coordinator,
        base_node: usize,
    ) -> io::Result<ShardedL7> {
        let shards = shards.max(1);
        // A shard past the tree would publish into nothing and read `None`
        // for ever: the half-mandatory fallback, silently.
        let nodes = coordinator.nodes();
        if base_node + shards > nodes {
            let msg = format!("{shards} shards from tree node {base_node}: the tree has {nodes} nodes");
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        }
        let names = NameTable::new(&cfg.principal_names)?;
        let requested: SocketAddr = bind
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        // Shard 0 resolves port 0; the rest must share the concrete port.
        let first = reuseport_listener(requested)?;
        let addr = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..shards {
            listeners.push(reuseport_listener(addr)?);
        }

        // Servers are principal ids, so an entry past the community can
        // never be admitted to.
        let redirect_to = |to: &SocketAddr| -> Box<[u8]> {
            format!("HTTP/1.1 302 Found\r\nlocation: http://{to}").into_bytes().into()
        };
        let mut backend_prefix: Vec<Option<Box<[u8]>>> = vec![None; levels.len()];
        for (&server, backend) in &cfg.backends {
            if let Some(slot) = backend_prefix.get_mut(server) {
                *slot = Some(redirect_to(backend));
            }
        }
        let self_prefix = redirect_to(&addr);

        let stop = Arc::new(AtomicBool::new(false));
        let shed = Arc::new(AtomicU64::new(0));
        let mut wakes = Vec::new();
        let mut stats = Vec::new();
        let mut handles = Vec::new();
        let spawn_result: io::Result<()> = (|| {
            for (node, listener) in listeners.into_iter().enumerate() {
                let epoll = Epoll::new()?;
                let (wake, handle) = WakeFd::new()?;
                epoll.add(&wake, TOKEN_WAKE, Interest::READ)?;
                epoll.add(&listener, TOKEN_LISTEN, Interest::READ)?;
                let shard_stats = Arc::new(ShardStats::new());
                let runtime = ShardRuntime {
                    epoll,
                    wake,
                    listener,
                    conns: Slab::new(),
                    core: ShardCore::new(base_node + node, levels, sched.clone(), coordinator.clone()),
                    stats: Arc::clone(&shard_stats),
                    shed: Arc::clone(&shed),
                    stop: Arc::clone(&stop),
                    names: names.clone(),
                    backend_prefix: backend_prefix.clone(),
                    self_prefix: self_prefix.clone(),
                };
                let joiner = std::thread::Builder::new()
                    .name(format!("l7-shard-{node}"))
                    .spawn(move || runtime.run())?;
                wakes.push(handle);
                stats.push(shard_stats);
                handles.push(joiner);
            }
            Ok(())
        })();
        let mut this = ShardedL7 { addr, stop, wakes, handles, stats, shed };
        if let Err(e) = spawn_result {
            this.shutdown();
            return Err(e);
        }
        Ok(this)
    }

    /// The shared bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.stats.len()
    }

    /// Point-in-time per-shard snapshots (counters plus wake/batch
    /// telemetry), ordered by shard index — feed these to
    /// `covenant_enforce::CountersReport::sharded`.
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.stats.iter().map(|s| s.snapshot()).collect()
    }

    /// Connections shed with RST at the per-shard cap.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Signals every shard and joins their threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        for w in &self.wakes {
            w.wake();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ShardedL7 {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_agreements::AgreementGraph;
    use covenant_http::{HttpClient, StatusCode};
    use covenant_tree::Topology;
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    fn shared_origin_levels(capacity: f64, share_a: f64, share_b: f64) -> AccessLevels {
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", capacity);
        let _a = g.add_principal("A", 0.0);
        let _b = g.add_principal("B", 0.0);
        g.add_agreement(s, PrincipalId(1), share_a, 1.0).unwrap();
        g.add_agreement(s, PrincipalId(2), share_b, 1.0).unwrap();
        g.access_levels()
    }

    fn cfg(backend: SocketAddr) -> L7Config {
        L7Config {
            principal_names: vec!["S".into(), "A".into(), "B".into()],
            backends: [(0, backend)].into(),
        }
    }

    #[test]
    fn name_table_resolves_org_paths() {
        let names: Vec<String> = ["S", "B", "A", "AB"].map(String::from).into();
        let table = NameTable::new(&names).unwrap();
        assert_eq!(table.principal_of(b"/org/A/page.html"), Some(2));
        assert_eq!(table.principal_of(b"/org/B/x/y"), Some(1));
        assert_eq!(table.principal_of(b"/org/AB/"), Some(3));
        assert_eq!(table.principal_of(b"/org/A"), Some(2));
        assert_eq!(table.principal_of(b"/org/C/x"), None);
        assert_eq!(table.principal_of(b"/org//x"), None);
        assert_eq!(table.principal_of(b"/org/\xff/x"), None);
        assert_eq!(table.principal_of(b"/other"), None);
    }

    /// Names a request can never select, or that two principals share,
    /// are a configuration error, not a silent last-one-wins.
    #[test]
    fn start_rejects_unusable_principal_names() {
        let levels = shared_origin_levels(100.0, 0.5, 0.5);
        for names in [["S", "A", "A"], ["S", "", "B"], ["S", "A/x", "B"]] {
            let err = ShardedL7::start(
                "127.0.0.1:0",
                L7Config {
                    principal_names: names.map(String::from).into(),
                    backends: HashMap::new(),
                },
                1,
                &levels,
                SchedulerConfig::community_default(),
                Coordinator::new(Topology::star(1, 0.0), 0.0),
            )
            .err()
            .map(|e| e.kind());
            assert_eq!(err, Some(io::ErrorKind::InvalidInput), "{names:?}");
        }
    }

    /// A shard needs a tree node of its own: two shards on a one-node tree
    /// are refused, not left on the half-mandatory fallback for ever.
    #[test]
    fn start_rejects_more_shards_than_tree_nodes() {
        let err = ShardedL7::start(
            "127.0.0.1:0",
            cfg("127.0.0.1:9".parse().unwrap()),
            2,
            &shared_origin_levels(100.0, 0.5, 0.5),
            SchedulerConfig::community_default(),
            Coordinator::new(Topology::star(1, 0.0), 0.0),
        )
        .err()
        .map(|e| e.kind());
        assert_eq!(err, Some(io::ErrorKind::InvalidInput));
    }

    /// End-to-end enforcement against two reactor shards: each
    /// `get_no_follow` is a fresh connection, so the kernel spreads
    /// the two flooding principals across both shards, and the aggregate
    /// admission ratio must still honor the 3:1 agreement.
    #[test]
    fn sharded_l7_enforces_shares_end_to_end() {
        let levels = shared_origin_levels(200.0, 0.25, 0.75);
        let coordinator = Coordinator::new(Topology::star(2, 0.0), 0.0);
        let backend: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let l7 = ShardedL7::start(
            "127.0.0.1:0",
            cfg(backend),
            2,
            &levels,
            SchedulerConfig::community_default(),
            coordinator,
        )
        .unwrap();
        let raddr = l7.addr();

        let deadline = Instant::now() + Duration::from_secs(3);
        let mut joiners = Vec::new();
        for name in ["A", "B"] {
            joiners.push(std::thread::spawn(move || {
                let client = HttpClient::new();
                let url = format!("http://{raddr}/org/{name}/page");
                let backend_str = backend.to_string();
                let mut admitted = 0u64;
                while Instant::now() < deadline {
                    if let Ok(resp) = client.get_no_follow(&url) {
                        if resp.status == StatusCode::FOUND {
                            let loc = resp.header_value("location").unwrap_or("");
                            if loc.contains(&backend_str) {
                                admitted += 1;
                            }
                        }
                    }
                }
                admitted
            }));
        }
        let got_a = joiners.remove(0).join().unwrap();
        let got_b = joiners.remove(0).join().unwrap();
        let ratio = got_b as f64 / got_a.max(1) as f64;
        assert!(
            (2.0..=4.5).contains(&ratio),
            "B/A admitted ratio {ratio:.2} (A={got_a}, B={got_b})"
        );
        let total = got_a + got_b;
        assert!(total <= 850, "admitted {total} > capacity budget");
        assert!(total >= 300, "admitted only {total}; scheduler stuck?");

        // Both shards saw traffic and counters aggregate coherently. Stats
        // land at the *end* of a wake, after the responses those verdicts
        // produced have already flushed — so poll briefly for the final
        // store instead of racing it.
        let stats_deadline = Instant::now() + Duration::from_secs(2);
        let snaps = loop {
            let snaps = l7.shard_snapshots();
            let admitted: u64 = snaps.iter().map(|s| s.counters.admitted).sum();
            if admitted >= total || Instant::now() >= stats_deadline {
                break snaps;
            }
            std::thread::yield_now();
        };
        assert_eq!(snaps.len(), 2);
        let verdicts: u64 = snaps.iter().map(|s| s.batched_verdicts).sum();
        let admitted: u64 = snaps.iter().map(|s| s.counters.admitted).sum();
        assert!(verdicts >= total, "verdicts {verdicts} < admissions {total}");
        assert!(admitted >= total, "counter admitted {admitted} < observed {total}");
        assert!(
            snaps.iter().all(|s| s.batched_verdicts > 0),
            "a shard saw no traffic: {snaps:?}"
        );
    }

    /// One keep-alive connection pipelines a burst of requests in a single
    /// write; the shard must answer every one (302 either way — backend or
    /// self-redirect) while coalescing the batch into far fewer wakes than
    /// verdicts. This is the mechanism behind the throughput headline.
    #[test]
    fn pipelined_burst_batches_verdicts_per_wake() {
        let levels = shared_origin_levels(1000.0, 0.5, 0.5);
        let coordinator = Coordinator::new(Topology::star(1, 0.0), 0.0);
        let backend: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let l7 = ShardedL7::start(
            "127.0.0.1:0",
            cfg(backend),
            1,
            &levels,
            SchedulerConfig::community_default(),
            coordinator,
        )
        .unwrap();

        const BURST: usize = 200;
        let mut sock = TcpStream::connect(l7.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let one = b"GET /org/A/page HTTP/1.1\r\nhost: x\r\n\r\n";
        let mut burst = Vec::new();
        for _ in 0..BURST {
            burst.extend_from_slice(one);
        }
        sock.write_all(&burst).unwrap();

        // Count response terminators (every response is header-only).
        let mut terminators = 0usize;
        let mut carry: Vec<u8> = Vec::new();
        let mut buf = [0u8; 16 * 1024];
        let mut total = Vec::new();
        while terminators < BURST {
            let n = sock.read(&mut buf).unwrap();
            assert!(n > 0, "server closed early after {terminators} responses");
            carry.extend_from_slice(&buf[..n]);
            total.extend_from_slice(&buf[..n]);
            terminators += carry.windows(4).filter(|w| w == b"\r\n\r\n").count();
            let keep = carry.len().min(3);
            carry = carry[carry.len() - keep..].to_vec();
        }
        assert_eq!(terminators, BURST);
        let text = String::from_utf8_lossy(&total);
        assert!(text.contains("HTTP/1.1 302 Found"), "no 302 in burst: {text}");
        assert!(!text.contains("404"), "unexpected 404: {text}");

        // Stats are stored at the end of the wake, after responses have
        // already flushed — poll briefly for the final store.
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut snap = l7.shard_snapshots().remove(0);
        while snap.batched_verdicts < BURST as u64 && Instant::now() < deadline {
            std::thread::yield_now();
            snap = l7.shard_snapshots().remove(0);
        }
        assert_eq!(snap.batched_verdicts, BURST as u64);
        assert!(
            snap.reactor_wakes <= BURST as u64 / 2,
            "no batching: {} wakes for {BURST} verdicts",
            snap.reactor_wakes
        );
    }

    /// A peer that pipelines until the shard stops answering — responses
    /// past what the socket buffers and the send watermark hold — and only
    /// then starts to read. The shard stopped with complete requests in its
    /// receive buffer and nothing left in the kernel's, so no readable
    /// event will come for them: the flush that makes room has to resume
    /// them.
    #[test]
    fn requests_buffered_at_the_watermark_are_answered_after_the_flush() {
        let levels = shared_origin_levels(1000.0, 0.5, 0.5);
        let l7 = ShardedL7::start(
            "127.0.0.1:0",
            cfg("127.0.0.1:9".parse().unwrap()),
            1,
            &levels,
            SchedulerConfig::community_default(),
            Coordinator::new(Topology::star(1, 0.0), 0.0),
        )
        .unwrap();
        let mut sock = TcpStream::connect(l7.addr()).unwrap();
        // A fixed, small receive buffer: what the kernel holds for a peer
        // that does not read is then the shard's send buffer and little more.
        covenant_reactor::set_recv_buffer(&sock, 64 * 1024).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

        // Batches the shard takes in with one drain of the socket (32 KB,
        // under its receive cap), each sent once the last is fully answered:
        // when the answers stop short, the rest of the batch sits in the
        // shard's buffer and the kernel's is empty.
        let batch = b"GET /org/A/ HTTP/1.1\r\n\r\n".repeat(1365);
        let answered = || l7.shard_snapshots().iter().map(|s| s.batched_verdicts).sum::<u64>();
        let mut sent = 0u64;
        loop {
            assert!(sent < 1_000_000, "80 MB of answers and the watermark never held");
            sock.write_all(&batch).unwrap();
            sent += 1365;
            let mut seen = (answered(), Instant::now());
            while seen.0 < sent && seen.1.elapsed() < Duration::from_millis(300) {
                std::thread::sleep(Duration::from_millis(1));
                let now = answered();
                if now != seen.0 {
                    seen = (now, Instant::now());
                }
            }
            if seen.0 < sent {
                break;
            }
        }

        let mut answers = 0u64;
        let mut carry: Vec<u8> = Vec::new();
        let mut buf = [0u8; 64 * 1024];
        while answers < sent {
            let n = match sock.read(&mut buf) {
                Ok(n) => n,
                Err(e) => panic!("stalled after {answers} of {sent} answers: {e}"),
            };
            assert!(n > 0, "server closed after {answers} answers");
            carry.extend_from_slice(&buf[..n]);
            let mut at = 0;
            while let Some(end) = covenant_http::header_block_end(&carry[at..], 0) {
                assert!(carry[at..].starts_with(b"HTTP/1.1 302 Found\r\n"), "not a 302");
                at += end;
                answers += 1;
            }
            carry.drain(..at);
        }
        assert!(carry.is_empty(), "bytes after the last answer: {carry:?}");
        // Nothing more may come: one answer per request, exactly.
        sock.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        assert!(sock.read(&mut buf).is_err(), "an answer too many");
    }

    /// Framing violations (a body however declared) answer 400 and
    /// close; unknown principals answer 404 but keep the connection alive;
    /// a known principal with zero entitlement is implicitly queued — a
    /// `302` back to the redirector's own address.
    #[test]
    fn protocol_errors_and_unknown_principals() {
        let mut g = AgreementGraph::new();
        let _s = g.add_principal("S", 100.0);
        let _a = g.add_principal("A", 0.0); // no agreement: zero entitlement
        let l7 = ShardedL7::start(
            "127.0.0.1:0",
            L7Config { principal_names: vec!["S".into(), "A".into()], backends: HashMap::new() },
            1,
            &g.access_levels(),
            SchedulerConfig::community_default(),
            Coordinator::new(Topology::star(1, 0.0), 0.0),
        )
        .unwrap();

        // 404 twice on one keep-alive connection.
        let mut sock = TcpStream::connect(l7.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for _ in 0..2 {
            sock.write_all(b"GET /other HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
            let mut buf = [0u8; 1024];
            let n = sock.read(&mut buf).unwrap();
            assert!(buf[..n].starts_with(b"HTTP/1.1 404"), "{:?}", &buf[..n]);
        }

        // Zero quota self-redirects, even after windows have rolled.
        std::thread::sleep(Duration::from_millis(250));
        let resp = HttpClient::new()
            .get_no_follow(&format!("http://{}/org/A/x", l7.addr()))
            .unwrap();
        assert_eq!(resp.status, StatusCode::FOUND);
        let loc = resp.header_value("location").unwrap();
        assert_eq!(loc, format!("http://{}/org/A/x", l7.addr()), "must self-redirect");

        // A request with a body — declared by length, by `Transfer-Encoding`
        // (whose chunks must not be taken for the next pipelined request),
        // or by two lengths that disagree — is rejected and the connection
        // closed.
        for bad in [
            &b"POST /org/A/x HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc"[..],
            b"POST /org/A/x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              1c\r\nGET /org/A/y HTTP/1.1\r\n\r\n\r\n0\r\n\r\n",
            b"GET /org/A/x HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 28\r\n\r\n",
        ] {
            let mut sock = TcpStream::connect(l7.addr()).unwrap();
            sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            sock.write_all(bad).unwrap();
            let mut resp = Vec::new();
            sock.read_to_end(&mut resp).unwrap(); // EOF proves the close.
            assert!(resp.starts_with(b"HTTP/1.1 400"), "{resp:?}");
            assert_eq!(resp.windows(4).filter(|w| w == b"\r\n\r\n").count(), 1, "{resp:?}");
        }
    }
}
