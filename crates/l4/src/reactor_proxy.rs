//! Thread-per-core L4 proxy on the readiness reactor.
//!
//! [`ShardedL4`] runs N reactor shards. Each shard owns `SO_REUSEPORT`
//! listeners for every fronted service, an epoll instance, a lock-free
//! [`ShardCore`] for admission, a private affinity map, and a private
//! parking lot — one thread carries thousands of concurrent relays as
//! nonblocking state machines.
//!
//! Admission is charged at accept time to the service's principal,
//! deferred connections park FIFO up to `park_limit` (shed with RST beyond
//! it), and parked connections reinject through the shared
//! [`reinject_fifo`] loop right after each window roll, inside the shard's
//! own event loop.

use covenant_agreements::{AccessLevels, PrincipalId};
use covenant_coord::{Coordinator, ShardCore};
use covenant_enforce::{reinject_fifo, ShardSnapshot, ShardStats};
use covenant_reactor::{
    connect_nonblocking, reuseport_listener, set_rst_on_close, Epoll, Event, Interest, Io,
    SendBuf, Slab, WakeFd, WakeHandle, WindowTicker,
};
use covenant_sched::SchedulerConfig;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Epoll token of the shard's wake eventfd.
const TOKEN_WAKE: u64 = 0;
/// Service listener tokens start here (one per fronted service).
const TOKEN_SVC_BASE: u64 = 1;

/// Relay buffer high-watermark per direction: past this the shard stops
/// reading from the faster side until the slower side drains.
const HIGH_WATER: usize = 64 * 1024;
/// Per-shard cap on live relays; accepts beyond it are shed with RST.
const MAX_RELAYS: usize = 2048;
/// Per-shard cap on remembered client IPs. Affinity is best-effort ("to
/// the extent allowed by the agreements", §4.2), so at the cap the map is
/// dropped and clients re-pin on their next connection.
const MAX_AFFINITY: usize = 16 * 1024;

/// One fronted service: connections to this listener are charged to
/// `principal`.
#[derive(Debug, Clone)]
pub struct L4Service {
    /// The principal whose agreements fund this service's traffic.
    pub principal: PrincipalId,
    /// Bind address for the service's virtual IP/port (use port 0 for an
    /// ephemeral port).
    pub bind: String,
}

/// Static configuration of one L4 redirector.
#[derive(Debug, Clone)]
pub struct L4Config {
    /// Fronted services (one listener per principal).
    pub services: Vec<L4Service>,
    /// Backend server address per server index (principal id of owner).
    pub backends: HashMap<usize, SocketAddr>,
    /// Maximum parked connections per principal (the kernel queue bound);
    /// connections beyond it are refused (RST analogue).
    pub park_limit: usize,
}

/// Records `ip → server`, dropping the whole map first when it has
/// reached [`MAX_AFFINITY`] distinct clients.
fn pin_affinity(affinity: &mut HashMap<IpAddr, usize>, ip: IpAddr, server: usize) {
    if affinity.len() >= MAX_AFFINITY && !affinity.contains_key(&ip) {
        affinity.clear();
    }
    affinity.insert(ip, server);
}

/// One admitted connection being relayed: a client/backend socket pair
/// and the pending bytes in each direction.
struct Relay {
    client: TcpStream,
    backend: TcpStream,
    /// Bytes read from the client, pending toward the backend.
    c2b: SendBuf,
    /// Bytes read from the backend, pending toward the client.
    b2c: SendBuf,
    /// Nonblocking connect still in flight (completion = writability).
    connecting: bool,
    client_eof: bool,
    backend_eof: bool,
    /// `shutdown(Write)` already propagated to that side.
    client_shut: bool,
    backend_shut: bool,
    client_interest: Interest,
    backend_interest: Interest,
}

/// Pump outcome for one relay.
enum Pump {
    Alive,
    /// Both directions finished cleanly.
    Done,
    /// I/O error or failed connect: tear down silently (client sees RST
    /// or EOF).
    Dead,
}

/// Moves whatever bytes are movable through one relay. Pure function of
/// the pair — no shard state, so it borrows only the slab entry.
fn pump(relay: &mut Relay) -> Pump {
    // Client → backend: read while there is room, flush once connected.
    while !relay.client_eof {
        match relay.c2b.read_from(&mut relay.client, HIGH_WATER) {
            Ok(Io::Progress(_)) => {}
            Ok(Io::WouldBlock) => break,
            Ok(Io::Eof) => relay.client_eof = true,
            Err(_) => return Pump::Dead,
        }
    }
    if !relay.connecting {
        if !relay.c2b.is_empty() && relay.c2b.flush_into(&mut relay.backend).is_err() {
            return Pump::Dead;
        }
        if relay.client_eof && relay.c2b.is_empty() && !relay.backend_shut {
            let _ = relay.backend.shutdown(Shutdown::Write);
            relay.backend_shut = true;
        }
        // Backend → client, mirrored.
        while !relay.backend_eof {
            match relay.b2c.read_from(&mut relay.backend, HIGH_WATER) {
                Ok(Io::Progress(_)) => {}
                Ok(Io::WouldBlock) => break,
                Ok(Io::Eof) => relay.backend_eof = true,
                Err(_) => return Pump::Dead,
            }
        }
        if !relay.b2c.is_empty() && relay.b2c.flush_into(&mut relay.client).is_err() {
            return Pump::Dead;
        }
        if relay.backend_eof && relay.b2c.is_empty() && !relay.client_shut {
            let _ = relay.client.shutdown(Shutdown::Write);
            relay.client_shut = true;
        }
    }
    if relay.client_eof && relay.backend_eof && relay.c2b.is_empty() && relay.b2c.is_empty() {
        Pump::Done
    } else {
        Pump::Alive
    }
}

/// Everything one L4 shard thread owns exclusively.
struct ShardRuntime {
    epoll: Epoll,
    wake: WakeFd,
    /// One reuseport listener per fronted service, with its principal.
    services: Vec<(TcpListener, PrincipalId)>,
    conns: Slab<Relay>,
    core: ShardCore,
    stats: Arc<ShardStats>,
    stop: Arc<AtomicBool>,
    backends: HashMap<usize, SocketAddr>,
    /// Client-IP → server affinity, shard-private (a client that hops
    /// shards may re-pin; allocations still bound it).
    affinity: HashMap<IpAddr, usize>,
    /// Parked client connections per principal, FIFO, shard-private.
    parked: Vec<VecDeque<(TcpStream, SocketAddr)>>,
    /// Per-principal parked counts, refilled at each roll (the backlog
    /// hint; reused so a window tick allocates nothing).
    backlog: Vec<f64>,
    park_limit: usize,
    refused: Arc<AtomicU64>,
    spliced: Arc<AtomicU64>,
    /// First connection token: `TOKEN_SVC_BASE + services.len()`; relay
    /// `key` side `s` maps to `conn_base + 2·key + s`.
    conn_base: u64,
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
            let now = self.core.coordinator().now();
            let mut verdicts = 0u64;
            let ticked = match ticker.due(now) {
                Some(boundary) => {
                    // Publish the parked backlog with the roll, then give
                    // fresh credit to the FIFO head.
                    self.backlog.clear();
                    self.backlog.extend(self.parked.iter().map(|q| q.len() as f64));
                    self.core.roll_window_at(Some(&self.backlog), boundary);
                    self.drain_parked(boundary, &mut verdicts);
                    true
                }
                None => false,
            };
            for i in 0..events.len() {
                let Some(ev) = events.get(i).copied() else {
                    break;
                };
                match ev.token {
                    TOKEN_WAKE => self.wake.drain(),
                    t if t < self.conn_base => {
                        let svc = (t - TOKEN_SVC_BASE) as usize;
                        self.accept_ready(svc, now, &mut verdicts);
                    }
                    t => {
                        let rel = t - self.conn_base;
                        self.relay_ready((rel / 2) as usize, rel % 2 == 1, ev);
                    }
                }
            }
            if !events.is_empty() || ticked {
                self.stats.record_wake(verdicts);
                self.stats.store_counters(&self.core.counters());
            }
        }
    }

    /// Drains the accept backlog of service `svc`, charging each
    /// connection to the service's principal at `now`.
    fn accept_ready(&mut self, svc: usize, now: f64, verdicts: &mut u64) {
        loop {
            let Some((listener, principal)) = self.services.get(svc) else { return };
            let principal = *principal;
            match listener.accept() {
                Ok((stream, peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let preferred = self.affinity.get(&peer.ip()).copied();
                    *verdicts += 1;
                    match self.core.try_admit_at(principal, preferred, now) {
                        Some(server) => self.begin_relay(stream, peer, server),
                        None => self.park(principal, stream, peer),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break, // WouldBlock: backlog drained.
            }
        }
    }

    /// Parks a deferred connection FIFO, shedding with RST past the
    /// per-principal limit (the kernel-queue-bound analogue).
    fn park(&mut self, principal: PrincipalId, stream: TcpStream, peer: SocketAddr) {
        match self.parked.get_mut(principal.0) {
            Some(q) if q.len() < self.park_limit => q.push_back((stream, peer)),
            _ => {
                let _ = set_rst_on_close(&stream);
                self.refused.fetch_add(1, Ordering::Relaxed);
                self.stats.record_shed();
            }
        }
    }

    /// The shared FIFO reinjection loop, fed by this shard's private
    /// parking lot: per principal, drain while the fresh window's credit
    /// readmits, stop at the first defer.
    fn drain_parked(&mut self, now: f64, verdicts: &mut u64) {
        let n = self.parked.len();
        let mut admitted: Vec<(TcpStream, SocketAddr, usize)> = Vec::new();
        let core = &mut self.core;
        let affinity = &self.affinity;
        let counted = &mut *verdicts;
        reinject_fifo(
            n,
            &mut self.parked,
            |i, (_, peer): &(TcpStream, SocketAddr)| {
                let preferred = affinity.get(&peer.ip()).copied();
                *counted += 1;
                core.readmit_at(PrincipalId(i), preferred, now)
            },
            |(stream, peer), server| admitted.push((stream, peer, server)),
        );
        for (stream, peer, server) in admitted {
            self.begin_relay(stream, peer, server);
        }
    }

    /// Starts the nonblocking backend connect and registers the pair.
    fn begin_relay(&mut self, client: TcpStream, peer: SocketAddr, server: usize) {
        let Some(&backend_addr) = self.backends.get(&server) else {
            return; // no such backend: drop the connection
        };
        if self.conns.len() >= MAX_RELAYS {
            let _ = set_rst_on_close(&client);
            self.refused.fetch_add(1, Ordering::Relaxed);
            self.stats.record_shed();
            return;
        }
        pin_affinity(&mut self.affinity, peer.ip(), server);
        let Ok(backend) = connect_nonblocking(backend_addr) else {
            return;
        };
        let _ = backend.set_nodelay(true);
        let key = self.conns.insert(Relay {
            client,
            backend,
            c2b: SendBuf::new(),
            b2c: SendBuf::new(),
            connecting: true,
            client_eof: false,
            backend_eof: false,
            client_shut: false,
            backend_shut: false,
            client_interest: Interest::READ,
            backend_interest: Interest::WRITE,
        });
        let base = self.conn_base + 2 * key as u64;
        let registered = match self.conns.get(key) {
            Some(r) => {
                self.epoll.add(&r.client, base, Interest::READ).is_ok()
                    && self.epoll.add(&r.backend, base + 1, Interest::WRITE).is_ok()
            }
            None => false,
        };
        if !registered {
            self.teardown(key);
        }
    }

    fn relay_ready(&mut self, key: usize, backend_side: bool, ev: Event) {
        let outcome = match self.conns.get_mut(key) {
            None => return,
            Some(relay) => {
                if ev.error && !(backend_side && relay.connecting) {
                    Pump::Dead
                } else {
                    if backend_side && relay.connecting && (ev.writable || ev.error || ev.closed)
                    {
                        // SO_ERROR tells connect success from refusal.
                        match covenant_reactor::take_socket_error(&relay.backend) {
                            Ok(None) => relay.connecting = false,
                            _ => {
                                self.teardown(key);
                                return;
                            }
                        }
                    }
                    pump(relay)
                }
            }
        };
        match outcome {
            Pump::Alive => self.update_interest(key),
            Pump::Done => {
                self.spliced.fetch_add(1, Ordering::Relaxed);
                self.teardown(key);
            }
            Pump::Dead => self.teardown(key),
        }
    }

    /// Reconciles both sides' epoll interest with buffer state.
    fn update_interest(&mut self, key: usize) {
        let base = self.conn_base + 2 * key as u64;
        let mut broken = false;
        if let Some(r) = self.conns.get_mut(key) {
            let mut want_c = Interest::NONE;
            if !r.client_eof && r.c2b.len() < HIGH_WATER {
                want_c = want_c | Interest::READ;
            }
            if !r.b2c.is_empty() {
                want_c = want_c | Interest::WRITE;
            }
            let want_b = if r.connecting {
                Interest::WRITE
            } else {
                let mut w = Interest::NONE;
                if !r.backend_eof && r.b2c.len() < HIGH_WATER {
                    w = w | Interest::READ;
                }
                if !r.c2b.is_empty() {
                    w = w | Interest::WRITE;
                }
                w
            };
            if want_c != r.client_interest {
                if self.epoll.modify(&r.client, base, want_c).is_ok() {
                    r.client_interest = want_c;
                } else {
                    broken = true;
                }
            }
            if want_b != r.backend_interest {
                if self.epoll.modify(&r.backend, base + 1, want_b).is_ok() {
                    r.backend_interest = want_b;
                } else {
                    broken = true;
                }
            }
        }
        if broken {
            self.teardown(key);
        }
    }

    fn teardown(&mut self, key: usize) {
        if let Some(relay) = self.conns.remove(key) {
            let _ = self.epoll.remove(&relay.client);
            let _ = self.epoll.remove(&relay.backend);
        }
    }
}

/// A running sharded Layer-4 redirector: N reactor threads, each fronting
/// every service through its own `SO_REUSEPORT` listener, enforcing one
/// agreement graph through the shared coordination tree (shard *i*
/// publishes as tree node *i*).
pub struct ShardedL4 {
    stop: Arc<AtomicBool>,
    wakes: Vec<WakeHandle>,
    handles: Vec<JoinHandle<()>>,
    stats: Vec<Arc<ShardStats>>,
    refused: Arc<AtomicU64>,
    spliced: Arc<AtomicU64>,
    service_addrs: Vec<(PrincipalId, SocketAddr)>,
}

impl ShardedL4 {
    /// Binds `shards` reuseport listener sets and starts one reactor
    /// thread per shard. Window rolls and parked reinjection run inside
    /// each shard's event loop (no daemon thread).
    pub fn start(
        cfg: L4Config,
        shards: usize,
        levels: &AccessLevels,
        sched: SchedulerConfig,
        coordinator: Coordinator,
    ) -> io::Result<ShardedL4> {
        ShardedL4::start_at(cfg, shards, levels, sched, coordinator, 0)
    }

    /// Like [`Self::start`], but shard *i* publishes as tree node
    /// `base_node + i` — multiple proxy instances (or cluster processes)
    /// can share one coordination tree without colliding on leaf ids.
    /// `InvalidInput` when the tree has fewer than `base_node + shards`
    /// nodes.
    pub fn start_at(
        cfg: L4Config,
        shards: usize,
        levels: &AccessLevels,
        sched: SchedulerConfig,
        coordinator: Coordinator,
        base_node: usize,
    ) -> io::Result<ShardedL4> {
        let shards = shards.max(1);
        // A shard past the tree would publish into nothing and read `None`
        // for ever: the half-mandatory fallback, silently.
        let nodes = coordinator.nodes();
        if base_node + shards > nodes {
            let msg = format!("{shards} shards from tree node {base_node}: the tree has {nodes} nodes");
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        }
        let n_principals = cfg
            .services
            .iter()
            .map(|s| s.principal.0 + 1)
            .chain(cfg.backends.keys().map(|&k| k + 1))
            .max()
            .unwrap_or(1);

        // Shard 0 resolves every port-0 bind; later shards share the
        // concrete ports.
        let mut service_addrs: Vec<(PrincipalId, SocketAddr)> = Vec::new();
        let mut per_shard: Vec<Vec<(TcpListener, PrincipalId)>> = Vec::new();
        for shard in 0..shards {
            let mut listeners = Vec::new();
            for (i, svc) in cfg.services.iter().enumerate() {
                let addr: SocketAddr = match service_addrs.get(i) {
                    Some(&(_, resolved)) => resolved,
                    None => svc
                        .bind
                        .parse()
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?,
                };
                let listener = reuseport_listener(addr)?;
                if shard == 0 {
                    service_addrs.push((svc.principal, listener.local_addr()?));
                }
                listeners.push((listener, svc.principal));
            }
            per_shard.push(listeners);
        }

        let stop = Arc::new(AtomicBool::new(false));
        let refused = Arc::new(AtomicU64::new(0));
        let spliced = Arc::new(AtomicU64::new(0));
        let mut wakes = Vec::new();
        let mut stats = Vec::new();
        let mut handles = Vec::new();
        let spawn_result: io::Result<()> = (|| {
            for (node, services) in per_shard.into_iter().enumerate() {
                let epoll = Epoll::new()?;
                let (wake, handle) = WakeFd::new()?;
                epoll.add(&wake, TOKEN_WAKE, Interest::READ)?;
                for (i, (listener, _)) in services.iter().enumerate() {
                    epoll.add(listener, TOKEN_SVC_BASE + i as u64, Interest::READ)?;
                }
                let conn_base = TOKEN_SVC_BASE + services.len() as u64;
                let shard_stats = Arc::new(ShardStats::new());
                let runtime = ShardRuntime {
                    epoll,
                    wake,
                    services,
                    conns: Slab::new(),
                    core: ShardCore::new(base_node + node, levels, sched.clone(), coordinator.clone()),
                    stats: Arc::clone(&shard_stats),
                    stop: Arc::clone(&stop),
                    backends: cfg.backends.clone(),
                    affinity: HashMap::new(),
                    parked: (0..n_principals).map(|_| VecDeque::new()).collect(),
                    backlog: Vec::with_capacity(n_principals),
                    park_limit: cfg.park_limit,
                    refused: Arc::clone(&refused),
                    spliced: Arc::clone(&spliced),
                    conn_base,
                };
                let joiner = std::thread::Builder::new()
                    .name(format!("l4-shard-{node}"))
                    .spawn(move || runtime.run())?;
                wakes.push(handle);
                stats.push(shard_stats);
                handles.push(joiner);
            }
            Ok(())
        })();
        let mut this =
            ShardedL4 { stop, wakes, handles, stats, refused, spliced, service_addrs };
        if let Err(e) = spawn_result {
            this.shutdown();
            return Err(e);
        }
        Ok(this)
    }

    /// The bound address fronting `principal`, if configured.
    pub fn service_addr(&self, principal: PrincipalId) -> Option<SocketAddr> {
        self.service_addrs
            .iter()
            .find(|(p, _)| *p == principal)
            .map(|(_, a)| *a)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.stats.len()
    }

    /// Connections relayed end-to-end cleanly, across all shards.
    pub fn spliced(&self) -> u64 {
        self.spliced.load(Ordering::Relaxed)
    }

    /// Connections shed with RST (park overflow or relay cap).
    pub fn refused(&self) -> u64 {
        self.refused.load(Ordering::Relaxed)
    }

    /// Point-in-time per-shard snapshots, ordered by shard index.
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.stats.iter().map(|s| s.snapshot()).collect()
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

impl Drop for ShardedL4 {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_agreements::AgreementGraph;
    use covenant_http::{HttpClient, OriginServer, StatusCode};
    use covenant_tree::Topology;
    use std::time::{Duration, Instant};

    /// Origin 200/s shared [0.25,1] (A) / [0.75,1] (B).
    fn system() -> (AgreementGraph, PrincipalId, PrincipalId) {
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 200.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.25, 1.0).unwrap();
        g.add_agreement(s, b, 0.75, 1.0).unwrap();
        (g, a, b)
    }

    /// A shard needs a tree node of its own: two shards on a one-node tree
    /// are refused, not left on the half-mandatory fallback for ever.
    #[test]
    fn start_rejects_more_shards_than_tree_nodes() {
        let (g, a, _b) = system();
        let err = ShardedL4::start(
            L4Config {
                services: vec![L4Service { principal: a, bind: "127.0.0.1:0".into() }],
                backends: HashMap::new(),
                park_limit: 16,
            },
            2,
            &g.access_levels(),
            SchedulerConfig::community_default(),
            Coordinator::new(Topology::star(1, 0.0), 0.0),
        )
        .err()
        .map(|e| e.kind());
        assert_eq!(err, Some(io::ErrorKind::InvalidInput));
    }

    #[test]
    fn sharded_l4_proxies_http_transparently() {
        let (g, a, _b) = system();
        let origin =
            OriginServer::bind("127.0.0.1:0", 1000.0, 128, Duration::from_secs(2)).unwrap();
        let proxy = ShardedL4::start(
            L4Config {
                services: vec![L4Service { principal: a, bind: "127.0.0.1:0".into() }],
                backends: [(0, origin.addr())].into(),
                park_limit: 1024,
            },
            2,
            &g.access_levels(),
            SchedulerConfig::community_default(),
            Coordinator::new(Topology::star(2, 0.0), 0.0),
        )
        .unwrap();
        let addr = proxy.service_addr(a).unwrap();

        // First requests may park until the estimator primes; retry.
        let client = HttpClient::new();
        let deadline = Instant::now() + Duration::from_secs(3);
        let mut ok = false;
        while Instant::now() < deadline {
            if let Ok(r) = client.get(&format!("http://{addr}/page")) {
                assert_eq!(r.response.status, StatusCode::OK);
                assert_eq!(r.response.body.len(), 128);
                assert_eq!(r.redirects, 0, "L4 path must not redirect");
                ok = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(ok, "no request ever completed through the sharded L4 proxy");
        let deadline = Instant::now() + Duration::from_secs(1);
        while proxy.spliced() < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(proxy.spliced() >= 1);
    }

    #[test]
    fn sharded_l4_enforces_shares_end_to_end() {
        let (g, a, b) = system();
        let origin =
            OriginServer::bind("127.0.0.1:0", 1000.0, 64, Duration::from_secs(2)).unwrap();
        let proxy = ShardedL4::start(
            L4Config {
                services: vec![
                    L4Service { principal: a, bind: "127.0.0.1:0".into() },
                    L4Service { principal: b, bind: "127.0.0.1:0".into() },
                ],
                backends: [(0, origin.addr())].into(),
                park_limit: 8,
            },
            2,
            &g.access_levels(),
            SchedulerConfig::community_default(),
            Coordinator::new(Topology::star(2, 0.0), 0.0),
        )
        .unwrap();

        const THREADS_PER_PRINCIPAL: usize = 8;
        let deadline = Instant::now() + Duration::from_secs(3);
        let mut joiners = Vec::new();
        for principal in [a, b] {
            let addr = proxy.service_addr(principal).unwrap();
            for _ in 0..THREADS_PER_PRINCIPAL {
                joiners.push(std::thread::spawn(move || {
                    let client =
                        HttpClient { timeout: Duration::from_millis(400), ..HttpClient::new() };
                    let mut completed = 0u64;
                    while Instant::now() < deadline {
                        if let Ok(r) = client.get(&format!("http://{addr}/x")) {
                            if r.response.status == StatusCode::OK {
                                completed += 1;
                            }
                        }
                    }
                    completed
                }));
            }
        }
        let results: Vec<u64> = joiners.into_iter().map(|h| h.join().unwrap()).collect();
        let got_a: u64 = results[..THREADS_PER_PRINCIPAL].iter().sum();
        let got_b: u64 = results[THREADS_PER_PRINCIPAL..].iter().sum();
        let ratio = got_b as f64 / got_a.max(1) as f64;
        assert!(
            (1.8..=5.0).contains(&ratio),
            "B/A completion ratio {ratio:.2} (A={got_a}, B={got_b})"
        );
        let total = got_a + got_b;
        assert!(total <= 850, "completed {total} > capacity budget");
        assert!(total >= 250, "completed only {total}");
        // Telemetry: every shard handled traffic and recorded verdicts.
        let snaps = proxy.shard_snapshots();
        assert!(snaps.iter().all(|s| s.batched_verdicts > 0), "{snaps:?}");
    }

    #[test]
    fn affinity_pins_client_to_one_backend() {
        // Two origin servers both entitled to serve A's requests: a single
        // client (one source IP) must stick to whichever backend it was
        // first assigned, as long as allocations allow (§4.2's SSL-session
        // consideration).
        let mut g = AgreementGraph::new();
        let s1 = g.add_principal("S1", 100.0);
        let s2 = g.add_principal("S2", 100.0);
        let a = g.add_principal("A", 0.0);
        g.add_agreement(s1, a, 0.5, 1.0).unwrap();
        g.add_agreement(s2, a, 0.5, 1.0).unwrap();

        let o1 = OriginServer::bind("127.0.0.1:0", 1000.0, 16, Duration::from_secs(1)).unwrap();
        let o2 = OriginServer::bind("127.0.0.1:0", 1000.0, 16, Duration::from_secs(1)).unwrap();
        let proxy = ShardedL4::start(
            L4Config {
                services: vec![L4Service { principal: a, bind: "127.0.0.1:0".into() }],
                backends: [(0, o1.addr()), (1, o2.addr())].into(),
                park_limit: 256,
            },
            1,
            &g.access_levels(),
            SchedulerConfig::community_default(),
            Coordinator::new(Topology::star(1, 0.0), 0.0),
        )
        .unwrap();
        let addr = proxy.service_addr(a).unwrap();

        let client = HttpClient { timeout: Duration::from_millis(500), ..HttpClient::new() };
        let deadline = Instant::now() + Duration::from_secs(3);
        let mut completed = 0;
        while completed < 40 && Instant::now() < deadline {
            if let Ok(r) = client.get(&format!("http://{addr}/x")) {
                if r.response.status == StatusCode::OK {
                    completed += 1;
                }
            }
        }
        assert!(completed >= 40, "only {completed} completed");
        let (s1_served, s2_served) = (o1.served(), o2.served());
        let max = s1_served.max(s2_served);
        let min = s1_served.min(s2_served);
        assert!(
            max >= 38 && min <= 2,
            "affinity not sticky: backend split {s1_served}/{s2_served}"
        );
    }

    #[test]
    fn affinity_map_is_bounded() {
        use std::net::Ipv4Addr;
        let ip = |i: usize| IpAddr::V4(Ipv4Addr::from(i as u32));
        let mut affinity = HashMap::new();
        for i in 0..MAX_AFFINITY {
            pin_affinity(&mut affinity, ip(i), 0);
        }
        // At the cap a known client re-pins in place…
        pin_affinity(&mut affinity, ip(3), 1);
        assert_eq!((affinity.len(), affinity[&ip(3)]), (MAX_AFFINITY, 1));
        // …and a new one drops the map instead of growing it.
        pin_affinity(&mut affinity, ip(MAX_AFFINITY), 0);
        assert_eq!(affinity.len(), 1);
        assert_eq!(affinity.get(&ip(MAX_AFFINITY)), Some(&0));
    }

    #[test]
    fn park_limit_sheds_overflow_per_shard() {
        // Zero-entitlement principal: every connection parks; beyond the
        // limit they are shed with RST.
        let mut g = AgreementGraph::new();
        let _s = g.add_principal("S", 100.0);
        let a = g.add_principal("A", 0.0); // no agreement → zero quota
        let proxy = ShardedL4::start(
            L4Config {
                services: vec![L4Service { principal: a, bind: "127.0.0.1:0".into() }],
                backends: HashMap::new(),
                park_limit: 2,
            },
            1,
            &g.access_levels(),
            SchedulerConfig::community_default(),
            Coordinator::new(Topology::star(1, 0.0), 0.0),
        )
        .unwrap();
        let addr = proxy.service_addr(a).unwrap();
        let mut conns = Vec::new();
        for _ in 0..6 {
            conns.push(std::net::TcpStream::connect(addr).unwrap());
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while proxy.refused() < 4 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(proxy.refused() >= 4, "refused {}", proxy.refused());
    }
}
