//! The L4 shard driver: [`ShardedL4`] runs N [`Shards`], each owning
//! `SO_REUSEPORT` listeners for every service, an [`L4Machine`] that decides
//! admission, and thousands of nonblocking byte relays for what it admits.

use crate::machine::{Admit, L4Machine};
use covenant_agreements::{AccessLevels, PrincipalId};
use covenant_coord::{Coordinator, ShardCore};
use covenant_enforce::{ShardSnapshot, ShardStats};
use covenant_reactor::{
    accept_ready, connect_nonblocking, reuseport_listener, set_rst_on_close, Epoll, Event, Interest,
    Io, SendBuf, Shard, Shards, Slab,
};
use covenant_sched::SchedulerConfig;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Service listener tokens start here (one per fronted service).
const TOKEN_SVC_BASE: u64 = 1;
/// Relay buffer high-watermark per direction: past it the faster side waits.
const HIGH_WATER: usize = 64 * 1024;
/// Per-shard cap on live relays; admits beyond it are shed with RST.
const MAX_RELAYS: usize = 2048;

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

/// One socket of a relay, with the bytes read from it not yet sent on.
struct Side {
    stream: TcpStream,
    inbox: SendBuf,
    /// Read EOF from this side.
    eof: bool,
    /// `shutdown(Write)` already passed on to this side.
    shut: bool,
    /// Interest currently registered with epoll.
    interest: Interest,
    /// A backend's nonblocking connect is still in flight.
    connecting: bool,
}

impl Side {
    /// Reads into the inbox while it has room and this side has bytes.
    fn fill(&mut self) -> io::Result<()> {
        while !self.eof {
            match self.inbox.read_from(&mut self.stream, HIGH_WATER)? {
                Io::Progress(_) => {}
                Io::WouldBlock => break,
                Io::Eof => self.eof = true,
            }
        }
        Ok(())
    }

    /// Sends `from`'s inbox here, then passes on `from`'s EOF once drained.
    fn forward(&mut self, from: &mut Side) -> io::Result<()> {
        if !from.inbox.is_empty() {
            from.inbox.flush_into(&mut self.stream)?;
        }
        if from.eof && from.inbox.is_empty() && !self.shut {
            let _ = self.stream.shutdown(Shutdown::Write);
            self.shut = true;
        }
        Ok(())
    }

    /// Registers reading while the inbox has room and writing while `to_send`
    /// has bytes (or the connect runs), if that changed; false when refused.
    fn register(&mut self, epoll: &Epoll, token: u64, to_send: &SendBuf) -> bool {
        let reading = !self.connecting && !self.eof && self.inbox.len() < HIGH_WATER;
        let want = Interest::of(reading, self.connecting || !to_send.is_empty());
        let ok = want == self.interest || epoll.modify(&self.stream, token, want).is_ok();
        self.interest = want;
        ok
    }
}

/// One admitted connection being relayed to its backend.
struct Relay {
    client: Side,
    backend: Side,
}

impl Relay {
    /// Moves what bytes it can; true once both directions finished cleanly.
    fn pump(&mut self) -> io::Result<bool> {
        let (c, b) = (&mut self.client, &mut self.backend);
        c.fill()?;
        if !b.connecting {
            b.forward(c)?;
            b.fill()?;
            c.forward(b)?;
        }
        Ok(c.eof && b.eof && c.inbox.is_empty() && b.inbox.is_empty())
    }
}

/// Everything one L4 shard thread owns exclusively.
struct L4Shard {
    /// One reuseport listener per fronted service, with its principal.
    services: Vec<(TcpListener, PrincipalId)>,
    machine: L4Machine<TcpStream>,
    /// Admitted this wake, with their servers; reused so nothing allocates.
    admitted: Vec<(TcpStream, usize)>,
    relays: Slab<Relay>,
    /// Relay `key`'s client token is `relay_base + 2·key`, its backend's next.
    relay_base: u64,
    backends: HashMap<usize, SocketAddr>,
    stats: Arc<ShardStats>,
    spliced: Arc<AtomicU64>,
}

impl Shard for L4Shard {
    fn roll(&mut self, epoll: &Epoll, boundary: f64) {
        self.machine.roll(boundary, &mut self.admitted);
        self.begin_relays(epoll);
    }

    fn event(&mut self, epoll: &Epoll, ev: Event, now: f64) {
        if ev.token >= self.relay_base {
            return self.relay_ready(epoll, ev);
        }
        let svc = ev.token.saturating_sub(TOKEN_SVC_BASE) as usize;
        let Some(&(ref listener, principal)) = self.services.get(svc) else { return };
        accept_ready(listener, |c, peer| match self.machine.accept(c, principal, peer.ip(), now) {
            Admit::Relay(c, server) => self.admitted.push((c, server)),
            Admit::Parked => {}
            Admit::Shed(c) => shed(&c, &self.stats),
        });
        self.begin_relays(epoll);
    }

    fn end_wake(&mut self) {
        self.machine.end_wake(&self.stats);
    }
}

/// Refuses a connection with RST (the kernel-queue-bound analogue).
fn shed(client: &TcpStream, stats: &ShardStats) {
    let _ = set_rst_on_close(client);
    stats.record_shed();
}

impl L4Shard {
    /// Starts each admitted connection's backend connect; registers the pair.
    fn begin_relays(&mut self, epoll: &Epoll) {
        for (client, server) in self.admitted.drain(..) {
            let Some(&addr) = self.backends.get(&server) else {
                continue; // no such backend: drop the connection
            };
            if self.relays.len() >= MAX_RELAYS {
                shed(&client, &self.stats);
                continue;
            }
            let Ok(backend) = connect_nonblocking(addr) else { continue };
            let _ = backend.set_nodelay(true);
            let side = |stream, connecting| {
                let interest = if connecting { Interest::WRITE } else { Interest::READ };
                Side { stream, inbox: SendBuf::new(), eof: false, shut: false, interest, connecting }
            };
            let relay = Relay { client: side(client, false), backend: side(backend, true) };
            let key = self.relays.insert(relay);
            let token = self.relay_base + 2 * key as u64;
            let registered = self.relays.get(key).is_some_and(|r| {
                epoll.add(&r.client.stream, token, r.client.interest).is_ok()
                    && epoll.add(&r.backend.stream, token + 1, r.backend.interest).is_ok()
            });
            if !registered {
                self.relays.remove(key);
            }
        }
    }

    /// Pumps a relay, then fits both sides' interest to its buffers; one
    /// that failed or finished is dropped, closing both sockets.
    fn relay_ready(&mut self, epoll: &Epoll, ev: Event) {
        let rel = ev.token - self.relay_base;
        let (key, token, backend_side) = ((rel / 2) as usize, ev.token - rel % 2, rel % 2 == 1);
        let Some(r) = self.relays.get_mut(key) else { return };
        // Epoll reports a finished connect as writable, a failed one as error.
        r.backend.connecting &= !backend_side;
        let alive = !ev.error && match r.pump() {
            Ok(true) => {
                self.spliced.fetch_add(1, Ordering::Relaxed);
                false
            }
            Ok(false) => {
                let (c, b) = (&mut r.client, &mut r.backend);
                c.register(epoll, token, &b.inbox) && b.register(epoll, token + 1, &c.inbox)
            }
            Err(_) => false,
        };
        if !alive {
            self.relays.remove(key);
        }
    }
}

/// A running sharded Layer-4 redirector: N reactor threads, each fronting
/// every service through its own `SO_REUSEPORT` listener, enforcing one
/// agreement graph through the shared coordination tree (shard *i*
/// publishes as tree node *i*).
pub struct ShardedL4 {
    stats: Vec<Arc<ShardStats>>,
    spliced: Arc<AtomicU64>,
    service_addrs: Vec<(PrincipalId, SocketAddr)>,
    shards: Shards,
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
        let ids = cfg.services.iter().map(|s| s.principal.0).chain(cfg.backends.keys().copied());
        let n_principals = ids.max().map_or(1, |id| id + 1);

        // Shard 0 resolves every port-0 bind; later shards share the ports.
        let mut service_addrs: Vec<(PrincipalId, SocketAddr)> = Vec::new();
        let mut first = Vec::new();
        for svc in &cfg.services {
            let bind = svc.bind.parse().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
            let listener = reuseport_listener(bind)?;
            service_addrs.push((svc.principal, listener.local_addr()?));
            first.push((listener, svc.principal));
        }
        let mut per_shard = vec![first];
        for _ in 1..shards {
            let bound = service_addrs.iter().map(|&(p, addr)| Ok((reuseport_listener(addr)?, p)));
            per_shard.push(bound.collect::<io::Result<_>>()?);
        }

        let spliced = Arc::new(AtomicU64::new(0));
        let mut stats = Vec::new();
        let (window, coord) = (sched.window_secs, coordinator.clone());
        let clock = move || coord.now();
        let shards = Shards::spawn("l4-shard-", window, clock, per_shard, |i, services, epoll| {
            for (j, (listener, _)) in services.iter().enumerate() {
                epoll.add(listener, TOKEN_SVC_BASE + j as u64, Interest::READ)?;
            }
            let core = ShardCore::new(base_node + i, levels, sched.clone(), coordinator.clone());
            let shard = L4Shard {
                relay_base: TOKEN_SVC_BASE + services.len() as u64,
                services,
                machine: L4Machine::new(core, n_principals, cfg.park_limit),
                admitted: Vec::new(),
                relays: Slab::new(),
                backends: cfg.backends.clone(),
                stats: Arc::new(ShardStats::new()),
                spliced: Arc::clone(&spliced),
            };
            stats.push(Arc::clone(&shard.stats));
            Ok(shard)
        })?;
        Ok(ShardedL4 { stats, spliced, service_addrs, shards })
    }

    /// The bound address fronting `principal`, if configured.
    pub fn service_addr(&self, principal: PrincipalId) -> Option<SocketAddr> {
        self.service_addrs.iter().find(|(p, _)| *p == principal).map(|&(_, addr)| addr)
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
        self.shard_snapshots().iter().map(|s| s.shed).sum()
    }

    /// Point-in-time per-shard snapshots, ordered by shard index.
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.stats.iter().map(|s| s.snapshot()).collect()
    }

    /// Signals every shard and joins their threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shards.shutdown();
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
        assert_eq!(proxy.refused(), 0, "nothing reached a park limit or the relay cap");
    }
}
