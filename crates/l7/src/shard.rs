//! The L7 shard driver: [`ShardedL7`] runs N [`Shards`], each owning one
//! `SO_REUSEPORT` listener and one [`L7Machine`], whose [`ShardCore`] takes
//! no lock; shards meet only in the [`Coordinator`] tree, at window
//! boundaries. The driver does what needs a socket: accept, epoll, RST.

use crate::machine::{L7Config, L7Machine};
use covenant_agreements::AccessLevels;
use covenant_coord::{Coordinator, ShardCore};
use covenant_enforce::{ShardSnapshot, ShardStats};
use covenant_reactor::{
    accept_ready, reuseport_listener, set_rst_on_close, Epoll, Event, Interest, Shard, Shards,
};
use covenant_sched::SchedulerConfig;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

/// Epoll token of the shard's `SO_REUSEPORT` listener.
const TOKEN_LISTEN: u64 = 1;
/// Connection tokens are machine ids offset past the fixed tokens.
const TOKEN_CONN_BASE: u64 = 2;

/// What one shard thread owns; only its stats and the tree are shared.
struct L7Shard {
    listener: TcpListener,
    machine: L7Machine<TcpStream>,
    stats: Arc<ShardStats>,
}

impl Shard for L7Shard {
    fn roll(&mut self, _: &Epoll, boundary: f64) {
        self.machine.roll(boundary);
    }

    fn event(&mut self, epoll: &Epoll, ev: Event, now: f64) {
        let Some(id) = ev.token.checked_sub(TOKEN_CONN_BASE) else {
            // Past the cap, RST at once: the client retries rather than queue.
            return accept_ready(&self.listener, |s, _| match self.machine.accept(s, now) {
                Ok(id) => {
                    let token = id as u64 + TOKEN_CONN_BASE;
                    self.machine.register(id, |s| epoll.add(s, token, Interest::READ));
                }
                Err(stream) => {
                    let _ = set_rst_on_close(&stream);
                    self.stats.record_shed();
                }
            });
        };
        let id = id as usize;
        if ev.error {
            return self.machine.close(id);
        }
        if let Some(want) = self.machine.ready(id, ev.readable || ev.closed, now) {
            self.machine.register(id, |s| epoll.modify(s, ev.token, want));
        }
    }

    fn end_wake(&mut self) {
        self.machine.end_wake(&self.stats);
    }
}

/// A running sharded L7 redirector: N reactor threads behind one
/// `SO_REUSEPORT` address, enforcing one agreement graph through the
/// shared coordination tree (shard *i* publishes as tree node *i* — the
/// coordinator's topology must have at least `shards` nodes).
pub struct ShardedL7 {
    addr: SocketAddr,
    stats: Vec<Arc<ShardStats>>,
    shards: Shards,
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
        let requested: SocketAddr =
            bind.parse().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        // Shard 0 resolves port 0; the rest must share the concrete port.
        let first = reuseport_listener(requested)?;
        let addr = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..shards {
            listeners.push(reuseport_listener(addr)?);
        }
        let mut stats = Vec::new();
        let (window, coord) = (sched.window_secs, coordinator.clone());
        let clock = move || coord.now();
        let shards = Shards::spawn("l7-shard-", window, clock, listeners, |i, listener, epoll| {
            epoll.add(&listener, TOKEN_LISTEN, Interest::READ)?;
            let core = ShardCore::new(base_node + i, levels, sched.clone(), coordinator.clone());
            let machine = L7Machine::new(core, &cfg, addr)?;
            let shard = L7Shard { listener, machine, stats: Arc::new(ShardStats::new()) };
            stats.push(Arc::clone(&shard.stats));
            Ok(shard)
        })?;
        Ok(ShardedL7 { addr, stats, shards })
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
        self.shard_snapshots().iter().map(|s| s.shed).sum()
    }

    /// Signals every shard and joins their threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shards.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_agreements::{AgreementGraph, PrincipalId};
    use covenant_http::{HttpClient, StatusCode};
    use covenant_tree::Topology;
    use std::collections::HashMap;
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
        assert_eq!(l7.shed(), 0, "nothing reached the connection cap");
    }
}
