//! The per-node wire runtime: one epoll loop driving this process's
//! [`TreeNode`] over its tree edges.
//!
//! The round protocol — one `Up` and one `Down` per edge per round, rounds
//! forced on last-good values at the window boundary, restarted peers
//! rebased — is `covenant_tree::TreeNode`; this file only moves its
//! messages. Frames decoded from a socket become [`NodeCmd`]s, the node's
//! [`Effect`]s become frames on an [`Edge`] or a stamped total in the
//! transport's view, and connects, accepts and drops become the node's
//! connected/lost commands. The loop sleeps until a socket event, a
//! publish's wake, or the earlier of the node's deadline and the parent
//! reconnect backoff.

use crate::frame::{Frame, MAX_PAYLOAD};
use crate::stats::WireStats;
use crate::transport::{StampMode, WireTransport};
use covenant_reactor::{
    connect_nonblocking, take_socket_error, Epoll, Event, Interest, Io, RecvBuf, SendBuf, Slab,
    WakeFd,
};
use covenant_tree::{Effect, NodeCmd, RoundMsg, TreeNode};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const T_LISTEN: u64 = 0;
const T_WAKE: u64 = 1;
const T_EDGE_BASE: u64 = 2;

/// Receive cap per connection: a handful of frames at maximum width.
const RECV_LIMIT: usize = 4 * (MAX_PAYLOAD + 4);
/// Parent reconnect backoff, seconds.
const RECONNECT_DELAY: f64 = 0.010;

/// Configuration for one tree node's wire runtime.
#[derive(Debug, Clone)]
pub struct WireNodeConfig {
    /// This node's tree id.
    pub node: usize,
    /// Total tree size (for `CoordTransport::nodes`).
    pub nodes: usize,
    /// The parent's listen address; `None` for the root.
    pub parent: Option<SocketAddr>,
    /// Direct children's node ids.
    pub children: Vec<usize>,
    /// Tree generation carried in every frame.
    pub epoch: u32,
    /// Virtual (replay) or live (measured) stamping.
    pub mode: StampMode,
    /// Window length — live mode forces unfinished rounds at the next
    /// aligned boundary on this grid.
    pub window: Duration,
    /// Seconds a delivered total waits in the view before reads see it,
    /// on top of what the sockets impose (the spec's `extra_tree_lag`).
    pub extra_lag: f64,
    /// Listener bind address (children connect here).
    pub bind: SocketAddr,
}

/// A running wire-runtime node; stops and joins on drop.
pub struct WireNode {
    transport: Arc<WireTransport>,
    addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl WireNode {
    /// Binds the listener, spawns the runtime thread, and returns the
    /// handle plus the node's [`WireTransport`].
    pub fn start(cfg: WireNodeConfig) -> io::Result<WireNode> {
        if !(cfg.extra_lag.is_finite() && cfg.extra_lag >= 0.0) {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "extra_lag must be >= 0"));
        }
        let listener = TcpListener::bind(cfg.bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wakefd, wake) = WakeFd::new()?;
        let transport = Arc::new(WireTransport::new(&cfg, wake));
        let epoll = Epoll::new()?;
        epoll.add(&listener, T_LISTEN, Interest::READ)?;
        epoll.add(&wakefd, T_WAKE, Interest::READ)?;
        let force = (cfg.mode == StampMode::Live).then_some(cfg.window.as_secs_f64());
        let mut runtime = Runtime {
            node: TreeNode::new(cfg.parent.is_none(), &cfg.children, force),
            next_connect: cfg.parent.map(|_| 0.0),
            cfg,
            epoll,
            listener,
            wakefd,
            tp: Arc::clone(&transport),
            edges: Slab::new(),
            parent: None,
            parent_up: false,
            scratch: Vec::new(),
        };
        let handle = std::thread::Builder::new()
            .name(format!("wire-node-{}", runtime.cfg.node))
            .spawn(move || runtime.run())?;
        Ok(WireNode { transport, addr, handle: Some(handle) })
    }

    /// The transport the local enforcement plane publishes and reads
    /// through.
    pub fn transport(&self) -> Arc<WireTransport> {
        Arc::clone(&self.transport)
    }

    /// The runtime's counters.
    pub fn stats(&self) -> Arc<WireStats> {
        Arc::clone(self.transport.stats())
    }

    /// The address children connect to.
    pub fn listen_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the runtime thread and joins it (idempotent).
    pub fn shutdown(&mut self) {
        self.transport.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WireNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One tree-edge connection, to the parent or from a child.
struct Edge {
    stream: TcpStream,
    recv: RecvBuf,
    send: SendBuf,
    interest: Interest,
    /// On an accepted edge, the child's node id once its `Hello` came.
    child: Option<usize>,
}

struct Runtime {
    cfg: WireNodeConfig,
    node: TreeNode,
    epoll: Epoll,
    listener: TcpListener,
    wakefd: WakeFd,
    tp: Arc<WireTransport>,
    edges: Slab<Edge>,
    /// The parent edge's key in `edges` while one exists, and whether its
    /// nonblocking connect has completed.
    parent: Option<usize>,
    parent_up: bool,
    /// When to next attempt the parent connect; `None` while a connection
    /// is up or for the root.
    next_connect: Option<f64>,
    scratch: Vec<u8>,
}

impl Runtime {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        while !self.tp.stop.load(Ordering::Relaxed) {
            self.maybe_connect_parent();
            if self.epoll.wait(&mut events, self.poll_timeout()).is_err() {
                // A failed wait (fd pressure) is retried; the deadlines
                // still advance off the clock below.
                std::thread::yield_now();
            }
            for ev in events.iter().copied() {
                match ev.token {
                    T_LISTEN => self.accept_ready(),
                    T_WAKE => self.wakefd.drain(),
                    t => self.edge_ready((t - T_EDGE_BASE) as usize, ev),
                }
            }
            let published = std::mem::take(&mut *self.tp.outbox.lock());
            for (demand, t) in published {
                self.step(NodeCmd::Publish { demand, t });
            }
            // Forces a round whose deadline passed while nothing arrived.
            self.step(NodeCmd::Clock(self.tp.clock.now()));
        }
    }

    /// Epoll timeout until the nearer of the node's deadline and the
    /// parent reconnect; without either, until a socket event or a wake.
    fn poll_timeout(&self) -> i32 {
        let deadline = [self.node.deadline(), self.next_connect].into_iter().flatten();
        let Some(at) = deadline.reduce(f64::min) else { return -1 };
        let ms = ((at - self.tp.clock.now()).max(0.0) * 1e3).ceil();
        ms.min(i32::MAX as f64) as i32
    }

    /// Applies `cmd` at the current time and carries out what the node
    /// asks for.
    fn step(&mut self, cmd: NodeCmd) {
        let mut effects = Vec::new();
        self.node.apply(NodeCmd::Clock(self.tp.clock.now()), &mut effects);
        self.node.apply(cmd, &mut effects);
        let (node, epoch) = (self.cfg.node as u32, self.cfg.epoch);
        for effect in effects {
            match effect {
                Effect::ToParent(RoundMsg { round, t, values }) => {
                    if let Some(key) = self.parent {
                        self.send(key, &Frame::Up { node, epoch, round, t, values }, true);
                    }
                }
                Effect::ToChild(k, RoundMsg { round, t, values }) => {
                    let to = self.edges.iter().find(|(_, e)| e.child == Some(k)).map(|(key, _)| key);
                    if let Some(key) = to {
                        self.send(key, &Frame::Down { node, epoch, round, t, values }, true);
                    }
                }
                Effect::Deliver(m) => {
                    let stamp = match self.cfg.mode {
                        StampMode::Virtual => m.t,
                        StampMode::Live => self.tp.clock.now(),
                    };
                    self.tp.deliver(m.round, stamp, m.values);
                }
            }
        }
        self.tp.stats.record_node(self.node.completed(), self.node.forced(), self.node.last_rtt());
    }

    fn maybe_connect_parent(&mut self) {
        let Some(addr) = self.cfg.parent else { return };
        let now = self.tp.clock.now();
        if self.parent.is_some() || self.next_connect.is_some_and(|at| now < at) {
            return;
        }
        self.next_connect = Some(now + RECONNECT_DELAY);
        if let Ok(stream) = connect_nonblocking(addr) {
            self.parent = self.add_edge(stream, Interest::READ | Interest::WRITE);
            if self.parent.is_some() {
                self.next_connect = None;
            }
        }
    }

    fn accept_ready(&mut self) {
        while let Ok((stream, _peer)) = self.listener.accept() {
            if stream.set_nonblocking(true).is_ok() {
                let _ = stream.set_nodelay(true);
                self.add_edge(stream, Interest::READ);
            }
        }
    }

    fn add_edge(&mut self, stream: TcpStream, interest: Interest) -> Option<usize> {
        let recv = RecvBuf::with_capacity_limit(RECV_LIMIT);
        let key = self.edges.insert(Edge { stream, recv, send: SendBuf::new(), interest, child: None });
        let edge = self.edges.get(key)?;
        if self.epoll.add(&edge.stream, T_EDGE_BASE + key as u64, interest).is_err() {
            self.edges.remove(key);
            return None;
        }
        Some(key)
    }

    fn drop_edge(&mut self, key: usize) {
        let Some(edge) = self.edges.remove(key) else { return };
        let _ = self.epoll.remove(&edge.stream);
        if self.parent == Some(key) {
            self.parent = None;
            self.next_connect = Some(self.tp.clock.now() + RECONNECT_DELAY);
            if std::mem::take(&mut self.parent_up) {
                self.step(NodeCmd::ParentLost);
            }
        } else if let Some(k) = edge.child {
            self.step(NodeCmd::ChildLost(k));
        }
    }

    fn edge_ready(&mut self, key: usize, ev: Event) {
        let Some(edge) = self.edges.get_mut(key) else { return };
        let mut alive = !ev.error;
        if alive && ev.writable && self.parent == Some(key) && !self.parent_up {
            alive = matches!(take_socket_error(&edge.stream), Ok(None));
            if alive {
                self.parent_up = true;
                let _ = edge.stream.set_nodelay(true);
                self.tp.stats.parent_connected();
                // Identify this edge; the node then resyncs its newest
                // subtree aggregate so the parent's last-good value is fresh.
                self.send(key, &Frame::Hello { node: self.cfg.node as u32 }, false);
                self.step(NodeCmd::ParentConnected);
            }
        }
        if alive && (ev.readable || ev.closed) {
            alive = self.read_frames(key);
        }
        if !alive {
            self.drop_edge(key);
        } else if ev.writable {
            self.flush(key);
        }
    }

    /// Reads and dispatches the edge's frames; false means drop it.
    fn read_frames(&mut self, key: usize) -> bool {
        let Some(edge) = self.edges.get_mut(key) else { return true };
        let open = !matches!(edge.recv.drain_from(&mut edge.stream), Ok(Io::Eof) | Err(_));
        // On a close or a bad frame, the frames that parsed before it
        // still count.
        let mut frames = Vec::new();
        let valid = loop {
            match Frame::decode(edge.recv.data()) {
                Ok(Some((frame, used))) => {
                    edge.recv.consume(used);
                    frames.push(frame);
                }
                Ok(None) => break true,
                Err(_) => break false,
            }
        };
        frames.into_iter().all(|frame| self.on_frame(key, frame)) && valid && open
    }

    /// Handles one frame from an edge; false drops the connection.
    fn on_frame(&mut self, key: usize, frame: Frame) -> bool {
        let from_parent = self.parent == Some(key);
        let hello = self.edges.get(key).and_then(|e| e.child);
        let cmd = match frame {
            Frame::Hello { node } if !from_parent => {
                let k = node as usize;
                if !self.cfg.children.contains(&k) {
                    return false; // not one of ours: refuse the edge
                }
                // A reconnecting child replaces its stale edge.
                let old = self.edges.iter().find(|(_, e)| e.child == Some(k)).map(|(j, _)| j);
                if let Some(j) = old.filter(|&j| j != key) {
                    self.drop_edge(j);
                }
                if let Some(edge) = self.edges.get_mut(key) {
                    edge.child = Some(k);
                }
                NodeCmd::ChildConnected(k)
            }
            Frame::Up { node, epoch, round, t, values } if !from_parent => {
                self.tp.stats.frame_received();
                if epoch != self.cfg.epoch {
                    return true; // stale topology: ignore, keep the edge
                }
                if hello != Some(node as usize) {
                    return false; // Up before Hello, or forged id
                }
                NodeCmd::FromChild(node as usize, RoundMsg { round, t, values })
            }
            Frame::Down { epoch, round, t, values, .. } if from_parent => {
                self.tp.stats.frame_received();
                if epoch != self.cfg.epoch {
                    return true;
                }
                NodeCmd::FromParent(RoundMsg { round, t, values })
            }
            // Parents only send Down and children never do: ignore the rest.
            _ => return true,
        };
        self.step(cmd);
        true
    }

    /// Queues `frame` on an edge and tries to write it out.
    fn send(&mut self, key: usize, frame: &Frame, count: bool) {
        let Some(edge) = self.edges.get_mut(key) else { return };
        self.scratch.clear();
        frame.encode(&mut self.scratch);
        edge.send.push(&self.scratch);
        if count {
            self.tp.stats.frame_sent();
        }
        self.flush(key);
    }

    fn flush(&mut self, key: usize) {
        let Some(edge) = self.edges.get_mut(key) else { return };
        let want = match edge.send.flush_into(&mut edge.stream) {
            Ok(Io::Progress(_)) => Interest::READ,
            Ok(Io::WouldBlock) => Interest::READ | Interest::WRITE,
            Ok(Io::Eof) | Err(_) => return self.drop_edge(key),
        };
        if edge.interest.contains(Interest::WRITE) != want.contains(Interest::WRITE) {
            edge.interest = want;
            let _ = self.epoll.modify(&edge.stream, T_EDGE_BASE + key as u64, want);
        }
    }
}
